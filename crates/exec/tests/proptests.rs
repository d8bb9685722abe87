//! Property-based tests of the physical operators: every join algorithm
//! must agree with a naive nested-loops reference on arbitrary inputs,
//! and aggregation must agree with direct computation.

use proptest::prelude::*;
use rqo_exec::{AggExpr, Batch, IndexRange, PhysicalPlan};
use rqo_expr::Expr;
use rqo_storage::{Catalog, CostParams, DataType, Schema, TableBuilder, Value};

/// Builds a catalog with one table `t(k, v)` and indexes on both columns.
fn catalog(rows: &[(i64, i64)]) -> Catalog {
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
    let mut b = TableBuilder::new("t", schema, rows.len());
    for &(k, v) in rows {
        b.push_row(&[Value::Int(k), Value::Int(v)]);
    }
    let mut cat = Catalog::new();
    cat.add_table(b.finish()).unwrap();
    cat.ensure_secondary_index("t", "k").unwrap();
    cat.ensure_secondary_index("t", "v").unwrap();
    cat
}

/// Canonical multiset rendering of a batch for order-insensitive
/// comparison.
fn canon(batch: &Batch) -> Vec<String> {
    let mut rows: Vec<String> = batch
        .rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scan, seek, and intersection over the same predicate return the
    /// same multiset of rows (at different costs).
    #[test]
    fn access_paths_agree(
        rows in prop::collection::vec((-20i64..20, -20i64..20), 0..150),
        k_lo in -25i64..25,
        k_len in 0i64..25,
        v_lo in -25i64..25,
        v_len in 0i64..25,
    ) {
        let cat = catalog(&rows);
        let params = CostParams::default();
        let pred = Expr::col("k")
            .between(Expr::lit(k_lo), Expr::lit(k_lo + k_len))
            .and(Expr::col("v").between(Expr::lit(v_lo), Expr::lit(v_lo + v_len)));

        let scan = PhysicalPlan::SeqScan {
            table: "t".into(),
            predicate: Some(pred.clone()),
        };
        let seek = PhysicalPlan::IndexSeek {
            table: "t".into(),
            range: IndexRange::between("k", Value::Int(k_lo), Value::Int(k_lo + k_len)),
            residual: Some(Expr::col("v").between(Expr::lit(v_lo), Expr::lit(v_lo + v_len))),
        };
        let sect = PhysicalPlan::IndexIntersection {
            table: "t".into(),
            ranges: vec![
                IndexRange::between("k", Value::Int(k_lo), Value::Int(k_lo + k_len)),
                IndexRange::between("v", Value::Int(v_lo), Value::Int(v_lo + v_len)),
            ],
            residual: None,
        };
        let (b_scan, _) = rqo_exec::execute(&scan, &cat, &params);
        let (b_seek, _) = rqo_exec::execute(&seek, &cat, &params);
        let (b_sect, _) = rqo_exec::execute(&sect, &cat, &params);
        prop_assert_eq!(canon(&b_scan), canon(&b_seek));
        prop_assert_eq!(canon(&b_scan), canon(&b_sect));
    }

    /// Hash join and merge join agree with the nested-loops reference.
    #[test]
    fn joins_agree_with_reference(
        left in prop::collection::vec((-8i64..8, -100i64..100), 0..60),
        right in prop::collection::vec((-8i64..8, -100i64..100), 0..60),
    ) {
        // Reference: nested loops over the raw tuples.
        let mut expected: Vec<String> = Vec::new();
        for &(lk, lv) in &left {
            for &(rk, rv) in &right {
                if lk == rk {
                    expected.push(format!("{lk}|{lv}|{rk}|{rv}"));
                }
            }
        }
        expected.sort();

        let mk_batch = |name: &str, data: &[(i64, i64)]| {
            Batch::new(
                Schema::from_pairs(&[
                    (&format!("{name}k"), DataType::Int),
                    (&format!("{name}v"), DataType::Int),
                ]),
                data.iter()
                    .map(|&(k, v)| vec![Value::Int(k), Value::Int(v)])
                    .collect(),
            )
        };
        let lb = mk_batch("l", &left);
        let rb = mk_batch("r", &right);

        let mut t1 = rqo_storage::CostTracker::new();
        let opts = rqo_exec::ExecOptions::default();
        let hashed = rqo_exec::join::hash_join(&mut t1, lb.clone(), rb.clone(), "lk", "rk", &opts)
            .unwrap();
        prop_assert_eq!(canon(&hashed), expected.clone());

        let mut t2 = rqo_storage::CostTracker::new();
        let merged = rqo_exec::join::merge_join(&mut t2, lb, rb, "lk", "rk");
        prop_assert_eq!(canon(&merged), expected);
    }

    /// Indexed nested loops agrees with the reference when the inner side
    /// is the indexed table.
    #[test]
    fn indexed_nl_agrees_with_reference(
        inner in prop::collection::vec((-6i64..6, -50i64..50), 0..80),
        outer_keys in prop::collection::vec(-8i64..8, 0..30),
    ) {
        let cat = catalog(&inner);
        let params = CostParams::default();
        let outer = Batch::new(
            Schema::from_pairs(&[("ok", DataType::Int)]),
            outer_keys.iter().map(|&k| vec![Value::Int(k)]).collect(),
        );
        let mut tracker = rqo_storage::CostTracker::new();
        let joined = rqo_exec::join::indexed_nl_join(
            &cat, &params, &mut tracker, outer, "t", "k", "ok", &rqo_exec::ExecOptions::default(),
        )
        .unwrap();
        let mut expected: Vec<String> = Vec::new();
        for &ok in &outer_keys {
            for &(k, v) in &inner {
                if k == ok {
                    expected.push(format!("{ok}|{k}|{v}"));
                }
            }
        }
        expected.sort();
        prop_assert_eq!(canon(&joined), expected);
    }

    /// Grouped aggregation agrees with direct computation.
    #[test]
    fn aggregation_agrees_with_reference(
        rows in prop::collection::vec((-5i64..5, -100i64..100), 0..120),
    ) {
        let input = Batch::new(
            Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Int)]),
            rows.iter()
                .map(|&(g, x)| vec![Value::Int(g), Value::Int(x)])
                .collect(),
        );
        let mut tracker = rqo_storage::CostTracker::new();
        let out = rqo_exec::agg::hash_aggregate(
            &mut tracker,
            input,
            &["g".to_string()],
            &[
                AggExpr::sum("x", "s"),
                AggExpr::count_star("n"),
                AggExpr::min("x", "lo"),
                AggExpr::max("x", "hi"),
            ],
            &rqo_exec::ExecOptions::default(),
        )
        .unwrap();
        use std::collections::BTreeMap;
        let mut expected: BTreeMap<i64, (f64, i64, i64, i64)> = BTreeMap::new();
        for &(g, x) in &rows {
            let e = expected.entry(g).or_insert((0.0, 0, i64::MAX, i64::MIN));
            e.0 += x as f64;
            e.1 += 1;
            e.2 = e.2.min(x);
            e.3 = e.3.max(x);
        }
        prop_assert_eq!(out.len(), expected.len());
        for row in &out.rows {
            let g = row[0].as_int();
            let (s, n, lo, hi) = expected[&g];
            prop_assert_eq!(row[1].as_f64(), s);
            prop_assert_eq!(row[2].as_int(), n);
            prop_assert_eq!(row[3].as_int(), lo);
            prop_assert_eq!(row[4].as_int(), hi);
        }
    }

    /// Filter and Project nodes compose without changing semantics.
    #[test]
    fn filter_project_compose(rows in prop::collection::vec((-20i64..20, -20i64..20), 0..100), cut in -20i64..20) {
        let cat = catalog(&rows);
        let params = CostParams::default();
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::SeqScan { table: "t".into(), predicate: None }),
                predicate: Expr::col("v").ge(Expr::lit(cut)),
            }),
            columns: vec!["v".into()],
        };
        let (batch, _) = rqo_exec::execute(&plan, &cat, &params);
        let expected = rows.iter().filter(|&&(_, v)| v >= cut).count();
        prop_assert_eq!(batch.len(), expected);
        prop_assert_eq!(batch.schema.names(), vec!["v"]);
    }
}
