//! Differential serial-vs-parallel executor tests.
//!
//! For randomly generated catalogs and plans, parallel execution at 1, 2,
//! and 8 worker threads must return **exactly** the serial rows (same
//! values, same order — stronger than the multiset requirement) and the
//! **bit-identical** `CostTracker` totals: the simulated cost models the
//! plan's work, never the host's parallelism.
//!
//! Every operator runs one morsel path at every thread count, so even
//! float SUM/AVG over non-dyadic inputs must match to the last bit;
//! [`float_aggregates_are_bit_identical_across_execution_modes`] pins
//! that deterministically.
//!
//! The same differential harness also pins the `EXPLAIN ANALYZE` metrics
//! tree: every per-operator counter ([`OpMetrics`] compares everything
//! except wall time) and its rendered form must be identical at 1, 2,
//! and 8 threads for the same morsel size.

use proptest::prelude::*;
use rqo_core::QueryToken;
use rqo_datagen::workload::exp1_lineitem_predicate;
use rqo_datagen::{TpchConfig, TpchData};
use rqo_exec::{
    execute, execute_analyze, execute_with, AggExpr, ExecOptions, IndexRange, OpMetrics,
    PhysicalPlan,
};
use rqo_expr::Expr;
use rqo_storage::{Catalog, CostParams, DataType, Schema, TableBuilder, Value};

/// Runs the plan serially and at 1/2/8 threads with the given morsel
/// size, requiring identical rows, identical cost totals, and identical
/// per-operator metrics trees across every thread count.
fn assert_equivalent(
    cat: &Catalog,
    plan: &PhysicalPlan,
    morsel: usize,
) -> Result<(), TestCaseError> {
    let params = CostParams::default();
    let (serial, serial_cost) = execute(plan, cat, &params);
    let mut baseline: Option<OpMetrics> = None;
    for threads in [1usize, 2, 8] {
        let opts = ExecOptions::with_threads(threads).with_morsel_size(morsel);
        let (par, par_cost, metrics) = execute_analyze(plan, cat, &params, &opts);
        prop_assert_eq!(
            &par.rows,
            &serial.rows,
            "rows diverged: threads={} morsel={} plan_nodes={}",
            threads,
            morsel,
            plan.node_count()
        );
        prop_assert_eq!(
            par_cost,
            serial_cost,
            "cost diverged: threads={} morsel={} plan_nodes={}",
            threads,
            morsel,
            plan.node_count()
        );
        match &baseline {
            None => baseline = Some(metrics),
            Some(base) => {
                prop_assert_eq!(
                    metrics.render(),
                    base.render(),
                    "rendered metrics diverged: threads={} morsel={}",
                    threads,
                    morsel
                );
                prop_assert_eq!(
                    &metrics,
                    base,
                    "metrics tree diverged: threads={} morsel={}",
                    threads,
                    morsel
                );
            }
        }
    }
    Ok(())
}

/// A table `t(k, v, f)` with `n` rows: `k` in a small domain (join/group
/// collisions), `v` a pseudo-random int, `f` an integer-valued float.
/// Secondary indexes on `k` and `v`.
fn base_catalog(n: usize, key_mod: i64) -> Catalog {
    let mut b = TableBuilder::new(
        "t",
        Schema::from_pairs(&[
            ("k", DataType::Int),
            ("v", DataType::Int),
            ("f", DataType::Float),
        ]),
        n.max(1),
    );
    for i in 0..n as i64 {
        b.push_row(&[
            Value::Int(i % key_mod),
            Value::Int(i * 3 % 101),
            Value::Float((i * 7 % 50) as f64),
        ]);
    }
    let mut cat = Catalog::new();
    cat.add_table(b.finish()).unwrap();
    cat.ensure_secondary_index("t", "k").unwrap();
    cat.ensure_secondary_index("t", "v").unwrap();
    cat
}

/// Adds an outer table `u(k, w)` whose keys overlap `t.k`'s domain.
fn with_outer(mut cat: Catalog, m: usize, key_mod: i64) -> Catalog {
    let mut b = TableBuilder::new(
        "u",
        Schema::from_pairs(&[("k", DataType::Int), ("w", DataType::Int)]),
        m.max(1),
    );
    for i in 0..m as i64 {
        b.push_row(&[Value::Int(i * 5 % key_mod), Value::Int(i)]);
    }
    cat.add_table(b.finish()).unwrap();
    cat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scan_and_seek_plans_equivalent(
        n in 0usize..300,
        key_mod in 1i64..20,
        cut in 0i64..101,
        res in 0i64..101,
        morsel in 1usize..100,
    ) {
        let cat = base_catalog(n, key_mod);

        let seq = PhysicalPlan::SeqScan {
            table: "t".into(),
            predicate: Some(Expr::col("v").lt(Expr::lit(cut))),
        };
        assert_equivalent(&cat, &seq, morsel)?;

        let seek = PhysicalPlan::IndexSeek {
            table: "t".into(),
            range: IndexRange::between(
                "k",
                Value::Int(cut % key_mod),
                Value::Int(cut % key_mod + 3),
            ),
            residual: Some(Expr::col("v").ge(Expr::lit(res))),
        };
        assert_equivalent(&cat, &seek, morsel)?;

        let sect = PhysicalPlan::IndexIntersection {
            table: "t".into(),
            ranges: vec![
                IndexRange::between("k", Value::Int(0), Value::Int(cut % key_mod)),
                IndexRange::between("v", Value::Int(res / 2), Value::Int(res / 2 + 40)),
            ],
            residual: None,
        };
        assert_equivalent(&cat, &sect, morsel)?;
    }

    #[test]
    fn join_plans_equivalent(
        n in 0usize..250,
        m in 0usize..120,
        key_mod in 1i64..15,
        cut in 0i64..101,
        morsel in 1usize..64,
    ) {
        let cat = with_outer(base_catalog(n, key_mod), m, key_mod);

        let hash = PhysicalPlan::HashJoin {
            build: Box::new(PhysicalPlan::SeqScan {
                table: "u".into(),
                predicate: None,
            }),
            probe: Box::new(PhysicalPlan::SeqScan {
                table: "t".into(),
                predicate: Some(Expr::col("v").lt(Expr::lit(cut))),
            }),
            build_key: "k".into(),
            probe_key: "k".into(),
        };
        assert_equivalent(&cat, &hash, morsel)?;

        let inl = PhysicalPlan::IndexedNlJoin {
            outer: Box::new(PhysicalPlan::SeqScan {
                table: "u".into(),
                predicate: Some(Expr::col("w").lt(Expr::lit(cut))),
            }),
            inner_table: "t".into(),
            inner_index_column: "k".into(),
            outer_key: "k".into(),
        };
        assert_equivalent(&cat, &inl, morsel)?;
    }

    #[test]
    fn aggregate_and_pipeline_plans_equivalent(
        n in 0usize..400,
        key_mod in 1i64..12,
        cut in 0i64..101,
        grouped: bool,
        morsel in 1usize..128,
    ) {
        let cat = base_catalog(n, key_mod);
        let group_by = if grouped { vec!["k".to_string()] } else { vec![] };

        let agg = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::SeqScan {
                table: "t".into(),
                predicate: None,
            }),
            group_by: group_by.clone(),
            aggregates: vec![
                AggExpr::sum("f", "s"),
                AggExpr::count_star("n"),
                AggExpr::avg("f", "a"),
                AggExpr::min("f", "lo"),
                AggExpr::max("f", "hi"),
            ],
        };
        assert_equivalent(&cat, &agg, morsel)?;

        // Filter → project → aggregate pipeline over the scan.
        let pipeline = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::SeqScan {
                        table: "t".into(),
                        predicate: None,
                    }),
                    predicate: Expr::col("v").lt(Expr::lit(cut)),
                }),
                columns: vec!["k".into(), "f".into()],
            }),
            group_by,
            aggregates: vec![AggExpr::sum("f", "s"), AggExpr::count_star("n")],
        };
        assert_equivalent(&cat, &pipeline, morsel)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End-to-end over rqo-datagen's TPC-H-like catalog: the paper's
    /// Experiment-1 query shape at random seeds and predicate offsets.
    #[test]
    fn tpch_catalog_equivalent(
        seed in 0u64..1000,
        offset in 0i64..200,
        morsel in 1usize..2048,
    ) {
        let data = TpchData::generate(&TpchConfig {
            scale_factor: 0.002,
            seed,
        });
        let cat = data.into_catalog();
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::SeqScan {
                table: "lineitem".into(),
                predicate: Some(exp1_lineitem_predicate(offset)),
            }),
            group_by: vec![],
            aggregates: vec![
                AggExpr::count_star("n"),
                AggExpr::min("l_extendedprice", "lo"),
                AggExpr::max("l_extendedprice", "hi"),
            ],
        };
        assert_equivalent(&cat, &plan, morsel)?;
    }
}

/// SUM/AVG over non-dyadic floats spanning several morsels, with groups:
/// `execute` (inline), a tokened run at one thread (the service path),
/// and 2- and 8-thread runs must agree bit for bit.  Every execution mode
/// runs the same morsels and merges them in the same order.
#[test]
fn float_aggregates_are_bit_identical_across_execution_modes() {
    let n = 20_000i64;
    let mut b = TableBuilder::new(
        "f",
        Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Float)]),
        n as usize,
    );
    for i in 0..n {
        b.push_row(&[Value::Int(i % 3), Value::Float(0.1 * i as f64 + 1.0 / 3.0)]);
    }
    let mut cat = Catalog::new();
    cat.add_table(b.finish()).unwrap();
    let params = CostParams::default();
    let scan = || {
        Box::new(PhysicalPlan::SeqScan {
            table: "f".into(),
            predicate: None,
        })
    };
    let aggregates = vec![AggExpr::sum("x", "s"), AggExpr::avg("x", "a")];
    for group_by in [vec![], vec!["g".to_string()]] {
        let plan = PhysicalPlan::HashAggregate {
            input: scan(),
            group_by,
            aggregates: aggregates.clone(),
        };
        // 20k rows are five default-size morsels.
        assert!(ExecOptions::default().morsel_count(n as usize) >= 3);
        let (serial, serial_cost) = execute(&plan, &cat, &params);
        let modes = [
            (
                "token",
                ExecOptions::with_threads(1).with_token(QueryToken::new()),
            ),
            ("2 threads", ExecOptions::with_threads(2)),
            ("8 threads", ExecOptions::with_threads(8)),
        ];
        for (mode, opts) in modes {
            let (rows, cost) = execute_with(&plan, &cat, &params, &opts);
            let bits = |b: &rqo_exec::Batch| -> Vec<Vec<u64>> {
                b.rows
                    .iter()
                    .map(|r| r.iter().map(|v| v.as_f64().to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&rows), bits(&serial), "{mode}");
            assert_eq!(rows.rows, serial.rows, "{mode}");
            assert_eq!(cost, serial_cost, "{mode}");
        }
    }
}
