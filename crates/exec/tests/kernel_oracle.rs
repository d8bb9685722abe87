//! Differential kernel-oracle harness: every vectorized columnar kernel
//! is checked, inline and at 2 and 8 threads, against a naive
//! row-at-a-time reference implementation written independently in this
//! file, on arbitrary (NULL-heavy) inputs.  These references are the only
//! row-at-a-time implementations left: the executor has one morsel path
//! per operator.
//!
//! "Identical" here means *bit*-identical: same rows, same row order,
//! same simulated cost, same `OpMetrics` — not just the same multiset.
//! Edge cases (empty batches, all-selected, none-selected predicates)
//! get dedicated deterministic tests below the property block.

use proptest::prelude::*;
use rqo_core::QueryToken;
use rqo_exec::kernels::{filter_batch, project_batch};
use rqo_exec::{execute_analyze, AggExpr, AggFunc, Batch, ExecOptions, PhysicalPlan};
use rqo_expr::Expr;
use rqo_storage::{Catalog, CostParams, CostTracker, DataType, Schema, TableBuilder, Value};

/// NULL-heavy three-column batch: `a Int`, `b Float`, `c Str`.
/// Nullability is derived from the generated values themselves so the
/// shrinker stays effective (`a % 4 == 0` → NULL a, `b` rounding to a
/// multiple of 5 → NULL b).
fn make_batch(rows: &[(i64, i64, u8)]) -> Batch {
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Float),
        ("c", DataType::Str),
    ]);
    let rows: Vec<Vec<Value>> = rows
        .iter()
        .map(|&(a, b, c)| {
            vec![
                if a % 4 == 0 {
                    Value::Null
                } else {
                    Value::Int(a)
                },
                if b % 5 == 0 {
                    Value::Null
                } else {
                    Value::Float(b as f64 * 0.25)
                },
                Value::str(match c % 3 {
                    0 => "red",
                    1 => "green",
                    _ => "blue",
                }),
            ]
        })
        .collect();
    Batch::new(schema, rows)
}

/// The predicate menu exercised against the filter kernel: typed Int and
/// Float comparisons, string equality, AND composition, BETWEEN, IS
/// NULL / OR (fallback path), and an always-false comparison.
fn predicate(which: usize, cut: i64) -> Expr {
    match which % 7 {
        0 => Expr::col("a").ge(Expr::lit(cut)),
        1 => Expr::col("b").lt(Expr::lit(cut as f64 * 0.25)),
        2 => Expr::col("c").eq(Expr::lit("green")),
        3 => Expr::col("a")
            .lt(Expr::lit(cut))
            .and(Expr::col("c").ne(Expr::lit("blue"))),
        4 => Expr::col("a").between(Expr::lit(cut), Expr::lit(cut + 10)),
        5 => Expr::col("a")
            .is_null()
            .or(Expr::col("b").ge(Expr::lit(cut as f64))),
        _ => Expr::col("b").gt(Expr::lit(1e18)),
    }
}

/// Row-at-a-time filter oracle: `eval_bool` per row, order preserved.
fn oracle_filter(batch: &Batch, bound: &Expr) -> Vec<Vec<Value>> {
    batch
        .rows
        .iter()
        .filter(|row| rqo_expr::eval_bool(bound, row))
        .cloned()
        .collect()
}

/// Row-at-a-time projection oracle.
fn oracle_project(batch: &Batch, ordinals: &[usize]) -> Vec<Vec<Value>> {
    batch
        .rows
        .iter()
        .map(|row| ordinals.iter().map(|&i| row[i].clone()).collect())
        .collect()
}

/// Nested-loops hash-join oracle: for each probe row in order, emit
/// `build ++ probe` for every matching build row in build order.  Key
/// equality is `Value`'s storage equality — NULL keys match NULL keys.
fn oracle_join(build: &Batch, probe: &Batch, bk: usize, pk: usize) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for prow in &probe.rows {
        for brow in &build.rows {
            if brow[bk] == prow[pk] {
                let mut row = brow.clone();
                row.extend(prow.iter().cloned());
                out.push(row);
            }
        }
    }
    out
}

/// Row-at-a-time aggregation oracle: accumulators updated in row order,
/// groups emitted sorted by key — the engine's deterministic output
/// order.  The float inputs are multiples of 0.25 within a small range,
/// so partial sums are exact and any morsel split must reproduce the
/// row-order sums bit for bit.
fn oracle_aggregate(batch: &Batch, group: usize, aggs: &[AggExpr]) -> Vec<Vec<Value>> {
    struct Acc {
        key: Value,
        sum_b: f64,
        n_star: i64,
        n_a: i64,
        avg_sum: f64,
        avg_n: i64,
        min_a: Option<Value>,
        max_b: Option<Value>,
    }
    let mut accs: Vec<Acc> = Vec::new();
    for row in &batch.rows {
        let key = &row[group];
        let acc = match accs.iter_mut().find(|a| &a.key == key) {
            Some(a) => a,
            None => {
                accs.push(Acc {
                    key: key.clone(),
                    sum_b: 0.0,
                    n_star: 0,
                    n_a: 0,
                    avg_sum: 0.0,
                    avg_n: 0,
                    min_a: None,
                    max_b: None,
                });
                accs.last_mut().unwrap()
            }
        };
        acc.n_star += 1;
        if !row[0].is_null() {
            acc.n_a += 1;
            if acc
                .min_a
                .as_ref()
                .is_none_or(|c| row[0].total_cmp(c) == std::cmp::Ordering::Less)
            {
                acc.min_a = Some(row[0].clone());
            }
        }
        if !row[1].is_null() {
            acc.sum_b += row[1].as_f64();
            acc.avg_sum += row[1].as_f64();
            acc.avg_n += 1;
            if acc
                .max_b
                .as_ref()
                .is_none_or(|c| row[1].total_cmp(c) == std::cmp::Ordering::Greater)
            {
                acc.max_b = Some(row[1].clone());
            }
        }
    }
    assert_eq!(aggs.len(), 6, "oracle hard-codes the six-aggregate menu");
    let mut rows: Vec<Vec<Value>> = accs
        .into_iter()
        .map(|a| {
            vec![
                a.key,
                Value::Float(a.sum_b),
                Value::Int(a.n_star),
                Value::Int(a.n_a),
                if a.avg_n == 0 {
                    Value::Null
                } else {
                    Value::Float(a.avg_sum / a.avg_n as f64)
                },
                a.min_a.unwrap_or(Value::Null),
                a.max_b.unwrap_or(Value::Null),
            ]
        })
        .collect();
    rows.sort_by(|x, y| x[0].total_cmp(&y[0]));
    rows
}

/// The six-aggregate menu matching [`oracle_aggregate`]'s output layout.
fn agg_menu() -> Vec<AggExpr> {
    vec![
        AggExpr::sum("b", "s"),
        AggExpr::count_star("n"),
        AggExpr {
            func: AggFunc::Count,
            column: Some("a".into()),
            alias: "na".into(),
        },
        AggExpr::avg("b", "m"),
        AggExpr::min("a", "lo"),
        AggExpr::max("b", "hi"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The vectorized filter kernel reproduces the row oracle exactly —
    /// rows, order — serially and at every thread count.
    #[test]
    fn filter_kernel_matches_oracle(
        rows in prop::collection::vec((-40i64..40, -40i64..40, 0u8..=255), 0..120),
        which in 0usize..7,
        cut in -30i64..30,
    ) {
        let batch = make_batch(&rows);
        let bound = predicate(which, cut).bind(&batch.schema).unwrap();
        let expect = oracle_filter(&batch, &bound);
        let serial = filter_batch(batch.clone(), &bound, &ExecOptions::default()).unwrap();
        prop_assert_eq!(&serial.rows, &expect);
        for threads in [2usize, 8] {
            let opts = ExecOptions::with_threads(threads).with_morsel_size(16);
            let par = filter_batch(batch.clone(), &bound, &opts).unwrap();
            prop_assert_eq!(&par.rows, &expect, "threads={}", threads);
        }
    }

    /// The column-at-a-time projection kernel reproduces the row oracle,
    /// including duplicated and reordered output columns.
    #[test]
    fn project_kernel_matches_oracle(
        rows in prop::collection::vec((-40i64..40, -40i64..40, 0u8..=255), 0..120),
        perm in 0usize..6,
    ) {
        let batch = make_batch(&rows);
        let ordinals: Vec<usize> = match perm {
            0 => vec![0, 1, 2],
            1 => vec![2, 0],
            2 => vec![1],
            3 => vec![1, 1, 0],
            4 => vec![2, 2],
            _ => vec![0, 2, 1, 0],
        };
        let schema = batch.schema.project(&ordinals);
        let expect = oracle_project(&batch, &ordinals);
        let serial =
            project_batch(batch.clone(), &ordinals, schema.clone(), &ExecOptions::default())
                .unwrap();
        prop_assert_eq!(&serial.rows, &expect);
        for threads in [2usize, 8] {
            let opts = ExecOptions::with_threads(threads).with_morsel_size(16);
            let par = project_batch(batch.clone(), &ordinals, schema.clone(), &opts).unwrap();
            prop_assert_eq!(&par.rows, &expect, "threads={}", threads);
        }
    }

    /// The typed-key hash-join kernel reproduces the nested-loops oracle
    /// (probe-major order, build order within a key, NULL keys matching
    /// NULL keys) and charges one build per build row, one probe per
    /// probe row, and one CPU op per output row, at every thread count.
    #[test]
    fn join_kernel_matches_oracle(
        build in prop::collection::vec((-6i64..6, -100i64..100, 0u8..=255), 0..60),
        probe in prop::collection::vec((-6i64..6, -100i64..100, 0u8..=255), 0..60),
    ) {
        let b = make_batch(&build);
        let p = make_batch(&probe);
        let expect = oracle_join(&b, &p, 0, 0);
        let mut expect_cost = CostTracker::new();
        expect_cost.charge_hash_builds(b.len() as u64);
        expect_cost.charge_hash_probes(p.len() as u64);
        expect_cost.charge_cpu_ops(expect.len() as u64);

        for threads in [1usize, 2, 8] {
            let opts = ExecOptions::with_threads(threads).with_morsel_size(16);
            let mut t = CostTracker::new();
            let out = rqo_exec::join::hash_join(&mut t, b.clone(), p.clone(), "a", "a", &opts)
                .unwrap();
            prop_assert_eq!(&out.rows, &expect, "threads={}", threads);
            prop_assert_eq!(t, expect_cost, "threads={}", threads);
        }
    }

    /// The columnar aggregation kernel reproduces the row-order oracle
    /// bit-for-bit over NULL-heavy inputs — in one morsel and split into
    /// 16-row morsels at every thread count (the 0.25-step inputs make
    /// every partial-sum merge exact).
    #[test]
    fn agg_kernel_matches_oracle(
        rows in prop::collection::vec((-40i64..40, -40i64..40, 0u8..=255), 0..120),
    ) {
        let batch = make_batch(&rows);
        let aggs = agg_menu();
        let expect = oracle_aggregate(&batch, 2, &aggs);
        let group = ["c".to_string()];

        let mut t_one = CostTracker::new();
        let one = rqo_exec::agg::hash_aggregate(
            &mut t_one, batch.clone(), &group, &aggs, &ExecOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(&one.rows, &expect);
        prop_assert_eq!(t_one.hash_builds, batch.len() as u64);
        prop_assert_eq!(t_one.cpu_ops, expect.len() as u64);

        for threads in [1usize, 2, 8] {
            let opts = ExecOptions::with_threads(threads).with_morsel_size(16);
            let mut t = CostTracker::new();
            let out = rqo_exec::agg::hash_aggregate(&mut t, batch.clone(), &group, &aggs, &opts)
                .unwrap();
            prop_assert_eq!(&out.rows, &expect, "threads={}", threads);
            prop_assert_eq!(t, t_one, "threads={}", threads);
        }
    }

    /// Executor-level differential: a scan→join→filter→project→aggregate
    /// plan produces bit-identical rows, costs, AND `OpMetrics` trees
    /// inline, with a token, and at 2 and 8 threads.
    #[test]
    fn executor_paths_bit_identical(
        rows in prop::collection::vec((-10i64..10, -50i64..50), 1..80),
        cut in -40i64..40,
    ) {
        let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]);
        let mut tb = TableBuilder::new("t", schema, rows.len());
        for &(k, v) in &rows {
            tb.push_row(&[Value::Int(k), Value::Int(v)]);
        }
        let mut cat = Catalog::new();
        cat.add_table(tb.finish()).unwrap();
        let params = CostParams::default();
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::HashJoin {
                        build: Box::new(PhysicalPlan::SeqScan {
                            table: "t".into(),
                            predicate: Some(Expr::col("v").ge(Expr::lit(cut))),
                        }),
                        probe: Box::new(PhysicalPlan::SeqScan {
                            table: "t".into(),
                            predicate: None,
                        }),
                        build_key: "k".into(),
                        probe_key: "k".into(),
                    }),
                    predicate: Expr::col("r.v").lt(Expr::lit(cut + 40)),
                }),
                columns: vec!["l.k".into(), "r.v".into()],
            }),
            group_by: vec!["l.k".into()],
            aggregates: vec![AggExpr::sum("r.v", "s"), AggExpr::count_star("n")],
        };
        let base_opts = ExecOptions::serial().with_morsel_size(16);
        let (rb, rc, rm) = execute_analyze(&plan, &cat, &params, &base_opts);
        let variants = [
            ("token", base_opts.clone().with_token(QueryToken::new())),
            ("2 threads", ExecOptions::with_threads(2).with_morsel_size(16)),
            ("8 threads", ExecOptions::with_threads(8).with_morsel_size(16)),
        ];
        for (mode, opts) in variants {
            let (cb, cc, cm) = execute_analyze(&plan, &cat, &params, &opts);
            prop_assert_eq!(&cb.rows, &rb.rows, "{}", mode);
            prop_assert_eq!(cc, rc, "{}", mode);
            prop_assert_eq!(&cm, &rm, "{}", mode);
        }
    }
}

/// Empty input through every kernel: no rows out, schemas intact.
#[test]
fn kernels_on_empty_batch() {
    let empty = make_batch(&[]);
    let bound = predicate(0, 0).bind(&empty.schema).unwrap();
    let inline = ExecOptions::default();
    assert!(filter_batch(empty.clone(), &bound, &inline)
        .unwrap()
        .rows
        .is_empty());

    let ordinals = [2usize, 0];
    let schema = empty.schema.project(&ordinals);
    let projected = project_batch(empty.clone(), &ordinals, schema, &inline).unwrap();
    assert!(projected.rows.is_empty());
    assert_eq!(projected.schema.names(), vec!["c", "a"]);

    let mut t = CostTracker::new();
    let joined =
        rqo_exec::join::hash_join(&mut t, empty.clone(), empty.clone(), "a", "a", &inline).unwrap();
    assert!(joined.rows.is_empty());

    // Scalar aggregate over empty input still yields its identity row.
    let mut t = CostTracker::new();
    let aggd = rqo_exec::agg::hash_aggregate(&mut t, empty, &[], &agg_menu(), &inline).unwrap();
    assert_eq!(
        aggd.rows,
        vec![vec![
            Value::Float(0.0),
            Value::Int(0),
            Value::Int(0),
            Value::Null,
            Value::Null,
            Value::Null,
        ]]
    );
}

/// All-selected and none-selected filters are exact (and exactly empty).
#[test]
fn filter_kernel_all_and_none_selected() {
    let batch = make_batch(&(0..200).map(|i| (i, i, i as u8)).collect::<Vec<_>>());
    // a IS NULL OR a >= i64::MIN covers every row, NULL or not.
    let all = Expr::col("a")
        .is_null()
        .or(Expr::col("a").ge(Expr::lit(i64::MIN)))
        .bind(&batch.schema)
        .unwrap();
    let out = filter_batch(batch.clone(), &all, &ExecOptions::default()).unwrap();
    assert_eq!(out.rows, batch.rows);

    let none = Expr::col("b")
        .gt(Expr::lit(1e18))
        .bind(&batch.schema)
        .unwrap();
    for opts in [
        ExecOptions::default(),
        ExecOptions::with_threads(4).with_morsel_size(16),
    ] {
        let out = filter_batch(batch.clone(), &none, &opts).unwrap();
        assert!(out.rows.is_empty());
    }
}
