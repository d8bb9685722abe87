//! Plan interpretation.

use std::time::Instant;

use rqo_core::StopReason;
use rqo_storage::{Catalog, CostParams, CostTracker};

use crate::adaptive::{GuardTrip, RowGuard};
use crate::agg::hash_aggregate;
use crate::batch::Batch;
use crate::join::{hash_join, indexed_nl_join, merge_join, star_semijoin};
use crate::kernels::{filter_batch, project_batch};
use crate::metrics::OpMetrics;
use crate::morsel::ExecOptions;
use crate::plan::PhysicalPlan;
use crate::scan::{index_intersection, index_seek, partitioned_scan, seq_scan, surviving_spans};

/// Why the interpreter unwound before producing the root's result:
/// either a cardinality guard tripped (adaptive re-planning takes over)
/// or the query's token fired (cancellation/deadline).
pub(crate) enum Interrupt {
    /// A [`RowGuard`] bound was violated at a pipeline breaker.
    Trip(Box<GuardTrip>),
    /// The query's [`rqo_core::QueryToken`] fired.
    Stopped(StopReason),
}

/// Executes a physical plan against the catalog, returning the result and
/// the full simulated cost of producing it.
///
/// Execution is deterministic: the same plan over the same catalog always
/// returns the same rows and the same cost.  Equivalent to
/// [`execute_with`] under [`ExecOptions::default`] (one thread).
pub fn execute(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    params: &CostParams,
) -> (Batch, CostTracker) {
    execute_with(plan, catalog, params, &ExecOptions::default())
}

/// Executes a physical plan with explicit execution options.
///
/// Every operator except merge join and the star semijoin (which are
/// sort- and intersection-bound and run on the calling thread) splits its
/// input into morsels; `opts` only decides who runs them — the calling
/// thread, `opts.threads` scoped workers, or an attached scheduler.
/// Morsel boundaries depend on `opts.morsel_size` alone and partial
/// results merge in morsel index order, so rows, the returned
/// [`CostTracker`], and float aggregates are **bit-identical for every
/// thread count**, with or without a token: simulated cost models the
/// plan's work, not the host's parallelism.
pub fn execute_with(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    params: &CostParams,
    opts: &ExecOptions,
) -> (Batch, CostTracker) {
    let (batch, tracker, _) = execute_analyze(plan, catalog, params, opts);
    (batch, tracker)
}

/// Token-aware [`execute_with`]: returns `Err(StopReason)` when the
/// query's [`rqo_core::QueryToken`] fires mid-execution (within one
/// morsel of the cancellation or deadline).  The partial work's cost is
/// discarded along with the partial rows — an interrupted query reports
/// nothing.
pub fn try_execute_with(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    params: &CostParams,
    opts: &ExecOptions,
) -> Result<(Batch, CostTracker), StopReason> {
    let (batch, tracker, _) = try_execute_analyze(plan, catalog, params, opts)?;
    Ok((batch, tracker))
}

/// [`execute_with`] plus the per-operator [`OpMetrics`] tree — the
/// `EXPLAIN ANALYZE` entry point.
///
/// The metrics tree mirrors the plan tree node for node (same labels as
/// [`PhysicalPlan::explain`], children in execution order) and every
/// deterministic field — rows in/out, morsel counts, peak hash entries,
/// per-subtree cost deltas — is identical at any thread count: morsel
/// counts come from input sizes, partial results merge in morsel index
/// order, and only the informational `wall_ns` (excluded from equality
/// and rendering) reflects the host's actual parallelism.
pub fn execute_analyze(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    params: &CostParams,
    opts: &ExecOptions,
) -> (Batch, CostTracker, OpMetrics) {
    try_execute_analyze(plan, catalog, params, opts)
        .expect("query was stopped; use try_execute_analyze with a token")
}

/// Token-aware [`execute_analyze`]: `Err(StopReason)` when the query's
/// token fires mid-execution.
pub fn try_execute_analyze(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    params: &CostParams,
    opts: &ExecOptions,
) -> Result<(Batch, CostTracker, OpMetrics), StopReason> {
    let mut tracker = CostTracker::new();
    match run_guarded(plan, catalog, params, &mut tracker, opts, &[], &[]) {
        Ok((batch, metrics)) => Ok((batch, tracker, metrics)),
        Err(Interrupt::Stopped(reason)) => Err(reason),
        Err(Interrupt::Trip(_)) => unreachable!("no guards armed"),
    }
}

/// Everything the recursive interpreter reads but never mutates.
struct Env<'a> {
    catalog: &'a Catalog,
    params: &'a CostParams,
    opts: &'a ExecOptions,
    /// Armed cardinality guards, looked up by pre-order node index.
    guards: &'a [RowGuard],
    /// Bound intermediates for `Materialized` leaves, by slot.
    slots: &'a [Batch],
}

/// The guarded interpreter entry point (used by
/// [`crate::adaptive::execute_guarded`]): runs the plan, accumulating
/// cost into `tracker`, and stops with a [`GuardTrip`] at the first
/// guard whose actual output cardinality violates its bound — or with a
/// [`StopReason`] when the query's token fires.  Guard checks happen in
/// execution order, so the first trip is deterministic at every thread
/// count.
pub(crate) fn run_guarded(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    opts: &ExecOptions,
    guards: &[RowGuard],
    slots: &[Batch],
) -> Result<(Batch, OpMetrics), Interrupt> {
    let env = Env {
        catalog,
        params,
        opts,
        guards,
        slots,
    };
    run(plan, &env, tracker, &mut 0)
}

fn run(
    plan: &PhysicalPlan,
    env: &Env<'_>,
    tracker: &mut CostTracker,
    counter: &mut usize,
) -> Result<(Batch, OpMetrics), Interrupt> {
    let my_idx = *counter;
    *counter += 1;
    let start = Instant::now();
    let before = *tracker;
    let (catalog, params, opts) = (env.catalog, env.params, env.opts);
    // Cooperative cancellation at operator entry: together with the
    // per-morsel polls inside `run_morsels`, a fired token unwinds the
    // whole tree within one morsel of work.
    if let Some(reason) = opts.check_stop() {
        return Err(Interrupt::Stopped(reason));
    }
    // An operator that came back empty-handed was stopped by the token.
    let stopped = || Interrupt::Stopped(opts.stop_reason().unwrap_or(StopReason::Cancelled));
    // Each arm yields the output batch plus the metric ingredients that
    // are only visible here: rows consumed, morsel count (computed from
    // sizes, identical at every thread count), peak hash entries, children.
    let (batch, rows_in, morsels, peak_hash_entries, children) = match plan {
        PhysicalPlan::SeqScan { table, predicate } => {
            let n = catalog.table(table).expect("table exists").num_rows();
            let batch = seq_scan(catalog, params, tracker, table, predicate.as_ref(), opts)
                .ok_or_else(stopped)?;
            (batch, n as u64, opts.morsel_count(n), 0, vec![])
        }
        PhysicalPlan::PartitionedScan {
            table,
            predicate,
            partitions,
            ..
        } => {
            // Rows consumed are only those in surviving partitions: pruned
            // partitions are never read, so they appear in neither the cost
            // charges nor the metrics.
            let n: usize = surviving_spans(catalog, table, partitions)
                .iter()
                .map(|s| s.len())
                .sum();
            let batch = partitioned_scan(
                catalog,
                params,
                tracker,
                table,
                predicate.as_ref(),
                partitions,
                opts,
            )
            .ok_or_else(stopped)?;
            (batch, n as u64, opts.morsel_count(n), 0, vec![])
        }
        PhysicalPlan::IndexSeek {
            table,
            range,
            residual,
        } => {
            let (batch, fetched) = index_seek(
                catalog,
                params,
                tracker,
                table,
                range,
                residual.as_ref(),
                opts,
            )
            .ok_or_else(stopped)?;
            (batch, fetched as u64, opts.morsel_count(fetched), 0, vec![])
        }
        PhysicalPlan::IndexIntersection {
            table,
            ranges,
            residual,
        } => {
            let (batch, fetched) = index_intersection(
                catalog,
                params,
                tracker,
                table,
                ranges,
                residual.as_ref(),
                opts,
            )
            .ok_or_else(stopped)?;
            (batch, fetched as u64, opts.morsel_count(fetched), 0, vec![])
        }
        PhysicalPlan::Filter { input, predicate } => {
            let (batch, child) = run(input, env, tracker, counter)?;
            let n = batch.len();
            let bound = predicate.bind(&batch.schema).expect("filter binds");
            tracker.charge_cpu_ops(n as u64);
            let out = filter_batch(batch, &bound, opts).ok_or_else(stopped)?;
            (out, n as u64, opts.morsel_count(n), 0, vec![child])
        }
        PhysicalPlan::Project { input, columns } => {
            let (batch, child) = run(input, env, tracker, counter)?;
            let n = batch.len();
            let ordinals: Vec<usize> = columns
                .iter()
                .map(|c| batch.schema.expect_index(c))
                .collect();
            tracker.charge_cpu_ops(n as u64);
            let schema = batch.schema.project(&ordinals);
            let out = project_batch(batch, &ordinals, schema, opts).ok_or_else(stopped)?;
            (out, n as u64, opts.morsel_count(n), 0, vec![child])
        }
        PhysicalPlan::HashJoin {
            build,
            probe,
            build_key,
            probe_key,
        } => {
            let (b, mb) = run(build, env, tracker, counter)?;
            let (p, mp) = run(probe, env, tracker, counter)?;
            let (build_len, probe_len) = (b.len(), p.len());
            let out = hash_join(tracker, b, p, build_key, probe_key, opts).ok_or_else(stopped)?;
            (
                out,
                (build_len + probe_len) as u64,
                opts.morsel_count(build_len) + opts.morsel_count(probe_len),
                build_len as u64,
                vec![mb, mp],
            )
        }
        PhysicalPlan::MergeJoin {
            left,
            right,
            left_key,
            right_key,
        } => {
            let (l, ml) = run(left, env, tracker, counter)?;
            let (r, mr) = run(right, env, tracker, counter)?;
            let rows_in = (l.len() + r.len()) as u64;
            let out = merge_join(tracker, l, r, left_key, right_key);
            (out, rows_in, 0, 0, vec![ml, mr])
        }
        PhysicalPlan::IndexedNlJoin {
            outer,
            inner_table,
            inner_index_column,
            outer_key,
        } => {
            let (o, mo) = run(outer, env, tracker, counter)?;
            let outer_len = o.len();
            let out = indexed_nl_join(
                catalog,
                params,
                tracker,
                o,
                inner_table,
                inner_index_column,
                outer_key,
                opts,
            )
            .ok_or_else(stopped)?;
            (
                out,
                outer_len as u64,
                opts.morsel_count(outer_len),
                0,
                vec![mo],
            )
        }
        PhysicalPlan::StarSemiJoin { fact_table, legs } => {
            let out = star_semijoin(catalog, params, tracker, fact_table, legs);
            let rows_in = out.len() as u64;
            (out, rows_in, 0, 0, vec![])
        }
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggregates,
        } => {
            let (batch, child) = run(input, env, tracker, counter)?;
            let n = batch.len();
            let out =
                hash_aggregate(tracker, batch, group_by, aggregates, opts).ok_or_else(stopped)?;
            // Groups resident in the hash table; the scalar aggregate over
            // empty input synthesizes its identity row without one.
            let peak = if n == 0 && group_by.is_empty() {
                0
            } else {
                out.len() as u64
            };
            (out, n as u64, opts.morsel_count(n), peak, vec![child])
        }
        PhysicalPlan::Materialized { slot, .. } => {
            // The work that produced this batch was charged when it
            // originally ran (before the re-plan); serving it again from
            // memory is free, so the adaptive total never double-counts.
            let batch = env
                .slots
                .get(*slot)
                .unwrap_or_else(|| panic!("Materialized slot {slot} is not bound"))
                .clone();
            let n = batch.len();
            (batch, n as u64, opts.morsel_count(n), 0, vec![])
        }
    };
    let metrics = OpMetrics {
        label: plan.node_label(),
        rows_in,
        rows_out: batch.len() as u64,
        est_rows: None,
        morsels,
        peak_hash_entries,
        wall_ns: start.elapsed().as_nanos(),
        cost: tracker.diff(&before),
        children,
    };
    // Guard check at the pipeline breaker: the node's output is fully
    // materialized, so `rows_out` is exact and identical at every thread
    // count.
    if let Some(guard) = env.guards.iter().find(|g| g.node == my_idx) {
        if guard.trips(metrics.rows_out) {
            return Err(Interrupt::Trip(Box::new(GuardTrip {
                node: my_idx,
                est_rows: guard.est_rows,
                actual_rows: metrics.rows_out,
                q_error: crate::adaptive::q_error(guard.est_rows, metrics.rows_out as f64),
                batch,
                metrics,
            })));
        }
    }
    Ok((batch, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AggExpr, IndexRange};
    use rqo_expr::Expr;
    use rqo_storage::{DataType, Schema, TableBuilder, Value};

    /// orders(o_id, o_cust) and items(i_order, i_price): 50 orders with 2
    /// items each.
    fn catalog() -> Catalog {
        let mut orders = TableBuilder::new(
            "orders",
            Schema::from_pairs(&[("o_id", DataType::Int), ("o_cust", DataType::Int)]),
            50,
        );
        for i in 0..50i64 {
            orders.push_row(&[Value::Int(i), Value::Int(i % 5)]);
        }
        let mut items = TableBuilder::new(
            "items",
            Schema::from_pairs(&[("i_order", DataType::Int), ("i_price", DataType::Float)]),
            100,
        );
        for i in 0..100i64 {
            items.push_row(&[Value::Int(i / 2), Value::Float(i as f64)]);
        }
        let mut cat = Catalog::new();
        cat.add_table(orders.finish()).unwrap();
        cat.add_table(items.finish()).unwrap();
        cat.add_foreign_key("items", "i_order", "orders", "o_id")
            .unwrap();
        cat.ensure_secondary_index("items", "i_order").unwrap();
        cat.ensure_secondary_index("items", "i_price").unwrap();
        cat.ensure_secondary_index("orders", "o_cust").unwrap();
        cat
    }

    #[test]
    fn end_to_end_join_aggregate() {
        let cat = catalog();
        let params = CostParams::default();
        // SELECT SUM(i_price) FROM items JOIN orders ON i_order = o_id
        // WHERE o_cust = 0
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::HashJoin {
                build: Box::new(PhysicalPlan::SeqScan {
                    table: "orders".into(),
                    predicate: Some(Expr::col("o_cust").eq(Expr::lit(0i64))),
                }),
                probe: Box::new(PhysicalPlan::SeqScan {
                    table: "items".into(),
                    predicate: None,
                }),
                build_key: "o_id".into(),
                probe_key: "i_order".into(),
            }),
            group_by: vec![],
            aggregates: vec![AggExpr::sum("i_price", "total"), AggExpr::count_star("n")],
        };
        let (batch, cost) = execute(&plan, &cat, &params);
        assert_eq!(batch.len(), 1);
        // Orders with cust 0: ids 0,5,...,45; items 2k,2k+1 per order id k.
        let expected: f64 = (0..50i64)
            .filter(|o| o % 5 == 0)
            .flat_map(|o| [2 * o, 2 * o + 1])
            .map(|i| i as f64)
            .sum();
        assert_eq!(batch.rows[0][0], Value::Float(expected));
        assert_eq!(batch.rows[0][1], Value::Int(20));
        assert!(cost.seconds(&params) > 0.0);
    }

    #[test]
    fn filter_and_project_nodes() {
        let cat = catalog();
        let params = CostParams::default();
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::SeqScan {
                    table: "items".into(),
                    predicate: None,
                }),
                predicate: Expr::col("i_price").ge(Expr::lit(90.0)),
            }),
            columns: vec!["i_price".into()],
        };
        let (batch, _) = execute(&plan, &cat, &params);
        assert_eq!(batch.len(), 10);
        assert_eq!(batch.schema.names(), vec!["i_price"]);
    }

    #[test]
    fn equivalent_plans_same_rows_different_costs() {
        let cat = catalog();
        let params = CostParams::default();
        // Same logical query via seq scan vs index seek.
        let pred = Expr::col("i_price").between(Expr::lit(10.0), Expr::lit(19.0));
        let scan = PhysicalPlan::SeqScan {
            table: "items".into(),
            predicate: Some(pred),
        };
        let seek = PhysicalPlan::IndexSeek {
            table: "items".into(),
            range: IndexRange::between("i_price", Value::Float(10.0), Value::Float(19.0)),
            residual: None,
        };
        let (b1, c1) = execute(&scan, &cat, &params);
        let (b2, c2) = execute(&seek, &cat, &params);
        assert_eq!(b1.len(), b2.len());
        assert_eq!(b1.len(), 10);
        assert_ne!(c1, c2);
    }

    #[test]
    fn determinism() {
        let cat = catalog();
        let params = CostParams::default();
        let plan = PhysicalPlan::IndexedNlJoin {
            outer: Box::new(PhysicalPlan::SeqScan {
                table: "orders".into(),
                predicate: Some(Expr::col("o_cust").eq(Expr::lit(2i64))),
            }),
            inner_table: "items".into(),
            inner_index_column: "i_order".into(),
            outer_key: "o_id".into(),
        };
        let (b1, c1) = execute(&plan, &cat, &params);
        let (b2, c2) = execute(&plan, &cat, &params);
        assert_eq!(b1.rows, b2.rows);
        assert_eq!(c1, c2);
        assert_eq!(b1.len(), 20);
    }

    #[test]
    fn execute_with_parallel_is_bit_identical_to_serial() {
        let cat = catalog();
        let params = CostParams::default();
        // A plan exercising scan, filter, project, hash join, and
        // aggregate in one tree.
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::HashJoin {
                        build: Box::new(PhysicalPlan::SeqScan {
                            table: "orders".into(),
                            predicate: None,
                        }),
                        probe: Box::new(PhysicalPlan::SeqScan {
                            table: "items".into(),
                            predicate: None,
                        }),
                        build_key: "o_id".into(),
                        probe_key: "i_order".into(),
                    }),
                    predicate: Expr::col("i_price").lt(Expr::lit(80.0)),
                }),
                columns: vec!["o_cust".into(), "i_price".into()],
            }),
            group_by: vec!["o_cust".into()],
            aggregates: vec![AggExpr::sum("i_price", "total"), AggExpr::count_star("n")],
        };
        let (serial, serial_cost) = execute(&plan, &cat, &params);
        for threads in [1, 2, 8] {
            let opts = crate::morsel::ExecOptions::with_threads(threads).with_morsel_size(16);
            let (par, par_cost) = execute_with(&plan, &cat, &params, &opts);
            assert_eq!(par.rows, serial.rows, "threads={threads}");
            assert_eq!(par_cost, serial_cost, "threads={threads}");
        }
    }

    #[test]
    fn hash_and_merge_join_agree_across_numeric_families() {
        // `Value` equality coerces Int↔Float and Int↔Date, so a hash join
        // must match exactly the pairs a merge join over the same tables
        // matches: plan choice never changes the answer.
        let params = CostParams::default();
        for other in [DataType::Float, DataType::Date] {
            let mut ints = TableBuilder::new(
                "ints",
                Schema::from_pairs(&[("a", DataType::Int), ("a_pay", DataType::Int)]),
                10,
            );
            let mut others = TableBuilder::new(
                "others",
                Schema::from_pairs(&[("b", other), ("b_pay", DataType::Int)]),
                10,
            );
            for i in 0..10i64 {
                ints.push_row(&[Value::Int(i), Value::Int(100 + i)]);
                let key = match other {
                    DataType::Float => Value::Float(i as f64),
                    _ => Value::Date(i as i32),
                };
                others.push_row(&[key, Value::Int(200 + i)]);
            }
            let mut cat = Catalog::new();
            cat.add_table(ints.finish()).unwrap();
            cat.add_table(others.finish()).unwrap();
            let scan = |t: &str| {
                Box::new(PhysicalPlan::SeqScan {
                    table: t.into(),
                    predicate: None,
                })
            };
            let hash = PhysicalPlan::HashJoin {
                build: scan("ints"),
                probe: scan("others"),
                build_key: "a".into(),
                probe_key: "b".into(),
            };
            let merge = PhysicalPlan::MergeJoin {
                left: scan("ints"),
                right: scan("others"),
                left_key: "a".into(),
                right_key: "b".into(),
            };
            let (h, _) = execute(&hash, &cat, &params);
            let (m, _) = execute(&merge, &cat, &params);
            assert_eq!(m.len(), 10, "{other:?}");
            assert_eq!(h.rows, m.rows, "{other:?}");
        }
    }

    #[test]
    fn grouped_aggregate_over_join() {
        let cat = catalog();
        let params = CostParams::default();
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::MergeJoin {
                left: Box::new(PhysicalPlan::SeqScan {
                    table: "orders".into(),
                    predicate: None,
                }),
                right: Box::new(PhysicalPlan::SeqScan {
                    table: "items".into(),
                    predicate: None,
                }),
                left_key: "o_id".into(),
                right_key: "i_order".into(),
            }),
            group_by: vec!["o_cust".into()],
            aggregates: vec![AggExpr::count_star("n")],
        };
        let (batch, _) = execute(&plan, &cat, &params);
        assert_eq!(batch.len(), 5);
        for row in &batch.rows {
            assert_eq!(row[1], Value::Int(20)); // 10 orders × 2 items
        }
    }

    #[test]
    fn metrics_tree_mirrors_plan_and_counts_rows() {
        let cat = catalog();
        let params = CostParams::default();
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::HashJoin {
                build: Box::new(PhysicalPlan::SeqScan {
                    table: "orders".into(),
                    predicate: Some(Expr::col("o_cust").eq(Expr::lit(0i64))),
                }),
                probe: Box::new(PhysicalPlan::SeqScan {
                    table: "items".into(),
                    predicate: None,
                }),
                build_key: "o_id".into(),
                probe_key: "i_order".into(),
            }),
            group_by: vec![],
            aggregates: vec![AggExpr::sum("i_price", "total")],
        };
        let (batch, cost, metrics) = execute_analyze(&plan, &cat, &params, &ExecOptions::default());
        assert_eq!(batch.len(), 1);
        assert_eq!(metrics.node_count(), plan.node_count());
        // Labels line up with explain() node for node.
        let labels: Vec<String> = metrics.preorder().iter().map(|m| m.label.clone()).collect();
        let explain_labels: Vec<String> = plan
            .explain()
            .lines()
            .map(|l| l.trim_start().to_string())
            .collect();
        assert_eq!(labels, explain_labels);
        // Row accounting: aggregate consumed the join's output.
        assert_eq!(metrics.label, plan.node_label());
        assert_eq!(metrics.rows_out, 1);
        let join = &metrics.children[0];
        assert_eq!(join.rows_out, 20);
        assert_eq!(metrics.rows_in, join.rows_out);
        assert_eq!(join.children[0].rows_out, 10); // orders with cust 0
        assert_eq!(join.children[1].rows_out, 100); // full items scan
        assert_eq!(join.rows_in, 110);
        assert_eq!(join.peak_hash_entries, 10); // build-side rows
        assert_eq!(metrics.peak_hash_entries, 1); // one scalar group
                                                  // The root's inclusive cost delta is the whole execution's cost.
        assert_eq!(metrics.cost, cost);
        // Children's inclusive costs never exceed the parent's.
        let child_sum: CostTracker = join.children.iter().map(|c| c.cost).sum();
        assert_eq!(join.cost.diff(&child_sum), join.self_cost());
        assert!(join.self_cost().hash_builds > 0);
    }

    #[test]
    fn metrics_identical_across_thread_counts() {
        let cat = catalog();
        let params = CostParams::default();
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::HashJoin {
                    build: Box::new(PhysicalPlan::SeqScan {
                        table: "orders".into(),
                        predicate: None,
                    }),
                    probe: Box::new(PhysicalPlan::IndexSeek {
                        table: "items".into(),
                        range: IndexRange::between(
                            "i_price",
                            Value::Float(10.0),
                            Value::Float(89.0),
                        ),
                        residual: None,
                    }),
                    build_key: "o_id".into(),
                    probe_key: "i_order".into(),
                }),
                predicate: Expr::col("i_price").lt(Expr::lit(80.0)),
            }),
            group_by: vec!["o_cust".into()],
            aggregates: vec![AggExpr::count_star("n")],
        };
        let baseline = execute_analyze(
            &plan,
            &cat,
            &params,
            &ExecOptions::serial().with_morsel_size(16),
        )
        .2;
        for threads in [2, 8] {
            let opts = ExecOptions::with_threads(threads).with_morsel_size(16);
            let (_, _, metrics) = execute_analyze(&plan, &cat, &params, &opts);
            assert_eq!(metrics, baseline, "threads={threads}");
        }
        // Rendered output is byte-identical too (wall time is excluded).
        let rendered = baseline.render();
        let opts = ExecOptions::with_threads(8).with_morsel_size(16);
        assert_eq!(
            execute_analyze(&plan, &cat, &params, &opts).2.render(),
            rendered
        );
    }
}
