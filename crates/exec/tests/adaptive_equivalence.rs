//! Differential adaptive-vs-static executor tests.
//!
//! For random SPJ workloads over the seeded TPC-H-like generator (whose
//! correlated ship/receipt dates and clustered part keys are the
//! deliberately skewed columns the paper's estimator struggles with),
//! [`RobustDb::run_adaptive`] must return **bit-identical** rows to the
//! static [`RobustDb::run`] path — at 1, 2, and 8 worker threads — no
//! matter how wrong the planted selectivity is and how many mid-query
//! re-plans it provokes.  Guard-trigger points, re-plan counts, and the
//! total tracked cost must also be identical across thread counts: guard
//! decisions compare materialized batch lengths (bit-identical at every
//! thread count by the morsel executor's construction) against plan-time
//! estimates, so parallelism can never change *what* the adaptive layer
//! does, only how fast it does it.
//!
//! Aggregates are restricted to order-insensitive reductions (COUNT,
//! MIN, MAX) plus SUM over the integer-valued `l_quantity` column, so
//! results are exact even when a re-plan changes the order in which the
//! aggregate consumes its input.
//!
//! This test crate dev-depends on the `robust-qo` facade (a dev-only
//! dependency cycle, which cargo permits) because adaptivity spans the
//! whole stack: optimizer annotations arm the guards, the executor trips
//! them, and the facade re-plans.

use proptest::prelude::*;
use robust_qo::prelude::*;

/// Three SPJ families over the TPC-H-like schema, all aggregate-topped
/// (plan-independent output order).
fn build_query(family: usize, offset: i64, window: i64) -> Query {
    let aggs = |q: Query| {
        q.aggregate(AggExpr::count_star("n"))
            .aggregate(AggExpr::sum("l_quantity", "qty"))
            .aggregate(AggExpr::min("l_extendedprice", "lo"))
            .aggregate(AggExpr::max("l_extendedprice", "hi"))
    };
    match family {
        0 => aggs(
            Query::over(&["lineitem"]).filter("lineitem", exp1_lineitem_predicate(offset % 200)),
        ),
        1 => aggs(
            Query::over(&["lineitem", "part"]).filter("part", exp2_part_predicate(window % 300)),
        ),
        _ => aggs(
            Query::over(&["lineitem", "orders", "part"])
                .filter("part", exp2_part_predicate(window % 300)),
        ),
    }
}

/// The single-table key the misestimate is planted under: the family's
/// filtered table and its predicate.
fn inject_misestimate(handle: &RobustDb, family: usize, offset: i64, window: i64, sel: f64) {
    match family {
        0 => {
            let pred = exp1_lineitem_predicate(offset % 200);
            handle
                .feedback()
                .inject_observation(&["lineitem"], &[("lineitem", &pred)], sel);
        }
        _ => {
            let pred = exp2_part_predicate(window % 300);
            handle
                .feedback()
                .inject_observation(&["part"], &[("part", &pred)], sel);
        }
    }
}

fn fresh_db(seed: u64, threads: usize) -> RobustDb {
    let data = TpchData::generate(&TpchConfig {
        scale_factor: 0.002,
        seed,
    });
    RobustDb::with_options(data.into_catalog(), CostParams::default(), 300, seed ^ 0xA5)
        .with_exec_options(ExecOptions::with_threads(threads))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn adaptive_rows_match_static_at_all_thread_counts(
        seed in 0u64..500,
        family in 0usize..3,
        offset in 0i64..200,
        window in 0i64..300,
        // Spans "absurdly selective" to "everything matches" — either
        // direction of wrongness must leave answers untouched.
        sel in prop_oneof![Just(1e-6), Just(0.01), Just(0.5), Just(0.999)],
    ) {
        let query = build_query(family, offset, window);

        // Static reference: fresh database, same planted misestimate.
        let static_db = fresh_db(seed, 1);
        inject_misestimate(&static_db, family, offset, window, sel);
        let static_run = static_db.run(&query);

        // Adaptive at each thread count, each on its own fresh database
        // (run_adaptive feeds truth back into its handle's store, which
        // must not leak between arms).
        type Baseline = (usize, f64, Vec<(usize, u64)>);
        let mut baseline: Option<Baseline> = None;
        for threads in [1usize, 2, 8] {
            let handle = fresh_db(seed, threads);
            inject_misestimate(&handle, family, offset, window, sel);
            let adaptive = handle.run_adaptive(&query);

            prop_assert_eq!(
                &adaptive.outcome.rows,
                &static_run.rows,
                "rows diverged: threads={} family={} sel={}",
                threads, family, sel
            );
            prop_assert_eq!(&adaptive.outcome.columns, &static_run.columns);

            let trips: Vec<(usize, u64)> = adaptive
                .events
                .iter()
                .map(|e| (e.node, e.actual_rows))
                .collect();
            match &baseline {
                None => {
                    baseline = Some((
                        adaptive.replans(),
                        adaptive.outcome.simulated_seconds,
                        trips,
                    ));
                }
                Some((replans, cost, base_trips)) => {
                    prop_assert_eq!(
                        adaptive.replans(), *replans,
                        "re-plan count diverged at threads={}",
                        threads
                    );
                    prop_assert_eq!(
                        adaptive.outcome.simulated_seconds, *cost,
                        "tracked cost diverged at threads={}",
                        threads
                    );
                    prop_assert_eq!(
                        &trips, base_trips,
                        "guard-trigger points diverged at threads={}",
                        threads
                    );
                }
            }
        }
    }

    /// The disabled policy is exactly the static path, for every workload
    /// and misestimate.
    #[test]
    fn disabled_policy_is_exactly_static(
        seed in 0u64..500,
        family in 0usize..3,
        offset in 0i64..200,
        window in 0i64..300,
    ) {
        let query = build_query(family, offset, window);
        let static_db = fresh_db(seed, 2);
        inject_misestimate(&static_db, family, offset, window, 0.9);
        let static_run = static_db.run(&query);

        let handle = fresh_db(seed, 2).with_adaptive_policy(AdaptivePolicy::disabled());
        inject_misestimate(&handle, family, offset, window, 0.9);
        let adaptive = handle.run_adaptive(&query);
        prop_assert_eq!(adaptive.replans(), 0);
        prop_assert_eq!(&adaptive.outcome.rows, &static_run.rows);
        prop_assert_eq!(adaptive.outcome.simulated_seconds, static_run.simulated_seconds);
        prop_assert_eq!(
            adaptive.outcome.plan.shape_label(),
            static_run.plan.shape_label()
        );
    }
}
