//! Join operators: hash join, merge join, indexed nested loops, and the
//! star semijoin strategy.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use rqo_storage::{Catalog, ColumnVec, CostParams, CostTracker, NullMask, Rid, Value};

use crate::batch::Batch;
use crate::morsel::{run_morsels, ExecOptions};
use crate::plan::SemiJoinLeg;
use crate::scan::{fetch_rows, intersect_sorted, rids_for_range};

/// Joins two batches' schemas, qualifying colliding names with the given
/// prefixes.
fn join_schemas(left: &Batch, right: &Batch) -> rqo_storage::Schema {
    left.schema.join(&right.schema, "l", "r")
}

/// Hash join: builds on `build`, probes with `probe`.
///
/// Charges one hash insert per build row, one probe per probe row, and one
/// CPU op per output row.  Output rows are `build ++ probe` columns, in
/// probe-row order and, within one probe row, in build-row order.
///
/// Both key columns are extracted into typed vectors once.  When the two
/// sides are the same type family the table is keyed by primitives
/// (`i64`, `f64` bits, `Arc<str>`, `bool`) — no per-row `Value` clone or
/// enum dispatch on the hot path.  Otherwise (a `Mixed` column, or keys
/// of different families such as an `Int` build key probed by a `Float`)
/// the keys are the `Value`s themselves, whose `Eq` coerces numerics and
/// whose `Hash` agrees with it, so the join matches exactly the pairs a
/// merge join over the same inputs matches.  In every case NULL keys map
/// to `None` and join each other (storage equality), and float keys
/// compare by `total_cmp` (bit patterns).
///
/// Returns `None` when the query's token fired during either phase.
pub fn hash_join(
    tracker: &mut CostTracker,
    build: Batch,
    probe: Batch,
    build_key: &str,
    probe_key: &str,
    opts: &ExecOptions,
) -> Option<Batch> {
    let bk = build.schema.expect_index(build_key);
    let pk = probe.schema.expect_index(probe_key);
    let bcol = ColumnVec::from_rows(&build.rows, bk, build.schema.column(bk).data_type);
    let pcol = ColumnVec::from_rows(&probe.rows, pk, probe.schema.column(pk).data_type);

    fn key_null(nulls: &Option<NullMask>) -> impl Fn(usize) -> bool + Sync + '_ {
        move |i| nulls.as_ref().is_some_and(|m| m.is_null(i))
    }

    match (&bcol, &pcol) {
        (
            ColumnVec::Int {
                values: bv,
                nulls: bn,
            },
            ColumnVec::Int {
                values: pv,
                nulls: pn,
            },
        ) => {
            let (bnull, pnull) = (key_null(bn), key_null(pn));
            join_typed(
                tracker,
                &build,
                &probe,
                |i| (!bnull(i)).then(|| bv[i]),
                |i| (!pnull(i)).then(|| pv[i]),
                opts,
            )
        }
        (
            ColumnVec::Float {
                values: bv,
                nulls: bn,
            },
            ColumnVec::Float {
                values: pv,
                nulls: pn,
            },
        ) => {
            // total_cmp equality ⟺ identical bit patterns.
            let (bnull, pnull) = (key_null(bn), key_null(pn));
            join_typed(
                tracker,
                &build,
                &probe,
                |i| (!bnull(i)).then(|| bv[i].to_bits()),
                |i| (!pnull(i)).then(|| pv[i].to_bits()),
                opts,
            )
        }
        (
            ColumnVec::Date {
                values: bv,
                nulls: bn,
            },
            ColumnVec::Date {
                values: pv,
                nulls: pn,
            },
        ) => {
            let (bnull, pnull) = (key_null(bn), key_null(pn));
            join_typed(
                tracker,
                &build,
                &probe,
                |i| (!bnull(i)).then(|| bv[i]),
                |i| (!pnull(i)).then(|| pv[i]),
                opts,
            )
        }
        (
            ColumnVec::Bool {
                values: bv,
                nulls: bn,
            },
            ColumnVec::Bool {
                values: pv,
                nulls: pn,
            },
        ) => {
            let (bnull, pnull) = (key_null(bn), key_null(pn));
            join_typed(
                tracker,
                &build,
                &probe,
                |i| (!bnull(i)).then(|| bv[i]),
                |i| (!pnull(i)).then(|| pv[i]),
                opts,
            )
        }
        (
            ColumnVec::Str {
                codes: bc,
                dict: bd,
                nulls: bn,
            },
            ColumnVec::Str {
                codes: pc,
                dict: pd,
                nulls: pn,
            },
        ) => {
            // Keys are the dictionary strings themselves (`Arc<str>`
            // hashes/compares by content); cloning one is a refcount bump.
            let (bnull, pnull) = (key_null(bn), key_null(pn));
            join_typed(
                tracker,
                &build,
                &probe,
                |i| (!bnull(i)).then(|| Arc::clone(&bd[bc[i] as usize])),
                |i| (!pnull(i)).then(|| Arc::clone(&pd[pc[i] as usize])),
                opts,
            )
        }
        _ => {
            let value_key = |rows: &[Vec<Value>], k: usize, i: usize| {
                let v = &rows[i][k];
                (!v.is_null()).then(|| v.clone())
            };
            join_typed(
                tracker,
                &build,
                &probe,
                |i| value_key(&build.rows, bk, i),
                |i| value_key(&probe.rows, pk, i),
                opts,
            )
        }
    }
}

/// Shared build/probe skeleton.  `None` keys are NULL and join with each
/// other, mirroring `Value::Null`'s storage equality.
///
/// Build morsels produce local `key → row indices` maps that are merged
/// **in morsel index order**; because morsel `i` only holds indices
/// smaller than morsel `i+1`'s, every key's index list comes out
/// ascending.  Probe morsels emit their matches independently and are
/// concatenated in morsel order.  All three charges (`hash_builds`,
/// `hash_probes`, `cpu_ops`) are totals over input/output sizes, so rows,
/// row order, and costs are identical at every thread count.
fn join_typed<K, FB, FP>(
    tracker: &mut CostTracker,
    build: &Batch,
    probe: &Batch,
    bkey: FB,
    pkey: FP,
    opts: &ExecOptions,
) -> Option<Batch>
where
    K: Hash + Eq + Send + Sync,
    FB: Fn(usize) -> Option<K> + Sync,
    FP: Fn(usize) -> Option<K> + Sync,
{
    let schema = join_schemas(build, probe);

    tracker.charge_hash_builds(build.len() as u64);
    let partials = run_morsels(opts, build.len(), |morsel| {
        let mut local: HashMap<Option<K>, Vec<usize>> = HashMap::new();
        for i in morsel {
            local.entry(bkey(i)).or_default().push(i);
        }
        local
    })?;
    let mut table: HashMap<Option<K>, Vec<usize>> = HashMap::with_capacity(build.len());
    for partial in partials {
        for (key, mut indices) in partial {
            table.entry(key).or_default().append(&mut indices);
        }
    }

    tracker.charge_hash_probes(probe.len() as u64);
    let parts = run_morsels(opts, probe.len(), |morsel| -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        for i in morsel {
            if let Some(matches) = table.get(&pkey(i)) {
                let prow = &probe.rows[i];
                for &bi in matches {
                    let mut row = build.rows[bi].clone();
                    row.extend(prow.iter().cloned());
                    out.push(row);
                }
            }
        }
        out
    })?;
    let out: Vec<Vec<Value>> = parts.into_iter().flatten().collect();
    tracker.charge_cpu_ops(out.len() as u64);
    Some(Batch::new(schema, out))
}

/// Merge join on equality keys.  Inputs not already sorted on their key
/// are sorted here, charging `n·log₂(n)` CPU ops each (an in-memory sort;
/// the experiments' merge joins consume clustered scans, which arrive
/// sorted and pay nothing).
pub fn merge_join(
    tracker: &mut CostTracker,
    mut left: Batch,
    mut right: Batch,
    left_key: &str,
    right_key: &str,
) -> Batch {
    let schema = join_schemas(&left, &right);
    let lk = left.schema.expect_index(left_key);
    let rk = right.schema.expect_index(right_key);

    for (batch, key) in [(&mut left, lk), (&mut right, rk)] {
        let sorted = batch
            .rows
            .windows(2)
            .all(|w| w[0][key].total_cmp(&w[1][key]) != std::cmp::Ordering::Greater);
        if !sorted {
            let n = batch.rows.len() as u64;
            tracker.charge_cpu_ops(n * (n.max(2) as f64).log2().ceil() as u64);
            batch.rows.sort_by(|a, b| a[key].total_cmp(&b[key]));
        }
    }

    tracker.charge_cpu_ops((left.len() + right.len()) as u64);
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        match left.rows[i][lk].total_cmp(&right.rows[j][rk]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                // Emit the cross product of the equal-key runs.
                let key = left.rows[i][lk].clone();
                let i_end = (i..left.len())
                    .find(|&x| left.rows[x][lk] != key)
                    .unwrap_or(left.len());
                let j_end = (j..right.len())
                    .find(|&x| right.rows[x][rk] != key)
                    .unwrap_or(right.len());
                for li in i..i_end {
                    for rj in j..j_end {
                        let mut row = left.rows[li].clone();
                        row.extend(right.rows[rj].iter().cloned());
                        out.push(row);
                    }
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    tracker.charge_cpu_ops(out.len() as u64);
    Batch::new(schema, out)
}

/// Indexed nested-loops join: for each outer row, probe the inner table's
/// secondary index on `inner_index_column` with the outer `outer_key`
/// value and fetch the matching inner rows.
///
/// Charges, per outer row, one random I/O for the index descend plus one
/// random I/O per matched (scattered) inner row — the access pattern that
/// makes this plan unbeatable for a handful of outer rows and hopeless for
/// thousands (Experiment 2's low-selectivity regime).
///
/// Outer rows are morselized; each morsel probes the (read-only) index
/// and fetches inner rows on its own thread, charging a morsel-local
/// tracker.  Every outer row's charges are independent of the other
/// rows, so summing the morsel trackers — all-integer counters — gives
/// the same totals at every thread count, and concatenating morsel
/// outputs in index order keeps the outer row order.  Returns `None`
/// when the query's token fired.
#[allow(clippy::too_many_arguments)]
pub fn indexed_nl_join(
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    outer: Batch,
    inner_table: &str,
    inner_index_column: &str,
    outer_key: &str,
    opts: &ExecOptions,
) -> Option<Batch> {
    let inner = catalog.table(inner_table).expect("inner table exists");
    let index = catalog
        .secondary_index(inner_table, inner_index_column)
        .unwrap_or_else(|| panic!("no secondary index on {inner_table}.{inner_index_column}"));
    let ok = outer.schema.expect_index(outer_key);
    let schema = outer.schema.join(inner.schema(), "l", "r");

    let parts = run_morsels(opts, outer.rows.len(), |morsel| {
        let mut local = CostTracker::new();
        let mut out = Vec::new();
        for orow in &outer.rows[morsel] {
            local.charge_random_ios(1); // descend to the leaf for this key
            let matches = index.lookup_eq(&orow[ok]);
            local.charge_cpu_ops(matches.len() as u64);
            let rids: Vec<Rid> = matches.iter().map(|(_, rid)| *rid).collect();
            let rows = fetch_rows(inner, params, &mut local, rids);
            for irow in rows {
                let mut row = orow.clone();
                row.extend(irow);
                out.push(row);
            }
        }
        (out, local)
    })?;
    let mut out = Vec::new();
    for (rows, local) in parts {
        tracker.absorb(&local);
        out.extend(rows);
    }
    tracker.charge_cpu_ops(out.len() as u64);
    Some(Batch::new(schema, out))
}

/// Star semijoin (Experiment 3's index strategy): for each leg, filter the
/// dimension (a tiny scan), collect the selected keys, and probe the fact
/// FK index once per key to assemble the leg's fact-RID list; intersect
/// the legs' RID lists and fetch only the surviving fact rows.
///
/// The per-leg cost depends only on the dimension filter's (constant 10%)
/// marginal selectivity; the fetch cost is one random I/O per *matching*
/// fact row — so this plan wins exactly when few fact rows survive all
/// three filters, which is what the robust estimator can see and the AVI
/// baseline cannot.
///
/// Output schema/rows: the fact table only (the dimensions act as
/// filters).
pub fn star_semijoin(
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    fact_table: &str,
    legs: &[SemiJoinLeg],
) -> Batch {
    assert!(!legs.is_empty(), "star semijoin needs at least one leg");
    let fact = catalog.table(fact_table).expect("fact table exists");

    let mut leg_rids: Vec<Vec<Rid>> = Vec::with_capacity(legs.len());
    for leg in legs {
        // Filter the dimension with a (cheap, fully charged) scan.
        let dim = catalog.table(&leg.dim_table).expect("dim exists");
        tracker.charge_seq_pages(params.data_pages(dim.num_rows(), dim.row_width_bytes()));
        tracker.charge_cpu_ops(dim.num_rows() as u64);
        let pred = leg
            .dim_predicate
            .bind(dim.schema())
            .expect("dim predicate binds");
        let key_col = dim.schema().expect_index(&leg.dim_key);
        let mut keys: Vec<Value> = Vec::new();
        for rid in 0..dim.num_rows() as Rid {
            let row = dim.row(rid);
            if rqo_expr::eval_bool(&pred, &row) {
                keys.push(row[key_col].clone());
            }
        }

        // Probe the fact FK index once per selected key.
        let mut rids: Vec<Rid> = Vec::new();
        for key in &keys {
            let range = crate::plan::IndexRange::eq(&leg.fact_fk, key.clone());
            rids.extend(rids_for_range(catalog, params, tracker, fact_table, &range));
        }
        rids.sort_unstable();
        tracker.charge_cpu_ops(rids.len() as u64);
        leg_rids.push(rids);
    }

    // Intersect legs, smallest first.
    leg_rids.sort_by_key(Vec::len);
    let mut acc = leg_rids[0].clone();
    for other in &leg_rids[1..] {
        tracker.charge_cpu_ops(other.len() as u64);
        acc = intersect_sorted(&acc, other);
        if acc.is_empty() {
            break;
        }
    }

    let rows = fetch_rows(fact, params, tracker, acc);
    Batch::new(fact.schema().clone(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_expr::Expr;
    use rqo_storage::{DataType, Schema, TableBuilder};

    fn inline() -> ExecOptions {
        ExecOptions::default()
    }

    fn batch(name_prefix: &str, keys: &[i64], payload: &[i64]) -> Batch {
        assert_eq!(keys.len(), payload.len());
        Batch::new(
            Schema::from_pairs(&[
                (&format!("{name_prefix}_key"), DataType::Int),
                (&format!("{name_prefix}_val"), DataType::Int),
            ]),
            keys.iter()
                .zip(payload)
                .map(|(&k, &v)| vec![Value::Int(k), Value::Int(v)])
                .collect(),
        )
    }

    #[test]
    fn hash_join_inner_semantics() {
        let mut tracker = CostTracker::new();
        let left = batch("a", &[1, 2, 2, 3], &[10, 20, 21, 30]);
        let right = batch("b", &[2, 3, 3, 4], &[200, 300, 301, 400]);
        let out = hash_join(&mut tracker, left, right, "a_key", "b_key", &inline()).unwrap();
        // Matches: a=2 (2 rows) × b=2 (1 row) + a=3 (1) × b=3 (2) = 4 rows.
        assert_eq!(out.len(), 4);
        assert_eq!(out.schema.len(), 4);
        assert_eq!(tracker.hash_builds, 4);
        assert_eq!(tracker.hash_probes, 4);
    }

    #[test]
    fn merge_join_agrees_with_hash_join() {
        let mut t1 = CostTracker::new();
        let mut t2 = CostTracker::new();
        let l = batch("a", &[5, 1, 3, 3, 9], &[0, 1, 2, 3, 4]);
        let r = batch("b", &[3, 3, 5, 7], &[30, 31, 50, 70]);
        let h = hash_join(&mut t1, l.clone(), r.clone(), "a_key", "b_key", &inline()).unwrap();
        let m = merge_join(&mut t2, l, r, "a_key", "b_key");
        assert_eq!(h.len(), m.len());
        // Same multiset of (key, lval, rval) triples.
        let canon = |b: &Batch| {
            let mut v: Vec<String> = b
                .rows
                .iter()
                .map(|r| format!("{}|{}|{}", r[0], r[1], r[3]))
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(&h), canon(&m));
    }

    #[test]
    fn merge_join_charges_sort_only_when_needed() {
        let sorted_l = batch("a", &[1, 2, 3], &[0, 0, 0]);
        let sorted_r = batch("b", &[1, 2, 3], &[0, 0, 0]);
        let mut t_sorted = CostTracker::new();
        merge_join(
            &mut t_sorted,
            sorted_l.clone(),
            sorted_r.clone(),
            "a_key",
            "b_key",
        );
        let unsorted_l = batch("a", &[3, 1, 2], &[0, 0, 0]);
        let mut t_unsorted = CostTracker::new();
        merge_join(&mut t_unsorted, unsorted_l, sorted_r, "a_key", "b_key");
        assert!(t_unsorted.cpu_ops > t_sorted.cpu_ops);
    }

    #[test]
    fn hash_join_empty_sides() {
        let mut tracker = CostTracker::new();
        let l = batch("a", &[], &[]);
        let r = batch("b", &[1], &[10]);
        let out = hash_join(
            &mut tracker,
            l.clone(),
            r.clone(),
            "a_key",
            "b_key",
            &inline(),
        );
        assert_eq!(out.unwrap().len(), 0);
        let out = hash_join(&mut tracker, r, l, "b_key", "a_key", &inline());
        assert_eq!(out.unwrap().len(), 0);
    }

    fn indexed_catalog() -> Catalog {
        // inner: 100 rows, key = i / 4 (4 rows per key).
        let mut b = TableBuilder::new(
            "inner",
            Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]),
            100,
        );
        for i in 0..100i64 {
            b.push_row(&[Value::Int(i / 4), Value::Int(i)]);
        }
        let mut cat = Catalog::new();
        cat.add_table(b.finish()).unwrap();
        cat.ensure_secondary_index("inner", "k").unwrap();
        cat
    }

    #[test]
    fn indexed_nl_join_fetches_matches() {
        let cat = indexed_catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        let outer = batch("o", &[0, 5, 99], &[1, 2, 3]);
        let out = indexed_nl_join(
            &cat,
            &params,
            &mut tracker,
            outer,
            "inner",
            "k",
            "o_key",
            &inline(),
        )
        .unwrap();
        // Keys 0 and 5 have 4 inner rows each; 99 has none.
        assert_eq!(out.len(), 8);
        assert!(tracker.random_ios >= 3, "at least one descend per probe");
        // Output carries outer columns then inner columns.
        assert_eq!(out.schema.names(), vec!["o_key", "o_val", "k", "v"]);
    }

    #[test]
    fn indexed_nl_join_cost_scales_with_outer() {
        let cat = indexed_catalog();
        let params = CostParams::default();
        let mut small = CostTracker::new();
        let mut large = CostTracker::new();
        indexed_nl_join(
            &cat,
            &params,
            &mut small,
            batch("o", &[1], &[0]),
            "inner",
            "k",
            "o_key",
            &inline(),
        );
        indexed_nl_join(
            &cat,
            &params,
            &mut large,
            batch("o", &(0..25).collect::<Vec<i64>>(), &[0; 25]),
            "inner",
            "k",
            "o_key",
            &inline(),
        );
        assert!(large.random_ios > 5 * small.random_ios);
    }

    #[test]
    fn hash_join_is_bit_identical_across_thread_counts() {
        // 200 build rows with repeated keys, 300 probe rows.
        let bkeys: Vec<i64> = (0..200).map(|i| i % 17).collect();
        let bvals: Vec<i64> = (0..200).collect();
        let pkeys: Vec<i64> = (0..300).map(|i| i % 23).collect();
        let pvals: Vec<i64> = (0..300).collect();
        let l = batch("a", &bkeys, &bvals);
        let r = batch("b", &pkeys, &pvals);
        let mut ts = CostTracker::new();
        let inline_opts = inline().with_morsel_size(16);
        let serial = hash_join(
            &mut ts,
            l.clone(),
            r.clone(),
            "a_key",
            "b_key",
            &inline_opts,
        );
        let serial = serial.unwrap();
        for threads in [2, 8] {
            let opts = ExecOptions::with_threads(threads).with_morsel_size(16);
            let mut tp = CostTracker::new();
            let par = hash_join(&mut tp, l.clone(), r.clone(), "a_key", "b_key", &opts).unwrap();
            assert_eq!(par.rows, serial.rows, "threads={threads}");
            assert_eq!(tp, ts, "threads={threads}");
        }
    }

    #[test]
    fn indexed_nl_join_is_bit_identical_across_thread_counts() {
        let cat = indexed_catalog();
        let params = CostParams::default();
        let okeys: Vec<i64> = (0..60).map(|i| i % 30).collect();
        let ovals: Vec<i64> = (0..60).collect();
        let outer = batch("o", &okeys, &ovals);
        let run = |opts: &ExecOptions| {
            let mut t = CostTracker::new();
            let out = indexed_nl_join(
                &cat,
                &params,
                &mut t,
                outer.clone(),
                "inner",
                "k",
                "o_key",
                opts,
            );
            (out.unwrap(), t)
        };
        let (serial, ts) = run(&inline().with_morsel_size(7));
        for threads in [2, 8] {
            let (par, tp) = run(&ExecOptions::with_threads(threads).with_morsel_size(7));
            assert_eq!(par.rows, serial.rows, "threads={threads}");
            assert_eq!(tp, ts, "threads={threads}");
        }
    }

    #[test]
    fn hash_join_typed_null_and_cross_family_keys() {
        // Str keys, Float keys (incl. -0.0 vs 0.0 distinctness), NULL
        // keys (which join with each other under storage equality), and
        // cross-family Int⋈Float / Int⋈Date pairings that take the
        // `Value`-keyed path.  Each must match a nested-loops oracle over
        // `Value` equality.
        let keyed = |name: &str, ty: DataType, keys: Vec<Value>| {
            Batch::new(
                Schema::from_pairs(&[(name, ty)]),
                keys.into_iter().map(|k| vec![k]).collect(),
            )
        };
        let cases: Vec<(Batch, Batch)> = vec![
            (
                keyed(
                    "a_key",
                    DataType::Str,
                    ["x", "y", "x", "z"].map(Value::str).to_vec(),
                ),
                keyed(
                    "b_key",
                    DataType::Str,
                    ["x", "z", "w", "x"].map(Value::str).to_vec(),
                ),
            ),
            (
                keyed(
                    "a_key",
                    DataType::Float,
                    vec![
                        Value::Float(0.0),
                        Value::Float(-0.0),
                        Value::Float(2.5),
                        Value::Null,
                    ],
                ),
                keyed(
                    "b_key",
                    DataType::Float,
                    vec![Value::Float(0.0), Value::Float(2.5), Value::Null],
                ),
            ),
            (
                keyed(
                    "a_key",
                    DataType::Int,
                    vec![Value::Int(1), Value::Null, Value::Int(2)],
                ),
                keyed(
                    "b_key",
                    DataType::Float,
                    vec![Value::Float(1.0), Value::Null, Value::Float(2.5)],
                ),
            ),
            (
                keyed(
                    "a_key",
                    DataType::Date,
                    vec![Value::Date(3), Value::Date(4), Value::Date(3)],
                ),
                keyed(
                    "b_key",
                    DataType::Int,
                    vec![Value::Int(3), Value::Int(5), Value::Int(4)],
                ),
            ),
        ];
        for (l, r) in cases {
            let mut expect = Vec::new();
            for prow in &r.rows {
                for brow in &l.rows {
                    if brow[0] == prow[0] {
                        expect.push(vec![brow[0].clone(), prow[0].clone()]);
                    }
                }
            }
            for opts in [inline(), ExecOptions::with_threads(2).with_morsel_size(2)] {
                let mut t = CostTracker::new();
                let out = hash_join(&mut t, l.clone(), r.clone(), "a_key", "b_key", &opts).unwrap();
                assert_eq!(out.rows, expect, "opts={opts:?}");
                assert_eq!(t.cpu_ops, expect.len() as u64);
            }
        }
    }

    fn star_catalog() -> Catalog {
        // fact: 1000 rows; two dims of 10 keys each.  fact row i joins
        // dim1 key i%10 and dim2 key i%7 (capped at 9).
        let mut fact = TableBuilder::new(
            "fact",
            Schema::from_pairs(&[
                ("f1", DataType::Int),
                ("f2", DataType::Int),
                ("m", DataType::Float),
            ]),
            1000,
        );
        for i in 0..1000i64 {
            fact.push_row(&[
                Value::Int(i % 10),
                Value::Int(i % 7),
                Value::Float(i as f64),
            ]);
        }
        let dim = |name: &str| {
            let mut d = TableBuilder::new(
                name,
                Schema::from_pairs(&[("d_key", DataType::Int), ("d_attr", DataType::Int)]),
                10,
            );
            for k in 0..10i64 {
                d.push_row(&[Value::Int(k), Value::Int(k % 2)]);
            }
            d.finish()
        };
        let mut cat = Catalog::new();
        cat.add_table(fact.finish()).unwrap();
        cat.add_table(dim("dim1")).unwrap();
        cat.add_table(dim("dim2")).unwrap();
        cat.add_foreign_key("fact", "f1", "dim1", "d_key").unwrap();
        cat.add_foreign_key("fact", "f2", "dim2", "d_key").unwrap();
        cat.ensure_secondary_index("fact", "f1").unwrap();
        cat.ensure_secondary_index("fact", "f2").unwrap();
        cat
    }

    #[test]
    fn star_semijoin_matches_filter_semantics() {
        let cat = star_catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        let legs = vec![
            SemiJoinLeg {
                dim_table: "dim1".into(),
                dim_key: "d_key".into(),
                dim_predicate: Expr::col("d_key").eq(Expr::lit(3i64)),
                fact_fk: "f1".into(),
            },
            SemiJoinLeg {
                dim_table: "dim2".into(),
                dim_key: "d_key".into(),
                dim_predicate: Expr::col("d_key").eq(Expr::lit(3i64)),
                fact_fk: "f2".into(),
            },
        ];
        let out = star_semijoin(&cat, &params, &mut tracker, "fact", &legs);
        // Truth: i % 10 == 3 and i % 7 == 3 → i ≡ 3 (mod 70) → 15 rows in
        // [0, 1000).
        let expected = (0..1000i64).filter(|i| i % 10 == 3 && i % 7 == 3).count();
        assert_eq!(out.len(), expected);
        assert_eq!(out.schema.names(), vec!["f1", "f2", "m"]);
        assert!(tracker.random_ios > 0);
    }

    #[test]
    fn star_semijoin_single_leg() {
        let cat = star_catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        let legs = vec![SemiJoinLeg {
            dim_table: "dim1".into(),
            dim_key: "d_key".into(),
            dim_predicate: Expr::col("d_attr").eq(Expr::lit(0i64)),
            fact_fk: "f1".into(),
        }];
        let out = star_semijoin(&cat, &params, &mut tracker, "fact", &legs);
        // d_attr == 0 selects even keys: f1 even → 500 rows.
        assert_eq!(out.len(), 500);
    }

    #[test]
    #[should_panic(expected = "at least one leg")]
    fn star_semijoin_requires_legs() {
        let cat = star_catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        star_semijoin(&cat, &params, &mut tracker, "fact", &[]);
    }
}
