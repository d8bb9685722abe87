//! Access-path operators: sequential scan, index seek, index
//! intersection.

use std::ops::Range;

use rqo_expr::columnar::{select, Candidates};
use rqo_expr::Expr;
use rqo_storage::{Catalog, ColumnRef, CostParams, CostTracker, Rid, Table, Value};

use crate::batch::Batch;
use crate::columnar::{gather_rows, SelVec};
use crate::morsel::{run_morsels, ExecOptions};
use crate::plan::IndexRange;

/// Number of B-tree levels charged as random I/Os per index descend.
const BTREE_DESCEND_IOS: u64 = 1;

/// Sequential scan with an optional pushed-down predicate.
///
/// Charges one sequential page read per data page plus one CPU op per row
/// (the predicate/projection work).  Each morsel evaluates the predicate
/// over the table's typed column vectors (zero-copy [`ColumnRef`] views)
/// into a selection vector and gathers only the surviving rows.  Returns
/// `None` when the query's token fired mid-scan.
pub fn seq_scan(
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    table: &str,
    predicate: Option<&Expr>,
    opts: &ExecOptions,
) -> Option<Batch> {
    let t = catalog.table(table).expect("table exists");
    let whole_table = 0..t.num_rows();
    let spans = std::slice::from_ref(&whole_table);
    scan_spans(t, params, tracker, predicate, spans, opts)
}

/// Partition-wise sequential scan over the surviving partitions of a
/// partitioned table.
///
/// Each surviving partition is a contiguous RID span of the canonical
/// concatenated table.  Adjacent surviving spans are merged and each
/// merged run charges its own sequential data pages, plus one CPU op per
/// surviving row — so a scan listing *every* partition charges exactly
/// what [`seq_scan`] charges, and pruning shows up as fewer page reads.
/// Morsels are carved from the virtual concatenation of the surviving
/// spans, so rows, order, and metrics are bit-identical to the
/// single-blob scan when nothing is pruned.  Returns `None` when the
/// query's token fired mid-scan.
pub fn partitioned_scan(
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    table: &str,
    predicate: Option<&Expr>,
    partitions: &[usize],
    opts: &ExecOptions,
) -> Option<Batch> {
    let t = catalog.table(table).expect("table exists");
    let spans = surviving_spans(catalog, table, partitions);
    scan_spans(t, params, tracker, predicate, &spans, opts)
}

/// The surviving RID spans of a partitioned table, ascending and with
/// adjacent spans merged (empty partitions vanish, so runs of surviving
/// partitions separated only by empty ones still coalesce).  Shared with
/// the optimizer's cost model so priced and executed page charges agree.
///
/// # Panics
///
/// Panics when the table has no partition layout, a partition index is
/// out of range, or the list is not strictly ascending.
pub fn surviving_spans(catalog: &Catalog, table: &str, partitions: &[usize]) -> Vec<Range<usize>> {
    let layout = catalog
        .partitioning(table)
        .unwrap_or_else(|| panic!("table {table} has no partition layout"));
    assert!(
        partitions.windows(2).all(|w| w[0] < w[1]),
        "partition list must be strictly ascending"
    );
    let mut spans: Vec<Range<usize>> = Vec::new();
    for &p in partitions {
        let s = layout.span(p);
        if s.is_empty() {
            continue;
        }
        match spans.last_mut() {
            Some(prev) if prev.end == s.start => prev.end = s.end,
            _ => spans.push(s),
        }
    }
    spans
}

/// Scans the given ascending, disjoint RID spans of `t`.  The page and
/// CPU charges are selectivity- and thread-independent, so they are made
/// centrally before the morsels run; morsels are carved from the virtual
/// concatenation of the spans.
fn scan_spans(
    t: &Table,
    params: &CostParams,
    tracker: &mut CostTracker,
    predicate: Option<&Expr>,
    spans: &[Range<usize>],
    opts: &ExecOptions,
) -> Option<Batch> {
    let total: usize = spans.iter().map(Range::len).sum();
    for s in spans {
        tracker.charge_seq_pages(params.data_pages(s.len(), t.row_width_bytes()));
    }
    tracker.charge_cpu_ops(total as u64);

    let bound = predicate.map(|p| p.bind(t.schema()).expect("predicate binds"));
    let refs: Vec<ColumnRef<'_>> = t.column_refs();
    // Storage→exec boundary invariant (always on, O(columns)): the
    // table's column count must match its schema or every ordinal-based
    // kernel below would misread columns.
    assert_eq!(
        refs.len(),
        t.schema().len(),
        "table {} column count diverges from its schema",
        t.name()
    );
    let cols: Vec<Option<ColumnRef<'_>>> = refs.iter().copied().map(Some).collect();
    let n = t.num_rows();

    // Translates a morsel of the virtual concatenation of the spans into
    // actual RID sub-ranges (at most one per span).
    let to_actual = |vmorsel: Range<usize>| -> Vec<Range<usize>> {
        let mut out = Vec::new();
        let mut voff = 0usize;
        for s in spans {
            let vstart = voff;
            let vend = voff + s.len();
            let lo = vmorsel.start.max(vstart);
            let hi = vmorsel.end.min(vend);
            if lo < hi {
                out.push(s.start + (lo - vstart)..s.start + (hi - vstart));
            }
            voff = vend;
        }
        out
    };
    let parts = run_morsels(opts, total, |vmorsel| -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for actual in to_actual(vmorsel) {
            let sel = match &bound {
                Some(p) => SelVec::new(select(p, &cols, Candidates::Range(actual)), n),
                None => SelVec::new((actual.start as u32..actual.end as u32).collect(), n),
            };
            rows.extend(gather_rows(&refs, &sel));
        }
        rows
    })?;
    Some(Batch::from_parts(t.schema().clone(), parts))
}

/// Resolves one index range to its RID list, charging the index descend
/// plus sequential leaf-page reads proportional to the entries touched.
pub(crate) fn rids_for_range(
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    table: &str,
    range: &IndexRange,
) -> Vec<Rid> {
    let index = catalog
        .secondary_index(table, &range.column)
        .unwrap_or_else(|| panic!("no secondary index on {table}.{}", range.column));
    tracker.charge_random_ios(BTREE_DESCEND_IOS);
    let entries = index.range(range.lo.as_ref(), range.hi.as_ref());
    tracker.charge_seq_pages(params.index_leaf_pages(entries.len()));
    tracker.charge_cpu_ops(entries.len() as u64);
    entries.iter().map(|(_, rid)| *rid).collect()
}

/// Sorts and deduplicates `rids`, then charges one random I/O per
/// *distinct page* touched (so densely clustered qualifying rows coalesce
/// while scattered rows — the common case at low selectivity — pay one
/// seek each, matching the paper's cost model) plus one CPU op per row.
fn charge_fetch(
    table: &Table,
    params: &CostParams,
    tracker: &mut CostTracker,
    rids: &mut Vec<Rid>,
) {
    rids.sort_unstable();
    rids.dedup();
    let rows_per_page = (params.page_bytes / table.row_width_bytes()).max(1) as u64;
    let mut pages = 0u64;
    let mut last_page = u64::MAX;
    for &rid in rids.iter() {
        let page = rid as u64 / rows_per_page;
        if page != last_page {
            pages += 1;
            last_page = page;
        }
    }
    tracker.charge_random_ios(pages);
    tracker.charge_cpu_ops(rids.len() as u64);
}

/// Fetches base-table rows by RID on the calling thread (see
/// [`charge_fetch`] for the charges).  Used inside a morsel (per outer
/// row of [`crate::join::indexed_nl_join`]) and by the serial star
/// semijoin; never nest morsel jobs inside a pooled morsel.
pub(crate) fn fetch_rows(
    table: &Table,
    params: &CostParams,
    tracker: &mut CostTracker,
    mut rids: Vec<Rid>,
) -> Vec<Vec<Value>> {
    charge_fetch(table, params, tracker, &mut rids);
    rids.into_iter().map(|rid| table.row(rid)).collect()
}

/// Fetches `rids` morsel by morsel and applies the residual filter,
/// returning the batch plus the number of rows fetched before the
/// residual (the deduplicated RID count), which `EXPLAIN ANALYZE`
/// reports as the operator's `rows_in`.  The page-coalescing charge is a
/// property of the *whole* sorted RID list — charging per morsel would
/// double-count pages straddling a morsel boundary — so it is made
/// centrally and only the row materialization is morselized.
fn fetch_filtered(
    t: &Table,
    params: &CostParams,
    tracker: &mut CostTracker,
    mut rids: Vec<Rid>,
    residual: Option<&Expr>,
    opts: &ExecOptions,
) -> Option<(Batch, usize)> {
    charge_fetch(t, params, tracker, &mut rids);
    let parts = run_morsels(opts, rids.len(), |morsel| -> Vec<Vec<Value>> {
        rids[morsel].iter().map(|&rid| t.row(rid)).collect()
    })?;
    let mut rows: Vec<Vec<Value>> = parts.into_iter().flatten().collect();
    let fetched = rows.len();
    if let Some(p) = residual {
        let bound = p.bind(t.schema()).expect("residual binds");
        tracker.charge_cpu_ops(rows.len() as u64);
        rows.retain(|row| rqo_expr::eval_bool(&bound, row));
    }
    Some((Batch::new(t.schema().clone(), rows), fetched))
}

/// Index seek: one range, fetch, residual filter.  The index descend and
/// leaf scan are one B-tree traversal; the row fetch is morselized.
/// Returns the batch and the number of rows fetched before the residual,
/// or `None` when the query's token fired mid-fetch.
pub fn index_seek(
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    table: &str,
    range: &IndexRange,
    residual: Option<&Expr>,
    opts: &ExecOptions,
) -> Option<(Batch, usize)> {
    let t = catalog.table(table).expect("table exists");
    let rids = rids_for_range(catalog, params, tracker, table, range);
    fetch_filtered(t, params, tracker, rids, residual, opts)
}

/// Index intersection (the paper's risky plan): resolve each range's RID
/// list from its index, intersect, and fetch only rows matching *all*
/// ranges.
///
/// The fixed cost (index leaf scans, sized by the constant marginal
/// selectivities) does not depend on the predicates' joint selectivity;
/// the variable cost is one random I/O per qualifying row — the
/// `f₂ + v₂·x` line of the paper's analytical model.  The leaf scans and
/// RID-list intersection run on the calling thread (cheap,
/// order-sensitive); the surviving-row fetch is morselized.  Returns the
/// batch and the number of rows fetched after the intersection but before
/// the residual, or `None` when the query's token fired.
///
/// # Panics
///
/// Panics when fewer than two ranges are supplied (use
/// [`index_seek`] instead).
pub fn index_intersection(
    catalog: &Catalog,
    params: &CostParams,
    tracker: &mut CostTracker,
    table: &str,
    ranges: &[IndexRange],
    residual: Option<&Expr>,
    opts: &ExecOptions,
) -> Option<(Batch, usize)> {
    assert!(
        ranges.len() >= 2,
        "index intersection needs at least two ranges"
    );
    let t = catalog.table(table).expect("table exists");

    let mut rid_sets: Vec<Vec<Rid>> = ranges
        .iter()
        .map(|r| {
            let mut rids = rids_for_range(catalog, params, tracker, table, r);
            rids.sort_unstable();
            rids
        })
        .collect();

    // Intersect starting from the smallest list; charge the merge work.
    rid_sets.sort_by_key(Vec::len);
    let merge_work: u64 = rid_sets.iter().map(|s| s.len() as u64).sum();
    tracker.charge_cpu_ops(merge_work);
    let mut acc = rid_sets[0].clone();
    for other in &rid_sets[1..] {
        acc = intersect_sorted(&acc, other);
        if acc.is_empty() {
            break;
        }
    }
    fetch_filtered(t, params, tracker, acc, residual, opts)
}

/// Intersection of two ascending RID lists.
pub(crate) fn intersect_sorted(a: &[Rid], b: &[Rid]) -> Vec<Rid> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqo_storage::{DataType, Schema, TableBuilder};

    fn inline() -> ExecOptions {
        ExecOptions::default()
    }

    /// 1000 rows: x = i, y = i % 10.
    fn catalog() -> Catalog {
        let mut b = TableBuilder::new(
            "t",
            Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Int)]),
            1000,
        );
        for i in 0..1000i64 {
            b.push_row(&[Value::Int(i), Value::Int(i % 10)]);
        }
        let mut cat = Catalog::new();
        cat.add_table(b.finish()).unwrap();
        cat.ensure_secondary_index("t", "x").unwrap();
        cat.ensure_secondary_index("t", "y").unwrap();
        cat
    }

    #[test]
    fn seq_scan_filters_and_charges() {
        let cat = catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        let pred = Expr::col("x").lt(Expr::lit(100i64));
        let batch = seq_scan(&cat, &params, &mut tracker, "t", Some(&pred), &inline()).unwrap();
        assert_eq!(batch.len(), 100);
        assert_eq!(tracker.cpu_ops, 1000);
        let expected_pages = params.data_pages(1000, cat.table("t").unwrap().row_width_bytes());
        assert_eq!(tracker.seq_pages, expected_pages);
        assert_eq!(tracker.random_ios, 0);
        // Unfiltered scan returns everything.
        let mut t2 = CostTracker::new();
        let all = seq_scan(&cat, &params, &mut t2, "t", None, &inline()).unwrap();
        assert_eq!(all.len(), 1000);
    }

    #[test]
    fn seq_scan_cost_is_selectivity_independent() {
        let cat = catalog();
        let params = CostParams::default();
        let narrow = Expr::col("x").lt(Expr::lit(1i64));
        let wide = Expr::col("x").lt(Expr::lit(999i64));
        let mut ta = CostTracker::new();
        let mut tb = CostTracker::new();
        seq_scan(&cat, &params, &mut ta, "t", Some(&narrow), &inline()).unwrap();
        seq_scan(&cat, &params, &mut tb, "t", Some(&wide), &inline()).unwrap();
        assert_eq!(ta, tb);
    }

    /// Same 1000 rows as [`catalog`], range-partitioned on `x` at
    /// 250/500/750 (4 partitions of 250 rows each).  Rows arrive in
    /// ascending `x` order, so the concatenated table is bit-identical
    /// to the single-blob one.
    fn partitioned_catalog() -> Catalog {
        use rqo_storage::{PartitionSpec, PartitionedTableBuilder};
        let spec = PartitionSpec::Range {
            column: "x".into(),
            bounds: vec![Value::Int(250), Value::Int(500), Value::Int(750)],
        };
        let mut b = PartitionedTableBuilder::new(
            "t",
            Schema::from_pairs(&[("x", DataType::Int), ("y", DataType::Int)]),
            spec,
        );
        for i in 0..1000i64 {
            b.push_row(&[Value::Int(i), Value::Int(i % 10)]);
        }
        let (table, layout) = b.finish();
        let mut cat = Catalog::new();
        cat.add_partitioned_table(table, layout).unwrap();
        cat
    }

    #[test]
    fn partitioned_all_parts_is_bit_identical_to_seq_scan() {
        let single = catalog();
        let parted = partitioned_catalog();
        let params = CostParams::default();
        let all = [0usize, 1, 2, 3];
        let pred = Expr::col("y").eq(Expr::lit(3i64));
        for pred in [None, Some(&pred)] {
            let mut ts = CostTracker::new();
            let reference = seq_scan(&single, &params, &mut ts, "t", pred, &inline()).unwrap();
            for threads in [1usize, 2, 8] {
                let opts = ExecOptions::with_threads(threads).with_morsel_size(64);
                let mut tp = CostTracker::new();
                let b =
                    partitioned_scan(&parted, &params, &mut tp, "t", pred, &all, &opts).unwrap();
                assert_eq!(b.rows, reference.rows, "threads={threads}");
                assert_eq!(tp, ts, "threads={threads}");
            }
        }
    }

    #[test]
    fn pruned_scan_reads_only_surviving_partitions() {
        let parted = partitioned_catalog();
        let params = CostParams::default();
        let w = parted.table("t").unwrap().row_width_bytes();
        let pred = Expr::col("x").between(Expr::lit(250i64), Expr::lit(499i64));
        // Only partition 1 can match: pages and CPU charged for 250 rows.
        let mut tracker = CostTracker::new();
        let batch = partitioned_scan(
            &parted,
            &params,
            &mut tracker,
            "t",
            Some(&pred),
            &[1],
            &inline(),
        )
        .unwrap();
        assert_eq!(batch.len(), 250);
        assert_eq!(tracker.cpu_ops, 250);
        assert_eq!(tracker.seq_pages, params.data_pages(250, w));
        // Rows come back in table order.
        assert_eq!(batch.rows[0][0], Value::Int(250));
        assert_eq!(batch.rows[249][0], Value::Int(499));
    }

    #[test]
    fn adjacent_surviving_partitions_merge_into_one_page_run() {
        let parted = partitioned_catalog();
        let params = CostParams::default();
        let w = parted.table("t").unwrap().row_width_bytes();
        // Partitions 1 and 2 are adjacent: one merged 500-row page run,
        // not two 250-row runs (which could round up to more pages).
        let mut tracker = CostTracker::new();
        partitioned_scan(
            &parted,
            &params,
            &mut tracker,
            "t",
            None,
            &[1, 2],
            &inline(),
        )
        .unwrap();
        assert_eq!(tracker.seq_pages, params.data_pages(500, w));
        // Non-adjacent survivors charge per run.
        let mut gap = CostTracker::new();
        partitioned_scan(&parted, &params, &mut gap, "t", None, &[0, 2], &inline()).unwrap();
        assert_eq!(
            gap.seq_pages,
            params.data_pages(250, w) + params.data_pages(250, w)
        );
    }

    #[test]
    fn index_seek_range() {
        let cat = catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        let range = IndexRange::between("x", Value::Int(100), Value::Int(199));
        let (batch, fetched) =
            index_seek(&cat, &params, &mut tracker, "t", &range, None, &inline()).unwrap();
        assert_eq!(fetched, 100);
        assert_eq!(batch.len(), 100);
        assert!(tracker.random_ios > 0);
        // No full-table page reads: leaf pages only.
        assert!(tracker.seq_pages < params.data_pages(1000, 24));
    }

    #[test]
    fn index_seek_residual() {
        let cat = catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        let range = IndexRange::between("x", Value::Int(0), Value::Int(99));
        let residual = Expr::col("y").eq(Expr::lit(3i64));
        let (batch, fetched) = index_seek(
            &cat,
            &params,
            &mut tracker,
            "t",
            &range,
            Some(&residual),
            &inline(),
        )
        .unwrap();
        assert_eq!(batch.len(), 10); // x in 0..100 with x % 10 == 3
        assert_eq!(fetched, 100); // rows_in counts rows before the residual
    }

    #[test]
    fn index_intersection_matches_conjunction() {
        let cat = catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        let ranges = vec![
            IndexRange::between("x", Value::Int(0), Value::Int(499)),
            IndexRange::eq("y", Value::Int(7)),
        ];
        let (batch, _) =
            index_intersection(&cat, &params, &mut tracker, "t", &ranges, None, &inline()).unwrap();
        // x in 0..500 and x % 10 == 7: 50 rows.
        assert_eq!(batch.len(), 50);

        // Equivalent seq scan agrees.
        let pred = Expr::col("x")
            .between(Expr::lit(0i64), Expr::lit(499i64))
            .and(Expr::col("y").eq(Expr::lit(7i64)));
        let mut t2 = CostTracker::new();
        let scan = seq_scan(&cat, &params, &mut t2, "t", Some(&pred), &inline()).unwrap();
        assert_eq!(scan.rows, batch.rows);
    }

    #[test]
    fn intersection_fetch_cost_scales_with_result() {
        let cat = catalog();
        let params = CostParams::default();
        // Small result.
        let mut small = CostTracker::new();
        index_intersection(
            &cat,
            &params,
            &mut small,
            "t",
            &[
                IndexRange::between("x", Value::Int(0), Value::Int(49)),
                IndexRange::eq("y", Value::Int(7)),
            ],
            None,
            &inline(),
        )
        .unwrap();
        // Larger result, same marginal index work for y.
        let mut large = CostTracker::new();
        index_intersection(
            &cat,
            &params,
            &mut large,
            "t",
            &[
                IndexRange::between("x", Value::Int(0), Value::Int(999)),
                IndexRange::eq("y", Value::Int(7)),
            ],
            None,
            &inline(),
        )
        .unwrap();
        assert!(large.random_ios > small.random_ios);
    }

    #[test]
    fn empty_intersection_short_circuits() {
        let cat = catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        let (batch, fetched) = index_intersection(
            &cat,
            &params,
            &mut tracker,
            "t",
            &[
                IndexRange::between("x", Value::Int(0), Value::Int(9)),
                IndexRange::eq("y", Value::Int(7)),
                IndexRange::between("x", Value::Int(500), Value::Int(599)),
            ],
            None,
            &inline(),
        )
        .unwrap();
        assert_eq!(fetched, 0);
        assert_eq!(batch.len(), 0);
    }

    #[test]
    #[should_panic(expected = "at least two ranges")]
    fn intersection_needs_two_ranges() {
        let cat = catalog();
        let params = CostParams::default();
        let mut tracker = CostTracker::new();
        index_intersection(
            &cat,
            &params,
            &mut tracker,
            "t",
            &[IndexRange::eq("y", Value::Int(1))],
            None,
            &inline(),
        );
    }

    #[test]
    fn intersect_sorted_basics() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert_eq!(intersect_sorted(&[], &[1, 2]), Vec::<Rid>::new());
        assert_eq!(intersect_sorted(&[1, 2], &[3, 4]), Vec::<Rid>::new());
        assert_eq!(intersect_sorted(&[1, 2, 3], &[1, 2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        let cat = catalog();
        let params = CostParams::default();
        let range = IndexRange::between("x", Value::Int(100), Value::Int(499));
        let residual = Expr::col("y").eq(Expr::lit(7i64));
        let ranges = vec![
            IndexRange::between("x", Value::Int(0), Value::Int(499)),
            IndexRange::eq("y", Value::Int(7)),
        ];
        let run = |opts: &ExecOptions| {
            let mut t = CostTracker::new();
            let seek = index_seek(&cat, &params, &mut t, "t", &range, Some(&residual), opts);
            let sect = index_intersection(&cat, &params, &mut t, "t", &ranges, None, opts);
            (seek.unwrap(), sect.unwrap(), t)
        };
        let (seek, sect, cost) = run(&ExecOptions::default().with_morsel_size(10));
        for threads in [2, 8] {
            let (p_seek, p_sect, p_cost) =
                run(&ExecOptions::with_threads(threads).with_morsel_size(10));
            assert_eq!(p_seek.0.rows, seek.0.rows, "threads={threads}");
            assert_eq!(p_seek.1, seek.1, "threads={threads}");
            assert_eq!(p_sect.0.rows, sect.0.rows, "threads={threads}");
            assert_eq!(p_cost, cost, "threads={threads}");
        }
    }

    #[test]
    fn scan_matches_row_at_a_time_oracle() {
        let cat = catalog();
        let params = CostParams::default();
        let t = cat.table("t").unwrap();
        let preds: Vec<Option<Expr>> = vec![
            None,
            Some(Expr::col("y").eq(Expr::lit(3i64))),
            Some(Expr::col("x").between(Expr::lit(100i64), Expr::lit(299i64))),
            Some(Expr::col("x").lt(Expr::lit(0i64))), // none selected
        ];
        for pred in &preds {
            let bound = pred.as_ref().map(|p| p.bind(t.schema()).unwrap());
            let expect: Vec<Vec<Value>> = (0..t.num_rows() as Rid)
                .map(|rid| t.row(rid))
                .filter(|row| bound.as_ref().is_none_or(|p| rqo_expr::eval_bool(p, row)))
                .collect();
            let mut ts = CostTracker::new();
            let serial = seq_scan(&cat, &params, &mut ts, "t", pred.as_ref(), &inline()).unwrap();
            assert_eq!(serial.rows, expect, "pred={pred:?}");
            for threads in [1, 2, 8] {
                let opts = ExecOptions::with_threads(threads).with_morsel_size(64);
                let mut tp = CostTracker::new();
                let par = seq_scan(&cat, &params, &mut tp, "t", pred.as_ref(), &opts).unwrap();
                assert_eq!(par.rows, expect, "pred={pred:?} threads={threads}");
                assert_eq!(tp, ts, "pred={pred:?} threads={threads}");
            }
        }
    }

    #[test]
    fn fetch_coalesces_same_page_rids() {
        let cat = catalog();
        let params = CostParams::default();
        let t = cat.table("t").unwrap();
        // Rows are 32 bytes here, so a page holds 256 of them: 100
        // adjacent RIDs sit on one page, while page-stride RIDs each pay a
        // random I/O.
        let rows_per_page = params.page_bytes / t.row_width_bytes();
        assert_eq!(rows_per_page, 256);
        let mut dense = CostTracker::new();
        fetch_rows(t, &params, &mut dense, (0..100).collect());
        assert_eq!(dense.random_ios, 1);
        let mut sparse = CostTracker::new();
        fetch_rows(
            t,
            &params,
            &mut sparse,
            (0..1000).step_by(rows_per_page).collect(),
        );
        assert_eq!(sparse.random_ios, 4);
        // Duplicate RIDs are fetched once.
        let mut dup = CostTracker::new();
        let rows = fetch_rows(t, &params, &mut dup, vec![5, 5, 5]);
        assert_eq!(rows.len(), 1);
    }
}
