//! Hash aggregation.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use rqo_storage::{ColumnMeta, ColumnVec, CostTracker, DataType, NullMask, Schema, Value};

use crate::batch::Batch;
use crate::morsel::{run_morsels, ExecOptions};
use crate::plan::{AggExpr, AggFunc};

/// Running state of one aggregate.
///
/// Public so that benchmark baselines can accumulate with the very same
/// update and merge rules as [`hash_aggregate`].
#[derive(Debug, Clone)]
pub enum AggState {
    /// Running `SUM` (NULLs skipped).
    Sum(f64),
    /// Running `COUNT(*)` or `COUNT(col)`.
    Count(u64),
    /// Running `AVG`: sum and count of non-NULL inputs.
    Avg {
        /// Sum of the non-NULL inputs.
        sum: f64,
        /// Number of non-NULL inputs.
        count: u64,
    },
    /// Running `MIN`, keeping the input's native type.
    Min(Option<Value>),
    /// Running `MAX`, keeping the input's native type.
    Max(Option<Value>),
}

impl AggState {
    /// The identity state of `func`.
    pub fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Sum => AggState::Sum(0.0),
            AggFunc::Count => AggState::Count(0),
            AggFunc::Avg => AggState::Avg { sum: 0.0, count: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    /// Folds one input value into the state; `None` is `COUNT(*)`'s
    /// column-less input.
    ///
    /// # Panics
    ///
    /// Panics when a non-COUNT aggregate gets no column.
    pub fn update(&mut self, v: Option<&Value>) {
        match self {
            AggState::Sum(acc) => {
                let v = v.expect("SUM needs a column");
                if !v.is_null() {
                    *acc += v.as_f64();
                }
            }
            AggState::Count(n) => {
                // COUNT(*) counts rows; COUNT(col) skips NULLs.
                if v.is_none() || v.is_some_and(|x| !x.is_null()) {
                    *n += 1;
                }
            }
            AggState::Avg { sum, count } => {
                let v = v.expect("AVG needs a column");
                if !v.is_null() {
                    *sum += v.as_f64();
                    *count += 1;
                }
            }
            AggState::Min(cur) => {
                let v = v.expect("MIN needs a column");
                if !v.is_null()
                    && cur
                        .as_ref()
                        .is_none_or(|c| v.total_cmp(c) == std::cmp::Ordering::Less)
                {
                    *cur = Some(v.clone());
                }
            }
            AggState::Max(cur) => {
                let v = v.expect("MAX needs a column");
                if !v.is_null()
                    && cur
                        .as_ref()
                        .is_none_or(|c| v.total_cmp(c) == std::cmp::Ordering::Greater)
                {
                    *cur = Some(v.clone());
                }
            }
        }
    }

    /// Folds another partial state for the same aggregate into this one
    /// (used when merging per-morsel partial aggregations).
    ///
    /// SUM/AVG add partial float sums, so the result depends on where the
    /// morsel boundaries fall — which is why every thread count uses the
    /// same boundaries and merges in morsel index order.  COUNT/MIN/MAX
    /// merges are exact.
    ///
    /// # Panics
    ///
    /// Panics when the two states belong to different aggregate
    /// functions.
    pub fn merge(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Sum(a), AggState::Sum(b)) => *a += b,
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (
                AggState::Avg { sum, count },
                AggState::Avg {
                    sum: other_sum,
                    count: other_count,
                },
            ) => {
                *sum += other_sum;
                *count += other_count;
            }
            (AggState::Min(cur), AggState::Min(other)) => {
                if let Some(v) = other {
                    if cur
                        .as_ref()
                        .is_none_or(|c| v.total_cmp(c) == std::cmp::Ordering::Less)
                    {
                        *cur = Some(v);
                    }
                }
            }
            (AggState::Max(cur), AggState::Max(other)) => {
                if let Some(v) = other {
                    if cur
                        .as_ref()
                        .is_none_or(|c| v.total_cmp(c) == std::cmp::Ordering::Greater)
                    {
                        *cur = Some(v);
                    }
                }
            }
            _ => unreachable!("merging mismatched aggregate states"),
        }
    }

    /// The aggregate's output value (`AVG` of no input is NULL).
    pub fn finish(self) -> Value {
        match self {
            AggState::Sum(acc) => Value::Float(acc),
            AggState::Count(n) => Value::Int(n as i64),
            AggState::Avg { sum, count } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / count as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        }
    }

    fn output_type(func: AggFunc) -> DataType {
        match func {
            AggFunc::Sum | AggFunc::Avg => DataType::Float,
            AggFunc::Count => DataType::Int,
            // MIN/MAX inherit their input type; reported as Float for the
            // schema since the engine's numeric Values interconvert.  The
            // actual Value keeps its native type.
            AggFunc::Min | AggFunc::Max => DataType::Float,
        }
    }
}

/// Hash aggregation over `input`.
///
/// With an empty `group_by`, produces exactly one row (SQL scalar
/// aggregate semantics — zero input rows still yield one output row of
/// identity values).  Charges one hash insert per input row (group lookup
/// + state update) and one CPU op per output row.
///
/// Aggregate input columns are extracted into typed vectors once; each
/// morsel assigns group ids in a first pass and then updates each
/// aggregate's states in a tight column-at-a-time loop (`f64`/`i64` adds
/// with a null-mask check) instead of per-row `Value` dispatch.  The
/// per-morsel partial `group → states` maps are merged **in morsel index
/// order** via [`AggState::merge`].  Morsel boundaries depend only on the
/// morsel size, so the float-summation order — and therefore every
/// output bit — is the same at every thread count, with or without a
/// token or scheduler.  Returns `None` when the query's token fired
/// mid-accumulation.
///
/// # Panics
///
/// Panics when a referenced column is missing, or when a non-COUNT
/// aggregate omits its column.
pub fn hash_aggregate(
    tracker: &mut CostTracker,
    input: Batch,
    group_by: &[String],
    aggregates: &[AggExpr],
    opts: &ExecOptions,
) -> Option<Batch> {
    let (group_idx, agg_idx) = resolve_indices(&input, group_by, aggregates);
    tracker.charge_hash_builds(input.len() as u64);
    // Columnarize once, outside the morsel loop; morsels index the shared
    // vectors by absolute row id.
    let agg_cols = columnarize_agg_inputs(&input, &agg_idx);
    let int_group = int_group_ordinal(&input, &group_idx);
    let partials = run_morsels(opts, input.len(), |morsel| {
        accumulate_morsel(
            &input.rows,
            morsel,
            &group_idx,
            int_group,
            &agg_cols,
            aggregates,
        )
    })?;
    let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
    for partial in partials {
        for (key, states) in partial {
            match groups.entry(key) {
                Entry::Occupied(mut existing) => {
                    for (into, from) in existing.get_mut().iter_mut().zip(states) {
                        into.merge(from);
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert(states);
                }
            }
        }
    }
    Some(finalize(
        tracker, input, group_by, aggregates, group_idx, groups,
    ))
}

/// Deterministic multiply-mix hasher for the typed `Option<i64>`
/// group-id map: one multiply and a shift per written word, an order of
/// magnitude cheaper than SipHash on single-integer keys.  Only group-id
/// *assignment* uses it; the `Vec<Value>`-keyed maps the caller sees are
/// untouched, and group ids feed a finalize step that sorts output rows,
/// so hash iteration order never reaches results.
#[derive(Default)]
struct IntKeyHasher(u64);

impl std::hash::Hasher for IntKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        // Golden-ratio multiply with a high-bit fold (the HashMap keeps
        // the low bits, so fold the well-mixed high bits down).
        let mixed = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = mixed ^ (mixed >> 32);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

type IntKeyMap<V> = HashMap<Option<i64>, V, std::hash::BuildHasherDefault<IntKeyHasher>>;

/// The ordinal of the single declared-`Int` group-by column, when the
/// primitive-keyed grouping fast path applies; multi-column, non-`Int`,
/// or empty group keys stay on the generic row-major path.
fn int_group_ordinal(input: &Batch, group_idx: &[usize]) -> Option<usize> {
    match group_idx {
        &[g] if input.schema.column(g).data_type == DataType::Int => Some(g),
        _ => None,
    }
}

/// Extracts each aggregate's input column (if any) into a typed vector,
/// transposing each distinct ordinal once and sharing it (`Arc`) when
/// several aggregates read the same column (e.g. `SUM`/`AVG`/`MIN`/`MAX`
/// over one measure).
fn columnarize_agg_inputs(input: &Batch, agg_idx: &[Option<usize>]) -> Vec<Option<Arc<ColumnVec>>> {
    let mut by_ordinal: HashMap<usize, Arc<ColumnVec>> = HashMap::new();
    for i in agg_idx.iter().flatten() {
        by_ordinal.entry(*i).or_insert_with(|| {
            Arc::new(ColumnVec::from_rows(
                &input.rows,
                *i,
                input.schema.column(*i).data_type,
            ))
        });
    }
    agg_idx
        .iter()
        .map(|idx| idx.map(|i| Arc::clone(&by_ordinal[&i])))
        .collect()
}

/// Accumulates the absolute row range `range` into per-group states:
/// pass 1 assigns group ids (a primitive-keyed map when the single group
/// column is declared `Int`, otherwise keys cloned row-major); pass 2
/// runs one typed loop per aggregate, updating each state in row order.
fn accumulate_morsel(
    rows: &[Vec<Value>],
    range: Range<usize>,
    group_idx: &[usize],
    int_group: Option<usize>,
    agg_cols: &[Option<Arc<ColumnVec>>],
    aggregates: &[AggExpr],
) -> HashMap<Vec<Value>, Vec<AggState>> {
    let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut states: Vec<Vec<AggState>> = Vec::new();
    let mut gids: Vec<u32> = Vec::with_capacity(range.len());
    let new_group = |states: &mut Vec<Vec<AggState>>| {
        states.push(aggregates.iter().map(|a| AggState::new(a.func)).collect());
        states.len() - 1
    };
    let mut typed_ok = false;
    if let Some(g) = int_group {
        // Single declared-Int group column: group on `Option<i64>` read
        // straight out of the rows — no transpose, no one-element
        // `Vec<Value>` alloc + hash per row.  NULL keys map to `None`,
        // matching `Value`'s storage equality (NULL groups with NULL);
        // the `Value` keys the caller's merge/finalize see are
        // reconstructed below.
        // A declared-Int column can still hold an off-type value (an
        // aggregate output feeding a re-aggregation): bail out and let
        // the generic path redo the morsel.
        let mut typed: IntKeyMap<usize> = IntKeyMap::default();
        typed_ok = true;
        for i in range.clone() {
            let key = match &rows[i][g] {
                Value::Int(v) => Some(*v),
                Value::Null => None,
                _ => {
                    typed_ok = false;
                    break;
                }
            };
            let gid = *typed.entry(key).or_insert_with(|| new_group(&mut states));
            gids.push(gid as u32);
        }
        if typed_ok {
            for (key, gid) in typed {
                index.insert(vec![key.map_or(Value::Null, Value::Int)], gid);
            }
        } else {
            states.clear();
            gids.clear();
        }
    }
    if !typed_ok {
        for i in range.clone() {
            let key: Vec<Value> = group_idx.iter().map(|&g| rows[i][g].clone()).collect();
            let gid = *index.entry(key).or_insert_with(|| new_group(&mut states));
            gids.push(gid as u32);
        }
    }
    for (j, (agg, col)) in aggregates.iter().zip(agg_cols).enumerate() {
        update_states(&mut states, &gids, range.start, j, agg.func, col.as_deref());
    }
    index
        .into_iter()
        .map(|(key, gid)| (key, std::mem::take(&mut states[gid])))
        .collect()
}

fn null_at(nulls: Option<&NullMask>, i: usize) -> bool {
    nulls.is_some_and(|m| m.is_null(i))
}

/// Updates aggregate `j`'s state for every row, in row order.  `SUM`,
/// `AVG`, and `COUNT` over numeric columns run typed loops; everything
/// else goes through [`AggState::update`] with the materialized value —
/// same semantics (including MIN/MAX keeping the input's native type and
/// panics on non-numeric SUM inputs), just without the per-row group
/// lookup.
fn update_states(
    states: &mut [Vec<AggState>],
    gids: &[u32],
    start: usize,
    j: usize,
    func: AggFunc,
    col: Option<&ColumnVec>,
) {
    let add = |state: &mut AggState, v: f64| match state {
        AggState::Sum(acc) => *acc += v,
        AggState::Avg { sum, count } => {
            *sum += v;
            *count += 1;
        }
        _ => unreachable!("typed add on non-SUM/AVG state"),
    };
    match (func, col) {
        (AggFunc::Count, None) => {
            // COUNT(*): every row counts.
            for &g in gids {
                match &mut states[g as usize][j] {
                    AggState::Count(n) => *n += 1,
                    _ => unreachable!("COUNT state"),
                }
            }
        }
        (AggFunc::Count, Some(col)) => {
            // COUNT(col): skip NULLs.
            for (k, &g) in gids.iter().enumerate() {
                if !col.is_null(start + k) {
                    match &mut states[g as usize][j] {
                        AggState::Count(n) => *n += 1,
                        _ => unreachable!("COUNT state"),
                    }
                }
            }
        }
        (AggFunc::Sum | AggFunc::Avg, Some(ColumnVec::Int { values, nulls })) => {
            for (k, &g) in gids.iter().enumerate() {
                let i = start + k;
                if !null_at(nulls.as_ref(), i) {
                    add(&mut states[g as usize][j], values[i] as f64);
                }
            }
        }
        (AggFunc::Sum | AggFunc::Avg, Some(ColumnVec::Float { values, nulls })) => {
            for (k, &g) in gids.iter().enumerate() {
                let i = start + k;
                if !null_at(nulls.as_ref(), i) {
                    add(&mut states[g as usize][j], values[i]);
                }
            }
        }
        (AggFunc::Sum | AggFunc::Avg, Some(ColumnVec::Date { values, nulls })) => {
            // `Value::as_f64` widens dates like any numeric.
            for (k, &g) in gids.iter().enumerate() {
                let i = start + k;
                if !null_at(nulls.as_ref(), i) {
                    add(&mut states[g as usize][j], values[i] as f64);
                }
            }
        }
        (_, Some(col)) => {
            // MIN/MAX (any type), SUM/AVG over Mixed or non-numeric
            // columns: materialize the value and use `AggState::update`.
            for (k, &g) in gids.iter().enumerate() {
                let v = col.value(start + k);
                states[g as usize][j].update(Some(&v));
            }
        }
        (_, None) => {
            // Non-COUNT aggregate without a column: panics in update.
            for &g in gids {
                states[g as usize][j].update(None);
            }
        }
    }
}

/// Resolves grouping and aggregate-input column ordinals.
fn resolve_indices(
    input: &Batch,
    group_by: &[String],
    aggregates: &[AggExpr],
) -> (Vec<usize>, Vec<Option<usize>>) {
    let group_idx = group_by
        .iter()
        .map(|g| input.schema.expect_index(g))
        .collect();
    let agg_idx = aggregates
        .iter()
        .map(|a| a.column.as_ref().map(|c| input.schema.expect_index(c)))
        .collect();
    (group_idx, agg_idx)
}

/// Builds the output schema and the deterministically ordered result rows.
fn finalize(
    tracker: &mut CostTracker,
    input: Batch,
    group_by: &[String],
    aggregates: &[AggExpr],
    group_idx: Vec<usize>,
    mut groups: HashMap<Vec<Value>, Vec<AggState>>,
) -> Batch {
    // Scalar aggregates over empty input still produce one group.
    if group_by.is_empty() && groups.is_empty() {
        groups.insert(
            Vec::new(),
            aggregates.iter().map(|a| AggState::new(a.func)).collect(),
        );
    }

    let mut columns: Vec<ColumnMeta> = group_idx
        .iter()
        .map(|&i| input.schema.column(i).clone())
        .collect();
    for a in aggregates {
        columns.push(ColumnMeta::new(
            a.alias.clone(),
            AggState::output_type(a.func),
        ));
    }
    let schema = Schema::new(columns);

    let mut rows: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|(mut key, states)| {
            key.extend(states.into_iter().map(AggState::finish));
            key
        })
        .collect();
    // Deterministic output order for tests and reports.
    rows.sort_by(|a, b| {
        for i in 0..group_idx.len() {
            let ord = a[i].total_cmp(&b[i]);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    tracker.charge_cpu_ops(rows.len() as u64);
    Batch::new(schema, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inline() -> ExecOptions {
        ExecOptions::default()
    }

    fn agg(input: Batch, group_by: &[String], aggs: &[AggExpr]) -> (Batch, CostTracker) {
        let mut tracker = CostTracker::new();
        let out = hash_aggregate(&mut tracker, input, group_by, aggs, &inline()).unwrap();
        (out, tracker)
    }

    fn input() -> Batch {
        Batch::new(
            Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Float)]),
            vec![
                vec![Value::Int(1), Value::Float(10.0)],
                vec![Value::Int(2), Value::Float(5.0)],
                vec![Value::Int(1), Value::Float(30.0)],
                vec![Value::Int(2), Value::Float(15.0)],
                vec![Value::Int(1), Value::Float(20.0)],
            ],
        )
    }

    #[test]
    fn scalar_aggregates() {
        let (out, tracker) = agg(
            input(),
            &[],
            &[
                AggExpr::sum("x", "total"),
                AggExpr::count_star("n"),
                AggExpr::avg("x", "mean"),
                AggExpr::min("x", "lo"),
                AggExpr::max("x", "hi"),
            ],
        );
        assert_eq!(out.len(), 1);
        let row = &out.rows[0];
        assert_eq!(row[0], Value::Float(80.0));
        assert_eq!(row[1], Value::Int(5));
        assert_eq!(row[2], Value::Float(16.0));
        assert_eq!(row[3], Value::Float(5.0));
        assert_eq!(row[4], Value::Float(30.0));
        assert_eq!(tracker.hash_builds, 5);
    }

    #[test]
    fn grouped_aggregates_sorted_output() {
        let (out, _) = agg(
            input(),
            &["g".to_string()],
            &[AggExpr::sum("x", "total"), AggExpr::count_star("n")],
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema.names(), vec!["g", "total", "n"]);
        assert_eq!(
            out.rows[0],
            vec![Value::Int(1), Value::Float(60.0), Value::Int(3)]
        );
        assert_eq!(
            out.rows[1],
            vec![Value::Int(2), Value::Float(20.0), Value::Int(2)]
        );
    }

    #[test]
    fn empty_input_scalar_yields_identity_row() {
        let empty = Batch::empty(Schema::from_pairs(&[("x", DataType::Float)]));
        let aggs = [
            AggExpr::sum("x", "s"),
            AggExpr::count_star("n"),
            AggExpr::avg("x", "a"),
            AggExpr::min("x", "lo"),
        ];
        for opts in [inline(), ExecOptions::with_threads(4)] {
            let mut tracker = CostTracker::new();
            let out = hash_aggregate(&mut tracker, empty.clone(), &[], &aggs, &opts).unwrap();
            assert_eq!(out.len(), 1);
            assert_eq!(out.rows[0][0], Value::Float(0.0));
            assert_eq!(out.rows[0][1], Value::Int(0));
            assert_eq!(out.rows[0][2], Value::Null);
            assert_eq!(out.rows[0][3], Value::Null);
        }
    }

    #[test]
    fn empty_input_grouped_yields_no_rows() {
        let empty = Batch::empty(Schema::from_pairs(&[
            ("g", DataType::Int),
            ("x", DataType::Float),
        ]));
        let (out, _) = agg(empty, &["g".to_string()], &[AggExpr::sum("x", "s")]);
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn typed_loops_match_row_at_a_time_updates() {
        // NULL-heavy float column plus an Int column so MIN/MAX keep the
        // native type and SUM widens; irrational values so float addition
        // order matters and bit-identity is a real claim.  One morsel
        // covers the input, so the reference updates every state in row
        // order through `AggState::update`.
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|i| {
                let x = if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Float((i as f64).sqrt())
                };
                vec![Value::Int(i % 7), x, Value::Int(i % 11)]
            })
            .collect();
        let b = Batch::new(
            Schema::from_pairs(&[
                ("g", DataType::Int),
                ("x", DataType::Float),
                ("y", DataType::Int),
            ]),
            rows,
        );
        let aggs = [
            AggExpr::sum("x", "s"),
            AggExpr::count_star("n"),
            AggExpr {
                func: AggFunc::Count,
                column: Some("x".into()),
                alias: "cx".into(),
            },
            AggExpr::avg("x", "a"),
            AggExpr::min("y", "lo"),
            AggExpr::max("x", "hi"),
        ];
        for group_by in [vec![], vec!["g".to_string()]] {
            let (group_idx, agg_idx) = resolve_indices(&b, &group_by, &aggs);
            let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
            for row in &b.rows {
                let key: Vec<Value> = group_idx.iter().map(|&i| row[i].clone()).collect();
                let states = groups
                    .entry(key)
                    .or_insert_with(|| aggs.iter().map(|a| AggState::new(a.func)).collect());
                for (state, idx) in states.iter_mut().zip(&agg_idx) {
                    state.update(idx.map(|i| &row[i]));
                }
            }
            let mut tr = CostTracker::new();
            let reference = finalize(&mut tr, b.clone(), &group_by, &aggs, group_idx, groups);

            let mut tc = CostTracker::new();
            let one_morsel = inline().with_morsel_size(b.len());
            let out = hash_aggregate(&mut tc, b.clone(), &group_by, &aggs, &one_morsel).unwrap();
            assert_eq!(out.rows, reference.rows);
            // MIN over the Int column keeps its native type.
            let lo_idx = out.schema.expect_index("lo");
            assert!(matches!(out.rows[0][lo_idx], Value::Int(_)));
        }
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        // Irrational inputs over several morsels: the morsel-order merge
        // fixes the summation order, so every thread count agrees.
        let rows: Vec<Vec<Value>> = (0..500)
            .map(|i| vec![Value::Int(i % 7), Value::Float((i as f64).sqrt())])
            .collect();
        let b = Batch::new(
            Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Float)]),
            rows,
        );
        let aggs = [
            AggExpr::sum("x", "s"),
            AggExpr::count_star("n"),
            AggExpr::avg("x", "a"),
            AggExpr::min("x", "lo"),
            AggExpr::max("x", "hi"),
        ];
        for group_by in [vec![], vec!["g".to_string()]] {
            let mut ts = CostTracker::new();
            let base = inline().with_morsel_size(64);
            let serial = hash_aggregate(&mut ts, b.clone(), &group_by, &aggs, &base).unwrap();
            for threads in [2, 8] {
                let opts = ExecOptions::with_threads(threads).with_morsel_size(64);
                let mut tp = CostTracker::new();
                let par = hash_aggregate(&mut tp, b.clone(), &group_by, &aggs, &opts).unwrap();
                assert_eq!(par.rows, serial.rows, "threads={threads}");
                assert_eq!(tp, ts, "threads={threads}");
            }
        }
    }

    #[test]
    fn count_column_skips_nulls() {
        let b = Batch::new(
            Schema::from_pairs(&[("x", DataType::Int)]),
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(3)]],
        );
        let (out, _) = agg(
            b,
            &[],
            &[
                AggExpr {
                    func: AggFunc::Count,
                    column: Some("x".into()),
                    alias: "c".into(),
                },
                AggExpr::count_star("n"),
            ],
        );
        assert_eq!(out.rows[0][0], Value::Int(2));
        assert_eq!(out.rows[0][1], Value::Int(3));
    }
}
