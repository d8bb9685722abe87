//! Per-operator execution metrics — the `EXPLAIN ANALYZE` data model.
//!
//! Every execution builds an [`OpMetrics`] tree mirroring the physical
//! plan: one node per operator, carrying rows in/out, the optimizer's
//! estimated cardinality (attached after the fact via [`OpMetrics::annotate`]),
//! the q-error between the two, the morsel count, peak hash-table entries,
//! and the simulated-cost delta attributable to the operator's subtree.
//!
//! Determinism is load-bearing: golden `EXPLAIN ANALYZE` snapshots and the
//! serial-vs-parallel differential tests require the tree to be identical
//! at any worker-thread count.  Everything here is therefore derived from
//! input sizes and simulated cost counters, never from scheduling — the
//! morsel count is computed from `n` and the morsel size exactly as the
//! morsel scheduler would split the input, and partial results merge in
//! morsel index order just like `CostTracker`.  Wall-clock time *is*
//! recorded (`wall_ns`) because it is cheap and occasionally useful, but
//! it is excluded from both [`PartialEq`] and [`OpMetrics::render`], so
//! comparisons and rendered trees stay byte-stable.

use rqo_storage::CostTracker;

/// Execution metrics for one operator node (plus its children).
#[derive(Debug, Clone)]
pub struct OpMetrics {
    /// Operator label, identical to [`crate::PhysicalPlan::node_label`].
    pub label: String,
    /// Rows consumed: the sum of the children's `rows_out`, or for leaf
    /// access paths the rows actually examined (table rows for a
    /// sequential scan, fetched RIDs for index paths).
    pub rows_in: u64,
    /// Rows produced (the operator's actual output cardinality).
    pub rows_out: u64,
    /// The optimizer's estimated output cardinality, if one was attached
    /// via [`OpMetrics::annotate`].
    pub est_rows: Option<f64>,
    /// Number of morsels the operator's parallelizable input splits into
    /// under the active morsel size.  Computed from sizes, so every
    /// thread count reports the same count; operators that never
    /// morselize (merge join, star semijoin) report 0.
    pub morsels: u64,
    /// Peak number of entries resident in the operator's hash table
    /// (hash-join build rows, aggregate groups); 0 for non-hash operators.
    pub peak_hash_entries: u64,
    /// Wall-clock nanoseconds spent in this subtree.  Informational only:
    /// excluded from equality and rendering.
    pub wall_ns: u128,
    /// Simulated cost charged by this subtree (children included).
    pub cost: CostTracker,
    /// Child operators, in the plan's execution order.
    pub children: Vec<OpMetrics>,
}

impl PartialEq for OpMetrics {
    /// Structural equality over every deterministic field; `wall_ns` is
    /// deliberately ignored so metrics trees from different runs (or
    /// thread counts) compare equal when the simulated execution matched.
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label
            && self.rows_in == other.rows_in
            && self.rows_out == other.rows_out
            && self.est_rows == other.est_rows
            && self.morsels == other.morsels
            && self.peak_hash_entries == other.peak_hash_entries
            && self.cost == other.cost
            && self.children == other.children
    }
}

impl OpMetrics {
    /// The q-error between the estimated and actual output cardinality:
    /// `max(est, actual) / min(est, actual)` with both clamped to ≥ 1 (the
    /// standard convention, so empty results do not divide by zero).
    /// `None` until an estimate has been attached.
    pub fn q_error(&self) -> Option<f64> {
        self.est_rows.map(|est| {
            let est = est.max(1.0);
            let actual = (self.rows_out as f64).max(1.0);
            est.max(actual) / est.min(actual)
        })
    }

    /// The cost charged by this operator alone: the subtree delta minus
    /// the children's subtree deltas.
    pub fn self_cost(&self) -> CostTracker {
        let children: CostTracker = self.children.iter().map(|c| c.cost).sum();
        self.cost.diff(&children)
    }

    /// Number of operator nodes in this metrics tree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(OpMetrics::node_count)
            .sum::<usize>()
    }

    /// All nodes in pre-order (node before children, children in
    /// execution order) — the numbering shared with
    /// [`crate::PhysicalPlan::explain`] and the optimizer's per-node
    /// estimate vector.
    pub fn preorder(&self) -> Vec<&OpMetrics> {
        let mut out = Vec::with_capacity(self.node_count());
        fn walk<'a>(m: &'a OpMetrics, out: &mut Vec<&'a OpMetrics>) {
            out.push(m);
            for c in &m.children {
                walk(c, out);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Attaches per-node estimated cardinalities, given in the same
    /// pre-order numbering as [`OpMetrics::preorder`].  Entries beyond the
    /// tree (or `None` entries) leave the node unannotated.
    pub fn annotate(&mut self, estimates: &[Option<f64>]) {
        fn walk(m: &mut OpMetrics, estimates: &[Option<f64>], idx: &mut usize) {
            if let Some(est) = estimates.get(*idx).copied().flatten() {
                m.est_rows = Some(est);
            }
            *idx += 1;
            for c in &mut m.children {
                walk(c, estimates, idx);
            }
        }
        let mut idx = 0;
        walk(self, estimates, &mut idx);
    }

    /// Renders the annotated tree, `EXPLAIN ANALYZE`-style: each operator
    /// label followed by an indented metrics line.  Deliberately excludes
    /// wall-clock time so the output is byte-identical across runs and
    /// thread counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        let _ = writeln!(out, "{pad}{}", self.label);
        let est = match self.est_rows {
            Some(e) => format!("{e:.1}"),
            None => "?".to_string(),
        };
        let q = match self.q_error() {
            Some(q) => format!("{q:.2}"),
            None => "?".to_string(),
        };
        let _ = write!(
            out,
            "{pad}  (est_rows={est} actual_rows={} q_error={q} rows_in={} morsels={}",
            self.rows_out, self.rows_in, self.morsels
        );
        if self.peak_hash_entries > 0 {
            let _ = write!(out, " peak_hash={}", self.peak_hash_entries);
        }
        out.push_str(")\n");
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(label: &str, rows_out: u64) -> OpMetrics {
        OpMetrics {
            label: label.to_string(),
            rows_in: rows_out,
            rows_out,
            est_rows: None,
            morsels: 1,
            peak_hash_entries: 0,
            wall_ns: 0,
            cost: CostTracker::new(),
            children: vec![],
        }
    }

    fn sample_tree() -> OpMetrics {
        let mut cost = CostTracker::new();
        cost.charge_cpu_ops(10);
        cost.charge_hash_builds(4);
        OpMetrics {
            label: "HashJoin a = b".to_string(),
            rows_in: 7,
            rows_out: 3,
            est_rows: None,
            morsels: 2,
            peak_hash_entries: 4,
            wall_ns: 123,
            cost,
            children: vec![leaf("SeqScan t", 4), leaf("SeqScan u", 3)],
        }
    }

    #[test]
    fn equality_ignores_wall_time() {
        let a = sample_tree();
        let mut b = sample_tree();
        b.wall_ns = 999_999;
        b.children[0].wall_ns = 42;
        assert_eq!(a, b);
        b.children[0].rows_out = 5;
        assert_ne!(a, b);
    }

    #[test]
    fn annotate_walks_preorder() {
        let mut m = sample_tree();
        m.annotate(&[Some(2.5), None, Some(8.0)]);
        assert_eq!(m.est_rows, Some(2.5));
        assert_eq!(m.children[0].est_rows, None);
        assert_eq!(m.children[1].est_rows, Some(8.0));
        let order: Vec<&str> = m.preorder().iter().map(|n| n.label.as_str()).collect();
        assert_eq!(order, vec!["HashJoin a = b", "SeqScan t", "SeqScan u"]);
    }

    #[test]
    fn q_error_clamps_and_is_symmetric() {
        let mut m = leaf("SeqScan t", 10);
        assert_eq!(m.q_error(), None);
        m.est_rows = Some(40.0);
        assert!((m.q_error().unwrap() - 4.0).abs() < 1e-12);
        m.est_rows = Some(2.5);
        assert!((m.q_error().unwrap() - 4.0).abs() < 1e-12);
        // Empty actuals clamp to 1 rather than dividing by zero.
        m.rows_out = 0;
        m.est_rows = Some(0.0);
        assert!((m.q_error().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_cost_subtracts_children() {
        let mut m = sample_tree();
        let mut child_cost = CostTracker::new();
        child_cost.charge_cpu_ops(3);
        m.children[0].cost = child_cost;
        let own = m.self_cost();
        assert_eq!(own.cpu_ops, 7);
        assert_eq!(own.hash_builds, 4);
    }

    #[test]
    fn render_is_wall_time_free_and_indented() {
        let mut m = sample_tree();
        m.annotate(&[Some(3.0), Some(4.0), Some(6.0)]);
        let text = m.render();
        let expected = "HashJoin a = b\n  (est_rows=3.0 actual_rows=3 q_error=1.00 rows_in=7 morsels=2 peak_hash=4)\n  SeqScan t\n    (est_rows=4.0 actual_rows=4 q_error=1.00 rows_in=4 morsels=1)\n  SeqScan u\n    (est_rows=6.0 actual_rows=3 q_error=2.00 rows_in=3 morsels=1)\n";
        assert_eq!(text, expected);
        let mut later = m.clone();
        later.wall_ns = 77;
        assert_eq!(later.render(), text);
    }
}
