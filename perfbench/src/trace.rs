//! Outside-in tracing: spans recorded by the benchmark around its own
//! calls into each layer's public functions, kept in memory until the run
//! ends, and the probes that let it see inside a layer without changing
//! the layer.
//!
//! A traced request is a root span whose children are the calls made for
//! it.  The real request runs at the workload's own level (a `Session` or
//! a `NetClient`); the levels it passes through are then replayed one by
//! one — `NetClient::run`, `Session::run`, `Engine::run_opts` — and the
//! layers under the engine are probed before it (`PlanCache` lookup,
//! `Optimizer::optimize_with`, `try_execute_analyze`).  Each replay is
//! recorded as the child of the level above it, so a span's self time —
//! its duration minus its children's — is the time that level adds.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rqo_core::{
    CardinalityEstimator, ConfidenceThreshold, EstimationRequest, EstimatorConfig, RobustEstimator,
    SelectivityEstimate,
};
use rqo_exec::OpMetrics;
use rqo_optimizer::{Optimizer, PlannedQuery, Query};
use rqo_service::Engine;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request the call was made for.
    pub req: u64,
    /// Unique within its [`Log`]; 0 is never used.
    pub id: u32,
    /// The span of the call above it (0 for a request's root).
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One client thread's spans and per-request samples.
pub struct Log {
    origin: Instant,
    client: u64,
    next_req: u64,
    pub spans: Vec<Span>,
    /// Per-request values that are not durations (counts, per-operator
    /// self times read from `OpMetrics`).
    pub samples: Vec<(&'static str, f64)>,
}

impl Log {
    pub fn new(origin: Instant, client: usize) -> Log {
        Log {
            origin,
            client: client as u64,
            next_req: 0,
            spans: Vec::new(),
            samples: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh request id, unique across clients.
    pub fn request(&mut self) -> u64 {
        self.next_req += 1;
        (self.client << 40) | self.next_req
    }

    pub fn open(&mut self, req: u64, parent: u32, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Times `f` as a span; returns its result and the span id.
    pub fn time<T>(
        &mut self,
        req: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let id = self.open(req, parent, name);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Re-parents a span once the call it belongs under has been made.
    pub fn set_parent(&mut self, id: u32, parent: u32) {
        self.spans[id as usize - 1].parent = parent;
    }

    pub fn dur_us(&self, id: u32) -> f64 {
        self.spans[id as usize - 1].dur_ns() as f64 / 1e3
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.push((name, value));
    }
}

/// Durations, self times and samples of a whole traced phase, by name.
#[derive(Default)]
pub struct Summary {
    pub dur_us: HashMap<&'static str, Vec<f64>>,
    pub self_us: HashMap<&'static str, Vec<f64>>,
    pub samples: HashMap<&'static str, Vec<f64>>,
    /// Self time summed by name over the subtrees of the real requests'
    /// spans (see [`Summary::add`]), and the number of such requests.
    pub path_us: HashMap<&'static str, f64>,
    pub path_requests: usize,
    pub spans: usize,
}

impl Summary {
    /// Adds one log.  `real` names the span of the workload's real
    /// request; the self times of that span and of every call recorded
    /// under it are summed into `path_us`, which splits the request's
    /// latency by layer.
    pub fn add(&mut self, log: &Log, real: &str) {
        let n = log.spans.len();
        let mut child_ns = vec![0u64; n + 1];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        for (i, s) in log.spans.iter().enumerate() {
            child_ns[s.parent as usize] += s.dur_ns();
            children[s.parent as usize].push(i);
        }
        let self_ns = |i: usize| {
            let s = &log.spans[i];
            s.dur_ns() as f64 - child_ns[s.id as usize] as f64
        };
        for (i, s) in log.spans.iter().enumerate() {
            self.dur_us
                .entry(s.name)
                .or_default()
                .push(s.dur_ns() as f64 / 1e3);
            self.self_us
                .entry(s.name)
                .or_default()
                .push(self_ns(i) / 1e3);
            if s.name == real {
                self.path_requests += 1;
                let mut stack = vec![i];
                while let Some(j) = stack.pop() {
                    *self.path_us.entry(log.spans[j].name).or_default() += self_ns(j) / 1e3;
                    stack.extend(&children[log.spans[j].id as usize]);
                }
            }
        }
        for &(name, v) in &log.samples {
            self.samples.entry(name).or_default().push(v);
        }
        self.spans += n;
    }

    /// The real request's mean latency split by layer, largest first:
    /// `(span name, mean self time in µs, share of the latency)`.
    pub fn attribution(&self) -> Vec<(&'static str, f64, f64)> {
        let total: f64 = self.path_us.values().sum();
        let per = self.path_requests.max(1) as f64;
        let mut rows: Vec<_> = self
            .path_us
            .iter()
            .map(|(&name, &us)| (name, us / per, us / total))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }
}

/// Writes every span as a tab-separated line: request, id, parent, name,
/// start and end (ns since the traced phase began).  Span ids are unique
/// within one client's log, so each line also names its client.
pub fn write_tsv(path: &str, logs: &[Log]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "client\treq\tid\tparent\tname\tstart_ns\tend_ns")?;
    for log in logs {
        for s in &log.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                log.client, s.req, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

/// Call counter and clock shared by a [`Counting`] estimator and the
/// variants it hands out for hinted queries.
#[derive(Default)]
pub struct EstimatorCounters {
    calls: AtomicU64,
    nanos: AtomicU64,
}

/// Counts and times every `estimate` call of the estimator it wraps.
struct Counting {
    inner: Box<dyn CardinalityEstimator>,
    counters: Arc<EstimatorCounters>,
}

impl CardinalityEstimator for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn estimate(&self, request: &EstimationRequest<'_>) -> SelectivityEstimate {
        let start = Instant::now();
        let out = self.inner.estimate(request);
        self.counters
            .nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn hinted(&self, threshold: ConfidenceThreshold) -> Option<Box<dyn CardinalityEstimator>> {
        self.inner.hinted(threshold).map(|inner| {
            Box::new(Counting {
                inner,
                counters: Arc::clone(&self.counters),
            }) as Box<dyn CardinalityEstimator>
        })
    }
}

/// An optimizer equal to the engine's own — same catalog snapshot,
/// synopses, threshold and feedback store — whose `RobustEstimator` is
/// wrapped in a counting, timing probe.
fn probe_optimizer(engine: &Engine) -> (Optimizer, Arc<EstimatorCounters>) {
    let counters = Arc::new(EstimatorCounters::default());
    let robust = RobustEstimator::new(
        engine.synopses(),
        EstimatorConfig::with_threshold(engine.threshold()),
    )
    .with_feedback(Arc::clone(engine.feedback()));
    let estimator = Counting {
        inner: Box::new(robust),
        counters: Arc::clone(&counters),
    };
    let optimizer = Optimizer::new(engine.catalog(), *engine.params(), Arc::new(estimator));
    (optimizer, counters)
}

/// Plans `query` with the probe optimizer inside an `optimizer.plan`
/// span and records the estimator's calls and time for that plan.
pub fn probe_plan(
    log: &mut Log,
    req: u64,
    parent: u32,
    engine: &Engine,
    query: &Query,
) -> (PlannedQuery, u32) {
    let (optimizer, counters) = probe_optimizer(engine);
    let (planned, id) = log.time(req, parent, "optimizer.plan", || {
        optimizer.optimize_with(query, engine.selection())
    });
    log.sample(
        "estimator.calls_per_plan",
        counters.calls.load(Ordering::Relaxed) as f64,
    );
    log.sample(
        "estimator.us_per_plan",
        counters.nanos.load(Ordering::Relaxed) as f64 / 1e3,
    );
    (planned, id)
}

/// Operator kinds the executor's self time is reported by.
fn kind(label: &str) -> &'static str {
    let op = label.split_whitespace().next().unwrap_or("");
    match op {
        "IndexSeek" | "IndexIntersection" => "exec.index_us",
        "HashJoin" | "MergeJoin" | "IndexedNlJoin" | "StarSemiJoin" => "exec.join_us",
        "HashAggregate" => "exec.agg_us",
        _ => "exec.scan_us",
    }
}

/// Records one execution's `OpMetrics` tree: self wall time by operator
/// kind, rows consumed, morsels and the largest hash table.
pub fn record_op_metrics(log: &mut Log, root: &OpMetrics) {
    let mut by_kind: [(&'static str, f64); 4] = [
        ("exec.scan_us", 0.0),
        ("exec.index_us", 0.0),
        ("exec.join_us", 0.0),
        ("exec.agg_us", 0.0),
    ];
    let (mut rows_in, mut morsels, mut peak) = (0u64, 0u64, 0u64);
    for node in root.preorder() {
        let children: u128 = node.children.iter().map(|c| c.wall_ns).sum();
        let own = node.wall_ns.saturating_sub(children) as f64 / 1e3;
        let k = kind(&node.label);
        if let Some(slot) = by_kind.iter_mut().find(|(name, _)| *name == k) {
            slot.1 += own;
        }
        rows_in += node.rows_in;
        morsels += node.morsels;
        peak = peak.max(node.peak_hash_entries);
    }
    for (name, v) in by_kind {
        log.sample(name, v);
    }
    log.sample("exec.rows_in", rows_in as f64);
    log.sample("exec.morsels", morsels as f64);
    log.sample("exec.peak_hash_entries", peak as f64);
}
