//! Morsel-driven parallel scheduling.
//!
//! Leaf operators and pipeline stages split their input into fixed-size
//! **morsels** (contiguous index ranges) that worker threads pull from a
//! shared counter — the scheduling scheme of Leis et al., "Morsel-Driven
//! Parallelism" (SIGMOD 2014), reduced to this executor's
//! materialize-everything model.
//!
//! Determinism is the design constraint, not an afterthought: every
//! operator in this crate that splits its input does so through this
//! module, producing morsel-local results that the coordinator recombines
//! **in morsel index order**.  There is no separate serial code path.
//! Because morsel boundaries depend only on [`ExecOptions::morsel_size`]
//! (never on the thread count, the scheduler, or timing), the recombined
//! rows and the merged [`rqo_storage::CostTracker`] totals are
//! bit-identical across thread counts and across schedulers — the
//! property the `parallel_equivalence` differential suite pins down.
//!
//! Three scheduling modes share one entry point, `run_morsels`:
//!
//! * **Inline** (`threads <= 1`, no scheduler): the calling thread runs
//!   every morsel, polling the [`QueryToken`] between morsels.
//! * **Scoped** (`threads > 1`, no scheduler): per-query scoped workers
//!   pull from an atomic counter, polling the token before each claim.
//! * **Pooled** (an external [`MorselScheduler`] is attached): morsels are
//!   handed to a shared, long-lived worker pool that interleaves them
//!   with other queries' morsels.  This is how the multi-session service
//!   runs many queries on one fixed set of threads.
//!
//! In every mode a fired token stops the job **within one morsel**: no new
//! morsel is started after the poll observes the stop, and `run_morsels`
//! returns `None` so the operator tree unwinds without fabricating a
//! partial result.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use rqo_core::QueryToken;
pub use rqo_core::StopReason;

/// Default number of rows per morsel.
///
/// Large enough that per-morsel overhead (a hash-map allocation, an atomic
/// increment) is amortized over thousands of rows, small enough that
/// a scan of a bench-scale table still yields tens of morsels to balance.
pub const DEFAULT_MORSEL_SIZE: usize = 4096;

/// An external morsel scheduler — typically the shared worker pool of the
/// multi-session query service.
///
/// The executor calls [`run_job`](Self::run_job) once per parallel
/// operator stage; the scheduler runs `run_one(i)` exactly once for every
/// morsel index `i < n_morsels` (on any threads, in any order, with any
/// interleaving against other queries) and returns `true`, **or** stops
/// early because the token fired and returns `false`, guaranteeing that
/// no invocation of `run_one` is still running or will start after the
/// call returns.
pub trait MorselScheduler: Send + Sync {
    /// Runs one job of `n_morsels` morsels to completion (`true`) or
    /// until the token fires (`false`).
    fn run_job(
        &self,
        token: Option<&QueryToken>,
        n_morsels: usize,
        run_one: &(dyn Fn(usize) + Send + Sync),
    ) -> bool;
}

/// Execution knobs threaded through [`crate::execute_with`].
///
/// Every operator runs through the same morsel path whatever these
/// options say; they choose only *who* runs the morsels.  The default
/// (`threads = 1`, no scheduler, no token) runs them inline on the
/// calling thread, which is what [`crate::execute`] does.  Rows, cost
/// bits and operator metrics depend on the morsel size alone, so they
/// are identical for every thread count, scheduler and token.
#[derive(Clone)]
pub struct ExecOptions {
    /// Worker threads for scoped execution.  `0` and `1` both mean the
    /// calling thread runs every morsel (unless a
    /// [`scheduler`](Self::scheduler) is attached).
    pub threads: usize,
    /// Rows per morsel (clamped to at least 1).  Affects only how work is
    /// chunked; results and costs are identical for every value.
    pub morsel_size: usize,
    /// Cooperative cancellation/deadline token, polled at operator entry
    /// and at every morsel boundary.
    pub token: Option<QueryToken>,
    /// External morsel scheduler (the service's shared worker pool).
    /// When present it replaces per-query `thread::scope` entirely.
    pub scheduler: Option<Arc<dyn MorselScheduler>>,
}

impl std::fmt::Debug for ExecOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecOptions")
            .field("threads", &self.threads)
            .field("morsel_size", &self.morsel_size)
            .field("token", &self.token.is_some())
            .field("scheduler", &self.scheduler.is_some())
            .finish()
    }
}

impl PartialEq for ExecOptions {
    fn eq(&self, other: &Self) -> bool {
        let tokens_match = match (&self.token, &other.token) {
            (None, None) => true,
            (Some(a), Some(b)) => a.same_token(b),
            _ => false,
        };
        let schedulers_match = match (&self.scheduler, &other.scheduler) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        self.threads == other.threads
            && self.morsel_size == other.morsel_size
            && tokens_match
            && schedulers_match
    }
}

impl Eq for ExecOptions {}

impl Default for ExecOptions {
    fn default() -> Self {
        Self {
            threads: 1,
            morsel_size: DEFAULT_MORSEL_SIZE,
            token: None,
            scheduler: None,
        }
    }
}

impl ExecOptions {
    /// Inline execution on the calling thread (the default).
    pub fn serial() -> Self {
        Self::default()
    }

    /// Parallel execution on `threads` scoped workers with the default
    /// morsel size.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }

    /// Overrides the morsel size.
    pub fn with_morsel_size(mut self, morsel_size: usize) -> Self {
        self.morsel_size = morsel_size;
        self
    }

    /// Attaches a cancellation/deadline token.
    pub fn with_token(mut self, token: QueryToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Attaches an external morsel scheduler (shared worker pool).
    pub fn with_scheduler(mut self, scheduler: Arc<dyn MorselScheduler>) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Polls the token (if any): `Some(reason)` means the query must stop.
    pub fn check_stop(&self) -> Option<StopReason> {
        self.token.as_ref().and_then(QueryToken::poll)
    }

    /// The stop reason of an already-fired token, without consuming a
    /// poll-countdown tick (used to label an interruption after the
    /// fact).
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.token.as_ref().and_then(QueryToken::stop_reason)
    }

    /// Number of morsels an input of `n` rows splits into under these
    /// options.  Every operator splits its input with this arithmetic, so
    /// the count depends only on sizes, never on the thread count or
    /// scheduling.
    pub fn morsel_count(&self, n: usize) -> u64 {
        n.div_ceil(self.morsel_size.max(1)) as u64
    }
}

/// Splits `0..n` into morsels and applies `work` to each, returning the
/// per-morsel results **in morsel index order** — or `None` if the
/// query's token fired before every morsel ran (the job stops within one
/// morsel of the poll observing the stop).
///
/// `work` must be pure with respect to ordering: it may read shared state
/// but sees no information about which worker runs it or when.
pub(crate) fn run_morsels<T, F>(opts: &ExecOptions, n: usize, work: F) -> Option<Vec<T>>
where
    T: Send + Sync,
    F: Fn(Range<usize>) -> T + Sync,
{
    let size = opts.morsel_size.max(1);
    let n_morsels = n.div_ceil(size);
    let bounds = |i: usize| i * size..((i + 1) * size).min(n);

    // Pooled: hand the whole job to the shared scheduler.  Result slots
    // are write-once cells filled by whichever pool thread runs each
    // morsel; `run_job` returning guarantees no `run_one` is in flight.
    if let Some(scheduler) = &opts.scheduler {
        if n_morsels == 0 {
            return Some(Vec::new());
        }
        let slots: Vec<OnceLock<T>> = (0..n_morsels).map(|_| OnceLock::new()).collect();
        let run_one = |i: usize| {
            let _ = slots[i].set(work(bounds(i)));
        };
        if !scheduler.run_job(opts.token.as_ref(), n_morsels, &run_one) {
            return None;
        }
        return Some(
            slots
                .into_iter()
                .map(|s| {
                    s.into_inner()
                        .expect("scheduler ran every morsel exactly once")
                })
                .collect(),
        );
    }

    // Inline: the calling thread runs every morsel, polling between them.
    let workers = opts.threads.min(n_morsels);
    if workers <= 1 {
        let mut out = Vec::with_capacity(n_morsels);
        for i in 0..n_morsels {
            if opts.check_stop().is_some() {
                return None;
            }
            out.push(work(bounds(i)));
        }
        return Some(out);
    }

    // Scoped: per-query workers claim from an atomic counter, polling the
    // token before each claim.  A fired token flips the sticky `stopped`
    // flag so every worker quits at its next claim.
    let next = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    let slots: Vec<OnceLock<T>> = (0..n_morsels).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if let Some(token) = &opts.token {
                    if token.poll().is_some() {
                        stopped.store(true, Ordering::SeqCst);
                    }
                }
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_morsels {
                    break;
                }
                let _ = slots[i].set(work(bounds(i)));
            });
        }
    });
    if stopped.load(Ordering::SeqCst) {
        return None;
    }
    Some(
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("every morsel index was claimed exactly once")
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(threads: usize, morsel_size: usize) -> ExecOptions {
        ExecOptions {
            threads,
            morsel_size,
            ..ExecOptions::serial()
        }
    }

    #[test]
    fn defaults_are_serial() {
        let o = ExecOptions::default();
        assert_eq!(o.threads, 1);
        assert!(o.token.is_none() && o.scheduler.is_none());
        assert_eq!(ExecOptions::serial(), ExecOptions::default());
        assert_eq!(
            ExecOptions::with_threads(4).with_morsel_size(7).morsel_size,
            7
        );
    }

    #[test]
    fn covers_every_index_in_order() {
        for threads in [1, 2, 8] {
            for size in [1, 3, 10, 100] {
                let ranges = run_morsels(&opts(threads, size), 23, |r| r).unwrap();
                let flat: Vec<usize> = ranges.into_iter().flatten().collect();
                assert_eq!(flat, (0..23).collect::<Vec<_>>(), "t={threads} s={size}");
            }
        }
    }

    #[test]
    fn empty_input_yields_no_morsels() {
        let parts = run_morsels(&opts(8, 4), 0, |r| r.len()).unwrap();
        assert!(parts.is_empty());
    }

    #[test]
    fn results_independent_of_thread_count() {
        let serial = run_morsels(&opts(1, 5), 57, |r| r.sum::<usize>()).unwrap();
        for threads in [2, 3, 8, 16] {
            let par = run_morsels(&opts(threads, 5), 57, |r| r.sum::<usize>()).unwrap();
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn zero_morsel_size_is_clamped() {
        let parts = run_morsels(&opts(2, 0), 3, |r| r.len()).unwrap();
        assert_eq!(parts, vec![1, 1, 1]);
    }

    #[test]
    fn morsel_count_matches_run_morsels() {
        for (threads, size, n) in [(1, 5, 57), (8, 5, 57), (2, 0, 3), (4, 10, 0), (1, 7, 7)] {
            let o = opts(threads, size);
            let parts = run_morsels(&o, n, |r| r.len()).unwrap();
            assert_eq!(o.morsel_count(n), parts.len() as u64, "size={size} n={n}");
        }
    }

    #[test]
    fn fired_token_stops_inline_within_one_morsel() {
        let ran = AtomicUsize::new(0);
        let o = opts(1, 1).with_token(QueryToken::cancel_after_polls(3));
        let result = run_morsels(&o, 10, |_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert!(result.is_none());
        assert_eq!(
            ran.load(Ordering::SeqCst),
            3,
            "exactly k morsels before stop"
        );
    }

    #[test]
    fn fired_token_stops_scoped_workers() {
        let ran = AtomicUsize::new(0);
        let token = QueryToken::new();
        token.cancel();
        let o = opts(4, 1).with_token(token);
        let result = run_morsels(&o, 100, |_| {
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert!(result.is_none());
        assert_eq!(ran.load(Ordering::SeqCst), 0, "pre-cancelled runs nothing");
    }

    #[test]
    fn unfired_token_changes_nothing() {
        let o = opts(4, 5).with_token(QueryToken::new());
        let plain = run_morsels(&opts(4, 5), 57, |r| r.sum::<usize>()).unwrap();
        let tokened = run_morsels(&o, 57, |r| r.sum::<usize>()).unwrap();
        assert_eq!(plain, tokened);
    }

    #[test]
    fn exec_options_equality_is_token_identity() {
        let token = QueryToken::new();
        let a = ExecOptions::serial().with_token(token.clone());
        let b = ExecOptions::serial().with_token(token);
        let c = ExecOptions::serial().with_token(QueryToken::new());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, ExecOptions::serial());
    }
}
