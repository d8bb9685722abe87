//! Physical query execution over the simulated storage substrate.
//!
//! The paper measured real executions on a commercial DBMS; this crate is
//! the reproduction's executor.  Every operator *actually computes* its
//! result over the in-memory columnar tables while charging its simulated
//! work (sequential pages, random I/Os, CPU operations) to a
//! [`rqo_storage::CostTracker`], so "execution time" is deterministic,
//! noise-free, and faithful to the access-pattern asymmetries that create
//! the paper's plan crossovers:
//!
//! * a **sequential scan** pays one sequential page read per page,
//!   regardless of selectivity;
//! * an **index intersection** pays cheap index-leaf scans plus one random
//!   I/O per qualifying row fetched — catastrophic at high selectivity,
//!   unbeatable at low selectivity (Figure 1's Plan 1 / Plan 2);
//! * **indexed nested loops**, **hash**, and **merge** joins reproduce the
//!   three plan regimes of Experiment 2, and the **star semijoin**
//!   strategy the index-driven plan of Experiment 3.
//!
//! Operators materialize their results ([`Batch`]), which keeps the
//! executor simple and deterministic; the experiments run at scale factors
//! where full materialization is comfortably in-memory.
//!
//! # Parallel execution
//!
//! Every operator has one implementation.  Scans, RID fetches, hash-join
//! build/probe, hash aggregation, filters, projections and indexed
//! nested-loop joins all split their input into morsels (see [`morsel`]);
//! [`ExecOptions`] decides only who runs the morsels — the calling thread
//! (the default, and what [`execute`] does), a pool of scoped worker
//! threads (`threads > 1`), or an external scheduler.  Morsel boundaries
//! depend on the morsel size alone and partial results merge in morsel
//! index order, so rows, simulated costs and float aggregates are
//! bit-identical for every thread count and scheduler — parallelism
//! changes wall-clock time, never answers or charged cost.
//!
//! # Cooperative cancellation
//!
//! An [`ExecOptions`] can carry a [`rqo_core::QueryToken`]; the executor
//! polls it at every operator entry and every morsel boundary, so a
//! cancelled or past-deadline query stops within one morsel of work.
//! [`try_execute_with`] / [`try_execute_analyze`] surface the stop as an
//! `Err(StopReason)` instead of panicking.  A token that never fires
//! changes nothing: the same morsels run in the same order as without
//! one.

#![warn(missing_docs)]

pub mod adaptive;
pub mod agg;
pub mod batch;
pub mod columnar;
pub mod executor;
pub mod join;
pub mod kernels;
pub mod metrics;
pub mod morsel;
pub mod plan;
pub mod scan;

pub use adaptive::{execute_guarded, guard_points, q_error, ExecStatus, GuardTrip, RowGuard};
pub use batch::Batch;
pub use columnar::{column_refs, columnarize, gather_rows, SelVec};
pub use executor::{execute, execute_analyze, execute_with, try_execute_analyze, try_execute_with};
pub use metrics::OpMetrics;
pub use morsel::{ExecOptions, MorselScheduler, StopReason};
pub use plan::{AggExpr, AggFunc, IndexRange, PhysicalPlan, PreorderNode, SemiJoinLeg};
pub use scan::surviving_spans;
