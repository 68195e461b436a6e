//! Observability layer for the splatt workspace.
//!
//! The paper's whole argument (Table III, Figures 2–8) is built on
//! *measurements*: per-routine timers, lock-pool behaviour on YELP vs
//! NELL-2, and the 18x slice-copy overhead of the row-copy access path.
//! This crate supplies the counters behind those measurements — and
//! declares, once each, the counters of every subsystem built around
//! them (`counters.rs`: one `counter_set!` list per set generates the
//! atomics, the snapshot row and the field table the report walks):
//!
//! - [`LockCounters`] — acquisitions / contended acquisitions / failed
//!   CAS-spin iterations / accumulated wait time for a lock pool.
//!   Attached to `splatt_locks::LockPool` behind an `Option<Arc<_>>`, so
//!   the un-instrumented path pays a single branch.
//! - [`TaskTimes`] — per-thread busy-time/invocation/item histograms,
//!   recorded by `TaskTeam::coforall_timed`, making MTTKRP load imbalance
//!   (the privatize-vs-lock tradeoff) directly visible.
//! - [`alloc`] — process-global allocation counters for the `RowCopy`
//!   access variant (slice descriptors + row copies, the Chapel slice
//!   story) and privatization-reduction byte counts. Gated by one relaxed
//!   atomic load when disabled. Also the heap-side hook for tests:
//!   [`alloc::CountingAlloc`], a per-thread count of bytes requested
//!   from the system allocator, which no product binary installs.
//! - [`SpanNode`] / [`ProfileReport`] — a hierarchical span tree
//!   (CPD total → iteration → mode → kernel) plus the flat per-routine
//!   table, rendered in the paper's Table III layout or serialized as
//!   schema-stable JSON ([`ProfileReport::to_json`]).
//! - [`json`] — a minimal JSON parser used by tests to validate profile
//!   output without external dependencies.

pub mod alloc;
mod counters;
pub mod json;
mod locks;
mod report;
mod span;
mod tasks;

/// The crate's own tests run on the counting allocator they test.
#[cfg(test)]
#[global_allocator]
static HEAP: alloc::CountingAlloc = alloc::CountingAlloc;

pub use counters::{
    AllocStats, Field, GuardCounters, GuardRow, LockCounters, LockStats, NetCounters, NetSnapshot,
    QueryKindRow, RefreshRow, ServeCounters, ServeRow, StoreAtomics, StoreCounters,
};
pub use report::{render_counters, FaultRow, ProfileReport, RoutineRow, PROFILE_SCHEMA};
pub use span::SpanNode;
pub use tasks::{TaskTimes, ThreadLoad, ThreadLoadRow};

use std::sync::Arc;

/// Bundle of probes for one instrumented CP-ALS / MTTKRP run.
#[derive(Debug)]
pub struct MttkrpProbe {
    /// Per-thread busy time across kernel invocations.
    pub tasks: TaskTimes,
    /// Lock-pool contention counters (shared with the pool).
    pub locks: Arc<LockCounters>,
}

impl MttkrpProbe {
    pub fn new(ntasks: usize) -> Self {
        MttkrpProbe {
            tasks: TaskTimes::new(ntasks),
            locks: Arc::new(LockCounters::new()),
        }
    }
}
