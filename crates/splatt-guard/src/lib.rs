//! Run governance for long CP-ALS runs: the layer that decides when a
//! run is no longer worth continuing and turns that decision into a
//! typed, resumable abort instead of a hang or an OOM kill.
//!
//! Four primitives compose into one handle:
//!
//! - [`CancelToken`] — hierarchical cooperative cancellation, one
//!   relaxed atomic load per check on the hot path.
//! - [`Deadline`] — a wall-clock budget with `Deadline::clamp` so
//!   recovery sleeps can never sleep past the run.
//! - [`MemoryBudget`] — a cap on *allocation traffic* (row copies,
//!   descriptor allocations, privatized replicas) measured through
//!   `splatt-probe`'s process-global counters. The counters are
//!   monotonic, so this bounds cumulative traffic since the budget was
//!   armed, not live heap occupancy.
//! - `Watchdog` — a sampling thread over per-lane `Heartbeats` that
//!   reports tasks which stay busy without beating for longer than a
//!   stall bound, and can optionally trip the cancel token.
//!
//! One more primitive serves the request path rather than batch runs:
//! [`AdmissionGate`] caps a server's in-flight depth and sheds the
//! excess with a typed [`Overloaded`] rejection.
//!
//! [`RunGuard`] bundles the first four behind two entry points: a cheap,
//! infallible [`RunGuard::poll`] for kernel workers (beat + one load)
//! and a full [`RunGuard::check`] for the driver, which evaluates the
//! deadline and budget and converts the first violation into a sticky
//! [`TripReason`].

mod admission;
mod budget;
mod cancel;
mod deadline;
mod guard;
mod watchdog;

pub use admission::{AdmissionGate, Overloaded, OwnedAdmissionPermit};
pub use budget::MemoryBudget;
pub use cancel::CancelToken;
pub use deadline::Deadline;
pub use guard::{GuardConfig, LaneSpan, RunGuard, TripReason};
pub use watchdog::{StallReport, WatchdogConfig};

/// Process-global alloc counters are shared by tests in this crate;
/// tests that record or baseline traffic hold this to avoid seeing
/// each other's bytes.
#[cfg(test)]
pub(crate) static ALLOC_TEST_SERIAL: splatt_rt::sync::Mutex<()> = splatt_rt::sync::Mutex::new(());
