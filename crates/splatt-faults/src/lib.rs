//! Deterministic fault injection and recovery bookkeeping for splatt-rs.
//!
//! The paper's CP-ALS stack assumes every sort, MTTKRP, and solve
//! succeeds. A long run cannot: tasks straggle, accumulators take bit
//! flips, and degenerate inputs make the normal equations indefinite;
//! the store's disk fails on its own. This crate supplies the two halves
//! such a system needs:
//!
//! * **Causing failures** — [`FaultPlan`]: a seed-driven, *stateless*
//!   fault schedule. Every decision is a pure hash of
//!   `(seed, kind, iteration, unit)`, so plans replay identically across
//!   runs and across checkpoint/restart boundaries. Sites are one-shot
//!   (transient-fault model), which is what makes rollback recovery
//!   converge. [`IoFaultPlan`] does the same for the store's I/O.
//! * **Recording recovery** — [`RecoveryAction`] / [`FaultRecord`] are
//!   the typed audit trail that flows into `splatt-probe`'s JSON report.
//!   The bounds themselves live with the code that recovers (the CP-ALS
//!   driver's ridge and rollback caps).
//!
//! The solver (`splatt-core`) and the store consume these types; this
//! crate depends only on `splatt-rt`-level facilities and the standard
//! library, so it sits at the bottom of the workspace graph next to the
//! RNG it mirrors.

mod io;
mod plan;
mod recovery;

pub use io::{IoFault, IoFaultPlan, IoFaultRates};
pub use plan::{FaultKind, FaultPlan, FaultRates, FaultRecord};
pub use recovery::RecoveryAction;
