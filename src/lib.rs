//! # splatt-rs — parallel sparse tensor decomposition
//!
//! A from-scratch Rust implementation of shared-memory sparse CP-ALS over
//! compressed sparse fibers, reproducing both systems studied in
//! *"Parallel Sparse Tensor Decomposition in Chapel"* (Rolinger, Simon &
//! Krieger, IPDPSW 2018): **SPLATT** (the C/OpenMP reference) and the
//! paper's **Chapel port** in its initial and optimized states — all as
//! configurations of one code base.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`mod@core`] | CSF format, MTTKRP kernels, CP-ALS driver |
//! | [`tensor`] | COO tensors, `.tns` I/O, synthetic data sets, sorting |
//! | [`dense`] | matrices, SYRK, Cholesky, eigen, normal-equation solves |
//! | [`par`] | task teams (`coforall`), partitioning, scratch, timers |
//! | [`locks`] | mutex pools: spin / sleeping / OS-adaptive |
//! | [`probe`] | lock/thread/allocation profiling, `ProfileReport` |
//! | [`faults`] | seeded fault injection (`FaultPlan`), the recovery audit trail |
//! | [`mod@guard`] | run governance: cancellation, deadlines, budgets, watchdog |
//! | [`mod@serve`] | model registry, query engine, TCP serving front end |
//! | [`mod@store`] | checksummed WAL, atomic artifact publish, crash recovery |
//! | [`rt`] | sync primitives, seeded RNG, parallel helpers, qc harness |
//!
//! The most common entry points are also re-exported at the top level.
//!
//! ```
//! use splatt::{cp_als, CpalsOptions};
//!
//! // a small, exactly rank-3 tensor with known factors
//! let (tensor, _truth) = splatt::tensor::synth::planted_dense(&[15, 12, 10], 3, 0.0, 1);
//! let opts = CpalsOptions { rank: 3, max_iters: 30, ntasks: 2, ..Default::default() };
//! let out = cp_als(&tensor, &opts);
//! assert!(out.fit > 0.95);
//! ```

/// The decomposition core: CSF, MTTKRP, CP-ALS.
pub mod core {
    pub use splatt_core::*;
}

/// Sparse tensor storage, I/O, synthesis, and sorting.
pub mod tensor {
    pub use splatt_tensor::*;
}

/// Dense linear algebra substrate.
pub mod dense {
    pub use splatt_dense::*;
}

/// Tasking substrate: teams, partitioning, scratch buffers, timers.
pub mod par {
    pub use splatt_par::*;
}

/// Lock pools and strategies.
pub mod locks {
    pub use splatt_locks::*;
}

/// Multi-locale bill: process grid, tensor distribution, and the
/// medium-grained algorithm's closed-form communication volume.
pub mod dist {
    pub use splatt_dist::*;
}

/// Deterministic fault injection and the typed record of each recovery.
pub mod faults {
    pub use splatt_faults::*;
}

/// Observability: lock-contention counters, per-thread load, allocation
/// accounting, and the hierarchical profile report.
pub mod probe {
    pub use splatt_probe::*;
}

/// Runtime substrate: sync primitives, seeded RNG, parallel helpers, and
/// the deterministic property-test harness.
pub mod rt {
    pub use splatt_rt::*;
}

/// Run governance: cooperative cancellation, deadlines, memory budgets,
/// and the stall watchdog ([`RunGuard`] and friends).
pub mod guard {
    pub use splatt_guard::*;
}

/// The std-only multiplexed I/O substrate: readiness-polled reactor,
/// bounded worker pool, frame state machines, and the timer wheel the
/// serving front end runs on.
pub mod net {
    pub use splatt_net::*;
}

/// Factor-model serving: registry, batched query engine, TCP front end.
pub mod serve {
    pub use splatt_serve::*;
}

/// Crash-safe persistence: checksummed frames, the nnz-delta WAL,
/// atomic artifact publish, and the versioned store manifest.
pub mod store {
    pub use splatt_store::*;
}

pub use splatt_core::{
    corcondia, cp_als, tensor_complete, tensor_complete_ccd, try_cp_als, CcdOptions, Checkpoint,
    CheckpointError, CompletionOptions, CompletionOutput, Constraint, CpalsError, CpalsOptions,
    CpalsOutput, CpalsRun, Csf, CsfAlloc, CsfSet, Governance, Implementation, KruskalModel,
    MatrixAccess, RefreshEngine, RefreshError, RefreshOptions, RefreshOutcome, RunAborted,
};
pub use splatt_dense::Matrix;
pub use splatt_faults::{FaultKind, FaultPlan, FaultRates, RecoveryAction};
pub use splatt_guard::{
    CancelToken, Deadline, GuardConfig, MemoryBudget, RunGuard, TripReason, WatchdogConfig,
};
pub use splatt_locks::LockStrategy;
pub use splatt_serve::{ServeConfig, ServeEngine, ServeError};
pub use splatt_tensor::{SortVariant, SparseTensor};
