//! Parallel sparse tensor decomposition over compressed sparse fibers.
//!
//! This crate is the Rust counterpart of **SPLATT**'s shared-memory CP-ALS
//! path (Smith & Karypis) and simultaneously of the **Chapel port** studied
//! by Rolinger, Simon & Krieger ("Parallel Sparse Tensor Decomposition in
//! Chapel", IPDPSW 2018). Both implementations in that paper — the C
//! reference and the Chapel port in its initial and optimized states — are
//! reproduced here as configurations of one code base:
//!
//! * [`Csf`] / [`CsfSet`] — the compressed-sparse-fiber tensor format and
//!   SPLATT's one/two/all-mode representation allocation policies.
//! * [`mttkrp`] — the matricized-tensor-times-Khatri-Rao-product kernels
//!   (root / internal / leaf), parameterized by the paper's
//!   matrix-row-access strategies ([`MatrixAccess`]) and mutex-pool lock
//!   strategies, with SPLATT's privatization-vs-locks heuristic.
//! * [`cp_als`] — the full CP-ALS driver (Algorithm 1 of the paper):
//!   MTTKRP, Gram matrices, normal-equation solves, column normalization,
//!   λ bookkeeping and fit computation, with the per-routine timers behind
//!   the paper's Table III. [`try_cp_als`] is the same driver, fallible,
//!   on the team, fault plan and governance a [`CpalsRun`] names; there
//!   is no third entry point.
//! * [`Implementation`] — presets bundling the knobs into the three
//!   configurations the paper measures (`Reference` ≙ C/OpenMP,
//!   `PortedInitial` ≙ unoptimized Chapel, `PortedOptimized` ≙ tuned
//!   Chapel).
//! * [`dense`], [`locks`], [`faults`] — the substrates only this crate
//!   uses, as modules of it, the way SPLATT is one library.
//!
//! # Quick start
//!
//! ```
//! use splatt_core::{cp_als, CpalsOptions};
//! use splatt_tensor::synth;
//!
//! let (tensor, _truth) = synth::planted_dense(&[15, 12, 10], 4, 0.0, 42);
//! let opts = CpalsOptions { rank: 4, max_iters: 30, ..Default::default() };
//! let out = cp_als(&tensor, &opts);
//! assert!(out.fit > 0.95, "planted rank-4 tensor should be recovered");
//! ```

mod ccd;
mod checkpoint;
mod cholesky;
mod completion;
mod cpals;
pub mod csf;
mod diagnostics;
mod eigen;
mod isa;
mod kruskal;
mod matrix;
mod model_file;
#[cfg(test)]
mod mutation;
mod norms;
mod ops;
mod options;
mod plan;
pub mod query;
pub mod refresh;
mod solve;
mod tiling;

pub mod mttkrp;
mod pool;
mod raw;
mod recovery;
pub mod reference;

/// The MTTKRP's mutex pool (SPLATT's `mutex_pool`) and the paper's three
/// lock kinds (Figure 4): `Sleep` parks at once, like a Chapel `sync`
/// variable under Qthreads; `Spin` is Listing 6's test-and-set loop; `Os`
/// (adaptive spin, then park) plays the `fifo` layer's `sync`.
pub mod locks {
    pub use crate::pool::LockPool;
    pub use crate::raw::LockStrategy;
}

/// Dense linear algebra on a row-major `f64` [`Matrix`](dense::Matrix):
/// SPLATT's `syrk`, `potrf`/`potrs` and eigen fallback, written natively,
/// sequential and deterministic — the same bits on any host.
pub mod dense {
    pub use crate::cholesky::{cholesky_factor, cholesky_solve};
    pub use crate::eigen::jacobi_eigen;
    pub use crate::matrix::Matrix;
    pub use crate::norms::{normalize_columns, MatNorm};
    pub use crate::ops::{gemm, hadamard_assign, mat_ata};
    pub use crate::solve::solve_normals;
}

/// The seed-driven CP-ALS fault plan: every decision is a pure hash of
/// `(seed, kind, iteration, unit)` and every site fires once, so a plan
/// replays across runs and restarts. [`FaultRecord`](faults::FaultRecord)
/// is the audit trail the profile report carries. The store's disk faults
/// are `splatt_store::IoFaultPlan`.
pub mod faults {
    pub use crate::plan::{FaultKind, FaultPlan, FaultRates, FaultRecord};
    pub use crate::recovery::RecoveryAction;
}

/// The bit patterns of a matrix: what the differential tests compare, so
/// that the sign of zero and NaN count (`==` on `f64` calls `-0.0` equal
/// to `+0.0`).
#[cfg(test)]
fn bits(m: &dense::Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The unit tests count their heap requests: the mutation test asserts
/// an allocation bound per decoded model file.
#[cfg(test)]
#[global_allocator]
static HEAP: splatt_probe::alloc::CountingAlloc = splatt_probe::alloc::CountingAlloc;

pub use ccd::{tensor_complete_ccd, CcdOptions};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use completion::{rmse_observed, tensor_complete, CompletionOptions, CompletionOutput};
pub use cpals::{cp_als, try_cp_als, CpalsError, CpalsOutput, CpalsRun, Governance, RunAborted};
pub use csf::{Csf, CsfAlloc, CsfSet, KernelKind};
pub use diagnostics::corcondia;
pub use kruskal::KruskalModel;
pub use model_file::{load_model_path, save_model, save_model_path};
pub use mttkrp::{MatrixAccess, MttkrpConfig, MttkrpWorkspace};
pub use options::{Constraint, CpalsOptions, Implementation};
pub use refresh::{RefreshEngine, RefreshError, RefreshOptions, RefreshOutcome};
pub use tiling::TiledCsf;
