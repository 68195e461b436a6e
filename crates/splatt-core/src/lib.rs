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
mod completion;
mod cpals;
pub mod csf;
mod diagnostics;
mod isa;
mod kruskal;
mod model_file;
#[cfg(test)]
mod mutation;
mod options;
pub mod query;
pub mod refresh;
mod tiling;

pub mod mttkrp;
pub mod reference;

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
