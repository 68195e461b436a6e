//! Dense linear algebra substrate for the splatt-rs workspace.
//!
//! SPLATT (and the Chapel port studied by Rolinger et al.) leans on three
//! LAPACK/BLAS routines — `syrk` (Gram matrices A^T A), `potrf` (Cholesky
//! factorization) and `potrs` (triangular solves) — plus a handful of dense
//! helpers: Hadamard products of Gram matrices, column normalization, and a
//! pseudo-inverse fallback when the normal-equation matrix is singular.
//!
//! The paper pins OpenBLAS to a single thread to avoid interference between
//! the Qthreads tasking layer and OpenMP (Section V-E), so a native,
//! dependency-free implementation of these kernels is both sufficient for
//! reproducing the evaluation and removes the thread-conflict failure mode
//! entirely (we study that conflict separately as an ablation in
//! `splatt-bench`).
//!
//! Everything here operates on [`Matrix`], a flat row-major `f64` matrix —
//! the same layout SPLATT uses for its factor matrices, and the layout whose
//! row-pointer access pattern the Chapel-port paper spends Section V-D.1
//! optimizing.

mod cholesky;
mod eigen;
mod matrix;
mod norms;
mod ops;
mod solve;

pub use cholesky::{cholesky_factor, cholesky_solve, CholeskyError};
pub use eigen::{jacobi_eigen, EigenDecomposition};
pub use matrix::Matrix;
pub use norms::{normalize_columns, MatNorm};
pub use ops::{gemm, hadamard, hadamard_assign, mat_ata, syrk_upper};
pub use solve::{solve_normals, solve_normals_ridge, NormalsMethod, RidgeOutcome};

/// Absolute tolerance used by the test suites in this crate when comparing
/// floating point results of algebraically-equivalent computations.
pub const TEST_TOL: f64 = 1e-9;

/// The bit patterns of a matrix: what the differential tests of this
/// crate compare, so that the sign of zero and NaN count.
#[cfg(test)]
pub(crate) fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}
