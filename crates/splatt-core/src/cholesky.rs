//! Cholesky factorization and solves (`potrf` / `potrs` analogues).
//!
//! CP-ALS solves the normal equations `A_new = M V^{-1}` where
//! `V = (*) hadamard of Gram matrices` is `R x R`, symmetric, and — when the
//! factors have full column rank — positive definite. SPLATT calls LAPACK
//! `dpotrf` to factor `V = L L^T` and `dpotrs` to apply the inverse to every
//! row of the `I x R` MTTKRP output. We implement the same pair natively.
//!
//! # The lane rule
//!
//! One right-hand side is a single dependent chain — `s -= l_jk * y_k`,
//! `R (R - 1)` of them, each waiting for the last — and CP-ALS has tens of
//! thousands of independent ones. [`cholesky_solve`] takes them eight at
//! a time, transposed into a `[[f64; 8]; R]` panel so that **rows are
//! lanes, and each lane is the scalar sequence**: an entry of `L` is
//! broadcast against a lane vector, and lane `i` of every multiply,
//! subtract and divide is exactly the operation the one-row loop
//! (`solve_row`) performs at that step, in the same order (`k` ascending
//! in both sweeps, then the division), multiply and subtract separately
//! rounded — no FMA, no reassociation. So a row's solution is
//! bit-identical to the one-row loop's, does not depend on which rows
//! share its panel, and a NaN or infinity in one row stays in that row.
//! What changes is that `W` chains are in flight instead of one, and
//! that the backward sweep reads `L^T` (transposed once per call) along a
//! row instead of `L` down a column at stride `R`. The lane arrays have a
//! fixed width, so LLVM vectorizes them at whatever width the copy is
//! compiled for: the solve is compiled twice, portable (SSE2: two-lane
//! registers) and under `#[target_feature(enable = "avx2")]` (four-lane),
//! and [`cholesky_solve`] picks the copy per call ([`crate::isa`]). Both
//! copies perform the same operations, so they give the same bits.
//! Measured at 25000 x 35: 24-28 ms per solve for the per-row loop, 6-9 ms
//! for the eight-lane SSE2 panel; per CP-ALS iteration at the `cpd_yelp`
//! factor shapes, 10.2-11.2 ms on the SSE2 copy, 7.9-8.6 ms on the AVX2
//! copy at eight lanes and 6.3 ms at sixteen — hence `W = 16`.

use crate::isa::{on_isa, Avx2};
use crate::matrix::Matrix;

/// Error returned when a matrix is not (numerically) positive definite.
#[derive(Debug, Clone, PartialEq)]
pub struct CholeskyError {
    /// The pivot column at which factorization broke down.
    pub column: usize,
    /// The offending (non-positive) pivot value.
    pub pivot: f64,
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite: pivot {} at column {}",
            self.pivot, self.column
        )
    }
}

impl std::error::Error for CholeskyError {}

/// Factor a symmetric positive-definite matrix `A = L L^T`, returning the
/// lower-triangular factor `L` (upper triangle zeroed).
///
/// Only the upper triangle of `a` is read, matching LAPACK `dpotrf('U')`
/// semantics as used by SPLATT (which stores Gram matrices upper-symmetric).
///
/// # Errors
/// Returns `CholeskyError` if a pivot is not strictly positive, i.e. the
/// matrix is singular or indefinite to working precision.
pub fn cholesky_factor(a: &Matrix) -> Result<Matrix, CholeskyError> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "cholesky_factor: matrix must be square");
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        // diagonal entry
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(CholeskyError {
                column: j,
                pivot: d,
            });
        }
        let diag = d.sqrt();
        l[(j, j)] = diag;
        // column below the diagonal
        for i in (j + 1)..n {
            // read the upper triangle of `a`: a[(j, i)] == a[(i, j)]
            let mut s = a[(j.min(i), j.max(i))];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / diag;
        }
    }
    Ok(l)
}

/// Right-hand-side rows solved together by [`cholesky_solve`]: the SIMD
/// lanes of one panel (four AVX2 registers per entry of the panel).
pub(crate) const W: usize = 16;

/// Solve `X L L^T = B` for `X` given the Cholesky factor `L`, overwriting
/// `b` with the solution. Each *row* of `b` is an independent right-hand
/// side — this is the orientation CP-ALS needs (`M V^{-1}` with `M` being
/// the `I x R` MTTKRP output), equivalent to LAPACK `dpotrs` on `B^T`.
///
/// Rows are taken `W` at a time as a lane panel (see the module docs);
/// the fewer than `W` left over are solved one by one. Either way a row's
/// solution is the same sequence of operations on that row alone, so the
/// result does not depend on where in `b` a row sits, on what the other
/// rows hold, or on which compiled copy ran.
///
/// # Panics
/// Panics if `l` is not square or `b.cols() != l.rows()`.
pub fn cholesky_solve(l: &Matrix, b: &mut Matrix) {
    cholesky_solve_on(Avx2::detect(), l, b);
}

/// [`cholesky_solve`] on the copy compiled for `isa` (`None` = portable).
pub(crate) fn cholesky_solve_on(isa: Option<Avx2>, l: &Matrix, b: &mut Matrix) {
    let n = l.rows();
    assert_eq!(n, l.cols(), "cholesky_solve: factor must be square");
    assert_eq!(
        b.cols(),
        n,
        "cholesky_solve: rhs has {} columns, factor is {}x{}",
        b.cols(),
        n,
        n
    );
    if n == 0 {
        return;
    }
    on_isa!(isa, solve_avx2, solve_portable, (l, b));
}

fn solve_portable(l: &Matrix, b: &mut Matrix) {
    solve_lanes(l, b);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn solve_avx2(l: &Matrix, b: &mut Matrix) {
    solve_lanes(l, b);
}

/// The body of both copies: whole panels, then the rows left over.
#[inline(always)]
fn solve_lanes(l: &Matrix, b: &mut Matrix) {
    let n = l.rows();
    let mut panels = b.as_mut_slice().chunks_exact_mut(W * n);
    if panels.len() > 0 {
        // L^T once per call: the backward sweep then reads a row of it
        // where it would read a column of L at stride n
        let lt = l.transpose();
        let mut panel = vec![[0.0; W]; n];
        for block in &mut panels {
            for (lane, row) in block.chunks_exact(n).enumerate() {
                for (p, &v) in panel.iter_mut().zip(row) {
                    p[lane] = v;
                }
            }
            solve_panel(l, &lt, &mut panel);
            for (lane, row) in block.chunks_exact_mut(n).enumerate() {
                for (v, p) in row.iter_mut().zip(&panel) {
                    *v = p[lane];
                }
            }
        }
    }
    for row in panels.into_remainder().chunks_exact_mut(n) {
        solve_row(l, row);
    }
}

/// Both triangular sweeps on one panel: `panel[j][lane]` is entry `j` of
/// the panel's right-hand side `lane`; `lt` is `l` transposed. One entry
/// of `L` is broadcast against a lane vector, so each lane performs the
/// operations of [`solve_row`] in the same order.
#[inline(always)]
fn solve_panel(l: &Matrix, lt: &Matrix, panel: &mut [[f64; W]]) {
    let n = panel.len();
    // forward: y_j = (b_j - sum_{k<j} l_jk y_k) / l_jj, k ascending
    for j in 0..n {
        let (solved, rest) = panel.split_at_mut(j);
        let lj = l.row(j);
        let mut s = rest[0];
        for (y, &ljk) in solved.iter().zip(lj) {
            for lane in 0..W {
                s[lane] -= ljk * y[lane];
            }
        }
        for v in &mut s {
            *v /= lj[j];
        }
        rest[0] = s;
    }
    // backward: x_j = (y_j - sum_{k>j} l_kj x_k) / l_jj, k ascending
    for j in (0..n).rev() {
        let (rest, solved) = panel.split_at_mut(j + 1);
        let ltj = lt.row(j);
        let mut s = rest[j];
        for (x, &lkj) in solved.iter().zip(&ltj[j + 1..]) {
            for lane in 0..W {
                s[lane] -= lkj * x[lane];
            }
        }
        for v in &mut s {
            *v /= ltj[j];
        }
        rest[j] = s;
    }
}

/// Both triangular sweeps on a single right-hand side: the scalar
/// sequence every lane of [`solve_panel`] reproduces.
#[inline(always)]
fn solve_row(l: &Matrix, row: &mut [f64]) {
    let n = row.len();
    // forward solve y L^T = b  =>  treat as L y^T = b^T (y_j computed in order)
    for j in 0..n {
        let mut s = row[j];
        for k in 0..j {
            s -= l[(j, k)] * row[k];
        }
        row[j] = s / l[(j, j)];
    }
    // backward solve x L = y
    for j in (0..n).rev() {
        let mut s = row[j];
        for k in (j + 1)..n {
            s -= l[(k, j)] * row[k];
        }
        row[j] = s / l[(j, j)];
    }
}

/// The differential oracle: every row through [`solve_row`], one at a
/// time — `cholesky_solve` as it was before the lane panel.
#[cfg(test)]
pub(crate) fn cholesky_solve_per_row(l: &Matrix, b: &mut Matrix) {
    if l.rows() > 0 {
        for row in b.as_mut_slice().chunks_exact_mut(l.rows()) {
            solve_row(l, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;
    use crate::ops::{gemm, mat_ata};

    fn spd(n: usize, seed: u64) -> Matrix {
        // A^T A + n*I is comfortably SPD
        let a = Matrix::random(n + 3, n, seed);
        let mut g = mat_ata(&a);
        for i in 0..n {
            g[(i, i)] += n as f64;
        }
        g
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd(6, 42);
        let l = cholesky_factor(&a).unwrap();
        let rec = gemm(&l, &l.transpose());
        assert!(rec.approx_eq(&a, 1e-9), "L L^T != A");
    }

    #[test]
    fn factor_is_lower_triangular() {
        let l = cholesky_factor(&spd(5, 1)).unwrap();
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn factor_of_identity_is_identity() {
        let l = cholesky_factor(&Matrix::identity(4)).unwrap();
        assert!(l.approx_eq(&Matrix::identity(4), 0.0));
    }

    #[test]
    fn factor_reads_only_upper_triangle() {
        let mut a = spd(4, 7);
        let l_full = cholesky_factor(&a).unwrap();
        // trash the strict lower triangle; result must be unchanged
        for i in 0..4 {
            for j in 0..i {
                a[(i, j)] = f64::NAN;
            }
        }
        let l_upper = cholesky_factor(&a).unwrap();
        assert!(l_full.approx_eq(&l_upper, 0.0));
    }

    #[test]
    fn singular_matrix_is_rejected() {
        // rank-1 matrix
        let a = Matrix::from_fn(3, 3, |_, _| 1.0);
        let err = cholesky_factor(&a).unwrap_err();
        assert!(err.column > 0);
        assert!(err.pivot.abs() < 1e-12);
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let mut a = Matrix::identity(2);
        a[(0, 0)] = -1.0;
        assert!(cholesky_factor(&a).is_err());
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd(5, 3);
        let x_true = Matrix::random(7, 5, 9);
        // b = x_true * A   (rows are RHS in x A = b orientation)
        let b = gemm(&x_true, &a);
        let l = cholesky_factor(&a).unwrap();
        let mut x = b;
        cholesky_solve(&l, &mut x);
        assert!(x.approx_eq(&x_true, 1e-8));
    }

    #[test]
    fn solve_with_identity_is_noop() {
        let l = cholesky_factor(&Matrix::identity(3)).unwrap();
        let orig = Matrix::random(4, 3, 5);
        let mut b = orig.clone();
        cholesky_solve(&l, &mut b);
        assert!(b.approx_eq(&orig, 0.0));
    }

    #[test]
    fn solve_zero_rows_is_noop() {
        let l = cholesky_factor(&spd(3, 4)).unwrap();
        let mut b = Matrix::zeros(0, 3);
        cholesky_solve(&l, &mut b); // must not panic
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "rhs has")]
    fn solve_shape_mismatch_panics() {
        let l = cholesky_factor(&Matrix::identity(3)).unwrap();
        let mut b = Matrix::zeros(2, 4);
        cholesky_solve(&l, &mut b);
    }

    /// `D (A^T A + n I) D` with `D` spanning twelve orders of magnitude:
    /// SPD, factorizable, and badly conditioned.
    fn ill_conditioned_spd(n: usize, seed: u64) -> Matrix {
        let g = spd(n, seed);
        let d = |i: usize| 10f64.powf(-6.0 + 12.0 * i as f64 / n.max(2) as f64);
        Matrix::from_fn(n, n, |i, j| d(i) * g[(i, j)] * d(j))
    }

    /// Row counts around the panel width: none, a lone row, one short of
    /// a panel, exactly one, one over, two, and three plus a tail row.
    const ROWS: [usize; 7] = [0, 1, W - 1, W, W + 1, 2 * W, 3 * W + 1];

    #[test]
    fn panel_solve_equals_per_row_solve_bit_for_bit() {
        for n in 0..=40 {
            for (kind, v) in [
                ("well", spd(n, n as u64)),
                ("ill", ill_conditioned_spd(n, n as u64)),
            ] {
                let l = cholesky_factor(&v).unwrap();
                for rows in ROWS {
                    let b = Matrix::random(rows, n, (n * 100 + rows) as u64);
                    let (mut panel, mut per_row) = (b.clone(), b);
                    cholesky_solve(&l, &mut panel);
                    cholesky_solve_per_row(&l, &mut per_row);
                    assert_eq!(bits(&panel), bits(&per_row), "{kind} n {n} rows {rows}");
                }
            }
        }
    }

    /// A row is solved from that row alone: poisoning one lane of a panel
    /// (NaN, either infinity, negative zero) gives that row exactly what
    /// the per-row loop gives it and leaves every other row's bits alone.
    #[test]
    fn panel_lanes_are_isolated() {
        let n = 35;
        let l = cholesky_factor(&spd(n, 5)).unwrap();
        let rows = 3 * W + 1;
        let clean = Matrix::random(rows, n, 6);
        let mut clean_solved = clean.clone();
        cholesky_solve(&l, &mut clean_solved);
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
            // a lane in the middle of a panel, a panel's last lane, and the tail row
            for victim in [W + 3, 2 * W - 1, 3 * W] {
                for col in [0, n / 2, n - 1] {
                    let mut b = clean.clone();
                    b[(victim, col)] = poison;
                    let mut per_row = b.clone();
                    cholesky_solve(&l, &mut b);
                    cholesky_solve_per_row(&l, &mut per_row);
                    assert_eq!(bits(&b), bits(&per_row), "{poison} at ({victim}, {col})");
                    let (got, clean) = (bits(&b), bits(&clean_solved));
                    for i in (0..rows).filter(|&i| i != victim) {
                        assert_eq!(
                            got[i * n..(i + 1) * n],
                            clean[i * n..(i + 1) * n],
                            "{poison} at ({victim}, {col}) leaked into row {i}"
                        );
                    }
                }
            }
        }
        // a whole row of negative zeros: the signs of zero follow the per-row loop too
        let mut b = clean.clone();
        b.row_mut(W + 3).fill(-0.0);
        let mut per_row = b.clone();
        cholesky_solve(&l, &mut b);
        cholesky_solve_per_row(&l, &mut per_row);
        assert_eq!(bits(&b), bits(&per_row));
    }
}
