//! BLAS-like dense kernels: SYRK, GEMM, and Hadamard products.
//!
//! CP-ALS spends its dense time in the Gram-matrix products
//! `A^(n)ᵀ A^(n)` (lines 4/7/10 of Algorithm 1, SPLATT's `mat_aTa`, BLAS
//! `syrk`) and the element-wise (Hadamard) products that combine them.
//! These are tall-skinny updates — `I x R` with `R ≈ 35` — so the natural
//! formulation accumulates rank-1 outer products of rows, which is what
//! [`syrk_upper`] does.
//!
//! # Blocking, and what it does to the bits
//!
//! Every entry of the Gramian is one sum over rows, taken in row order
//! from `+0.0`: `g_jk = ((0 + a_0j a_0k) + a_1j a_1k) + ...`. That order
//! is the definition, and [`syrk_upper`] keeps it; what it changes is
//! where the partial sums live. The upper triangle is cut into 4 x 4
//! tiles, the rows into blocks of 64 (packed with the columns zero-padded
//! to whole tiles, so a block stays in L1 and every tile is full), and a
//! tile's sixteen sums sit in registers across a block — sixteen
//! multiply-adds per six loads, where the row-at-a-time loop went
//! load-multiply-add-store through the output for every pair. There is
//! one order of summation and therefore no threaded path: the result is a
//! function of the matrix alone, not of the host's core count.
//!
//! The row-at-a-time loop skipped a row's zero entries (`a_ij == 0.0`, the
//! nonnegativity-constraint case) to save the work. On finite input the
//! skip never changed a bit — a skipped term is `±0.0`, and a sum that
//! starts at `+0.0` cannot be `-0.0`, so adding it is the identity — and
//! the blocked kernel, which has no skip, returns the same Gramian. On
//! non-finite input the skip hid `0 · ∞ = NaN`, but only when the zero
//! was in the lower-numbered column of the pair; without it `0 · ∞` is
//! NaN on either side (pinned by `zero_times_infinity_is_nan_on_either_side`).
//! Measured at 25000 x 35: 6.7 ms per Gramian before, 3.1 ms after.

use crate::matrix::Matrix;

/// Side of a square register tile of the Gramian, in columns.
const TILE: usize = 4;

/// Rows per block of [`syrk_upper`]: a packed block (`ROW_BLOCK` rows of
/// up to a few dozen columns) stays in L1 while every tile passes over it.
const ROW_BLOCK: usize = 64;

/// Compute the upper triangle of `A^T A` into a fresh `R x R` matrix,
/// sequentially. The strict lower triangle is left zero.
///
/// Mirrors BLAS `dsyrk(uplo='U', trans='T')` as SPLATT calls it. See the
/// module docs for the blocking and for what it does to the bits
/// (nothing, on finite input).
pub(crate) fn syrk_upper(a: &Matrix) -> Matrix {
    let r = a.cols();
    let mut out = Matrix::zeros(r, r);
    if r == 0 {
        return out;
    }
    // columns padded with zeros to whole tiles, so every tile is full
    let tiles = r.div_ceil(TILE);
    let padded = tiles * TILE;
    let mut gram = vec![0.0; padded * padded];
    let mut pack = vec![0.0; ROW_BLOCK * padded];
    for block in a.as_slice().chunks(ROW_BLOCK * r) {
        let nrows = block.len() / r;
        for (dst, src) in pack.chunks_exact_mut(padded).zip(block.chunks_exact(r)) {
            dst[..r].copy_from_slice(src);
        }
        let pack = &pack[..nrows * padded];
        for jt in 0..tiles {
            for kt in jt..tiles {
                syrk_tile(pack, padded, jt * TILE, kt * TILE, &mut gram);
            }
        }
    }
    for j in 0..r {
        out.row_mut(j)[j..].copy_from_slice(&gram[j * padded + j..j * padded + r]);
    }
    out
}

/// `gram[j0 + jj][k0 + kk] += sum over the block's rows, in row order, of
/// row[j0 + jj] * row[k0 + kk]`: the tile's sixteen sums stay in registers
/// across the block and go through memory once.
#[inline]
fn syrk_tile(pack: &[f64], padded: usize, j0: usize, k0: usize, gram: &mut [f64]) {
    let mut acc = [[0.0; TILE]; TILE];
    for (jj, acc) in acc.iter_mut().enumerate() {
        acc.copy_from_slice(&gram[(j0 + jj) * padded + k0..][..TILE]);
    }
    for row in pack.chunks_exact(padded) {
        let aj: [f64; TILE] = row[j0..j0 + TILE].try_into().expect("tile width");
        let ak: [f64; TILE] = row[k0..k0 + TILE].try_into().expect("tile width");
        for jj in 0..TILE {
            for kk in 0..TILE {
                acc[jj][kk] += aj[jj] * ak[kk];
            }
        }
    }
    for (jj, acc) in acc.iter().enumerate() {
        gram[(j0 + jj) * padded + k0..][..TILE].copy_from_slice(acc);
    }
}

/// Symmetrize an upper-triangular matrix in place by mirroring the upper
/// triangle into the lower one.
fn mirror_upper(m: &mut Matrix) {
    let n = m.rows();
    for i in 0..n {
        for j in (i + 1)..n {
            m[(j, i)] = m[(i, j)];
        }
    }
}

/// Compute the full symmetric Gram matrix `A^T A` (SPLATT's `mat_aTa`):
/// `syrk_upper`, mirrored. A function of the matrix alone — every entry
/// is its sum over rows in row order, whatever the host or the run.
pub fn mat_ata(a: &Matrix) -> Matrix {
    let mut out = syrk_upper(a);
    mirror_upper(&mut out);
    out
}

/// Element-wise (Hadamard) product `a .*= b` in place.
///
/// # Panics
/// Panics if shapes differ.
pub fn hadamard_assign(a: &mut Matrix, b: &Matrix) {
    assert_eq!(a.shape(), b.shape(), "hadamard_assign: shape mismatch");
    for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x *= y;
    }
}

/// General matrix multiply `C = A * B`.
///
/// Straightforward ikj-ordered triple loop. Off the hot path (the
/// pseudo-inverse fallback, eigen reconstruction, diagnostics), so it is
/// left plain.
///
/// # Panics
/// Panics if `a.cols() != b.rows()`.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "gemm: inner dimensions {} and {} differ",
        a.cols(),
        b.rows()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let aip = a[(i, p)];
            if aip == 0.0 {
                continue;
            }
            let brow = b.row(p);
            let crow = c.row_mut(i);
            for (j, &bpj) in brow.iter().enumerate() {
                crow[j] += aip * bpj;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;

    /// Absolute tolerance when comparing floating point results of
    /// algebraically-equivalent computations.
    const TEST_TOL: f64 = 1e-9;

    fn naive_ata(a: &Matrix) -> Matrix {
        gemm(&a.transpose(), a)
    }

    /// The differential oracle: `syrk_upper` as it was before the
    /// blocking — one row at a time, load-multiply-add-store through
    /// `out`, skipping a row's zero entries on the `j` side.
    fn syrk_upper_plain(a: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), a.cols());
        for i in 0..a.rows() {
            let row = a.row(i);
            for (j, &aij) in row.iter().enumerate() {
                if aij == 0.0 {
                    continue;
                }
                let orow = out.row_mut(j);
                for (k, &aik) in row.iter().enumerate().skip(j) {
                    orow[k] += aij * aik;
                }
            }
        }
        out
    }

    #[test]
    fn blocked_syrk_equals_plain_loop_bit_for_bit() {
        for rank in 1..=40 {
            for rows in [0, 1, 3, 4, 5, 63, 64, 65, 1000] {
                let mut a = Matrix::random(rows, rank, (rank * 1000 + rows) as u64);
                // mixed signs, so sums cancel and zeros of either sign occur
                for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
                    *v = if i % 3 == 0 { -*v } else { *v - 0.5 };
                }
                assert_eq!(
                    bits(&syrk_upper(&a)),
                    bits(&syrk_upper_plain(&a)),
                    "rank {rank} rows {rows}"
                );
                // columns of exact zeros (what a nonnegativity constraint
                // leaves, and what the plain loop's skip is for), and a
                // negative zero among them
                for i in 0..rows {
                    a[(i, 0)] = 0.0;
                    a[(i, rank / 2)] = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
                assert_eq!(
                    bits(&syrk_upper(&a)),
                    bits(&syrk_upper_plain(&a)),
                    "rank {rank} rows {rows}, zero columns"
                );
            }
        }
    }

    /// The Gramian is a function of the matrix alone: at the row counts
    /// where the row-chunked threaded path used to start (4096 for
    /// `mat_ata`) and past them, it is the sequential row-order sum.
    #[test]
    fn mat_ata_is_the_sequential_row_order_sum() {
        for rows in [4095, 4096, 8193] {
            for rank in [5, 35] {
                let a = Matrix::random(rows, rank, rows as u64);
                let mut plain = syrk_upper_plain(&a);
                mirror_upper(&mut plain);
                assert_eq!(bits(&mat_ata(&a)), bits(&plain), "rows {rows} rank {rank}");
            }
        }
    }

    /// What the plain loop's `aij == 0.0` skip meant, pinned: on finite
    /// input nothing (a skipped term is `+-0.0`, and a sum that starts at
    /// `+0.0` is never `-0.0`, so adding it changes no bit); on non-finite
    /// input it hid `0 * inf = NaN` — but only when the zero sat in the
    /// lower-numbered column. The blocked kernel has no skip: `0 * inf` is
    /// NaN whichever side the zero is on.
    #[test]
    fn zero_times_infinity_is_nan_on_either_side() {
        let a = Matrix::from_vec(2, 3, vec![0.0, f64::INFINITY, 0.0, 1.0, 2.0, 3.0]);
        let g = syrk_upper(&a);
        assert!(g[(0, 1)].is_nan(), "zero in the lower column");
        assert!(g[(1, 2)].is_nan(), "zero in the higher column");
        assert_eq!(g[(1, 1)], f64::INFINITY);
        assert_eq!((g[(0, 0)], g[(0, 2)], g[(2, 2)]), (1.0, 3.0, 9.0));
        // the plain loop: finite where the zero came first, NaN where it came second
        let plain = syrk_upper_plain(&a);
        assert_eq!(plain[(0, 1)], 2.0);
        assert!(plain[(1, 2)].is_nan());
    }

    #[test]
    fn syrk_matches_naive_on_small() {
        let a = Matrix::random(7, 3, 11);
        let s = {
            let mut s = syrk_upper(&a);
            super::mirror_upper(&mut s);
            s
        };
        assert!(s.approx_eq(&naive_ata(&a), TEST_TOL));
    }

    #[test]
    fn mat_ata_matches_naive_on_short() {
        let a = Matrix::random(100, 5, 3);
        assert!(mat_ata(&a).approx_eq(&naive_ata(&a), TEST_TOL));
    }

    #[test]
    fn mat_ata_matches_naive_on_tall() {
        let a = Matrix::random(5000, 4, 3);
        assert!(mat_ata(&a).approx_eq(&naive_ata(&a), 1e-7));
    }

    #[test]
    fn mat_ata_is_symmetric() {
        let a = Matrix::random(64, 6, 5);
        let g = mat_ata(&a);
        assert!(g.approx_eq(&g.transpose(), 0.0));
    }

    #[test]
    fn mat_ata_of_identity_is_identity() {
        let g = mat_ata(&Matrix::identity(5));
        assert!(g.approx_eq(&Matrix::identity(5), 0.0));
    }

    #[test]
    fn mat_ata_empty_rows() {
        let a = Matrix::zeros(0, 3);
        let g = mat_ata(&a);
        assert!(g.approx_eq(&Matrix::zeros(3, 3), 0.0));
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::filled(2, 2, 3.0);
        let mut h = a.clone();
        hadamard_assign(&mut h, &b);
        assert_eq!(h[(0, 0)], 0.0);
        assert_eq!(h[(1, 1)], 6.0);
    }

    #[test]
    fn hadamard_with_ones_is_identity_op() {
        let a = Matrix::random(4, 4, 2);
        let ones = Matrix::filled(4, 4, 1.0);
        let mut h = a.clone();
        hadamard_assign(&mut h, &ones);
        assert!(h.approx_eq(&a, 0.0));
    }

    #[test]
    fn gemm_identity() {
        let a = Matrix::random(4, 4, 9);
        assert!(gemm(&a, &Matrix::identity(4)).approx_eq(&a, 0.0));
        assert!(gemm(&Matrix::identity(4), &a).approx_eq(&a, 0.0));
    }

    #[test]
    fn gemm_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = gemm(&a, &b);
        assert!(c.approx_eq(&Matrix::from_vec(2, 2, vec![19.0, 22.0, 43.0, 50.0]), 0.0));
    }

    #[test]
    fn gemm_rectangular_shapes() {
        let a = Matrix::random(3, 5, 1);
        let b = Matrix::random(5, 2, 2);
        let c = gemm(&a, &b);
        assert_eq!(c.shape(), (3, 2));
        // spot check one entry
        let mut expect = 0.0;
        for p in 0..5 {
            expect += a[(1, p)] * b[(p, 1)];
        }
        assert!((c[(1, 1)] - expect).abs() < TEST_TOL);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn gemm_shape_mismatch_panics() {
        let _ = gemm(&Matrix::zeros(2, 3), &Matrix::zeros(2, 2));
    }
}
