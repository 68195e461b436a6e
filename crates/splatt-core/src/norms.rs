//! Column normalization of factor matrices (SPLATT's `mat_normalize`).
//!
//! CP-ALS normalizes the columns of each factor matrix after updating it,
//! storing the norms in the weight vector `lambda` (lines 6/9/12 of
//! Algorithm 1). SPLATT uses the 2-norm on the first ALS iteration and the
//! max-norm (clamped below at 1 so `lambda` never grows without bound) on
//! subsequent iterations; both are reproduced here and the paper's
//! "Mat norm" timer covers exactly this routine.
//!
//! The routine is compiled twice, portable and under
//! `#[target_feature(enable = "avx2")]`, and picked per call
//! ([`crate::isa`]): the same row-order sums and maxima at twice the
//! vector width, so the same bits.

use crate::isa::{on_isa, Avx2};
use crate::matrix::Matrix;

/// Which column norm to use, matching SPLATT's `MAT_NORM_2` / `MAT_NORM_MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatNorm {
    /// Euclidean column norm. Used on the first ALS iteration.
    Two,
    /// Maximum-absolute-value column norm, clamped below at 1.0.
    /// Used on subsequent iterations so `lambda` absorbs only growth.
    Max,
}

/// Normalize the columns of `a` in place, writing the per-column norms into
/// `lambda`.
///
/// Columns whose norm is zero (for [`MatNorm::Two`]) are left untouched and
/// get `lambda = 0`; for [`MatNorm::Max`] the norm is clamped to at least 1
/// (SPLATT behaviour), so division is always safe.
///
/// # Panics
/// Panics if `lambda.len() != a.cols()`.
pub fn normalize_columns(a: &mut Matrix, lambda: &mut [f64], which: MatNorm) {
    normalize_columns_on(Avx2::detect(), a, lambda, which);
}

/// [`normalize_columns`] on the copy compiled for `isa` (`None` =
/// portable).
pub(crate) fn normalize_columns_on(
    isa: Option<Avx2>,
    a: &mut Matrix,
    lambda: &mut [f64],
    which: MatNorm,
) {
    assert_eq!(
        lambda.len(),
        a.cols(),
        "normalize_columns: lambda length {} != cols {}",
        lambda.len(),
        a.cols()
    );
    on_isa!(isa, normalize_avx2, normalize_portable, (a, lambda, which));
}

fn normalize_portable(a: &mut Matrix, lambda: &mut [f64], which: MatNorm) {
    normalize(a, lambda, which);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn normalize_avx2(a: &mut Matrix, lambda: &mut [f64], which: MatNorm) {
    normalize(a, lambda, which);
}

/// The body of both copies of [`normalize_columns`].
#[inline(always)]
fn normalize(a: &mut Matrix, lambda: &mut [f64], which: MatNorm) {
    let cols = a.cols();
    // Column norms, accumulated over rows in row order: `lambda` is a
    // function of the matrix alone, whatever the host or the run.
    lambda.fill(0.0);
    let rows = a.as_slice().chunks_exact(cols);
    match which {
        MatNorm::Two => {
            for row in rows {
                for (acc, &v) in lambda.iter_mut().zip(row) {
                    *acc += v * v;
                }
            }
            for l in lambda.iter_mut() {
                *l = l.sqrt();
            }
        }
        MatNorm::Max => {
            for row in rows {
                for (acc, &v) in lambda.iter_mut().zip(row) {
                    *acc = acc.max(v.abs());
                }
            }
            for l in lambda.iter_mut() {
                *l = l.max(1.0);
            }
        }
    }

    // scale columns
    let inv: Vec<f64> = lambda
        .iter()
        .map(|&l| if l > 0.0 { 1.0 / l } else { 0.0 })
        .collect();
    for row in a.as_mut_slice().chunks_exact_mut(cols) {
        for (v, &s) in row.iter_mut().zip(&inv) {
            *v *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col_norm2(a: &Matrix, j: usize) -> f64 {
        (0..a.rows())
            .map(|i| a[(i, j)] * a[(i, j)])
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn two_norm_produces_unit_columns() {
        let mut a = Matrix::random(20, 4, 1);
        let mut lambda = vec![0.0; 4];
        normalize_columns(&mut a, &mut lambda, MatNorm::Two);
        for (j, &l) in lambda.iter().enumerate() {
            assert!((col_norm2(&a, j) - 1.0).abs() < 1e-12);
            assert!(l > 0.0);
        }
    }

    #[test]
    fn two_norm_lambda_matches_original_norms() {
        let orig = Matrix::random(10, 3, 2);
        let mut a = orig.clone();
        let mut lambda = vec![0.0; 3];
        normalize_columns(&mut a, &mut lambda, MatNorm::Two);
        for (j, &l) in lambda.iter().enumerate() {
            assert!((l - col_norm2(&orig, j)).abs() < 1e-12);
        }
    }

    #[test]
    fn normalization_preserves_product() {
        // a = normalized * diag(lambda) must reconstruct the original
        let orig = Matrix::random(8, 3, 5);
        let mut a = orig.clone();
        let mut lambda = vec![0.0; 3];
        normalize_columns(&mut a, &mut lambda, MatNorm::Two);
        for i in 0..8 {
            for j in 0..3 {
                assert!((a[(i, j)] * lambda[j] - orig[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn max_norm_clamps_at_one() {
        // all entries < 1 => lambda = 1, matrix unchanged
        let orig = Matrix::filled(4, 2, 0.25);
        let mut a = orig.clone();
        let mut lambda = vec![0.0; 2];
        normalize_columns(&mut a, &mut lambda, MatNorm::Max);
        assert_eq!(lambda, vec![1.0, 1.0]);
        assert!(a.approx_eq(&orig, 0.0));
    }

    #[test]
    fn max_norm_divides_by_column_max() {
        let mut a = Matrix::from_vec(2, 2, vec![2.0, -8.0, 4.0, 1.0]);
        let mut lambda = vec![0.0; 2];
        normalize_columns(&mut a, &mut lambda, MatNorm::Max);
        assert_eq!(lambda, vec![4.0, 8.0]);
        assert!(a.approx_eq(&Matrix::from_vec(2, 2, vec![0.5, -1.0, 1.0, 0.125]), 1e-15));
    }

    #[test]
    fn zero_column_is_safe_under_two_norm() {
        let mut a = Matrix::zeros(5, 2);
        a[(0, 1)] = 3.0;
        let mut lambda = vec![0.0; 2];
        normalize_columns(&mut a, &mut lambda, MatNorm::Two);
        assert_eq!(lambda[0], 0.0);
        assert_eq!(lambda[1], 3.0);
        assert!(a.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn tall_matrix_matches_naive_norms() {
        let orig = Matrix::random(8292, 5, 77);
        let mut a_par = orig.clone();
        let mut l_par = vec![0.0; 5];
        normalize_columns(&mut a_par, &mut l_par, MatNorm::Two);
        // recompute sequentially on a small clone via the naive definition
        for (j, &l) in l_par.iter().enumerate() {
            let expect = col_norm2(&orig, j);
            assert!((l - expect).abs() < 1e-9 * expect.max(1.0));
        }
    }

    /// `lambda` and the scaled matrix are functions of the matrix alone:
    /// at the row counts where the row-chunked threaded path used to
    /// start (8192) and around them, each column norm is the sequential
    /// row-order accumulation, to the bit.
    #[test]
    fn norms_are_the_sequential_row_order_accumulation() {
        for rows in [4095, 4096, 8193] {
            for which in [MatNorm::Two, MatNorm::Max] {
                let orig = Matrix::from_fn(rows, 7, |i, j| ((i * 7 + j) as f64).sin() * 3.0);
                let mut a = orig.clone();
                let mut lambda = vec![0.0; 7];
                normalize_columns(&mut a, &mut lambda, which);
                for (j, &l) in lambda.iter().enumerate() {
                    let column = (0..rows).map(|i| orig[(i, j)]);
                    let expect = match which {
                        MatNorm::Two => column.fold(0.0, |acc, v| acc + v * v).sqrt(),
                        MatNorm::Max => column.fold(0.0f64, |acc, v| acc.max(v.abs())).max(1.0),
                    };
                    assert_eq!(
                        l.to_bits(),
                        expect.to_bits(),
                        "{which:?} rows {rows} col {j}"
                    );
                    for i in 0..rows {
                        let scaled = orig[(i, j)] * (1.0 / l);
                        assert_eq!(a[(i, j)].to_bits(), scaled.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lambda length")]
    fn lambda_length_mismatch_panics() {
        let mut a = Matrix::zeros(2, 3);
        let mut lambda = vec![0.0; 2];
        normalize_columns(&mut a, &mut lambda, MatNorm::Two);
    }
}
