//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! When the CP-ALS normal-equation matrix `V` is singular (factors lost
//! column rank), SPLATT falls back from Cholesky to a pseudo-inverse
//! computed with LAPACK SVD. For the symmetric positive semi-definite `V`
//! the SVD coincides with the eigendecomposition, so we implement the
//! classic cyclic Jacobi rotation scheme — simple, dependency-free, and
//! plenty fast for the `R x R` (R ≈ 35) matrices CP-ALS produces.

use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition `A = Q diag(w) Q^T`.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues, in the order matching the columns of `vectors`.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per column.
    pub vectors: Matrix,
}

impl EigenDecomposition {
    /// Reconstruct `Q diag(w) Q^T`.
    pub fn reconstruct(&self) -> Matrix {
        let n = self.values.len();
        let mut scaled = self.vectors.clone();
        for i in 0..n {
            for j in 0..n {
                scaled[(i, j)] *= self.values[j];
            }
        }
        crate::ops::gemm(&scaled, &self.vectors.transpose())
    }

    /// Moore-Penrose pseudo-inverse `Q diag(w+) Q^T`, where eigenvalues with
    /// magnitude below `rcond * max|w|` are treated as zero.
    pub(crate) fn pseudo_inverse(&self, rcond: f64) -> Matrix {
        let n = self.values.len();
        let wmax = self.values.iter().fold(0.0_f64, |m, &w| m.max(w.abs()));
        let cutoff = rcond * wmax;
        let mut scaled = self.vectors.clone();
        for j in 0..n {
            let inv = if self.values[j].abs() > cutoff {
                1.0 / self.values[j]
            } else {
                0.0
            };
            for i in 0..n {
                scaled[(i, j)] *= inv;
            }
        }
        crate::ops::gemm(&scaled, &self.vectors.transpose())
    }
}

/// Maximum number of full Jacobi sweeps before giving up. Convergence for
/// well-scaled `R x R` Gram matrices is typically < 10 sweeps.
const MAX_SWEEPS: usize = 64;

/// Compute the eigendecomposition of a symmetric matrix with the cyclic
/// Jacobi method.
///
/// Only the upper triangle of `a` is read. Convergence is declared when the
/// off-diagonal Frobenius norm drops below `1e-14 * ||A||_F`.
///
/// # Panics
/// Panics if `a` is not square.
pub fn jacobi_eigen(a: &Matrix) -> EigenDecomposition {
    let n = a.rows();
    assert_eq!(n, a.cols(), "jacobi_eigen: matrix must be square");
    // working copy, symmetrized from the upper triangle
    let mut w = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            w[(i, j)] = a[(i, j)];
            w[(j, i)] = a[(i, j)];
        }
    }
    let mut q = Matrix::identity(n);
    let norm = w.frobenius_norm();
    let tol = 1e-14 * norm.max(1.0);

    for _sweep in 0..MAX_SWEEPS {
        let off: f64 = {
            let mut s = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    s += w[(i, j)] * w[(i, j)];
                }
            }
            (2.0 * s).sqrt()
        };
        if off <= tol {
            break;
        }
        for p in 0..n {
            for qi in (p + 1)..n {
                let apq = w[(p, qi)];
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = w[(p, p)];
                let aqq = w[(qi, qi)];
                // rotation angle
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // apply rotation to rows/cols p and q of w
                for k in 0..n {
                    let wkp = w[(k, p)];
                    let wkq = w[(k, qi)];
                    w[(k, p)] = c * wkp - s * wkq;
                    w[(k, qi)] = s * wkp + c * wkq;
                }
                for k in 0..n {
                    let wpk = w[(p, k)];
                    let wqk = w[(qi, k)];
                    w[(p, k)] = c * wpk - s * wqk;
                    w[(qi, k)] = s * wpk + c * wqk;
                }
                // accumulate eigenvectors
                for k in 0..n {
                    let qkp = q[(k, p)];
                    let qkq = q[(k, qi)];
                    q[(k, p)] = c * qkp - s * qkq;
                    q[(k, qi)] = s * qkp + c * qkq;
                }
            }
        }
    }

    let values = (0..n).map(|i| w[(i, i)]).collect();
    EigenDecomposition { values, vectors: q }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{gemm, mat_ata};

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = 1.0;
        a[(2, 2)] = 2.0;
        let e = jacobi_eigen(&a);
        let mut vals = e.values.clone();
        vals.sort_by(f64::total_cmp);
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 2.0).abs() < 1e-12);
        assert!((vals[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2_eigenvalues() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let e = jacobi_eigen(&a);
        let mut vals = e.values.clone();
        vals.sort_by(f64::total_cmp);
        assert!((vals[0] - 1.0).abs() < 1e-12);
        assert!((vals[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_matches_original() {
        let g = mat_ata(&Matrix::random(12, 6, 21));
        let e = jacobi_eigen(&g);
        assert!(e.reconstruct().approx_eq(&g, 1e-9));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let g = mat_ata(&Matrix::random(10, 5, 33));
        let e = jacobi_eigen(&g);
        let qtq = gemm(&e.vectors.transpose(), &e.vectors);
        assert!(qtq.approx_eq(&Matrix::identity(5), 1e-10));
    }

    #[test]
    fn gram_matrix_eigenvalues_nonnegative() {
        let g = mat_ata(&Matrix::random(20, 8, 44));
        let e = jacobi_eigen(&g);
        assert!(e.values.iter().all(|&w| w > -1e-9));
    }

    #[test]
    fn pseudo_inverse_of_invertible_is_inverse() {
        let mut g = mat_ata(&Matrix::random(10, 4, 5));
        for i in 0..4 {
            g[(i, i)] += 1.0; // well-conditioned
        }
        let pinv = jacobi_eigen(&g).pseudo_inverse(1e-12);
        assert!(gemm(&g, &pinv).approx_eq(&Matrix::identity(4), 1e-9));
    }

    #[test]
    fn pseudo_inverse_of_singular_satisfies_penrose() {
        // rank-1: a = v v^T
        let v = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let a = gemm(&v, &v.transpose());
        let pinv = jacobi_eigen(&a).pseudo_inverse(1e-12);
        // Penrose condition 1: A A+ A = A
        let apa = gemm(&gemm(&a, &pinv), &a);
        assert!(apa.approx_eq(&a, 1e-9));
        // Penrose condition 2: A+ A A+ = A+
        let pap = gemm(&gemm(&pinv, &a), &pinv);
        assert!(pap.approx_eq(&pinv, 1e-9));
    }

    #[test]
    fn one_by_one_matrix() {
        let a = Matrix::from_vec(1, 1, vec![4.0]);
        let e = jacobi_eigen(&a);
        assert_eq!(e.values, vec![4.0]);
    }
}
