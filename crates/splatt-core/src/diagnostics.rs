//! Model diagnostics: the core consistency diagnostic (CORCONDIA).
//!
//! CP-ALS always returns *some* rank-`R` model; CORCONDIA (Bro & Kiers,
//! 2003) measures whether a trilinear model of that rank is actually
//! appropriate. It fits an unconstrained Tucker core `G` through the CP
//! factors by least squares and scores how close `G` is to the
//! superdiagonal identity the CP model implies:
//!
//! ```text
//! corcondia = 100 * (1 - ||G - I_sd||_F^2 / R)
//! ```
//!
//! Values near 100 mean the rank is well chosen; low or negative values
//! flag overfactoring. For the sparse case the least-squares core is
//! `g[p,q,r] = sum_nz val * A+[p,i] * B+[q,j] * C+[r,k]` with `M+` the
//! Moore-Penrose pseudo-inverses of the factors, computable in one pass
//! over the nonzeros (`O(nnz * R^3)` — fine for the small `R` used when
//! scanning for the right rank).
//!
//! CORCONDIA is defined for models of the *full* tensor — stored zeros
//! and all — i.e. models produced by [`crate::cp_als`]. It is **not**
//! meaningful for [`crate::tensor_complete`] models, which are fitted to
//! observed entries only: evaluating the core against the zero-filled
//! tensor then reflects the missing-data pattern, not the model quality.

use crate::dense::{gemm, jacobi_eigen, mat_ata, Matrix};
use crate::kruskal::KruskalModel;
use splatt_tensor::SparseTensor;

/// Left pseudo-inverse `(M^T M)^+ M^T` of a tall matrix (`R x I` result).
fn pinv_left(m: &Matrix) -> Matrix {
    let g = mat_ata(m); // R x R
    let ginv = jacobi_eigen(&g).pseudo_inverse(1e-12);
    gemm(&ginv, &m.transpose())
}

/// Core consistency diagnostic of `model` against the 3rd-order `tensor`.
///
/// Returns a percentage ≤ 100. The model's `lambda` is absorbed into the
/// last factor before the core is fitted (CORCONDIA is defined on
/// unweighted factors).
///
/// # Panics
/// Panics if the tensor (or model) is not 3rd order, or shapes disagree.
pub fn corcondia(model: &KruskalModel, tensor: &SparseTensor) -> f64 {
    assert_eq!(
        tensor.order(),
        3,
        "corcondia is defined here for 3rd-order tensors"
    );
    assert_eq!(model.order(), 3, "model must be 3rd order");
    let rank = model.rank();
    for (m, f) in model.factors.iter().enumerate() {
        assert_eq!(f.rows(), tensor.dims()[m], "factor {m} shape mismatch");
    }
    if tensor.nnz() == 0 || rank == 0 {
        return 0.0;
    }

    // absorb lambda into the last factor
    let a = &model.factors[0];
    let b = &model.factors[1];
    let mut c = model.factors[2].clone();
    for i in 0..c.rows() {
        for (r, &l) in model.lambda.iter().enumerate() {
            c[(i, r)] *= l;
        }
    }

    let ap = pinv_left(a); // R x I
    let bp = pinv_left(b); // R x J
    let cp = pinv_left(&c); // R x K

    // g[p,q,r] = sum_nz val * ap[p,i] * bp[q,j] * cp[r,k]
    let mut core = vec![0.0; rank * rank * rank];
    for x in 0..tensor.nnz() {
        let i = tensor.ind(0)[x] as usize;
        let j = tensor.ind(1)[x] as usize;
        let k = tensor.ind(2)[x] as usize;
        let v = tensor.vals()[x];
        for p in 0..rank {
            let vp = v * ap[(p, i)];
            if vp == 0.0 {
                continue;
            }
            for q in 0..rank {
                let vpq = vp * bp[(q, j)];
                let base = (p * rank + q) * rank;
                for r in 0..rank {
                    core[base + r] += vpq * cp[(r, k)];
                }
            }
        }
    }

    // distance from the superdiagonal identity
    let mut dist_sq = 0.0;
    for p in 0..rank {
        for q in 0..rank {
            for r in 0..rank {
                let target = if p == q && q == r { 1.0 } else { 0.0 };
                let d = core[(p * rank + q) * rank + r] - target;
                dist_sq += d * d;
            }
        }
    }
    100.0 * (1.0 - dist_sq / rank as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cp_als, CpalsOptions};
    use splatt_tensor::synth;

    #[test]
    fn exact_rank_model_scores_near_100() {
        let (tensor, _) = synth::planted_dense(&[12, 10, 8], 3, 0.0, 17);
        let opts = CpalsOptions {
            rank: 3,
            max_iters: 80,
            tolerance: 1e-10,
            ntasks: 1,
            ..Default::default()
        };
        let out = cp_als(&tensor, &opts);
        assert!(
            out.fit > 0.98,
            "fit {} — model must converge first",
            out.fit
        );
        let cc = corcondia(&out.model, &tensor);
        assert!(cc > 90.0, "corcondia {cc} for exact-rank model");
    }

    #[test]
    fn overfactored_model_scores_low() {
        // true rank 2, fitted rank 5: classic overfactoring
        let (tensor, _) = synth::planted_dense(&[12, 10, 8], 2, 0.0, 23);
        let opts = CpalsOptions {
            rank: 5,
            max_iters: 80,
            tolerance: 0.0,
            ntasks: 1,
            ..Default::default()
        };
        let out = cp_als(&tensor, &opts);
        let cc = corcondia(&out.model, &tensor);
        assert!(cc < 70.0, "corcondia {cc} should flag overfactoring");
    }

    #[test]
    fn rank_one_is_always_perfect() {
        // with R = 1 the fitted core is a scalar equal to the LS
        // projection; for a converged rank-1 model it is ~1
        let (tensor, _) = synth::planted_dense(&[8, 8, 8], 1, 0.0, 3);
        let opts = CpalsOptions {
            rank: 1,
            max_iters: 40,
            tolerance: 0.0,
            ntasks: 1,
            ..Default::default()
        };
        let out = cp_als(&tensor, &opts);
        let cc = corcondia(&out.model, &tensor);
        assert!(cc > 99.0, "corcondia {cc}");
    }

    #[test]
    fn empty_tensor_scores_zero() {
        let t = SparseTensor::new(vec![4, 4, 4]);
        let model = KruskalModel {
            lambda: vec![1.0],
            factors: vec![
                Matrix::random(4, 1, 1),
                Matrix::random(4, 1, 2),
                Matrix::random(4, 1, 3),
            ],
        };
        assert_eq!(corcondia(&model, &t), 0.0);
    }

    #[test]
    #[should_panic(expected = "3rd-order")]
    fn four_mode_tensor_rejected() {
        let t = SparseTensor::new(vec![3, 3, 3, 3]);
        let model = KruskalModel {
            lambda: vec![1.0],
            factors: vec![
                Matrix::zeros(3, 1),
                Matrix::zeros(3, 1),
                Matrix::zeros(3, 1),
                Matrix::zeros(3, 1),
            ],
        };
        let _ = corcondia(&model, &t);
    }
}
