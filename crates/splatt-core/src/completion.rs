//! Tensor completion: CP factorization of *observed entries only*.
//!
//! SPLATT ships "CP with missing values (i.e., tensor completion)"
//! alongside least-squares CP (paper Section III; Smith et al., "HPC
//! formulations of optimization algorithms for tensor completion"). Where
//! [`crate::cp_als`] treats unstored cells as zeros, completion fits only
//! the stored (observed) cells and is the right tool for
//! recommender-style data where missing means *unknown*.
//!
//! The solver is row-wise alternating least squares: updating mode `n`
//! solves, independently for every row `i`,
//!
//! ```text
//! ( sum_{x in obs(i)} k_x k_x^T + mu I ) a_i = sum_{x in obs(i)} v_x k_x
//! ```
//!
//! where `k_x` is the Khatri-Rao row `prod_{m != n} A_m[i_m]` of
//! observation `x` and `mu` a ridge regularizer. Rows are independent, so
//! the kernel parallelizes over CSF slices of a representation rooted at
//! `n` with no synchronization at all — completion always gets the
//! "root-mode" treatment, using one CSF per mode ([`CsfAlloc::All`]).

use crate::csf::{Csf, CsfAlloc, CsfSet};
use crate::dense::{cholesky_factor, cholesky_solve, Matrix};
use crate::kruskal::KruskalModel;
use splatt_par::{partition, TaskTeam, TeamConfig};
use splatt_tensor::{SortVariant, SparseTensor};

/// Configuration for [`tensor_complete`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionOptions {
    /// Factorization rank.
    pub rank: usize,
    /// Maximum ALS sweeps.
    pub max_iters: usize,
    /// Stop when train RMSE improves by less than this between sweeps
    /// (`0.0` = always run `max_iters`).
    pub tolerance: f64,
    /// Ridge regularization `mu` (also keeps rank-deficient rows solvable).
    pub regularization: f64,
    /// Tasks in the team.
    pub ntasks: usize,
    /// Seed for factor initialization.
    pub seed: u64,
    /// Spin-before-park count for the task team.
    pub spin_count: u32,
}

impl Default for CompletionOptions {
    fn default() -> Self {
        CompletionOptions {
            rank: 10,
            max_iters: 50,
            tolerance: 1e-5,
            regularization: 1e-2,
            ntasks: 1,
            seed: 0xBEEF,
            spin_count: 300,
        }
    }
}

/// Result of a completion run.
#[derive(Debug)]
pub struct CompletionOutput {
    /// The fitted model (`lambda` is all ones; completion does not
    /// normalize columns).
    pub model: KruskalModel,
    /// Train RMSE after each sweep.
    pub rmse_trace: Vec<f64>,
    /// Final train RMSE.
    pub rmse: f64,
    /// Sweeps executed.
    pub iterations: usize,
}

/// Root-mean-square error of `model` over the *stored entries* of
/// `tensor` (the completion loss; zeros outside the pattern are ignored).
pub fn rmse_observed(model: &KruskalModel, tensor: &SparseTensor) -> f64 {
    if tensor.nnz() == 0 {
        return 0.0;
    }
    let sse: f64 = (0..tensor.nnz())
        .map(|x| {
            let err = model.value_at(&tensor.coord(x)) - tensor.vals()[x];
            err * err
        })
        .sum();
    (sse / tensor.nnz() as f64).sqrt()
}

/// Factorize the observed entries of `tensor` (ridge-regularized ALS).
///
/// ```
/// use splatt_core::{tensor_complete, rmse_observed, CompletionOptions};
/// use splatt_tensor::synth;
///
/// let (full, _) = synth::planted_dense(&[12, 10, 8], 2, 0.0, 1);
/// let (train, test) = full.split_holdout(0.3, 9);
/// let opts = CompletionOptions { rank: 2, max_iters: 60, tolerance: 0.0,
///                                regularization: 1e-4, ntasks: 2, ..Default::default() };
/// let out = tensor_complete(&train, &opts);
/// // held-out cells of the exactly-low-rank tensor are predicted well
/// assert!(rmse_observed(&out.model, &test) < 0.1);
/// ```
///
/// # Panics
/// Panics if `rank`, `max_iters`, or `ntasks` is zero.
pub fn tensor_complete(tensor: &SparseTensor, opts: &CompletionOptions) -> CompletionOutput {
    assert!(opts.rank > 0, "rank must be positive");
    assert!(opts.max_iters > 0, "max_iters must be positive");
    let team = TaskTeam::with_config(
        opts.ntasks,
        TeamConfig {
            spin_count: opts.spin_count,
        },
    );

    let order = tensor.order();
    let rank = opts.rank;
    // One CSF per mode: every row-wise update walks slices of "its" tree.
    let set = CsfSet::build(tensor, CsfAlloc::All, &team, SortVariant::AllOpts);

    let mut factors: Vec<Matrix> = tensor
        .dims()
        .iter()
        .enumerate()
        // small positive init keeps early residuals tame
        .map(|(m, &d)| {
            let mut f = Matrix::random(d, rank, opts.seed.wrapping_add(m as u64));
            f.scale(1.0 / rank as f64);
            f
        })
        .collect();

    let mut rmse_trace = Vec::with_capacity(opts.max_iters);
    let mut prev_rmse = f64::INFINITY;
    let mut iterations = 0;

    for _sweep in 0..opts.max_iters {
        iterations += 1;
        for mode in 0..order {
            let csf = set
                .csfs()
                .iter()
                .find(|c| c.dim_perm()[0] == mode)
                .expect("CsfAlloc::All provides a root for every mode");
            update_mode(csf, &mut factors, mode, opts.regularization, &team);
        }
        let model = KruskalModel {
            lambda: vec![1.0; rank],
            factors: factors.clone(),
        };
        let rmse = rmse_observed(&model, tensor);
        rmse_trace.push(rmse);
        if opts.tolerance > 0.0 && (prev_rmse - rmse).abs() < opts.tolerance {
            break;
        }
        prev_rmse = rmse;
    }

    let rmse = rmse_trace.last().copied().unwrap_or(0.0);
    CompletionOutput {
        model: KruskalModel {
            lambda: vec![1.0; rank],
            factors,
        },
        rmse_trace,
        rmse,
        iterations,
    }
}

/// One row-wise least-squares update of `factors[mode]`, walking the CSF
/// rooted at `mode` slice-parallel (rows are independent — no locks).
fn update_mode(csf: &Csf, factors: &mut [Matrix], mode: usize, mu: f64, team: &TaskTeam) {
    let rank = factors[mode].cols();
    debug_assert_eq!(csf.dim_perm()[0], mode);

    // read-only views of the other factors, in tree-level order
    let flevel: Vec<Matrix> = csf.dim_perm().iter().map(|&m| factors[m].clone()).collect();

    let prefix = partition::prefix_sum(csf.slice_nnz());
    let bounds = partition::weighted(&prefix, team.ntasks());

    // each task writes disjoint rows of the output; collect per-task row
    // updates and apply afterwards (keeps the closure free of aliasing)
    type RowUpdates = Vec<(usize, Vec<f64>)>;
    let updates: Vec<splatt_rt::sync::Mutex<RowUpdates>> = (0..team.ntasks())
        .map(|_| splatt_rt::sync::Mutex::new(Vec::new()))
        .collect();
    let bounds_ref = &bounds;
    let flevel_ref = &flevel;
    let updates_ref = &updates;

    let order = csf.order();
    team.coforall(|tid| {
        let mut local = Vec::new();
        let ones = vec![1.0; rank];
        let mut h = Matrix::zeros(rank, rank); // normal matrix per row
        let mut b = vec![0.0; rank];
        let mut rhs = Matrix::zeros(1, rank);
        // per-level Khatri-Rao prefix buffers, reused across every slice
        // this task owns — the subtree walk must not allocate per fiber
        let mut kr_bufs = vec![0.0; (order - 1) * rank];
        for s in bounds_ref[tid]..bounds_ref[tid + 1] {
            h.fill(0.0);
            b.fill(0.0);
            accumulate_subtree(csf, 0, s, flevel_ref, &ones, &mut kr_bufs, &mut h, &mut b);
            for r in 0..rank {
                h[(r, r)] += mu;
            }
            // solve (H + mu I) a = b for this row
            rhs.as_mut_slice().copy_from_slice(&b);
            match cholesky_factor(&h) {
                Ok(l) => cholesky_solve(&l, &mut rhs),
                Err(_) => {
                    // fully-degenerate row (all-zero observations): leave it
                    continue;
                }
            }
            let row_id = csf.fids(0)[s] as usize;
            local.push((row_id, rhs.as_slice().to_vec()));
        }
        *updates_ref[tid].lock() = local;
    });

    let out = &mut factors[mode];
    for slot in &updates {
        for (row_id, vals) in slot.lock().iter() {
            out.row_mut(*row_id).copy_from_slice(vals);
        }
    }
}

/// Walk the subtree under `fiber` at `level`, accumulating every
/// observation's Khatri-Rao row `k = prefix ∘ (rows at deeper levels)`
/// into the per-row normal equations: `h += k k^T`, `b += val * k`.
///
/// `prefix` is the element-wise product of the factor rows along the path
/// from (but excluding) the root to `level`; callers start a slice with a
/// ones vector — the root's own factor row is the unknown being solved.
#[allow(clippy::too_many_arguments)]
fn accumulate_subtree(
    csf: &Csf,
    level: usize,
    fiber: usize,
    flevel: &[Matrix],
    prefix: &[f64],
    kr_bufs: &mut [f64],
    h: &mut Matrix,
    b: &mut [f64],
) {
    let order = csf.order();
    let rank = prefix.len();
    if level == order - 2 {
        // children are the leaf observations
        let (k, _) = kr_bufs.split_at_mut(rank);
        let leaf_fids = csf.fids(order - 1);
        let vals = csf.vals();
        for x in csf.children(level, fiber) {
            let leaf_row = flevel[order - 1].row(leaf_fids[x] as usize);
            for ((kk, &p), &l) in k.iter_mut().zip(prefix).zip(leaf_row) {
                *kk = p * l;
            }
            rank_one_update(h, b, k, vals[x]);
        }
    } else {
        let (next, rest) = kr_bufs.split_at_mut(rank);
        let child_fids = csf.fids(level + 1);
        for c in csf.children(level, fiber) {
            let row = flevel[level + 1].row(child_fids[c] as usize);
            for ((n, &p), &r) in next.iter_mut().zip(prefix).zip(row) {
                *n = p * r;
            }
            accumulate_subtree(csf, level + 1, c, flevel, next, rest, h, b);
        }
    }
}

/// `h += k k^T` (upper triangle mirrored) and `b += val * k`.
fn rank_one_update(h: &mut Matrix, b: &mut [f64], k: &[f64], val: f64) {
    let rank = b.len();
    for p in 0..rank {
        let kp = k[p];
        if kp != 0.0 {
            let row = h.row_mut(p);
            for (q, &kq) in k.iter().enumerate() {
                row[q] += kp * kq;
            }
        }
        b[p] += val * kp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatt_tensor::synth;

    #[test]
    fn completes_planted_observations() {
        // sample 40% of a planted rank-2 tensor; completion must fit the
        // observed entries tightly
        let (full, _) = synth::planted_dense(&[12, 10, 8], 2, 0.0, 5);
        let mut train = SparseTensor::new(full.dims().to_vec());
        for x in 0..full.nnz() {
            if x % 5 < 2 {
                train.push(&full.coord(x), full.vals()[x]);
            }
        }
        let opts = CompletionOptions {
            rank: 2,
            max_iters: 60,
            tolerance: 0.0,
            regularization: 1e-4,
            ntasks: 2,
            ..Default::default()
        };
        let out = tensor_complete(&train, &opts);
        assert!(out.rmse < 0.05, "train rmse {}", out.rmse);
    }

    #[test]
    fn generalizes_to_held_out_entries() {
        // the defining property of completion: predictions on *unseen*
        // cells of a low-rank tensor are accurate
        let (full, _) = synth::planted_dense(&[14, 12, 10], 2, 0.0, 9);
        let mut train = SparseTensor::new(full.dims().to_vec());
        let mut test = SparseTensor::new(full.dims().to_vec());
        for x in 0..full.nnz() {
            if x % 3 == 0 {
                test.push(&full.coord(x), full.vals()[x]);
            } else {
                train.push(&full.coord(x), full.vals()[x]);
            }
        }
        let opts = CompletionOptions {
            rank: 2,
            max_iters: 80,
            tolerance: 0.0,
            regularization: 1e-4,
            ntasks: 2,
            ..Default::default()
        };
        let out = tensor_complete(&train, &opts);
        let test_rmse = rmse_observed(&out.model, &test);
        let scale = (test.norm_squared() / test.nnz() as f64).sqrt();
        assert!(
            test_rmse < 0.1 * scale,
            "held-out rmse {test_rmse} vs value scale {scale}"
        );
    }

    #[test]
    fn rmse_trace_is_nonincreasing_ish() {
        let (full, _) = synth::planted_dense(&[10, 10, 10], 3, 0.1, 3);
        let opts = CompletionOptions {
            rank: 3,
            max_iters: 15,
            tolerance: 0.0,
            ntasks: 1,
            ..Default::default()
        };
        let out = tensor_complete(&full, &opts);
        for w in out.rmse_trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "rmse increased: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn tolerance_stops_early() {
        let (full, _) = synth::planted_dense(&[8, 8, 8], 2, 0.0, 7);
        let opts = CompletionOptions {
            rank: 2,
            max_iters: 500,
            tolerance: 1e-6,
            ntasks: 1,
            ..Default::default()
        };
        let out = tensor_complete(&full, &opts);
        assert!(out.iterations < 500, "never converged");
    }

    #[test]
    fn unobserved_rows_stay_finite() {
        // a tensor whose mode-0 slice 3 has no observations at all
        let t = SparseTensor::from_entries(
            vec![5, 4, 4],
            &[
                (vec![0, 0, 0], 1.0),
                (vec![1, 1, 1], 2.0),
                (vec![2, 2, 2], 3.0),
                (vec![4, 3, 3], 4.0),
            ],
        );
        let opts = CompletionOptions {
            rank: 2,
            max_iters: 10,
            tolerance: 0.0,
            ntasks: 2,
            ..Default::default()
        };
        let out = tensor_complete(&t, &opts);
        for f in &out.model.factors {
            assert!(f.as_slice().iter().all(|v| v.is_finite()));
        }
        assert!(out.rmse.is_finite());
    }

    #[test]
    fn four_mode_completion() {
        let (full, _) = synth::planted_dense(&[6, 5, 4, 4], 2, 0.0, 11);
        let opts = CompletionOptions {
            rank: 2,
            max_iters: 60,
            tolerance: 0.0,
            regularization: 1e-4,
            ntasks: 2,
            ..Default::default()
        };
        let out = tensor_complete(&full, &opts);
        assert!(out.rmse < 0.05, "rmse {}", out.rmse);
    }

    #[test]
    fn rmse_observed_matches_manual() {
        let model = KruskalModel {
            lambda: vec![1.0],
            factors: vec![Matrix::filled(2, 1, 1.0), Matrix::filled(2, 1, 1.0)],
        };
        // model value is 1 everywhere; entries 3 and 1 -> errors 2 and 0
        let t = SparseTensor::from_entries(vec![2, 2], &[(vec![0, 0], 3.0), (vec![1, 1], 1.0)]);
        let expect = ((4.0 + 0.0) / 2.0_f64).sqrt();
        assert!((rmse_observed(&model, &t) - expect).abs() < 1e-12);
    }

    #[test]
    fn empty_tensor_is_handled() {
        let t = SparseTensor::new(vec![3, 3, 3]);
        let opts = CompletionOptions {
            rank: 2,
            max_iters: 2,
            ..Default::default()
        };
        let out = tensor_complete(&t, &opts);
        assert_eq!(out.rmse, 0.0);
    }
}
