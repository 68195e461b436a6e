//! CCD++ (cyclic coordinate descent) for tensor completion.
//!
//! The third solver of SPLATT's completion study. CCD++ sweeps the rank
//! one component at a time: for component `r`, the residual tensor gets
//! component `r`'s contribution *added back*, then each mode's column `r`
//! is refit by independent one-dimensional least squares,
//!
//! ```text
//! a_r[i] = sum_{x in obs(i)} e_x * k_x  /  (mu + sum_{x in obs(i)} k_x^2)
//! ```
//!
//! with `k_x` the product of the *other* modes' column-`r` entries at
//! observation `x`, and finally the refreshed contribution is subtracted
//! from the residual again. Rows of a mode are independent, so each
//! column refit parallelizes over a per-mode grouping of the
//! observations with no synchronization — the same "root-mode"
//! parallelism the ALS completion update enjoys, but at per-column
//! granularity (which is why CCD++ has the smallest memory footprint of
//! the three solvers).

use crate::completion::{rmse_observed, CompletionOutput};
use crate::dense::Matrix;
use crate::kruskal::KruskalModel;
use splatt_par::{partition, TaskTeam, TeamConfig};
use splatt_tensor::SparseTensor;

/// Configuration for [`tensor_complete_ccd`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcdOptions {
    /// Factorization rank.
    pub rank: usize,
    /// Outer sweeps (each refits every component once).
    pub max_sweeps: usize,
    /// Stop when train RMSE improves by less than this between sweeps.
    pub tolerance: f64,
    /// Inner passes over the modes per component refit.
    pub inner_iters: usize,
    /// Ridge regularization `mu`.
    pub regularization: f64,
    /// Tasks refitting rows concurrently.
    pub ntasks: usize,
    /// Seed for initialization.
    pub seed: u64,
}

impl Default for CcdOptions {
    fn default() -> Self {
        CcdOptions {
            rank: 10,
            max_sweeps: 30,
            tolerance: 1e-5,
            inner_iters: 1,
            regularization: 1e-2,
            ntasks: 1,
            seed: 0xCCD,
        }
    }
}

/// CSR-like grouping of observation indices by one mode's rows.
struct ModeGroup {
    /// `row_ptr[i]..row_ptr[i+1]` indexes `obs` for row `i`.
    row_ptr: Vec<usize>,
    /// Observation indices (into the tensor's entry arrays).
    obs: Vec<u32>,
}

fn group_by_mode(tensor: &SparseTensor, mode: usize) -> ModeGroup {
    let dim = tensor.dims()[mode];
    let nnz = tensor.nnz();
    let mut counts = vec![0usize; dim];
    for &i in tensor.ind(mode) {
        counts[i as usize] += 1;
    }
    let mut row_ptr = partition::prefix_sum(&counts);
    let mut obs = vec![0u32; nnz];
    let mut cursor = row_ptr.clone();
    for x in 0..nnz {
        let i = tensor.ind(mode)[x] as usize;
        obs[cursor[i]] = x as u32;
        cursor[i] += 1;
    }
    row_ptr.truncate(dim + 1);
    ModeGroup { row_ptr, obs }
}

/// Factorize the observed entries of `tensor` by CCD++.
///
/// # Panics
/// Panics if `rank`, `max_sweeps`, `inner_iters`, or `ntasks` is zero.
pub fn tensor_complete_ccd(tensor: &SparseTensor, opts: &CcdOptions) -> CompletionOutput {
    assert!(opts.rank > 0, "rank must be positive");
    assert!(opts.max_sweeps > 0, "max_sweeps must be positive");
    assert!(opts.inner_iters > 0, "inner_iters must be positive");
    let team = TaskTeam::with_config(opts.ntasks, TeamConfig::short_spin());
    let order = tensor.order();
    let rank = opts.rank;
    let nnz = tensor.nnz();

    let mut factors: Vec<Matrix> = tensor
        .dims()
        .iter()
        .enumerate()
        .map(|(m, &d)| {
            let mut f = Matrix::random(d, rank, opts.seed.wrapping_add(m as u64));
            f.scale(1.0 / rank as f64);
            f
        })
        .collect();

    let groups: Vec<ModeGroup> = (0..order).map(|m| group_by_mode(tensor, m)).collect();

    // residual e_x = v_x - model(x), maintained incrementally
    let model_value = |factors: &[Matrix], x: usize| -> f64 {
        (0..rank)
            .map(|r| {
                (0..order)
                    .map(|m| factors[m][(tensor.ind(m)[x] as usize, r)])
                    .product::<f64>()
            })
            .sum()
    };
    let mut residual: Vec<f64> = (0..nnz)
        .map(|x| tensor.vals()[x] - model_value(&factors, x))
        .collect();

    let mut rmse_trace = Vec::with_capacity(opts.max_sweeps);
    let mut prev_rmse = f64::INFINITY;
    let mut iterations = 0;

    // component contribution at observation x: prod_m A_m[i_m, r]
    let contrib = |factors: &[Matrix], x: usize, r: usize| -> f64 {
        (0..order)
            .map(|m| factors[m][(tensor.ind(m)[x] as usize, r)])
            .product()
    };

    for _sweep in 0..opts.max_sweeps {
        iterations += 1;
        for r in 0..rank {
            // add component r back into the residual
            for (x, e) in residual.iter_mut().enumerate() {
                *e += contrib(&factors, x, r);
            }
            for _inner in 0..opts.inner_iters {
                for (mode, group) in groups.iter().enumerate() {
                    refit_column(
                        tensor,
                        group,
                        &mut factors,
                        mode,
                        r,
                        &residual,
                        opts.regularization,
                        &team,
                    );
                }
            }
            // subtract the refreshed component
            for (x, e) in residual.iter_mut().enumerate() {
                *e -= contrib(&factors, x, r);
            }
        }

        let rmse = if nnz > 0 {
            (residual.iter().map(|e| e * e).sum::<f64>() / nnz as f64).sqrt()
        } else {
            0.0
        };
        rmse_trace.push(rmse);
        if opts.tolerance > 0.0 && (prev_rmse - rmse).abs() < opts.tolerance {
            break;
        }
        prev_rmse = rmse;
    }

    let rmse = rmse_trace.last().copied().unwrap_or(0.0);
    let out_model = KruskalModel {
        lambda: vec![1.0; rank],
        factors,
    };
    debug_assert!(
        nnz == 0 || (rmse_observed(&out_model, tensor) - rmse).abs() < 1e-6 * rmse.max(1.0),
        "incremental residual drifted from the true residual"
    );
    CompletionOutput {
        model: out_model,
        rmse_trace,
        rmse,
        iterations,
    }
}

/// Refit column `r` of `factors[mode]` by closed-form 1-D least squares
/// per row, rows parallelized over the task team.
#[allow(clippy::too_many_arguments)]
fn refit_column(
    tensor: &SparseTensor,
    group: &ModeGroup,
    factors: &mut [Matrix],
    mode: usize,
    r: usize,
    residual: &[f64],
    mu: f64,
    team: &TaskTeam,
) {
    let order = tensor.order();
    let dim = tensor.dims()[mode];

    // snapshot the other modes' columns (read-only in this refit)
    let other_cols: Vec<Vec<f64>> = (0..order)
        .map(|m| {
            if m == mode {
                Vec::new()
            } else {
                (0..tensor.dims()[m]).map(|i| factors[m][(i, r)]).collect()
            }
        })
        .collect();
    let old_col: Vec<f64> = (0..dim).map(|i| factors[mode][(i, r)]).collect();

    let mut new_col = vec![0.0; dim];
    {
        let slots: Vec<splatt_rt::sync::Mutex<&mut [f64]>> = {
            let ntasks = team.ntasks();
            let mut rest: &mut [f64] = &mut new_col;
            let mut chunks = Vec::with_capacity(ntasks);
            for tid in 0..ntasks {
                let range = partition::block(dim, ntasks, tid);
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
                rest = tail;
                chunks.push(splatt_rt::sync::Mutex::new(head));
            }
            chunks
        };
        let other_cols = &other_cols;
        let old_col = &old_col;
        team.coforall(|tid| {
            let range = partition::block(dim, team.ntasks(), tid);
            let mut chunk = slots[tid].lock();
            for i in range.clone() {
                let mut num = 0.0;
                let mut den = mu;
                for &xi in &group.obs[group.row_ptr[i]..group.row_ptr[i + 1]] {
                    let x = xi as usize;
                    let mut k = 1.0;
                    for (m, col) in other_cols.iter().enumerate() {
                        if m != mode {
                            k *= col[tensor.ind(m)[x] as usize];
                        }
                    }
                    // residual currently *includes* component r (added
                    // back by the sweep), i.e. e_x = v - model_without_r;
                    // wait: residual = v - model + contrib_r, and
                    // contrib_r = old a_i * k, so the regression target
                    // against k is residual directly.
                    num += residual[x] * k;
                    den += k * k;
                }
                chunk[i - range.start] = if den > 0.0 { num / den } else { old_col[i] };
            }
        });
    }
    for (i, &v) in new_col.iter().enumerate() {
        factors[mode][(i, r)] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatt_tensor::synth;

    #[test]
    fn ccd_fits_planted_observations() {
        let (full, _) = synth::planted_dense(&[10, 9, 8], 2, 0.0, 7);
        let opts = CcdOptions {
            rank: 2,
            max_sweeps: 40,
            tolerance: 0.0,
            regularization: 1e-5,
            ntasks: 2,
            ..Default::default()
        };
        let out = tensor_complete_ccd(&full, &opts);
        assert!(out.rmse < 0.05, "train rmse {}", out.rmse);
    }

    #[test]
    fn ccd_rmse_is_monotone_nonincreasing() {
        let (full, _) = synth::planted_dense(&[9, 8, 7], 3, 0.1, 13);
        let out = tensor_complete_ccd(
            &full,
            &CcdOptions {
                rank: 3,
                max_sweeps: 15,
                tolerance: 0.0,
                ntasks: 1,
                ..Default::default()
            },
        );
        for w in out.rmse_trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "rmse rose: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn ccd_parallel_matches_serial_exactly() {
        // row refits are independent: task count must not change results
        let (full, _) = synth::planted_dense(&[11, 9, 7], 2, 0.0, 19);
        let run = |ntasks| {
            tensor_complete_ccd(
                &full,
                &CcdOptions {
                    rank: 2,
                    max_sweeps: 5,
                    tolerance: 0.0,
                    ntasks,
                    ..Default::default()
                },
            )
        };
        let a = run(1);
        let b = run(4);
        assert!(
            (a.rmse - b.rmse).abs() < 1e-12,
            "serial {} vs parallel {}",
            a.rmse,
            b.rmse
        );
    }

    #[test]
    fn ccd_generalizes_to_held_out() {
        let (full, _) = synth::planted_dense(&[14, 12, 10], 2, 0.0, 23);
        let (train, test) = full.split_holdout(0.3, 5);
        let out = tensor_complete_ccd(
            &train,
            &CcdOptions {
                rank: 2,
                max_sweeps: 60,
                tolerance: 0.0,
                regularization: 1e-5,
                ntasks: 2,
                ..Default::default()
            },
        );
        let test_rmse = rmse_observed(&out.model, &test);
        let scale = (test.norm_squared() / test.nnz() as f64).sqrt();
        assert!(
            test_rmse < 0.1 * scale,
            "held-out rmse {test_rmse} vs scale {scale}"
        );
    }

    #[test]
    fn ccd_unobserved_rows_keep_prior_value() {
        let t = SparseTensor::from_entries(
            vec![4, 3, 3],
            &[(vec![0, 0, 0], 1.0), (vec![1, 1, 1], 2.0)],
        );
        let out = tensor_complete_ccd(
            &t,
            &CcdOptions {
                rank: 2,
                max_sweeps: 3,
                ntasks: 2,
                ..Default::default()
            },
        );
        for f in &out.model.factors {
            assert!(f.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn ccd_empty_tensor() {
        let t = SparseTensor::new(vec![3, 3, 3]);
        let out = tensor_complete_ccd(
            &t,
            &CcdOptions {
                max_sweeps: 2,
                ..Default::default()
            },
        );
        assert_eq!(out.rmse, 0.0);
    }

    #[test]
    fn group_by_mode_is_exhaustive() {
        let t = synth::random_uniform(&[6, 5, 4], 200, 3);
        for m in 0..3 {
            let g = group_by_mode(&t, m);
            assert_eq!(g.obs.len(), 200);
            assert_eq!(*g.row_ptr.last().unwrap(), 200);
            for i in 0..t.dims()[m] {
                for &xi in &g.obs[g.row_ptr[i]..g.row_ptr[i + 1]] {
                    assert_eq!(t.ind(m)[xi as usize] as usize, i);
                }
            }
        }
    }
}
