//! Normal-equation solve for CP-ALS (SPLATT's `mat_solve_normals`).
//!
//! Given the Hadamard product of Gram matrices `V` (`R x R`, symmetric PSD)
//! and the MTTKRP output `M` (`I x R`), computes `M <- M V^+` — the paper's
//! "Inverse" routine (Moore-Penrose inverse `V^+` in Algorithm 1).
//!
//! Like SPLATT, the fast path is a Cholesky factorization with triangular
//! solves; if `V` is numerically singular we fall back to an explicit
//! pseudo-inverse from the symmetric eigendecomposition (SPLATT uses LAPACK
//! SVD for the same purpose).

use crate::cholesky::{cholesky_factor, cholesky_solve};
use crate::eigen::jacobi_eigen;
use crate::matrix::Matrix;
use crate::ops::gemm;

/// Which method ended up being used to apply `V^+`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NormalsMethod {
    /// `V` was positive definite: Cholesky factor + triangular solves.
    Cholesky,
    /// `V` was singular/indefinite: eigendecomposition pseudo-inverse.
    PseudoInverse,
}

/// Relative eigenvalue cutoff for the pseudo-inverse fallback.
const PINV_RCOND: f64 = 1e-12;

/// Solve the CP-ALS normal equations in place: `m <- m * v^+`.
///
/// `v` is consumed conceptually (only its upper triangle is read). Returns
/// which method was used so callers (and tests) can observe fallbacks.
///
/// # Panics
/// Panics if `v` is not square or `m.cols() != v.rows()`.
pub fn solve_normals(v: &Matrix, m: &mut Matrix) -> NormalsMethod {
    let r = v.rows();
    assert_eq!(r, v.cols(), "solve_normals: V must be square");
    assert_eq!(
        m.cols(),
        r,
        "solve_normals: M has {} columns but V is {}x{}",
        m.cols(),
        r,
        r
    );
    match cholesky_factor(v) {
        Ok(l) => {
            cholesky_solve(&l, m);
            NormalsMethod::Cholesky
        }
        Err(_) => {
            let pinv = jacobi_eigen(v).pseudo_inverse(PINV_RCOND);
            let solved = gemm(m, &pinv);
            *m = solved;
            NormalsMethod::PseudoInverse
        }
    }
}

/// Outcome of [`solve_normals_ridge`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RidgeOutcome {
    /// `V` was positive definite: no regularization was needed.
    Cholesky,
    /// Cholesky failed on `V` but succeeded on `V + ridge * I` after
    /// `attempts` escalations; `ridge` is the absolute value applied.
    Regularized { ridge: f64, attempts: u32 },
    /// Every escalation up to the attempt budget failed (e.g. `V`
    /// contains non-finite entries). `m` is left untouched.
    Failed { last_ridge: f64, attempts: u32 },
}

/// Solve `m <- m * (V + mu I)^{-1}` with an *escalating* Tikhonov ridge:
/// graceful numerical degradation for CP-ALS when the Hadamard Gramian is
/// singular or indefinite (rank-deficient factors, injected perturbation).
///
/// The first attempt uses `mu = 0`. On a non-positive pivot, `mu` starts
/// at `base * scale` — `scale` being the mean Gram diagonal, so the ridge
/// is relative to the problem's magnitude — and multiplies by `growth`
/// each failed factorization, up to `max_attempts` escalations. A tiny
/// ridge biases the least-squares update negligibly while restoring
/// positive definiteness; ALS self-corrects the bias in later iterations.
///
/// # Panics
/// Panics if `v` is not square or `m.cols() != v.rows()`.
pub(crate) fn solve_normals_ridge(
    v: &Matrix,
    m: &mut Matrix,
    base: f64,
    growth: f64,
    max_attempts: u32,
) -> RidgeOutcome {
    let r = v.rows();
    assert_eq!(r, v.cols(), "solve_normals_ridge: V must be square");
    assert_eq!(
        m.cols(),
        r,
        "solve_normals_ridge: M has {} columns but V is {}x{}",
        m.cols(),
        r,
        r
    );
    if let Ok(l) = cholesky_factor(v) {
        cholesky_solve(&l, m);
        return RidgeOutcome::Cholesky;
    }
    // relative ridge scale: mean diagonal magnitude, guarded for
    // zero/non-finite diagonals
    let trace: f64 = (0..r).map(|i| v[(i, i)].abs()).sum();
    let scale = if trace.is_finite() && trace > 0.0 {
        trace / r as f64
    } else {
        1.0
    };
    let mut ridge = base.max(f64::MIN_POSITIVE) * scale;
    let growth = if growth > 1.0 { growth } else { 10.0 };
    for attempt in 1..=max_attempts {
        let mut vr = v.clone();
        for i in 0..r {
            vr[(i, i)] = v[(i, i)] + ridge;
        }
        if let Ok(l) = cholesky_factor(&vr) {
            cholesky_solve(&l, m);
            return RidgeOutcome::Regularized {
                ridge,
                attempts: attempt,
            };
        }
        ridge *= growth;
    }
    RidgeOutcome::Failed {
        last_ridge: ridge / growth,
        attempts: max_attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;
    use crate::ops::mat_ata;

    fn spd(n: usize, seed: u64) -> Matrix {
        let a = Matrix::random(n + 4, n, seed);
        let mut g = mat_ata(&a);
        for i in 0..n {
            g[(i, i)] += 0.5;
        }
        g
    }

    #[test]
    fn spd_takes_cholesky_path() {
        let v = spd(5, 1);
        let mut m = Matrix::random(6, 5, 2);
        assert_eq!(solve_normals(&v, &mut m), NormalsMethod::Cholesky);
    }

    #[test]
    fn solution_satisfies_equations() {
        let v = spd(4, 3);
        let x_true = Matrix::random(5, 4, 4);
        let mut m = gemm(&x_true, &v);
        solve_normals(&v, &mut m);
        assert!(m.approx_eq(&x_true, 1e-8));
    }

    #[test]
    fn singular_takes_pinv_path_and_is_consistent() {
        // rank-deficient V: one zero row/col
        let mut v = spd(4, 5);
        for k in 0..4 {
            v[(3, k)] = 0.0;
            v[(k, 3)] = 0.0;
        }
        let mut m = Matrix::random(6, 4, 6);
        let m_orig = m.clone();
        let method = solve_normals(&v, &mut m);
        assert_eq!(method, NormalsMethod::PseudoInverse);
        // check least-squares consistency: (m v) v+ == m v v+ v v+ ... at
        // minimum, m*v must equal m_orig*v+*v which projects onto range(V).
        let mv = gemm(&m, &v);
        let proj = gemm(&m_orig, &gemm(&jacobi_eigen(&v).pseudo_inverse(1e-12), &v));
        assert!(mv.approx_eq(&proj, 1e-8));
    }

    #[test]
    fn identity_v_is_noop() {
        let v = Matrix::identity(3);
        let orig = Matrix::random(4, 3, 7);
        let mut m = orig.clone();
        solve_normals(&v, &mut m);
        assert!(m.approx_eq(&orig, 1e-12));
    }

    #[test]
    fn ridge_spd_input_is_plain_cholesky() {
        let v = spd(4, 10);
        let x_true = Matrix::random(5, 4, 11);
        let mut m = gemm(&x_true, &v);
        let out = solve_normals_ridge(&v, &mut m, 1e-8, 100.0, 10);
        assert_eq!(out, RidgeOutcome::Cholesky);
        assert!(m.approx_eq(&x_true, 1e-8));
    }

    #[test]
    fn ridge_recovers_singular_matrix() {
        // rank-1 (all-ones) matrix: exactly singular, pivot 0 at column 1
        let v = Matrix::from_fn(4, 4, |_, _| 1.0);
        let mut m = Matrix::random(6, 4, 13);
        match solve_normals_ridge(&v, &mut m, 1e-8, 100.0, 12) {
            RidgeOutcome::Regularized { ridge, attempts } => {
                assert!(ridge > 0.0);
                assert!(attempts >= 1);
            }
            other => panic!("expected regularized solve, got {other:?}"),
        }
        assert!(m.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn ridge_escalates_through_indefinite_matrix() {
        // strongly indefinite: needs a ridge larger than the negative
        // eigenvalue, i.e. several escalations from the tiny base
        let mut v = spd(3, 14);
        v[(0, 0)] = -10.0 * (v[(0, 0)] + v[(1, 1)] + v[(2, 2)]);
        let mut m = Matrix::random(2, 3, 15);
        match solve_normals_ridge(&v, &mut m, 1e-8, 100.0, 12) {
            RidgeOutcome::Regularized { attempts, .. } => assert!(attempts > 1),
            other => panic!("expected escalated ridge, got {other:?}"),
        }
        assert!(m.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn ridge_gives_up_on_nan_matrix_without_touching_m() {
        let mut v = spd(3, 16);
        v[(1, 1)] = f64::NAN;
        let orig = Matrix::random(2, 3, 17);
        let mut m = orig.clone();
        match solve_normals_ridge(&v, &mut m, 1e-8, 100.0, 5) {
            RidgeOutcome::Failed { attempts, .. } => assert_eq!(attempts, 5),
            other => panic!("expected failure, got {other:?}"),
        }
        assert!(m.approx_eq(&orig, 0.0), "rhs modified on failed solve");
    }

    #[test]
    fn zero_matrix_v_maps_to_zero() {
        let v = Matrix::zeros(3, 3);
        let mut m = Matrix::random(2, 3, 8);
        let method = solve_normals(&v, &mut m);
        assert_eq!(method, NormalsMethod::PseudoInverse);
        assert!(m.approx_eq(&Matrix::zeros(2, 3), 1e-12));
    }

    /// The lane-panel solve seen through the two entry points CP-ALS
    /// calls: whatever route reaches `cholesky_solve`, every row equals
    /// the per-row loop on the same factor, to the bit.
    #[test]
    fn normal_solves_equal_the_per_row_oracle_bit_for_bit() {
        use crate::cholesky::{cholesky_factor, cholesky_solve_per_row};
        for rows in [1, 7, 8, 9, 25] {
            let v = spd(35, 20);
            let m = Matrix::random(rows, 35, 21);
            let mut expect = m.clone();
            cholesky_solve_per_row(&cholesky_factor(&v).unwrap(), &mut expect);

            let mut plain = m.clone();
            assert_eq!(solve_normals(&v, &mut plain), NormalsMethod::Cholesky);
            assert_eq!(bits(&plain), bits(&expect), "solve_normals, {rows} rows");

            let mut ridged = m.clone();
            let outcome = solve_normals_ridge(&v, &mut ridged, 1e-8, 100.0, 10);
            assert_eq!(outcome, RidgeOutcome::Cholesky);
            assert_eq!(
                bits(&ridged),
                bits(&expect),
                "ridge (none needed), {rows} rows"
            );

            // exactly singular: the regularized path factors V + ridge I
            let ones = Matrix::from_fn(6, 6, |_, _| 1.0);
            let m = Matrix::random(rows, 6, 22);
            let mut solved = m.clone();
            let RidgeOutcome::Regularized { ridge, .. } =
                solve_normals_ridge(&ones, &mut solved, 1e-8, 100.0, 12)
            else {
                panic!("expected a regularized solve");
            };
            let mut vr = ones.clone();
            for i in 0..6 {
                vr[(i, i)] += ridge;
            }
            let mut expect = m.clone();
            cholesky_solve_per_row(&cholesky_factor(&vr).unwrap(), &mut expect);
            assert_eq!(bits(&solved), bits(&expect), "regularized, {rows} rows");

            // no factorization succeeds: `m` keeps every bit
            let mut nan_v = spd(6, 23);
            nan_v[(2, 2)] = f64::NAN;
            let mut untouched = m.clone();
            let outcome = solve_normals_ridge(&nan_v, &mut untouched, 1e-8, 100.0, 4);
            assert!(matches!(outcome, RidgeOutcome::Failed { attempts: 4, .. }));
            assert_eq!(bits(&untouched), bits(&m), "failed solve, {rows} rows");

            // the rank-deficient Gramians CP-ALS's ridge ladder is pinned
            // on (`cpals::ridge_ladder_constants_solve_rank_deficient_gramians`),
            // plain and knocked indefinite: whatever ridge the ladder
            // settles on, the solve is the per-row loop on V + ridge I
            for (what, v) in degenerate_gramians() {
                let m = Matrix::random(rows, v.rows(), 24);
                let mut solved = m.clone();
                let ridge = match solve_normals_ridge(&v, &mut solved, 1e-8, 100.0, 10) {
                    RidgeOutcome::Cholesky => 0.0,
                    RidgeOutcome::Regularized { ridge, .. } => ridge,
                    failed => panic!("{what}: {failed:?}"),
                };
                let mut vr = v.clone();
                for i in 0..v.rows() {
                    vr[(i, i)] = v[(i, i)] + ridge;
                }
                let mut expect = m.clone();
                cholesky_solve_per_row(&cholesky_factor(&vr).unwrap(), &mut expect);
                assert_eq!(
                    bits(&solved),
                    bits(&expect),
                    "{what} (ridge {ridge:e}), {rows} rows"
                );
            }
        }
    }

    /// Rank-6 Gramians of factors that are near-singular, exactly
    /// collinear and wider than tall, and a Hadamard product of two
    /// such — each also with its first diagonal entry knocked negative,
    /// the way a `nonspd` fault knocks it.
    fn degenerate_gramians() -> Vec<(String, Matrix)> {
        use crate::ops::hadamard_assign;
        let rank = 6;
        // column `rank - 1` rewritten from column `rank - 2`
        let with_last_column = |seed, f: &dyn Fn(f64, usize) -> f64| {
            let mut a = Matrix::random(30, rank, seed);
            for i in 0..a.rows() {
                a[(i, rank - 1)] = f(a[(i, rank - 2)], i);
            }
            a
        };
        let near = with_last_column(1, &|x, i| x + 1e-9 * (i as f64).sin());
        let collinear = with_last_column(2, &|x, _| 2.0 * x);
        let wide = Matrix::random(4, rank, 3);
        let mut hadamard = mat_ata(&Matrix::random(3, rank, 4));
        hadamard_assign(&mut hadamard, &mat_ata(&Matrix::random(1, rank, 5)));
        let mut out = Vec::new();
        for (what, gram) in [
            ("near-singular", mat_ata(&near)),
            ("collinear", mat_ata(&collinear)),
            ("rank > dim", mat_ata(&wide)),
            ("hadamard, rank > dims", hadamard),
        ] {
            let mut knocked = gram.clone();
            let trace: f64 = (0..rank).map(|i| knocked[(i, i)].abs()).sum();
            knocked[(0, 0)] = -(1.0 + trace);
            out.push((format!("{what}, plain"), gram));
            out.push((format!("{what}, knocked"), knocked));
        }
        out
    }
}
