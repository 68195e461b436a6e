//! Run-time instruction-set selection for the kernels this crate compiles
//! twice — the MTTKRP walk, the query scan core, and the dense routines of
//! an ALS mode update (the lane-panel Cholesky solve, the blocked SYRK
//! behind `mat_ata`, `normalize_columns`) — each once portable and once
//! with `#[target_feature(enable = "avx2")]`.
//!
//! Both copies round every multiply and every add (no FMA), so they give
//! the same bits; the AVX2 copy only runs the same arithmetic at a wider
//! vector width. [`Avx2::detect`] is the one place the CPU is asked, and
//! [`on_isa!`] the one place an AVX2 copy is called from code that is not
//! itself compiled for AVX2.

/// Proof that this CPU reported AVX2: the field is private to this
/// module, so [`Avx2::detect`] is the only way to obtain one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2(());

impl Avx2 {
    /// `Some` on an x86-64 CPU with AVX2 (std caches the `cpuid`
    /// answer; this is a relaxed load). Run-time rather than
    /// `target-cpu`/`RUSTFLAGS`, because a plain `cargo build
    /// --release` — the end-to-end benchmark's, and any downstream
    /// user's — targets baseline x86-64.
    pub(crate) fn detect() -> Option<Avx2> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Avx2(()));
        }
        None
    }
}

/// `$avx2(args)` when `$isa` (an `Option<Avx2>`) holds a proof, else
/// `$portable(args)`: the two compiled copies of one function, called
/// with the same arguments. The arguments are plain names, so nothing but
/// the call itself sits in the `unsafe` block.
macro_rules! on_isa {
    ($isa:expr, $avx2:path, $portable:path, ($($arg:ident),* $(,)?)) => {
        match $isa {
            #[cfg(target_arch = "x86_64")]
            Some(_) => {
                // SAFETY: an `Avx2` value exists only after
                // `is_x86_feature_detected!("avx2")` returned true on this
                // CPU (`Avx2::detect` is its sole constructor), which is
                // the one requirement of calling a
                // `target_feature(enable = "avx2")` function.
                unsafe { $avx2($($arg),*) }
            }
            _ => $portable($($arg),*),
        }
    };
}
pub(crate) use on_isa;

#[cfg(test)]
mod tests {
    use super::Avx2;
    use crate::bits;
    use crate::cholesky::{cholesky_factor, cholesky_solve_on, W};
    use crate::matrix::Matrix;
    use crate::norms::{normalize_columns_on, MatNorm};
    use crate::ops::{mat_ata, syrk_upper_on, ROW_BLOCK};

    /// The dense routines' two compiled copies — the lane-panel solve,
    /// the blocked SYRK, `normalize_columns` under both norms — give the
    /// same bits: ranks 1–40, row counts just below, at and above the
    /// solve's panel width and the SYRK's row block (so every remainder
    /// path runs), mixed signs, zero columns, `-0.0` and infinities.
    /// Prints the ISA it ran on: a host without AVX2 skips, visibly.
    #[test]
    fn portable_and_avx2_dense_routines_are_bit_identical() {
        let Some(avx2) = Avx2::detect() else {
            println!("skipped: no avx2");
            return;
        };
        println!("isa: avx2");
        let rows = [
            0,
            1,
            W - 1,
            W,
            W + 1,
            2 * W + 3,
            ROW_BLOCK - 1,
            ROW_BLOCK,
            ROW_BLOCK + 1,
            2 * ROW_BLOCK + W + 1,
        ];
        for rank in 1..=40 {
            let mut v = mat_ata(&Matrix::random(rank + 3, rank, rank as u64));
            for i in 0..rank {
                v[(i, i)] += rank as f64;
            }
            let l = cholesky_factor(&v).expect("A^T A + rI is SPD");
            for n in rows {
                let mut a = Matrix::random(n, rank, (rank * 1000 + n) as u64);
                for (i, x) in a.as_mut_slice().iter_mut().enumerate() {
                    *x = if i % 3 == 0 { -*x } else { *x - 0.5 };
                }
                for i in 0..n {
                    a[(i, rank / 2)] = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
                let mut cases = vec![("finite", a.clone())];
                if n > 2 {
                    a[(n / 2, 0)] = f64::INFINITY;
                    a[(n - 1, rank - 1)] = f64::NEG_INFINITY;
                    cases.push(("infinite", a));
                }
                for (kind, a) in cases {
                    let at = format!("{kind}, rank {rank}, rows {n}");
                    let (mut portable, mut wide) = (a.clone(), a.clone());
                    cholesky_solve_on(None, &l, &mut portable);
                    cholesky_solve_on(Some(avx2), &l, &mut wide);
                    assert_eq!(bits(&portable), bits(&wide), "solve: {at}");
                    assert_eq!(
                        bits(&syrk_upper_on(None, &a)),
                        bits(&syrk_upper_on(Some(avx2), &a)),
                        "syrk: {at}"
                    );
                    for which in [MatNorm::Two, MatNorm::Max] {
                        let (mut portable, mut wide) = (a.clone(), a.clone());
                        let (mut lp, mut lw) = (vec![0.0; rank], vec![0.0; rank]);
                        normalize_columns_on(None, &mut portable, &mut lp, which);
                        normalize_columns_on(Some(avx2), &mut wide, &mut lw, which);
                        let lbits = |l: &[f64]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(lbits(&lp), lbits(&lw), "{which:?} lambda: {at}");
                        assert_eq!(bits(&portable), bits(&wide), "{which:?}: {at}");
                    }
                }
            }
        }
    }
}
