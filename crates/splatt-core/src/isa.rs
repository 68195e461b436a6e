//! Run-time instruction-set selection for the kernels this crate compiles
//! twice — the MTTKRP walk and the query scan core — each once portable
//! and once with `#[target_feature(enable = "avx2")]`.
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
