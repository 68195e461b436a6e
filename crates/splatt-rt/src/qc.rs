//! A deterministic mini property-testing harness.
//!
//! Runs a property over `cases` RNG-seeded inputs. Seeds are derived from
//! a fixed base (overridable via `SPLATT_QC_SEED`), so failures are
//! reproducible: the panic message names the exact case seed, and setting
//! `SPLATT_QC_SEED=<seed>` with `SPLATT_QC_CASES=1` replays just that case.
//!
//! ```
//! use splatt_rt::qc::{self, Gen};
//!
//! qc::check("addition commutes", 64, |g| {
//!     let a = g.usize_in(0..1000);
//!     let b = g.usize_in(0..1000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use crate::rng::{RngExt, SampleRange, SeedableRng, StdRng};

/// Per-case input source handed to properties.
pub struct Gen {
    rng: StdRng,
    seed: u64,
}

impl Gen {
    pub fn from_seed(seed: u64) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed for this case — embed in assertion messages if helpful.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.rng.random()
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    pub fn bool(&mut self) -> bool {
        self.rng.random()
    }

    pub fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
        self.range(range)
    }

    pub fn range<T: SampleRange>(&mut self, range: std::ops::Range<T>) -> T {
        self.rng.random_range(range)
    }

    /// Pick one element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "qc::Gen::choose on empty slice");
        &items[self.usize_in(0..items.len())]
    }

    /// A random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.usize_in(0..i + 1));
        }
        p
    }

    /// `len` f64s uniform in `[lo, hi)`.
    pub fn f64_vec(&mut self, len: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..len).map(|_| self.f64_in(lo, hi)).collect()
    }

    /// The mutation set the untrusted-byte decoders are tested under,
    /// from one valid encoding: `bytes` itself, every strict prefix,
    /// every byte inverted and with one drawn bit flipped, every
    /// integer field (`(offset, width)` in `fields`, little-endian)
    /// overwritten with 0, 1, `MAX − 1` and `MAX`, eight copies with a
    /// few drawn bytes overwritten, and one with a drawn byte appended.
    pub fn byte_mutants(&mut self, bytes: &[u8], fields: &[(usize, usize)]) -> Vec<Vec<u8>> {
        let mut out = vec![bytes.to_vec()];
        for cut in 0..bytes.len() {
            out.push(bytes[..cut].to_vec());
        }
        for at in 0..bytes.len() {
            for mask in [0xFF, 1u8 << self.range(0..8u32)] {
                let mut m = bytes.to_vec();
                m[at] ^= mask;
                out.push(m);
            }
        }
        for &(at, width) in fields {
            let max = u64::MAX >> (64 - 8 * width);
            for value in [0, 1, max - 1, max] {
                let mut m = bytes.to_vec();
                m[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                out.push(m);
            }
        }
        for _ in 0..8 {
            let mut m = bytes.to_vec();
            for _ in 0..self.range(2..5usize) {
                let at = self.usize_in(0..m.len());
                m[at] = self.u64() as u8;
            }
            out.push(m);
        }
        let mut m = bytes.to_vec();
        m.push(self.u64() as u8);
        out.push(m);
        out
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Base seed: fixed for determinism unless overridden via `SPLATT_QC_SEED`.
fn base_seed() -> u64 {
    env_u64("SPLATT_QC_SEED").unwrap_or(0x5EED_CAFE_F00D_0001)
}

fn case_count(default_cases: u32) -> u32 {
    env_u64("SPLATT_QC_CASES")
        .map(|n| n as u32)
        .unwrap_or(default_cases)
        .max(1)
}

/// Run `property` over `cases` seeded inputs. Panics (with the case seed in
/// the message) on the first failing case.
pub fn check<F>(name: &str, cases: u32, property: F)
where
    F: Fn(&mut Gen),
{
    let base = base_seed();
    let cases = case_count(cases);
    for case in 0..cases {
        // SplitMix-style derivation keeps case seeds well separated.
        let seed = base
            .wrapping_add((case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            | 1;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut gen = Gen::from_seed(seed);
            property(&mut gen);
        }));
        if let Err(panic) = result {
            let msg = panic
                .downcast_ref::<String>()
                .map(|s| s.as_str())
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "property '{name}' failed on case {case}/{cases} (seed {seed:#x}): {msg}\n\
                 replay with SPLATT_QC_SEED={base} (same base) or inspect the case seed above"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        // Fn (not FnMut) required, so count via a Cell.
        let counter = std::cell::Cell::new(0u32);
        check("trivial", 16, |g| {
            let _ = g.u64();
            counter.set(counter.get() + 1);
        });
        count += counter.get();
        assert!(count >= 16);
    }

    #[test]
    fn failing_property_names_seed() {
        let result = std::panic::catch_unwind(|| {
            check("always fails", 4, |_g| panic!("boom"));
        });
        let err = result.unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("always fails"), "message: {msg}");
        assert!(msg.contains("seed"), "message: {msg}");
    }

    #[test]
    fn permutation_is_valid() {
        let mut g = Gen::from_seed(99);
        let p = g.permutation(50);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn gen_is_deterministic() {
        let mut a = Gen::from_seed(5);
        let mut b = Gen::from_seed(5);
        for _ in 0..10 {
            assert_eq!(a.u64(), b.u64());
        }
    }
}
