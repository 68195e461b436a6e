//! Seedable pseudo-random number generation.
//!
//! [`StdRng`] is xoshiro256** (Blackman & Vigna) seeded through a
//! SplitMix64 expansion of a `u64` — fast, high-quality, and fully
//! deterministic per seed, which is all the synthetic-tensor generators
//! and tests need. The trait split ([`SeedableRng`] / [`RngExt`]) mirrors
//! the call-site idiom `use splatt_rt::rng::{RngExt, SeedableRng, StdRng}`.

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling surface: `random::<T>()` and `random_range(lo..hi)`.
pub trait RngExt {
    fn next_u64(&mut self) -> u64;

    #[inline]
    fn random<T: Sample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Uniform sample from a half-open integer range. Panics if empty.
    #[inline]
    fn random_range<T: SampleRange>(&mut self, range: std::ops::Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range)
    }
}

/// Types producible by [`RngExt::random`].
pub trait Sample {
    fn sample<R: RngExt>(rng: &mut R) -> Self;
}

impl Sample for u64 {
    #[inline]
    fn sample<R: RngExt>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    #[inline]
    fn sample<R: RngExt>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for usize {
    #[inline]
    fn sample<R: RngExt>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Sample for bool {
    #[inline]
    fn sample<R: RngExt>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: RngExt>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

/// The top 53 bits of `bits` as a uniform `f64` in `[0, 1)`: what
/// [`RngExt::random`] makes of one draw.
#[inline]
pub fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// SplitMix64 (Steele, Lea & Flood): the output for state `x`, i.e. the
/// finalizer of `x + γ`. It expands a seed into [`StdRng`]'s state and
/// hashes the fault plans' sites.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Sample for f32 {
    #[inline]
    fn sample<R: RngExt>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Integer types usable with [`RngExt::random_range`].
pub trait SampleRange: Copy {
    fn sample_range<R: RngExt>(rng: &mut R, range: std::ops::Range<Self>) -> Self;
}

/// Debiased bounded sample in `[0, bound)` via Lemire-style rejection.
#[inline]
fn bounded_u64<R: RngExt>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Widening multiply keeps the common case to one sample.
    loop {
        let x = rng.next_u64();
        let m = (x as u128).wrapping_mul(bound as u128);
        let lo = m as u64;
        if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            #[inline]
            fn sample_range<R: RngExt>(rng: &mut R, range: std::ops::Range<Self>) -> Self {
                assert!(range.start < range.end, "random_range: empty range");
                let span = (range.end - range.start) as u64;
                range.start + bounded_u64(rng, span) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

impl SampleRange for i64 {
    #[inline]
    fn sample_range<R: RngExt>(rng: &mut R, range: std::ops::Range<Self>) -> Self {
        assert!(range.start < range.end, "random_range: empty range");
        let span = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add(bounded_u64(rng, span) as i64)
    }
}

impl SampleRange for i32 {
    #[inline]
    fn sample_range<R: RngExt>(rng: &mut R, range: std::ops::Range<Self>) -> Self {
        assert!(range.start < range.end, "random_range: empty range");
        let span = (range.end as i64 - range.start as i64) as u64;
        (range.start as i64 + bounded_u64(rng, span) as i64) as i32
    }
}

/// The workspace's standard RNG: xoshiro256**.
#[derive(Clone, Debug)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion, as recommended by the xoshiro authors:
        // the outputs for states seed, seed + γ, seed + 2γ, seed + 3γ.
        let mut x = seed;
        let mut next = || {
            let z = splitmix64(x);
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z
        };
        let s = [next(), next(), next(), next()];
        StdRng { s }
    }
}

impl RngExt for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// `rand`-style namespace so call sites can say `rng::rngs::StdRng`.
pub mod rngs {
    pub use super::StdRng;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The first outputs of the reference SplitMix64 seeded with 0.
        let (mut x, mut out) = (0u64, [0u64; 2]);
        for o in &mut out {
            *o = splitmix64(x);
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        assert_eq!(out, [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4]);
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn range_bounds_and_coverage() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.random_range(0usize..10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1_000 {
            let v = rng.random_range(5u32..6);
            assert_eq!(v, 5);
        }
        let v = rng.random_range(-5i64..5);
        assert!((-5..5).contains(&v));
    }
}
