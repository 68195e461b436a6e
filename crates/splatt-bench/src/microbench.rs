//! Minimal Criterion-compatible micro-benchmark runner.
//!
//! The bench files under `benches/` were written against the small slice
//! of Criterion's API they actually use — `benchmark_group`,
//! `bench_function`, `Bencher::iter`/`iter_batched`, `BenchmarkId`, and
//! the `criterion_group!`/`criterion_main!` macros. This module provides
//! that slice with no external dependencies: each benchmark is
//! auto-calibrated to a minimum per-sample runtime, a fixed number of
//! samples is collected, and min/mean/max per-iteration times are printed
//! in Criterion's familiar `time: [low mid high]` shape.
//!
//! It is intentionally *not* a statistics engine — no outlier analysis,
//! no baselines. The repo's paper-grade measurements live in the `repro`
//! binary; these benches exist to compare kernel variants quickly and to
//! check (as the observability work requires) that disabled probes do not
//! measurably slow the hot loops.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` should treat its per-sample inputs. Only the
/// variants the benches use are distinguished; all sizes run one routine
/// invocation per setup call, which matches Criterion's `LargeInput`
/// semantics closely enough for our ms-scale kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Benchmark identifier: `group/function` or `group/function/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter` — e.g. `BenchmarkId::new("locks", "Atomic")`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{parameter}", name.into()),
        }
    }

    /// Parameter-only id — e.g. `BenchmarkId::from_parameter(8)`.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// One benchmark's collected samples: total duration and iteration count
/// per sample.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    samples: Vec<(Duration, u64)>,
}

impl Samples {
    fn record(&mut self, elapsed: Duration, iters: u64) {
        self.samples.push((elapsed, iters));
    }

    /// Per-iteration nanoseconds of every sample.
    pub fn per_iter_nanos(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(d, n)| d.as_nanos() as f64 / *n as f64)
            .collect()
    }

    /// (min, mean, max) per-iteration nanoseconds, or `None` when empty.
    pub fn stats(&self) -> Option<(f64, f64, f64)> {
        let per = self.per_iter_nanos();
        if per.is_empty() {
            return None;
        }
        let min = per.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per.iter().copied().fold(0.0, f64::max);
        let mean = per.iter().sum::<f64>() / per.len() as f64;
        Some((min, mean, max))
    }
}

fn fmt_nanos(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.4} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.4} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.4} µs", ns / 1e3)
    } else {
        format!("{ns:.2} ns")
    }
}

/// Passed to every benchmark closure; collects timed samples.
pub struct Bencher<'a> {
    samples: &'a mut Samples,
    sample_count: usize,
    min_sample_time: Duration,
    time_budget: Duration,
}

impl Bencher<'_> {
    /// Time `f` repeatedly. The iteration count per sample is calibrated
    /// so a sample takes at least the configured minimum; the calibration
    /// run is kept as the first sample.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        let spent_start = Instant::now();
        let mut iters = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.min_sample_time || iters >= 1 << 20 {
                self.samples.record(elapsed, iters);
                break;
            }
            iters = iters.saturating_mul(2);
        }
        for _ in 1..self.sample_count {
            if spent_start.elapsed() > self.time_budget {
                break;
            }
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            self.samples.record(start.elapsed(), iters);
        }
    }

    /// Time `routine` on fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let spent_start = Instant::now();
        for i in 0..self.sample_count {
            if i > 0 && spent_start.elapsed() > self.time_budget {
                break;
            }
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.samples.record(start.elapsed(), 1);
        }
    }
}

/// Top-level runner handed to each `criterion_group!` function.
pub struct Criterion {
    default_sample_size: usize,
    min_sample_time: Duration,
    time_budget: Duration,
    benchmarks_run: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 10,
            min_sample_time: Duration::from_millis(1),
            time_budget: Duration::from_secs(3),
            benchmarks_run: 0,
        }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Run a stand-alone benchmark (no group).
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher<'_>),
    ) -> &mut Self {
        let sample_size = self.default_sample_size;
        self.run_one(None, id.into(), sample_size, f);
        self
    }

    fn run_one(
        &mut self,
        group: Option<&str>,
        id: BenchmarkId,
        sample_size: usize,
        mut f: impl FnMut(&mut Bencher<'_>),
    ) -> Samples {
        let mut samples = Samples::default();
        {
            let mut b = Bencher {
                samples: &mut samples,
                sample_count: sample_size.max(1),
                min_sample_time: self.min_sample_time,
                time_budget: self.time_budget,
            };
            f(&mut b);
        }
        let full_name = match group {
            Some(g) => format!("{g}/{}", id.id),
            None => id.id.clone(),
        };
        match samples.stats() {
            Some((min, mean, max)) => println!(
                "{full_name:<44} time: [{} {} {}]",
                fmt_nanos(min),
                fmt_nanos(mean),
                fmt_nanos(max)
            ),
            None => println!("{full_name:<44} time: [no samples]"),
        }
        self.benchmarks_run += 1;
        samples
    }

    /// Print a closing line; called by `criterion_main!`.
    pub fn final_summary(&self) {
        println!("\n{} benchmarks run", self.benchmarks_run);
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Override the number of samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnMut(&mut Bencher<'_>),
    ) -> &mut Self {
        let sample_size = self.sample_size.unwrap_or(self.c.default_sample_size);
        self.c
            .run_one(Some(&self.name.clone()), id.into(), sample_size, f);
        self
    }

    /// Close the group (printing happens per-benchmark; this exists for
    /// API compatibility).
    pub fn finish(self) {}
}

/// Define a benchmark group function, Criterion-style:
/// `criterion_group!(benches, bench_a, bench_b);`
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::microbench::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Define the bench binary's `main`, Criterion-style:
/// `criterion_main!(benches);`
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::microbench::Criterion::default();
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_calibrates_and_samples() {
        let mut c = Criterion {
            default_sample_size: 4,
            min_sample_time: Duration::from_micros(50),
            time_budget: Duration::from_secs(1),
            benchmarks_run: 0,
        };
        let mut calls = 0u64;
        let samples = c.run_one(None, BenchmarkId::from_parameter("spin"), 4, |b| {
            b.iter(|| {
                calls += 1;
                std::hint::black_box(calls)
            })
        });
        assert!(calls > 0);
        let (min, mean, max) = samples.stats().expect("samples collected");
        assert!(min <= mean && mean <= max);
        assert!(min > 0.0);
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut c = Criterion::default();
        let samples = c.run_one(None, BenchmarkId::new("batched", 1), 3, |b| {
            b.iter_batched(
                || vec![1.0f64; 64],
                |v| v.iter().sum::<f64>(),
                BatchSize::LargeInput,
            )
        });
        assert_eq!(samples.per_iter_nanos().len(), 3);
    }

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("locks", "Atomic").id, "locks/Atomic");
        assert_eq!(BenchmarkId::from_parameter(8).id, "8");
        assert_eq!(BenchmarkId::from("plain").id, "plain");
    }

    #[test]
    fn group_sample_size_applies() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.bench_function("f", |b| b.iter(|| 1 + 1));
        group.finish();
    }

    #[test]
    fn nanos_formatting_picks_units() {
        assert!(fmt_nanos(12.0).ends_with("ns"));
        assert!(fmt_nanos(12_000.0).ends_with("µs"));
        assert!(fmt_nanos(12_000_000.0).ends_with("ms"));
        assert!(fmt_nanos(2e9).ends_with(" s"));
    }
}
