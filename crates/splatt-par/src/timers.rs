//! Per-routine timer registry (SPLATT's `timers[TIMER_*]` table).
//!
//! Every number in the paper's Table III and Figures 5–8 is the accumulated
//! wall time of one CP-ALS routine over 20 iterations: MTTKRP, Sort,
//! `Mat A^TA`, `Mat norm`, `CPD fit`, and Inverse. [`TimerRegistry`] is the
//! instrument that produces those rows.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The routines SPLATT (and the paper) time individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Routine {
    /// The matricized tensor times Khatri-Rao product — the critical kernel.
    Mttkrp,
    /// Pre-processing sort of the tensor's nonzeros.
    Sort,
    /// Gram matrix products `A^T A` (Algorithm 1 lines 4/7/10).
    AtA,
    /// Column normalization of factor matrices (lines 6/9/12).
    MatNorm,
    /// Decomposition fit computation (line 13).
    Fit,
    /// Moore-Penrose inverse / normal-equation solve (`V†`).
    Inverse,
    /// Whole CP-ALS iteration loop (excludes I/O and CSF construction).
    CpdTotal,
}

impl Routine {
    /// All routines, in the column order of the paper's Table III.
    pub const ALL: [Routine; 7] = [
        Routine::Mttkrp,
        Routine::Sort,
        Routine::AtA,
        Routine::MatNorm,
        Routine::Fit,
        Routine::Inverse,
        Routine::CpdTotal,
    ];

    /// Column label as printed in the paper.
    pub fn label(self) -> &'static str {
        match self {
            Routine::Mttkrp => "MTTKRP",
            Routine::Sort => "Sort",
            Routine::AtA => "Mat A^TA",
            Routine::MatNorm => "Mat norm",
            Routine::Fit => "CPD fit",
            Routine::Inverse => "Inverse",
            Routine::CpdTotal => "CPD total",
        }
    }

    fn index(self) -> usize {
        match self {
            Routine::Mttkrp => 0,
            Routine::Sort => 1,
            Routine::AtA => 2,
            Routine::MatNorm => 3,
            Routine::Fit => 4,
            Routine::Inverse => 5,
            Routine::CpdTotal => 6,
        }
    }
}

/// Accumulating wall-clock timers, one per [`Routine`].
///
/// Nanosecond totals live in atomics so the registry is freely shared
/// (`&self`) across threads; individual routine sections are timed on the
/// calling thread only, like SPLATT's master-thread timers.
#[derive(Debug, Default)]
pub struct TimerRegistry {
    nanos: [AtomicU64; 7],
}

impl TimerRegistry {
    /// A registry with all timers at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time `f`, attributing its wall time to `which`, and return its result.
    pub fn time<R>(&self, which: Routine, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(which, start.elapsed());
        out
    }

    /// Add a pre-measured duration to `which`.
    pub fn add(&self, which: Routine, d: Duration) {
        self.nanos[which.index()].fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Accumulated time for `which`.
    pub fn get(&self, which: Routine) -> Duration {
        Duration::from_nanos(self.nanos[which.index()].load(Ordering::Relaxed))
    }

    /// Accumulated seconds for `which` (convenience for reports).
    pub fn seconds(&self, which: Routine) -> f64 {
        self.get(which).as_secs_f64()
    }

    /// Zero every timer.
    #[cfg(test)]
    pub(crate) fn reset(&self) {
        for n in &self.nanos {
            n.store(0, Ordering::Relaxed);
        }
    }
}

impl fmt::Display for TimerRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<10} {:>12}", "routine", "seconds")?;
        for r in Routine::ALL {
            writeln!(f, "{:<10} {:>12.4}", r.label(), self.seconds(r))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_start_at_zero() {
        let t = TimerRegistry::new();
        for r in Routine::ALL {
            assert_eq!(t.get(r), Duration::ZERO);
        }
    }

    #[test]
    fn time_accumulates_and_returns_value() {
        let t = TimerRegistry::new();
        let v = t.time(Routine::Sort, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(t.get(Routine::Sort) >= Duration::from_millis(4));
        assert_eq!(t.get(Routine::Mttkrp), Duration::ZERO);
    }

    #[test]
    fn add_accumulates_across_calls() {
        let t = TimerRegistry::new();
        t.add(Routine::Fit, Duration::from_millis(3));
        t.add(Routine::Fit, Duration::from_millis(4));
        assert_eq!(t.get(Routine::Fit), Duration::from_millis(7));
    }

    #[test]
    fn reset_zeroes_everything() {
        let t = TimerRegistry::new();
        t.add(Routine::Inverse, Duration::from_secs(1));
        t.reset();
        assert_eq!(t.get(Routine::Inverse), Duration::ZERO);
    }

    #[test]
    fn concurrent_adds_are_summed() {
        let t = TimerRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        t.add(Routine::Mttkrp, Duration::from_nanos(10));
                    }
                });
            }
        });
        assert_eq!(t.get(Routine::Mttkrp), Duration::from_nanos(4000));
    }

    #[test]
    fn display_mentions_all_labels() {
        let t = TimerRegistry::new();
        let s = format!("{t}");
        for r in Routine::ALL {
            assert!(s.contains(r.label()), "missing {}", r.label());
        }
    }
}
