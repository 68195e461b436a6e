//! Lock-pool contention counters: how the pool records into the
//! [`LockCounters`] set, and what its [`LockStats`] snapshot derives.

use crate::counters::{LockCounters, LockStats};
use std::sync::atomic::Ordering;
use std::time::Duration;

impl LockCounters {
    /// An acquisition that succeeded on the first try.
    #[inline]
    pub fn record_uncontended(&self) {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
    }

    /// An acquisition that had to spin and/or park. `spins` counts failed
    /// CAS / test-and-set iterations (or park rounds for sleeping locks).
    #[inline]
    pub fn record_contended(&self, spins: u64, waited: Duration) {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        self.contended.fetch_add(1, Ordering::Relaxed);
        self.spin_iters.fetch_add(spins, Ordering::Relaxed);
        self.wait_nanos
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_release(&self) {
        self.releases.fetch_add(1, Ordering::Relaxed);
    }
}

impl LockStats {
    /// Fraction of acquisitions that found the lock held.
    pub fn contention_rate(&self) -> f64 {
        if self.acquisitions == 0 {
            0.0
        } else {
            self.contended as f64 / self.acquisitions as f64
        }
    }

    /// Quiescent self-consistency: every acquisition has been released.
    pub fn is_balanced(&self) -> bool {
        self.acquisitions == self.releases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roundtrip() {
        let c = LockCounters::new();
        c.record_uncontended();
        c.record_contended(17, Duration::from_nanos(500));
        c.record_release();
        c.record_release();
        let s = c.snapshot();
        assert_eq!(s.acquisitions, 2);
        assert_eq!(s.contended, 1);
        assert_eq!(s.releases, 2);
        assert_eq!(s.spin_iters, 17);
        assert_eq!(s.wait_nanos, 500);
        assert!(s.is_balanced());
        assert!((s.contention_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_rate_is_zero() {
        assert_eq!(LockStats::default().contention_rate(), 0.0);
    }
}
