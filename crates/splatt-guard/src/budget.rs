//! Allocation-traffic budgets over `splatt-probe`'s counters.
//!
//! The probe crate already meters the three allocation streams the
//! MTTKRP stack generates — row copies, access descriptors, and
//! privatized replica buffers — through process-global monotonic
//! counters. A [`MemoryBudget`] arms those counters and bounds the
//! *delta* since arming. Because the counters are monotonic traffic
//! totals (not live heap occupancy), the budget caps cumulative
//! allocation churn: a run that keeps copying rows or replicating
//! output will cross it, while a run that switches to in-place access
//! and the lock path generates almost none — which is exactly what the
//! `degrade` overrun policy exploits.

use splatt_probe::alloc::{self, AllocStats};

/// A cap on allocation traffic since the budget was armed.
#[derive(Debug)]
pub struct MemoryBudget {
    limit_bytes: u64,
    baseline: AllocStats,
    _recording: alloc::Recording,
}

impl MemoryBudget {
    /// Arm a budget of `limit_bytes`: the probe's allocation accounting
    /// records for as long as the budget lives.
    pub fn new(limit_bytes: u64) -> Self {
        let _recording = alloc::Recording::start();
        MemoryBudget {
            limit_bytes,
            baseline: alloc::snapshot(),
            _recording,
        }
    }

    /// The configured cap.
    pub fn limit_bytes(&self) -> u64 {
        self.limit_bytes
    }

    /// Allocation traffic since arming.
    pub fn used_bytes(&self) -> u64 {
        alloc::snapshot().since(&self.baseline).total_bytes()
    }

    /// `Some(used)` when traffic has crossed the cap.
    pub fn over_budget(&self) -> Option<u64> {
        let used = self.used_bytes();
        (used > self.limit_bytes).then_some(used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::ALLOC_TEST_SERIAL;

    #[test]
    fn budget_counts_traffic_from_its_own_baseline() {
        let _serial = ALLOC_TEST_SERIAL.lock();
        // Pre-existing traffic must not count against a budget armed
        // later.
        let _on = alloc::Recording::start();
        alloc::record_row_copy(4096);
        let budget = MemoryBudget::new(1024);
        assert_eq!(budget.used_bytes(), 0);
        assert!(budget.over_budget().is_none());

        alloc::record_row_copy(512);
        assert!(budget.used_bytes() >= 512);
        assert!(budget.over_budget().is_none());

        alloc::record_replica_growth(4096);
        let over = budget.over_budget().expect("traffic crossed the cap");
        assert!(over >= 4608);
    }

    #[test]
    fn all_three_streams_are_charged() {
        let _serial = ALLOC_TEST_SERIAL.lock();
        let budget = MemoryBudget::new(u64::MAX);
        alloc::record_row_copy(100);
        alloc::record_descriptor(200);
        alloc::record_replica_growth(300);
        assert!(budget.used_bytes() >= 600);
    }
}
