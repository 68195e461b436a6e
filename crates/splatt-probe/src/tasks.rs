//! Per-thread work/time histograms.

use splatt_rt::sync::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

#[derive(Debug, Default)]
struct TaskSlot {
    nanos: AtomicU64,
    invocations: AtomicU64,
    items: AtomicU64,
}

/// Per-thread busy-time accumulators, one cache line per task id.
/// Recorded by `TaskTeam::coforall_timed`; snapshot as `ThreadLoad`.
#[derive(Debug)]
pub struct TaskTimes {
    slots: Vec<CachePadded<TaskSlot>>,
}

impl TaskTimes {
    pub fn new(ntasks: usize) -> Self {
        let mut slots = Vec::with_capacity(ntasks.max(1));
        slots.resize_with(ntasks.max(1), CachePadded::default);
        TaskTimes { slots }
    }

    pub fn ntasks(&self) -> usize {
        self.slots.len()
    }

    /// Record one timed region on `tid`. `items` is a caller-defined work
    /// measure (slices processed, rows updated, ...).
    #[inline]
    pub fn record(&self, tid: usize, busy: Duration, items: u64) {
        let slot = &self.slots[tid];
        slot.nanos
            .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        slot.invocations.fetch_add(1, Ordering::Relaxed);
        slot.items.fetch_add(items, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> ThreadLoad {
        ThreadLoad {
            threads: self
                .slots
                .iter()
                .enumerate()
                .map(|(tid, s)| ThreadLoadRow {
                    tid,
                    nanos: s.nanos.load(Ordering::Relaxed),
                    invocations: s.invocations.load(Ordering::Relaxed),
                    items: s.items.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    #[cfg(test)]
    pub(crate) fn reset(&self) {
        for s in &self.slots {
            s.nanos.store(0, Ordering::Relaxed);
            s.invocations.store(0, Ordering::Relaxed);
            s.items.store(0, Ordering::Relaxed);
        }
    }
}

/// One thread's accumulated totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadLoadRow {
    pub tid: usize,
    pub nanos: u64,
    pub invocations: u64,
    pub items: u64,
}

impl ThreadLoadRow {
    pub(crate) fn seconds(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }
}

/// Snapshot of every thread's totals, with imbalance statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadLoad {
    pub threads: Vec<ThreadLoadRow>,
}

impl ThreadLoad {
    /// Sum of per-thread busy nanoseconds.
    pub fn busy_nanos(&self) -> u64 {
        self.threads.iter().map(|t| t.nanos).sum()
    }

    /// Load imbalance as max/mean of per-thread busy time: 1.0 is perfectly
    /// balanced; the classic metric for coforall-style static partitions.
    pub fn imbalance(&self) -> f64 {
        if self.threads.is_empty() {
            return 1.0;
        }
        let max = self.threads.iter().map(|t| t.nanos).max().unwrap_or(0) as f64;
        let mean = self.busy_nanos() as f64 / self.threads.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let t = TaskTimes::new(3);
        t.record(0, Duration::from_nanos(100), 5);
        t.record(0, Duration::from_nanos(50), 3);
        t.record(2, Duration::from_nanos(150), 7);
        let snap = t.snapshot();
        assert_eq!(snap.threads.len(), 3);
        assert_eq!(snap.threads[0].nanos, 150);
        assert_eq!(snap.threads[0].invocations, 2);
        assert_eq!(snap.threads[0].items, 8);
        assert_eq!(snap.threads[1].nanos, 0);
        assert_eq!(snap.busy_nanos(), 300);
        // mean = 100, max = 150 -> imbalance 1.5
        assert!((snap.imbalance() - 1.5).abs() < 1e-12);
        t.reset();
        assert_eq!(t.snapshot().busy_nanos(), 0);
    }

    #[test]
    fn empty_and_idle_imbalance() {
        assert_eq!(ThreadLoad::default().imbalance(), 1.0);
        assert_eq!(TaskTimes::new(4).snapshot().imbalance(), 1.0);
    }

    #[test]
    fn zero_tasks_clamps_to_one_slot() {
        let t = TaskTimes::new(0);
        assert_eq!(t.ntasks(), 1);
    }
}
