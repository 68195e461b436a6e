//! A pool of cache-padded locks hashed by resource id (SPLATT's
//! `mutex_pool`).
//!
//! The MTTKRP's lock-based kernels protect *rows* of the output factor
//! matrix, but a lock per row would be absurd for a 75 000-row mode, so
//! SPLATT hashes row ids into a fixed pool. Each lock is padded to its own
//! cache line — with very short critical sections, false sharing between
//! adjacent pool slots would otherwise dominate.

use crate::raw::{LockStrategy, OsLock, RawLock, SleepLock, SpinLock};
use splatt_probe::LockCounters;
use splatt_rt::sync::CachePadded;
use std::sync::Arc;
use std::time::Instant;

/// Default number of locks in a pool, matching SPLATT's `DEFAULT_NLOCKS`.
pub const DEFAULT_POOL_SIZE: usize = 1024;

enum Slots {
    Spin(Vec<CachePadded<SpinLock>>),
    Sleep(Vec<CachePadded<SleepLock>>),
    Os(Vec<CachePadded<OsLock>>),
}

/// A pool of `nlocks` locks of a runtime-chosen [`LockStrategy`], indexed
/// by an arbitrary resource id (e.g. an output-matrix row).
///
/// ```
/// use splatt_locks::{LockPool, LockStrategy};
///
/// let pool = LockPool::new(LockStrategy::Spin, 64);
/// {
///     let _guard = pool.lock(12345); // guards every id hashing to the slot
///     // ... update row 12345 ...
/// } // released on drop
/// ```
pub struct LockPool {
    slots: Slots,
    /// `nlocks - 1`; pool sizes are rounded up to a power of two so the
    /// hash is a mask instead of a modulo.
    mask: usize,
    /// Optional contention counters; `None` (the default) keeps the
    /// acquire path branch-only.
    counters: Option<Arc<LockCounters>>,
}

fn padded<L: RawLock>(n: usize) -> Vec<CachePadded<L>> {
    (0..n).map(|_| CachePadded::new(L::default())).collect()
}

impl LockPool {
    /// Create a pool of at least `nlocks` locks (rounded up to a power of
    /// two) using `strategy`.
    ///
    /// # Panics
    /// Panics if `nlocks == 0`.
    pub fn new(strategy: LockStrategy, nlocks: usize) -> Self {
        assert!(nlocks > 0, "LockPool requires at least one lock");
        let n = nlocks.next_power_of_two();
        let slots = match strategy {
            LockStrategy::Spin => Slots::Spin(padded(n)),
            LockStrategy::Sleep => Slots::Sleep(padded(n)),
            LockStrategy::Os => Slots::Os(padded(n)),
        };
        LockPool {
            slots,
            mask: n - 1,
            counters: None,
        }
    }

    /// Attach (or detach) contention counters. While attached, every
    /// acquisition through [`LockPool::lock`] records acquisition/contention/spin/wait statistics into `counters`.
    pub fn set_counters(&mut self, counters: Option<Arc<LockCounters>>) {
        self.counters = counters;
    }

    /// The attached contention counters, if any.
    pub fn counters(&self) -> Option<&Arc<LockCounters>> {
        self.counters.as_ref()
    }

    /// Number of locks in the pool.
    pub fn nlocks(&self) -> usize {
        self.mask + 1
    }

    /// The strategy this pool was built with.
    pub fn strategy(&self) -> LockStrategy {
        match self.slots {
            Slots::Spin(_) => LockStrategy::Spin,
            Slots::Sleep(_) => LockStrategy::Sleep,
            Slots::Os(_) => LockStrategy::Os,
        }
    }

    #[inline]
    fn slot(&self, id: usize) -> usize {
        id & self.mask
    }

    /// Acquire the lock guarding resource `id`, returning an RAII guard.
    ///
    /// Distinct ids may hash to the same lock (by design); the guard's
    /// mutual exclusion covers every id in the same hash class.
    #[inline]
    pub fn lock(&self, id: usize) -> LockPoolGuard<'_> {
        let slot = self.slot(id);
        match &self.counters {
            None => self.lock_slot(slot),
            Some(counters) => Self::lock_slot_counting(&self.slots, slot, counters),
        }
        LockPoolGuard { pool: self, slot }
    }

    #[inline]
    fn lock_slot(&self, slot: usize) {
        match &self.slots {
            Slots::Spin(v) => v[slot].lock(),
            Slots::Sleep(v) => v[slot].lock(),
            Slots::Os(v) => v[slot].lock(),
        }
    }

    /// Instrumented acquire: try once, and only on failure start the clock
    /// and fall into the counting slow path.
    #[cold]
    fn lock_slot_counting(slots: &Slots, slot: usize, counters: &LockCounters) {
        fn go<L: RawLock>(lock: &L, counters: &LockCounters) {
            if lock.try_lock() {
                counters.record_uncontended();
                return;
            }
            let start = Instant::now();
            let spins = lock.lock_counting();
            // The failed try_lock above was one acquisition attempt too.
            counters.record_contended(spins + 1, start.elapsed());
        }
        match slots {
            Slots::Spin(v) => go(&*v[slot], counters),
            Slots::Sleep(v) => go(&*v[slot], counters),
            Slots::Os(v) => go(&*v[slot], counters),
        }
    }

    #[inline]
    fn unlock_slot(&self, slot: usize) {
        match &self.slots {
            Slots::Spin(v) => v[slot].unlock(),
            Slots::Sleep(v) => v[slot].unlock(),
            Slots::Os(v) => v[slot].unlock(),
        }
        if let Some(counters) = &self.counters {
            counters.record_release();
        }
    }
}

/// RAII guard returned by [`LockPool::lock`]; releases on drop.
pub struct LockPoolGuard<'a> {
    pool: &'a LockPool,
    slot: usize,
}

impl Drop for LockPoolGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.pool.unlock_slot(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn size_rounds_to_power_of_two() {
        let p = LockPool::new(LockStrategy::Spin, 1000);
        assert_eq!(p.nlocks(), 1024);
        let p = LockPool::new(LockStrategy::Spin, 1);
        assert_eq!(p.nlocks(), 1);
    }

    #[test]
    fn strategy_is_preserved() {
        for s in LockStrategy::ALL {
            assert_eq!(LockPool::new(s, 8).strategy(), s);
        }
    }

    #[test]
    fn same_id_same_slot_excludes() {
        let pool = LockPool::new(LockStrategy::Spin, 4);
        let g = pool.lock(7);
        // id 7 and id 3 share slot 3 in a 4-lock pool
        // try a concurrent locker of the aliasing id; it must not finish
        // until we drop the guard.
        let pool2 = &pool;
        let acquired = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|sc| {
            sc.spawn(|| {
                let _g2 = pool2.lock(3);
                acquired.store(true, std::sync::atomic::Ordering::SeqCst);
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!acquired.load(std::sync::atomic::Ordering::SeqCst));
            drop(g);
        });
        assert!(acquired.load(std::sync::atomic::Ordering::SeqCst));
    }

    #[test]
    fn different_slots_do_not_block() {
        let pool = LockPool::new(LockStrategy::Os, 8);
        let _g0 = pool.lock(0);
        let _g1 = pool.lock(1); // different slot: must not deadlock
    }

    fn stress(strategy: LockStrategy) {
        const THREADS: usize = 4;
        const ROWS: usize = 64;
        const ITERS: usize = 2_000;
        let pool = Arc::new(LockPool::new(strategy, 16));

        struct Share(Vec<std::cell::UnsafeCell<usize>>);
        // SAFETY: every cell is only mutated under the lock-pool slot that
        // guards its row, which is exactly what this test verifies.
        unsafe impl Send for Share {}
        unsafe impl Sync for Share {}
        let share = Arc::new(Share(
            (0..ROWS).map(|_| std::cell::UnsafeCell::new(0)).collect(),
        ));

        std::thread::scope(|s| {
            for t in 0..THREADS {
                let pool = Arc::clone(&pool);
                let share = Arc::clone(&share);
                s.spawn(move || {
                    for i in 0..ITERS {
                        let row = (i * 31 + t * 7) % ROWS;
                        let _g = pool.lock(row);
                        unsafe {
                            *share.0[row].get() += 1;
                        }
                    }
                });
            }
        });
        let total: usize = share.0.iter().map(|c| unsafe { *c.get() }).sum();
        assert_eq!(total, THREADS * ITERS);
    }

    #[test]
    fn pool_stress_spin() {
        stress(LockStrategy::Spin);
    }

    #[test]
    fn pool_stress_sleep() {
        stress(LockStrategy::Sleep);
    }

    #[test]
    fn pool_stress_os() {
        stress(LockStrategy::Os);
    }

    #[test]
    #[should_panic(expected = "at least one lock")]
    fn zero_locks_panics() {
        let _ = LockPool::new(LockStrategy::Spin, 0);
    }

    #[test]
    fn counters_track_acquisitions_and_releases() {
        for strategy in LockStrategy::ALL {
            let mut pool = LockPool::new(strategy, 4);
            let counters = Arc::new(splatt_probe::LockCounters::new());
            pool.set_counters(Some(Arc::clone(&counters)));
            assert!(pool.counters().is_some());
            for id in 0..10 {
                drop(pool.lock(id));
            }
            let stats = counters.snapshot();
            assert_eq!(stats.acquisitions, 10, "{strategy:?}");
            assert_eq!(stats.releases, 10, "{strategy:?}");
            assert!(stats.is_balanced());
            // single-threaded: nothing was ever contended
            assert_eq!(stats.contended, 0, "{strategy:?}");
            assert_eq!(stats.wait_nanos, 0, "{strategy:?}");
        }
    }

    #[test]
    fn counters_observe_contention() {
        // Deterministic contention (robust on single-core hosts): hold the
        // only slot while a second thread tries to acquire it.
        for strategy in LockStrategy::ALL {
            let mut pool = LockPool::new(strategy, 1);
            let counters = Arc::new(splatt_probe::LockCounters::new());
            pool.set_counters(Some(Arc::clone(&counters)));
            let guard = pool.lock(0);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _g = pool.lock(0); // blocks until main drops `guard`
                });
                std::thread::sleep(std::time::Duration::from_millis(20));
                drop(guard);
            });
            let stats = counters.snapshot();
            assert_eq!(stats.acquisitions, 2, "{strategy:?}");
            assert!(stats.is_balanced(), "{strategy:?}");
            assert_eq!(stats.contended, 1, "{strategy:?}");
            assert!(stats.spin_iters >= 1, "{strategy:?}");
            // waited roughly the sleep above; allow wide slack
            assert!(
                stats.wait_nanos > 1_000_000,
                "{strategy:?}: {}",
                stats.wait_nanos
            );
        }
    }
}
