//! The three lock implementations compared in the paper's Figure 4.

use splatt_rt::sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};

/// A raw (unguarded) lock: the minimal interface SPLATT's `mutex_pool`
/// needs — `set` and `unset` in the paper's Listing 6 terminology.
pub(crate) trait RawLock: Send + Sync + Default {
    /// Acquire the lock, blocking (by spinning or parking) until available.
    fn lock(&self);
    /// Release the lock.
    ///
    /// Must only be called by the owner of a matching [`RawLock::lock`].
    fn unlock(&self);
    /// Try to acquire without blocking; `true` on success.
    fn try_lock(&self) -> bool;
    /// Acquire like [`RawLock::lock`], returning how many failed
    /// acquisition attempts (CAS/test-and-set iterations, or park rounds
    /// for sleeping locks) were observed. Used by instrumented lock pools;
    /// strategies without visibility into their wait loop report 0.
    fn lock_counting(&self) -> u64 {
        self.lock();
        0
    }
}

/// Runtime-selectable lock strategy, mirroring the paper's three
/// configurations (Figure 4: `Sync`, `Atomic`, `FIFO-sync`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LockStrategy {
    /// Atomic test-and-set spin lock with yield backoff — the paper's
    /// winning `atomic bool` implementation (Listing 6).
    #[default]
    Spin,
    /// Park-immediately sleeping lock — Chapel `sync` variables under
    /// Qthreads, the configuration that destroyed YELP scalability.
    Sleep,
    /// OS-adaptive mutex (brief spin, then park) — the `fifo` tasking layer
    /// implementation of `sync` variables, found competitive with `Spin`.
    Os,
}

impl LockStrategy {
    /// All strategies, in the order plotted in Figure 4.
    pub const ALL: [LockStrategy; 3] = [LockStrategy::Sleep, LockStrategy::Spin, LockStrategy::Os];

    /// Display label matching the paper's figure legend.
    pub fn label(self) -> &'static str {
        match self {
            LockStrategy::Spin => "Atomic",
            LockStrategy::Sleep => "Sync",
            LockStrategy::Os => "FIFO-sync",
        }
    }
}

/// Test-and-set spin lock (paper Listing 6).
///
/// `lock` spins on `testAndSet`, yielding to the scheduler between
/// attempts exactly as the Chapel code calls `chpl_task_yield()`. Suited
/// to the MTTKRP's short, low-contention critical sections.
#[derive(Default)]
pub(crate) struct SpinLock {
    flag: AtomicBool,
}

impl RawLock for SpinLock {
    #[inline]
    fn lock(&self) {
        // `swap(true, Acquire)` is testAndSet: returns the previous value.
        while self.flag.swap(true, Ordering::Acquire) {
            // Spin politely: on contended paths give other tasks a chance
            // to run, like `chpl_task_yield()`.
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    }

    #[inline]
    fn unlock(&self) {
        self.flag.store(false, Ordering::Release);
    }

    #[inline]
    fn try_lock(&self) -> bool {
        !self.flag.swap(true, Ordering::Acquire)
    }

    #[inline]
    fn lock_counting(&self) -> u64 {
        let mut spins = 0u64;
        while self.flag.swap(true, Ordering::Acquire) {
            spins += 1;
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        spins
    }
}

/// Chapel-`sync`-variable lock under the Qthreads cost model.
///
/// A `sync bool` starts *full*; acquiring reads it (leaving it *empty*),
/// releasing writes it (making it *full* again). Under Qthreads a task
/// that finds the variable empty is put to sleep, so contended acquires
/// always pay a park/unpark round trip. We reproduce that by parking on a
/// condition variable without any spinning.
pub(crate) struct SleepLock {
    /// `true` = full (lock available), `false` = empty (held).
    state: Mutex<bool>,
    cv: Condvar,
}

impl Default for SleepLock {
    fn default() -> Self {
        SleepLock {
            state: Mutex::new(true),
            cv: Condvar::new(),
        }
    }
}

impl RawLock for SleepLock {
    fn lock(&self) {
        let mut full = self.state.lock();
        while !*full {
            // Park unconditionally — the Qthreads sync-variable behaviour
            // the paper identified as the scalability killer.
            self.cv.wait(&mut full);
        }
        *full = false;
    }

    fn unlock(&self) {
        let mut full = self.state.lock();
        *full = true;
        // Wake one sleeper, as writing a sync var wakes one blocked reader.
        self.cv.notify_one();
    }

    fn try_lock(&self) -> bool {
        let mut full = self.state.lock();
        if *full {
            *full = false;
            true
        } else {
            false
        }
    }

    fn lock_counting(&self) -> u64 {
        let mut parks = 0u64;
        let mut full = self.state.lock();
        while !*full {
            parks += 1;
            self.cv.wait(&mut full);
        }
        *full = false;
        parks
    }
}

/// OS-adaptive mutex: spins briefly, then parks.
///
/// Stands in for `sync` variables under Chapel's `fifo` tasking layer,
/// which the paper measured as competitive with the atomic spin lock
/// because that layer implements `sync` with spin-wait-like behaviour.
#[derive(Default)]
pub(crate) struct OsLock {
    inner: Mutex<()>,
}

impl RawLock for OsLock {
    #[inline]
    fn lock(&self) {
        // The guard-based mutex has no separate raw-lock handle; leak the
        // guard logically by forgetting it and release via force_unlock.
        std::mem::forget(self.inner.lock());
    }

    #[inline]
    fn unlock(&self) {
        // SAFETY: RawLock's contract requires unlock() only after a
        // matching lock() by the owner, so the mutex is held here.
        unsafe { self.inner.force_unlock() };
    }

    #[inline]
    fn try_lock(&self) -> bool {
        match self.inner.try_lock() {
            Some(guard) => {
                std::mem::forget(guard);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn exercise_mutual_exclusion<L: RawLock + 'static>() {
        const THREADS: usize = 4;
        const ITERS: usize = 5_000;
        let lock = Arc::new(L::default());
        // A read-modify-write done as separate load and store: updates are
        // lost under concurrent access unless the lock provides mutual
        // exclusion, so the final count detects exclusion violations.
        let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));

        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for _ in 0..ITERS {
                        lock.lock();
                        let v = counter.load(Ordering::Relaxed);
                        std::hint::black_box(v);
                        counter.store(v + 1, Ordering::Relaxed);
                        lock.unlock();
                    }
                });
            }
        });
        assert_eq!(
            counter.load(Ordering::Relaxed),
            THREADS * ITERS,
            "updates were lost: lock failed to provide mutual exclusion"
        );
    }

    #[test]
    fn spin_lock_mutual_exclusion() {
        exercise_mutual_exclusion::<SpinLock>();
    }

    #[test]
    fn sleep_lock_mutual_exclusion() {
        exercise_mutual_exclusion::<SleepLock>();
    }

    #[test]
    fn os_lock_mutual_exclusion() {
        exercise_mutual_exclusion::<OsLock>();
    }

    fn exercise_try_lock<L: RawLock>() {
        let lock = L::default();
        assert!(lock.try_lock());
        assert!(!lock.try_lock(), "second try_lock must fail while held");
        lock.unlock();
        assert!(lock.try_lock());
        lock.unlock();
    }

    #[test]
    fn spin_try_lock_semantics() {
        exercise_try_lock::<SpinLock>();
    }

    #[test]
    fn sleep_try_lock_semantics() {
        exercise_try_lock::<SleepLock>();
    }

    #[test]
    fn os_try_lock_semantics() {
        exercise_try_lock::<OsLock>();
    }

    #[test]
    fn sleep_lock_wakes_parked_waiter() {
        let lock = Arc::new(SleepLock::default());
        lock.lock();
        let l2 = Arc::clone(&lock);
        let waiter = std::thread::spawn(move || {
            l2.lock(); // parks until main unlocks
            l2.unlock();
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        lock.unlock();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn strategy_labels_match_figure4_legend() {
        assert_eq!(LockStrategy::Spin.label(), "Atomic");
        assert_eq!(LockStrategy::Sleep.label(), "Sync");
        assert_eq!(LockStrategy::Os.label(), "FIFO-sync");
        assert_eq!(LockStrategy::ALL.len(), 3);
    }
}
