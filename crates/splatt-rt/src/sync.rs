//! Mutex / condvar / cache-padding primitives.
//!
//! The mutex follows the `parking_lot` shape rather than `std`'s: no
//! poisoning, `try_lock` returns an `Option`, `get_mut` gives direct access
//! through `&mut self`, and `force_unlock` releases a lock whose guard was
//! deliberately forgotten (used by the adaptive OS-lock strategy). The
//! implementation is a test-and-set fast path with a brief spin, falling
//! back to a std mutex/condvar parking lot shared by all waiters.

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Spin iterations before a contended `lock()` parks on the OS.
const SPIN_LIMIT: u32 = 100;

struct RawMutex {
    locked: AtomicBool,
    waiters: AtomicUsize,
    park: std::sync::Mutex<()>,
    cv: std::sync::Condvar,
}

impl RawMutex {
    const fn new() -> Self {
        RawMutex {
            locked: AtomicBool::new(false),
            waiters: AtomicUsize::new(0),
            park: std::sync::Mutex::new(()),
            cv: std::sync::Condvar::new(),
        }
    }

    #[inline]
    fn try_lock(&self) -> bool {
        !self.locked.swap(true, Ordering::Acquire)
    }

    fn lock(&self) {
        for _ in 0..SPIN_LIMIT {
            if self.try_lock() {
                return;
            }
            std::hint::spin_loop();
        }
        self.lock_slow();
    }

    /// The waiter's half of the `waiters` handshake with [`Self::unlock`].
    ///
    /// Each side is a store then a load on two different atomics: the
    /// waiter counts itself in `waiters`, then tries `locked`; the
    /// unlocker clears `locked`, then reads `waiters`. All four accesses
    /// are `SeqCst`, so they sit in one total order that keeps each
    /// side's program order. If the unlocker's read of `waiters` comes
    /// first in it, its store to `locked` comes before the waiter's swap,
    /// which then sees the lock free (or taken by a thread whose own
    /// unlock repeats this argument). Otherwise the read sees the waiter
    /// counted and notifies under `park`, where the waiter checks and
    /// sleeps. With a `Release` store, the unlocker's read could pass its
    /// store and see no waiter while the waiter still sees the lock held:
    /// that waiter would sleep until some later unlock.
    #[cold]
    fn lock_slow(&self) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        {
            let mut guard = self.park.lock().unwrap_or_else(|e| e.into_inner());
            while self.locked.swap(true, Ordering::SeqCst) {
                guard = self.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Release; wakes one parked waiter if any counted itself (the
    /// handshake is argued at [`Self::lock_slow`]).
    #[inline]
    fn unlock(&self) {
        self.locked.store(false, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _guard = self.park.lock().unwrap_or_else(|e| e.into_inner());
            self.cv.notify_one();
        }
    }
}

/// A `parking_lot`-style mutex: no poisoning, guard-based unlock, plus
/// `force_unlock` for callers that `mem::forget` the guard.
pub struct Mutex<T: ?Sized> {
    raw: RawMutex,
    data: UnsafeCell<T>,
}

unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            raw: RawMutex::new(),
            data: UnsafeCell::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.raw.lock();
        MutexGuard {
            lock: self,
            _not_send: PhantomData,
        }
    }

    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if self.raw.try_lock() {
            Some(MutexGuard {
                lock: self,
                _not_send: PhantomData,
            })
        } else {
            None
        }
    }

    /// Direct access through an exclusive reference — no locking needed.
    #[inline]
    pub fn get_mut(&mut self) -> &mut T {
        unsafe { &mut *self.data.get() }
    }

    /// Release a lock whose guard was forgotten.
    ///
    /// # Safety
    /// The mutex must be held, and no guard for it may still be live.
    pub unsafe fn force_unlock(&self) {
        self.raw.unlock();
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    _not_send: PhantomData<*const ()>,
}

unsafe impl<T: ?Sized + Sync> Sync for MutexGuard<'_, T> {}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.raw.unlock();
    }
}

/// A condition variable usable with [`Mutex`], in the `parking_lot` style:
/// `wait` takes `&mut MutexGuard` and reacquires before returning.
///
/// Spurious wakeups are possible (all callers loop on their predicate).
pub struct Condvar {
    generation: std::sync::Mutex<u64>,
    cv: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            generation: std::sync::Mutex::new(0),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Atomically release the guard's mutex and wait for a notification,
    /// then reacquire the mutex.
    pub fn wait<T: ?Sized>(&self, guard: &mut MutexGuard<'_, T>) {
        let mutex = guard.lock;
        let start = *self.generation.lock().unwrap_or_else(|e| e.into_inner());
        mutex.raw.unlock();
        {
            let mut gen = self.generation.lock().unwrap_or_else(|e| e.into_inner());
            // One bounded wait: a notify between our unlock and this point
            // bumped the generation, so we never sleep through it.
            if *gen == start {
                gen = self.cv.wait(gen).unwrap_or_else(|e| e.into_inner());
                drop(gen);
            }
        }
        mutex.raw.lock();
    }

    pub fn notify_one(&self) {
        let mut gen = self.generation.lock().unwrap_or_else(|e| e.into_inner());
        *gen = gen.wrapping_add(1);
        self.cv.notify_one();
    }

    pub fn notify_all(&self) {
        let mut gen = self.generation.lock().unwrap_or_else(|e| e.into_inner());
        *gen = gen.wrapping_add(1);
        self.cv.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

/// Pads and aligns a value to (at least) a cache-line boundary so adjacent
/// per-thread slots never share a line. 128 bytes covers the common
/// prefetch-pair granularity on x86 and the 128-byte lines on newer ARM.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.value.fmt(f)
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        CachePadded::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(5usize);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert!(m.try_lock().is_some());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        let mut m = m;
        *m.get_mut() = 42;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn mutex_contended_counts() {
        let m = Arc::new(Mutex::new(0u64));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*m.lock(), 80_000);
    }

    #[test]
    fn force_unlock_roundtrip() {
        let m = Mutex::new(());
        std::mem::forget(m.lock());
        assert!(m.try_lock().is_none());
        unsafe { m.force_unlock() };
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_signals() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }

    #[test]
    fn cache_padded_alignment() {
        assert!(std::mem::align_of::<CachePadded<u8>>() >= 128);
        let slots: Vec<CachePadded<u64>> = (0..4).map(CachePadded::new).collect();
        assert_eq!(*slots[3], 3);
    }
}
