//! Process-global allocation accounting for the hot access paths.
//!
//! The Chapel port's headline pathology is the "18x slice overhead": every
//! factor-row access through a slice allocates a descriptor and copies the
//! row. These counters quantify that in our reproduction's `RowCopy`
//! access variant, plus the privatization side of the tradeoff (replica
//! buffer bytes and reduction passes).
//!
//! The counters are process-global statics so the innermost kernels don't
//! need a threaded-through handle; recording is gated on one relaxed
//! load, which keeps the disabled path to a predictable branch (the
//! row-copy path it instruments performs a heap allocation per call, so
//! the load is noise even when enabled). Recording is on while any
//! [`Recording`] guard lives, so two profiled runs in one process cannot
//! switch it off under each other. They share the counters — take
//! [`snapshot`] deltas around the region of interest, as `cp_als` does.
//!
//! Those counters see the allocations the kernels announce. What a test
//! needs when it bounds *every* allocation of a code region — a decoder
//! fed untrusted bytes — is [`CountingAlloc`], at the bottom of this
//! file.

use crate::counters::AllocCounters;
pub use crate::counters::AllocStats;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live [`Recording`] guards.
static RECORDERS: AtomicUsize = AtomicUsize::new(0);

static COUNTERS: AllocCounters = AllocCounters::new();

/// Allocation recording, on while any guard lives: a profiled run, a
/// memory budget and a test that reads the counters each hold one, and
/// dropping one never turns off another's.
#[derive(Debug)]
#[must_use = "recording stops when the guard is dropped"]
pub struct Recording(());

impl Recording {
    /// Turn recording on until the returned guard is dropped.
    pub fn start() -> Recording {
        RECORDERS.fetch_add(1, Ordering::Relaxed);
        Recording(())
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        RECORDERS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Is any [`Recording`] guard alive?
#[inline]
pub(crate) fn enabled() -> bool {
    RECORDERS.load(Ordering::Relaxed) > 0
}

/// One factor-row copy of `bytes` bytes (RowCopy access variant).
#[inline]
pub fn record_row_copy(bytes: usize) {
    if enabled() {
        COUNTERS.row_copies.fetch_add(1, Ordering::Relaxed);
        COUNTERS
            .row_copy_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// One slice-descriptor allocation of `bytes` bytes.
#[inline]
pub fn record_descriptor(bytes: usize) {
    if enabled() {
        COUNTERS.descriptor_allocs.fetch_add(1, Ordering::Relaxed);
        COUNTERS
            .descriptor_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// A privatized MTTKRP *grew* its per-task replica buffers by `bytes`.
/// Replicas are grow-only workspace scratch, so this fires on the first
/// call (and on rank/dim increases) and stays silent in steady state —
/// a nonzero delta across a steady-state window is a hot-loop allocation
/// regression.
#[inline]
pub fn record_replica_growth(bytes: usize) {
    if enabled() {
        COUNTERS
            .replica_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// One reduction pass over the per-task replicas.
#[inline]
pub fn record_replica_reduction() {
    if enabled() {
        COUNTERS.replica_reductions.fetch_add(1, Ordering::Relaxed);
    }
}

/// The per-task kernel walk arenas grew by `bytes` (grow-only, like
/// replicas: silent in steady state).
#[inline]
pub fn record_kernel_scratch(bytes: usize) {
    if enabled() {
        COUNTERS
            .kernel_scratch_allocs
            .fetch_add(1, Ordering::Relaxed);
        COUNTERS
            .kernel_scratch_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

impl AllocStats {
    /// Total bytes across the traffic streams (everything except
    /// reduction-pass counts, which are not allocations) — the quantity
    /// a memory budget bounds. A steady-state MTTKRP window — warm
    /// workspace, unchanged shapes — must report zero here for the
    /// slice-based access strategies.
    pub fn total_bytes(&self) -> u64 {
        self.row_copy_bytes
            .wrapping_add(self.descriptor_bytes)
            .wrapping_add(self.replica_bytes)
            .wrapping_add(self.kernel_scratch_bytes)
    }

    /// Allocation *events* in the hot path (copies, descriptors, scratch
    /// growths — replica growth is byte-only and covered by
    /// [`AllocStats::total_bytes`]).
    pub fn hot_loop_allocs(&self) -> u64 {
        self.row_copies
            .wrapping_add(self.descriptor_allocs)
            .wrapping_add(self.kernel_scratch_allocs)
    }
}

/// Point-in-time copy of the global counters.
pub fn snapshot() -> AllocStats {
    COUNTERS.snapshot()
}

thread_local! {
    /// Heap bytes the current thread has requested through
    /// [`CountingAlloc`]. A `Cell` of a plain integer: no lazy
    /// initializer and no destructor, so reading it from inside the
    /// allocator cannot itself allocate or run after teardown.
    static THREAD_HEAP_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator with a per-thread count of the bytes requested
/// from it — the heap-side hook, for tests that must *assert* an
/// allocation bound ("decoding these bytes allocated at most a small
/// multiple of them") instead of eyeballing one. A test binary opts in
/// with `#[global_allocator] static HEAP: CountingAlloc = CountingAlloc;`
/// and reads [`thread_heap_bytes`] around the region of interest; being
/// per thread, the count is exact under a parallel test harness. No
/// product binary installs it.
pub struct CountingAlloc;

fn count_heap_bytes(bytes: usize) {
    // `try_with`: a thread's last frees can run during its teardown.
    let _ = THREAD_HEAP_BYTES.try_with(|b| b.set(b.get().wrapping_add(bytes as u64)));
}

// SAFETY: every method hands its arguments, unchanged, to the same
// method of `System` and returns what `System` returned, so each
// `GlobalAlloc` contract is `System`'s own; the counting beside the
// call touches only a thread-local integer and neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_heap_bytes(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_heap_bytes(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grown block counts for its growth: the old bytes were
        // counted when they were first requested.
        count_heap_bytes(new_size.saturating_sub(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // and `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap bytes this thread has requested so far (monotonic; take
/// deltas). Always 0 unless [`CountingAlloc`] is the global allocator.
pub fn thread_heap_bytes() -> u64 {
    THREAD_HEAP_BYTES.with(Cell::get)
}

/// `f`'s result with the heap bytes it requested on this thread.
pub fn heap_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = thread_heap_bytes();
    let out = f();
    (out, thread_heap_bytes() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_alloc_counts_this_thread_s_requests_and_only_those() {
        let start = thread_heap_bytes();
        let mut v: Vec<u8> = Vec::with_capacity(1000);
        assert_eq!(thread_heap_bytes() - start, 1000);
        // A grown block counts for its growth.
        v.reserve_exact(3000);
        assert_eq!(thread_heap_bytes() - start, 3000);
        drop(v);
        assert_eq!(thread_heap_bytes() - start, 3000, "frees do not count");
        let before = thread_heap_bytes();
        let theirs = std::thread::spawn(|| {
            let before = thread_heap_bytes();
            let big = vec![0u8; 1 << 20];
            std::hint::black_box(&big);
            thread_heap_bytes() - before
        })
        .join()
        .expect("allocating thread");
        assert_eq!(theirs, 1 << 20);
        assert!(thread_heap_bytes() - before < 1 << 20, "another thread's");
    }

    /// The recording tests read one global; they take turns.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_records_nothing_enabled_records() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let before = snapshot();
        record_row_copy(280);
        record_descriptor(16);
        record_replica_growth(1024);
        record_replica_reduction();
        assert_eq!(snapshot().since(&before), AllocStats::default());

        let recording = Recording::start();
        let before = snapshot();
        record_row_copy(280);
        record_row_copy(280);
        record_descriptor(16);
        record_replica_growth(1024);
        record_replica_reduction();
        record_replica_growth(512);
        record_replica_reduction();
        record_kernel_scratch(2048);
        let delta = snapshot().since(&before);
        drop(recording);
        assert_eq!(delta.row_copies, 2);
        assert_eq!(delta.row_copy_bytes, 560);
        assert_eq!(delta.descriptor_allocs, 1);
        assert_eq!(delta.descriptor_bytes, 16);
        assert_eq!(delta.replica_bytes, 1024 + 512);
        assert_eq!(delta.replica_reductions, 2);
        assert_eq!(delta.kernel_scratch_allocs, 1);
        assert_eq!(delta.kernel_scratch_bytes, 2048);
        assert_eq!(delta.hot_loop_allocs(), 2 + 1 + 1);
        assert_eq!(delta.total_bytes(), 560 + 16 + 1024 + 512 + 2048);
    }

    /// The flake this guard fixed: a run that found recording off turned
    /// it off on exit while another run was still recording.
    #[test]
    fn recording_stays_on_while_any_guard_lives() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        let a = Recording::start();
        let b = Recording::start();
        drop(a);
        assert!(enabled(), "B still records after A stopped");
        let before = snapshot();
        record_replica_reduction();
        assert_eq!(snapshot().since(&before).replica_reductions, 1);
        drop(b);
        assert!(!enabled(), "off once the last guard is gone");
    }
}
