//! Reactor observability: lock-free counters for the front end's
//! connection, readiness, write-coalescing, and shedding behavior.
//!
//! One [`NetCounters`] instance is shared between the reactor thread,
//! the worker pool, and whoever exports metrics; [`NetCounters::snapshot`]
//! reads a coherent-enough view (each field individually atomic) into a
//! plain [`NetSnapshot`] for probe reports.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic counters maintained by the reactor. All increments are
/// relaxed — these are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct NetCounters {
    /// Connections accepted from the OS (including ones later shed).
    pub accepted: AtomicU64,
    /// Connections currently registered with the reactor.
    pub connections_open: AtomicU64,
    /// High-water mark of `connections_open`.
    pub connections_peak: AtomicU64,
    /// `poll`/sweep iterations executed.
    pub polls: AtomicU64,
    /// Poll returns with at least one ready descriptor (readiness
    /// wakeups, as opposed to timeout ticks).
    pub readiness_wakeups: AtomicU64,
    /// Complete request frames parsed off sockets.
    pub frames_read: AtomicU64,
    /// Request frames answered on the reactor thread by
    /// `FrameService::try_handle_now` — never handed to the pool. With
    /// `sheds_decode`, what is left of `frames_read` went to a worker.
    pub frames_inline: AtomicU64,
    /// Response frames appended to connection write buffers.
    pub frames_written: AtomicU64,
    /// Write syscalls issued.
    pub writes: AtomicU64,
    /// Flushes that pushed two or more response frames in one syscall
    /// batch — the payoff of buffering completions per connection.
    pub coalesced_writes: AtomicU64,
    /// Connections shed at the accept layer (connection cap).
    pub sheds_accept: AtomicU64,
    /// Requests shed at the decode layer (queue depth or per-connection
    /// pipeline cap).
    pub sheds_decode: AtomicU64,
    /// Connections closed by the idle timer.
    pub idle_closed: AtomicU64,
    /// Requests answered by the reactor's deadline backstop because the
    /// worker had not completed them in time.
    pub deadline_backstops: AtomicU64,
    /// Worker threads in the pool (set once at startup).
    pub worker_threads: AtomicU64,
}

/// A plain-data copy of [`NetCounters`], field for field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    pub accepted: u64,
    pub connections_open: u64,
    pub connections_peak: u64,
    pub polls: u64,
    pub readiness_wakeups: u64,
    pub frames_read: u64,
    pub frames_inline: u64,
    pub frames_written: u64,
    pub writes: u64,
    pub coalesced_writes: u64,
    pub sheds_accept: u64,
    pub sheds_decode: u64,
    pub idle_closed: u64,
    pub deadline_backstops: u64,
    pub worker_threads: u64,
}

impl NetCounters {
    /// Bump `connections_open` and fold the new value into the peak.
    pub fn conn_opened(&self) {
        let now = self.connections_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.connections_peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Decrement `connections_open`.
    pub fn conn_closed(&self) {
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Copy every counter into a [`NetSnapshot`].
    pub fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            connections_open: self.connections_open.load(Ordering::Relaxed),
            connections_peak: self.connections_peak.load(Ordering::Relaxed),
            polls: self.polls.load(Ordering::Relaxed),
            readiness_wakeups: self.readiness_wakeups.load(Ordering::Relaxed),
            frames_read: self.frames_read.load(Ordering::Relaxed),
            frames_inline: self.frames_inline.load(Ordering::Relaxed),
            frames_written: self.frames_written.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            coalesced_writes: self.coalesced_writes.load(Ordering::Relaxed),
            sheds_accept: self.sheds_accept.load(Ordering::Relaxed),
            sheds_decode: self.sheds_decode.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            deadline_backstops: self.deadline_backstops.load(Ordering::Relaxed),
            worker_threads: self.worker_threads.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_the_high_water_mark() {
        let c = NetCounters::default();
        c.conn_opened();
        c.conn_opened();
        c.conn_closed();
        c.conn_opened();
        let snap = c.snapshot();
        assert_eq!(snap.connections_open, 2);
        assert_eq!(snap.connections_peak, 2);
    }

    #[test]
    fn snapshot_copies_every_field() {
        let c = NetCounters::default();
        c.accepted.store(1, Ordering::Relaxed);
        c.polls.store(2, Ordering::Relaxed);
        c.readiness_wakeups.store(3, Ordering::Relaxed);
        c.frames_read.store(4, Ordering::Relaxed);
        c.frames_written.store(5, Ordering::Relaxed);
        c.writes.store(6, Ordering::Relaxed);
        c.coalesced_writes.store(7, Ordering::Relaxed);
        c.sheds_accept.store(8, Ordering::Relaxed);
        c.sheds_decode.store(9, Ordering::Relaxed);
        c.idle_closed.store(10, Ordering::Relaxed);
        c.deadline_backstops.store(11, Ordering::Relaxed);
        c.worker_threads.store(12, Ordering::Relaxed);
        c.frames_inline.store(13, Ordering::Relaxed);
        let snap = c.snapshot();
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.polls, 2);
        assert_eq!(snap.readiness_wakeups, 3);
        assert_eq!(snap.frames_read, 4);
        assert_eq!(snap.frames_written, 5);
        assert_eq!(snap.writes, 6);
        assert_eq!(snap.coalesced_writes, 7);
        assert_eq!(snap.sheds_accept, 8);
        assert_eq!(snap.sheds_decode, 9);
        assert_eq!(snap.idle_closed, 10);
        assert_eq!(snap.deadline_backstops, 11);
        assert_eq!(snap.worker_threads, 12);
        assert_eq!(snap.frames_inline, 13);
    }
}
