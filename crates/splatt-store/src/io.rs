//! Disk-level fault plans for the durability layer.
//!
//! [`IoFaultPlan`] brings the deterministic, seed-driven fault
//! discipline of the solver's fault plan to the persistence stack. Where
//! `splatt_core::faults::FaultPlan` sites are *(iteration, unit)* pairs
//! inside a solver run, durable-I/O sites are **operations**: every create,
//! write, fsync, and rename the store performs draws the next index
//! from a monotonically increasing op counter. Decisions are pure
//! hashes of `(seed, kind, op)`, so a seed replays the exact same
//! schedule of torn writes, bit flips, short reads, and fsync failures
//! across runs — and, crucially, a *crash point* can be scheduled at
//! any op boundary: run once cleanly to count the ops a workload
//! performs, then replay with `with_crash_at_op(k)` for every `k` to
//! kill the process at every instruction boundary the storage layer
//! exposes. That enumeration is what the recovery storm test sweeps.
//!
//! Fault semantics, as consumed by the store:
//!
//! * **Torn write** — only a prefix of the buffer reaches the file,
//!   then the process "dies" ([`IoFault::Crash`]). Models a crash (or
//!   lost power) mid-`write(2)`.
//! * **Bit flip** — one deterministic bit of the outgoing buffer is
//!   inverted *before* it is written. The CRC-framed readers must
//!   surface this as a typed checksum failure, never as silently wrong
//!   data.
//! * **Short read** — a read returns only a prefix of the bytes on
//!   disk; recovery must treat the remainder as a torn tail.
//! * **Failed fsync** — `fsync` reports an error once
//!   ([`IoFault::FsyncFailed`]); the caller must *not* acknowledge the
//!   data as durable. One-shot, like every transient fault in this
//!   crate: the retry succeeds.
//! * **Crash at op `k`** — [`IoFaultPlan::next_op`] returns
//!   [`IoFault::Crash`] when the counter reaches `k`; the store
//!   abandons the operation mid-flight, leaving the file system in
//!   exactly the state a killed process would.

use splatt_rt::rng::{splitmix64, unit_f64};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The disk-fault families the plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum IoFaultKind {
    /// Only a prefix of a buffer reaches the file, then the process dies.
    TornWrite,
    /// One bit of an outgoing buffer is inverted before the write.
    BitFlip,
    /// A read returns only a prefix of the bytes on disk.
    ShortRead,
    /// `fsync` fails once; the data must not be acknowledged.
    FailedFsync,
    /// The scheduled process death at a fixed op index.
    Crash,
}

impl IoFaultKind {
    fn tag(self) -> u64 {
        match self {
            IoFaultKind::TornWrite => 0x61,
            IoFaultKind::BitFlip => 0x62,
            IoFaultKind::ShortRead => 0x63,
            IoFaultKind::FailedFsync => 0x64,
            IoFaultKind::Crash => 0x65,
        }
    }
}

/// Per-kind injection probabilities, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct IoFaultRates {
    pub torn_write: f64,
    pub bit_flip: f64,
    pub short_read: f64,
    pub failed_fsync: f64,
}

/// A typed injected disk fault, surfaced to the store's callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoFault {
    /// The scheduled process death: the operation was abandoned
    /// mid-flight and nothing after it executed.
    Crash { op: u64, site: String },
    /// `fsync` failed; the preceding writes must not be acknowledged
    /// as durable.
    FsyncFailed { op: u64, site: String },
}

impl std::fmt::Display for IoFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoFault::Crash { op, site } => {
                write!(f, "injected crash at io op {op} ({site})")
            }
            IoFault::FsyncFailed { op, site } => {
                write!(f, "injected fsync failure at io op {op} ({site})")
            }
        }
    }
}

impl std::error::Error for IoFault {}

/// One injected disk fault, for the plan's audit trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IoFaultRecord {
    pub kind: IoFaultKind,
    /// Op index the fault fired at.
    pub op: u64,
    /// Store-side site label, e.g. `"wal append"` or `"publish rename"`.
    pub site: String,
}

fn io_hash(seed: u64, kind: IoFaultKind, op: u64) -> u64 {
    let mut h = splitmix64(seed ^ kind.tag().wrapping_mul(0xA24B_AED4_963E_E407));
    h = splitmix64(h ^ op.wrapping_mul(0x9FB2_1C65_1E98_DF25));
    splitmix64(h)
}

/// A seeded, deterministic disk-fault plan; see the module docs.
///
/// Thread-safe: decisions are pure functions of the seed and the op
/// index; the op counter is atomic and the event log sits behind a
/// mutex. In practice the store issues ops single-threaded, which is
/// what makes a `crash_at_op` sweep cover every boundary exactly once.
#[derive(Debug)]
pub struct IoFaultPlan {
    seed: u64,
    rates: IoFaultRates,
    crash_at_op: Option<u64>,
    ops: AtomicU64,
    events: Mutex<Vec<IoFaultRecord>>,
}

impl IoFaultPlan {
    /// A plan firing each kind independently at its configured rate.
    pub(crate) fn new(seed: u64, rates: IoFaultRates) -> Self {
        IoFaultPlan {
            seed,
            rates,
            crash_at_op: None,
            ops: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    /// A plan that injects nothing — useful to count the ops a workload
    /// performs before sweeping crash points over `0..ops_seen()`.
    pub fn quiet(seed: u64) -> Self {
        Self::new(seed, IoFaultRates::default())
    }

    /// Schedule a process death at op index `op` (0-based).
    pub fn with_crash_at_op(mut self, op: u64) -> Self {
        self.crash_at_op = Some(op);
        self
    }

    /// Ops drawn so far. After a quiet run this is the total number of
    /// crash boundaries the workload exposes.
    pub fn ops_seen(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Draw the next op index for a durable-I/O step, or die there.
    ///
    /// # Errors
    /// [`IoFault::Crash`] when the counter reaches the scheduled crash
    /// op; the caller must abandon the operation mid-flight.
    pub(crate) fn next_op(&self, site: &str) -> Result<u64, IoFault> {
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        if self.crash_at_op == Some(op) {
            self.record(IoFaultKind::Crash, op, site);
            return Err(IoFault::Crash {
                op,
                site: site.to_string(),
            });
        }
        Ok(op)
    }

    fn roll(&self, kind: IoFaultKind, op: u64, rate: f64) -> bool {
        rate > 0.0 && unit_f64(io_hash(self.seed, kind, op)) < rate
    }

    /// Whether the buffer write at `op` is torn, and how many of `len`
    /// bytes actually reach the file (strictly fewer than `len`; the
    /// caller then reports [`IoFault::Crash`]). Always `None` for empty
    /// buffers.
    pub(crate) fn torn_write_len(&self, op: u64, site: &str, len: usize) -> Option<usize> {
        if len == 0 || !self.roll(IoFaultKind::TornWrite, op, self.rates.torn_write) {
            return None;
        }
        self.record(IoFaultKind::TornWrite, op, site);
        Some((io_hash(self.seed ^ 0x7EA4, IoFaultKind::TornWrite, op) % len as u64) as usize)
    }

    /// Invert one deterministic bit of `bytes` before they are written;
    /// returns whether a flip happened. CRC-framed readers must turn
    /// this into a typed checksum failure.
    pub(crate) fn flip_bit(&self, op: u64, site: &str, bytes: &mut [u8]) -> bool {
        if bytes.is_empty() || !self.roll(IoFaultKind::BitFlip, op, self.rates.bit_flip) {
            return false;
        }
        let h = io_hash(self.seed ^ 0xF11B, IoFaultKind::BitFlip, op);
        let idx = (h % bytes.len() as u64) as usize;
        bytes[idx] ^= 1 << ((h >> 32) % 8);
        self.record(IoFaultKind::BitFlip, op, site);
        true
    }

    /// Whether the read at `op` comes up short, and how many of `len`
    /// bytes it actually returns (strictly fewer than `len`).
    pub(crate) fn short_read_len(&self, op: u64, site: &str, len: usize) -> Option<usize> {
        if len == 0 || !self.roll(IoFaultKind::ShortRead, op, self.rates.short_read) {
            return None;
        }
        self.record(IoFaultKind::ShortRead, op, site);
        Some((io_hash(self.seed ^ 0x5042, IoFaultKind::ShortRead, op) % len as u64) as usize)
    }

    /// Whether the fsync at `op` fails. The caller surfaces
    /// [`IoFault::FsyncFailed`] and must not acknowledge the data.
    pub(crate) fn fsync_fails(&self, op: u64, site: &str) -> bool {
        if !self.roll(IoFaultKind::FailedFsync, op, self.rates.failed_fsync) {
            return false;
        }
        self.record(IoFaultKind::FailedFsync, op, site);
        true
    }

    fn record(&self, kind: IoFaultKind, op: u64, site: &str) {
        self.events
            .lock()
            .expect("io plan poisoned")
            .push(IoFaultRecord {
                kind,
                op,
                site: site.to_string(),
            });
    }

    /// Snapshot of every recorded event, in injection order.
    #[cfg(test)]
    pub(crate) fn events(&self) -> Vec<IoFaultRecord> {
        self.events.lock().expect("io plan poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy() -> IoFaultPlan {
        IoFaultPlan::new(
            42,
            IoFaultRates {
                torn_write: 0.3,
                bit_flip: 0.3,
                short_read: 0.3,
                failed_fsync: 0.3,
            },
        )
    }

    #[test]
    fn decisions_are_deterministic_across_plans() {
        let a = noisy();
        let b = noisy();
        let mut fired = 0usize;
        for op in 0..500 {
            assert_eq!(
                a.torn_write_len(op, "t", 100),
                b.torn_write_len(op, "t", 100)
            );
            assert_eq!(
                a.short_read_len(op, "t", 100),
                b.short_read_len(op, "t", 100)
            );
            assert_eq!(a.fsync_fails(op, "t"), b.fsync_fails(op, "t"));
            let mut pa = vec![0xAAu8; 16];
            let mut pb = vec![0xAAu8; 16];
            let fa = a.flip_bit(op, "t", &mut pa);
            assert_eq!(fa, b.flip_bit(op, "t", &mut pb));
            assert_eq!(pa, pb);
            fired += usize::from(fa) + usize::from(a.fsync_fails(op, "t"));
            if let Some(k) = a.torn_write_len(op, "t", 100) {
                assert!(k < 100, "torn prefix must be strictly short");
                fired += 1;
            }
        }
        assert!(fired > 0, "noisy plan injected nothing");
    }

    #[test]
    fn crash_fires_exactly_at_the_scheduled_op() {
        let plan = IoFaultPlan::quiet(1).with_crash_at_op(3);
        assert_eq!(plan.next_op("a").unwrap(), 0);
        assert_eq!(plan.next_op("b").unwrap(), 1);
        assert_eq!(plan.next_op("c").unwrap(), 2);
        let err = plan.next_op("d").unwrap_err();
        assert!(matches!(err, IoFault::Crash { op: 3, .. }), "{err:?}");
        // the counter keeps advancing: a crash is terminal for the store
        // run, but the plan itself stays usable for postmortems
        assert_eq!(plan.next_op("e").unwrap(), 4);
        assert_eq!(plan.events().len(), 1);
        assert_eq!(plan.events()[0].kind, IoFaultKind::Crash);
    }

    #[test]
    fn quiet_plan_counts_ops_and_injects_nothing() {
        let plan = IoFaultPlan::quiet(9);
        for _ in 0..10 {
            let op = plan.next_op("step").unwrap();
            assert!(plan.torn_write_len(op, "s", 64).is_none());
            assert!(plan.short_read_len(op, "s", 64).is_none());
            assert!(!plan.fsync_fails(op, "s"));
            let mut b = vec![1u8, 2, 3];
            assert!(!plan.flip_bit(op, "s", &mut b));
            assert_eq!(b, vec![1, 2, 3]);
        }
        assert_eq!(plan.ops_seen(), 10);
        assert!(plan.events().is_empty());
    }

    #[test]
    fn flip_changes_exactly_one_bit() {
        let plan = IoFaultPlan::new(
            7,
            IoFaultRates {
                bit_flip: 1.0,
                ..Default::default()
            },
        );
        let original = vec![0x55u8; 32];
        let mut flipped = original.clone();
        assert!(plan.flip_bit(0, "s", &mut flipped));
        let differing: u32 = original
            .iter()
            .zip(&flipped)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(differing, 1, "exactly one bit must differ");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = IoFaultPlan::new(
            11,
            IoFaultRates {
                failed_fsync: 0.25,
                ..Default::default()
            },
        );
        let fired = (0..4000).filter(|&op| plan.fsync_fails(op, "s")).count();
        let frac = fired as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.05, "observed rate {frac}");
    }

    #[test]
    fn empty_buffers_are_never_faulted() {
        let plan = IoFaultPlan::new(
            3,
            IoFaultRates {
                torn_write: 1.0,
                bit_flip: 1.0,
                short_read: 1.0,
                ..Default::default()
            },
        );
        assert!(plan.torn_write_len(0, "s", 0).is_none());
        assert!(plan.short_read_len(0, "s", 0).is_none());
        let mut empty: Vec<u8> = Vec::new();
        assert!(!plan.flip_bit(0, "s", &mut empty));
    }
}
