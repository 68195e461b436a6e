//! The [`RunGuard`]: one clonable handle bundling cancellation,
//! deadline, memory budget, and watchdog for a governed run.
//!
//! Two entry points with very different costs:
//!
//! - [`RunGuard::poll`] — the kernel-worker fast path: one heartbeat
//!   store and one relaxed token load. Infallible; a `true` return
//!   means "stop doing work and let the driver notice".
//! - [`RunGuard::check`] — the driver path at iteration/mode/phase
//!   boundaries: evaluates deadline, budget, and token, and converts
//!   the first violation into a sticky [`TripReason`]. Every later
//!   check returns the same reason, so abort attribution is stable
//!   even when a deadline expires while the token is already tripped.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use splatt_probe::{GuardCounters, GuardRow};
use splatt_rt::sync::Mutex;

use crate::budget::MemoryBudget;
use crate::cancel::CancelToken;
use crate::deadline::Deadline;
use crate::watchdog::{Heartbeats, StallReport, Watchdog, WatchdogConfig, WatchdogLedger};

/// Why a governed run was stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum TripReason {
    /// The cancel token was tripped externally.
    Cancelled,
    /// The wall-clock budget ran out.
    DeadlineExceeded {
        /// Time the run had consumed when the trip was detected.
        elapsed: Duration,
        /// The configured budget.
        limit: Duration,
    },
    /// Allocation traffic crossed the budget.
    MemoryExceeded {
        /// Bytes of traffic when the trip was detected.
        used_bytes: u64,
        /// The configured cap.
        limit_bytes: u64,
    },
    /// The watchdog tripped the token over a stalled lane.
    Stalled {
        /// The lane that went silent.
        lane: usize,
        /// How long it had been silent at report time.
        stalled_for: Duration,
    },
}

impl TripReason {
    /// Short machine-readable tag (probe rows, CLI output).
    pub fn label(&self) -> &'static str {
        match self {
            TripReason::Cancelled => "cancelled",
            TripReason::DeadlineExceeded { .. } => "deadline",
            TripReason::MemoryExceeded { .. } => "mem-budget",
            TripReason::Stalled { .. } => "stalled",
        }
    }
}

impl std::fmt::Display for TripReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TripReason::Cancelled => write!(f, "cancelled"),
            TripReason::DeadlineExceeded { elapsed, limit } => write!(
                f,
                "deadline exceeded ({:.3}s elapsed of {:.3}s budget)",
                elapsed.as_secs_f64(),
                limit.as_secs_f64()
            ),
            TripReason::MemoryExceeded {
                used_bytes,
                limit_bytes,
            } => write!(
                f,
                "memory budget exceeded ({used_bytes} bytes of {limit_bytes} allowed)"
            ),
            TripReason::Stalled { lane, stalled_for } => write!(
                f,
                "watchdog: lane {lane} stalled for {:.3}s",
                stalled_for.as_secs_f64()
            ),
        }
    }
}

/// The limits a [`RunGuard`] is armed with.
#[derive(Debug, Clone, Copy, Default)]
pub struct GuardConfig {
    /// Wall-clock budget for the run.
    pub deadline: Option<Duration>,
    /// Allocation-traffic cap in bytes.
    pub mem_budget: Option<u64>,
    /// Arm the stall watchdog.
    pub watchdog: Option<WatchdogConfig>,
}

impl GuardConfig {
    /// Is any limit armed? Without one only cancellation can stop a run.
    pub fn is_armed(&self) -> bool {
        self.deadline.is_some() || self.mem_budget.is_some() || self.watchdog.is_some()
    }
}

struct GuardInner {
    token: CancelToken,
    deadline: Option<Deadline>,
    budget: Option<MemoryBudget>,
    heartbeats: Arc<Heartbeats>,
    ledger: Arc<WatchdogLedger>,
    watchdog: Mutex<Option<Watchdog>>,
    /// `checks` and `trips` count here; the watchdog's two are read
    /// off its ledger when a snapshot is taken.
    counters: GuardCounters,
    trip: Mutex<Option<TripReason>>,
}

/// The governed-run handle; see the module docs. Cloning is cheap and
/// every clone shares the same state.
#[derive(Clone)]
pub struct RunGuard {
    inner: Arc<GuardInner>,
}

impl RunGuard {
    /// Arm a guard per `cfg` with `lanes` heartbeat lanes (>= the task
    /// count; lane 0 is the driver's). The watchdog thread (if
    /// configured) starts immediately and holds a child-independent
    /// clone of the token so a watchdog trip cancels the whole run.
    pub fn new(cfg: GuardConfig, lanes: usize) -> Self {
        let token = CancelToken::new();
        let heartbeats = Arc::new(Heartbeats::new(lanes.max(1)));
        let ledger = Arc::new(WatchdogLedger::default());
        let watchdog = cfg.watchdog.map(|wcfg| {
            Watchdog::spawn(
                Arc::clone(&heartbeats),
                wcfg,
                Some(token.clone()),
                Arc::clone(&ledger),
            )
        });
        RunGuard {
            inner: Arc::new(GuardInner {
                token,
                deadline: cfg.deadline.map(Deadline::after),
                budget: cfg.mem_budget.map(MemoryBudget::new),
                heartbeats,
                ledger,
                watchdog: Mutex::new(watchdog),
                counters: GuardCounters::new(),
                trip: Mutex::new(None),
            }),
        }
    }

    /// An unarmed guard: cancellation only, one lane, no deadline,
    /// budget, or watchdog.
    pub fn unarmed() -> Self {
        RunGuard::new(GuardConfig::default(), 1)
    }

    /// The run's cancel token.
    pub fn token(&self) -> &CancelToken {
        &self.inner.token
    }

    /// Request cancellation.
    pub fn cancel(&self) {
        self.inner.token.cancel();
    }

    /// Whether the token is tripped.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.inner.token.is_cancelled()
    }

    /// The active deadline, if armed.
    pub fn deadline(&self) -> Option<Deadline> {
        self.inner.deadline
    }

    /// Clamp a sleep against the active deadline (identity when no
    /// deadline is armed) — the satellite guarantee that recovery
    /// backoffs and straggler absorptions never sleep past the budget.
    pub fn clamp_sleep(&self, d: Duration) -> Duration {
        match self.inner.deadline {
            Some(dl) => dl.clamp(d),
            None => d,
        }
    }

    /// The heartbeat table (for wiring into kernels).
    pub fn heartbeats(&self) -> &Arc<Heartbeats> {
        &self.inner.heartbeats
    }

    /// Mark `lane` busy (nests).
    pub fn enter(&self, lane: usize) {
        self.inner.heartbeats.enter(lane);
    }

    /// Drop one busy level on `lane`.
    pub fn leave(&self, lane: usize) {
        self.inner.heartbeats.leave(lane);
    }

    /// Beat `lane` without a full check.
    #[inline]
    pub fn beat(&self, lane: usize) {
        self.inner.heartbeats.beat(lane);
    }

    /// Kernel-worker fast path: beat `lane`, return `true` if the
    /// worker should stop. One heartbeat store + one relaxed load.
    #[inline]
    pub fn poll(&self, lane: usize) -> bool {
        self.inner.heartbeats.beat(lane);
        self.inner.token.is_cancelled()
    }

    /// Driver path: beat `lane`, then evaluate deadline, budget, and
    /// token. The first violation becomes the sticky [`TripReason`]
    /// (also cancelling the token); later checks return it unchanged.
    pub fn check(&self, lane: usize) -> Result<(), TripReason> {
        let inner = &self.inner;
        inner.counters.checks.fetch_add(1, Ordering::Relaxed);
        inner.heartbeats.beat(lane);

        if let Some(reason) = inner.trip.lock().clone() {
            inner.counters.trips.fetch_add(1, Ordering::Relaxed);
            return Err(reason);
        }
        if let Some(dl) = &inner.deadline {
            if dl.expired() {
                return Err(self.trip(TripReason::DeadlineExceeded {
                    elapsed: dl.elapsed(),
                    limit: dl.limit(),
                }));
            }
        }
        if let Some(budget) = &inner.budget {
            if let Some(used) = budget.over_budget() {
                return Err(self.trip(TripReason::MemoryExceeded {
                    used_bytes: used,
                    limit_bytes: budget.limit_bytes(),
                }));
            }
        }
        if inner.token.is_cancelled() {
            // A watchdog-initiated cancellation is attributed to the
            // stall that caused it, not reported as a bare Cancelled.
            let reason = match inner.ledger.tripping_report() {
                Some(StallReport {
                    lane, stalled_for, ..
                }) => TripReason::Stalled { lane, stalled_for },
                None => TripReason::Cancelled,
            };
            return Err(self.trip(reason));
        }
        Ok(())
    }

    /// Record the first trip (sticky), cancel the token, count it.
    fn trip(&self, reason: TripReason) -> TripReason {
        let inner = &self.inner;
        inner.counters.trips.fetch_add(1, Ordering::Relaxed);
        inner.token.cancel();
        let mut slot = inner.trip.lock();
        if slot.is_none() {
            *slot = Some(reason.clone());
        }
        slot.clone().unwrap_or(reason)
    }

    /// The sticky trip reason, if any check has tripped.
    pub fn trip_reason(&self) -> Option<TripReason> {
        self.inner.trip.lock().clone()
    }

    /// All stall reports the watchdog has filed.
    pub fn stall_reports(&self) -> Vec<StallReport> {
        self.inner.ledger.reports()
    }

    /// The probe report's `guard` row: the counters, and the sticky trip
    /// reason as text (empty if the run never tripped).
    pub fn snapshot(&self) -> GuardRow {
        let trip = self.trip_reason().map(|t| t.to_string());
        GuardRow {
            watchdog_reports: self.inner.ledger.report_count(),
            watchdog_samples: self.inner.ledger.samples(),
            trip: trip.unwrap_or_default(),
            ..self.inner.counters.snapshot()
        }
    }

    /// Stop and join the watchdog thread (idempotent; also happens
    /// when the last clone is dropped). Call before reading a final
    /// snapshot to make the report count quiescent.
    pub fn shutdown(&self) {
        if let Some(mut dog) = self.inner.watchdog.lock().take() {
            dog.stop();
        }
    }
}

impl std::fmt::Debug for RunGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunGuard")
            .field("cancelled", &self.is_cancelled())
            .field("trip", &self.trip_reason())
            .field("lanes", &self.inner.heartbeats.lanes())
            .finish()
    }
}

/// RAII busy-span on a lane: `enter` on construction, `leave` on drop.
/// The driver wraps its iteration loop in one of these so straggler
/// sleeps and stuck phases show up as lane-0 stalls.
pub struct LaneSpan<'a> {
    guard: Option<&'a RunGuard>,
    lane: usize,
}

impl<'a> LaneSpan<'a> {
    /// Enter `lane` on `guard` (no-op when `guard` is `None`).
    pub fn enter(guard: Option<&'a RunGuard>, lane: usize) -> Self {
        if let Some(g) = guard {
            g.enter(lane);
        }
        LaneSpan { guard, lane }
    }
}

impl Drop for LaneSpan<'_> {
    fn drop(&mut self) {
        if let Some(g) = self.guard {
            g.leave(self.lane);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_limit_arms_the_config() {
        assert!(!GuardConfig::default().is_armed());
        let armed = [
            GuardConfig {
                deadline: Some(Duration::from_secs(1)),
                ..Default::default()
            },
            GuardConfig {
                mem_budget: Some(1),
                ..Default::default()
            },
            GuardConfig {
                watchdog: Some(WatchdogConfig::default()),
                ..Default::default()
            },
        ];
        assert!(armed.iter().all(GuardConfig::is_armed));
    }

    #[test]
    fn unarmed_guard_checks_clean() {
        let g = RunGuard::unarmed();
        for _ in 0..10 {
            g.check(0).expect("nothing armed, nothing trips");
        }
        assert!(!g.poll(0));
        let snap = g.snapshot();
        assert_eq!(snap.checks, 10);
        assert_eq!(snap.trips, 0);
        assert_eq!(snap.trip, "");
    }

    #[test]
    fn expired_deadline_trips_and_cancels() {
        let g = RunGuard::new(
            GuardConfig {
                deadline: Some(Duration::ZERO),
                ..Default::default()
            },
            1,
        );
        let err = g.check(0).unwrap_err();
        assert!(matches!(err, TripReason::DeadlineExceeded { .. }));
        assert!(g.is_cancelled(), "a trip must cancel the token");
        assert!(g.poll(0));
    }

    #[test]
    fn first_trip_reason_is_sticky() {
        let g = RunGuard::new(
            GuardConfig {
                deadline: Some(Duration::ZERO),
                ..Default::default()
            },
            1,
        );
        let first = g.check(0).unwrap_err();
        // An external cancel after the deadline trip must not change
        // the attribution.
        g.cancel();
        let second = g.check(0).unwrap_err();
        assert_eq!(first.label(), second.label());
        assert_eq!(g.snapshot().trips, 2);
    }

    #[test]
    fn cancellation_without_watchdog_reads_as_cancelled() {
        let g = RunGuard::unarmed();
        g.cancel();
        assert_eq!(g.check(0).unwrap_err(), TripReason::Cancelled);
    }

    #[test]
    fn memory_budget_trips_check() {
        let _serial = crate::ALLOC_TEST_SERIAL.lock();
        let g = RunGuard::new(
            GuardConfig {
                mem_budget: Some(256),
                ..Default::default()
            },
            1,
        );
        g.check(0).expect("no traffic yet");
        splatt_probe::alloc::record_row_copy(1024);
        let err = g.check(0).unwrap_err();
        match err {
            TripReason::MemoryExceeded {
                used_bytes,
                limit_bytes,
            } => {
                assert!(used_bytes >= 1024);
                assert_eq!(limit_bytes, 256);
            }
            other => panic!("expected MemoryExceeded, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_trip_is_attributed_as_stalled() {
        let g = RunGuard::new(
            GuardConfig {
                watchdog: Some(WatchdogConfig {
                    stall_bound: Duration::from_millis(5),
                    sample_interval: Duration::from_millis(1),
                    trip_cancel: true,
                }),
                ..Default::default()
            },
            2,
        );
        let span = LaneSpan::enter(Some(&g), 1);
        std::thread::sleep(Duration::from_millis(40));
        let err = g.check(0).unwrap_err();
        assert!(
            matches!(err, TripReason::Stalled { lane: 1, .. }),
            "expected a lane-1 stall, got {err:?}"
        );
        drop(span);
        g.shutdown();
        let snap = g.snapshot();
        assert!(snap.watchdog_reports >= 1);
        assert!(snap.watchdog_samples >= 1);
    }

    #[test]
    fn trip_label_round_trip() {
        assert_eq!(TripReason::Cancelled.label(), "cancelled");
        assert_eq!(
            TripReason::DeadlineExceeded {
                elapsed: Duration::ZERO,
                limit: Duration::ZERO
            }
            .label(),
            "deadline"
        );
        assert_eq!(
            TripReason::MemoryExceeded {
                used_bytes: 0,
                limit_bytes: 0
            }
            .label(),
            "mem-budget"
        );
        assert_eq!(
            TripReason::Stalled {
                lane: 0,
                stalled_for: Duration::ZERO
            }
            .label(),
            "stalled"
        );
    }
}
