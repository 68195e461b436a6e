//! Per-lane heartbeats and the stall watchdog.
//!
//! Every governed task owns a *lane* in a shared [`Heartbeats`] table:
//! the driver holds lane 0 for the whole iteration loop, kernel workers
//! take their task id. Tasks mark the lane busy with
//! [`Heartbeats::enter`] / [`Heartbeats::leave`] (a nesting counter, so
//! a kernel body running on the driver thread composes with the
//! driver's own span) and [`Heartbeats::beat`] at each unit of
//! progress — an iteration boundary, a mode, a tile, a chunk of slices.
//!
//! The [`Watchdog`] is a sampling thread: every `sample_interval` it
//! scans the lanes and reports any that are busy but have not beaten
//! for longer than `stall_bound`. One stalled episode produces one
//! [`StallReport`] — the lane's beat *count* is recorded with the
//! report, so the same unmoving lane is not re-reported every sample,
//! but a later, distinct stall of the same lane is. Reports accumulate
//! in a shared [`WatchdogLedger`]; with `trip_cancel` set the first
//! report also cancels the run's token, turning a silent hang into a
//! typed abort.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use splatt_rt::sync::{CachePadded, Mutex};

use crate::cancel::CancelToken;

struct Lane {
    /// Nanoseconds since the table's epoch at the last beat.
    last_beat_nanos: AtomicU64,
    /// Total beats — doubles as the stall-episode key.
    beats: AtomicU64,
    /// Nesting busy count; the lane is watched while it is positive.
    busy: AtomicU64,
}

/// One heartbeat lane per governed task.
pub struct Heartbeats {
    epoch: Instant,
    lanes: Vec<CachePadded<Lane>>,
}

impl Heartbeats {
    /// Nanoseconds of silence on `lane` as of `now` (from
    /// [`Heartbeats::now_nanos`]); 0 for out-of-range lanes.
    fn silent_nanos(&self, lane: usize, now: u64) -> u64 {
        self.lanes.get(lane).map_or(0, |l| {
            now.saturating_sub(l.last_beat_nanos.load(Ordering::Relaxed))
        })
    }
}

impl Heartbeats {
    /// A table with `lanes` lanes, all idle.
    pub(crate) fn new(lanes: usize) -> Self {
        let epoch = Instant::now();
        Heartbeats {
            epoch,
            lanes: (0..lanes.max(1))
                .map(|_| {
                    CachePadded::new(Lane {
                        last_beat_nanos: AtomicU64::new(0),
                        beats: AtomicU64::new(0),
                        busy: AtomicU64::new(0),
                    })
                })
                .collect(),
        }
    }

    /// Number of lanes.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes.len()
    }

    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record progress on `lane`. Out-of-range lanes are ignored so
    /// callers sized for fewer tasks than a kernel spawns stay safe.
    #[inline]
    pub(crate) fn beat(&self, lane: usize) {
        if let Some(l) = self.lanes.get(lane) {
            l.last_beat_nanos.store(self.now_nanos(), Ordering::Relaxed);
            l.beats.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Mark `lane` busy (nests) and beat it.
    pub(crate) fn enter(&self, lane: usize) {
        if let Some(l) = self.lanes.get(lane) {
            l.busy.fetch_add(1, Ordering::Relaxed);
            l.last_beat_nanos.store(self.now_nanos(), Ordering::Relaxed);
            l.beats.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Beat `lane` and drop one level of busy nesting.
    pub(crate) fn leave(&self, lane: usize) {
        if let Some(l) = self.lanes.get(lane) {
            l.last_beat_nanos.store(self.now_nanos(), Ordering::Relaxed);
            l.beats.fetch_add(1, Ordering::Relaxed);
            let prev = l.busy.fetch_sub(1, Ordering::Relaxed);
            debug_assert!(prev > 0, "leave({lane}) without a matching enter");
        }
    }

    /// Whether `lane` is inside at least one busy span.
    pub(crate) fn is_busy(&self, lane: usize) -> bool {
        self.lanes
            .get(lane)
            .is_some_and(|l| l.busy.load(Ordering::Relaxed) > 0)
    }

    /// Total beats recorded on `lane`.
    pub fn beats(&self, lane: usize) -> u64 {
        self.lanes
            .get(lane)
            .map_or(0, |l| l.beats.load(Ordering::Relaxed))
    }
}

/// Watchdog tuning.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// A busy lane silent for longer than this is stalled.
    pub stall_bound: Duration,
    /// How often the lanes are scanned.
    pub sample_interval: Duration,
    /// Cancel the run's token on the first stall report.
    pub trip_cancel: bool,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_bound: Duration::from_secs(30),
            sample_interval: Duration::from_millis(100),
            trip_cancel: false,
        }
    }
}

/// One detected stall episode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// The stalled lane.
    pub lane: usize,
    /// How long the lane had been silent when the report fired.
    pub stalled_for: Duration,
    /// The lane's beat count at report time (the episode key).
    pub beats: u64,
}

/// Shared record of what the watchdog saw; lives as long as the guard
/// so reports survive the watchdog thread.
#[derive(Default)]
pub(crate) struct WatchdogLedger {
    reports: Mutex<Vec<StallReport>>,
    samples: AtomicU64,
    tripping_report: Mutex<Option<StallReport>>,
}

impl WatchdogLedger {
    /// All stall reports so far.
    pub(crate) fn reports(&self) -> Vec<StallReport> {
        self.reports.lock().clone()
    }

    /// Number of stall reports so far.
    pub(crate) fn report_count(&self) -> u64 {
        self.reports.lock().len() as u64
    }

    /// Number of sampling passes completed.
    pub(crate) fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// The report that tripped the cancel token, if any.
    pub(crate) fn tripping_report(&self) -> Option<StallReport> {
        self.tripping_report.lock().clone()
    }
}

/// The sampling thread; stops and joins on [`Watchdog::stop`] or drop.
pub(crate) struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Start watching `heartbeats` under `cfg`, appending reports to
    /// `ledger` and (with `trip_cancel`) cancelling `token` on the
    /// first stall.
    pub(crate) fn spawn(
        heartbeats: Arc<Heartbeats>,
        cfg: WatchdogConfig,
        token: Option<CancelToken>,
        ledger: Arc<WatchdogLedger>,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("splatt-watchdog".into())
            .spawn(move || {
                // Last-reported episode key per lane: report a stall
                // once, but report a *new* stall of the same lane.
                let mut reported_at: Vec<Option<u64>> = vec![None; heartbeats.lanes()];
                while !stop_flag.load(Ordering::Relaxed) {
                    std::thread::sleep(cfg.sample_interval);
                    let now = heartbeats.now_nanos();
                    for (lane, reported) in reported_at.iter_mut().enumerate() {
                        if !heartbeats.is_busy(lane) {
                            *reported = None;
                            continue;
                        }
                        let silent = heartbeats.silent_nanos(lane, now);
                        if silent < cfg.stall_bound.as_nanos() as u64 {
                            continue;
                        }
                        let beats = heartbeats.beats(lane);
                        if *reported == Some(beats) {
                            continue;
                        }
                        *reported = Some(beats);
                        let report = StallReport {
                            lane,
                            stalled_for: Duration::from_nanos(silent),
                            beats,
                        };
                        ledger.reports.lock().push(report.clone());
                        if cfg.trip_cancel {
                            let mut tripping = ledger.tripping_report.lock();
                            if tripping.is_none() {
                                *tripping = Some(report);
                                drop(tripping);
                                if let Some(t) = &token {
                                    t.cancel();
                                }
                            }
                        }
                    }
                    ledger.samples.fetch_add(1, Ordering::Relaxed);
                }
            })
            .expect("spawn watchdog thread");
        Watchdog {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop sampling and join the thread (idempotent).
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg(trip_cancel: bool) -> WatchdogConfig {
        WatchdogConfig {
            stall_bound: Duration::from_millis(5),
            sample_interval: Duration::from_millis(1),
            trip_cancel,
        }
    }

    #[test]
    fn stall_is_caught_while_it_is_still_in_progress() {
        let hb = Arc::new(Heartbeats::new(2));
        let ledger = Arc::new(WatchdogLedger::default());
        let mut dog = Watchdog::spawn(Arc::clone(&hb), fast_cfg(false), None, Arc::clone(&ledger));

        hb.enter(1);
        // Stall lane 1 well past the 5 ms bound.
        std::thread::sleep(Duration::from_millis(60));
        let caught_during = ledger.report_count();
        hb.leave(1);
        dog.stop();

        assert!(
            caught_during >= 1,
            "stall not reported while it was ongoing"
        );
        let reports = ledger.reports();
        assert_eq!(reports[0].lane, 1);
        assert!(reports[0].stalled_for >= Duration::from_millis(5));
        // Detection happened *within* the stall: the reported silence
        // is shorter than the stall itself.
        assert!(reports[0].stalled_for <= Duration::from_millis(60));
    }

    #[test]
    fn idle_lanes_are_never_reported() {
        let hb = Arc::new(Heartbeats::new(2));
        let ledger = Arc::new(WatchdogLedger::default());
        let mut dog = Watchdog::spawn(Arc::clone(&hb), fast_cfg(false), None, Arc::clone(&ledger));
        // Nobody enters; lanes stay idle however stale their beats are.
        std::thread::sleep(Duration::from_millis(30));
        dog.stop();
        assert_eq!(ledger.report_count(), 0);
        assert!(ledger.samples() > 0, "watchdog never sampled");
    }

    #[test]
    fn one_episode_yields_one_report_but_new_episodes_are_reported() {
        let hb = Arc::new(Heartbeats::new(1));
        let ledger = Arc::new(WatchdogLedger::default());
        let mut dog = Watchdog::spawn(Arc::clone(&hb), fast_cfg(false), None, Arc::clone(&ledger));

        hb.enter(0);
        std::thread::sleep(Duration::from_millis(30));
        let first = ledger.report_count();
        assert_eq!(first, 1, "episode must be reported exactly once");

        // Progress ends the episode; a second silence is a new one.
        hb.beat(0);
        std::thread::sleep(Duration::from_millis(30));
        hb.leave(0);
        dog.stop();
        assert_eq!(ledger.report_count(), 2);
    }

    #[test]
    fn trip_cancel_cancels_the_token_once() {
        let hb = Arc::new(Heartbeats::new(1));
        let ledger = Arc::new(WatchdogLedger::default());
        let token = CancelToken::new();
        let mut dog = Watchdog::spawn(
            Arc::clone(&hb),
            fast_cfg(true),
            Some(token.clone()),
            Arc::clone(&ledger),
        );
        hb.enter(0);
        std::thread::sleep(Duration::from_millis(30));
        hb.leave(0);
        dog.stop();
        assert!(token.is_cancelled());
        let tripping = ledger.tripping_report().expect("a report tripped");
        assert_eq!(tripping.lane, 0);
    }

    #[test]
    fn busy_nesting_keeps_the_lane_watched() {
        let hb = Heartbeats::new(1);
        hb.enter(0);
        hb.enter(0);
        hb.leave(0);
        assert!(hb.is_busy(0));
        hb.leave(0);
        assert!(!hb.is_busy(0));
    }

    #[test]
    fn out_of_range_lanes_are_ignored() {
        let hb = Heartbeats::new(1);
        hb.beat(7);
        hb.enter(7);
        hb.leave(7);
        assert!(!hb.is_busy(7));
        assert_eq!(hb.beats(7), 0);
    }
}
