//! Network-level fault plans for the serving cluster.
//!
//! [`NetFaultPlan`] adapts the deterministic [`FaultPlan`] site machinery
//! to the cluster's failure surface: the *(iteration, unit)* site
//! coordinates become *(query index, worker id)*, so a seed reproduces
//! the exact schedule of replica delays and corrupted frames across a
//! query storm, the same way it reproduces straggler/corruption sites
//! across a CP-ALS run. Worker kills are scheduled explicitly — by storm
//! progress fraction — because killing a process is not a transient
//! one-shot site but a state change the router must survive.
//!
//! The router consumes this plan from its transport layer:
//!
//! * [`NetFaultPlan::delay_before_send`] — a straggler roll; the router
//!   sleeps (deadline-clamped) before forwarding, simulating a slow
//!   replica.
//! * [`NetFaultPlan::corrupt_frame`] — a corrupt-payload roll; the
//!   router flips the response frame's status byte so decoding fails the
//!   way a checksum mismatch would, exercising the failover path.
//! * [`NetFaultPlan::kills_due`] — which workers the harness must kill
//!   once the storm reaches a given progress fraction.

use crate::plan::{FaultKind, FaultPlan};
use std::sync::Mutex;
use std::time::Duration;

/// One scheduled worker kill: take `worker` down once the storm has
/// dispatched `at_fraction` (in `[0, 1]`) of its queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KillEvent {
    pub worker: usize,
    pub at_fraction: f64,
}

/// A deterministic fault schedule for a loopback serving cluster; see
/// the module docs.
#[derive(Debug)]
pub struct NetFaultPlan {
    plan: FaultPlan,
    kills: Vec<KillEvent>,
    dispatched: Mutex<Vec<bool>>,
}

impl NetFaultPlan {
    /// Wrap `plan`; its `straggler` rate drives replica delays and its
    /// `corrupt` rate drives frame corruption.
    pub fn new(plan: FaultPlan) -> Self {
        NetFaultPlan {
            plan,
            kills: Vec::new(),
            dispatched: Mutex::new(Vec::new()),
        }
    }

    /// Schedule `worker` to be killed at `at_fraction` of the storm.
    pub fn with_kill(mut self, worker: usize, at_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&at_fraction),
            "kill fraction outside [0, 1]"
        );
        self.kills.push(KillEvent {
            worker,
            at_fraction,
        });
        self.dispatched
            .lock()
            .expect("net plan poisoned")
            .push(false);
        self
    }

    /// The wrapped site-decision plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The full kill schedule, in insertion order.
    pub fn kills(&self) -> &[KillEvent] {
        &self.kills
    }

    /// Workers whose kill events have come due at `progress` (fraction
    /// of the storm dispatched) and were not handed out before. Each
    /// event is returned exactly once, so the harness can call this on
    /// every tick and kill precisely on schedule.
    pub fn kills_due(&self, progress: f64) -> Vec<usize> {
        let mut dispatched = self.dispatched.lock().expect("net plan poisoned");
        let mut due = Vec::new();
        for (i, kill) in self.kills.iter().enumerate() {
            if !dispatched[i] && progress >= kill.at_fraction {
                dispatched[i] = true;
                due.push(kill.worker);
            }
        }
        due
    }

    /// Whether to delay the call for `query` to `worker`, and by how
    /// much. Deterministic in the seed; one-shot per (query, worker).
    pub fn delay_before_send(&self, query: usize, worker: usize) -> Option<Duration> {
        if self.plan.roll(FaultKind::Straggler, query, worker) {
            Some(Duration::from_nanos(
                self.plan.straggler_delay_nanos(query, worker),
            ))
        } else {
            None
        }
    }

    /// Whether to corrupt the response frame for `query` from `worker`;
    /// on `true` the caller flips `payload`'s status byte (high bit), so
    /// every decoder rejects the frame instead of mis-reading values —
    /// the observable behaviour of a checksum-guarded transport.
    /// Deterministic in the seed; one-shot per (query, worker).
    pub fn corrupt_frame(&self, query: usize, worker: usize, payload: &mut [u8]) -> bool {
        if payload.is_empty() || !self.plan.roll(FaultKind::CorruptPayload, query, worker) {
            return false;
        }
        payload[0] ^= 0x80;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultRates;

    fn noisy() -> NetFaultPlan {
        NetFaultPlan::new(FaultPlan::new(
            42,
            FaultRates {
                straggler: 0.3,
                corrupt: 0.3,
                ..Default::default()
            },
        ))
    }

    #[test]
    fn same_seed_reproduces_the_exact_schedule() {
        let a = noisy();
        let b = noisy();
        let mut fired = 0;
        for query in 0..200 {
            for worker in 0..6 {
                let da = a.delay_before_send(query, worker);
                let db = b.delay_before_send(query, worker);
                assert_eq!(da, db, "delay at ({query}, {worker})");
                let mut pa = vec![0u8, 1, 2];
                let mut pb = vec![0u8, 1, 2];
                let ca = a.corrupt_frame(query, worker, &mut pa);
                let cb = b.corrupt_frame(query, worker, &mut pb);
                assert_eq!(ca, cb, "corrupt at ({query}, {worker})");
                assert_eq!(pa, pb);
                fired += usize::from(da.is_some()) + usize::from(ca);
            }
        }
        assert!(fired > 0, "noisy plan injected nothing");
    }

    #[test]
    fn corruption_breaks_the_status_byte() {
        let plan = NetFaultPlan::new(FaultPlan::new(
            7,
            FaultRates {
                corrupt: 1.0,
                ..Default::default()
            },
        ));
        let mut payload = vec![0u8, 9, 9];
        assert!(plan.corrupt_frame(0, 0, &mut payload));
        assert_eq!(payload[0], 0x80, "status byte must leave the valid range");
        // One-shot: the same site never refires.
        let mut again = vec![0u8];
        assert!(!plan.corrupt_frame(0, 0, &mut again));
        assert_eq!(again, vec![0u8]);
    }

    #[test]
    fn kills_fire_once_at_their_fraction() {
        let plan = NetFaultPlan::new(FaultPlan::quiet(1))
            .with_kill(2, 0.5)
            .with_kill(4, 0.75);
        assert!(plan.kills_due(0.0).is_empty());
        assert!(plan.kills_due(0.49).is_empty());
        assert_eq!(plan.kills_due(0.5), vec![2]);
        assert!(plan.kills_due(0.6).is_empty(), "kill must not refire");
        assert_eq!(plan.kills_due(1.0), vec![4]);
        assert!(plan.kills_due(1.0).is_empty());
        assert_eq!(plan.kills().len(), 2);
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = NetFaultPlan::new(FaultPlan::quiet(3));
        for query in 0..50 {
            for worker in 0..4 {
                assert!(plan.delay_before_send(query, worker).is_none());
                let mut p = vec![0u8];
                assert!(!plan.corrupt_frame(query, worker, &mut p));
            }
        }
    }
}
