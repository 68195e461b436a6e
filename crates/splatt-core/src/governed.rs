//! Governed CP-ALS: the policy types and the degrade loop behind
//! [`Governance::Policy`](crate::Governance::Policy).
//!
//! A governed run arms a [`RunGuard`] (deadline, memory budget, stall
//! watchdog) around the ALS driver and decides what happens when the
//! guard trips:
//!
//! * **Abort** — surface [`CpalsError::Aborted`] immediately; the error
//!   carries the last durable checkpoint and the partial model.
//! * **Checkpoint** — identical trip handling, but the policy refuses to
//!   start unless per-iteration durable checkpointing is configured, so
//!   an overrun is guaranteed to leave a resumable `ckpt-*.splatt`.
//! * **Degrade** — resume from the last checkpoint under a cheaper
//!   kernel configuration and the *remaining* deadline, walking a fixed
//!   ladder: first drop output privatization and switch to the zero-copy
//!   row access (cuts replica and row-copy allocation traffic, the two
//!   biggest budget spenders), then enable mode tiling (lock-free,
//!   no-replica execution). Only when the ladder is exhausted does the
//!   original abort surface.
//!
//! The deadline is global across degradation attempts — each retry's
//! guard is armed with what is left of the original budget. The memory
//! budget, by contrast, re-baselines per attempt: the probe counters
//! measure cumulative allocation *traffic*, and a degraded retry is a
//! new run whose traffic is judged on its own.

use crate::cpals::{als_attempt, CpalsError, CpalsOutput, CpalsRun};
use crate::options::CpalsOptions;
use splatt_guard::{GuardConfig, RunGuard, WatchdogConfig};
use splatt_par::TaskTeam;
use splatt_tensor::SparseTensor;
use std::time::{Duration, Instant};

/// What a governed run does when its guard trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnOverrun {
    /// Stop and surface the abort (default).
    #[default]
    Abort,
    /// As `Abort`, but the run refuses to start without a configured
    /// `checkpoint_dir`, guaranteeing the abort names a durable
    /// checkpoint once an iteration has completed.
    Checkpoint,
    /// Resume from the last checkpoint with progressively cheaper kernel
    /// configurations until the run finishes or the ladder runs out.
    Degrade,
}

impl OnOverrun {
    /// Parse a CLI-style label (`abort`, `checkpoint`, `degrade`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "abort" => Some(OnOverrun::Abort),
            "checkpoint" => Some(OnOverrun::Checkpoint),
            "degrade" => Some(OnOverrun::Degrade),
            _ => None,
        }
    }

    /// The CLI-facing label.
    pub fn label(&self) -> &'static str {
        match self {
            OnOverrun::Abort => "abort",
            OnOverrun::Checkpoint => "checkpoint",
            OnOverrun::Degrade => "degrade",
        }
    }
}

/// Governance limits for one CP-ALS run.
#[derive(Debug, Clone, Default)]
pub struct GovernancePolicy {
    /// Wall-clock budget across the whole governed run, degradation
    /// retries included.
    pub deadline: Option<Duration>,
    /// Allocation-traffic budget in bytes (per attempt; see module docs).
    pub mem_budget: Option<u64>,
    /// Arm a stall watchdog with this configuration.
    pub watchdog: Option<WatchdogConfig>,
    /// Trip response.
    pub on_overrun: OnOverrun,
}

impl GovernancePolicy {
    /// Is any limit armed? An empty policy has nothing that could trip,
    /// so it runs without a guard.
    pub fn is_armed(&self) -> bool {
        self.deadline.is_some() || self.mem_budget.is_some() || self.watchdog.is_some()
    }
}

/// The degradation ladder: each rung transforms the options into a
/// cheaper configuration. Returns `None` when the ladder is exhausted.
fn degrade(opts: &CpalsOptions, rung: usize) -> Option<(CpalsOptions, String)> {
    match rung {
        // Rung 1: no output privatization + zero-copy row access. Kills
        // the replica buffers and per-row copies that dominate
        // allocation traffic, at the price of lock-pool contention.
        1 => {
            let next = CpalsOptions {
                priv_threshold: 0.0,
                access: crate::mttkrp::MatrixAccess::PointerZip,
                ..opts.clone()
            };
            Some((
                next,
                "disable privatization, pointer-zip access".to_string(),
            ))
        }
        // Rung 2: mode tiling — lock-free, replica-free execution.
        2 => {
            let next = CpalsOptions {
                tiling: true,
                ..opts.clone()
            };
            Some((next, "enable mode tiling (lock-free path)".to_string()))
        }
        _ => None,
    }
}

/// The [`Governance::Policy`](crate::Governance::Policy) arm of
/// [`crate::try_cp_als`]: run under `policy`, one fresh guard per attempt.
pub(crate) fn run_under_policy(
    tensor: &SparseTensor,
    opts: &CpalsOptions,
    team: &TaskTeam,
    run: &CpalsRun<'_>,
    policy: &GovernancePolicy,
) -> Result<CpalsOutput, CpalsError> {
    assert!(
        policy.on_overrun != OnOverrun::Checkpoint || opts.checkpoint_dir.is_some(),
        "on_overrun=checkpoint requires a checkpoint_dir"
    );

    let start = Instant::now();
    let mut attempt_opts = opts.clone();
    let mut degradations = Vec::new();
    let mut attempts = 0usize;
    let mut rung = 0usize;

    loop {
        attempts += 1;
        let guard = policy.is_armed().then(|| {
            RunGuard::new(GuardConfig {
                deadline: policy.deadline.map(|d| d.saturating_sub(start.elapsed())),
                mem_budget: policy.mem_budget,
                watchdog: policy.watchdog,
                lanes: opts.ntasks.max(1),
            })
        });
        let result = als_attempt(tensor, &attempt_opts, team, run, guard.as_ref());
        if let Some(guard) = &guard {
            guard.shutdown();
        }
        let ab = match result {
            Ok(output) => {
                return Ok(CpalsOutput {
                    attempts,
                    degradations,
                    ..output
                })
            }
            Err(CpalsError::Aborted(ab)) => ab,
            Err(e) => return Err(e),
        };
        if policy.on_overrun != OnOverrun::Degrade {
            return Err(CpalsError::Aborted(ab));
        }
        rung += 1;
        let Some((next, what)) = degrade(&attempt_opts, rung) else {
            return Err(CpalsError::Aborted(ab)); // ladder exhausted
        };
        attempt_opts = next;
        // continue exactly where the aborted attempt durably left off
        attempt_opts.resume_from = ab.last_checkpoint.clone();
        degradations.push(format!("{} -> {}", ab.reason.label(), what));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpals::{try_cp_als, CpalsRun, Governance};
    use splatt_tensor::synth;
    use std::time::Duration;

    fn planted() -> SparseTensor {
        synth::planted_dense(&[16, 14, 12], 3, 0.0, 11).0
    }

    fn governed(policy: &GovernancePolicy) -> Result<CpalsOutput, CpalsError> {
        let run = CpalsRun {
            governance: Governance::Policy(policy),
            ..Default::default()
        };
        try_cp_als(&planted(), &opts(), &run)
    }

    fn opts() -> CpalsOptions {
        CpalsOptions {
            rank: 3,
            max_iters: 10,
            tolerance: 0.0,
            ntasks: 2,
            ..Default::default()
        }
    }

    #[test]
    fn ungoverned_policy_just_runs() {
        let out = governed(&GovernancePolicy::default()).expect("clean run");
        assert_eq!(out.attempts, 1);
        assert!(out.degradations.is_empty());
        assert_eq!(out.iterations, 10);
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let policy = GovernancePolicy {
            deadline: Some(Duration::from_secs(300)),
            ..Default::default()
        };
        let out = governed(&policy).expect("clean run");
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn zero_deadline_aborts_immediately() {
        let policy = GovernancePolicy {
            deadline: Some(Duration::ZERO),
            on_overrun: OnOverrun::Abort,
            ..Default::default()
        };
        match governed(&policy) {
            Err(CpalsError::Aborted(ab)) => {
                assert!(matches!(
                    ab.reason,
                    splatt_guard::TripReason::DeadlineExceeded { .. }
                ));
                assert!(ab.last_checkpoint.is_none());
                assert_eq!(ab.partial.factors.len(), 3);
            }
            other => panic!("expected Aborted, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "requires a checkpoint_dir")]
    fn checkpoint_policy_without_dir_panics() {
        let policy = GovernancePolicy {
            deadline: Some(Duration::from_secs(1)),
            on_overrun: OnOverrun::Checkpoint,
            ..Default::default()
        };
        let _ = governed(&policy);
    }

    #[test]
    fn degrade_ladder_walks_and_then_surfaces_the_abort() {
        // a zero deadline trips every attempt: both rungs are tried,
        // then the ladder is exhausted and the abort surfaces
        let policy = GovernancePolicy {
            deadline: Some(Duration::ZERO),
            on_overrun: OnOverrun::Degrade,
            ..Default::default()
        };
        match governed(&policy) {
            Err(CpalsError::Aborted(ab)) => {
                assert!(matches!(
                    ab.reason,
                    splatt_guard::TripReason::DeadlineExceeded { .. }
                ));
            }
            other => panic!("expected Aborted, got {other:?}"),
        }
    }

    #[test]
    fn degraded_configs_match_the_straight_fit() {
        // both rungs individually produce numerically equivalent runs
        let t = planted();
        let straight = crate::cpals::cp_als(&t, &opts());
        for rung in 1..=2 {
            let (rung_opts, _) = degrade(&opts(), rung).expect("rung exists");
            let out = crate::cpals::cp_als(&t, &rung_opts);
            assert!(
                (out.fit - straight.fit).abs() < 1e-8,
                "rung {rung}: fit {} vs {}",
                out.fit,
                straight.fit
            );
        }
        assert!(degrade(&opts(), 3).is_none(), "ladder has exactly 2 rungs");
    }

    #[test]
    fn on_overrun_parses_labels() {
        for v in [OnOverrun::Abort, OnOverrun::Checkpoint, OnOverrun::Degrade] {
            assert_eq!(OnOverrun::parse(v.label()), Some(v));
        }
        assert_eq!(OnOverrun::parse("explode"), None);
    }
}
