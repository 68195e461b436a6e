//! Recovery policies and the typed record of what a recovery did.

use std::time::Duration;

/// How the stack responded to one injected (or organic) fault.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryAction {
    /// A straggler's delay was simply waited out.
    AbsorbedDelay { nanos: u64 },
    /// A dropped collective was retried with exponential backoff.
    Retried { attempts: u32, backoff_nanos: u64 },
    /// A non-SPD normal-equations matrix was solved through an escalating
    /// Tikhonov ridge.
    Regularized { ridge: f64, attempts: u32 },
    /// Non-finite state was detected and the iteration was rolled back to
    /// the last good snapshot.
    RolledBack { to_iteration: usize },
    /// Recovery was exhausted (bounded retries/rollbacks ran out).
    Unrecovered,
}

impl RecoveryAction {
    /// Stable label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryAction::AbsorbedDelay { .. } => "absorbed-delay",
            RecoveryAction::Retried { .. } => "retried",
            RecoveryAction::Regularized { .. } => "regularized",
            RecoveryAction::RolledBack { .. } => "rolled-back",
            RecoveryAction::Unrecovered => "unrecovered",
        }
    }

    /// One-line human rendering, e.g. `retried (2 attempts, 3.0us backoff)`.
    pub fn describe(&self) -> String {
        match self {
            RecoveryAction::AbsorbedDelay { nanos } => {
                format!("absorbed-delay ({:.1}us)", *nanos as f64 / 1e3)
            }
            RecoveryAction::Retried {
                attempts,
                backoff_nanos,
            } => format!(
                "retried ({attempts} attempt(s), {:.1}us backoff)",
                *backoff_nanos as f64 / 1e3
            ),
            RecoveryAction::Regularized { ridge, attempts } => {
                format!("regularized (ridge {ridge:.3e}, {attempts} attempt(s))")
            }
            RecoveryAction::RolledBack { to_iteration } => {
                format!("rolled-back (to iteration {to_iteration})")
            }
            RecoveryAction::Unrecovered => "unrecovered".to_string(),
        }
    }
}

/// Bounds on every recovery mechanism. `Copy` so it can ride inside
/// `Copy` option structs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum retries for a failed collective before giving up.
    pub max_retries: u32,
    /// Base backoff; attempt `k` waits `backoff_base * 2^(k-1)`.
    pub backoff_base_nanos: u64,
    /// First Tikhonov ridge, relative to the mean Gram diagonal.
    pub ridge_base: f64,
    /// Multiplicative ridge escalation per failed factorization.
    pub ridge_growth: f64,
    /// Maximum ridge escalations before declaring the solve unrecoverable.
    pub max_ridge_attempts: u32,
    /// Maximum iteration rollbacks per run before accepting degradation.
    pub max_rollbacks: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 4,
            backoff_base_nanos: 1_000,
            ridge_base: 1e-8,
            ridge_growth: 100.0,
            max_ridge_attempts: 10,
            max_rollbacks: 16,
        }
    }
}

impl RecoveryPolicy {
    /// Total backoff accrued by `attempts` retries (exponential, capped
    /// to avoid overflow on adversarial policies).
    pub fn total_backoff_nanos(&self, attempts: u32) -> u64 {
        let mut total = 0u64;
        for k in 0..attempts {
            let factor = 1u64 << k.min(20);
            total = total.saturating_add(self.backoff_base_nanos.saturating_mul(factor));
        }
        total
    }

    /// The backoff for one attempt as a sleepable duration, capped at 1 ms
    /// so adversarial plans cannot stall tests.
    pub fn backoff_duration(&self, attempt: u32) -> Duration {
        let nanos = self
            .backoff_base_nanos
            .saturating_mul(1u64 << attempt.min(20))
            .min(1_000_000);
        Duration::from_nanos(nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RecoveryPolicy {
            backoff_base_nanos: 100,
            ..Default::default()
        };
        assert_eq!(p.total_backoff_nanos(0), 0);
        assert_eq!(p.total_backoff_nanos(1), 100);
        assert_eq!(p.total_backoff_nanos(3), 100 + 200 + 400);
        assert!(p.backoff_duration(63) <= Duration::from_millis(1));
    }

    #[test]
    fn actions_describe_themselves() {
        let actions = [
            RecoveryAction::AbsorbedDelay { nanos: 5_000 },
            RecoveryAction::Retried {
                attempts: 2,
                backoff_nanos: 3_000,
            },
            RecoveryAction::Regularized {
                ridge: 1e-6,
                attempts: 3,
            },
            RecoveryAction::RolledBack { to_iteration: 4 },
            RecoveryAction::Unrecovered,
        ];
        for a in &actions {
            assert!(a.describe().contains(a.label().split(' ').next().unwrap()));
        }
        assert_eq!(RecoveryAction::Unrecovered.label(), "unrecovered");
    }

    #[test]
    fn default_policy_is_bounded() {
        let p = RecoveryPolicy::default();
        assert!(p.max_retries > 0);
        assert!(p.max_ridge_attempts > 0);
        assert!(p.ridge_growth > 1.0);
    }
}
