//! The typed record of what a recovery did.

/// How the stack responded to one injected (or organic) fault.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryAction {
    /// A straggler's delay was simply waited out.
    AbsorbedDelay { nanos: u64 },
    /// A non-SPD normal-equations matrix was solved through an escalating
    /// Tikhonov ridge.
    Regularized { ridge: f64, attempts: u32 },
    /// Non-finite state was detected and the iteration was rolled back to
    /// the last good snapshot.
    RolledBack { to_iteration: usize },
    /// Recovery was exhausted (the ridge or rollback bound ran out).
    Unrecovered,
}

impl RecoveryAction {
    /// Stable label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryAction::AbsorbedDelay { .. } => "absorbed-delay",
            RecoveryAction::Regularized { .. } => "regularized",
            RecoveryAction::RolledBack { .. } => "rolled-back",
            RecoveryAction::Unrecovered => "unrecovered",
        }
    }

    /// One-line human rendering, e.g. `rolled-back (to iteration 2)`.
    pub fn describe(&self) -> String {
        match self {
            RecoveryAction::AbsorbedDelay { nanos } => {
                format!("absorbed-delay ({:.1}us)", *nanos as f64 / 1e3)
            }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_describe_themselves() {
        let actions = [
            RecoveryAction::AbsorbedDelay { nanos: 5_000 },
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
}
