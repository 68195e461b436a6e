//! Wall-clock deadlines.
//!
//! A [`Deadline`] is a start instant plus a budget. Besides the obvious
//! [`Deadline::expired`] check, the load-bearing operation is
//! [`Deadline::clamp`]: recovery backoffs and injected straggler sleeps
//! are clamped against the remaining budget so a retry loop can never
//! sleep past the run's deadline (ISSUE satellite: bound recovery
//! sleeps).

use std::time::{Duration, Instant};

/// A wall-clock budget anchored at a start instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    start: Instant,
    limit: Duration,
}

impl Deadline {
    /// A deadline expiring `limit` from now.
    pub(crate) fn after(limit: Duration) -> Self {
        Deadline {
            start: Instant::now(),
            limit,
        }
    }

    /// The total budget.
    pub(crate) fn limit(&self) -> Duration {
        self.limit
    }

    /// Time since the deadline was armed.
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Budget left, saturating at zero.
    pub(crate) fn remaining(&self) -> Duration {
        self.limit.saturating_sub(self.start.elapsed())
    }

    /// Whether the budget is spent.
    pub(crate) fn expired(&self) -> bool {
        self.start.elapsed() >= self.limit
    }

    /// Clamp a sleep to the remaining budget: sleeping `clamp(d)` can
    /// never carry the caller past the deadline.
    pub(crate) fn clamp(&self, d: Duration) -> Duration {
        d.min(self.remaining())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_deadline_has_its_budget() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(3599));
        assert_eq!(d.limit(), Duration::from_secs(3600));
    }

    #[test]
    fn zero_deadline_is_expired_immediately() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);
    }

    #[test]
    fn clamp_bounds_sleeps_by_the_remaining_budget() {
        let d = Deadline::after(Duration::from_millis(50));
        // A sleep far beyond the budget is cut down to at most it.
        assert!(d.clamp(Duration::from_secs(10)) <= Duration::from_millis(50));
        // A sleep within the budget is untouched.
        assert_eq!(d.clamp(Duration::ZERO), Duration::ZERO);
    }

    #[test]
    fn expired_deadline_clamps_to_zero() {
        let d = Deadline::after(Duration::ZERO);
        assert_eq!(d.clamp(Duration::from_secs(1)), Duration::ZERO);
    }
}
