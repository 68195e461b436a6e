//! A hashed timer wheel for connection idle timeouts and per-request
//! deadline backstops.
//!
//! The reactor schedules tens of thousands of coarse timers (one idle
//! timer per connection, one deadline backstop per in-flight request)
//! and fires them from its poll loop. A hashed wheel makes both
//! operations O(1) amortized: `schedule` hashes the due tick into one
//! of `slots` buckets; `expired` walks only the buckets whose tick has
//! come due since the last call, retaining entries that hashed into the
//! bucket but belong to a later lap.
//!
//! Cancellation is *lazy*: the wheel has no `cancel`. Callers attach
//! enough identity to the key (slab slot + generation + sequence) to
//! recognize stale firings and drop them — the reactor validates every
//! fired key against live connection state. Re-arming (idle timers
//! pushed forward by activity) is likewise done at fire time: the
//! callback checks the real deadline and reschedules if it moved.

use std::time::{Duration, Instant};

/// One scheduled timer: fires at `due`, delivering `key` to the caller.
#[derive(Debug, Clone, Copy)]
struct Entry<K> {
    due: Instant,
    key: K,
}

/// The wheel; see the module docs. `K` is caller-defined timer identity.
#[derive(Debug)]
pub(crate) struct TimerWheel<K> {
    slots: Vec<Vec<Entry<K>>>,
    granularity: Duration,
    /// Origin instant; ticks are counted from here.
    epoch: Instant,
    /// First tick not yet processed by [`TimerWheel::expired`].
    next_tick: u64,
}

impl<K: Copy> TimerWheel<K> {
    /// A wheel with `slots` buckets of `granularity` width each. One
    /// full lap spans `slots * granularity`; timers beyond a lap simply
    /// stay bucketed until their lap comes around.
    pub(crate) fn new(slots: usize, granularity: Duration) -> TimerWheel<K> {
        assert!(slots > 0, "timer wheel needs at least one slot");
        assert!(
            granularity > Duration::ZERO,
            "timer wheel granularity must be positive"
        );
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            granularity,
            epoch: Instant::now(),
            next_tick: 0,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        let since = at.saturating_duration_since(self.epoch);
        (since.as_nanos() / self.granularity.as_nanos().max(1)) as u64
    }

    /// Schedule `key` to fire once `due` has passed. Timers already in
    /// the past fire on the next [`TimerWheel::expired`] call.
    pub(crate) fn schedule(&mut self, due: Instant, key: K) {
        // A due tick behind the sweep cursor would never be visited
        // again this lap; clamp it to the cursor so it fires promptly.
        let tick = self.tick_of(due).max(self.next_tick);
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot].push(Entry { due, key });
    }

    /// Advance the wheel to `now`, appending every fired key to `out`.
    /// Entries sharing a bucket but due on a later lap are retained.
    pub(crate) fn expired(&mut self, now: Instant, out: &mut Vec<K>) {
        let current = self.tick_of(now);
        if current < self.next_tick {
            return;
        }
        // Visiting more ticks than the wheel has slots would re-scan
        // buckets; one full lap covers them all.
        let first = if current - self.next_tick >= self.slots.len() as u64 {
            self.next_tick = current + 1;
            0
        } else {
            let f = self.next_tick;
            self.next_tick = current + 1;
            f
        };
        let span = if first == 0 && current + 1 >= self.slots.len() as u64 {
            // Full-lap scan.
            0..self.slots.len() as u64
        } else {
            first..current + 1
        };
        for tick in span {
            let slot = (tick % self.slots.len() as u64) as usize;
            let bucket = &mut self.slots[slot];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].due <= now {
                    out.push(bucket.swap_remove(i).key);
                } else {
                    i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<K: Copy> TimerWheel<K> {
        /// Timers currently scheduled.
        fn len(&self) -> usize {
            self.slots.iter().map(Vec::len).sum()
        }

        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    #[test]
    fn fires_due_timers_and_keeps_future_ones() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(8, Duration::from_millis(10));
        let now = Instant::now();
        wheel.schedule(now, 1);
        wheel.schedule(now + Duration::from_secs(60), 2);
        let mut fired = Vec::new();
        wheel.expired(now + Duration::from_millis(15), &mut fired);
        assert_eq!(fired, vec![1]);
        assert_eq!(wheel.len(), 1);
    }

    #[test]
    fn far_future_timers_survive_bucket_collisions() {
        // 4 slots of 10ms: a timer 40ms out lands in the same bucket as
        // one due now, but must not fire with it.
        let mut wheel: TimerWheel<u32> = TimerWheel::new(4, Duration::from_millis(10));
        let now = Instant::now();
        wheel.schedule(now, 1);
        wheel.schedule(now + Duration::from_millis(40), 2);
        let mut fired = Vec::new();
        wheel.expired(now + Duration::from_millis(5), &mut fired);
        assert_eq!(fired, vec![1]);
        fired.clear();
        wheel.expired(now + Duration::from_millis(50), &mut fired);
        assert_eq!(fired, vec![2]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn a_long_gap_between_sweeps_fires_everything_once() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(4, Duration::from_millis(10));
        let now = Instant::now();
        for k in 0..20 {
            wheel.schedule(now + Duration::from_millis(u64::from(k)), k);
        }
        let mut fired = Vec::new();
        // A sweep far past every deadline (many laps later) must fire
        // each timer exactly once.
        wheel.expired(now + Duration::from_secs(5), &mut fired);
        fired.sort_unstable();
        assert_eq!(fired, (0..20).collect::<Vec<_>>());
        assert!(wheel.is_empty());
        fired.clear();
        wheel.expired(now + Duration::from_secs(6), &mut fired);
        assert!(fired.is_empty());
    }

    #[test]
    fn scheduling_in_the_past_fires_on_the_next_sweep() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(8, Duration::from_millis(10));
        let now = Instant::now();
        let mut fired = Vec::new();
        wheel.expired(now + Duration::from_millis(100), &mut fired);
        assert!(fired.is_empty());
        // The wheel's cursor is now past this due tick; it must still fire.
        wheel.schedule(now, 7);
        wheel.expired(now + Duration::from_millis(120), &mut fired);
        assert_eq!(fired, vec![7]);
    }
}
