//! Reactor observability: lock-free counters for the front end's
//! connection, readiness, write-coalescing, and shedding behavior.
//!
//! The set itself — [`NetCounters`] and its plain [`NetSnapshot`] — is
//! declared in `splatt-probe` with every other counter set of the
//! workspace. One instance is shared between the reactor thread, the
//! worker pool, and whoever exports metrics; its snapshot is the probe
//! report's `serve.net` row. What is written here is the one update
//! that is more than a `fetch_add`: the open-connection gauge and its peak.

pub use splatt_probe::{NetCounters, NetSnapshot};
use std::sync::atomic::Ordering;

/// Bump `connections_open` and fold the new value into the peak.
pub(crate) fn conn_opened(c: &NetCounters) {
    let now = c.connections_open.fetch_add(1, Ordering::Relaxed) + 1;
    c.connections_peak.fetch_max(now, Ordering::Relaxed);
}

/// Decrement `connections_open`.
pub(crate) fn conn_closed(c: &NetCounters) {
    c.connections_open.fetch_sub(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_the_high_water_mark() {
        let c = NetCounters::default();
        conn_opened(&c);
        conn_opened(&c);
        conn_closed(&c);
        conn_opened(&c);
        let snap = c.snapshot();
        assert_eq!(snap.connections_open, 2);
        assert_eq!(snap.connections_peak, 2);
    }
}
