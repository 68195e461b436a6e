//! Process-wide durability counters.
//!
//! The set is declared in `splatt-probe` (`StoreAtomics`, with every
//! other counter set of the workspace) and lives here as one global:
//! the WAL and the atomic-publish path increment its fields directly,
//! and a [`snapshot`] — the CLI takes one after an ingest/recover run —
//! is the probe report's `store` row as it stands.

use splatt_probe::{StoreAtomics, StoreCounters};

pub(crate) static COUNTERS: StoreAtomics = StoreAtomics::new();

/// Snapshot every counter.
pub fn snapshot() -> StoreCounters {
    COUNTERS.snapshot()
}
