//! Crash-safe persistence for splatt-rs.
//!
//! Every byte the stack persists — checkpoints, exported models, the
//! ingest WAL, the store manifest — goes through this crate, which
//! provides three guarantees a bare `File::create` cannot:
//!
//! 1. **Detection** — every on-disk record is CRC32-framed
//!    ([`Frame`]): length-prefixed, generation-stamped, checksummed.
//!    Torn tails, bit flips, and short reads surface as typed
//!    [`FrameDefect`]s at a byte offset; corrupt data is never
//!    silently returned.
//! 2. **Atomic publish** — [`publish_artifact`] implements
//!    `write temp → fsync file → rename → fsync dir`, so a reader of
//!    an artifact path sees the old version or the new one, never a
//!    hybrid, no matter where a crash lands.
//! 3. **Durable append** — [`Wal`] is an append-only log of nnz delta
//!    batches ([`encode_delta`]) with group-commit fsync (acknowledgement =
//!    `commit()` returning), segment rotation, and recovery that
//!    truncates at most the unacknowledged torn tail — damage to
//!    acknowledged records is refused as [`StoreError::Corrupt`],
//!    never dropped. Recovery belongs to the writer; a reader of a
//!    live log uses [`Wal::tail`], which writes nothing.
//!
//! The whole crate is std-only and deterministic under the
//! [`splatt_faults::IoFaultPlan`] disk-fault injector: every create,
//! write, fsync, and rename draws an op index, which is how the
//! recovery storm test replays a workload crashed at every single op
//! boundary and pins that nothing acknowledged is ever lost.
//!
//! Durability counters: [`counters_snapshot`] returns the probe report's
//! `store` row ([`StoreCounters`], declared in `splatt-probe` with every
//! other counter set and re-exported here).

mod atomic;
mod counters;
mod crc;
mod delta;
mod error;
mod frame;
mod manifest;
#[cfg(test)]
mod mutation;
mod wal;

/// The unit tests count their heap requests: the mutation test asserts
/// an allocation bound per decoded frame and delta.
#[cfg(test)]
#[global_allocator]
static HEAP: splatt_probe::alloc::CountingAlloc = splatt_probe::alloc::CountingAlloc;

pub use atomic::{is_framed, publish_artifact, publish_bytes, read_artifact, unwrap_artifact};
pub use counters::snapshot as counters_snapshot;
pub use crc::{crc32, Crc32};
pub use delta::{decode_delta, encode_delta, DeltaBatch, DeltaDecodeError, DeltaEntry};
pub use error::StoreError;
pub use frame::{
    encode_frame, encode_frame_into, frame_len, parse_frame_at, parse_frames, Frame, FrameDefect,
    ARTIFACT_MAGIC, FRAME_HEADER_LEN, FRAME_MAGIC, MAX_PAYLOAD_LEN,
};
pub use manifest::{Manifest, MANIFEST_HEADER, MANIFEST_NAME};
pub use splatt_probe::StoreCounters;
pub use wal::{Wal, WalOptions, WalPosition, WalRecord, WalRecovery, WalTail};
