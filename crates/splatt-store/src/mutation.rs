//! Mutation test over the bytes the disk controls: a frame through
//! [`parse_frame_at`] and a delta payload through [`decode_delta`] and
//! [`DeltaBatch::decode_append`] — what WAL recovery and a refresh round
//! run on whatever a crash, a torn write or a bad sector left behind —
//! and an artifact file through
//! [`unwrap_artifact`] with the manifest inside it through
//! [`Manifest::decode`], what every store open reads first. The store
//! slice of the harness `splatt-serve/src/wire_mutation.rs` runs over
//! the wire decoders.
//!
//! Start from a valid encoding (fields drawn by `splatt_rt::qc`) and
//! take its [`Gen::byte_mutants`] — truncations, inversions, bit flips,
//! boundary values in every integer field (magic, generation, length,
//! CRC; order, count), drawn overwrites, an appended byte. For every
//! mutant:
//!
//! - no panic (`qc::check` turns one into a failure naming the seed);
//! - the decoder returns a typed [`FrameDefect`] / [`DeltaDecodeError`]
//!   / [`StoreError::Corrupt`] or a value that re-encodes to exactly the
//!   bytes it was read from (for a frame, the bytes up to the offset the
//!   parse returns: frames are read back to back);
//! - no call requests more heap than a stated multiple of the bytes
//!   present ([`splatt_probe::alloc::CountingAlloc`], per thread).

use crate::atomic::unwrap_artifact;
use crate::delta::{decode_delta, encode_delta, DeltaBatch, DeltaDecodeError, DeltaEntry};
use crate::error::StoreError;
use crate::frame::{
    encode_frame, encode_frame_into, parse_frame_at, Frame, FrameDefect, ARTIFACT_MAGIC,
    FRAME_HEADER_LEN,
};
use crate::manifest::Manifest;
use splatt_probe::alloc::heap_of;
use splatt_rt::qc::{self, Gen};
use std::path::Path;

/// Heap [`parse_frame_at`] may request per byte present: the CRC input
/// and the returned payload are one copy of the payload each — and
/// [`unwrap_artifact`], which adds the file magic and no copy.
const FRAME_HEAP_FACTOR: u64 = 2;
/// … and [`decode_delta`]: an entry is `4·order + 8` wire bytes and
/// decodes to a 32-byte `(Vec<u32>, f64)` slot plus `4·order` bytes of
/// coordinates — `(32 + 4·order) / (8 + 4·order)` ≤ 3, at order 1.
const DELTA_HEAP_FACTOR: u64 = 3;
/// … and [`Manifest::decode`]: an entry line is at least the 2 bytes
/// `=\n` and decodes to a 48-byte `(String, String)` slot plus at most
/// its own bytes — ≤ 24 + 1 per byte, at `=\n`.
const MANIFEST_HEAP_FACTOR: u64 = 25;
/// … plus this much for what does not scale (an error's message or path).
const HEAP_SLACK: u64 = 256;

fn check_frame_mutant(m: &[u8]) -> Result<(), FrameDefect> {
    let (parsed, heap) = heap_of(|| parse_frame_at(m, 0));
    assert!(
        heap <= FRAME_HEAP_FACTOR * m.len() as u64 + HEAP_SLACK,
        "parse_frame_at asked for {heap} B for {} B: {m:?}",
        m.len()
    );
    let (frame, next) = parsed?;
    assert!(next <= m.len(), "{next} is past the end of {m:?}");
    assert_eq!(
        encode_frame(frame.generation, &frame.payload),
        m[..next],
        "parse then encode changed the bytes of {frame:?}"
    );
    Ok(())
}

fn check_delta_mutant(m: &[u8]) -> Result<(), DeltaDecodeError> {
    let (decoded, heap) = heap_of(|| decode_delta(m));
    assert!(
        heap <= DELTA_HEAP_FACTOR * m.len() as u64 + HEAP_SLACK,
        "decode_delta asked for {heap} B for {} B: {m:?}",
        m.len()
    );
    // the packed decoder: the same verdict, the same entries, and no
    // more heap than the bytes present
    let order = m.first().map_or(0, |&o| usize::from(o));
    let mut packed = DeltaBatch::new(order);
    let (appended, heap) = heap_of(|| packed.decode_append(m));
    assert!(
        heap <= m.len() as u64 + HEAP_SLACK,
        "DeltaBatch::decode_append asked for {heap} B for {} B: {m:?}",
        m.len()
    );
    match &decoded {
        Ok((order, entries)) => {
            assert_eq!(appended, Ok(*order));
            assert_eq!(encode_delta(*order, &packed_entries(&packed)), m);
            assert_eq!(packed.len(), entries.len());
        }
        Err(e) => {
            assert_eq!(appended.as_ref(), Err(e));
            assert!(packed.is_empty(), "a refused payload appended entries");
        }
    }
    let (order, entries) = decoded.inspect_err(|e| assert!(e.offset <= m.len(), "{e}: {m:?}"))?;
    // Compared as bytes: a flipped bit makes NaNs, which no value equals.
    assert_eq!(
        encode_delta(order, &entries),
        m,
        "decode then encode changed the bytes of {entries:?}"
    );
    Ok(())
}

/// A packed batch's entries as `(coords, value)` pairs.
fn packed_entries(batch: &DeltaBatch) -> Vec<DeltaEntry> {
    (0..batch.len())
        .map(|i| (batch.coord(i).to_vec(), batch.vals()[i]))
        .collect()
}

fn check_artifact_mutant(m: &[u8]) -> Result<Frame, StoreError> {
    let (unwrapped, heap) = heap_of(|| unwrap_artifact(m, Path::new("a.splatt")));
    assert!(
        heap <= FRAME_HEAP_FACTOR * m.len() as u64 + HEAP_SLACK,
        "unwrap_artifact asked for {heap} B for {} B: {m:?}",
        m.len()
    );
    let frame = unwrapped.inspect_err(|e| assert!(matches!(e, StoreError::Corrupt { .. })))?;
    let mut again = ARTIFACT_MAGIC.to_vec();
    encode_frame_into(&mut again, frame.generation, &frame.payload);
    assert_eq!(
        again, m,
        "unwrap then publish changed the bytes of {frame:?}"
    );
    Ok(frame)
}

fn check_manifest_mutant(m: &[u8]) -> Result<(), StoreError> {
    let (decoded, heap) = heap_of(|| Manifest::decode(1, m, Path::new("MANIFEST.splatt")));
    assert!(
        heap <= MANIFEST_HEAP_FACTOR * m.len() as u64 + HEAP_SLACK,
        "Manifest::decode asked for {heap} B for {} B: {m:?}",
        m.len()
    );
    let manifest = decoded.inspect_err(|e| assert!(matches!(e, StoreError::Corrupt { .. })))?;
    assert_eq!(
        manifest.encode(),
        m,
        "decode then encode changed the bytes of {manifest:?}"
    );
    Ok(())
}

/// A valid manifest: the refresh engine's keys and others, values
/// empty, numeric, holding `=`, multi-byte, or ending in `'\r'`.
fn manifest_of(g: &mut Gen) -> Manifest {
    let mut m = Manifest::default();
    for _ in 0..*g.choose(&[0usize, 1, 3, 6]) {
        let key = *g.choose(&["order", "refresh_seq", "refresh_model", "k", ""]);
        let drawn = g.u64().to_string();
        let value = g
            .choose(&["", "3", "model.splatt\r", "a=b", "über", drawn.as_str()])
            .to_string();
        m.set(key, &value);
    }
    m
}

/// A valid batch: orders 1 (the heap bound's worst case) to 5, sometimes
/// empty, coordinates and values at their extremes among drawn ones.
fn batch_of(g: &mut Gen) -> (usize, Vec<DeltaEntry>) {
    let order = g.range(1..6usize);
    let len = *g.choose(&[0usize, 1, 2, 9]);
    let entries = (0..len)
        .map(|_| {
            let coords = (0..order)
                .map(|_| {
                    let drawn = g.range(0..1000u32);
                    *g.choose(&[0, 7, drawn, u32::MAX])
                })
                .collect();
            let drawn = g.f64_in(-4.0, 4.0);
            (coords, *g.choose(&[drawn, -0.0, f64::MAX]))
        })
        .collect();
    (order, entries)
}

#[test]
fn mutated_frames_and_deltas_decode_typed_bounded_and_never_panic() {
    qc::check("store mutants", 48, |g| {
        let (order, entries) = batch_of(g);
        let payload = encode_delta(order, &entries);
        // order, count. Besides the unmutated payload, a mutant may be
        // another valid delta — a flipped coordinate or value bit, which
        // no checksum guards at this layer — but never a shorter or a
        // longer one.
        let decoded = g
            .byte_mutants(&payload, &[(0, 1), (1, 4)])
            .iter()
            .filter(|m| check_delta_mutant(m).is_ok())
            .inspect(|m| assert_eq!(m.len(), payload.len()))
            .count();
        assert!(decoded >= 1, "the unmutated payload decodes");

        // The frame a WAL record is: the payload under a drawn sequence
        // number. Magic, generation, length, CRC. What parses is the
        // frame itself, alone or with a byte after it (frames are read
        // back to back) — nothing damaged.
        let drawn = g.u64();
        let frame = encode_frame(*g.choose(&[0, 1, drawn, u64::MAX]), &payload);
        assert_eq!(frame.len(), FRAME_HEADER_LEN + payload.len());
        for m in g.byte_mutants(&frame, &[(0, 4), (4, 8), (12, 4), (16, 4)]) {
            if check_frame_mutant(&m).is_ok() {
                assert!(m.starts_with(&frame), "a damaged frame parsed: {m:?}");
            }
        }
    });
}

#[test]
fn mutated_artifacts_and_manifests_decode_typed_bounded_and_never_panic() {
    qc::check("artifact + manifest mutants", 48, |g| {
        let payload = manifest_of(g).encode();
        // No integer fields; a mutant that decodes is another manifest
        // (a prefix ending on a line, a changed key or value byte) and
        // must re-encode to itself.
        let decoded = g
            .byte_mutants(&payload, &[])
            .iter()
            .filter(|m| check_manifest_mutant(m).is_ok())
            .count();
        assert!(decoded >= 1, "the unmutated manifest decodes");

        // The file `Manifest::publish` writes: file magic, then one frame
        // (magic, generation, length, CRC). Nothing damaged unwraps —
        // not even with a byte after it — and what unwraps decodes.
        let drawn = g.u64();
        let mut artifact = ARTIFACT_MAGIC.to_vec();
        encode_frame_into(&mut artifact, *g.choose(&[0, 1, drawn, u64::MAX]), &payload);
        let fields = [(0, 8), (8, 4), (12, 8), (20, 4), (24, 4)];
        for m in g.byte_mutants(&artifact, &fields) {
            if let Ok(frame) = check_artifact_mutant(&m) {
                assert_eq!(m, artifact, "a damaged artifact unwrapped");
                check_manifest_mutant(&frame.payload).expect("the manifest inside");
            }
        }
    });
}
