//! Checksummed record framing shared by every on-disk artifact.
//!
//! A **frame** is the unit of crash-safe storage: a fixed header
//! followed by an opaque payload, with a CRC32 that covers the
//! generation, length, and payload bytes. Readers can therefore tell
//! *exactly* where valid data ends — a torn tail, a bit flip, or a
//! short read all surface as a typed [`FrameDefect`] at a byte offset,
//! never as silently wrong data.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     frame magic  b"SFR1"
//! 4       8     generation   u64 — monotonic stamp (WAL seq / artifact gen)
//! 12      4     length       u32 — payload byte count
//! 16      4     crc32        over generation ‖ length ‖ payload
//! 20      len   payload
//! ```
//!
//! Single-frame **artifact files** (checkpoints, models, manifests)
//! additionally start with the 8-byte [`ARTIFACT_MAGIC`] so format
//! sniffers (e.g. `load_model_path`) can recognize a framed file
//! without attempting a parse.

use crate::crc::crc32;

/// Per-frame magic, first 4 bytes of every frame header.
pub(crate) const FRAME_MAGIC: [u8; 4] = *b"SFR1";

/// File-level magic prefixing single-frame artifact files.
pub const ARTIFACT_MAGIC: [u8; 8] = *b"SPLTFRM1";

/// Header bytes before the payload: magic + generation + length + crc.
pub(crate) const FRAME_HEADER_LEN: usize = 4 + 8 + 4 + 4;

/// Upper bound on a single frame's payload. Anything larger is treated
/// as corruption — this is what stops a torn length field from driving
/// a multi-gigabyte allocation during recovery.
pub(crate) const MAX_PAYLOAD_LEN: u32 = 1 << 28; // 256 MiB

/// Why a frame failed to parse, and therefore where valid data ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDefect {
    /// Fewer than `FRAME_HEADER_LEN` bytes remained.
    TruncatedHeader,
    /// The header promised more payload bytes than remained.
    TruncatedPayload,
    /// The first 4 bytes were not `FRAME_MAGIC`.
    BadMagic,
    /// The stored CRC did not match the recomputed one.
    ChecksumMismatch,
    /// The length field exceeded `MAX_PAYLOAD_LEN`.
    OversizedLength,
}

impl FrameDefect {
    /// Stable label for reports and error messages.
    pub(crate) fn label(self) -> &'static str {
        match self {
            FrameDefect::TruncatedHeader => "truncated-header",
            FrameDefect::TruncatedPayload => "truncated-payload",
            FrameDefect::BadMagic => "bad-magic",
            FrameDefect::ChecksumMismatch => "checksum-mismatch",
            FrameDefect::OversizedLength => "oversized-length",
        }
    }
}

impl std::fmt::Display for FrameDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A decoded frame: the generation stamp and the payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub generation: u64,
    pub payload: Vec<u8>,
}

/// Serialize one frame (header + payload) into `out`.
pub fn encode_frame_into(out: &mut Vec<u8>, generation: u64, payload: &[u8]) {
    assert!(
        payload.len() as u64 <= MAX_PAYLOAD_LEN as u64,
        "frame payload of {} bytes exceeds MAX_PAYLOAD_LEN",
        payload.len()
    );
    let len = payload.len() as u32;
    let mut crc_input = Vec::with_capacity(12 + payload.len());
    crc_input.extend_from_slice(&generation.to_le_bytes());
    crc_input.extend_from_slice(&len.to_le_bytes());
    crc_input.extend_from_slice(payload);
    let crc = crc32(&crc_input);

    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Serialize one frame as a fresh byte vector.
pub fn encode_frame(generation: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    encode_frame_into(&mut out, generation, payload);
    out
}

/// Total encoded size of a frame carrying `payload_len` bytes.
pub fn frame_len(payload_len: usize) -> usize {
    FRAME_HEADER_LEN + payload_len
}

/// Parse a single frame starting at `bytes[offset..]`.
///
/// Returns the frame and the offset just past it, or the defect that
/// stopped the parse (the offset of the defect is `offset` itself —
/// a frame is atomic: any damage invalidates it from its first byte).
pub fn parse_frame_at(bytes: &[u8], offset: usize) -> Result<(Frame, usize), FrameDefect> {
    let rest = &bytes[offset.min(bytes.len())..];
    if rest.len() < FRAME_HEADER_LEN {
        return Err(FrameDefect::TruncatedHeader);
    }
    if rest[0..4] != FRAME_MAGIC {
        return Err(FrameDefect::BadMagic);
    }
    let generation = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(rest[12..16].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(rest[16..20].try_into().expect("4 bytes"));
    if len > MAX_PAYLOAD_LEN {
        return Err(FrameDefect::OversizedLength);
    }
    let len = len as usize;
    if rest.len() < FRAME_HEADER_LEN + len {
        return Err(FrameDefect::TruncatedPayload);
    }
    let payload = &rest[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
    let mut crc_input = Vec::with_capacity(12 + len);
    crc_input.extend_from_slice(&rest[4..16]);
    crc_input.extend_from_slice(payload);
    if crc32(&crc_input) != crc {
        return Err(FrameDefect::ChecksumMismatch);
    }
    Ok((
        Frame {
            generation,
            payload: payload.to_vec(),
        },
        offset + FRAME_HEADER_LEN + len,
    ))
}

/// Parse consecutive frames from `bytes`, stopping at the first defect.
///
/// Returns every frame that parsed cleanly plus, if the buffer did not
/// end exactly on a frame boundary, the byte offset and kind of the
/// defect that stopped the scan. This is the primitive WAL recovery is
/// built on: everything before the returned offset is good, everything
/// from it on is the (possibly torn) tail.
pub(crate) fn parse_frames(bytes: &[u8]) -> (Vec<Frame>, Option<(usize, FrameDefect)>) {
    let mut frames = Vec::new();
    let mut offset = 0;
    while offset < bytes.len() {
        match parse_frame_at(bytes, offset) {
            Ok((frame, next)) => {
                frames.push(frame);
                offset = next;
            }
            Err(defect) => return (frames, Some((offset, defect))),
        }
    }
    (frames, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_single_frame() {
        let encoded = encode_frame(7, b"hello durable world");
        let (frame, next) = parse_frame_at(&encoded, 0).expect("parses");
        assert_eq!(frame.generation, 7);
        assert_eq!(frame.payload, b"hello durable world");
        assert_eq!(next, encoded.len());
    }

    #[test]
    fn round_trip_empty_payload() {
        let encoded = encode_frame(0, b"");
        let (frame, next) = parse_frame_at(&encoded, 0).expect("parses");
        assert!(frame.payload.is_empty());
        assert_eq!(next, FRAME_HEADER_LEN);
    }

    #[test]
    fn multiple_frames_scan_cleanly() {
        let mut buf = Vec::new();
        for g in 0..5u64 {
            encode_frame_into(&mut buf, g, format!("record-{g}").as_bytes());
        }
        let (frames, defect) = parse_frames(&buf);
        assert!(defect.is_none());
        assert_eq!(frames.len(), 5);
        for (g, f) in frames.iter().enumerate() {
            assert_eq!(f.generation, g as u64);
            assert_eq!(f.payload, format!("record-{g}").into_bytes());
        }
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_defect() {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, 1, b"first");
        let first_end = buf.len();
        encode_frame_into(&mut buf, 2, b"second record");

        for cut in 0..buf.len() {
            let (frames, defect) = parse_frames(&buf[..cut]);
            if cut < first_end {
                assert!(frames.is_empty(), "cut {cut}");
                if cut > 0 {
                    assert!(defect.is_some(), "cut {cut}");
                }
            } else {
                assert_eq!(frames.len(), 1, "cut {cut}");
                assert_eq!(frames[0].generation, 1);
                if cut == first_end {
                    assert!(defect.is_none(), "cut {cut}");
                } else {
                    let (off, _) = defect.expect("torn tail");
                    assert_eq!(off, first_end, "cut {cut}");
                }
            }
        }
        // untruncated: both frames, no defect
        let (frames, defect) = parse_frames(&buf);
        assert_eq!(frames.len(), 2);
        assert!(defect.is_none());
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let buf = encode_frame(99, b"checksum me");
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut damaged = buf.clone();
                damaged[byte] ^= 1 << bit;
                // Any typed defect is acceptable; parsing is not.
                if let Ok((frame, _)) = parse_frame_at(&damaged, 0) {
                    panic!(
                        "flip at {byte}.{bit} parsed as gen={} payload={:?}",
                        frame.generation, frame.payload
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = encode_frame(1, b"x");
        // Overwrite the length field with something absurd.
        let huge = (MAX_PAYLOAD_LEN + 1).to_le_bytes();
        buf[12..16].copy_from_slice(&huge);
        assert_eq!(parse_frame_at(&buf, 0), Err(FrameDefect::OversizedLength));
    }

    #[test]
    fn garbage_prefix_is_bad_magic() {
        let buf = vec![0u8; 64];
        let (frames, defect) = parse_frames(&buf);
        assert!(frames.is_empty());
        assert_eq!(defect, Some((0, FrameDefect::BadMagic)));
    }
}
