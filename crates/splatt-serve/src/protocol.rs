//! The length-prefixed binary wire protocol.
//!
//! Every message — request or response — is one frame: a `u32`
//! little-endian payload length followed by the payload. Integers are
//! little-endian; floats travel as IEEE-754 bit patterns
//! (`f64::to_bits`), so values cross the wire bit-exactly.
//!
//! Request payload:
//!
//! ```text
//! u8  op          1=entry 2=slice 3=topk 4=stats 5=list 6=shutdown
//! u32 deadline_ms 0 = server default
//! u16 name_len    + name bytes (UTF-8; empty for stats/list/shutdown)
//! u64 version     0 = latest
//! ...op-specific body (see RequestBody)
//! ```
//!
//! Op bytes 7–9 and status byte 7 are retired: they decode as unknown,
//! to the same typed error as any other byte no op or status has.
//!
//! Response payload: `u8` status (0 = ok, else a [`WireError`] code)
//! followed by either an error message (`u16` length + UTF-8) or the
//! op-specific result body.

use crate::registry::ModelInfo;
use std::io::{Error, ErrorKind, Read, Write};

/// Refuse frames beyond this size (64 MiB) — a corrupt or malicious
/// length prefix must not trigger a giant allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// Wire error codes; the typed mirror of [`crate::ServeError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireError {
    Overloaded = 1,
    DeadlineExpired = 2,
    ModelNotFound = 3,
    BadRequest = 4,
    ShuttingDown = 5,
    Internal = 6,
    /// The request was cancelled server-side before producing a result
    /// — typically the client vanished mid-wait, or the front end tore
    /// the connection down. Distinct from [`WireError::Internal`]: the
    /// server did nothing wrong, and a replay may well succeed.
    Cancelled = 8,
}

impl WireError {
    fn from_code(code: u8) -> Option<WireError> {
        Some(match code {
            1 => WireError::Overloaded,
            2 => WireError::DeadlineExpired,
            3 => WireError::ModelNotFound,
            4 => WireError::BadRequest,
            5 => WireError::ShuttingDown,
            6 => WireError::Internal,
            8 => WireError::Cancelled,
            _ => return None,
        })
    }
}

/// Op-specific request body.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// `u8` order, `u32` tuple count, then `count * order` `u32` coords.
    Entry {
        order: u8,
        coords: Vec<u32>,
    },
    /// `u8` mode, `u32` index.
    Slice {
        mode: u8,
        index: u32,
    },
    /// `u8` mode, `u32` k, `u8` fixed count, then `u32` fixed coords.
    TopK {
        mode: u8,
        k: u32,
        fixed: Vec<u32>,
    },
    Stats,
    List,
    Shutdown,
}

/// One decoded request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Per-request deadline in milliseconds; 0 = server default.
    pub deadline_ms: u32,
    /// Model name (empty for stats/list/shutdown).
    pub model: String,
    /// Model version; 0 = latest.
    pub version: u64,
    pub body: RequestBody,
}

/// One decoded response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Entries(Vec<f64>),
    Slice(Vec<f64>),
    TopK(Vec<(u32, f64)>),
    /// Probe schema v5 profile JSON.
    Stats(String),
    Models(Vec<ModelInfo>),
    /// Acknowledges a shutdown request.
    Ack,
    Error(WireError, String),
}

fn bad(msg: impl Into<String>) -> Error {
    Error::new(ErrorKind::InvalidData, msg.into())
}

/// Write one frame.
///
/// # Errors
/// Fails on oversized payloads and propagates I/O errors.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(bad(format!(
            "frame of {} bytes exceeds limit",
            payload.len()
        )));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// What [`read_frame`] will allocate on the word of a length prefix
/// alone (1 MiB). A frame up to this size is read into one exact
/// allocation; a longer one gets its buffer a chunk at a time, each
/// chunk only after the bytes before it arrived — so four corrupt bytes
/// cost a blocking client one chunk, not [`MAX_FRAME`].
const READ_CHUNK: usize = 1 << 20;

/// Read one frame.
///
/// # Errors
/// Fails on oversized length prefixes and propagates I/O errors
/// (`UnexpectedEof` on a clean close before the prefix, or before the
/// payload the prefix announced is complete).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(bad(format!("frame of {len} bytes exceeds limit")));
    }
    let mut payload = vec![0u8; len.min(READ_CHUNK)];
    r.read_exact(&mut payload)?;
    while payload.len() < len {
        let have = payload.len();
        payload.resize(have + (len - have).min(READ_CHUNK), 0);
        r.read_exact(&mut payload[have..])?;
    }
    Ok(payload)
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> std::io::Result<&'a [u8]> {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        let s = rest.get(..n).ok_or_else(|| bad("truncated payload"))?;
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> std::io::Result<[u8; N]> {
        let (head, _) = self
            .take(N)?
            .split_first_chunk::<N>()
            .ok_or_else(|| bad("truncated payload"))?;
        Ok(*head)
    }

    /// Bytes not yet taken.
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn u8(&mut self) -> std::io::Result<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    fn u16(&mut self) -> std::io::Result<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> std::io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> std::io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn string(&mut self, len: usize) -> std::io::Result<String> {
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| bad("invalid UTF-8"))
    }

    fn u32s(&mut self, count: usize) -> std::io::Result<Vec<u32>> {
        // `count` comes off the wire: refuse anything the remaining
        // bytes cannot hold BEFORE sizing the allocation, so a tiny
        // crafted frame cannot demand a multi-GiB reserve.
        if count > self.remaining() / 4 {
            return Err(bad("truncated payload"));
        }
        let (words, _) = self.take(count * 4)?.as_chunks::<4>();
        Ok(words.iter().map(|w| u32::from_le_bytes(*w)).collect())
    }

    /// A `u32` record count off the wire, refused unless that many
    /// records of at least `min_width` bytes each fit in the bytes that
    /// remain — checked before anything is allocated for them.
    fn count(&mut self, min_width: usize) -> std::io::Result<usize> {
        let count = self.u32()? as usize;
        if count > self.remaining() / min_width {
            return Err(bad("truncated payload"));
        }
        Ok(count)
    }

    /// A counted list of `f64` bit patterns, decoded in one pass.
    fn f64s(&mut self) -> std::io::Result<Vec<f64>> {
        let count = self.count(8)?;
        let (words, _) = self.take(count * 8)?.as_chunks::<8>();
        Ok(words
            .iter()
            .map(|w| f64::from_bits(u64::from_le_bytes(*w)))
            .collect())
    }

    /// A counted list of `(u32 index, f64 score)` pairs, decoded in one
    /// pass.
    fn pairs(&mut self) -> std::io::Result<Vec<(u32, f64)>> {
        let count = self.count(12)?;
        let (records, _) = self.take(count * 12)?.as_chunks::<12>();
        Ok(records
            .iter()
            .map(|r| {
                let [i0, i1, i2, i3, v @ ..] = *r;
                (
                    u32::from_le_bytes([i0, i1, i2, i3]),
                    f64::from_bits(u64::from_le_bytes(v)),
                )
            })
            .collect())
    }

    fn done(&self) -> std::io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes in payload"))
        }
    }
}

const OP_ENTRY: u8 = 1;
const OP_SLICE: u8 = 2;
const OP_TOPK: u8 = 3;
const OP_STATS: u8 = 4;
const OP_LIST: u8 = 5;
const OP_SHUTDOWN: u8 = 6;

fn op_of(body: &RequestBody) -> u8 {
    match body {
        RequestBody::Entry { .. } => OP_ENTRY,
        RequestBody::Slice { .. } => OP_SLICE,
        RequestBody::TopK { .. } => OP_TOPK,
        RequestBody::Stats => OP_STATS,
        RequestBody::List => OP_LIST,
        RequestBody::Shutdown => OP_SHUTDOWN,
    }
}

/// Serialize a request payload (no frame prefix).
///
/// # Errors
/// Rejects an `Entry` body whose coordinates do not tile `order`
/// (including `order == 0` with coordinates present) — encoding it
/// would emit a frame every decoder refuses as trailing bytes.
pub fn encode_request(req: &Request) -> std::io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(32);
    out.push(op_of(&req.body));
    out.extend_from_slice(&req.deadline_ms.to_le_bytes());
    out.extend_from_slice(&(req.model.len() as u16).to_le_bytes());
    out.extend_from_slice(req.model.as_bytes());
    out.extend_from_slice(&req.version.to_le_bytes());
    match &req.body {
        RequestBody::Entry { order, coords } => {
            let count = match (*order, coords.len()) {
                (0, 0) => 0,
                (0, n) => return Err(bad(format!("{n} coordinates with order 0"))),
                (o, n) if n % o as usize != 0 => {
                    return Err(bad(format!("{n} coordinates do not tile order {o}")));
                }
                (o, n) => n / o as usize,
            };
            out.push(*order);
            out.extend_from_slice(&(count as u32).to_le_bytes());
            for c in coords {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        RequestBody::Slice { mode, index } => {
            out.push(*mode);
            out.extend_from_slice(&index.to_le_bytes());
        }
        RequestBody::TopK { mode, k, fixed } => {
            out.push(*mode);
            out.extend_from_slice(&k.to_le_bytes());
            out.push(fixed.len() as u8);
            for c in fixed {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        RequestBody::Stats | RequestBody::List | RequestBody::Shutdown => {}
    }
    Ok(out)
}

/// Parse a request payload.
///
/// # Errors
/// Returns `InvalidData` on malformed bytes.
pub fn decode_request(payload: &[u8]) -> std::io::Result<Request> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let deadline_ms = c.u32()?;
    let name_len = c.u16()? as usize;
    let model = c.string(name_len)?;
    let version = c.u64()?;
    let body = match op {
        OP_ENTRY => {
            let order = c.u8()?;
            let count = c.u32()? as usize;
            if order == 0 && count != 0 {
                // No encoder writes this (it would decode to an empty
                // batch and re-encode with count 0).
                return Err(bad(format!("{count} tuples of order 0")));
            }
            let total = count
                .checked_mul(order as usize)
                .ok_or_else(|| bad("coordinate count overflow"))?;
            RequestBody::Entry {
                order,
                coords: c.u32s(total)?,
            }
        }
        OP_SLICE => RequestBody::Slice {
            mode: c.u8()?,
            index: c.u32()?,
        },
        OP_TOPK => {
            let mode = c.u8()?;
            let k = c.u32()?;
            let nfixed = c.u8()? as usize;
            RequestBody::TopK {
                mode,
                k,
                fixed: c.u32s(nfixed)?,
            }
        }
        OP_STATS => RequestBody::Stats,
        OP_LIST => RequestBody::List,
        OP_SHUTDOWN => RequestBody::Shutdown,
        other => return Err(bad(format!("unknown op {other}"))),
    };
    c.done()?;
    Ok(Request {
        deadline_ms,
        model,
        version,
        body,
    })
}

/// The coordinate count (`order` × tuple count) an `Entry` request
/// payload announces, read from its op byte and fixed-offset header
/// fields without decoding it; `None` for every other op and for a
/// payload too short to tell. A `Some` here promises nothing about the
/// rest of the payload — [`decode_request`] still has to accept it, and
/// then its `coords` has exactly this length.
pub(crate) fn peek_entry_coords(payload: &[u8]) -> Option<u64> {
    let (&op, rest) = payload.split_first()?;
    if op != OP_ENTRY {
        return None;
    }
    // deadline_ms, then the name length
    let (name_len, rest) = rest.get(4..)?.split_first_chunk::<2>()?;
    // name, version
    let rest = rest.get(usize::from(u16::from_le_bytes(*name_len)) + 8..)?;
    let (&order, rest) = rest.split_first()?;
    let (count, _) = rest.split_first_chunk::<4>()?;
    Some(u64::from(order) * u64::from(u32::from_le_bytes(*count)))
}

/// An ok-payload header (`status 0`, `op`, `u32` count) in a buffer
/// reserved once for the `count` records of `width` bytes that follow.
fn bulk_header(op: u8, count: usize, width: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(6 + count * width);
    out.extend_from_slice(&[0, op]);
    out.extend_from_slice(&(count as u32).to_le_bytes());
    out
}

fn encode_f64s(op: u8, vals: &[f64]) -> Vec<u8> {
    let mut out = bulk_header(op, vals.len(), 8);
    out.extend(vals.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    out
}

/// The payload of [`Response::Entries`], encoded from borrowed values.
pub(crate) fn encode_entries(vals: &[f64]) -> Vec<u8> {
    encode_f64s(OP_ENTRY, vals)
}

/// The payload of [`Response::Slice`], encoded from borrowed values — the
/// engine's `Arc`-shared result goes to the wire without an owned copy.
pub(crate) fn encode_slice(vals: &[f64]) -> Vec<u8> {
    encode_f64s(OP_SLICE, vals)
}

/// The payload of [`Response::TopK`], encoded from borrowed pairs.
pub(crate) fn encode_top_k(pairs: &[(u32, f64)]) -> Vec<u8> {
    let mut out = bulk_header(OP_TOPK, pairs.len(), 12);
    for (i, v) in pairs {
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Serialize a response payload (no frame prefix).
///
/// After the `0` status byte, a second op byte disambiguates ok-payloads
/// so responses are self-describing (the client checks it against the
/// request).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    match resp {
        Response::Entries(vals) => return encode_entries(vals),
        Response::Slice(vals) => return encode_slice(vals),
        Response::TopK(pairs) => return encode_top_k(pairs),
        Response::Error(code, msg) => {
            out.push(*code as u8);
            let msg = &msg.as_bytes()[..msg.len().min(u16::MAX as usize)];
            out.extend_from_slice(&(msg.len() as u16).to_le_bytes());
            out.extend_from_slice(msg);
        }
        Response::Stats(json) => {
            out.extend_from_slice(&[0, OP_STATS]);
            out.extend_from_slice(&(json.len() as u32).to_le_bytes());
            out.extend_from_slice(json.as_bytes());
        }
        Response::Models(models) => {
            out.extend_from_slice(&[0, OP_LIST]);
            out.extend_from_slice(&(models.len() as u32).to_le_bytes());
            for m in models {
                out.extend_from_slice(&(m.name.len() as u16).to_le_bytes());
                out.extend_from_slice(m.name.as_bytes());
                out.extend_from_slice(&m.version.to_le_bytes());
                out.extend_from_slice(&m.order.to_le_bytes());
                out.extend_from_slice(&m.rank.to_le_bytes());
            }
        }
        Response::Ack => out.extend_from_slice(&[0, OP_SHUTDOWN]),
    }
    out
}

/// Parse a response payload.
///
/// # Errors
/// Returns `InvalidData` on malformed bytes or unknown status codes.
pub fn decode_response(payload: &[u8]) -> std::io::Result<Response> {
    let mut c = Cursor::new(payload);
    let status = c.u8()?;
    if status != 0 {
        let code =
            WireError::from_code(status).ok_or_else(|| bad(format!("unknown status {status}")))?;
        let len = c.u16()? as usize;
        let msg = c.string(len)?;
        c.done()?;
        return Ok(Response::Error(code, msg));
    }
    let op = c.u8()?;
    let resp = match op {
        OP_ENTRY => Response::Entries(c.f64s()?),
        OP_SLICE => Response::Slice(c.f64s()?),
        OP_TOPK => Response::TopK(c.pairs()?),
        OP_STATS => {
            let len = c.u32()? as usize;
            Response::Stats(c.string(len)?)
        }
        OP_LIST => {
            // A listing row is at least its `u16` name length and three
            // `u64`s.
            let count = c.count(26)?;
            let mut models = Vec::with_capacity(count);
            for _ in 0..count {
                let name_len = c.u16()? as usize;
                let name = c.string(name_len)?;
                models.push(ModelInfo {
                    name,
                    version: c.u64()?,
                    order: c.u64()?,
                    rank: c.u64()?,
                });
            }
            Response::Models(models)
        }
        OP_SHUTDOWN => Response::Ack,
        other => return Err(bad(format!("unknown response op {other}"))),
    };
    c.done()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = encode_request(&req).unwrap();
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let bytes = encode_response(&resp);
        assert_eq!(decode_response(&bytes).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request {
            deadline_ms: 250,
            model: "movies".into(),
            version: 3,
            body: RequestBody::Entry {
                order: 3,
                coords: vec![1, 2, 3, 4, 5, 6],
            },
        });
        roundtrip_request(Request {
            deadline_ms: 0,
            model: "m".into(),
            version: 0,
            body: RequestBody::Slice { mode: 1, index: 42 },
        });
        roundtrip_request(Request {
            deadline_ms: 10,
            model: "m".into(),
            version: 0,
            body: RequestBody::TopK {
                mode: 2,
                k: 10,
                fixed: vec![7, 9],
            },
        });
        for body in [RequestBody::Stats, RequestBody::List, RequestBody::Shutdown] {
            roundtrip_request(Request {
                deadline_ms: 0,
                model: String::new(),
                version: 0,
                body,
            });
        }
    }

    #[test]
    fn responses_roundtrip_bit_exactly() {
        roundtrip_response(Response::Entries(vec![1.5, -0.0]));
        roundtrip_response(Response::Slice(vec![f64::MIN_POSITIVE, f64::INFINITY]));
        roundtrip_response(Response::TopK(vec![(3, 0.25), (0, -1.5)]));
        roundtrip_response(Response::Stats("{\"schema\": \"x\"}".into()));
        roundtrip_response(Response::Models(vec![ModelInfo {
            name: "m".into(),
            version: 2,
            order: 3,
            rank: 16,
        }]));
        roundtrip_response(Response::Ack);
        roundtrip_response(Response::Error(WireError::Overloaded, "busy".into()));
        roundtrip_response(Response::Error(WireError::DeadlineExpired, String::new()));
        roundtrip_response(Response::Error(WireError::Cancelled, "client gone".into()));
    }

    /// The ok-payload bytes of a value list as the encoder has always
    /// written them: one element at a time.
    fn f64_payload(op: u8, vals: &[f64]) -> Vec<u8> {
        let mut want = vec![0, op];
        want.extend_from_slice(&(vals.len() as u32).to_le_bytes());
        for v in vals {
            want.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        want
    }

    #[test]
    fn bulk_payloads_keep_their_wire_bytes() {
        let big: Vec<f64> = (0..12_288).map(|i| (i as f64 - 6000.0) * 0.37).collect();
        for vals in [Vec::new(), big] {
            let bytes = encode_response(&Response::Slice(vals.clone()));
            assert_eq!(bytes, f64_payload(OP_SLICE, &vals));
            assert_eq!(bytes.capacity(), bytes.len(), "reserved once, exactly");
            roundtrip_response(Response::Slice(vals.clone()));
            assert_eq!(
                encode_response(&Response::Entries(vals.clone())),
                f64_payload(OP_ENTRY, &vals)
            );
        }

        let pairs = vec![
            (7u32, f64::NAN),
            (u32::MAX, -0.0),
            (0, f64::NEG_INFINITY),
            (3, -f64::NAN),
        ];
        let mut want = vec![0, OP_TOPK];
        want.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for (i, v) in &pairs {
            want.extend_from_slice(&i.to_le_bytes());
            want.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let bytes = encode_response(&Response::TopK(pairs.clone()));
        assert_eq!(bytes, want);
        // NaN != NaN, so compare the decoded pairs by bit pattern.
        match decode_response(&bytes).unwrap() {
            Response::TopK(got) => {
                assert_eq!(got.len(), pairs.len());
                for (g, w) in got.iter().zip(&pairs) {
                    assert_eq!((g.0, g.1.to_bits()), (w.0, w.1.to_bits()));
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn response_counts_are_checked_against_the_bytes_present() {
        // A 6-byte frame claiming u32::MAX records must be refused from
        // its length alone, typed, before anything is reserved for it.
        // (op, smallest record in bytes)
        for (op, width) in [(OP_ENTRY, 8), (OP_SLICE, 8), (OP_TOPK, 12), (OP_LIST, 26)] {
            let mut frame = vec![0, op];
            frame.extend_from_slice(&u32::MAX.to_le_bytes());
            let err = decode_response(&frame).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "op {op}");
            // One byte short of the claimed three records, and one byte
            // past them, are refused the same way.
            for len in [3 * width - 1, 3 * width + 1] {
                let mut frame = vec![0, op];
                frame.extend_from_slice(&3u32.to_le_bytes());
                frame.resize(6 + len, 0);
                let err = decode_response(&frame).unwrap_err();
                assert_eq!(err.kind(), ErrorKind::InvalidData, "op {op}, {len} bytes");
            }
        }
    }

    #[test]
    fn a_flipped_status_high_bit_fails_decode() {
        // A status byte with its high bit flipped names no status; every
        // such frame must decode to a typed error, never to silently
        // wrong values.
        for resp in [
            Response::Entries(vec![1.0]),
            Response::Error(WireError::Overloaded, "x".into()),
        ] {
            let mut bytes = encode_response(&resp);
            bytes[0] ^= 0x80;
            assert!(decode_response(&bytes).is_err());
        }
    }

    #[test]
    fn nan_crosses_the_wire_bit_exactly() {
        let weird = f64::from_bits(0x7ff8_0000_dead_beef);
        let bytes = encode_response(&Response::Entries(vec![weird]));
        match decode_response(&bytes).unwrap() {
            Response::Entries(vals) => assert_eq!(vals[0].to_bits(), weird.to_bits()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(read_frame(&mut r).is_err(), "eof");
    }

    #[test]
    fn oversized_frames_are_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    /// `Client` reads every reply through `read_frame`: a prefix is a
    /// claim, and only bytes that arrive earn heap.
    #[test]
    fn a_frame_is_allocated_as_its_bytes_arrive_not_as_its_prefix_claims() {
        use splatt_probe::alloc::thread_heap_bytes;
        let wire = (MAX_FRAME as u32).to_le_bytes();
        let before = thread_heap_bytes();
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        let heap = thread_heap_bytes() - before;
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert!(heap <= READ_CHUNK as u64, "{heap} B for a bare prefix");

        // Past the chunk size a frame still arrives whole, for at most
        // twice its bytes (the buffer doubles) and a chunk.
        let payload: Vec<u8> = (0..3usize << 20).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        wire.extend_from_slice(b"next frame");
        let mut r = wire.as_slice();
        let before = thread_heap_bytes();
        let got = read_frame(&mut r).unwrap();
        let heap = thread_heap_bytes() - before;
        assert!(got == payload, "a 3 MiB frame changed in transit");
        assert_eq!(r, b"next frame", "read past the frame");
        assert!(heap <= (2 * payload.len() + READ_CHUNK) as u64, "{heap} B");

        // Cut short inside the second chunk: typed, not a short frame.
        let cut = &wire[..4 + READ_CHUNK + 5];
        let err = read_frame(&mut &*cut).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[99, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(decode_response(&[7]).is_err());
        // Retired codes: status 7 with a well-formed message, and ok op 7
        // with the body it once had, decode as unknown.
        for retired in [
            &[7u8, 2, 0, b'n', b'o'][..],
            &[0, 7, 1, 0, 0, 0, 2, 0, 0, 0],
        ] {
            let err = decode_response(retired).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{retired:?}");
            assert!(err.to_string().contains("unknown"), "{err}");
        }
        // trailing garbage
        let mut bytes = encode_request(&Request {
            deadline_ms: 0,
            model: "m".into(),
            version: 0,
            body: RequestBody::List,
        })
        .unwrap();
        bytes.push(0xFF);
        assert!(decode_request(&bytes).is_err());
        // truncated coords
        let good = encode_request(&Request {
            deadline_ms: 0,
            model: "m".into(),
            version: 0,
            body: RequestBody::Entry {
                order: 3,
                coords: vec![1, 2, 3],
            },
        })
        .unwrap();
        assert!(decode_request(&good[..good.len() - 2]).is_err());
    }

    #[test]
    fn ragged_entry_coords_are_refused_at_encode_time() {
        let ragged = |order, coords| Request {
            deadline_ms: 0,
            model: "m".into(),
            version: 0,
            body: RequestBody::Entry { order, coords },
        };
        assert!(encode_request(&ragged(3, vec![1, 2, 3, 4])).is_err());
        assert!(encode_request(&ragged(0, vec![1])).is_err());
        // The empty batch stays encodable for both orders.
        assert!(encode_request(&ragged(0, vec![])).is_ok());
        assert!(encode_request(&ragged(3, vec![])).is_ok());
    }

    #[test]
    fn huge_coordinate_counts_are_refused_before_allocating() {
        // A hand-crafted Entry frame claiming count = u32::MAX tuples:
        // decode must reject it from the bytes present, not attempt a
        // count*order-sized allocation.
        let mut bytes = Vec::new();
        bytes.push(1); // OP_ENTRY
        bytes.extend_from_slice(&0u32.to_le_bytes()); // deadline
        bytes.extend_from_slice(&1u16.to_le_bytes()); // name_len
        bytes.push(b'm');
        bytes.extend_from_slice(&0u64.to_le_bytes()); // version
        bytes.push(255); // order
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // count
        assert!(decode_request(&bytes).is_err());
        // Same shape on the TopK path.
        let mut bytes = Vec::new();
        bytes.push(3); // OP_TOPK
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.push(0); // mode
        bytes.extend_from_slice(&5u32.to_le_bytes()); // k
        bytes.push(255); // nfixed, but no coords follow
        assert!(decode_request(&bytes).is_err());
    }
}
