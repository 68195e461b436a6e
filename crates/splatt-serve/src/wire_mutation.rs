//! Mutation test over the bytes a peer controls, both directions: every
//! wire request kind, mutated, through [`decode_request`] and through
//! [`EngineService::try_handle_now`] — the decode that now runs on the
//! reactor thread, where a panic is an outage and not a lost worker —
//! and every wire response kind, mutated, through [`decode_response`],
//! which [`crate::Client`] runs on whatever a server sent back.
//!
//! Start from a valid encoding of each [`RequestBody`] / [`Response`]
//! kind (fields drawn by `splatt_rt::qc`), then: truncate at every byte,
//! invert every byte, flip one drawn bit in every byte, overwrite every
//! integer field (op, deadline, lengths, counts, order, mode, …) with
//! 0, 1, `MAX − 1` and `MAX`, and overwrite a few
//! drawn bytes with drawn values. For every mutant:
//!
//! - no panic (`qc::check` turns one into a failure naming the seed);
//! - the decoder returns a typed `InvalidData` error or a value that
//!   re-encodes to exactly the mutant's bytes (`decode ∘ encode = id`,
//!   both ways: a valid value decodes back to itself, and one byte
//!   string is one value);
//! - no call requests more heap than a small multiple of the bytes
//!   present ([`splatt_probe::alloc::CountingAlloc`], per thread);
//! - `try_handle_now` answers exactly the frames that are a small
//!   `Entry` or malformed beyond decoding, with a well-formed typed
//!   reply equal to the pooled path's, and nothing it answers is ever
//!   batched.

use crate::engine::{Query, ServeConfig};
use crate::protocol::{
    decode_request, decode_response, encode_request, encode_response, peek_entry_coords, Request,
    RequestBody, Response, WireError,
};
use crate::registry::ModelInfo;
use crate::service::{test_service, EngineService};
use splatt_net::{Disposition, FrameService, RequestCtx};
use splatt_probe::alloc::heap_of;
use splatt_rt::qc::{self, Gen};
use std::io::ErrorKind;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Heap a call may request: this multiple of the payload's length …
const HEAP_FACTOR: u64 = 4;
/// … and for `decode_response`, this one. The decoded value that is
/// largest against its wire bytes is a `Models` listing: a 48-byte
/// [`ModelInfo`] row is reserved for every 26 wire bytes the count may
/// claim (`u16` name length and three `u64`s: 48/26 < 1.85), and the
/// names are copied out of the payload (< 1). `TopK` is a 16-byte pair
/// per 12 wire bytes (< 1.34), `Entries`/`Slice`/`Stats`/`Error` one copy.
const RESPONSE_HEAP_FACTOR: u64 = 3;
/// … plus this much for what does not scale with it (an error's boxed
/// message, the response slot, a one-tuple answer and its frame).
const HEAP_SLACK: u64 = 512;

const KINDS: usize = 6;

/// A valid request of kind `kind` against the model [`service`] serves.
fn request_of(kind: usize, g: &mut Gen) -> Request {
    let fixed = |g: &mut Gen| vec![g.range(0..4u32), g.range(0..5u32)];
    let body = match kind {
        0 => {
            // On both sides of the inline bound, sometimes empty.
            let tuples = *g.choose(&[0usize, 1, 1, 1, 2, 7, 21, 22, 40]);
            RequestBody::Entry {
                order: 3,
                coords: (0..tuples)
                    .flat_map(|_| [g.range(0..6u32), g.range(0..4u32), g.range(0..5u32)])
                    .collect(),
            }
        }
        1 => RequestBody::Slice {
            mode: g.range(0..3u8),
            index: g.range(0..4u32),
        },
        2 => RequestBody::TopK {
            mode: 0,
            k: g.range(1..8u32),
            fixed: fixed(g),
        },
        3 => RequestBody::Stats,
        4 => RequestBody::List,
        _ => RequestBody::Shutdown,
    };
    let named = matches!(kind, 0..=2);
    Request {
        deadline_ms: *g.choose(&[0, 1, 250, u32::MAX]),
        model: if named { "m".into() } else { String::new() },
        version: *g.choose(&[0, 0, 1, 2]),
        body,
    }
}

/// `(offset, width)` of every integer field of `req`'s encoding.
fn integer_fields(req: &Request) -> Vec<(usize, usize)> {
    // op, deadline_ms, name_len, [name], version
    let body = 7 + req.model.len() + 8;
    let mut fields = vec![(0, 1), (1, 4), (5, 2), (body - 8, 8)];
    let mut at = body;
    let mut push = |widths: &[usize]| {
        for &w in widths {
            fields.push((at, w));
            at += w;
        }
    };
    match &req.body {
        // order, count
        RequestBody::Entry { .. } => push(&[1, 4]),
        // mode, index
        RequestBody::Slice { .. } => push(&[1, 4]),
        // mode, k, nfixed, fixed…
        RequestBody::TopK { fixed, .. } => {
            push(&[1, 4, 1]);
            push(&vec![4; fixed.len()]);
        }
        RequestBody::Stats | RequestBody::List | RequestBody::Shutdown => {}
    }
    fields
}

fn service() -> EngineService {
    test_service(ServeConfig {
        ntasks: 1,
        ..ServeConfig::default()
    })
}

fn check_mutant(svc: &EngineService, ctx: &RequestCtx, m: &[u8]) {
    let budget = HEAP_FACTOR * m.len() as u64 + HEAP_SLACK;

    let (decoded, heap) = heap_of(|| decode_request(m));
    assert!(
        heap <= budget,
        "decode_request asked for {heap} B for a {} B frame: {m:?}",
        m.len()
    );
    match &decoded {
        Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{m:?}"),
        Ok(req) => {
            let again = encode_request(req).expect("a decoded request re-encodes");
            assert_eq!(again, m, "decode then encode changed the bytes of {req:?}");
            assert_eq!(&decode_request(&again).expect("and decodes again"), req);
        }
    }

    let (inline, heap) = heap_of(|| svc.try_handle_now(m));
    assert!(
        heap <= budget,
        "try_handle_now asked for {heap} B for a {} B frame: {m:?}",
        m.len()
    );
    // Which thread answers is decided by the header fields the peek
    // reads, and has to agree with what the frame turned out to be.
    let small_entry = matches!(&decoded, Ok(Request { body: RequestBody::Entry { coords, .. }, .. })
        if coords.len() <= Query::CALLER_RUNS_COORDS);
    let announced_small =
        peek_entry_coords(m).is_some_and(|n| n <= Query::CALLER_RUNS_COORDS as u64);
    let want_inline = small_entry || (decoded.is_err() && announced_small);
    assert_eq!(
        inline.is_some(),
        want_inline,
        "{m:?} decoded as {decoded:?}"
    );
    let Some(reply) = inline else { return };
    assert_eq!(reply.disposition, Disposition::Continue);
    match decode_response(&reply.payload).expect("a well-formed reply") {
        Response::Entries(vals) => {
            let Ok(Request {
                body: RequestBody::Entry { order, coords },
                ..
            }) = &decoded
            else {
                panic!("values for {decoded:?}");
            };
            assert_eq!(vals.len() * usize::from(*order), coords.len());
        }
        Response::Error(WireError::BadRequest | WireError::ModelNotFound, _) => {}
        other => panic!("{other:?} for {m:?}"),
    }
    assert_eq!(
        reply,
        svc.handle(m, ctx),
        "inline and pooled replies differ"
    );
}

#[test]
fn mutated_requests_decode_typed_bounded_and_never_panic() {
    let svc = service();
    let ctx = RequestCtx::new(Arc::new(AtomicBool::new(true)), None);
    qc::check("wire request mutants", 48, |g| {
        for kind in 0..KINDS {
            let req = request_of(kind, g);
            let payload = encode_request(&req).expect("a valid request encodes");
            assert_eq!(decode_request(&payload).expect("and decodes"), req);
            for m in g.byte_mutants(&payload, &integer_fields(&req)) {
                check_mutant(&svc, &ctx, &m);
            }
        }
    });
    // Every frame `try_handle_now` took was computed on this thread.
    let serve = svc.engine.profile_report().serve.expect("serve row");
    assert_eq!((serve.batches, serve.batched_requests), (0, 0));
    assert!(serve.caller_runs > 0);
    svc.engine.shutdown();
}

/// What the mutation test found, pinned as the bytes that showed it
/// (first seen as case 4 of the default base, seed 0xe76e8509e963b66d).
#[test]
fn regressions_the_mutation_test_found() {
    let svc = service();
    let ctx = RequestCtx::new(Arc::new(AtomicBool::new(true)), None);
    // An `Entry` of order 0 announcing one tuple decoded as the empty
    // batch, which encodes with count 0: two byte strings, one request.
    let mut order_zero = encode_request(&Request {
        deadline_ms: 0,
        model: "m".into(),
        version: 0,
        body: RequestBody::Entry {
            order: 0,
            coords: Vec::new(),
        },
    })
    .unwrap();
    let count_at = order_zero.len() - 4;
    order_zero[count_at] = 1;
    assert!(decode_request(&order_zero).is_err());
    check_mutant(&svc, &ctx, &order_zero);
    svc.engine.shutdown();
}

const RESPONSE_KINDS: usize = 7;

const WIRE_ERRORS: [WireError; 7] = [
    WireError::Overloaded,
    WireError::DeadlineExpired,
    WireError::ModelNotFound,
    WireError::BadRequest,
    WireError::ShuttingDown,
    WireError::Internal,
    WireError::Cancelled,
];

fn name_of(g: &mut Gen) -> String {
    let len = *g.choose(&[0usize, 1, 5, 40]);
    (0..len).map(|_| *g.choose(&['m', '-', '7', 'é'])).collect()
}

/// A valid response of kind `kind`; kind 6 is one of every [`WireError`].
fn responses_of(kind: usize, g: &mut Gen) -> Vec<Response> {
    let len = *g.choose(&[0usize, 1, 2, 9]);
    vec![match kind {
        0 => Response::Entries(g.f64_vec(len, -4.0, 4.0)),
        1 => Response::Slice(g.f64_vec(len, -4.0, 4.0)),
        2 => Response::TopK(
            (0..len)
                .map(|_| (g.range(0..90u32), g.f64_in(-4.0, 4.0)))
                .collect(),
        ),
        3 => Response::Stats(format!("{{\"serve\": \"{}\"}}", name_of(g))),
        4 => Response::Models(
            (0..len)
                .map(|_| ModelInfo {
                    name: name_of(g),
                    version: g.range(1..4u64),
                    order: g.range(1..6u64),
                    rank: *g.choose(&[1, 35, u64::MAX]),
                })
                .collect(),
        ),
        5 => Response::Ack,
        _ => {
            return WIRE_ERRORS
                .iter()
                .map(|&code| Response::Error(code, name_of(g)))
                .collect()
        }
    }]
}

/// `(offset, width)` of every integer field of `resp`'s encoding: the
/// status byte, the op, every length and count, and the fixed-width
/// fields of each `Models` row.
fn response_integer_fields(resp: &Response) -> Vec<(usize, usize)> {
    let mut fields = vec![(0, 1)];
    match resp {
        // message length
        Response::Error(..) => fields.push((1, 2)),
        Response::Ack => fields.push((1, 1)),
        // count, or the JSON's length
        Response::Entries(_) | Response::Slice(_) | Response::TopK(_) | Response::Stats(_) => {
            fields.extend([(1, 1), (2, 4)]);
        }
        Response::Models(rows) => {
            fields.extend([(1, 1), (2, 4)]);
            let mut at = 6;
            for row in rows {
                // name length, [name], version, order, rank
                fields.push((at, 2));
                at += 2 + row.name.len();
                fields.extend([(at, 8), (at + 8, 8), (at + 16, 8)]);
                at += 24;
            }
        }
    }
    fields
}

fn check_response_mutant(m: &[u8]) {
    let (decoded, heap) = heap_of(|| decode_response(m));
    assert!(
        heap <= RESPONSE_HEAP_FACTOR * m.len() as u64 + HEAP_SLACK,
        "decode_response asked for {heap} B for a {} B frame: {m:?}",
        m.len()
    );
    match decoded {
        Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{m:?}"),
        // Compared as bytes: a flipped bit makes NaNs, which no value
        // equals.
        Ok(resp) => assert_eq!(
            encode_response(&resp),
            m,
            "decode then encode changed the bytes of {resp:?}"
        ),
    }
}

#[test]
fn mutated_responses_decode_typed_bounded_and_never_panic() {
    qc::check("wire response mutants", 48, |g| {
        for kind in 0..RESPONSE_KINDS {
            for resp in responses_of(kind, g) {
                let payload = encode_response(&resp);
                assert_eq!(decode_response(&payload).expect("decodes"), resp);
                for m in g.byte_mutants(&payload, &response_integer_fields(&resp)) {
                    check_response_mutant(&m);
                }
            }
        }
    });
}
