//! The `splatt-net` ↔ `splatt-serve` seam: [`EngineService`] adapts a
//! [`ServeEngine`] to the reactor's protocol-agnostic
//! [`FrameService`] trait.
//!
//! The reactor owns sockets, framing, pipelining, and the accept- and
//! decode-layer admission gates; this adapter owns protocol semantics —
//! decode, engine dispatch (through the engine's admission gate inside
//! [`ServeEngine::query`]), typed error mapping, and the probe `Stats`
//! answer, into which it splices the live front-end counters so one
//! wire round trip reports the whole pipeline.
//!
//! It also decides which thread a request runs on, from the request
//! alone: an `Entry` frame of at most [`Query::CALLER_RUNS_COORDS`]
//! coordinates is answered by [`FrameService::try_handle_now`] on the
//! reactor thread; every other frame — scans, `Stats`/`List`/`Shutdown`,
//! large entry batches — goes to a pool worker. The engine computes on
//! whichever thread that is, and both run the same
//! [`EngineService::reply_to`], so a request gets the same bytes on
//! either thread.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use splatt_net::{
    Disposition, FrameService, NetCounters, NetSnapshot, Reply, RequestCtx, ShedLayer,
};

use crate::engine::{Query, QueryResult, ServeEngine, ServeError};
use crate::protocol::{
    decode_request, encode_entries, encode_response, encode_slice, encode_top_k, peek_entry_coords,
    Request, RequestBody, Response, WireError,
};

/// Map a typed engine refusal onto its wire code. The `Cancelled`
/// mapping is deliberate: it used to be folded into `Internal`, which
/// told retrying clients the *server* had failed when in fact the
/// server had (correctly) stopped serving a vanished client.
pub(crate) fn wire_code_of(err: &ServeError) -> WireError {
    match err {
        ServeError::Overloaded(_) => WireError::Overloaded,
        ServeError::DeadlineExpired => WireError::DeadlineExpired,
        ServeError::ModelNotFound { .. } => WireError::ModelNotFound,
        ServeError::BadQuery(_) => WireError::BadRequest,
        ServeError::ShuttingDown => WireError::ShuttingDown,
        ServeError::Cancelled => WireError::Cancelled,
    }
}

/// Encode the typed frame written when an admission layer sheds.
pub(crate) fn shed_frame(layer: ShedLayer) -> Vec<u8> {
    let msg = match layer {
        ShedLayer::QueueDepth { depth, max_depth } => {
            format!("front-end queue full: {depth} decoded requests in flight (limit {max_depth})")
        }
        ShedLayer::Pipeline { max_pipeline } => {
            format!("pipeline full: {max_pipeline} unanswered requests on this connection")
        }
    };
    encode_response(&Response::Error(WireError::Overloaded, msg))
}

/// Encode the typed frame the reactor's deadline backstop answers with.
pub(crate) fn backstop_frame() -> Vec<u8> {
    encode_response(&Response::Error(
        WireError::DeadlineExpired,
        "deadline passed while the request was executing".into(),
    ))
}

/// Encode the typed frame written to connections shed at accept.
pub(crate) fn accept_shed_frame(max_conns: usize) -> Vec<u8> {
    encode_response(&Response::Error(
        WireError::Overloaded,
        format!("connection capacity reached (limit {max_conns})"),
    ))
}

/// Peek `deadline_ms` (payload bytes 1..5) without a full decode, so
/// the reactor can arm its backstop timer before dispatch.
pub(crate) fn peek_deadline(payload: &[u8], default: Duration) -> Option<Duration> {
    let (ms, _) = payload.get(1..)?.split_first_chunk::<4>()?;
    let ms = u32::from_le_bytes(*ms);
    if ms > 0 {
        Some(Duration::from_millis(u64::from(ms)))
    } else {
        Some(default)
    }
}

/// See the module docs.
pub(crate) struct EngineService {
    pub(crate) engine: Arc<ServeEngine>,
    /// Set once the reactor exists (it owns the counters); `Stats`
    /// answers before that simply omit the net row.
    net: OnceLock<Arc<NetCounters>>,
}

impl EngineService {
    pub(crate) fn new(engine: Arc<ServeEngine>) -> EngineService {
        EngineService {
            engine,
            net: OnceLock::new(),
        }
    }

    pub(crate) fn attach_net(&self, counters: Arc<NetCounters>) {
        let _ = self.net.set(counters);
    }

    pub(crate) fn net_row(&self) -> Option<NetSnapshot> {
        self.net.get().map(|c| c.snapshot())
    }

    /// The reply to one request payload as [`decode_request`] read it,
    /// whichever thread that happened on. `aborted` is asked once,
    /// before the engine computes.
    fn reply_to(&self, decoded: std::io::Result<Request>, aborted: impl FnOnce() -> bool) -> Reply {
        let (payload, disposition) = match decoded {
            Ok(req) => {
                let disposition = if matches!(req.body, RequestBody::Shutdown) {
                    Disposition::ShutdownAfterWrite
                } else {
                    Disposition::Continue
                };
                (self.respond(req, aborted), disposition)
            }
            Err(e) => (
                encode_response(&Response::Error(WireError::BadRequest, e.to_string())),
                Disposition::Continue,
            ),
        };
        Reply {
            payload,
            disposition,
        }
    }

    /// The encoded reply payload for one decoded request. Query results
    /// are encoded from the engine's (possibly cache-shared) buffers as
    /// they are, not first copied into an owned [`Response`].
    fn respond(&self, req: Request, aborted: impl FnOnce() -> bool) -> Vec<u8> {
        let query = match req.body {
            RequestBody::Stats => {
                let mut report = self.engine.profile_report();
                if let Some(serve) = report.serve.as_mut() {
                    serve.net = self.net_row();
                }
                return encode_response(&Response::Stats(report.to_json()));
            }
            RequestBody::List => {
                return encode_response(&Response::Models(self.engine.registry().list()))
            }
            RequestBody::Shutdown => return encode_response(&Response::Ack),
            RequestBody::Entry { order: _, coords } => Query::Entry { coords },
            RequestBody::Slice { mode, index } => Query::Slice { mode, index },
            RequestBody::TopK { mode, k, fixed } => Query::TopK { mode, k, fixed },
        };
        let deadline = if req.deadline_ms > 0 {
            Some(Duration::from_millis(u64::from(req.deadline_ms)))
        } else {
            None
        };
        // A fresh root token per request — deliberately NOT a child of
        // the shutdown token, so a drain completes in-flight requests
        // instead of cancelling them. Disconnects surface through the
        // caller's abort poll (the reactor-owned alive flag).
        let request_root = splatt_guard::CancelToken::new();
        let result = self.engine.query(
            &req.model,
            req.version,
            query,
            deadline,
            &request_root,
            aborted,
        );
        match result {
            Ok(QueryResult::Entries(vals)) => encode_entries(&vals),
            Ok(QueryResult::Slice(vals)) => encode_slice(&vals),
            Ok(QueryResult::TopK(pairs)) => encode_top_k(&pairs),
            Err(err) => encode_response(&Response::Error(wire_code_of(&err), err.to_string())),
        }
    }
}

impl FrameService for EngineService {
    fn handle(&self, payload: &[u8], ctx: &RequestCtx) -> Reply {
        self.reply_to(decode_request(payload), || ctx.is_aborted())
    }

    fn try_handle_now(&self, payload: &[u8]) -> Option<Reply> {
        // Everything but a small `Entry` is turned away on its op byte
        // and announced size, before any decoding.
        if peek_entry_coords(payload)? > Query::CALLER_RUNS_COORDS as u64 {
            return None;
        }
        // The one full decode. A frame it refuses gets its typed
        // `BadRequest` here; one it accepts is answered here only if
        // it is a small `Entry` — the header the peek read promised
        // that, the decoded body has to keep the promise.
        let decoded = decode_request(payload);
        let answered_here = match &decoded {
            Ok(req) => matches!(&req.body, RequestBody::Entry { coords, .. }
                if coords.len() <= Query::CALLER_RUNS_COORDS),
            Err(_) => true,
        };
        answered_here.then(|| self.reply_to(decoded, || false))
    }

    fn deadline_of(&self, payload: &[u8]) -> Option<Duration> {
        peek_deadline(payload, self.engine.config().default_deadline)
    }

    fn shed_reply(&self, layer: ShedLayer) -> Vec<u8> {
        shed_frame(layer)
    }

    fn deadline_reply(&self) -> Vec<u8> {
        backstop_frame()
    }

    fn on_shutdown(&self) {
        self.engine.shutdown_token().cancel();
    }
}

/// A service over a fresh engine serving one small order-3 model, `"m"`.
#[cfg(test)]
pub(crate) fn test_service(config: crate::engine::ServeConfig) -> EngineService {
    use splatt_dense::Matrix;
    let engine = ServeEngine::start(config);
    engine.publish(
        "m",
        splatt_core::KruskalModel {
            lambda: vec![2.0, 0.5],
            factors: vec![
                Matrix::random(6, 2, 40),
                Matrix::random(4, 2, 41),
                Matrix::random(5, 2, 42),
            ],
        },
    );
    EngineService::new(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use crate::protocol::{decode_response, encode_request};
    use std::sync::atomic::AtomicBool;

    fn entry(model: &str, order: u8, coords: Vec<u32>) -> Vec<u8> {
        encode_request(&Request {
            deadline_ms: 0,
            model: model.into(),
            version: 0,
            body: RequestBody::Entry { order, coords },
        })
        .unwrap()
    }

    #[test]
    fn an_inline_reply_has_the_pooled_reply_s_bytes() {
        let svc = test_service(ServeConfig::default());
        let ctx = RequestCtx::new(Arc::new(AtomicBool::new(true)), None);
        let mut truncated = entry("m", 3, vec![1, 2, 3]);
        truncated.pop();
        let at_the_bound = entry("m", 1, vec![0; Query::CALLER_RUNS_COORDS]);
        for payload in [
            entry("m", 3, vec![0, 0, 0]),
            entry("m", 3, vec![5, 3, 4, 0, 1, 2]),
            entry("m", 3, Vec::new()),
            entry("m", 3, vec![0, 9, 0]), // coordinate out of range
            entry("m", 2, vec![0, 0]),    // does not tile the order-3 model
            entry("ghost", 3, vec![0, 0, 0]),
            at_the_bound, // 64 coordinates of an order-3 model: ragged, typed
            truncated,
        ] {
            let inline = svc
                .try_handle_now(&payload)
                .expect("a small Entry runs inline");
            assert_eq!(inline, svc.handle(&payload, &ctx), "{payload:?}");
            match decode_response(&inline.payload).expect("a well-formed reply") {
                Response::Entries(_)
                | Response::Error(WireError::BadRequest | WireError::ModelNotFound, _) => {}
                other => panic!("unexpected inline reply {other:?}"),
            }
        }
        // Nothing above was batched, from either entry point.
        let serve = svc.engine.profile_report().serve.expect("serve row");
        assert_eq!(serve.batches, 0);
        svc.engine.shutdown();
    }

    #[test]
    fn only_small_entries_are_answered_inline() {
        let svc = test_service(ServeConfig::default());
        let mut declined: Vec<RequestBody> = vec![
            RequestBody::Slice { mode: 0, index: 0 },
            RequestBody::TopK {
                mode: 0,
                k: 2,
                fixed: vec![0, 0],
            },
            RequestBody::Stats,
            RequestBody::List,
            RequestBody::Shutdown,
        ];
        // One coordinate past the bound, as tuples of either order.
        declined.push(RequestBody::Entry {
            order: 1,
            coords: vec![0; Query::CALLER_RUNS_COORDS + 1],
        });
        declined.push(RequestBody::Entry {
            order: 3,
            coords: vec![0; 66],
        });
        for body in declined {
            let payload = encode_request(&Request {
                deadline_ms: 0,
                model: "m".into(),
                version: 0,
                body: body.clone(),
            })
            .unwrap();
            assert_eq!(svc.try_handle_now(&payload), None, "{body:?}");
        }
        assert_eq!(svc.try_handle_now(&[]), None);
        assert_eq!(svc.engine.stats().counters.snapshot().caller_runs, 0);
        svc.engine.shutdown();
    }

    #[test]
    fn the_engine_gate_sheds_an_inline_frame_typed() {
        let svc = test_service(ServeConfig {
            max_depth: 0,
            ..ServeConfig::default()
        });
        let reply = svc
            .try_handle_now(&entry("m", 3, vec![0, 0, 0]))
            .expect("still answered inline");
        assert!(matches!(
            decode_response(&reply.payload).unwrap(),
            Response::Error(WireError::Overloaded, _)
        ));
        assert_eq!(reply.disposition, Disposition::Continue);
        assert_eq!(svc.engine.gate().sheds(), 1);
        assert_eq!(svc.engine.stats().counters.snapshot().caller_runs, 0);
        svc.engine.shutdown();
    }

    #[test]
    fn peek_deadline_matches_full_decode() {
        let req = Request {
            deadline_ms: 750,
            model: "m".into(),
            version: 0,
            body: RequestBody::List,
        };
        let payload = encode_request(&req).unwrap();
        assert_eq!(
            peek_deadline(&payload, Duration::from_secs(5)),
            Some(Duration::from_millis(750))
        );
        let req = Request {
            deadline_ms: 0,
            ..req
        };
        let payload = encode_request(&req).unwrap();
        // 0 means "server default"; the backstop covers that too.
        assert_eq!(
            peek_deadline(&payload, Duration::from_secs(5)),
            Some(Duration::from_secs(5))
        );
        assert_eq!(peek_deadline(&[1, 2], Duration::from_secs(5)), None);
    }

    #[test]
    fn cancelled_maps_to_its_own_wire_code() {
        assert_eq!(wire_code_of(&ServeError::Cancelled), WireError::Cancelled);
        assert_eq!(
            wire_code_of(&ServeError::ShuttingDown),
            WireError::ShuttingDown
        );
    }

    #[test]
    fn shed_frames_decode_as_typed_overloaded() {
        use crate::protocol::decode_response;
        let frame = shed_frame(ShedLayer::QueueDepth {
            depth: 8,
            max_depth: 8,
        });
        match decode_response(&frame).unwrap() {
            Response::Error(WireError::Overloaded, msg) => {
                assert!(msg.contains("limit 8"), "{msg}");
            }
            other => panic!("expected typed Overloaded, got {other:?}"),
        }
        let frame = accept_shed_frame(100);
        match decode_response(&frame).unwrap() {
            Response::Error(WireError::Overloaded, msg) => {
                assert!(msg.contains("connection capacity"), "{msg}");
            }
            other => panic!("expected typed Overloaded, got {other:?}"),
        }
        let frame = backstop_frame();
        match decode_response(&frame).unwrap() {
            Response::Error(WireError::DeadlineExpired, _) => {}
            other => panic!("expected typed DeadlineExpired, got {other:?}"),
        }
    }
}
