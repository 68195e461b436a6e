//! The protocol-agnostic seam between the reactor and the application.
//!
//! `splatt-net` owns sockets, framing, ordering, and backpressure; it
//! knows nothing about what the bytes inside a frame mean. A
//! [`FrameService`] supplies that meaning: it turns one request payload
//! into one [`Reply`] — on the reactor thread when the request is cheap
//! enough to run to completion there, on a worker otherwise — peeks
//! deadlines out of payloads so the reactor can arm its backstop
//! timers, and encodes the typed shed frames the reactor writes when
//! admission control refuses work.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which admission layer refused a request; passed to
/// [`FrameService::shed_reply`] so the payload can say so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedLayer {
    /// The decode-layer queue-depth gate was full.
    QueueDepth {
        /// Depth observed at rejection time.
        depth: usize,
        /// The gate's configured capacity.
        max_depth: usize,
    },
    /// The connection's pipeline already held the maximum number of
    /// unanswered requests.
    Pipeline {
        /// The per-connection pipeline cap.
        max_pipeline: usize,
    },
}

/// What the reactor should do with the connection after writing a
/// reply's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Keep serving the connection.
    Continue,
    /// Flush this reply, then close the connection.
    CloseAfterWrite,
    /// Flush this reply, then close the connection *and* begin reactor
    /// drain (used for protocol-level shutdown requests). The reactor
    /// calls [`FrameService::on_shutdown`] when it sees this.
    ShutdownAfterWrite,
}

/// One response frame plus its connection-lifecycle consequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The response payload; the reactor adds the length prefix.
    pub payload: Vec<u8>,
    pub disposition: Disposition,
}

impl Reply {
    /// A normal keep-alive reply.
    pub fn ok(payload: Vec<u8>) -> Reply {
        Reply {
            payload,
            disposition: Disposition::Continue,
        }
    }
}

/// Per-request context handed to [`FrameService::handle`] on a worker
/// thread.
#[derive(Debug, Clone)]
pub struct RequestCtx {
    alive: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl RequestCtx {
    /// The context of a request on the connection `alive` stands for.
    /// The reactor builds one per pooled request; it is public so a
    /// [`FrameService`] can be driven without a reactor around it.
    pub fn new(alive: Arc<AtomicBool>, deadline: Option<Instant>) -> RequestCtx {
        RequestCtx { alive, deadline }
    }

    /// Whether the requesting connection has disconnected (or the
    /// reactor is tearing down). Long-running handlers poll this and
    /// abort: nobody is waiting for the answer.
    pub fn is_aborted(&self) -> bool {
        !self.alive.load(Ordering::Relaxed)
    }

    /// The absolute deadline the reactor derived from the request, if
    /// any; the reactor also arms a backstop timer slightly past it.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// The application half of the reactor; see the module docs.
///
/// Every admitted request is offered to `try_handle_now` first, on the
/// reactor thread; one it declines goes to `handle` on a worker-pool
/// thread, which may block. Everything but `handle` runs on the reactor
/// thread — while it runs, no other connection is served — and must be
/// fast, allocation-light and free of waits.
pub trait FrameService: Send + Sync + 'static {
    /// Serve one request payload. Runs on a worker thread; may block.
    fn handle(&self, payload: &[u8], ctx: &RequestCtx) -> Reply;

    /// Answer `payload` right now, or decline with `None` and have it
    /// go to [`FrameService::handle`]. Runs on the **reactor thread,
    /// must not block**: no waiting on another thread, a queue or a
    /// timer, and a bounded amount of work the implementation can state
    /// — the reply cannot outlive this call, so the reactor arms no
    /// deadline backstop for it. The reactor consults the pipeline cap
    /// and the decode gate first, exactly as for a pooled request, and
    /// holds the decode permit across this call; a `Some` reply keeps
    /// its place in the connection's response order and, for the same
    /// payload, must carry the bytes `handle` would have produced.
    fn try_handle_now(&self, payload: &[u8]) -> Option<Reply> {
        let _ = payload;
        None
    }

    /// Peek the request's deadline budget out of its payload without
    /// fully decoding it, so the reactor can arm a backstop timer.
    /// `None` means no per-request deadline.
    fn deadline_of(&self, payload: &[u8]) -> Option<Duration> {
        let _ = payload;
        None
    }

    /// Encode the typed "overloaded" response payload written when
    /// admission control sheds the request at `layer`. Runs on the
    /// reactor thread; keep it cheap.
    fn shed_reply(&self, layer: ShedLayer) -> Vec<u8>;

    /// Encode the typed "deadline expired" response payload the
    /// reactor's backstop timer writes when a worker overruns a
    /// request's deadline.
    fn deadline_reply(&self) -> Vec<u8>;

    /// Called once, on the reactor thread, when a reply carries
    /// [`Disposition::ShutdownAfterWrite`] — the hook where the
    /// application starts its own drain.
    fn on_shutdown(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_reports_disconnect_through_the_alive_flag() {
        let alive = Arc::new(AtomicBool::new(true));
        let ctx = RequestCtx::new(Arc::clone(&alive), None);
        assert!(!ctx.is_aborted());
        alive.store(false, Ordering::Relaxed);
        assert!(ctx.is_aborted());
        assert_eq!(ctx.deadline(), None);
    }
}
