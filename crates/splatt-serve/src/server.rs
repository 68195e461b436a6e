//! The serving front end.
//!
//! One `splatt-net` readiness-polled reactor thread multiplexes every
//! connection (raw `poll(2)` where available) and answers point reads
//! itself (small `Entry` frames), a bounded worker pool executes every
//! other request, and three admission layers — connection cap at
//! accept, queue depth at decode, the engine's own gate at batch — shed
//! typed `Overloaded` frames instead of queueing unboundedly.
//! Socket mode is owned by the reactor's connection state machine: a
//! socket goes nonblocking once at registration and never flips again.
//!
//! Shutdown is cooperative, clean, and *graceful*: cancelling the
//! engine's shutdown token (via [`ServerHandle::shutdown`], the wire
//! `Shutdown` op, or a signal handler the embedder wires up) stops
//! accepting and rejects new submissions, but requests already in flight
//! keep executing through the engine's drain window and their responses
//! are written in full. Request cancel tokens are fresh roots (not
//! children of the shutdown token) precisely so the drain can complete
//! them; client disconnects are still caught by the reactor's EOF
//! handling.

use crate::engine::ServeEngine;
use crate::protocol::MAX_FRAME;
use crate::service::{accept_shed_frame, EngineService};
use splatt_net::{serve_frames, NetHandle, NetSnapshot, ReactorConfig};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

/// Front-end tuning for [`serve_with`].
#[derive(Debug, Clone)]
pub struct FrontEndConfig {
    /// Worker threads executing decoded requests; 0 means one per core
    /// (minimum two).
    pub workers: usize,
    /// Hard cap on concurrently open connections; beyond it, accepts
    /// are shed with a typed `Overloaded` frame.
    pub max_conns: usize,
    /// Decoded-but-unanswered requests allowed across all connections
    /// before the decode layer sheds.
    pub queue_depth: usize,
    /// Unanswered pipelined requests allowed on one connection.
    pub max_pipeline: usize,
    /// Close connections idle this long.
    pub idle_timeout: Duration,
    /// Force the portable sweep poller (tests exercise the
    /// `WouldBlock` paths deterministically with this).
    pub force_sweep: bool,
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        FrontEndConfig {
            workers: 0,
            max_conns: 4096,
            queue_depth: 256,
            max_pipeline: 32,
            idle_timeout: Duration::from_secs(60),
            force_sweep: false,
        }
    }
}

/// A running server: the bound address plus the reactor serving it.
pub struct ServerHandle {
    addr: SocketAddr,
    engine: Arc<ServeEngine>,
    net: NetHandle,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind this server.
    pub fn engine(&self) -> &Arc<ServeEngine> {
        &self.engine
    }

    /// Front-end counters. Always `Some` for a running server; the
    /// `Option` is the signature the end-to-end benchmark holds.
    pub fn net_counters(&self) -> Option<NetSnapshot> {
        Some(self.net.counters())
    }

    /// Request shutdown without blocking: trips the engine token, which
    /// the reactor observes within one poll interval.
    pub fn request_shutdown(&self) {
        self.engine.shutdown_token().cancel();
    }

    /// Block until the server stops (token cancelled — by
    /// [`ServerHandle::shutdown`], the wire `Shutdown` op, or the
    /// embedder), then drain the front end and the engine's batcher.
    pub fn join(self) {
        self.net.wait();
        self.engine.shutdown();
    }

    /// Stop the server and block until everything is drained.
    pub fn shutdown(self) {
        self.request_shutdown();
        self.join();
    }
}

/// Bind `addr` (e.g. `127.0.0.1:0`) and serve `engine` with default
/// front-end tuning.
///
/// # Errors
/// Propagates bind failures.
pub fn serve(engine: Arc<ServeEngine>, addr: &str) -> std::io::Result<ServerHandle> {
    serve_with(engine, addr, FrontEndConfig::default())
}

/// Bind `addr` and serve `engine` under `config`.
///
/// # Errors
/// Propagates bind and front-end setup failures.
pub fn serve_with(
    engine: Arc<ServeEngine>,
    addr: &str,
    config: FrontEndConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let service = Arc::new(EngineService::new(Arc::clone(&engine)));
    let workers = if config.workers == 0 {
        ReactorConfig::default().workers
    } else {
        config.workers
    };
    let reactor_config = ReactorConfig {
        workers,
        max_conns: config.max_conns,
        queue_depth: config.queue_depth,
        max_pipeline: config.max_pipeline,
        idle_timeout: config.idle_timeout,
        drain_deadline: engine.config().drain_deadline + Duration::from_secs(1),
        max_frame: MAX_FRAME,
        force_sweep: config.force_sweep,
        accept_shed_frame: accept_shed_frame(config.max_conns),
        thread_name: "splatt-serve".to_string(),
    };
    // The reactor's stop token is a child of the engine's shutdown
    // token: request_shutdown, the wire Shutdown op (via
    // EngineService::on_shutdown), and embedder signal handlers all
    // start the same drain.
    let stop = engine.shutdown_token().child();
    let handle = serve_frames(
        listener,
        Arc::clone(&service) as Arc<dyn splatt_net::FrameService>,
        reactor_config,
        stop,
    )?;
    // Now the counters exist, let Stats report them.
    service.attach_net(handle.counters_handle());
    Ok(ServerHandle {
        addr: local,
        engine,
        net: handle,
    })
}
