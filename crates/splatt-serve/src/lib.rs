//! Factor-model serving for splatt-rs: the downstream half of the
//! tensor-decomposition story.
//!
//! The paper's pipeline ends where a model begins to be *used*: CP-ALS
//! produces a Kruskal model, and applications (recommendation,
//! pattern lookup, anomaly scoring) query it point-wise, slice-wise, or
//! top-k-wise. This crate turns a decomposed model into a queryable
//! service using only `std` plus the workspace's own substrate crates:
//!
//! * [`ModelRegistry`] — immutable, versioned model storage with
//!   load/evict; models arrive via `splatt-core`'s bit-exact model
//!   files (or checkpoints).
//! * [`ServeEngine`] — admission control ([`splatt_guard::AdmissionGate`]),
//!   an LRU result cache, and the query kernels, run
//!   on the thread that asks with a grow-only arena off a free list —
//!   allocation-free on the steady-state hot path.
//! * [`serve`] / [`Client`] — a length-prefixed binary protocol served
//!   by the crate's readiness-polled reactor: a bounded worker pool
//!   multiplexing all connections, request pipelining, per-request
//!   deadlines with a timer-wheel backstop, typed overload shedding at
//!   accept/decode/engine, cancel-on-disconnect, and graceful drain on
//!   shutdown.
//! * Probe integration — every counter surfaces in the probe schema's
//!   `serve` object via [`ServeEngine::profile_report`] (the reactor
//!   front end's connection/wakeup/shed counters in `serve.net`).
//!
//! The front end is std-only. One reactor thread multiplexes every
//! connection (raw `poll(2)` on unix, a nonblocking sweep elsewhere) and
//! a bounded worker pool does the blocking work, so front-end thread
//! count is `1 + workers` whatever the connection count. Its private
//! modules, bottom-up: `sys` (the `poll(2)` and `RLIMIT_NOFILE` shims,
//! public for the smoke tests' descriptor limit), `poller` (one
//! readiness interface over both backends), `conn` (per-connection
//! frame reassembly, pipelined sequencing, coalesced writes), `timer`
//! (the hashed wheel behind idle timeouts and deadline backstops),
//! `pool` (the worker threads), `counters` (the `serve.net` row) and
//! `reactor`, stitched to the engine through `service`'s
//! protocol-agnostic `FrameService` trait.
//!
//! Answers are **bit-identical** to dense reconstruction from the same
//! model: the query kernels and the wire format both preserve IEEE-754
//! bit patterns end to end.

mod cache;
mod client;
mod conn;
mod counters;
mod engine;
mod poller;
mod pool;
pub mod protocol;
mod reactor;
mod registry;
mod server;
mod service;
mod stats;
pub mod sys;
mod timer;
#[cfg(test)]
mod wire_mutation;

/// The unit tests count their heap requests: the wire mutation test
/// asserts an allocation bound per decoded frame.
#[cfg(test)]
#[global_allocator]
static HEAP: splatt_probe::alloc::CountingAlloc = splatt_probe::alloc::CountingAlloc;

pub use client::Client;
pub use engine::{Query, QueryResult, ServeConfig, ServeEngine, ServeError};
pub use registry::{ModelInfo, ModelRegistry, ServableModel};
pub use server::{serve, serve_with, FrontEndConfig, ServerHandle};
