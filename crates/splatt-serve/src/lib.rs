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
//!   an LRU result cache ([`ResultCache`]), and the query kernels, run
//!   on the thread that asks with a grow-only arena off a free list —
//!   allocation-free on the steady-state hot path.
//! * [`serve`] / [`Client`] — a length-prefixed binary protocol served
//!   by the `splatt-net` readiness-polled reactor: a bounded worker
//!   pool multiplexing all connections, request pipelining, per-request
//!   deadlines with a timer-wheel backstop, typed overload shedding at
//!   accept/decode/engine, cancel-on-disconnect, transient-vs-permanent
//!   error classification ([`Transience`]), and graceful drain on
//!   shutdown.
//! * [`cluster`] — sharded, replicated serving: a consistent-hash
//!   [`cluster::ShardRing`] over mode-0 rows, a scatter-gather
//!   [`cluster::Router`] with replica failover and typed `Degraded`
//!   answers, shared single-parse model loading
//!   ([`cluster::SharedModel`]), and a [`cluster::LoopbackCluster`]
//!   harness for deterministic shard-kill storms.
//! * Probe integration — every counter surfaces in the probe schema's
//!   `serve` object via [`ServeEngine::profile_report`] (the cluster's
//!   per-shard failover counters ride in `serve.shards`, the reactor
//!   front end's connection/wakeup/shed counters in `serve.net`).
//!
//! Answers are **bit-identical** to dense reconstruction from the same
//! model: the query kernels, the wire format, and the cluster's
//! partial-result merges all preserve IEEE-754 bit patterns end to end.

mod cache;
mod client;
pub mod cluster;
mod engine;
pub mod protocol;
mod registry;
mod server;
mod service;
mod stats;
#[cfg(test)]
mod wire_mutation;

/// The unit tests count their heap requests: the wire mutation test
/// asserts an allocation bound per decoded frame.
#[cfg(test)]
#[global_allocator]
static HEAP: splatt_probe::alloc::CountingAlloc = splatt_probe::alloc::CountingAlloc;

pub use cache::{CacheKey, CacheValue, ResultCache};
pub use client::{classify, Client, Transience};
pub use cluster::{ClusterConfig, LoopbackCluster, Router, SharedModel};
pub use engine::{Query, QueryResult, ServeConfig, ServeEngine, ServeError};
pub use registry::{ModelInfo, ModelRegistry, ServableModel};
pub use server::{serve, serve_with, FrontEndConfig, ServerHandle};
pub use stats::{Log2Histogram, QueryKind, ServeStats};
