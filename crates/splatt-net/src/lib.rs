//! `splatt-net`: a std-only multiplexed I/O front end for the serving
//! stack.
//!
//! The thread-per-connection server this replaces spends one OS thread
//! per client — fine for dozens, fatal for the tens of thousands of
//! mostly-idle connections a production recommender front end holds
//! open. This crate multiplexes them all through **one reactor thread**
//! (readiness-polled nonblocking sockets via raw `poll(2)` on unix,
//! with a portable nonblocking-sweep fallback) and a **bounded worker
//! pool** that does the blocking application work, so front-end thread
//! count is `1 + workers` regardless of connection count.
//!
//! The pieces, bottom-up:
//!
//! - [`sys`]: `poll(2)` and `RLIMIT_NOFILE` shims bound directly from
//!   the libc every Rust binary already links — no external crates.
//! - [`Poller`]: one readiness interface over the poll(2) backend and
//!   the sweep fallback.
//! - [`Conn`] (internal): per-connection frame state machine —
//!   nonblocking reassembly reads, pipelined request sequencing,
//!   in-order completion release, and a coalescing write buffer.
//! - [`TimerWheel`]: hashed wheel with lazy cancellation for idle
//!   timeouts and per-request deadline backstops.
//! - [`WorkerPool`]: N threads draining a job queue whose boundedness
//!   comes from admission permits, not queue limits.
//! - [`serve_frames`]: the reactor itself, stitched to the application
//!   through the protocol-agnostic [`FrameService`] trait. A request the
//!   service can finish without blocking runs to completion on the
//!   reactor thread ([`FrameService::try_handle_now`]); the pool is for
//!   the rest.
//!
//! Backpressure is layered and *typed*: an accept-layer connection cap,
//! a decode-layer queue-depth gate plus per-connection pipeline cap
//! (both `splatt_guard::AdmissionGate`s, consulted before a request is
//! run on either thread), and whatever gate the application holds
//! inside [`FrameService::handle`] and [`FrameService::try_handle_now`]. Refusals are
//! written to the wire as application-encoded frames, so an overloaded
//! server answers "overloaded" in microseconds instead of letting TCP
//! queues time requests out. Every layer's sheds — plus connection,
//! readiness-wakeup, and write-coalescing counts — are exported through
//! [`NetCounters`] for probe reports.

mod conn;
mod counters;
mod poller;
mod pool;
mod reactor;
mod service;
pub mod sys;
mod timer;

pub use conn::{Conn, FrameTooLarge, ReadOutcome, FRAME_HEADER};
pub use counters::{NetCounters, NetSnapshot};
pub use poller::{Event, Interest, Poller, PollerKind};
pub use pool::WorkerPool;
pub use reactor::{serve_frames, NetHandle, ReactorConfig};
pub use service::{Disposition, FrameService, Reply, RequestCtx, ShedLayer};
pub use timer::TimerWheel;
