//! Tasking substrate for the splatt-rs workspace.
//!
//! The Chapel-port paper's performance story is as much about the *tasking
//! layer* as about the algorithm: Qthreads workers spin-wait for new work
//! before suspending (tunable via `QT_SPINCOUNT`), the `fifo` layer parks
//! immediately on POSIX threads, and OpenMP teams use static work sharing
//! (`omp parallel` / `omp for`). This crate provides the equivalent
//! machinery natively:
//!
//! * [`TaskTeam`] — a persistent team of worker threads with a
//!   `coforall`-style broadcast API ([`TaskTeam::coforall`]) and a
//!   configurable spin-before-park count ([`TeamConfig::spin_count`],
//!   the `QT_SPINCOUNT` analogue).
//! * [`partition`] — static block partitioning (`omp for` analogue) and
//!   SPLATT's weight-balanced partitioning of nonzeros across tasks.
//! * [`ThreadScratch`] — per-thread, cache-line-padded scratch buffers
//!   (SPLATT's `thd_info`) with flat reductions.
//! * [`TimerRegistry`] — the per-routine timer table behind every number in
//!   the paper's Table III and Figures 5–8.

mod scratch;
mod team;
mod timers;

pub mod partition;

pub use scratch::ThreadScratch;
pub use team::{TaskTeam, TeamConfig};
pub use timers::{Routine, TimerRegistry};
