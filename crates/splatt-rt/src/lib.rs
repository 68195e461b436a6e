//! Std-only runtime substrate for the splatt workspace.
//!
//! The workspace builds in hermetic environments with no access to
//! crates.io, so everything that used to come from small utility crates
//! lives here instead:
//!
//! - [`sync`] — a `parking_lot`-flavoured [`sync::Mutex`] / [`sync::Condvar`]
//!   pair (guards without poisoning, `force_unlock` for guard-free critical
//!   sections) plus [`sync::CachePadded`] for false-sharing avoidance.
//! - [`rng`] — a small, fast, seedable PRNG ([`rng::StdRng`],
//!   xoshiro256** seeded through SplitMix64) with the `random` /
//!   `random_range` surface the generators and examples use.
//! - [`qc`] — a deterministic mini property-testing harness (seeded cases,
//!   failing-seed reporting) used by the workspace test suites.

pub mod qc;
pub mod rng;
pub mod sync;
