//! The multi-locale bill of SPLATT's medium-grained algorithm, the
//! paper's second future-work item. Its arithmetic is the shared-memory
//! CP-ALS's in another association order, so what distribution adds is a
//! load balance and a communication bill, computed here without a solver:
//! [`ProcessGrid`], [`TensorDistribution`] (nnz-balanced chunks,
//! per-block nonzero counts) and [`medium_grained_volume`] (the bytes its
//! collectives move).

mod dist;
mod grid;
mod volume;

pub use dist::TensorDistribution;
pub use grid::ProcessGrid;
pub use volume::medium_grained_volume;
