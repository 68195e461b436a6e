//! Sparse tensor substrate for the splatt-rs workspace.
//!
//! Provides everything the decomposition core needs below the CSF level:
//!
//! * [`SparseTensor`] — coordinate-format storage in SPLATT's layout (one
//!   index array per mode, parallel to the value array).
//! * [`io`] — FROSTT-style `.tns` text I/O, the format the paper's data
//!   sets (YELP, NELL-2, …) ship in.
//! * [`synth`] — synthetic generators reproducing the *shape* of the
//!   paper's five data sets (Table I). The real data sets are multi-GB
//!   downloads we cannot assume; the generators preserve the mode
//!   dimensions / nonzero-count ratios that drive every behavioural
//!   difference the paper reports (most importantly the
//!   privatization-vs-locks decision that separates YELP from NELL-2).
//! * [`sort`] — the pre-processing sort (paper's "Sort" routine), with the
//!   four optimization variants of Figure 1 reproduced as selectable
//!   [`sort::SortVariant`]s.
//! * [`stats`] — Table I-style data set summaries.
//! * [`dist`] — the multi-locale bill: SPLATT's medium-grained process
//!   grid, the nnz-balanced distribution over it and the closed-form
//!   communication volume. It runs no solver, and this crate has none.

mod coo;
pub mod dist;
mod grid;
#[cfg(test)]
mod mutation;
mod volume;

pub mod io;
pub mod sort;
pub mod stats;
pub mod synth;

/// The unit tests count their heap requests: the mutation test asserts
/// an allocation bound per decoded tensor file.
#[cfg(test)]
#[global_allocator]
static HEAP: splatt_probe::alloc::CountingAlloc = splatt_probe::alloc::CountingAlloc;

pub use coo::{MergeStats, SparseTensor};
pub use sort::SortVariant;
pub use stats::TensorStats;
