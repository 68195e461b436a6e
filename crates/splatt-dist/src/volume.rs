//! Closed-form communication volume of medium-grained CP-ALS.
//!
//! Per iteration and mode `m`, the algorithm on a `p_1 x ... x p_N` grid
//! of `P` ranks allreduces the MTTKRP partials and allgathers the updated
//! rows within each layer (the `g_m = P / p_m` ranks sharing a mode-`m`
//! index range; `d_m R` values over all layers), then allreduces the
//! column norms (`R` values) and the Gramian (`R^2`) over all ranks; an
//! iteration ends with a global allreduce of the two fit terms. A ring
//! allreduce of `n` bytes over `g` ranks moves `2 n (g - 1)` bytes in
//! total, an allgather `n (g - 1)`. With 8-byte values, `I` iterations:
//!
//! ```text
//! allreduce = I * ( sum_m [16 d_m R (g_m - 1) + 16 (R + R^2)(P - 1)] + 32 (P - 1) )
//! allgather = I *   sum_m  8 d_m R (g_m - 1)
//! ```
//!
//! The nonzeros never enter: a layer exchanges its whole index range, not
//! only the rows its blocks touch. A `1 x ... x 1` grid moves nothing.

use crate::grid::ProcessGrid;

/// Bytes the medium-grained algorithm moves, by collective kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommVolume {
    /// Total ring-allreduce bytes across all ranks.
    pub allreduce_bytes: u64,
    /// Total ring-allgather bytes across all ranks.
    pub allgather_bytes: u64,
}

impl CommVolume {
    /// Bytes across both collective kinds.
    pub fn total_bytes(&self) -> u64 {
        self.allreduce_bytes + self.allgather_bytes
    }
}

/// Communication volume of `iters` medium-grained CP-ALS iterations at
/// `rank` on a tensor with mode lengths `dims` distributed over `grid`.
///
/// ```
/// use splatt_dist::{medium_grained_volume, ProcessGrid};
///
/// let flat = medium_grained_volume(&[64, 64, 64], &ProcessGrid::new(vec![8, 1, 1]), 16, 5);
/// let cube = medium_grained_volume(&[64, 64, 64], &ProcessGrid::new(vec![2, 2, 2]), 16, 5);
/// assert!(cube.total_bytes() < flat.total_bytes());
/// ```
///
/// # Panics
/// Panics if the grid order differs from `dims.len()`.
pub fn medium_grained_volume(
    dims: &[usize],
    grid: &ProcessGrid,
    rank: usize,
    iters: usize,
) -> CommVolume {
    assert_eq!(
        grid.order(),
        dims.len(),
        "grid order must match tensor order"
    );
    let nprocs = grid.nprocs();
    let mut allreduce = ring_allreduce(nprocs, 2); // fit terms
    let mut allgather = 0;
    for (&dim, &extent) in dims.iter().zip(grid.dims()) {
        let layer = nprocs / extent;
        allreduce += ring_allreduce(layer, dim * rank) // MTTKRP partials
            + ring_allreduce(nprocs, rank) // column norms
            + ring_allreduce(nprocs, rank * rank); // Gramian
        allgather += ring_allgather(layer, dim * rank); // updated rows
    }
    CommVolume {
        allreduce_bytes: allreduce * iters as u64,
        allgather_bytes: allgather * iters as u64,
    }
}

/// Ring allreduce of `elems` f64 values over `group_size` ranks, total
/// bytes: exactly `2 n (g - 1)`, not a per-rank share `2 n (g - 1) / g`
/// floored and multiplied back up, which undercounts whenever `g` does
/// not divide `2 n (g - 1)`.
fn ring_allreduce(group_size: usize, elems: usize) -> u64 {
    2 * ring_allgather(group_size, elems)
}

/// Allgather over `group_size` ranks contributing `total_elems` f64
/// values together, total bytes.
fn ring_allgather(group_size: usize, total_elems: usize) -> u64 {
    8 * total_elems as u64 * (group_size as u64 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn volume(dims: &[usize], grid: &[usize], rank: usize, iters: usize) -> CommVolume {
        medium_grained_volume(dims, &ProcessGrid::new(grid.to_vec()), rank, iters)
    }

    #[test]
    fn single_rank_groups_are_free() {
        assert_eq!(ring_allreduce(1, 1_000), 0);
        assert_eq!(ring_allgather(1, 1_000), 0);
    }

    #[test]
    fn allreduce_ring_cost() {
        // 4 ranks, 100 elems = 800 bytes: per-rank 2*800*3/4 = 1200; total 4800
        assert_eq!(ring_allreduce(4, 100), 4_800);
    }

    #[test]
    fn allgather_cost() {
        // 3 ranks, 300 elems total = 2400 bytes, each byte crosses 2 hops
        assert_eq!(ring_allgather(3, 300), 4_800);
    }

    #[test]
    fn allreduce_cost_is_exact_for_non_divisible_groups() {
        // 3 ranks, 10 elems = 80 bytes: exact total 2*80*2 = 320 bytes.
        // A per-rank formula floors 320/3 to 106 and reports
        // 106*3 = 318 — a 2-byte undercount per collective.
        assert_eq!(ring_allreduce(3, 10), 320);
        // 7 ranks, 1 elem = 8 bytes: exact 2*8*6 = 96 (floor gave 91).
        assert_eq!(ring_allreduce(7, 1), 96);
    }

    /// `(dims, grid, rank, iters, allreduce, allgather)`.
    type Measured = (&'static [usize], &'static [usize], usize, usize, u64, u64);

    /// The bytes a simulated medium-grained CP-ALS charged as it performed
    /// every collective: Experiment E's NELL-2 grids, then the tensors of
    /// its own tests (planted, two power-law, one with empty blocks) and
    /// an order-4 tensor at ranks 1 and 16.
    const LEDGER: &[Measured] = &[
        (&[120, 90, 290], &[8, 1, 1], 35, 5, 9_565_920, 3_724_000),
        (&[120, 90, 290], &[1, 8, 1], 35, 5, 10_153_920, 4_018_000),
        (&[120, 90, 290], &[4, 2, 1], 35, 5, 8_893_920, 3_388_000),
        (&[120, 90, 290], &[2, 2, 2], 35, 5, 6_317_920, 2_100_000),
        (&[16, 12, 10], &[1, 1, 1], 10, 3, 0, 0),
        (&[16, 12, 10], &[2, 1, 1], 2, 12, 12_288, 4_224),
        (&[16, 12, 10], &[2, 2, 1], 2, 12, 33_792, 11_136),
        (&[16, 12, 10], &[2, 2, 2], 2, 12, 70_656, 21_888),
        (&[40, 40, 40], &[2, 1, 1], 10, 2, 36_224, 12_800),
        (&[40, 40, 40], &[2, 2, 2], 10, 2, 189_568, 57_600),
        (&[48, 48, 48], &[2, 2, 2], 10, 2, 212_608, 69_120),
        (&[48, 48, 48], &[8, 1, 1], 10, 2, 289_408, 107_520),
        (&[8, 8, 8], &[2, 2, 2], 2, 3, 13_632, 3_456),
        (&[6, 5, 4, 3], &[2, 1, 3, 1], 1, 2, 3_392, 896),
        (&[6, 5, 4, 3], &[1, 2, 2, 2], 16, 3, 426_144, 29_952),
    ];

    #[test]
    fn closed_form_reproduces_the_simulated_ledger() {
        for &(dims, grid, rank, iters, allreduce_bytes, allgather_bytes) in LEDGER {
            let want = CommVolume {
                allreduce_bytes,
                allgather_bytes,
            };
            assert_eq!(volume(dims, grid, rank, iters), want, "{dims:?} {grid:?}");
        }
    }

    #[test]
    fn single_locale_has_zero_communication() {
        assert_eq!(volume(&[16, 12, 10], &[1, 1, 1], 10, 3).total_bytes(), 0);
    }

    #[test]
    fn communication_grows_with_grid_extent() {
        let dims = [40, 40, 40];
        let v1 = volume(&dims, &[1, 1, 1], 10, 2).total_bytes();
        let v2 = volume(&dims, &[2, 1, 1], 10, 2).total_bytes();
        let v8 = volume(&dims, &[2, 2, 2], 10, 2).total_bytes();
        assert_eq!(v1, 0);
        assert!(v2 > 0);
        assert!(v8 > v2, "8-rank volume {v8} <= 2-rank volume {v2}");
    }

    #[test]
    fn flat_grids_cost_more_than_cubes() {
        // the medium-grained paper's headline: balanced grids reduce the
        // factor-exchange volume vs. one-dimensional decompositions
        let dims = [48, 48, 48];
        let cube = volume(&dims, &[2, 2, 2], 10, 2).total_bytes();
        let flat = volume(&dims, &[8, 1, 1], 10, 2).total_bytes();
        assert!(
            cube < flat,
            "cube grid volume {cube} not below flat grid volume {flat}"
        );
    }
}
