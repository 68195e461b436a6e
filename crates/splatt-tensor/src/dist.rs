//! The multi-locale bill of SPLATT's medium-grained algorithm, the
//! paper's second future-work item. Its arithmetic is the shared-memory
//! CP-ALS's in another association order, so what distribution adds is a
//! load balance and a communication bill, computed here without a solver:
//! [`ProcessGrid`], [`TensorDistribution`] (nnz-balanced chunks,
//! per-block nonzero counts) and [`medium_grained_volume`] (the bytes its
//! collectives move).

pub use crate::grid::ProcessGrid;
pub use crate::volume::medium_grained_volume;
use crate::SparseTensor;
use splatt_par::partition;

/// A tensor partitioned into per-rank blocks: rank `(i1..iN)` owns the
/// nonzeros whose mode-`m` index falls in chunk `i_m` of that mode, for
/// every mode. Chunk boundaries are balanced by per-index nonzero counts
/// (the medium-grained paper's "chunking" step). Only each block's
/// nonzero count is kept, not the blocks or their boundaries.
#[derive(Debug, Clone)]
pub struct TensorDistribution {
    grid: ProcessGrid,
    /// Per rank: the nonzeros in its block.
    block_nnz: Vec<usize>,
}

impl TensorDistribution {
    /// Partition `tensor` over `grid`.
    ///
    /// # Panics
    /// Panics if the grid order differs from the tensor order.
    pub fn new(tensor: &SparseTensor, grid: ProcessGrid) -> Self {
        assert_eq!(
            grid.order(),
            tensor.order(),
            "grid order must match tensor order"
        );
        let order = tensor.order();
        let mode_bounds = mode_bounds(tensor, &grid);

        // count each nonzero into its block: the chunk of each index is
        // the last boundary <= it (bounds repeat for empty chunks; the
        // last is the mode length, so it is never past the last chunk)
        let mut block_nnz = vec![0; grid.nprocs()];
        let mut gcoord = vec![0usize; order];
        for x in 0..tensor.nnz() {
            for (m, c) in gcoord.iter_mut().enumerate() {
                let idx = tensor.ind(m)[x] as usize;
                *c = mode_bounds[m].partition_point(|&b| b <= idx) - 1;
            }
            block_nnz[grid.rank_of(&gcoord)] += 1;
        }

        TensorDistribution { grid, block_nnz }
    }

    /// The grid.
    pub fn grid(&self) -> &ProcessGrid {
        &self.grid
    }

    /// Heaviest block's nonzero count (load-balance indicator).
    pub fn max_block_nnz(&self) -> usize {
        self.block_nnz.iter().copied().max().unwrap_or(0)
    }
}

/// Per mode, the `grid.dims()[m] + 1` index boundaries of its chunks,
/// balanced by per-index nonzero counts.
fn mode_bounds(tensor: &SparseTensor, grid: &ProcessGrid) -> Vec<Vec<usize>> {
    (0..tensor.order())
        .map(|m| {
            let mut hist = vec![0usize; tensor.dims()[m]];
            for &i in tensor.ind(m) {
                hist[i as usize] += 1;
            }
            partition::weighted(&partition::prefix_sum(&hist), grid.dims()[m])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    fn dist(grid_dims: Vec<usize>) -> (SparseTensor, TensorDistribution) {
        let t = synth::power_law(&[30, 24, 40], 4_000, 1.6, 3);
        let d = TensorDistribution::new(&t, ProcessGrid::new(grid_dims));
        (t, d)
    }

    #[test]
    fn blocks_partition_the_nonzeros() {
        let (t, d) = dist(vec![2, 3, 2]);
        let single = TensorDistribution::new(&t, ProcessGrid::new(vec![1, 1, 1]));
        assert_eq!(single.block_nnz, [t.nnz()]);
        assert_eq!(d.block_nnz.iter().sum::<usize>(), t.nnz());
        // the per-block counts of the block-copying distribution this
        // one replaced, on the same tensor and grid
        assert_eq!(
            d.block_nnz,
            [309, 313, 343, 397, 318, 332, 342, 308, 340, 368, 310, 320]
        );
    }

    #[test]
    fn block_counts_respect_ranges() {
        // a skewed tensor, and one confined to an octant (empty blocks)
        let mut octant = SparseTensor::new(vec![8, 8, 8]);
        for i in 0..4u32 {
            octant.push(&[i, i % 4, i % 4], 1.0 + i as f64);
        }
        for t in [dist(vec![2, 2, 2]).0, octant] {
            let d = TensorDistribution::new(&t, ProcessGrid::new(vec![2, 2, 2]));
            let bounds = mode_bounds(&t, d.grid());
            for r in 0..8 {
                let layers = d.grid().coords_of(r);
                let inside = (0..t.nnz())
                    .filter(|&x| {
                        (0..3).all(|m| {
                            let (lo, hi) = (bounds[m][layers[m]], bounds[m][layers[m] + 1]);
                            (lo..hi).contains(&(t.ind(m)[x] as usize))
                        })
                    })
                    .count();
                assert_eq!(d.block_nnz[r], inside, "rank {r}");
            }
        }
    }

    #[test]
    fn mode_ranges_tile_each_dimension() {
        for grid in [vec![2, 3, 2], vec![1, 1, 1]] {
            let (t, d) = dist(grid);
            let bounds = mode_bounds(&t, d.grid());
            for (m, b) in bounds.iter().enumerate() {
                assert_eq!(b.len(), d.grid().dims()[m] + 1);
                assert_eq!(b[0], 0);
                assert_eq!(b[b.len() - 1], t.dims()[m]);
                assert!(b.windows(2).all(|w| w[0] <= w[1]), "mode {m}: {b:?}");
            }
        }
    }

    #[test]
    fn blocks_are_roughly_balanced_on_uniform_data() {
        let t = synth::random_uniform(&[64, 64, 64], 16_000, 9);
        let d = TensorDistribution::new(&t, ProcessGrid::new(vec![2, 2, 2]));
        // perfect balance is 2000 per block; block balance is the product
        // of three 1-D balances
        assert!(d.max_block_nnz() < 4_000, "max block {}", d.max_block_nnz());
    }

    #[test]
    #[should_panic(expected = "grid order")]
    fn wrong_grid_order_rejected() {
        let t = synth::random_uniform(&[5, 5, 5], 50, 2);
        let _ = TensorDistribution::new(&t, ProcessGrid::new(vec![2, 2]));
    }
}
