//! Mode tiling: lock-free MTTKRP without output replication.
//!
//! SPLATT's third answer to the scatter problem (besides hashed locks and
//! privatized replicas) is to *tile* the tensor along the output mode:
//! nonzeros are partitioned into contiguous output-row ranges balanced by
//! nonzero count, one tile per task. Each task then runs an ordinary
//! root-mode (synchronization-free) kernel over its own tile — output
//! rows are disjoint across tiles by construction, memory stays at one
//! representation per tiled mode, and no reduction is needed.
//!
//! The Chapel-port paper explicitly omits tiling ("SPLATT's optional
//! feature to tile the modes of a tensor was omitted from our port") and
//! names it future work; this module implements it, and the benchmark
//! suite's ablation D compares all three synchronization regimes.
//!
//! The trade-off: tiles fragment fibers. A fiber whose nonzeros span two
//! output tiles is traversed by both tasks (its non-output levels repeat
//! per tile), so tensors whose fibers are long *in the output mode's
//! tree position* pay duplicated upper-level work.

use crate::csf::Csf;
use splatt_par::partition;
use splatt_par::TaskTeam;
use splatt_tensor::{sort, SortVariant, SparseTensor};

/// A tensor tiled along one mode: `tiles[t]` holds the nonzeros whose
/// index in `mode` falls in the `t`-th of `ntiles` contiguous row ranges,
/// stored as a CSF *rooted at that mode* so each tile runs the root
/// kernel.
#[derive(Debug, Clone)]
pub struct TiledCsf {
    /// The output mode this tiling serves.
    mode: usize,
    /// One CSF per tile (possibly empty).
    tiles: Vec<Csf>,
}

impl TiledCsf {
    /// Tile `tensor` along `mode` into `ntiles` contiguous row ranges of
    /// approximately equal nonzero count.
    ///
    /// # Panics
    /// Panics if `ntiles == 0` or `mode` is out of range.
    pub fn build(
        tensor: &SparseTensor,
        mode: usize,
        ntiles: usize,
        team: &TaskTeam,
        variant: SortVariant,
    ) -> Self {
        Self::build_guarded(tensor, mode, ntiles, team, variant, None)
    }

    /// [`TiledCsf::build`] under run governance: the per-tile sorts poll
    /// `guard` so cancellation stops a long tiling pass early; empty
    /// tiles are substituted for any tile whose sort was abandoned.
    ///
    /// # Panics
    /// Panics if `ntiles == 0` or `mode` is out of range.
    pub(crate) fn build_guarded(
        tensor: &SparseTensor,
        mode: usize,
        ntiles: usize,
        team: &TaskTeam,
        variant: SortVariant,
        guard: Option<&splatt_guard::RunGuard>,
    ) -> Self {
        assert!(ntiles > 0, "ntiles must be positive");
        assert!(mode < tensor.order(), "mode out of range");
        let dim = tensor.dims()[mode];

        // balance tiles by nonzeros per output row
        let mut row_nnz = vec![0usize; dim];
        for &i in tensor.ind(mode) {
            row_nnz[i as usize] += 1;
        }
        let prefix = partition::prefix_sum(&row_nnz);
        let row_bounds = partition::weighted(&prefix, ntiles);

        // assign each nonzero to its tile
        let tile_of_row = |row: usize| -> usize {
            // row_bounds is monotone; find the tile containing `row`
            match row_bounds.binary_search(&row) {
                // boundary hit: the row starts tile `t` (skip duplicates)
                Ok(t) => row_bounds[t..]
                    .iter()
                    .position(|&b| b > row)
                    .map(|off| t + off - 1)
                    .unwrap_or(ntiles - 1),
                Err(ins) => ins - 1,
            }
        };

        let order = tensor.order();
        let mut tile_entries: Vec<(Vec<Vec<u32>>, Vec<f64>)> = (0..ntiles)
            .map(|_| (vec![Vec::new(); order], Vec::new()))
            .collect();
        for x in 0..tensor.nnz() {
            let t = tile_of_row(tensor.ind(mode)[x] as usize);
            let (inds, vals) = &mut tile_entries[t];
            for (m, ind) in inds.iter_mut().enumerate() {
                ind.push(tensor.ind(m)[x]);
            }
            vals.push(tensor.vals()[x]);
        }

        // perm rooted at the tiled mode, remaining modes ascending
        let mut perm = Vec::with_capacity(order);
        perm.push(mode);
        perm.extend((0..order).filter(|&m| m != mode));

        let tiles = tile_entries
            .into_iter()
            .map(|(inds, vals)| {
                let mut t = SparseTensor::from_parts(tensor.dims().to_vec(), inds, vals);
                sort::sort_by_perm_guarded(&mut t, &perm, team, variant, guard);
                if guard.is_some_and(|g| g.is_cancelled()) && !t.is_sorted_by(&perm) {
                    Csf::empty(tensor.dims(), &perm)
                } else {
                    Csf::from_sorted(&t, &perm)
                }
            })
            .collect();

        TiledCsf { mode, tiles }
    }

    /// The mode this tiling serves.
    pub(crate) fn mode(&self) -> usize {
        self.mode
    }

    /// Number of tiles.
    pub(crate) fn ntiles(&self) -> usize {
        self.tiles.len()
    }

    /// Tile `t`'s CSF.
    pub(crate) fn tile(&self, t: usize) -> &Csf {
        &self.tiles[t]
    }

    /// Total nonzeros across tiles (equals the source tensor's count).
    pub(crate) fn nnz(&self) -> usize {
        self.tiles.iter().map(|t| t.nnz()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatt_tensor::synth;

    fn team() -> TaskTeam {
        TaskTeam::new(2)
    }

    #[test]
    fn tiles_partition_the_nonzeros() {
        let t = synth::power_law(&[40, 25, 30], 3_000, 1.8, 7);
        for mode in 0..3 {
            let tiled = TiledCsf::build(&t, mode, 4, &team(), SortVariant::AllOpts);
            assert_eq!(tiled.nnz(), t.nnz(), "mode {mode}");
            assert_eq!(tiled.ntiles(), 4);
        }
    }

    #[test]
    fn every_tile_entry_is_in_its_row_range() {
        let t = synth::power_law(&[30, 20, 25], 2_000, 2.0, 9);
        let mode = 1;
        let tiled = TiledCsf::build(&t, mode, 3, &team(), SortVariant::AllOpts);
        // the row ranges are disjoint and ascending: every row of tile
        // `k` lies above every row of the tiles before it
        let mut floor = 0;
        for k in 0..tiled.ntiles() {
            // tile CSFs are rooted at `mode`, so level-0 fids are its rows
            let rows = tiled.tile(k).fids(0);
            if let (Some(&lo), Some(&hi)) = (rows.iter().min(), rows.iter().max()) {
                assert!(
                    lo >= floor,
                    "tile {k} holds row {lo}, below an earlier tile's"
                );
                floor = hi + 1;
            }
        }
    }

    #[test]
    fn tiles_balance_nonzeros_roughly() {
        let t = synth::random_uniform(&[64, 32, 48], 8_000, 3);
        let tiled = TiledCsf::build(&t, 0, 4, &team(), SortVariant::AllOpts);
        for k in 0..4 {
            let nnz = tiled.tile(k).nnz();
            assert!(
                nnz > 1_000 && nnz < 3_000,
                "tile {k} holds {nnz} of 8000 nonzeros"
            );
        }
    }

    #[test]
    fn skewed_tensor_tiles_stay_legal() {
        // all nonzeros in one row: one fat tile, others empty
        let mut t = SparseTensor::new(vec![10, 10, 10]);
        for j in 0..10u32 {
            for k in 0..10u32 {
                t.push(&[5, j, k], 1.0);
            }
        }
        let tiled = TiledCsf::build(&t, 0, 4, &team(), SortVariant::AllOpts);
        assert_eq!(tiled.nnz(), 100);
        let nonempty: Vec<usize> = (0..4).filter(|&k| tiled.tile(k).nnz() > 0).collect();
        assert_eq!(nonempty.len(), 1, "all nonzeros share one row");
    }

    #[test]
    fn more_tiles_than_rows() {
        let t = synth::random_uniform(&[3, 20, 20], 500, 5);
        let tiled = TiledCsf::build(&t, 0, 8, &team(), SortVariant::AllOpts);
        assert_eq!(tiled.nnz(), 500);
        assert_eq!(tiled.ntiles(), 8);
    }

    #[test]
    fn empty_tensor_tiles() {
        let t = SparseTensor::new(vec![5, 5, 5]);
        let tiled = TiledCsf::build(&t, 2, 3, &team(), SortVariant::AllOpts);
        assert_eq!(tiled.nnz(), 0);
    }
}
