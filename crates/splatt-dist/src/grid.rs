//! The process grid of the medium-grained algorithm.

/// An `N`-dimensional grid of `p1 * p2 * ... * pN` ranks. Rank `r`'s grid
/// coordinates follow row-major order (last dimension fastest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessGrid {
    dims: Vec<usize>,
}

impl ProcessGrid {
    /// Create a grid with the given per-dimension extents.
    ///
    /// # Panics
    /// Panics if `dims` is empty or any extent is zero.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "grid needs at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "grid extents must be positive");
        ProcessGrid { dims }
    }

    /// Grid extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of grid dimensions (must equal the tensor order).
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Total rank count.
    pub fn nprocs(&self) -> usize {
        self.dims.iter().product()
    }

    /// Grid coordinates of `rank`.
    ///
    /// # Panics
    /// Panics if `rank >= nprocs()`.
    pub fn coords_of(&self, rank: usize) -> Vec<usize> {
        assert!(rank < self.nprocs(), "rank out of range");
        let mut rest = rank;
        let mut coords = vec![0; self.order()];
        for (c, &d) in coords.iter_mut().zip(&self.dims).rev() {
            *c = rest % d;
            rest /= d;
        }
        coords
    }

    /// Rank with the given grid coordinates.
    ///
    /// # Panics
    /// Panics on wrong arity or out-of-range coordinates.
    pub fn rank_of(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.order(), "coordinate arity mismatch");
        let mut rank = 0;
        for (&c, &d) in coords.iter().zip(&self.dims) {
            assert!(c < d, "grid coordinate out of range");
            rank = rank * d + c;
        }
        rank
    }

    /// Every rank whose grid coordinate along `mode` equals `coord`,
    /// sorted ascending: the *layer* of the medium-grained algorithm,
    /// whose ranks share the mode-`mode` index range and exchange that
    /// mode's factor rows — and the replica set of a shard on the
    /// serving cluster's `[nshards, nreplicas]` grid.
    ///
    /// # Panics
    /// Panics on an out-of-range `mode` or `coord`.
    pub fn ranks_with_coord(&self, mode: usize, coord: usize) -> Vec<usize> {
        assert!(mode < self.order(), "mode out of range");
        assert!(coord < self.dims[mode], "grid coordinate out of range");
        (0..self.nprocs())
            .filter(|&r| self.coords_of(r)[mode] == coord)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_coord_roundtrip() {
        let g = ProcessGrid::new(vec![2, 3, 2]);
        assert_eq!(g.nprocs(), 12);
        for r in 0..12 {
            assert_eq!(g.rank_of(&g.coords_of(r)), r);
        }
    }

    #[test]
    fn row_major_layout() {
        let g = ProcessGrid::new(vec![2, 3]);
        assert_eq!(g.coords_of(0), vec![0, 0]);
        assert_eq!(g.coords_of(1), vec![0, 1]);
        assert_eq!(g.coords_of(3), vec![1, 0]);
        assert_eq!(g.coords_of(5), vec![1, 2]);
    }

    #[test]
    fn layers_partition_ranks_into_groups_of_nprocs_over_extent() {
        let g = ProcessGrid::new(vec![2, 4, 1]);
        for (mode, &extent) in g.dims().iter().enumerate() {
            let mut seen = vec![0; g.nprocs()];
            for layer in 0..extent {
                let ranks = g.ranks_with_coord(mode, layer);
                assert_eq!(ranks.len(), 8 / extent, "mode {mode}");
                for r in ranks {
                    assert_eq!(g.coords_of(r)[mode], layer);
                    seen[r] += 1;
                }
            }
            assert!(seen.iter().all(|&n| n == 1), "mode {mode}");
        }
    }

    #[test]
    fn ranks_with_coord_enumerates_a_replica_set() {
        // A [3 shards, 2 replicas] serving grid: worker = shard * 2 + replica.
        let g = ProcessGrid::new(vec![3, 2]);
        assert_eq!(g.ranks_with_coord(0, 0), vec![0, 1]);
        assert_eq!(g.ranks_with_coord(0, 2), vec![4, 5]);
        assert_eq!(g.ranks_with_coord(1, 1), vec![1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_rejected() {
        let _ = ProcessGrid::new(vec![2, 0]);
    }
}
