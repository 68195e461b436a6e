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
    pub(crate) fn order(&self) -> usize {
        self.dims.len()
    }

    /// Total rank count.
    pub(crate) fn nprocs(&self) -> usize {
        self.dims.iter().product()
    }

    /// Grid coordinates of `rank`.
    ///
    /// # Panics
    /// Panics if `rank >= nprocs()`.
    #[cfg(test)]
    pub(crate) fn coords_of(&self, rank: usize) -> Vec<usize> {
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
    pub(crate) fn rank_of(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.order(), "coordinate arity mismatch");
        let mut rank = 0;
        for (&c, &d) in coords.iter().zip(&self.dims) {
            assert!(c < d, "grid coordinate out of range");
            rank = rank * d + c;
        }
        rank
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
    #[should_panic(expected = "positive")]
    fn zero_extent_rejected() {
        let _ = ProcessGrid::new(vec![2, 0]);
    }
}
