//! Consistent-hash sharding of mode-0 factor rows, and the worker grid
//! that places replicas.
//!
//! A [`ShardRing`] hashes every shard onto `VNODES` points of a `u64`
//! ring (SplitMix64 over `(seed, shard, vnode)`); a mode-0 index is
//! owned by the first shard point at or after its own hash, wrapping.
//! Ownership is therefore a pure function of `(nshards, seed, index)` —
//! the router and every worker rebuild identical rings from the
//! [`ShardSel`](crate::protocol::ShardSel) carried on the wire, so no
//! ownership table ever crosses the network.
//!
//! A [`ShardMap`] lays `nshards * nreplicas` workers on a
//! `[nshards, nreplicas]` [`ProcessGrid`] — the same row-major grid math
//! the medium-grained decomposition uses to place ranks — so shard `s`'s
//! replica set is exactly the grid's mode-0 layer `s`.

use splatt_dist::ProcessGrid;

/// Virtual points per shard on the hash ring. More points smooth the
/// row balance across shards; 64 keeps worst-case skew low while the
/// ring (nshards * 64 points) stays small enough to rebuild per query.
pub const VNODES: usize = 64;

/// Most shards a ring may have. A worker rebuilds the ring from the
/// `nshards` a request carries, so the count is a wire input: the bound
/// keeps the largest ring at `MAX_SHARDS * VNODES` 16-byte points
/// (1 MiB) where an unchecked `u32` could ask for terabytes. The engine
/// refuses a larger [`ShardSel`](crate::protocol::ShardSel) typed; a
/// router configured past it fails at construction.
pub const MAX_SHARDS: u32 = 1024;

/// SplitMix64 finalizer: a cheap, well-mixed `u64 -> u64` hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Consistent-hash ring over mode-0 indices; see the module docs.
#[derive(Debug, Clone)]
pub struct ShardRing {
    nshards: usize,
    seed: u64,
    /// `(ring point, shard)`, sorted by point (shard breaks the
    /// astronomically-unlikely point tie deterministically).
    points: Vec<(u64, u32)>,
}

impl ShardRing {
    /// Build the ring for `nshards` shards under `seed`.
    ///
    /// # Panics
    /// Panics when `nshards` is zero or exceeds [`MAX_SHARDS`].
    pub fn new(nshards: usize, seed: u64) -> Self {
        assert!(nshards > 0, "ring needs at least one shard");
        assert!(
            nshards <= MAX_SHARDS as usize,
            "{nshards} shards exceed the limit of {MAX_SHARDS}"
        );
        let mut points = Vec::with_capacity(nshards * VNODES);
        for shard in 0..nshards as u64 {
            let base = splitmix64(seed ^ splitmix64(shard));
            for vnode in 0..VNODES as u64 {
                points.push((splitmix64(base ^ vnode), shard as u32));
            }
        }
        points.sort_unstable();
        ShardRing {
            nshards,
            seed,
            points,
        }
    }

    /// Number of shards on the ring.
    pub fn nshards(&self) -> usize {
        self.nshards
    }

    /// The seed the ring was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard owning mode-0 index `index`.
    pub fn shard_of(&self, index: u32) -> u32 {
        // A different salt than the vnode hash, so index positions do
        // not correlate with shard points.
        let h = splitmix64(self.seed ^ 0xd1b5_4a32_d192_ed03 ^ u64::from(index));
        let at = self.points.partition_point(|&(p, _)| p < h);
        self.points[at % self.points.len()].1
    }

    /// Every mode-0 index in `0..dim` owned by `shard`, ascending.
    pub fn owned_rows(&self, shard: u32, dim: usize) -> Vec<u32> {
        (0..dim as u32)
            .filter(|&i| self.shard_of(i) == shard)
            .collect()
    }
}

/// Placement of `nshards * nreplicas` workers on a `[nshards,
/// nreplicas]` process grid: worker rank `shard * nreplicas + replica`.
#[derive(Debug, Clone)]
pub struct ShardMap {
    grid: ProcessGrid,
}

impl ShardMap {
    /// A map for `nshards` shards each served by `nreplicas` workers.
    ///
    /// # Panics
    /// Panics when either count is zero.
    pub fn new(nshards: usize, nreplicas: usize) -> Self {
        ShardMap {
            grid: ProcessGrid::new(vec![nshards, nreplicas]),
        }
    }

    /// Shard count (grid extent 0).
    pub fn nshards(&self) -> usize {
        self.grid.dims()[0]
    }

    /// Replicas per shard (grid extent 1).
    pub fn nreplicas(&self) -> usize {
        self.grid.dims()[1]
    }

    /// Total worker count.
    pub fn nworkers(&self) -> usize {
        self.grid.nprocs()
    }

    /// The worker ranks replicating `shard`, ascending.
    pub fn replicas(&self, shard: usize) -> Vec<usize> {
        self.grid.ranks_with_coord(0, shard)
    }

    /// The shard worker `rank` serves.
    pub fn shard_of_worker(&self, rank: usize) -> usize {
        self.grid.coords_of(rank)[0]
    }

    /// Worker `rank`'s replica index within its shard.
    pub fn replica_of_worker(&self, rank: usize) -> usize {
        self.grid.coords_of(rank)[1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_partitions_every_index() {
        let ring = ShardRing::new(3, 42);
        let dim = 500;
        let mut owned = [0usize; 3];
        for shard in 0..3 {
            let rows = ring.owned_rows(shard, dim);
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            for &r in &rows {
                assert_eq!(ring.shard_of(r), shard);
            }
            owned[shard as usize] = rows.len();
        }
        assert_eq!(owned.iter().sum::<usize>(), dim, "partition covers 0..dim");
        // Vnodes keep the split from degenerating: no shard is empty and
        // none holds more than 2/3 of the rows.
        for (shard, &n) in owned.iter().enumerate() {
            assert!(n > 0, "shard {shard} owns nothing");
            assert!(n < dim * 2 / 3, "shard {shard} owns {n}/{dim}");
        }
    }

    #[test]
    fn ring_is_deterministic_in_its_seed() {
        let a = ShardRing::new(4, 7);
        let b = ShardRing::new(4, 7);
        let c = ShardRing::new(4, 8);
        let mut moved = 0;
        for i in 0..300 {
            assert_eq!(a.shard_of(i), b.shard_of(i));
            moved += usize::from(a.shard_of(i) != c.shard_of(i));
        }
        assert!(moved > 0, "a different seed must reshuffle ownership");
    }

    #[test]
    fn growing_the_ring_moves_only_some_rows() {
        // The consistent-hashing property: adding a shard relocates a
        // fraction of the rows, never reshuffles everything.
        let small = ShardRing::new(3, 42);
        let big = ShardRing::new(4, 42);
        let dim = 600u32;
        let moved = (0..dim)
            .filter(|&i| small.shard_of(i) != big.shard_of(i))
            .count();
        assert!(moved > 0, "the new shard must take some rows");
        assert!(
            moved < dim as usize / 2,
            "only a minority may move, got {moved}/{dim}"
        );
        // Rows that moved all landed on the new shard.
        for i in 0..dim {
            if small.shard_of(i) != big.shard_of(i) {
                assert_eq!(big.shard_of(i), 3, "row {i} moved to an old shard");
            }
        }
    }

    #[test]
    fn shard_map_places_replica_sets_on_grid_layers() {
        let map = ShardMap::new(3, 2);
        assert_eq!(map.nworkers(), 6);
        assert_eq!(map.replicas(0), vec![0, 1]);
        assert_eq!(map.replicas(2), vec![4, 5]);
        for rank in 0..6 {
            assert_eq!(map.shard_of_worker(rank), rank / 2);
            assert_eq!(map.replica_of_worker(rank), rank % 2);
            assert!(map.replicas(map.shard_of_worker(rank)).contains(&rank));
        }
    }
}
