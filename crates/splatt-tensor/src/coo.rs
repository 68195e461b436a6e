//! Coordinate-format sparse tensor in SPLATT's memory layout.
//!
//! SPLATT's `sptensor_t` stores an order-`N` tensor as `N` parallel index
//! arrays (`ind[0..N]`, each of length `nnz`) plus one value array — not an
//! array of coordinate tuples. The layout matters: the pre-processing sort
//! permutes each array independently (the "array of arrays" the paper's
//! Section IV-C discusses), and MTTKRP construction walks single-mode index
//! streams. Indices are `u32` (the paper's largest mode is 480 k).

/// Cost evidence from one [`SparseTensor::merge_entries`] call.
///
/// `compare_ops` counts full lexicographic coordinate comparisons (one
/// per compare, however many modes it inspects) spent sorting the delta
/// batch and running the two-way merge — the counter the refresh
/// loopback test uses to assert K incremental merges are asymptotically
/// cheaper than K full [`SparseTensor::coalesce`] re-sorts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// Nonzeros in the canonical base before the merge.
    pub base_nnz: usize,
    /// Delta entries in the batch.
    pub delta_nnz: usize,
    /// Nonzeros after the merge.
    pub out_nnz: usize,
    /// Coordinate comparisons spent on the delta sort plus the merge.
    pub compare_ops: u64,
    /// Whether the base was already canonical (strictly sorted). When
    /// `false` a one-time [`SparseTensor::coalesce`] ran first; its
    /// cost is not included in `compare_ops`.
    pub base_was_canonical: bool,
}

/// A delta batch sorted by coordinate — the sort
/// [`SparseTensor::merge_entries`] runs.
///
/// The entries are ordered by a stable `sort_by`: ties keep batch order,
/// so a cell's deltas accumulate left to right. Where a coordinate's
/// indices — each in the bits its mode's extent needs — and the entry's
/// index fit in 64 bits together, the sort runs over one `u64` per entry
/// (coordinate above index) and compares the coordinate bits in place;
/// else it runs over entry indices and compares the coordinates through
/// them. Either way it sorts one 8-byte item per entry and each
/// comparison has the outcome the entries' `Vec<u32>`s would give, so
/// the comparisons — and [`SortedBatch::compare_ops`] — are those of
/// sorting entry indices by their `Vec`s, in the memory that takes.
#[derive(Debug, Clone)]
struct SortedBatch<'a> {
    entries: &'a [(Vec<u32>, f64)],
    /// Entry indices in sorted order.
    sorted: Vec<usize>,
    /// One past the largest index in each mode (0 when empty).
    extent: Vec<usize>,
    compare_ops: u64,
}

impl<'a> SortedBatch<'a> {
    /// Sort `order`-way `entries` by their coordinates.
    ///
    /// # Panics
    /// Panics if any entry's coordinate arity differs from `order`.
    fn new(entries: &'a [(Vec<u32>, f64)], order: usize) -> Self {
        let mut extent = vec![0usize; order];
        for (coord, _) in entries {
            assert_eq!(coord.len(), order, "delta entry arity mismatch");
            for (e, &c) in extent.iter_mut().zip(coord) {
                *e = (*e).max(c as usize + 1);
            }
        }
        // bits that hold every value below `n`
        let bits = |n: usize| usize::BITS - n.saturating_sub(1).leading_zeros();
        let widths: Vec<u32> = extent.iter().map(|&e| bits(e)).collect();
        let index_bits = bits(entries.len());
        let mut compare_ops: u64 = 0;
        let sorted = if widths.iter().sum::<u32>() + index_bits <= u64::BITS {
            let mut packed: Vec<u64> = entries
                .iter()
                .enumerate()
                .map(|(x, (coord, _))| {
                    let key = coord
                        .iter()
                        .zip(&widths)
                        .fold(0u64, |k, (&c, &w)| (k << w) | u64::from(c));
                    (key << index_bits) | x as u64
                })
                .collect();
            packed.sort_by(|a, b| {
                compare_ops += 1;
                (a >> index_bits).cmp(&(b >> index_bits))
            });
            let index = (1u64 << index_bits) - 1;
            packed.into_iter().map(|p| (p & index) as usize).collect()
        } else {
            let mut sorted: Vec<usize> = (0..entries.len()).collect();
            sorted.sort_by(|&a, &b| {
                compare_ops += 1;
                entries[a].0.cmp(&entries[b].0)
            });
            sorted
        };
        SortedBatch {
            entries,
            sorted,
            extent,
            compare_ops,
        }
    }

    /// Number of entries.
    #[inline]
    fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `i`-th entry in sorted order, as the batch holds it.
    #[inline]
    fn entry(&self, i: usize) -> &'a (Vec<u32>, f64) {
        &self.entries[self.sorted[i]]
    }

    /// The value of the `i`-th entry in sorted order.
    #[inline]
    fn value(&self, i: usize) -> f64 {
        self.entry(i).1
    }

    /// One past the largest index in each mode: the dims the batch needs
    /// (0 everywhere for an empty batch).
    fn extent(&self) -> &[usize] {
        &self.extent
    }

    /// Coordinate comparisons the sort made.
    fn compare_ops(&self) -> u64 {
        self.compare_ops
    }
}

/// An order-`N` sparse tensor in coordinate (COO) format.
///
/// Duplicate coordinates are permitted (their values add, matching the
/// multilinear semantics); [`SparseTensor::coalesce`] merges them.
///
/// ```
/// use splatt_tensor::SparseTensor;
///
/// let mut t = SparseTensor::new(vec![4, 5, 6]);
/// t.push(&[0, 1, 2], 3.5);
/// t.push(&[3, 4, 5], -1.0);
/// assert_eq!(t.nnz(), 2);
/// assert_eq!(t.coord(1), vec![3, 4, 5]);
/// assert!((t.norm_squared() - 13.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTensor {
    dims: Vec<usize>,
    inds: Vec<Vec<u32>>,
    vals: Vec<f64>,
}

impl SparseTensor {
    /// An empty tensor with the given mode dimensions.
    ///
    /// # Panics
    /// Panics if fewer than two modes, or any dimension is 0 or exceeds
    /// `u32::MAX`.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(dims.len() >= 2, "tensors need at least two modes");
        assert!(
            dims.iter().all(|&d| d > 0 && d <= u32::MAX as usize),
            "mode dimensions must be in 1..=u32::MAX"
        );
        let order = dims.len();
        SparseTensor {
            dims,
            inds: vec![Vec::new(); order],
            vals: Vec::new(),
        }
    }

    /// Build from parallel index arrays and values (SPLATT layout).
    ///
    /// # Panics
    /// Panics if array lengths disagree or any index is out of range.
    pub fn from_parts(dims: Vec<usize>, inds: Vec<Vec<u32>>, vals: Vec<f64>) -> Self {
        assert_eq!(inds.len(), dims.len(), "one index array per mode required");
        for (m, ind) in inds.iter().enumerate() {
            assert_eq!(ind.len(), vals.len(), "index array {m} length mismatch");
            assert!(
                ind.iter().all(|&i| (i as usize) < dims[m]),
                "index out of range in mode {m}"
            );
        }
        assert!(dims.len() >= 2, "tensors need at least two modes");
        SparseTensor { dims, inds, vals }
    }

    /// Build from `(coordinate, value)` tuples.
    ///
    /// # Panics
    /// Panics if any coordinate has the wrong arity or is out of range.
    pub fn from_entries(dims: Vec<usize>, entries: &[(Vec<u32>, f64)]) -> Self {
        let mut t = SparseTensor::new(dims);
        for (coord, val) in entries {
            t.push(coord, *val);
        }
        t
    }

    /// Append one nonzero.
    ///
    /// # Panics
    /// Panics if `coord.len() != order` or any index is out of range.
    pub fn push(&mut self, coord: &[u32], val: f64) {
        assert_eq!(coord.len(), self.order(), "coordinate arity mismatch");
        for (m, (&i, &d)) in coord.iter().zip(&self.dims).enumerate() {
            assert!(
                (i as usize) < d,
                "index {i} out of range for mode {m} (dim {d})"
            );
        }
        for (ind, &i) in self.inds.iter_mut().zip(coord) {
            ind.push(i);
        }
        self.vals.push(val);
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Number of stored nonzeros (duplicates counted separately).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Mode dimensions.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Index array of mode `m`.
    #[inline]
    pub fn ind(&self, m: usize) -> &[u32] {
        &self.inds[m]
    }

    /// Values array.
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable access to all index arrays and the value array at once —
    /// what the sort needs to permute everything in lock step.
    pub(crate) fn parts_mut(&mut self) -> (&mut [Vec<u32>], &mut Vec<f64>) {
        (&mut self.inds, &mut self.vals)
    }

    /// The coordinate of nonzero `x` as a fresh vector.
    pub fn coord(&self, x: usize) -> Vec<u32> {
        self.inds.iter().map(|ind| ind[x]).collect()
    }

    /// Fraction of possible positions that hold a stored nonzero.
    pub fn density(&self) -> f64 {
        let cells: f64 = self.dims.iter().map(|&d| d as f64).product();
        self.nnz() as f64 / cells
    }

    /// Squared Frobenius norm `sum(v^2)` — `normX^2` in the CP-ALS fit.
    pub fn norm_squared(&self) -> f64 {
        self.vals.iter().map(|v| v * v).sum()
    }

    /// A copy of this tensor with its modes reordered: mode `m` of the
    /// result is mode `perm[m]` of `self`.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..order`.
    pub fn permute_modes(&self, perm: &[usize]) -> SparseTensor {
        let order = self.order();
        assert_eq!(perm.len(), order, "perm must cover every mode");
        let mut seen = vec![false; order];
        for &m in perm {
            assert!(m < order && !seen[m], "perm must be a permutation of modes");
            seen[m] = true;
        }
        SparseTensor {
            dims: perm.iter().map(|&m| self.dims[m]).collect(),
            inds: perm.iter().map(|&m| self.inds[m].clone()).collect(),
            vals: self.vals.clone(),
        }
    }

    /// Deterministically split the nonzeros into a `(train, test)` pair,
    /// assigning roughly `holdout_fraction` of them to `test` — the
    /// standard preparation for completion experiments.
    ///
    /// # Panics
    /// Panics unless `0.0 <= holdout_fraction <= 1.0`.
    pub fn split_holdout(&self, holdout_fraction: f64, seed: u64) -> (SparseTensor, SparseTensor) {
        assert!(
            (0.0..=1.0).contains(&holdout_fraction),
            "holdout fraction must be in [0, 1]"
        );
        let mut train = SparseTensor::new(self.dims.clone());
        let mut test = SparseTensor::new(self.dims.clone());
        // cheap per-entry hash -> uniform in [0, 1): splitmix64 of (seed, x)
        let uniform = |x: usize| -> f64 {
            let mut z = seed ^ (x as u64).wrapping_mul(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        let mut coord = vec![0u32; self.order()];
        for x in 0..self.nnz() {
            for (c, ind) in coord.iter_mut().zip(&self.inds) {
                *c = ind[x];
            }
            if uniform(x) < holdout_fraction {
                test.push(&coord, self.vals[x]);
            } else {
                train.push(&coord, self.vals[x]);
            }
        }
        (train, test)
    }

    /// Merge a batch of delta entries into this tensor: each
    /// `(coordinate, value)` pair sums into the cell it names — growing
    /// mode dimensions as needed to admit out-of-range coordinates —
    /// and exact cancellations vanish, leaving the result in canonical
    /// (strictly sorted, duplicate-free) lexicographic order. This is
    /// the ingest path for WAL-recovered nnz deltas: deterministic, so
    /// replaying the same acknowledged prefix always yields the same
    /// tensor.
    ///
    /// The merge sorts the batch — O(Δ·log Δ) — and then merges it into
    /// the canonical base in one pass, not a full re-sort of all N + Δ
    /// entries. A non-canonical base
    /// pays a one-time [`SparseTensor::coalesce`] first, and explicit
    /// zeros stored in the base are dropped. Per-cell accumulation is
    /// strictly left-to-right (base value first, then deltas in batch
    /// order), so splitting one batch into several merges the same
    /// prefix to a *bit-identical* tensor even for values with inexact
    /// sums.
    ///
    /// # Panics
    /// Panics if any entry's coordinate arity differs from the tensor
    /// order.
    pub fn merge_entries(&mut self, entries: &[(Vec<u32>, f64)]) -> MergeStats {
        let base_was_canonical = self.is_strictly_sorted();
        if !base_was_canonical {
            self.coalesce();
        }
        let base_nnz = self.nnz();
        // a strictly sorted base may still store explicit zeros
        drop_zeros(&mut self.inds, &mut self.vals);
        let (merged, stats) = self.merged_canonical(entries);
        *self = merged;
        MergeStats {
            base_nnz,
            base_was_canonical,
            ..stats
        }
    }

    /// [`SparseTensor::merge_entries`] past its canonicalization: `self`
    /// is canonical ([`SparseTensor::is_canonical`], checked under
    /// `debug_assert!` only) and only read, the merge goes into a new
    /// tensor.
    ///
    /// The batch is sorted as a [`SortedBatch`]. Each distinct batch
    /// coordinate is then located in the base by a
    /// galloping search from the previous one (probes at distance 1, 2,
    /// 4, … then a bisection: `O(log gap)` comparisons, at most one more
    /// than a linear scan of the gap), and the base entries between two
    /// insertions move as slices, so a sparse batch costs one copy of
    /// the base plus `O(Δ·log(N/Δ))` comparisons.
    ///
    /// # Panics
    /// Panics if any entry's coordinate arity differs from the tensor
    /// order.
    fn merged_canonical(&self, entries: &[(Vec<u32>, f64)]) -> (SparseTensor, MergeStats) {
        debug_assert!(self.is_canonical(), "base must be canonical");
        let order = self.order();
        // Stable sort of the batch by coordinate: ties keep batch order,
        // so duplicate deltas to one cell accumulate left-to-right.
        let batch = SortedBatch::new(entries, order);
        let dims = self
            .dims
            .iter()
            .zip(batch.extent())
            .map(|(&d, &e)| d.max(e))
            .collect();
        let mut compare_ops = batch.compare_ops();
        let n = self.nnz();
        let dn = batch.len();
        let mut inds: Vec<Vec<u32>> = vec![Vec::with_capacity(n + dn); order];
        let mut vals: Vec<f64> = Vec::with_capacity(n + dn);
        let copy_run = |inds: &mut [Vec<u32>], vals: &mut Vec<f64>, run: std::ops::Range<usize>| {
            for (out, base) in inds.iter_mut().zip(&self.inds) {
                out.extend_from_slice(&base[run.clone()]);
            }
            vals.extend_from_slice(&self.vals[run]);
        };
        let (mut bi, mut di) = (0usize, 0usize);
        while di < dn {
            let coord = batch.entry(di).0.as_slice();
            let (at, present) = self.gallop(bi, coord, &mut compare_ops);
            copy_run(&mut inds, &mut vals, bi..at);
            bi = at + usize::from(present);
            let mut acc = if present { self.vals[at] } else { 0.0 };
            acc += batch.value(di);
            di += 1;
            while di < dn && {
                compare_ops += 1;
                batch.entry(di).0 == coord
            } {
                acc += batch.value(di);
                di += 1;
            }
            if acc != 0.0 {
                for (out, &c) in inds.iter_mut().zip(coord) {
                    out.push(c);
                }
                vals.push(acc);
            }
        }
        copy_run(&mut inds, &mut vals, bi..n);
        let stats = MergeStats {
            base_nnz: n,
            delta_nnz: dn,
            out_nnz: vals.len(),
            compare_ops,
            base_was_canonical: true,
        };
        (SparseTensor { dims, inds, vals }, stats)
    }

    /// The first nonzero at or after `from` whose coordinate is not less
    /// than `coord`, and whether it equals `coord`. Requires a sorted
    /// tensor with every nonzero before `from` less than `coord`; each
    /// coordinate comparison adds one to `ops`.
    fn gallop(&self, from: usize, coord: &[u32], ops: &mut u64) -> (usize, bool) {
        use std::cmp::Ordering;
        let mut compare = |x: usize| -> Ordering {
            *ops += 1;
            for (ind, c) in self.inds.iter().zip(coord) {
                match ind[x].cmp(c) {
                    Ordering::Equal => continue,
                    other => return other,
                }
            }
            Ordering::Equal
        };
        let n = self.nnz();
        // nonzeros before `lo` are less than `coord`, those from `hi` on
        // are not; `equal` is what the comparison at `hi` returned
        let (mut lo, mut hi, mut equal) = (from, n, false);
        let (mut probe, mut stride) = (from, 1usize);
        while lo < n {
            let x = probe.min(n - 1);
            match compare(x) {
                Ordering::Less => {
                    lo = x + 1;
                    probe = x + stride;
                    stride *= 2;
                }
                other => {
                    (hi, equal) = (x, other == Ordering::Equal);
                    break;
                }
            }
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match compare(mid) {
                Ordering::Less => lo = mid + 1,
                other => (hi, equal) = (mid, other == Ordering::Equal),
            }
        }
        (lo, equal)
    }

    /// Merge duplicate coordinates by summing their values, dropping exact
    /// zeros produced by cancellation. Ordering of the result is the
    /// lexicographic coordinate order.
    pub fn coalesce(&mut self) {
        let n = self.nnz();
        if n == 0 {
            return;
        }
        let order = self.order();
        let mut perm: Vec<usize> = (0..n).collect();
        perm.sort_unstable_by(|&a, &b| {
            for ind in &self.inds {
                match ind[a].cmp(&ind[b]) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        });
        let mut new_inds: Vec<Vec<u32>> = vec![Vec::with_capacity(n); order];
        let mut new_vals: Vec<f64> = Vec::with_capacity(n);
        for &x in &perm {
            let same_as_last = !new_vals.is_empty()
                && new_inds
                    .iter()
                    .zip(&self.inds)
                    .all(|(ni, oi)| *ni.last().unwrap() == oi[x]);
            if same_as_last {
                *new_vals.last_mut().unwrap() += self.vals[x];
            } else {
                for (ni, oi) in new_inds.iter_mut().zip(&self.inds) {
                    ni.push(oi[x]);
                }
                new_vals.push(self.vals[x]);
            }
        }
        // drop exact-zero entries created by cancellation
        drop_zeros(&mut new_inds, &mut new_vals);
        self.inds = new_inds;
        self.vals = new_vals;
    }

    /// `true` if nonzeros are sorted lexicographically by the mode order
    /// `perm` (e.g. `[1, 0, 2]` = sort by mode 1, ties by mode 0, then 2).
    pub fn is_sorted_by(&self, perm: &[usize]) -> bool {
        (1..self.nnz()).all(|x| {
            for &m in perm {
                match self.inds[m][x - 1].cmp(&self.inds[m][x]) {
                    std::cmp::Ordering::Less => return true,
                    std::cmp::Ordering::Greater => return false,
                    std::cmp::Ordering::Equal => continue,
                }
            }
            true
        })
    }

    /// `true` if nonzeros are *strictly* sorted lexicographically by the
    /// identity mode order — sorted with no duplicate coordinates, the
    /// canonical form [`SparseTensor::coalesce`] produces.
    pub fn is_strictly_sorted(&self) -> bool {
        (1..self.nnz()).all(|x| {
            for ind in &self.inds {
                match ind[x - 1].cmp(&ind[x]) {
                    std::cmp::Ordering::Less => return true,
                    std::cmp::Ordering::Greater => return false,
                    std::cmp::Ordering::Equal => continue,
                }
            }
            false // exact duplicate coordinate
        })
    }

    /// `true` if the tensor is in the form [`SparseTensor::merge_entries`]
    /// leaves it in: strictly sorted, and no stored value is an exact zero.
    pub fn is_canonical(&self) -> bool {
        self.is_strictly_sorted() && self.vals.iter().all(|&v| v != 0.0)
    }

    /// Multiset of `(coordinate, value)` pairs, sorted — for equivalence
    /// checks in tests (sorting must be a permutation of this multiset).
    pub fn canonical_entries(&self) -> Vec<(Vec<u32>, f64)> {
        let mut out: Vec<(Vec<u32>, f64)> = (0..self.nnz())
            .map(|x| (self.coord(x), self.vals[x]))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        out
    }
}

/// Remove every nonzero whose stored value is an exact zero.
fn drop_zeros(inds: &mut [Vec<u32>], vals: &mut Vec<f64>) {
    if vals.iter().all(|&v| v != 0.0) {
        return;
    }
    for ind in inds {
        let mut it = vals.iter();
        ind.retain(|_| *it.next().unwrap() != 0.0);
    }
    vals.retain(|&v| v != 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SparseTensor {
        SparseTensor::from_entries(
            vec![3, 4, 5],
            &[
                (vec![0, 0, 0], 1.0),
                (vec![2, 3, 4], 2.0),
                (vec![1, 2, 3], 3.0),
            ],
        )
    }

    #[test]
    fn construction_basics() {
        let t = small();
        assert_eq!(t.order(), 3);
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.dims(), &[3, 4, 5]);
        assert_eq!(t.ind(0), &[0, 2, 1]);
        assert_eq!(t.vals(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn coord_roundtrip() {
        let t = small();
        assert_eq!(t.coord(1), vec![2, 3, 4]);
    }

    #[test]
    fn density_and_norm() {
        let t = small();
        assert!((t.density() - 3.0 / 60.0).abs() < 1e-15);
        assert!((t.norm_squared() - 14.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_out_of_range_panics() {
        let mut t = SparseTensor::new(vec![2, 2]);
        t.push(&[2, 0], 1.0);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn push_wrong_arity_panics() {
        let mut t = SparseTensor::new(vec![2, 2]);
        t.push(&[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "at least two modes")]
    fn single_mode_rejected() {
        let _ = SparseTensor::new(vec![5]);
    }

    #[test]
    fn from_parts_validates_lengths() {
        let t = SparseTensor::from_parts(vec![2, 2], vec![vec![0, 1], vec![1, 0]], vec![1.0, 2.0]);
        assert_eq!(t.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_parts_rejects_ragged() {
        let _ = SparseTensor::from_parts(vec![2, 2], vec![vec![0], vec![1, 0]], vec![1.0, 2.0]);
    }

    #[test]
    fn coalesce_merges_duplicates() {
        let mut t = SparseTensor::from_entries(
            vec![2, 2],
            &[(vec![0, 1], 1.0), (vec![0, 1], 2.0), (vec![1, 0], 5.0)],
        );
        t.coalesce();
        assert_eq!(t.nnz(), 2);
        assert_eq!(
            t.canonical_entries(),
            vec![(vec![0, 1], 3.0), (vec![1, 0], 5.0)]
        );
    }

    #[test]
    fn coalesce_drops_cancelled_entries() {
        let mut t = SparseTensor::from_entries(
            vec![2, 2],
            &[(vec![0, 0], 1.0), (vec![0, 0], -1.0), (vec![1, 1], 2.0)],
        );
        t.coalesce();
        assert_eq!(t.nnz(), 1);
        assert_eq!(t.canonical_entries(), vec![(vec![1, 1], 2.0)]);
    }

    #[test]
    fn coalesce_empty_is_noop() {
        let mut t = SparseTensor::new(vec![2, 2]);
        t.coalesce();
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    fn merge_entries_sums_updates_and_grows_dims() {
        let mut t = small();
        t.merge_entries(&[
            (vec![0, 0, 0], 0.5),  // update of an existing cell
            (vec![2, 3, 4], -2.0), // exact cancellation
            (vec![4, 1, 1], 9.0),  // out of range: grows mode 0 to 5
        ]);
        assert_eq!(t.dims(), &[5, 4, 5]);
        assert_eq!(
            t.canonical_entries(),
            vec![
                (vec![0, 0, 0], 1.5),
                (vec![1, 2, 3], 3.0),
                (vec![4, 1, 1], 9.0),
            ]
        );
    }

    #[test]
    fn merge_entries_is_deterministic_and_batchable() {
        // One big merge and two staged merges agree entry-for-entry.
        let deltas: Vec<(Vec<u32>, f64)> = (0..40u32)
            .map(|i| (vec![i % 5, i % 4, i % 3], (i as f64) * 0.25 - 3.0))
            .collect();
        let mut whole = small();
        whole.merge_entries(&deltas);
        let mut staged = small();
        staged.merge_entries(&deltas[..17]);
        staged.merge_entries(&deltas[17..]);
        assert_eq!(whole.canonical_entries(), staged.canonical_entries());
        assert_eq!(whole.dims(), staged.dims());
    }

    #[test]
    fn merge_entries_batch_split_is_bit_identical() {
        // Inexact values: 0.1*i sums depend on accumulation order, so
        // this pins the left-to-right (base, then batch order) rule.
        let deltas: Vec<(Vec<u32>, f64)> = (0..60u32)
            .map(|i| (vec![i % 7, i % 5, i % 3], (i as f64) * 0.1 - 2.7))
            .collect();
        let mut whole = small();
        whole.merge_entries(&deltas);
        for split in [1usize, 13, 29, 59] {
            let mut staged = small();
            staged.merge_entries(&deltas[..split]);
            staged.merge_entries(&deltas[split..]);
            assert_eq!(staged.dims(), whole.dims(), "split {split}");
            assert_eq!(staged.nnz(), whole.nnz(), "split {split}");
            for x in 0..whole.nnz() {
                assert_eq!(staged.coord(x), whole.coord(x), "split {split}");
                assert_eq!(
                    staged.vals()[x].to_bits(),
                    whole.vals()[x].to_bits(),
                    "split {split} entry {x} must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn merge_entries_result_is_canonical_and_linear() {
        let mut t = small();
        t.coalesce();
        let stats = t.merge_entries(&[(vec![2, 2, 2], 1.0), (vec![0, 0, 1], 2.0)]);
        assert!(t.is_strictly_sorted(), "merge output must be canonical");
        assert!(stats.base_was_canonical, "coalesced base is canonical");
        assert_eq!(stats.base_nnz, 3);
        assert_eq!(stats.delta_nnz, 2);
        assert_eq!(stats.out_nnz, 5);
        // Linear merge: comparisons bounded by sort (d log d) + merge (n + d).
        assert!(
            stats.compare_ops <= 2 * (3 + 2) + 2 * 4,
            "compare_ops {} not linear-ish",
            stats.compare_ops
        );
        // A second merge into the now-canonical output skips coalesce.
        let stats2 = t.merge_entries(&[(vec![1, 1, 1], 1.0)]);
        assert!(stats2.base_was_canonical);
    }

    /// `merge_entries` as it was before the galloping kernel: sort the
    /// batch, then one comparison per step of a two-way merge that pushes
    /// every nonzero on its own. The oracle of the property below.
    fn merge_entries_plain(t: &mut SparseTensor, entries: &[(Vec<u32>, f64)]) -> MergeStats {
        use std::cmp::Ordering;
        let order = t.order();
        for (coord, _) in entries {
            assert_eq!(coord.len(), order, "delta entry arity mismatch");
            for (d, &i) in t.dims.iter_mut().zip(coord) {
                *d = (*d).max(i as usize + 1);
            }
        }
        let base_was_canonical = t.is_strictly_sorted();
        if !base_was_canonical {
            t.coalesce();
        }
        let mut compare_ops: u64 = 0;
        // Stable sort of the batch by coordinate: ties keep batch order,
        // so duplicate deltas to one cell accumulate left-to-right.
        let mut dperm: Vec<usize> = (0..entries.len()).collect();
        dperm.sort_by(|&a, &b| {
            compare_ops += 1;
            entries[a].0.cmp(&entries[b].0)
        });
        let n = t.nnz();
        let dn = entries.len();
        let mut new_inds: Vec<Vec<u32>> = vec![Vec::with_capacity(n + dn); order];
        let mut new_vals: Vec<f64> = Vec::with_capacity(n + dn);
        let cmp_base_delta = |inds: &[Vec<u32>], x: usize, coord: &[u32]| -> Ordering {
            for (ind, &c) in inds.iter().zip(coord) {
                match ind[x].cmp(&c) {
                    Ordering::Equal => continue,
                    other => return other,
                }
            }
            Ordering::Equal
        };
        let (mut bi, mut di) = (0usize, 0usize);
        while bi < n || di < dn {
            let rel = if bi == n {
                Ordering::Greater
            } else if di == dn {
                Ordering::Less
            } else {
                compare_ops += 1;
                cmp_base_delta(&t.inds, bi, &entries[dperm[di]].0)
            };
            if rel == Ordering::Less {
                let v = t.vals[bi];
                if v != 0.0 {
                    for (ni, oi) in new_inds.iter_mut().zip(&t.inds) {
                        ni.push(oi[bi]);
                    }
                    new_vals.push(v);
                }
                bi += 1;
            } else {
                let coord = entries[dperm[di]].0.as_slice();
                let mut acc = if rel == Ordering::Equal {
                    let v = t.vals[bi];
                    bi += 1;
                    v
                } else {
                    0.0
                };
                acc += entries[dperm[di]].1;
                di += 1;
                while di < dn && {
                    compare_ops += 1;
                    entries[dperm[di]].0 == coord
                } {
                    acc += entries[dperm[di]].1;
                    di += 1;
                }
                if acc != 0.0 {
                    for (ni, &c) in new_inds.iter_mut().zip(coord) {
                        ni.push(c);
                    }
                    new_vals.push(acc);
                }
            }
        }
        t.inds = new_inds;
        t.vals = new_vals;
        MergeStats {
            base_nnz: n,
            delta_nnz: dn,
            out_nnz: t.vals.len(),
            compare_ops,
            base_was_canonical,
        }
    }

    fn bits(t: &SparseTensor) -> (&[usize], &[Vec<u32>], Vec<u64>) {
        let vals = t.vals.iter().map(|v| v.to_bits()).collect();
        (&t.dims, &t.inds, vals)
    }

    #[test]
    fn galloping_merge_matches_the_plain_loop() {
        use splatt_rt::qc;
        // small inexact values and their negatives, so cells cancel to
        // exactly 0.0 and inexact sums depend on accumulation order
        const VALUES: [f64; 7] = [0.1, -0.1, 0.7, -0.7, 2.5, -0.0, 1e-3];
        qc::check("merge_entries == plain two-way merge", 400, |g| {
            let order = g.usize_in(2..6);
            let dims: Vec<usize> = (0..order).map(|_| g.usize_in(1..5)).collect();
            let cells: usize = dims.iter().product();
            // where the batch lies relative to the base: 0 before it,
            // 1 after it, 2 interleaved (and possibly past its dims)
            let layout = g.usize_in(0..3);
            let lead = dims[0] as u32;
            let coord = |g: &mut qc::Gen, band: u32, grow: u32| -> Vec<u32> {
                let mut c: Vec<u32> = dims.iter().map(|&d| g.range(0..d as u32 + grow)).collect();
                c[0] += band * lead;
                c
            };
            let mut base = SparseTensor::new(dims.iter().map(|&d| d * 3).collect());
            for _ in 0..[0, 1, cells / 2, cells * 2][g.usize_in(0..4)] {
                let c = coord(g, u32::from(layout != 1), 0);
                base.push(&c, *g.choose(&VALUES));
            }
            match g.usize_in(0..3) {
                0 => {} // duplicates, unsorted: the coalesce path
                1 => base.coalesce(),
                _ => {
                    // strictly sorted, with explicit zeros stored
                    base.coalesce();
                    for v in base.vals.iter_mut().step_by(3) {
                        *v = 0.0;
                    }
                }
            }
            let band = [0, 2, 1][layout];
            let grow = u32::from(layout == 2) * 2;
            let delta: Vec<(Vec<u32>, f64)> = (0..[0, 1, 3, cells, cells * 3][g.usize_in(0..5)])
                .map(|_| (coord(g, band, grow), *g.choose(&VALUES)))
                .collect();

            let (mut fast, mut plain) = (base.clone(), base);
            let stats = fast.merge_entries(&delta);
            let expect = merge_entries_plain(&mut plain, &delta);
            assert_eq!(bits(&fast), bits(&plain));
            assert!(fast.is_canonical());
            assert_eq!(
                MergeStats {
                    compare_ops: 0,
                    ..stats
                },
                MergeStats {
                    compare_ops: 0,
                    ..expect
                }
            );
            // A search that skips pays at most one comparison more than
            // the scan it replaces (when the answer is the first nonzero
            // it skipped), so no search-based merge is below the plain
            // loop on every input; per located coordinate is the bound.
            let located = delta
                .iter()
                .map(|(c, _)| c)
                .collect::<std::collections::BTreeSet<_>>();
            assert!(
                stats.compare_ops <= expect.compare_ops + located.len() as u64,
                "{} comparisons against the plain loop's {}",
                stats.compare_ops,
                expect.compare_ops
            );
            if layout != 2 {
                assert!(stats.compare_ops <= expect.compare_ops);
            }
        });
    }

    #[test]
    fn the_flat_sort_compares_like_the_entry_sort() {
        use splatt_rt::qc;
        qc::check("SortedBatch == stable sort of the entries", 64, |g| {
            let order = g.usize_in(2..6);
            // 32-bit indices at two positions do not pack into 64 bits;
            // batches past the sort's small-input thresholds too
            let wide = g.bool();
            let small = g.usize_in(0..60);
            let len = *g.choose(&[small, 700, 3000]);
            let entries: Vec<(Vec<u32>, f64)> = (0..len)
                .map(|i| {
                    let coord = (0..order).map(|_| match wide {
                        true => *g.choose(&[0, 1, 2, u32::MAX]),
                        false => g.range(0..5u32),
                    });
                    (coord.collect(), i as f64)
                })
                .collect();
            let batch = SortedBatch::new(&entries, order);
            // the sort the merge ran before: an index vector ordered by
            // comparing the entries' own `Vec`s
            let mut ops = 0u64;
            let mut expect: Vec<usize> = (0..entries.len()).collect();
            expect.sort_by(|&a, &b| {
                ops += 1;
                entries[a].0.cmp(&entries[b].0)
            });
            assert_eq!(batch.compare_ops(), ops);
            assert_eq!(batch.len(), expect.len());
            for (i, &x) in expect.iter().enumerate() {
                assert_eq!(batch.entry(i), &entries[x]);
            }
            for m in 0..order {
                let most = entries.iter().map(|(c, _)| c[m] as usize + 1).max();
                assert_eq!(batch.extent()[m], most.unwrap_or(0));
            }
        });
    }

    #[test]
    fn a_sparse_batch_costs_logarithmic_comparisons() {
        // 4096 nonzeros, 8 deltas spread through them: the plain loop
        // compares its way past every base nonzero, the search does not
        let mut base = SparseTensor::new(vec![64, 64]);
        for i in 0..64u32 {
            for j in 0..64u32 {
                base.push(&[i, j], 1.0);
            }
        }
        let delta: Vec<(Vec<u32>, f64)> = (0..8u32).map(|k| (vec![k * 8 + 3, 17], 0.5)).collect();
        let mut plain = base.clone();
        let stats = base.merge_entries(&delta);
        let expect = merge_entries_plain(&mut plain, &delta);
        assert_eq!(bits(&base), bits(&plain));
        assert!(expect.compare_ops > 3_500, "{}", expect.compare_ops);
        assert!(
            stats.compare_ops < 8 * (2 * 12 + 4),
            "{}",
            stats.compare_ops
        );
    }

    #[test]
    fn merge_entries_canonicalizes_unsorted_base_once() {
        let mut t = SparseTensor::from_entries(
            vec![3, 3],
            &[(vec![2, 2], 1.0), (vec![0, 0], 2.0), (vec![2, 2], 0.5)],
        );
        let stats = t.merge_entries(&[(vec![1, 1], 4.0)]);
        assert!(!stats.base_was_canonical);
        assert_eq!(stats.base_nnz, 2, "base coalesced before the merge");
        assert_eq!(
            t.canonical_entries(),
            vec![(vec![0, 0], 2.0), (vec![1, 1], 4.0), (vec![2, 2], 1.5),]
        );
        assert!(t.is_strictly_sorted());
    }

    #[test]
    fn is_strictly_sorted_rejects_duplicates() {
        let sorted = small(); // entries of small() are not sorted
        assert!(!sorted.is_strictly_sorted());
        let mut c = small();
        c.coalesce();
        assert!(c.is_strictly_sorted());
        let dup = SparseTensor::from_entries(vec![2, 2], &[(vec![0, 1], 1.0), (vec![0, 1], 2.0)]);
        assert!(!dup.is_strictly_sorted(), "exact duplicates are not strict");
    }

    #[test]
    fn is_sorted_by_detects_order() {
        let t = SparseTensor::from_entries(
            vec![3, 3],
            &[(vec![0, 2], 1.0), (vec![1, 1], 1.0), (vec![2, 0], 1.0)],
        );
        assert!(t.is_sorted_by(&[0, 1]));
        assert!(!t.is_sorted_by(&[1, 0]));
    }

    #[test]
    fn is_sorted_handles_ties() {
        let t = SparseTensor::from_entries(vec![3, 3], &[(vec![1, 0], 1.0), (vec![1, 2], 1.0)]);
        assert!(t.is_sorted_by(&[0, 1]));
        assert!(t.is_sorted_by(&[0])); // prefix order with ties allowed
    }

    #[test]
    fn canonical_entries_is_order_invariant() {
        let a = SparseTensor::from_entries(vec![2, 2], &[(vec![0, 1], 1.0), (vec![1, 0], 2.0)]);
        let b = SparseTensor::from_entries(vec![2, 2], &[(vec![1, 0], 2.0), (vec![0, 1], 1.0)]);
        assert_eq!(a.canonical_entries(), b.canonical_entries());
    }

    #[test]
    fn permute_modes_relabels_coordinates() {
        let t = small();
        let p = t.permute_modes(&[2, 0, 1]);
        assert_eq!(p.dims(), &[5, 3, 4]);
        // entry (1, 2, 3) in `t` becomes (3, 1, 2)
        assert!(p.canonical_entries().contains(&(vec![3, 1, 2], 3.0)));
        assert_eq!(p.nnz(), t.nnz());
    }

    #[test]
    fn permute_modes_identity_is_noop() {
        let t = small();
        assert_eq!(t.permute_modes(&[0, 1, 2]), t);
    }

    #[test]
    fn permute_then_inverse_roundtrips() {
        let t = small();
        let p = t.permute_modes(&[1, 2, 0]);
        // inverse of [1,2,0] is [2,0,1]
        assert_eq!(p.permute_modes(&[2, 0, 1]), t);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn permute_rejects_bad_perm() {
        let _ = small().permute_modes(&[0, 0, 1]);
    }

    #[test]
    fn split_holdout_partitions_entries() {
        let mut t = SparseTensor::new(vec![50, 50]);
        for i in 0..50u32 {
            for j in 0..20u32 {
                t.push(&[i, j], (i + j) as f64);
            }
        }
        let (train, test) = t.split_holdout(0.25, 7);
        assert_eq!(train.nnz() + test.nnz(), t.nnz());
        // fraction is approximate but must be in the right ballpark
        let frac = test.nnz() as f64 / t.nnz() as f64;
        assert!((0.15..0.35).contains(&frac), "holdout fraction {frac}");
        // union of entries equals the original multiset
        let mut all = train.canonical_entries();
        all.extend(test.canonical_entries());
        all.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        assert_eq!(all, t.canonical_entries());
    }

    #[test]
    fn split_holdout_is_deterministic() {
        let t = SparseTensor::from_entries(
            vec![4, 4],
            &[(vec![0, 1], 1.0), (vec![1, 2], 2.0), (vec![2, 3], 3.0)],
        );
        let (a1, b1) = t.split_holdout(0.5, 3);
        let (a2, b2) = t.split_holdout(0.5, 3);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn split_holdout_extremes() {
        let t = small();
        let (train, test) = t.split_holdout(0.0, 1);
        assert_eq!(train.nnz(), t.nnz());
        assert_eq!(test.nnz(), 0);
        let (train, test) = t.split_holdout(1.0, 1);
        assert_eq!(train.nnz(), 0);
        assert_eq!(test.nnz(), t.nnz());
    }

    #[test]
    fn four_mode_tensor_supported() {
        let t = SparseTensor::from_entries(
            vec![2, 3, 4, 5],
            &[(vec![1, 2, 3, 4], 7.0), (vec![0, 0, 0, 0], 1.0)],
        );
        assert_eq!(t.order(), 4);
        assert_eq!(t.coord(0), vec![1, 2, 3, 4]);
    }
}
