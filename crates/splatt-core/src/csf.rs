//! Compressed Sparse Fiber (CSF) storage (Smith & Karypis, IA³ 2015).
//!
//! CSF generalizes CSR to tensors: nonzeros sorted by a mode permutation
//! form a tree whose level-`l` nodes are the distinct index prefixes of
//! length `l + 1`. Each level stores the node ids (`fids`) and a pointer
//! array (`fptr`) into the next level; the leaves carry the values. SPLATT
//! can allocate one, two, or one-per-mode CSF representations of the same
//! tensor ([`CsfAlloc`]), trading memory for lock-free MTTKRP kernels —
//! the trade at the center of the paper's YELP-vs-NELL-2 behaviour.

use splatt_par::TaskTeam;
use splatt_tensor::{sort, SortVariant, SortedBatch, SparseTensor};
use std::ops::Range;

/// How many CSF representations to allocate (SPLATT's `SPLATT_CSF_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CsfAlloc {
    /// One representation rooted at the shortest mode. MTTKRPs for the
    /// other modes use the internal/leaf kernels (locks or privatization).
    One,
    /// Two representations: one rooted at the shortest mode, one at the
    /// longest. SPLATT's default — the middle mode still needs the
    /// internal kernel.
    #[default]
    Two,
    /// One representation per mode: every MTTKRP is a lock-free root-mode
    /// kernel, at `order` times the memory.
    All,
}

/// Which MTTKRP kernel a (CSF, mode) pairing requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Output mode is the CSF root: slice-parallel, no synchronization.
    Root,
    /// Output mode is an interior level (depth carried).
    Internal(usize),
    /// Output mode is the leaf level.
    Leaf,
}

/// One CSF representation of a sparse tensor, stored as flat slabs.
///
/// All levels share two contiguous arrays (`fptr`, `fids`) addressed
/// through level-offset tables, instead of one heap `Vec` per level: the
/// tree walk in the MTTKRP then streams through two slabs with no pointer
/// chasing between levels, and construction sizes both slabs exactly with
/// a two-pass count-then-fill build (no `push` growth in the hot path) —
/// the linearized-storage layout SPLATT's own CSF uses.
#[derive(Debug, Clone)]
pub struct Csf {
    /// `dim_perm[level]` = original mode stored at that tree level.
    dim_perm: Vec<usize>,
    /// Original mode dimensions (unpermuted).
    dims: Vec<usize>,
    /// Flat child-pointer slab for levels `0..order-1`, concatenated.
    /// Level `l` occupies `fptr[fptr_off[l]..fptr_off[l+1]]` and holds
    /// `nfibers(l) + 1` entries; `fptr(l)[f]..fptr(l)[f+1]` are the
    /// children of fiber `f` (indices into level `l+1`, or into `vals`
    /// for `l = order - 2`).
    fptr: Vec<usize>,
    /// Level offsets into `fptr` (`order` entries: `order - 1` levels
    /// plus the terminating end offset).
    fptr_off: Vec<usize>,
    /// Flat fiber-id slab for levels `0..order`, concatenated. Level `l`
    /// occupies `fids[fids_off[l]..fids_off[l+1]]`; each entry is the
    /// original index (in mode `dim_perm[l]`) of that fiber.
    fids: Vec<u32>,
    /// Level offsets into `fids` (`order + 1` entries).
    fids_off: Vec<usize>,
    /// Nonzero values, in sorted order.
    vals: Vec<f64>,
    /// Nonzeros under each root slice — the weights for task partitioning.
    slice_nnz: Vec<usize>,
}

/// The tree level at which nonzero `x` opens a new fiber: the first level
/// whose index (or any shallower one) differs from nonzero `x - 1`.
/// Nonzero 0 opens every level, and the leaf level opens for *every*
/// nonzero — duplicate coordinates each keep their own leaf.
#[inline]
fn open_level(streams: &[&[u32]], x: usize, nlevels: usize) -> usize {
    if x == 0 {
        return 0;
    }
    let changed = streams
        .iter()
        .position(|s| s[x] != s[x - 1])
        .unwrap_or(nlevels);
    changed.min(nlevels - 1)
}

impl Csf {
    /// Build a CSF from `tensor`, rooted at mode `dim_perm[0]` with tree
    /// levels following `dim_perm`. The tensor is copied and sorted with
    /// `variant` on `team` (the paper's "Sort" routine runs here).
    ///
    /// # Panics
    /// Panics if `dim_perm` is not a permutation of the tensor's modes.
    pub fn build(
        tensor: &SparseTensor,
        dim_perm: &[usize],
        team: &TaskTeam,
        variant: SortVariant,
    ) -> Self {
        let mut sorted = tensor.clone();
        sort::sort_by_perm(&mut sorted, dim_perm, team, variant);
        Self::from_sorted(&sorted, dim_perm)
    }

    /// [`Csf::build`] under run governance: the sort polls `guard`
    /// between buckets. A cancelled build returns a structurally valid
    /// but unusable CSF; the caller's next guard check aborts before it
    /// is consumed.
    pub fn build_guarded(
        tensor: &SparseTensor,
        dim_perm: &[usize],
        team: &TaskTeam,
        variant: SortVariant,
        guard: Option<&splatt_guard::RunGuard>,
    ) -> Self {
        let mut sorted = tensor.clone();
        sort::sort_by_perm_guarded(&mut sorted, dim_perm, team, variant, guard);
        // A cancelled sort may leave the buffer partially ordered; fall
        // back to a canonical sort only when the data is actually usable
        // (i.e. not cancelled), otherwise skip the (now pointless) walk.
        if guard.is_some_and(|g| g.is_cancelled()) && !sorted.is_sorted_by(dim_perm) {
            // Produce an empty-but-valid CSF; the run is aborting.
            let empty = SparseTensor::new(tensor.dims().to_vec());
            return Self::from_sorted(&empty, dim_perm);
        }
        Self::from_sorted(&sorted, dim_perm)
    }

    /// Build from a tensor already sorted by `dim_perm`.
    ///
    /// Two-pass construction: pass 1 counts the fibers each level will
    /// hold, both slabs are then sized exactly, and pass 2 fills them
    /// through per-level write cursors — no reallocation, no per-level
    /// heap vectors.
    pub(crate) fn from_sorted(sorted: &SparseTensor, dim_perm: &[usize]) -> Self {
        debug_assert!(sorted.is_sorted_by(dim_perm), "tensor must be pre-sorted");
        // index streams in level order
        let streams: Vec<&[u32]> = dim_perm.iter().map(|&m| sorted.ind(m)).collect();
        let nlevels = dim_perm.len();

        // Pass 1: count the fibers opened at each level.
        let mut nfib = vec![0usize; nlevels];
        for x in 0..sorted.nnz() {
            for count in nfib[open_level(&streams, x, nlevels)..].iter_mut() {
                *count += 1;
            }
        }

        // Size the slabs exactly: every `fptr` level carries one closing
        // entry beyond its fiber count.
        let mut fids_off = Vec::with_capacity(nlevels + 1);
        fids_off.push(0);
        for &n in &nfib {
            fids_off.push(fids_off.last().unwrap() + n);
        }
        let mut fptr_off = Vec::with_capacity(nlevels);
        fptr_off.push(0);
        for &n in &nfib[..nlevels - 1] {
            fptr_off.push(fptr_off.last().unwrap() + n + 1);
        }
        let mut fids = vec![0u32; *fids_off.last().unwrap()];
        let mut fptr = vec![0usize; *fptr_off.last().unwrap()];

        // Pass 2: fill through per-level cursors. When fiber `f` opens at
        // level `l`, its child pointer is the count of level-`l+1` fibers
        // opened so far (for the deepest interior level that count equals
        // `x`, the leaves consumed — every nonzero is its own leaf).
        let mut cursor = vec![0usize; nlevels];
        for x in 0..sorted.nnz() {
            for l in open_level(&streams, x, nlevels)..nlevels {
                if l < nlevels - 1 {
                    fptr[fptr_off[l] + cursor[l]] = cursor[l + 1];
                }
                fids[fids_off[l] + cursor[l]] = streams[l][x];
                cursor[l] += 1;
            }
        }
        // close every pointer array
        for l in 0..nlevels - 1 {
            fptr[fptr_off[l] + cursor[l]] = cursor[l + 1];
        }

        let mut csf = Csf {
            dim_perm: dim_perm.to_vec(),
            dims: sorted.dims().to_vec(),
            fptr,
            fptr_off,
            fids,
            fids_off,
            vals: sorted.vals().to_vec(),
            slice_nnz: Vec::new(),
        };
        csf.slice_nnz = csf.leaves_per_slice();
        csf
    }

    /// Per-slice nonzero counts for weighted partitioning. Subtrees are
    /// contiguous at every level, so slice `s` owns the leaf range
    /// between the first-child chains of slices `s` and `s + 1`.
    fn leaves_per_slice(&self) -> Vec<usize> {
        let leaf_start =
            |s: usize| -> usize { (0..self.order() - 1).fold(s, |f, l| self.fptr(l)[f]) };
        let mut prev = leaf_start(0);
        (1..=self.nfibers(0))
            .map(|s| {
                let next = leaf_start(s);
                let n = next - prev;
                prev = next;
                n
            })
            .collect()
    }

    /// The CSF [`Csf::build`] builds from this tree's tensor with
    /// `delta` merged in by [`SparseTensor::merged_canonical`], read off
    /// this tree and the delta alone — no tensor, no sort of its
    /// nonzeros. `self` must hold a canonical tensor (distinct
    /// coordinates, no stored zeros), as the CSFs of the refresh
    /// engine's tensor do.
    ///
    /// The delta is permuted into the tree's level order and sorted
    /// stably ([`SortedBatch`]), then merged into the old tree level by
    /// level. Sibling fibers the delta does not touch are appended with
    /// their subtrees as one run per level (`fids` and `vals` verbatim,
    /// `fptr` shifted by one offset); a prefix the tree lacks becomes a
    /// new fiber; a cell accumulates as the tensor merge does — its old
    /// value or `0.0`, then each delta in batch order — and is dropped
    /// when that is exactly zero, as is every fiber left without
    /// children, up to the root. Dims grow to admit the delta.
    pub fn merged(&self, delta: &[(Vec<u32>, f64)]) -> Csf {
        let batch = SortedBatch::new(delta, &self.dim_perm);
        let mut dims = self.dims.clone();
        for (&m, &e) in self.dim_perm.iter().zip(batch.extent()) {
            dims[m] = dims[m].max(e);
        }
        let order = self.order();
        // each delta entry opens at most one fiber per level
        let room = |l: usize| self.nfibers(l) + batch.len() + 1;
        let mut merge = TreeMerge {
            base: self,
            batch: &batch,
            fids: (0..order).map(|l| Vec::with_capacity(room(l))).collect(),
            fptr: (0..order - 1)
                .map(|l| Vec::with_capacity(room(l)))
                .collect(),
            vals: Vec::with_capacity(room(order - 1)),
        };
        merge.level(0, 0..self.nfibers(0), 0..batch.len());

        // Close every pointer level, then lay the levels end to end.
        let TreeMerge {
            mut fptr,
            fids,
            vals,
            ..
        } = merge;
        for (l, ptrs) in fptr.iter_mut().enumerate() {
            ptrs.push(fids[l + 1].len());
        }
        let offsets = |lens: Vec<usize>| -> Vec<usize> {
            let ends = lens.into_iter().scan(0, |end, n| {
                *end += n;
                Some(*end)
            });
            std::iter::once(0).chain(ends).collect()
        };
        let mut out = Csf {
            dim_perm: self.dim_perm.clone(),
            dims,
            fptr_off: offsets(fptr.iter().map(Vec::len).collect()),
            fptr: fptr.concat(),
            fids_off: offsets(fids.iter().map(Vec::len).collect()),
            fids: fids.concat(),
            vals,
            slice_nnz: Vec::new(),
        };
        out.slice_nnz = out.leaves_per_slice();
        out
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Original mode dimensions.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Mode permutation: `dim_perm()[l]` is the original mode at level `l`.
    #[inline]
    pub fn dim_perm(&self) -> &[usize] {
        &self.dim_perm
    }

    /// The tree level holding original mode `m`.
    pub fn level_of_mode(&self, m: usize) -> usize {
        self.dim_perm
            .iter()
            .position(|&p| p == m)
            .expect("mode not present in this CSF")
    }

    /// Number of fibers at `level`.
    #[inline]
    pub fn nfibers(&self, level: usize) -> usize {
        self.fids_off[level + 1] - self.fids_off[level]
    }

    /// Fiber ids at `level`.
    #[inline]
    pub fn fids(&self, level: usize) -> &[u32] {
        &self.fids[self.fids_off[level]..self.fids_off[level + 1]]
    }

    /// Child-pointer array of `level` (`nfibers(level) + 1` entries);
    /// `fptr(l)[f]..fptr(l)[f+1]` are fiber `f`'s children. Kernels hoist
    /// this slice out of their fiber loops so the inner walk indexes one
    /// contiguous slab.
    #[inline]
    pub fn fptr(&self, level: usize) -> &[usize] {
        &self.fptr[self.fptr_off[level]..self.fptr_off[level + 1]]
    }

    /// Child range of fiber `f` at `level` (children live at `level + 1`,
    /// or in [`Csf::vals`] when `level == order - 2`).
    #[inline]
    pub fn children(&self, level: usize, f: usize) -> std::ops::Range<usize> {
        let base = self.fptr_off[level];
        self.fptr[base + f]..self.fptr[base + f + 1]
    }

    /// Nonzero values in tree order.
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Nonzeros under each root slice.
    #[inline]
    pub fn slice_nnz(&self) -> &[usize] {
        &self.slice_nnz
    }

    /// Mean nonzeros per lowest-level fiber (level `order - 2`): the
    /// length of the leaf gather. `0.0` for an empty tensor.
    pub fn nnz_per_fiber(&self) -> f64 {
        let nfibers = self.nfibers(self.order() - 2);
        if nfibers == 0 {
            0.0
        } else {
            self.nnz() as f64 / nfibers as f64
        }
    }

    /// Bytes held by this representation: the flat `fptr`/`fids` slabs,
    /// both level-offset tables, the values, and the per-slice nonzero
    /// weights. This is the figure a `--mem-budget` decision trips on, so
    /// every owned array is counted at its true element width.
    pub fn storage_bytes(&self) -> usize {
        use std::mem::size_of;
        self.fptr.len() * size_of::<usize>()
            + self.fptr_off.len() * size_of::<usize>()
            + self.fids.len() * size_of::<u32>()
            + self.fids_off.len() * size_of::<usize>()
            + self.vals.len() * size_of::<f64>()
            + self.slice_nnz.len() * size_of::<usize>()
    }

    /// Rebuild the coordinate tensor (for round-trip tests).
    pub fn to_coo(&self) -> SparseTensor {
        let order = self.order();
        let nnz = self.nnz();
        let mut inds: Vec<Vec<u32>> = vec![vec![0; nnz]; order];
        // walk the tree, filling index streams in level order
        fn walk(
            csf: &Csf,
            level: usize,
            fiber: usize,
            prefix: &mut Vec<u32>,
            inds: &mut [Vec<u32>],
        ) {
            prefix.push(csf.fids(level)[fiber]);
            if level == csf.order() - 2 {
                for x in csf.children(level, fiber) {
                    for (l, &id) in prefix.iter().enumerate() {
                        inds[csf.dim_perm[l]][x] = id;
                    }
                    inds[csf.dim_perm[csf.order() - 1]][x] = csf.fids(csf.order() - 1)[x];
                }
            } else {
                for c in csf.children(level, fiber) {
                    walk(csf, level + 1, c, prefix, inds);
                }
            }
            prefix.pop();
        }
        let mut prefix = Vec::with_capacity(order);
        for s in 0..self.nfibers(0) {
            walk(self, 0, s, &mut prefix, &mut inds);
        }
        SparseTensor::from_parts(self.dims.clone(), inds, self.vals.clone())
    }
}

/// The walk of [`Csf::merged`]: the old tree and the sorted delta in
/// step, the merged tree appended level by level.
struct TreeMerge<'a> {
    base: &'a Csf,
    batch: &'a SortedBatch<'a>,
    /// Per level, the fiber ids written so far (leaf ids at the last).
    fids: Vec<Vec<u32>>,
    /// Per level but the last, each written fiber's first child.
    fptr: Vec<Vec<usize>>,
    vals: Vec<f64>,
}

impl TreeMerge<'_> {
    /// Merge the base fibers `fibers` of `level` — siblings under one
    /// parent, or the roots — with the delta entries `ds`, which share
    /// their first `level` indices with that parent.
    fn level(&mut self, level: usize, fibers: Range<usize>, ds: Range<usize>) {
        let (base, batch) = (self.base, self.batch);
        let ids = base.fids(level);
        let leaf = level + 1 == base.order();
        let (mut f, mut d) = (fibers.start, ds.start);
        while d < ds.end {
            let id = batch.index(d, level);
            let ties = (d..ds.end).take_while(|&e| batch.index(e, level) == id);
            let group = d..d + ties.count();
            let at = f + ids[f..fibers.end].partition_point(|&x| x < id);
            self.copy(level, f..at);
            let present = at < fibers.end && ids[at] == id;
            if leaf {
                let old = if present { base.vals[at] } else { 0.0 };
                let acc = group.clone().fold(old, |acc, e| acc + batch.value(e));
                if acc != 0.0 {
                    self.fids[level].push(id);
                    self.vals.push(acc);
                }
            } else {
                let first_child = self.fids[level + 1].len();
                let children = if present {
                    base.children(level, at)
                } else {
                    0..0
                };
                self.level(level + 1, children, group.clone());
                if self.fids[level + 1].len() > first_child {
                    self.fids[level].push(id);
                    self.fptr[level].push(first_child);
                }
            }
            f = at + usize::from(present);
            d = group.end;
        }
        self.copy(level, f..fibers.end);
    }

    /// Append the base fibers `fibers` of `level` with their subtrees:
    /// one contiguous run per level below.
    fn copy(&mut self, level: usize, fibers: Range<usize>) {
        let base = self.base;
        let Range {
            start: mut lo,
            end: mut hi,
        } = fibers;
        for l in level..base.order() {
            if lo == hi {
                return;
            }
            self.fids[l].extend_from_slice(&base.fids(l)[lo..hi]);
            if l + 1 == base.order() {
                self.vals.extend_from_slice(&base.vals[lo..hi]);
                return;
            }
            // the run's children land where the next level stands
            let ptrs = &base.fptr(l)[lo..=hi];
            let (from, to) = (ptrs[0], self.fids[l + 1].len());
            self.fptr[l].extend(ptrs[..hi - lo].iter().map(|&p| p - from + to));
            (lo, hi) = (ptrs[0], ptrs[hi - lo]);
        }
    }
}

/// Independent reference construction for validating the flat-slab build.
///
/// This is the pre-refactor push-per-nonzero nested-`Vec` algorithm kept
/// verbatim as a structural oracle: property and regression tests build
/// a [`nested::NestedCsf`] alongside a [`Csf`] from the same sorted tensor
/// and assert level-by-level equality.
#[cfg(test)]
pub(crate) mod nested {
    use super::open_level;
    use splatt_par::TaskTeam;
    use splatt_tensor::{sort, SortVariant, SparseTensor};

    /// The original per-level `Vec<Vec>` CSF layout.
    pub struct NestedCsf {
        pub fptr: Vec<Vec<usize>>,
        pub fids: Vec<Vec<u32>>,
        pub vals: Vec<f64>,
        pub slice_nnz: Vec<usize>,
    }

    /// Mirror of [`super::Csf::build`] using the nested construction.
    pub fn build(
        tensor: &SparseTensor,
        dim_perm: &[usize],
        team: &TaskTeam,
        variant: SortVariant,
    ) -> NestedCsf {
        let mut sorted = tensor.clone();
        sort::sort_by_perm(&mut sorted, dim_perm, team, variant);
        from_sorted(&sorted, dim_perm)
    }

    /// The pre-refactor single-pass push-growth build.
    pub fn from_sorted(sorted: &SparseTensor, dim_perm: &[usize]) -> NestedCsf {
        let nlevels = sorted.order();
        let nnz = sorted.nnz();
        let mut fptr: Vec<Vec<usize>> = vec![Vec::new(); nlevels - 1];
        let mut fids: Vec<Vec<u32>> = vec![Vec::new(); nlevels];
        let streams: Vec<&[u32]> = dim_perm.iter().map(|&m| sorted.ind(m)).collect();
        for x in 0..nnz {
            for l in open_level(&streams, x, nlevels)..nlevels {
                if l < nlevels - 1 {
                    let child_count = if l + 1 < nlevels - 1 {
                        fids[l + 1].len()
                    } else {
                        x // leaves opened so far == nonzeros consumed
                    };
                    fptr[l].push(child_count);
                }
                fids[l].push(streams[l][x]);
            }
        }
        for l in 0..nlevels - 1 {
            let end = if l + 1 < nlevels - 1 {
                fids[l + 1].len()
            } else {
                nnz
            };
            fptr[l].push(end);
        }
        let nslices = fids[0].len();
        let slice_nnz = (0..nslices)
            .map(|s| subtree_nnz(&fptr, s, 0, nlevels))
            .collect();
        NestedCsf {
            fptr,
            fids,
            vals: sorted.vals().to_vec(),
            slice_nnz,
        }
    }

    fn subtree_nnz(fptr: &[Vec<usize>], fiber: usize, level: usize, nlevels: usize) -> usize {
        if level == nlevels - 2 {
            fptr[level][fiber + 1] - fptr[level][fiber]
        } else {
            (fptr[level][fiber]..fptr[level][fiber + 1])
                .map(|c| subtree_nnz(fptr, c, level + 1, nlevels))
                .sum()
        }
    }

    /// Assert a flat-slab [`super::Csf`] is structurally identical to the
    /// nested oracle, level by level.
    ///
    /// # Panics
    /// Panics (with the diverging level named) on any mismatch.
    pub fn assert_equivalent(flat: &super::Csf, oracle: &NestedCsf) {
        let nlevels = flat.order();
        for l in 0..nlevels {
            assert_eq!(
                flat.fids(l),
                oracle.fids[l].as_slice(),
                "fids diverge at level {l}"
            );
        }
        for l in 0..nlevels - 1 {
            assert_eq!(
                flat.fptr(l),
                oracle.fptr[l].as_slice(),
                "fptr diverge at level {l}"
            );
        }
        assert_eq!(flat.vals(), oracle.vals.as_slice(), "values diverge");
        assert_eq!(
            flat.slice_nnz(),
            oracle.slice_nnz.as_slice(),
            "slice_nnz diverge"
        );
    }
}

/// A set of CSF representations plus the policy that chose them.
#[derive(Debug, Clone)]
pub struct CsfSet {
    csfs: Vec<Csf>,
    alloc: CsfAlloc,
}

/// Mode permutation rooted at `root` with the remaining modes ordered by
/// ascending dimension (SPLATT sorts shorter modes toward the root to
/// shrink upper tree levels).
fn perm_rooted_at(dims: &[usize], root: usize) -> Vec<usize> {
    let mut rest: Vec<usize> = (0..dims.len()).filter(|&m| m != root).collect();
    rest.sort_by_key(|&m| (dims[m], m));
    let mut perm = Vec::with_capacity(dims.len());
    perm.push(root);
    perm.extend(rest);
    perm
}

impl CsfSet {
    /// Build the representations dictated by `alloc`, attributing the
    /// sorting phase (and only it) to the `Sort` timer — the paper's
    /// "Sort" column times the nonzero sort, not CSF assembly.
    pub fn build_timed(
        tensor: &SparseTensor,
        alloc: CsfAlloc,
        team: &TaskTeam,
        variant: SortVariant,
        timers: &splatt_par::TimerRegistry,
    ) -> Self {
        Self::build_timed_guarded(tensor, alloc, team, variant, timers, None)
    }

    /// [`CsfSet::build_timed`] under run governance: the sorting phase
    /// polls `guard` so a cancelled run stops building representations
    /// early instead of finishing a multi-second preprocessing pass.
    pub fn build_timed_guarded(
        tensor: &SparseTensor,
        alloc: CsfAlloc,
        team: &TaskTeam,
        variant: SortVariant,
        timers: &splatt_par::TimerRegistry,
        guard: Option<&splatt_guard::RunGuard>,
    ) -> Self {
        let dims = tensor.dims();
        let csfs = Self::level_orders(dims, alloc)
            .iter()
            .map(|perm| {
                let mut sorted = tensor.clone();
                timers.time(splatt_par::Routine::Sort, || {
                    sort::sort_by_perm_guarded(&mut sorted, perm, team, variant, guard)
                });
                if guard.is_some_and(|g| g.is_cancelled()) && !sorted.is_sorted_by(perm) {
                    let empty = SparseTensor::new(dims.to_vec());
                    Csf::from_sorted(&empty, perm)
                } else {
                    Csf::from_sorted(&sorted, perm)
                }
            })
            .collect();
        CsfSet { csfs, alloc }
    }

    /// The level order (`dim_perm`) of each representation `alloc`
    /// dictates for a tensor with these dims, in the set's order.
    pub fn level_orders(dims: &[usize], alloc: CsfAlloc) -> Vec<Vec<usize>> {
        Self::roots_for(dims, alloc)
            .iter()
            .map(|&root| perm_rooted_at(dims, root))
            .collect()
    }

    /// The set [`CsfSet::build`] gives `tensor` under `alloc`, where
    /// `tensor` is the canonical tensor `resident` was built from with
    /// `delta` merged in ([`SparseTensor::merged_canonical`]). Each
    /// representation whose level order `resident` holds is merged from
    /// it ([`Csf::merged`]); the others — no resident set yet, or dims
    /// growth that re-ordered a tree's levels — are built by sorting
    /// `tensor`. Also returns how many were merged. `resident` is only
    /// read.
    pub fn merged(
        resident: Option<&CsfSet>,
        tensor: &SparseTensor,
        delta: &[(Vec<u32>, f64)],
        alloc: CsfAlloc,
        team: &TaskTeam,
        variant: SortVariant,
    ) -> (Self, usize) {
        let mut merged = 0;
        let csfs = Self::level_orders(tensor.dims(), alloc)
            .iter()
            .map(|perm| {
                let old = resident.and_then(|set| set.csfs.iter().find(|c| c.dim_perm == *perm));
                match old {
                    Some(old) => {
                        merged += 1;
                        old.merged(delta)
                    }
                    None => Csf::build(tensor, perm, team, variant),
                }
            })
            .collect();
        (CsfSet { csfs, alloc }, merged)
    }

    /// The root modes `alloc` dictates for a tensor with these dims.
    fn roots_for(dims: &[usize], alloc: CsfAlloc) -> Vec<usize> {
        let order = dims.len();
        let by_dim = |m: &usize| (dims[*m], *m);
        let shortest = (0..order).min_by_key(by_dim).unwrap();
        let longest = (0..order).max_by_key(by_dim).unwrap();
        match alloc {
            CsfAlloc::One => vec![shortest],
            CsfAlloc::Two => {
                if shortest == longest {
                    vec![shortest]
                } else {
                    vec![shortest, longest]
                }
            }
            CsfAlloc::All => (0..order).collect(),
        }
    }

    /// Build the representations dictated by `alloc`.
    pub fn build(
        tensor: &SparseTensor,
        alloc: CsfAlloc,
        team: &TaskTeam,
        variant: SortVariant,
    ) -> Self {
        let untimed = splatt_par::TimerRegistry::new();
        Self::build_timed_guarded(tensor, alloc, team, variant, &untimed, None)
    }

    /// The allocation policy used.
    pub fn alloc(&self) -> CsfAlloc {
        self.alloc
    }

    /// All representations.
    pub fn csfs(&self) -> &[Csf] {
        &self.csfs
    }

    /// Pick the representation and kernel for an MTTKRP on `mode`
    /// (SPLATT's `csf_mode_to_use`, plus one measured rule): a root
    /// pairing if one exists; else, when `mode` is the leaf of a *later*
    /// representation, the leaf kernel there unless the first
    /// representation's fibers are dense ([`DENSE_FIBER_NNZ`]) — then, as
    /// whenever no root or leaf pairing exists, the internal kernel on
    /// the first representation.
    pub fn for_mode(&self, mode: usize) -> (&Csf, KernelKind) {
        if let Some(c) = self.csfs.iter().find(|c| c.dim_perm()[0] == mode) {
            return (c, KernelKind::Root);
        }
        let first = &self.csfs[0];
        if let Some(i) = self
            .csfs
            .iter()
            .position(|c| *c.dim_perm().last().unwrap() == mode)
        {
            // `mode` as the leaf of the first representation has no
            // internal alternative there
            if i == 0 || first.nnz_per_fiber() < DENSE_FIBER_NNZ {
                return (&self.csfs[i], KernelKind::Leaf);
            }
        }
        (first, KernelKind::Internal(first.level_of_mode(mode)))
    }
}

/// Mean nonzeros per lowest-level fiber of the first representation at
/// and above which [`CsfSet::for_mode`] routes a mode to the internal
/// kernel there instead of the leaf kernel on a later representation.
///
/// The internal kernel gathers a fiber's nonzeros into a register
/// accumulator and writes one output row per fiber; the leaf kernel
/// writes one output row per nonzero. With long fibers the gather wins
/// (NELL-2-shaped bench tensor, 17.8 nnz/fiber: 24 vs 40 ms at rank 35);
/// with fibers of about one nonzero the internal kernel pays the extra
/// tree level for nothing (YELP-shaped, 1.04: 67-75 vs 35 ms). The sweep
/// in EXPERIMENTS.md ("Kernel routing") has the leaf kernel ahead at 1
/// and 2 nonzeros per fiber, the two level at 4, and the internal kernel
/// ahead from 8 up; the constant sits at that crossover, a factor of 4
/// away from both bench shapes.
pub const DENSE_FIBER_NNZ: f64 = 4.3;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use splatt_rt::qc;
    use splatt_tensor::synth;

    fn team() -> TaskTeam {
        TaskTeam::new(2)
    }

    fn tiny() -> SparseTensor {
        SparseTensor::from_entries(
            vec![3, 4, 5],
            &[
                (vec![0, 0, 0], 1.0),
                (vec![0, 0, 2], 2.0),
                (vec![0, 1, 0], 3.0),
                (vec![2, 3, 4], 4.0),
                (vec![2, 3, 1], 5.0),
            ],
        )
    }

    #[test]
    fn tiny_structure_is_correct() {
        let csf = Csf::build(&tiny(), &[0, 1, 2], &team(), SortVariant::AllOpts);
        // slices present: 0 and 2
        assert_eq!(csf.nfibers(0), 2);
        assert_eq!(csf.fids(0), &[0, 2]);
        // fibers: (0,0), (0,1), (2,3)
        assert_eq!(csf.nfibers(1), 3);
        assert_eq!(csf.fids(1), &[0, 1, 3]);
        // slice 0 has fibers 0..2, slice 2 has fiber 2..3
        assert_eq!(csf.children(0, 0), 0..2);
        assert_eq!(csf.children(0, 1), 2..3);
        // fiber (0,0) has leaves 0..2 with ids 0,2
        assert_eq!(csf.children(1, 0), 0..2);
        assert_eq!(&csf.fids(2)[0..2], &[0, 2]);
        // values sorted: (0,0,0)=1, (0,0,2)=2, (0,1,0)=3, (2,3,1)=5, (2,3,4)=4
        assert_eq!(csf.vals(), &[1.0, 2.0, 3.0, 5.0, 4.0]);
        assert_eq!(csf.slice_nnz(), &[3, 2]);
    }

    #[test]
    fn coo_roundtrip_random() {
        let t = synth::power_law(&[20, 30, 25], 3_000, 1.8, 5);
        for root in 0..3 {
            let perm = perm_rooted_at(t.dims(), root);
            let csf = Csf::build(&t, &perm, &team(), SortVariant::AllOpts);
            assert_eq!(csf.nnz(), t.nnz());
            let back = csf.to_coo();
            assert_eq!(back.canonical_entries(), t.canonical_entries());
        }
    }

    #[test]
    fn coo_roundtrip_four_modes() {
        let t = synth::random_uniform(&[8, 6, 10, 7], 1_500, 9);
        let csf = Csf::build(
            &t,
            &perm_rooted_at(t.dims(), 2),
            &team(),
            SortVariant::AllOpts,
        );
        assert_eq!(csf.order(), 4);
        assert_eq!(csf.to_coo().canonical_entries(), t.canonical_entries());
    }

    #[test]
    fn slice_nnz_sums_to_total() {
        let t = synth::power_law(&[15, 10, 12], 800, 2.0, 3);
        let csf = Csf::build(&t, &[1, 0, 2], &team(), SortVariant::AllOpts);
        assert_eq!(csf.slice_nnz().iter().sum::<usize>(), t.nnz());
    }

    #[test]
    fn single_nonzero_tensor() {
        let t = SparseTensor::from_entries(vec![5, 5, 5], &[(vec![3, 1, 4], 2.5)]);
        let csf = Csf::build(&t, &[0, 1, 2], &team(), SortVariant::AllOpts);
        assert_eq!(csf.nfibers(0), 1);
        assert_eq!(csf.nfibers(1), 1);
        assert_eq!(csf.vals(), &[2.5]);
        assert_eq!(csf.to_coo().canonical_entries(), t.canonical_entries());
    }

    #[test]
    fn empty_tensor_builds_empty_csf() {
        let t = SparseTensor::new(vec![4, 4, 4]);
        let csf = Csf::build(&t, &[0, 1, 2], &team(), SortVariant::AllOpts);
        assert_eq!(csf.nnz(), 0);
        assert_eq!(csf.nfibers(0), 0);
    }

    #[test]
    fn level_of_mode_inverts_perm() {
        let t = tiny();
        let csf = Csf::build(&t, &[2, 0, 1], &team(), SortVariant::AllOpts);
        assert_eq!(csf.level_of_mode(2), 0);
        assert_eq!(csf.level_of_mode(0), 1);
        assert_eq!(csf.level_of_mode(1), 2);
    }

    #[test]
    fn perm_rooted_orders_rest_by_dim() {
        assert_eq!(perm_rooted_at(&[40, 10, 70], 2), vec![2, 1, 0]);
        assert_eq!(perm_rooted_at(&[40, 10, 70], 1), vec![1, 0, 2]);
    }

    #[test]
    fn alloc_one_uses_shortest_root() {
        let t = synth::random_uniform(&[40, 10, 70], 500, 1);
        let set = CsfSet::build(&t, CsfAlloc::One, &team(), SortVariant::AllOpts);
        assert_eq!(set.csfs().len(), 1);
        assert_eq!(set.csfs()[0].dim_perm()[0], 1); // dim 10 is shortest
    }

    #[test]
    fn alloc_two_roots_shortest_and_longest() {
        let t = synth::random_uniform(&[40, 10, 70], 500, 1);
        let set = CsfSet::build(&t, CsfAlloc::Two, &team(), SortVariant::AllOpts);
        assert_eq!(set.csfs().len(), 2);
        assert_eq!(set.csfs()[0].dim_perm()[0], 1);
        assert_eq!(set.csfs()[1].dim_perm()[0], 2); // dim 70 is longest
    }

    #[test]
    fn alloc_all_gives_root_kernel_for_every_mode() {
        let t = synth::random_uniform(&[20, 10, 30], 500, 1);
        let set = CsfSet::build(&t, CsfAlloc::All, &team(), SortVariant::AllOpts);
        assert_eq!(set.csfs().len(), 3);
        for mode in 0..3 {
            let (_, kind) = set.for_mode(mode);
            assert_eq!(kind, KernelKind::Root, "mode {mode}");
        }
    }

    #[test]
    fn alloc_two_kernel_selection() {
        // dims: mode1 shortest (root of csf0, perm [1, 0, 2]), mode2
        // longest (root of csf1, perm [2, 1, 0]); the middle mode 0 is
        // internal at depth 1 of csf0 and the leaf of csf1 — which of
        // the two runs it is decided by csf0's fiber density.
        let sparse = synth::random_uniform(&[40, 10, 70], 500, 1);
        let dense = synth::random_uniform(&[40, 10, 70], 5_000, 1);
        for t in [&sparse, &dense] {
            let set = CsfSet::build(t, CsfAlloc::Two, &team(), SortVariant::AllOpts);
            assert_eq!(set.for_mode(1).1, KernelKind::Root);
            assert_eq!(set.for_mode(2).1, KernelKind::Root);
        }

        // ~1.7 nonzeros per (mode1, mode0) fiber: leaf kernel on csf1
        let set = CsfSet::build(&sparse, CsfAlloc::Two, &team(), SortVariant::AllOpts);
        assert!(set.csfs()[0].nnz_per_fiber() < DENSE_FIBER_NNZ / 2.0);
        let (csf, kind) = set.for_mode(0);
        assert_eq!(kind, KernelKind::Leaf);
        assert_eq!(csf.dim_perm(), &[2, 1, 0]);

        // ~12.5 nonzeros per fiber: internal (gather) kernel on csf0
        let set = CsfSet::build(&dense, CsfAlloc::Two, &team(), SortVariant::AllOpts);
        assert!(set.csfs()[0].nnz_per_fiber() > DENSE_FIBER_NNZ * 2.0);
        let (csf, kind) = set.for_mode(0);
        assert_eq!(kind, KernelKind::Internal(1));
        assert_eq!(csf.dim_perm(), &[1, 0, 2]);
    }

    #[test]
    fn alloc_one_kernel_selection_internal() {
        // one representation: the density rule has nothing to choose
        // between, dense or not — the leaf of csf0 stays the leaf kernel
        for nnz in [500, 5_000] {
            let t = synth::random_uniform(&[40, 10, 70], nnz, 1);
            let set = CsfSet::build(&t, CsfAlloc::One, &team(), SortVariant::AllOpts);
            // csf perm [1, 0, 2]: mode 0 internal at depth 1, mode 2 leaf
            assert_eq!(set.for_mode(0).1, KernelKind::Internal(1));
            assert_eq!(set.for_mode(2).1, KernelKind::Leaf);
        }
    }

    #[test]
    fn storage_bytes_is_positive_and_sane() {
        let t = synth::random_uniform(&[20, 20, 20], 1_000, 2);
        let csf = Csf::build(&t, &[0, 1, 2], &team(), SortVariant::AllOpts);
        let bytes = csf.storage_bytes();
        assert!(bytes >= t.nnz() * 8, "must at least hold the values");
        assert!(bytes < t.nnz() * 50, "index overhead looks wrong: {bytes}");
    }

    #[test]
    fn storage_bytes_matches_slab_footprint() {
        use std::mem::size_of;
        let t = synth::power_law(&[30, 22, 26], 2_000, 1.7, 8);
        for root in 0..3 {
            let csf = Csf::build(
                &t,
                &perm_rooted_at(t.dims(), root),
                &team(),
                SortVariant::AllOpts,
            );
            let order = csf.order();
            // recompute every owned array's length through the public API
            let fids_len: usize = (0..order).map(|l| csf.fids(l).len()).sum();
            let fptr_len: usize = (0..order - 1).map(|l| csf.fptr(l).len()).sum();
            let expect = fptr_len * size_of::<usize>()
                + order * size_of::<usize>()               // fptr_off
                + fids_len * size_of::<u32>()
                + (order + 1) * size_of::<usize>()         // fids_off
                + csf.nnz() * size_of::<f64>()
                + std::mem::size_of_val(csf.slice_nnz());
            assert_eq!(csf.storage_bytes(), expect, "root {root}");
        }
    }

    #[test]
    fn flat_build_matches_nested_oracle() {
        for (order_dims, nnz, seed) in [
            (vec![20, 30, 25], 3_000, 5u64),
            (vec![8, 6, 10, 7], 1_500, 9),
            (vec![4, 5, 3, 6, 4], 900, 13),
        ] {
            let t = synth::random_uniform(&order_dims, nnz, seed);
            for root in 0..t.order() {
                let perm = perm_rooted_at(t.dims(), root);
                let flat = Csf::build(&t, &perm, &team(), SortVariant::AllOpts);
                let oracle = nested::build(&t, &perm, &team(), SortVariant::AllOpts);
                nested::assert_equivalent(&flat, &oracle);
            }
        }
    }

    /// The flat-slab CSF must agree with the pre-refactor nested-`Vec`
    /// construction level by level, and round-trip back to COO, for every
    /// allocation policy, orders 3 through 5, including empty and singleton
    /// tensors and tensors with duplicate coordinates.
    #[test]
    fn flat_csf_matches_nested_oracle_and_roundtrips() {
        qc::check("flat csf vs nested oracle", 48, |g| {
            let order = g.usize_in(3..6);
            // dims 1..=8 per mode, duplicates allowed, ~1 case in 5
            // empty or a singleton
            let dims: Vec<usize> = (0..order).map(|_| g.usize_in(1..9)).collect();
            let nnz = match g.usize_in(0..10) {
                0 => 0,
                1 => 1,
                _ => g.usize_in(2..150),
            };
            let mut t = SparseTensor::new(dims.clone());
            for _ in 0..nnz {
                let coord: Vec<u32> = dims.iter().map(|&d| g.usize_in(0..d) as u32).collect();
                t.push(&coord, g.f64_in(-5.0, 5.0));
            }
            let team = TaskTeam::new(g.usize_in(1..4));
            for alloc in [CsfAlloc::One, CsfAlloc::Two, CsfAlloc::All] {
                let set = CsfSet::build(&t, alloc, &team, SortVariant::AllOpts);
                for csf in set.csfs() {
                    let oracle = nested::build(&t, csf.dim_perm(), &team, SortVariant::AllOpts);
                    nested::assert_equivalent(csf, &oracle);
                    assert_eq!(csf.nnz(), t.nnz());
                    if t.nnz() > 0 {
                        assert_eq!(csf.to_coo().canonical_entries(), t.canonical_entries());
                    }
                }
            }
        });
    }

    /// Field-for-field equality, values by `to_bits`.
    pub(crate) fn assert_same(got: &Csf, want: &Csf) {
        assert_eq!((&got.dim_perm, &got.dims), (&want.dim_perm, &want.dims));
        assert_eq!(
            (&got.fptr_off, &got.fids_off),
            (&want.fptr_off, &want.fids_off)
        );
        assert_eq!(got.fids, want.fids, "fids of {:?}", got.dim_perm);
        assert_eq!(got.fptr, want.fptr, "fptr of {:?}", got.dim_perm);
        let bits = |c: &Csf| c.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "vals of {:?}", got.dim_perm);
        assert_eq!(
            got.slice_nnz, want.slice_nnz,
            "slice_nnz of {:?}",
            got.dim_perm
        );
    }

    /// `Csf::merged` against a rebuild from the merged tensor, on every
    /// tree `CsfAlloc::{One, Two, All}` would hold: orders 2–5; empty
    /// bases and empty deltas; duplicates inside the delta; cancellations
    /// that empty a leaf, a fiber, a root slice or the whole tensor; a
    /// cancelled cell re-created later in the batch; `-0.0` into absent
    /// and present cells; dims growth; deltas wholly before, wholly after
    /// or interleaved with the base.
    #[test]
    fn merged_csf_equals_a_rebuild_of_the_merged_tensor() {
        use std::cell::Cell;
        // small inexact values and their negatives: cells cancel to
        // exactly 0.0, and sums depend on the order they are added in
        const VALUES: [f64; 7] = [0.1, -0.1, 0.7, -0.7, 2.5, -0.0, 1e-3];
        let (cases, reverse_caught) = (Cell::new(0u32), Cell::new(0u32));
        qc::check("Csf::merged == Csf::from_sorted(merged tensor)", 300, |g| {
            let order = g.usize_in(2..6);
            let dims: Vec<usize> = (0..order).map(|_| g.usize_in(1..5)).collect();
            let cells: usize = dims.iter().product();
            // where the batch lies relative to the base in mode 0 — band 0
            // before it, 2 after it, 1 among it and past its dims
            let layout = g.usize_in(0..3);
            let coord = |g: &mut qc::Gen, band: u32, grow: u32| -> Vec<u32> {
                let mut c: Vec<u32> = dims.iter().map(|&d| g.range(0..d as u32 + grow)).collect();
                c[0] += band * dims[0] as u32;
                c
            };
            let mut base_dims = dims.clone();
            base_dims[0] *= 2;
            let mut base = SparseTensor::new(base_dims);
            let drawn: Vec<(Vec<u32>, f64)> = (0..[0, 1, cells / 2, cells * 2][g.usize_in(0..4)])
                .map(|_| (coord(g, u32::from(layout != 1), 0), *g.choose(&VALUES)))
                .collect();
            base.merge_entries(&drawn);
            let (band, grow) = ([0, 2, 1][layout], u32::from(layout == 2) * 2);
            let mut delta: Vec<(Vec<u32>, f64)> = (0..[0, 1, 3, cells, cells * 3]
                [g.usize_in(0..5)])
                .map(|_| (coord(g, band, grow), *g.choose(&VALUES)))
                .collect();

            // Cancel the base nonzeros that agree with a drawn one on the
            // modes in `agree`: all of them (a leaf), all but one (a
            // fiber of the trees with that leaf mode), one (a root slice
            // of the tree rooted there) or none (the whole tensor). The
            // cut goes in at a drawn place, maybe followed by a
            // re-creation of one of its cells.
            if base.nnz() > 0 && g.bool() {
                let pick = base.coord(g.usize_in(0..base.nnz()));
                let agree: Vec<usize> = match g.usize_in(0..4) {
                    0 => (0..order).collect(),
                    1 => {
                        let free = g.usize_in(0..order);
                        (0..order).filter(|&m| m != free).collect()
                    }
                    2 => vec![g.usize_in(0..order)],
                    _ => Vec::new(),
                };
                let mut cut: Vec<(Vec<u32>, f64)> = (0..base.nnz())
                    .filter(|&x| agree.iter().all(|&m| base.ind(m)[x] == pick[m]))
                    .map(|x| (base.coord(x), -base.vals()[x]))
                    .collect();
                if g.bool() {
                    cut.push((pick, *g.choose(&VALUES)));
                }
                let at = g.usize_in(0..delta.len() + 1);
                delta.splice(at..at, cut);
            }

            let merged = base.merged_canonical(&delta).0;
            let team = TaskTeam::new(1);
            let build =
                |t: &SparseTensor, perm: &[usize]| Csf::build(t, perm, &team, SortVariant::AllOpts);
            let reversed: Vec<_> = delta.iter().rev().cloned().collect();
            let mut caught = false;
            for alloc in [CsfAlloc::One, CsfAlloc::Two, CsfAlloc::All] {
                for perm in CsfSet::level_orders(base.dims(), alloc) {
                    let old = build(&base, &perm);
                    let got = old.merged(&delta);
                    assert_same(&got, &build(&merged, &perm));
                    let oracle = nested::build(&merged, &perm, &team, SortVariant::AllOpts);
                    nested::assert_equivalent(&got, &oracle);
                    // adding each cell's deltas in reverse batch order
                    let bits = |c: &Csf| c.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    caught |= bits(&old.merged(&reversed)) != bits(&got);
                }
                // the set: merged where the level order held, built where not
                let resident = CsfSet::build(&base, alloc, &team, SortVariant::AllOpts);
                let (set, n) = CsfSet::merged(
                    Some(&resident),
                    &merged,
                    &delta,
                    alloc,
                    &team,
                    SortVariant::AllOpts,
                );
                let want = CsfSet::build(&merged, alloc, &team, SortVariant::AllOpts);
                assert_eq!(set.csfs().len(), want.csfs().len());
                for (got, want) in set.csfs().iter().zip(want.csfs()) {
                    assert_same(got, want);
                }
                let kept = CsfSet::level_orders(merged.dims(), alloc)
                    .iter()
                    .filter(|p| CsfSet::level_orders(base.dims(), alloc).contains(p))
                    .count();
                assert_eq!(n, kept);
            }
            cases.set(cases.get() + 1);
            reverse_caught.set(reverse_caught.get() + u32::from(caught));
        });
        // the property tells batch order from its reverse
        assert!(
            reverse_caught.get() * 10 >= cases.get(),
            "a reverse-order scatter passed {} of {} cases",
            cases.get() - reverse_caught.get(),
            cases.get()
        );
    }

    #[test]
    fn duplicate_coordinates_each_keep_their_leaf() {
        // every nonzero must be its own leaf, even exact repeats — the
        // two-pass rebuild has to preserve the pre-refactor invariant
        let t = SparseTensor::from_entries(
            vec![4, 4, 4],
            &[
                (vec![1, 2, 3], 2.0),
                (vec![1, 2, 3], 3.0),
                (vec![1, 2, 3], 5.0),
                (vec![0, 1, 2], 1.0),
                (vec![0, 1, 2], 7.0),
            ],
        );
        let csf = Csf::build(&t, &[0, 1, 2], &team(), SortVariant::AllOpts);
        assert_eq!(csf.nnz(), 5, "duplicates collapsed");
        assert_eq!(csf.nfibers(2), 5, "each duplicate keeps its own leaf");
        assert_eq!(csf.nfibers(0), 2);
        assert_eq!(csf.nfibers(1), 2);
        assert_eq!(csf.slice_nnz(), &[2, 3]);
        let oracle = nested::build(&t, &[0, 1, 2], &team(), SortVariant::AllOpts);
        nested::assert_equivalent(&csf, &oracle);
        // the COO round trip preserves every duplicate
        assert_eq!(csf.to_coo().canonical_entries(), t.canonical_entries());
    }
}
