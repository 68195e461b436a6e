//! Compressed Sparse Fiber (CSF) storage (Smith & Karypis, IA³ 2015).
//!
//! CSF generalizes CSR to tensors: nonzeros sorted by a mode permutation
//! form a tree whose level-`l` nodes are the distinct index prefixes of
//! length `l + 1`. Each level stores the node ids (`fids`) and a pointer
//! array (`fptr`) into the next level; the leaves carry the values. SPLATT
//! can allocate one, two, or one-per-mode CSF representations of the same
//! tensor ([`CsfAlloc`]), trading memory for lock-free MTTKRP kernels —
//! the trade at the center of the paper's YELP-vs-NELL-2 behaviour.

use splatt_par::{Routine, TaskTeam, TimerRegistry};
use splatt_store::DeltaBatch;
use splatt_tensor::sort::SortedKeys;
use splatt_tensor::{sort, SortVariant, SparseTensor};
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
    /// levels following `dim_perm`; the nonzeros are sorted with `variant`
    /// on `team` (the paper's "Sort" routine runs here). Under the default
    /// `KeyIndex` the tree is assembled straight from the sorted keys
    /// ([`sort::sort_keys`]); the paper's variants sort a copy of the
    /// tensor and walk it.
    ///
    /// # Panics
    /// Panics if `dim_perm` is not a permutation of the tensor's modes.
    pub fn build(
        tensor: &SparseTensor,
        dim_perm: &[usize],
        team: &TaskTeam,
        variant: SortVariant,
    ) -> Self {
        Self::build_guarded(tensor, dim_perm, team, variant, None)
    }

    /// [`Csf::build`] under run governance: the sort polls `guard`
    /// between buckets. A cancelled build returns a structurally valid
    /// but unusable CSF; the caller's next guard check aborts before it
    /// is consumed.
    pub(crate) fn build_guarded(
        tensor: &SparseTensor,
        dim_perm: &[usize],
        team: &TaskTeam,
        variant: SortVariant,
        guard: Option<&splatt_guard::RunGuard>,
    ) -> Self {
        Self::build_timed(
            tensor,
            dim_perm,
            team,
            variant,
            guard,
            &TimerRegistry::new(),
        )
    }

    /// [`Csf::build_guarded`], attributing the sort — and only it — to
    /// the `Sort` timer: the keys' sort under `KeyIndex`, the copy's sort
    /// otherwise (and past 64 key bits). Assembly is not sorting.
    fn build_timed(
        tensor: &SparseTensor,
        dim_perm: &[usize],
        team: &TaskTeam,
        variant: SortVariant,
        guard: Option<&splatt_guard::RunGuard>,
        timers: &TimerRegistry,
    ) -> Self {
        if variant == SortVariant::KeyIndex {
            let keyed = timers.time(Routine::Sort, || {
                sort::sort_keys(tensor, dim_perm, team, guard)
            });
            if let Some(keys) = keyed {
                return Self::from_keys(&keys, tensor, dim_perm, guard);
            }
        }
        let mut sorted = tensor.clone();
        timers.time(Routine::Sort, || {
            sort::sort_by_perm_guarded(&mut sorted, dim_perm, team, variant, guard)
        });
        // A cancelled sort may leave the buffer partially ordered: then
        // the run is aborting, and the walk is skipped.
        if guard.is_some_and(|g| g.is_cancelled()) && !sorted.is_sorted_by(dim_perm) {
            return Self::empty(tensor.dims(), dim_perm);
        }
        Self::from_sorted(&sorted, dim_perm)
    }

    /// A valid CSF without nonzeros: what a cancelled build returns.
    pub(crate) fn empty(dims: &[usize], dim_perm: &[usize]) -> Self {
        Self::from_sorted(&SparseTensor::new(dims.to_vec()), dim_perm)
    }

    /// Build from a tensor already sorted by `dim_perm`.
    pub(crate) fn from_sorted(sorted: &SparseTensor, dim_perm: &[usize]) -> Self {
        debug_assert!(sorted.is_sorted_by(dim_perm), "tensor must be pre-sorted");
        // index streams in level order
        let streams: Vec<&[u32]> = dim_perm.iter().map(|&m| sorted.ind(m)).collect();
        let nlevels = dim_perm.len();
        let mut csf = Self::assemble(
            sorted.dims(),
            dim_perm,
            || (0..sorted.nnz()).map(|x| open_level(&streams, x, nlevels)),
            |x, l| streams[l][x],
        );
        csf.vals = sorted.vals().to_vec();
        csf
    }

    /// Build from `tensor`'s keys sorted by `dim_perm`: each nonzero's
    /// opening level and fiber ids read off its key, then the values
    /// gathered once through the keys' index bits. Keys a cancelled sort
    /// left out of order give the empty CSF.
    fn from_keys(
        keys: &SortedKeys,
        tensor: &SparseTensor,
        dim_perm: &[usize],
        guard: Option<&splatt_guard::RunGuard>,
    ) -> Self {
        if guard.is_some_and(|g| g.is_cancelled()) && !keys.is_sorted() {
            return Self::empty(tensor.dims(), dim_perm);
        }
        let mut csf = Self::assemble(
            tensor.dims(),
            dim_perm,
            || keys.open_levels(),
            |x, l| keys.index(x, l),
        );
        csf.vals = keys.values(tensor.vals());
        csf
    }

    /// Lay out the tree of the sorted nonzeros, where `opens()` yields, in
    /// order, the level from which each nonzero `x` opens fibers down,
    /// and `index(x, l)` is its index at level `l` — all but the values,
    /// which the caller puts in.
    ///
    /// Two-pass construction: pass 1 counts the fibers each level will
    /// hold, both slabs are then sized exactly, and pass 2 fills them
    /// through per-level write cursors — no reallocation, no per-level
    /// heap vectors.
    fn assemble<I: Iterator<Item = usize>>(
        dims: &[usize],
        dim_perm: &[usize],
        opens: impl Fn() -> I,
        index: impl Fn(usize, usize) -> u32,
    ) -> Self {
        let nlevels = dim_perm.len();

        // Pass 1: count the fibers opened at each level — a nonzero that
        // opens one at level `l` opens one at every level below too.
        let mut nfib = vec![0usize; nlevels];
        for open in opens() {
            nfib[open] += 1;
        }
        for l in 1..nlevels {
            nfib[l] += nfib[l - 1];
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
        for (x, open) in opens().enumerate() {
            for l in open..nlevels {
                if l < nlevels - 1 {
                    fptr[fptr_off[l] + cursor[l]] = cursor[l + 1];
                }
                fids[fids_off[l] + cursor[l]] = index(x, l);
                cursor[l] += 1;
            }
        }
        // close every pointer array
        for l in 0..nlevels - 1 {
            fptr[fptr_off[l] + cursor[l]] = cursor[l + 1];
        }

        let mut csf = Csf {
            dim_perm: dim_perm.to_vec(),
            dims: dims.to_vec(),
            fptr,
            fptr_off,
            fids,
            fids_off,
            vals: Vec::new(),
            slice_nnz: Vec::new(),
        };
        csf.count_slice_nnz();
        csf
    }

    /// Fill `slice_nnz`, the per-slice nonzero counts for weighted
    /// partitioning, in the memory it holds. Subtrees are contiguous at
    /// every level, so slice `s` owns the leaf range between the
    /// first-child chains of slices `s` and `s + 1`.
    fn count_slice_nnz(&mut self) {
        let mut counts = std::mem::take(&mut self.slice_nnz);
        let leaf_start =
            |s: usize| -> usize { (0..self.order() - 1).fold(s, |f, l| self.fptr(l)[f]) };
        let mut prev = leaf_start(0);
        counts.clear();
        counts.extend((1..=self.nfibers(0)).map(|s| {
            let next = leaf_start(s);
            let n = next - prev;
            prev = next;
            n
        }));
        self.slice_nnz = counts;
    }

    /// A tree without nonzeros, levels or memory: a slot for
    /// [`Csf::merge_into`] to write into.
    fn blank() -> Csf {
        Csf {
            dim_perm: Vec::new(),
            dims: Vec::new(),
            fptr: Vec::new(),
            fptr_off: Vec::new(),
            fids: Vec::new(),
            fids_off: Vec::new(),
            vals: Vec::new(),
            slice_nnz: Vec::new(),
        }
    }

    /// Write into `out` the CSF [`Csf::build`] builds from this tree's
    /// tensor with `batch` merged in by [`SparseTensor::merge_entries`],
    /// read off this tree and the batch alone — no tensor, no sort of
    /// its nonzeros. `self` must hold a canonical tensor (distinct
    /// coordinates, no stored zeros), as the CSFs of the refresh
    /// engine's tensor do, and `batch` must be sorted in its level
    /// order. Returns the fiber-id comparisons the walk made to place
    /// the batch among the tree's fibers.
    ///
    /// One pass merges the old tree and the batch level by level,
    /// writing every level straight into `out`'s slabs: sibling fibers
    /// the batch does not touch are copied with their subtrees as one
    /// run per level (`fids` and `vals` verbatim, `fptr` shifted by one
    /// offset); a prefix the tree lacks becomes a new fiber; a cell
    /// accumulates as the tensor merge does — its old value or `0.0`,
    /// then each delta in batch order — and is dropped when that is
    /// exactly zero, as is every fiber left without children, up to the
    /// root. Dims grow to admit the batch.
    ///
    /// The leaf level is written where it stays unless the batch adds or
    /// empties a fiber above it; every other level at the place it would
    /// hold if each batch entry opened a fiber there, and moved down
    /// onto its neighbour once the walk is done. `out`'s slabs are
    /// reused: a recycled tree grows only by what its tensor grew since
    /// it was last written (with `SLAB_HEADROOM` to spare when it must
    /// reallocate), and nothing it held is read.
    fn merge_into(&self, batch: &LevelBatch, out: &mut Csf) -> u64 {
        debug_assert_eq!(batch.perm, self.dim_perm, "batch sorted for another tree");
        let order = self.order();
        out.dim_perm.clone_from(&self.dim_perm);
        out.dims.clone_from(&self.dims);
        for (&m, &e) in self.dim_perm.iter().zip(&batch.extent) {
            out.dims[m] = out.dims[m].max(e);
        }

        // Each batch entry opens at most one fiber per level. The leaves
        // are written where they stay if the levels above keep their
        // fiber counts, as they do unless the batch adds or empties a
        // fiber there; those levels go past the leaves, past room for
        // the leaves to move up by every fiber the batch may add above.
        let (leaf, n) = (order - 1, batch.len());
        let room = |l: usize| self.nfibers(l) + n;
        let starts = |from: usize, lens: &mut dyn Iterator<Item = usize>| -> Vec<usize> {
            lens.scan(from, |end, len| {
                let start = *end;
                *end += len;
                Some(start)
            })
            .collect()
        };
        let above: usize = (0..leaf).map(|l| self.nfibers(l)).sum();
        let mut fids_lo = starts(above + room(leaf) + leaf * n, &mut (0..leaf).map(room));
        fids_lo.push(above);
        let fptr_lo = starts(0, &mut (0..leaf).map(|l| room(l) + 1));
        stretch(&mut out.fids, fids_lo[leaf - 1] + room(leaf - 1));
        stretch(&mut out.fptr, fptr_lo[leaf - 1] + room(leaf - 1) + 1);
        stretch(&mut out.vals, room(leaf));

        let mut walk = TreeMerge {
            base: self,
            batch,
            fids_at: fids_lo.clone(),
            fptr_at: fptr_lo.clone(),
            fids_lo,
            fptr_lo,
            fids: &mut out.fids,
            fptr: &mut out.fptr,
            vals: &mut out.vals,
            leaves: 0..0,
            compare_ops: 0,
        };
        walk.level(0, 0..self.nfibers(0), 0..batch.len());
        walk.flush_leaves();
        // close every pointer level
        for l in 0..order - 1 {
            let end = walk.written(l + 1);
            walk.fptr[walk.fptr_at[l]] = end;
            walk.fptr_at[l] += 1;
        }
        let TreeMerge {
            fids_lo,
            fids_at,
            fptr_lo,
            fptr_at,
            compare_ops,
            ..
        } = walk;

        // Lay the levels end to end: the leaves first, if the levels above
        // changed size, then those levels down in front of them.
        let leaves = fids_lo[leaf]..fids_at[leaf];
        let above: usize = (0..leaf).map(|l| fids_at[l] - fids_lo[l]).sum();
        if above != leaves.start {
            out.fids.copy_within(leaves.clone(), above);
        }
        close_gaps(
            &mut out.fids,
            &mut out.fids_off,
            &fids_lo[..leaf],
            &fids_at[..leaf],
        );
        out.fids_off.push(above + leaves.len());
        out.fids.truncate(above + leaves.len());
        close_gaps(&mut out.fptr, &mut out.fptr_off, &fptr_lo, &fptr_at);
        out.fptr
            .truncate(*out.fptr_off.last().expect("one offset per level"));
        out.vals.truncate(leaves.len());
        out.count_slice_nnz();
        compare_ops
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
    pub(crate) fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Mode permutation: `dim_perm()[l]` is the original mode at level `l`.
    #[inline]
    pub fn dim_perm(&self) -> &[usize] {
        &self.dim_perm
    }

    /// The tree level holding original mode `m`.
    pub(crate) fn level_of_mode(&self, m: usize) -> usize {
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
    pub(crate) fn children(&self, level: usize, f: usize) -> std::ops::Range<usize> {
        let base = self.fptr_off[level];
        self.fptr[base + f]..self.fptr[base + f + 1]
    }

    /// Nonzero values in tree order.
    #[inline]
    pub(crate) fn vals(&self) -> &[f64] {
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

/// A recycled slab grown by this share of the length it must reach
/// when it has to reallocate: a refresh round writes each tree into the
/// slabs its tensor had two rounds before, so headroom for some rounds
/// of growth keeps a warm round from allocating anything that scales
/// with the tensor.
const SLAB_HEADROOM: usize = 8;

/// Make `slab` `len` long for a merge to overwrite, keeping its memory:
/// only the entries past its current length are written here, and a
/// reallocation takes `len / SLAB_HEADROOM` more.
fn stretch<T: Copy + Default>(slab: &mut Vec<T>, len: usize) {
    if slab.capacity() < len {
        slab.reserve_exact(len + len / SLAB_HEADROOM - slab.len());
    }
    slab.resize(len, T::default());
}

/// Move level `l`'s entries, written from `lo[l]` up to `at[l]`, down
/// to follow level `l - 1`'s from the front of `slab`, and record the
/// level offsets in `off`. Each level's entries must lie at or past
/// where they go.
fn close_gaps<T: Copy>(slab: &mut [T], off: &mut Vec<usize>, lo: &[usize], at: &[usize]) {
    off.clear();
    off.push(0);
    for (&lo, &at) in lo.iter().zip(at) {
        let to = *off.last().expect("starts at 0");
        if to != lo {
            slab.copy_within(lo..at, to);
        }
        off.push(to + at - lo);
    }
}

/// The walk of [`Csf::merge_into`]: the old tree and the sorted batch in
/// step, the merged tree written level by level into the output slabs.
struct TreeMerge<'a> {
    base: &'a Csf,
    batch: &'a LevelBatch,
    /// Where each level's region of `fids` starts, and its next write.
    fids_lo: Vec<usize>,
    fids_at: Vec<usize>,
    /// The same for `fptr` (levels `0..order - 1`).
    fptr_lo: Vec<usize>,
    fptr_at: Vec<usize>,
    fids: &'a mut [u32],
    fptr: &'a mut [usize],
    /// The leaf values: the `i`-th leaf written goes to `vals[i]`.
    vals: &'a mut [f64],
    /// Base leaves counted as written but not yet copied, the last ones
    /// before the leaf cursor: runs that continue each other across
    /// fibers are copied as one.
    leaves: Range<usize>,
    compare_ops: u64,
}

impl TreeMerge<'_> {
    /// Fibers written so far at `level`.
    #[inline]
    fn written(&self, level: usize) -> usize {
        self.fids_at[level] - self.fids_lo[level]
    }

    /// Merge the base fibers `fibers` of `level` — siblings under one
    /// parent, or the roots — with the batch entries `ds`, which share
    /// their first `level` indices with that parent.
    fn level(&mut self, level: usize, fibers: Range<usize>, ds: Range<usize>) {
        let (base, batch) = (self.base, self.batch);
        let ids = base.fids(level);
        let leaf = level + 1 == base.order();
        let (mut f, mut d) = (fibers.start, ds.start);
        while d < ds.end {
            let id = batch.index(d, level);
            let mut end = d + 1;
            while end < ds.end && batch.index(end, level) == id {
                end += 1;
            }
            let ops = &mut self.compare_ops;
            let at = f + ids[f..fibers.end].partition_point(|&x| {
                *ops += 1;
                x < id
            });
            self.copy(level, f..at);
            let present = at < fibers.end && ids[at] == id;
            if leaf {
                let old = if present { base.vals[at] } else { 0.0 };
                let acc = (d..end).fold(old, |acc, e| acc + batch.value(e));
                if acc != 0.0 {
                    self.flush_leaves();
                    self.vals[self.written(level)] = acc;
                    self.fids[self.fids_at[level]] = id;
                    self.fids_at[level] += 1;
                }
            } else {
                let first_child = self.written(level + 1);
                let children = if present {
                    base.children(level, at)
                } else {
                    0..0
                };
                self.level(level + 1, children, d..end);
                if self.written(level + 1) > first_child {
                    self.fids[self.fids_at[level]] = id;
                    self.fids_at[level] += 1;
                    self.fptr[self.fptr_at[level]] = first_child;
                    self.fptr_at[level] += 1;
                }
            }
            f = at + usize::from(present);
            d = end;
        }
        self.copy(level, f..fibers.end);
    }

    /// Copy the deferred base leaves to their place, before the cursor.
    fn flush_leaves(&mut self) {
        let leaf = self.base.order() - 1;
        let Range { start, end } = std::mem::replace(&mut self.leaves, 0..0);
        let n = end - start;
        if n > 0 {
            let at = self.fids_at[leaf] - n;
            self.fids[at..at + n].copy_from_slice(&self.base.fids(leaf)[start..end]);
            let v = at - self.fids_lo[leaf];
            self.vals[v..v + n].copy_from_slice(&self.base.vals[start..end]);
        }
    }

    /// Write the base fibers `fibers` of `level` with their subtrees:
    /// one contiguous run per level below (the leaves' copy deferred).
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
            let (at, n) = (self.fids_at[l], hi - lo);
            if l + 1 == base.order() {
                if self.leaves.end != lo {
                    self.flush_leaves();
                    self.leaves = lo..lo;
                }
                self.leaves.end = hi;
                self.fids_at[l] += n;
                return;
            }
            self.fids[at..at + n].copy_from_slice(&base.fids(l)[lo..hi]);
            self.fids_at[l] += n;
            // the run's children land where the next level stands
            let ptrs = &base.fptr(l)[lo..=hi];
            let (from, to) = (ptrs[0], self.written(l + 1));
            let at = self.fptr_at[l];
            for (out, &p) in self.fptr[at..at + n].iter_mut().zip(ptrs) {
                *out = p - from + to;
            }
            self.fptr_at[l] += n;
            (lo, hi) = (ptrs[0], ptrs[n]);
        }
    }
}

/// Widest digit one pass of the batch's radix sort sorts on: a
/// 2048-entry histogram stays in L1.
const BATCH_RADIX_BITS: u32 = 11;

/// Bits that hold every value below `n` (0 for `n <= 1`).
fn bits_below(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// A delta batch sorted in one tree's level order: entry `i` of the
/// sorted order has its index at level `l` in `coords[i * order + l]`
/// and its value in `vals[i]`. The sort is stable — a cell's deltas keep
/// their batch order, the order they accumulate in.
#[derive(Debug, Clone, Default)]
struct LevelBatch {
    perm: Vec<usize>,
    coords: Vec<u32>,
    vals: Vec<f64>,
    /// One past the largest index at each level (0 for an empty batch).
    extent: Vec<usize>,
}

impl LevelBatch {
    #[inline]
    fn len(&self) -> usize {
        self.vals.len()
    }

    /// Level `l`'s index of the `i`-th entry in sorted order.
    #[inline]
    fn index(&self, i: usize, l: usize) -> u32 {
        self.coords[i * self.perm.len() + l]
    }

    /// The value of the `i`-th entry in sorted order.
    #[inline]
    fn value(&self, i: usize) -> f64 {
        self.vals[i]
    }
}

/// A round's delta sorted once for each tree of a [`CsfSet`] it merges
/// into ([`SortedDelta::sort`]), and the dims and level orders of the
/// merged set — what [`CsfSet::merge_into`] reads. Every buffer is kept
/// for the next delta.
#[derive(Debug, Clone, Default)]
pub(crate) struct SortedDelta {
    /// The merged tensor's dims: the set's, grown to admit the delta.
    dims: Vec<usize>,
    /// The level orders of the merged set.
    perms: Vec<Vec<usize>>,
    /// The delta in each level order it is merged in, then spare ones.
    sorted: Vec<LevelBatch>,
    nsorted: usize,
    /// Sort scratch: packed keys and their radix buffers.
    keys: Vec<u64>,
    swap: Vec<u64>,
    counts: Vec<usize>,
}

impl SortedDelta {
    /// Sort `delta` for a merge into `resident`: in the level order of
    /// each tree of the merged set that `resident` holds a tree for — or,
    /// when the delta's growth re-orders the levels of every tree, in the
    /// first resident tree's, for the set's other trees to be built from
    /// its merged coordinates.
    ///
    /// Each sort packs an entry's indices, level by level in the bits
    /// the delta's extents need, above its position in the batch into one
    /// `u64`, and sorts those keys on their coordinate bits in stable LSD
    /// radix passes of at most [`BATCH_RADIX_BITS`] — no comparisons.
    /// Past 64 bits it sorts positions by comparing coordinates (stable
    /// too).
    ///
    /// # Panics
    /// If the delta is not of the set's order.
    pub(crate) fn sort(&mut self, resident: &CsfSet, delta: &DeltaBatch) {
        let first = &resident.csfs[0];
        let order = first.order();
        assert_eq!(delta.order(), order, "delta of another order than the set");
        let mut extent = vec![0usize; order];
        for coord in delta.coords().chunks_exact(order) {
            for (e, &c) in extent.iter_mut().zip(coord) {
                *e = (*e).max(c as usize + 1);
            }
        }
        self.dims.clone_from(&first.dims);
        for (d, &e) in self.dims.iter_mut().zip(&extent) {
            *d = (*d).max(e);
        }
        self.perms = CsfSet::level_orders(&self.dims, resident.alloc);
        let held = |perm: &Vec<usize>| resident.csfs.iter().any(|c| c.dim_perm == *perm);
        let mut perms: Vec<&[usize]> = self
            .perms
            .iter()
            .filter(|p| held(p))
            .map(Vec::as_slice)
            .collect();
        if perms.is_empty() {
            perms.push(&first.dim_perm);
        }
        if self.sorted.len() < perms.len() {
            self.sorted.resize_with(perms.len(), LevelBatch::default);
        }
        self.nsorted = perms.len();
        for (out, perm) in self.sorted.iter_mut().zip(perms) {
            sort_batch(
                delta,
                perm,
                &extent,
                out,
                (&mut self.keys, &mut self.swap, &mut self.counts),
            );
        }
    }

    /// The delta sorted in level order `perm`, if it was.
    fn sorted_for(&self, perm: &[usize]) -> Option<&LevelBatch> {
        self.sorted[..self.nsorted].iter().find(|b| b.perm == perm)
    }

    /// The merged tensor's dims.
    pub(crate) fn dims(&self) -> &[usize] {
        &self.dims
    }
}

/// Sort `delta` into `out` in level order `perm` ([`SortedDelta::sort`]);
/// `extent` is one past its largest index in each mode.
fn sort_batch(
    delta: &DeltaBatch,
    perm: &[usize],
    extent: &[usize],
    out: &mut LevelBatch,
    (keys, swap, counts): (&mut Vec<u64>, &mut Vec<u64>, &mut Vec<usize>),
) {
    let (n, order) = (delta.len(), perm.len());
    let widths: Vec<u32> = perm.iter().map(|&m| bits_below(extent[m])).collect();
    let index_bits = bits_below(n);
    let coordinate_bits: u32 = widths.iter().sum();
    keys.clear();
    let entry = if coordinate_bits + index_bits <= u64::BITS {
        keys.extend(
            delta
                .coords()
                .chunks_exact(order)
                .enumerate()
                .map(|(x, coord)| {
                    let key = perm
                        .iter()
                        .zip(&widths)
                        .fold(0u64, |k, (&m, &w)| (k << w) | u64::from(coord[m]));
                    (key << index_bits) | x as u64
                }),
        );
        radix_sort(keys, swap, counts, index_bits, coordinate_bits);
        (1u64 << index_bits) - 1
    } else {
        keys.extend(0..n as u64);
        let coord = |x: u64| perm.iter().map(move |&m| delta.coord(x as usize)[m]);
        keys.sort_by(|&a, &b| coord(a).cmp(coord(b)));
        u64::MAX
    };
    out.perm.clear();
    out.perm.extend_from_slice(perm);
    out.extent.clear();
    out.extent.extend(perm.iter().map(|&m| extent[m]));
    out.coords.clear();
    out.vals.clear();
    for &key in keys.iter() {
        let x = (key & entry) as usize;
        let coord = delta.coord(x);
        out.coords.extend(perm.iter().map(|&m| coord[m]));
        out.vals.push(delta.vals()[x]);
    }
}

/// Stable LSD radix sort of `keys` on their bits `lo..lo + bits`, in as
/// few passes of at most [`BATCH_RADIX_BITS`] as cover them.
fn radix_sort(
    keys: &mut Vec<u64>,
    swap: &mut Vec<u64>,
    counts: &mut Vec<usize>,
    lo: u32,
    bits: u32,
) {
    if bits == 0 || keys.len() < 2 {
        return;
    }
    let passes = bits.div_ceil(BATCH_RADIX_BITS);
    let width = bits.div_ceil(passes);
    swap.clear();
    swap.resize(keys.len(), 0);
    for pass in 0..passes {
        let shift = lo + pass * width;
        let mask = (1u64 << width.min(bits - pass * width)) - 1;
        let digit = |k: u64| ((k >> shift) & mask) as usize;
        counts.clear();
        counts.resize(mask as usize + 1, 0);
        for &k in keys.iter() {
            counts[digit(k)] += 1;
        }
        let mut start = 0;
        for c in counts.iter_mut() {
            (*c, start) = (start, start + *c);
        }
        for &k in keys.iter() {
            let slot = &mut counts[digit(k)];
            swap[*slot] = k;
            *slot += 1;
        }
        std::mem::swap(keys, swap);
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
    pub(crate) struct NestedCsf {
        pub fptr: Vec<Vec<usize>>,
        pub fids: Vec<Vec<u32>>,
        pub vals: Vec<f64>,
        pub slice_nnz: Vec<usize>,
    }

    /// Mirror of [`super::Csf::build`] using the nested construction.
    pub(crate) fn build(
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
    pub(crate) fn from_sorted(sorted: &SparseTensor, dim_perm: &[usize]) -> NestedCsf {
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
    pub(crate) fn assert_equivalent(flat: &super::Csf, oracle: &NestedCsf) {
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
        timers: &TimerRegistry,
    ) -> Self {
        Self::build_timed_guarded(tensor, alloc, team, variant, timers, None)
    }

    /// [`CsfSet::build_timed`] under run governance: the sorting phase
    /// polls `guard` so a cancelled run stops building representations
    /// early instead of finishing a multi-second preprocessing pass.
    pub(crate) fn build_timed_guarded(
        tensor: &SparseTensor,
        alloc: CsfAlloc,
        team: &TaskTeam,
        variant: SortVariant,
        timers: &TimerRegistry,
        guard: Option<&splatt_guard::RunGuard>,
    ) -> Self {
        let csfs = Self::level_orders(tensor.dims(), alloc)
            .iter()
            .map(|perm| Csf::build_timed(tensor, perm, team, variant, guard, timers))
            .collect();
        CsfSet { csfs, alloc }
    }

    /// A set without trees: a slot for [`CsfSet::merge_into`] to write
    /// into, for nothing else.
    pub(crate) fn unfilled() -> CsfSet {
        CsfSet {
            csfs: Vec::new(),
            alloc: CsfAlloc::default(),
        }
    }

    /// The level order (`dim_perm`) of each representation `alloc`
    /// dictates for a tensor with these dims, in the set's order.
    pub(crate) fn level_orders(dims: &[usize], alloc: CsfAlloc) -> Vec<Vec<usize>> {
        Self::roots_for(dims, alloc)
            .iter()
            .map(|&root| perm_rooted_at(dims, root))
            .collect()
    }

    /// Write into `out` the set [`CsfSet::build`] gives this set's
    /// tensor with the delta `sorted` was sorted from merged in
    /// ([`SparseTensor::merge_entries`]). Each tree whose level order
    /// this set holds is merged from it in one pass that writes every
    /// level straight into the slabs of `out`'s tree in that place
    /// (`Csf::merge_into`); a level order it does not hold — dims growth
    /// re-ordered a tree's levels — is built by sorting the coordinates
    /// of a merged tree. `self` is only read, so a caller that keeps it
    /// and may still fail loses nothing; `out` may hold any set or none,
    /// and only its memory is reused. Returns how many trees were merged
    /// from a tree that held nonzeros — whose nonzeros were not sorted
    /// again; a merge into an empty tree sorts them all, as the delta —
    /// and the fiber-id comparisons the merges made.
    ///
    /// # Panics
    /// If `sorted` was not sorted for this set ([`SortedDelta::sort`]).
    pub(crate) fn merge_into(
        &self,
        sorted: &SortedDelta,
        out: &mut CsfSet,
        team: &TaskTeam,
        variant: SortVariant,
    ) -> (usize, u64) {
        let perms = &sorted.perms;
        out.alloc = self.alloc;
        out.csfs.truncate(perms.len());
        out.csfs.resize_with(perms.len(), Csf::blank);
        let (mut merged, mut compare_ops) = (0, 0);
        let mut missing = Vec::new();
        for (i, (slot, perm)) in out.csfs.iter_mut().zip(perms).enumerate() {
            match self.csfs.iter().find(|c| c.dim_perm == *perm) {
                Some(old) => {
                    let batch = sorted.sorted_for(perm).expect("delta sorted for this set");
                    compare_ops += old.merge_into(batch, slot);
                    merged += usize::from(old.nnz() > 0);
                }
                None => missing.push(i),
            }
        }
        if !missing.is_empty() {
            let scratch;
            let source = match (0..perms.len()).find(|i| !missing.contains(i)) {
                Some(i) => &out.csfs[i],
                None => {
                    let old = &self.csfs[0];
                    let batch = sorted
                        .sorted_for(&old.dim_perm)
                        .expect("delta sorted for this set");
                    let mut tree = Csf::blank();
                    compare_ops += old.merge_into(batch, &mut tree);
                    scratch = tree;
                    &scratch
                }
            };
            let coo = source.to_coo();
            let built: Vec<Csf> = missing
                .iter()
                .map(|&i| Csf::build(&coo, &perms[i], team, variant))
                .collect();
            for (i, csf) in missing.into_iter().zip(built) {
                out.csfs[i] = csf;
            }
        }
        (merged, compare_ops)
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
        Self::build_timed(tensor, alloc, team, variant, &TimerRegistry::new())
    }

    /// The allocation policy used.
    pub(crate) fn alloc(&self) -> CsfAlloc {
        self.alloc
    }

    /// All representations.
    pub fn csfs(&self) -> &[Csf] {
        &self.csfs
    }

    /// The coordinate tensor the set holds, its nonzeros in lexicographic
    /// mode order: the first tree's nonzeros ([`Csf::to_coo`]) sorted by
    /// `KeyIndex` on one task. For a set built from a canonical tensor
    /// that is the tensor, bit for bit.
    pub(crate) fn to_coo(&self) -> SparseTensor {
        let mut tensor = self.csfs[0].to_coo();
        let identity: Vec<usize> = (0..tensor.order()).collect();
        sort::sort_by_perm(
            &mut tensor,
            &identity,
            &TaskTeam::new(1),
            SortVariant::KeyIndex,
        );
        tensor
    }

    /// Squared Frobenius norm of the tensor the set holds, summed over
    /// the first tree's values in tree order.
    pub(crate) fn norm_squared(&self) -> f64 {
        self.csfs[0].vals.iter().map(|v| v * v).sum()
    }

    /// Pick the representation and kernel for an MTTKRP on `mode`
    /// (SPLATT's `csf_mode_to_use`, plus one measured rule): a root
    /// pairing if one exists; else, when `mode` is the leaf of a *later*
    /// representation, the leaf kernel there unless the first
    /// representation's fibers are dense (`DENSE_FIBER_NNZ`) — then, as
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
pub(crate) const DENSE_FIBER_NNZ: f64 = 4.3;

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

    /// `entries` as the packed batch a refresh round decodes.
    fn packed(order: usize, entries: &[(Vec<u32>, f64)]) -> DeltaBatch {
        let mut batch = DeltaBatch::new(order);
        batch
            .decode_append(&splatt_store::encode_delta(order, entries))
            .expect("a batch just encoded decodes");
        batch
    }

    /// `old` with `delta` merged in, written into `out`.
    fn merge_tree(old: &Csf, delta: &DeltaBatch, out: &mut Csf) -> u64 {
        let one = CsfSet {
            csfs: vec![old.clone()],
            alloc: CsfAlloc::One,
        };
        let mut sorted = SortedDelta::default();
        sorted.sort(&one, delta);
        let batch = sorted
            .sorted_for(&old.dim_perm)
            .expect("sorted for its tree");
        old.merge_into(batch, out)
    }

    /// `Csf::merge_into` against a rebuild from the merged tensor, on every
    /// tree `CsfAlloc::{One, Two, All}` would hold: orders 2–5; empty
    /// bases and empty deltas; duplicates inside the delta; cancellations
    /// that empty a leaf, a fiber, a root slice or the whole tensor; a
    /// cancelled cell re-created later in the batch; `-0.0` into absent
    /// and present cells; dims growth; deltas wholly before, wholly after
    /// or interleaved with the base — each tree written into a blank slot
    /// or the slabs of another tree, each set into a set of another
    /// policy.
    #[test]
    fn merged_csf_equals_a_rebuild_of_the_merged_tensor() {
        use std::cell::Cell;
        // small inexact values and their negatives: cells cancel to
        // exactly 0.0, and sums depend on the order they are added in
        const VALUES: [f64; 7] = [0.1, -0.1, 0.7, -0.7, 2.5, -0.0, 1e-3];
        let (cases, reverse_caught) = (Cell::new(0u32), Cell::new(0u32));
        qc::check(
            "Csf::merge_into == Csf::from_sorted(merged tensor)",
            300,
            |g| {
                let order = g.usize_in(2..6);
                let dims: Vec<usize> = (0..order).map(|_| g.usize_in(1..5)).collect();
                let cells: usize = dims.iter().product();
                // where the batch lies relative to the base in mode 0 — band 0
                // before it, 2 after it, 1 among it and past its dims
                let layout = g.usize_in(0..3);
                let coord = |g: &mut qc::Gen, band: u32, grow: u32| -> Vec<u32> {
                    let mut c: Vec<u32> =
                        dims.iter().map(|&d| g.range(0..d as u32 + grow)).collect();
                    c[0] += band * dims[0] as u32;
                    c
                };
                let mut base_dims = dims.clone();
                base_dims[0] *= 2;
                let mut base = SparseTensor::new(base_dims);
                let drawn: Vec<(Vec<u32>, f64)> = (0..[0, 1, cells / 2, cells * 2]
                    [g.usize_in(0..4)])
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

                let mut merged = base.clone();
                merged.merge_entries(&delta);
                let team = TaskTeam::new(1);
                let build = |t: &SparseTensor, perm: &[usize]| {
                    Csf::build(t, perm, &team, SortVariant::AllOpts)
                };
                let forwards = packed(order, &delta);
                let reversed: Vec<_> = delta.iter().rev().cloned().collect();
                let reversed = packed(order, &reversed);
                // a recycled slot holds some other tree, longer or shorter
                let mut recycled = [
                    Csf::blank(),
                    build(&merged, &perm_rooted_at(merged.dims(), 0)),
                ];
                let mut caught = false;
                for alloc in [CsfAlloc::One, CsfAlloc::Two, CsfAlloc::All] {
                    for perm in CsfSet::level_orders(base.dims(), alloc) {
                        let old = build(&base, &perm);
                        let slot = &mut recycled[g.usize_in(0..2)];
                        merge_tree(&old, &forwards, slot);
                        let got = slot.clone();
                        assert_same(&got, &build(&merged, &perm));
                        let oracle = nested::build(&merged, &perm, &team, SortVariant::AllOpts);
                        nested::assert_equivalent(&got, &oracle);
                        // adding each cell's deltas in reverse batch order
                        let bits = |c: &Csf| c.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        let mut backwards = Csf::blank();
                        merge_tree(&old, &reversed, &mut backwards);
                        caught |= bits(&backwards) != bits(&got);
                    }
                    // the set: merged where the level order held, built where
                    // not, into a set that held another
                    let resident = CsfSet::build(&base, alloc, &team, SortVariant::AllOpts);
                    let mut sorted = SortedDelta::default();
                    sorted.sort(&resident, &forwards);
                    assert_eq!(sorted.dims(), merged.dims());
                    let other = [CsfAlloc::One, CsfAlloc::All][g.usize_in(0..2)];
                    let mut set = CsfSet::build(&base, other, &team, SortVariant::AllOpts);
                    let (n, _) =
                        resident.merge_into(&sorted, &mut set, &team, SortVariant::AllOpts);
                    let want = CsfSet::build(&merged, alloc, &team, SortVariant::AllOpts);
                    assert_eq!(set.alloc(), alloc);
                    assert_eq!(set.csfs().len(), want.csfs().len());
                    for (got, want) in set.csfs().iter().zip(want.csfs()) {
                        assert_same(got, want);
                    }
                    let kept = CsfSet::level_orders(merged.dims(), alloc)
                        .iter()
                        .filter(|p| CsfSet::level_orders(base.dims(), alloc).contains(p))
                        .count();
                    assert_eq!(n, if base.nnz() > 0 { kept } else { 0 });
                    assert_eq!(set.norm_squared().to_bits(), {
                        let first = &want.csfs()[0];
                        first.vals().iter().map(|v| v * v).sum::<f64>().to_bits()
                    });
                    assert_eq!(set.to_coo(), merged);
                }
                cases.set(cases.get() + 1);
                reverse_caught.set(reverse_caught.get() + u32::from(caught));
            },
        );
        // the property tells batch order from its reverse
        assert!(
            reverse_caught.get() * 10 >= cases.get(),
            "a reverse-order scatter passed {} of {} cases",
            cases.get() - reverse_caught.get(),
            cases.get()
        );
    }

    /// The batch sort is the standard library's stable sort of the
    /// entries by their coordinates in the level order: over packed keys
    /// in radix passes, and by comparison past 64 key bits — for batches
    /// of 0, 1, 2 and more entries, ties common, dims up to `u32::MAX`.
    #[test]
    fn the_batch_sort_is_the_stable_sort_in_any_level_order() {
        qc::check(
            "sort_batch == stable sort by level-order coordinates",
            128,
            |g| {
                let order = g.usize_in(2..6);
                let wide = g.usize_in(0..4) == 0;
                let dims: Vec<u32> = (0..order)
                    .map(|_| if wide { u32::MAX } else { g.range(1..3000u32) })
                    .collect();
                let n = [0, 1, 2, g.usize_in(3..600)][g.usize_in(0..4)];
                let entries: Vec<(Vec<u32>, f64)> = (0..n)
                    .map(|i| {
                        let coord = dims
                            .iter()
                            .map(|&d| if g.bool() { d / 2 } else { g.range(0..d) })
                            .collect();
                        (coord, i as f64)
                    })
                    .collect();
                let batch = packed(order, &entries);
                let perm = g.permutation(order);
                let mut extent = vec![0usize; order];
                for (coord, _) in &entries {
                    for (e, &c) in extent.iter_mut().zip(coord) {
                        *e = (*e).max(c as usize + 1);
                    }
                }
                let mut out = LevelBatch::default();
                let (mut keys, mut swap, mut counts) = (Vec::new(), Vec::new(), Vec::new());
                sort_batch(
                    &batch,
                    &perm,
                    &extent,
                    &mut out,
                    (&mut keys, &mut swap, &mut counts),
                );

                let mut want: Vec<usize> = (0..n).collect();
                want.sort_by_key(|&x| perm.iter().map(|&m| entries[x].0[m]).collect::<Vec<_>>());
                let coords: Vec<u32> = want
                    .iter()
                    .flat_map(|&x| {
                        let coord = &entries[x].0;
                        perm.iter().map(move |&m| coord[m])
                    })
                    .collect();
                assert_eq!(out.coords, coords);
                let vals: Vec<f64> = want.iter().map(|&x| x as f64).collect();
                assert_eq!(out.vals, vals, "ties out of batch order");
                assert_eq!(
                    out.extent,
                    perm.iter().map(|&m| extent[m]).collect::<Vec<_>>()
                );
            },
        );
    }

    /// `t` sorted by `perm` with the standard library's stable sort: the
    /// order of `splatt-tensor`'s per-bucket key-index oracle.
    fn stable_sorted(t: &SparseTensor, perm: &[usize]) -> SparseTensor {
        let mut order: Vec<usize> = (0..t.nnz()).collect();
        order.sort_by_key(|&x| perm.iter().map(|&m| t.ind(m)[x]).collect::<Vec<_>>());
        let inds = (0..t.order())
            .map(|m| order.iter().map(|&x| t.ind(m)[x]).collect())
            .collect();
        let vals = order.iter().map(|&x| t.vals()[x]).collect();
        SparseTensor::from_parts(t.dims().to_vec(), inds, vals)
    }

    /// `KeyIndex`'s tree against `from_sorted` of the stable order — of
    /// the `AllOpts` order where the keys need more than 64 bits — field
    /// for field with values by `to_bits`, on every tree `alloc` holds.
    fn assert_keyed_trees(t: &SparseTensor, alloc: CsfAlloc, team: &TaskTeam) {
        let set = CsfSet::build(t, alloc, team, SortVariant::KeyIndex);
        let perms = CsfSet::level_orders(t.dims(), alloc);
        assert_eq!(set.csfs().len(), perms.len());
        for (got, perm) in set.csfs().iter().zip(&perms) {
            let want = if sort::sort_keys(t, perm, team, None).is_some() {
                stable_sorted(t, perm)
            } else {
                let mut copy = t.clone();
                sort::sort_by_perm(&mut copy, perm, team, SortVariant::AllOpts);
                copy
            };
            assert_same(got, &Csf::from_sorted(&want, perm));
        }
    }

    /// The tree assembled from the sorted keys is the one `from_sorted`
    /// walks out of the oracle-sorted tensor, under `One`/`Two`/`All`:
    /// orders 2–5 at 1, 2 and 3 tasks; dims of 1, 2^k and 2^k + 1 (a
    /// field's width at its edges); nnz 0, 1, 2^k and 2^k + 1 (the
    /// index's); duplicate-heavy, already sorted and reverse-sorted.
    #[test]
    fn keyed_csf_equals_from_sorted_of_the_oracle_order() {
        qc::check("keyed csf == from_sorted(oracle order)", 96, |g| {
            let edge = |g: &mut qc::Gen, drawn: usize| {
                let k = g.range(0..9u32);
                [1, 1 << k, (1 << k) + 1, 0, drawn][g.usize_in(0..5)]
            };
            let order = g.usize_in(2..6);
            let dims: Vec<usize> = (0..order)
                .map(|_| {
                    let drawn = g.usize_in(1..40);
                    edge(g, drawn).max(1)
                })
                .collect();
            let drawn = g.usize_in(2..300);
            let nnz = edge(g, drawn);
            let heavy = g.bool();
            let mut t = SparseTensor::new(dims.clone());
            for n in 0..nnz {
                let coord: Vec<u32> = dims
                    .iter()
                    .map(|&d| g.usize_in(0..if heavy { d.min(2) } else { d }) as u32)
                    .collect();
                t.push(&coord, f64::from(n as u32) - 0.5);
            }
            let perm: Vec<usize> = (0..order).collect();
            let t = match g.usize_in(0..4) {
                0 => stable_sorted(&t, &perm),
                1 => {
                    let s = stable_sorted(&t, &perm);
                    let inds = (0..order)
                        .map(|m| s.ind(m).iter().rev().copied().collect())
                        .collect();
                    SparseTensor::from_parts(dims, inds, s.vals().iter().rev().copied().collect())
                }
                _ => t,
            };
            for ntasks in 1..=3 {
                let team = TaskTeam::new(ntasks);
                for alloc in [CsfAlloc::One, CsfAlloc::Two, CsfAlloc::All] {
                    assert_keyed_trees(&t, alloc, &team);
                }
            }
        });
    }

    /// The same where the key outgrows its word: exactly 64 bits, also
    /// under a root as wide as the other fields (the root has no field),
    /// and 65 bits or past 128 — where the build sorts a copy with
    /// `AllOpts` (for the 2^32-wide dims only the short root's tree: a
    /// root of 2^32 slices would need a histogram that long).
    #[test]
    fn keyed_csf_equals_from_sorted_at_the_word_boundaries() {
        let k14 = 1 << 14;
        let big = u32::MAX as usize;
        let team = TaskTeam::new(2);
        for (dims, nnz, radix) in [
            (vec![3, k14, k14, k14, k14], 256, true),
            (vec![k14; 5], 256, true),
            (vec![3, k14, k14, k14, k14], 257, false),
            (vec![3, k14 + 1, k14, k14, k14], 256, false),
            (vec![3, big, big, big, big], 300, false),
        ] {
            let t = synth::power_law(&dims, nnz, 3.0, 41);
            let perm: Vec<usize> = (0..dims.len()).collect();
            assert_eq!(sort::sort_keys(&t, &perm, &team, None).is_some(), radix);
            let allocs: &[CsfAlloc] = if dims[1] == big {
                &[CsfAlloc::One]
            } else {
                &[CsfAlloc::One, CsfAlloc::Two, CsfAlloc::All]
            };
            for &alloc in allocs {
                assert_keyed_trees(&t, alloc, &team);
            }
        }
    }

    #[test]
    fn a_cancelled_keyed_build_is_empty_and_valid() {
        let t = synth::random_uniform(&[50, 30, 40], 5_000, 3);
        let guard = splatt_guard::RunGuard::unarmed();
        guard.cancel();
        let csf = Csf::build_guarded(&t, &[0, 1, 2], &team(), SortVariant::KeyIndex, Some(&guard));
        assert_eq!((csf.nnz(), csf.nfibers(0), csf.order()), (0, 0, 3));
        assert_eq!(csf.dims(), t.dims());
        assert_eq!(csf.fptr(0), &[0]);
        // with a clean guard the same build is the whole tree
        let clean = splatt_guard::RunGuard::unarmed();
        let csf = Csf::build_guarded(&t, &[0, 1, 2], &team(), SortVariant::KeyIndex, Some(&clean));
        assert_same(
            &csf,
            &Csf::from_sorted(&stable_sorted(&t, &[0, 1, 2]), &[0, 1, 2]),
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
