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
use splatt_tensor::{sort, SortVariant, SparseTensor};

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
        Self::from_streams(&streams, sorted.vals(), sorted.dims(), dim_perm)
    }

    /// The build proper, from the index streams in level order.
    fn from_streams(streams: &[&[u32]], vals: &[f64], dims: &[usize], dim_perm: &[usize]) -> Self {
        let nnz = vals.len();
        let nlevels = dim_perm.len();
        let vals = vals.to_vec();

        // Pass 1: count the fibers opened at each level.
        let mut nfib = vec![0usize; nlevels];
        for x in 0..nnz {
            for count in nfib[open_level(streams, x, nlevels)..].iter_mut() {
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
        for x in 0..nnz {
            for l in open_level(streams, x, nlevels)..nlevels {
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

        // Per-slice nonzero counts for weighted partitioning. Subtrees
        // are contiguous at every level, so slice `s` owns the leaf range
        // between the first-child chains of slices `s` and `s + 1`.
        let leaf_start = |s: usize| -> usize {
            let mut f = s;
            for l in 0..nlevels - 1 {
                f = fptr[fptr_off[l] + f];
            }
            f
        };
        let nslices = nfib[0];
        let mut slice_nnz = Vec::with_capacity(nslices);
        let mut prev = leaf_start(0);
        for s in 1..=nslices {
            let next = leaf_start(s);
            slice_nnz.push(next - prev);
            prev = next;
        }

        Csf {
            dim_perm: dim_perm.to_vec(),
            dims: dims.to_vec(),
            fptr,
            fptr_off,
            fids,
            fids_off,
            vals,
            slice_nnz,
        }
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

/// Independent reference construction for validating the flat-slab build.
///
/// This is the pre-refactor push-per-nonzero nested-`Vec` algorithm kept
/// verbatim as a structural oracle: property and regression tests build
/// a [`nested::NestedCsf`] alongside a [`Csf`] from the same sorted tensor
/// and assert level-by-level equality. Hidden from docs — it exists only so
/// integration tests outside this crate can reach the oracle.
#[doc(hidden)]
pub mod nested {
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

    /// The set [`CsfSet::build`] gives the tensor, assembled without
    /// sorting it: `leveled[i]` is the tensor with its modes permuted
    /// into the `i`-th of [`CsfSet::level_orders`] and its nonzeros
    /// sorted — what a caller that keeps those copies sorted across
    /// builds (the refresh engine) hands over in place of the tensor.
    ///
    /// # Panics
    /// Panics if the copies are not one per level order of their dims.
    pub fn from_level_sorted(alloc: CsfAlloc, dims: &[usize], leveled: &[&SparseTensor]) -> Self {
        let orders = Self::level_orders(dims, alloc);
        assert_eq!(leveled.len(), orders.len(), "one copy per representation");
        let csfs = orders
            .iter()
            .zip(leveled)
            .map(|(perm, copy)| {
                assert!(
                    perm.iter()
                        .map(|&m| dims[m])
                        .eq(copy.dims().iter().copied()),
                    "a copy's dims are not the tensor's in its level order"
                );
                let levels = 0..perm.len();
                debug_assert!(
                    copy.is_sorted_by(&levels.clone().collect::<Vec<_>>()),
                    "copies must be pre-sorted"
                );
                let streams: Vec<&[u32]> = levels.map(|l| copy.ind(l)).collect();
                Csf::from_streams(&streams, copy.vals(), dims, perm)
            })
            .collect();
        CsfSet { csfs, alloc }
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
mod tests {
    use super::*;
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

    #[test]
    fn set_assembled_from_level_sorted_copies_equals_the_built_set() {
        let mut t = synth::power_law(&[30, 22, 26, 9], 2_000, 1.7, 8);
        t.coalesce();
        for alloc in [CsfAlloc::One, CsfAlloc::Two, CsfAlloc::All] {
            let built = CsfSet::build(&t, alloc, &team(), SortVariant::AllOpts);
            let copies: Vec<SparseTensor> = CsfSet::level_orders(t.dims(), alloc)
                .iter()
                .map(|perm| {
                    // canonical in permuted modes = sorted for that root
                    let mut copy = t.permute_modes(perm);
                    copy.coalesce();
                    copy
                })
                .collect();
            let given =
                CsfSet::from_level_sorted(alloc, t.dims(), &copies.iter().collect::<Vec<_>>());
            assert_eq!(given.alloc(), alloc);
            assert_eq!(given.csfs().len(), built.csfs().len());
            for (a, b) in given.csfs().iter().zip(built.csfs()) {
                assert_eq!((a.dim_perm(), a.dims()), (b.dim_perm(), b.dims()));
                assert_eq!((&a.fptr, &a.fptr_off), (&b.fptr, &b.fptr_off));
                assert_eq!((&a.fids, &a.fids_off), (&b.fids, &b.fids_off));
                assert_eq!((&a.vals, &a.slice_nnz), (&b.vals, &b.slice_nnz));
            }
        }
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
