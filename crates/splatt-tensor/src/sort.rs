//! The pre-processing tensor sort (the paper's "Sort" routine).
//!
//! SPLATT sorts the nonzeros lexicographically by a mode permutation
//! before building CSF: a parallel counting sort buckets nonzeros by the
//! leading mode, then a recursive quicksort orders each bucket by the
//! remaining modes. Section V-C of the Chapel-port paper finds two
//! bottlenecks in the naive port and fixes them for an ~8x total win
//! (Figure 1):
//!
//! 1. **Array-opt** — the quicksort partition step declared a local
//!    two-element array per recursive call (46 million allocations on
//!    NELL-2); the fix uses scalar locals.
//! 2. **Slices-opt** — moving the counting-sorted buffers back into the
//!    tensor was written with array-slice assignment, which *copies* in
//!    Chapel where C reassigns pointers; the fix swaps buffer ownership.
//!
//! Both defects are reproduced faithfully as [`SortVariant`] knobs:
//! `Initial` = both defects, `ArrayOpt` / `SlicesOpt` = one fix each,
//! `AllOpts` = both fixes (the paper's final configuration).
//!
//! A fifth variant, `KeyIndex`, is not in the paper and is the default.
//! It packs each nonzero into one `u64` — the coordinate fields of the
//! levels below the root, each as wide as its mode's dimension needs,
//! above the entry's input index: the linearization of ALTO (Laukemann
//! et al., arXiv:2403.06348), used here only to sort — and sorts the
//! words: the counting pass on the root mode the paper's variants run
//! puts each key in its root slice's bucket (so the root index needs no
//! field: the bucket starts hold it), then least-significant-digit radix
//! passes of at most 11 bits sort each bucket on its coordinate bits.
//! Every key is distinct (the index) and every pass stable, so the order
//! is the stable lexicographic one: duplicate coordinates keep their
//! input order. Where 64 bits cannot hold the fields and the index the
//! variant runs the `AllOpts` sort. [`sort_keys`] hands the sorted keys
//! out as they are — `splatt-core` assembles its default CSF straight
//! from them, with no sorted copy of the tensor — and [`sort_by_perm`]
//! decodes them back into the tensor.

use crate::SparseTensor;
use splatt_par::{partition, TaskTeam};
use splatt_rt::sync::Mutex;

/// `true` if the tensor is *strictly* sorted by `perm` — every adjacent
/// pair strictly increasing, so no duplicate coordinates. Strictness is
/// what makes skipping the sort safe: with exact duplicates a re-sort
/// could permute their values and break bit-identity.
fn is_strictly_sorted_by(tt: &SparseTensor, perm: &[usize]) -> bool {
    (1..tt.nnz()).all(|x| {
        for &m in perm {
            match tt.ind(m)[x - 1].cmp(&tt.ind(m)[x]) {
                std::cmp::Ordering::Less => return true,
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Equal => continue,
            }
        }
        false // exact duplicate coordinate
    })
}

/// How the nonzero sort runs: one of Figure 1's four series (which
/// combination of the paper's two sorting fixes to apply), or the
/// packed-key radix sort this reproduction defaults to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortVariant {
    /// Unoptimized port: per-call allocations in the quicksort partition
    /// *and* copy-based buffer reassignment.
    Initial,
    /// Allocation-free partition, copy-based reassignment.
    ArrayOpt,
    /// Per-call allocations, swap-based (pointer-style) reassignment.
    SlicesOpt,
    /// Both fixes — the paper's final configuration, and what the
    /// `splatt-core` `Implementation` presets and every figure/table
    /// reproduction run.
    AllOpts,
    /// Not a paper series. Packs each nonzero's coordinate below the root
    /// (in `perm` order) above its input index into one `u64`,
    /// counting-sorts the keys on the root mode as `AllOpts` does, then
    /// radix-sorts each bucket on its coordinate bits ([`sort_keys`]).
    /// Stable: exact duplicate coordinates keep their input order (the
    /// quicksort leaves it to pivot choices). Past 64 key bits it runs
    /// the `AllOpts` sort.
    #[default]
    KeyIndex,
}

impl SortVariant {
    /// Figure 1's four series, in legend order (`KeyIndex` is not one).
    pub const ALL: [SortVariant; 4] = [
        SortVariant::Initial,
        SortVariant::ArrayOpt,
        SortVariant::SlicesOpt,
        SortVariant::AllOpts,
    ];

    /// Legend label as printed in Figure 1.
    pub fn label(self) -> &'static str {
        match self {
            SortVariant::Initial => "Initial",
            SortVariant::ArrayOpt => "Array-opt",
            SortVariant::SlicesOpt => "Slices-opt",
            SortVariant::AllOpts => "All-opts",
            SortVariant::KeyIndex => "Key-index",
        }
    }

    /// Does the quicksort partition allocate a small array per call?
    fn alloc_in_partition(self) -> bool {
        matches!(self, SortVariant::Initial | SortVariant::SlicesOpt)
    }

    /// Is the post-counting-sort buffer handoff a copy (vs. a swap)?
    fn copy_buffers(self) -> bool {
        matches!(self, SortVariant::Initial | SortVariant::ArrayOpt)
    }
}

/// # Panics
/// Panics if `perm` is not a permutation of `0..order`.
fn assert_permutation(perm: &[usize], order: usize) {
    assert_eq!(perm.len(), order, "perm must cover every mode");
    let mut seen = vec![false; order];
    for &m in perm {
        assert!(m < order && !seen[m], "perm must be a permutation of modes");
        seen[m] = true;
    }
}

/// Sort the tensor's nonzeros lexicographically by the mode permutation
/// `perm` (`perm[0]` is the primary key), in parallel on `team`.
///
/// This is SPLATT's `tt_sort`: counting sort on the primary mode, then a
/// per-bucket sort on the remaining modes, with buckets distributed
/// across tasks weighted by nonzero count.
///
/// ```
/// use splatt_par::TaskTeam;
/// use splatt_tensor::{sort, SortVariant, SparseTensor};
///
/// let mut t = SparseTensor::from_entries(
///     vec![3, 3, 3],
///     &[(vec![2, 0, 0], 1.0), (vec![0, 1, 0], 2.0), (vec![0, 0, 2], 3.0)],
/// );
/// let team = TaskTeam::new(2);
/// sort::sort_by_perm(&mut t, &[0, 1, 2], &team, SortVariant::AllOpts);
/// assert!(t.is_sorted_by(&[0, 1, 2]));
/// assert_eq!(t.vals(), &[3.0, 2.0, 1.0]);
/// ```
///
/// # Panics
/// Panics if `perm` is not a permutation of `0..order`.
pub fn sort_by_perm(tt: &mut SparseTensor, perm: &[usize], team: &TaskTeam, variant: SortVariant) {
    sort_by_perm_guarded(tt, perm, team, variant, None);
}

/// [`sort_by_perm`] under run governance: each task polls `guard`
/// between buckets and bails out early once the run is cancelled. The
/// sort stays infallible — a cancelled sort simply leaves the tensor
/// partially sorted, and the solver's next full guard check turns the
/// cancellation into a typed abort before the result is used.
pub fn sort_by_perm_guarded(
    tt: &mut SparseTensor,
    perm: &[usize],
    team: &TaskTeam,
    variant: SortVariant,
    guard: Option<&splatt_guard::RunGuard>,
) {
    let order = tt.order();
    assert_permutation(perm, order);
    let nnz = tt.nnz();
    if nnz <= 1 {
        return;
    }

    // Fast path for incremental rebuilds: a tensor already strictly
    // sorted by `perm` (the canonical form `merge_entries` maintains)
    // needs no work — skip straight to CSF construction.
    if is_strictly_sorted_by(tt, perm) {
        return;
    }

    if variant == SortVariant::KeyIndex {
        // past 64 key bits: the `AllOpts` sort below
        if let Some(keys) = sort_keys(tt, perm, team, guard) {
            return keys.apply(tt);
        }
    }

    let primary = perm[0];
    let dim_primary = tt.dims()[primary];

    // ---- phase 1: parallel counting sort on the primary mode ----
    let slice_starts = counting_sort(tt, primary, dim_primary, team, variant);

    // ---- phase 2: per-bucket quicksort on the remaining modes ----
    let ntasks = team.ntasks();

    // bucket sizes -> weighted task boundaries (SPLATT hands each task a
    // contiguous run of buckets carrying ~nnz/ntasks nonzeros)
    let bucket_sizes: Vec<usize> = slice_starts.windows(2).map(|w| w[1] - w[0]).collect();
    let prefix = partition::prefix_sum(&bucket_sizes);
    let task_buckets = partition::weighted(&prefix, ntasks);

    let (inds, vals) = tt.parts_mut();
    // Secondary key arrays in comparison order.
    let mut keys: Vec<&mut Vec<u32>> = Vec::with_capacity(order - 1);
    {
        // pull out mutable references to the secondary-mode arrays in perm
        // order without aliasing: take them one at a time via split
        let mut remaining: Vec<Option<&mut Vec<u32>>> = inds.iter_mut().map(Some).collect();
        for &m in &perm[1..] {
            keys.push(remaining[m].take().expect("mode taken twice"));
        }
    }

    // Split every array into per-task element ranges at bucket boundaries
    // so tasks own disjoint memory.
    let elem_bounds: Vec<usize> = task_buckets.iter().map(|&b| slice_starts[b]).collect();

    struct TaskSeg<'a> {
        keys: Vec<&'a mut [u32]>,
        vals: &'a mut [f64],
        /// bucket element offsets relative to this segment's start
        buckets: Vec<usize>,
    }

    let mut segs: Vec<TaskSeg<'_>> = Vec::with_capacity(ntasks);
    {
        let mut key_rests: Vec<&mut [u32]> = keys.iter_mut().map(|k| k.as_mut_slice()).collect();
        let mut val_rest: &mut [f64] = vals.as_mut_slice();
        let mut consumed = 0usize;
        for t in 0..ntasks {
            let take = elem_bounds[t + 1] - elem_bounds[t];
            let mut seg_keys = Vec::with_capacity(key_rests.len());
            for kr in key_rests.iter_mut() {
                let (head, tail) = std::mem::take(kr).split_at_mut(take);
                *kr = tail;
                seg_keys.push(head);
            }
            let (vhead, vtail) = std::mem::take(&mut val_rest).split_at_mut(take);
            val_rest = vtail;
            let buckets = slice_starts[task_buckets[t]..=task_buckets[t + 1]]
                .iter()
                .map(|&s| s - consumed)
                .collect();
            consumed += take;
            segs.push(TaskSeg {
                keys: seg_keys,
                vals: vhead,
                buckets,
            });
        }
    }

    let segs: Vec<Mutex<TaskSeg<'_>>> = segs.into_iter().map(Mutex::new).collect();
    team.coforall(|tid| {
        let mut seg = segs[tid].lock();
        let seg = &mut *seg;
        let nbuckets = seg.buckets.len().saturating_sub(1);
        for b in 0..nbuckets {
            if let Some(g) = guard {
                if g.poll(tid) {
                    break;
                }
            }
            let lo = seg.buckets[b];
            let hi = seg.buckets[b + 1];
            if hi - lo > 1 {
                quicksort_multi(&mut seg.keys, seg.vals, lo, hi, variant);
            }
        }
    });
}

/// Convenience wrapper: sort for CSF construction rooted at `mode`
/// (primary key `mode`, remaining modes in ascending order — SPLATT's
/// default tie order).
pub fn sort_for_mode(tt: &mut SparseTensor, mode: usize, team: &TaskTeam, variant: SortVariant) {
    let order = tt.order();
    let mut perm = Vec::with_capacity(order);
    perm.push(mode);
    perm.extend((0..order).filter(|&m| m != mode));
    sort_by_perm(tt, &perm, team, variant);
}

/// Per-task histograms of `key` over each task's `partition::block` of
/// the nonzeros: `counts[t][s]` entries of task `t` fall in slice `s`.
fn task_histograms(key: &[u32], dim: usize, team: &TaskTeam) -> Vec<Vec<usize>> {
    let (nnz, ntasks) = (key.len(), team.ntasks());
    let mut task_counts: Vec<Vec<usize>> = vec![Vec::new(); ntasks];
    let slots: Vec<Mutex<&mut Vec<usize>>> = task_counts.iter_mut().map(Mutex::new).collect();
    team.coforall(|tid| {
        let mut counts = vec![0usize; dim];
        for x in partition::block(nnz, ntasks, tid) {
            counts[key[x] as usize] += 1;
        }
        **slots[tid].lock() = counts;
    });
    drop(slots);
    task_counts
}

/// Bucket start offsets (`dim + 1` entries) of the per-task histograms.
fn slice_starts_of(task_counts: &[Vec<usize>], dim: usize) -> Vec<usize> {
    let mut slice_starts = vec![0usize; dim + 1];
    for s in 0..dim {
        let total: usize = task_counts.iter().map(|c| c[s]).sum();
        slice_starts[s + 1] = slice_starts[s] + total;
    }
    slice_starts
}

/// Parallel counting sort of all index/value arrays by mode `primary`.
/// Returns the `dim + 1` bucket start offsets.
fn counting_sort(
    tt: &mut SparseTensor,
    primary: usize,
    dim: usize,
    team: &TaskTeam,
    variant: SortVariant,
) -> Vec<usize> {
    let nnz = tt.nnz();
    let ntasks = team.ntasks();
    let order = tt.order();

    // per-task histograms over the task's block of nonzeros
    let task_counts = task_histograms(tt.ind(primary), dim, team);

    // bucket starts and per-(task, slice) scatter offsets
    let slice_starts = slice_starts_of(&task_counts, dim);
    // task_offsets[t][s] = first output position task t writes in slice s
    let mut task_offsets: Vec<Vec<usize>> = vec![vec![0usize; dim]; ntasks];
    for s in 0..dim {
        let mut off = slice_starts[s];
        for t in 0..ntasks {
            task_offsets[t][s] = off;
            off += task_counts[t][s];
        }
    }

    // scatter into auxiliary buffers
    let mut aux_inds: Vec<Vec<u32>> = vec![vec![0u32; nnz]; order];
    let mut aux_vals: Vec<f64> = vec![0.0; nnz];
    {
        /// Shared writable view; tasks write disjoint positions.
        struct Scatter {
            inds: Vec<*mut u32>,
            vals: *mut f64,
        }
        // SAFETY: per-(task, slice) output ranges are disjoint by
        // construction of `task_offsets`, and each task writes each of its
        // input positions exactly once, so no two tasks ever write the
        // same element.
        unsafe impl Send for Scatter {}
        unsafe impl Sync for Scatter {}

        let scatter = Scatter {
            inds: aux_inds.iter_mut().map(|v| v.as_mut_ptr()).collect(),
            vals: aux_vals.as_mut_ptr(),
        };
        let src_inds: Vec<&[u32]> = (0..order).map(|m| tt.ind(m)).collect();
        let src_vals = tt.vals();
        let offsets: Vec<Mutex<Vec<usize>>> = task_offsets.into_iter().map(Mutex::new).collect();

        // Capture the whole struct (not its raw-pointer fields, which the
        // 2021 disjoint-capture rules would otherwise pull out one by one,
        // bypassing the Send/Sync impls).
        let scatter = &scatter;
        let (task_counts, slice_starts) = (&task_counts, &slice_starts);
        team.coforall(|tid| {
            let mut off = offsets[tid].lock();
            for x in partition::block(nnz, ntasks, tid) {
                let s = src_inds[primary][x] as usize;
                let dst = off[s];
                off[s] += 1;
                // Shadow bounds checks of the raw writes below: `dst` is
                // an element of the buffers, inside the run of slice `s`
                // that task `tid` owns.
                debug_assert!(dst < nnz, "scatter to {dst} of {nnz}");
                debug_assert!(
                    {
                        let first = slice_starts[s]
                            + task_counts[..tid].iter().map(|c| c[s]).sum::<usize>();
                        (first..first + task_counts[tid][s]).contains(&dst)
                    },
                    "task {tid} scattered outside its run of slice {s}"
                );
                // SAFETY: `dst` is within `0..nnz` and owned exclusively by
                // this (task, slice) pair; see Scatter's safety comment.
                unsafe {
                    for (m, src) in src_inds.iter().enumerate() {
                        *scatter.inds[m].add(dst) = src[x];
                    }
                    *scatter.vals.add(dst) = src_vals[x];
                }
            }
        });
    }

    // hand the sorted buffers back to the tensor: copy (Chapel-initial
    // slice assignment) or swap (C pointer reassignment)
    let (inds, vals) = tt.parts_mut();
    if variant.copy_buffers() {
        for (dst, src) in inds.iter_mut().zip(&aux_inds) {
            chapel_slice_assign(dst, src);
        }
        chapel_slice_assign(vals, &aux_vals);
    } else {
        for (dst, src) in inds.iter_mut().zip(aux_inds.iter_mut()) {
            std::mem::swap(dst, src);
        }
        std::mem::swap(vals, &mut aux_vals);
    }

    slice_starts
}

/// Element-wise buffer copy through a simulated Chapel array-view access
/// path.
///
/// Chapel's (pre-1.17) slice assignment walks an array-view descriptor —
/// per element it dereferences the view, applies the domain's stride map,
/// and bounds-checks — which is why the paper found it "contributed the
/// most to the sorting runtime" and got a 4x whole-sort win by replacing
/// it with pointer reassignment. A plain Rust `copy_from_slice` compiles
/// to `memcpy` and would erase the modeled behaviour entirely, so the
/// copy-based variants route through this accessor: a heap-allocated view
/// descriptor plus per-element stride arithmetic that `black_box` keeps
/// out of the vectorizer's reach.
fn chapel_slice_assign<T: Copy>(dst: &mut [T], src: &[T]) {
    assert_eq!(dst.len(), src.len(), "slice assignment length mismatch");
    // (offset, length, stride): the modeled domain/view descriptor
    let desc = std::hint::black_box(Box::new((0usize, src.len(), 1usize)));
    for i in 0..src.len() {
        let idx = view_index(&desc, i);
        dst[idx] = src[idx];
    }
}

/// One simulated array-view index computation: an out-of-line call (view
/// element access does not inline in the modeled Chapel) that chases the
/// descriptor and applies the stride map. Keeping this un-inlined is what
/// prevents the copy loop from collapsing into `memcpy`.
#[inline(never)]
fn view_index(desc: &(usize, usize, usize), i: usize) -> usize {
    let idx = desc.0 + i * desc.2;
    debug_assert!(idx < desc.1);
    std::hint::black_box(idx)
}

/// Bits that hold every value below `n` (0 for `n <= 1`).
fn bits_below(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// The `usize` with the low `bits` set.
fn low_mask(bits: u32) -> usize {
    1usize.checked_shl(bits).map_or(usize::MAX, |b| b - 1)
}

/// Where the fields of a packed key sit: one coordinate field per tree
/// level below the root, the shallowest highest, above the entry index.
/// The root has no field: the counting pass puts each key in its root
/// slice's bucket, and the bucket starts hold the root index.
#[derive(Debug, Clone)]
struct KeyLayout {
    /// Mode stored at each level.
    perm: Vec<usize>,
    /// Width of each level's field: the bits below its mode's dim (0 for
    /// the root).
    width: Vec<u32>,
    /// Lowest bit of each level's field (0 for a field of no bits).
    shift: Vec<u32>,
    /// Mask of each level's field once shifted down.
    mask: Vec<usize>,
    /// Width of the entry index, the key's lowest field.
    index_bits: u32,
    /// `level_of_bit[b]`: the level whose field holds bit `b` — the leaf
    /// level for the index bits, where duplicate coordinates differ.
    level_of_bit: Vec<usize>,
}

impl KeyLayout {
    /// The layout of `tt`'s keys in level order `perm`, and its width.
    fn new(tt: &SparseTensor, perm: &[usize]) -> (Self, u32) {
        let mut width: Vec<u32> = perm.iter().map(|&m| bits_below(tt.dims()[m])).collect();
        width[0] = 0;
        let index_bits = bits_below(tt.nnz());
        let total = width.iter().sum::<u32>() + index_bits;
        let leaf = perm.len() - 1;
        let mut level_of_bit = vec![leaf; index_bits as usize];
        let mut shift = vec![0; perm.len()];
        let mut low = index_bits;
        for l in (0..perm.len()).rev() {
            if width[l] > 0 {
                shift[l] = low;
            }
            level_of_bit.extend(std::iter::repeat_n(l, width[l] as usize));
            low += width[l];
        }
        let layout = KeyLayout {
            perm: perm.to_vec(),
            mask: width.iter().map(|&w| low_mask(w)).collect(),
            width,
            shift,
            index_bits,
            level_of_bit,
        };
        (layout, total)
    }

    /// Nonzero `x`'s key: its coordinate below the root in level order,
    /// then `x`.
    #[inline]
    fn pack(&self, streams: &[&[u32]], x: usize) -> u64 {
        let key = streams
            .iter()
            .zip(&self.width)
            .skip(1)
            .fold(0u64, |k, (s, &w)| {
                debug_assert!(
                    u64::from(s[x]) >> w == 0,
                    "index {} wider than {w} bits",
                    s[x]
                );
                (k << w) | u64::from(s[x])
            });
        (key << self.index_bits) | x as u64
    }

    /// The field of level `level` (below the root) in `key`.
    #[inline]
    fn field(&self, key: u64, level: usize) -> u32 {
        ((key >> self.shift[level]) as usize & self.mask[level]) as u32
    }

    /// The LSD passes over the coordinate bits, as `(shift, width)`: as
    /// few passes of at most [`RADIX_BITS`] as cover them, of near-equal
    /// widths.
    fn radix_passes(&self) -> Vec<(u32, u32)> {
        let coordinate: u32 = self.width.iter().sum();
        let width = coordinate.div_ceil(coordinate.div_ceil(RADIX_BITS).max(1));
        (0..coordinate)
            .step_by(width.max(1) as usize)
            .map(|lo| (self.index_bits + lo, width.min(coordinate - lo)))
            .collect()
    }
}

/// Widest digit an LSD pass sorts on: a 2048-entry histogram of `usize`
/// stays in L1.
const RADIX_BITS: u32 = 11;

/// Buckets shorter than this are sorted by comparison instead: below it,
/// clearing and scanning the histograms of the radix passes costs more
/// than the keys. The keys are distinct, so both give the one order.
/// (`cpd_yelp`'s YELP shape keeps 68 % and 95 % of its keys in such
/// buckets, and its two-tree build takes 1.6–1.9x as long without the
/// cutoff; EXPERIMENTS.md, "The Sort routine at radix speed".)
const RADIX_MIN_LEN: usize = 256;

/// A tensor's nonzeros as packed keys sorted by a level order: what
/// [`sort_keys`] returns. Entry `x` of the sorted order reads its
/// coordinate off its key and its root slice ([`SortedKeys::index`]);
/// the values come in that order out of [`SortedKeys::values`].
#[derive(Debug, Clone)]
pub struct SortedKeys {
    keys: Vec<u64>,
    /// Where each root slice's run of `keys` starts: `dim + 1` entries
    /// (one for a tensor without nonzeros).
    starts: Vec<usize>,
    layout: KeyLayout,
}

impl SortedKeys {
    /// `true` when the keys are in order — always, unless a guard
    /// cancelled the sort before its last bucket.
    pub fn is_sorted(&self) -> bool {
        self.starts
            .windows(2)
            .all(|w| self.keys[w[0]..w[1]].is_sorted())
    }

    /// The tree level at which each entry, in order, opens a new fiber: 0
    /// where a root slice begins, else the level whose field holds the
    /// highest bit at which its key differs from its predecessor's — the
    /// leaf level when only the index bits differ (a duplicate
    /// coordinate).
    pub fn open_levels(&self) -> impl Iterator<Item = usize> + '_ {
        // the end of the root slice entry `x` is in
        let mut ends = self.starts[1..].iter().copied();
        let mut end = 0;
        self.keys.iter().enumerate().map(move |(x, &key)| {
            if x == end {
                end = ends
                    .find(|&e| e > x)
                    .expect("the last root slice ends at the key count");
                return 0;
            }
            let top = u64::BITS - 1 - (key ^ self.keys[x - 1]).leading_zeros();
            self.layout.level_of_bit[top as usize]
        })
    }

    /// Entry `x`'s index at tree `level`: its index in mode `perm[level]`.
    /// The root's is a binary search over the root slices' starts.
    #[inline]
    pub fn index(&self, x: usize, level: usize) -> u32 {
        if level == 0 {
            return (self.starts.partition_point(|&s| s <= x) - 1) as u32;
        }
        self.layout.field(self.keys[x], level)
    }

    /// The values of `src`, the tensor the keys were sorted from, in the
    /// keys' order: gathered once through their index bits into a fresh
    /// buffer, written front to back. (Collecting them into the keys'
    /// own buffer would save 8 B per nonzero of peak memory; EXPERIMENTS.md,
    /// "The Sort routine at radix speed", records why it is not done.)
    pub fn values(&self, src: &[f64]) -> Vec<f64> {
        let entry = low_mask(self.layout.index_bits);
        self.keys.iter().map(|&k| src[k as usize & entry]).collect()
    }

    /// Put the tensor the keys were sorted from in their order: the root
    /// index array filled slice by slice, every other decoded from the
    /// keys, the values gathered once.
    fn apply(self, tt: &mut SparseTensor) {
        let (inds, vals) = tt.parts_mut();
        let l = &self.layout;
        for (s, w) in self.starts.windows(2).enumerate() {
            inds[l.perm[0]][w[0]..w[1]].fill(s as u32);
        }
        for level in 1..l.perm.len() {
            for (ind, &k) in inds[l.perm[level]].iter_mut().zip(&self.keys) {
                *ind = l.field(k, level);
            }
        }
        *vals = self.values(vals);
    }
}

/// The default sort, without touching the tensor: `tt`'s nonzeros
/// packed into keys — coordinate fields below the root in level order
/// `perm`, above the entry index — and sorted on `team`
/// ([`SortVariant::KeyIndex`]). Tasks poll `guard` between buckets; a
/// cancelled sort returns the keys as far as it got, still one per
/// nonzero in its root slice ([`SortedKeys::is_sorted`] tells). `None`
/// when the keys would need more than 64 bits.
///
/// # Panics
/// Panics if `perm` is not a permutation of `0..order`.
pub fn sort_keys(
    tt: &SparseTensor,
    perm: &[usize],
    team: &TaskTeam,
    guard: Option<&splatt_guard::RunGuard>,
) -> Option<SortedKeys> {
    assert_permutation(perm, tt.order());
    let (layout, bits) = KeyLayout::new(tt, perm);
    if bits > u64::BITS {
        return None;
    }
    let (mut keys, mut starts) = (Vec::new(), vec![0]);
    if tt.nnz() > 0 {
        (keys, starts) = root_pass(tt, &layout, team);
        sort_buckets(&mut keys, &starts, &layout, team, guard);
    }
    Some(SortedKeys {
        keys,
        starts,
        layout,
    })
}

/// Pack every nonzero's key and counting-sort the keys on the root mode:
/// the histograms and per-(task, slice) runs of `counting_sort`, each run
/// a subslice of its own. Returns the keys and the `dim + 1` bucket
/// starts.
fn root_pass(tt: &SparseTensor, layout: &KeyLayout, team: &TaskTeam) -> (Vec<u64>, Vec<usize>) {
    let (nnz, ntasks) = (tt.nnz(), team.ntasks());
    let dim = tt.dims()[layout.perm[0]];
    let streams: Vec<&[u32]> = layout.perm.iter().map(|&m| tt.ind(m)).collect();
    let task_counts = task_histograms(streams[0], dim, team);
    let slice_starts = slice_starts_of(&task_counts, dim);

    let mut keys = vec![0u64; nnz];
    {
        // runs[t][s]: where task t's keys of slice s go, in output order
        let mut runs: Vec<Vec<std::slice::IterMut<'_, u64>>> =
            (0..ntasks).map(|_| Vec::with_capacity(dim)).collect();
        let mut rest = keys.as_mut_slice();
        for s in 0..dim {
            for (t, counts) in task_counts.iter().enumerate() {
                let (run, tail) = std::mem::take(&mut rest).split_at_mut(counts[s]);
                rest = tail;
                runs[t].push(run.iter_mut());
            }
        }
        let runs: Vec<Mutex<Vec<std::slice::IterMut<'_, u64>>>> =
            runs.into_iter().map(Mutex::new).collect();
        team.coforall(|tid| {
            let mut runs = runs[tid].lock();
            for x in partition::block(nnz, ntasks, tid) {
                let slot = runs[streams[0][x] as usize]
                    .next()
                    .expect("a run holds its task's count of its slice");
                *slot = layout.pack(&streams, x);
            }
        });
    }
    (keys, slice_starts)
}

/// Per-task buffers of [`radix_sort_bucket`], reused across the task's
/// buckets (they grow to its largest bucket, not to the tensor).
struct RadixScratch {
    keys: Vec<u64>,
    counts: Vec<usize>,
}

/// Sort every bucket on its coordinate bits, the buckets split over
/// tasks by `partition::weighted` of their sizes as the quicksort's are.
/// Each task polls `guard` before each bucket.
fn sort_buckets(
    keys: &mut [u64],
    slice_starts: &[usize],
    layout: &KeyLayout,
    team: &TaskTeam,
    guard: Option<&splatt_guard::RunGuard>,
) {
    let ntasks = team.ntasks();
    let bucket_sizes: Vec<usize> = slice_starts.windows(2).map(|w| w[1] - w[0]).collect();
    let task_buckets = partition::weighted(&partition::prefix_sum(&bucket_sizes), ntasks);
    let mut segs = Vec::with_capacity(ntasks);
    let mut rest = keys;
    for t in 0..ntasks {
        let starts = &slice_starts[task_buckets[t]..=task_buckets[t + 1]];
        let (seg, tail) =
            std::mem::take(&mut rest).split_at_mut(starts[starts.len() - 1] - starts[0]);
        rest = tail;
        segs.push(Mutex::new((seg, starts)));
    }
    let passes = layout.radix_passes();
    team.coforall(|tid| {
        let mut seg = segs[tid].lock();
        let (seg, starts) = &mut *seg;
        let mut scratch = RadixScratch {
            keys: Vec::new(),
            counts: Vec::new(),
        };
        for w in starts.windows(2) {
            if guard.is_some_and(|g| g.poll(tid)) {
                break;
            }
            let bucket = &mut seg[w[0] - starts[0]..w[1] - starts[0]];
            radix_sort_bucket(bucket, &passes, &mut scratch);
        }
    });
}

/// LSD radix sort of one bucket on the digits `passes` (`(shift, width)`,
/// least significant first). The bucket's keys arrive in input order, so
/// sorting their coordinate bits stably sorts them whole. One read fills
/// every pass's histogram.
fn radix_sort_bucket(bucket: &mut [u64], passes: &[(u32, u32)], scratch: &mut RadixScratch) {
    let n = bucket.len();
    if n < RADIX_MIN_LEN {
        bucket.sort_unstable();
        return;
    }
    let RadixScratch { keys, counts } = scratch;
    counts.clear();
    counts.resize(passes.len() << RADIX_BITS, 0);
    let digit = |k: u64, shift: u32, width: u32| (k >> shift) as usize & low_mask(width);
    for &k in bucket.iter() {
        for (p, &(shift, width)) in passes.iter().enumerate() {
            counts[(p << RADIX_BITS) + digit(k, shift, width)] += 1;
        }
    }
    keys.resize(n, 0);
    let (mut src, mut dst) = (bucket, &mut keys[..n]);
    for (p, &(shift, width)) in passes.iter().enumerate() {
        let next = &mut counts[p << RADIX_BITS..][..1 << width];
        let mut start = 0;
        for c in next.iter_mut() {
            (*c, start) = (start, start + *c);
        }
        for &k in src.iter() {
            let d = digit(k, shift, width);
            dst[next[d]] = k;
            next[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    // an odd number of passes left the keys in the scratch buffer
    if passes.len() % 2 == 1 {
        dst.copy_from_slice(src);
    }
}

/// Below this segment length, fall back to insertion sort.
const INSERTION_THRESHOLD: usize = 16;

#[inline]
fn less(keys: &[&mut [u32]], a: usize, b: usize) -> bool {
    for k in keys {
        match k[a].cmp(&k[b]) {
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal => continue,
        }
    }
    false
}

#[inline]
fn swap_entries(keys: &mut [&mut [u32]], vals: &mut [f64], a: usize, b: usize) {
    for k in keys.iter_mut() {
        k.swap(a, b);
    }
    vals.swap(a, b);
}

/// `true` if entry `x`'s keys are lexicographically below the pivot tuple.
#[inline]
fn below_pivot(keys: &[&mut [u32]], x: usize, pivot: &[u32]) -> bool {
    for (k, &p) in keys.iter().zip(pivot) {
        match k[x].cmp(&p) {
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal => continue,
        }
    }
    false
}

/// Multi-key quicksort over parallel arrays on `lo..hi`.
///
/// The `variant` knob reproduces the paper's Array-opt finding: the
/// unoptimized path heap-allocates the pivot key tuple on every partition
/// call (the Chapel code's per-call local array), the optimized path keeps
/// it in a fixed-size stack buffer.
fn quicksort_multi(
    keys: &mut [&mut [u32]],
    vals: &mut [f64],
    lo: usize,
    hi: usize,
    variant: SortVariant,
) {
    if hi - lo <= INSERTION_THRESHOLD {
        insertion_sort(keys, vals, lo, hi);
        return;
    }

    // median-of-3 pivot selection, moved to position hi-1
    let mid = lo + (hi - lo) / 2;
    if less(keys, mid, lo) {
        swap_entries(keys, vals, mid, lo);
    }
    if less(keys, hi - 1, lo) {
        swap_entries(keys, vals, hi - 1, lo);
    }
    if less(keys, hi - 1, mid) {
        swap_entries(keys, vals, hi - 1, mid);
    }
    swap_entries(keys, vals, mid, hi - 1);
    let pivot_idx = hi - 1;

    // partition (Lomuto) against the pivot's key tuple
    let store = if variant.alloc_in_partition() {
        // Chapel-initial behaviour: a fresh heap allocation per call.
        let pivot: Vec<u32> = keys.iter().map(|k| k[pivot_idx]).collect();
        partition_range(keys, vals, lo, pivot_idx, &pivot)
    } else {
        // Optimized: pivot keys in a fixed stack buffer (scalar locals in
        // the paper's two-key case).
        let mut buf = [0u32; 8];
        if keys.len() <= buf.len() {
            for (b, k) in buf.iter_mut().zip(keys.iter()) {
                *b = k[pivot_idx];
            }
            let nkeys = keys.len();
            partition_range(keys, vals, lo, pivot_idx, &buf[..nkeys])
        } else {
            // pathological order (> 9 modes): allocation is unavoidable
            let pivot: Vec<u32> = keys.iter().map(|k| k[pivot_idx]).collect();
            partition_range(keys, vals, lo, pivot_idx, &pivot)
        }
    };
    swap_entries(keys, vals, store, pivot_idx);

    quicksort_multi(keys, vals, lo, store, variant);
    quicksort_multi(keys, vals, store + 1, hi, variant);
}

/// Lomuto partition of `lo..pivot_idx` against `pivot`; returns the final
/// pivot position.
#[inline]
fn partition_range(
    keys: &mut [&mut [u32]],
    vals: &mut [f64],
    lo: usize,
    pivot_idx: usize,
    pivot: &[u32],
) -> usize {
    let mut store = lo;
    for x in lo..pivot_idx {
        if below_pivot(keys, x, pivot) {
            swap_entries(keys, vals, store, x);
            store += 1;
        }
    }
    store
}

fn insertion_sort(keys: &mut [&mut [u32]], vals: &mut [f64], lo: usize, hi: usize) {
    for i in (lo + 1)..hi {
        let mut j = i;
        while j > lo && less(keys, j, j - 1) {
            swap_entries(keys, vals, j, j - 1);
            j -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;
    use std::sync::atomic::Ordering as AtomicOrdering;

    /// The mixed-radix bases of [`key_index_sort`]'s packed key — the dims
    /// of the remaining modes in comparison order — or `None` when their
    /// product does not fit a `u64`.
    fn key_radices(dims: impl Iterator<Item = usize>) -> Option<Vec<u64>> {
        let radices: Vec<u64> = dims.map(|d| d as u64).collect();
        radices
            .iter()
            .try_fold(1u64, |product, &r| product.checked_mul(r))
            .map(|_| radices)
    }

    /// Per-task buffers of [`key_index_sort`], reused across the task's
    /// buckets (they grow to its largest bucket, not to the tensor).
    #[derive(Default)]
    struct KeyIndexScratch {
        pairs: Vec<(u64, usize)>,
        inds: Vec<u32>,
        vals: Vec<f64>,
    }

    /// The oracle: `KeyIndex`'s per-bucket body before the radix sort.
    /// Sort bucket `lo..hi` of the parallel arrays by `keys`: pack each
    /// entry's keys mixed-radix into a `u64` (order-preserving, since every
    /// key is below its radix), sort `(key, index in bucket)` pairs, then
    /// move every array through the permutation once. Equal keys order by
    /// input index, so the sort is stable. A bucket whose packed keys are
    /// already non-decreasing is left as it is.
    fn key_index_sort(
        keys: &mut [&mut [u32]],
        vals: &mut [f64],
        lo: usize,
        hi: usize,
        radices: &[u64],
        scratch: &mut KeyIndexScratch,
    ) {
        let pairs = &mut scratch.pairs;
        pairs.clear();
        pairs.extend((0..hi - lo).map(|i| (0u64, i)));
        for (k, &radix) in keys.iter().zip(radices) {
            for (p, &ix) in pairs.iter_mut().zip(&k[lo..hi]) {
                p.0 = p.0 * radix + u64::from(ix);
            }
        }
        if pairs.windows(2).all(|w| w[0].0 <= w[1].0) {
            return;
        }
        pairs.sort_unstable();
        for k in keys.iter_mut() {
            let bucket = &mut k[lo..hi];
            scratch.inds.clear();
            scratch.inds.extend(pairs.iter().map(|&(_, i)| bucket[i]));
            bucket.copy_from_slice(&scratch.inds);
        }
        let bucket = &mut vals[lo..hi];
        scratch.vals.clear();
        scratch.vals.extend(pairs.iter().map(|&(_, i)| bucket[i]));
        bucket.copy_from_slice(&scratch.vals);
    }

    /// `t` sorted by `perm` the way `KeyIndex` sorted it before the radix
    /// sort: the counting sort, then [`key_index_sort`] on every bucket
    /// (the task count does not change the order, so one task runs it).
    /// `None` where the packed keys of the remaining modes overflowed a
    /// `u64` — the quicksort ran there.
    fn oracle_sorted(t: &SparseTensor, perm: &[usize]) -> Option<SparseTensor> {
        let radices = key_radices(perm[1..].iter().map(|&m| t.dims()[m]))?;
        let mut t = t.clone();
        if t.nnz() <= 1 || is_strictly_sorted_by(&t, perm) {
            return Some(t);
        }
        let dim = t.dims()[perm[0]];
        let starts = counting_sort(
            &mut t,
            perm[0],
            dim,
            &TaskTeam::new(1),
            SortVariant::AllOpts,
        );
        let (inds, vals) = t.parts_mut();
        let mut remaining: Vec<Option<&mut Vec<u32>>> = inds.iter_mut().map(Some).collect();
        let mut keys: Vec<&mut [u32]> = perm[1..]
            .iter()
            .map(|&m| remaining[m].take().unwrap().as_mut_slice())
            .collect();
        let mut scratch = KeyIndexScratch::default();
        for w in starts.windows(2) {
            if w[1] - w[0] > 1 {
                key_index_sort(&mut keys, vals, w[0], w[1], &radices, &mut scratch);
            }
        }
        Some(t)
    }

    /// `t` sorted by `perm` with the standard library's stable sort.
    fn stable_sorted(t: &SparseTensor, perm: &[usize]) -> SparseTensor {
        let mut order: Vec<usize> = (0..t.nnz()).collect();
        order.sort_by_key(|&x| perm.iter().map(|&m| t.ind(m)[x]).collect::<Vec<_>>());
        let inds = (0..t.order())
            .map(|m| order.iter().map(|&x| t.ind(m)[x]).collect())
            .collect();
        let vals = order.iter().map(|&x| t.vals()[x]).collect();
        SparseTensor::from_parts(t.dims().to_vec(), inds, vals)
    }

    /// Bits of every value, in order: the values are all distinct, so
    /// two sorts that place any entry differently differ here.
    fn val_bits(t: &SparseTensor) -> Vec<u64> {
        t.vals().iter().map(|v| v.to_bits()).collect()
    }

    /// `KeyIndex` must order `t` exactly as the oracle — or, where the
    /// oracle ran the quicksort, as a stable sort — coordinate and value
    /// bits alike, at `ntasks`.
    fn assert_key_index_order(t: &SparseTensor, perm: &[usize], ntasks: usize) {
        let mut got = t.clone();
        sort_by_perm(
            &mut got,
            perm,
            &TaskTeam::new(ntasks),
            SortVariant::KeyIndex,
        );
        let want = stable_sorted(t, perm);
        if let Some(oracle) = oracle_sorted(t, perm) {
            assert_eq!(oracle, want, "oracle is not the stable order");
        }
        assert_eq!(got.dims(), want.dims());
        for m in 0..t.order() {
            assert_eq!(
                got.ind(m),
                want.ind(m),
                "mode {m} under {perm:?}, {ntasks} tasks"
            );
        }
        assert_eq!(val_bits(&got), val_bits(&want), "values under {perm:?}");
    }

    /// A tensor at the edges the packed key has: `order` modes, each dim
    /// 1, 2^k, 2^k + 1 or drawn (a field's width at its edges); nnz 0, 1,
    /// 2^k, 2^k + 1 or drawn (the index's); coordinates drawn, or from
    /// the first two indices per mode (duplicate-heavy); entries as drawn,
    /// already sorted by `perm` or in reverse. Values are distinct.
    fn edge_tensor(g: &mut splatt_rt::qc::Gen, order: usize, perm: &[usize]) -> SparseTensor {
        let edge = |g: &mut splatt_rt::qc::Gen, drawn: usize| {
            let k = g.range(0..9u32);
            match g.usize_in(0..5) {
                0 => 1,
                1 => 1 << k,
                2 => (1 << k) + 1,
                3 => 0,
                _ => drawn,
            }
        };
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
        match g.usize_in(0..4) {
            0 => stable_sorted(&t, perm),
            1 => {
                let s = stable_sorted(&t, perm);
                let inds = (0..order)
                    .map(|m| s.ind(m).iter().rev().copied().collect())
                    .collect();
                SparseTensor::from_parts(dims, inds, s.vals().iter().rev().copied().collect())
            }
            _ => t,
        }
    }

    /// The radix sort's order is the oracle's, bit for bit: orders 2–5 at
    /// 1, 2 and 3 tasks, over field and index widths at their edges,
    /// duplicate-heavy, sorted, reverse-sorted, empty and singleton
    /// tensors.
    #[test]
    fn key_index_order_equals_the_per_bucket_oracle() {
        splatt_rt::qc::check("key-index radix == per-bucket oracle", 160, |g| {
            let order = g.usize_in(2..6);
            let perm = g.permutation(order);
            let t = edge_tensor(g, order, &perm);
            for ntasks in 1..=3 {
                assert_key_index_order(&t, &perm, ntasks);
            }
        });
    }

    /// The same at the key's word boundary: exactly 64 bits, also with a
    /// root as wide as the other fields (the root has no field), and
    /// past 64 bits — by one more index bit, one more field bit, past the
    /// oracle's `u64` product, and past 128 bits — where `KeyIndex` is
    /// the `AllOpts` sort.
    #[test]
    fn key_index_order_equals_the_oracle_at_the_word_boundaries() {
        let mut state = 7u64;
        let mut next = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 24) % m) as u32
        };
        // few distinct indices per mode, near both ends, so every field
        // decides some comparisons
        let mut tensor = |dims: Vec<usize>, nnz: usize| {
            let mut t = SparseTensor::new(dims.clone());
            for n in 0..nnz {
                let coord: Vec<u32> = dims
                    .iter()
                    .map(|&d| {
                        let near = next(4).min(d as u32 - 1);
                        if next(2) == 0 {
                            near
                        } else {
                            d as u32 - 1 - near
                        }
                    })
                    .collect();
                t.push(&coord, f64::from(n as u32));
            }
            t
        };
        let k14 = 1 << 14;
        let big = u32::MAX as usize;
        for (dims, nnz, radix) in [
            (vec![3, k14, k14, k14, k14], 256, true),
            (vec![k14; 5], 256, true),
            (vec![3, k14, k14, k14, k14], 257, false),
            (vec![3, k14 + 1, k14, k14, k14], 256, false),
            (vec![6, 70_000, 70_000, 70_000, 70_000], 3_000, false),
            (vec![3, big, big, big, big], 300, false),
        ] {
            let t = tensor(dims, nnz);
            let perm: Vec<usize> = (0..t.order()).collect();
            let keyed = sort_keys(&t, &perm, &TaskTeam::new(1), None).is_some();
            assert_eq!(keyed, radix, "dims {:?}", t.dims());
            for ntasks in 1..=3 {
                match radix {
                    true => assert_key_index_order(&t, &perm, ntasks),
                    false => {
                        let team = TaskTeam::new(ntasks);
                        let (mut got, mut want) = (t.clone(), t.clone());
                        sort_by_perm(&mut got, &perm, &team, SortVariant::KeyIndex);
                        sort_by_perm(&mut want, &perm, &team, SortVariant::AllOpts);
                        assert_eq!(got, want);
                        check_sorted(&got, &perm);
                    }
                }
            }
        }
        // the oracle has no `u64` for four remaining dims of 70 000
        assert!(key_radices([70_000usize; 4].into_iter()).is_none());
    }

    #[test]
    fn a_cancelled_key_sort_returns_one_key_per_nonzero() {
        let t = synth::random_uniform(&[50, 30, 30], 5_000, 5);
        let guard = splatt_guard::RunGuard::unarmed();
        guard.cancel();
        let keys = sort_keys(&t, &[0, 1, 2], &TaskTeam::new(2), Some(&guard))
            .expect("5 000 nonzeros of 50 x 30 x 30 pack into a u64");
        assert!(!keys.is_sorted());
        let coords: Vec<Vec<u32>> = (0..keys.keys.len())
            .map(|x| (0..3).map(|l| keys.index(x, l)).collect())
            .collect();
        let mut got: Vec<(Vec<u32>, u64)> = coords
            .into_iter()
            .zip(keys.values(t.vals()))
            .map(|(c, v)| (c, v.to_bits()))
            .collect();
        let mut want: Vec<(Vec<u32>, u64)> = (0..t.nnz())
            .map(|x| (t.coord(x), t.vals()[x].to_bits()))
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    fn check_sorted(tt: &SparseTensor, perm: &[usize]) {
        assert!(tt.is_sorted_by(perm), "tensor not sorted by {perm:?}");
    }

    fn sort_preserves_and_orders(variant: SortVariant, ntasks: usize) {
        let team = TaskTeam::new(ntasks);
        let mut tt = synth::power_law(&[40, 30, 50], 5_000, 1.7, 99);
        let before = tt.canonical_entries();
        for mode in 0..3 {
            sort_for_mode(&mut tt, mode, &team, variant);
            let mut perm = vec![mode];
            perm.extend((0..3).filter(|&m| m != mode));
            check_sorted(&tt, &perm);
            assert_eq!(tt.canonical_entries(), before, "entries changed");
        }
    }

    /// Figure 1's four series plus the default.
    fn every_variant() -> impl Iterator<Item = SortVariant> {
        SortVariant::ALL.into_iter().chain([SortVariant::KeyIndex])
    }

    #[test]
    fn all_variants_sort_correctly_single_task() {
        for v in every_variant() {
            sort_preserves_and_orders(v, 1);
        }
    }

    #[test]
    fn all_variants_sort_correctly_multi_task() {
        for v in every_variant() {
            sort_preserves_and_orders(v, 4);
        }
    }

    #[test]
    fn paper_matrix_is_four_series_and_key_index_is_the_default() {
        assert_eq!(SortVariant::ALL.len(), 4);
        assert!(!SortVariant::ALL.contains(&SortVariant::KeyIndex));
        assert_eq!(SortVariant::default(), SortVariant::KeyIndex);
    }

    #[test]
    fn sort_by_custom_perm() {
        let team = TaskTeam::new(2);
        let mut tt = synth::random_uniform(&[20, 20, 20], 2_000, 5);
        sort_by_perm(&mut tt, &[2, 0, 1], &team, SortVariant::AllOpts);
        check_sorted(&tt, &[2, 0, 1]);
    }

    #[test]
    fn sort_empty_and_singleton() {
        let team = TaskTeam::new(2);
        let mut empty = SparseTensor::new(vec![5, 5, 5]);
        sort_for_mode(&mut empty, 0, &team, SortVariant::AllOpts);
        assert_eq!(empty.nnz(), 0);

        let mut single = SparseTensor::from_entries(vec![5, 5, 5], &[(vec![4, 3, 2], 1.0)]);
        sort_for_mode(&mut single, 1, &team, SortVariant::Initial);
        assert_eq!(single.nnz(), 1);
        assert_eq!(single.coord(0), vec![4, 3, 2]);
    }

    #[test]
    fn sort_with_heavy_duplicate_keys() {
        // every nonzero in the same primary slice: exercises one giant
        // bucket through the quicksort
        let mut tt = SparseTensor::new(vec![4, 100, 100]);
        let mut state = 12345u64;
        for _ in 0..3_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = ((state >> 20) % 100) as u32;
            let k = ((state >> 40) % 100) as u32;
            tt.push(&[2, j, k], 1.0);
        }
        let before = tt.canonical_entries();
        let team = TaskTeam::new(3);
        sort_for_mode(&mut tt, 0, &team, SortVariant::AllOpts);
        check_sorted(&tt, &[0, 1, 2]);
        assert_eq!(tt.canonical_entries(), before);
    }

    #[test]
    fn sort_already_sorted_input() {
        let team = TaskTeam::new(2);
        let mut tt = synth::random_uniform(&[15, 15, 15], 1_000, 8);
        sort_for_mode(&mut tt, 0, &team, SortVariant::AllOpts);
        let snapshot = tt.clone();
        sort_for_mode(&mut tt, 0, &team, SortVariant::AllOpts);
        // Coordinate order is fully determined; values attached to
        // duplicate coordinates may legally permute among themselves.
        for m in 0..3 {
            assert_eq!(tt.ind(m), snapshot.ind(m), "mode {m} order changed");
        }
        assert_eq!(tt.canonical_entries(), snapshot.canonical_entries());
    }

    #[test]
    fn sort_reverse_sorted_input() {
        let mut tt = SparseTensor::new(vec![50, 50, 50]);
        for i in (0..50u32).rev() {
            for j in (0..10u32).rev() {
                tt.push(&[i, j, (i + j) % 50], (i + j) as f64);
            }
        }
        let before = tt.canonical_entries();
        let team = TaskTeam::new(4);
        sort_for_mode(&mut tt, 0, &team, SortVariant::ArrayOpt);
        check_sorted(&tt, &[0, 1, 2]);
        assert_eq!(tt.canonical_entries(), before);
    }

    #[test]
    fn variants_produce_identical_results() {
        let base = synth::power_law(&[25, 35, 45], 4_000, 2.0, 17);
        let team = TaskTeam::new(2);
        let mut reference = base.clone();
        sort_for_mode(&mut reference, 2, &team, SortVariant::AllOpts);
        for v in [
            SortVariant::Initial,
            SortVariant::ArrayOpt,
            SortVariant::SlicesOpt,
            SortVariant::KeyIndex,
        ] {
            let mut t = base.clone();
            sort_for_mode(&mut t, 2, &team, v);
            // identical full ordering (the sort is deterministic up to
            // equal-key runs; compare coordinate streams)
            for m in 0..3 {
                assert_eq!(
                    t.ind(m),
                    reference.ind(m),
                    "variant {v:?} differs in mode {m}"
                );
            }
        }
    }

    #[test]
    fn four_mode_sort() {
        let team = TaskTeam::new(2);
        let mut tt = synth::random_uniform(&[8, 9, 10, 11], 2_000, 23);
        let before = tt.canonical_entries();
        sort_for_mode(&mut tt, 3, &team, SortVariant::AllOpts);
        check_sorted(&tt, &[3, 0, 1, 2]);
        assert_eq!(tt.canonical_entries(), before);
    }

    #[test]
    fn more_tasks_than_buckets() {
        let team = TaskTeam::new(8);
        let mut tt = synth::random_uniform(&[2, 30, 30], 500, 3);
        let before = tt.canonical_entries();
        sort_for_mode(&mut tt, 0, &team, SortVariant::AllOpts);
        check_sorted(&tt, &[0, 1, 2]);
        assert_eq!(tt.canonical_entries(), before);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_perm_panics() {
        let team = TaskTeam::new(1);
        let mut tt = SparseTensor::new(vec![2, 2, 2]);
        tt.push(&[0, 0, 0], 1.0);
        tt.push(&[1, 1, 1], 1.0);
        sort_by_perm(&mut tt, &[0, 0, 1], &team, SortVariant::AllOpts);
    }

    #[test]
    fn variant_flags_match_paper_matrix() {
        use SortVariant::*;
        assert!(Initial.alloc_in_partition() && Initial.copy_buffers());
        assert!(!ArrayOpt.alloc_in_partition() && ArrayOpt.copy_buffers());
        assert!(SlicesOpt.alloc_in_partition() && !SlicesOpt.copy_buffers());
        assert!(!AllOpts.alloc_in_partition() && !AllOpts.copy_buffers());
        // the overflow fallback runs the optimized quicksort
        assert!(!KeyIndex.alloc_in_partition() && !KeyIndex.copy_buffers());
    }

    /// A random tensor of `order` modes: uniform or power-law, and about
    /// one case in five empty or a singleton. Dims are small, so
    /// duplicate coordinates are common.
    fn gen_tensor(g: &mut splatt_rt::qc::Gen, order: usize) -> SparseTensor {
        let dims: Vec<usize> = (0..order).map(|_| g.usize_in(1..9)).collect();
        let nnz = match g.usize_in(0..10) {
            0 => 0,
            1 => 1,
            _ => g.usize_in(2..300),
        };
        if nnz > 1 && g.bool() {
            return synth::power_law(&dims, nnz, 1.6, g.u64());
        }
        let mut t = SparseTensor::new(dims.clone());
        for _ in 0..nnz {
            let coord: Vec<u32> = dims.iter().map(|&d| g.usize_in(0..d) as u32).collect();
            t.push(&coord, g.f64_in(-5.0, 5.0));
        }
        t
    }

    #[test]
    fn key_index_orders_and_keeps_the_same_entries_as_all_opts() {
        splatt_rt::qc::check("key-index vs all-opts", 96, |g| {
            let order = g.usize_in(3..6);
            let t = gen_tensor(g, order);
            let perm = g.permutation(order);
            let team = TaskTeam::new(g.usize_in(1..4));
            let mut a = t.clone();
            let mut b = t.clone();
            sort_by_perm(&mut a, &perm, &team, SortVariant::KeyIndex);
            sort_by_perm(&mut b, &perm, &team, SortVariant::AllOpts);
            assert!(a.is_sorted_by(&perm), "not sorted under {perm:?}");
            assert_eq!(a.canonical_entries(), b.canonical_entries());
            assert_eq!(a.canonical_entries(), t.canonical_entries());
        });
    }

    /// Values in input order, grouped by coordinate.
    fn values_by_coordinate(t: &SparseTensor) -> std::collections::BTreeMap<Vec<u32>, Vec<u64>> {
        let mut groups = std::collections::BTreeMap::<Vec<u32>, Vec<u64>>::new();
        for x in 0..t.nnz() {
            groups
                .entry(t.coord(x))
                .or_default()
                .push(t.vals()[x].to_bits());
        }
        groups
    }

    /// 2 000 nonzeros on 6 x 5 x 4 = 120 coordinates, every value distinct.
    fn duplicate_heavy() -> SparseTensor {
        let mut t = SparseTensor::new(vec![6, 5, 4]);
        let mut state = 99u64;
        for n in 0..2_000u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let c = [
                ((state >> 20) % 6) as u32,
                ((state >> 30) % 5) as u32,
                ((state >> 40) % 4) as u32,
            ];
            t.push(&c, f64::from(n));
        }
        t
    }

    /// Regression: exact duplicate coordinates used to reach the CSF
    /// leaves — and their floating-point sum — in an order decided by the
    /// quicksort's pivot choices. `KeyIndex` is stable: values of equal
    /// coordinates stay in input order for every root perm and task
    /// count, and re-sorting sorted duplicate-bearing data is the identity.
    #[test]
    fn key_index_keeps_duplicates_in_input_order() {
        let t = duplicate_heavy();
        let expect = values_by_coordinate(&t);
        for ntasks in [1, 3] {
            let team = TaskTeam::new(ntasks);
            for perm in [[0, 1, 2], [1, 0, 2], [2, 1, 0]] {
                let mut sorted = t.clone();
                sort_by_perm(&mut sorted, &perm, &team, SortVariant::KeyIndex);
                assert!(sorted.is_sorted_by(&perm));
                assert_eq!(
                    values_by_coordinate(&sorted),
                    expect,
                    "perm {perm:?} at {ntasks} tasks reordered duplicates"
                );
                let again = {
                    let mut s = sorted.clone();
                    sort_by_perm(&mut s, &perm, &team, SortVariant::KeyIndex);
                    s
                };
                assert_eq!(again, sorted, "re-sort of sorted duplicates moved entries");
            }
        }
        // Stated, not hidden: the paper's quicksort does not have this
        // property — on this very tensor it permutes duplicates.
        let mut quick = t.clone();
        sort_by_perm(
            &mut quick,
            &[0, 1, 2],
            &TaskTeam::new(1),
            SortVariant::AllOpts,
        );
        assert_eq!(quick.canonical_entries(), t.canonical_entries());
        assert_ne!(
            values_by_coordinate(&quick),
            expect,
            "AllOpts kept duplicate order here; pick a tensor where it does not"
        );
    }

    #[test]
    fn guard_cancelled_mid_sort_leaves_a_permutation_of_the_input() {
        // one task, 400 buckets, one guard poll per bucket: a watcher
        // cancels once it has seen the sort poll 40 times
        let team = TaskTeam::new(1);
        let mut tt = synth::random_uniform(&[400, 30, 30], 40_000, 5);
        let before = tt.canonical_entries();
        let guard = splatt_guard::RunGuard::unarmed();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while guard.heartbeats().beats(0) < 40 && !done.load(AtomicOrdering::SeqCst) {
                    std::hint::spin_loop();
                }
                guard.cancel();
            });
            sort_by_perm_guarded(
                &mut tt,
                &[0, 1, 2],
                &team,
                SortVariant::KeyIndex,
                Some(&guard),
            );
            done.store(true, AtomicOrdering::SeqCst);
        });
        assert!(guard.is_cancelled());
        assert_eq!(tt.canonical_entries(), before);
    }

    #[test]
    fn guarded_sort_with_clean_guard_matches_unguarded() {
        let team = TaskTeam::new(3);
        let mut a = synth::random_uniform(&[13, 9, 11], 400, 5);
        let mut b = a.clone();
        sort_by_perm(&mut a, &[1, 0, 2], &team, SortVariant::AllOpts);
        let guard = splatt_guard::RunGuard::unarmed();
        sort_by_perm_guarded(
            &mut b,
            &[1, 0, 2],
            &team,
            SortVariant::AllOpts,
            Some(&guard),
        );
        assert_eq!(a.canonical_entries(), b.canonical_entries());
        assert!(b.is_sorted_by(&[1, 0, 2]));
    }

    #[test]
    fn cancelled_sort_bails_without_panicking_and_preserves_entries() {
        let team = TaskTeam::new(3);
        let mut tt = synth::random_uniform(&[13, 9, 11], 400, 5);
        let before = tt.canonical_entries();
        let guard = splatt_guard::RunGuard::unarmed();
        guard.cancel();
        // The quicksort phase is skipped; the data is merely permuted,
        // never lost or corrupted.
        sort_by_perm_guarded(
            &mut tt,
            &[1, 0, 2],
            &team,
            SortVariant::AllOpts,
            Some(&guard),
        );
        assert_eq!(tt.canonical_entries(), before);
    }
}
