//! Parallel MTTKRP kernels over CSF.
//!
//! The matricized-tensor-times-Khatri-Rao-product is the critical routine
//! of CP-ALS (Algorithm 1 lines 5/8/11) and the kernel the paper spends
//! Section V-D optimizing. SPLATT provides three kernels depending on
//! where the output mode sits in the CSF tree:
//!
//! * **root** — output rows are owned exclusively by the task that owns
//!   the slice: no synchronization.
//! * **internal / leaf** — different slices scatter into the same output
//!   rows; SPLATT either *privatizes* (per-task output replicas + a
//!   reduction) when the output mode is small relative to the nonzero
//!   count, or protects rows with a hashed [`LockPool`]. The decision
//!   `dim[mode] * ntasks ≤ threshold * nnz` is exactly why the paper's
//!   YELP runs hit the lock path beyond 2 threads while NELL-2 never does
//!   (Section V-D.2).
//!
//! Every kernel is generic over [`MatrixAccess`] — the paper's Figure 2/3
//! ablation of how factor-matrix rows are read:
//!
//! * `RowCopy` — every row access materializes an owned copy, reproducing
//!   the overhead class of Chapel array slicing (descriptor + domain setup
//!   per slice) that made the initial port 18x slower.
//! * `Index2D` — direct 2D indexing, the paper's first fix (`i * cols + j`
//!   arithmetic per element).
//! * `PointerChecked` — a row slice taken once per access, elements read
//!   through bounds-checked indexing; the paper's final `c_ptrTo` style in
//!   its safe-Rust equivalent (the "Chapel-optimize" configuration).
//! * `PointerZip` — row slice with fused iterator traversal, letting LLVM
//!   drop all bounds checks; the C-reference configuration.

use crate::csf::{Csf, CsfSet, KernelKind, DENSE_FIBER_NNZ};
use crate::dense::Matrix;
use crate::isa::{on_isa, Avx2};
use crate::locks::{LockPool, LockStrategy};
use crate::pool::DEFAULT_POOL_SIZE;
use splatt_par::{partition, TaskTeam, ThreadScratch};

/// SPLATT's default privatization threshold (`DEFAULT_PRIV_THRESH`).
pub const DEFAULT_PRIV_THRESHOLD: f64 = 0.02;

/// Factor-matrix row access strategy (Figures 2/3 of the paper, plus the
/// C-reference variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatrixAccess {
    /// Owned copy per row access — Chapel array slicing ("Initial").
    RowCopy,
    /// Element-wise 2D indexing ("2D Index").
    Index2D,
    /// Row slice + bounds-checked element indexing ("Pointer", the
    /// optimized Chapel port).
    PointerChecked,
    /// Row slice + fused iterator traversal (the C reference).
    #[default]
    PointerZip,
}

impl MatrixAccess {
    /// Legend label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            MatrixAccess::RowCopy => "Initial",
            MatrixAccess::Index2D => "2D Index",
            MatrixAccess::PointerChecked => "Pointer",
            MatrixAccess::PointerZip => "C-ref",
        }
    }
}

/// Tuning knobs for the MTTKRP kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MttkrpConfig {
    /// How factor rows are read.
    pub access: MatrixAccess,
    /// Lock implementation for the mutex pool.
    pub locks: LockStrategy,
    /// Locks in the pool (rounded up to a power of two).
    pub pool_size: usize,
    /// Privatize when `dim[mode] * ntasks <= priv_threshold * nnz`.
    pub priv_threshold: f64,
    /// Run the tuned inner loops. [`MatrixAccess::PointerZip`] and
    /// [`MatrixAccess::PointerChecked`] then take the register-blocked
    /// leaf gather and the blocked leaf scatter — the same code at every
    /// rank — and on sparse-fiber tensors prefetch rows a few fibers
    /// ahead and walk the bottom two tree levels as one flat loop;
    /// `RowCopy` and `Index2D` have no tuned variant. `false` runs
    /// the plain per-nonzero loops, without prefetch, for every access
    /// strategy — the differential oracle. Both perform the same
    /// element-wise operations in the same order, so results are
    /// bit-identical.
    pub specialize: bool,
}

impl Default for MttkrpConfig {
    fn default() -> Self {
        MttkrpConfig {
            access: MatrixAccess::default(),
            locks: LockStrategy::default(),
            pool_size: DEFAULT_POOL_SIZE,
            priv_threshold: DEFAULT_PRIV_THRESHOLD,
            specialize: true,
        }
    }
}

/// Re-slice a `W`-long slice as a fixed-width array reference: how the
/// blocked gather and scatter hand the compiler a chunk it can keep in
/// registers. Callers slice to `c..c + W` first, so the length matches.
#[inline(always)]
fn fixed<const W: usize>(s: &[f64]) -> &[f64; W] {
    s.try_into().expect("chunk width mismatch")
}

#[inline(always)]
fn fixed_mut<const W: usize>(s: &mut [f64]) -> &mut [f64; W] {
    s.try_into().expect("chunk width mismatch")
}

/// SPLATT's privatization heuristic: replicate the output per task when
/// the replicas stay small relative to the work.
pub fn use_privatization(dim: usize, ntasks: usize, nnz: usize, threshold: f64) -> bool {
    (dim as f64) * (ntasks as f64) <= threshold * (nnz as f64)
}

/// Reusable buffers and synchronization state for repeated MTTKRP calls.
pub struct MttkrpWorkspace {
    pool: LockPool,
    replicas: ThreadScratch,
    /// Per-task walk buffers (`ones` + up/down prefix products), grow-only
    /// so steady-state kernel calls never allocate.
    kernel: ThreadScratch,
    probe: Option<std::sync::Arc<splatt_probe::MttkrpProbe>>,
    guard: Option<splatt_guard::RunGuard>,
}

impl MttkrpWorkspace {
    /// Create a workspace for `ntasks`-way kernels under `cfg`.
    pub fn new(cfg: &MttkrpConfig, ntasks: usize) -> Self {
        MttkrpWorkspace {
            pool: LockPool::new(cfg.locks, cfg.pool_size),
            replicas: ThreadScratch::new(ntasks, 0),
            kernel: ThreadScratch::new(ntasks, 0),
            probe: None,
            guard: None,
        }
    }

    /// Attach observability probes: per-thread kernel times and lock-pool
    /// contention counters are recorded into `probe` from every subsequent
    /// [`mttkrp`] call through this workspace. Pass `None` to detach and
    /// return the kernels to their unobserved (branch-only) fast path.
    pub fn set_probe(&mut self, probe: Option<std::sync::Arc<splatt_probe::MttkrpProbe>>) {
        self.pool
            .set_counters(probe.as_ref().map(|p| std::sync::Arc::clone(&p.locks)));
        self.probe = probe;
    }

    /// The attached probe, if any.
    pub fn probe(&self) -> Option<&std::sync::Arc<splatt_probe::MttkrpProbe>> {
        self.probe.as_ref()
    }

    /// Attach a run guard: every subsequent [`mttkrp`] through this
    /// workspace heartbeats its task lanes and polls for cancellation
    /// once per [`GUARD_CHUNK`] root slices, so a tripped run stops
    /// scattering within a bounded amount of work. Pass `None` to return
    /// the kernels to the unguarded fast path.
    pub(crate) fn set_guard(&mut self, guard: Option<splatt_guard::RunGuard>) {
        self.guard = guard;
    }
}

/// Root slices processed between guard polls in a guarded kernel. Small
/// enough that cancellation latency stays in the microsecond range,
/// large enough that a clean run's overhead is one predictable branch
/// plus a relaxed load every `GUARD_CHUNK` slices.
pub(crate) const GUARD_CHUNK: usize = 64;

/// Shared writable view of the output matrix for scatter kernels.
///
/// Safety protocol: concurrent `row_mut` calls on the *same* row must be
/// externally synchronized (lock pool), or rows must be partitioned
/// disjointly across tasks (root and tiled kernels). Debug builds check
/// the second half: every unlocked write [`claim`](SharedOut::claim)s its
/// row for its task, and a row claimed by two tasks in one call panics.
struct SharedOut {
    ptr: *mut f64,
    cols: usize,
    /// The task that wrote each row without a lock (`usize::MAX`: none).
    #[cfg(debug_assertions)]
    owners: Vec<std::sync::atomic::AtomicUsize>,
}

// SAFETY: `ptr` is only written through `row_mut`, whose callers keep
// writes to one row from two tasks apart (the protocol above); `cols` is
// a plain integer and `owners` a vector of atomics.
unsafe impl Send for SharedOut {}
unsafe impl Sync for SharedOut {}

impl SharedOut {
    fn new(m: &mut Matrix) -> Self {
        SharedOut {
            ptr: m.as_mut_slice().as_mut_ptr(),
            cols: m.cols(),
            #[cfg(debug_assertions)]
            owners: (0..m.rows())
                .map(|_| std::sync::atomic::AtomicUsize::new(usize::MAX))
                .collect(),
        }
    }

    /// Record `task` as the writer of row `i` for this call (debug builds;
    /// nothing in release). Panics, naming both tasks and the row, if
    /// another task wrote it: the partition was not disjoint.
    #[inline(always)]
    fn claim(&self, i: usize, task: usize) {
        #[cfg(debug_assertions)]
        {
            use std::sync::atomic::Ordering::Relaxed;
            if let Err(owner) = self.owners[i].compare_exchange(usize::MAX, task, Relaxed, Relaxed)
            {
                assert!(
                    owner == task,
                    "tasks {owner} and {task} both wrote output row {i} without a lock"
                );
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = (i, task);
    }

    /// # Safety
    /// Callers must guarantee no concurrent access to row `i` (see the
    /// type-level protocol).
    #[allow(clippy::mut_from_ref)]
    #[inline(always)]
    unsafe fn row_mut(&self, i: usize) -> &mut [f64] {
        #[cfg(debug_assertions)]
        debug_assert!(i < self.owners.len());
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.cols), self.cols) }
    }
}

/// Where a task's scatter contributions land.
enum OutTarget<'t> {
    /// Directly into the shared output, from task `task`; `pool` is
    /// `None` for the root and tiled kernels (rows disjoint by
    /// partition), `Some` otherwise.
    Shared {
        out: &'t SharedOut,
        pool: Option<&'t LockPool>,
        task: usize,
    },
    /// Into this task's private replica (flat `dim x rank`).
    Replica { buf: &'t mut [f64], rank: usize },
}

impl OutTarget<'_> {
    /// Prefetch output row `idx` (shared or replica) ahead of its scatter.
    #[inline(always)]
    fn prefetch_row(&self, idx: usize) {
        match self {
            OutTarget::Shared { out, .. } => prefetch_row(out.ptr, idx, out.cols),
            OutTarget::Replica { buf, rank } => prefetch_row(buf.as_ptr(), idx, *rank),
        }
    }

    /// Run `update` on output row `idx`, under the row's lock when the
    /// target has a pool.
    #[inline(always)]
    fn with_row(&mut self, idx: usize, update: impl FnOnce(&mut [f64])) {
        match self {
            OutTarget::Shared { out, pool, task } => {
                let _guard = pool.map(|p| p.lock(idx));
                if pool.is_none() {
                    out.claim(idx, *task);
                }
                // SAFETY: either the lock pool serializes access to this
                // row's hash class, or (root and tiled kernels) the row is
                // owned by this task alone.
                update(unsafe { out.row_mut(idx) });
            }
            OutTarget::Replica { buf, rank } => update(&mut buf[idx * *rank..(idx + 1) * *rank]),
        }
    }

    /// `row[r] += down[r] * up[r]` on output row `idx`.
    #[inline(always)]
    fn add_product(&mut self, idx: usize, down: &[f64], up: &[f64]) {
        self.with_row(idx, |row| {
            for ((o, &d), &u) in row.iter_mut().zip(down).zip(up) {
                *o += d * u;
            }
        });
    }

    /// `row[r] += v * src[r]` on output row `idx` (leaf scatter).
    #[inline(always)]
    fn add_scaled(&mut self, idx: usize, v: f64, src: &[f64]) {
        self.with_row(idx, |row| {
            for (o, &s) in row.iter_mut().zip(src) {
                *o += v * s;
            }
        });
    }

    /// The leaf scatter of one fiber, a nonzero at a time: row `fids[x]`
    /// gets `vals[x] * src` for each `x` in `nz`. `fids` and `vals` are
    /// the whole leaf level, so a walk with `PF` set can hint the output
    /// row [`PREFETCH_FIBERS`] nonzeros ahead, past the fiber's end.
    #[inline(always)]
    fn scatter<const PF: bool>(
        &mut self,
        fids: &[u32],
        vals: &[f64],
        nz: std::ops::Range<usize>,
        src: &[f64],
    ) {
        for x in nz {
            if PF {
                if let Some(&ahead) = fids.get(x + PREFETCH_FIBERS) {
                    self.prefetch_row(ahead as usize);
                }
            }
            self.add_scaled(fids[x] as usize, vals[x], src);
        }
    }
}

/// Monomorphized factor-row access operations — one body each, whatever
/// the rank: the row operations are plain loops over the row, and the two
/// per-fiber operations ([`Access::gather`], [`Access::scatter`]) have a
/// per-nonzero default that the pointer strategies replace with a
/// register-blocked routine.
///
/// Every method is `#[inline(always)]`: the walk is compiled once per
/// instruction set (see `walk!`), and the row operations have to be
/// compiled with it rather than once for the baseline target.
trait Access {
    /// Does the tree walk prefetch rows [`PREFETCH_FIBERS`] fibers ahead
    /// for this strategy, and walk the bottom two levels of a sparse-fiber
    /// tree as one flat loop (the hypersparse walk, see `walk!`)? A
    /// property of the strategy, not an option: on for the two pointer
    /// strategies (the shipped paths), off for `RowCopy` and `Index2D` —
    /// whose modeled per-access costs are the thing the paper's Figures
    /// 2/3 measure — and off for [`Plain`], so `specialize: false` stays
    /// the untouched oracle.
    const PREFETCH: bool;
    /// `accum[r] += scale * f[idx][r]` — one nonzero of the leaf gather.
    fn axpy_row(f: &Matrix, idx: usize, scale: f64, accum: &mut [f64]);
    /// `dst[r] = a[r] * f[idx][r]` — extend the downward prefix product.
    fn mul_row(f: &Matrix, idx: usize, a: &[f64], dst: &mut [f64]);
    /// `accum[r] += a[r] * f[idx][r]` — combine a child's upward product.
    fn fma_row(f: &Matrix, idx: usize, a: &[f64], accum: &mut [f64]);
    /// `accum[r] += vals[x] * f[fids[x]][r]` over one fiber's children —
    /// the leaf gather, every flop of the root and internal kernels.
    ///
    /// The default is the per-nonzero [`Access::axpy_row`] loop, which
    /// `RowCopy` and `Index2D` keep so their modeled per-row costs are
    /// paid once per nonzero; the pointer strategies override it with
    /// [`blocked_gather`].
    #[inline(always)]
    fn gather(f: &Matrix, fids: &[u32], vals: &[f64], accum: &mut [f64]) {
        for (&fid, &v) in fids.iter().zip(vals) {
            Self::axpy_row(f, fid as usize, v, accum);
        }
    }
    /// `out[fids[x]][r] += vals[x] * src[r]` over one fiber's nonzeros
    /// `nz` — the leaf scatter, every flop of the leaf kernel. It reads no
    /// factor row, so what a strategy chooses here is only the loop shape:
    /// the default is the per-nonzero [`OutTarget::scatter`], which
    /// `RowCopy`, `Index2D` and [`Plain`] keep; the pointer strategies
    /// override it with [`blocked_scatter`].
    #[inline(always)]
    fn scatter<const PF: bool>(
        target: &mut OutTarget<'_>,
        fids: &[u32],
        vals: &[f64],
        nz: std::ops::Range<usize>,
        src: &[f64],
    ) {
        target.scatter::<PF>(fids, vals, nz, src);
    }
    /// Columns `c..c + W` of `f[idx]`, by value — the factor read of the
    /// hypersparse walk's `flat_up` (see `walk!`), which only the
    /// strategies with [`Access::PREFETCH`] run. The default reads each
    /// element through a bounds check, as `PointerChecked`'s gather does
    /// (a loop over the chunk: `std::array::from_fn` here made its root
    /// kernels 30-50 % slower than the recursive walk's); `PointerZip`
    /// reads the chunk as one fixed-width slice.
    #[inline(always)]
    fn row_chunk<const W: usize>(f: &Matrix, idx: usize, c: usize) -> [f64; W] {
        let row = f.row(idx);
        let mut chunk = [0.0; W];
        for (i, x) in chunk.iter_mut().enumerate() {
            *x = row[c + i];
        }
        chunk
    }
}

/// `specialize: false`: `A`'s row operations with the default per-nonzero
/// gather and scatter, whatever `A` overrides — the plain loops the tuned
/// paths are differentially tested against.
struct Plain<A>(std::marker::PhantomData<A>);

impl<A: Access> Access for Plain<A> {
    const PREFETCH: bool = false;
    #[inline(always)]
    fn axpy_row(f: &Matrix, idx: usize, scale: f64, accum: &mut [f64]) {
        A::axpy_row(f, idx, scale, accum);
    }
    #[inline(always)]
    fn mul_row(f: &Matrix, idx: usize, a: &[f64], dst: &mut [f64]) {
        A::mul_row(f, idx, a, dst);
    }
    #[inline(always)]
    fn fma_row(f: &Matrix, idx: usize, a: &[f64], accum: &mut [f64]) {
        A::fma_row(f, idx, a, accum);
    }
}

/// Run `$chunk` over the column chunks of a rank-long row, with the
/// constant `$W` set to each chunk's width and `$c` to its first column:
/// the full chunks of 16, then one remainder chunk of 1..=15 (which the
/// compiler splits into 8/4/2/1-wide vectors). `wide` puts one chunk of
/// 32 first when the rank has one (the hypersparse walk's, whose chunks
/// hold an accumulator and a partial sum in registers; see `walk!`).
macro_rules! column_chunks {
    (wide $rank:ident, $c:ident, $W:ident => $chunk:expr) => {
        let mut $c = 0;
        if $rank >= 32 {
            const $W: usize = 32;
            $chunk;
            $c = 32;
        }
        column_chunks!(@rest $rank, $c, $W => $chunk);
    };
    ($rank:ident, $c:ident, $W:ident => $chunk:expr) => {
        let mut $c = 0;
        column_chunks!(@rest $rank, $c, $W => $chunk);
    };
    (@rest $rank:ident, $c:ident, $W:ident => $chunk:expr) => {
        while $rank - $c >= 16 {
            const $W: usize = 16;
            $chunk;
            $c += 16;
        }
        column_chunks!(@tail $rank - $c, $W => $chunk, 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
    };
    (@tail $rest:expr, $W:ident => $chunk:expr, $($w:literal)*) => {
        match $rest {
            $($w => {
                const $W: usize = $w;
                $chunk
            })*
            _ => {}
        }
    };
}

/// The register-blocked leaf gather: the rank is cut into column chunks
/// (see `column_chunks!`), and each chunk's accumulator stays in
/// registers across the whole fiber and is written back once — one load
/// per vector of factor row instead of the plain loop's load-load-store
/// through the arena. Per element the operations and their order are those of the
/// per-nonzero loop (`accum[r] += v * row[r]`, children in order), so the
/// result is bit-identical. `CHECKED` keeps a bounds-checked read per
/// element (`PointerChecked`).
#[inline(always)]
fn blocked_gather<const CHECKED: bool>(f: &Matrix, fids: &[u32], vals: &[f64], accum: &mut [f64]) {
    let rank = accum.len();
    column_chunks!(rank, c, W => gather_chunk::<W, CHECKED>(f, fids, vals, accum, c));
}

/// Columns `c..c + W` of [`blocked_gather`].
#[inline(always)]
fn gather_chunk<const W: usize, const CHECKED: bool>(
    f: &Matrix,
    fids: &[u32],
    vals: &[f64],
    accum: &mut [f64],
    c: usize,
) {
    let out = fixed_mut::<W>(&mut accum[c..c + W]);
    let mut acc = *out;
    for (&fid, &v) in fids.iter().zip(vals) {
        let row = f.row(fid as usize);
        if CHECKED {
            for (i, a) in acc.iter_mut().enumerate() {
                *a += v * row[c + i];
            }
        } else {
            let row = fixed::<W>(&row[c..c + W]);
            for i in 0..W {
                acc[i] += v * row[i];
            }
        }
    }
    *out = acc;
}

/// The blocked leaf scatter, the mirror image of [`blocked_gather`]:
/// into a task's replica, each column chunk of the down-product row `src`
/// is read once, by value — so it stays in registers, and the compiler
/// need not ask whether an output row aliases it — and added, scaled,
/// into the row of each of the fiber's nonzeros in order. The plain loop
/// reloads `src` for every nonzero. Per output element the additions and
/// their order are the per-nonzero loop's, also when one fiber names the
/// same row twice (uncoalesced duplicates), so the result is
/// bit-identical. The rows are slices of the replica: no pointer
/// arithmetic, no `unsafe`.
///
/// Two cases keep the per-nonzero loop. Under locks every nonzero is its
/// own acquisition, with nothing to hold in registers across them. And
/// the prefetching walk (`PF`) runs where fibers hold about one nonzero,
/// so there is nothing to reuse across a fiber either; on trees of order
/// 3 and up its leaf kernel is [`flat_scatter`], which keeps the
/// down-product itself in registers instead, and only order-2 trees get
/// here.
#[inline(always)]
fn blocked_scatter<const PF: bool>(
    target: &mut OutTarget<'_>,
    fids: &[u32],
    vals: &[f64],
    nz: std::ops::Range<usize>,
    src: &[f64],
) {
    match target {
        OutTarget::Replica { buf, rank } if !PF => {
            let rank = *rank;
            column_chunks!(
                rank, c, W => scatter_chunk::<W>(buf, rank, fids, vals, nz.clone(), src, c)
            );
        }
        _ => target.scatter::<PF>(fids, vals, nz, src),
    }
}

/// Columns `c..c + W` of [`blocked_scatter`].
#[inline(always)]
fn scatter_chunk<const W: usize>(
    buf: &mut [f64],
    rank: usize,
    fids: &[u32],
    vals: &[f64],
    nz: std::ops::Range<usize>,
    src: &[f64],
    c: usize,
) {
    let chunk = *fixed::<W>(&src[c..c + W]);
    for x in nz {
        let at = fids[x] as usize * rank + c;
        let row = fixed_mut::<W>(&mut buf[at..at + W]);
        let v = vals[x];
        for i in 0..W {
            row[i] += v * chunk[i];
        }
    }
}

/// The hypersparse walk's root and internal kernels: `compute_up` of
/// `fiber` at `level == order - 3`, the bottom two levels in one loop.
/// Into `up` goes, per column, the sum over child fibers `k` of
/// `C[fid(k)] * (0.0 + Σ vals[x] * B[fid(x)])` over `k`'s nonzeros `x`,
/// where the recursive walk would `fill(0)` a row of the arena per child,
/// gather into it, and `fma_row` it into `up`. Per column chunk (see
/// `column_chunks!`, `wide`) both sums stay in registers across the
/// children and `up` is written once. Per element the multiplies and adds
/// are the recursive walk's, in its order and association, so the result
/// is bit-identical to it — the partial sum starts at `+0.0` as the
/// arena row did, so a `-0.0` product still sums to `+0.0`. The
/// fiber-ahead hints are the recursive walk's, issued on the first chunk.
#[inline(always)]
fn flat_up<A: Access>(
    csf: &Csf,
    level: usize,
    fiber: usize,
    factors: &[Matrix],
    rank: usize,
    up: &mut [f64],
) {
    let order = csf.order();
    let perm = csf.dim_perm();
    let (child, leaf) = (&factors[perm[level + 1]], &factors[perm[order - 1]]);
    let (child_fids, fptr) = (csf.fids(level + 1), csf.fptr(level + 1));
    let (leaf_fids, vals) = (csf.fids(order - 1), csf.vals());
    let kids = csf.children(level, fiber);
    column_chunks!(wide rank, c, W => {
        let mut acc = [0.0; W];
        for k in kids.clone() {
            if c == 0 {
                if let Some(&ahead) = child_fids.get(k + PREFETCH_FIBERS) {
                    prefetch_row(child.as_slice().as_ptr(), ahead as usize, rank);
                    // `fptr` has one entry more than `fids`
                    if let Some(&first) = leaf_fids.get(fptr[k + PREFETCH_FIBERS]) {
                        prefetch_row(leaf.as_slice().as_ptr(), first as usize, rank);
                    }
                }
            }
            let mut sum = [0.0; W];
            for x in fptr[k]..fptr[k + 1] {
                let (v, row) = (vals[x], A::row_chunk::<W>(leaf, leaf_fids[x] as usize, c));
                for i in 0..W {
                    sum[i] += v * row[i];
                }
            }
            let row = A::row_chunk::<W>(child, child_fids[k] as usize, c);
            for i in 0..W {
                acc[i] += sum[i] * row[i];
            }
        }
        *fixed_mut::<W>(&mut up[c..c + W]) = acc;
    });
}

/// The hypersparse walk's leaf kernel: `descend` of `fiber` at
/// `level == order - 3` toward the leaf mode, with `down` its prefix
/// product. Per child fiber `k`, the strategy's [`Access::mul_row`] forms
/// `down * F[fid(k)]` in `cur`, one arena row; then each of `k`'s nonzeros
/// `x` adds `vals[x] * cur` into its output row one column chunk at a
/// time, the chunk read by value and added from registers — where the
/// recursive walk would call itself per child and scatter through the
/// per-nonzero row loop. The same products and sums in the same order, so
/// the result is the recursive walk's to the bit. Under a lock pool a
/// nonzero is still one acquisition, held across every chunk of its row.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn flat_scatter<A: Access>(
    csf: &Csf,
    level: usize,
    fiber: usize,
    factors: &[Matrix],
    rank: usize,
    down: &[f64],
    cur: &mut [f64],
    target: &mut OutTarget<'_>,
) {
    let order = csf.order();
    let f = &factors[csf.dim_perm()[level + 1]];
    let (fids, fptr) = (csf.fids(level + 1), csf.fptr(level + 1));
    let (leaf_fids, vals) = (csf.fids(order - 1), csf.vals());
    for k in csf.children(level, fiber) {
        if let Some(&ahead) = fids.get(k + PREFETCH_FIBERS) {
            prefetch_row(f.as_slice().as_ptr(), ahead as usize, rank);
        }
        A::mul_row(f, fids[k] as usize, down, cur);
        let cur = &*cur;
        for x in fptr[k]..fptr[k + 1] {
            if let Some(&ahead) = leaf_fids.get(x + PREFETCH_FIBERS) {
                target.prefetch_row(ahead as usize);
            }
            let v = vals[x];
            target.with_row(leaf_fids[x] as usize, |out| {
                column_chunks!(wide rank, c, W => {
                    let d = *fixed::<W>(&cur[c..c + W]);
                    let out = fixed_mut::<W>(&mut out[c..c + W]);
                    for i in 0..W {
                        out[i] += v * d[i];
                    }
                });
            });
        }
    }
}

/// Fibers of look-ahead for the walk's software prefetch (see `walk!`).
///
/// From a sweep on the `cpd_yelp` shape (13666 x 3666 x 25000, 600 k
/// nonzeros, rank 35, modes cycled as ALS cycles them, quietest of five
/// alternating runs, ms for mode 0 / 1 / 2): none 37.1 / 41.3 / 35.6,
/// 4 fibers 31.1 / 36.1 / 34.9, **8** 30.5 / 37.1 / 34.1, 16 31.9 / 38.3 /
/// 34.8, 32 36.8 / 38.3 / 35.8. Four and eight are level, sixteen is a
/// little behind, and at 32 most of the gain is gone.
const PREFETCH_FIBERS: usize = 8;

/// Hint row `idx` of the row-major, `cols`-wide matrix at `base` toward
/// the cache, ahead of its use. A row is `cols * 8` bytes at no particular
/// alignment, so every line it spans gets its own prefetch. Nothing is
/// read or written: no value the kernels compute can depend on this.
/// Compiles to nothing off x86-64.
#[inline(always)]
fn prefetch_row(base: *const f64, idx: usize, cols: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let row = base.wrapping_add(idx * cols).cast::<i8>();
        let lines = ((row.addr() % LINE) + cols * 8).div_ceil(LINE);
        for line in 0..lines {
            // SAFETY: `_mm_prefetch` needs SSE, which every x86-64 target
            // has. It is a hint, not an access: it cannot fault on any
            // address, mapped or not, and the address is formed with
            // `wrapping_add`, which has no in-bounds requirement — so an
            // `idx` past the matrix would cost a useless hint, not UB.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(row.wrapping_add(line * LINE)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (base, idx, cols);
}

/// Chapel-slicing analogue: a fresh owned copy per row access.
///
/// A Chapel slice expression (`factor[i, ..]`) builds a new domain object
/// and an array-view descriptor on the heap before any element is touched
/// (the overhead documented in chapel-lang/chapel#8203 and measured in the
/// paper's Figures 2/3). We model that per-access constant cost with a
/// small descriptor allocation plus the row copy itself.
struct RowCopyAccess;

#[inline]
fn slice_descriptor(idx: usize, cols: usize) -> Vec<usize> {
    // black_box prevents the optimizer from recognizing the descriptor as
    // dead and deleting the modeled allocation.
    splatt_probe::alloc::record_descriptor(2 * std::mem::size_of::<usize>());
    std::hint::black_box(vec![idx * cols, idx * cols + cols])
}

/// `f.row_copy(idx)` with allocation accounting — the measurable half of
/// the paper's 18x slice-overhead story.
#[inline]
fn counted_row_copy(f: &Matrix, idx: usize) -> Vec<f64> {
    splatt_probe::alloc::record_row_copy(f.cols() * std::mem::size_of::<f64>());
    f.row_copy(idx)
}

impl Access for RowCopyAccess {
    const PREFETCH: bool = false;
    // Every row operation pays the full descriptor + copy cost: the
    // modeled Chapel slicing overhead this variant exists to measure.
    #[inline(always)]
    fn axpy_row(f: &Matrix, idx: usize, scale: f64, accum: &mut [f64]) {
        let _desc = slice_descriptor(idx, f.cols());
        let row = counted_row_copy(f, idx); // allocation: the modeled slicing cost
        for (a, &v) in accum.iter_mut().zip(&row) {
            *a += scale * v;
        }
    }
    #[inline(always)]
    fn mul_row(f: &Matrix, idx: usize, a: &[f64], dst: &mut [f64]) {
        let _desc = slice_descriptor(idx, f.cols());
        let row = counted_row_copy(f, idx);
        for ((d, &x), &v) in dst.iter_mut().zip(a).zip(&row) {
            *d = x * v;
        }
    }
    #[inline(always)]
    fn fma_row(f: &Matrix, idx: usize, a: &[f64], accum: &mut [f64]) {
        let _desc = slice_descriptor(idx, f.cols());
        let row = counted_row_copy(f, idx);
        for ((acc, &x), &v) in accum.iter_mut().zip(a).zip(&row) {
            *acc += x * v;
        }
    }
}

/// Direct 2D indexing: index arithmetic + bounds check per element.
struct Index2DAccess;
impl Access for Index2DAccess {
    const PREFETCH: bool = false;
    #[inline(always)]
    fn axpy_row(f: &Matrix, idx: usize, scale: f64, accum: &mut [f64]) {
        for (r, a) in accum.iter_mut().enumerate() {
            *a += scale * f[(idx, r)];
        }
    }
    #[inline(always)]
    fn mul_row(f: &Matrix, idx: usize, a: &[f64], dst: &mut [f64]) {
        for (r, (d, &x)) in dst.iter_mut().zip(a).enumerate() {
            *d = x * f[(idx, r)];
        }
    }
    #[inline(always)]
    fn fma_row(f: &Matrix, idx: usize, a: &[f64], accum: &mut [f64]) {
        for (r, (acc, &x)) in accum.iter_mut().zip(a).enumerate() {
            *acc += x * f[(idx, r)];
        }
    }
}

/// Row slice once, bounds-checked element reads (optimized Chapel port).
struct PointerCheckedAccess;
impl Access for PointerCheckedAccess {
    const PREFETCH: bool = true;
    #[inline(always)]
    fn gather(f: &Matrix, fids: &[u32], vals: &[f64], accum: &mut [f64]) {
        blocked_gather::<true>(f, fids, vals, accum);
    }
    #[inline(always)]
    fn scatter<const PF: bool>(
        target: &mut OutTarget<'_>,
        fids: &[u32],
        vals: &[f64],
        nz: std::ops::Range<usize>,
        src: &[f64],
    ) {
        blocked_scatter::<PF>(target, fids, vals, nz, src);
    }
    #[inline(always)]
    fn axpy_row(f: &Matrix, idx: usize, scale: f64, accum: &mut [f64]) {
        let row = f.row(idx);
        for (r, a) in accum.iter_mut().enumerate() {
            *a += scale * row[r];
        }
    }
    #[inline(always)]
    fn mul_row(f: &Matrix, idx: usize, a: &[f64], dst: &mut [f64]) {
        let row = f.row(idx);
        for (r, (d, &x)) in dst.iter_mut().zip(a).enumerate() {
            *d = x * row[r];
        }
    }
    #[inline(always)]
    fn fma_row(f: &Matrix, idx: usize, a: &[f64], accum: &mut [f64]) {
        let row = f.row(idx);
        for (r, (acc, &x)) in accum.iter_mut().zip(a).enumerate() {
            *acc += x * row[r];
        }
    }
}

/// Row slice with fused iteration — check-free inner loops (C reference).
struct PointerZipAccess;
impl Access for PointerZipAccess {
    const PREFETCH: bool = true;
    #[inline(always)]
    fn gather(f: &Matrix, fids: &[u32], vals: &[f64], accum: &mut [f64]) {
        blocked_gather::<false>(f, fids, vals, accum);
    }
    #[inline(always)]
    fn scatter<const PF: bool>(
        target: &mut OutTarget<'_>,
        fids: &[u32],
        vals: &[f64],
        nz: std::ops::Range<usize>,
        src: &[f64],
    ) {
        blocked_scatter::<PF>(target, fids, vals, nz, src);
    }
    #[inline(always)]
    fn row_chunk<const W: usize>(f: &Matrix, idx: usize, c: usize) -> [f64; W] {
        *fixed::<W>(&f.row(idx)[c..c + W])
    }
    #[inline(always)]
    fn axpy_row(f: &Matrix, idx: usize, scale: f64, accum: &mut [f64]) {
        for (a, &v) in accum.iter_mut().zip(f.row(idx)) {
            *a += scale * v;
        }
    }
    #[inline(always)]
    fn mul_row(f: &Matrix, idx: usize, a: &[f64], dst: &mut [f64]) {
        for ((d, &x), &v) in dst.iter_mut().zip(a).zip(f.row(idx)) {
            *d = x * v;
        }
    }
    #[inline(always)]
    fn fma_row(f: &Matrix, idx: usize, a: &[f64], accum: &mut [f64]) {
        for ((acc, &x), &v) in accum.iter_mut().zip(a).zip(f.row(idx)) {
            *acc += x * v;
        }
    }
}

/// The one place a configuration picks compiled code: `$run::<A>` for
/// the access strategy, or `$run::<Plain<A>>` under `specialize: false`.
/// The rank is not part of the choice — every body takes every rank.
macro_rules! dispatch_access {
    ($cfg:expr, $run:ident $args:tt) => {
        match ($cfg.access, $cfg.specialize) {
            (MatrixAccess::RowCopy, true) => $run::<RowCopyAccess> $args,
            (MatrixAccess::RowCopy, false) => $run::<Plain<RowCopyAccess>> $args,
            (MatrixAccess::Index2D, true) => $run::<Index2DAccess> $args,
            (MatrixAccess::Index2D, false) => $run::<Plain<Index2DAccess>> $args,
            (MatrixAccess::PointerChecked, true) => $run::<PointerCheckedAccess> $args,
            (MatrixAccess::PointerChecked, false) => $run::<Plain<PointerCheckedAccess>> $args,
            (MatrixAccess::PointerZip, true) => $run::<PointerZipAccess> $args,
            (MatrixAccess::PointerZip, false) => $run::<Plain<PointerZipAccess>> $args,
        }
    };
}

/// Compute the MTTKRP for `mode` into `out` (`dims[mode] x rank`).
///
/// Selects the CSF representation and kernel via [`CsfSet::for_mode`],
/// decides privatization vs. locking with SPLATT's heuristic, and runs
/// slice-parallel on `team` with nonzero-weighted task partitioning. The
/// tree walk exists in two compiled copies, baseline and AVX2; which one
/// runs is read from the CPU once per call — the result is bit-identical
/// either way.
///
/// ```
/// use splatt_core::mttkrp::{mttkrp, MttkrpConfig, MttkrpWorkspace};
/// use splatt_core::{CsfAlloc, CsfSet};
/// use splatt_core::dense::Matrix;
/// use splatt_par::TaskTeam;
/// use splatt_tensor::{synth, SortVariant};
///
/// let tensor = synth::random_uniform(&[20, 15, 25], 500, 7);
/// let team = TaskTeam::new(2);
/// let set = CsfSet::build(&tensor, CsfAlloc::Two, &team, SortVariant::AllOpts);
/// let factors: Vec<Matrix> = tensor.dims().iter().enumerate()
///     .map(|(m, &d)| Matrix::random(d, 4, m as u64))
///     .collect();
/// let cfg = MttkrpConfig::default();
/// let mut ws = MttkrpWorkspace::new(&cfg, 2);
/// let mut out = Matrix::zeros(20, 4);
/// mttkrp(&set, &factors, 0, &mut out, &mut ws, &team, &cfg);
/// // equals the naive coordinate-form reference:
/// let expect = splatt_core::reference::mttkrp_coo(&tensor, &factors, 0);
/// assert!(out.approx_eq(&expect, 1e-9));
/// ```
///
/// # Panics
/// Panics if shapes disagree (`out` must be `dims[mode] x rank`, factors
/// must be `dims[m] x rank`).
pub fn mttkrp(
    set: &CsfSet,
    factors: &[Matrix],
    mode: usize,
    out: &mut Matrix,
    ws: &mut MttkrpWorkspace,
    team: &TaskTeam,
    cfg: &MttkrpConfig,
) {
    let (csf, kind) = set.for_mode(mode);
    mttkrp_on(Avx2::detect(), csf, kind, factors, mode, out, ws, team, cfg);
}

/// [`mttkrp`] on a chosen representation, kernel and compiled walk
/// (`isa: None` = portable).
#[allow(clippy::too_many_arguments)]
fn mttkrp_on(
    isa: Option<Avx2>,
    csf: &Csf,
    kind: KernelKind,
    factors: &[Matrix],
    mode: usize,
    out: &mut Matrix,
    ws: &mut MttkrpWorkspace,
    team: &TaskTeam,
    cfg: &MttkrpConfig,
) {
    assert_eq!(
        out.rows(),
        csf.dims()[mode],
        "output rows must match mode dim"
    );
    for (m, f) in factors.iter().enumerate() {
        assert_eq!(f.rows(), csf.dims()[m], "factor {m} rows mismatch");
        assert_eq!(f.cols(), out.cols(), "factor {m} rank mismatch");
    }
    dispatch_access!(cfg, run(isa, csf, kind, factors, mode, out, ws, team, cfg));
}

/// Compute the MTTKRP for a *tiled* mode: each task runs the lock-free
/// root kernel over its tile(s), whose output rows are disjoint by
/// construction — SPLATT's mode-tiling execution (no locks, no replicas,
/// no reduction).
///
/// Under run governance (`guard` given) each task heartbeats its lane
/// and polls the guard between tiles (and every `GUARD_CHUNK` root
/// slices within a tile), abandoning remaining work once the run is
/// cancelled. The output is unspecified after a cancelled kernel; the
/// driver's next guard check aborts the run before the partial output is
/// consumed.
///
/// # Panics
/// Panics if shapes disagree.
pub fn mttkrp_tiled(
    tiled: &crate::tiling::TiledCsf,
    factors: &[Matrix],
    out: &mut Matrix,
    team: &TaskTeam,
    cfg: &MttkrpConfig,
    guard: Option<&splatt_guard::RunGuard>,
) {
    let mode = tiled.mode();
    for (m, f) in factors.iter().enumerate() {
        assert_eq!(f.cols(), out.cols(), "factor {m} rank mismatch");
    }
    assert!(
        tiled.ntiles() == 0 || out.rows() == tiled.tile(0).dims()[mode],
        "output rows must match mode dim"
    );
    dispatch_access!(cfg, run_tiled(tiled, factors, out, team, guard));
}

fn run_tiled<A: Access>(
    tiled: &crate::tiling::TiledCsf,
    factors: &[Matrix],
    out: &mut Matrix,
    team: &TaskTeam,
    guard: Option<&splatt_guard::RunGuard>,
) {
    out.fill(0.0);
    let rank = out.cols();
    if rank == 0 || tiled.nnz() == 0 {
        return;
    }
    let isa = Avx2::detect();
    let ntasks = team.ntasks();
    let order = tiled.tile(0).order();
    let shared = SharedOut::new(out);
    let shared = &shared;
    team.coforall(|tid| {
        let _lane = splatt_guard::LaneSpan::enter(guard, tid);
        // one walk arena per task, shared by every tile it owns
        let mut arena = vec![0.0; arena_len(order, rank)];
        for t in partition::block(tiled.ntiles(), ntasks, tid) {
            if guard.is_some_and(|g| g.poll(tid)) {
                break;
            }
            let csf = tiled.tile(t);
            if csf.nnz() == 0 {
                continue;
            }
            // SAFETY justification for `pool: None`: tile CSFs are rooted
            // at the output mode and tiles own disjoint output-row ranges,
            // so no two tasks ever write the same row.
            let mut target = OutTarget::Shared {
                out: shared,
                pool: None,
                task: tid,
            };
            task_slices::<A>(
                isa,
                csf,
                0,
                factors,
                rank,
                &mut target,
                &mut arena,
                0..csf.nfibers(0),
                guard.map(|g| (g, tid)),
            );
        }
    });
}

/// Per-task walk arena length: `ones` (one rank row) plus an up and a
/// down prefix-product buffer per tree level.
#[inline]
fn arena_len(order: usize, rank: usize) -> usize {
    (2 * order + 1) * rank
}

/// Does an MTTKRP on `mode` under this configuration take the lock-based
/// path (as opposed to root-kernel or privatized execution)? Exposed for
/// experiment reporting — this is the paper's "YELP requires locks beyond
/// two tasks" decision made visible.
pub fn uses_locks(set: &CsfSet, mode: usize, ntasks: usize, cfg: &MttkrpConfig) -> bool {
    let (csf, kind) = set.for_mode(mode);
    match kind {
        KernelKind::Root => false,
        _ => !use_privatization(csf.dims()[mode], ntasks, csf.nnz(), cfg.priv_threshold),
    }
}

#[allow(clippy::too_many_arguments)]
fn run<A: Access>(
    isa: Option<Avx2>,
    csf: &Csf,
    kind: KernelKind,
    factors: &[Matrix],
    mode: usize,
    out: &mut Matrix,
    ws: &mut MttkrpWorkspace,
    team: &TaskTeam,
    cfg: &MttkrpConfig,
) {
    out.fill(0.0);
    let rank = out.cols();
    if rank == 0 || csf.nnz() == 0 {
        return;
    }
    let order = csf.order();
    let od = match kind {
        KernelKind::Root => 0,
        KernelKind::Internal(d) => d,
        KernelKind::Leaf => order - 1,
    };
    debug_assert_eq!(csf.dim_perm()[od], mode);

    let ntasks = team.ntasks();
    let prefix = partition::prefix_sum(csf.slice_nnz());
    let bounds = partition::weighted(&prefix, ntasks);

    let needs_sync = od != 0;
    let privatize =
        needs_sync && use_privatization(csf.dims()[mode], ntasks, csf.nnz(), cfg.priv_threshold);

    // Grow-only scratch: steady-state calls find the buffers already
    // sized and record no allocations — only actual growth is counted.
    let grown = ws.kernel.ensure_len(arena_len(order, rank));
    if grown > 0 {
        splatt_probe::alloc::record_kernel_scratch(grown);
    }

    // Cheap Arc clone so the guard handle outlives the mutable borrows
    // of the workspace below.
    let guard = ws.guard.clone();
    let guard = guard.as_ref();

    if privatize {
        let grown = ws.replicas.ensure_len(out.rows() * rank);
        if grown > 0 {
            splatt_probe::alloc::record_replica_growth(grown);
        }
        ws.replicas.reset();
        splatt_probe::alloc::record_replica_reduction();
        let replicas = &ws.replicas;
        let kernel = &ws.kernel;
        let bounds = &bounds;
        let body = |tid: usize| {
            let _lane = splatt_guard::LaneSpan::enter(guard, tid);
            replicas.with_mut(tid, |buf| {
                kernel.with_mut(tid, |arena| {
                    let mut target = OutTarget::Replica { buf, rank };
                    task_slices::<A>(
                        isa,
                        csf,
                        od,
                        factors,
                        rank,
                        &mut target,
                        arena,
                        bounds[tid]..bounds[tid + 1],
                        guard.map(|g| (g, tid)),
                    );
                });
            });
        };
        match &ws.probe {
            None => team.coforall(body),
            Some(probe) => team.coforall_timed(&probe.tasks, |tid| {
                body(tid);
                (bounds[tid + 1] - bounds[tid]) as u64
            }),
        }
        // The replicas may be longer than this mode's output (grow-only
        // scratch); reduce only the live prefix.
        ws.replicas.reduce_sum_into(out.as_mut_slice());
    } else {
        let shared = SharedOut::new(out);
        let shared = &shared;
        let pool = needs_sync.then_some(&ws.pool);
        let kernel = &ws.kernel;
        let bounds = &bounds;
        let body = |tid: usize| {
            let _lane = splatt_guard::LaneSpan::enter(guard, tid);
            kernel.with_mut(tid, |arena| {
                let mut target = OutTarget::Shared {
                    out: shared,
                    pool,
                    task: tid,
                };
                task_slices::<A>(
                    isa,
                    csf,
                    od,
                    factors,
                    rank,
                    &mut target,
                    arena,
                    bounds[tid]..bounds[tid + 1],
                    guard.map(|g| (g, tid)),
                );
            });
        };
        match &ws.probe {
            None => team.coforall(body),
            Some(probe) => team.coforall_timed(&probe.tasks, |tid| {
                body(tid);
                (bounds[tid + 1] - bounds[tid]) as u64
            }),
        }
    }
}

/// Process a contiguous range of root slices for one task on the walk
/// compiled for `isa`. When `guard` is present, the task heartbeats and
/// polls for cancellation once per [`GUARD_CHUNK`] slices on its lane and
/// returns early if the run was tripped (leaving the target partially
/// written — the governed driver discards it).
#[allow(clippy::too_many_arguments)]
#[inline]
fn task_slices<A: Access>(
    isa: Option<Avx2>,
    csf: &Csf,
    od: usize,
    factors: &[Matrix],
    rank: usize,
    target: &mut OutTarget<'_>,
    arena: &mut [f64],
    slices: std::ops::Range<usize>,
    guard: Option<(&splatt_guard::RunGuard, usize)>,
) {
    // Hint rows ahead only where they miss: with dense fibers (NELL-2)
    // the factor rows are cache-resident and the hints are pure cost, so
    // the walk reuses the statistic the kernel routing already reads. A
    // compile-time parameter of the walk, so each tensor runs a loop with
    // the hints or a loop without them, never a loop that asks.
    let prefetch = A::PREFETCH && csf.nnz_per_fiber() < DENSE_FIBER_NNZ;
    macro_rules! call {
        ($prefetch:literal) => {
            on_isa!(
                isa,
                walk_avx2::task_slices::<A, $prefetch>,
                walk_portable::task_slices::<A, $prefetch>,
                (csf, od, factors, rank, target, arena, slices, guard)
            )
        };
    }
    if prefetch {
        call!(true)
    } else {
        call!(false)
    }
}

/// The tree walk, compiled once per instruction set: `$feature` is empty
/// for the portable copy and `#[target_feature(enable = "avx2")]` for the
/// other. The `Access` and `OutTarget` operations are `#[inline(always)]`
/// and so are compiled into each copy with its features. No FMA: both
/// copies round every multiply and every add, so they are bit-identical.
///
/// # Fiber-ahead prefetch
///
/// At about one nonzero per fiber (YELP: 1.04) the walk is a COO loop in
/// disguise: every fiber pulls a factor row or two — `rank * 8` bytes, 5-6
/// cache lines at rank 35 — from matrices that do not fit in L2, at
/// addresses the hardware prefetcher cannot guess. The walk can: they are
/// in `fids`/`fptr`, [`PREFETCH_FIBERS`] entries ahead of the fiber being
/// reduced. So a walk with `PF` set hints:
///
/// * in `compute_up`, while child fiber `c` is reduced: the child-factor
///   row of fiber `c + D` and, when that fiber's children are the
///   nonzeros, the leaf-factor row of its first one (at one nonzero per
///   fiber the first is the fiber) — the root kernel's two gathers;
/// * in `descend`'s leaf scatter: this level's factor row for fiber
///   `fiber + D`, and the **output** row of nonzero `x + D`.
///
/// `PF` is set for the strategies with [`Access::PREFETCH`] (the two
/// pointer strategies; `RowCopy`, `Index2D` and the `specialize: false`
/// oracle `Plain` run what they ran) on a tree whose fibers are sparse
/// ([`Csf::nnz_per_fiber`] below [`DENSE_FIBER_NNZ`], the statistic the
/// kernel routing reads): on NELL-2's dense fibers the rows are
/// cache-resident and ungated hints cost the root kernels 20 %. The index
/// arrays are read in bounds (`get`), the rows are only hinted (see
/// `prefetch_row`), and no arithmetic moves: a prefetching walk is
/// bit-identical to a plain one. The internal kernel's `add_product` row
/// is not hinted: every internal-kernel run behind a committed number is
/// on a dense-fiber tree, where nothing is.
///
/// # The hypersparse walk
///
/// With `PF` set the fibers hold about one nonzero each, and the
/// recursion's machinery cost more than the nonzero: per fiber a call, a
/// `fill(0)` of an arena row, a gather that loads and stores it per
/// column chunk, and an `fma_row` that reads it back into the parent's
/// row. So the `PF` walk takes the bottom two levels — the level at
/// `order - 3` and its child fibers — as one loop with no recursion and
/// no arena row between them: [`flat_up`] for the root and internal
/// kernels (`compute_up` at `order - 3`), [`flat_scatter`] for the leaf
/// kernel (`descend` at `order - 3`). Both run column chunk by chunk
/// (`column_chunks!`, `wide`: 32 first, then 16s and a 1..=15 remainder)
/// on values held in registers — `flat_up` reads its factor rows through
/// [`Access::row_chunk`], `flat_scatter` forms each child's product once
/// with the strategy's `mul_row` — and issue the hints above for the same
/// rows at the same distance. Each
/// multiply and add of an output element is the recursive walk's, in its
/// order and association, so the results are bit-identical to it. Upper
/// levels of order-4/5 trees still recurse, order-2 trees have no such
/// level, and a dense-fiber tree never sets `PF`.
macro_rules! walk {
    ($name:ident $(, #[$feature:meta])?) => {
        mod $name {
            use super::{
                flat_scatter, flat_up, prefetch_row, Access, Csf, Matrix, OutTarget, GUARD_CHUNK,
                PREFETCH_FIBERS,
            };

            #[allow(clippy::too_many_arguments)]
            $(#[$feature])?
            pub(super) fn task_slices<A: Access, const PF: bool>(
                csf: &Csf,
                od: usize,
                factors: &[Matrix],
                rank: usize,
                target: &mut OutTarget<'_>,
                arena: &mut [f64],
                slices: std::ops::Range<usize>,
                guard: Option<(&splatt_guard::RunGuard, usize)>,
            ) {
                let order = csf.order();
                // the grow-only arena may be larger than this call needs;
                // carve the layout [ones | up prefix products | down
                // prefix products] off the front, one rank row per tree
                // level for each direction
                let (ones, rest) = arena.split_at_mut(rank);
                ones.fill(1.0);
                let (up_bufs, down_bufs) = rest.split_at_mut(order * rank);
                for (n, s) in slices.enumerate() {
                    if let Some((g, lane)) = guard {
                        if n % GUARD_CHUNK == 0 && g.poll(lane) {
                            return;
                        }
                    }
                    descend::<A, PF>(
                        csf, 0, s, od, ones, factors, rank, target, up_bufs, down_bufs,
                    );
                }
            }

            /// Walk from `fiber` at `level` toward the output depth `od`,
            /// carrying the running product `down` of factor rows at
            /// levels `< level` (excluding the output level).
            /// `up_bufs`/`down_bufs` are flat per-task arenas; each
            /// recursion level peels one rank-length row off the front.
            #[allow(clippy::too_many_arguments)]
            $(#[$feature])?
            fn descend<A: Access, const PF: bool>(
                csf: &Csf,
                level: usize,
                fiber: usize,
                od: usize,
                down: &[f64],
                factors: &[Matrix],
                rank: usize,
                target: &mut OutTarget<'_>,
                up_bufs: &mut [f64],
                down_bufs: &mut [f64],
            ) {
                let order = csf.order();
                let perm = csf.dim_perm();
                if level == od {
                    // up-product of the subtree below (excluding this
                    // level's factor)
                    compute_up::<A, PF>(csf, level, fiber, factors, rank, up_bufs);
                    let fid = csf.fids(level)[fiber] as usize;
                    target.add_product(fid, down, &up_bufs[..rank]);
                    return;
                }
                debug_assert!(level < od);
                let fid = csf.fids(level)[fiber] as usize;
                let (cur, rest) = down_bufs.split_at_mut(rank);
                A::mul_row(&factors[perm[level]], fid, down, cur);
                if PF && level + 3 == order && od + 1 == order {
                    let next = &mut rest[..rank];
                    flat_scatter::<A>(csf, level, fiber, factors, rank, cur, next, target);
                } else if level == order - 2 {
                    // children are the leaves and the output is the leaf
                    // mode: scatter each nonzero into its leaf row
                    // (SPLATT's leaf kernel)
                    debug_assert_eq!(od, order - 1);
                    if PF {
                        if let Some(&ahead) = csf.fids(level).get(fiber + PREFETCH_FIBERS) {
                            let f = &factors[perm[level]];
                            prefetch_row(f.as_slice().as_ptr(), ahead as usize, rank);
                        }
                    }
                    A::scatter::<PF>(
                        target,
                        csf.fids(order - 1),
                        csf.vals(),
                        csf.children(level, fiber),
                        cur,
                    );
                } else {
                    for c in csf.children(level, fiber) {
                        descend::<A, PF>(
                            csf,
                            level + 1,
                            c,
                            od,
                            cur,
                            factors,
                            rank,
                            target,
                            up_bufs,
                            rest,
                        );
                    }
                }
            }

            /// Fill the first rank row of `bufs` with the upward product
            /// of `fiber`'s subtree: the sum over nonzeros below of
            /// `val * prod(factor rows at levels > level)`.
            $(#[$feature])?
            pub(super) fn compute_up<A: Access, const PF: bool>(
                csf: &Csf,
                level: usize,
                fiber: usize,
                factors: &[Matrix],
                rank: usize,
                bufs: &mut [f64],
            ) {
                let order = csf.order();
                let perm = csf.dim_perm();
                let (buf, rest) = bufs.split_at_mut(rank);
                if PF && level + 3 == order {
                    flat_up::<A>(csf, level, fiber, factors, rank, buf);
                    return;
                }
                buf.fill(0.0);
                if level == order - 2 {
                    // hot loop: gather leaf nonzeros against the leaf factor
                    let x = csf.children(level, fiber);
                    A::gather(
                        &factors[perm[order - 1]],
                        &csf.fids(order - 1)[x.clone()],
                        &csf.vals()[x],
                        buf,
                    );
                } else {
                    let child = &factors[perm[level + 1]];
                    let child_fids = csf.fids(level + 1);
                    for c in csf.children(level, fiber) {
                        if PF {
                            if let Some(&ahead) = child_fids.get(c + PREFETCH_FIBERS) {
                                prefetch_row(child.as_slice().as_ptr(), ahead as usize, rank);
                            }
                        }
                        compute_up::<A, PF>(csf, level + 1, c, factors, rank, rest);
                        A::fma_row(child, child_fids[c] as usize, &rest[..rank], buf);
                    }
                }
            }
        }
    };
}

walk!(walk_portable);
#[cfg(target_arch = "x86_64")]
walk!(walk_avx2, #[target_feature(enable = "avx2")]);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;
    use crate::csf::CsfAlloc;
    use crate::reference::mttkrp_coo;
    use splatt_tensor::{synth, SortVariant, SparseTensor};

    const ALL_ACCESS: [MatrixAccess; 4] = [
        MatrixAccess::RowCopy,
        MatrixAccess::Index2D,
        MatrixAccess::PointerChecked,
        MatrixAccess::PointerZip,
    ];

    fn factors_for(t: &SparseTensor, rank: usize, seed: u64) -> Vec<Matrix> {
        t.dims()
            .iter()
            .enumerate()
            .map(|(m, &d)| Matrix::random(d, rank, seed + m as u64))
            .collect()
    }

    fn run_config(
        t: &SparseTensor,
        rank: usize,
        alloc: CsfAlloc,
        cfg: &MttkrpConfig,
        ntasks: usize,
    ) {
        let team = TaskTeam::new(ntasks);
        let set = CsfSet::build(t, alloc, &team, SortVariant::AllOpts);
        let factors = factors_for(t, rank, 7);
        let mut ws = MttkrpWorkspace::new(cfg, ntasks);
        for mode in 0..t.order() {
            let expect = mttkrp_coo(t, &factors, mode);
            let mut out = Matrix::zeros(t.dims()[mode], rank);
            mttkrp(&set, &factors, mode, &mut out, &mut ws, &team, cfg);
            assert!(
                out.approx_eq(&expect, 1e-9),
                "mode {mode} mismatch (alloc {alloc:?}, cfg {cfg:?}, ntasks {ntasks}): max diff {}",
                out.max_abs_diff(&expect)
            );
        }
    }

    #[test]
    fn matches_reference_all_access_strategies() {
        let t = synth::power_law(&[30, 14, 40], 2_500, 1.8, 3);
        for access in ALL_ACCESS {
            let cfg = MttkrpConfig {
                access,
                ..Default::default()
            };
            run_config(&t, 5, CsfAlloc::Two, &cfg, 2);
        }
    }

    #[test]
    fn matches_reference_all_allocs() {
        let t = synth::power_law(&[25, 18, 33], 2_000, 2.0, 11);
        for alloc in [CsfAlloc::One, CsfAlloc::Two, CsfAlloc::All] {
            run_config(&t, 4, alloc, &MttkrpConfig::default(), 3);
        }
    }

    #[test]
    fn matches_reference_forced_locks() {
        // threshold 0 => never privatize => lock path for non-root modes
        let t = synth::power_law(&[20, 12, 28], 1_500, 1.5, 5);
        for locks in LockStrategy::ALL {
            let cfg = MttkrpConfig {
                locks,
                priv_threshold: 0.0,
                ..Default::default()
            };
            run_config(&t, 3, CsfAlloc::One, &cfg, 4);
        }
    }

    #[test]
    fn matches_reference_forced_privatization() {
        // huge threshold => always privatize non-root modes
        let t = synth::power_law(&[20, 12, 28], 1_500, 1.5, 6);
        let cfg = MttkrpConfig {
            priv_threshold: 1e9,
            ..Default::default()
        };
        run_config(&t, 3, CsfAlloc::One, &cfg, 4);
    }

    #[test]
    fn matches_reference_single_task() {
        let t = synth::random_uniform(&[10, 10, 10], 400, 9);
        run_config(&t, 6, CsfAlloc::Two, &MttkrpConfig::default(), 1);
    }

    #[test]
    fn matches_reference_four_modes() {
        let t = synth::random_uniform(&[8, 12, 6, 9], 1_200, 13);
        for alloc in [CsfAlloc::One, CsfAlloc::All] {
            run_config(&t, 4, alloc, &MttkrpConfig::default(), 2);
        }
    }

    #[test]
    fn handles_single_nonzero() {
        let t = SparseTensor::from_entries(vec![4, 5, 6], &[(vec![1, 2, 3], 2.0)]);
        run_config(&t, 3, CsfAlloc::Two, &MttkrpConfig::default(), 2);
    }

    #[test]
    fn handles_duplicate_coordinates() {
        let t = SparseTensor::from_entries(
            vec![3, 3, 3],
            &[
                (vec![1, 1, 1], 2.0),
                (vec![1, 1, 1], 3.0),
                (vec![0, 2, 1], 1.0),
            ],
        );
        run_config(&t, 4, CsfAlloc::Two, &MttkrpConfig::default(), 2);
    }

    #[test]
    fn duplicate_coordinates_flat_nested_and_coo_agree() {
        // Repeated coordinates keep one leaf per nonzero. The flat-slab
        // two-pass build must structurally match the old nested (push-
        // per-nonzero) construction AND numerically match the COO
        // reference through every kernel.
        let t = SparseTensor::from_entries(
            vec![4, 3, 5],
            &[
                (vec![2, 1, 4], 1.5),
                (vec![2, 1, 4], -0.5),
                (vec![2, 1, 4], 2.0),
                (vec![0, 0, 0], 1.0),
                (vec![0, 0, 0], 1.0),
                (vec![3, 2, 1], 4.0),
            ],
        );
        use crate::csf::nested;
        let team = TaskTeam::new(2);
        for root in 0..t.order() {
            let mut perm: Vec<usize> = (0..t.order()).collect();
            perm.swap(0, root);
            let flat = Csf::build(&t, &perm, &team, SortVariant::AllOpts);
            nested::assert_equivalent(
                &flat,
                &nested::build(&t, &perm, &team, SortVariant::AllOpts),
            );
        }
        run_config(&t, 4, CsfAlloc::All, &MttkrpConfig::default(), 2);
    }

    #[test]
    fn specialized_dispatch_is_bit_identical_to_generic() {
        // The tuned kernels must not merely be close — they perform
        // the same operations in the same order, so outputs are equal to
        // the last bit. Privatized + root paths are deterministic (task-
        // ordered reduction), which makes exact comparison meaningful.
        for rank in [8, 16, 32] {
            let t = synth::power_law(&[30, 14, 40], 2_000, 1.8, rank as u64);
            let team = TaskTeam::new(3);
            let set = CsfSet::build(&t, CsfAlloc::Two, &team, SortVariant::AllOpts);
            let factors = factors_for(&t, rank, 3);
            for access in ALL_ACCESS {
                let generic = MttkrpConfig {
                    access,
                    specialize: false,
                    priv_threshold: 1e9,
                    ..Default::default()
                };
                let special = MttkrpConfig {
                    specialize: true,
                    ..generic
                };
                let mut ws_g = MttkrpWorkspace::new(&generic, 3);
                let mut ws_s = MttkrpWorkspace::new(&special, 3);
                for mode in 0..t.order() {
                    let mut a = Matrix::zeros(t.dims()[mode], rank);
                    let mut b = Matrix::zeros(t.dims()[mode], rank);
                    mttkrp(&set, &factors, mode, &mut a, &mut ws_g, &team, &generic);
                    mttkrp(&set, &factors, mode, &mut b, &mut ws_s, &team, &special);
                    assert_eq!(
                        a.as_slice(),
                        b.as_slice(),
                        "rank {rank} mode {mode} access {access:?}"
                    );
                }
            }
        }
    }

    /// The two compiled copies of the walk must agree to the last bit at
    /// every chunk shape of the blocked gather and scatter (remainders
    /// 1..15, one and two full chunks), 8/16/32 and their neighbours, the
    /// edges of the hypersparse walk's 32-wide chunk (47-49, 63-65) — for
    /// every access strategy, kernel, and both the tuned and plain loops —
    /// and on the tensors a fiber-ahead prefetch can get wrong: about one
    /// nonzero per fiber, deeper trees, fewer fibers than
    /// [`PREFETCH_FIBERS`], one nonzero, none.
    /// Debug builds do not vectorize, so CI also runs this in `--release`.
    #[test]
    fn portable_and_avx2_walks_are_bit_identical() {
        let Some(avx2) = Avx2::detect() else {
            println!("skipped: no avx2");
            return;
        };
        println!("isa: avx2");
        let team = TaskTeam::new(2);
        for t in [
            synth::power_law(&[30, 14, 40], 2_000, 1.8, 41),
            synth::random_uniform(&[300, 200, 400], 700, 29),
            synth::random_uniform(&[8, 12, 6, 9], 900, 31),
            synth::random_uniform(&[5, 6, 4, 7, 3], 600, 37),
            synth::random_uniform(&[9, 7, 11], PREFETCH_FIBERS - 3, 43),
            SparseTensor::from_entries(vec![4, 5, 6], &[(vec![1, 2, 3], 2.0)]),
            SparseTensor::new(vec![3, 4, 5]),
        ] {
            // one tree: root, internal and leaf kernels
            let set = CsfSet::build(&t, CsfAlloc::One, &team, SortVariant::AllOpts);
            for rank in [
                1, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 35, 40, 47, 48, 49, 63, 64, 65,
            ] {
                let factors = factors_for(&t, rank, 9);
                for access in ALL_ACCESS {
                    for specialize in [true, false] {
                        let cfg = MttkrpConfig {
                            access,
                            specialize,
                            priv_threshold: 1e9,
                            ..Default::default()
                        };
                        let mut ws = MttkrpWorkspace::new(&cfg, 2);
                        for mode in 0..t.order() {
                            let (csf, kind) = set.for_mode(mode);
                            let mut run = |isa| {
                                let mut out = Matrix::zeros(t.dims()[mode], rank);
                                mttkrp_on(
                                    isa, csf, kind, &factors, mode, &mut out, &mut ws, &team, &cfg,
                                );
                                out
                            };
                            assert_eq!(
                                bits(&run(None)),
                                bits(&run(Some(avx2))),
                                "dims {:?} nnz {} rank {rank} mode {mode} ({kind:?}) {access:?} \
                                 specialize {specialize}",
                                t.dims(),
                                t.nnz()
                            );
                        }
                    }
                }
            }
        }
    }

    /// `0.0 + x` is not `x`. Where every contribution to an element of a
    /// fiber's up-row is `-0.0` (negative values against a zero column of
    /// the leaf factor), the recursive walk sums them into a zeroed arena
    /// row and gets `+0.0`; the hypersparse walk must too, so its partial
    /// sums start at `+0.0`, not at their first product. The sign shows
    /// in the up-row `compute_up` returns — the kernel's output starts at
    /// `+0.0` and would wash it out — so that is compared, by `to_bits`,
    /// at one and two column chunks; then the output of every strategy,
    /// tuned against plain.
    #[test]
    fn negative_zero_contributions_sum_to_positive_zero() {
        let t = SparseTensor::from_entries(
            vec![2, 3, 4],
            &[
                (vec![0, 0, 1], -1.0),
                (vec![0, 1, 2], -2.0),
                (vec![0, 2, 0], -0.5),
                (vec![0, 2, 3], -3.0),
                (vec![1, 0, 2], -4.0),
            ],
        );
        let team = TaskTeam::new(1);
        let csf = Csf::build(&t, &[0, 1, 2], &team, SortVariant::AllOpts);
        assert!(csf.nnz_per_fiber() < DENSE_FIBER_NNZ);
        for rank in [5, 35] {
            let mut factors = factors_for(&t, rank, 3);
            // every third column of the leaf factor is zero: each
            // contribution to that column is a negative value times +0.0
            for i in 0..t.dims()[2] {
                for r in (0..rank).step_by(3) {
                    factors[2][(i, r)] = 0.0;
                }
            }
            let zero_columns_are_positive = |row: &[f64], what: &str| {
                for r in (0..rank).step_by(3) {
                    assert_eq!(row[r].to_bits(), 0, "{what}: rank {rank} column {r}");
                }
            };
            for s in 0..csf.nfibers(0) {
                let up = |flat: bool| {
                    let mut arena = vec![f64::NAN; 3 * rank];
                    if flat {
                        walk_portable::compute_up::<PointerZipAccess, true>(
                            &csf, 0, s, &factors, rank, &mut arena,
                        );
                    } else {
                        walk_portable::compute_up::<PointerZipAccess, false>(
                            &csf, 0, s, &factors, rank, &mut arena,
                        );
                    }
                    arena.truncate(rank);
                    arena
                };
                let (recursive, flat) = (up(false), up(true));
                zero_columns_are_positive(&recursive, "recursive walk");
                let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(to_bits(&recursive), to_bits(&flat), "slice {s} rank {rank}");
            }
            let set = CsfSet::build(&t, CsfAlloc::One, &team, SortVariant::AllOpts);
            for access in ALL_ACCESS {
                let run = |specialize| {
                    let cfg = MttkrpConfig {
                        access,
                        specialize,
                        ..Default::default()
                    };
                    let mut ws = MttkrpWorkspace::new(&cfg, 1);
                    let mut out = Matrix::zeros(t.dims()[0], rank);
                    mttkrp(&set, &factors, 0, &mut out, &mut ws, &team, &cfg);
                    out
                };
                let (plain, tuned) = (run(false), run(true));
                assert_eq!(bits(&plain), bits(&tuned), "rank {rank} {access:?}");
                for i in 0..t.dims()[0] {
                    zero_columns_are_positive(tuned.row(i), "mttkrp");
                }
            }
        }
    }

    /// The debug shadow of `SharedOut`'s protocol: one task may write a
    /// row without a lock any number of times, a second task may not.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "tasks 0 and 1 both wrote output row 2 without a lock")]
    fn unlocked_rows_written_by_two_tasks_panic() {
        let mut m = Matrix::zeros(4, 3);
        let shared = SharedOut::new(&mut m);
        let target = |task| OutTarget::Shared {
            out: &shared,
            pool: None,
            task,
        };
        target(0).add_scaled(2, 1.0, &[1.0; 3]);
        target(0).add_scaled(2, 1.0, &[1.0; 3]);
        target(1).add_scaled(3, 1.0, &[1.0; 3]);
        target(1).add_scaled(2, 1.0, &[1.0; 3]);
    }

    /// A hint is not an access: a row far outside the matrix, or an
    /// empty one, is harmless.
    #[test]
    fn prefetch_hint_cannot_fault() {
        let m = Matrix::zeros(2, 35);
        prefetch_row(m.as_slice().as_ptr(), usize::MAX / 1024, 35);
        prefetch_row(m.as_slice().as_ptr(), 0, 0);
    }

    #[test]
    fn specialized_dispatch_matches_reference_under_locks() {
        // The lock path interleaves task updates nondeterministically, so
        // compare against the COO reference (within fp tolerance) rather
        // than bit-for-bit.
        let t = synth::power_law(&[20, 12, 28], 1_500, 1.5, 17);
        for rank in [8, 16, 32] {
            let cfg = MttkrpConfig {
                priv_threshold: 0.0,
                specialize: true,
                ..Default::default()
            };
            run_config(&t, rank, CsfAlloc::Two, &cfg, 4);
        }
    }

    #[test]
    fn specialized_tiled_is_bit_identical_to_generic() {
        let t = synth::power_law(&[25, 18, 33], 2_000, 1.8, 29);
        let rank = 16;
        let factors = factors_for(&t, rank, 5);
        let team = TaskTeam::new(2);
        for mode in 0..t.order() {
            let tiled = crate::tiling::TiledCsf::build(&t, mode, 2, &team, SortVariant::AllOpts);
            for access in ALL_ACCESS {
                let generic = MttkrpConfig {
                    access,
                    specialize: false,
                    ..Default::default()
                };
                let special = MttkrpConfig {
                    specialize: true,
                    ..generic
                };
                let mut a = Matrix::zeros(t.dims()[mode], rank);
                let mut b = Matrix::zeros(t.dims()[mode], rank);
                mttkrp_tiled(&tiled, &factors, &mut a, &team, &generic, None);
                mttkrp_tiled(&tiled, &factors, &mut b, &team, &special, None);
                assert_eq!(a.as_slice(), b.as_slice(), "mode {mode} access {access:?}");
            }
        }
    }

    /// The measurement behind [`crate::csf::DENSE_FIBER_NNZ`]: the middle
    /// mode of a two-CSF set, leaf kernel on the second representation
    /// against internal kernel on the first, privatized and under locks,
    /// across fiber densities. Prints a table; asserts nothing. Run with
    /// `cargo test --release -p splatt-core routing_sweep -- --ignored
    /// --nocapture` (the numbers in EXPERIMENTS.md come from this).
    #[test]
    #[ignore = "measurement: run by hand in --release"]
    fn routing_sweep() {
        let team = TaskTeam::new(1);
        let rank = 35;
        let reps = 15;
        println!("dims nnz nnz/fiber(csf0) sync leaf(csf1)_ms internal(csf0)_ms internal/leaf");
        for dims in [
            [300usize, 20_000, 40_000],
            [150, 2_500, 40_000],
            [100, 1_500, 40_000],
            [100, 750, 40_000],
            [50, 750, 40_000],
        ] {
            for skewed in [false, true] {
                let t = if skewed {
                    synth::power_law(&dims, 600_000, 1.5, 3)
                } else {
                    synth::random_uniform(&dims, 600_000, 3)
                };
                let set = CsfSet::build(&t, CsfAlloc::Two, &team, SortVariant::default());
                let (first, second) = (&set.csfs()[0], &set.csfs()[1]);
                let mode = first.dim_perm()[1];
                assert_eq!(second.dim_perm()[2], mode);
                let factors = factors_for(&t, rank, 5);
                let mut out = Matrix::zeros(t.dims()[mode], rank);
                for (sync, priv_threshold) in [("privatized", 1e12), ("locks", 0.0)] {
                    let cfg = MttkrpConfig {
                        priv_threshold,
                        ..Default::default()
                    };
                    let mut ws = MttkrpWorkspace::new(&cfg, 1);
                    let mut best_ms = |csf: &Csf, kind: KernelKind| {
                        (0..reps)
                            .map(|_| {
                                let start = std::time::Instant::now();
                                mttkrp_on(
                                    Avx2::detect(),
                                    csf,
                                    kind,
                                    &factors,
                                    mode,
                                    &mut out,
                                    &mut ws,
                                    &team,
                                    &cfg,
                                );
                                start.elapsed().as_secs_f64() * 1e3
                            })
                            .fold(f64::MAX, f64::min)
                    };
                    let leaf = best_ms(second, KernelKind::Leaf);
                    let internal = best_ms(first, KernelKind::Internal(1));
                    println!(
                        "{dims:?}{} {} {:.2} {sync} {leaf:.2} {internal:.2} {:.2}",
                        if skewed { " power-law" } else { " uniform" },
                        t.nnz(),
                        first.nnz_per_fiber(),
                        internal / leaf
                    );
                }
            }
        }
    }

    #[test]
    fn empty_tensor_zeroes_output() {
        let t = SparseTensor::new(vec![3, 4, 5]);
        let team = TaskTeam::new(2);
        let set = CsfSet::build(&t, CsfAlloc::One, &team, SortVariant::AllOpts);
        let factors = factors_for(&t, 3, 1);
        let cfg = MttkrpConfig::default();
        let mut ws = MttkrpWorkspace::new(&cfg, 2);
        let mut out = Matrix::filled(4, 3, 9.0);
        mttkrp(&set, &factors, 1, &mut out, &mut ws, &team, &cfg);
        assert!(out.approx_eq(&Matrix::zeros(4, 3), 0.0));
    }

    #[test]
    fn rank_one_decomposition_kernel() {
        let t = synth::random_uniform(&[10, 12, 8], 300, 21);
        run_config(&t, 1, CsfAlloc::Two, &MttkrpConfig::default(), 2);
    }

    #[test]
    fn tiled_mttkrp_matches_reference() {
        let t = synth::power_law(&[25, 18, 33], 2_500, 1.8, 31);
        let rank = 5;
        let factors = factors_for(&t, rank, 11);
        for ntasks in [1usize, 3] {
            let team = TaskTeam::new(ntasks);
            for mode in 0..3 {
                let tiled = crate::tiling::TiledCsf::build(
                    &t,
                    mode,
                    ntasks,
                    &team,
                    splatt_tensor::SortVariant::AllOpts,
                );
                for access in ALL_ACCESS {
                    let cfg = MttkrpConfig {
                        access,
                        ..Default::default()
                    };
                    let mut out = Matrix::zeros(t.dims()[mode], rank);
                    mttkrp_tiled(&tiled, &factors, &mut out, &team, &cfg, None);
                    let expect = mttkrp_coo(&t, &factors, mode);
                    assert!(
                        out.approx_eq(&expect, 1e-9),
                        "tiled mode {mode} ntasks {ntasks} access {access:?}: diff {}",
                        out.max_abs_diff(&expect)
                    );
                }
            }
        }
    }

    #[test]
    fn tiled_with_more_tiles_than_tasks() {
        let t = synth::random_uniform(&[30, 20, 25], 1_500, 41);
        let rank = 4;
        let factors = factors_for(&t, rank, 2);
        let team = TaskTeam::new(2);
        // 7 tiles over 2 tasks: block partition must cover all tiles
        let tiled =
            crate::tiling::TiledCsf::build(&t, 1, 7, &team, splatt_tensor::SortVariant::AllOpts);
        let cfg = MttkrpConfig::default();
        let mut out = Matrix::zeros(t.dims()[1], rank);
        mttkrp_tiled(&tiled, &factors, &mut out, &team, &cfg, None);
        assert!(out.approx_eq(&mttkrp_coo(&t, &factors, 1), 1e-9));
    }

    #[test]
    fn privatization_heuristic_reproduces_paper_decisions() {
        // Paper Section V-D.2: YELP needs locks beyond ~2-3 tasks, NELL-2
        // stays privatized at every measured task count (1..32).
        let sorted_middle = |dims: [usize; 3]| {
            let mut d = dims.to_vec();
            d.sort_unstable();
            d[1]
        };
        let yelp_mid = sorted_middle([41_000, 11_000, 75_000]);
        let nell_mid = sorted_middle([12_000, 9_000, 29_000]);
        assert!(use_privatization(yelp_mid, 2, 8_000_000, 0.02));
        assert!(!use_privatization(yelp_mid, 4, 8_000_000, 0.02));
        assert!(!use_privatization(yelp_mid, 32, 8_000_000, 0.02));
        for t in [1usize, 2, 4, 8, 16, 32] {
            assert!(
                use_privatization(nell_mid, t, 77_000_000, 0.02),
                "tasks {t}"
            );
        }
    }

    #[test]
    fn uses_locks_reporting() {
        let t = synth::power_law(&[400, 150, 500], 2_000, 1.5, 2);
        let team = TaskTeam::new(4);
        let set = CsfSet::build(&t, CsfAlloc::Two, &team, SortVariant::AllOpts);
        let cfg = MttkrpConfig::default();
        // roots (modes with their own CSF) never lock
        assert!(!uses_locks(&set, 1, 4, &cfg)); // shortest: root of csf0
        assert!(!uses_locks(&set, 2, 4, &cfg)); // longest: root of csf1
                                                // middle mode: dim 400 * 4 tasks = 1600 > 0.02 * 2000 => locks
        assert!(uses_locks(&set, 0, 4, &cfg));
        // with a generous threshold it privatizes instead
        let cfg2 = MttkrpConfig {
            priv_threshold: 10.0,
            ..cfg
        };
        assert!(!uses_locks(&set, 0, 4, &cfg2));
    }

    #[test]
    #[should_panic(expected = "output rows")]
    fn shape_mismatch_panics() {
        let t = synth::random_uniform(&[5, 6, 7], 50, 1);
        let team = TaskTeam::new(1);
        let set = CsfSet::build(&t, CsfAlloc::One, &team, SortVariant::AllOpts);
        let factors = factors_for(&t, 2, 1);
        let cfg = MttkrpConfig::default();
        let mut ws = MttkrpWorkspace::new(&cfg, 1);
        let mut out = Matrix::zeros(5, 2); // wrong: mode 1 needs 6 rows
        mttkrp(&set, &factors, 1, &mut out, &mut ws, &team, &cfg);
    }
}
