//! Query kernels over a decomposed Kruskal model — the compute layer of
//! the serving subsystem.
//!
//! Three query kinds (the downstream counterpart of the paper's
//! pattern-extraction use case):
//!
//! * [`entry_values`] — reconstruct the modeled value at a batch of
//!   coordinates.
//! * [`slice_values`] — reconstruct the full dense slice obtained by
//!   fixing one `(mode, index)` pair, row-major over the remaining modes.
//! * [`top_k`] — score every index along one mode against fixed
//!   coordinates in all other modes and return the `k` best, ties broken
//!   toward the lower index.
//!
//! Every value is **bit-identical** to
//! [`crate::reference::kruskal_value`] at the same coordinate — the
//! invariant the serving property tests pin down.
//!
//! # One scoring core, and what it may hoist
//!
//! `kruskal_value` is `Σ_r λ_r · (((f₀·f₁)·f₂)…)`: the factor entries
//! multiplied left to right in mode order, `λ_r` applied last, the rank
//! terms added in ascending `r`. A top-k, and every innermost run of a
//! slice, is a *scan*: one mode `s` varies and every other coordinate is
//! held. The association decides what a scan may take out of its per-cell
//! loop:
//!
//! * `Π_{j<s} f_j` is a left-to-right prefix of the product itself, the
//!   same value in every cell, so it is computed once per scan (once per
//!   query for a top-k, once per outer odometer tick for a slice).
//! * `λ_r` and the entries of the modes after `s` multiply a value that
//!   already contains the scanned entry. They are applied per cell, in
//!   order. Folding them into one weight vector (the GEMV form
//!   `F_s · (λ ∘ a ∘ b)`) would reassociate and move low bits.
//!
//! Both scan entry points ([`top_k`] and [`slice_values`]) go through
//! the core, and it scores several cells at once, each cell's `Σ_r` still
//! in rank order — the serial chains are interleaved, not reassociated —
//! so the additions of one cell overlap the others'. Its cells come from
//! one of two sources:
//!
//! * **Lane panels.** A [`LanePanel`] holds a factor's rows in blocks of
//!   [`LANES`], rank-major, so the scanned entries of a block's cells for
//!   one rank term are `LANES` contiguous doubles: one vector load, and
//!   every lane runs exactly the per-cell chain above. The panel forms
//!   ([`top_k_with_panels`], [`slice_values_with_panels`]) take a
//!   model's [`LanePanels`], which lay out a mode's panel the first time a
//!   scan over that mode asks for it — never for a mode that is only
//!   fixed, never ahead of use — so the memory is at most one copy of each
//!   scanned factor. The serving registry keeps one per model version.
//! * **Factor rows.** Four rows per step, their `r`-th entries gathered
//!   one by one. It serves the `rows % LANES` rows after a panel's last
//!   full block, and every scan of a caller holding only a
//!   `&KruskalModel` ([`top_k`], [`slice_values`]). An order-1 slice has
//!   no scan: its one cell is `kruskal_value` itself.
//!
//! `LANES` is 16, set by a sweep of top-k scoring over a 16 384 × 16
//! factor (8 / 16 / 32 lanes: about 66 / 59 / 56 µs with AVX2; 16 is as
//! fast on that scan and faster on the short scans of a slice). The core
//! is compiled twice, portable and with AVX2, picked per call from
//! `cpuid` exactly as the MTTKRP walk is; no FMA in either, so the two
//! copies are bit-identical. On that factor a scan over the panel costs
//! about half of one over rows; the panel's layout, once per version and
//! mode, about 0.3 ms.
//!
//! One caveat is IEEE 754's, not this module's. When two NaNs with
//! *different* bit patterns meet in one multiply or add, the standard
//! leaves open whose payload survives; x86 keeps the first operand's, and
//! which operand comes first is the compiler's choice per call site. On
//! such inputs `kruskal_value` is not bit-determined even against itself,
//! and the guarantee is NaN for NaN. Everything else — infinities, signed
//! zeros, the NaN the hardware makes of `∞ − ∞` or `0 · ∞`, any number of
//! NaNs of one pattern — is exact to the bit.
//!
//! Kernels take a [`QueryArena`]: a grow-only scratch (the PR 4 kernel
//! discipline) so the steady-state query hot path allocates nothing once
//! warmed up per shape. Growth is reported to `splatt-probe`'s
//! kernel-scratch counters and to the arena's own monotonic counters,
//! which the serving stats surface for allocation-free certification.

use crate::dense::Matrix;
use crate::isa::{on_isa, Avx2};
use crate::kruskal::KruskalModel;
use crate::reference::kruskal_value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Why a query cannot be answered against a given model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Mode index `mode` out of range for a model of order `order`.
    ModeOutOfRange { mode: usize, order: usize },
    /// Coordinate `index` out of range for mode `mode` of size `dim`.
    CoordOutOfRange { mode: usize, index: u32, dim: usize },
    /// A coordinate tuple of the wrong length for the model's order.
    OrderMismatch { got: usize, order: usize },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::ModeOutOfRange { mode, order } => {
                write!(f, "mode {mode} out of range for order-{order} model")
            }
            QueryError::CoordOutOfRange { mode, index, dim } => {
                write!(
                    f,
                    "coordinate {index} out of range for mode {mode} (dim {dim})"
                )
            }
            QueryError::OrderMismatch { got, order } => {
                write!(f, "{got} coordinates for an order-{order} model")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Grow-only scratch for the query kernels: one coordinate buffer, one
/// prefix-product buffer (a rank's worth), one score buffer, one
/// candidate-index buffer (at most twice the largest `k` served).
/// Buffers never shrink; after the first query of each shape the kernels
/// allocate nothing.
#[derive(Debug, Default)]
pub struct QueryArena {
    coord: Vec<u32>,
    prefix: Vec<f64>,
    scores: Vec<f64>,
    ranked: Vec<u32>,
    growth_allocs: u64,
    growth_bytes: u64,
}

/// Grow `buf` to at least `len` elements; the bytes added.
fn grow<T: Clone + Default>(buf: &mut Vec<T>, len: usize) -> usize {
    let added = len.saturating_sub(buf.len());
    if added > 0 {
        buf.resize(len, T::default());
    }
    added * std::mem::size_of::<T>()
}

impl QueryArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        QueryArena::default()
    }

    /// Number of times any buffer grew (monotonic).
    pub fn growth_allocs(&self) -> u64 {
        self.growth_allocs
    }

    /// Total bytes of growth (monotonic).
    pub fn growth_bytes(&self) -> u64 {
        self.growth_bytes
    }

    /// Make room for a query over an order-`order`, rank-`rank` model
    /// that scores `cells` rows and keeps `candidates` of them while
    /// selecting (both 0 for a slice, which scores straight into its
    /// output).
    fn reserve(&mut self, order: usize, rank: usize, cells: usize, candidates: usize) {
        for bytes in [
            grow(&mut self.coord, order),
            grow(&mut self.prefix, rank),
            grow(&mut self.scores, cells),
            grow(&mut self.ranked, candidates),
        ] {
            if bytes > 0 {
                self.growth_allocs += 1;
                self.growth_bytes += bytes as u64;
                splatt_probe::alloc::record_kernel_scratch(bytes);
            }
        }
    }
}

fn check_coord(model: &KruskalModel, coord: &[u32]) -> Result<(), QueryError> {
    let order = model.order();
    if coord.len() != order {
        return Err(QueryError::OrderMismatch {
            got: coord.len(),
            order,
        });
    }
    for (m, (&i, f)) in coord.iter().zip(&model.factors).enumerate() {
        if i as usize >= f.rows() {
            return Err(QueryError::CoordOutOfRange {
                mode: m,
                index: i,
                dim: f.rows(),
            });
        }
    }
    Ok(())
}

/// Reconstruct the modeled value at each coordinate tuple of `coords`
/// (flat, `order` entries per tuple) into `out`.
///
/// # Errors
/// Rejects coordinate tuples that do not tile `coords` exactly or fall
/// outside the model's dimensions; `out` is only fully written on `Ok`.
///
/// # Panics
/// Panics if `out.len() != coords.len() / order`.
pub fn entry_values(
    model: &KruskalModel,
    coords: &[u32],
    out: &mut [f64],
) -> Result<(), QueryError> {
    let order = model.order();
    if order == 0 || !coords.len().is_multiple_of(order) {
        return Err(QueryError::OrderMismatch {
            got: coords.len(),
            order,
        });
    }
    let count = coords.len() / order;
    assert_eq!(out.len(), count, "entry_values: output length mismatch");
    for (slot, coord) in out.iter_mut().zip(coords.chunks_exact(order)) {
        check_coord(model, coord)?;
        *slot = kruskal_value(&model.lambda, &model.factors, coord);
    }
    Ok(())
}

/// Rows per block of a [`LanePanel`]: the cells one panel step scores.
/// Set by a sweep of top-k scoring over the bench's 16 384 × 16 factor
/// (see the module docs).
pub const LANES: usize = 16;

/// One factor's rows in blocks of [`LANES`], each block rank-major: entry
/// `r` of the block's `LANES` rows is `LANES` contiguous doubles. Only full
/// blocks are laid out; the `rows % LANES` rows after them are read from
/// the factor itself.
#[derive(Debug)]
pub struct LanePanel {
    rank: usize,
    blocks: usize,
    data: Vec<f64>,
}

impl LanePanel {
    fn build(factor: &Matrix) -> LanePanel {
        let (rank, blocks) = (factor.cols(), factor.rows() / LANES);
        let mut data = Vec::with_capacity(blocks * rank * LANES);
        for rows in factor.as_slice().chunks_exact(rank.max(1) * LANES) {
            for r in 0..rank {
                data.extend(rows.chunks_exact(rank).map(|row| row[r]));
            }
        }
        LanePanel { rank, blocks, data }
    }

    /// Whether this is the layout of `factor` (by shape).
    fn fits(&self, factor: &Matrix) -> bool {
        (self.rank, self.blocks) == (factor.cols(), factor.rows() / LANES)
    }

    /// The full blocks, `rank * LANES` entries each.
    fn blocks(&self) -> impl Iterator<Item = &[f64]> {
        let width = self.rank * LANES;
        (0..self.blocks).map(move |b| &self.data[b * width..(b + 1) * width])
    }

    /// Heap bytes of the layout.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

/// The lane panels of one model, one slot per mode, each laid out the
/// first time a scan over that mode asks for it (and never again): a mode
/// that is only ever fixed, or a model that only answers entries, holds
/// none. At most one copy of each scanned factor.
#[derive(Debug)]
pub struct LanePanels {
    modes: Vec<OnceLock<LanePanel>>,
    builds: AtomicUsize,
}

impl LanePanels {
    /// Empty slots for an order-`order` model; lays out nothing.
    pub fn new(order: usize) -> Self {
        LanePanels {
            modes: (0..order).map(|_| OnceLock::new()).collect(),
            builds: AtomicUsize::new(0),
        }
    }

    /// Mode `mode`'s panel, if a scan has laid it out.
    pub fn built(&self, mode: usize) -> Option<&LanePanel> {
        self.modes.get(mode)?.get()
    }

    /// How many panels have been laid out (monotonic; at most the order).
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Mode `mode`'s panel of `model`, laid out on first need. Concurrent
    /// first callers wait for one layout.
    ///
    /// # Panics
    /// Panics if these slots were made for a model of another order, or
    /// the panel for another shape of factor.
    fn panel(&self, model: &KruskalModel, mode: usize) -> &LanePanel {
        assert_eq!(
            self.modes.len(),
            model.order(),
            "lane panels of another model"
        );
        let factor = &model.factors[mode];
        let panel = self.modes[mode].get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            LanePanel::build(factor)
        });
        assert!(panel.fits(factor), "lane panels of another model");
        panel
    }
}

/// `W` cells of a scan read from factor rows, their `Σ_r` chains
/// interleaved: cell `c` reads row `rows[c]`, and per rank term the
/// multiplications run in `kruskal_value`'s order — `prefix` (when `PRE`),
/// the scanned entry, `tail`'s modes, `λ_r` last.
#[inline(always)]
fn score_cells<const W: usize, const PRE: bool>(
    lambda: &[f64],
    prefix: &[f64],
    rows: [&[f64]; W],
    tail: &impl Fn(usize, f64) -> f64,
) -> [f64; W] {
    // What `kruskal_value`'s `.sum()` starts from, whichever zero that is.
    let mut acc = [std::iter::empty::<f64>().sum::<f64>(); W];
    for (r, &weight) in lambda.iter().enumerate() {
        for (acc, row) in acc.iter_mut().zip(&rows) {
            let head = if PRE { prefix[r] * row[r] } else { row[r] };
            *acc += weight * tail(r, head);
        }
    }
    acc
}

/// The [`LANES`] cells of one panel block: the chain of [`score_cells`]
/// on every lane, each rank term's scanned entries one contiguous load.
#[inline(always)]
fn score_lanes<const PRE: bool>(
    lambda: &[f64],
    prefix: &[f64],
    block: &[f64],
    tail: &impl Fn(usize, f64) -> f64,
) -> [f64; LANES] {
    let mut acc = [std::iter::empty::<f64>().sum::<f64>(); LANES];
    for (r, (&weight, column)) in lambda.iter().zip(block.chunks_exact(LANES)).enumerate() {
        for (acc, &x) in acc.iter_mut().zip(column) {
            let head = if PRE { prefix[r] * x } else { x };
            *acc += weight * tail(r, head);
        }
    }
    acc
}

/// The scoring loop of [`scan`] for one compile-time shape of the
/// product: the panel's full blocks when there is a panel, then four
/// rows per step from the factor, then the 0..=3 left over one at a time.
#[inline(always)]
fn score_rows<const PRE: bool>(
    lambda: &[f64],
    prefix: &[f64],
    factor: &Matrix,
    panel: Option<&LanePanel>,
    tail: impl Fn(usize, f64) -> f64,
    out: &mut [f64],
) {
    let rank = lambda.len();
    let prefix = if PRE { &prefix[..rank] } else { prefix };
    let mut j = 0;
    if let Some(panel) = panel {
        for (cells, block) in out.chunks_exact_mut(LANES).zip(panel.blocks()) {
            cells.copy_from_slice(&score_lanes::<PRE>(lambda, prefix, block, &tail));
        }
        j = panel.blocks * LANES;
    }
    let row = |j: usize| &factor.row(j)[..rank];
    let mut quads = out[j..].chunks_exact_mut(4);
    for quad in &mut quads {
        let rows = [row(j), row(j + 1), row(j + 2), row(j + 3)];
        quad.copy_from_slice(&score_cells::<4, PRE>(lambda, prefix, rows, &tail));
        j += 4;
    }
    for slot in quads.into_remainder() {
        [*slot] = score_cells::<1, PRE>(lambda, prefix, [row(j)], &tail);
        j += 1;
    }
}

/// The modes after the scanned one, applied per cell in mode order. Up to
/// two are compiled in with their rows taken once; a longer tail (order
/// five and up) loops over the modes per element.
#[inline(always)]
fn score_tail<const PRE: bool>(
    model: &KruskalModel,
    panel: Option<&LanePanel>,
    coord: &[u32],
    mode: usize,
    prefix: &[f64],
    out: &mut [f64],
) {
    let (lambda, factor) = (&model.lambda[..], &model.factors[mode]);
    let rank = lambda.len();
    let after = &model.factors[mode + 1..];
    let at = &coord[mode + 1..];
    let fixed_row = |j: usize| &after[j].row(at[j] as usize)[..rank];
    match after.len() {
        0 => score_rows::<PRE>(lambda, prefix, factor, panel, |_, p| p, out),
        1 => {
            let a = fixed_row(0);
            score_rows::<PRE>(lambda, prefix, factor, panel, |r, p| p * a[r], out);
        }
        2 => {
            let (a, b) = (fixed_row(0), fixed_row(1));
            score_rows::<PRE>(lambda, prefix, factor, panel, |r, p| p * a[r] * b[r], out);
        }
        _ => {
            let tail = |r: usize, p: f64| {
                after
                    .iter()
                    .zip(at)
                    .fold(p, |p, (f, &i)| p * f.row(i as usize)[r])
            };
            score_rows::<PRE>(lambda, prefix, factor, panel, tail, out);
        }
    }
}

/// The scoring core every scan entry point shares: `out[j]` is the
/// model's value with mode `mode` at row `j` and every other mode at its
/// `coord` entry, bit-identical to `kruskal_value` there. See the module
/// docs for what is hoisted: the product over the modes before `mode`
/// goes to `prefix` once, everything else stays in the per-cell chain.
/// `panel`, when given, is mode `mode`'s.
#[inline(always)]
fn scan_core(
    model: &KruskalModel,
    panel: Option<&LanePanel>,
    coord: &[u32],
    mode: usize,
    prefix: &mut [f64],
    out: &mut [f64],
) {
    let rank = model.lambda.len();
    if mode == 0 {
        return score_tail::<false>(model, panel, coord, mode, prefix, out);
    }
    prefix.copy_from_slice(&model.factors[0].row(coord[0] as usize)[..rank]);
    for (f, &i) in model.factors[1..mode].iter().zip(&coord[1..mode]) {
        for (p, &x) in prefix.iter_mut().zip(f.row(i as usize)) {
            *p *= x;
        }
    }
    score_tail::<true>(model, panel, coord, mode, prefix, out);
}

fn scan_portable(
    model: &KruskalModel,
    panel: Option<&LanePanel>,
    coord: &[u32],
    mode: usize,
    prefix: &mut [f64],
    out: &mut [f64],
) {
    scan_core(model, panel, coord, mode, prefix, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scan_avx2(
    model: &KruskalModel,
    panel: Option<&LanePanel>,
    coord: &[u32],
    mode: usize,
    prefix: &mut [f64],
    out: &mut [f64],
) {
    scan_core(model, panel, coord, mode, prefix, out);
}

/// [`scan_core`] on the copy compiled for `isa` (`None` = portable).
fn scan(
    isa: Option<Avx2>,
    model: &KruskalModel,
    panel: Option<&LanePanel>,
    coord: &[u32],
    mode: usize,
    prefix: &mut [f64],
    out: &mut [f64],
) {
    on_isa!(
        isa,
        scan_avx2,
        scan_portable,
        (model, panel, coord, mode, prefix, out)
    )
}

/// Number of entries in the dense slice obtained by fixing `mode`.
pub fn slice_len(model: &KruskalModel, mode: usize) -> Result<usize, QueryError> {
    let order = model.order();
    if mode >= order {
        return Err(QueryError::ModeOutOfRange { mode, order });
    }
    Ok(model
        .factors
        .iter()
        .enumerate()
        .filter(|(m, _)| *m != mode)
        .map(|(_, f)| f.rows())
        .product())
}

/// A slice fixing `fixed` (with `coord[fixed]` set), for a model with a
/// free mode: the free modes walk row-major, last fastest — one [`scan`]
/// of the last free mode per tick of the odometer over the ones before
/// it.
fn slice_runs(
    isa: Option<Avx2>,
    model: &KruskalModel,
    panels: Option<&LanePanels>,
    fixed: usize,
    coord: &mut [u32],
    prefix: &mut [f64],
    out: &mut [f64],
) {
    let scanned = (0..model.order())
        .rev()
        .find(|&m| m != fixed)
        .expect("a slice run needs a free mode");
    let run = model.factors[scanned].rows();
    if run == 0 {
        return;
    }
    let panel = panels.map(|p| p.panel(model, scanned));
    let outer = |m: &usize| *m != fixed;
    for m in (0..scanned).filter(outer) {
        coord[m] = 0;
    }
    for chunk in out.chunks_exact_mut(run) {
        scan(isa, model, panel, coord, scanned, prefix, chunk);
        for m in (0..scanned).rev().filter(outer) {
            coord[m] += 1;
            if (coord[m] as usize) < model.factors[m].rows() {
                break;
            }
            coord[m] = 0;
        }
    }
}

/// Reconstruct the dense slice `X[.., index, ..]` (fixing `mode` at
/// `index`) into `out`, row-major over the remaining modes in ascending
/// mode order.
///
/// The last free mode is scanned by the shared scoring core with the
/// product over every mode before it hoisted per run, so a slice costs
/// about three flops per value and rank term instead of a full
/// `kruskal_value` each. This form reads the scanned factor's rows;
/// [`slice_values_with_panels`] reads its lane panel.
///
/// # Errors
/// Rejects out-of-range `mode`/`index`.
///
/// # Panics
/// Panics if `out.len() != slice_len(model, mode)`.
pub fn slice_values(
    model: &KruskalModel,
    mode: usize,
    index: u32,
    arena: &mut QueryArena,
    out: &mut [f64],
) -> Result<(), QueryError> {
    slice_on(Avx2::detect(), model, None, mode, index, arena, out)
}

/// [`slice_values`] with the scanned mode's entries read from `panels`
/// (laid out on first use): the same values, to the bit.
///
/// # Errors
/// As [`slice_values`].
///
/// # Panics
/// As [`slice_values`]. `panels` must be the ones made for `model`:
/// panels of a model of another shape panic; of another model of the
/// same shape, they are read as if they were this one's.
pub fn slice_values_with_panels(
    model: &KruskalModel,
    panels: &LanePanels,
    mode: usize,
    index: u32,
    arena: &mut QueryArena,
    out: &mut [f64],
) -> Result<(), QueryError> {
    slice_on(Avx2::detect(), model, Some(panels), mode, index, arena, out)
}

fn slice_on(
    isa: Option<Avx2>,
    model: &KruskalModel,
    panels: Option<&LanePanels>,
    mode: usize,
    index: u32,
    arena: &mut QueryArena,
    out: &mut [f64],
) -> Result<(), QueryError> {
    let len = slice_len(model, mode)?;
    let dim = model.factors[mode].rows();
    if index as usize >= dim {
        return Err(QueryError::CoordOutOfRange { mode, index, dim });
    }
    assert_eq!(out.len(), len, "slice_values: output length mismatch");
    let (order, rank) = (model.order(), model.lambda.len());
    arena.reserve(order, rank, 0, 0);
    let (coord, prefix) = (&mut arena.coord[..order], &mut arena.prefix[..rank]);
    coord[mode] = index;
    if order == 1 {
        // No free mode: the slice is the one cell at the fixed row.
        out[0] = kruskal_value(&model.lambda, &model.factors, coord);
    } else {
        slice_runs(isa, model, panels, mode, coord, prefix, out);
    }
    Ok(())
}

/// Leave the positions of the `take` best of `0..n` in `buf[..take]`, best
/// first, under `best_first` — O(n + take log take) whatever the input.
///
/// `buf` holds up to `2 * take` candidates (all `n` when that is fewer).
/// When it fills, `select_nth_unstable_by` keeps the best `take` and the
/// worst of those becomes the bar a later position must beat to be kept at
/// all: a prune is O(take) and needs `take` insertions to come round
/// again, and on scores in no particular order all but a few positions
/// cost the one comparison against the bar.
fn select_best(
    n: usize,
    take: usize,
    buf: &mut [u32],
    best_first: impl Fn(&u32, &u32) -> std::cmp::Ordering,
) {
    let mut len = 0;
    let mut bar = None;
    for i in 0..n as u32 {
        if bar.is_some_and(|bar| best_first(&i, &bar).is_ge()) {
            continue;
        }
        buf[len] = i;
        len += 1;
        if len == buf.len() && len > take {
            buf.select_nth_unstable_by(take - 1, &best_first);
            bar = Some(buf[take - 1]);
            len = take;
        }
    }
    if len > take {
        buf[..len].select_nth_unstable_by(take - 1, &best_first);
    }
    buf[..take].sort_unstable_by(&best_first);
}

/// Score every index along `mode` against `fixed` (coordinates for the
/// other modes, ascending mode order) and append the `k` best
/// `(index, score)` pairs to `out`, scores descending, ties broken
/// toward the lower index. `k` is clamped to the mode's dimension.
///
/// Each score is bit-identical to the dense-reconstruction value at the
/// assembled coordinate, so rankings are bit-consistent with
/// [`entry_values`]. Scoring is one pass over the mode's factor (the
/// shared core of the module docs); choosing the `k` best of `dim` is
/// O(dim + k log k) in the worst case — a bounded candidate buffer, not a
/// sort of all `dim` — and on unordered scores close to one comparison
/// per row. This form reads the factor's rows; [`top_k_with_panels`]
/// reads its lane panel.
///
/// # Errors
/// Rejects out-of-range `mode` and malformed or out-of-range `fixed`.
pub fn top_k(
    model: &KruskalModel,
    mode: usize,
    k: usize,
    fixed: &[u32],
    arena: &mut QueryArena,
    out: &mut Vec<(u32, f64)>,
) -> Result<(), QueryError> {
    top_k_on(Avx2::detect(), model, None, mode, k, fixed, arena, out)
}

/// [`top_k`] with mode `mode`'s entries read from `panels` (laid out on
/// first use): the same answer, to the bit.
///
/// # Errors
/// As [`top_k`].
///
/// # Panics
/// `panels` must be the ones made for `model`: panels of a model of
/// another shape panic; of another model of the same shape, they are
/// read as if they were this one's.
pub fn top_k_with_panels(
    model: &KruskalModel,
    panels: &LanePanels,
    mode: usize,
    k: usize,
    fixed: &[u32],
    arena: &mut QueryArena,
    out: &mut Vec<(u32, f64)>,
) -> Result<(), QueryError> {
    top_k_on(
        Avx2::detect(),
        model,
        Some(panels),
        mode,
        k,
        fixed,
        arena,
        out,
    )
}

#[allow(clippy::too_many_arguments)]
fn top_k_on(
    isa: Option<Avx2>,
    model: &KruskalModel,
    panels: Option<&LanePanels>,
    mode: usize,
    k: usize,
    fixed: &[u32],
    arena: &mut QueryArena,
    out: &mut Vec<(u32, f64)>,
) -> Result<(), QueryError> {
    let order = model.order();
    if mode >= order {
        return Err(QueryError::ModeOutOfRange { mode, order });
    }
    if fixed.len() + 1 != order {
        return Err(QueryError::OrderMismatch {
            got: fixed.len(),
            order,
        });
    }
    let (n, rank) = (model.factors[mode].rows(), model.lambda.len());
    let take = k.min(n);
    let candidates = (2 * take).min(n);
    arena.reserve(order, rank, n, candidates);
    let coord = &mut arena.coord[..order];
    let mut fx = fixed.iter();
    for (m, c) in coord.iter_mut().enumerate() {
        if m != mode {
            *c = *fx.next().expect("fixed length checked above");
            let dim = model.factors[m].rows();
            if *c as usize >= dim {
                return Err(QueryError::CoordOutOfRange {
                    mode: m,
                    index: *c,
                    dim,
                });
            }
        }
    }
    if take == 0 {
        return Ok(());
    }
    let panel = panels.map(|p| p.panel(model, mode));
    let (scores, ranked) = (&mut arena.scores[..n], &mut arena.ranked[..candidates]);
    scan(
        isa,
        model,
        panel,
        coord,
        mode,
        &mut arena.prefix[..rank],
        scores,
    );
    // `total_cmp` descending, then ascending index: a total order on
    // (score, index) pairs — deterministic even for the NaN scores of a
    // degenerate model — so which `k` come first, and in what order, does
    // not depend on how they were found: the answer is the one a full
    // sort gives.
    select_best(n, take, ranked, |&a, &b| {
        scores[b as usize]
            .total_cmp(&scores[a as usize])
            .then_with(|| a.cmp(&b))
    });
    out.extend(ranked[..take].iter().map(|&i| (i, scores[i as usize])));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Matrix;

    fn model() -> KruskalModel {
        KruskalModel {
            lambda: vec![2.0, 0.5],
            factors: vec![
                Matrix::random(4, 2, 10),
                Matrix::random(3, 2, 11),
                Matrix::random(5, 2, 12),
            ],
        }
    }

    #[test]
    fn entries_match_the_scalar_oracle_bit_for_bit() {
        let m = model();
        let coords: Vec<u32> = vec![0, 0, 0, 3, 2, 4, 1, 1, 2];
        let mut out = vec![0.0; 3];
        entry_values(&m, &coords, &mut out).unwrap();
        for (chunk, &got) in coords.chunks_exact(3).zip(&out) {
            let want = kruskal_value(&m.lambda, &m.factors, chunk);
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn entry_rejects_bad_coords() {
        let m = model();
        let mut out = vec![0.0; 1];
        assert!(matches!(
            entry_values(&m, &[0, 0], &mut out),
            Err(QueryError::OrderMismatch { .. })
        ));
        assert!(matches!(
            entry_values(&m, &[0, 3, 0], &mut out),
            Err(QueryError::CoordOutOfRange { mode: 1, .. })
        ));
    }

    #[test]
    fn slice_walks_row_major_over_free_modes() {
        let m = model();
        let mut arena = QueryArena::new();
        for mode in 0..3 {
            let len = slice_len(&m, mode).unwrap();
            let mut out = vec![0.0; len];
            slice_values(&m, mode, 1, &mut arena, &mut out).unwrap();
            // spot-check via explicit coordinates
            let dims = [4usize, 3, 5];
            let free: Vec<usize> = (0..3).filter(|&x| x != mode).collect();
            let mut j = 0usize;
            let mut c0 = 0usize;
            while c0 < dims[free[0]] {
                for c1 in 0..dims[free[1]] {
                    let mut coord = [0u32; 3];
                    coord[mode] = 1;
                    coord[free[0]] = c0 as u32;
                    coord[free[1]] = c1 as u32;
                    let want = kruskal_value(&m.lambda, &m.factors, &coord);
                    assert_eq!(out[j].to_bits(), want.to_bits(), "mode {mode} j {j}");
                    j += 1;
                }
                c0 += 1;
            }
        }
    }

    #[test]
    fn slice_rejects_out_of_range() {
        let m = model();
        let mut arena = QueryArena::new();
        let mut out = vec![0.0; 15];
        assert!(matches!(
            slice_values(&m, 3, 0, &mut arena, &mut out),
            Err(QueryError::ModeOutOfRange { .. })
        ));
        assert!(matches!(
            slice_values(&m, 0, 9, &mut arena, &mut out),
            Err(QueryError::CoordOutOfRange { .. })
        ));
    }

    #[test]
    fn top_k_ranks_descending_with_index_ties() {
        // Factor rows 0 and 2 identical -> tied scores -> index order.
        let m = KruskalModel {
            lambda: vec![1.0],
            factors: vec![
                Matrix::from_vec(4, 1, vec![0.5, 0.9, 0.5, 0.1]),
                Matrix::from_vec(2, 1, vec![1.0, 0.0]),
            ],
        };
        let mut arena = QueryArena::new();
        let mut out = Vec::new();
        top_k(&m, 0, 4, &[0], &mut arena, &mut out).unwrap();
        let idx: Vec<u32> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(idx, vec![1, 0, 2, 3]);
        assert_eq!(out[1].1.to_bits(), out[2].1.to_bits());
    }

    #[test]
    fn top_k_clamps_and_validates() {
        let m = model();
        let mut arena = QueryArena::new();
        let mut out = Vec::new();
        top_k(&m, 1, 100, &[0, 0], &mut arena, &mut out).unwrap();
        assert_eq!(out.len(), 3);
        out.clear();
        assert!(matches!(
            top_k(&m, 1, 2, &[0], &mut arena, &mut out),
            Err(QueryError::OrderMismatch { .. })
        ));
        assert!(matches!(
            top_k(&m, 1, 2, &[9, 0], &mut arena, &mut out),
            Err(QueryError::CoordOutOfRange { mode: 0, .. })
        ));
        assert!(matches!(
            top_k(&m, 5, 2, &[0, 0], &mut arena, &mut out),
            Err(QueryError::ModeOutOfRange { .. })
        ));
    }

    #[test]
    fn rank_zero_model_scores_zero_everywhere() {
        let m = KruskalModel {
            lambda: vec![],
            factors: vec![Matrix::zeros(3, 0), Matrix::zeros(2, 0)],
        };
        let mut out = vec![1.0; 2];
        entry_values(&m, &[0, 0, 2, 1], &mut out).unwrap();
        assert_eq!(out, vec![0.0, 0.0]);
        let mut arena = QueryArena::new();
        let mut ranked = Vec::new();
        top_k(&m, 0, 2, &[1], &mut arena, &mut ranked).unwrap();
        assert_eq!(ranked, vec![(0, 0.0), (1, 0.0)]);
    }

    /// A factor of `Matrix::random` entries with ±0, ±∞ and the NaN of
    /// `∞ − ∞` sprinkled over every fifth row.
    fn edgy_factor(rows: usize, rank: usize, seed: u64) -> Matrix {
        let nan = std::hint::black_box(f64::INFINITY) - std::hint::black_box(f64::INFINITY);
        let special = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, nan];
        let mut m = Matrix::random(rows, rank, seed);
        for i in (0..rows).step_by(5) {
            for r in (0..rank).filter(|r| (i + r) % 7 == 0) {
                m.row_mut(i)[r] = special[(i / 5 + r) % special.len()];
            }
        }
        m
    }

    /// Every scan of `model` — each mode's full top-k and a slice fixing
    /// each mode — through the copy for `isa`, from rows or from panels.
    fn every_scan(
        isa: Option<Avx2>,
        model: &KruskalModel,
        panels: Option<&LanePanels>,
    ) -> Vec<u64> {
        let mut arena = QueryArena::new();
        let mut bits = Vec::new();
        for mode in 0..model.order() {
            let n = model.factors[mode].rows();
            let fixed: Vec<u32> = (0..model.order())
                .filter(|&m| m != mode)
                .map(|m| (model.factors[m].rows() / 2) as u32)
                .collect();
            let mut ranked = Vec::new();
            top_k_on(isa, model, panels, mode, n, &fixed, &mut arena, &mut ranked).unwrap();
            bits.extend(
                ranked
                    .iter()
                    .flat_map(|&(i, v)| [u64::from(i), v.to_bits()]),
            );
            let mut slice = vec![0.0; slice_len(model, mode).unwrap()];
            let index = (n / 2) as u32;
            slice_on(isa, model, panels, mode, index, &mut arena, &mut slice).unwrap();
            bits.extend(slice.iter().map(|v| v.to_bits()));
        }
        bits
    }

    /// The two compiled copies of the scan core, each reading rows and
    /// reading lane panels, agree to the last bit: orders 1-5, ranks on
    /// both sides of the vector widths, a long dimension on both sides of
    /// `LANES` in each mode in turn (so panels are read under every tail
    /// length). Debug builds do not vectorize, so CI also runs this in
    /// `--release`.
    #[test]
    fn portable_and_avx2_scans_are_bit_identical() {
        let Some(avx2) = Avx2::detect() else {
            println!("skipped: no avx2");
            return;
        };
        println!("isa: avx2");
        let mut seed = 70;
        for order in 1..=5usize {
            for rank in [0, 1, 3, 4, 5, 15, 16, 17, 35] {
                let longs = [LANES - 1, LANES, LANES + 1, 2 * LANES + 3, 130];
                for (long_mode, long) in (0..order).flat_map(|m| longs.map(|l| (m, l))) {
                    let dims: Vec<usize> = (0..order)
                        .map(|m| if m == long_mode { long } else { 2 + m % 3 })
                        .collect();
                    seed += 1;
                    let weights = Matrix::random(1, rank, seed);
                    let model = KruskalModel {
                        lambda: weights.as_slice().iter().map(|w| 2.0 * w - 0.5).collect(),
                        factors: dims
                            .iter()
                            .map(|&d| {
                                seed += 1;
                                edgy_factor(d, rank, seed)
                            })
                            .collect(),
                    };
                    let want = every_scan(None, &model, None);
                    for (isa, paneled) in [(None, true), (Some(avx2), false), (Some(avx2), true)] {
                        let panels = LanePanels::new(order);
                        let got = every_scan(isa, &model, paneled.then_some(&panels));
                        assert!(
                            got == want,
                            "order {order} rank {rank} dims {dims:?}: avx2 {} panels {paneled}",
                            isa.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn panels_lay_out_full_blocks_rank_major() {
        let rows = 2 * LANES + 3;
        let factor = Matrix::random(rows, 3, 5);
        let panel = LanePanel::build(&factor);
        assert_eq!(
            panel.bytes(),
            2 * LANES * 3 * 8,
            "leftover rows are not laid out"
        );
        for (b, block) in panel.blocks().enumerate() {
            for r in 0..3 {
                for l in 0..LANES {
                    assert_eq!(block[r * LANES + l], factor.row(b * LANES + l)[r]);
                }
            }
        }
        assert_eq!(panel.blocks().count(), 2);
    }

    #[test]
    fn arena_growth_is_warmup_only() {
        let m = model();
        let mut arena = QueryArena::new();
        let mut out = Vec::new();
        top_k(&m, 0, 2, &[0, 0], &mut arena, &mut out).unwrap();
        let mut slice = vec![0.0; slice_len(&m, 2).unwrap()];
        slice_values(&m, 2, 0, &mut arena, &mut slice).unwrap();
        let (allocs, bytes) = (arena.growth_allocs(), arena.growth_bytes());
        assert!(allocs > 0 && bytes > 0);
        for _ in 0..10 {
            out.clear();
            top_k(&m, 0, 2, &[1, 1], &mut arena, &mut out).unwrap();
            slice_values(&m, 2, 3, &mut arena, &mut slice).unwrap();
            let mut vals = [0.0];
            entry_values(&m, &[1, 1, 1], &mut vals).unwrap();
        }
        assert_eq!(arena.growth_allocs(), allocs, "steady state grew the arena");
        assert_eq!(arena.growth_bytes(), bytes);
    }
}
