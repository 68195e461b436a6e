//! The committed MTTKRP performance baseline (`repro bench`).
//!
//! The paper is a performance study; its repo therefore carries a
//! *committed* baseline so every PR can see the perf trajectory, not just
//! the correctness one. `repro bench` runs a pinned synthetic workload —
//! fixed dims, nonzero count, distribution, and seed — through every
//! kernel/sync cell at ranks 8, 16, 32 and the paper's 35, timing the
//! plain loops (`specialize: false`) and the tuned kernels
//! (`specialize: true`: blocked gather, blocked scatter — one body for
//! every rank) side by side, and writes the medians to
//! `BENCH_mttkrp.json` at the repo root in a schema-stable layout.
//!
//! Timings in the committed file are machine-specific; what the schema
//! pins is the *shape*: workload identity, one row per
//! `(kernel, sync, rank)` cell, median-of-N nanoseconds per path, and
//! the tuned-over-plain speedup (the `generic_ns` / `specialized_ns` /
//! `speedup` keys keep their v4 names).

use splatt_core::dense::Matrix;
use splatt_core::mttkrp::{mttkrp, MatrixAccess, MttkrpConfig, MttkrpWorkspace};
use splatt_core::{CsfAlloc, CsfSet, KernelKind};
use splatt_par::{TaskTeam, TeamConfig};
use splatt_tensor::{synth, SortVariant, SparseTensor};
use std::fmt::Write as _;
use std::time::Instant;

/// Schema tag of `BENCH_mttkrp.json`. Bump on any layout change.
pub const BENCH_SCHEMA: &str = "splatt-bench-mttkrp-v4";

/// File name of the committed baseline at the repo root.
pub const BASELINE_FILE: &str = "BENCH_mttkrp.json";

/// Ranks measured per cell: a full chunk of the blocked kernels and
/// less (16, 8), two chunks (32), and the paper's rank 35 — two chunks
/// and a remainder, the only rank the end-to-end `cpd_*` workloads run.
pub const BENCH_RANKS: [usize; 4] = [8, 16, 32, 35];

/// The pinned workload the baseline runs. Everything that shapes the
/// timing is part of the workload identity and lands in the JSON.
#[derive(Debug, Clone)]
pub struct BenchWorkload {
    /// Tensor dimensions (small enough that factor rows stay cache-hot:
    /// the baseline isolates kernel arithmetic, not memory latency).
    pub dims: Vec<usize>,
    /// Nonzeros requested from the power-law generator.
    pub nnz: usize,
    /// Power-law skew of the generator.
    pub alpha: f64,
    /// Generator seed.
    pub seed: u64,
    /// Task-team width.
    pub ntasks: usize,
    /// Timed repetitions per cell (the median is reported).
    pub reps: usize,
    /// Untimed warm-up calls per cell (first call grows workspace
    /// scratch; warming keeps allocation out of the timed window).
    pub warmup: usize,
}

impl Default for BenchWorkload {
    fn default() -> Self {
        // Cap the team at the physical parallelism: oversubscribed
        // spinning turns every cell into a scheduler-timeslice
        // measurement (the paper's Section V-E interference effect).
        let ntasks = std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(1);
        if crate::datasets::fast_mode() {
            BenchWorkload {
                dims: vec![64, 48, 80],
                nnz: 20_000,
                alpha: 1.8,
                seed: 0xBA5E,
                ntasks,
                reps: 3,
                warmup: 1,
            }
        } else {
            BenchWorkload {
                dims: vec![64, 48, 80],
                nnz: 120_000,
                alpha: 1.8,
                seed: 0xBA5E,
                ntasks,
                reps: 7,
                warmup: 2,
            }
        }
    }
}

/// The task team the baseline measures on: `fifo` (park-immediately)
/// workers, so idle tasks never spin against the measured kernel on
/// small machines. The committed numbers isolate kernel arithmetic,
/// not idle-wait policy.
pub fn bench_team(ntasks: usize) -> TaskTeam {
    TaskTeam::with_config(ntasks, TeamConfig::fifo())
}

/// One `(kernel, sync, rank)` baseline cell: median time of each
/// dispatch path and their ratio.
#[derive(Debug, Clone)]
pub struct BenchCell {
    /// Kernel family: `root`, `internal`, or `leaf`.
    pub kernel: &'static str,
    /// Synchronization: `none` (root), `privatized`, or `locks`.
    pub sync: &'static str,
    /// Decomposition rank of this cell.
    pub rank: usize,
    /// Median nanoseconds per MTTKRP, plain loops (`specialize: false`).
    pub generic_ns: u64,
    /// Median nanoseconds per MTTKRP, tuned kernels (`specialize: true`).
    pub specialized_ns: u64,
    /// Relative range `(max - min) / median` of the timed repetitions,
    /// the wider of the two paths: how far a regenerated cell may sit
    /// from the committed one before the difference means anything.
    /// Printed by `repro bench`, not part of the JSON.
    pub spread: f64,
}

impl BenchCell {
    /// Generic-over-specialized time ratio (> 1 means the specialized
    /// path is faster).
    pub fn speedup(&self) -> f64 {
        self.generic_ns as f64 / self.specialized_ns.max(1) as f64
    }
}

/// Median nanoseconds, and relative range `(max - min) / median`, of
/// `reps` timed `mttkrp` calls after `warmup` untimed ones. The same
/// workspace is reused throughout, so the timed window exercises the
/// zero-allocation steady state.
#[allow(clippy::too_many_arguments)]
pub fn median_mttkrp_ns(
    set: &CsfSet,
    factors: &[Matrix],
    mode: usize,
    out: &mut Matrix,
    ws: &mut MttkrpWorkspace,
    team: &TaskTeam,
    cfg: &MttkrpConfig,
    warmup: usize,
    reps: usize,
) -> (u64, f64) {
    for _ in 0..warmup {
        mttkrp(set, factors, mode, out, ws, team, cfg);
    }
    let mut samples: Vec<u64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            mttkrp(set, factors, mode, out, ws, team, cfg);
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    let range = samples[samples.len() - 1] - samples[0];
    (median, range as f64 / median.max(1) as f64)
}

fn kernel_label(kind: KernelKind) -> &'static str {
    match kind {
        KernelKind::Root => "root",
        KernelKind::Internal(_) => "internal",
        KernelKind::Leaf => "leaf",
    }
}

/// The pinned tensor of a workload.
pub fn workload_tensor(w: &BenchWorkload) -> SparseTensor {
    synth::power_law(&w.dims, w.nnz, w.alpha, w.seed)
}

/// Run every baseline cell of `w`: each kernel family the
/// representation produces, each sync strategy that kernel admits, each
/// of [`BENCH_RANKS`] — timing plain vs tuned dispatch, in mode order.
pub fn run_cells(w: &BenchWorkload) -> Vec<BenchCell> {
    let tensor = workload_tensor(w);
    let team = bench_team(w.ntasks);
    // CsfAlloc::One exercises all three kernel families on an order-3
    // tensor: level 0 is root, level 1 internal, level 2 leaf.
    let set = CsfSet::build(&tensor, CsfAlloc::One, &team, SortVariant::AllOpts);

    let mut cells = Vec::new();
    for mode in 0..tensor.order() {
        let kernel = kernel_label(set.for_mode(mode).1);
        // root runs unsynchronized; scatter kernels are measured
        // under both privatization and the lock pool
        let syncs: &[(&'static str, f64)] = if kernel == "root" {
            &[("none", splatt_core::mttkrp::DEFAULT_PRIV_THRESHOLD)]
        } else {
            &[("privatized", 1e12), ("locks", 0.0)]
        };
        for &(sync, priv_threshold) in syncs {
            for rank in BENCH_RANKS {
                let factors: Vec<Matrix> = tensor
                    .dims()
                    .iter()
                    .enumerate()
                    .map(|(m, &d)| Matrix::random(d, rank, w.seed + m as u64))
                    .collect();
                let mut out = Matrix::zeros(tensor.dims()[mode], rank);
                let mut time_path = |specialize: bool| {
                    let cfg = MttkrpConfig {
                        access: MatrixAccess::PointerZip,
                        priv_threshold,
                        specialize,
                        ..Default::default()
                    };
                    let mut ws = MttkrpWorkspace::new(&cfg, w.ntasks);
                    median_mttkrp_ns(
                        &set, &factors, mode, &mut out, &mut ws, &team, &cfg, w.warmup, w.reps,
                    )
                };
                // Note on the leaf kernel: under locks it has no tuned
                // loop (one acquisition per nonzero, the plain scatter),
                // so `specialize: true` times the same code — the cells
                // stay in the grid (speedup ~1.0) to keep the baseline
                // coverage stable.
                let (generic_ns, generic_spread) = time_path(false);
                let (specialized_ns, specialized_spread) = time_path(true);
                cells.push(BenchCell {
                    kernel,
                    sync,
                    rank,
                    generic_ns,
                    specialized_ns,
                    spread: generic_spread.max(specialized_spread),
                });
            }
        }
    }
    cells
}

/// Serialize a baseline to the schema-stable JSON document.
pub fn to_json(w: &BenchWorkload, nnz_actual: usize, cells: &[BenchCell]) -> String {
    let mut out = String::with_capacity(2048);
    let _ = write!(out, "{{\n  \"schema\": \"{BENCH_SCHEMA}\",");
    let dims: Vec<String> = w.dims.iter().map(|d| d.to_string()).collect();
    let _ = write!(
        out,
        "\n  \"workload\": {{\"dims\": [{}], \"nnz\": {}, \"distribution\": \"power_law\", \
         \"alpha\": {:.3}, \"seed\": {}, \"ntasks\": {}, \"reps\": {}, \"warmup\": {}, \
         \"access\": \"C-ref\", \"ranks\": [{}]}},",
        dims.join(", "),
        nnz_actual,
        w.alpha,
        w.seed,
        w.ntasks,
        w.reps,
        w.warmup,
        BENCH_RANKS
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    out.push_str("\n  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"kernel\": \"{}\", \"sync\": \"{}\", \"rank\": {}, \
             \"generic_ns\": {}, \"specialized_ns\": {}, \"speedup\": {:.3}}}",
            c.kernel,
            c.sync,
            c.rank,
            c.generic_ns,
            c.specialized_ns,
            c.speedup()
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Human-readable cell table (printed by `repro bench`).
pub fn render_cells(cells: &[BenchCell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<12} {:>5} {:>14} {:>14} {:>8} {:>7}",
        "kernel", "sync", "rank", "generic", "specialized", "speedup", "spread"
    );
    for c in cells {
        let _ = writeln!(
            out,
            "{:<10} {:<12} {:>5} {:>12}ns {:>12}ns {:>7.2}x {:>6.1}%",
            c.kernel,
            c.sync,
            c.rank,
            c.generic_ns,
            c.specialized_ns,
            c.speedup(),
            c.spread * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatt_probe::json;

    fn tiny() -> BenchWorkload {
        BenchWorkload {
            dims: vec![12, 9, 15],
            nnz: 600,
            alpha: 1.5,
            seed: 7,
            ntasks: 2,
            reps: 1,
            warmup: 0,
        }
    }

    #[test]
    fn cells_cover_all_kernels_syncs_and_ranks() {
        let cells = run_cells(&tiny());
        // 1 root sync + 2 syncs for each of the two scatter kernels =
        // 5 sync rows, each at |BENCH_RANKS| ranks
        assert_eq!(cells.len(), 5 * BENCH_RANKS.len());
        for kernel in ["root", "internal", "leaf"] {
            for rank in BENCH_RANKS {
                assert!(
                    cells.iter().any(|c| c.kernel == kernel && c.rank == rank),
                    "missing cell {kernel}/{rank}"
                );
            }
        }
        assert!(cells
            .iter()
            .all(|c| c.generic_ns > 0 && c.specialized_ns > 0));
    }

    #[test]
    fn json_is_parseable_and_schema_stable() {
        let w = tiny();
        let cells = run_cells(&w);
        let doc = json::parse(&to_json(&w, 600, &cells)).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(BENCH_SCHEMA));
        let wl = doc.get("workload").unwrap();
        assert_eq!(wl.get("seed").unwrap().as_u64(), Some(7));
        assert_eq!(wl.get("distribution").unwrap().as_str(), Some("power_law"));
        let rows = doc.get("cells").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), cells.len());
        for row in rows {
            assert!(row.get("generic_ns").unwrap().as_u64().is_some());
            assert!(row.get("specialized_ns").unwrap().as_u64().is_some());
            assert!(row.get("speedup").unwrap().as_f64().is_some());
        }
    }

    #[test]
    fn render_lists_every_cell() {
        let cells = run_cells(&tiny());
        let text = render_cells(&cells);
        assert_eq!(text.lines().count(), cells.len() + 1);
        assert!(text.contains("speedup"));
    }
}
