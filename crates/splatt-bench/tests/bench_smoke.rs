//! Smoke over the committed MTTKRP bench baseline.
//!
//! Six guarantees, in increasing strictness:
//! 1. `BENCH_mttkrp.json` at the repo root parses and carries the pinned
//!    schema — a PR that changes the layout must bump `BENCH_SCHEMA` and
//!    regenerate the file.
//! 2. The committed baseline justifies the always-on tuned kernels:
//!    every cell whose tuned code differs from its plain code measured at
//!    least 1.0x over its own generic column.
//! 3. The tuned dispatch is **bit-identical** to the plain loops on
//!    deterministic kernels (root and privatized), so committing the
//!    specialization cannot move any oracle.
//! 4. In release builds, the tuned kernels actually pay for themselves:
//!    the best R=16 cell must beat the plain loops by at least 1.15x and
//!    the root kernel at the paper's R=35 by at least 1.2x (the bars are
//!    measured on the same pinned workload the committed baseline uses).
//! 5. In release builds, so does the dense layer: the lane-panel
//!    `cholesky_solve` runs a YELP-shaped factor at least 2x faster than
//!    one right-hand side at a time, and returns the same bits.
//! 6. In release builds, so does the sort: the default CSF build, keys
//!    radix-sorted and the tree assembled from them, runs a NELL-2-shaped
//!    tensor at least 1.5x faster than copying, sorting and walking it.

use splatt_bench::baseline::{
    bench_team, run_cells, workload_tensor, BenchWorkload, BASELINE_FILE, BENCH_RANKS, BENCH_SCHEMA,
};
use splatt_core::dense::Matrix;
use splatt_core::mttkrp::{mttkrp, MatrixAccess, MttkrpConfig, MttkrpWorkspace};
use splatt_core::{CsfAlloc, CsfSet};
use splatt_probe::json;
use std::path::PathBuf;

fn committed_baseline() -> json::Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(BASELINE_FILE);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed baseline {}: {e}", path.display()));
    json::parse(&text).expect("committed baseline is valid JSON")
}

#[test]
fn committed_baseline_is_schema_stable() {
    let doc = committed_baseline();
    assert_eq!(doc.get("schema").unwrap().as_str(), Some(BENCH_SCHEMA));

    let wl = doc.get("workload").unwrap();
    for key in ["dims", "nnz", "alpha", "seed", "ntasks", "reps", "warmup"] {
        assert!(wl.get(key).is_some(), "workload is missing '{key}'");
    }

    let cells = doc.get("cells").unwrap().as_array().unwrap();
    // 1 root sync + 2 syncs x 2 scatter kernels = 5 rows per rank
    assert_eq!(cells.len(), 5 * BENCH_RANKS.len());
    for cell in cells {
        let kernel = cell.get("kernel").unwrap().as_str().unwrap();
        assert!(["root", "internal", "leaf"].contains(&kernel));
        let sync = cell.get("sync").unwrap().as_str().unwrap();
        assert!(["none", "privatized", "locks"].contains(&sync));
        let rank = cell.get("rank").unwrap().as_u64().unwrap() as usize;
        assert!(BENCH_RANKS.contains(&rank), "unexpected rank {rank}");
        assert!(cell.get("generic_ns").unwrap().as_u64().unwrap() > 0);
        assert!(cell.get("specialized_ns").unwrap().as_u64().unwrap() > 0);
        assert!(cell.get("speedup").unwrap().as_f64().unwrap() > 0.0);
    }
}

/// The tuned kernels differ from the plain loops in the blocked gather
/// (root and internal kernels) and the blocked scatter (leaf kernel into
/// a replica), at every rank alike. The measured fact that justifies
/// running them always: no such cell measured below 1.0x against its own
/// generic column in the committed baseline. Leaf under locks runs the
/// per-nonzero scatter in both columns; those cells are reported, not
/// judged.
#[test]
fn committed_specialized_cells_all_beat_generic() {
    let doc = committed_baseline();
    for cell in doc.get("cells").unwrap().as_array().unwrap() {
        let kernel = cell.get("kernel").unwrap().as_str().unwrap();
        let sync = cell.get("sync").unwrap().as_str().unwrap();
        let rank = cell.get("rank").unwrap().as_u64().unwrap();
        let speedup = cell.get("speedup").unwrap().as_f64().unwrap();
        if (kernel, sync) == ("leaf", "locks") {
            eprintln!("{kernel}/{sync}/r{rank}: per-nonzero scatter both columns, {speedup:.3}x");
            continue;
        }
        assert!(
            speedup >= 1.0,
            "{kernel}/{sync}/r{rank}: tuned path measured {speedup:.3}x (< 1.0x)"
        );
    }
}

/// Specialized dispatch must not move a single bit on the deterministic
/// kernel paths (root, and scatter kernels under privatization — the
/// task-ordered reduction makes those exact).
#[test]
fn specialized_dispatch_is_bit_identical_on_bench_workload() {
    let w = BenchWorkload {
        dims: vec![30, 24, 40],
        nnz: 5_000,
        alpha: 1.6,
        seed: 0xB17,
        ntasks: 2,
        reps: 1,
        warmup: 0,
    };
    let tensor = workload_tensor(&w);
    let team = bench_team(w.ntasks);
    let set = CsfSet::build(
        &tensor,
        CsfAlloc::One,
        &team,
        splatt_tensor::SortVariant::AllOpts,
    );
    for rank in BENCH_RANKS {
        let factors: Vec<Matrix> = tensor
            .dims()
            .iter()
            .enumerate()
            .map(|(m, &d)| Matrix::random(d, rank, 0xFACE + m as u64))
            .collect();
        for mode in 0..tensor.order() {
            let run = |specialize: bool| {
                let cfg = MttkrpConfig {
                    access: MatrixAccess::PointerZip,
                    priv_threshold: 1e12, // force the deterministic path
                    specialize,
                    ..Default::default()
                };
                let mut ws = MttkrpWorkspace::new(&cfg, w.ntasks);
                let mut out = Matrix::zeros(tensor.dims()[mode], rank);
                mttkrp(&set, &factors, mode, &mut out, &mut ws, &team, &cfg);
                out
            };
            let generic = run(false);
            let specialized = run(true);
            assert_eq!(
                generic.as_slice(),
                specialized.as_slice(),
                "rank {rank} mode {mode}: specialized dispatch changed bits"
            );
        }
    }
}

/// The perf floors the repo commits to: on the pinned baseline workload
/// the best R=16 cell runs at least 1.15x faster tuned than plain, and
/// the root kernel at the paper's R=35 at least 1.2x. Meaningless without
/// optimization, so debug builds skip it; CI runs it with
/// `cargo test --release`.
#[cfg_attr(
    debug_assertions,
    ignore = "perf floor is only meaningful in release builds"
)]
#[test]
fn specialized_r16_beats_generic_in_release() {
    let w = BenchWorkload::default();
    let (mut best16, mut root35) = (0.0f64, 0.0f64);
    // Three attempts absorb scheduler noise on small CI boxes; the floors
    // are well under the steady-state speedups (~1.3x and ~1.5x).
    for attempt in 0..3 {
        let cells = run_cells(&w);
        for c in cells.iter().filter(|c| c.rank == 16) {
            best16 = best16.max(c.speedup());
        }
        for c in cells.iter().filter(|c| c.rank == 35 && c.kernel == "root") {
            root35 = root35.max(c.speedup());
        }
        eprintln!(
            "attempt {attempt}: best R=16 speedup so far {best16:.2}x, root R=35 {root35:.2}x"
        );
        if best16 >= 1.15 && root35 >= 1.2 {
            return;
        }
    }
    panic!(
        "tuned kernels only reached {best16:.2}x at R=16 (need >= 1.15x) and \
         {root35:.2}x at root R=35 (need >= 1.2x) over the plain loops"
    );
}

/// The sort's floor: on a NELL-2-shaped tensor the default CSF build —
/// the nonzeros packed into keys, radix-sorted, the tree assembled
/// straight from the keys — runs at least 1.5x faster than the build
/// that copies the tensor, sorts the copy and walks it (`from_sorted`),
/// here with the paper's final sort (`AllOpts`: the key-index sort's old
/// per-bucket body survives only as a unit-test oracle). Quietest of
/// several builds of each at one task — a ratio on this machine, never
/// nanoseconds — and the two give the same tree. Meaningless without
/// optimization, so debug builds skip it.
#[cfg_attr(
    debug_assertions,
    ignore = "perf floor is only meaningful in release builds"
)]
#[test]
fn keyed_csf_build_beats_the_copy_sort_walk_build_in_release() {
    use splatt_tensor::SortVariant;
    use std::time::Instant;
    let tensor = splatt_tensor::synth::NELL2.generate(1.0 / 100.0, 0x5027);
    let team = splatt_par::TaskTeam::new(1);
    let quietest = |variant: SortVariant| {
        let mut best = f64::MAX;
        let mut set = CsfSet::build(&tensor, CsfAlloc::Two, &team, variant);
        for _ in 0..5 {
            let start = Instant::now();
            set = CsfSet::build(&tensor, CsfAlloc::Two, &team, variant);
            best = best.min(start.elapsed().as_secs_f64());
        }
        (best, set)
    };
    let (walk_s, walked) = quietest(SortVariant::AllOpts);
    let (keyed_s, keyed) = quietest(SortVariant::KeyIndex);
    // the quicksort may order the values of a repeated coordinate
    // differently, never the tree
    for (k, w) in keyed.csfs().iter().zip(walked.csfs()) {
        assert_eq!(k.dim_perm(), w.dim_perm());
        for l in 0..k.order() {
            assert_eq!(k.fids(l), w.fids(l), "fids of level {l}");
        }
        for l in 0..k.order() - 1 {
            assert_eq!(k.fptr(l), w.fptr(l), "fptr of level {l}");
        }
    }
    let ratio = walk_s / keyed_s;
    eprintln!(
        "CSF build, {} nnz, two trees: copy + AllOpts sort + walk {:.1} ms, keyed {:.1} ms, ratio {ratio:.2}",
        tensor.nnz(),
        walk_s * 1e3,
        keyed_s * 1e3
    );
    assert!(
        ratio >= 1.5,
        "keyed build only {ratio:.2}x the copy-sort-walk build (need >= 1.5x)"
    );
}

/// `cholesky_solve` one right-hand side at a time: a one-row solve is
/// below the panel width, so it runs the scalar loop each lane of the
/// panel reproduces — `cholesky_solve` as it was before the lane panel.
fn solve_per_row(l: &Matrix, b: &mut Matrix) {
    let mut one = Matrix::zeros(1, b.cols());
    for i in 0..b.rows() {
        one.as_mut_slice().copy_from_slice(b.row(i));
        splatt_core::dense::cholesky_solve(l, &mut one);
        b.row_mut(i).copy_from_slice(one.as_slice());
    }
}

/// The dense layer's floor: at `cpd_yelp`'s longest factor (25000 x 35)
/// the lane-panel solve beats the per-row loop by at least 2x (3-7x
/// when measured), quietest of several repetitions of each — a ratio on
/// this machine, never nanoseconds — and the two agree bit for bit.
/// Meaningless without optimization, so debug builds skip it.
#[cfg_attr(
    debug_assertions,
    ignore = "perf floor is only meaningful in release builds"
)]
#[test]
fn panel_solve_beats_per_row_solve_in_release() {
    use std::time::Instant;
    let (rows, rank) = (25_000, 35);
    let m = Matrix::random(rows, rank, 3);
    let mut v = splatt_core::dense::mat_ata(&m);
    for i in 0..rank {
        v[(i, i)] += 1.0;
    }
    let l = splatt_core::dense::cholesky_factor(&v).unwrap();
    let quietest = |solve: &dyn Fn(&Matrix, &mut Matrix)| {
        let mut best = f64::MAX;
        let mut solved = m.clone();
        for _ in 0..7 {
            solved = m.clone();
            let start = Instant::now();
            solve(&l, &mut solved);
            best = best.min(start.elapsed().as_secs_f64());
        }
        (best, solved)
    };
    let (per_row_s, expect) = quietest(&solve_per_row);
    let (panel_s, got) = quietest(&splatt_core::dense::cholesky_solve);
    assert!(
        got.as_slice()
            .iter()
            .zip(expect.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "panel solve changed bits"
    );
    let ratio = per_row_s / panel_s;
    eprintln!(
        "cholesky_solve {rows}x{rank}: per-row {:.2} ms, panel {:.2} ms, ratio {ratio:.2}",
        per_row_s * 1e3,
        panel_s * 1e3
    );
    assert!(
        ratio >= 2.0,
        "panel solve only {ratio:.2}x the per-row loop (need >= 2x)"
    );
}
