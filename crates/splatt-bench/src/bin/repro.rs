//! `repro` — regenerate the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p splatt-bench --bin repro -- all
//! cargo run --release -p splatt-bench --bin repro -- table3 fig9 fig10
//! cargo run --release -p splatt-bench --bin repro -- bench     # baseline
//! cargo run --release -p splatt-bench --bin repro -- list
//! ```
//!
//! `bench` runs the pinned MTTKRP baseline workload and writes
//! `BENCH_mttkrp.json` (override the path with a second argument).
//!
//! `SPLATT_BENCH_FAST=1` runs a reduced protocol (5 iterations, ≤8 tasks).

use splatt_bench::experiments::{run, ALL_EXPERIMENTS};

fn usage() -> ! {
    eprintln!("usage: repro <experiment...|all|list|bench [out.json]>");
    eprintln!("experiments: {}", ALL_EXPERIMENTS.join(" "));
    std::process::exit(2);
}

fn run_bench_baseline(args: &[String]) {
    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| splatt_bench::baseline::BASELINE_FILE.to_string());
    let w = splatt_bench::baseline::BenchWorkload::default();
    let nnz = splatt_bench::baseline::workload_tensor(&w).nnz();
    eprintln!(
        "[repro] bench baseline: dims {:?}, {} nnz, {} tasks, median of {}",
        w.dims, nnz, w.ntasks, w.reps
    );
    let start = std::time::Instant::now();
    let cells = splatt_bench::baseline::run_cells(&w);
    print!("{}", splatt_bench::baseline::render_cells(&cells));
    let json = splatt_bench::baseline::to_json(&w, nnz, &cells);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("[repro] cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "[repro] wrote {out_path} ({} cells) in {:.1}s",
        cells.len(),
        start.elapsed().as_secs_f64()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if args[0] == "list" {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    if args[0] == "bench" {
        run_bench_baseline(&args[1..]);
        return;
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };

    if splatt_bench::datasets::fast_mode() {
        eprintln!("[repro] SPLATT_BENCH_FAST=1: 5 iterations, tasks capped at 8");
    }

    let start = std::time::Instant::now();
    for id in &ids {
        match run(id) {
            Some(table) => table.emit(),
            None => {
                eprintln!("unknown experiment '{id}'");
                usage();
            }
        }
    }
    eprintln!(
        "[repro] {} experiment(s) in {:.1}s",
        ids.len(),
        start.elapsed().as_secs_f64()
    );
}
