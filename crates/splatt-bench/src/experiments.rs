//! One function per table/figure of the paper's evaluation section.
//!
//! Each returns a [`Table`] ready to print and dump as CSV. The
//! paper-vs-measured comparison for every experiment is recorded in the
//! workspace's `EXPERIMENTS.md`.

use crate::datasets;
use crate::harness::{fmt_secs, run_cpals, sort_seconds, team_for, RunSpec};
use crate::report::Table;
use splatt_core::dense::{mat_ata, solve_normals, Matrix};
use splatt_core::locks::LockStrategy;
use splatt_core::mttkrp::{uses_locks, MttkrpConfig};
use splatt_core::{
    cp_als, try_cp_als, CpalsOptions, CpalsRun, CsfAlloc, CsfSet, Implementation, MatrixAccess,
};
use splatt_par::{TaskTeam, TeamConfig};
use splatt_tensor::{synth, SortVariant, SparseTensor, TensorStats};

fn progress(msg: &str) {
    eprintln!("[repro] {msg}");
}

/// Table I: properties of the data sets — the paper's full-scale numbers
/// next to the synthetic bench-scale instances actually used here.
pub fn table1() -> Table {
    let mut t = Table::new(
        "table1",
        "Table I: data set properties (paper scale vs. generated bench instance)",
        &[
            "name",
            "paper dims",
            "paper nnz",
            "paper density",
            "bench dims",
            "bench nnz",
            "bench density",
        ],
    );
    for shape in &synth::ALL_SHAPES {
        progress(&format!("table1: generating {}", shape.name));
        let scale = match shape.name {
            "YELP" => datasets::YELP_SCALE,
            "NELL-2" => datasets::NELL2_SCALE,
            _ => datasets::OTHERS_SCALE,
        } * datasets::scale_multiplier();
        let inst = shape.generate(scale, 0xE3);
        let stats = TensorStats::compute(&inst);
        let paper_density =
            shape.nnz as f64 / shape.dims.iter().map(|&d| d as f64).product::<f64>();
        t.push(vec![
            shape.name.to_string(),
            format!("{}x{}x{}", shape.dims[0], shape.dims[1], shape.dims[2]),
            shape.nnz.to_string(),
            format!("{paper_density:.2e}"),
            stats
                .dims
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("x"),
            stats.nnz.to_string(),
            format!("{:.2e}", stats.density),
        ]);
    }
    t
}

fn per_routine_row(
    dataset: &str,
    tasks: usize,
    code: &str,
    s: crate::harness::RoutineSeconds,
) -> Vec<String> {
    vec![
        dataset.to_string(),
        tasks.to_string(),
        code.to_string(),
        fmt_secs(s.mttkrp),
        fmt_secs(s.sort),
        fmt_secs(s.ata),
        fmt_secs(s.norm),
        fmt_secs(s.fit),
        fmt_secs(s.inverse),
    ]
}

/// Table III: per-routine runtimes of the reference vs. the *initial*
/// port, at 1 task and at the maximum task count.
pub fn table3() -> Table {
    let mut t = Table::new(
        "table3",
        "Table III: initial per-routine runtimes (seconds, 20 CP-ALS iterations)",
        &[
            "dataset", "tasks", "code", "MTTKRP", "Sort", "Mat A^TA", "Mat norm", "CPD fit",
            "Inverse",
        ],
    );
    let max_tasks = *datasets::task_counts().last().unwrap();
    for (name, tensor) in [("YELP", datasets::yelp()), ("NELL-2", datasets::nell2())] {
        for tasks in [1, max_tasks] {
            for imp in [Implementation::Reference, Implementation::PortedInitial] {
                progress(&format!("table3: {name} tasks={tasks} {}", imp.label()));
                let (secs, _fit) = run_cpals(&tensor, RunSpec::of(imp, tasks));
                t.push(per_routine_row(name, tasks, imp.label(), secs));
            }
        }
    }
    t
}

/// Figure 1: sorting runtime on NELL-2 across tasks for the four sort
/// optimization variants.
pub fn fig1() -> Table {
    let mut t = Table::new(
        "fig1",
        "Figure 1: Chapel sorting runtime, NELL-2 (seconds)",
        &["tasks", "Initial", "Array-opt", "Slices-opt", "All-opts"],
    );
    let tensor = datasets::nell2();
    let reps = if datasets::fast_mode() { 1 } else { 3 };
    for tasks in datasets::task_counts() {
        progress(&format!("fig1: tasks={tasks}"));
        let mut row = vec![tasks.to_string()];
        for variant in SortVariant::ALL {
            // min of several reps: sorting is short enough to be noisy
            let best = (0..reps)
                .map(|_| sort_seconds(&tensor, variant, tasks))
                .fold(f64::INFINITY, f64::min);
            row.push(fmt_secs(best));
        }
        t.push(row);
    }
    t
}

/// MTTKRP seconds across tasks for a set of access strategies
/// (Figures 2 and 3: Initial / 2D Index / Pointer).
fn fig_access(id: &str, title: &str, tensor: &SparseTensor) -> Table {
    let accesses = [
        ("Initial", MatrixAccess::RowCopy),
        ("2D Index", MatrixAccess::Index2D),
        ("Pointer", MatrixAccess::PointerChecked),
    ];
    let mut t = Table::new(id, title, &["tasks", "Initial", "2D Index", "Pointer"]);
    for tasks in datasets::task_counts() {
        let mut row = vec![tasks.to_string()];
        for (label, access) in accesses {
            progress(&format!("{id}: tasks={tasks} access={label}"));
            let spec = RunSpec {
                access,
                locks: LockStrategy::Spin,
                sort_variant: SortVariant::AllOpts,
                ntasks: tasks,
            };
            let (secs, _) = run_cpals(tensor, spec);
            row.push(fmt_secs(secs.mttkrp));
        }
        t.push(row);
    }
    t
}

/// Figure 2: MTTKRP matrix-access variants, YELP.
pub fn fig2() -> Table {
    fig_access(
        "fig2",
        "Figure 2: Chapel MTTKRP runtime, matrix access optimizations, YELP (seconds)",
        &datasets::yelp(),
    )
}

/// Figure 3: MTTKRP matrix-access variants, NELL-2.
pub fn fig3() -> Table {
    fig_access(
        "fig3",
        "Figure 3: Chapel MTTKRP runtime, matrix access optimizations, NELL-2 (seconds)",
        &datasets::nell2(),
    )
}

/// Figure 4: MTTKRP lock strategies on YELP (Sync / Atomic / FIFO-sync).
pub fn fig4() -> Table {
    let mut t = Table::new(
        "fig4",
        "Figure 4: Chapel MTTKRP runtime, sync vs atomic locks, YELP (seconds)",
        &["tasks", "Sync", "Atomic", "FIFO-sync", "locked"],
    );
    let tensor = datasets::yelp();
    for tasks in datasets::task_counts() {
        let mut row = vec![tasks.to_string()];
        for locks in LockStrategy::ALL {
            progress(&format!("fig4: tasks={tasks} locks={}", locks.label()));
            let spec = RunSpec {
                access: MatrixAccess::PointerChecked,
                locks,
                sort_variant: SortVariant::AllOpts,
                ntasks: tasks,
            };
            let (secs, _) = run_cpals(&tensor, spec);
            row.push(fmt_secs(secs.mttkrp));
        }
        // does this task count actually take the lock path?
        let team = team_for(tasks);
        let set = CsfSet::build(&tensor, CsfAlloc::Two, &team, SortVariant::AllOpts);
        let cfg = MttkrpConfig::default();
        let locked = (0..tensor.order()).any(|m| uses_locks(&set, m, tasks, &cfg));
        row.push(if locked { "yes" } else { "no" }.to_string());
        t.push(row);
    }
    t
}

/// Figures 5–8: per-routine runtimes, reference vs. optimized port, at
/// one (dataset, task-count) point each.
fn fig_routines(id: &str, title: &str, tensor: &SparseTensor, tasks: usize) -> Table {
    let mut t = Table::new(
        id,
        title,
        &["routine", "C", "Chapel-optimize", "C/Chapel ratio"],
    );
    progress(&format!("{id}: reference"));
    let (c, _) = run_cpals(tensor, RunSpec::of(Implementation::Reference, tasks));
    progress(&format!("{id}: optimized port"));
    let (p, _) = run_cpals(tensor, RunSpec::of(Implementation::PortedOptimized, tasks));
    let rows: [(&str, f64, f64); 6] = [
        ("MTTKRP", c.mttkrp, p.mttkrp),
        ("Inverse", c.inverse, p.inverse),
        ("Mat A^TA", c.ata, p.ata),
        ("Mat norm", c.norm, p.norm),
        ("CPD fit", c.fit, p.fit),
        ("Sort", c.sort, p.sort),
    ];
    for (name, cv, pv) in rows {
        let ratio = if pv > 0.0 { cv / pv } else { f64::NAN };
        t.push(vec![
            name.to_string(),
            fmt_secs(cv),
            fmt_secs(pv),
            format!("{ratio:.2}"),
        ]);
    }
    t
}

/// Figure 5: per-routine runtimes, YELP, 1 task.
pub fn fig5() -> Table {
    fig_routines(
        "fig5",
        "Figure 5: CP-ALS routine runtimes, YELP, 1 task (seconds)",
        &datasets::yelp(),
        1,
    )
}

/// Figure 6: per-routine runtimes, NELL-2, 1 task.
pub fn fig6() -> Table {
    fig_routines(
        "fig6",
        "Figure 6: CP-ALS routine runtimes, NELL-2, 1 task (seconds)",
        &datasets::nell2(),
        1,
    )
}

/// Figure 7: per-routine runtimes, YELP, max tasks.
pub fn fig7() -> Table {
    let tasks = *datasets::task_counts().last().unwrap();
    fig_routines(
        "fig7",
        &format!("Figure 7: CP-ALS routine runtimes, YELP, {tasks} tasks (seconds)"),
        &datasets::yelp(),
        tasks,
    )
}

/// Figure 8: per-routine runtimes, NELL-2, max tasks.
pub fn fig8() -> Table {
    let tasks = *datasets::task_counts().last().unwrap();
    fig_routines(
        "fig8",
        &format!("Figure 8: CP-ALS routine runtimes, NELL-2, {tasks} tasks (seconds)"),
        &datasets::nell2(),
        tasks,
    )
}

/// Figures 9/10: MTTKRP runtime across tasks for the three
/// implementations.
fn fig_impls(id: &str, title: &str, tensor: &SparseTensor) -> Table {
    let mut t = Table::new(
        id,
        title,
        &["tasks", "C", "Chapel-initial", "Chapel-optimize"],
    );
    for tasks in datasets::task_counts() {
        let mut row = vec![tasks.to_string()];
        for imp in [
            Implementation::Reference,
            Implementation::PortedInitial,
            Implementation::PortedOptimized,
        ] {
            progress(&format!("{id}: tasks={tasks} {}", imp.label()));
            let (secs, _) = run_cpals(tensor, RunSpec::of(imp, tasks));
            row.push(fmt_secs(secs.mttkrp));
        }
        t.push(row);
    }
    t
}

/// Figure 9: MTTKRP runtime vs tasks, YELP, all implementations.
pub fn fig9() -> Table {
    fig_impls(
        "fig9",
        "Figure 9: MTTKRP runtime, YELP (seconds)",
        &datasets::yelp(),
    )
}

/// Figure 10: MTTKRP runtime vs tasks, NELL-2, all implementations.
pub fn fig10() -> Table {
    fig_impls(
        "fig10",
        "Figure 10: MTTKRP runtime, NELL-2 (seconds)",
        &datasets::nell2(),
    )
}

/// Ablation A (Section V-E analogue): how idle task-team workers degrade
/// a concurrently running dense routine, as a function of their
/// spin-before-park interval — the Qthreads/OpenBLAS conflict with
/// `QT_SPINCOUNT` as the knob.
pub fn ablation_a() -> Table {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let mut t = Table::new(
        "ablationA",
        "Ablation A: dense-solve latency under a concurrently idling task team (ms/solve)",
        &["background team", "Inverse ms", "Mat A^TA ms"],
    );

    let rows_cfg: [(&str, Option<TeamConfig>); 4] = [
        ("none", None),
        (
            "spin=300000 (Qthreads default)",
            Some(TeamConfig::default()),
        ),
        (
            "spin=300 (QT_SPINCOUNT=300)",
            Some(TeamConfig::short_spin()),
        ),
        ("spin=0 (fifo)", Some(TeamConfig::fifo())),
    ];

    // A factor-matrix-shaped workload for the foreground dense routines.
    let a = Matrix::random(120_000, 35, 3);
    const REPS: usize = 5;

    for (label, cfg) in rows_cfg {
        progress(&format!("ablationA: background={label}"));
        let stop = Arc::new(AtomicBool::new(false));
        let bg = cfg.map(|cfg| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let team = TaskTeam::with_config(4, cfg);
                while !stop.load(Ordering::Relaxed) {
                    // a short burst of team work, then a gap in which the
                    // workers spin (or park) while the foreground runs
                    team.coforall(|_| {
                        std::hint::black_box((0..500).sum::<u64>());
                    });
                    std::thread::sleep(std::time::Duration::from_micros(500));
                }
            })
        });

        // measure the foreground routines
        let mut inverse_ms = 0.0;
        let mut ata_ms = 0.0;
        for _ in 0..REPS {
            let start = std::time::Instant::now();
            let g = mat_ata(&a);
            ata_ms += start.elapsed().as_secs_f64() * 1e3;

            let mut m = Matrix::random(2_000, 35, 5);
            let start = std::time::Instant::now();
            solve_normals(&g, &mut m);
            inverse_ms += start.elapsed().as_secs_f64() * 1e3;
        }
        stop.store(true, Ordering::Relaxed);
        if let Some(h) = bg {
            h.join().ok();
        }
        t.push(vec![
            label.to_string(),
            format!("{:.2}", inverse_ms / REPS as f64),
            format!("{:.2}", ata_ms / REPS as f64),
        ]);
    }
    t
}

/// Ablation B: the privatization threshold. Sweeps SPLATT's
/// `DEFAULT_PRIV_THRESH` around its 0.02 default on the YELP instance and
/// reports MTTKRP time and which modes took the lock path.
pub fn ablation_b() -> Table {
    let mut t = Table::new(
        "ablationB",
        "Ablation B: privatization threshold sweep, YELP, 8 tasks",
        &["threshold", "locked modes", "MTTKRP s"],
    );
    let tensor = datasets::yelp();
    let tasks = 8.min(*datasets::task_counts().last().unwrap());
    let team = team_for(tasks);
    let on_team = CpalsRun {
        team: Some(&team),
        ..Default::default()
    };
    let set = CsfSet::build(&tensor, CsfAlloc::Two, &team, SortVariant::AllOpts);
    for threshold in [0.0, 0.005, 0.02, 0.1, 1e9] {
        progress(&format!("ablationB: threshold={threshold}"));
        let opts = CpalsOptions {
            rank: datasets::BENCH_RANK,
            max_iters: datasets::bench_iters(),
            tolerance: 0.0,
            ntasks: tasks,
            priv_threshold: threshold,
            ..Default::default()
        };
        let out = try_cp_als(&tensor, &opts, &on_team).expect("no checkpointing configured");
        let cfg = MttkrpConfig {
            priv_threshold: threshold,
            ..Default::default()
        };
        let locked: Vec<String> = (0..tensor.order())
            .filter(|&m| uses_locks(&set, m, tasks, &cfg))
            .map(|m| m.to_string())
            .collect();
        t.push(vec![
            format!("{threshold}"),
            if locked.is_empty() {
                "-".to_string()
            } else {
                locked.join("+")
            },
            fmt_secs(out.timers.seconds(splatt_par::Routine::Mttkrp)),
        ]);
    }
    t
}

/// Ablation C: CSF allocation policy — the memory / synchronization
/// trade SPLATT exposes (one vs. two vs. all-mode representations).
pub fn ablation_c() -> Table {
    let mut t = Table::new(
        "ablationC",
        "Ablation C: CSF allocation policy, YELP, 8 tasks",
        &["alloc", "csf MB", "locked modes", "MTTKRP s"],
    );
    let tensor = datasets::yelp();
    let tasks = 8.min(*datasets::task_counts().last().unwrap());
    let team = team_for(tasks);
    let on_team = CpalsRun {
        team: Some(&team),
        ..Default::default()
    };
    for alloc in [CsfAlloc::One, CsfAlloc::Two, CsfAlloc::All] {
        progress(&format!("ablationC: alloc={alloc:?}"));
        let set = CsfSet::build(&tensor, alloc, &team, SortVariant::AllOpts);
        let bytes: usize = set.csfs().iter().map(|c| c.storage_bytes()).sum();
        let cfg = MttkrpConfig::default();
        let locked: Vec<String> = (0..tensor.order())
            .filter(|&m| uses_locks(&set, m, tasks, &cfg))
            .map(|m| m.to_string())
            .collect();
        let opts = CpalsOptions {
            rank: datasets::BENCH_RANK,
            max_iters: datasets::bench_iters(),
            tolerance: 0.0,
            ntasks: tasks,
            csf_alloc: alloc,
            ..Default::default()
        };
        let out = try_cp_als(&tensor, &opts, &on_team).expect("no checkpointing configured");
        t.push(vec![
            format!("{alloc:?}"),
            format!("{:.1}", bytes as f64 / (1024.0 * 1024.0)),
            if locked.is_empty() {
                "-".to_string()
            } else {
                locked.join("+")
            },
            fmt_secs(out.timers.seconds(splatt_par::Routine::Mttkrp)),
        ]);
    }
    t
}

/// Ablation D: the three scatter regimes for non-root MTTKRP — hashed
/// locks, privatized replicas, and mode tiling (the paper's future-work
/// feature, implemented here) — on the lock-prone YELP instance.
pub fn ablation_d() -> Table {
    let mut t = Table::new(
        "ablationD",
        "Ablation D: scatter regime for non-root MTTKRP, YELP, 8 tasks",
        &["regime", "MTTKRP s", "Sort s (incl. tile build)"],
    );
    let tensor = datasets::yelp();
    let tasks = 8.min(*datasets::task_counts().last().unwrap());
    let base = CpalsOptions {
        rank: datasets::BENCH_RANK,
        max_iters: datasets::bench_iters(),
        tolerance: 0.0,
        ntasks: tasks,
        ..Default::default()
    };
    let regimes: [(&str, CpalsOptions); 3] = [
        (
            "locks",
            CpalsOptions {
                priv_threshold: 0.0,
                ..base.clone()
            },
        ),
        (
            "privatized",
            CpalsOptions {
                priv_threshold: 1e12,
                ..base.clone()
            },
        ),
        (
            "tiled",
            CpalsOptions {
                priv_threshold: 0.0,
                tiling: true,
                ..base
            },
        ),
    ];
    for (label, opts) in regimes {
        progress(&format!("ablationD: regime={label}"));
        let out = cp_als(&tensor, &opts);
        t.push(vec![
            label.to_string(),
            fmt_secs(out.timers.seconds(splatt_par::Routine::Mttkrp)),
            fmt_secs(out.timers.seconds(splatt_par::Routine::Sort)),
        ]);
    }
    t
}

/// Experiment E: multi-locale decomposition (the paper's second
/// future-work item — SPLATT's medium-grained algorithm). Reports the
/// interconnect volume per grid shape at a fixed locale count, the
/// comparison the medium-grained paper leads with (balanced grids beat
/// one-dimensional decompositions). The volume is the algorithm's closed
/// form; the fit is the shared-memory solver's, which the distributed
/// arithmetic reproduces on every grid.
pub fn experiment_e() -> Table {
    use splatt_tensor::dist::{medium_grained_volume, ProcessGrid, TensorDistribution};
    let mut t = Table::new(
        "expE",
        "Experiment E: medium-grained distribution, NELL-2, 8 locales (communication per grid shape)",
        &["grid", "allreduce MB", "allgather MB", "total MB", "max block nnz", "fit"],
    );
    let mut tensor = datasets::nell2();
    tensor.coalesce(); // duplicates would distort the reported fit
    let rank = datasets::BENCH_RANK;
    let iters = if datasets::fast_mode() { 2 } else { 5 };
    let fit = cp_als(
        &tensor,
        &CpalsOptions {
            rank,
            max_iters: iters,
            tolerance: 0.0,
            seed: 0xD157,
            ..Default::default()
        },
    )
    .fit;
    for grid in [vec![8, 1, 1], vec![1, 8, 1], vec![4, 2, 1], vec![2, 2, 2]] {
        progress(&format!("expE: grid={grid:?}"));
        let grid = ProcessGrid::new(grid);
        let volume = medium_grained_volume(tensor.dims(), &grid, rank, iters);
        let dist = TensorDistribution::new(&tensor, grid);
        let mb = |b: u64| format!("{:.1}", b as f64 / (1024.0 * 1024.0));
        t.push(vec![
            dist.grid()
                .dims()
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("x"),
            mb(volume.allreduce_bytes),
            mb(volume.allgather_bytes),
            mb(volume.total_bytes()),
            dist.max_block_nnz().to_string(),
            format!("{fit:.4}"),
        ]);
    }
    t
}

/// Experiment F: the tensor-completion solvers of SPLATT's completion
/// study that each win a column — ALS (training fit, seconds) and CCD++
/// (held-out RMSE). Netflix-shaped ratings data with a 20% holdout; equal
/// sweep budgets.
pub fn experiment_f() -> Table {
    use splatt_core::{
        rmse_observed, tensor_complete, tensor_complete_ccd, CcdOptions, CompletionOptions,
    };
    let mut t = Table::new(
        "expF",
        "Experiment F: completion solvers, NETFLIX shape, rank 16 (train/test RMSE, seconds)",
        &["solver", "sweeps", "train RMSE", "test RMSE", "seconds"],
    );
    let full = synth::NETFLIX.generate(1.0 / 1000.0, 0xF00D);
    let (train, test) = full.split_holdout(0.2, 0xF00D);
    let rank = 16;
    let sweeps = if datasets::fast_mode() { 5 } else { 15 };
    let tasks = 4.min(*datasets::task_counts().last().unwrap());

    let mut push = |name: &str, out: splatt_core::CompletionOutput, secs: f64| {
        t.push(vec![
            name.to_string(),
            out.iterations.to_string(),
            format!("{:.4}", out.rmse),
            format!("{:.4}", rmse_observed(&out.model, &test)),
            fmt_secs(secs),
        ]);
    };

    progress("expF: ALS");
    let start = std::time::Instant::now();
    let als = tensor_complete(
        &train,
        &CompletionOptions {
            rank,
            max_iters: sweeps,
            tolerance: 0.0,
            regularization: 0.02,
            ntasks: tasks,
            ..Default::default()
        },
    );
    push("ALS", als, start.elapsed().as_secs_f64());

    progress("expF: CCD++");
    let start = std::time::Instant::now();
    let ccd = tensor_complete_ccd(
        &train,
        &CcdOptions {
            rank,
            max_sweeps: sweeps,
            tolerance: 0.0,
            regularization: 0.02,
            ntasks: tasks,
            ..Default::default()
        },
    );
    push("CCD++", ccd, start.elapsed().as_secs_f64());

    t
}

/// Profile: one fully-probed CP-ALS run on the YELP stand-in, emitted in
/// the Table III per-routine layout via [`crate::report::profile_table`].
/// The full report (threads, locks, alloc, span tree) prints alongside.
pub fn profile() -> Table {
    let tensor = datasets::yelp();
    let tasks = 4.min(*datasets::task_counts().last().unwrap());
    progress(&format!("profile: YELP, {tasks} tasks, probes on"));
    let opts = CpalsOptions {
        rank: datasets::BENCH_RANK,
        max_iters: datasets::bench_iters(),
        tolerance: 0.0,
        ntasks: tasks,
        profile: true,
        ..Default::default()
    };
    let out = cp_als(&tensor, &opts);
    let report = out.profile.expect("profiling was enabled");
    println!("\n{}", report.render());
    crate::report::profile_table(&report)
}

/// Faults: the fault-tolerance study. A seeded [`splatt_core::faults::FaultPlan`]
/// injects each fault kind (and then all of them at once) into the early
/// iterations of a CP-ALS run; the recovery machinery — absorbed delays,
/// escalating ridge regularization, iteration rollback — must bring every
/// run back to the fault-free fit. Reports the injected
/// event count, the recovery actions taken, and the fit delta against the
/// clean run.
pub fn faults_experiment() -> Table {
    use splatt_core::faults::{FaultPlan, FaultRates};

    let mut t = Table::new(
        "faults",
        "Faults: seeded fault injection vs. fault-free CP-ALS (recovery, fit delta)",
        &["plan", "events", "recoveries", "iters", "fit", "delta fit"],
    );
    let tensor = synth::power_law(&[60, 45, 50], 20_000, 1.8, 0xFA);
    let opts = CpalsOptions {
        rank: 8,
        max_iters: if datasets::fast_mode() { 8 } else { 20 },
        tolerance: 0.0,
        ntasks: 2,
        seed: 0xFA17,
        ..Default::default()
    };

    progress("faults: fault-free baseline");
    let clean =
        try_cp_als(&tensor, &opts, &CpalsRun::default()).expect("fault-free run cannot fail");
    t.push(vec![
        "(none)".to_string(),
        "0".to_string(),
        "-".to_string(),
        clean.iterations.to_string(),
        format!("{:.6}", clean.fit),
        "0".to_string(),
    ]);

    let plans: [(&str, FaultRates); 4] = [
        (
            "straggler",
            FaultRates {
                straggler: 0.5,
                ..Default::default()
            },
        ),
        (
            "NaN poison",
            FaultRates {
                nan: 0.3,
                ..Default::default()
            },
        ),
        (
            "non-SPD Gram",
            FaultRates {
                nonspd: 0.4,
                ..Default::default()
            },
        ),
        (
            "all kinds",
            FaultRates {
                straggler: 0.3,
                nan: 0.2,
                nonspd: 0.25,
            },
        ),
    ];
    for (name, rates) in plans {
        progress(&format!("faults: plan '{name}'"));
        // faults stop after the horizon so every run converges cleanly
        let plan = FaultPlan::new(0xFA17, rates).with_horizon(3);
        let injected = CpalsRun {
            faults: Some(&plan),
            ..Default::default()
        };
        let out = try_cp_als(&tensor, &opts, &injected)
            .unwrap_or_else(|e| panic!("plan '{name}' did not recover: {e}"));
        let events = plan.events();
        let mut actions: Vec<&'static str> = events.iter().map(|e| e.action.label()).collect();
        actions.sort_unstable();
        actions.dedup();
        t.push(vec![
            name.to_string(),
            events.len().to_string(),
            actions.join("+"),
            out.iterations.to_string(),
            format!("{:.6}", out.fit),
            format!("{:.1e}", (out.fit - clean.fit).abs()),
        ]);
    }
    t
}

/// Every experiment id the repro binary accepts, in run order.
pub const ALL_EXPERIMENTS: [&str; 20] = [
    "table1",
    "table3",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ablationA",
    "ablationB",
    "ablationC",
    "ablationD",
    "expE",
    "expF",
    "profile",
    "faults",
];

/// Run one experiment by id.
pub fn run(id: &str) -> Option<Table> {
    Some(match id {
        "table1" => table1(),
        "table3" => table3(),
        "fig1" => fig1(),
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "fig7" => fig7(),
        "fig8" => fig8(),
        "fig9" => fig9(),
        "fig10" => fig10(),
        "ablationA" => ablation_a(),
        "ablationB" => ablation_b(),
        "ablationC" => ablation_c(),
        "ablationD" => ablation_d(),
        "expE" => experiment_e(),
        "expF" => experiment_f(),
        "profile" => profile(),
        "faults" => faults_experiment(),
        _ => return None,
    })
}
