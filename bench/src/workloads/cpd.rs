//! `cpd_nell2` / `cpd_yelp`: one `cp_als` call under the paper protocol.
//!
//! Two tensors because the paper's own contrast is two tensors: NELL-2's
//! dense-ish modes keep every MTTKRP privatized and make sort a fifth of
//! the wall; YELP's long sparse modes put the leaf kernel on the lock
//! path and make the dense algebra a third. A kernel or sort change
//! should move the first and leave the second (and vice versa for the
//! dense routines).

use super::{gen, timed_setup, Ctx, Outcome, GATED_TASKS};
use crate::adapter::{
    cp_als, hadamard_assign, mat_ata, mttkrp, normalize_columns, solve_normals, sort_by_perm,
    uses_locks, CpalsOptions, CsfSet, KruskalModel, MatNorm, Matrix, MatrixAccess, MttkrpConfig,
    MttkrpWorkspace, Routine, SparseTensor, TaskTeam, TimerRegistry,
};
use crate::env::OneCpu;
use crate::stats::{median, quiet_time};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Nell2,
    Yelp,
}

impl Shape {
    fn generate(self, seed: u64, quick: bool) -> SparseTensor {
        match self {
            Shape::Nell2 => gen::nell2_tensor(seed, quick),
            Shape::Yelp => gen::yelp_tensor(seed, quick),
        }
    }
}

/// Fits of the same tensor by different routes must agree this closely.
const FIT_TOL: f64 = 1e-6;

/// Repetitions of each MTTKRP behind `mttkrp.ported_over_ref`.
const ACCESS_REPS: usize = 3;

/// Span names of the four routines of an ALS mode update, per mode (the
/// modes differ in size, so each is its own population of 20 samples).
const MTTKRP_SPANS: [&str; 3] = ["mttkrp.mode0", "mttkrp.mode1", "mttkrp.mode2"];
const SOLVE_SPANS: [&str; 3] = [
    "dense.solve.mode0",
    "dense.solve.mode1",
    "dense.solve.mode2",
];
const NORM_SPANS: [&str; 3] = ["dense.norm.mode0", "dense.norm.mode1", "dense.norm.mode2"];
const ATA_SPANS: [&str; 3] = ["dense.ata.mode0", "dense.ata.mode1", "dense.ata.mode2"];

fn options(ctx: &Ctx, ntasks: usize) -> CpalsOptions {
    CpalsOptions {
        rank: gen::CPD_RANK,
        max_iters: gen::cpd_iters(ctx.quick),
        tolerance: 0.0,
        ntasks,
        seed: ctx.seed,
        ..CpalsOptions::default()
    }
}

pub fn run(ctx: &Ctx, shape: Shape) -> Outcome {
    let mut out = Outcome::new(ctx.traced);
    let confined = OneCpu::confine();
    out.note_confinement(&confined);
    let (tensor, setup_s) = timed_setup(|| shape.generate(ctx.seed, ctx.quick));
    out.metrics.set("setup_s", setup_s);
    let opts = options(ctx, GATED_TASKS);
    out.note("dims", format!("{:?}", tensor.dims()));
    out.note("nnz", tensor.nnz());
    out.note("input_hash", format!("{:016x}", gen::hash_tensor(&tensor)));
    out.note("rank", opts.rank);
    out.note("iterations", opts.max_iters);
    out.note("ntasks", opts.ntasks);

    // Whole calls until the time is used: stop when one more would
    // overshoot by more than half a call. A traced run keeps half of the
    // time for this pass; its end-to-end numbers are not the gate.
    let budget = if ctx.traced {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let phase = Instant::now();
    let mut walls = Vec::new();
    let mut fits: Vec<f64> = Vec::new();
    let model = loop {
        let start = Instant::now();
        let run = cp_als(&tensor, &opts);
        walls.push(start.elapsed().as_secs_f64());
        out.attempted += 1;
        if !run.fit.is_finite() || run.iterations != opts.max_iters {
            out.failed += 1;
        }
        fits.push(run.fit);
        if phase.elapsed().as_secs_f64() + 0.5 * median(&walls) > budget {
            break run.model;
        }
    };
    let cpd_s = quiet_time(&walls);
    let fit = fits[0];
    out.metrics.set("op_ms", cpd_s * 1e3);
    out.metrics
        .set("work_per_s", (tensor.nnz() * opts.max_iters) as f64 / cpd_s);
    out.note("call_walls_s", format!("{walls:?}"));
    out.note("fit", fit);

    out.check(
        "fit_bit_identical_across_calls",
        fits.iter().all(|f| f.to_bits() == fit.to_bits()),
        format!("{fits:?}"),
    );
    let exact = model.fit_to(&tensor);
    out.check(
        "fit_equals_fit_to",
        (fit - exact).abs() <= FIT_TOL,
        format!("cp_als {fit} vs KruskalModel::fit_to {exact}"),
    );

    if ctx.traced {
        traced(&tensor, &opts, fit, cpd_s, &mut out);
        // two tasks need two CPUs
        drop(confined);
        two_tasks(ctx, &tensor, fit, cpd_s, &mut out);
    }
    out
}

/// Algorithm 1 on the harness side, one span per call into a layer: the
/// same routines `cp_als` runs, in the same order, on the same inputs.
fn traced(tensor: &SparseTensor, opts: &CpalsOptions, ref_fit: f64, cpd_s: f64, out: &mut Outcome) {
    let tr = out.trace.as_mut().expect("traced pass has a tracer");
    let team = TaskTeam::new(opts.ntasks);
    let rank = opts.rank;
    let order = tensor.order();
    let cfg = MttkrpConfig {
        access: opts.access,
        locks: opts.locks,
        pool_size: opts.pool_size,
        priv_threshold: opts.priv_threshold,
        specialize: opts.specialize,
    };

    let root = tr.enter("cpd");
    // `build_timed` is what `cp_als` calls; its registry says how much of
    // the build was the sort, which no pair of outside timings can (the
    // difference of two ~1 s spans is noise where the answer is ~0.1 s).
    let timers = TimerRegistry::new();
    let set = tr.time("csf.build", || {
        CsfSet::build_timed(tensor, opts.csf_alloc, &team, opts.sort_variant, &timers)
    });
    let sort_in_build_s = timers.seconds(Routine::Sort);
    let mut factors: Vec<Matrix> = tensor
        .dims()
        .iter()
        .enumerate()
        .map(|(m, &d)| Matrix::random(d, rank, opts.seed.wrapping_add(m as u64)))
        .collect();
    let mut ata: Vec<Matrix> = factors
        .iter()
        .map(|f| tr.time("dense.ata.init", || mat_ata(f)))
        .collect();
    let mut mout: Vec<Matrix> = tensor
        .dims()
        .iter()
        .map(|&d| Matrix::zeros(d, rank))
        .collect();
    let mut lambda = vec![0.0; rank];
    let mut ws = MttkrpWorkspace::new(&cfg, opts.ntasks);
    for it in 0..opts.max_iters {
        for mode in 0..order {
            tr.time(MTTKRP_SPANS[mode], || {
                mttkrp(&set, &factors, mode, &mut mout[mode], &mut ws, &team, &cfg);
            });
            tr.time(SOLVE_SPANS[mode], || {
                let mut v = Matrix::filled(rank, rank, 1.0);
                for (m, g) in ata.iter().enumerate() {
                    if m != mode {
                        hadamard_assign(&mut v, g);
                    }
                }
                factors[mode]
                    .as_mut_slice()
                    .copy_from_slice(mout[mode].as_slice());
                solve_normals(&v, &mut factors[mode]);
            });
            tr.time(NORM_SPANS[mode], || {
                let which = if it == 0 { MatNorm::Two } else { MatNorm::Max };
                normalize_columns(&mut factors[mode], &mut lambda, which);
            });
            tr.time(ATA_SPANS[mode], || ata[mode] = mat_ata(&factors[mode]));
        }
    }
    tr.exit(root);
    let model = KruskalModel { lambda, factors };
    let fit = tr.time("cpals.fit", || model.fit_to(tensor));

    // the sorts the build ran inside, as calls of their own
    for csf in set.csfs() {
        let mut copy = tensor.clone();
        tr.time("tensor.sort", || {
            sort_by_perm(&mut copy, csf.dim_perm(), &team, opts.sort_variant);
        });
    }

    // The paper's headline, inverted: bounds-checked pointer access over
    // the C-reference access, same CSF, same factors.
    let mut access_s = [0.0f64; 2];
    for (slot, access) in [MatrixAccess::PointerChecked, MatrixAccess::PointerZip]
        .into_iter()
        .enumerate()
    {
        let cfg = MttkrpConfig { access, ..cfg };
        for (mode, out) in mout.iter_mut().enumerate() {
            let reps: Vec<f64> = (0..ACCESS_REPS)
                .map(|_| {
                    let start = Instant::now();
                    mttkrp(&set, &model.factors, mode, out, &mut ws, &team, &cfg);
                    start.elapsed().as_secs_f64()
                })
                .collect();
            access_s[slot] += median(&reps);
        }
    }

    let sum = |name: &str| tr.durations_s(name).iter().sum::<f64>();
    let sum_all = |names: &[&str]| names.iter().map(|n| sum(n)).sum::<f64>();
    let sort_s = sum("tensor.sort");
    let build_span_s = sum("csf.build");
    let mttkrp_s = sum_all(&MTTKRP_SPANS);
    let solve_s = sum_all(&SOLVE_SPANS);
    let norm_s = sum_all(&NORM_SPANS);
    let ata_s = sum_all(&ATA_SPANS) + sum("dense.ata.init");
    let root_s = sum("cpd");
    // For the reconciliation a repeated routine counts as its quiet decile
    // times its repetitions — what `cpd_s` is for whole calls — so a burst
    // of the shared host during this pass does not read as negative
    // unattributed time.
    let quiet_total = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| tr.durations_s(n))
            .map(|d| d.len() as f64 * quiet_time(&d))
            .sum()
    };
    let layers_quiet_s = build_span_s
        + sum("dense.ata.init")
        + [MTTKRP_SPANS, SOLVE_SPANS, NORM_SPANS, ATA_SPANS]
            .iter()
            .map(|names| quiet_total(names))
            .sum::<f64>();

    // Computed, not measured: 2R flops per tree node below the root, and
    // the bytes one MTTKRP streams if every access misses cache once
    // (the CSF itself, one factor row per node below the root, the output).
    let nnz = tensor.nnz() as f64;
    let (mut flops, mut bytes, mut csf_bytes) = (0.0, 0.0, 0.0);
    for csf in set.csfs() {
        csf_bytes += csf.storage_bytes() as f64;
    }
    for mode in 0..order {
        let (csf, _kind) = set.for_mode(mode);
        let below_root: usize = (1..order).map(|l| csf.nfibers(l)).sum();
        flops += 2.0 * rank as f64 * below_root as f64;
        bytes += csf.storage_bytes() as f64
            + 8.0 * rank as f64 * (below_root + tensor.dims()[mode]) as f64;
    }
    let lock_modes = (0..order)
        .filter(|&m| uses_locks(&set, m, opts.ntasks, &cfg))
        .count();

    let m = &mut out.metrics;
    m.set("tensor.sort_s", sort_s);
    m.set("csf.build_s", build_span_s - sort_in_build_s);
    m.set("csf.bytes_per_nnz", csf_bytes / nnz);
    for (mode, name) in ["mttkrp.mode0_ms", "mttkrp.mode1_ms", "mttkrp.mode2_ms"]
        .iter()
        .enumerate()
    {
        m.set(name, median(&tr.durations_s(MTTKRP_SPANS[mode])) * 1e3);
    }
    m.set("mttkrp.total_s", mttkrp_s);
    m.set(
        "mttkrp.gflops",
        flops * opts.max_iters as f64 / mttkrp_s / 1e9,
    );
    m.set(
        "mttkrp.bytes_per_nnz_computed",
        bytes / (order as f64 * nnz),
    );
    m.set("mttkrp.lock_modes", lock_modes as f64);
    m.set("mttkrp.ported_over_ref", access_s[0] / access_s[1]);
    m.set("dense.solve_s", solve_s);
    m.set("dense.ata_s", ata_s);
    m.set("dense.norm_s", norm_s);
    m.set("cpals.fit_s", sum("cpals.fit"));
    m.set("cpals.iters", opts.max_iters as f64);
    // What `cp_als` spends outside the layers timed above (its own fit,
    // factor initialisation, bookkeeping): the reconciliation number.
    m.set("cpals.unattributed_share", (cpd_s - layers_quiet_s) / cpd_s);
    m.set("trace_overhead_share", root_s / cpd_s - 1.0);

    out.check(
        "traced_fit_equals_cp_als",
        (fit - ref_fit).abs() <= FIT_TOL,
        format!("harness Algorithm 1 {fit} vs cp_als {ref_fit}"),
    );
}

/// Ungated diagnostic: the same call at two tasks, profiled.
fn two_tasks(ctx: &Ctx, tensor: &SparseTensor, ref_fit: f64, cpd_s: f64, out: &mut Outcome) {
    let opts = CpalsOptions {
        profile: true,
        ..options(ctx, 2)
    };
    let start = Instant::now();
    let run = cp_als(tensor, &opts);
    let wall = start.elapsed().as_secs_f64();
    out.attempted += 1;
    let profile = run.profile.expect("profile was requested");
    let m = &mut out.metrics;
    m.set("par.cpd_2t_s", wall);
    m.set("par.speedup_2t", cpd_s / wall);
    m.set("par.busy_imbalance", profile.threads.imbalance());
    m.set("locks.contended_share", profile.locks.contention_rate());
    out.check(
        "two_task_fit_equals_one_task",
        (run.fit - ref_fit).abs() <= FIT_TOL,
        format!("2 tasks {} vs 1 task {ref_fit}", run.fit),
    );
}
