//! The CP-ALS driver (Algorithm 1 of the paper; SPLATT's `cpd_als`).
//!
//! Each iteration updates every factor matrix in turn:
//!
//! 1. `M <- MTTKRP(X, factors, mode)` — the critical kernel,
//! 2. `V <- hadamard of the other modes' Gramians`, `A <- M V^+`
//!    (the "Inverse" routine),
//! 3. column-normalize `A`, storing norms in `lambda` ("Mat norm";
//!    2-norm on the first iteration, max-norm after — SPLATT behaviour),
//! 4. refresh `A^T A` ("Mat A^TA"),
//!
//! and closes with the fit computation ("CPD fit"), which reuses the last
//! mode's MTTKRP output to get `<X, Z>` without touching the tensor again.
//! Every phase is attributed to the [`Routine`] timer the paper reports.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::csf::{CsfSet, KernelKind};
use crate::dense::{hadamard_assign, mat_ata, normalize_columns, solve_normals, MatNorm, Matrix};
use crate::faults::{FaultKind, FaultPlan, FaultRecord, RecoveryAction};
use crate::kruskal::KruskalModel;
use crate::mttkrp::{mttkrp, mttkrp_tiled, uses_locks, MttkrpConfig, MttkrpWorkspace};
use crate::options::CpalsOptions;
use crate::solve::{solve_normals_ridge, RidgeOutcome};
use crate::tiling::TiledCsf;
use splatt_guard::{GuardConfig, LaneSpan, RunGuard, TripReason};
use splatt_par::{Routine, TaskTeam, TimerRegistry};
use splatt_probe::{FaultRow, MttkrpProbe, ProfileReport, RoutineRow, SpanNode};
use splatt_tensor::SparseTensor;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of a CP-ALS run.
#[derive(Debug)]
pub struct CpalsOutput {
    /// The fitted Kruskal model.
    pub model: KruskalModel,
    /// Final fit (`1 - ||X - Z||_F / ||X||_F`).
    pub fit: f64,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Fit after each iteration.
    pub fits: Vec<f64>,
    /// Per-routine wall-clock timers (the paper's Table III instrument).
    pub timers: TimerRegistry,
    /// Full observability report, present when
    /// [`CpalsOptions::profile`] was set.
    pub profile: Option<ProfileReport>,
}

/// Who may stop a run early. An enum, so "caller-owned guard *and*
/// policy" cannot be written.
#[derive(Clone, Copy, Default)]
pub enum Governance<'a> {
    /// Nobody: the run ends by convergence or `max_iters`.
    #[default]
    None,
    /// A caller-owned guard. The driver checks it at every iteration and
    /// mode boundary (and the kernels beneath poll it at tile/chunk
    /// granularity), aborting into [`CpalsError::Aborted`] with the last
    /// durable checkpoint and the partial model once it trips. The driver
    /// heartbeats lane 0 for the guard's watchdog across the iteration
    /// loop; kernel tasks heartbeat their own lanes.
    Guard(&'a RunGuard),
    /// Limits the driver arms itself: one guard for the run, on a lane
    /// per task, shut down when the run ends; a trip aborts exactly as a
    /// caller-owned guard's does. Limits with nothing armed
    /// ([`GuardConfig::is_armed`]) run without a guard.
    Policy(&'a GuardConfig),
}

/// Everything about one CP-ALS run that is not a solver option: what it
/// runs on, what is injected into it, and who may stop it.
/// `CpalsRun::default()` is a plain run on a team of its own.
#[derive(Clone, Copy, Default)]
pub struct CpalsRun<'a> {
    /// Task team to run on (reused across runs in the benchmark harness
    /// to avoid re-spawning workers); `None` spawns one for this run.
    pub team: Option<&'a TaskTeam>,
    /// Seeded fault sites to fire during the run. Every injected fault
    /// plus its recovery action is appended to the plan's event log (and
    /// to the profile report when [`CpalsOptions::profile`] is set).
    pub faults: Option<&'a FaultPlan>,
    /// The tensor's CSF representations, when the caller already holds
    /// them (the refresh engine keeps its set between refits, and no
    /// tensor); `None` sorts the tensor and builds them for this run.
    /// Must be the set [`CsfSet::build`] gives the tensor under
    /// [`CpalsOptions::csf_alloc`].
    pub csf: Option<&'a CsfSet>,
    /// Who may stop the run early.
    pub governance: Governance<'a>,
}

/// A CP-ALS run that could not complete.
#[derive(Debug)]
pub enum CpalsError {
    /// Checkpoint write, read, or validation failed.
    Checkpoint(CheckpointError),
    /// A fault exhausted its recovery bound (10 ridge escalations or 16
    /// iteration rollbacks), or the run's state went non-finite with no
    /// fault plan to roll back with.
    Unrecovered {
        /// The fault kind that could not be recovered.
        kind: FaultKind,
        /// ALS iteration the fault hit.
        iteration: usize,
        /// Injection site (e.g. `mode 1 gram`).
        site: String,
    },
    /// The run guard tripped (deadline, memory budget, cancellation, or
    /// watchdog stall) and the run aborted cooperatively.
    Aborted(Box<RunAborted>),
}

/// What a governed run leaves behind when its guard trips.
///
/// Everything needed to continue is here: the checkpoint the run last
/// wrote (resume bit-for-bit from it) and the in-memory partial model
/// (usable directly when no checkpoint directory was configured, though
/// its factors may reflect an incomplete iteration).
#[derive(Debug)]
pub struct RunAborted {
    /// Why the guard tripped.
    pub reason: TripReason,
    /// The 1-based count of the ALS iteration in flight when the run
    /// stopped (equals the would-be `CpalsOutput::iterations`).
    pub iteration: usize,
    /// Most recent durable checkpoint, if any: the file written by this
    /// run, or the `resume_from` path when the run aborted before
    /// completing a fresh iteration.
    pub last_checkpoint: Option<PathBuf>,
    /// Factor state at the abort point. Valid matrices, but mid-iteration
    /// modes may already reflect partial updates — prefer
    /// `last_checkpoint` for exact resumption.
    pub partial: KruskalModel,
}

impl std::fmt::Display for CpalsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpalsError::Checkpoint(e) => write!(f, "{e}"),
            CpalsError::Unrecovered {
                kind,
                iteration,
                site,
            } => write!(
                f,
                "unrecovered {} fault at iteration {iteration} ({site})",
                kind.label()
            ),
            CpalsError::Aborted(ab) => write!(
                f,
                "run aborted at iteration {}: {}{}",
                ab.iteration,
                ab.reason,
                match &ab.last_checkpoint {
                    Some(p) => format!(" (last checkpoint: {})", p.display()),
                    None => String::new(),
                }
            ),
        }
    }
}

impl std::error::Error for CpalsError {}

impl From<CheckpointError> for CpalsError {
    fn from(e: CheckpointError) -> Self {
        CpalsError::Checkpoint(e)
    }
}

/// A profiled run's allocation accounting: the counters at its start,
/// and recording held on until it ends on any exit path (including the
/// early `?` returns of the fallible driver).
struct AllocTracking {
    before: splatt_probe::alloc::AllocStats,
    _recording: splatt_probe::alloc::Recording,
}

/// Time `f` under `which`, and — when a span parent is given — append a
/// leaf with the same wall time under `label`.
fn span_time<R>(
    timers: &TimerRegistry,
    which: Routine,
    parent: Option<(&mut SpanNode, &str)>,
    f: impl FnOnce() -> R,
) -> R {
    match parent {
        None => timers.time(which, f),
        Some((node, label)) => {
            let start = Instant::now();
            let out = timers.time(which, f);
            node.push(SpanNode::leaf(label, start.elapsed().as_nanos() as u64));
            out
        }
    }
}

/// Run CP-ALS on `tensor` under `opts`.
///
/// Duplicate coordinates are legal and their values sum inside the
/// kernels, but the reported *fit* normalizes by the stored-entry norm —
/// like SPLATT, this solver assumes coalesced input. Call
/// [`SparseTensor::coalesce`] first if your tensor may contain
/// duplicates and you care about the fit value.
///
/// # Panics
/// Panics if `opts.rank == 0`, `opts.ntasks == 0`, or `opts.max_iters == 0`,
/// and if checkpointing or resume was requested and fails — use
/// [`try_cp_als`] for a fallible run.
pub fn cp_als(tensor: &SparseTensor, opts: &CpalsOptions) -> CpalsOutput {
    try_cp_als(tensor, opts, &CpalsRun::default()).unwrap_or_else(|e| panic!("cp_als: {e}"))
}

/// Fallible CP-ALS: [`cp_als`] that reports checkpoint I/O failures,
/// exhausted fault recovery and guard trips as typed errors instead of
/// panicking, on the team, fault plan and governance `run` names.
///
/// `tensor` may be `None` when [`CpalsRun::csf`] gives the set: the run
/// then reads the dims off the set and sums ‖X‖² over its first tree's
/// values in tree order — the last bits of the fit may differ from those
/// of the same run given the tensor, whose ‖X‖² is summed in its own
/// order. Such a run with [`CpalsOptions::tiling`] on lays the tensor
/// out of the set to build its tiles.
///
/// # Errors
/// [`CpalsError::Checkpoint`] if `opts.resume_from` cannot be read or
/// validated, or a checkpoint write to `opts.checkpoint_dir` fails;
/// [`CpalsError::Unrecovered`] if a fault exhausts the driver's ridge or
/// rollback bound; [`CpalsError::Aborted`] when a guard trips.
///
/// # Panics
/// As [`cp_als`] on invalid options (programmer error, not runtime
/// faults), if `run.team` is given and its size is not `opts.ntasks`,
/// and if neither `tensor` nor `run.csf` is given.
pub fn try_cp_als<'t>(
    tensor: impl Into<Option<&'t SparseTensor>>,
    opts: &CpalsOptions,
    run: &CpalsRun<'_>,
) -> Result<CpalsOutput, CpalsError> {
    let tensor = tensor.into();
    let own_team;
    let team = match run.team {
        Some(team) => team,
        None => {
            own_team = TaskTeam::with_config(
                opts.ntasks,
                splatt_par::TeamConfig {
                    spin_count: opts.spin_count,
                },
            );
            &own_team
        }
    };
    match run.governance {
        Governance::None => als_attempt(tensor, opts, team, run, None),
        Governance::Guard(guard) => als_attempt(tensor, opts, team, run, Some(guard)),
        Governance::Policy(limits) => {
            let guard = limits
                .is_armed()
                .then(|| RunGuard::new(*limits, opts.ntasks));
            let result = als_attempt(tensor, opts, team, run, guard.as_ref());
            if let Some(guard) = &guard {
                guard.shutdown();
            }
            result
        }
    }
}

/// First Tikhonov ridge of the non-SPD recovery, relative to the mean
/// Gram diagonal (`base` of [`solve_normals_ridge`]).
const RIDGE_BASE: f64 = 1e-8;
/// Factor the ridge grows by after each failed factorization.
const RIDGE_GROWTH: f64 = 100.0;
/// Ridge escalations before a non-SPD Gramian is unrecovered: the last
/// ridge tried is `RIDGE_BASE * RIDGE_GROWTH^9` = 1e10 × the mean
/// diagonal.
const MAX_RIDGE_ATTEMPTS: u32 = 10;
/// Iteration rollbacks per run before non-finite state is unrecovered.
/// Injected sites are one-shot, so a replay runs clean; only state that
/// poisons every replay (an organic NaN) exhausts it.
const MAX_ROLLBACKS: u32 = 16;

/// Builds the `Aborted` error from the driver's loop state at a guard
/// trip. The factor clones are the price of handing back a usable
/// partial model; aborts are cold.
fn abort_error(
    reason: TripReason,
    iteration: usize,
    last_checkpoint: &Option<PathBuf>,
    lambda: &[f64],
    factors: &[Matrix],
) -> CpalsError {
    CpalsError::Aborted(Box::new(RunAborted {
        reason,
        iteration,
        last_checkpoint: last_checkpoint.clone(),
        partial: KruskalModel {
            lambda: lambda.to_vec(),
            factors: factors.to_vec(),
        },
    }))
}

/// One guarded pass of the ALS driver — the whole of [`try_cp_als`]
/// except the choice of team (`run.team` is not read) and of the guard.
fn als_attempt(
    tensor: Option<&SparseTensor>,
    opts: &CpalsOptions,
    team: &TaskTeam,
    run: &CpalsRun<'_>,
    guard: Option<&RunGuard>,
) -> Result<CpalsOutput, CpalsError> {
    let faults = run.faults;
    assert!(opts.rank > 0, "rank must be positive");
    assert!(opts.max_iters > 0, "max_iters must be positive");
    assert_eq!(team.ntasks(), opts.ntasks, "team size must match options");

    let timers = TimerRegistry::new();
    let rank = opts.rank;

    // ---- pre-processing: sort + CSF construction, unless given ----
    let built;
    let set = match (run.csf, tensor) {
        (Some(given), tensor) => {
            assert_eq!(given.alloc(), opts.csf_alloc, "given CSF set: wrong policy");
            let first = &given.csfs()[0];
            assert!(
                given.csfs().iter().all(|c| c.dims() == first.dims()
                    && c.nnz() == first.nnz()
                    && tensor.is_none_or(|t| c.dims() == t.dims() && c.nnz() == t.nnz())),
                "given CSF set is not of this tensor"
            );
            given
        }
        (None, Some(tensor)) => {
            built = CsfSet::build_timed_guarded(
                tensor,
                opts.csf_alloc,
                team,
                opts.sort_variant,
                &timers,
                guard,
            );
            &built
        }
        (None, None) => panic!("CP-ALS needs a tensor or its CSF set"),
    };
    let dims = tensor.map_or(set.csfs()[0].dims(), SparseTensor::dims);
    let order = dims.len();
    // optional mode tiling for the modes that would otherwise scatter
    // (sorting inside the tile build is attributed to the Sort timer);
    // a run given only the set lays its tensor out once for the tiles
    let materialized;
    let tiled: Vec<Option<TiledCsf>> = if opts.tiling {
        let tensor = match tensor {
            Some(t) => t,
            None => {
                materialized = set.to_coo();
                &materialized
            }
        };
        (0..order)
            .map(|m| match set.for_mode(m).1 {
                KernelKind::Root => None,
                _ => Some(timers.time(Routine::Sort, || {
                    TiledCsf::build_guarded(tensor, m, opts.ntasks, team, opts.sort_variant, guard)
                })),
            })
            .collect()
    } else {
        (0..order).map(|_| None).collect()
    };

    let mtt_cfg = MttkrpConfig {
        access: opts.access,
        locks: opts.locks,
        pool_size: opts.pool_size,
        priv_threshold: opts.priv_threshold,
        specialize: opts.specialize,
    };
    let mut ws = MttkrpWorkspace::new(&mtt_cfg, opts.ntasks);
    ws.set_guard(guard.cloned());

    // ---- observability (tentpole): probes are attached only on request,
    // so the unprofiled hot path pays one `Option` branch per site ----
    let probe = if opts.profile {
        let p = Arc::new(MttkrpProbe::new(opts.ntasks));
        ws.set_probe(Some(Arc::clone(&p)));
        Some(p)
    } else {
        None
    };
    let alloc_before = opts.profile.then(|| {
        let _recording = splatt_probe::alloc::Recording::start();
        AllocTracking {
            before: splatt_probe::alloc::snapshot(),
            _recording,
        }
    });
    let mut span_root = opts.profile.then(|| SpanNode::new("CPD total"));

    // ---- initialization: uniform random factors (SPLATT), the exact
    // state of a prior run when resuming from a checkpoint, or a previous
    // Kruskal model when warm-starting an online refresh ----
    let mut start_iter = 0usize;
    let mut fits = Vec::with_capacity(opts.max_iters);
    let mut oldfit = 0.0;
    let mut lambda = vec![0.0; rank];
    let factors_init: Vec<Matrix>;
    if let Some(path) = &opts.resume_from {
        let ck = Checkpoint::read_from(path)?;
        ck.validate(dims, rank, opts.max_iters)?;
        start_iter = ck.iteration;
        lambda = ck.lambda;
        fits = ck.fits;
        oldfit = fits.last().copied().unwrap_or(0.0);
        factors_init = ck.factors;
    } else if let Some(model) = &opts.warm_start {
        assert_eq!(model.rank(), rank, "warm-start model rank mismatch");
        assert_eq!(model.order(), order, "warm-start model order mismatch");
        // Fold lambda into mode 0 so the starting point *is* the model;
        // the first iteration re-normalizes as usual. Rows past the
        // model's dimension (modes grown by merged deltas) take the
        // seeded random values a cold start would give them.
        factors_init = dims
            .iter()
            .enumerate()
            .map(|(m, &d)| {
                let old = &model.factors[m];
                assert!(
                    old.rows() <= d,
                    "warm-start model mode {m} is larger than the tensor"
                );
                let mut f = Matrix::random(d, rank, opts.seed.wrapping_add(m as u64));
                for i in 0..old.rows() {
                    let src = old.row(i);
                    let dst = f.row_mut(i);
                    for r in 0..rank {
                        dst[r] = if m == 0 {
                            model.lambda[r] * src[r]
                        } else {
                            src[r]
                        };
                    }
                }
                f
            })
            .collect();
    } else {
        factors_init = dims
            .iter()
            .enumerate()
            .map(|(m, &d)| Matrix::random(d, rank, opts.seed.wrapping_add(m as u64)))
            .collect();
    }
    let mut factors = factors_init;
    // Gramians are recomputed rather than checkpointed: `mat_ata` is
    // deterministic, so the resumed values are bit-identical anyway.
    let mut ata: Vec<Matrix> = factors
        .iter()
        .map(|f| timers.time(Routine::AtA, || mat_ata(f)))
        .collect();
    let mut mout: Vec<Matrix> = dims.iter().map(|&d| Matrix::zeros(d, rank)).collect();

    let norm_x_sq = tensor.map_or_else(|| set.norm_squared(), SparseTensor::norm_squared);
    let mut iterations = start_iter;
    let mut rollbacks_used = 0u32;
    // the resume source counts as "last durable state" until this run
    // writes a checkpoint of its own
    let mut last_checkpoint: Option<PathBuf> = opts.resume_from.clone();

    // The driver occupies watchdog lane 0 for the whole iteration loop
    // (entered only now — CSF builds heartbeat through the sort kernels,
    // and an idle lane is never reported). Kernel tasks nest into their
    // own lanes; lane occupancy is a counter, so the spans compose.
    let _driver_lane = LaneSpan::enter(guard, 0);

    let loop_start = Instant::now();
    let mut it = start_iter;
    while it < opts.max_iters {
        iterations = it + 1;
        if let Some(g) = guard {
            if let Err(reason) = g.check(0) {
                return Err(abort_error(
                    reason,
                    iterations,
                    &last_checkpoint,
                    &lambda,
                    &factors,
                ));
            }
        }
        // iteration-entry snapshot: the rollback target when a NaN guard
        // fires; only taken when faults can actually be injected
        let snapshot = faults
            .is_some()
            .then(|| (factors.clone(), lambda.clone(), ata.clone()));
        let iter_start = Instant::now();
        let mut iter_node = span_root
            .is_some()
            .then(|| SpanNode::new(format!("iteration {it}")));
        // set when non-finite state is detected (kind, site of the poison)
        let mut poisoned: Option<(FaultKind, String)> = None;
        for mode in 0..order {
            if let Some(g) = guard {
                if let Err(reason) = g.check(0) {
                    return Err(abort_error(
                        reason,
                        iterations,
                        &last_checkpoint,
                        &lambda,
                        &factors,
                    ));
                }
            }
            let mode_start = Instant::now();
            let mut mode_node = iter_node
                .is_some()
                .then(|| SpanNode::new(format!("mode {mode}")));
            // straggler fault: one task is late; the team absorbs the delay
            // (clamped so a recovery sleep can never outlive the deadline)
            if let Some(plan) = faults {
                if plan.roll(FaultKind::Straggler, it, mode) {
                    let delay = Duration::from_nanos(plan.straggler_delay_nanos(it, mode));
                    let delay = guard.map_or(delay, |g| g.clamp_sleep(delay));
                    std::thread::sleep(delay);
                    plan.record(FaultRecord {
                        kind: FaultKind::Straggler,
                        iteration: it,
                        site: format!("mode {mode} mttkrp"),
                        action: RecoveryAction::AbsorbedDelay {
                            nanos: delay.as_nanos() as u64,
                        },
                    });
                }
            }
            span_time(
                &timers,
                Routine::Mttkrp,
                mode_node.as_mut().map(|n| (n, "mttkrp")),
                || {
                    if let Some(tc) = &tiled[mode] {
                        mttkrp_tiled(tc, &factors, &mut mout[mode], team, &mtt_cfg, guard);
                    } else {
                        mttkrp(
                            set,
                            &factors,
                            mode,
                            &mut mout[mode],
                            &mut ws,
                            team,
                            &mtt_cfg,
                        );
                    }
                },
            );
            // a tripped guard may have cancelled the kernel mid-scatter;
            // abort before the partial MTTKRP output is consumed
            if let Some(g) = guard {
                if let Err(reason) = g.check(0) {
                    return Err(abort_error(
                        reason,
                        iterations,
                        &last_checkpoint,
                        &lambda,
                        &factors,
                    ));
                }
            }
            // kernel-boundary poison: corrupt one MTTKRP output entry; the
            // NaN guard below detects it and rolls the iteration back
            if let Some(plan) = faults {
                let len = mout[mode].as_slice().len();
                if len > 0 && plan.roll(FaultKind::NanPoison, it, mode) {
                    let idx = plan.target_index(FaultKind::NanPoison, it, mode, len);
                    mout[mode].as_mut_slice()[idx] = f64::NAN;
                }
            }

            span_time(
                &timers,
                Routine::Inverse,
                mode_node.as_mut().map(|n| (n, "inverse")),
                || -> Result<(), CpalsError> {
                    // V = hadamard of the other Gramians (Algorithm 1 lines 4/7/10)
                    let mut v = Matrix::filled(rank, rank, 1.0);
                    for (m, g) in ata.iter().enumerate() {
                        if m != mode {
                            hadamard_assign(&mut v, g);
                        }
                    }
                    // A <- M V^+ (Cholesky fast path, eigen pseudo-inverse fallback)
                    factors[mode]
                        .as_mut_slice()
                        .copy_from_slice(mout[mode].as_slice());
                    let inject_nonspd = faults
                        .map(|p| p.roll(FaultKind::NonSpdGram, it, mode))
                        .unwrap_or(false);
                    if inject_nonspd {
                        let plan = faults.expect("injection implies a plan");
                        // knock one diagonal entry below zero: V is no
                        // longer positive definite and plain Cholesky fails
                        let j = plan.target_index(FaultKind::NonSpdGram, it, mode, rank);
                        let trace: f64 = (0..rank).map(|i| v[(i, i)].abs()).sum();
                        v[(j, j)] = -(1.0 + trace);
                        let site = format!("mode {mode} gram");
                        let outcome = solve_normals_ridge(
                            &v,
                            &mut factors[mode],
                            RIDGE_BASE,
                            RIDGE_GROWTH,
                            MAX_RIDGE_ATTEMPTS,
                        );
                        let action = match outcome {
                            RidgeOutcome::Cholesky => RecoveryAction::Regularized {
                                ridge: 0.0,
                                attempts: 0,
                            },
                            RidgeOutcome::Regularized { ridge, attempts } => {
                                RecoveryAction::Regularized { ridge, attempts }
                            }
                            RidgeOutcome::Failed { .. } => RecoveryAction::Unrecovered,
                        };
                        let fatal = action == RecoveryAction::Unrecovered;
                        plan.record(FaultRecord {
                            kind: FaultKind::NonSpdGram,
                            iteration: it,
                            site: site.clone(),
                            action,
                        });
                        if fatal {
                            return Err(CpalsError::Unrecovered {
                                kind: FaultKind::NonSpdGram,
                                iteration: it,
                                site,
                            });
                        }
                    } else {
                        solve_normals(&v, &mut factors[mode]);
                    }
                    if opts.constraint == crate::options::Constraint::NonNegative {
                        // projected ALS: clamp onto the nonnegative orthant
                        for val in factors[mode].as_mut_slice() {
                            if *val < 0.0 {
                                *val = 0.0;
                            }
                        }
                    }
                    Ok(())
                },
            )?;

            // NaN guard at the kernel boundary: non-finite factor state
            // aborts the iteration and rolls back to the entry snapshot
            if faults.is_some() && !factors[mode].as_slice().iter().all(|x| x.is_finite()) {
                poisoned = Some((FaultKind::NanPoison, format!("mode {mode} factor")));
                break;
            }

            span_time(
                &timers,
                Routine::MatNorm,
                mode_node.as_mut().map(|n| (n, "norm")),
                || {
                    let which = if it == 0 { MatNorm::Two } else { MatNorm::Max };
                    normalize_columns(&mut factors[mode], &mut lambda, which);
                },
            );

            span_time(
                &timers,
                Routine::AtA,
                mode_node.as_mut().map(|n| (n, "ata")),
                || {
                    ata[mode] = mat_ata(&factors[mode]);
                },
            );

            if let (Some(iter), Some(mut node)) = (iter_node.as_mut(), mode_node) {
                node.nanos = mode_start.elapsed().as_nanos() as u64;
                iter.push(node);
            }
        }

        let fit = if poisoned.is_none() {
            let fit = span_time(
                &timers,
                Routine::Fit,
                iter_node.as_mut().map(|n| (n, "fit")),
                || {
                    compute_fit(
                        norm_x_sq,
                        &lambda,
                        &ata,
                        &factors[order - 1],
                        &mout[order - 1],
                    )
                },
            );
            if !fit.is_finite() {
                poisoned = Some((FaultKind::NanPoison, "fit".to_string()));
            }
            fit
        } else {
            0.0
        };

        if let Some((kind, site)) = poisoned {
            // organic non-finite values (no fault plan, so no snapshot to
            // roll back to, and a replay would poison identically anyway)
            // surface as a typed error instead of entering recovery
            let Some(plan) = faults else {
                return Err(CpalsError::Unrecovered {
                    kind,
                    iteration: it,
                    site,
                });
            };
            // roll the iteration back to its entry snapshot and re-execute;
            // one-shot injection sites guarantee the replay runs clean
            let (f, l, a) = snapshot.expect("a fault plan implies a snapshot");
            factors = f;
            lambda = l;
            ata = a;
            rollbacks_used += 1;
            if rollbacks_used > MAX_ROLLBACKS {
                plan.record(FaultRecord {
                    kind,
                    iteration: it,
                    site: site.clone(),
                    action: RecoveryAction::Unrecovered,
                });
                return Err(CpalsError::Unrecovered {
                    kind,
                    iteration: it,
                    site,
                });
            }
            plan.record(FaultRecord {
                kind,
                iteration: it,
                site,
                action: RecoveryAction::RolledBack { to_iteration: it },
            });
            continue; // re-run iteration `it` from the snapshot
        }
        fits.push(fit);

        if let (Some(root), Some(mut node)) = (span_root.as_mut(), iter_node) {
            node.nanos = iter_start.elapsed().as_nanos() as u64;
            root.push(node);
        }

        // durable checkpoint after every completed iteration: `iteration`
        // counts completed iterations, so resume starts at `it + 1`
        if let Some(dir) = &opts.checkpoint_dir {
            last_checkpoint = Some(
                Checkpoint {
                    iteration: it + 1,
                    lambda: lambda.clone(),
                    fits: fits.clone(),
                    factors: factors.clone(),
                }
                .write_to_dir(dir)?,
            );
        }

        if opts.tolerance > 0.0 && it > 0 && (fit - oldfit).abs() < opts.tolerance {
            break;
        }
        oldfit = fit;
        it += 1;
    }
    timers.add(Routine::CpdTotal, loop_start.elapsed());

    let profile = probe.map(|p| {
        let tracking = alloc_before.as_ref().expect("probe implies alloc snapshot");
        let alloc = splatt_probe::alloc::snapshot().since(&tracking.before);
        let mut span = span_root.take().expect("probe implies span root");
        span.nanos = loop_start.elapsed().as_nanos() as u64;
        let used_locks =
            (0..order).any(|m| tiled[m].is_none() && uses_locks(set, m, opts.ntasks, &mtt_cfg));
        ProfileReport {
            ntasks: opts.ntasks,
            rank,
            iterations,
            lock_strategy: opts.locks.label().to_string(),
            used_locks,
            routines: Routine::ALL
                .iter()
                .map(|&r| RoutineRow {
                    routine: r.label().to_string(),
                    seconds: timers.seconds(r),
                })
                .collect(),
            threads: p.tasks.snapshot(),
            locks: p.locks.snapshot(),
            alloc,
            span,
            faults: faults
                .map(|plan| {
                    plan.events()
                        .iter()
                        .map(|e| FaultRow {
                            kind: e.kind.label().to_string(),
                            iteration: e.iteration,
                            site: e.site.clone(),
                            action: e.action.describe(),
                        })
                        .collect()
                })
                .unwrap_or_default(),
            guard: guard.map(RunGuard::snapshot),
            serve: None,
            store: None,
            refresh: None,
        }
    });

    Ok(CpalsOutput {
        model: KruskalModel { lambda, factors },
        fit: fits.last().copied().unwrap_or(0.0),
        iterations,
        fits,
        timers,
        profile,
    })
}

/// SPLATT's `kruskal_calc_fit`: `fit = 1 - sqrt(normX^2 + normZ^2 -
/// 2 <X, Z>) / normX`, with `<X, Z>` recovered from the final mode's
/// MTTKRP output (`<X, Z> = sum_{i,r} M[i,r] * A[i,r] * lambda[r]`) and
/// `normZ^2` from the Gramians.
fn compute_fit(
    norm_x_sq: f64,
    lambda: &[f64],
    ata: &[Matrix],
    last_factor: &Matrix,
    last_mout: &Matrix,
) -> f64 {
    if norm_x_sq == 0.0 {
        return 0.0;
    }
    let rank = lambda.len();

    // normZ^2 = lambda^T (hadamard of all Gramians) lambda
    let mut had = Matrix::filled(rank, rank, 1.0);
    for g in ata {
        hadamard_assign(&mut had, g);
    }
    let mut norm_z_sq = 0.0;
    for r in 0..rank {
        for s in 0..rank {
            norm_z_sq += lambda[r] * had[(r, s)] * lambda[s];
        }
    }

    // <X, Z> from the last MTTKRP output and the (normalized) last factor
    let mut inner = 0.0;
    for i in 0..last_factor.rows() {
        let frow = last_factor.row(i);
        let mrow = last_mout.row(i);
        for ((&f, &m), &l) in frow.iter().zip(mrow).zip(lambda) {
            inner += f * m * l;
        }
    }

    let residual_sq = (norm_x_sq + norm_z_sq - 2.0 * inner).max(0.0);
    1.0 - residual_sq.sqrt() / norm_x_sq.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Implementation;
    use splatt_tensor::synth;

    /// A run given only the CSF set — no tensor — is the run given both:
    /// λ, factors and iterations bit for bit, and fits within 1e-12 (the
    /// first sums ‖X‖² over the first tree in tree order, the second over
    /// the tensor); also with tiling on, which lays the tensor out of the
    /// set to build its tiles.
    #[test]
    fn a_run_given_only_the_set_is_the_run_given_the_tensor() {
        let (mut tensor, _) = synth::planted_low_rank(&[18, 14, 22], 3, 1_500, 0.05, 4);
        tensor.merge_entries(&[]);
        let bits = |m: &KruskalModel| {
            let mut all: Vec<u64> = m.lambda.iter().map(|x| x.to_bits()).collect();
            for f in &m.factors {
                all.extend(f.as_slice().iter().map(|x| x.to_bits()));
            }
            all
        };
        for tiling in [false, true] {
            let opts = CpalsOptions {
                rank: 3,
                max_iters: 15,
                tolerance: 1e-9,
                tiling,
                ..Default::default()
            };
            let team = TaskTeam::new(opts.ntasks);
            let set = CsfSet::build(&tensor, opts.csf_alloc, &team, opts.sort_variant);
            let run = CpalsRun {
                csf: Some(&set),
                ..Default::default()
            };
            let given = try_cp_als(&tensor, &opts, &run).unwrap();
            let set_only = try_cp_als(None, &opts, &run).unwrap();
            assert_eq!(given.iterations, set_only.iterations, "tiling {tiling}");
            assert_eq!(bits(&given.model), bits(&set_only.model), "tiling {tiling}");
            assert!(
                (given.fit - set_only.fit).abs() <= 1e-12,
                "tiling {tiling}: {} vs {}",
                given.fit,
                set_only.fit
            );
        }
    }

    #[test]
    fn recovers_planted_low_rank_tensor() {
        // fully dense planted tensor: exactly rank-3, so fit must -> 1
        let (tensor, _) = synth::planted_dense(&[25, 20, 15], 3, 0.0, 42);
        let opts = CpalsOptions {
            rank: 3,
            max_iters: 60,
            tolerance: 1e-9,
            ntasks: 2,
            ..Default::default()
        };
        let out = cp_als(&tensor, &opts);
        assert!(out.fit > 0.97, "fit {} too low", out.fit);
    }

    #[test]
    fn overcomplete_rank_still_fits_planted_tensor() {
        // rank above the true rank must fit at least as well
        let (tensor, _) = synth::planted_dense(&[12, 10, 8], 2, 0.0, 77);
        let opts = CpalsOptions {
            rank: 5,
            max_iters: 40,
            tolerance: 0.0,
            ntasks: 1,
            ..Default::default()
        };
        let out = cp_als(&tensor, &opts);
        assert!(out.fit > 0.95, "fit {} too low", out.fit);
    }

    #[test]
    fn fit_is_monotone_ish_and_bounded() {
        let tensor = synth::power_law(&[30, 25, 20], 2_000, 1.5, 7);
        let opts = CpalsOptions {
            rank: 8,
            max_iters: 15,
            tolerance: 0.0,
            ntasks: 2,
            ..Default::default()
        };
        let out = cp_als(&tensor, &opts);
        assert_eq!(out.iterations, 15);
        assert_eq!(out.fits.len(), 15);
        for &f in &out.fits {
            assert!(f <= 1.0 + 1e-9, "fit {f} above 1");
        }
        // ALS is non-decreasing in exact arithmetic; allow tiny noise
        for w in out.fits.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "fit decreased: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn all_implementations_reach_same_fit() {
        let (tensor, _) = synth::planted_low_rank(&[18, 14, 22], 2, 1_200, 0.05, 5);
        let base = CpalsOptions {
            rank: 4,
            max_iters: 12,
            tolerance: 0.0,
            ntasks: 3,
            ..Default::default()
        };
        let fits: Vec<f64> = [
            Implementation::Reference,
            Implementation::PortedInitial,
            Implementation::PortedOptimized,
        ]
        .iter()
        .map(|&imp| cp_als(&tensor, &base.clone().with_implementation(imp)).fit)
        .collect();
        // identical arithmetic, different mechanics: fits agree closely
        assert!((fits[0] - fits[1]).abs() < 1e-8, "{fits:?}");
        assert!((fits[0] - fits[2]).abs() < 1e-8, "{fits:?}");
    }

    #[test]
    fn task_count_does_not_change_result_much() {
        let (tensor, _) = synth::planted_low_rank(&[20, 16, 12], 2, 1_000, 0.0, 9);
        let fit_of = |ntasks| {
            let opts = CpalsOptions {
                rank: 2,
                max_iters: 25,
                tolerance: 0.0,
                ntasks,
                ..Default::default()
            };
            cp_als(&tensor, &opts).fit
        };
        let f1 = fit_of(1);
        let f4 = fit_of(4);
        // MTTKRP reductions reorder float adds; fits agree to solver noise
        assert!((f1 - f4).abs() < 1e-6, "{f1} vs {f4}");
    }

    #[test]
    fn tolerance_stops_early() {
        let (tensor, _) = synth::planted_low_rank(&[15, 15, 15], 2, 800, 0.0, 3);
        let opts = CpalsOptions {
            rank: 2,
            max_iters: 200,
            tolerance: 1e-4,
            ntasks: 1,
            ..Default::default()
        };
        let out = cp_als(&tensor, &opts);
        assert!(out.iterations < 200, "never converged");
    }

    #[test]
    fn timers_are_populated() {
        let tensor = synth::random_uniform(&[20, 20, 20], 1_000, 1);
        let opts = CpalsOptions {
            rank: 5,
            max_iters: 3,
            tolerance: 0.0,
            ntasks: 2,
            ..Default::default()
        };
        let out = cp_als(&tensor, &opts);
        for r in [
            Routine::Mttkrp,
            Routine::Sort,
            Routine::AtA,
            Routine::MatNorm,
            Routine::Fit,
            Routine::Inverse,
            Routine::CpdTotal,
        ] {
            assert!(
                out.timers.get(r) > std::time::Duration::ZERO,
                "{r:?} never timed"
            );
        }
    }

    #[test]
    fn model_fit_matches_reported_fit() {
        let (tensor, _) = synth::planted_low_rank(&[12, 10, 14], 2, 600, 0.0, 8);
        let opts = CpalsOptions {
            rank: 2,
            max_iters: 30,
            tolerance: 0.0,
            ntasks: 1,
            ..Default::default()
        };
        let out = cp_als(&tensor, &opts);
        let direct = out.model.fit_to(&tensor);
        assert!(
            (direct - out.fit).abs() < 1e-6,
            "reported fit {} vs direct {}",
            out.fit,
            direct
        );
    }

    #[test]
    fn four_mode_decomposition_works() {
        let (tensor, _) = synth::planted_dense(&[10, 8, 9, 7], 2, 0.0, 6);
        let opts = CpalsOptions {
            rank: 2,
            max_iters: 40,
            tolerance: 0.0,
            ntasks: 2,
            ..Default::default()
        };
        let out = cp_als(&tensor, &opts);
        assert_eq!(out.model.order(), 4);
        assert!(out.fit > 0.9, "fit {}", out.fit);
    }

    #[test]
    fn tiling_matches_untiled_decomposition() {
        let tensor = synth::power_law(&[30, 18, 40], 2_500, 1.7, 29);
        let base = CpalsOptions {
            rank: 5,
            max_iters: 8,
            tolerance: 0.0,
            ntasks: 3,
            // force the non-root modes away from privatization so tiling
            // actually replaces the lock path
            priv_threshold: 0.0,
            ..Default::default()
        };
        let untiled = cp_als(&tensor, &base);
        let tiled = cp_als(
            &tensor,
            &CpalsOptions {
                tiling: true,
                ..base
            },
        );
        assert!(
            (untiled.fit - tiled.fit).abs() < 1e-8,
            "tiled fit {} vs untiled {}",
            tiled.fit,
            untiled.fit
        );
    }

    #[test]
    fn nonnegative_constraint_keeps_factors_nonnegative() {
        let tensor = synth::power_law(&[20, 15, 25], 1_500, 1.8, 13);
        let opts = CpalsOptions {
            rank: 5,
            max_iters: 10,
            tolerance: 0.0,
            ntasks: 2,
            constraint: crate::options::Constraint::NonNegative,
            ..Default::default()
        };
        let out = cp_als(&tensor, &opts);
        for (m, f) in out.model.factors.iter().enumerate() {
            assert!(
                f.as_slice().iter().all(|&v| v >= 0.0),
                "negative entry in factor {m}"
            );
        }
        assert!(out.fit.is_finite());
    }

    #[test]
    fn nonnegative_fits_nonnegative_planted_data() {
        // planted factors are positive, so the projection should not hurt
        // the achievable fit much
        let (tensor, _) = synth::planted_dense(&[14, 12, 10], 2, 0.0, 21);
        let base = CpalsOptions {
            rank: 2,
            max_iters: 50,
            tolerance: 0.0,
            ntasks: 1,
            ..Default::default()
        };
        let unconstrained = cp_als(&tensor, &base).fit;
        let constrained = cp_als(
            &tensor,
            &CpalsOptions {
                constraint: crate::options::Constraint::NonNegative,
                ..base
            },
        )
        .fit;
        assert!(constrained > 0.95, "constrained fit {constrained}");
        assert!(
            constrained >= unconstrained - 0.05,
            "projection cost too much: {constrained} vs {unconstrained}"
        );
    }

    #[test]
    fn profile_disabled_by_default() {
        let tensor = synth::random_uniform(&[10, 10, 10], 200, 2);
        let opts = CpalsOptions {
            rank: 2,
            max_iters: 2,
            tolerance: 0.0,
            ntasks: 1,
            ..Default::default()
        };
        assert!(cp_als(&tensor, &opts).profile.is_none());
    }

    #[test]
    fn profile_report_is_collected_and_consistent() {
        let tensor = synth::power_law(&[25, 20, 15], 2_000, 1.6, 11);
        let opts = CpalsOptions {
            rank: 4,
            max_iters: 3,
            tolerance: 0.0,
            ntasks: 2,
            profile: true,
            // force the lock path (no privatization) with the slicing
            // access variant so every probe family observes traffic
            priv_threshold: 0.0,
            ..Default::default()
        }
        .with_implementation(Implementation::PortedInitial);
        let out = cp_als(&tensor, &opts);
        let p = out.profile.expect("profile requested");

        assert_eq!(p.ntasks, 2);
        assert_eq!(p.rank, 4);
        assert_eq!(p.iterations, 3);
        assert_eq!(p.lock_strategy, "Sync");
        assert!(p.used_locks);
        let labels: Vec<&str> = p.routines.iter().map(|r| r.routine.as_str()).collect();
        let expect: Vec<&str> = Routine::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels, expect);
        assert!(p.cpd_seconds() > 0.0);

        // span tree: CPD total -> 3 iterations -> 3 modes + fit each
        assert_eq!(p.span.label, "CPD total");
        assert_eq!(p.span.children.len(), 3);
        for (it, iter) in p.span.children.iter().enumerate() {
            assert_eq!(iter.label, format!("iteration {it}"));
            assert_eq!(iter.children.len(), 4); // 3 modes + fit
            assert!(iter.find("fit").is_some());
            assert_eq!(iter.children[0].children.len(), 4); // kernels
        }
        // children must nest within parents up to clock slack
        assert!(p.span.is_nested(2_000_000), "span tree not nested");

        // per-thread busy time was recorded for both tasks
        assert_eq!(p.threads.threads.len(), 2);
        assert!(p.threads.busy_nanos() > 0);
        assert!(p.threads.threads.iter().all(|t| t.invocations > 0));

        // lock-pool counters balance
        assert!(p.locks.acquisitions > 0, "lock path never taken");
        assert_eq!(p.locks.acquisitions, p.locks.releases);

        // RowCopy access records slice allocations
        assert!(p.alloc.row_copies > 0);
        assert!(p.alloc.row_copy_bytes >= p.alloc.row_copies * 8);
        assert!(p.alloc.descriptor_allocs > 0);
    }

    #[test]
    fn profile_reports_privatized_runs() {
        let (tensor, _) = synth::planted_low_rank(&[16, 12, 10], 2, 800, 0.0, 4);
        let opts = CpalsOptions {
            rank: 2,
            max_iters: 2,
            tolerance: 0.0,
            ntasks: 2,
            profile: true,
            // huge threshold: every mode privatizes instead of locking
            priv_threshold: 1e12,
            ..Default::default()
        };
        let out = cp_als(&tensor, &opts);
        let p = out.profile.expect("profile requested");
        assert!(!p.used_locks);
        assert_eq!(p.locks.acquisitions, 0);
        assert!(p.alloc.replica_reductions > 0);
        assert!(p.alloc.replica_bytes > 0);
    }

    /// Two profiled solves at once: the one that ends first must not
    /// switch the allocation counters off under the other.
    #[test]
    fn concurrent_profiled_runs_both_record() {
        let (tensor, _) = synth::planted_low_rank(&[16, 12, 10], 2, 800, 0.0, 4);
        let solve = |max_iters| {
            let opts = CpalsOptions {
                rank: 2,
                max_iters,
                tolerance: 0.0,
                ntasks: 2,
                profile: true,
                priv_threshold: 1e12,
                ..Default::default()
            };
            let p = cp_als(&tensor, &opts).profile.expect("profile requested");
            p.alloc.replica_reductions
        };
        // The middle mode privatizes in every iteration, so a run records
        // at least one reduction per iteration of its own; the counters
        // are process-wide, so other runs' only add to that.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let runs = [2u64, 6].map(|iters| {
                let (solve, barrier) = (&solve, &barrier);
                let run = s.spawn(move || {
                    barrier.wait();
                    solve(iters as usize)
                });
                (iters, run)
            });
            for (iters, run) in runs {
                let recorded = run.join().expect("profiled run");
                assert!(
                    recorded >= iters,
                    "{iters} iterations, {recorded} reductions recorded"
                );
            }
        });
    }

    #[test]
    fn empty_tensor_is_handled() {
        let tensor = SparseTensor::new(vec![5, 5, 5]);
        let opts = CpalsOptions {
            rank: 2,
            max_iters: 2,
            tolerance: 0.0,
            ntasks: 1,
            ..Default::default()
        };
        let out = cp_als(&tensor, &opts);
        assert_eq!(out.fit, 0.0);
        assert!(out.model.lambda.iter().all(|l| l.is_finite()));
    }

    #[test]
    #[should_panic(expected = "rank must be positive")]
    fn zero_rank_panics() {
        let tensor = SparseTensor::new(vec![5, 5, 5]);
        let opts = CpalsOptions {
            rank: 0,
            ..Default::default()
        };
        let _ = cp_als(&tensor, &opts);
    }

    /// The ridge ladder's constants on the degenerate Gramians CP-ALS
    /// meets: near-singular, exactly collinear columns, and rank above
    /// the smallest dimension — each plain, as a Hadamard product the way
    /// the driver forms `V`, and knocked indefinite the way a `nonspd`
    /// fault knocks it. Every solve ends in a typed outcome that is not
    /// `Failed`, with finite output.
    #[test]
    fn ridge_ladder_constants_solve_rank_deficient_gramians() {
        let rank = 6;
        let rhs = || Matrix::random(7, rank, 6);
        let ridge = |v: &Matrix, attempts| {
            let mut m = rhs();
            let outcome = solve_normals_ridge(v, &mut m, RIDGE_BASE, RIDGE_GROWTH, attempts);
            (outcome, m)
        };
        // column `rank - 1` rewritten from column `rank - 2`
        let with_last_column = |seed, f: &dyn Fn(f64, usize) -> f64| {
            let mut a = Matrix::random(30, rank, seed);
            for i in 0..a.rows() {
                a[(i, rank - 1)] = f(a[(i, rank - 2)], i);
            }
            a
        };
        let near = with_last_column(1, &|x, i| x + 1e-9 * (i as f64).sin());
        let collinear = with_last_column(2, &|x, _| 2.0 * x);
        let wide = Matrix::random(4, rank, 3); // rank 6 > 4 rows
        let mut hadamard = mat_ata(&Matrix::random(3, rank, 4));
        hadamard_assign(&mut hadamard, &mat_ata(&Matrix::random(1, rank, 5)));
        let gramians = [
            ("near-singular", mat_ata(&near)),
            ("collinear", mat_ata(&collinear)),
            ("rank > dim", mat_ata(&wide)),
            ("hadamard, rank > dims", hadamard),
        ];
        for (what, gram) in gramians {
            let mut knocked = gram.clone();
            let trace: f64 = (0..rank).map(|i| knocked[(i, i)].abs()).sum();
            knocked[(0, 0)] = -(1.0 + trace);
            for (how, v) in [("plain", gram), ("knocked", knocked)] {
                let (outcome, m) = ridge(&v, MAX_RIDGE_ATTEMPTS);
                assert!(
                    !matches!(outcome, RidgeOutcome::Failed { .. }),
                    "{what}, {how}: {outcome:?}"
                );
                assert!(
                    m.as_slice().iter().all(|x| x.is_finite()),
                    "{what}, {how}: non-finite solve ({outcome:?})"
                );
            }
        }
        // the cap is what separates "regularized" from "failed": unit
        // diagonal (ridge scale 1) with an off-diagonal of 1e12 needs a
        // ridge near 1e12, one rung past the last (1e10)
        let mut v = Matrix::identity(rank);
        v[(0, 1)] = 1e12;
        v[(1, 0)] = 1e12;
        match ridge(&v, MAX_RIDGE_ATTEMPTS) {
            (
                RidgeOutcome::Failed {
                    last_ridge,
                    attempts,
                },
                m,
            ) => {
                assert_eq!(attempts, MAX_RIDGE_ATTEMPTS);
                assert!((last_ridge / 1e10 - 1.0).abs() < 1e-9, "{last_ridge}");
                assert_eq!(m.as_slice(), rhs().as_slice(), "a refused solve keeps m");
            }
            (other, _) => panic!("expected the cap to refuse, got {other:?}"),
        }
        let (outcome, _) = ridge(&v, MAX_RIDGE_ATTEMPTS + 1);
        assert!(
            matches!(outcome, RidgeOutcome::Regularized { attempts: 11, .. }),
            "{outcome:?}"
        );
    }

    /// The [`Governance::Policy`] arm: one guard when a limit is armed,
    /// none otherwise, and a trip aborts with the partial model.
    mod governed {
        use super::*;
        use splatt_guard::GuardConfig;

        fn governed(limits: &GuardConfig) -> Result<CpalsOutput, CpalsError> {
            let run = CpalsRun {
                governance: Governance::Policy(limits),
                ..Default::default()
            };
            let tensor = synth::planted_dense(&[16, 14, 12], 3, 0.0, 11).0;
            let opts = CpalsOptions {
                rank: 3,
                max_iters: 10,
                tolerance: 0.0,
                ntasks: 2,
                ..Default::default()
            };
            try_cp_als(&tensor, &opts, &run)
        }

        #[test]
        fn ungoverned_policy_just_runs() {
            let out = governed(&GuardConfig::default()).expect("clean run");
            assert_eq!(out.iterations, 10);
        }

        #[test]
        fn generous_deadline_does_not_trip() {
            let limits = GuardConfig {
                deadline: Some(Duration::from_secs(300)),
                ..Default::default()
            };
            let out = governed(&limits).expect("clean run");
            assert_eq!(out.iterations, 10);
        }

        #[test]
        fn zero_deadline_aborts_immediately() {
            let limits = GuardConfig {
                deadline: Some(Duration::ZERO),
                ..Default::default()
            };
            match governed(&limits) {
                Err(CpalsError::Aborted(ab)) => {
                    assert!(matches!(ab.reason, TripReason::DeadlineExceeded { .. }));
                    assert!(ab.last_checkpoint.is_none());
                    assert_eq!(ab.partial.factors.len(), 3);
                }
                other => panic!("expected Aborted, got {other:?}"),
            }
        }
    }
}
