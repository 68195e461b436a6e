//! Cross-crate run-governance tests: the guarantees the RunGuard stack
//! must uphold.
//!
//! * Every injected stall is caught by the watchdog within its bound.
//! * A tripping watchdog aborts the run with a `Stalled` reason.
//! * Deadline and memory-budget aborts leave a durable checkpoint, and
//!   resuming from it reproduces the ungoverned run bit for bit.
//! * The profile report (schema v3) records guard activity.
//! * A clean guarded MTTKRP costs < 2% over the unguarded kernel
//!   (release-mode smoke, `--ignored`).
//!
//! The allocation counters and the wall clock are process-global, so
//! every test serializes on one mutex — the timing bounds and budget
//! calibrations assume no sibling test is burning the same resources.

use splatt::guard::{GuardConfig, RunGuard, StallReport, TripReason, WatchdogConfig};
use splatt::tensor::synth;
use splatt::{
    cp_als, try_cp_als, Checkpoint, CpalsError, CpalsOptions, CpalsOutput, CpalsRun, FaultKind,
    FaultPlan, FaultRates, Governance, Matrix, MatrixAccess, RunAborted,
};
use std::sync::Mutex;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The run context of a caller-owned guard, with or without a fault plan.
fn under_guard<'a>(faults: Option<&'a FaultPlan>, guard: &'a RunGuard) -> CpalsRun<'a> {
    CpalsRun {
        faults,
        governance: Governance::Guard(guard),
        ..Default::default()
    }
}

fn planted() -> splatt::SparseTensor {
    synth::planted_dense(&[18, 15, 12], 3, 0.0, 7).0
}

fn base_opts() -> CpalsOptions {
    CpalsOptions {
        rank: 3,
        max_iters: 10,
        tolerance: 0.0,
        ntasks: 2,
        ..Default::default()
    }
}

/// A plan whose only faults are stragglers: pure injected latency, never
/// a numerical change — so governed runs stay bit-comparable to clean
/// ones.
fn straggler_plan(seed: u64, scale: u64) -> FaultPlan {
    FaultPlan::new(
        seed,
        FaultRates {
            straggler: 1.0,
            ..Default::default()
        },
    )
    .with_straggler_scale(scale)
}

fn matrix_bits(m: &Matrix) -> Vec<u64> {
    (0..m.rows())
        .flat_map(|i| m.row(i).iter().map(|v| v.to_bits()))
        .collect()
}

fn assert_bit_identical(a: &CpalsOutput, b: &CpalsOutput, what: &str) {
    assert_eq!(a.fit.to_bits(), b.fit.to_bits(), "{what}: fit bits");
    assert_eq!(
        a.fits.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        b.fits.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        "{what}: fit history bits"
    );
    for (m, (fa, fb)) in a.model.factors.iter().zip(&b.model.factors).enumerate() {
        assert_eq!(matrix_bits(fa), matrix_bits(fb), "{what}: factor {m} bits");
    }
}

fn expect_aborted(r: Result<CpalsOutput, CpalsError>, what: &str) -> Box<RunAborted> {
    match r {
        Err(CpalsError::Aborted(ab)) => ab,
        Err(other) => panic!("{what}: expected Aborted, got {other}"),
        Ok(out) => panic!(
            "{what}: run finished ({} iterations) instead of aborting",
            out.iterations
        ),
    }
}

/// Every straggler sleep exceeds the stall bound, so the watchdog must
/// file at least one report per injected stall — and a non-tripping
/// watchdog must never perturb the run.
#[test]
fn watchdog_reports_every_straggler_stall() {
    let _s = serial();
    let tensor = planted();
    let opts = CpalsOptions {
        max_iters: 4,
        ..base_opts()
    };
    // scale 200: sleeps of 20..200ms, all far above the 5ms bound
    let plan = straggler_plan(0xD06, 200);
    let bound = Duration::from_millis(5);
    let guard = RunGuard::new(
        GuardConfig {
            watchdog: Some(WatchdogConfig {
                stall_bound: bound,
                sample_interval: Duration::from_millis(1),
                trip_cancel: false,
            }),
            ..Default::default()
        },
        opts.ntasks,
    );
    let clean = try_cp_als(&tensor, &opts, &CpalsRun::default()).expect("clean run");
    let out = try_cp_als(&tensor, &opts, &under_guard(Some(&plan), &guard))
        .expect("a non-tripping watchdog must not abort the run");
    guard.shutdown();

    let stalls = plan
        .events()
        .iter()
        .filter(|e| e.kind == FaultKind::Straggler)
        .count();
    assert_eq!(stalls, 4 * 3, "rate-1.0 plan stalls every mode");
    let reports: Vec<StallReport> = guard.stall_reports();
    assert!(
        reports.len() >= stalls,
        "{} watchdog reports for {} injected stalls",
        reports.len(),
        stalls
    );
    for r in &reports {
        assert!(
            r.stalled_for >= bound,
            "reported stall {:?} under the {:?} bound",
            r.stalled_for,
            bound
        );
        assert_eq!(r.lane, 0, "stragglers sleep on the driver lane");
    }
    let snap = guard.snapshot();
    assert!(snap.watchdog_samples > 0);
    assert_eq!(
        (guard.trip_reason(), snap.trip.as_str()),
        (None, ""),
        "observing watchdog must not trip"
    );
    // injected latency is invisible to the arithmetic
    assert_bit_identical(&clean, &out, "watchdog-observed run");
}

/// With `trip_cancel` armed, a stall cancels the run and the abort is
/// attributed to the watchdog.
#[test]
fn tripping_watchdog_aborts_with_stalled_reason() {
    let _s = serial();
    let tensor = planted();
    let opts = CpalsOptions {
        max_iters: 40,
        ..base_opts()
    };
    let plan = straggler_plan(0x57A11, 400); // 40..400ms sleeps
    let bound = Duration::from_millis(10);
    let guard = RunGuard::new(
        GuardConfig {
            watchdog: Some(WatchdogConfig {
                stall_bound: bound,
                sample_interval: Duration::from_millis(2),
                trip_cancel: true,
            }),
            ..Default::default()
        },
        opts.ntasks,
    );
    let ab = expect_aborted(
        try_cp_als(&tensor, &opts, &under_guard(Some(&plan), &guard)),
        "tripping watchdog",
    );
    guard.shutdown();
    match ab.reason {
        TripReason::Stalled { lane, stalled_for } => {
            assert_eq!(lane, 0);
            assert!(stalled_for >= bound);
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
    assert!(ab.iteration >= 1);
}

/// A deadline abort mid-run leaves a durable checkpoint; resuming from
/// it without governance reproduces the uninterrupted run bit for bit —
/// through a caller-owned guard and through the limits the driver arms
/// itself (the CLI's path).
#[test]
fn deadline_abort_resumes_bit_for_bit() {
    let _s = serial();
    let tensor = planted();
    let base = CpalsOptions {
        max_iters: 40,
        ..base_opts()
    };
    let straight = try_cp_als(&tensor, &base, &CpalsRun::default()).unwrap();

    // every iteration sleeps >= 30ms, so 40 iterations need >= 1.2s and
    // the 800ms deadline must trip mid-run; the first iteration sleeps
    // at most ~300ms, so at least one checkpoint lands inside the budget
    let limit = Duration::from_millis(800);
    let limits = GuardConfig {
        deadline: Some(limit),
        ..Default::default()
    };
    // the caller-owned guard's clock starts here, so it runs first
    let guard = RunGuard::new(limits, base.ntasks);
    let cases = [
        ("caller-owned guard", Governance::Guard(&guard)),
        ("driver-armed limits", Governance::Policy(&limits)),
    ];
    for (case, (what, governance)) in cases.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!("splatt_gov_deadline_{case}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // sites are one-shot: every run gets a fresh plan
        let plan = straggler_plan(0xDEAD, 100);
        let run = CpalsRun {
            faults: Some(&plan),
            governance,
            ..Default::default()
        };
        let ab = expect_aborted(
            try_cp_als(
                &tensor,
                &CpalsOptions {
                    checkpoint_dir: Some(dir.clone()),
                    ..base.clone()
                },
                &run,
            ),
            what,
        );
        match ab.reason {
            TripReason::DeadlineExceeded { elapsed, limit: l } => {
                assert_eq!(l, limit, "{what}");
                assert!(elapsed >= limit, "{what}: tripped early: {elapsed:?}");
            }
            other => panic!("{what}: expected DeadlineExceeded, got {other:?}"),
        }
        assert!(ab.iteration >= 1 && ab.iteration < 40, "{what}");
        assert_eq!(ab.partial.factors.len(), 3, "{what}: partial model");

        let latest = ab
            .last_checkpoint
            .expect("at least one iteration fit inside the deadline");
        assert_eq!(Some(latest.clone()), Checkpoint::latest_in(&dir).unwrap());
        let resumed = try_cp_als(
            &tensor,
            &CpalsOptions {
                resume_from: Some(latest),
                ..base.clone()
            },
            &CpalsRun::default(),
        )
        .unwrap();
        assert_bit_identical(&straight, &resumed, what);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A memory-budget abort is also checkpoint-resumable. The budget is
/// calibrated from the run's own measured allocation traffic so the
/// trip lands deterministically around iteration three. The run uses
/// the Chapel-initial `RowCopy` access on purpose: it is the
/// allocation-heavy configuration the budget governor exists for — the
/// optimized access paths allocate nothing per iteration in steady
/// state, so there is no per-iteration traffic to calibrate against.
#[test]
fn memory_budget_abort_resumes_bit_for_bit() {
    let _s = serial();
    let tensor = planted();
    let dir = std::env::temp_dir().join("splatt_gov_membudget");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let base = CpalsOptions {
        access: MatrixAccess::RowCopy,
        ..base_opts()
    };
    let straight = try_cp_als(&tensor, &base, &CpalsRun::default()).unwrap();

    // calibrate: traffic of (build + 1 iteration) and per-iteration delta
    let _recording = splatt::probe::alloc::Recording::start();
    let before1 = splatt::probe::alloc::snapshot();
    try_cp_als(
        &tensor,
        &CpalsOptions {
            max_iters: 1,
            ..base.clone()
        },
        &CpalsRun::default(),
    )
    .unwrap();
    let one = splatt::probe::alloc::snapshot().since(&before1);
    let before3 = splatt::probe::alloc::snapshot();
    try_cp_als(
        &tensor,
        &CpalsOptions {
            max_iters: 3,
            ..base.clone()
        },
        &CpalsRun::default(),
    )
    .unwrap();
    let three = splatt::probe::alloc::snapshot().since(&before3);
    let per_iter = (three.total_bytes() - one.total_bytes()) / 2;
    assert!(per_iter > 0, "kernels produced no allocation traffic");

    // enough for build + ~2.5 iterations: trips during iteration 3,
    // after checkpoints exist
    let budget = one.total_bytes() + per_iter * 3 / 2;
    let guard = RunGuard::new(
        GuardConfig {
            mem_budget: Some(budget),
            ..Default::default()
        },
        base.ntasks,
    );
    let ab = expect_aborted(
        try_cp_als(
            &tensor,
            &CpalsOptions {
                checkpoint_dir: Some(dir.clone()),
                ..base.clone()
            },
            &under_guard(None, &guard),
        ),
        "memory budget",
    );
    match ab.reason {
        TripReason::MemoryExceeded {
            used_bytes,
            limit_bytes,
        } => {
            assert_eq!(limit_bytes, budget);
            assert!(used_bytes > limit_bytes);
        }
        other => panic!("expected MemoryExceeded, got {other:?}"),
    }
    assert!(
        ab.iteration >= 2 && ab.iteration <= 4,
        "calibrated budget should trip around iteration 3, tripped at {}",
        ab.iteration
    );

    let latest = ab.last_checkpoint.expect("iterations completed pre-trip");
    let resumed = try_cp_als(
        &tensor,
        &CpalsOptions {
            resume_from: Some(latest),
            ..base
        },
        &CpalsRun::default(),
    )
    .unwrap();
    assert_bit_identical(&straight, &resumed, "budget-abort resume");
    std::fs::remove_dir_all(&dir).ok();
}

/// Schema v3: a guarded profiled run records guard activity; an
/// unguarded one serializes `"guard": null`.
#[test]
fn profile_records_guard_activity() {
    let _s = serial();
    let tensor = planted();
    let opts = CpalsOptions {
        max_iters: 3,
        profile: true,
        ..base_opts()
    };
    let guard = RunGuard::unarmed();
    let out = try_cp_als(&tensor, &opts, &under_guard(None, &guard)).unwrap();
    let p = out.profile.expect("profiling was enabled");
    let g = p.guard.as_ref().expect("guarded run records a guard row");
    assert!(g.checks > 0, "driver checks were counted");
    assert_eq!(g.trips, 0);
    assert_eq!(g.trip, "");
    let json = p.to_json();
    assert!(json.contains(splatt::probe::PROFILE_SCHEMA));
    assert!(json.contains("\"guard\""), "guard object missing: {json}");
    assert!(json.contains("\"checks\""));

    let out2 = try_cp_als(&tensor, &opts, &CpalsRun::default()).unwrap();
    let p2 = out2.profile.expect("profiling was enabled");
    assert!(p2.guard.is_none());
    assert!(p2.to_json().contains("\"guard\": null"));
}

/// An already-cancelled guard aborts before the first iteration, with
/// the partial model echoing the (resumed or random) initial factors.
#[test]
fn pre_cancelled_guard_aborts_immediately() {
    let _s = serial();
    let tensor = planted();
    let guard = RunGuard::unarmed();
    guard.cancel();
    let ab = expect_aborted(
        try_cp_als(&tensor, &base_opts(), &under_guard(None, &guard)),
        "pre-cancelled",
    );
    assert_eq!(ab.reason, TripReason::Cancelled);
    assert_eq!(ab.iteration, 1, "tripped at the first iteration check");
    assert!(ab.last_checkpoint.is_none());
}

/// Every way of spelling "nothing stops this run" through the one entry
/// point — own or provided team, CSF set built or given, no plan or a
/// plan that never fires, no governance or governance that never trips —
/// is the same run as `cp_als`: same fit history bit for bit.
#[test]
fn every_non_tripping_run_context_matches_cp_als() {
    let _s = serial();
    let tensor = planted();
    let opts = base_opts();
    let clean = cp_als(&tensor, &opts);

    let team = splatt::par::TaskTeam::new(opts.ntasks);
    let quiet_plan = FaultPlan::new(0x51, FaultRates::default());
    let guard = RunGuard::unarmed();
    let unarmed = GuardConfig::default();
    let generous = GuardConfig {
        deadline: Some(Duration::from_secs(300)),
        ..Default::default()
    };
    let set = splatt::core::CsfSet::build(&tensor, opts.csf_alloc, &team, opts.sort_variant);
    let teams = [("own team", None), ("provided team", Some(&team))];
    let csfs = [("built set", None), ("given set", Some(&set))];
    let plans = [("no plan", None), ("zero-rate plan", Some(&quiet_plan))];
    let governances = [
        ("ungoverned", Governance::None),
        ("un-tripped guard", Governance::Guard(&guard)),
        ("un-armed policy", Governance::Policy(&unarmed)),
        ("generous deadline", Governance::Policy(&generous)),
    ];
    for (team_label, team) in teams {
        for (plan_label, faults) in plans {
            for (gov_label, governance) in governances {
                for (csf_label, csf) in csfs {
                    let what = format!("{team_label}, {csf_label}, {plan_label}, {gov_label}");
                    let run = CpalsRun {
                        team,
                        faults,
                        csf,
                        governance,
                    };
                    let out =
                        try_cp_als(&tensor, &opts, &run).unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_bit_identical(&clean, &out, &what);
                }
            }
        }
    }
    assert_eq!(
        quiet_plan.event_count(),
        0,
        "a zero-rate plan injects nothing"
    );
}

/// Release-mode smoke for the ISSUE's overhead bound: a clean guarded
/// MTTKRP must cost < 2% over the unguarded kernel (best-of-5 on the
/// paper's critical routine). Run via the CI governance job:
/// `cargo test --release --test governance -- --ignored`.
#[test]
#[ignore = "perf smoke: run in release mode via the CI governance job"]
fn clean_guard_overhead_is_under_two_percent() {
    let _s = serial();
    // a workload big enough that a 2% MTTKRP delta is far above timer
    // noise (total MTTKRP time per run is well over 100ms)
    let tensor = synth::power_law(&[150, 120, 100], 400_000, 1.5, 3);
    let opts = CpalsOptions {
        rank: 16,
        max_iters: 30,
        tolerance: 0.0,
        ntasks: 2,
        ..Default::default()
    };
    let run = |guarded: bool| -> f64 {
        let out = if guarded {
            try_cp_als(&tensor, &opts, &under_guard(None, &RunGuard::unarmed())).unwrap()
        } else {
            try_cp_als(&tensor, &opts, &CpalsRun::default()).unwrap()
        };
        out.timers.seconds(splatt::par::Routine::Mttkrp)
    };
    // paired rounds: each round runs clean and guarded back to back and
    // records the ratio, so both arms see the same machine state. The
    // best round is the one least polluted by scheduler noise — a true
    // overhead above 2% would push every round's ratio over the bar.
    run(false); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let (clean, guarded) = (run(false), run(true));
        best = best.min(guarded / clean);
        if best <= 1.02 {
            break;
        }
    }
    assert!(
        best <= 1.02,
        "guard overhead {:.2}% exceeds 2% in every paired round",
        (best - 1.0) * 100.0
    );
}
