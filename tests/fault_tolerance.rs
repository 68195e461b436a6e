//! Cross-crate fault-tolerance tests: the recovery invariants the fault
//! harness must uphold.
//!
//! * Any plan made only of recoverable faults converges to the
//!   fault-free fit (the numerics-preserving recoveries — absorbed
//!   delays, rollbacks — are bit-identical; ridge regularization
//!   re-converges within tolerance).
//! * Kill-then-resume via checkpoints reproduces the uninterrupted run
//!   bit for bit.
//! * The profile report lists every injected fault with its recovery.

use splatt::rt::qc;
use splatt::tensor::synth;
use splatt::{
    try_cp_als, Checkpoint, CpalsOptions, CpalsOutput, CpalsRun, FaultPlan, FaultRates, Governance,
    Matrix,
};

fn injecting(plan: &FaultPlan) -> CpalsRun<'_> {
    CpalsRun {
        faults: Some(plan),
        ..Default::default()
    }
}

fn planted() -> splatt::SparseTensor {
    synth::planted_dense(&[18, 15, 12], 3, 0.0, 7).0
}

// Deep-convergence settings: a ridge-recovered Gram corruption leaves the
// factors well off the fixed point, so both runs must be driven all the
// way back down before their fits are comparable at 1e-6.
fn converge_opts() -> CpalsOptions {
    CpalsOptions {
        rank: 3,
        max_iters: 600,
        tolerance: 1e-14,
        ntasks: 2,
        ..Default::default()
    }
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
    assert_eq!(
        a.model
            .lambda
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>(),
        b.model
            .lambda
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>(),
        "{what}: lambda bits"
    );
    for (m, (fa, fb)) in a.model.factors.iter().zip(&b.model.factors).enumerate() {
        assert_eq!(matrix_bits(fa), matrix_bits(fb), "{what}: factor {m} bits");
    }
}

/// The fault-matrix property: random combinations of numerics-preserving
/// fault kinds (absorbed delays, rolled-back NaN poisonings), injected
/// during the first iterations, must reproduce the fault-free run bit
/// for bit — far stronger than a fit tolerance. The
/// remaining recoverable kind (non-SPD Gram, whose ridge recovery
/// legitimately perturbs numerics) is covered by the fixed-seed
/// convergence tests below.
#[test]
fn recoverable_fault_matrix_preserves_converged_fit() {
    let tensor = planted();
    let opts = CpalsOptions {
        rank: 3,
        max_iters: 12,
        tolerance: 0.0,
        ntasks: 2,
        ..Default::default()
    };
    let clean = try_cp_als(&tensor, &opts, &CpalsRun::default()).expect("fault-free run");

    qc::check("recoverable fault matrix", 10, |g| {
        let rates = FaultRates {
            straggler: if g.bool() { g.f64_in(0.1, 0.6) } else { 0.0 },
            nan: if g.bool() { g.f64_in(0.1, 0.4) } else { 0.0 },
            ..Default::default()
        };
        let plan = FaultPlan::new(g.u64(), rates).with_horizon(3);
        let out = try_cp_als(&tensor, &opts, &injecting(&plan))
            .unwrap_or_else(|e| panic!("seed {:#x}: {e}", g.seed()));
        assert!(
            !plan.any_unrecovered(),
            "seed {:#x}: unrecovered events {:?}",
            g.seed(),
            plan.events()
        );
        assert_bit_identical(&clean, &out, &format!("seed {:#x}", g.seed()));
    });
}

/// The ISSUE's acceptance scenario: one seeded plan that injects at
/// least three distinct fault kinds, still within 1e-6 of fault-free.
#[test]
fn three_fault_kinds_at_once_still_converge() {
    let tensor = planted();
    let opts = converge_opts();
    let clean = try_cp_als(&tensor, &opts, &CpalsRun::default()).unwrap();
    let rates = FaultRates {
        straggler: 0.5,
        nonspd: 0.5,
        nan: 0.3,
    };
    // a seed whose first four iterations fire all three kinds
    let plan = FaultPlan::new(0xFA14, rates).with_horizon(4);
    let out = try_cp_als(&tensor, &opts, &injecting(&plan)).expect("plan must recover");
    let kinds: std::collections::HashSet<_> = plan.events().iter().map(|e| e.kind).collect();
    assert!(
        kinds.len() >= 3,
        "expected >= 3 distinct fault kinds, got {kinds:?}"
    );
    assert!(!plan.any_unrecovered());
    assert!(
        (out.fit - clean.fit).abs() < 1e-6,
        "faulted fit {} vs clean {}",
        out.fit,
        clean.fit
    );
}

/// Numerics-preserving recoveries (absorbed delay, rollback) must
/// not change a single bit of the result, not just the converged fit.
#[test]
fn numerics_preserving_recoveries_are_bit_identical() {
    let tensor = planted();
    let opts = CpalsOptions {
        rank: 3,
        max_iters: 12,
        tolerance: 0.0,
        ntasks: 2,
        ..Default::default()
    };
    let clean = try_cp_als(&tensor, &opts, &CpalsRun::default()).unwrap();
    let rates = FaultRates {
        straggler: 0.5,
        nan: 0.4,
        ..Default::default()
    };
    let plan = FaultPlan::new(0xB17, rates).with_horizon(5);
    let out = try_cp_als(&tensor, &opts, &injecting(&plan)).unwrap();
    assert!(plan.event_count() > 0, "plan injected nothing");
    assert_bit_identical(&clean, &out, "numerics-preserving recovery");
}

/// Kill-then-resume: a run cut short at iteration k, resumed from its
/// last checkpoint, must reproduce the uninterrupted run bit for bit.
#[test]
fn resume_from_checkpoint_is_bit_for_bit() {
    let tensor = planted();
    let dir = std::env::temp_dir().join("splatt_ft_resume");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let base = CpalsOptions {
        rank: 4,
        max_iters: 10,
        tolerance: 0.0,
        ntasks: 2,
        ..Default::default()
    };
    let straight = try_cp_als(&tensor, &base, &CpalsRun::default()).unwrap();

    // "crash" after 4 iterations, leaving checkpoints behind
    let killed = try_cp_als(
        &tensor,
        &CpalsOptions {
            max_iters: 4,
            checkpoint_dir: Some(dir.clone()),
            ..base.clone()
        },
        &CpalsRun::default(),
    )
    .unwrap();
    assert_eq!(killed.iterations, 4);
    let latest = Checkpoint::latest_in(&dir)
        .unwrap()
        .expect("checkpoints were written");

    // resume from the latest checkpoint and finish the remaining budget
    let resumed = try_cp_als(
        &tensor,
        &CpalsOptions {
            resume_from: Some(latest),
            ..base.clone()
        },
        &CpalsRun::default(),
    )
    .unwrap();
    assert_eq!(resumed.iterations, straight.iterations);
    assert_bit_identical(&straight, &resumed, "kill-then-resume");
    std::fs::remove_dir_all(&dir).ok();
}

/// Resuming mid-run must also work under fault injection: the one-shot
/// fired-site bookkeeping is keyed on (iteration, site), so a resumed
/// run re-derives exactly the faults the uninterrupted run saw after
/// iteration k, and recoverable ones still converge.
#[test]
fn resume_composes_with_fault_injection() {
    let tensor = planted();
    let dir = std::env::temp_dir().join("splatt_ft_resume_faults");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let opts = converge_opts();
    let clean = try_cp_als(&tensor, &opts, &CpalsRun::default()).unwrap();

    let rates = FaultRates {
        straggler: 0.4,
        nonspd: 0.3,
        ..Default::default()
    };
    let killed = try_cp_als(
        &tensor,
        &CpalsOptions {
            max_iters: 3,
            tolerance: 0.0,
            checkpoint_dir: Some(dir.clone()),
            ..opts.clone()
        },
        &injecting(&FaultPlan::new(0xCAFE, rates).with_horizon(6)),
    )
    .unwrap();
    assert_eq!(killed.iterations, 3);

    let latest = Checkpoint::latest_in(&dir).unwrap().unwrap();
    let plan = FaultPlan::new(0xCAFE, rates).with_horizon(6);
    let resumed = try_cp_als(
        &tensor,
        &CpalsOptions {
            resume_from: Some(latest),
            ..opts.clone()
        },
        &injecting(&plan),
    )
    .unwrap();
    assert!(!plan.any_unrecovered());
    assert!(
        (resumed.fit - clean.fit).abs() < 1e-6,
        "resumed faulted fit {} vs clean {}",
        resumed.fit,
        clean.fit
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The profile report must list every injected fault with its recovery
/// action — the observability half of the fault story.
#[test]
fn profile_report_lists_every_injected_fault() {
    let tensor = planted();
    let opts = CpalsOptions {
        rank: 3,
        max_iters: 8,
        tolerance: 0.0,
        ntasks: 2,
        profile: true,
        ..Default::default()
    };
    let rates = FaultRates {
        straggler: 0.5,
        nan: 0.3,
        nonspd: 0.4,
    };
    let plan = FaultPlan::new(0x0B5, rates).with_horizon(4);
    let out = try_cp_als(&tensor, &opts, &injecting(&plan)).unwrap();
    let report = out.profile.expect("profiling was enabled");
    let events = plan.events();
    assert!(!events.is_empty(), "plan injected nothing");
    assert_eq!(report.faults.len(), events.len());
    for (row, event) in report.faults.iter().zip(&events) {
        assert_eq!(row.kind, event.kind.label());
        assert_eq!(row.iteration, event.iteration);
        assert_eq!(row.site, event.site);
        assert_eq!(row.action, event.action.describe());
    }
    let json = report.to_json();
    assert!(json.contains("\"faults\""), "faults array missing: {json}");
    for event in &events {
        assert!(
            json.contains(&event.site),
            "site {} missing from JSON",
            event.site
        );
    }
}

/// Cancelling a guarded run between modes must leave a valid
/// `ckpt-*.splatt` on disk, and resuming from it must reproduce the
/// uncancelled run bit for bit (ISSUE satellite: cooperative
/// cancellation composes with checkpoint/restart).
#[test]
fn cancel_mid_run_leaves_resumable_checkpoints() {
    let tensor = planted();
    let dir = std::env::temp_dir().join("splatt_ft_cancel");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let base = CpalsOptions {
        rank: 3,
        max_iters: 12,
        tolerance: 0.0,
        ntasks: 2,
        ..Default::default()
    };
    let straight = try_cp_als(&tensor, &base, &CpalsRun::default()).unwrap();

    // the victim run is slowed by stragglers (pure latency, no
    // numerical effect) so the main thread can cancel it mid-flight
    let guard = splatt::RunGuard::unarmed();
    let handle = {
        let tensor = tensor.clone();
        let opts = CpalsOptions {
            checkpoint_dir: Some(dir.clone()),
            ..base.clone()
        };
        let guard = guard.clone();
        std::thread::spawn(move || {
            let plan = FaultPlan::new(
                0xCA9CE1,
                FaultRates {
                    straggler: 1.0,
                    ..Default::default()
                },
            )
            .with_straggler_scale(400);
            let run = CpalsRun {
                governance: Governance::Guard(&guard),
                ..injecting(&plan)
            };
            try_cp_als(&tensor, &opts, &run)
        })
    };

    // wait for at least two durable checkpoints, then pull the plug
    let give_up = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let ckpts = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        if ckpts >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < give_up,
            "run never wrote two checkpoints"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    guard.cancel();

    let err = handle
        .join()
        .expect("guarded run must not panic")
        .expect_err("cancelled run must abort");
    let ab = match err {
        splatt::CpalsError::Aborted(ab) => ab,
        other => panic!("expected Aborted, got {other}"),
    };
    assert_eq!(ab.reason, splatt::TripReason::Cancelled);
    assert!(ab.iteration >= 2, "two checkpoints imply two iterations");
    let latest = ab.last_checkpoint.expect("checkpoints were written");
    assert_eq!(Some(latest.clone()), Checkpoint::latest_in(&dir).unwrap());
    // the checkpoint the abort names is itself readable and coherent
    Checkpoint::read_from(&latest).expect("abort named a valid checkpoint");

    let resumed = try_cp_als(
        &tensor,
        &CpalsOptions {
            resume_from: Some(latest),
            ..base
        },
        &CpalsRun::default(),
    )
    .unwrap();
    assert_bit_identical(&straight, &resumed, "cancel-then-resume");
    std::fs::remove_dir_all(&dir).ok();
}

/// A NaN that is organically present in the input (not injected) must
/// surface as a typed error — with no plan there is nothing to roll
/// back to, and with a plan the bounded rollback budget must stop the
/// identical replays. Either way: never a panic, never a hang.
#[test]
fn organic_nan_surfaces_typed_error() {
    let mut t = splatt::SparseTensor::new(vec![3, 3, 3]);
    t.push(&[0, 0, 0], 1.0);
    t.push(&[1, 1, 1], f64::NAN);
    t.push(&[2, 2, 2], 2.0);
    let opts = CpalsOptions {
        rank: 2,
        max_iters: 3,
        tolerance: 0.0,
        ntasks: 1,
        ..Default::default()
    };
    let err = try_cp_als(&t, &opts, &CpalsRun::default()).expect_err("organic NaN must fail");
    match err {
        splatt::CpalsError::Unrecovered { kind, .. } => {
            assert_eq!(kind, splatt::FaultKind::NanPoison)
        }
        other => panic!("expected Unrecovered, got {other}"),
    }
    // an armed (but never-firing) plan exhausts its rollback budget on
    // the identical replays and surfaces the same typed error
    let plan = FaultPlan::new(0x0A9, FaultRates::default());
    let err = try_cp_als(&t, &opts, &injecting(&plan)).expect_err("organic NaN must fail");
    assert!(matches!(
        err,
        splatt::CpalsError::Unrecovered {
            kind: splatt::FaultKind::NanPoison,
            ..
        }
    ));
}

/// A non-SPD Gramian at every site, at a rank above the smallest mode
/// (so the Gramians are rank-deficient on top of the injection): the
/// run ends with finite factors or a typed `Unrecovered`, never with
/// NaN in the model.
#[test]
fn non_spd_everywhere_above_the_smallest_dim_never_yields_nan() {
    let tensor = synth::power_law(&[12, 9, 4], 300, 1.5, 0xD1);
    for ntasks in [1, 2] {
        let opts = CpalsOptions {
            rank: 6,
            max_iters: 8,
            tolerance: 0.0,
            ntasks,
            ..Default::default()
        };
        let plan = FaultPlan::new(
            0x5D,
            FaultRates {
                nonspd: 1.0,
                ..Default::default()
            },
        );
        match try_cp_als(&tensor, &opts, &injecting(&plan)) {
            Ok(out) => {
                assert!(out.fit.is_finite(), "{ntasks} task(s): fit {}", out.fit);
                assert!(out.model.lambda.iter().all(|l| l.is_finite()));
                for (m, f) in out.model.factors.iter().enumerate() {
                    assert!(
                        f.as_slice().iter().all(|x| x.is_finite()),
                        "{ntasks} task(s): non-finite factor {m}"
                    );
                }
                assert!(plan
                    .events()
                    .iter()
                    .any(|e| e.action.label() == "regularized"));
            }
            Err(splatt::CpalsError::Unrecovered { .. }) => {}
            Err(other) => panic!("{ntasks} task(s): expected a typed Unrecovered, got {other}"),
        }
    }
}
