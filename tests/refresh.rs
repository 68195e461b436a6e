//! Streaming-ingest → online-refresh → serving loopback tests.
//!
//! Three pins, matching the refresh subsystem's contract:
//!
//! 1. **Warm-start parity**: seeding CP-ALS from a converged model
//!    reaches the same fit as the cold run that produced it (gap ≤ 1e-6)
//!    without spending the cold run's iteration budget — across seeds.
//! 2. **Zero-downtime loopback**: while a reader thread hammers a
//!    `ServeEngine` with queries, K ingest→refresh→republish rounds run
//!    to completion with **zero failed and zero stale** queries, each
//!    round bumping the registry version by exactly one. The incremental
//!    merge's total coordinate comparisons stay asymptotically below
//!    what K full re-coalesces would pay — asserted on the probe merge
//!    counters, not wall-clock.
//! 3. **Crash storm**: a refresh round is killed at every injected I/O
//!    op. After every crash the store reopens to a watermark-consistent
//!    state (watermark all-or-nothing, manifest and model artifact never
//!    torn, resident tensor bit-identical to the watermark's clean-merge
//!    oracle) and a clean redo round converges to the same final
//!    watermark.

use splatt::core::refresh::{RefreshEngine, RefreshError, RefreshOptions, REFRESH_MODEL_FILE};
use splatt::faults::IoFaultPlan;
use splatt::serve::{Query, ServeConfig, ServeEngine};
use splatt::store::{encode_delta, Manifest, Wal, WalOptions};
use splatt::tensor::synth::planted_dense;
use splatt::{cp_als, CancelToken, CpalsOptions, SparseTensor};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("splatt_refresh_it_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

type Batch = Vec<(Vec<u32>, f64)>;

/// A planted low-rank tensor's canonical entries split into `k` batches.
fn planted_batches(dims: &[usize], k: usize, seed: u64) -> Vec<Batch> {
    let (tensor, _truth) = planted_dense(dims, 2, 0.0, seed);
    let all = tensor.canonical_entries();
    let per = all.len().div_ceil(k);
    all.chunks(per).map(<[_]>::to_vec).collect()
}

/// Write `batches` as one WAL record each and publish an order-stamped
/// manifest — the state `splatt ingest` leaves behind.
fn ingest(dir: &Path, batches: &[Batch], order: usize) {
    let (mut wal, _recovery) = Wal::open(dir, WalOptions::default()).unwrap();
    for b in batches {
        wal.append(&encode_delta(order, b)).unwrap();
        wal.commit().unwrap();
    }
    let mut manifest = Manifest::load(dir, None).unwrap().unwrap_or_default();
    manifest.set("order", &order.to_string());
    manifest.publish(dir, None).unwrap();
}

fn quick_opts(max_iters: usize) -> RefreshOptions {
    RefreshOptions {
        cpals: CpalsOptions {
            rank: 2,
            max_iters,
            tolerance: 1e-9,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Bit-exact tensor identity (coordinates plus value bit patterns).
fn tensor_bits(t: &SparseTensor) -> (Vec<usize>, Vec<Vec<u32>>, Vec<u64>) {
    let inds = (0..t.order()).map(|m| t.ind(m).to_vec()).collect();
    let vals = t.vals().iter().map(|v| v.to_bits()).collect();
    (t.dims().to_vec(), inds, vals)
}

// ---------------------------------------------------------------------
// 1. Warm-start parity
// ---------------------------------------------------------------------

#[test]
fn warm_start_reaches_cold_fit_within_1e6_across_seeds() {
    for seed in [3u64, 17, 41, 97, 1234] {
        let (tensor, _truth) = planted_dense(&[8, 7, 6], 2, 0.0, seed);
        // Tolerance-stopped so the cold run genuinely converges: with a
        // bare iteration cap the warm run would keep improving past
        // where cold was cut off and the "gap" would measure leftover
        // convergence, not warm-start fidelity.
        let cold_opts = CpalsOptions {
            rank: 2,
            max_iters: 2000,
            tolerance: 1e-7,
            seed,
            ..Default::default()
        };
        let cold = cp_als(&tensor, &cold_opts);
        let warm_opts = CpalsOptions {
            warm_start: Some(cold.model.clone()),
            ..cold_opts.clone()
        };
        let warm = cp_als(&tensor, &warm_opts);
        let gap = (warm.fit - cold.fit).abs();
        assert!(
            gap <= 1e-6,
            "seed {seed}: warm fit {} vs cold fit {} (gap {gap:.3e})",
            warm.fit,
            cold.fit
        );
        assert!(
            warm.iterations <= cold.iterations,
            "seed {seed}: warm start must not need more iterations \
             ({} vs {})",
            warm.iterations,
            cold.iterations
        );
    }
}

// ---------------------------------------------------------------------
// 2. Ingest → refresh → query loopback
// ---------------------------------------------------------------------

#[test]
fn loopback_republish_serves_every_query_and_merges_incrementally() {
    let dir = test_dir("loopback");
    let batches = planted_batches(&[10, 9, 8], 6, 42);
    let rounds = batches.len();
    // Order-stamped empty store; batches stream in during the test.
    let mut manifest = Manifest::default();
    manifest.set("order", "3");
    manifest.publish(&dir, None).unwrap();

    let serve = ServeEngine::start(ServeConfig::default());
    let stop = Arc::new(AtomicBool::new(false));
    let latest = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let stale = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));

    let reader = {
        let serve = serve.clone();
        let (stop, latest) = (stop.clone(), latest.clone());
        let (failed, stale, served) = (failed.clone(), stale.clone(), served.clone());
        std::thread::spawn(move || {
            let cancel = CancelToken::new();
            while !stop.load(Ordering::SeqCst) {
                let floor = latest.load(Ordering::SeqCst);
                if floor == 0 {
                    std::thread::yield_now();
                    continue;
                }
                // Latest-version query: must never fail mid-republish.
                let q = Query::TopK {
                    mode: 0,
                    k: 3,
                    fixed: vec![0, 0],
                };
                match serve.query("live", 0, q, None, &cancel, || false) {
                    Ok(_) => {
                        let v = serve
                            .registry()
                            .get("live", 0)
                            .map(|m| m.version)
                            .unwrap_or(0);
                        if v < floor {
                            stale.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    Err(_) => {
                        failed.fetch_add(1, Ordering::SeqCst);
                    }
                }
                // The version pinned before the republish must stay
                // servable after it (no eviction on republish).
                let q = Query::Entry {
                    coords: vec![0, 0, 0],
                };
                if serve
                    .query("live", floor, q, None, &cancel, || false)
                    .is_err()
                {
                    failed.fetch_add(1, Ordering::SeqCst);
                }
                served.fetch_add(2, Ordering::SeqCst);
            }
        })
    };

    let mut eng = RefreshEngine::open(&dir, None, quick_opts(12)).unwrap();
    let mut incremental_cmp = 0u64;
    let mut full_coalesce_bound = 0u64;
    for (i, batch) in batches.iter().enumerate() {
        ingest(&dir, std::slice::from_ref(batch), 3);
        let out = eng
            .refresh_once()
            .unwrap()
            .expect("each round has one pending record");
        assert_eq!(out.applied, 1);
        assert_eq!(out.watermark, i as u64 + 1);
        let version = serve
            .registry()
            .publish_path("live", &out.model_path)
            .unwrap();
        assert_eq!(
            version,
            i as u64 + 1,
            "each republish must mint exactly the next version"
        );
        latest.store(version, Ordering::SeqCst);

        incremental_cmp += out.merge.compare_ops;
        // What a batch pipeline pays per round: re-coalescing all n
        // resident entries, an n·log2(n) comparison sort.
        let n = out.merge.out_nnz.max(2) as u64;
        full_coalesce_bound += n * (64 - (n - 1).leading_zeros()) as u64;
        // Let the reader overlap with the freshly published version.
        std::thread::sleep(std::time::Duration::from_millis(3));
    }
    stop.store(true, Ordering::SeqCst);
    reader.join().unwrap();

    assert!(
        served.load(Ordering::SeqCst) > 0,
        "the reader must have overlapped the republishes"
    );
    assert_eq!(
        failed.load(Ordering::SeqCst),
        0,
        "no query may fail during republish"
    );
    assert_eq!(
        stale.load(Ordering::SeqCst),
        0,
        "no query may observe a stale latest version"
    );

    // The asymptotic claim, on counters: K incremental merges beat K
    // full re-coalesces with a 2x margin to spare.
    let row = eng.refresh_row();
    assert_eq!(row.merge_compare_ops, incremental_cmp);
    assert_eq!(row.rounds, rounds as u64);
    assert!(
        incremental_cmp * 2 < full_coalesce_bound,
        "incremental merge ({incremental_cmp} comparisons) must undercut \
         {rounds} full coalesces (~{full_coalesce_bound}) by at least 2x"
    );
    // And the refit fit is a real model, warm-started every round.
    assert!(
        row.warm_fit > 0.8,
        "planted rank-2 stream should fit, got {}",
        row.warm_fit
    );

    serve.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Two engines refreshing in one process each count the sorts *their*
/// CSF builds skipped. The merged tensor is strictly sorted in mode
/// order 0,1,2, so a root's sort is skipped exactly when its level
/// order is that order: on ascending dims the shortest-mode root is
/// (0,1,2) and skips once per refit, on descending dims neither root is
/// and nothing skips. When the count was a before/after delta of a
/// process-global counter, the descending engine reported the ascending
/// engine's skips whenever their refits overlapped.
#[test]
fn concurrent_engines_count_only_their_own_skipped_sorts() {
    const ROUNDS: usize = 4;
    let run = |name: &'static str, dims: [usize; 3], go: Arc<std::sync::Barrier>| {
        std::thread::spawn(move || {
            let dir = test_dir(name);
            let batches = planted_batches(&dims, ROUNDS, 7);
            let mut manifest = Manifest::default();
            manifest.set("order", "3");
            manifest.publish(&dir, None).unwrap();
            let mut eng = RefreshEngine::open(&dir, None, quick_opts(25)).unwrap();
            let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
            let mut per_round = Vec::new();
            for batch in &batches {
                wal.append(&encode_delta(3, batch)).unwrap();
                wal.commit().unwrap();
                go.wait(); // both engines refit at the same time
                let before = eng.refresh_row().sorts_skipped;
                eng.refresh_once().unwrap().expect("one pending record");
                per_round.push(eng.refresh_row().sorts_skipped - before);
            }
            std::fs::remove_dir_all(&dir).ok();
            per_round
        })
    };
    let go = Arc::new(std::sync::Barrier::new(2));
    let ascending = run("skips_asc", [6, 7, 8], Arc::clone(&go));
    let descending = run("skips_desc", [8, 7, 6], go);
    assert_eq!(ascending.join().unwrap(), [1; ROUNDS]);
    assert_eq!(descending.join().unwrap(), [0; ROUNDS]);
}

// ---------------------------------------------------------------------
// 3. Crash storm
// ---------------------------------------------------------------------

#[test]
fn crash_storm_recovers_watermark_consistent_with_no_torn_publish() {
    let batches = planted_batches(&[8, 7, 6], 3, 7);
    let setup = |dir: &Path| ingest(dir, &batches, 3);

    // Oracle: clean merge of the first `n` records into a unit-dims base.
    let oracle = |n: usize| {
        let mut t = SparseTensor::new(vec![1; 3]);
        for b in &batches[..n] {
            t.merge_entries(b);
        }
        t
    };

    // Quiet run: count every I/O op one open + refresh round draws.
    let quiet_dir = test_dir("storm_quiet");
    setup(&quiet_dir);
    let quiet = Arc::new(IoFaultPlan::quiet(0xBEEF));
    let opts = |plan: Option<Arc<IoFaultPlan>>| RefreshOptions {
        plan,
        ..quick_opts(3)
    };
    let mut eng = RefreshEngine::open(&quiet_dir, None, opts(Some(quiet.clone()))).unwrap();
    let out = eng.refresh_once().unwrap().expect("records pending");
    let final_watermark = out.watermark;
    assert_eq!(final_watermark, batches.len() as u64);
    let total_ops = quiet.ops_seen();
    assert!(total_ops > 0, "storm needs ops to crash at");
    std::fs::remove_dir_all(&quiet_dir).ok();

    let (mut crashes, mut pre_commit, mut post_commit) = (0u64, 0u64, 0u64);
    for k in 0..total_ops {
        let dir = test_dir(&format!("storm_{k}"));
        setup(&dir);
        let plan = Arc::new(IoFaultPlan::quiet(0xBEEF).with_crash_at_op(k));
        let res = (|| -> Result<_, RefreshError> {
            RefreshEngine::open(&dir, None, opts(Some(plan)))?.refresh_once()
        })();
        match res {
            Err(RefreshError::Store(ref e)) if e.is_crash() => crashes += 1,
            other => panic!("op {k}: expected an injected crash, got {other:?}"),
        }

        // Restart path: a clean reopen must land on a consistent state.
        let mut rec = RefreshEngine::open(&dir, None, opts(None))
            .unwrap_or_else(|e| panic!("op {k}: post-crash reopen failed: {e}"));
        let w = rec.watermark();
        assert!(
            w == 0 || w == final_watermark,
            "op {k}: one round is one commit — watermark must be \
             all-or-nothing, got {w}"
        );
        // No torn manifest: a damaged publish would be a typed error here.
        Manifest::load(&dir, None)
            .unwrap_or_else(|e| panic!("op {k}: crash left a torn manifest: {e}"));
        // No torn model artifact: if the file exists at all it parses.
        let model_path = dir.join(REFRESH_MODEL_FILE);
        if model_path.exists() {
            splatt::core::load_model_path(&model_path)
                .unwrap_or_else(|e| panic!("op {k}: crash left a torn model artifact: {e}"));
        }
        if w == final_watermark {
            post_commit += 1;
            assert!(
                rec.model().is_some(),
                "op {k}: a committed round must leave a loadable model"
            );
        } else {
            pre_commit += 1;
        }
        // Resident tensor is bit-identical to the watermark's oracle.
        assert_eq!(
            tensor_bits(rec.tensor()),
            tensor_bits(&oracle(w as usize)),
            "op {k}: resident tensor diverged from the clean-merge oracle"
        );

        // Redo: one clean round reaches the same final watermark.
        match rec.refresh_once().unwrap() {
            Some(redo) => assert_eq!(redo.watermark, final_watermark, "op {k}"),
            None => assert_eq!(
                w, final_watermark,
                "op {k}: nothing pending only after commit"
            ),
        }
        assert_eq!(rec.watermark(), final_watermark, "op {k}");
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(crashes, total_ops, "every op index must crash exactly once");
    assert!(
        pre_commit > 0 && post_commit > 0,
        "storm must observe crashes on both sides of the commit point \
         (pre {pre_commit}, post {post_commit})"
    );
}
