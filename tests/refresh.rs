//! Streaming-ingest → online-refresh → serving loopback tests.
//!
//! Five pins, matching the refresh subsystem's contract:
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
//! 4. **The engine only reads the log**: bytes a writer has not finished
//!    are left where they are, no file is created, and a round reads the
//!    bytes of its own records however long the log before them.
//! 5. **Simulation against the batch pipeline**: a seeded schedule of
//!    appends, rounds, restarts and crashed rounds, checked after every
//!    committed round against one `merge_entries` per record and a
//!    `cp_als` that sorts the tensor itself — tensor and model bit for
//!    bit, iteration counts equal, and the fit within 1e-12 (the refit
//!    sums ‖X‖² over the resident tree, in tree order).

use splatt::core::refresh::{
    RefreshEngine, RefreshError, RefreshOptions, RefreshOutcome, REFRESH_MODEL_FILE,
};
use splatt::core::{CsfAlloc, KruskalModel};
use splatt::faults::IoFaultPlan;
use splatt::rt::qc;
use splatt::serve::{Query, ServeConfig, ServeEngine};
use splatt::store::{encode_delta, encode_frame, frame_len, Manifest, Wal, WalOptions};
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

/// Two engines refreshing in one process each count the roots *they*
/// handed their solver without sorting: the resident copies advanced by
/// merging, one per representation — 1 a round under `CsfAlloc::One`, 2
/// under `Two` — and none in the round that builds them. When the count
/// was a before/after delta of a process-global counter, an engine
/// reported the other's skips whenever their refits overlapped.
///
/// The last two rounds grow mode 0 past the others, from dims [6, 7, 8]
/// to [10, 7, 8]. The shortest mode is now mode 1, so its representation
/// has a level order no resident copy is in: it is rebuilt by sorting
/// and not counted. Under `Two` the longest mode's representation takes
/// the level order (0, 1, 2) that the shortest's had — that copy is
/// still advanced by merging.
#[test]
fn concurrent_engines_count_only_their_own_skipped_sorts() {
    const ROUNDS: usize = 4;
    let run = |name: &'static str, csf_alloc: CsfAlloc, go: Arc<std::sync::Barrier>| {
        std::thread::spawn(move || {
            let dir = test_dir(name);
            let mut batches = planted_batches(&[6, 7, 8], ROUNDS, 7);
            batches.push(vec![(vec![9, 0, 0], 1.0)]);
            batches.push(vec![(vec![9, 1, 1], 1.0)]);
            let mut manifest = Manifest::default();
            manifest.set("order", "3");
            manifest.publish(&dir, None).unwrap();
            let mut opts = quick_opts(25);
            opts.cpals.csf_alloc = csf_alloc;
            let mut eng = RefreshEngine::open(&dir, None, opts).unwrap();
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
    let one = run("skips_one", CsfAlloc::One, Arc::clone(&go));
    let two = run("skips_two", CsfAlloc::Two, go);
    assert_eq!(one.join().unwrap(), [0, 1, 1, 1, 0, 1]);
    assert_eq!(two.join().unwrap(), [0, 2, 2, 2, 1, 2]);
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

// ---------------------------------------------------------------------
// 4. The engine only reads the log
// ---------------------------------------------------------------------

/// What the engine sees when it looks while the writer is inside
/// `write`: one whole record and most of the next. The writer's restart
/// recovery truncates such a tail; run from a refresh, that cut off a
/// record the writer went on to fsync and acknowledge.
#[test]
fn refresh_leaves_an_unfinished_write_for_the_writer_to_finish() {
    let dir = test_dir("torn_tail");
    let seg = dir.join("wal-000000.log");
    let second = encode_frame(1, &encode_delta(3, &[(vec![1, 2, 3], 2.0)]));
    let mut bytes = encode_frame(0, &encode_delta(3, &[(vec![0, 0, 0], 1.0)]));
    bytes.extend_from_slice(&second[..second.len() - 5]);
    std::fs::write(&seg, &bytes).unwrap();

    let mut eng = RefreshEngine::open(&dir, None, quick_opts(3)).unwrap();
    let out = eng.refresh_once().unwrap().expect("one whole record");
    assert_eq!((out.applied, out.watermark), (1, 1));
    assert_eq!(
        std::fs::read(&seg).unwrap(),
        bytes,
        "the log is the writer's"
    );
    assert!(eng.refresh_once().unwrap().is_none(), "still unfinished");

    // the writer's `write` completes: the next round applies the record
    bytes.extend_from_slice(&second[second.len() - 5..]);
    std::fs::write(&seg, &bytes).unwrap();
    let out = eng.refresh_once().unwrap().expect("the finished record");
    assert_eq!((out.applied, out.watermark), (1, 2));
    assert_eq!(eng.tensor().nnz(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_store_without_a_log_segment_stays_without_one() {
    let dir = test_dir("no_segment");
    let mut manifest = Manifest::default();
    manifest.set("order", "3");
    manifest.publish(&dir, None).unwrap();
    let before: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
    let mut eng = RefreshEngine::open(&dir, None, quick_opts(3)).unwrap();
    assert!(eng.refresh_once().unwrap().is_none());
    let after: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
    assert_eq!(after.len(), before.len(), "a reader creates nothing");
    assert!(!dir.join("wal-000000.log").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// "Flat in log length" as a count: a warm round reads the framed bytes
/// of its own three records whether 10 or 2 000 records precede them.
#[test]
fn a_round_scans_the_bytes_of_its_own_records_only() {
    for preceding in [10u32, 2_000] {
        let dir = test_dir(&format!("scan_{preceding}"));
        let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
        let mut append = |i: u32| -> u64 {
            let payload = encode_delta(3, &[(vec![i % 5, i % 7, i % 3], 1.0 + f64::from(i))]);
            wal.append(&payload).unwrap();
            wal.commit().unwrap();
            frame_len(payload.len()) as u64
        };
        let log: u64 = (0..preceding).map(&mut append).sum();
        let mut eng = RefreshEngine::open(&dir, None, quick_opts(2)).unwrap();
        eng.refresh_once().unwrap().expect("the preceding records");
        assert_eq!(eng.refresh_row().wal_bytes_scanned, log);

        let round: u64 = (preceding..preceding + 3).map(&mut append).sum();
        let out = eng.refresh_once().unwrap().expect("three new records");
        assert_eq!(out.applied, 3);
        assert_eq!(eng.refresh_row().wal_bytes_scanned - log, round);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------
// 5. Simulation against the batch pipeline
// ---------------------------------------------------------------------

fn model_bits(m: &KruskalModel) -> (Vec<u64>, Vec<Vec<u64>>) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let factors = m
        .factors
        .iter()
        .map(|f| (0..f.rows()).flat_map(|i| bits(f.row(i))).collect())
        .collect();
    (bits(&m.lambda), factors)
}

/// The batch pipeline, round by round: one `merge_entries` per record
/// into the base, then a `cp_als` that sorts the tensor and builds its
/// own CSF, warm-started from the model of the round before.
struct Pipeline {
    tensor: SparseTensor,
    model: Option<KruskalModel>,
    /// Fit and iterations of the last refit (0 before the first).
    fit: f64,
    iterations: usize,
    applied: usize,
}

impl Pipeline {
    /// The state after one more round over `records[self.applied..upto]`.
    fn after_round(&self, records: &[Batch], upto: usize, opts: &CpalsOptions) -> Pipeline {
        let mut tensor = self.tensor.clone();
        for record in &records[self.applied..upto] {
            tensor.merge_entries(record);
        }
        let refit = CpalsOptions {
            warm_start: self.model.clone(),
            ..opts.clone()
        };
        let out = cp_als(&tensor, &refit);
        Pipeline {
            tensor,
            model: Some(out.model),
            fit: out.fit,
            iterations: out.iterations,
            applied: upto,
        }
    }

    /// The resident tensor is canonical from `open` on; the pipeline's
    /// becomes so at its first merge.
    fn canonical_tensor(&self) -> SparseTensor {
        let mut t = self.tensor.clone();
        t.merge_entries(&[]);
        t
    }
}

fn simulate(seed: u64) {
    let mut g = qc::Gen::from_seed(seed);
    let dir = test_dir(&format!("sim_{seed}"));
    let order = g.usize_in(3..5);
    let dims: Vec<u32> = (0..order).map(|_| g.range(2..6u32)).collect();
    // one mode may grow as the stream goes on, past every other mode:
    // shortest and longest mode change, and with them the level orders
    let growing = g.bool().then(|| g.usize_in(0..order));
    const VALUES: [f64; 6] = [0.1, -0.1, 0.7, -0.7, 2.5, -0.0];
    let entries = |g: &mut qc::Gen, n: usize, grown: u32| -> Batch {
        (0..n)
            .map(|_| {
                let coord = (0..order)
                    .map(|m| g.range(0..dims[m] + if growing == Some(m) { grown } else { 0 }))
                    .collect();
                (coord, *g.choose(&VALUES))
            })
            .collect()
    };

    let nrecords = g.usize_in(8..24);
    let mut records: Vec<Batch> = (0..nrecords)
        .map(|i| {
            let n = if i == 0 {
                200
            } else {
                *g.choose(&[0, 1, 1, 4, 9, 300])
            };
            entries(&mut g, n, (i as u32 * 2) / 3)
        })
        .collect();
    // one cell set, cancelled to exactly 0.0, and set again later
    let cell: Vec<u32> = dims.iter().map(|d| d - 1).collect();
    let mut at = [0usize; 3].map(|_| g.usize_in(1..nrecords));
    at.sort_unstable();
    for (i, v) in at.into_iter().zip([0.5, -0.5, 0.25]) {
        records[i].push((cell.clone(), v));
    }

    let base = match g.usize_in(0..3) {
        0 => None,
        canonical => {
            let udims = dims.iter().map(|&d| d as usize).collect();
            let mut t = SparseTensor::from_entries(udims, &entries(&mut g, 150, 0));
            if canonical == 1 {
                t.coalesce();
            }
            Some(t)
        }
    };
    let opts = |plan: Option<Arc<IoFaultPlan>>| RefreshOptions {
        cpals: CpalsOptions {
            rank: 2,
            max_iters: 5,
            tolerance: 1e-9,
            csf_alloc: [CsfAlloc::One, CsfAlloc::Two, CsfAlloc::All][seed as usize % 3],
            ..Default::default()
        },
        plan,
        ..Default::default()
    };
    let cpals = opts(None).cpals;

    // the writer, held open across every round and restart
    let (mut wal, _) = Wal::open(&dir, WalOptions::default()).unwrap();
    let mut acked = 0usize;
    let mut append = |upto: usize, acked: &mut usize| {
        for record in &records[*acked..upto] {
            wal.append(&encode_delta(order, record)).unwrap();
            wal.commit().unwrap();
        }
        *acked = upto;
    };
    if base.is_none() {
        if g.bool() {
            let mut manifest = Manifest::default();
            manifest.set("order", &order.to_string());
            manifest.publish(&dir, None).unwrap();
        } else {
            append(1, &mut acked); // the order is the first record's
        }
    }

    let open = |plan| RefreshEngine::open(&dir, base.clone(), opts(plan));
    let mut eng = open(None).unwrap();
    let mut oracle = Pipeline {
        tensor: base
            .clone()
            .unwrap_or_else(|| SparseTensor::new(vec![1; order])),
        model: None,
        fit: 0.0,
        iterations: 0,
        applied: 0,
    };
    // The refit sums ‖X‖² over the resident tree, the pipeline over its
    // tensor: the fits may part in their last bits, the iterations not.
    let check_refit = |out: &RefreshOutcome, oracle: &Pipeline, what: &str| {
        let ctx = format!("seed {seed}, {what} at watermark {}", oracle.applied);
        assert!(
            (out.fit - oracle.fit).abs() <= 1e-12,
            "{ctx}: fit {} vs the pipeline's {}",
            out.fit,
            oracle.fit
        );
        assert_eq!(out.iterations, oracle.iterations, "{ctx}: iterations");
    };
    let check = |eng: &RefreshEngine, oracle: &Pipeline, acked: usize, what: &str| {
        let ctx = format!("seed {seed}, {what} at watermark {}", oracle.applied);
        assert_eq!(eng.watermark(), oracle.applied as u64, "{ctx}");
        assert!(
            eng.watermark() <= acked as u64,
            "{ctx}: past the acknowledged"
        );
        assert_eq!(
            tensor_bits(eng.tensor()),
            tensor_bits(&oracle.canonical_tensor()),
            "{ctx}: tensor"
        );
        assert_eq!(
            eng.model().map(model_bits),
            oracle.model.as_ref().map(model_bits),
            "{ctx}: model"
        );
    };

    let mut rounds = 0;
    while oracle.applied < nrecords {
        match g.usize_in(0..6) {
            0 | 1 => {
                let upto = (acked + g.usize_in(1..5)).min(nrecords);
                append(upto, &mut acked);
            }
            2 | 3 => {
                let out = eng.refresh_once().unwrap();
                assert_eq!(out.is_some(), acked > oracle.applied, "seed {seed}");
                if let Some(out) = out {
                    oracle = oracle.after_round(&records, acked, &cpals);
                    rounds += 1;
                    check(&eng, &oracle, acked, "round");
                    check_refit(&out, &oracle, "round");
                }
            }
            4 => {
                eng = open(None).unwrap();
                check(&eng, &oracle, acked, "reopen");
            }
            _ => {
                // a round in a process that dies at a random I/O op —
                // or past its last one, and then it simply commits
                let k = g.range(0..14u64);
                let plan = Arc::new(IoFaultPlan::quiet(seed).with_crash_at_op(k));
                let (died, committed) = match open(Some(plan)).and_then(|mut e| e.refresh_once()) {
                    Ok(out) => (false, out),
                    Err(RefreshError::Store(e)) if e.is_crash() => (true, None),
                    Err(other) => panic!("seed {seed}, crash at op {k}: {other}"),
                };
                eng = open(None).unwrap();
                let next = oracle.after_round(&records, acked, &cpals);
                let w = eng.watermark() as usize;
                assert!(
                    w == oracle.applied || (w == acked && acked > oracle.applied),
                    "seed {seed}, crash at op {k}: watermark {w} is neither \
                     the old {} nor the new {acked}",
                    oracle.applied
                );
                assert!(died || w == acked, "seed {seed}: a clean round commits");
                if w > oracle.applied {
                    oracle = next;
                    rounds += 1;
                    if let Some(out) = &committed {
                        check_refit(out, &oracle, "round that did not die");
                    }
                } else if oracle.applied > 0
                    && eng.model().map(model_bits) == next.model.as_ref().map(model_bits)
                {
                    // died between the model publish and the commit: the
                    // artifact is the uncommitted round's (complete, and
                    // what the redo warm-starts from)
                    oracle.model = next.model;
                }
                check(&eng, &oracle, acked, "restart after a crash");
            }
        }
    }
    assert!(rounds > 0, "seed {seed}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Seeds the CI runs every time; a seed that ever failed stays here.
#[test]
fn simulated_schedules_match_the_batch_pipeline_bit_for_bit() {
    for seed in [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233] {
        simulate(seed);
    }
}

/// The wider sweep: `cargo test --release --test refresh -- --ignored`.
#[test]
#[ignore = "wider sweep of the simulation; the fixed seeds run in CI"]
fn simulated_schedules_match_the_batch_pipeline_wider_sweep() {
    for seed in 1_000..1_400 {
        simulate(seed);
    }
}
