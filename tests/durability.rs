//! Disk-fault-injected durability tests for the `splatt-store` layer.
//!
//! Three pins, matching the crate's contract:
//!
//! 1. **WAL recovery is byte-exact**: truncating the log at *every*
//!    byte offset of the tail record recovers exactly the maximal
//!    clean prefix of records — never a partial record, never a hole.
//! 2. **Crash storm**: an ingest run is killed at every injected I/O
//!    operation; after each crash, recovery restores at least every
//!    acknowledged batch, the recovered delta merges into the base
//!    tensor bit-identically to a clean-replay oracle, a warm-started
//!    CP-ALS refit is bit-identical to the oracle's refit, and the
//!    refreshed model republishes into a serving [`ModelRegistry`]
//!    while an old pin keeps serving.
//! 3. **Adversarial corruption**: truncated / bit-flipped / padded
//!    framed artifacts (models and checkpoints) always produce a typed
//!    error — never a panic, never a silently wrong parse.
//!
//! The crash storm writes `target/store-recovery-report.json` so CI
//! can upload the recovery evidence as an artifact.

use splatt::faults::IoFaultPlan;
use splatt::rt::qc::{self, Gen};
use splatt::serve::ModelRegistry;
use splatt::store::{
    counters_snapshot, decode_delta, encode_delta, parse_frame_at, Manifest, StoreError, Wal,
    WalOptions,
};
use splatt::{try_cp_als, Checkpoint, CpalsOptions, CpalsRun, KruskalModel, Matrix, SparseTensor};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("splatt_durability_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Fixed tensor dims for the storm; every delta coordinate stays in
/// range so the merged tensor keeps the base's dims (and the warm-start
/// checkpoint stays valid).
const DIMS: [usize; 3] = [9, 7, 5];

fn gen_batch(g: &mut Gen, len: usize) -> Vec<(Vec<u32>, f64)> {
    (0..len)
        .map(|_| {
            let coord = DIMS.iter().map(|&d| g.usize_in(0..d) as u32).collect();
            (coord, g.f64_in(-2.0, 2.0))
        })
        .collect()
}

fn gen_base(g: &mut Gen, nnz: usize) -> SparseTensor {
    let mut t = SparseTensor::new(DIMS.to_vec());
    for (coord, val) in gen_batch(g, nnz) {
        t.push(&coord, val);
    }
    // Canonical entry order up front, so "base with zero deltas merged"
    // and a bare clone of the base are bit-identical tensors.
    t.coalesce();
    t
}

/// Every f64 bit of a model, for exact (not approximate) comparison.
fn model_bits(m: &KruskalModel) -> Vec<u64> {
    let mut bits: Vec<u64> = m.lambda.iter().map(|v| v.to_bits()).collect();
    for f in &m.factors {
        bits.extend(f.as_slice().iter().map(|v| v.to_bits()));
    }
    bits
}

fn tensor_bits(t: &SparseTensor) -> (Vec<usize>, Vec<Vec<u32>>, Vec<u64>) {
    let inds = (0..t.order()).map(|m| t.ind(m).to_vec()).collect();
    let vals = t.vals().iter().map(|v| v.to_bits()).collect();
    (t.dims().to_vec(), inds, vals)
}

/// The ingest sequence the CLI performs, parameterized by a fault plan:
/// append + group-commit one batch at a time, then publish a manifest.
/// Returns how many batches were acknowledged durable before any crash.
fn run_ingest(
    dir: &Path,
    batches: &[Vec<(Vec<u32>, f64)>],
    plan: Option<Arc<IoFaultPlan>>,
) -> (usize, Result<(), StoreError>) {
    let mut acked = 0usize;
    let res = (|| {
        let (mut wal, _recovery) = Wal::open(
            dir,
            WalOptions {
                // Tiny segments so the storm also exercises rotation
                // and multi-segment recovery.
                segment_bytes: 256,
                plan: plan.clone(),
            },
        )?;
        for batch in batches {
            let payload = encode_delta(DIMS.len(), batch);
            wal.append(&payload)?;
            if wal.commit()?.is_some() {
                acked += 1;
            }
        }
        let mut manifest = Manifest::load(dir, plan.as_deref())?.unwrap_or_default();
        if let Some(seq) = wal.acked_seq() {
            manifest.set("acked_seq", &seq.to_string());
        }
        manifest.publish(dir, plan.as_deref())?;
        Ok(())
    })();
    (acked, res)
}

/// Merge the first `n` batches into a clone of `base` (the clean-replay
/// oracle for a recovery that restored `n` records).
fn merged_prefix(base: &SparseTensor, batches: &[Vec<(Vec<u32>, f64)>], n: usize) -> SparseTensor {
    let mut t = base.clone();
    let entries: Vec<(Vec<u32>, f64)> = batches[..n].iter().flatten().cloned().collect();
    t.merge_entries(&entries);
    t
}

#[test]
fn wal_recovery_is_exact_at_every_tail_byte_offset() {
    let dir = test_dir("wal_cut");
    qc::check("wal cut at every tail byte", 6, |g| {
        // Build a WAL of a few individually-committed delta batches.
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let nbatches = g.usize_in(2..5);
        let batches: Vec<Vec<(Vec<u32>, f64)>> = (0..nbatches)
            .map(|_| {
                let len = g.usize_in(1..20);
                gen_batch(g, len)
            })
            .collect();
        let (acked, res) = run_ingest(&dir, &batches, None);
        res.unwrap();
        assert_eq!(acked, nbatches);

        // The ingest uses 256-byte segments, so records spread over
        // several files; the cut sweep targets the *final* segment
        // (recovery's torn-tail domain).
        let mut seg = 0u64;
        while dir.join(format!("wal-{:06}.log", seg + 1)).exists() {
            seg += 1;
        }
        let seg_path = dir.join(format!("wal-{seg:06}.log"));
        let bytes = std::fs::read(&seg_path).unwrap();

        // Frame boundaries within the final segment.
        let mut ends = Vec::new();
        let mut off = 0usize;
        while off < bytes.len() {
            let (_, next) = parse_frame_at(&bytes, off).expect("clean WAL parses");
            ends.push(next);
            off = next;
        }
        let records_before_final_seg = {
            let rec = Wal::recover(&dir, None).unwrap();
            rec.records.len() - ends.len()
        };
        let tail_start = if ends.len() > 1 {
            ends[ends.len() - 2]
        } else {
            0
        };

        // Exhaustive over the tail record, strided over earlier bytes.
        let cuts: Vec<usize> = (0..tail_start)
            .step_by(7)
            .chain(tail_start..bytes.len())
            .collect();
        for cut in cuts {
            std::fs::write(&seg_path, &bytes[..cut]).unwrap();
            let rec = Wal::recover(&dir, None).unwrap();
            let complete_frames = ends.iter().filter(|&&e| e <= cut).count();
            let expect = records_before_final_seg + complete_frames;
            assert_eq!(
                rec.records.len(),
                expect,
                "cut at {cut}/{} recovered {} records, expected {expect}",
                bytes.len(),
                rec.records.len()
            );
            // Recovered records are a contiguous, bit-exact prefix.
            for (i, record) in rec.records.iter().enumerate() {
                assert_eq!(record.seq, i as u64, "sequence hole after cut");
                assert_eq!(
                    record.payload,
                    encode_delta(DIMS.len(), &batches[i]),
                    "record {i} payload altered by recovery"
                );
            }
            // Recovery physically truncated the torn tail: a second
            // recovery is a no-op on an already-clean log.
            let again = Wal::recover(&dir, None).unwrap();
            assert_eq!(again.records.len(), expect);
            assert_eq!(again.truncated_bytes, 0, "recovery must be idempotent");
            // Restore the full segment for the next cut.
            std::fs::write(&seg_path, &bytes).unwrap();
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_storm_recovery_is_lossless_and_refit_matches_clean_oracle() {
    let mut g = Gen::from_seed(0xD15C0D);
    let base = gen_base(&mut g, 60);
    let batches: Vec<Vec<(Vec<u32>, f64)>> = (0..4).map(|_| gen_batch(&mut g, 12)).collect();

    // Warm-start source: a short checkpointed run on the base tensor.
    let ck_dir = test_dir("storm_ck");
    let seed_opts = CpalsOptions {
        rank: 3,
        max_iters: 2,
        tolerance: 0.0,
        ntasks: 1,
        checkpoint_dir: Some(ck_dir.clone()),
        ..Default::default()
    };
    try_cp_als(&base, &seed_opts, &CpalsRun::default()).unwrap();
    let ck_path = Checkpoint::latest_in(&ck_dir)
        .unwrap()
        .expect("checkpoint written");
    let refit_opts = CpalsOptions {
        rank: 3,
        max_iters: 4,
        tolerance: 0.0,
        ntasks: 1,
        resume_from: Some(ck_path),
        ..Default::default()
    };
    let refit = |t: &SparseTensor| {
        try_cp_als(t, &refit_opts, &CpalsRun::default())
            .unwrap()
            .model
    };

    // Quiet run: count the I/O ops the full ingest performs.
    let quiet = Arc::new(IoFaultPlan::quiet(0xD15C));
    let quiet_dir = test_dir("storm_quiet");
    let (acked, res) = run_ingest(&quiet_dir, &batches, Some(quiet.clone()));
    res.unwrap();
    assert_eq!(acked, batches.len());
    let total_ops = quiet.ops_seen();
    assert!(
        total_ops > 8,
        "storm needs ops to crash at, saw {total_ops}"
    );
    std::fs::remove_dir_all(&quiet_dir).ok();

    // Clean-replay oracles: for every possible recovered prefix length,
    // replay that prefix through a fresh WAL and refit from it.
    let mut oracle_bits: Vec<Vec<u64>> = Vec::new();
    for n in 0..=batches.len() {
        let oracle_dir = test_dir(&format!("storm_oracle_{n}"));
        let (a, r) = run_ingest(&oracle_dir, &batches[..n], None);
        r.unwrap();
        assert_eq!(a, n);
        let rec = Wal::recover(&oracle_dir, None).unwrap();
        let mut merged = base.clone();
        for record in &rec.records {
            let (_, entries) = decode_delta(&record.payload).unwrap();
            merged.merge_entries(&entries);
        }
        let direct = merged_prefix(&base, &batches, n);
        assert_eq!(
            tensor_bits(&merged),
            tensor_bits(&direct),
            "clean replay of {n} batches diverged from a direct merge"
        );
        oracle_bits.push(model_bits(&refit(&merged)));
        std::fs::remove_dir_all(&oracle_dir).ok();
    }

    // The storm: crash the ingest at every injected I/O op.
    let mut crashes = 0u64;
    let mut refits_verified = vec![false; batches.len() + 1];
    let mut min_recovered = usize::MAX;
    for k in 0..total_ops {
        let dir = test_dir(&format!("storm_{k}"));
        let plan = Arc::new(IoFaultPlan::quiet(0xD15C).with_crash_at_op(k));
        let (acked, res) = run_ingest(&dir, &batches, Some(plan));
        assert!(res.is_err(), "crash scheduled at op {k} must fire");
        assert!(
            matches!(res, Err(ref e) if e.is_crash()),
            "op {k}: expected a crash, got {res:?}"
        );
        crashes += 1;

        // Post-crash recovery with no faults: the restart path.
        let rec = Wal::recover(&dir, None).unwrap();
        let recovered = rec.records.len();
        assert!(
            recovered >= acked,
            "op {k}: {acked} batches were acknowledged durable but only \
             {recovered} recovered — durability violated"
        );
        assert!(recovered <= batches.len());
        min_recovered = min_recovered.min(recovered);
        let mut merged = base.clone();
        for (i, record) in rec.records.iter().enumerate() {
            assert_eq!(record.seq, i as u64, "op {k}: recovery left a hole");
            assert_eq!(
                record.payload,
                encode_delta(DIMS.len(), &batches[i]),
                "op {k}: recovered record {i} is not the batch that was appended"
            );
            let (order, entries) = decode_delta(&record.payload).unwrap();
            assert_eq!(order, DIMS.len());
            merged.merge_entries(&entries);
        }
        assert_eq!(
            tensor_bits(&merged),
            tensor_bits(&merged_prefix(&base, &batches, recovered)),
            "op {k}: recovered merge diverged from the clean oracle"
        );

        // The manifest is atomically published: a crash anywhere leaves
        // it absent, fully old, or fully new — never torn.
        let manifest = Manifest::load(&dir, None)
            .unwrap_or_else(|e| panic!("op {k}: crash left a torn manifest: {e}"));
        if let Some(m) = manifest {
            if let Some(s) = m.get("acked_seq") {
                let manifest_acked: usize = s.parse::<usize>().unwrap() + 1;
                assert!(
                    recovered >= manifest_acked,
                    "op {k}: manifest promises seq {s} but only {recovered} recovered"
                );
            }
        }

        // Warm-started refit on the recovered tensor must be
        // bit-identical to the clean-replay oracle's refit (checked
        // once per distinct prefix length — the tensors are already
        // proven bit-identical above).
        if !refits_verified[recovered] {
            assert_eq!(
                model_bits(&refit(&merged)),
                oracle_bits[recovered],
                "op {k}: warm-started refit diverged from the clean oracle"
            );
            refits_verified[recovered] = true;
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(crashes, total_ops);
    assert!(
        refits_verified[batches.len()],
        "no crash point left the full ingest recoverable"
    );
    assert_eq!(min_recovered, 0, "op 0 crashes before anything is durable");

    // The refreshed model republishes into the serving registry while
    // an old pin keeps serving (queries are never blocked on a reload).
    let full = merged_prefix(&base, &batches, batches.len());
    let serve_dir = test_dir("storm_serve");
    let model_path = serve_dir.join("model.splatt");
    let registry = ModelRegistry::new();
    splatt::core::save_model_path(&refit(&base), &model_path, 1).unwrap();
    assert_eq!(registry.publish_path("m", &model_path).unwrap(), 1);
    let pinned = registry.get("m", 1).unwrap();
    splatt::core::save_model_path(&refit(&full), &model_path, 2).unwrap();
    assert_eq!(registry.publish_path("m", &model_path).unwrap(), 2);
    assert_eq!(registry.get("m", 0).unwrap().version, 2);
    assert_eq!(
        model_bits(&registry.get("m", 0).unwrap().model),
        oracle_bits[batches.len()],
        "republished model is not the recovered refit"
    );
    assert_eq!(
        model_bits(&pinned.model),
        model_bits(&refit(&base)),
        "republish must not disturb an in-flight pin"
    );
    std::fs::remove_dir_all(&serve_dir).ok();
    std::fs::remove_dir_all(&ck_dir).ok();

    // Evidence artifact for CI.
    let c = counters_snapshot();
    let report = format!(
        "{{\n  \"schema\": \"splatt-recovery-report-v1\",\n  \
         \"crash_points_tested\": {total_ops},\n  \
         \"crashes_observed\": {crashes},\n  \
         \"batches\": {},\n  \
         \"refit_prefixes_verified\": {},\n  \
         \"wal_appends\": {},\n  \"wal_commits\": {},\n  \"fsyncs\": {},\n  \
         \"atomic_publishes\": {},\n  \"segments_rotated\": {},\n  \
         \"recoveries\": {},\n  \"records_recovered\": {},\n  \
         \"torn_bytes_truncated\": {},\n  \"checksum_failures\": {}\n}}\n",
        batches.len(),
        refits_verified.iter().filter(|&&v| v).count(),
        c.wal_appends,
        c.wal_commits,
        c.fsyncs,
        c.atomic_publishes,
        c.segments_rotated,
        c.recoveries,
        c.records_recovered,
        c.torn_bytes_truncated,
        c.checksum_failures
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/store-recovery-report.json");
    std::fs::write(&out, report).unwrap();
}

#[test]
fn corrupted_artifacts_error_typed_and_never_parse_wrong() {
    let dir = test_dir("adversarial");
    qc::check("corrupt framed artifacts", 48, |g| {
        let model = KruskalModel {
            lambda: vec![g.f64_in(0.5, 3.0), g.f64_in(0.5, 3.0)],
            factors: vec![Matrix::random(4, 2, g.u64()), Matrix::random(3, 2, g.u64())],
        };
        let model_path = dir.join("model.splatt");
        splatt::core::save_model_path(&model, &model_path, 1).unwrap();
        let clean = std::fs::read(&model_path).unwrap();

        let mut bytes = clean.clone();
        match g.usize_in(0..3) {
            0 => bytes.truncate(g.usize_in(0..bytes.len())),
            1 => {
                let bit = g.usize_in(0..bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            _ => bytes.extend((0..g.usize_in(1..16)).map(|_| g.u64() as u8)),
        }
        std::fs::write(&model_path, &bytes).unwrap();
        match splatt::core::load_model_path(&model_path) {
            // Typed error: corruption detected. Never a panic.
            Err(_) => {}
            // The only acceptable Ok is a parse of bit-identical
            // content — "silently wrong" is the one forbidden outcome.
            Ok(parsed) => assert_eq!(
                model_bits(&parsed),
                model_bits(&model),
                "corrupted model file parsed to different content"
            ),
        }

        // Same contract for checkpoints.
        let ck = Checkpoint {
            iteration: 1,
            lambda: model.lambda.clone(),
            fits: vec![0.5],
            factors: model.factors.clone(),
        };
        let ck_path = ck.write_to_dir(&dir).unwrap();
        let clean_ck = std::fs::read(&ck_path).unwrap();
        let mut ck_bytes = clean_ck.clone();
        match g.usize_in(0..3) {
            0 => ck_bytes.truncate(g.usize_in(0..ck_bytes.len())),
            1 => {
                let bit = g.usize_in(0..ck_bytes.len() * 8);
                ck_bytes[bit / 8] ^= 1 << (bit % 8);
            }
            _ => ck_bytes.extend((0..g.usize_in(1..16)).map(|_| g.u64() as u8)),
        }
        std::fs::write(&ck_path, &ck_bytes).unwrap();
        match Checkpoint::read_from(&ck_path) {
            Err(_) => {}
            Ok(parsed) => assert_eq!(parsed, ck, "corrupted checkpoint parsed differently"),
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}
