//! `refresh_stream`: delta records into the WAL, then warm refresh rounds.
//!
//! The only workload where `splatt-store` and
//! `SparseTensor::merge_entries` do most of the work, and where CP-ALS
//! runs the other way round from `cpd_*`: warm start, tolerance stop,
//! CSF rebuilt every round, the rank-16 specialized kernels. It writes
//! (append, commit, publish) beside reads (the `Wal::recover` tail scan
//! of every round).

use super::gen::{self, Entry, Stream, REFRESH_RANK};
use super::{timed_setup, Ctx, Outcome, GATED_TASKS};
use crate::adapter::{
    counters_snapshot, cp_als, decode_delta, encode_delta, publish_artifact, save_model,
    CpalsOptions, KruskalModel, Manifest, RefreshEngine, RefreshOptions, SparseTensor, Wal,
    WalOptions, KEY_REFRESH_MODEL, KEY_REFRESH_ROUND, KEY_REFRESH_SEQ, REFRESH_MODEL_FILE,
};
use crate::env::{thread_cpu_s, OneCpu};
use crate::stats::{median, quiet_rate, quiet_time};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Fit the refreshed model must reach once every record is in.
const FINAL_FIT_FLOOR: f64 = 0.95;
/// Ingest passes a run makes at least, however little time is left.
const INGEST_MIN_PASSES: usize = 5;
/// Ingest passes of a traced run (its end-to-end numbers are not the gate).
const TRACED_INGEST_PASSES: usize = 2;
/// `Wal::recover` scans of the full ingest log behind `store.recover_ms`.
const RECOVER_REPS: usize = 3;
const ORDER: usize = 3;

fn engine_options(ctx: &Ctx) -> RefreshOptions {
    RefreshOptions {
        cpals: refit_options(ctx),
        ..RefreshOptions::default()
    }
}

fn refit_options(ctx: &Ctx) -> CpalsOptions {
    CpalsOptions {
        rank: REFRESH_RANK,
        max_iters: 50,
        tolerance: 1e-4,
        ntasks: GATED_TASKS,
        seed: ctx.seed,
        ..CpalsOptions::default()
    }
}

/// A directory under the scratch root, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(ctx: &Ctx, tag: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = ctx
            .scratch
            .join(format!("refresh-{}-{tag}-{n}", std::process::id()));
        // a stale directory of a killed run with our pid must not leak in
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Append one record and commit it; `true` when the commit acknowledged
/// exactly that record as durable.
fn append_acked(wal: &mut Wal, payload: &[u8]) -> bool {
    match wal.append(payload) {
        Ok(seq) => matches!(wal.commit(), Ok(Some(acked)) if acked == seq),
        Err(_) => false,
    }
}

/// What the repeated set-up leaves for the timed phases.
struct Ready {
    stream: Stream,
    dir: ScratchDir,
    wal: Wal,
    engine: RefreshEngine,
    cold_round_s: f64,
    cold_ok: bool,
}

/// Generate the stream, open a store on the base tensor, and run the
/// cold round (an empty delta record, so the refit starts from random
/// factors on the base alone).
fn setup(ctx: &Ctx) -> Ready {
    let stream = gen::refresh_stream(ctx.seed, ctx.quick);
    let dir = ScratchDir::new(ctx, "store");
    let (mut wal, _) = Wal::open(dir.path(), WalOptions::default()).expect("open the WAL");
    let mut engine =
        RefreshEngine::open(dir.path(), Some(stream.base.clone()), engine_options(ctx))
            .expect("open the refresh engine");
    let mut cold_ok = append_acked(&mut wal, &encode_delta(ORDER, &[]));
    let start = Instant::now();
    cold_ok &= matches!(engine.refresh_once(), Ok(Some(_)));
    Ready {
        stream,
        dir,
        wal,
        engine,
        cold_round_s: start.elapsed().as_secs_f64(),
        cold_ok,
    }
}

fn same_tensor(a: &SparseTensor, b: &SparseTensor) -> bool {
    a.dims() == b.dims()
        && (0..a.order()).all(|m| a.ind(m) == b.ind(m))
        && a.vals().len() == b.vals().len()
        && a.vals()
            .iter()
            .zip(b.vals())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What one ingest pass achieved.
struct IngestPass {
    /// Entries acknowledged durable per second of this thread's CPU time.
    per_cpu_s: f64,
    /// The same per second of wall time: on a disk, mostly the device.
    per_wall_s: f64,
    /// Commits that did not acknowledge their record.
    unacked: u64,
}

/// One ingest pass: every record of the stream through
/// `encode_delta -> Wal::append -> Wal::commit` into a fresh WAL.
fn ingest_pass(ctx: &Ctx, records: &[Vec<Entry>]) -> IngestPass {
    let dir = ScratchDir::new(ctx, "ingest");
    let (wall, cpu) = (Instant::now(), thread_cpu_s());
    let (mut wal, _) = Wal::open(dir.path(), WalOptions::default()).expect("open the WAL");
    let (mut acked_entries, mut unacked) = (0usize, 0u64);
    for record in records {
        if append_acked(&mut wal, &encode_delta(ORDER, record)) {
            acked_entries += record.len();
        } else {
            unacked += 1;
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();
    // where the platform has no thread CPU clock, wall time stands in
    let cpu_s = match (cpu, thread_cpu_s()) {
        (Some(before), Some(after)) if after > before => after - before,
        _ => wall_s,
    };
    IngestPass {
        per_cpu_s: acked_entries as f64 / cpu_s,
        per_wall_s: acked_entries as f64 / wall_s,
        unacked,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx.traced);
    let confined = OneCpu::confine();
    out.note_confinement(&confined);
    let (ready, setup_s) = timed_setup(|| setup(ctx));
    out.metrics.set("setup_s", setup_s);
    let Ready {
        stream,
        dir,
        mut wal,
        mut engine,
        cold_round_s,
        cold_ok,
    } = ready;
    let shape = stream.shape;
    let per_round = shape.delta_records / shape.rounds;
    out.note("dims", format!("{:?}", shape.dims));
    out.note("records", stream.records.len());
    out.note("delta_records", shape.delta_records);
    out.note("rounds", shape.rounds);
    out.note("rank", REFRESH_RANK);
    out.note("ntasks", GATED_TASKS);
    out.note("input_hash", format!("{:016x}", stream.hash()));
    out.attempted += 2;
    out.check("cold_round_published", cold_ok, String::new());

    // The traced pass shadows the engine round by round on a second
    // store, so both meet the same minutes of the shared host.
    let mut shadow = out
        .trace
        .as_mut()
        .map(|tr| Shadow::open(ctx, &stream.base, tr));

    // ---- gated phase 1: warm refresh rounds (engine, untraced) ----
    let phase = Instant::now();
    let mut round_s = Vec::with_capacity(shape.rounds);
    let mut round_nnz = Vec::with_capacity(shape.rounds);
    let (mut engine_iters, mut final_fit) = (0usize, 0.0);
    for round in stream.deltas().chunks(per_round) {
        for record in round {
            out.attempted += 1;
            out.failed += u64::from(!append_acked(&mut wal, &encode_delta(ORDER, record)));
        }
        out.attempted += 1;
        let start = Instant::now();
        let outcome = engine.refresh_once();
        round_s.push(start.elapsed().as_secs_f64());
        round_nnz.push(engine.tensor().nnz() as f64);
        match outcome {
            Ok(Some(o)) if o.applied == per_round as u64 => {
                engine_iters += o.iterations;
                final_fit = o.fit;
            }
            _ => out.failed += 1,
        }
        if let (Some(shadow), Some(tr)) = (shadow.as_mut(), out.trace.as_mut()) {
            shadow.round(round, tr);
        }
    }
    // The tensor grows by a quarter over the rounds and a round's cost
    // with it, so each round is first scaled to the mean tensor size: the
    // quiet decile then picks a quiet round, not an early one.
    let mean_nnz = round_nnz.iter().sum::<f64>() / round_nnz.len() as f64;
    let scaled_s: Vec<f64> = round_s
        .iter()
        .zip(&round_nnz)
        .map(|(s, nnz)| s * mean_nnz / nnz)
        .collect();
    out.metrics.set("op_ms", quiet_time(&scaled_s) * 1e3);

    // ---- gated phase 2: ingest passes for the time that is left ----
    let (min_passes, budget) = if ctx.traced {
        (TRACED_INGEST_PASSES, 0.0)
    } else {
        (INGEST_MIN_PASSES, ctx.seconds)
    };
    // Gated on CPU time, not wall time: on the checkout's disk a pass is
    // nine tenths `fsync` wait, and the device's mood moved the wall rate
    // 40 % between identical runs (2.3-3.9M nnz/s). What the program can
    // change is the CPU it spends per entry; the wall rate stays as the
    // diagnostic `store.ingest_wall_nnz_per_s`.
    let (mut ingest_per_cpu_s, mut ingest_per_wall_s) = (Vec::new(), Vec::new());
    while ingest_per_cpu_s.len() < min_passes || phase.elapsed().as_secs_f64() < budget {
        let pass = ingest_pass(ctx, &stream.records);
        out.attempted += stream.records.len() as u64;
        out.failed += pass.unacked;
        ingest_per_cpu_s.push(pass.per_cpu_s);
        ingest_per_wall_s.push(pass.per_wall_s);
    }
    out.metrics.set("work_per_s", quiet_rate(&ingest_per_cpu_s));
    if ctx.traced {
        out.metrics.set(
            "store.ingest_wall_nnz_per_s",
            quiet_rate(&ingest_per_wall_s),
        );
    }
    out.note("round_s", format!("{round_s:?}"));
    out.note("ingest_per_cpu_s", format!("{ingest_per_cpu_s:?}"));
    out.note("ingest_per_wall_s", format!("{ingest_per_wall_s:?}"));
    out.note("final_fit", final_fit);

    // ---- output checks ----
    let mut clean = stream.base.clone();
    clean.merge_entries(&stream.deltas().concat());
    out.check(
        "final_tensor_equals_clean_replay",
        same_tensor(engine.tensor(), &clean),
        format!(
            "engine nnz {} vs replay nnz {}",
            engine.tensor().nnz(),
            clean.nnz()
        ),
    );
    out.check(
        "final_fit_reaches_floor",
        final_fit >= FINAL_FIT_FLOOR,
        format!("fit {final_fit} vs floor {FINAL_FIT_FLOOR}"),
    );

    if let Some(shadow) = shadow {
        out.metrics.set("refresh.cold_round_s", cold_round_s);
        shadow.report(&clean, round_s.iter().sum(), engine_iters, &mut out);
        // restart: open the final store from its base again
        drop(engine);
        drop(wal);
        let (base, options) = (stream.base.clone(), engine_options(ctx));
        let tr = out.trace.as_mut().expect("traced pass has a tracer");
        let reopened = tr.time("refresh.open", || {
            RefreshEngine::open(dir.path(), Some(base), options)
        });
        let open_s = tr.durations_s("refresh.open")[0];
        out.metrics.set("refresh.open_s", open_s);
        out.attempted += 1;
        out.check(
            "reopened_tensor_equals_clean_replay",
            reopened.is_ok_and(|e| same_tensor(e.tensor(), &clean)),
            String::new(),
        );
        traced_store(ctx, &stream, &mut out);
    }
    out
}

/// The five calls a round is made of, as span names under `round`.
const PARTS: [&str; 5] = [
    "round.recover",
    "round.decode",
    "round.merge",
    "round.refit",
    "round.publish",
];

/// The engine's round on the harness side, on a second store: recover,
/// decode, merge, warm refit, publish model, publish manifest — one span
/// per call, and the same tensor at the end.
struct Shadow {
    dir: ScratchDir,
    wal: Wal,
    opts: CpalsOptions,
    tensor: SparseTensor,
    model: Option<KruskalModel>,
    watermark: u64,
    rounds: u64,
    unacked: u64,
    compare_ops: u64,
    iters: usize,
    /// Seconds in each of [`PARTS`], per warm round.
    parts_s: Vec<[f64; 5]>,
}

impl Shadow {
    /// Open the second store and run the cold round (an empty record),
    /// as the set-up does on the engine's.
    fn open(ctx: &Ctx, base: &SparseTensor, tr: &mut Tracer) -> Shadow {
        let dir = ScratchDir::new(ctx, "shadow");
        let (wal, _) = Wal::open(dir.path(), WalOptions::default()).expect("open the WAL");
        let mut shadow = Shadow {
            dir,
            wal,
            opts: refit_options(ctx),
            tensor: base.clone(),
            model: None,
            watermark: 0,
            rounds: 0,
            unacked: 0,
            compare_ops: 0,
            iters: 0,
            parts_s: Vec::new(),
        };
        shadow.round(&[Vec::new()], tr);
        shadow
    }

    fn round(&mut self, records: &[Vec<Entry>], tr: &mut Tracer) {
        for record in records {
            self.unacked += u64::from(!append_acked(&mut self.wal, &encode_delta(ORDER, record)));
        }
        let dir = self.dir.path();
        let span = tr.enter("round");
        let recovery = tr
            .time("round.recover", || Wal::recover(dir, None))
            .expect("recover the shadow store");
        let applied_below = self.watermark;
        for rec in recovery.records.iter().filter(|r| r.seq >= applied_below) {
            let (_, entries) = tr
                .time("round.decode", || decode_delta(&rec.payload))
                .expect("decode our own record");
            self.compare_ops += tr
                .time("round.merge", || self.tensor.merge_entries(&entries))
                .compare_ops;
            self.watermark = rec.seq + 1;
        }
        let refit = tr.time("round.refit", || {
            cp_als(
                &self.tensor,
                &CpalsOptions {
                    warm_start: self.model.take(),
                    ..self.opts.clone()
                },
            )
        });
        self.rounds += 1;
        tr.time("round.publish", || {
            let mut payload = Vec::new();
            save_model(&refit.model, &mut payload).expect("serialize the model");
            publish_artifact(&dir.join(REFRESH_MODEL_FILE), self.rounds, &payload, None)
                .expect("publish the model artifact");
            let mut manifest = Manifest::load(dir, None)
                .expect("load the manifest")
                .unwrap_or_default();
            manifest.set("order", &ORDER.to_string());
            manifest.set(KEY_REFRESH_SEQ, &self.watermark.to_string());
            manifest.set(KEY_REFRESH_MODEL, REFRESH_MODEL_FILE);
            manifest.set(KEY_REFRESH_ROUND, &self.rounds.to_string());
            manifest.publish(dir, None).expect("publish the manifest");
        });
        tr.exit(span);
        self.model = Some(refit.model);
        // the first round is the cold one: not part of the warm numbers
        if self.rounds > 1 {
            self.iters += refit.iterations;
            self.parts_s
                .push(PARTS.map(|name| tr.child_total_s(span, name)));
        }
    }

    fn report(
        self,
        clean: &SparseTensor,
        engine_total_s: f64,
        engine_iters: usize,
        out: &mut Outcome,
    ) {
        let column = |i: usize| -> Vec<f64> { self.parts_s.iter().map(|r| r[i]).collect() };
        let layers_s: f64 = self.parts_s.iter().flatten().sum();
        let tr = out.trace.as_ref().expect("traced pass has a tracer");
        // warm rounds only: the cold round's span is the first "round"
        let rounds_s: f64 = tr.durations_s("round")[1..].iter().sum();
        let m = &mut out.metrics;
        m.set("tensor.merge_s", median(&column(2)));
        m.set("tensor.merge_compare_ops", self.compare_ops as f64);
        m.set("store.publish_ms", median(&column(4)) * 1e3);
        m.set("refresh.refit_s", median(&column(3)));
        m.set("refresh.refit_iters", self.iters as f64);
        // what `refresh_once` spends outside the five timed calls (its
        // working copy of the tensor, governance, bookkeeping)
        m.set(
            "refresh.unattributed_share",
            (engine_total_s - layers_s) / engine_total_s,
        );
        m.set("trace_overhead_share", rounds_s / engine_total_s - 1.0);
        out.attempted += self.rounds;
        out.failed += self.unacked;
        out.check(
            "traced_tensor_equals_clean_replay",
            same_tensor(&self.tensor, clean),
            format!(
                "harness nnz {} vs replay nnz {}",
                self.tensor.nnz(),
                clean.nnz()
            ),
        );
        out.check(
            "traced_refit_iterations_equal_engine",
            self.iters == engine_iters,
            format!("harness {} vs engine {engine_iters}", self.iters),
        );
    }
}

/// The store layer on its own: the whole stream as one ingest log.
fn traced_store(ctx: &Ctx, stream: &Stream, out: &mut Outcome) {
    let tr = out.trace.as_mut().expect("traced pass has a tracer");
    let dir = ScratchDir::new(ctx, "log");
    let nnz = stream.nnz() as f64;
    let payloads: Vec<Vec<u8>> = stream
        .records
        .iter()
        .map(|r| tr.time("log.encode", || encode_delta(ORDER, r)))
        .collect();
    let (mut wal, _) = Wal::open(dir.path(), WalOptions::default()).expect("open the WAL");
    let before = counters_snapshot();
    let mut failed = 0u64;
    for payload in &payloads {
        failed += u64::from(!tr.time("log.append_commit", || append_acked(&mut wal, payload)));
    }
    let after = counters_snapshot();
    drop(wal);
    let wal_bytes: u64 = std::fs::read_dir(dir.path())
        .expect("list the WAL directory")
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    let mut recovered = None;
    for _ in 0..RECOVER_REPS {
        recovered = Some(
            tr.time("log.recover", || Wal::recover(dir.path(), None))
                .expect("recover the ingest log"),
        );
    }
    let recovered = recovered.expect("RECOVER_REPS is positive");
    let mut decoded = 0usize;
    for rec in &recovered.records {
        decoded += tr
            .time("log.decode", || decode_delta(&rec.payload))
            .map_or(0, |(_, entries)| entries.len());
    }

    let sum = |name: &str| tr.durations_s(name).iter().sum::<f64>();
    let commits = after.wal_commits - before.wal_commits;
    let m = &mut out.metrics;
    m.set("store.encode_ns_per_nnz", sum("log.encode") * 1e9 / nnz);
    m.set(
        "store.append_commit_us",
        median(&tr.durations_s("log.append_commit")) * 1e6,
    );
    m.set(
        "store.fsyncs_per_commit",
        (after.fsyncs - before.fsyncs) as f64 / commits.max(1) as f64,
    );
    m.set("store.wal_bytes_per_nnz", wal_bytes as f64 / nnz);
    m.set(
        "store.recover_ms",
        median(&tr.durations_s("log.recover")) * 1e3,
    );
    m.set("store.decode_ns_per_nnz", sum("log.decode") * 1e9 / nnz);
    out.attempted += payloads.len() as u64;
    out.failed += failed;
    out.check(
        "ingest_log_round_trips",
        decoded == stream.nnz() && commits == payloads.len() as u64,
        format!(
            "{decoded} of {} entries decoded, {commits} commits",
            stream.nnz()
        ),
    );
}
