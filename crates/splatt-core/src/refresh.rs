//! Online CP refresh: stream the ingest WAL into a living model.
//!
//! The batch pipeline the workspace grew up with — `ingest` appends
//! delta batches to the WAL, `recover` replays the whole log, `cpd`
//! sorts the tensor and refits from random factors — pays for the whole
//! tensor and the whole log every time a few records arrive.
//! [`RefreshEngine`] is the streaming driver whose round costs what the
//! round's *delta* requires: reading it, merging it into each resident
//! CSF, a warm refit and the publish. The trees are the resident tensor:
//! the engine keeps no coordinate copy of it, as SPLATT keeps only the
//! CSF once it is built. Four moves, each giving the tensor and the
//! model the batch pipeline gives, bit for bit:
//!
//! 1. **Tail, don't re-scan** — the engine remembers the
//!    [`WalPosition`] of the first record it has not applied and
//!    [`RefreshEngine::refresh_once`] reads the log from there
//!    ([`Wal::tail`]): the bytes of the new records, however long the
//!    log before them. The committed *watermark* is exclusive: every WAL
//!    sequence **below** it is folded into the state the store manifest
//!    records (sequences start at 0, so watermark `k` means "the first
//!    `k` records are in").
//! 2. **One decode, one sort per tree** — every pending record is
//!    decoded and validated first, straight into one packed batch
//!    ([`DeltaBatch`]: coordinates side by side in one `u32` slab,
//!    values in another, record order), which keeps its memory from
//!    round to round. The batch is sorted once per tree in that tree's
//!    level order, over packed keys in stable radix passes: ties keep
//!    batch order, and a cell accumulates left to right in it — its old
//!    value, then each delta — exactly as [`SparseTensor::merge_entries`]
//!    accumulates it, so one merge of the round's batch is bit-identical
//!    to one merge per record, through cancellations to zero, cells that
//!    reappear later, and `-0.0`. [`RefreshEngine::open`] replays the
//!    records below the watermark the same way, into the set it builds
//!    from the base.
//! 3. **The resident CSFs are merged, into recycled slabs** —
//!    `CsfSet::merge_into` reads the sorted batch into each resident
//!    tree in one pass ([`Csf`](crate::csf::Csf): untouched sibling runs
//!    copied, missing prefixes inserted, cells accumulated, emptied
//!    fibers dropped), writing every level straight into the slabs of
//!    the set the previous round displaced. That spare grows only with
//!    headroom (an eighth), so a warm round allocates nothing that
//!    scales with the tensor. The result is field for field the set
//!    [`CsfSet::build`] sorts out of the merged tensor, and the solver is
//!    handed it ([`CpalsRun::csf`], no tensor): it reads the dims off the
//!    set and sums ‖X‖² over its first tree in tree order — so the
//!    reported fit may part from the batch pipeline's in its last bits,
//!    while the model and the iteration counts do not. A level order the
//!    engine holds no tree for (dims growth that moves a mode past
//!    another) is built by sorting a merged tree's coordinates, and not
//!    counted in `sorts_skipped`. [`MergeStats::compare_ops`] of the tree
//!    merges (fiber-id comparisons; the radix sort makes none) is the
//!    auditable cost evidence, surfaced in the probe report's `refresh`
//!    row.
//! 4. **Warm-start, don't restart** — the refit seeds
//!    [`CpalsOptions::warm_start`] with the previous model, runs under
//!    the limits of [`RefreshOptions::policy`] (a trip fails the round
//!    with [`RefreshError::Solver`]), and publishes the result with the
//!    atomic artifact protocol.
//!
//! # The engine never writes the log
//!
//! The WAL belongs to its writer. There is no store lock, and ingest and
//! refresh run side by side, so the engine reads with [`Wal::tail`] and
//! with nothing else: bytes at the end of the final segment that do not
//! parse may be a `write` the writer is in the middle of, and the
//! writer's restart recovery — which truncates them — would cut off a
//! record the writer goes on to acknowledge. The engine stops in front
//! of them, leaves them, creates no file, and reads them next round.
//!
//! # Commit protocol (crash safety)
//!
//! A refresh round performs, in order: model artifact publish
//! (`write temp → fsync → rename → fsync dir`), then manifest publish
//! recording the new watermark. The manifest publish is the **commit
//! point**. A crash anywhere before it leaves the old manifest — and
//! thus the old watermark — in place, so a re-opened engine rebuilds
//! the pre-crash tensor and re-applies the same records: the round is
//! idempotent. A crash after the model publish but before the manifest
//! publish leaves a *newer* model artifact than the watermark claims;
//! that is benign (the artifact is complete and checksummed, and the
//! redo round overwrites it atomically). No interleaving leaves a torn
//! model or a watermark ahead of the data it claims.
//!
//! A round only *reads* the resident CSFs — the merges write into the
//! spare — and installs CSFs, model, watermark and log position together
//! after the commit (the resident set and the spare swap places), so a
//! failed round leaves every one of them exactly as it was; it has
//! overwritten only the spare.
//!
//! The whole path threads an optional [`IoFaultPlan`], so the recovery
//! storm test can crash a refresh at every injected I/O op and pin
//! watermark-consistent recovery.
//!
//! The engine deliberately stops below the serving layer: it returns
//! the published model path and round number, and the caller (CLI,
//! serving loop, tests) hands the path to `ModelRegistry::publish_path`
//! for zero-downtime republish.

use crate::cpals::{try_cp_als, CpalsError, CpalsOutput, CpalsRun, Governance};
use crate::csf::{CsfSet, SortedDelta};
use crate::kruskal::KruskalModel;
use crate::model_file::{load_model_path, save_model};
use crate::options::CpalsOptions;
use splatt_guard::GuardConfig;
use splatt_par::{TaskTeam, TeamConfig};
use splatt_probe::RefreshRow;
use splatt_store::IoFaultPlan;
use splatt_store::{
    decode_delta, publish_artifact, DeltaBatch, Manifest, StoreError, Wal, WalPosition, WalRecord,
};
use splatt_tensor::{MergeStats, SparseTensor};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Default file name of the published model artifact inside the store.
pub const REFRESH_MODEL_FILE: &str = "model.splatt";
/// Manifest key recording the committed watermark (exclusive: records
/// with `seq < watermark` are applied).
pub const KEY_REFRESH_SEQ: &str = "refresh_seq";
/// Manifest key recording the published model artifact's file name.
pub const KEY_REFRESH_MODEL: &str = "refresh_model";
/// Manifest key recording the refresh round counter.
pub const KEY_REFRESH_ROUND: &str = "refresh_round";

/// Why a refresh round (or engine open) failed.
#[derive(Debug)]
pub enum RefreshError {
    /// The durability layer refused an operation (injected crash/fault,
    /// corruption, or a real I/O error).
    Store(StoreError),
    /// Reading or parsing the previous model artifact failed.
    Model(std::io::Error),
    /// A committed manifest value is present but is not a number. It is
    /// not read as 0: that would re-apply every record and run the model
    /// generations backwards.
    Manifest { key: &'static str, value: String },
    /// A WAL record's delta payload would not decode.
    Decode { seq: u64, detail: String },
    /// A WAL record carries a different tensor order than the store.
    OrderMismatch {
        seq: u64,
        expected: usize,
        found: usize,
    },
    /// The store has neither an `order` manifest key nor any WAL
    /// records — there is nothing to size the resident tensor from.
    EmptyStore,
    /// The warm-started refit itself failed (aborted, exhausted
    /// recovery budget, …).
    Solver(CpalsError),
}

impl std::fmt::Display for RefreshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefreshError::Store(e) => write!(f, "store: {e}"),
            RefreshError::Model(e) => write!(f, "model artifact: {e}"),
            RefreshError::Manifest { key, value } => {
                write!(f, "manifest key {key} holds {value:?}, not a number")
            }
            RefreshError::Decode { seq, detail } => {
                write!(f, "WAL record seq {seq}: {detail}")
            }
            RefreshError::OrderMismatch {
                seq,
                expected,
                found,
            } => write!(
                f,
                "WAL record seq {seq} is order-{found} but the store is order-{expected}"
            ),
            RefreshError::EmptyStore => {
                write!(
                    f,
                    "store has no order key and no WAL records to infer it from"
                )
            }
            RefreshError::Solver(e) => write!(f, "refit: {e}"),
        }
    }
}

impl std::error::Error for RefreshError {}

impl From<StoreError> for RefreshError {
    fn from(e: StoreError) -> Self {
        RefreshError::Store(e)
    }
}

/// Configuration for a [`RefreshEngine`].
#[derive(Debug, Clone, Default)]
pub struct RefreshOptions {
    /// Solver configuration for each refit. `warm_start` is managed by
    /// the engine (overwritten every round); setting it here has no
    /// effect.
    pub cpals: CpalsOptions,
    /// Limits each refit runs under ([`Governance::Policy`]).
    pub policy: GuardConfig,
    /// Disk-fault plan threaded through every store operation the
    /// engine performs (WAL read, model publish, manifest publish).
    pub plan: Option<Arc<IoFaultPlan>>,
    /// Also run a cold (random-init) refit each round and record
    /// `|warm fit − cold fit|` as `warm_fit_gap`. Doubles refit cost;
    /// meant for parity audits and tests, not production loops.
    pub audit_cold: bool,
    /// File name (inside the store directory) of the published model
    /// artifact. Empty means [`REFRESH_MODEL_FILE`].
    pub model_file: String,
}

/// What one successful [`RefreshEngine::refresh_once`] round did.
#[derive(Debug)]
pub struct RefreshOutcome {
    /// WAL records applied this round.
    pub applied: u64,
    /// Individual delta entries merged this round.
    pub entries: u64,
    /// This round's merge into the resident trees: nonzeros before and
    /// after, delta entries, and the fiber-id comparisons the tree
    /// merges made.
    pub merge: MergeStats,
    /// Fit of the refreshed model.
    pub fit: f64,
    /// ALS iterations the warm-started refit ran.
    pub iterations: usize,
    /// `|warm fit − cold fit|` when `audit_cold` is set, else `0.0`.
    pub warm_fit_gap: f64,
    /// The committed watermark after this round.
    pub watermark: u64,
    /// The refresh round number (also the model artifact generation).
    pub round: u64,
    /// Path of the atomically published model artifact.
    pub model_path: PathBuf,
}

/// The online refresh driver. See the module docs for the protocol.
#[derive(Debug)]
pub struct RefreshEngine {
    dir: PathBuf,
    opts: RefreshOptions,
    /// The resident tensor: the set [`CsfSet::build`] gives the canonical
    /// tensor under the solver's allocation policy.
    csf: CsfSet,
    /// The slabs of the set the last committed round displaced (none
    /// before it): the next round writes its set into them.
    spare: CsfSet,
    /// The round's delta, decoded flat and sorted once per tree; both
    /// keep their memory for the next round.
    delta: DeltaBatch,
    sorted: SortedDelta,
    /// [`Self::tensor`]'s canonical tensor, laid out of `csf` on demand.
    tensor: OnceLock<SparseTensor>,
    /// The tensor the last install displaced, dropped by the next
    /// [`Self::tensor`] call rather than inside the installing round.
    stale: Mutex<Option<SparseTensor>>,
    model: Option<KruskalModel>,
    watermark: u64,
    round: u64,
    /// Where the record with sequence number `watermark` starts, or will.
    wal_pos: WalPosition,
    counters: RefreshRow,
}

impl RefreshEngine {
    /// Open a store directory for refreshing.
    ///
    /// Builds the resident set from `base` (or an all-ones-dims empty
    /// tensor of the store's order), made canonical — duplicates summed,
    /// stored zeros dropped — and merges every WAL record below the
    /// committed watermark into it in one batch, the round's merge; then
    /// loads the previously published model for warm starts. The log is
    /// read up to the watermark and no further; records *past* it are
    /// left for [`Self::refresh_once`].
    ///
    /// # Errors
    /// Store/decode errors, [`RefreshError::Manifest`] for a committed
    /// watermark or round that does not parse, and
    /// [`RefreshError::EmptyStore`] when the tensor order cannot be
    /// determined.
    pub fn open(
        dir: &Path,
        base: Option<SparseTensor>,
        opts: RefreshOptions,
    ) -> Result<RefreshEngine, RefreshError> {
        let plan = opts.plan.as_deref();
        let manifest = Manifest::load(dir, plan)?.unwrap_or_default();
        let committed = |key: &'static str| -> Result<u64, RefreshError> {
            manifest.get(key).map_or(Ok(0), |value| {
                value.parse().map_err(|_| RefreshError::Manifest {
                    key,
                    value: value.to_string(),
                })
            })
        };
        let watermark = committed(KEY_REFRESH_SEQ)?;
        let round = committed(KEY_REFRESH_ROUND)?;

        // Redo: everything below the watermark is already part of the
        // committed state, so fold it back into the resident set.
        let start = WalPosition::default();
        let replay = Wal::tail(dir, start, watermark, plan)?;

        let base = match base {
            Some(mut t) => {
                t.merge_entries(&[]);
                t
            }
            None => {
                let of_first = |records: &[WalRecord]| {
                    let first = records.first()?;
                    Some(decode_delta(&first.payload).ok()?.0)
                };
                let order = match manifest.get("order").and_then(|v| v.parse().ok()) {
                    Some(order) => Some(order),
                    // with nothing applied yet the first record is unread
                    None if watermark == 0 => of_first(&Wal::tail(dir, start, 1, plan)?.records),
                    None => of_first(&replay.records),
                };
                SparseTensor::new(vec![1; order.ok_or(RefreshError::EmptyStore)?])
            }
        };
        let mut delta = DeltaBatch::new(base.order());
        decode_records(&replay.records, &mut delta)?;
        let cpals = &opts.cpals;
        let team = team_for(cpals);
        let built = CsfSet::build(&base, cpals.csf_alloc, &team, cpals.sort_variant);
        drop(base);
        let mut sorted = SortedDelta::default();
        let (csf, spare) = if delta.is_empty() {
            (built, CsfSet::unfilled())
        } else {
            sorted.sort(&built, &delta);
            let mut merged = CsfSet::unfilled();
            built.merge_into(&sorted, &mut merged, &team, cpals.sort_variant);
            (merged, built)
        };

        let model_file = manifest
            .get(KEY_REFRESH_MODEL)
            .map(str::to_string)
            .unwrap_or_else(|| opts.model_file());
        let model_path = dir.join(&model_file);
        let model = if watermark > 0 && model_path.is_file() {
            Some(load_model_path(&model_path).map_err(RefreshError::Model)?)
        } else {
            None
        };

        let counters = RefreshRow {
            watermark,
            ..Default::default()
        };
        Ok(RefreshEngine {
            dir: dir.to_path_buf(),
            opts,
            csf,
            spare,
            delta,
            sorted,
            tensor: OnceLock::new(),
            stale: Mutex::new(None),
            model,
            watermark,
            round,
            wal_pos: replay.next,
            counters,
        })
    }

    /// Apply every WAL record past the watermark, warm-refit, and
    /// publish. Returns `Ok(None)` when the WAL holds nothing new.
    ///
    /// On error the engine's resident state is untouched (the round
    /// builds the next state beside it and installs it only after the
    /// manifest commit succeeds), so a caller may retry or reopen
    /// without double-applying deltas. A record that does not decode, or
    /// is of the wrong order, fails the round before anything is merged
    /// and names the first such record.
    ///
    /// # Errors
    /// Store, decode, and solver errors; injected crashes surface as
    /// [`RefreshError::Store`].
    pub fn refresh_once(&mut self) -> Result<Option<RefreshOutcome>, RefreshError> {
        let plan = self.opts.plan.as_deref();
        let since = |started: Instant| started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        let tail = Wal::tail(&self.dir, self.wal_pos, u64::MAX, plan)?;
        let Some(last) = tail.records.last() else {
            return Ok(None);
        };
        let new_watermark = last.seq + 1;
        let tail_ns = since(started);

        // One decode into the packed batch, one sort per tree.
        let started = Instant::now();
        decode_records(&tail.records, &mut self.delta)?;
        self.sorted.sort(&self.csf, &self.delta);
        let merge_ns = since(started);

        // The delta merged into the resident trees, written into the
        // spare's slabs (or, for a level order they do not hold, a merged
        // tree's coordinates sorted).
        let mut cpals = self.opts.cpals.clone();
        let team = team_for(&cpals);
        let started = Instant::now();
        let (sorts_skipped, compare_ops) =
            self.csf
                .merge_into(&self.sorted, &mut self.spare, &team, cpals.sort_variant);
        let csf_ns = since(started);
        let csf = &self.spare;

        // Warm-started, governed refit on that set.
        let started = Instant::now();
        cpals.warm_start = self
            .model
            .as_ref()
            .filter(|m| warm_start_compatible(m, self.sorted.dims(), cpals.rank))
            .cloned();
        let governed = CpalsRun {
            team: Some(&team),
            csf: Some(csf),
            governance: Governance::Policy(&self.opts.policy),
            ..Default::default()
        };
        let run = try_cp_als(None, &cpals, &governed).map_err(RefreshError::Solver)?;
        let warm_fit_gap = if self.opts.audit_cold {
            let mut cold = cpals.clone();
            cold.warm_start = None;
            let cold_run = try_cp_als(None, &cold, &governed).map_err(RefreshError::Solver)?;
            (run.fit - cold_run.fit).abs()
        } else {
            0.0
        };
        let refit_ns = since(started);

        // Publish: model artifact first, then the manifest commit point.
        let started = Instant::now();
        let round = self.round + 1;
        let model_file = self.opts.model_file();
        let model_path = self.dir.join(&model_file);
        let mut payload = Vec::new();
        save_model(&run.model, &mut payload).map_err(RefreshError::Model)?;
        publish_artifact(&model_path, round, &payload, plan)?;

        let mut manifest = Manifest::load(&self.dir, plan)?.unwrap_or_default();
        manifest.set("order", &self.delta.order().to_string());
        manifest.set(KEY_REFRESH_SEQ, &new_watermark.to_string());
        manifest.set(KEY_REFRESH_MODEL, &model_file);
        manifest.set(KEY_REFRESH_ROUND, &round.to_string());
        manifest.publish(&self.dir, plan)?;
        let publish_ns = since(started);

        // Committed: install the round's state and counters. The
        // displaced set becomes the spare; a tensor laid out of it waits
        // for the next `tensor()` call to be dropped.
        let CpalsOutput {
            model,
            fit,
            iterations,
            ..
        } = run;
        let merge = MergeStats {
            base_nnz: self.nnz(),
            delta_nnz: self.delta.len(),
            out_nnz: self.spare.csfs()[0].nnz(),
            compare_ops,
            base_was_canonical: true,
        };
        let applied = tail.records.len() as u64;
        let entries = merge.delta_nnz as u64;
        std::mem::swap(&mut self.csf, &mut self.spare);
        if let Some(displaced) = self.tensor.take() {
            *self.stale.get_mut().unwrap_or_else(PoisonError::into_inner) = Some(displaced);
        }
        self.model = Some(model);
        self.watermark = new_watermark;
        self.round = round;
        self.wal_pos = tail.next;
        self.counters.rounds += 1;
        self.counters.deltas_applied += applied;
        self.counters.entries_merged += entries;
        self.counters.merge_compare_ops += merge.compare_ops;
        self.counters.merge_ns += merge_ns;
        self.counters.csf_ns += csf_ns;
        self.counters.sorts_skipped += sorts_skipped as u64;
        self.counters.tail_ns += tail_ns;
        self.counters.wal_bytes_scanned += tail.bytes_scanned;
        self.counters.refit_ns += refit_ns;
        self.counters.refit_iterations += iterations as u64;
        self.counters.warm_fit = fit;
        self.counters.warm_fit_gap = warm_fit_gap;
        self.counters.publish_ns += publish_ns;
        self.counters.watermark = new_watermark;

        Ok(Some(RefreshOutcome {
            applied,
            entries,
            merge,
            fit,
            iterations,
            warm_fit_gap,
            watermark: new_watermark,
            round,
            model_path,
        }))
    }

    /// The committed watermark (exclusive: WAL records with
    /// `seq < watermark` are folded into the store).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// The resident canonical tensor, laid out of the resident set on the
    /// first call after a round installs one and kept until the next
    /// install: a sort of every nonzero, for tests, checks and tools,
    /// never for a round. The tensor a round displaces is dropped here,
    /// by the next call, not in the round.
    pub fn tensor(&self) -> &SparseTensor {
        self.tensor.get_or_init(|| {
            drop(
                self.stale
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take(),
            );
            self.csf.to_coo()
        })
    }

    /// Nonzeros in the resident tensor.
    pub fn nnz(&self) -> usize {
        self.csf.csfs()[0].nnz()
    }

    /// The most recently published model, if any round has committed
    /// (or a model artifact was found at open).
    pub fn model(&self) -> Option<&KruskalModel> {
        self.model.as_ref()
    }

    /// Cumulative counters in probe-report form (the `refresh` row).
    pub fn refresh_row(&self) -> RefreshRow {
        self.counters
    }
}

impl RefreshOptions {
    /// The model artifact's file name: `model_file`, or the default.
    fn model_file(&self) -> String {
        if self.model_file.is_empty() {
            REFRESH_MODEL_FILE.to_string()
        } else {
            self.model_file.clone()
        }
    }
}

/// The task team the solver options ask for.
fn team_for(cpals: &CpalsOptions) -> TaskTeam {
    TaskTeam::with_config(
        cpals.ntasks,
        TeamConfig {
            spin_count: cpals.spin_count,
        },
    )
}

/// Can `model` seed a warm start for a tensor of `dims` at `rank`? Modes
/// may only have *grown* since the model was fit.
fn warm_start_compatible(model: &KruskalModel, dims: &[usize], rank: usize) -> bool {
    model.rank() == rank
        && model.order() == dims.len()
        && model.factors.iter().zip(dims).all(|(f, &d)| f.rows() <= d)
}

/// Decode `records` into `batch` (emptied first, its order kept), in
/// record order.
///
/// # Errors
/// The first record that does not decode, or is not of the batch's
/// order.
fn decode_records(records: &[WalRecord], batch: &mut DeltaBatch) -> Result<(), RefreshError> {
    let order = batch.order();
    batch.clear(order);
    for rec in records {
        let found = batch
            .decode_append(&rec.payload)
            .map_err(|e| RefreshError::Decode {
                seq: rec.seq,
                detail: e.to_string(),
            })?;
        if found != order {
            return Err(RefreshError::OrderMismatch {
                seq: rec.seq,
                expected: order,
                found,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatt_store::{encode_delta, WalOptions};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("splatt_refresh_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    type Batch = Vec<(Vec<u32>, f64)>;

    /// Entries of a small planted tensor, split into `chunks` batches.
    fn planted_batches(chunks: usize) -> (Vec<Batch>, SparseTensor) {
        let (tensor, _truth) = splatt_tensor::synth::planted_dense(&[8, 7, 6], 2, 0.0, 11);
        let all = tensor.canonical_entries();
        let per = all.len().div_ceil(chunks);
        let batches = all.chunks(per).map(<[_]>::to_vec).collect();
        (batches, tensor)
    }

    fn ingest(dir: &Path, batches: &[Batch], order: usize) {
        let (mut wal, _rec) = Wal::open(dir, WalOptions::default()).unwrap();
        for b in batches {
            wal.append(&encode_delta(order, b)).unwrap();
            wal.commit().unwrap();
        }
        let mut manifest = Manifest::load(dir, None).unwrap().unwrap_or_default();
        manifest.set("order", &order.to_string());
        manifest.publish(dir, None).unwrap();
    }

    fn quick_opts() -> RefreshOptions {
        RefreshOptions {
            cpals: CpalsOptions {
                rank: 2,
                max_iters: 12,
                tolerance: 1e-9,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn refresh_applies_tail_and_commits_watermark() {
        let dir = temp_dir("tail");
        let (batches, full) = planted_batches(3);
        ingest(&dir, &batches, full.order());

        let mut eng = RefreshEngine::open(&dir, None, quick_opts()).unwrap();
        assert_eq!(eng.watermark(), 0);
        let out = eng.refresh_once().unwrap().expect("pending records");
        assert_eq!(out.applied, 3);
        assert_eq!(out.watermark, 3);
        assert_eq!(out.round, 1);
        assert!(
            out.fit > 0.8,
            "planted rank-2 refit should fit, got {}",
            out.fit
        );
        assert!(out.model_path.is_file());
        // Resident tensor equals the fully coalesced original.
        let mut expect = full.clone();
        expect.coalesce();
        assert_eq!(eng.tensor().nnz(), expect.nnz());

        // Nothing new → no-op round, state unchanged.
        assert!(eng.refresh_once().unwrap().is_none());
        assert_eq!(eng.watermark(), 3);
        assert_eq!(eng.round, 1);

        // Manifest carries the commit.
        let m = Manifest::load(&dir, None).unwrap().unwrap();
        assert_eq!(m.get(KEY_REFRESH_SEQ), Some("3"));
        assert_eq!(m.get(KEY_REFRESH_ROUND), Some("1"));
        assert_eq!(m.get(KEY_REFRESH_MODEL), Some(REFRESH_MODEL_FILE));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_resumes_from_watermark_and_warm_model() {
        let dir = temp_dir("reopen");
        let (batches, full) = planted_batches(4);
        let order = full.order();
        ingest(&dir, &batches[..2], order);

        let mut eng = RefreshEngine::open(&dir, None, quick_opts()).unwrap();
        eng.refresh_once().unwrap().unwrap();
        let nnz_after_two = eng.tensor().nnz();
        drop(eng);

        // More data arrives; a fresh engine must replay only the
        // committed prefix, then apply the new tail.
        {
            let (mut wal, _r) = Wal::open(&dir, WalOptions::default()).unwrap();
            for b in &batches[2..] {
                wal.append(&encode_delta(order, b)).unwrap();
                wal.commit().unwrap();
            }
        }
        let mut eng2 = RefreshEngine::open(&dir, None, quick_opts()).unwrap();
        assert_eq!(eng2.watermark(), 2);
        assert_eq!(eng2.tensor().nnz(), nnz_after_two);
        assert!(
            eng2.model().is_some(),
            "previous model must load for warm start"
        );
        let out = eng2.refresh_once().unwrap().unwrap();
        assert_eq!(out.applied, 2);
        assert_eq!(out.watermark, 4);
        assert_eq!(out.round, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_store_without_order_is_a_typed_error() {
        let dir = temp_dir("empty");
        let err = RefreshEngine::open(&dir, None, quick_opts()).unwrap_err();
        assert!(matches!(err, RefreshError::EmptyStore), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_garbled_committed_watermark_is_an_error_not_zero() {
        for key in [KEY_REFRESH_SEQ, KEY_REFRESH_ROUND] {
            let dir = temp_dir("garbled");
            let (batches, full) = planted_batches(2);
            ingest(&dir, &batches, full.order());
            RefreshEngine::open(&dir, None, quick_opts())
                .unwrap()
                .refresh_once()
                .unwrap()
                .unwrap();
            let mut manifest = Manifest::load(&dir, None).unwrap().unwrap();
            manifest.set(key, "2?");
            manifest.publish(&dir, None).unwrap();
            // read as 0 this re-applied both records and restarted the
            // model generations at 1
            match RefreshEngine::open(&dir, None, quick_opts()) {
                Err(RefreshError::Manifest { key: k, value }) => {
                    assert_eq!((k, value.as_str()), (key, "2?"));
                }
                other => panic!("expected a Manifest error, got {other:?}"),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn order_mismatch_is_rejected_with_seq() {
        let dir = temp_dir("order");
        let (batches, full) = planted_batches(1);
        ingest(&dir, &batches, full.order());
        {
            let (mut wal, _r) = Wal::open(&dir, WalOptions::default()).unwrap();
            wal.append(&encode_delta(4, &[(vec![0, 0, 0, 0], 1.0)]))
                .unwrap();
            wal.commit().unwrap();
        }
        let mut eng = RefreshEngine::open(&dir, None, quick_opts()).unwrap();
        let err = eng.refresh_once().unwrap_err();
        match err {
            RefreshError::OrderMismatch {
                seq,
                expected,
                found,
            } => {
                assert_eq!(seq, 1, "second WAL record (seqs start at 0)");
                assert_eq!(expected, 3);
                assert_eq!(found, 4);
            }
            other => panic!("expected OrderMismatch, got {other}"),
        }
        // The failed round must not have moved the resident state.
        assert_eq!(eng.watermark(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_round_changes_nothing_not_even_its_csfs() {
        let (batches, full) = planted_batches(3);
        let order = full.order();
        let append = |dir: &Path, batch: &Batch| {
            let (mut wal, _r) = Wal::open(dir, WalOptions::default()).unwrap();
            wal.append(&encode_delta(order, batch)).unwrap();
            wal.commit().unwrap();
        };
        // a twin that never fails says what the rounds must publish
        let (dir, twin_dir) = (temp_dir("failed"), temp_dir("failed_twin"));
        ingest(&dir, &batches[..1], order);
        ingest(&twin_dir, &batches[..1], order);
        let mut eng = RefreshEngine::open(&dir, None, quick_opts()).unwrap();
        let mut twin = RefreshEngine::open(&twin_dir, None, quick_opts()).unwrap();
        for e in [&mut eng, &mut twin] {
            e.refresh_once().unwrap().unwrap();
        }
        append(&dir, &batches[1]);
        append(&twin_dir, &batches[1]);

        // the refit aborts: past the merges, before anything is published
        eng.opts.policy.deadline = Some(std::time::Duration::ZERO);
        let before = (eng.watermark(), eng.round, eng.tensor().clone());
        let model = eng.model().cloned();
        let csf = eng.csf.clone();
        let err = eng.refresh_once().unwrap_err();
        assert!(matches!(err, RefreshError::Solver(_)), "{err}");
        assert_eq!((eng.watermark(), eng.round), (before.0, before.1));
        assert_eq!(eng.tensor(), &before.2);
        assert_eq!(eng.model(), model.as_ref());
        assert_eq!(eng.refresh_row().rounds, 1, "nothing counted");
        assert_same_set(&eng.csf, &csf);

        // the retry merges into every resident tree, and publishes what
        // the twin publishes
        eng.opts.policy.deadline = None;
        let skipped = eng.refresh_row().sorts_skipped;
        eng.refresh_once().unwrap().unwrap();
        let roots = csf.csfs().len() as u64;
        assert_eq!(eng.refresh_row().sorts_skipped, skipped + roots);
        twin.refresh_once().unwrap().unwrap();
        assert_eq!(
            eng.refresh_row().sorts_skipped,
            twin.refresh_row().sorts_skipped
        );
        assert_eq!(eng.tensor(), twin.tensor());
        assert_eq!(eng.model(), twin.model());
        for d in [dir, twin_dir] {
            std::fs::remove_dir_all(&d).ok();
        }
    }

    fn assert_same_set(got: &CsfSet, want: &CsfSet) {
        assert_eq!(got.alloc(), want.alloc());
        assert_eq!(got.csfs().len(), want.csfs().len());
        for (got, want) in got.csfs().iter().zip(want.csfs()) {
            crate::csf::tests::assert_same(got, want);
        }
    }

    /// After every committed and every failed round the engine's resident
    /// set is field for field the one `CsfSet::build` sorts out of its
    /// tensor — through dims growth that keeps the level orders, growth
    /// that changes them, and a delta that cancels a root slice — and an
    /// engine reopened on the store holds the same set.
    #[test]
    fn the_resident_set_is_always_a_rebuild() {
        use crate::csf::CsfAlloc;
        let (batches, full) = planted_batches(3);
        let order = full.order();
        for alloc in [CsfAlloc::One, CsfAlloc::Two, CsfAlloc::All] {
            let dir = temp_dir(&format!("resident_{alloc:?}"));
            ingest(&dir, &batches[..1], order);
            let mut opts = quick_opts();
            opts.cpals.csf_alloc = alloc;
            let mut eng = RefreshEngine::open(&dir, None, opts).unwrap();
            let rebuilt = |eng: &RefreshEngine| {
                let team = TaskTeam::new(1);
                let want = CsfSet::build(eng.tensor(), alloc, &team, Default::default());
                assert_same_set(&eng.csf, &want);
            };
            eng.refresh_once().unwrap().unwrap();
            rebuilt(&eng);

            // dims [8, 7, 6] once the planted batches are in; then mode 0
            // grows (the level orders hold), the slice 5 of the shortest
            // mode cancels, and mode 1 grows past mode 0 (they change)
            let slice: Batch = full
                .canonical_entries()
                .into_iter()
                .filter(|(c, _)| c[2] == 5)
                .map(|(c, v)| (c, -v))
                .collect();
            let rounds: [Batch; 5] = [
                batches[1].clone(),
                batches[2].clone(),
                vec![(vec![10, 1, 1], 0.5), (vec![9, 0, 4], -1.5)],
                slice,
                vec![(vec![3, 14, 2], 2.0), (vec![0, 12, 0], 1.0)],
            ];
            for batch in &rounds {
                let (mut wal, _r) = Wal::open(&dir, WalOptions::default()).unwrap();
                wal.append(&encode_delta(order, batch)).unwrap();
                wal.commit().unwrap();
                drop(wal);
                // a round that fails in the refit, after both merges
                eng.opts.policy.deadline = Some(std::time::Duration::ZERO);
                eng.refresh_once().unwrap_err();
                rebuilt(&eng);
                eng.opts.policy.deadline = None;
                eng.refresh_once().unwrap().unwrap();
                rebuilt(&eng);
            }
            assert_eq!(eng.tensor().dims(), &[11, 15, 6]);
            assert!(!eng.tensor().ind(2).contains(&5), "the slice cancelled");
            // a reopened engine replays the log into the same set
            let mut opts = quick_opts();
            opts.cpals.csf_alloc = alloc;
            let reopened = RefreshEngine::open(&dir, None, opts).unwrap();
            assert_same_set(&reopened.csf, &eng.csf);
            assert_eq!(reopened.tensor(), eng.tensor());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The round split the engine counts: five disjoint stretches of a
    /// round, so together never more than the rounds took.
    #[test]
    fn the_round_split_never_sums_past_the_rounds() {
        let dir = temp_dir("split");
        let (batches, full) = planted_batches(3);
        ingest(&dir, &batches[..1], full.order());
        let mut eng = RefreshEngine::open(&dir, None, quick_opts()).unwrap();
        let mut wall = 0u64;
        for (i, batch) in batches.iter().enumerate() {
            if i > 0 {
                ingest(&dir, std::slice::from_ref(batch), full.order());
            }
            let started = Instant::now();
            eng.refresh_once().unwrap().unwrap();
            assert!(eng.refresh_once().unwrap().is_none());
            wall += started.elapsed().as_nanos() as u64;
        }
        let row = eng.refresh_row();
        let split = [
            row.tail_ns,
            row.merge_ns,
            row.csf_ns,
            row.refit_ns,
            row.publish_ns,
        ];
        assert!(split.iter().all(|&ns| ns > 0), "{row:?}");
        assert!(split.iter().sum::<u64>() <= wall, "{split:?} > {wall}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A warm round allocates nothing that scales with the tensor: past
    /// two warm-up rounds — one filling the spare set, one growing the
    /// set built at open — a round merging a delta of the same cells
    /// requests the same heap on bases whose nnz differ by more than 4x,
    /// up to the kernels' scratch: the sparser tree runs the solver's
    /// mode 0 through the leaf kernel, the denser through the internal
    /// one (`DENSE_FIBER_NNZ`), ≈ 2 KB apart. A round that copies the
    /// tensor requests ≈ 20 B per nonzero more.
    #[test]
    fn a_warm_round_allocates_nothing_that_scales_with_the_tensor() {
        use splatt_probe::alloc::heap_of;
        let warm_round_heap = |nnz: usize| -> (usize, u64) {
            let dir = temp_dir(&format!("heap_{nnz}"));
            let base = splatt_tensor::synth::random_uniform(&[40, 30, 20], nnz, 5);
            let mut opts = quick_opts();
            opts.cpals.tolerance = 0.0;
            let mut eng = RefreshEngine::open(&dir, Some(base), opts).unwrap();
            let (mut wal, _r) = Wal::open(&dir, WalOptions::default()).unwrap();
            let mut heap = 0;
            for round in 0..3u32 {
                let delta: Batch = (0..64u32)
                    .map(|i| {
                        (
                            vec![i % 40, i * 7 % 30, (i + round) % 20],
                            0.5 + f64::from(i),
                        )
                    })
                    .collect();
                wal.append(&encode_delta(3, &delta)).unwrap();
                wal.commit().unwrap();
                heap = heap_of(|| eng.refresh_once().unwrap().unwrap()).1;
            }
            std::fs::remove_dir_all(&dir).ok();
            (eng.nnz(), heap)
        };
        let (small, large) = (warm_round_heap(2_000), warm_round_heap(16_000));
        assert!(large.0 > 4 * small.0, "{small:?} vs {large:?}");
        assert!(
            large.1.abs_diff(small.1) <= 4096,
            "a warm round requested {} B at {} nonzeros but {} B at {}",
            small.1,
            small.0,
            large.1,
            large.0
        );
    }

    #[test]
    fn counters_accumulate_across_rounds() {
        let dir = temp_dir("counters");
        let (batches, full) = planted_batches(4);
        let order = full.order();
        ingest(&dir, &batches[..1], order);
        let mut eng = RefreshEngine::open(&dir, None, quick_opts()).unwrap();
        eng.refresh_once().unwrap().unwrap();
        {
            let (mut wal, _r) = Wal::open(&dir, WalOptions::default()).unwrap();
            for b in &batches[1..] {
                wal.append(&encode_delta(order, b)).unwrap();
                wal.commit().unwrap();
            }
        }
        eng.refresh_once().unwrap().unwrap();
        let row = eng.refresh_row();
        assert_eq!(row.rounds, 2);
        assert_eq!(row.deltas_applied, 4);
        assert_eq!(row.watermark, 4);
        let total: usize = batches.iter().map(Vec::len).sum();
        assert_eq!(row.entries_merged, total as u64);
        assert!(row.refit_iterations >= 2);
        assert!(row.merge_compare_ops > 0);
        assert!(row.warm_fit > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn audit_cold_reports_a_tiny_gap_on_planted_data() {
        let dir = temp_dir("audit");
        let (batches, full) = planted_batches(2);
        ingest(&dir, &batches, full.order());
        let mut opts = quick_opts();
        opts.audit_cold = true;
        opts.cpals.max_iters = 60;
        opts.cpals.tolerance = 1e-12;
        let mut eng = RefreshEngine::open(&dir, None, opts).unwrap();
        let out = eng.refresh_once().unwrap().unwrap();
        assert!(
            out.warm_fit_gap <= 1e-6,
            "warm-vs-cold fit gap {} too large",
            out.warm_fit_gap
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
