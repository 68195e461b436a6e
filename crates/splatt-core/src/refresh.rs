//! Online CP refresh: stream the ingest WAL into a living model.
//!
//! The batch pipeline the workspace grew up with — `ingest` appends
//! delta batches to the WAL, `recover` replays the whole log, `cpd`
//! refits from scratch — hides three costs that only show up once the
//! tensor is *alive*: every refresh re-coalesces the full tensor
//! (`O(N log N)` per batch instead of `O(N + d)`), every refit restarts
//! from random factors (paying the full iteration budget to rediscover
//! a solution one delta away), and every republish is a full pipeline
//! restart. [`RefreshEngine`] is the streaming driver that removes all
//! three:
//!
//! 1. **Tail, don't replay** — [`RefreshEngine::refresh_once`] scans the
//!    WAL ([`Wal::recover`]) and applies only records past the durably
//!    committed *watermark*. The watermark is exclusive: every WAL
//!    sequence **below** it is folded into the committed state recorded
//!    in the store manifest (WAL sequences start at 0, so watermark
//!    `k` means "the first `k` records are in").
//! 2. **Merge, don't re-coalesce** — each delta batch goes through
//!    [`SparseTensor::merge_entries`], the linear two-way merge; the
//!    accumulated [`MergeStats::compare_ops`] are the auditable
//!    asymptotic-cost evidence, surfaced in the probe report's
//!    `refresh` row.
//! 3. **Warm-start, don't restart** — the refit seeds
//!    [`CpalsOptions::warm_start`] with the previous model, runs under a
//!    [`GovernancePolicy`] (deadline / overrun ladder), and publishes
//!    the result with the atomic artifact protocol.
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
//! The whole path threads an optional [`IoFaultPlan`], so the recovery
//! storm test can crash a refresh at every injected I/O op and pin
//! watermark-consistent recovery.
//!
//! The engine deliberately stops below the serving layer: it returns
//! the published model path and round number, and the caller (CLI,
//! serving loop, tests) hands the path to `ModelRegistry::publish_path`
//! for zero-downtime republish.

use crate::cpals::{try_cp_als, CpalsError, CpalsOutput, CpalsRun, Governance};
use crate::governed::GovernancePolicy;
use crate::kruskal::KruskalModel;
use crate::model_file::{load_model_path, save_model};
use crate::options::CpalsOptions;
use splatt_faults::IoFaultPlan;
use splatt_probe::RefreshRow;
use splatt_store::{decode_delta, publish_artifact, Manifest, StoreError, Wal, WalRecord};
use splatt_tensor::{MergeStats, SparseTensor};
use std::path::{Path, PathBuf};
use std::sync::Arc;
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
    /// Governance limits applied to each refit (deadline, overrun
    /// ladder).
    pub policy: GovernancePolicy,
    /// Disk-fault plan threaded through every store operation the
    /// engine performs (WAL scan, model publish, manifest publish).
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
    /// Merge statistics summed over this round's batches.
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
    /// Degradation rungs the governed refit applied, in order.
    pub degradations: Vec<String>,
}

/// The online refresh driver. See the module docs for the protocol.
#[derive(Debug)]
pub struct RefreshEngine {
    dir: PathBuf,
    opts: RefreshOptions,
    tensor: SparseTensor,
    model: Option<KruskalModel>,
    watermark: u64,
    round: u64,
    counters: RefreshRow,
}

impl RefreshEngine {
    /// Open a store directory for refreshing.
    ///
    /// Rebuilds the resident tensor as `base` (or an all-ones-dims
    /// empty tensor of the store's order) plus every WAL record at or
    /// below the committed watermark, and loads the previously
    /// published model for warm starts. Records *past* the watermark
    /// are left for [`Self::refresh_once`].
    ///
    /// # Errors
    /// Store/decode errors, and [`RefreshError::EmptyStore`] when the
    /// tensor order cannot be determined.
    pub fn open(
        dir: &Path,
        base: Option<SparseTensor>,
        opts: RefreshOptions,
    ) -> Result<RefreshEngine, RefreshError> {
        let plan = opts.plan.clone();
        let manifest = Manifest::load(dir, plan.as_deref())?.unwrap_or_default();
        let watermark: u64 = manifest
            .get(KEY_REFRESH_SEQ)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let round: u64 = manifest
            .get(KEY_REFRESH_ROUND)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);

        let recovery = Wal::recover(dir, plan.clone())?;

        let mut tensor = match base {
            Some(t) => t,
            None => {
                let order = manifest
                    .get("order")
                    .and_then(|v| v.parse::<usize>().ok())
                    .or_else(|| {
                        recovery
                            .records
                            .first()
                            .and_then(|r| decode_delta(&r.payload).ok())
                            .map(|(o, _)| o)
                    })
                    .ok_or(RefreshError::EmptyStore)?;
                SparseTensor::new(vec![1; order])
            }
        };

        // Redo: everything below the watermark is already part of the
        // committed state, so fold it back into the resident tensor.
        for rec in recovery.records.iter().filter(|r| r.seq < watermark) {
            apply_record(&mut tensor, rec)?;
        }

        let model_file = manifest
            .get(KEY_REFRESH_MODEL)
            .map(str::to_string)
            .unwrap_or_else(|| {
                if opts.model_file.is_empty() {
                    REFRESH_MODEL_FILE.to_string()
                } else {
                    opts.model_file.clone()
                }
            });
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
            tensor,
            model,
            watermark,
            round,
            counters,
        })
    }

    /// Apply every WAL record past the watermark, warm-refit, and
    /// publish. Returns `Ok(None)` when the WAL holds nothing new.
    ///
    /// On error the engine's resident state is untouched (the round
    /// works on a copy and installs it only after the manifest commit
    /// succeeds), so a caller may retry or reopen without
    /// double-applying deltas.
    ///
    /// # Errors
    /// Store, decode, and solver errors; injected crashes surface as
    /// [`RefreshError::Store`].
    pub fn refresh_once(&mut self) -> Result<Option<RefreshOutcome>, RefreshError> {
        let plan = self.opts.plan.clone();
        let recovery = Wal::recover(&self.dir, plan.clone())?;
        let pending: Vec<&WalRecord> = recovery
            .records
            .iter()
            .filter(|r| r.seq >= self.watermark)
            .collect();
        if pending.is_empty() {
            return Ok(None);
        }

        // Work on a copy so a crash mid-round leaves the resident
        // tensor consistent with the committed watermark.
        let mut work = self.tensor.clone();
        let mut merge = MergeStats {
            base_was_canonical: true,
            ..Default::default()
        };
        let mut entries = 0u64;
        let merge_started = Instant::now();
        for (i, rec) in pending.iter().enumerate() {
            let stats = apply_record(&mut work, rec)?;
            if i == 0 {
                merge.base_nnz = stats.base_nnz;
            }
            merge.out_nnz = stats.out_nnz;
            merge.delta_nnz += stats.delta_nnz;
            merge.compare_ops += stats.compare_ops;
            merge.base_was_canonical &= stats.base_was_canonical;
            entries += stats.delta_nnz as u64;
        }
        let merge_ns = merge_started.elapsed().as_nanos() as u64;
        let new_watermark = pending.last().expect("non-empty").seq + 1;

        // Warm-started, governed refit. The CSF rebuild inside draws on
        // the merged (canonical, strictly sorted) tensor, so the
        // sort-skip fast path fires; each solve reports the skips of the
        // CSF set it built.
        let mut cpals = self.opts.cpals.clone();
        cpals.warm_start = self
            .model
            .as_ref()
            .filter(|m| warm_start_compatible(m, &work, cpals.rank))
            .cloned();
        let governed = CpalsRun {
            governance: Governance::Policy(&self.opts.policy),
            ..Default::default()
        };
        let run = try_cp_als(&work, &cpals, &governed).map_err(RefreshError::Solver)?;
        let mut sorts_skipped = run.sorts_skipped;
        let warm_fit_gap = if self.opts.audit_cold {
            let mut cold = cpals.clone();
            cold.warm_start = None;
            let cold_run = try_cp_als(&work, &cold, &governed).map_err(RefreshError::Solver)?;
            sorts_skipped += cold_run.sorts_skipped;
            (run.fit - cold_run.fit).abs()
        } else {
            0.0
        };

        // Publish: model artifact first, then the manifest commit point.
        let round = self.round + 1;
        let model_file = if self.opts.model_file.is_empty() {
            REFRESH_MODEL_FILE.to_string()
        } else {
            self.opts.model_file.clone()
        };
        let model_path = self.dir.join(&model_file);
        let publish_started = Instant::now();
        let mut payload = Vec::new();
        save_model(&run.model, &mut payload).map_err(RefreshError::Model)?;
        publish_artifact(&model_path, round, &payload, plan.as_deref())?;

        let mut manifest = Manifest::load(&self.dir, plan.as_deref())?.unwrap_or_default();
        manifest.set("order", &work.order().to_string());
        manifest.set(KEY_REFRESH_SEQ, &new_watermark.to_string());
        manifest.set(KEY_REFRESH_MODEL, &model_file);
        manifest.set(KEY_REFRESH_ROUND, &round.to_string());
        manifest.publish(&self.dir, plan.as_deref())?;
        let publish_ns = publish_started.elapsed().as_nanos() as u64;

        // Committed: install the round's state and counters.
        let CpalsOutput {
            model,
            fit,
            iterations,
            ..
        } = run;
        self.tensor = work;
        self.model = Some(model);
        self.watermark = new_watermark;
        self.round = round;
        self.counters.rounds += 1;
        self.counters.deltas_applied += pending.len() as u64;
        self.counters.entries_merged += entries;
        self.counters.merge_compare_ops += merge.compare_ops;
        self.counters.merge_ns += merge_ns;
        self.counters.sorts_skipped += sorts_skipped;
        self.counters.refit_iterations += iterations as u64;
        self.counters.warm_fit = fit;
        self.counters.warm_fit_gap = warm_fit_gap;
        self.counters.publish_ns += publish_ns;
        self.counters.watermark = new_watermark;

        Ok(Some(RefreshOutcome {
            applied: pending.len() as u64,
            entries,
            merge,
            fit,
            iterations,
            warm_fit_gap,
            watermark: new_watermark,
            round,
            model_path,
            degradations: run.degradations,
        }))
    }

    /// The committed watermark (exclusive: WAL records with
    /// `seq < watermark` are folded into the store).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Completed refresh rounds (equals the model artifact generation).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The resident canonical tensor.
    pub fn tensor(&self) -> &SparseTensor {
        &self.tensor
    }

    /// The most recently published model, if any round has committed
    /// (or a model artifact was found at open).
    pub fn model(&self) -> Option<&KruskalModel> {
        self.model.as_ref()
    }

    /// Cumulative counters in probe-report form (schema v9 `refresh`).
    pub fn refresh_row(&self) -> RefreshRow {
        self.counters
    }

    /// The store directory this engine refreshes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Can `model` seed a warm start for `tensor` at `rank`? Modes may only
/// have *grown* since the model was fit.
fn warm_start_compatible(model: &KruskalModel, tensor: &SparseTensor, rank: usize) -> bool {
    model.rank() == rank
        && model.order() == tensor.order()
        && model
            .factors
            .iter()
            .zip(tensor.dims())
            .all(|(f, &d)| f.rows() <= d)
}

/// Decode one WAL record and merge it into `tensor`.
fn apply_record(tensor: &mut SparseTensor, rec: &WalRecord) -> Result<MergeStats, RefreshError> {
    let (order, entries) = decode_delta(&rec.payload).map_err(|e| RefreshError::Decode {
        seq: rec.seq,
        detail: e.to_string(),
    })?;
    if order != tensor.order() {
        return Err(RefreshError::OrderMismatch {
            seq: rec.seq,
            expected: tensor.order(),
            found: order,
        });
    }
    Ok(tensor.merge_entries(&entries))
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
        assert_eq!(eng.round(), 1);

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
