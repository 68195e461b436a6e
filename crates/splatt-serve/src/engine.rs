//! The serving engine: admission control, an LRU result cache and the
//! query kernels, all run on the thread that asks.
//!
//! [`ServeEngine::query`] is the one path, in this order:
//!
//! 1. A shut-down engine refuses at once ([`ServeError::ShuttingDown`]);
//!    otherwise the request is admitted through the [`AdmissionGate`]
//!    (at capacity → typed [`ServeError::Overloaded`], immediately). An
//!    admitted query is always computed, even if shutdown trips while
//!    it runs: that is the drain.
//! 2. The model is resolved and the query validated against it.
//! 3. A cancelled token, a tripped abort poll or a passed deadline ends
//!    the request typed before any work. (A point read — an `Entry`
//!    within [`Query::CALLER_RUNS_COORDS`] — has no deadline: it is
//!    answered the same on the reactor thread and on a pool worker.)
//! 4. Slice and top-k requests consult the LRU result cache.
//! 5. A miss is computed right there, with a grow-only [`QueryArena`]
//!    taken from the engine's free list (made on first need, put back
//!    after): the steady-state hot path is allocation-free after
//!    warm-up, and there are never more arenas than concurrent callers.
//! 6. The result enters the cache unless its model version was evicted
//!    meanwhile.
//! 7. A result that finished after its deadline is reported as
//!    [`ServeError::DeadlineExpired`].
//!
//! There is no queue, batcher or task team. The callers — the
//! `splatt-net` reactor thread for small point reads, a pool worker for
//! everything else — already run requests in parallel; a second pool
//! behind them only added a hand-off and spinning workers on the same
//! cores (the two-pool interference of the paper's §V-E). Which of the
//! two threads computes a request is the request's own property
//! ([`Query::CALLER_RUNS_COORDS`]).
//!
//! Latency per kind, computed and cached traffic, sheds, and arena
//! growth all land in [`ServeStats`], surfaced as the probe schema's
//! `serve` object via [`ServeEngine::profile_report`].

use crate::cache::{CacheKey, CacheValue, ResultCache};
use crate::registry::{ModelRegistry, ServableModel};
use crate::stats::{QueryKind, ServeStats};
use splatt_core::query::{self, QueryArena};
use splatt_core::KruskalModel;
use splatt_guard::{AdmissionGate, CancelToken, Overloaded};
use splatt_probe::ProfileReport;
use splatt_rt::sync::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Ignored: every query runs on its caller. Kept only because the
    /// end-to-end benchmark (`bench/`) sets it; it leaves with that
    /// benchmark's next change.
    pub ntasks: usize,
    /// Admission-gate depth: requests in flight beyond this are shed.
    pub max_depth: usize,
    /// LRU result-cache capacity (entries); 0 disables caching.
    pub cache_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
    /// Reject slices (and entry batches) larger than this many values.
    pub max_response_values: usize,
    /// How long a front end's shutdown waits for requests that are
    /// already computing (the reactor's drain window is this plus one
    /// second). New requests are refused the moment shutdown starts.
    pub drain_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            ntasks: 4,
            max_depth: 256,
            cache_capacity: 256,
            default_deadline: Duration::from_secs(5),
            max_response_values: 1 << 22,
            drain_deadline: Duration::from_secs(2),
        }
    }
}

/// One query against a named model.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Reconstruct the modeled value at each coordinate tuple
    /// (flat, `order` entries per tuple).
    Entry { coords: Vec<u32> },
    /// Reconstruct the dense slice fixing `mode` at `index`.
    Slice { mode: u8, index: u32 },
    /// Score every index along `mode` against `fixed` and return the
    /// `k` best.
    TopK { mode: u8, k: u32, fixed: Vec<u32> },
}

impl Query {
    /// Largest `Entry` query, in coordinates (tuples × order), that the
    /// TCP front end answers on its reactor thread instead of handing it
    /// to a pool worker. The engine computes every query on its caller;
    /// this bound only picks which thread that is.
    ///
    /// The bound is on coordinates, not tuples, because that is what
    /// the work is proportional to and what a request states about
    /// itself: a coordinate costs one pass over a `rank`-long factor
    /// row, ≈ 45 ns at rank 16 (`query.entry_ns`: 137 ns per order-3
    /// tuple), linear in rank. Worst-case reactor hold time: one
    /// request is at most 64 × 45 ns ≈ 3 µs of kernel, and the reactor
    /// answers at most `max_pipeline` (32) requests of one connection
    /// per read pass, so `CALLER_RUNS_COORDS` × per-coordinate cost ×
    /// `max_pipeline` ≈ 0.1 ms at rank 16 before another connection is
    /// served. A typical point read is one tuple.
    pub const CALLER_RUNS_COORDS: usize = 64;

    /// An `Entry` within [`Query::CALLER_RUNS_COORDS`]: a point read.
    fn is_point_read(&self) -> bool {
        matches!(self, Query::Entry { coords } if coords.len() <= Self::CALLER_RUNS_COORDS)
    }

    /// The kind bucket this query records under.
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::Entry { .. } => QueryKind::Entry,
            Query::Slice { .. } => QueryKind::Slice,
            Query::TopK { .. } => QueryKind::TopK,
        }
    }
}

/// A successful query answer. Slice and top-k payloads are `Arc`-shared
/// with the result cache.
#[derive(Debug, Clone)]
pub enum QueryResult {
    Entries(Vec<f64>),
    Slice(Arc<Vec<f64>>),
    TopK(Arc<Vec<(u32, f64)>>),
}

/// Why a request was not answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Shed by admission control; retry after backing off.
    Overloaded(Overloaded),
    /// The request's deadline expired before an answer was produced.
    DeadlineExpired,
    /// No such model name/version in the registry.
    ModelNotFound { name: String, version: u64 },
    /// The query does not fit the model (bad mode, coordinate, shape).
    BadQuery(String),
    /// The engine is shutting down.
    ShuttingDown,
    /// The caller abandoned the request (e.g. client disconnect).
    Cancelled,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded(o) => write!(f, "{o}"),
            ServeError::DeadlineExpired => write!(f, "deadline expired"),
            ServeError::ModelNotFound { name, version } => {
                if *version == 0 {
                    write!(f, "model '{name}' not found")
                } else {
                    write!(f, "model '{name}' version {version} not found")
                }
            }
            ServeError::BadQuery(msg) => write!(f, "bad query: {msg}"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::Cancelled => write!(f, "request cancelled"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The serving engine; see the module docs. Create with
/// [`ServeEngine::start`]; [`ServeEngine::shutdown`] refuses new work.
pub struct ServeEngine {
    config: ServeConfig,
    registry: ModelRegistry,
    cache: ResultCache,
    gate: AdmissionGate,
    stats: ServeStats,
    /// Arenas no query is using: a computing query pops one (or makes
    /// one) and pushes it back when done.
    arenas: Mutex<Vec<QueryArena>>,
    shutdown: CancelToken,
}

impl ServeEngine {
    /// Build the engine. It starts no thread: queries run on their
    /// callers.
    pub fn start(config: ServeConfig) -> Arc<ServeEngine> {
        Arc::new(ServeEngine {
            registry: ModelRegistry::new(),
            cache: ResultCache::new(config.cache_capacity),
            gate: AdmissionGate::new(config.max_depth),
            stats: ServeStats::new(),
            arenas: Mutex::new(Vec::new()),
            shutdown: CancelToken::new(),
            config,
        })
    }

    /// The model registry (publish/evict/list).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The admission gate (depth and shed counters).
    pub fn gate(&self) -> &AdmissionGate {
        &self.gate
    }

    /// Serving telemetry.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The result cache.
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The engine-level cancel token; tripping it is
    /// [`ServeEngine::shutdown`].
    pub fn shutdown_token(&self) -> &CancelToken {
        &self.shutdown
    }

    /// Engine configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Publish a model; convenience over `registry().publish`.
    pub fn publish(&self, name: &str, model: splatt_core::KruskalModel) -> u64 {
        self.registry.publish(name, model)
    }

    /// Evict model versions and drop their cached results.
    pub fn evict(&self, name: &str, version: u64) -> usize {
        let removed = self.registry.evict(name, version);
        if removed > 0 {
            self.cache.invalidate_model(name, version);
        }
        removed
    }

    /// Admit, resolve, check and compute one query on this thread (see
    /// the module docs for the steps). `poll_abort` is asked once,
    /// before any work (return true to abandon — the TCP front end
    /// passes its disconnect detector); pass `|| false` when the caller
    /// cannot go away.
    ///
    /// # Errors
    /// Every failure is a typed [`ServeError`].
    pub fn query(
        &self,
        name: &str,
        version: u64,
        query: Query,
        deadline: Option<Duration>,
        cancel: &CancelToken,
        poll_abort: impl FnOnce() -> bool,
    ) -> Result<QueryResult, ServeError> {
        if self.shutdown.is_cancelled() {
            return Err(ServeError::ShuttingDown);
        }
        let _permit = self.gate.try_admit().map_err(ServeError::Overloaded)?;
        let submitted = Instant::now();
        // A point read is not held to a deadline: its kernel is far
        // shorter than the millisecond the wire can state, and the
        // reactor thread and a pool worker must answer it with the same
        // bytes whatever the clock says.
        let deadline = (!query.is_point_read())
            .then(|| submitted + deadline.unwrap_or(self.config.default_deadline));
        let model = self
            .registry
            .get(name, version)
            .ok_or_else(|| ServeError::ModelNotFound {
                name: name.to_string(),
                version,
            })?;
        self.validate(&model, &query)?;
        if cancel.is_cancelled() || poll_abort() {
            return Err(ServeError::Cancelled);
        }
        self.check_deadline(deadline)?;

        let key = Self::cache_key(&model, &query);
        let hit = key.as_ref().and_then(|key| self.cache.get(key));
        let result = match hit {
            Some(CacheValue::Slice(v)) => QueryResult::Slice(v),
            Some(CacheValue::TopK(v)) => QueryResult::TopK(v),
            None => {
                self.stats.record_caller_run();
                let result = self.compute(&model, &query)?;
                if let Some(key) = key {
                    self.insert(&model, key, &result);
                }
                self.check_deadline(deadline)?;
                result
            }
        };
        self.stats
            .record_latency(query.kind(), submitted.elapsed().as_micros() as u64);
        Ok(result)
    }

    /// Refuse new queries with [`ServeError::ShuttingDown`]. Queries
    /// already admitted run to their answer. Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.cancel();
    }

    /// A probe report with the schema's `serve` object populated.
    pub fn profile_report(&self) -> ProfileReport {
        ProfileReport {
            serve: Some(self.stats.to_row(
                self.cache.hits(),
                self.cache.misses(),
                self.cache.evictions(),
                self.gate.sheds(),
            )),
            ..Default::default()
        }
    }

    fn check_deadline(&self, deadline: Option<Instant>) -> Result<(), ServeError> {
        if deadline.is_some_and(|at| Instant::now() >= at) {
            self.stats.record_deadline_rejection();
            return Err(ServeError::DeadlineExpired);
        }
        Ok(())
    }

    /// Run the kernel with an arena off the free list; the arena's
    /// growth during the call is added to the stats when it goes back.
    fn compute(&self, model: &ServableModel, query: &Query) -> Result<QueryResult, ServeError> {
        let mut arena = self.arenas.lock().pop().unwrap_or_default();
        let (allocs, bytes) = (arena.growth_allocs(), arena.growth_bytes());
        let result = run_one(&model.model, query, &mut arena);
        self.stats
            .add_arena_growth(arena.growth_allocs() - allocs, arena.growth_bytes() - bytes);
        self.arenas.lock().push(arena);
        result
    }

    /// Cache a computed scan. The registry is re-checked first: an
    /// evict() that ran while we computed already invalidated this
    /// model's entries, and inserting now would resurrect one. The
    /// sliver between this check and the insert is benign — versions
    /// are never reused, so a raced entry is unreachable and ages out
    /// via LRU.
    fn insert(&self, model: &ServableModel, key: CacheKey, result: &QueryResult) {
        let value = match result {
            QueryResult::Slice(v) => CacheValue::Slice(Arc::clone(v)),
            QueryResult::TopK(v) => CacheValue::TopK(Arc::clone(v)),
            QueryResult::Entries(_) => return,
        };
        if self.registry.contains(&model.name, model.version) {
            self.cache.insert(key, value);
        }
    }

    fn validate(&self, model: &ServableModel, query: &Query) -> Result<(), ServeError> {
        let order = model.model.order();
        let bad = |msg: String| Err(ServeError::BadQuery(msg));
        match query {
            Query::Entry { coords } => {
                if order == 0 || coords.len() % order != 0 {
                    return bad(format!(
                        "{} coordinates do not tile an order-{order} model",
                        coords.len()
                    ));
                }
                if coords.len() / order.max(1) > self.config.max_response_values {
                    return bad("entry batch too large".into());
                }
            }
            Query::Slice { mode, .. } => {
                if *mode as usize >= order {
                    return bad(format!("mode {mode} out of range for order {order}"));
                }
                let len = query::slice_len(&model.model, *mode as usize)
                    .map_err(|e| ServeError::BadQuery(e.to_string()))?;
                if len > self.config.max_response_values {
                    return bad(format!(
                        "slice has {len} values (limit {})",
                        self.config.max_response_values
                    ));
                }
            }
            Query::TopK { mode, k, fixed } => {
                if *mode as usize >= order {
                    return bad(format!("mode {mode} out of range for order {order}"));
                }
                if fixed.len() + 1 != order {
                    return bad(format!(
                        "{} fixed coordinates for an order-{order} top-k",
                        fixed.len()
                    ));
                }
                if *k as usize > self.config.max_response_values {
                    return bad("k too large".into());
                }
            }
        }
        Ok(())
    }

    fn cache_key(model: &ServableModel, query: &Query) -> Option<CacheKey> {
        match query {
            Query::Entry { .. } => None,
            Query::Slice { mode, index } => Some(CacheKey::Slice {
                model: model.name.clone(),
                version: model.version,
                mode: *mode,
                index: *index,
            }),
            Query::TopK { mode, k, fixed } => Some(CacheKey::TopK {
                model: model.name.clone(),
                version: model.version,
                mode: *mode,
                k: *k,
                fixed: fixed.clone(),
            }),
        }
    }
}

/// Reconstruct the modeled value at each tuple of `coords`.
fn entry_values(model: &KruskalModel, coords: &[u32]) -> Result<QueryResult, ServeError> {
    let mut out = vec![0.0; coords.len() / model.order().max(1)];
    query::entry_values(model, coords, &mut out)
        .map_err(|e| ServeError::BadQuery(e.to_string()))?;
    Ok(QueryResult::Entries(out))
}

/// Execute one query against its model.
fn run_one(
    model: &KruskalModel,
    query: &Query,
    arena: &mut QueryArena,
) -> Result<QueryResult, ServeError> {
    let to_bad = |e: query::QueryError| ServeError::BadQuery(e.to_string());
    match query {
        Query::Entry { coords } => entry_values(model, coords),
        Query::Slice { mode, index } => {
            let len = query::slice_len(model, *mode as usize).map_err(to_bad)?;
            let mut out = vec![0.0; len];
            query::slice_values(model, *mode as usize, *index, arena, &mut out).map_err(to_bad)?;
            Ok(QueryResult::Slice(Arc::new(out)))
        }
        Query::TopK { mode, k, fixed } => {
            let mut out = Vec::new();
            query::top_k(model, *mode as usize, *k as usize, fixed, arena, &mut out)
                .map_err(to_bad)?;
            Ok(QueryResult::TopK(Arc::new(out)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatt_core::reference::kruskal_value;
    use splatt_core::KruskalModel;
    use splatt_dense::Matrix;

    fn model() -> KruskalModel {
        KruskalModel {
            lambda: vec![2.0, 0.5],
            factors: vec![
                Matrix::random(6, 2, 40),
                Matrix::random(4, 2, 41),
                Matrix::random(5, 2, 42),
            ],
        }
    }

    fn engine() -> Arc<ServeEngine> {
        let eng = ServeEngine::start(ServeConfig::default());
        eng.publish("m", model());
        eng
    }

    #[test]
    fn entry_queries_match_the_oracle() {
        let eng = engine();
        let root = CancelToken::new();
        let m = model();
        let result = eng
            .query(
                "m",
                0,
                Query::Entry {
                    coords: vec![0, 0, 0, 5, 3, 4],
                },
                None,
                &root,
                || false,
            )
            .unwrap();
        match result {
            QueryResult::Entries(vals) => {
                assert_eq!(vals.len(), 2);
                assert_eq!(
                    vals[0].to_bits(),
                    kruskal_value(&m.lambda, &m.factors, &[0, 0, 0]).to_bits()
                );
                assert_eq!(
                    vals[1].to_bits(),
                    kruskal_value(&m.lambda, &m.factors, &[5, 3, 4]).to_bits()
                );
            }
            other => panic!("unexpected result {other:?}"),
        }
        eng.shutdown();
    }

    #[test]
    fn slice_results_are_cached() {
        let eng = engine();
        let root = CancelToken::new();
        let q = Query::Slice { mode: 1, index: 2 };
        let a = eng.query("m", 0, q.clone(), None, &root, || false).unwrap();
        let hits_before = eng.cache().hits();
        let b = eng.query("m", 0, q, None, &root, || false).unwrap();
        assert_eq!(eng.cache().hits(), hits_before + 1);
        match (a, b) {
            (QueryResult::Slice(x), QueryResult::Slice(y)) => {
                assert!(Arc::ptr_eq(&x, &y), "hit should share the buffer");
                assert_eq!(x.len(), 6 * 5);
            }
            other => panic!("unexpected results {other:?}"),
        }
        eng.shutdown();
    }

    #[test]
    fn typed_errors_for_missing_models_and_bad_queries() {
        let eng = engine();
        let root = CancelToken::new();
        assert!(matches!(
            eng.query(
                "ghost",
                0,
                Query::Slice { mode: 0, index: 0 },
                None,
                &root,
                || false
            ),
            Err(ServeError::ModelNotFound { .. })
        ));
        assert!(matches!(
            eng.query(
                "m",
                0,
                Query::Slice { mode: 7, index: 0 },
                None,
                &root,
                || { false }
            ),
            Err(ServeError::BadQuery(_))
        ));
        assert!(matches!(
            eng.query(
                "m",
                0,
                Query::TopK {
                    mode: 0,
                    k: 3,
                    fixed: vec![0],
                },
                None,
                &root,
                || false
            ),
            Err(ServeError::BadQuery(_))
        ));
        // Out-of-range coordinate is caught by the kernel and typed.
        assert!(matches!(
            eng.query(
                "m",
                0,
                Query::Entry {
                    coords: vec![0, 9, 0],
                },
                None,
                &root,
                || false
            ),
            Err(ServeError::BadQuery(_))
        ));
        eng.shutdown();
    }

    #[test]
    fn zero_deadline_expires_as_typed_error() {
        let eng = engine();
        let root = CancelToken::new();
        let err = eng
            .query(
                "m",
                0,
                Query::Slice { mode: 0, index: 0 },
                Some(Duration::ZERO),
                &root,
                || false,
            )
            .unwrap_err();
        assert_eq!(err, ServeError::DeadlineExpired);
        assert!(eng.stats().counters.snapshot().deadline_rejections >= 1);
        eng.shutdown();
    }

    #[test]
    fn cancelled_token_refuses_before_any_work() {
        let eng = engine();
        let root = CancelToken::new();
        root.cancel();
        let err = eng
            .query(
                "m",
                0,
                Query::Slice { mode: 0, index: 1 },
                None,
                &root,
                || false,
            )
            .unwrap_err();
        assert_eq!(err, ServeError::Cancelled);
        eng.shutdown();
    }

    #[test]
    fn shutdown_rejects_new_work_and_is_idempotent() {
        let eng = engine();
        eng.shutdown();
        eng.shutdown();
        let root = CancelToken::new();
        assert_eq!(
            eng.query(
                "m",
                0,
                Query::Slice { mode: 0, index: 0 },
                None,
                &root,
                || false
            )
            .unwrap_err(),
            ServeError::ShuttingDown
        );
    }

    #[test]
    fn evict_drops_cache_and_resolution() {
        let eng = engine();
        let root = CancelToken::new();
        let q = Query::TopK {
            mode: 0,
            k: 3,
            fixed: vec![1, 1],
        };
        eng.query("m", 0, q.clone(), None, &root, || false).unwrap();
        assert_eq!(eng.cache().len(), 1);
        assert_eq!(eng.evict("m", 0), 1);
        assert_eq!(eng.cache().len(), 0);
        assert!(matches!(
            eng.query("m", 0, q, None, &root, || false),
            Err(ServeError::ModelNotFound { .. })
        ));
        eng.shutdown();
    }

    #[test]
    fn evict_all_versions_drops_every_cached_version() {
        // version == 0 means "every version": both the registry entries
        // and all version-keyed cache lines for the name must go, while
        // other models' cache lines survive.
        let eng = engine(); // publishes "m" v1
        eng.publish("m", model()); // v2
        eng.publish("other", model());
        let root = CancelToken::new();
        let q = Query::TopK {
            mode: 0,
            k: 3,
            fixed: vec![1, 1],
        };
        // cache a result at each explicit version plus one for "other"
        eng.query("m", 1, q.clone(), None, &root, || false).unwrap();
        eng.query("m", 2, q.clone(), None, &root, || false).unwrap();
        eng.query("other", 1, q.clone(), None, &root, || false)
            .unwrap();
        assert_eq!(eng.cache().len(), 3);

        assert_eq!(eng.evict("m", 0), 2, "both versions evicted");
        assert_eq!(
            eng.cache().len(),
            1,
            "every cached version of 'm' must be invalidated"
        );
        for version in [0, 1, 2] {
            assert!(matches!(
                eng.query("m", version, q.clone(), None, &root, || false),
                Err(ServeError::ModelNotFound { .. })
            ));
        }
        // the survivor is still served (from cache — no new miss needed)
        let hits_before = eng.cache().hits();
        eng.query("other", 1, q, None, &root, || false).unwrap();
        assert_eq!(eng.cache().hits(), hits_before + 1);
        // re-publishing never reuses an evicted version number
        assert_eq!(eng.publish("m", model()), 3);
        eng.shutdown();
    }

    #[test]
    fn profile_report_carries_serve_row() {
        let eng = engine();
        let root = CancelToken::new();
        for i in 0..4 {
            eng.query(
                "m",
                0,
                Query::Entry {
                    coords: vec![i, 0, 0],
                },
                None,
                &root,
                || false,
            )
            .unwrap();
        }
        let report = eng.profile_report();
        let serve = report.serve.clone().expect("serve row");
        assert_eq!(serve.kinds.len(), 1);
        assert_eq!(serve.kinds[0].kind, "entry");
        assert_eq!(serve.kinds[0].requests, 4);
        // Every computed query runs on its caller; nothing is batched.
        assert_eq!((serve.caller_runs, serve.batches), (4, 0));
        // A scan too.
        eng.query(
            "m",
            0,
            Query::Slice { mode: 1, index: 2 },
            None,
            &root,
            || false,
        )
        .unwrap();
        let report = eng.profile_report();
        let serve = report.serve.clone().expect("serve row");
        assert_eq!((serve.caller_runs, serve.batches), (5, 0));
        assert_eq!(serve.batched_requests, 0);
        let json = report.to_json();
        assert!(json.contains("\"serve\": {"), "json: {json}");
        eng.shutdown();
    }
}
