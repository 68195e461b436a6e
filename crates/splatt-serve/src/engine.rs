//! The serving engine: admission control in front of two execution
//! paths — caller-runs for point reads, a micro-batching scheduler over
//! a `splatt-par` task team for everything else.
//!
//! Request flow:
//!
//! 1. [`ServeEngine::query`] admits the request through the
//!    [`AdmissionGate`] (at capacity → typed
//!    [`ServeError::Overloaded`], immediately), resolves the model and
//!    validates the query against it.
//! 2. An `Entry` query of at most [`Query::CALLER_RUNS_COORDS`]
//!    coordinates (a property of the request, not a setting) is
//!    computed right there, on the calling thread, and comes back as an
//!    already-filled ticket. Its kernel is a few hundred nanoseconds;
//!    queueing it cost two thread hand-offs and a condvar round trip,
//!    forty times the arithmetic. It never reaches the scheduler, forms
//!    no batch and cannot wait, which is what lets the TCP front end
//!    answer it on the reactor thread. It counts through
//!    [`ServeStats::record_caller_run`].
//! 3. Slice and top-k requests consult the LRU result cache; a hit
//!    returns the same kind of filled ticket without touching the
//!    scheduler.
//! 4. Everything else — scans that missed the cache, shard-scoped
//!    queries, large entry batches — is queued. A dedicated batcher
//!    thread drains the queue, coalesces requests by `(model version,
//!    query kind)`, and fans each batch out over the task team with
//!    static block partitioning — every task reconstructs with its own
//!    grow-only [`QueryArena`], so the steady-state hot path is
//!    allocation-free after warm-up.
//! 5. The caller blocks on a response slot with a deadline: expired
//!    requests come back as typed [`ServeError::DeadlineExpired`]
//!    (whether they expired in queue or while the caller waited), and a
//!    caller-supplied abort poll (the TCP front end's disconnect
//!    detector) turns an abandoned wait into cooperative cancellation —
//!    a request never hangs. A filled ticket returns at once.
//!
//! Latency per kind (both paths), batch sizes, caller-run and cache
//! traffic, sheds, and arena growth all land in [`ServeStats`],
//! surfaced as the probe schema's `serve` object via
//! [`ServeEngine::profile_report`].

use crate::cache::{CacheKey, CacheValue, ResultCache};
use crate::cluster::MAX_SHARDS;
use crate::protocol::ShardSel;
use crate::registry::{ModelRegistry, ServableModel};
use crate::stats::{QueryKind, ServeStats};
use splatt_core::query::{self, QueryArena};
use splatt_core::KruskalModel;
use splatt_guard::{AdmissionGate, CancelToken, Overloaded};
use splatt_par::{partition, TaskLocal, TaskTeam};
use splatt_probe::ProfileReport;
use splatt_rt::sync::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker tasks executing batched queries.
    pub ntasks: usize,
    /// Admission-gate depth: requests in flight beyond this are shed.
    pub max_depth: usize,
    /// Largest batch the scheduler coalesces per (model, kind) group.
    pub max_batch: usize,
    /// LRU result-cache capacity (entries); 0 disables caching.
    pub cache_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
    /// Reject slices (and entry batches) larger than this many values.
    pub max_response_values: usize,
    /// How long shutdown keeps executing already-queued requests before
    /// failing the remainder with [`ServeError::ShuttingDown`]. New
    /// submissions are rejected the moment shutdown starts.
    pub drain_deadline: Duration,
    /// Cluster identity reported by `Health` probes: worker rank and
    /// shard. `u32::MAX` means "not part of a cluster".
    pub worker: u32,
    /// See [`ServeConfig::worker`].
    pub shard: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            ntasks: 4,
            max_depth: 256,
            max_batch: 64,
            cache_capacity: 256,
            default_deadline: Duration::from_secs(5),
            max_response_values: 1 << 22,
            drain_deadline: Duration::from_secs(2),
            worker: u32::MAX,
            shard: u32::MAX,
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
    /// Shard-local top-k over mode 0: score only the mode-0 indices
    /// `sel` owns and return the `k` best partials (the cluster router
    /// merges partials from every shard).
    TopKShard {
        mode: u8,
        k: u32,
        fixed: Vec<u32>,
        sel: ShardSel,
    },
    /// Shard-local piece of a `mode != 0` slice: the mode-0 blocks `sel`
    /// owns, concatenated in ascending row order (the router stitches
    /// them back at each row's offset).
    SliceShard { mode: u8, index: u32, sel: ShardSel },
}

impl Query {
    /// Largest `Entry` query, in coordinates (tuples × order), that the
    /// engine computes on the thread that submits it instead of
    /// queueing it for the batcher — and that the TCP front end
    /// therefore answers on its reactor thread.
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
    ///
    /// [`ServeEngine::query`] on an `Entry` this small never waits for
    /// another thread.
    pub const CALLER_RUNS_COORDS: usize = 64;

    /// The kind bucket this query records under. Shard-scoped queries
    /// record under their parent kind — they are the same kernels over a
    /// row subset, and keeping the kind set stable keeps the probe
    /// schema's per-kind rows comparable between cluster and
    /// single-process runs.
    pub fn kind(&self) -> QueryKind {
        match self {
            Query::Entry { .. } => QueryKind::Entry,
            Query::Slice { .. } | Query::SliceShard { .. } => QueryKind::Slice,
            Query::TopK { .. } | Query::TopKShard { .. } => QueryKind::TopK,
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

enum SlotState {
    Waiting,
    Done(Result<QueryResult, ServeError>),
    /// The waiter gave up (deadline/cancel); late fills are dropped.
    Abandoned,
    /// The waiter took the result out.
    Consumed,
}

/// One-shot rendezvous between a waiting caller and the batcher.
struct ResponseSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl ResponseSlot {
    fn new() -> Arc<Self> {
        Arc::new(ResponseSlot {
            state: Mutex::new(SlotState::Waiting),
            ready: Condvar::new(),
        })
    }

    fn prefilled(result: Result<QueryResult, ServeError>) -> Arc<Self> {
        Arc::new(ResponseSlot {
            state: Mutex::new(SlotState::Done(result)),
            ready: Condvar::new(),
        })
    }

    /// Deliver a result; returns false if the waiter already abandoned.
    fn fill(&self, result: Result<QueryResult, ServeError>) -> bool {
        let mut state = self.state.lock();
        if matches!(*state, SlotState::Waiting) {
            *state = SlotState::Done(result);
            self.ready.notify_all();
            true
        } else {
            false
        }
    }
}

/// A submitted request the caller can block on via [`ServeEngine::wait`].
pub struct Ticket {
    slot: Arc<ResponseSlot>,
    kind: QueryKind,
    submitted: Instant,
    deadline: Instant,
    cancel: CancelToken,
}

struct Pending {
    model: Arc<ServableModel>,
    query: Query,
    slot: Arc<ResponseSlot>,
    deadline: Instant,
    cancel: CancelToken,
}

struct EngineQueue {
    pending: VecDeque<Pending>,
    closed: bool,
    /// When the queue closed; the batcher drains queued work normally
    /// until `ServeConfig::drain_deadline` past this instant.
    closed_at: Option<Instant>,
}

/// The serving engine; see the module docs. Create with
/// [`ServeEngine::start`] and stop with [`ServeEngine::shutdown`] —
/// the batcher thread keeps the engine alive until then.
pub struct ServeEngine {
    config: ServeConfig,
    registry: ModelRegistry,
    cache: ResultCache,
    gate: AdmissionGate,
    stats: ServeStats,
    queue: Mutex<EngineQueue>,
    wake: Condvar,
    shutdown: CancelToken,
    batcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ServeEngine {
    /// Build the engine and start its batcher thread.
    pub fn start(config: ServeConfig) -> Arc<ServeEngine> {
        let engine = Arc::new(ServeEngine {
            registry: ModelRegistry::new(),
            cache: ResultCache::new(config.cache_capacity),
            gate: AdmissionGate::new(config.max_depth),
            stats: ServeStats::new(),
            queue: Mutex::new(EngineQueue {
                pending: VecDeque::new(),
                closed: false,
                closed_at: None,
            }),
            wake: Condvar::new(),
            shutdown: CancelToken::new(),
            batcher: Mutex::new(None),
            config,
        });
        let worker = Arc::clone(&engine);
        let handle = std::thread::Builder::new()
            .name("splatt-serve-batcher".into())
            .spawn(move || run_batcher(&worker))
            .expect("spawn batcher thread");
        *engine.batcher.lock() = Some(handle);
        engine
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

    /// The engine-level cancel token; tripping it starts shutdown
    /// (pair with [`ServeEngine::shutdown`] to also join the batcher).
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

    /// Admit, submit, and block for the answer. `poll_abort` is checked
    /// while waiting (return true to abandon — the TCP front end passes
    /// its disconnect detector); pass `|| false` when the caller cannot
    /// go away.
    ///
    /// # Errors
    /// Every failure is a typed [`ServeError`]; this never blocks past
    /// the request deadline.
    pub fn query(
        &self,
        name: &str,
        version: u64,
        query: Query,
        deadline: Option<Duration>,
        cancel: &CancelToken,
        poll_abort: impl FnMut() -> bool,
    ) -> Result<QueryResult, ServeError> {
        let _permit = self.gate.try_admit().map_err(ServeError::Overloaded)?;
        let ticket = self.submit(name, version, query, deadline, cancel)?;
        self.wait(ticket, poll_abort)
    }

    /// Queue a request — or answer it on this thread, when it is an
    /// `Entry` within [`Query::CALLER_RUNS_COORDS`] or hits the result
    /// cache — and return a ticket to wait on. Callers that want shedding must admit through
    /// [`ServeEngine::gate`] first and hold the permit until the wait
    /// returns; [`ServeEngine::query`] does both.
    ///
    /// # Errors
    /// Fails fast with [`ServeError::ShuttingDown`],
    /// [`ServeError::ModelNotFound`], or [`ServeError::BadQuery`].
    pub fn submit(
        &self,
        name: &str,
        version: u64,
        query: Query,
        deadline: Option<Duration>,
        cancel: &CancelToken,
    ) -> Result<Ticket, ServeError> {
        if self.shutdown.is_cancelled() {
            return Err(ServeError::ShuttingDown);
        }
        let model = self
            .registry
            .get(name, version)
            .ok_or_else(|| ServeError::ModelNotFound {
                name: name.to_string(),
                version,
            })?;
        self.validate(&model, &query)?;
        let submitted = Instant::now();
        let deadline = submitted + deadline.unwrap_or(self.config.default_deadline);
        let kind = query.kind();
        let ready = |result| Ticket {
            slot: ResponseSlot::prefilled(result),
            kind,
            submitted,
            deadline,
            // A filled slot is never waited on, so its token is never
            // polled: no child to allocate and track.
            cancel: cancel.clone(),
        };

        match &query {
            Query::Entry { coords } if coords.len() <= Query::CALLER_RUNS_COORDS => {
                self.stats.record_caller_run();
                return Ok(ready(entry_values(&model.model, coords)));
            }
            _ => {}
        }
        if let Some(hit) = self.cache_lookup(&model, &query) {
            return Ok(ready(Ok(hit)));
        }

        let slot = ResponseSlot::new();
        // One child per request: the Pending and the Ticket share it
        // (clones share the flag), halving what the connection token
        // has to track.
        let cancel = cancel.child();
        let pending = Pending {
            model,
            query,
            slot: Arc::clone(&slot),
            deadline,
            cancel: cancel.clone(),
        };
        {
            let mut q = self.queue.lock();
            if q.closed {
                return Err(ServeError::ShuttingDown);
            }
            q.pending.push_back(pending);
        }
        self.wake.notify_all();
        Ok(Ticket {
            slot,
            kind,
            submitted,
            deadline,
            cancel,
        })
    }

    /// Block until the ticket resolves, its deadline expires, its cancel
    /// token trips, or `poll_abort` returns true.
    pub fn wait(
        &self,
        ticket: Ticket,
        mut poll_abort: impl FnMut() -> bool,
    ) -> Result<QueryResult, ServeError> {
        let mut state = ticket.slot.state.lock();
        loop {
            match std::mem::replace(&mut *state, SlotState::Consumed) {
                SlotState::Done(result) => {
                    if result.is_ok() {
                        // Latency is recorded by the receiving side so the
                        // per-kind request count matches answers delivered.
                        self.stats.record_latency(
                            ticket.kind,
                            ticket.submitted.elapsed().as_micros() as u64,
                        );
                    }
                    return result;
                }
                SlotState::Waiting => {
                    *state = SlotState::Waiting;
                    if ticket.cancel.is_cancelled() || poll_abort() {
                        *state = SlotState::Abandoned;
                        return Err(ServeError::Cancelled);
                    }
                    let now = Instant::now();
                    if now >= ticket.deadline {
                        *state = SlotState::Abandoned;
                        self.stats.record_deadline_rejection();
                        return Err(ServeError::DeadlineExpired);
                    }
                    let nap = (ticket.deadline - now).min(Duration::from_millis(25));
                    ticket.slot.ready.wait_timeout(&mut state, nap);
                }
                other => {
                    // Single-waiter protocol: only this method consumes.
                    *state = other;
                    return Err(ServeError::Cancelled);
                }
            }
        }
    }

    /// Begin shutdown and join the batcher. New submissions are rejected
    /// immediately with [`ServeError::ShuttingDown`]; requests already
    /// queued keep executing (and their responses keep flowing) until
    /// [`ServeConfig::drain_deadline`] elapses, after which the
    /// remainder is failed typed. Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.cancel();
        {
            let mut q = self.queue.lock();
            q.closed = true;
            q.closed_at.get_or_insert(Instant::now());
        }
        self.wake.notify_all();
        let handle = self.batcher.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// A probe report with the schema v5 `serve` object populated.
    pub fn profile_report(&self) -> ProfileReport {
        ProfileReport {
            ntasks: self.config.ntasks,
            serve: Some(self.stats.to_row(
                self.cache.hits(),
                self.cache.misses(),
                self.cache.evictions(),
                self.gate.sheds(),
            )),
            ..Default::default()
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
            Query::TopKShard {
                mode,
                k,
                fixed,
                sel,
                ..
            } => {
                Self::validate_sel(sel)?;
                if *mode != 0 {
                    return bad("shard top-k partitions mode 0 only".into());
                }
                if order == 0 || fixed.len() + 1 != order {
                    return bad(format!(
                        "{} fixed coordinates for an order-{order} top-k",
                        fixed.len()
                    ));
                }
                if *k as usize > self.config.max_response_values {
                    return bad("k too large".into());
                }
            }
            Query::SliceShard { mode, sel, .. } => {
                Self::validate_sel(sel)?;
                if *mode == 0 {
                    return bad("mode-0 slices are whole-shard; use Slice".into());
                }
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
        }
        Ok(())
    }

    fn validate_sel(sel: &ShardSel) -> Result<(), ServeError> {
        // `nshards` sizes the hash ring the worker rebuilds for the
        // query, so it is bounded before anything is built from it.
        if sel.nshards > MAX_SHARDS {
            return Err(ServeError::BadQuery(format!(
                "{} shards exceed the limit of {MAX_SHARDS}",
                sel.nshards
            )));
        }
        if sel.nshards == 0 || sel.shard >= sel.nshards {
            return Err(ServeError::BadQuery(format!(
                "shard {} out of range for {} shard(s)",
                sel.shard, sel.nshards
            )));
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
            Query::SliceShard { mode, index, sel } => Some(CacheKey::SliceShard {
                model: model.name.clone(),
                version: model.version,
                mode: *mode,
                index: *index,
                sel: *sel,
            }),
            Query::TopKShard {
                mode,
                k,
                fixed,
                sel,
            } => Some(CacheKey::TopKShard {
                model: model.name.clone(),
                version: model.version,
                mode: *mode,
                k: *k,
                fixed: fixed.clone(),
                sel: *sel,
            }),
        }
    }

    fn cache_lookup(&self, model: &ServableModel, query: &Query) -> Option<QueryResult> {
        let key = Self::cache_key(model, query)?;
        match self.cache.get(&key)? {
            CacheValue::Slice(v) => Some(QueryResult::Slice(v)),
            CacheValue::TopK(v) => Some(QueryResult::TopK(v)),
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

/// Execute one query against its model with a task-local arena.
fn run_one(item: &Pending, arena: &mut QueryArena) -> Result<QueryResult, ServeError> {
    let model = &item.model.model;
    let to_bad = |e: query::QueryError| ServeError::BadQuery(e.to_string());
    match &item.query {
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
        Query::TopKShard {
            mode,
            k,
            fixed,
            sel,
        } => {
            let rows = item.model.owned_rows(*sel);
            let mut out = Vec::new();
            query::top_k_rows(
                model,
                *mode as usize,
                *k as usize,
                fixed,
                &rows,
                arena,
                &mut out,
            )
            .map_err(to_bad)?;
            Ok(QueryResult::TopK(Arc::new(out)))
        }
        Query::SliceShard { mode, index, sel } => {
            let dim = model.factors[0].rows();
            let rows = item.model.owned_rows(*sel);
            let len = query::slice_len(model, *mode as usize).map_err(to_bad)?;
            let block = len.checked_div(dim).unwrap_or(0);
            let mut out = vec![0.0; rows.len() * block];
            query::slice_values_rows(model, *mode as usize, *index, &rows, arena, &mut out)
                .map_err(to_bad)?;
            Ok(QueryResult::Slice(Arc::new(out)))
        }
    }
}

fn run_batcher(engine: &Arc<ServeEngine>) {
    let ntasks = engine.config.ntasks.max(1);
    let team = TaskTeam::new(ntasks);
    let arenas: TaskLocal<QueryArena> = TaskLocal::new(ntasks, |_| QueryArena::new());
    loop {
        let drained: Vec<Pending> = {
            let mut q = engine.queue.lock();
            while q.pending.is_empty() && !q.closed {
                engine.wake.wait(&mut q);
            }
            if q.pending.is_empty() && q.closed {
                break;
            }
            // Graceful drain: after close, keep executing already-queued
            // batches until the drain deadline, then fail the remainder
            // typed. Submissions are rejected from the moment of close,
            // so the queue only shrinks here.
            let drain_expired = q
                .closed_at
                .is_some_and(|at| at.elapsed() >= engine.config.drain_deadline);
            let items: Vec<Pending> = q.pending.drain(..).collect();
            if drain_expired {
                drop(q);
                for item in items {
                    item.slot.fill(Err(ServeError::ShuttingDown));
                }
                break;
            }
            items
        };

        // Coalesce by (model version identity, query kind).
        let mut groups: HashMap<(usize, &'static str), Vec<Pending>> = HashMap::new();
        for item in drained {
            let key = (Arc::as_ptr(&item.model) as usize, item.query.kind().label());
            groups.entry(key).or_default().push(item);
        }
        for (_, items) in groups {
            for chunk in items.chunks(engine.config.max_batch.max(1)) {
                execute_batch(engine, &team, &arenas, chunk);
            }
        }
    }
}

fn execute_batch(
    engine: &ServeEngine,
    team: &TaskTeam,
    arenas: &TaskLocal<QueryArena>,
    items: &[Pending],
) {
    // Pre-pass: fail requests that died in queue without spending
    // compute on them.
    let mut live: Vec<&Pending> = Vec::with_capacity(items.len());
    let now = Instant::now();
    for item in items {
        // The engine shutdown token is deliberately NOT checked here:
        // requests already queued at shutdown are drained, not dropped.
        if item.cancel.is_cancelled() {
            item.slot.fill(Err(ServeError::Cancelled));
        } else if now >= item.deadline {
            if item.slot.fill(Err(ServeError::DeadlineExpired)) {
                engine.stats.record_deadline_rejection();
            }
        } else {
            live.push(item);
        }
    }
    if live.is_empty() {
        return;
    }
    engine.stats.record_batch(live.len() as u64);

    let ntasks = team.ntasks();
    let live = &live;
    team.coforall(|tid| {
        for i in partition::block(live.len(), ntasks, tid) {
            let item = live[i];
            let result = arenas.with_mut(tid, |arena| run_one(item, arena));
            if let (Ok(ok), Some(key)) = (&result, ServeEngine::cache_key(&item.model, &item.query))
            {
                let value = match ok {
                    QueryResult::Slice(v) => Some(CacheValue::Slice(Arc::clone(v))),
                    QueryResult::TopK(v) => Some(CacheValue::TopK(Arc::clone(v))),
                    QueryResult::Entries(_) => None,
                };
                if let Some(value) = value {
                    // Re-check the registry: an evict() that ran while we
                    // computed already invalidated this model's entries,
                    // and inserting now would resurrect one. The sliver
                    // between this check and the insert is benign —
                    // versions are never reused, so a raced entry is
                    // unreachable and ages out via LRU.
                    if engine
                        .registry
                        .contains(&item.model.name, item.model.version)
                    {
                        engine.cache.insert(key, value);
                    }
                }
            }
            item.slot.fill(result);
        }
    });

    // Publish the aggregate arena growth after every batch: flat after
    // warm-up is the allocation-free certification signal.
    let (mut allocs, mut bytes) = (0u64, 0u64);
    arenas.for_each(|_, a| {
        allocs += a.growth_allocs();
        bytes += a.growth_bytes();
    });
    engine.stats.set_arena_growth(allocs, bytes);
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
        let eng = ServeEngine::start(ServeConfig {
            ntasks: 2,
            ..Default::default()
        });
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
    fn cancelled_token_abandons_the_wait() {
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
        // Point reads run on their caller: counted, never batched.
        assert_eq!((serve.caller_runs, serve.batches), (4, 0));
        // A scan is what the batcher is for.
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
        assert!(serve.batches >= 1);
        assert_eq!(serve.caller_runs, 4);
        let json = report.to_json();
        assert!(json.contains("\"serve\": {"), "json: {json}");
        eng.shutdown();
    }
}
