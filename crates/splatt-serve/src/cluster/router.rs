//! The scatter-gather router: one front end over N×M shard workers.
//!
//! The router speaks the exact same wire protocol as a single-process
//! server, so clients cannot tell a cluster from one worker — except
//! that answers keep flowing while shards die under them. Per incoming
//! query it:
//!
//! 1. **Routes** by consistent hash over the mode-0 coordinate
//!    ([`ShardRing`]): entry tuples group by `shard_of(coords[0])`,
//!    mode-0 slices go whole to the owner, `mode != 0` slices and
//!    mode-0 top-k scatter shard-scoped sub-queries to every shard.
//! 2. **Fails over**: each shard call sweeps the shard's replica set in
//!    health order (`Live` first, `Suspect` next, `Dead` skipped).
//!    Transport failures mark the replica and move to the next; typed
//!    transient errors (`Overloaded`, `ShuttingDown`) try a sibling
//!    without a health penalty. When the whole sweep fails, the router
//!    backs off with the same capped-exponential [`RetryPolicy`] the
//!    client retry helper uses, clamped to the request's [`Deadline`],
//!    and sweeps again.
//! 3. **Degrades typed**: a shard whose every replica is `Dead` yields
//!    `WireError::Degraded` — the answer is absent, never silently
//!    partial.
//! 4. **Merges bit-identically**: top-k partials merge with the same
//!    `(score desc by total_cmp, index asc)` comparator the
//!    single-process kernel sorts with, and slice blocks stitch at each
//!    owned row's offset — so a cluster answer is bit-for-bit the
//!    single-process oracle's.
//!
//! A background pinger probes every worker (`Health` op) on a short
//! interval, re-admitting `Dead` workers whose probe succeeds and
//! recording per-shard replica lag (max−min probe round-trip). An
//! optional [`NetFaultPlan`] lets tests inject deterministic replica
//! delays and frame corruption at the router's transport seam.

use super::health::HealthBoard;
use super::shard::{ShardMap, ShardRing};
use super::shared::{ShardView, SharedModel};
use crate::client::{classify, Client, Transience};
use crate::protocol::{
    decode_request, decode_response, encode_response, Request, RequestBody, Response, ShardSel,
    WireError, MAX_FRAME,
};
use crate::service::{accept_shed_frame, backstop_frame, peek_deadline, shed_frame};
use crate::stats::ServeStats;
use splatt_faults::NetFaultPlan;
use splatt_guard::{CancelToken, Deadline, RetryPolicy};
use splatt_net::{
    serve_frames, Disposition, FrameService, NetCounters, NetHandle, NetSnapshot, ReactorConfig,
    Reply, RequestCtx, ShedLayer,
};
use splatt_probe::{ProfileReport, ShardCounters, ShardRow};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Hash-range shards (ring partitions of mode 0).
    pub nshards: usize,
    /// Workers replicating each shard.
    pub nreplicas: usize,
    /// Ring seed; carried in every [`ShardSel`] so workers re-derive
    /// identical ownership.
    pub seed: u64,
    /// Backoff between failed replica sweeps — the same policy shape
    /// [`Client::call_with_retry`] uses.
    pub retry: RetryPolicy,
    /// Deadline for requests that do not carry their own.
    pub default_deadline: Duration,
    /// Consecutive transport failures before a worker is `Dead`.
    pub dead_after: u32,
    /// Pause between health-probe sweeps.
    pub health_interval: Duration,
    /// Per-dial timeout when connecting to a worker.
    pub connect_timeout: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nshards: 3,
            nreplicas: 2,
            seed: 0x51a77,
            retry: RetryPolicy::default(),
            default_deadline: Duration::from_secs(5),
            dead_after: 2,
            health_interval: Duration::from_millis(25),
            connect_timeout: Duration::from_millis(500),
        }
    }
}

/// The scatter-gather router; see the module docs.
pub struct Router {
    config: ClusterConfig,
    map: ShardMap,
    ring: ShardRing,
    model: SharedModel,
    /// Each shard's owned mode-0 rows, for stitching slice partials.
    views: Vec<ShardView>,
    workers: Vec<SocketAddr>,
    health: HealthBoard,
    counters: Vec<ShardCounters>,
    stats: ServeStats,
    faults: Option<Arc<NetFaultPlan>>,
    /// Monotonic routed-sub-query counter: the fault plan's site
    /// "iteration" coordinate.
    seq: AtomicUsize,
    stop: CancelToken,
}

impl Router {
    /// Build a router over `workers` (rank order: `shard * nreplicas +
    /// replica`, the [`ShardMap`] layout).
    ///
    /// # Panics
    /// Panics when `workers.len() != nshards * nreplicas`.
    pub fn new(config: ClusterConfig, model: SharedModel, workers: Vec<SocketAddr>) -> Router {
        let map = ShardMap::new(config.nshards, config.nreplicas);
        assert_eq!(
            workers.len(),
            map.nworkers(),
            "worker list does not tile the [nshards, nreplicas] grid"
        );
        let ring = ShardRing::new(config.nshards, config.seed);
        let views = (0..config.nshards as u32)
            .map(|shard| model.view(&ring, shard))
            .collect();
        let counters = (0..config.nshards)
            .map(|_| ShardCounters::default())
            .collect();
        let health = HealthBoard::new(workers.len(), config.dead_after);
        Router {
            map,
            ring,
            model,
            views,
            workers,
            health,
            counters,
            stats: ServeStats::new(),
            faults: None,
            seq: AtomicUsize::new(0),
            stop: CancelToken::new(),
            config,
        }
    }

    /// Inject a deterministic fault schedule at the transport seam.
    pub fn with_faults(mut self, plan: Arc<NetFaultPlan>) -> Router {
        self.faults = Some(plan);
        self
    }

    /// The router's stop token (shared with its front end and pinger).
    pub fn stop_token(&self) -> &CancelToken {
        &self.stop
    }

    /// Health ledger over the worker set.
    pub fn health(&self) -> &HealthBoard {
        &self.health
    }

    /// Worker addresses by rank.
    pub fn workers(&self) -> &[SocketAddr] {
        &self.workers
    }

    /// The shard/replica placement grid.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Total sub-queries routed so far (the storm-progress numerator the
    /// kill schedule is driven by).
    pub fn routed(&self) -> usize {
        self.seq.load(Ordering::Relaxed)
    }

    /// Answer one protocol request, scatter-gathering across shards.
    pub fn handle(&self, req: &Request) -> Response {
        let deadline = Deadline::after(if req.deadline_ms > 0 {
            Duration::from_millis(u64::from(req.deadline_ms))
        } else {
            self.config.default_deadline
        });
        let started = Instant::now();
        let kind = match &req.body {
            RequestBody::Entry { .. } => Some(crate::stats::QueryKind::Entry),
            RequestBody::Slice { .. } => Some(crate::stats::QueryKind::Slice),
            RequestBody::TopK { .. } => Some(crate::stats::QueryKind::TopK),
            _ => None,
        };
        let resp = match &req.body {
            RequestBody::Stats => Response::Stats(self.profile_report().to_json()),
            RequestBody::List => self.call_shard(
                0,
                &self.sub_request(req, RequestBody::List, &deadline),
                &deadline,
            ),
            RequestBody::Shutdown => Response::Ack,
            RequestBody::Health => Response::Health {
                worker: u32::MAX,
                shard: u32::MAX,
            },
            RequestBody::Entry { order, coords } => self.entry(req, *order, coords, &deadline),
            RequestBody::Slice { mode, index } => self.slice(req, *mode, *index, &deadline),
            RequestBody::TopK { mode, k, fixed } => self.top_k(req, *mode, *k, fixed, &deadline),
            RequestBody::TopKShard { .. } | RequestBody::SliceShard { .. } => Response::Error(
                WireError::BadRequest,
                "shard-scoped ops are router-internal".into(),
            ),
        };
        if let (Some(kind), false) = (kind, matches!(resp, Response::Error(..))) {
            self.stats
                .record_latency(kind, started.elapsed().as_micros() as u64);
        }
        resp
    }

    /// Probe report with the schema v10 `serve` object: router-side
    /// latency histograms plus the per-shard failover counters (the
    /// front end splices its `net` row in before serialising).
    pub fn profile_report(&self) -> ProfileReport {
        let mut row = self.stats.to_row(0, 0, 0, 0);
        row.shards = (0..self.config.nshards)
            .map(|shard| {
                let replicas = self.map.replicas(shard);
                let transitions = replicas.iter().map(|&w| self.health.transitions_of(w));
                ShardRow {
                    health_transitions: transitions.sum(),
                    ..self.counters[shard].snapshot()
                }
            })
            .collect();
        ProfileReport {
            ntasks: self.map.nworkers(),
            serve: Some(row),
            ..Default::default()
        }
    }

    fn sub_request(&self, req: &Request, body: RequestBody, deadline: &Deadline) -> Request {
        Request {
            deadline_ms: deadline
                .remaining()
                .as_millis()
                .clamp(1, u128::from(u32::MAX)) as u32,
            model: req.model.clone(),
            version: req.version,
            body,
        }
    }

    fn sel(&self, shard: usize) -> ShardSel {
        ShardSel {
            shard: shard as u32,
            nshards: self.config.nshards as u32,
            seed: self.config.seed,
        }
    }

    /// One transport-level call to worker `rank`, with the fault plan's
    /// delay/corruption hooks applied. A fresh connection per call keeps
    /// a killed worker's cost to one failed dial.
    fn call_worker(
        &self,
        rank: usize,
        req: &Request,
        qidx: usize,
        deadline: &Deadline,
    ) -> std::io::Result<Response> {
        if let Some(faults) = &self.faults {
            if let Some(delay) = faults.delay_before_send(qidx, rank) {
                std::thread::sleep(deadline.clamp(delay));
            }
        }
        let mut client =
            Client::connect_with_timeout(self.workers[rank], self.config.connect_timeout)?;
        client.set_io_timeout(Some(deadline.remaining().max(Duration::from_millis(10))))?;
        let mut frame = client.call_frame(req)?;
        if let Some(faults) = &self.faults {
            faults.corrupt_frame(qidx, rank, &mut frame);
        }
        decode_response(&frame)
    }

    /// Call `shard` with transparent replica failover; see module docs.
    fn call_shard(&self, shard: usize, req: &Request, deadline: &Deadline) -> Response {
        let replicas = self.map.replicas(shard);
        let counters = &self.counters[shard];
        let mut retry = 0u32;
        let mut last: Option<Response> = None;
        loop {
            if deadline.expired() {
                return last.unwrap_or_else(|| {
                    Response::Error(
                        WireError::DeadlineExpired,
                        "routing budget exhausted".into(),
                    )
                });
            }
            let sweep = self.health.sweep_order(&replicas);
            if sweep.is_empty() {
                counters.degraded.fetch_add(1, Ordering::Relaxed);
                return Response::Error(
                    WireError::Degraded,
                    format!("shard {shard} has no live replica"),
                );
            }
            for (hop, &rank) in sweep.iter().enumerate() {
                if hop > 0 {
                    counters.failovers.fetch_add(1, Ordering::Relaxed);
                }
                let qidx = self.seq.fetch_add(1, Ordering::Relaxed);
                match self.call_worker(rank, req, qidx, deadline) {
                    Ok(Response::Error(code, msg)) => {
                        // The worker answered: alive, whatever the code.
                        self.health.record_success(rank);
                        if classify(code) == Transience::Permanent {
                            return Response::Error(code, msg);
                        }
                        last = Some(Response::Error(code, msg));
                    }
                    Ok(resp) => {
                        self.health.record_success(rank);
                        return resp;
                    }
                    Err(e) => {
                        self.health.record_failure(rank);
                        last = Some(Response::Error(
                            WireError::Internal,
                            format!("worker {rank} transport: {e}"),
                        ));
                    }
                }
            }
            if !self.config.retry.allows(retry)
                || !self.config.retry.sleep_before_retry(retry, deadline)
            {
                return last.expect("non-empty sweep recorded an outcome");
            }
            counters.retries.fetch_add(1, Ordering::Relaxed);
            retry += 1;
        }
    }

    /// Scatter sub-bodies to the shards that need them; results come
    /// back indexed by shard (`None` where nothing was sent). Shards are
    /// checked for errors in ascending order, so error precedence is
    /// deterministic.
    fn scatter(
        &self,
        req: &Request,
        bodies: Vec<Option<RequestBody>>,
        deadline: &Deadline,
    ) -> Vec<Option<Response>> {
        let mut results: Vec<Option<Response>> = vec![None; bodies.len()];
        std::thread::scope(|scope| {
            for (shard, (body, slot)) in bodies.into_iter().zip(results.iter_mut()).enumerate() {
                let Some(body) = body else { continue };
                let sub = self.sub_request(req, body, deadline);
                scope.spawn(move || {
                    *slot = Some(self.call_shard(shard, &sub, deadline));
                });
            }
        });
        results
    }

    fn entry(&self, req: &Request, order: u8, coords: &[u32], deadline: &Deadline) -> Response {
        let ord = order as usize;
        if ord == 0 || !coords.len().is_multiple_of(ord) {
            return Response::Error(
                WireError::BadRequest,
                format!("{} coordinates do not tile order {ord}", coords.len()),
            );
        }
        let ntuples = coords.len() / ord;
        let mut tuples_of: Vec<Vec<usize>> = vec![Vec::new(); self.config.nshards];
        for t in 0..ntuples {
            tuples_of[self.ring.shard_of(coords[t * ord]) as usize].push(t);
        }
        let bodies = tuples_of
            .iter()
            .map(|tuples| {
                if tuples.is_empty() {
                    return None;
                }
                let mut sub = Vec::with_capacity(tuples.len() * ord);
                for &t in tuples {
                    sub.extend_from_slice(&coords[t * ord..(t + 1) * ord]);
                }
                Some(RequestBody::Entry { order, coords: sub })
            })
            .collect();
        let results = self.scatter(req, bodies, deadline);
        let mut out = vec![0.0f64; ntuples];
        for (shard, result) in results.into_iter().enumerate() {
            let Some(result) = result else { continue };
            match result {
                Response::Entries(vals) if vals.len() == tuples_of[shard].len() => {
                    for (&t, v) in tuples_of[shard].iter().zip(&vals) {
                        out[t] = *v;
                    }
                }
                Response::Error(code, msg) => return Response::Error(code, msg),
                other => {
                    return Response::Error(
                        WireError::Internal,
                        format!("shard {shard} answered {other:?} to an entry batch"),
                    )
                }
            }
        }
        Response::Entries(out)
    }

    fn slice(&self, req: &Request, mode: u8, index: u32, deadline: &Deadline) -> Response {
        let order = self.model.payload.order();
        if mode as usize >= order {
            return Response::Error(
                WireError::BadRequest,
                format!("mode {mode} out of range for order {order}"),
            );
        }
        if mode == 0 {
            // A mode-0 slice lives wholly on the owner of its index.
            let shard = self.ring.shard_of(index) as usize;
            let sub = self.sub_request(req, RequestBody::Slice { mode, index }, deadline);
            return self.call_shard(shard, &sub, deadline);
        }
        let dim0 = self.model.dim0();
        let block: usize = self
            .model
            .payload
            .factors
            .iter()
            .enumerate()
            .filter(|&(m, _)| m != 0 && m != mode as usize)
            .map(|(_, f)| f.rows())
            .product();
        let bodies = (0..self.config.nshards)
            .map(|shard| {
                Some(RequestBody::SliceShard {
                    mode,
                    index,
                    sel: self.sel(shard),
                })
            })
            .collect();
        let results = self.scatter(req, bodies, deadline);
        let mut full = vec![0.0f64; dim0 * block];
        for (shard, result) in results.into_iter().enumerate() {
            match result.expect("every shard was queried") {
                Response::Slice(partial) => {
                    let rows = &self.views[shard].rows;
                    if partial.len() != rows.len() * block {
                        return Response::Error(
                            WireError::Internal,
                            format!("shard {shard} returned a mis-sized slice partial"),
                        );
                    }
                    for (j, &row) in rows.iter().enumerate() {
                        full[row as usize * block..][..block]
                            .copy_from_slice(&partial[j * block..][..block]);
                    }
                }
                Response::Error(code, msg) => return Response::Error(code, msg),
                other => {
                    return Response::Error(
                        WireError::Internal,
                        format!("shard {shard} answered {other:?} to a slice partial"),
                    )
                }
            }
        }
        Response::Slice(full)
    }

    fn top_k(
        &self,
        req: &Request,
        mode: u8,
        k: u32,
        fixed: &[u32],
        deadline: &Deadline,
    ) -> Response {
        if mode != 0 {
            // Mode 0 is fixed, so the whole query lives on the owner of
            // its mode-0 coordinate (`fixed` is ordered by mode with
            // `mode` itself skipped — index 0 is always mode 0 here).
            let Some(&anchor) = fixed.first() else {
                return Response::Error(
                    WireError::BadRequest,
                    "top-k with no fixed coordinates".into(),
                );
            };
            let shard = self.ring.shard_of(anchor) as usize;
            let sub = self.sub_request(
                req,
                RequestBody::TopK {
                    mode,
                    k,
                    fixed: fixed.to_vec(),
                },
                deadline,
            );
            return self.call_shard(shard, &sub, deadline);
        }
        let bodies = (0..self.config.nshards)
            .map(|shard| {
                Some(RequestBody::TopKShard {
                    mode,
                    k,
                    fixed: fixed.to_vec(),
                    sel: self.sel(shard),
                })
            })
            .collect();
        let results = self.scatter(req, bodies, deadline);
        let mut merged: Vec<(u32, f64)> = Vec::new();
        for (shard, result) in results.into_iter().enumerate() {
            match result.expect("every shard was queried") {
                Response::TopK(pairs) => merged.extend(pairs),
                Response::Error(code, msg) => return Response::Error(code, msg),
                other => {
                    return Response::Error(
                        WireError::Internal,
                        format!("shard {shard} answered {other:?} to a top-k partial"),
                    )
                }
            }
        }
        // The exact comparator the single-process kernel sorts with, so
        // the merged prefix is bit-identical to the oracle's.
        merged.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        merged.truncate((k as usize).min(self.model.dim0()));
        Response::TopK(merged)
    }
}

/// A running router front end (reactor + health pinger).
pub struct RouterHandle {
    addr: SocketAddr,
    router: Arc<Router>,
    front: Option<NetHandle>,
    health_thread: Option<std::thread::JoinHandle<()>>,
}

impl RouterHandle {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router behind this front end.
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Reactor front-end counters.
    pub fn net_counters(&self) -> Option<NetSnapshot> {
        self.front.as_ref().map(NetHandle::counters)
    }

    /// Trip the stop token without blocking.
    pub fn request_shutdown(&self) {
        self.router.stop.cancel();
    }

    /// Block until the router stops (token tripped by the wire
    /// `Shutdown` op or [`RouterHandle::request_shutdown`]), then join
    /// its threads.
    pub fn join(mut self) {
        if let Some(f) = self.front.take() {
            f.wait();
        }
        if let Some(t) = self.health_thread.take() {
            let _ = t.join();
        }
    }

    /// Stop and join the reactor and health threads.
    pub fn shutdown(self) {
        self.request_shutdown();
        self.join();
    }
}

/// The router's [`FrameService`]: decode, dispatch to
/// [`Router::handle`], and splice the reactor's own counters into
/// `Stats` answers. The reactor worker pool replaces the old
/// thread-per-connection loop, so a slow shard sweep on one connection
/// no longer costs a dedicated thread.
struct RouterService {
    router: Arc<Router>,
    net: OnceLock<Arc<NetCounters>>,
}

impl FrameService for RouterService {
    fn handle(&self, payload: &[u8], _ctx: &RequestCtx) -> Reply {
        let response = match decode_request(payload) {
            Ok(req) => {
                if matches!(req.body, RequestBody::Stats) {
                    let mut report = self.router.profile_report();
                    if let Some(serve) = report.serve.as_mut() {
                        serve.net = self.net.get().map(|c| c.snapshot());
                    }
                    Response::Stats(report.to_json())
                } else {
                    self.router.handle(&req)
                }
            }
            Err(e) => Response::Error(WireError::BadRequest, e.to_string()),
        };
        let disposition = if matches!(response, Response::Ack) {
            Disposition::ShutdownAfterWrite
        } else {
            Disposition::Continue
        };
        Reply {
            payload: encode_response(&response),
            disposition,
        }
    }

    fn deadline_of(&self, payload: &[u8]) -> Option<Duration> {
        peek_deadline(payload, self.router.config.default_deadline)
    }

    fn shed_reply(&self, layer: ShedLayer) -> Vec<u8> {
        shed_frame(layer)
    }

    fn deadline_reply(&self) -> Vec<u8> {
        backstop_frame()
    }

    fn on_shutdown(&self) {
        self.router.stop.cancel();
    }
}

/// Bind `addr` and serve the wire protocol through `router` on the
/// reactor front end.
///
/// # Errors
/// Propagates bind and reactor setup failures.
pub fn serve_router(router: Arc<Router>, addr: &str) -> std::io::Result<RouterHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let config = ReactorConfig {
        max_frame: MAX_FRAME,
        accept_shed_frame: accept_shed_frame(ReactorConfig::default().max_conns),
        thread_name: "splatt-router".to_string(),
        ..ReactorConfig::default()
    };
    let service = Arc::new(RouterService {
        router: Arc::clone(&router),
        net: OnceLock::new(),
    });
    let stop = router.stop.child();
    let handle = serve_frames(
        listener,
        Arc::clone(&service) as Arc<dyn FrameService>,
        config,
        stop,
    )?;
    let _ = service.net.set(handle.counters_handle());
    let health_router = Arc::clone(&router);
    let health_thread = std::thread::Builder::new()
        .name("splatt-router-health".into())
        .spawn(move || health_loop(&health_router))?;
    Ok(RouterHandle {
        addr: local,
        router,
        front: Some(handle),
        health_thread: Some(health_thread),
    })
}

/// Probe every worker, feed the health board, and record per-shard
/// replica lag (max−min probe round-trip among answering replicas).
fn health_loop(router: &Arc<Router>) {
    while !router.stop.is_cancelled() {
        let mut rtt = vec![None::<u64>; router.workers.len()];
        for (rank, slot) in rtt.iter_mut().enumerate() {
            if router.stop.is_cancelled() {
                return;
            }
            let started = Instant::now();
            let probe =
                Client::connect_with_timeout(router.workers[rank], router.config.connect_timeout)
                    .and_then(|mut c| {
                        c.set_io_timeout(Some(router.config.connect_timeout))?;
                        c.health()
                    });
            match probe {
                Ok(Response::Health { .. }) => {
                    router.health.record_success(rank);
                    *slot = Some(started.elapsed().as_micros() as u64);
                }
                Ok(_) | Err(_) => {
                    router.health.record_failure(rank);
                }
            }
        }
        for shard in 0..router.config.nshards {
            let answered: Vec<u64> = router
                .map
                .replicas(shard)
                .iter()
                .filter_map(|&w| rtt[w])
                .collect();
            if answered.len() >= 2 {
                let lag = answered.iter().max().unwrap() - answered.iter().min().unwrap();
                router.counters[shard]
                    .replica_lag_micros
                    .store(lag, Ordering::Relaxed);
            }
        }
        let mut waited = Duration::ZERO;
        while waited < router.config.health_interval && !router.stop.is_cancelled() {
            let nap = Duration::from_millis(5).min(router.config.health_interval - waited);
            std::thread::sleep(nap);
            waited += nap;
        }
    }
}
