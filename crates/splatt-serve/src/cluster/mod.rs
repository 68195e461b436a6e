//! Sharded, replicated serving with shard-kill failover.
//!
//! This module turns the single-process server into a cluster without
//! changing what clients see:
//!
//! * [`shard`] — the [`ShardRing`] consistent hash over mode-0 indices
//!   and the [`ShardMap`] `[nshards, nreplicas]` placement grid (reusing
//!   `splatt-dist`'s process-grid ownership math).
//! * [`shared`] — [`SharedModel`]: one parse of the canonical
//!   `splatt-model-v1` file shared read-only by every worker, with
//!   per-worker row-range views instead of N heap copies.
//! * [`health`] — the `Live`/`Suspect`/`Dead` ledger with automatic
//!   re-admission.
//! * [`router`] — the scatter-gather front end: replica failover with
//!   capped backoff, per-request deadline budgets threaded through every
//!   retry, typed `Degraded` answers for uncovered hash ranges, and
//!   bit-identical merges against the single-process oracle.
//!
//! [`LoopbackCluster`] wires all of it together on `127.0.0.1` for the
//! CLI (`splatt serve --shards N --replicas M`) and the fault-storm
//! tests: N×M worker servers (each a full [`ServeEngine`] publishing a
//! view of the shared model) behind one router, with
//! [`LoopbackCluster::kill_worker`] as the shard-kill lever.

pub mod health;
pub mod router;
pub mod shard;
pub mod shared;

pub use health::{HealthBoard, HealthState};
pub use router::{serve_router, ClusterConfig, Router, RouterHandle};
pub use shard::{ShardMap, ShardRing, MAX_SHARDS, VNODES};
pub use shared::{ShardView, SharedModel};

use crate::engine::{ServeConfig, ServeEngine};
use crate::server::{serve, ServerHandle};
use splatt_faults::NetFaultPlan;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// An in-process serving cluster on loopback TCP; see the module docs.
pub struct LoopbackCluster {
    workers: Vec<Option<ServerHandle>>,
    router: Option<RouterHandle>,
}

impl LoopbackCluster {
    /// Start `nshards * nreplicas` workers and a router over them. Every
    /// worker publishes the *same* `Arc` of `model`'s payload — one heap
    /// copy total. `faults`, when given, is injected at the router's
    /// transport seam.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn start(
        config: ClusterConfig,
        model: &SharedModel,
        faults: Option<Arc<NetFaultPlan>>,
    ) -> std::io::Result<LoopbackCluster> {
        LoopbackCluster::start_on(config, model, faults, "127.0.0.1:0")
    }

    /// [`LoopbackCluster::start`] with an explicit router bind address
    /// (workers always bind loopback-ephemeral).
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn start_on(
        config: ClusterConfig,
        model: &SharedModel,
        faults: Option<Arc<NetFaultPlan>>,
        router_addr: &str,
    ) -> std::io::Result<LoopbackCluster> {
        let map = ShardMap::new(config.nshards, config.nreplicas);
        let mut workers = Vec::with_capacity(map.nworkers());
        let mut addrs: Vec<SocketAddr> = Vec::with_capacity(map.nworkers());
        for rank in 0..map.nworkers() {
            let engine = ServeEngine::start(ServeConfig {
                ntasks: 2,
                // Kills are exercised constantly in the fault tests; a
                // short drain keeps them prompt while still answering
                // whatever was already queued.
                drain_deadline: Duration::from_millis(250),
                worker: rank as u32,
                shard: map.shard_of_worker(rank) as u32,
                ..Default::default()
            });
            model.publish_on(engine.registry());
            let handle = serve(engine, "127.0.0.1:0")?;
            addrs.push(handle.addr());
            workers.push(Some(handle));
        }
        let mut router = Router::new(config, model.clone(), addrs);
        if let Some(plan) = faults {
            router = router.with_faults(plan);
        }
        let router = serve_router(Arc::new(router), router_addr)?;
        Ok(LoopbackCluster {
            workers,
            router: Some(router),
        })
    }

    /// Trip the router's stop token without blocking (the cluster
    /// analogue of [`ServerHandle::request_shutdown`]; pair with
    /// [`LoopbackCluster::join`]).
    pub fn request_shutdown(&self) {
        if let Some(router) = &self.router {
            router.request_shutdown();
        }
    }

    /// Block until the router stops — via the wire `Shutdown` op or
    /// [`LoopbackCluster::request_shutdown`] — then stop every surviving
    /// worker (each drains its queue under its drain deadline).
    pub fn join(mut self) {
        if let Some(router) = self.router.take() {
            router.join();
        }
        for worker in self.workers.iter_mut() {
            if let Some(handle) = worker.take() {
                handle.shutdown();
            }
        }
    }

    /// The router front-end address clients dial.
    pub fn router_addr(&self) -> SocketAddr {
        self.router.as_ref().expect("router running").addr()
    }

    /// The router itself (counters, health board, placement).
    pub fn router(&self) -> Arc<Router> {
        Arc::clone(self.router.as_ref().expect("router running").router())
    }

    /// Take worker `rank` down. Its listener closes and its engine
    /// stops; from the router's view the worker starts refusing
    /// connections, exactly like a crashed process. Idempotent.
    pub fn kill_worker(&mut self, rank: usize) {
        if let Some(handle) = self.workers[rank].take() {
            handle.shutdown();
        }
    }

    /// Whether worker `rank` is still running.
    pub fn worker_alive(&self, rank: usize) -> bool {
        self.workers[rank].is_some()
    }

    /// Stop the router, then every surviving worker.
    pub fn shutdown(mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
        }
        for worker in self.workers.iter_mut() {
            if let Some(handle) = worker.take() {
                handle.shutdown();
            }
        }
    }
}
