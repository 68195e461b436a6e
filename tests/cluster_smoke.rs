//! Cluster smoke: a sharded, replicated loopback cluster under a
//! multi-client query storm with deterministic fault injection. Run by
//! the `cluster-smoke` CI job under `--release`; also part of the
//! normal test suite.
//!
//! The headline test kills one shard replica at 50% storm progress
//! (per the `NetFaultPlan` schedule) while eight clients hammer the
//! router with every query shape. Every answer must be bit-identical
//! to the dense single-process oracle or a typed
//! `Degraded`/`Overloaded` frame — never a hang, panic, or untyped
//! error.

use splatt::faults::{FaultPlan, FaultRates, NetFaultPlan};
use splatt::serve::cluster::{ClusterConfig, LoopbackCluster, ShardRing};
use splatt::serve::protocol::{Response, WireError};
use splatt::serve::{Client, SharedModel};
use splatt::{KruskalModel, Matrix};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 60;
const STORM_SEED: u64 = 0xBADC_0DE5;

fn smoke_model() -> KruskalModel {
    KruskalModel {
        lambda: vec![1.25, -0.5, 0.125],
        factors: vec![
            Matrix::random(40, 3, 71),
            Matrix::random(9, 3, 72),
            Matrix::random(7, 3, 73),
        ],
    }
}

/// Dense oracle for one entry.
fn oracle_entry(model: &KruskalModel, coord: &[u32]) -> f64 {
    model.value_at(coord)
}

/// Dense oracle for a slice (free modes ascending, last fastest).
fn oracle_slice(model: &KruskalModel, mode: usize, index: u32) -> Vec<f64> {
    let order = model.order();
    let free: Vec<usize> = (0..order).filter(|&m| m != mode).collect();
    let dims: Vec<usize> = free.iter().map(|&m| model.factors[m].rows()).collect();
    let total: usize = dims.iter().product();
    let mut coord = vec![0u32; order];
    coord[mode] = index;
    let mut odo = vec![0usize; free.len()];
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        for (j, &m) in free.iter().enumerate() {
            coord[m] = odo[j] as u32;
        }
        out.push(model.value_at(&coord));
        for j in (0..odo.len()).rev() {
            odo[j] += 1;
            if odo[j] < dims[j] {
                break;
            }
            odo[j] = 0;
        }
    }
    out
}

/// Dense oracle for top-k: descending score, ascending index on ties.
fn oracle_topk(model: &KruskalModel, mode: usize, k: usize, fixed: &[u32]) -> Vec<(u32, f64)> {
    let order = model.order();
    let dim = model.factors[mode].rows();
    let mut coord = vec![0u32; order];
    let mut fx = fixed.iter();
    for (m, c) in coord.iter_mut().enumerate() {
        if m != mode {
            *c = *fx.next().unwrap();
        }
    }
    let mut scored: Vec<(u32, f64)> = (0..dim)
        .map(|i| {
            coord[mode] = i as u32;
            (i as u32, model.value_at(&coord))
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k.min(dim));
    scored
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: value {i} differs ({g} vs {w})"
        );
    }
}

fn smoke_config() -> ClusterConfig {
    ClusterConfig {
        nshards: 3,
        nreplicas: 2,
        default_deadline: Duration::from_secs(3),
        health_interval: Duration::from_millis(10),
        ..Default::default()
    }
}

fn topk_pairs_bits_eq(got: &[(u32, f64)], want: &[(u32, f64)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.0, w.0, "{what}: index");
        assert_eq!(g.1.to_bits(), w.1.to_bits(), "{what}: score bits");
    }
}

#[test]
fn calm_cluster_answers_every_query_shape_bit_identically() {
    let model = smoke_model();
    let shared = SharedModel::from_model("demo", model.clone());
    let cluster = LoopbackCluster::start(smoke_config(), &shared, None).expect("cluster starts");
    let mut client = Client::connect(cluster.router_addr()).expect("connect to router");

    // Entries spanning several shards in one batch.
    let coords = vec![0, 0, 0, 13, 5, 3, 27, 8, 6, 39, 1, 2];
    match client.entries("demo", 0, 0, 3, coords.clone()).unwrap() {
        Response::Entries(vals) => {
            let want: Vec<f64> = coords
                .chunks_exact(3)
                .map(|c| oracle_entry(&model, c))
                .collect();
            assert_bits_eq(&vals, &want, "cluster entries");
        }
        other => panic!("expected entries, got {other:?}"),
    }

    // Mode-0 slice: routed whole to the owner shard.
    match client.slice("demo", 0, 0, 0, 17).unwrap() {
        Response::Slice(vals) => {
            assert_bits_eq(&vals, &oracle_slice(&model, 0, 17), "mode-0 slice");
        }
        other => panic!("expected slice, got {other:?}"),
    }

    // Mode-1 slice: scattered to every shard and stitched at the router.
    match client.slice("demo", 0, 0, 1, 4).unwrap() {
        Response::Slice(vals) => {
            assert_bits_eq(&vals, &oracle_slice(&model, 1, 4), "stitched slice");
        }
        other => panic!("expected slice, got {other:?}"),
    }

    // Mode-0 top-k: per-shard partials merged at the router.
    match client.top_k("demo", 0, 0, 0, 7, vec![2, 3]).unwrap() {
        Response::TopK(pairs) => {
            topk_pairs_bits_eq(&pairs, &oracle_topk(&model, 0, 7, &[2, 3]), "merged top-k");
        }
        other => panic!("expected top-k, got {other:?}"),
    }

    // Mode-2 top-k: routed whole to the owner of the fixed mode-0 row.
    match client.top_k("demo", 0, 0, 2, 4, vec![11, 3]).unwrap() {
        Response::TopK(pairs) => {
            topk_pairs_bits_eq(&pairs, &oracle_topk(&model, 2, 4, &[11, 3]), "owner top-k");
        }
        other => panic!("expected top-k, got {other:?}"),
    }

    // The router answers the health and stats ops itself.
    match client.health().unwrap() {
        Response::Health { worker, shard } => {
            assert_eq!((worker, shard), (u32::MAX, u32::MAX), "router identity");
        }
        other => panic!("expected health, got {other:?}"),
    }
    match client.stats().unwrap() {
        Response::Stats(json) => {
            assert!(
                json.contains(&format!(
                    "\"schema\": \"{}\"",
                    splatt::probe::PROFILE_SCHEMA
                )),
                "{json}"
            );
            assert!(json.contains("\"shards\": ["), "{json}");
        }
        other => panic!("expected stats, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn shard_kill_storm_fails_over_without_untyped_errors() {
    let model = smoke_model();
    let shared = SharedModel::from_model("demo", model.clone());
    // Shard 1, replica 0 is rank 1*2+0 = 2; its sibling (rank 3)
    // survives, so every hash range stays covered after the kill.
    let killed_rank = 2usize;
    let plan = Arc::new(
        NetFaultPlan::new(FaultPlan::new(
            STORM_SEED,
            FaultRates {
                straggler: 0.01,
                corrupt: 0.01,
                ..Default::default()
            },
        ))
        .with_kill(killed_rank, 0.5),
    );
    let mut cluster = LoopbackCluster::start(smoke_config(), &shared, Some(Arc::clone(&plan)))
        .expect("cluster starts");
    let addr = cluster.router_addr();
    let router = cluster.router();

    let completed = AtomicUsize::new(0);
    let degraded = AtomicUsize::new(0);
    let overloaded = AtomicUsize::new(0);
    let total = CLIENTS * QUERIES_PER_CLIENT;

    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for c in 0..CLIENTS {
            let model = &model;
            let completed = &completed;
            let degraded = &degraded;
            let overloaded = &overloaded;
            clients.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect to router");
                for i in 0..QUERIES_PER_CLIENT {
                    let resp = match (c + i) % 5 {
                        0 => {
                            let coord =
                                vec![((c * 7 + i) % 40) as u32, (i % 9) as u32, (i % 7) as u32];
                            let want = oracle_entry(model, &coord);
                            match client.entries("demo", 0, 0, 3, coord).unwrap() {
                                Response::Entries(vals) => {
                                    assert_bits_eq(&vals, &[want], "storm entry");
                                    None
                                }
                                other => Some(other),
                            }
                        }
                        1 => {
                            let index = ((c * 11 + i) % 40) as u32;
                            match client.slice("demo", 0, 0, 0, index).unwrap() {
                                Response::Slice(vals) => {
                                    assert_bits_eq(
                                        &vals,
                                        &oracle_slice(model, 0, index),
                                        "storm mode-0 slice",
                                    );
                                    None
                                }
                                other => Some(other),
                            }
                        }
                        2 => {
                            let index = (i % 9) as u32;
                            match client.slice("demo", 0, 0, 1, index).unwrap() {
                                Response::Slice(vals) => {
                                    assert_bits_eq(
                                        &vals,
                                        &oracle_slice(model, 1, index),
                                        "storm stitched slice",
                                    );
                                    None
                                }
                                other => Some(other),
                            }
                        }
                        3 => {
                            let fixed = vec![(i % 9) as u32, (i % 7) as u32];
                            match client.top_k("demo", 0, 0, 0, 5, fixed.clone()).unwrap() {
                                Response::TopK(pairs) => {
                                    topk_pairs_bits_eq(
                                        &pairs,
                                        &oracle_topk(model, 0, 5, &fixed),
                                        "storm merged top-k",
                                    );
                                    None
                                }
                                other => Some(other),
                            }
                        }
                        _ => {
                            let fixed = vec![((c * 13 + i) % 40) as u32, (i % 9) as u32];
                            match client.top_k("demo", 0, 0, 2, 4, fixed.clone()).unwrap() {
                                Response::TopK(pairs) => {
                                    topk_pairs_bits_eq(
                                        &pairs,
                                        &oracle_topk(model, 2, 4, &fixed),
                                        "storm owner top-k",
                                    );
                                    None
                                }
                                other => Some(other),
                            }
                        }
                    };
                    // Anything that was not a bit-identical answer must
                    // be one of the two typed storm outcomes.
                    match resp {
                        None => {}
                        Some(Response::Error(WireError::Degraded, _)) => {
                            degraded.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(Response::Error(WireError::Overloaded, _)) => {
                            overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(other) => panic!("untyped storm outcome: {other:?}"),
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }

        // The kill driver: fire the scheduled shard kill exactly when
        // the storm crosses its progress fraction.
        while completed.load(Ordering::Relaxed) < total {
            let progress = completed.load(Ordering::Relaxed) as f64 / total as f64;
            for rank in plan.kills_due(progress) {
                cluster.kill_worker(rank);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        for t in clients {
            t.join().unwrap();
        }
    });

    assert!(!cluster.worker_alive(killed_rank), "kill fired");
    assert_eq!(completed.load(Ordering::Relaxed), total);
    // One replica of three-sharded data died with a live sibling: the
    // storm should have failed over, not degraded.
    assert_eq!(
        degraded.load(Ordering::Relaxed),
        0,
        "no range was uncovered"
    );

    // The router noticed: the killed worker's shard recorded failovers
    // once its first replica stopped answering.
    let report = router.profile_report();
    let shards = report.serve.expect("serve row").shards;
    assert_eq!(shards.len(), 3);
    let shard1 = &shards[1];
    assert!(
        shard1.failovers > 0,
        "shard 1 lost a replica mid-storm but recorded no failovers: {shards:?}"
    );
    cluster.shutdown();
}

#[test]
fn dead_hash_range_degrades_typed_and_live_shards_keep_answering() {
    let model = smoke_model();
    let shared = SharedModel::from_model("demo", model.clone());
    let config = smoke_config();
    let seed = config.seed;
    let mut cluster = LoopbackCluster::start(config, &shared, None).expect("cluster starts");
    let router = cluster.router();

    // Kill *both* replicas of shard 0: its hash range is now uncovered.
    cluster.kill_worker(0);
    cluster.kill_worker(1);
    // The health pinger marks them Dead after consecutive probe failures.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        use splatt::serve::cluster::HealthState;
        let dead = router.health().state(0) == HealthState::Dead
            && router.health().state(1) == HealthState::Dead;
        if dead {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "health board never marked the killed replicas Dead"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let ring = ShardRing::new(3, seed);
    let owned_by_dead = (0..40u32).find(|&i| ring.shard_of(i) == 0).unwrap();
    let owned_by_live = (0..40u32).find(|&i| ring.shard_of(i) != 0).unwrap();
    let mut client = Client::connect(cluster.router_addr()).expect("connect to router");

    // A query into the dead range: typed Degraded, immediately — the
    // router does not burn the whole deadline on an uncoverable range.
    match client
        .entries("demo", 0, 0, 3, vec![owned_by_dead, 0, 0])
        .unwrap()
    {
        Response::Error(WireError::Degraded, msg) => {
            assert!(msg.contains("no live replica"), "{msg}");
        }
        other => panic!("expected Degraded, got {other:?}"),
    }

    // A query into a covered range still answers bit-identically.
    match client
        .entries("demo", 0, 0, 3, vec![owned_by_live, 1, 1])
        .unwrap()
    {
        Response::Entries(vals) => {
            let want = oracle_entry(&model, &[owned_by_live, 1, 1]);
            assert_bits_eq(&vals, &[want], "live-shard entry");
        }
        other => panic!("expected entries, got {other:?}"),
    }

    // Scatter ops need every shard, so they degrade typed too.
    match client.top_k("demo", 0, 0, 0, 5, vec![0, 0]).unwrap() {
        Response::Error(WireError::Degraded, _) => {}
        other => panic!("expected Degraded top-k, got {other:?}"),
    }

    // And the stats row accounts for the degraded answers.
    let shards = router.profile_report().serve.expect("serve row").shards;
    assert!(
        shards[0].degraded >= 2,
        "degraded answers must be counted: {shards:?}"
    );
    assert!(
        shards[0].health_transitions >= 2,
        "Live->Suspect->Dead transitions must be counted: {shards:?}"
    );
    cluster.shutdown();
}

#[test]
fn fault_schedule_is_reproducible_in_its_seed() {
    // The exact property the storm relies on: a NetFaultPlan seed fully
    // determines which (query, worker) sites delay, corrupt, and when
    // each kill fires — so a failing storm replays identically.
    let build = || {
        NetFaultPlan::new(FaultPlan::new(
            STORM_SEED,
            FaultRates {
                straggler: 0.05,
                corrupt: 0.05,
                ..Default::default()
            },
        ))
        .with_kill(2, 0.5)
    };
    let a = build();
    let b = build();
    let mut injected = 0usize;
    for query in 0..(CLIENTS * QUERIES_PER_CLIENT) {
        for worker in 0..6 {
            assert_eq!(
                a.delay_before_send(query, worker),
                b.delay_before_send(query, worker),
                "delay schedule diverged at ({query}, {worker})"
            );
            let mut pa = vec![0u8, 1];
            let mut pb = vec![0u8, 1];
            let ca = a.corrupt_frame(query, worker, &mut pa);
            assert_eq!(
                ca,
                b.corrupt_frame(query, worker, &mut pb),
                "corruption schedule diverged at ({query}, {worker})"
            );
            assert_eq!(pa, pb);
            injected += usize::from(ca);
        }
    }
    assert!(injected > 0, "the storm plan injected nothing");
    assert_eq!(a.kills_due(0.49), Vec::<usize>::new());
    assert_eq!(a.kills_due(0.5), vec![2]);
    assert_eq!(b.kills_due(0.5), vec![2]);
}
