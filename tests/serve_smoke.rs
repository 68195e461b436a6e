//! Serving smoke test: many concurrent clients hammer a loopback server
//! with a mixed query workload. Run by the `serve-smoke` CI job under
//! `--release`; also part of the normal test suite.
//!
//! Asserts: zero failed requests, zero sheds (the client count stays
//! below the admission queue limit), a sane p99, and a clean shutdown
//! via the wire `Shutdown` op.

use splatt::serve::protocol::Response;
use splatt::serve::{serve, Client, ServeConfig, ServeEngine};
use splatt::{KruskalModel, Matrix};
use std::sync::Arc;

const CLIENTS: usize = 8;
const QUERIES_PER_CLIENT: usize = 1_300; // 8 * 1300 = 10_400 total

#[test]
fn eight_clients_ten_thousand_queries_zero_failures() {
    let engine = ServeEngine::start(ServeConfig {
        max_depth: 64, // well above CLIENTS: nothing should shed
        cache_capacity: 128,
        ..Default::default()
    });
    let model = KruskalModel {
        lambda: vec![1.0, -0.5, 0.25],
        factors: vec![
            Matrix::random(20, 3, 31),
            Matrix::random(15, 3, 32),
            Matrix::random(10, 3, 33),
        ],
    };
    engine.publish("smoke", model);
    let handle = serve(Arc::clone(&engine), "127.0.0.1:0").expect("bind loopback");
    let addr = handle.addr().to_string();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || -> Vec<u64> {
                let mut client = Client::connect(&addr).expect("connect");
                let mut latencies = Vec::with_capacity(QUERIES_PER_CLIENT);
                for i in 0..QUERIES_PER_CLIENT {
                    let started = std::time::Instant::now();
                    let resp = match (c + i) % 3 {
                        0 => {
                            let coords = vec![(i % 20) as u32, (i % 15) as u32, (i % 10) as u32];
                            client.entries("smoke", 0, 0, 3, coords)
                        }
                        1 => client.slice("smoke", 0, 0, 1, (i % 15) as u32),
                        _ => client.top_k(
                            "smoke",
                            0,
                            0,
                            2,
                            5,
                            vec![(i % 20) as u32, (i % 15) as u32],
                        ),
                    }
                    .expect("transport must not fail");
                    match resp {
                        Response::Entries(v) => assert_eq!(v.len(), 1),
                        Response::Slice(v) => assert_eq!(v.len(), 20 * 10),
                        Response::TopK(v) => assert_eq!(v.len(), 5),
                        other => panic!("client {c} query {i} failed: {other:?}"),
                    }
                    latencies.push(started.elapsed().as_micros() as u64);
                }
                latencies
            })
        })
        .collect();

    let mut latencies: Vec<u64> = Vec::with_capacity(CLIENTS * QUERIES_PER_CLIENT);
    for w in workers {
        latencies.extend(w.join().expect("client thread must not panic"));
    }
    assert_eq!(latencies.len(), CLIENTS * QUERIES_PER_CLIENT);
    latencies.sort_unstable();
    let p99 = latencies[latencies.len() * 99 / 100];
    // Loopback round trip through admission + compute: generous bound
    // that still catches a stalled server (micros).
    assert!(p99 < 2_000_000, "p99 {p99}us exceeds 2s");

    let row = engine.profile_report().serve.clone().expect("serve row");
    let answered: u64 = row.kinds.iter().map(|k| k.requests).sum();
    assert_eq!(answered as usize, CLIENTS * QUERIES_PER_CLIENT);
    assert_eq!(row.sheds, 0, "below the queue limit nothing may shed");
    assert_eq!(row.deadline_rejections, 0);
    assert_eq!(row.caller_runs + row.cache_hits, answered);
    assert!(row.cache_hits > 0, "repeated slices/top-ks must hit cache");

    // Clean shutdown over the wire.
    let mut closer = Client::connect(&addr).expect("connect for shutdown");
    match closer.shutdown().expect("shutdown call") {
        Response::Ack => {}
        other => panic!("expected shutdown ack, got {other:?}"),
    }
    handle.join();
    // Post-shutdown the engine refuses work with a typed error.
    assert!(engine
        .query(
            "smoke",
            0,
            splatt::serve::Query::Entry {
                coords: vec![0, 0, 0]
            },
            None,
            &splatt::CancelToken::new(),
            || false,
        )
        .is_err());
}
