//! Front-end smoke tests for the `splatt-net` reactor: a 10k-connection
//! mostly-idle run served by a bounded worker pool, a saturation run
//! showing typed shedding with bounded admitted-request latency, a
//! bit-identical sweep against an in-test oracle built from the
//! `core::query` kernels, and the two request paths — point reads on
//! the reactor thread, scans through the pool — counted exactly,
//! isolated from each other, and drained on shutdown. The first two write `target/net-smoke-report.json` /
//! `target/net-saturation-report.json` for CI artifact upload.

use splatt::serve::protocol::{
    decode_response, encode_request, encode_response, read_frame, write_frame, Request,
    RequestBody, Response, WireError,
};
use splatt::serve::{serve_with, FrontEndConfig, ServeConfig, ServeEngine, ServerHandle};
use splatt::{KruskalModel, Matrix};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The big tests share the process fd budget; run them one at a time.
fn serial_guard() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministic xorshift64* — seeded, no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A small deterministic model (3 modes, rank 3).
fn test_model(seed: u64) -> KruskalModel {
    KruskalModel {
        lambda: vec![1.5, -0.75, 0.25],
        factors: vec![
            Matrix::random(7, 3, seed),
            Matrix::random(5, 3, seed ^ 0xA5),
            Matrix::random(6, 3, seed ^ 0x5A),
        ],
    }
}

fn start_server(front: FrontEndConfig, config: ServeConfig) -> (ServerHandle, KruskalModel) {
    start_server_with(test_model(0xBEEF), front, config)
}

fn start_server_with(
    model: KruskalModel,
    front: FrontEndConfig,
    config: ServeConfig,
) -> (ServerHandle, KruskalModel) {
    let engine = ServeEngine::start(config);
    engine.publish("m", model.clone());
    let handle = serve_with(engine, "127.0.0.1:0", front).expect("bind");
    (handle, model)
}

/// A model whose mode-0 top-k is a real scan (tens of microseconds in
/// release, milliseconds in debug): work that occupies a pool worker,
/// where a point read does not.
fn scan_model(seed: u64) -> KruskalModel {
    KruskalModel {
        lambda: vec![1.5, -0.75, 0.25, 2.0],
        factors: vec![
            Matrix::random(20_000, 4, seed),
            Matrix::random(5, 4, seed ^ 0xA5),
            Matrix::random(6, 4, seed ^ 0x5A),
        ],
    }
}

/// A scan request with its oracle answer.
type ScanCase = (Request, Vec<(u32, f64)>);

/// The `n`-th distinct mode-0 top-k request against [`scan_model`]
/// (30 distinct `fixed` pairs) with its oracle answer.
fn scan_request(model: &KruskalModel, n: usize, deadline_ms: u32) -> ScanCase {
    let fixed = vec![(n % 5) as u32, (n / 5 % 6) as u32];
    let mut want = Vec::new();
    splatt::core::query::top_k(
        model,
        0,
        8,
        &fixed,
        &mut splatt::core::query::QueryArena::new(),
        &mut want,
    )
    .expect("oracle top-k");
    (
        Request {
            deadline_ms,
            model: "m".into(),
            version: 0,
            body: RequestBody::TopK {
                mode: 0,
                k: 8,
                fixed,
            },
        },
        want,
    )
}

fn assert_pairs_eq(got: &[(u32, f64)], want: &[(u32, f64)], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            (g.0, g.1.to_bits()),
            (w.0, w.1.to_bits()),
            "{what}: pair {i}"
        );
    }
}

fn entry_request(rng: &mut Rng, model: &KruskalModel, deadline_ms: u32) -> (Request, Vec<f64>) {
    let coords: Vec<u32> = model
        .factors
        .iter()
        .map(|f| rng.below(f.rows() as u64) as u32)
        .collect();
    let want = vec![model.value_at(&coords)];
    (
        Request {
            deadline_ms,
            model: "m".into(),
            version: 0,
            body: RequestBody::Entry { order: 3, coords },
        },
        want,
    )
}

fn call_raw(stream: &mut TcpStream, req: &Request) -> std::io::Result<Response> {
    write_frame(stream, &encode_request(req).expect("encode"))?;
    decode_response(&read_frame(stream)?).map_err(std::io::Error::other)
}

fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: value {i} ({g} vs {w})");
    }
}

#[test]
fn ten_thousand_mostly_idle_connections_on_a_bounded_pool() {
    let _guard = serial_guard();
    // Each loopback connection costs two fds in this process (client +
    // server end); leave headroom for everything else.
    let limit = splatt::net::sys::raise_nofile_limit(24_000)
        .or_else(|_| splatt::net::sys::nofile_limit().map(|(soft, _)| soft))
        .unwrap_or(1_024);
    let target = 10_000usize.min(((limit.saturating_sub(600)) / 2) as usize);
    assert!(
        target >= 1_000,
        "fd limit {limit} too low for a meaningful run"
    );

    let (handle, model) = start_server(
        FrontEndConfig {
            max_conns: target + 64,
            ..FrontEndConfig::default()
        },
        ServeConfig::default(),
    );
    let addr = handle.addr();
    let started = Instant::now();
    let mut rng = Rng(0x1D1E_5EED);
    let mut conns: Vec<TcpStream> = Vec::with_capacity(target);
    let mut queried = 0usize;
    for i in 0..target {
        let mut stream = TcpStream::connect(addr).expect("connect");
        // A sparse minority of connections actually talk; the rest sit
        // idle and must cost no threads.
        if i % 97 == 0 {
            stream.set_nodelay(true).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            let (req, want) = entry_request(&mut rng, &model, 10_000);
            match call_raw(&mut stream, &req).expect("query") {
                Response::Entries(vals) => assert_bits_eq(&vals, &want, "idle-smoke entry"),
                other => panic!("expected entries, got {other:?}"),
            }
            queried += 1;
        }
        conns.push(stream);
    }

    // Every connection registers with the reactor (accept is async to
    // the connect call).
    let deadline = Instant::now() + Duration::from_secs(30);
    let snapshot = loop {
        let snap = handle.net_counters().expect("reactor front end");
        if snap.connections_peak >= target as u64 || Instant::now() > deadline {
            break snap;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        snapshot.connections_peak >= target as u64,
        "only {} of {target} connections registered",
        snapshot.connections_peak
    );

    // The whole point: tens of thousands of connections, a handful of
    // threads. Allow reactor + workers within 2x cores (floor of 2
    // workers on tiny machines), and demand it is *far* below the
    // connection count.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let allowed = (2 * cores).max(4) as u64;
    assert!(
        snapshot.worker_threads <= allowed,
        "{} worker threads for {cores} cores",
        snapshot.worker_threads
    );
    assert!(
        (snapshot.worker_threads as usize) * 100 < target,
        "pool ({}) not bounded relative to connections ({target})",
        snapshot.worker_threads
    );
    assert_eq!(snapshot.sheds_accept, 0, "no shedding below the cap");
    assert!(queried > 0 && snapshot.frames_read >= queried as u64);

    let report = format!(
        "{{\"test\": \"mostly_idle_smoke\", \"target_connections\": {target}, \
         \"cores\": {cores}, \"elapsed_ms\": {}, \"queried\": {queried}, \
         \"accepted\": {}, \"connections_peak\": {}, \"worker_threads\": {}, \
         \"polls\": {}, \"readiness_wakeups\": {}, \"frames_read\": {}, \
         \"frames_written\": {}}}\n",
        started.elapsed().as_millis(),
        snapshot.accepted,
        snapshot.connections_peak,
        snapshot.worker_threads,
        snapshot.polls,
        snapshot.readiness_wakeups,
        snapshot.frames_read,
        snapshot.frames_written,
    );
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/net-smoke-report.json", report).expect("write report");

    drop(conns);
    handle.shutdown();
}

#[test]
fn saturation_sheds_typed_overloaded_with_bounded_admitted_latency() {
    let _guard = serial_guard();
    const DEADLINE_MS: u32 = 2_000;
    const CLIENTS: usize = 8;
    const PIPELINE: usize = 16;
    const ROUNDS: usize = 6;

    // Point reads are answered on the reactor thread and never queue, so
    // the load that saturates the decode gate and the pool is scans:
    // pipelined top-k over a 20 000-row mode, every result computed (no
    // result cache to short-circuit a repeated key).
    let (handle, model) = start_server_with(
        scan_model(0xBEEF),
        FrontEndConfig {
            workers: 2,
            max_conns: 64,
            queue_depth: 2,
            max_pipeline: 32,
            ..FrontEndConfig::default()
        },
        ServeConfig {
            max_depth: 2,
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let addr = handle.addr();
    let started = Instant::now();
    let scans: Arc<Vec<ScanCase>> = Arc::new(
        (0..30)
            .map(|n| scan_request(&model, n, DEADLINE_MS))
            .collect(),
    );

    // Meanwhile, on a connection of its own, closed-loop point reads:
    // each comes back bit-exact or typed `Overloaded` (the decode gate
    // and the engine gate are both consulted before it is computed),
    // never untyped and never late.
    let burst_over = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let (reading, burst_may_start) = std::sync::mpsc::channel();
    let point_reader = {
        let burst_over = Arc::clone(&burst_over);
        let model = model.clone();
        std::thread::spawn(move || {
            let mut rng = Rng(0x0009_0147);
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let (mut exact, mut shed) = (0u64, 0u64);
            while !burst_over.load(std::sync::atomic::Ordering::Relaxed) {
                let (req, want) = entry_request(&mut rng, &model, DEADLINE_MS);
                match call_raw(&mut stream, &req).expect("point read") {
                    Response::Entries(vals) => {
                        assert_bits_eq(&vals, &want, "point read under saturation");
                        exact += 1;
                    }
                    Response::Error(WireError::Overloaded, _) => shed += 1,
                    other => panic!("untyped point-read outcome: {other:?}"),
                }
                // The burst starts once the reader is in its loop.
                let _ = reading.send(());
            }
            (exact, shed)
        })
    };
    burst_may_start
        .recv()
        .expect("the point reader's first answer");

    let ok_latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sheds = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let ok_latencies = Arc::clone(&ok_latencies);
            let sheds = Arc::clone(&sheds);
            let scans = Arc::clone(&scans);
            std::thread::spawn(move || {
                let mut rng = Rng(0x5A7_0000 + c as u64);
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).unwrap();
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                for _ in 0..ROUNDS {
                    // Pipeline a burst, then read every answer back in
                    // order — this is what overwhelms the decode gate.
                    let mut wants = Vec::with_capacity(PIPELINE);
                    let sent = Instant::now();
                    for _ in 0..PIPELINE {
                        let (req, want) = &scans[rng.below(scans.len() as u64) as usize];
                        write_frame(&mut stream, &encode_request(req).unwrap()).expect("send");
                        wants.push(want);
                    }
                    for want in &wants {
                        let frame = read_frame(&mut stream).expect("recv");
                        match decode_response(&frame).expect("decode") {
                            Response::TopK(pairs) => {
                                assert_pairs_eq(&pairs, want, "saturated scan");
                                ok_latencies
                                    .lock()
                                    .unwrap()
                                    .push(sent.elapsed().as_micros() as u64);
                            }
                            Response::Error(
                                WireError::Overloaded | WireError::DeadlineExpired,
                                _,
                            ) => {
                                sheds.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            other => panic!("untyped saturation outcome: {other:?}"),
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    burst_over.store(true, std::sync::atomic::Ordering::Relaxed);
    let (point_exact, point_shed) = point_reader.join().expect("point-read thread");
    assert!(
        point_exact + point_shed > 0,
        "no point read completed during the burst"
    );

    let snapshot = handle.net_counters().expect("reactor front end");
    let mut lat = ok_latencies.lock().unwrap().clone();
    lat.sort_unstable();
    assert!(!lat.is_empty(), "saturation run admitted nothing");
    let p99 = lat[((lat.len() * 99) / 100).min(lat.len() - 1)];
    let shed_total = sheds.load(std::sync::atomic::Ordering::Relaxed);
    assert!(
        shed_total > 0 || snapshot.sheds_decode > 0,
        "saturation produced no typed sheds (decode counter {})",
        snapshot.sheds_decode
    );
    assert!(
        p99 <= u64::from(DEADLINE_MS) * 1_000,
        "p99 {}us exceeds the {DEADLINE_MS}ms deadline",
        p99
    );

    let report = format!(
        "{{\"test\": \"saturation\", \"clients\": {CLIENTS}, \"pipeline\": {PIPELINE}, \
         \"rounds\": {ROUNDS}, \"deadline_ms\": {DEADLINE_MS}, \"elapsed_ms\": {}, \
         \"admitted\": {}, \"typed_sheds\": {shed_total}, \"p99_micros\": {p99}, \
         \"sheds_decode\": {}, \"sheds_accept\": {}, \"frames_read\": {}, \
         \"coalesced_writes\": {}, \"writes\": {}, \"frames_inline\": {}, \
         \"point_reads_exact\": {point_exact}, \"point_reads_shed\": {point_shed}}}\n",
        started.elapsed().as_millis(),
        lat.len(),
        snapshot.sheds_decode,
        snapshot.sheds_accept,
        snapshot.frames_read,
        snapshot.coalesced_writes,
        snapshot.writes,
        snapshot.frames_inline,
    );
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/net-saturation-report.json", report).expect("write report");

    handle.shutdown();
}

/// The answer `req` must get, built without the engine or the socket
/// loop: the `core::query` kernels on the model the test published, and
/// literal `Response` values for the ops that never touch a kernel.
fn oracle_response(model: &KruskalModel, req: &Request) -> Response {
    use splatt::core::query::{entry_values, slice_len, slice_values, top_k, QueryArena};
    use splatt::serve::ModelInfo;
    let mut arena = QueryArena::new();
    if req.model == "missing" {
        return Response::Error(
            WireError::ModelNotFound,
            "model 'missing' version 3 not found".into(),
        );
    }
    match &req.body {
        RequestBody::Entry { order, coords } => {
            let mut out = vec![0.0; coords.len() / usize::from(*order)];
            entry_values(model, coords, &mut out).expect("oracle entry");
            Response::Entries(out)
        }
        RequestBody::Slice { mode, index } => {
            let mode = usize::from(*mode);
            let mut out = vec![0.0; slice_len(model, mode).expect("oracle slice mode")];
            slice_values(model, mode, *index, &mut arena, &mut out).expect("oracle slice");
            Response::Slice(out)
        }
        RequestBody::TopK { mode, k, fixed } => {
            let mut out = Vec::new();
            top_k(
                model,
                usize::from(*mode),
                *k as usize,
                fixed,
                &mut arena,
                &mut out,
            )
            .expect("oracle top-k");
            Response::TopK(out)
        }
        RequestBody::List => Response::Models(vec![ModelInfo {
            name: "m".into(),
            version: 1,
            order: 3,
            rank: 3,
        }]),
        other => panic!("the sweep does not issue {other:?}"),
    }
}

/// 160 seeded requests over five kinds (entry, slice, top-k, list,
/// typed model-not-found): every response frame must equal,
/// byte for byte, the frame encoded from [`oracle_response`]. The sweep
/// once compared the reactor against a thread-per-connection loop over
/// the same engine; this oracle shares neither the socket loop nor the
/// engine with the server under test.
#[test]
fn reactor_answers_a_seeded_sweep_bit_identically_to_the_query_oracle() {
    let _guard = serial_guard();
    let (reactor, model) = start_server(FrontEndConfig::default(), ServeConfig::default());
    assert!(reactor.net_counters().is_some());

    let mut client = splatt::serve::Client::connect(reactor.addr()).expect("connect reactor");
    client
        .set_io_timeout(Some(Duration::from_secs(20)))
        .unwrap();

    let mut rng = Rng(0xAB0_CAFE);
    let mut kinds_seen = [0usize; 5];
    for i in 0..160 {
        let kind = rng.below(5) as usize;
        kinds_seen[kind] += 1;
        let req = match kind {
            0 => entry_request(&mut rng, &model, 5_000).0,
            1 => Request {
                deadline_ms: 5_000,
                model: "m".into(),
                version: 0,
                body: RequestBody::Slice {
                    mode: rng.below(3) as u8,
                    index: rng.below(5) as u32,
                },
            },
            2 => Request {
                deadline_ms: 5_000,
                model: "m".into(),
                version: 0,
                body: RequestBody::TopK {
                    mode: 0,
                    k: 1 + rng.below(7) as u32,
                    fixed: vec![rng.below(5) as u32, rng.below(6) as u32],
                },
            },
            3 => Request {
                deadline_ms: 0,
                model: String::new(),
                version: 0,
                body: RequestBody::List,
            },
            // Typed errors must match bit-for-bit too.
            _ => Request {
                deadline_ms: 5_000,
                model: "missing".into(),
                version: 3,
                body: RequestBody::Slice { mode: 0, index: 0 },
            },
        };
        let got = client.call_frame(&req).expect("reactor call");
        let want = encode_response(&oracle_response(&model, &req));
        assert_eq!(got, want, "response {i} differs from the oracle: {req:?}");
    }
    assert!(
        kinds_seen.iter().all(|&n| n > 0),
        "the seed must reach all five request kinds: {kinds_seen:?}"
    );

    reactor.shutdown();
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// The path counters a running server reports about itself, read the
/// way an operator would: one `Stats` request over the wire.
struct PathCounts {
    caller_runs: u64,
    batches: u64,
    batched_requests: u64,
    frames_read: u64,
    frames_inline: u64,
}

fn wire_path_counts(stream: &mut TcpStream) -> PathCounts {
    let stats = Request {
        deadline_ms: 0,
        model: String::new(),
        version: 0,
        body: RequestBody::Stats,
    };
    let Response::Stats(json) = call_raw(stream, &stats).expect("stats") else {
        panic!("expected a stats reply");
    };
    let doc = splatt::probe::json::parse(&json).expect("stats JSON");
    let serve = doc.get("serve").expect("serve object");
    let net = serve.get("net").expect("net object");
    let count = |obj: &splatt::probe::json::Value, key: &str| {
        obj.get(key)
            .and_then(splatt::probe::json::Value::as_u64)
            .unwrap_or_else(|| panic!("{key} missing from {json}"))
    };
    PathCounts {
        caller_runs: count(serve, "caller_runs"),
        batches: count(serve, "batches"),
        batched_requests: count(serve, "batched_requests"),
        frames_read: count(net, "frames_read"),
        frames_inline: count(net, "frames_inline"),
    }
}

/// N point reads are N inline frames, N caller-runs, no batch and no
/// pool job; N scans after them add nothing to the inline frames, run
/// on their pool worker (N more caller-runs), and are never batched —
/// and `Stats` answers which path each took.
#[test]
fn point_reads_run_inline_and_scans_go_through_the_pool_counted_exactly() {
    let _guard = serial_guard();
    const N: u64 = 25;
    let (handle, model) = start_server(FrontEndConfig::default(), ServeConfig::default());
    let mut stream = connect(&handle);
    let mut rng = Rng(0xC0_0417);
    for _ in 0..N {
        let (req, want) = entry_request(&mut rng, &model, 5_000);
        match call_raw(&mut stream, &req).expect("point read") {
            Response::Entries(vals) => assert_bits_eq(&vals, &want, "inline entry"),
            other => panic!("expected entries, got {other:?}"),
        }
    }
    let net = handle.net_counters().expect("reactor front end");
    assert_eq!((net.frames_read, net.frames_inline), (N, N));
    // read − inline − shed is what went to a worker: nothing.
    assert_eq!(net.sheds_decode, 0);
    assert_eq!(net.deadline_backstops, 0);
    let counts = wire_path_counts(&mut stream);
    assert_eq!(counts.caller_runs, N);
    assert_eq!((counts.batches, counts.batched_requests), (0, 0));
    // The `Stats` frame is itself read (and pooled) before it reports.
    assert_eq!((counts.frames_read, counts.frames_inline), (N + 1, N));

    for n in 0..N {
        // distinct keys: none is answered from the result cache
        let req = Request {
            deadline_ms: 5_000,
            model: "m".into(),
            version: 0,
            body: RequestBody::TopK {
                mode: 0,
                k: 3,
                fixed: vec![(n % 5) as u32, (n / 5) as u32],
            },
        };
        let got = call_raw(&mut stream, &req).expect("scan");
        assert_eq!(got, oracle_response(&model, &req), "scan {n}");
    }
    let counts = wire_path_counts(&mut stream);
    assert_eq!(counts.frames_inline, N, "no scan was answered inline");
    assert_eq!(counts.caller_runs, 2 * N, "every scan ran on its caller");
    assert_eq!(counts.frames_read, 2 * N + 2);
    assert_eq!((counts.batches, counts.batched_requests), (0, 0));
    handle.shutdown();
}

/// With the only pool worker busy on a backlog of scans from one
/// connection, a point read on another is answered at once: when the
/// point reads are done, most of the backlog is still unanswered.
#[test]
fn a_point_read_does_not_wait_for_another_connection_s_scans() {
    let _guard = serial_guard();
    const SCANS: usize = 24;
    const POINTS: u64 = 5;
    // 200 000 rows at rank 8: every scan is a millisecond or more.
    let model = KruskalModel {
        lambda: vec![1.0; 8],
        factors: vec![
            Matrix::random(200_000, 8, 0x51),
            Matrix::random(5, 8, 0x52),
            Matrix::random(6, 8, 0x53),
        ],
    };
    let (handle, model) = start_server_with(
        model,
        FrontEndConfig {
            workers: 1,
            ..FrontEndConfig::default()
        },
        ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let mut scanner = connect(&handle);
    let scans: Vec<_> = (0..SCANS)
        .map(|n| scan_request(&model, n, 30_000))
        .collect();
    for (req, _) in &scans {
        write_frame(&mut scanner, &encode_request(req).unwrap()).expect("send scan");
    }
    let mut reader = connect(&handle);
    let mut rng = Rng(0x150_1A7E);
    for _ in 0..POINTS {
        let (req, want) = entry_request(&mut rng, &model, 5_000);
        match call_raw(&mut reader, &req).expect("point read") {
            Response::Entries(vals) => assert_bits_eq(&vals, &want, "isolated entry"),
            other => panic!("expected entries, got {other:?}"),
        }
    }
    let net = handle.net_counters().expect("reactor front end");
    assert_eq!(net.frames_inline, POINTS);
    assert!(
        net.frames_written < POINTS + SCANS as u64 / 2,
        "the point reads waited for the scans: {net:?}"
    );
    for (n, (_, want)) in scans.iter().enumerate() {
        let frame = read_frame(&mut scanner).expect("scan reply");
        match decode_response(&frame).expect("decode") {
            Response::TopK(pairs) => assert_pairs_eq(&pairs, want, &format!("scan {n}")),
            other => panic!("expected top-k, got {other:?}"),
        }
    }
    handle.shutdown();
}

/// A wire `Shutdown` is acknowledged and the server drains and exits
/// while a client is still issuing point reads; that client sees exact
/// answers, then typed `ShuttingDown` or the connection closing —
/// nothing untyped, nothing torn.
#[test]
fn wire_shutdown_drains_with_inline_traffic_in_flight() {
    let _guard = serial_guard();
    let (handle, model) = start_server(FrontEndConfig::default(), ServeConfig::default());
    let mut stream = connect(&handle);
    let hammer = std::thread::spawn(move || {
        let mut rng = Rng(0x000D_2A14);
        let mut exact = 0u64;
        loop {
            let (req, want) = entry_request(&mut rng, &model, 5_000);
            match call_raw(&mut stream, &req) {
                Ok(Response::Entries(vals)) => {
                    assert_bits_eq(&vals, &want, "entry during drain");
                    exact += 1;
                }
                Ok(Response::Error(WireError::ShuttingDown, _)) | Err(_) => return exact,
                Ok(other) => panic!("untyped outcome during drain: {other:?}"),
            }
        }
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.net_counters().expect("front end").frames_inline < 50 {
        assert!(Instant::now() < deadline, "no inline traffic");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut control = connect(&handle);
    let shutdown = Request {
        deadline_ms: 0,
        model: String::new(),
        version: 0,
        body: RequestBody::Shutdown,
    };
    assert_eq!(
        call_raw(&mut control, &shutdown).expect("shutdown ack"),
        Response::Ack
    );
    handle.join();
    assert!(hammer.join().expect("hammer thread") >= 50);
}

/// Op bytes 7, 8 and 9 once carried a liveness probe and two
/// shard-scoped scans. Frames laid out as those ops were are now unknown
/// ops: each is refused typed, naming the op, and the connection goes
/// on being served.
#[test]
fn retired_ops_are_refused_typed_and_the_connection_lives() {
    let _guard = serial_guard();
    let (handle, model) = start_server(FrontEndConfig::default(), ServeConfig::default());
    let mut stream = connect(&handle);
    // Each op's former body after the request header: none; mode, k,
    // two fixed coordinates and a shard selection (shard, nshards, seed);
    // mode, index and a shard selection.
    let selection = [
        &0u32.to_le_bytes()[..],
        &3u32.to_le_bytes(),
        &0x5EEDu64.to_le_bytes(),
    ]
    .concat();
    let top_k_shard = [&[0u8][..], &3u32.to_le_bytes(), &[2], &[0; 8], &selection].concat();
    let slice_shard = [&[1u8][..], &0u32.to_le_bytes(), &selection].concat();
    for (op, name, body) in [
        (7u8, "", vec![]),
        (8, "m", top_k_shard),
        (9, "m", slice_shard),
    ] {
        let mut frame = vec![op];
        frame.extend_from_slice(&5_000u32.to_le_bytes());
        frame.extend_from_slice(&(name.len() as u16).to_le_bytes());
        frame.extend_from_slice(name.as_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        frame.extend_from_slice(&body);
        assert!(frame.len() <= 56, "op {op}: {} bytes", frame.len());
        write_frame(&mut stream, &frame).expect("send");
        let reply = read_frame(&mut stream).expect("a reply, not a dropped connection");
        match decode_response(&reply).expect("a well-formed reply") {
            Response::Error(WireError::BadRequest, msg) => {
                assert!(msg.contains(&format!("unknown op {op}")), "{msg}");
            }
            other => panic!("expected BadRequest for op {op}, got {other:?}"),
        }
        // Same connection, next request: answered bit-exactly.
        let mut rng = Rng(0x11FE + u64::from(op));
        let (req, want) = entry_request(&mut rng, &model, 5_000);
        match call_raw(&mut stream, &req).expect("follow-up") {
            Response::Entries(vals) => assert_bits_eq(&vals, &want, "follow-up entry"),
            other => panic!("expected entries, got {other:?}"),
        }
    }
    handle.shutdown();
}
