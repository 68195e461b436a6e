//! `serve_point` / `serve_scan`: a loopback server under two closed-loop
//! clients.
//!
//! Two mixes because the two ends of a request are different layers. On
//! `serve_point` the query kernel is well under 1 % of a round trip, so
//! wire, reactor, worker pool and batcher are all there is to measure —
//! and a faster kernel must change nothing. On `serve_scan` a TopK or
//! Slice miss costs a millisecond of kernel, the key set is 8x the
//! result cache, and responses reach 98 KB — so kernel and cache decide,
//! and a faster front end must change (almost) nothing.

use super::gen::{self, Q};
use super::loadgen::{
    closed_loop, engine_query, kernel, open_loop, Answer, ClientPlan, LoopLog, MODEL_NAME,
};
use super::{timed_setup, Ctx, Outcome, GATED_TASKS};
use crate::adapter::{
    decode_request, decode_response, encode_request, encode_response, serve_with, CancelToken,
    Client, FrontEndConfig, KruskalModel, QueryArena, ServeConfig, ServeEngine, ServerHandle,
};
use crate::env::OneCpu;
use crate::stats::{median, percentile_sorted, segment_stats, sorted, LoopSamples, SegmentStats};
use crate::trace::Tracer;
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Point,
    Scan,
}

/// Blocking closed-loop clients, one connection each.
const CLIENTS: usize = 2;
/// Front-end worker threads (`FrontEndConfig::workers`).
const NET_WORKERS: usize = 2;
/// Equal time segments the timed loop is cut into; the reported
/// throughput and latency are quiet deciles over segments: the best one.
const SEGMENTS: usize = 10;

impl Mix {
    /// Untimed requests per client before timing: lets the connection,
    /// the arenas and (on scan) the LRU reach steady state.
    fn warmup(self) -> usize {
        match self {
            Mix::Point => 500,
            Mix::Scan => 300,
        }
    }

    /// Distinct keys of client 0 sent through each of the three depths,
    /// each key once: the engine-backed depths then never hit the result
    /// cache, and a depth's median is the cost of its layer on a miss
    /// (what the cache saves is `engine.cache_hit_ratio`'s to say).
    fn depth_queries(self, quick: bool) -> usize {
        let n = match self {
            Mix::Point => 20_000,
            Mix::Scan => 1_000,
        };
        if quick {
            n / 10
        } else {
            n
        }
    }

    /// Kernel calls timed as one span: one `entry_values` call is ~140 ns,
    /// less than two clock readings.
    fn kernel_block(self) -> usize {
        match self {
            Mix::Point => 100,
            Mix::Scan => 1,
        }
    }

    /// Fixed open-loop rate, about 20 % of the seed's closed-loop capacity.
    fn open_rate_per_s(self) -> f64 {
        match self {
            Mix::Point => 3000.0,
            Mix::Scan => 150.0,
        }
    }
}

/// A running server with its connected clients; shuts down on drop.
struct Live {
    server: Option<ServerHandle>,
    clients: Vec<Client>,
    plans: Vec<ClientPlan>,
}

impl Drop for Live {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Live {
    fn server(&self) -> &ServerHandle {
        self.server.as_ref().expect("server runs until drop")
    }
}

/// Each client's query list with its oracle answers, and a fingerprint
/// of the lists. The harness's own data, made once per run (the scan
/// oracle alone is ~1500 top-k kernels) and not part of `setup_s`.
fn build_plans(ctx: &Ctx, mix: Mix) -> (Vec<ClientPlan>, u64) {
    let model = gen::serve_model(ctx.seed, ctx.quick);
    let lists: Vec<gen::QueryList> = (0..CLIENTS as u64)
        .map(|c| match mix {
            Mix::Point => gen::point_queries(&model, ctx.seed, c, ctx.quick),
            Mix::Scan => {
                gen::scan_queries(gen::scan_keys(&model, ctx.seed), ctx.seed, c, ctx.quick)
            }
        })
        .collect();
    let input_hash = lists.iter().fold(0u64, |h, l| h.rotate_left(1) ^ l.hash());
    let plans = match mix {
        Mix::Point => lists
            .into_iter()
            .map(|list| ClientPlan::build(&model, list))
            .collect(),
        // one key set for all clients: one oracle, shared
        Mix::Scan => {
            let mut lists = lists.into_iter();
            let first = ClientPlan::build(&model, lists.next().expect("CLIENTS is positive"));
            let rest: Vec<ClientPlan> = lists.map(|l| first.with_order(l.order)).collect();
            std::iter::once(first).chain(rest).collect()
        }
    };
    (plans, input_hash)
}

/// Start the engine, publish the model, bind, connect.
fn start(model: &KruskalModel, plans: &[ClientPlan]) -> Live {
    let engine = ServeEngine::start(ServeConfig {
        ntasks: GATED_TASKS,
        cache_capacity: gen::SCAN_CACHE,
        ..ServeConfig::default()
    });
    engine.publish(MODEL_NAME, model.clone());
    let server = serve_with(
        engine,
        "127.0.0.1:0",
        FrontEndConfig {
            workers: NET_WORKERS,
            ..FrontEndConfig::default()
        },
    )
    .expect("bind a loopback port");
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).expect("connect to the loopback server"))
        .collect();
    Live {
        server: Some(server),
        clients,
        plans: plans.to_vec(),
    }
}

/// Engine and front-end counters, read while the clients are parked.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    batches: u64,
    batched_requests: u64,
    cache_hits: u64,
    cache_misses: u64,
    engine_sheds: u64,
    polls: u64,
    frames_read: u64,
    writes: u64,
    frames_written: u64,
    net_sheds: u64,
}

fn counters(server: &ServerHandle) -> Counters {
    let serve = server
        .engine()
        .profile_report()
        .serve
        .expect("the engine reports a serve row");
    let net = server.net_counters().expect("the reactor front end counts");
    Counters {
        batches: serve.batches,
        batched_requests: serve.batched_requests,
        cache_hits: serve.cache_hits,
        cache_misses: serve.cache_misses,
        engine_sheds: serve.sheds,
        polls: net.polls,
        frames_read: net.frames_read,
        writes: net.writes,
        frames_written: net.frames_written,
        net_sheds: net.sheds_accept + net.sheds_decode,
    }
}

impl Counters {
    /// What accrued since `before`.
    fn since(self, before: Counters) -> Counters {
        Counters {
            batches: self.batches - before.batches,
            batched_requests: self.batched_requests - before.batched_requests,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            engine_sheds: self.engine_sheds - before.engine_sheds,
            polls: self.polls - before.polls,
            frames_read: self.frames_read - before.frames_read,
            writes: self.writes - before.writes,
            frames_written: self.frames_written - before.frames_written,
            net_sheds: self.net_sheds - before.net_sheds,
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What all clients saw in one timed closed loop.
struct Phase {
    stats: SegmentStats,
    attempted: u64,
    failed: u64,
    /// What the counters accrued between the end of warm-up and the end
    /// of timing.
    counted: Counters,
}

/// All clients through one timed closed loop.
fn closed_phase(
    live: &mut Live,
    warmup: usize,
    duration: Duration,
    mut tracers: Option<&mut Vec<Tracer>>,
) -> Phase {
    let (parked, go) = (Barrier::new(CLIENTS + 1), Barrier::new(CLIENTS + 1));
    let server = live.server.as_ref().expect("server runs until drop");
    let plans = &live.plans;
    let mut before = Counters::default();
    let logs: Vec<LoopLog> = std::thread::scope(|scope| {
        let mut slots: Vec<Option<&mut Tracer>> = match tracers.as_mut() {
            Some(ts) => ts.iter_mut().map(Some).collect(),
            None => (0..CLIENTS).map(|_| None).collect(),
        };
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .zip(plans)
            .zip(slots.drain(..))
            .map(|((client, plan), tracer)| {
                let gates = [&parked, &go];
                scope.spawn(move || {
                    closed_loop(client, plan, warmup, &gates, (duration, SEGMENTS), tracer)
                })
            })
            .collect();
        parked.wait();
        before = counters(server);
        go.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let counted = counters(server).since(before);
    let (attempted, failed) = logs
        .iter()
        .fold((0, 0), |(a, f), log| (a + log.attempted, f + log.failed));
    let samples: Vec<LoopSamples> = logs.into_iter().map(|log| log.samples).collect();
    Phase {
        stats: segment_stats(&samples, duration.as_secs_f64() / SEGMENTS as f64),
        attempted,
        failed,
        counted,
    }
}

pub fn run(ctx: &Ctx, mix: Mix) -> Outcome {
    let mut out = Outcome::new(ctx.traced);
    let confined = OneCpu::confine();
    out.note_confinement(&confined);
    let (plans, input_hash) = build_plans(ctx, mix);
    // what the program needs to be ready: a model, an engine, a socket
    let ((model, mut live), setup_s) = timed_setup(|| {
        let model = gen::serve_model(ctx.seed, ctx.quick);
        let live = start(&model, &plans);
        (model, live)
    });
    out.metrics.set("setup_s", setup_s);
    out.note("clients", CLIENTS);
    out.note("net_workers", NET_WORKERS);
    out.note("engine_tasks", GATED_TASKS);
    out.note("cache_capacity", gen::SCAN_CACHE);
    out.note("segments", SEGMENTS);
    out.note(
        "model_dims",
        format!(
            "{:?}",
            model.factors.iter().map(|f| f.rows()).collect::<Vec<_>>()
        ),
    );
    out.note("input_hash", format!("{input_hash:016x}"));

    if ctx.corrupt_oracle {
        // Self-test: the first timed request of client 0 now has a wrong
        // expected answer, so a right response must count as failed.
        let plan = &mut live.plans[0];
        let key = plan.key_at(mix.warmup());
        let mut answers = (*plan.answers).clone();
        answers[key] = match &answers[key] {
            Answer::Entry(v) => Answer::Entry(f64::from_bits(v.to_bits() ^ 1)),
            Answer::TopK(v) => Answer::TopK(v[1..].to_vec()),
            Answer::Slice(v) => Answer::Slice(v[1..].to_vec()),
        };
        plan.answers = std::sync::Arc::new(answers);
    }

    // ---- the gated pass: untraced, closed loop, CLIENTS clients ----
    let share = if ctx.traced { 0.3 } else { 1.0 };
    let duration = Duration::from_secs_f64(ctx.seconds * share);
    let gated = closed_phase(&mut live, mix.warmup(), duration, None);
    let (seg, c) = (&gated.stats, gated.counted);
    out.attempted += gated.attempted;
    out.failed += gated.failed;
    out.metrics.set("op_ms", seg.p50_us / 1e3);
    out.metrics.set("work_per_s", seg.per_s);
    out.note("segments_per_s_p50_us", format!("{:?}", seg.segments));
    out.note(
        "p99_us",
        seg.p99_us.map_or("unsupported".into(), |v| v.to_string()),
    );
    out.check(
        "every_response_matches_oracle",
        gated.failed == 0,
        format!("{} of {} requests failed", gated.failed, gated.attempted),
    );

    if ctx.traced {
        let m = &mut out.metrics;
        m.set("net.p99_us", seg.p99_us.unwrap_or(0.0));
        m.set("engine.batch_mean", ratio(c.batched_requests, c.batches));
        m.set(
            "engine.cache_hit_ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        );
        m.set("engine.sheds", c.engine_sheds as f64);
        m.set("net.polls_per_frame", ratio(c.polls, c.frames_read));
        m.set("net.writes_per_frame", ratio(c.writes, c.frames_written));
        m.set("net.sheds", c.net_sheds as f64);
        traced(ctx, mix, &model, &mut live, seg.per_s, &mut out);

        // Ungated diagnostic: the same loop on a second server started
        // with the process free to use every CPU.
        drop(live);
        drop(confined);
        let mut free = start(&model, &plans);
        let duration = Duration::from_secs_f64(ctx.seconds * 0.15);
        let unconfined = closed_phase(&mut free, mix.warmup(), duration, None);
        out.attempted += unconfined.attempted;
        out.failed += unconfined.failed;
        out.metrics
            .set("net.unpinned_p50_us", unconfined.stats.p50_us);
    }
    out
}

fn p50_us(spans_s: &[f64]) -> f64 {
    median(spans_s) * 1e6
}

/// The traced pass: the closed loop again with a span per request (the
/// tracing overhead), then client 0's queries at three depths — kernel,
/// in-process engine, one TCP client — then the open-loop probe.
fn traced(
    ctx: &Ctx,
    mix: Mix,
    model: &KruskalModel,
    live: &mut Live,
    untraced_per_s: f64,
    out: &mut Outcome,
) {
    let all = out.trace.as_ref().expect("traced pass has a tracer");
    let duration = Duration::from_secs_f64(ctx.seconds * 0.2);
    let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|_| all.fork()).collect();
    let mut tr = all.fork();
    let spanned = closed_phase(live, 0, duration, Some(&mut tracers));
    out.attempted += spanned.attempted;
    out.failed += spanned.failed;
    let traced_per_s = spanned.stats.per_s;

    let plan = live.plans[0].clone();
    let n = mix.depth_queries(ctx.quick).min(plan.keys.len());
    let mut failed = 0u64;

    // depth 1: the query kernels, no engine; `block` calls to a span
    let mut arena = QueryArena::new();
    let block = mix.kernel_block();
    for first in (0..n - n % block).step_by(block) {
        let span = tr.enter("query.kernel");
        for key in first..first + block {
            let got = kernel(model, plan.keys[key], &mut arena);
            failed += u64::from(std::hint::black_box(got) != plan.answers[key]);
        }
        tr.exit(span);
    }
    let kernel_us: Vec<f64> = tr
        .durations_s("query.kernel")
        .iter()
        .map(|s| s * 1e6 / block as f64)
        .collect();
    // on scan a span is one call: split the kinds
    let of_kind = |want: fn(&Q) -> bool| -> Vec<f64> {
        (plan.keys.iter().zip(&kernel_us))
            .filter(|(q, _)| want(q))
            .map(|(_, us)| *us)
            .collect()
    };

    // depth 2: the engine in process, one caller. Each engine-backed depth
    // starts on a freshly published model version, so both replay the
    // same queries against the same (cold) result cache.
    let engine = live.server().engine().clone();
    let cancel = CancelToken::new();
    engine.publish(MODEL_NAME, model.clone());
    for key in 0..n {
        let query = engine_query(plan.keys[key]);
        let got = tr.time("engine.query", || {
            engine.query(MODEL_NAME, 0, query, None, &cancel, || false)
        });
        failed += u64::from(!got.is_ok_and(|r| plan.answers[key].matches_engine(&r)));
    }

    // depth 3: one client over loopback TCP
    engine.publish(MODEL_NAME, model.clone());
    let client = &mut live.clients[0];
    for key in 0..n {
        let got = tr.time("net.call", || client.call(&plan.requests[key]));
        failed += u64::from(!got.is_ok_and(|r| plan.answers[key].matches_wire(&r)));
    }
    out.attempted += 3 * n as u64;
    out.failed += failed;

    // codec: the four encode/decode steps of one round trip, no socket
    let codec_n = n.min(2_000);
    let mut resp_bytes = 0usize;
    let codec_start = Instant::now();
    for key in 0..codec_n {
        let req = encode_request(&plan.requests[key]).expect("encodable request");
        std::hint::black_box(decode_request(&req).expect("decodable request"));
        let resp = encode_response(&plan.answers[key].to_response());
        resp_bytes += resp.len();
        std::hint::black_box(decode_response(&resp).expect("decodable response"));
    }
    let codec_ns = codec_start.elapsed().as_secs_f64() * 1e9 / codec_n as f64;

    // the open-loop probe (ungated diagnostic)
    let open = open_loop(
        live.server().addr(),
        &plan,
        mix.open_rate_per_s(),
        Duration::from_secs_f64((ctx.seconds * 0.15).max(0.5)),
    )
    .expect("open-loop connection");
    out.attempted += open.attempted;
    out.failed += open.failed;
    let (open_lat, open_late) = (sorted(&open.lat_us), sorted(&open.late_us));

    let kernel_p50 = median(&kernel_us);
    let engine_p50 = p50_us(&tr.durations_s("engine.query"));
    let tcp_p50 = p50_us(&tr.durations_s("net.call"));
    let m = &mut out.metrics;
    match mix {
        Mix::Point => {
            m.set("query.entry_ns", kernel_p50 * 1e3);
            m.set("engine.entry_us", engine_p50);
        }
        Mix::Scan => {
            m.set(
                "query.topk_us",
                median(&of_kind(|q| matches!(q, Q::TopK(_)))),
            );
            m.set(
                "query.slice_us",
                median(&of_kind(|q| matches!(q, Q::Slice(_)))),
            );
            m.set("engine.scan_us", engine_p50);
        }
    }
    // kernel + engine.self_us + net.self_us == the one-client median
    m.set("engine.self_us", engine_p50 - kernel_p50);
    m.set("net.self_us", tcp_p50 - engine_p50);
    m.set("protocol.codec_ns", codec_ns);
    m.set("protocol.resp_bytes", resp_bytes as f64 / codec_n as f64);
    if !open_lat.is_empty() {
        m.set("loadgen.open_p50_us", percentile_sorted(&open_lat, 0.5));
        m.set("loadgen.open_p99_us", percentile_sorted(&open_lat, 0.99));
    }
    if !open_late.is_empty() {
        m.set("loadgen.late_p99_us", percentile_sorted(&open_late, 0.99));
    }
    m.set("trace_overhead_share", untraced_per_s / traced_per_s - 1.0);
    out.note("kernel_p50_us", kernel_p50);
    out.note("tcp_one_client_p50_us", tcp_p50);
    out.note("open_loop_requests", open.attempted);
    out.check(
        "depth_and_probe_answers_match_oracle",
        failed + open.failed == 0,
        format!("{failed} depth + {} open-loop answers wrong", open.failed),
    );

    let all = out.trace.as_mut().expect("traced pass has a tracer");
    for t in tracers {
        all.absorb(t);
    }
    all.absorb(tr);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_ctx(corrupt_oracle: bool) -> Ctx {
        Ctx {
            seed: 11,
            seconds: 0.5,
            traced: false,
            quick: true,
            scratch: std::env::temp_dir(),
            corrupt_oracle,
        }
    }

    #[test]
    fn a_wrong_oracle_value_fails_the_run() {
        let good = run(&quick_ctx(false), Mix::Point);
        assert!(good.correct(), "{:?}", good.checks);
        assert!(good.attempted > 0 && good.failed == 0);
        for mix in [Mix::Point, Mix::Scan] {
            let bad = run(&quick_ctx(true), mix);
            assert!(
                !bad.correct(),
                "{mix:?}: a corrupted oracle must fail the run"
            );
            assert!(bad.failed >= 1);
        }
    }
}
