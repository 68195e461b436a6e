//! Load generators for the serve workloads, and the oracle every answer
//! is checked against.
//!
//! The gated generator is a **closed loop**: each client sends its next
//! request only after the previous answer arrived and was verified — the
//! model of callers that wait for a reply, and the only shape whose
//! numbers repeat on a shared 2-vCPU box. The **open loop** (one
//! pipelined connection on a fixed-gap schedule, latency timed from the
//! due time) is a diagnostic: its p99 swung 4-375 ms between identical
//! runs on the prototype, so it informs and does not gate.

use super::gen::{QueryList, Q, TOPK_K};
use crate::adapter::{
    decode_response, encode_request, entry_values, read_frame, slice_values, top_k, write_frame,
    Client, KruskalModel, Query, QueryArena, QueryResult, Request, RequestBody, Response,
};
use crate::stats::LoopSamples;
use crate::trace::Tracer;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Name the served model is published under.
pub const MODEL_NAME: &str = "bench";

/// A precomputed answer of the `splatt_core::query` kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Entry(f64),
    TopK(Vec<(u32, f64)>),
    Slice(Vec<f64>),
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_ranked(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

impl Answer {
    /// Is `resp` this answer, bit for bit? Error frames are not.
    pub fn matches_wire(&self, resp: &Response) -> bool {
        match (self, resp) {
            (Answer::Entry(v), Response::Entries(got)) => same_bits(&[*v], got),
            (Answer::TopK(v), Response::TopK(got)) => same_ranked(v, got),
            (Answer::Slice(v), Response::Slice(got)) => same_bits(v, got),
            _ => false,
        }
    }

    pub fn matches_engine(&self, result: &QueryResult) -> bool {
        match (self, result) {
            (Answer::Entry(v), QueryResult::Entries(got)) => same_bits(&[*v], got),
            (Answer::TopK(v), QueryResult::TopK(got)) => same_ranked(v, got),
            (Answer::Slice(v), QueryResult::Slice(got)) => same_bits(v, got),
            _ => false,
        }
    }

    /// The wire response carrying this answer (for codec timing).
    pub fn to_response(&self) -> Response {
        match self {
            Answer::Entry(v) => Response::Entries(vec![*v]),
            Answer::TopK(v) => Response::TopK(v.clone()),
            Answer::Slice(v) => Response::Slice(v.clone()),
        }
    }
}

/// Run the query kernel for `q` directly on the model.
///
/// # Panics
/// Panics when the kernel rejects the query: the generators only make
/// in-range queries.
pub fn kernel(model: &KruskalModel, q: Q, arena: &mut QueryArena) -> Answer {
    match q {
        Q::Entry(coord) => {
            let mut out = [0.0];
            entry_values(model, &coord, &mut out).expect("in-range entry query");
            Answer::Entry(out[0])
        }
        Q::TopK(fixed) => {
            let mut out = Vec::with_capacity(TOPK_K as usize);
            top_k(model, 0, TOPK_K as usize, &fixed, arena, &mut out).expect("in-range top-k");
            Answer::TopK(out)
        }
        Q::Slice(index) => {
            let len = model.factors[1].rows() * model.factors[2].rows();
            let mut out = vec![0.0; len];
            slice_values(model, 0, index, arena, &mut out).expect("in-range slice");
            Answer::Slice(out)
        }
    }
}

pub fn wire_request(q: Q) -> Request {
    let body = match q {
        Q::Entry(coord) => RequestBody::Entry {
            order: 3,
            coords: coord.to_vec(),
        },
        Q::TopK(fixed) => RequestBody::TopK {
            mode: 0,
            k: TOPK_K,
            fixed: fixed.to_vec(),
        },
        Q::Slice(index) => RequestBody::Slice { mode: 0, index },
    };
    Request {
        deadline_ms: 0,
        model: MODEL_NAME.to_string(),
        version: 0,
        body,
    }
}

pub fn engine_query(q: Q) -> Query {
    match q {
        Q::Entry(coord) => Query::Entry {
            coords: coord.to_vec(),
        },
        Q::TopK(fixed) => Query::TopK {
            mode: 0,
            k: TOPK_K,
            fixed: fixed.to_vec(),
        },
        Q::Slice(index) => Query::Slice { mode: 0, index },
    }
}

/// Everything one client needs: its request order, and per distinct key
/// the query, the prebuilt wire request and the oracle answer.
#[derive(Debug, Clone)]
pub struct ClientPlan {
    pub order: Vec<u32>,
    pub keys: Arc<Vec<Q>>,
    pub requests: Arc<Vec<Request>>,
    pub answers: Arc<Vec<Answer>>,
}

impl ClientPlan {
    /// Precompute requests and oracle answers for `list`.
    pub fn build(model: &KruskalModel, list: QueryList) -> ClientPlan {
        let mut arena = QueryArena::new();
        let answers = list
            .keys
            .iter()
            .map(|&q| kernel(model, q, &mut arena))
            .collect();
        ClientPlan {
            requests: Arc::new(list.keys.iter().map(|&q| wire_request(q)).collect()),
            answers: Arc::new(answers),
            keys: Arc::new(list.keys),
            order: list.order,
        }
    }

    /// The same keys, requests and answers under another request order.
    pub fn with_order(&self, order: Vec<u32>) -> ClientPlan {
        ClientPlan {
            order,
            ..self.clone()
        }
    }

    /// Key index of the `i`-th request (the list wraps).
    pub fn key_at(&self, i: usize) -> usize {
        self.order[i % self.order.len()] as usize
    }
}

/// Samples a client's log has room for without growing (16 MB of
/// address space, resident only as far as it is written).
const SAMPLE_CAPACITY: usize = 1 << 22;

/// What one closed-loop client saw.
#[derive(Debug, Default)]
pub struct LoopLog {
    pub samples: LoopSamples,
    pub attempted: u64,
    /// Transport errors, error frames (sheds included) and wrong answers.
    pub failed: u64,
}

/// One request/verify round trip; `true` when the answer was right.
fn call_and_verify(client: &mut Client, plan: &ClientPlan, key: usize) -> bool {
    match client.call(&plan.requests[key]) {
        Ok(resp) => plan.answers[key].matches_wire(&resp),
        Err(_) => false,
    }
}

/// Drive `client` through `plan` for `duration` (cut into `segments`
/// equal parts), after `warmup` untimed requests. `gates` are waited on
/// in turn between warm-up and timing, so the caller can read counters
/// while every client is parked. With a tracer, each timed request is one
/// `client.call` span.
pub fn closed_loop(
    client: &mut Client,
    plan: &ClientPlan,
    warmup: usize,
    gates: &[&Barrier],
    (duration, segments): (Duration, usize),
    mut tracer: Option<&mut Tracer>,
) -> LoopLog {
    let mut log = LoopLog {
        samples: LoopSamples::new(SAMPLE_CAPACITY, segments),
        ..LoopLog::default()
    };
    let segment_ns = (duration.as_nanos() as u64 / segments as u64).max(1);
    for i in 0..warmup {
        call_and_verify(client, plan, plan.key_at(i));
    }
    for gate in gates {
        gate.wait();
    }
    let start = Instant::now();
    let mut i = warmup;
    loop {
        let sent = Instant::now();
        if sent.duration_since(start) >= duration {
            break;
        }
        let span = tracer.as_mut().map(|t| t.enter("client.call"));
        let ok = call_and_verify(client, plan, plan.key_at(i));
        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
            t.exit(span);
        }
        let done = Instant::now();
        log.attempted += 1;
        log.failed += u64::from(!ok);
        log.samples.record(
            (done.duration_since(start).as_nanos() as u64 / segment_ns) as usize,
            done.duration_since(sent).as_nanos() as u64,
        );
        i += 1;
    }
    log
}

/// What the open-loop probe saw.
#[derive(Debug, Default)]
pub struct OpenLog {
    /// Latency of each answered request, timed from when it was due (µs).
    pub lat_us: Vec<f64>,
    /// How late each send left the generator (µs).
    pub late_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Most requests the probe keeps in flight (the server's per-connection
/// pipeline limit is 32).
const OPEN_MAX_IN_FLIGHT: u64 = 30;

/// One pipelined connection: a paced writer thread sends request `i` at
/// `i / rate` seconds (waiting while [`OPEN_MAX_IN_FLIGHT`] are
/// unanswered — that wait shows as lateness), a blocking reader thread
/// takes the in-order answers and times each from its due time.
pub fn open_loop(
    addr: SocketAddr,
    plan: &ClientPlan,
    rate_per_s: f64,
    duration: Duration,
) -> std::io::Result<OpenLog> {
    let total = (rate_per_s * duration.as_secs_f64()) as usize;
    let gap = Duration::from_secs_f64(1.0 / rate_per_s);
    let frames: Vec<Vec<u8>> = plan
        .requests
        .iter()
        .map(encode_request)
        .collect::<std::io::Result<_>>()?;
    let mut reader = TcpStream::connect(addr)?;
    reader.set_nodelay(true)?;
    reader.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut writer = reader.try_clone()?;
    let answered = AtomicU64::new(0);
    let reader_gone = AtomicBool::new(false);
    let start = Instant::now();
    let due = |i: usize| start + gap * i as u32;

    let mut log = OpenLog::default();
    let late_us = std::thread::scope(|scope| {
        let pacer = scope.spawn(|| {
            let mut late_us = Vec::with_capacity(total);
            for i in 0..total {
                if let Some(wait) = due(i).checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                while i as u64 - answered.load(Ordering::Acquire) >= OPEN_MAX_IN_FLIGHT {
                    if reader_gone.load(Ordering::Acquire) {
                        return late_us;
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
                late_us.push(due(i).elapsed().as_secs_f64() * 1e6);
                if write_frame(&mut writer, &frames[plan.key_at(i)]).is_err() {
                    break;
                }
            }
            late_us
        });
        for i in 0..total {
            log.attempted += 1;
            let ok = match read_frame(&mut reader).and_then(|f| decode_response(&f)) {
                Ok(resp) => {
                    log.lat_us.push(due(i).elapsed().as_secs_f64() * 1e6);
                    plan.answers[plan.key_at(i)].matches_wire(&resp)
                }
                Err(_) => {
                    // the stream is lost: everything still owed has failed
                    log.attempted += (total - i - 1) as u64;
                    log.failed += (total - i) as u64;
                    break;
                }
            };
            log.failed += u64::from(!ok);
            // Release: the pacer's Acquire load sees this answer counted
            answered.fetch_add(1, Ordering::Release);
        }
        reader_gone.store(true, Ordering::Release);
        pacer.join().expect("pacer thread panicked")
    });
    log.late_us = late_us;
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_compare_bit_for_bit_and_reject_errors() {
        let a = Answer::Entry(0.1 + 0.2);
        assert!(a.matches_wire(&Response::Entries(vec![0.1 + 0.2])));
        assert!(!a.matches_wire(&Response::Entries(vec![0.3])));
        assert!(!a.matches_wire(&Response::Entries(vec![])));
        assert!(!a.matches_wire(&Response::Ack));
        let t = Answer::TopK(vec![(3, 1.0), (1, -0.0)]);
        assert!(t.matches_wire(&Response::TopK(vec![(3, 1.0), (1, -0.0)])));
        assert!(!t.matches_wire(&Response::TopK(vec![(3, 1.0), (1, 0.0)])));
        assert!(a.matches_wire(&a.to_response()) && t.matches_wire(&t.to_response()));
    }
}
