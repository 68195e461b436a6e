//! The hierarchical profile report: per-routine rows (the paper's
//! Table III layout), per-thread load, lock contention, allocation
//! accounting, and the span tree — renderable as text and as
//! schema-stable JSON.

use crate::alloc::AllocStats;
use crate::json;
use crate::locks::LockStats;
use crate::span::SpanNode;
use crate::tasks::ThreadLoad;
use std::fmt::Write as _;

/// Version tag embedded in every JSON profile. Bump only with a schema
/// change; tests pin the current value. v2 added the `faults` array
/// (injected-fault and recovery-action rows); v3 added the `guard`
/// object (run-governance checks, trips, and watchdog activity); v4
/// added `kernel_scratch_*` alloc counters; v5 added the `serve` object
/// (per-query-kind latency histograms, batch-size distribution, cache
/// hit rate, and shed counts from the serving subsystem); v6 added the
/// `dispatch` array (per-mode tensor-format and kernel decisions from
/// the benchmark-driven dispatcher); v7 added `serve.shards` (per-shard
/// cluster routing counters: retries, failovers, degraded answers,
/// health transitions, and replica lag — empty in single-process mode);
/// v8 added the `store` object (durability counters from the crash-safe
/// persistence layer: WAL appends/commits/fsyncs, atomic publishes,
/// segment rotations, recovery scans, torn bytes truncated, and
/// checksum failures — `null` outside ingest/recover runs); v9 added
/// the `refresh` object (online-refresh counters: rounds, deltas
/// applied, incremental-merge comparisons and time, rebuild sorts
/// skipped, warm-started refit iterations, warm fit and warm-vs-cold
/// gap, publish latency, and the durable watermark — `null` outside
/// refresh runs); v10 added `serve.net` (multiplexed front-end
/// counters from the `splatt-net` reactor: connection counts and peak,
/// readiness wakeups, frame and write-coalescing totals, per-layer
/// admission sheds, idle closes, deadline backstops, and worker-pool
/// size — `null` when the engine is used in-process with no front end
/// attached, or not serving at all); v11 removed the `dispatch` array
/// (the second tensor format it reported on was deleted, so there
/// is no per-mode format decision left to record); v12 added the two
/// path counters `serve.caller_runs` (requests the engine computed on
/// the calling thread, never queued) and `serve.net.frames_inline`
/// (frames the reactor answered on its own thread, never pooled).
pub const PROFILE_SCHEMA: &str = "splatt-profile-v12";

/// One row of the per-routine table (label from `splatt_par::Routine`).
#[derive(Debug, Clone, PartialEq)]
pub struct RoutineRow {
    pub routine: String,
    pub seconds: f64,
}

/// One injected fault and the recovery action that absorbed it.
///
/// Kept as plain strings so this crate stays independent of the
/// fault-injection crate: producers (the CP-ALS drivers) translate their
/// typed fault records into rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultRow {
    /// Fault kind label (e.g. `straggler`, `non-spd-gram`).
    pub kind: String,
    /// ALS iteration the fault hit.
    pub iteration: usize,
    /// Where it was injected (e.g. `mode 1 mttkrp`, `allreduce rank 3`).
    pub site: String,
    /// Human-readable recovery description (e.g. `retried 2x`).
    pub action: String,
}

/// Run-governance activity during one profiled run.
///
/// Like [`FaultRow`], kept as plain data so this crate stays independent
/// of the guard crate: the CP-ALS drivers translate a guard snapshot
/// into this row.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GuardRow {
    /// Full driver guard checks performed.
    pub checks: u64,
    /// Checks that returned a trip.
    pub trips: u64,
    /// Stall reports filed by the watchdog.
    pub watchdog_reports: u64,
    /// Sampling passes the watchdog completed.
    pub watchdog_samples: u64,
    /// Human-readable trip reason, empty if the run never tripped.
    pub trip: String,
}

/// Latency profile of one query kind served by the serving subsystem.
///
/// Buckets are log2 microseconds: `buckets[i]` counts requests whose
/// latency fell in `[2^i, 2^(i+1))` µs, with sub-microsecond requests in
/// bucket 0. Quantiles are precomputed by the producer from the same
/// histogram so the row stays plain data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryKindRow {
    /// Query kind label (`entry`, `slice`, `topk`).
    pub kind: String,
    /// Requests answered successfully.
    pub requests: u64,
    /// Median latency in microseconds (histogram upper bound).
    pub p50_micros: u64,
    /// 99th-percentile latency in microseconds (histogram upper bound).
    pub p99_micros: u64,
    /// Worst observed latency in microseconds.
    pub max_micros: u64,
    /// Log2-microsecond latency histogram.
    pub buckets: Vec<u64>,
}

/// Per-shard cluster routing counters — the v7 schema addition. Like
/// [`FaultRow`], kept as plain data so this crate stays independent of
/// the serving crate: the cluster router translates its atomics into
/// rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardRow {
    /// Shard index on the consistent-hash ring.
    pub shard: usize,
    /// Full replica-sweep retries (capped exponential backoff rounds).
    pub retries: u64,
    /// Calls answered by a non-first replica after a sibling failed.
    pub failovers: u64,
    /// Typed `Degraded` answers: no live replica covered this shard.
    pub degraded: u64,
    /// Health-state transitions across the shard's replica set
    /// (live→suspect, suspect→dead, re-admissions).
    pub health_transitions: u64,
    /// Max−min health-probe round-trip across answering replicas, µs.
    pub replica_lag_micros: u64,
}

/// Serving-subsystem activity during one profiled process — the v5
/// schema addition. Like [`FaultRow`] and [`GuardRow`], kept as plain
/// data so this crate stays independent of the serving crate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeRow {
    /// Per-query-kind latency rows, one per kind that saw traffic.
    pub kinds: Vec<QueryKindRow>,
    /// Batches executed by the micro-batching scheduler.
    pub batches: u64,
    /// Requests that rode in those batches.
    pub batched_requests: u64,
    /// Largest batch coalesced.
    pub max_batch: u64,
    /// Requests computed on the thread that submitted them (the v12
    /// addition): they rode in no batch, so a request is in
    /// `batched_requests`, here, or a cache hit.
    pub caller_runs: u64,
    /// Log2 batch-size histogram: `batch_buckets[i]` counts batches of
    /// size in `[2^i, 2^(i+1))`.
    pub batch_buckets: Vec<u64>,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Entries evicted from the result cache.
    pub cache_evictions: u64,
    /// Requests shed by admission control (typed `Overloaded`).
    pub sheds: u64,
    /// Requests rejected because their deadline expired in queue.
    pub deadline_rejections: u64,
    /// Query-arena growth events since serving started (warm-up only in
    /// a healthy steady state).
    pub arena_growth_allocs: u64,
    /// Bytes of query-arena growth.
    pub arena_growth_bytes: u64,
    /// Per-shard cluster routing counters (the v7 addition); empty when
    /// the process serves single-process, without a router.
    pub shards: Vec<ShardRow>,
    /// Multiplexed front-end counters (the v10 addition); `None` when
    /// the engine is used in-process with no front end attached.
    pub net: Option<NetFrontRow>,
}

/// Reactor front-end counters — the v10 schema addition. Like
/// [`ServeRow`], plain data so this crate stays independent of the
/// networking crate; the serving layer copies its live counters in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetFrontRow {
    /// Connections accepted from the OS (including ones later shed).
    pub accepted: u64,
    /// Connections registered with the reactor at snapshot time.
    pub connections_open: u64,
    /// High-water mark of open connections.
    pub connections_peak: u64,
    /// Poll/sweep iterations executed.
    pub polls: u64,
    /// Polls that returned at least one ready descriptor.
    pub readiness_wakeups: u64,
    /// Complete request frames parsed off sockets.
    pub frames_read: u64,
    /// Request frames answered on the reactor thread, never handed to
    /// the worker pool (the v12 addition).
    pub frames_inline: u64,
    /// Response frames appended to write buffers.
    pub frames_written: u64,
    /// Write syscalls issued.
    pub writes: u64,
    /// Flushes that pushed two or more response frames in one batch.
    pub coalesced_writes: u64,
    /// Connections shed at the accept layer (connection cap).
    pub sheds_accept: u64,
    /// Requests shed at the decode layer (queue depth or pipeline cap).
    pub sheds_decode: u64,
    /// Connections closed by the idle timer.
    pub idle_closed: u64,
    /// Requests answered by the reactor's deadline backstop.
    pub deadline_backstops: u64,
    /// Worker threads in the front-end pool.
    pub worker_threads: u64,
}

impl ServeRow {
    /// Cache hit rate in `[0, 1]`; 0 when the cache saw no lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Durability-layer counters from the crash-safe persistence stack —
/// the v8 schema addition. Like [`FaultRow`], kept as plain data so
/// this crate stays independent of the store crate: the CLI copies a
/// `splatt-store` counter snapshot into this row after an
/// ingest/recover run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreRow {
    /// Records appended to a WAL (buffered; not yet durable).
    pub wal_appends: u64,
    /// Group commits that reached the durable-ack point.
    pub wal_commits: u64,
    /// `fsync` calls issued (segments, artifacts, directories).
    pub fsyncs: u64,
    /// Artifacts published via the temp→fsync→rename protocol.
    pub atomic_publishes: u64,
    /// WAL segment rotations.
    pub segments_rotated: u64,
    /// WAL recovery scans performed on open.
    pub recoveries: u64,
    /// Records returned by recovery scans.
    pub records_recovered: u64,
    /// Bytes physically truncated off torn WAL tails.
    pub torn_bytes_truncated: u64,
    /// CRC mismatches observed while reading frames.
    pub checksum_failures: u64,
}

/// Online-refresh counters — the v9 schema addition. Like [`StoreRow`],
/// plain data: the refresh driver copies its counters into this row so
/// the probe crate stays independent of the solver and store crates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RefreshRow {
    /// Refresh rounds completed (WAL tail → merge → refit → publish).
    pub rounds: u64,
    /// WAL records applied past the committed watermark.
    pub deltas_applied: u64,
    /// Individual delta entries merged into the resident tensor.
    pub entries_merged: u64,
    /// Coordinate comparisons spent in the incremental merges — the
    /// asymptotic-cost evidence (compare against a full re-coalesce
    /// bound, not wall-clock).
    pub merge_compare_ops: u64,
    /// Nanoseconds spent merging deltas into the resident tensor.
    pub merge_ns: u64,
    /// CSF rebuild sorts skipped because the merged tensor was
    /// already strictly sorted (the incremental-rebuild fast path).
    pub sorts_skipped: u64,
    /// ALS iterations across all warm-started refits.
    pub refit_iterations: u64,
    /// Final fit of the most recent warm-started refit.
    pub warm_fit: f64,
    /// `|warm fit − cold fit|` of the most recent audited refit; `0`
    /// when the cold-refit audit was not requested.
    pub warm_fit_gap: f64,
    /// Nanoseconds spent publishing (model artifact + manifest + registry).
    pub publish_ns: u64,
    /// Committed WAL watermark, exclusive: every record with
    /// `seq < watermark` is durably folded into the published state.
    pub watermark: u64,
}

/// Everything measured during one profiled CP-ALS run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    pub ntasks: usize,
    pub rank: usize,
    pub iterations: usize,
    /// Label of the lock strategy in effect (paper terms: Atomic / Sync /
    /// FIFO-sync), regardless of whether the run actually took locks.
    pub lock_strategy: String,
    /// True if at least one MTTKRP used the lock pool (vs privatization).
    pub used_locks: bool,
    pub routines: Vec<RoutineRow>,
    pub threads: ThreadLoad,
    pub locks: LockStats,
    pub alloc: AllocStats,
    pub span: SpanNode,
    /// Injected faults and their recovery actions, in injection order.
    /// Empty when the run had no fault plan.
    pub faults: Vec<FaultRow>,
    /// Run-governance activity; `None` when the run was unguarded.
    pub guard: Option<GuardRow>,
    /// Serving-subsystem activity; `None` outside a serving process.
    pub serve: Option<ServeRow>,
    /// Durability-layer counters; `None` outside ingest/recover runs.
    pub store: Option<StoreRow>,
    /// Online-refresh counters; `None` outside refresh runs.
    pub refresh: Option<RefreshRow>,
}

impl Default for RoutineRow {
    fn default() -> Self {
        RoutineRow {
            routine: String::new(),
            seconds: 0.0,
        }
    }
}

fn num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

fn span_json(out: &mut String, s: &SpanNode) {
    out.push_str("{\"label\": ");
    json::write_escaped(out, &s.label);
    let _ = write!(out, ", \"nanos\": {}, \"seconds\": ", s.nanos);
    num(out, s.seconds());
    out.push_str(", \"children\": [");
    for (i, c) in s.children.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        span_json(out, c);
    }
    out.push_str("]}");
}

impl ProfileReport {
    /// Total CPD seconds: the "CPD total" routine row.
    pub fn cpd_seconds(&self) -> f64 {
        self.routines
            .iter()
            .find(|r| r.routine == "CPD total")
            .map(|r| r.seconds)
            .unwrap_or(0.0)
    }

    /// Serialize as one JSON document (schema [`PROFILE_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"schema\": ");
        json::write_escaped(&mut out, PROFILE_SCHEMA);
        let _ = write!(
            out,
            ",\n  \"ntasks\": {},\n  \"rank\": {},\n  \"iterations\": {},\n  \"lock_strategy\": ",
            self.ntasks, self.rank, self.iterations
        );
        json::write_escaped(&mut out, &self.lock_strategy);
        let _ = write!(
            out,
            ",\n  \"used_locks\": {},\n  \"routines\": [",
            self.used_locks
        );
        for (i, r) in self.routines.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("\n    {\"routine\": ");
            json::write_escaped(&mut out, &r.routine);
            out.push_str(", \"seconds\": ");
            num(&mut out, r.seconds);
            out.push('}');
        }
        out.push_str("\n  ],\n  \"threads\": [");
        for (i, t) in self.threads.threads.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\n    {{\"tid\": {}, \"nanos\": {}, \"seconds\": ",
                t.tid, t.nanos
            );
            num(&mut out, t.seconds());
            let _ = write!(
                out,
                ", \"invocations\": {}, \"items\": {}}}",
                t.invocations, t.items
            );
        }
        let _ = write!(
            out,
            "\n  ],\n  \"locks\": {{\"acquisitions\": {}, \"contended\": {}, \"releases\": {}, \
             \"spin_iters\": {}, \"wait_nanos\": {}, \"contention_rate\": ",
            self.locks.acquisitions,
            self.locks.contended,
            self.locks.releases,
            self.locks.spin_iters,
            self.locks.wait_nanos
        );
        num(&mut out, self.locks.contention_rate());
        let _ = write!(
            out,
            "}},\n  \"alloc\": {{\"row_copies\": {}, \"row_copy_bytes\": {}, \
             \"descriptor_allocs\": {}, \"descriptor_bytes\": {}, \"replica_bytes\": {}, \
             \"replica_reductions\": {}, \"kernel_scratch_allocs\": {}, \
             \"kernel_scratch_bytes\": {}}},",
            self.alloc.row_copies,
            self.alloc.row_copy_bytes,
            self.alloc.descriptor_allocs,
            self.alloc.descriptor_bytes,
            self.alloc.replica_bytes,
            self.alloc.replica_reductions,
            self.alloc.kernel_scratch_allocs,
            self.alloc.kernel_scratch_bytes
        );
        out.push_str("\n  \"faults\": [");
        for (i, f) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("\n    {\"kind\": ");
            json::write_escaped(&mut out, &f.kind);
            let _ = write!(out, ", \"iteration\": {}, \"site\": ", f.iteration);
            json::write_escaped(&mut out, &f.site);
            out.push_str(", \"action\": ");
            json::write_escaped(&mut out, &f.action);
            out.push('}');
        }
        out.push_str("\n  ],\n  \"guard\": ");
        match &self.guard {
            None => out.push_str("null"),
            Some(g) => {
                let _ = write!(
                    out,
                    "{{\"checks\": {}, \"trips\": {}, \"watchdog_reports\": {}, \
                     \"watchdog_samples\": {}, \"trip\": ",
                    g.checks, g.trips, g.watchdog_reports, g.watchdog_samples
                );
                json::write_escaped(&mut out, &g.trip);
                out.push('}');
            }
        }
        out.push_str(",\n  \"serve\": ");
        match &self.serve {
            None => out.push_str("null"),
            Some(s) => {
                out.push_str("{\"kinds\": [");
                for (i, k) in s.kinds.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str("\n    {\"kind\": ");
                    json::write_escaped(&mut out, &k.kind);
                    let _ = write!(
                        out,
                        ", \"requests\": {}, \"p50_micros\": {}, \"p99_micros\": {}, \
                         \"max_micros\": {}, \"buckets\": [",
                        k.requests, k.p50_micros, k.p99_micros, k.max_micros
                    );
                    for (j, b) in k.buckets.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "{b}");
                    }
                    out.push_str("]}");
                }
                let _ = write!(
                    out,
                    "\n  ], \"batches\": {}, \"batched_requests\": {}, \"max_batch\": {}, \
                     \"caller_runs\": {}, \"batch_buckets\": [",
                    s.batches, s.batched_requests, s.max_batch, s.caller_runs
                );
                for (j, b) in s.batch_buckets.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{b}");
                }
                let _ = write!(
                    out,
                    "], \"cache_hits\": {}, \"cache_misses\": {}, \"cache_evictions\": {}, \
                     \"cache_hit_rate\": ",
                    s.cache_hits, s.cache_misses, s.cache_evictions
                );
                num(&mut out, s.cache_hit_rate());
                let _ = write!(
                    out,
                    ", \"sheds\": {}, \"deadline_rejections\": {}, \
                     \"arena_growth_allocs\": {}, \"arena_growth_bytes\": {}, \"shards\": [",
                    s.sheds, s.deadline_rejections, s.arena_growth_allocs, s.arena_growth_bytes
                );
                for (j, sh) in s.shards.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(
                        out,
                        "\n    {{\"shard\": {}, \"retries\": {}, \"failovers\": {}, \
                         \"degraded\": {}, \"health_transitions\": {}, \
                         \"replica_lag_micros\": {}}}",
                        sh.shard,
                        sh.retries,
                        sh.failovers,
                        sh.degraded,
                        sh.health_transitions,
                        sh.replica_lag_micros
                    );
                }
                if s.shards.is_empty() {
                    out.push(']');
                } else {
                    out.push_str("\n  ]");
                }
                out.push_str(", \"net\": ");
                match &s.net {
                    None => out.push_str("null"),
                    Some(n) => {
                        let _ = write!(
                            out,
                            "{{\"accepted\": {}, \"connections_open\": {}, \
                             \"connections_peak\": {}, \"polls\": {}, \
                             \"readiness_wakeups\": {}, \"frames_read\": {}, \
                             \"frames_inline\": {}, \
                             \"frames_written\": {}, \"writes\": {}, \
                             \"coalesced_writes\": {}, \"sheds_accept\": {}, \
                             \"sheds_decode\": {}, \"idle_closed\": {}, \
                             \"deadline_backstops\": {}, \"worker_threads\": {}}}",
                            n.accepted,
                            n.connections_open,
                            n.connections_peak,
                            n.polls,
                            n.readiness_wakeups,
                            n.frames_read,
                            n.frames_inline,
                            n.frames_written,
                            n.writes,
                            n.coalesced_writes,
                            n.sheds_accept,
                            n.sheds_decode,
                            n.idle_closed,
                            n.deadline_backstops,
                            n.worker_threads
                        );
                    }
                }
                out.push('}');
            }
        }
        out.push_str(",\n  \"store\": ");
        match &self.store {
            None => out.push_str("null"),
            Some(s) => {
                let _ = write!(
                    out,
                    "{{\"wal_appends\": {}, \"wal_commits\": {}, \"fsyncs\": {}, \
                     \"atomic_publishes\": {}, \"segments_rotated\": {}, \"recoveries\": {}, \
                     \"records_recovered\": {}, \"torn_bytes_truncated\": {}, \
                     \"checksum_failures\": {}}}",
                    s.wal_appends,
                    s.wal_commits,
                    s.fsyncs,
                    s.atomic_publishes,
                    s.segments_rotated,
                    s.recoveries,
                    s.records_recovered,
                    s.torn_bytes_truncated,
                    s.checksum_failures
                );
            }
        }
        out.push_str(",\n  \"refresh\": ");
        match &self.refresh {
            None => out.push_str("null"),
            Some(r) => {
                let _ = write!(
                    out,
                    "{{\"rounds\": {}, \"deltas_applied\": {}, \"entries_merged\": {}, \
                     \"merge_compare_ops\": {}, \"merge_ns\": {}, \"sorts_skipped\": {}, \
                     \"refit_iterations\": {}, \"warm_fit\": ",
                    r.rounds,
                    r.deltas_applied,
                    r.entries_merged,
                    r.merge_compare_ops,
                    r.merge_ns,
                    r.sorts_skipped,
                    r.refit_iterations
                );
                num(&mut out, r.warm_fit);
                out.push_str(", \"warm_fit_gap\": ");
                num(&mut out, r.warm_fit_gap);
                let _ = write!(
                    out,
                    ", \"publish_ns\": {}, \"watermark\": {}}}",
                    r.publish_ns, r.watermark
                );
            }
        }
        out.push_str(",\n  \"spans\": ");
        span_json(&mut out, &self.span);
        out.push_str("\n}\n");
        out
    }

    /// Text rendering in the spirit of the paper's Table III: per-routine
    /// seconds with their share of CPD total, then the observability
    /// sections the paper derives its Section V analysis from.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        let total = self.cpd_seconds();
        let _ = writeln!(
            out,
            "CP-ALS profile  (tasks={}, rank={}, iterations={}, locks={}{})",
            self.ntasks,
            self.rank,
            self.iterations,
            self.lock_strategy,
            if self.used_locks { "" } else { " [privatized]" }
        );
        let _ = writeln!(
            out,
            "\n  {:<12} {:>12} {:>8}",
            "routine", "seconds", "share"
        );
        for r in &self.routines {
            let share = if total > 0.0 {
                100.0 * r.seconds / total
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:<12} {:>12.4} {:>7.1}%",
                r.routine, r.seconds, share
            );
        }
        out.push_str("\n  per-thread MTTKRP busy time\n");
        for t in &self.threads.threads {
            let _ = writeln!(
                out,
                "  thread {:<4} {:>12.4}s  {:>8} calls  {:>10} items",
                t.tid,
                t.seconds(),
                t.invocations,
                t.items
            );
        }
        let _ = writeln!(
            out,
            "  load imbalance (max/mean): {:.3}",
            self.threads.imbalance()
        );
        let _ = writeln!(
            out,
            "\n  locks: {} acquisitions ({} contended, {:.2}% rate), {} spin iters, {:.4}s waited",
            self.locks.acquisitions,
            self.locks.contended,
            100.0 * self.locks.contention_rate(),
            self.locks.spin_iters,
            self.locks.wait().as_secs_f64()
        );
        let _ = writeln!(
            out,
            "  alloc: {} row copies ({} B), {} descriptors ({} B), {} B replicas over {} reductions, {} scratch growths ({} B)",
            self.alloc.row_copies,
            self.alloc.row_copy_bytes,
            self.alloc.descriptor_allocs,
            self.alloc.descriptor_bytes,
            self.alloc.replica_bytes,
            self.alloc.replica_reductions,
            self.alloc.kernel_scratch_allocs,
            self.alloc.kernel_scratch_bytes
        );
        if !self.faults.is_empty() {
            let _ = writeln!(out, "\n  faults injected: {}", self.faults.len());
            for f in &self.faults {
                let _ = writeln!(
                    out,
                    "  [it {:>3}] {:<18} at {:<24} -> {}",
                    f.iteration, f.kind, f.site, f.action
                );
            }
        }
        if let Some(g) = &self.guard {
            let _ = writeln!(
                out,
                "\n  guard: {} checks, {} trips, watchdog {} reports over {} samples{}",
                g.checks,
                g.trips,
                g.watchdog_reports,
                g.watchdog_samples,
                if g.trip.is_empty() {
                    String::new()
                } else {
                    format!(" — tripped: {}", g.trip)
                }
            );
        }
        if let Some(s) = &self.serve {
            let _ = writeln!(
                out,
                "\n  serve: {} batches over {} requests (max batch {}), {} caller-run, \
                 cache {:.1}% hit \
                 ({} hits / {} misses, {} evictions), {} shed, {} deadline-expired, \
                 {} arena growths ({} B)",
                s.batches,
                s.batched_requests,
                s.max_batch,
                s.caller_runs,
                100.0 * s.cache_hit_rate(),
                s.cache_hits,
                s.cache_misses,
                s.cache_evictions,
                s.sheds,
                s.deadline_rejections,
                s.arena_growth_allocs,
                s.arena_growth_bytes
            );
            if let Some(n) = &s.net {
                let _ = writeln!(
                    out,
                    "  net: {} conns open (peak {}, {} accepted), {} workers, \
                     {} wakeups / {} polls, {} frames in ({} inline) / {} out, \
                     {} coalesced of {} writes, sheds {} accept / {} decode, \
                     {} idle-closed, {} backstops",
                    n.connections_open,
                    n.connections_peak,
                    n.accepted,
                    n.worker_threads,
                    n.readiness_wakeups,
                    n.polls,
                    n.frames_read,
                    n.frames_inline,
                    n.frames_written,
                    n.coalesced_writes,
                    n.writes,
                    n.sheds_accept,
                    n.sheds_decode,
                    n.idle_closed,
                    n.deadline_backstops
                );
            }
            for k in &s.kinds {
                let _ = writeln!(
                    out,
                    "  {:<6} {:>10} requests  p50 {:>8}us  p99 {:>8}us  max {:>8}us",
                    k.kind, k.requests, k.p50_micros, k.p99_micros, k.max_micros
                );
            }
            for sh in &s.shards {
                let _ = writeln!(
                    out,
                    "  shard {:>3}  {} retries, {} failovers, {} degraded, \
                     {} health transitions, replica lag {}us",
                    sh.shard,
                    sh.retries,
                    sh.failovers,
                    sh.degraded,
                    sh.health_transitions,
                    sh.replica_lag_micros
                );
            }
        }
        if let Some(s) = &self.store {
            let _ = writeln!(
                out,
                "  store: {} WAL appends in {} commits, {} fsyncs, {} atomic publishes, \
                 {} segments rotated",
                s.wal_appends, s.wal_commits, s.fsyncs, s.atomic_publishes, s.segments_rotated
            );
            let _ = writeln!(
                out,
                "         {} recoveries restored {} records, truncated {} torn bytes, \
                 {} checksum failures",
                s.recoveries, s.records_recovered, s.torn_bytes_truncated, s.checksum_failures
            );
        }
        if let Some(r) = &self.refresh {
            let _ = writeln!(
                out,
                "  refresh: {} rounds applied {} deltas ({} entries) to watermark {}, \
                 {} merge comparisons in {:.4}s, {} sorts skipped",
                r.rounds,
                r.deltas_applied,
                r.entries_merged,
                r.watermark,
                r.merge_compare_ops,
                r.merge_ns as f64 / 1e9,
                r.sorts_skipped
            );
            let _ = writeln!(
                out,
                "           {} warm refit iterations, fit {:.6} (warm-vs-cold gap {:.2e}), \
                 publish {:.4}s",
                r.refit_iterations,
                r.warm_fit,
                r.warm_fit_gap,
                r.publish_ns as f64 / 1e9
            );
        }
        out.push_str("\n  span tree\n");
        self.span.render_into(&mut out, 1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::ThreadLoadRow;

    fn sample() -> ProfileReport {
        let mut span = SpanNode::leaf("cpd", 2_000_000);
        span.push(SpanNode::leaf("iteration 0", 1_900_000));
        ProfileReport {
            ntasks: 2,
            rank: 4,
            iterations: 1,
            lock_strategy: "Atomic".into(),
            used_locks: true,
            routines: vec![
                RoutineRow {
                    routine: "MTTKRP".into(),
                    seconds: 0.001,
                },
                RoutineRow {
                    routine: "CPD total".into(),
                    seconds: 0.002,
                },
            ],
            threads: ThreadLoad {
                threads: vec![
                    ThreadLoadRow {
                        tid: 0,
                        nanos: 600_000,
                        invocations: 3,
                        items: 30,
                    },
                    ThreadLoadRow {
                        tid: 1,
                        nanos: 400_000,
                        invocations: 3,
                        items: 20,
                    },
                ],
            },
            locks: LockStats {
                acquisitions: 100,
                contended: 10,
                releases: 100,
                spin_iters: 50,
                wait_nanos: 1234,
            },
            alloc: AllocStats {
                row_copies: 7,
                row_copy_bytes: 224,
                descriptor_allocs: 7,
                descriptor_bytes: 112,
                replica_bytes: 0,
                replica_reductions: 0,
                kernel_scratch_allocs: 1,
                kernel_scratch_bytes: 2048,
            },
            span,
            faults: vec![FaultRow {
                kind: "straggler".into(),
                iteration: 0,
                site: "mode 1 mttkrp".into(),
                action: "absorbed 0.5ms delay".into(),
            }],
            guard: Some(GuardRow {
                checks: 40,
                trips: 1,
                watchdog_reports: 2,
                watchdog_samples: 100,
                trip: "deadline exceeded (1.5s elapsed of 1.0s budget)".into(),
            }),
            serve: Some(ServeRow {
                kinds: vec![
                    QueryKindRow {
                        kind: "entry".into(),
                        requests: 900,
                        p50_micros: 4,
                        p99_micros: 64,
                        max_micros: 120,
                        buckets: vec![10, 500, 380, 8, 2],
                    },
                    QueryKindRow {
                        kind: "topk".into(),
                        requests: 100,
                        p50_micros: 32,
                        p99_micros: 512,
                        max_micros: 700,
                        buckets: vec![0, 0, 0, 0, 0, 90, 6, 2, 1, 1],
                    },
                ],
                batches: 250,
                batched_requests: 1000,
                max_batch: 16,
                caller_runs: 850,
                batch_buckets: vec![100, 80, 40, 20, 10],
                cache_hits: 300,
                cache_misses: 100,
                cache_evictions: 5,
                sheds: 12,
                deadline_rejections: 3,
                arena_growth_allocs: 6,
                arena_growth_bytes: 4096,
                shards: vec![
                    ShardRow {
                        shard: 0,
                        retries: 4,
                        failovers: 2,
                        degraded: 1,
                        health_transitions: 3,
                        replica_lag_micros: 250,
                    },
                    ShardRow {
                        shard: 1,
                        ..ShardRow::default()
                    },
                ],
                net: Some(NetFrontRow {
                    accepted: 10_500,
                    connections_open: 9_800,
                    connections_peak: 10_000,
                    polls: 50_000,
                    readiness_wakeups: 42_000,
                    frames_read: 120_000,
                    frames_inline: 70_000,
                    frames_written: 120_000,
                    writes: 90_000,
                    coalesced_writes: 8_000,
                    sheds_accept: 500,
                    sheds_decode: 1_200,
                    idle_closed: 150,
                    deadline_backstops: 2,
                    worker_threads: 8,
                }),
            }),
            store: Some(StoreRow {
                wal_appends: 120,
                wal_commits: 30,
                fsyncs: 35,
                atomic_publishes: 4,
                segments_rotated: 2,
                recoveries: 1,
                records_recovered: 118,
                torn_bytes_truncated: 17,
                checksum_failures: 1,
            }),
            refresh: Some(RefreshRow {
                rounds: 3,
                deltas_applied: 12,
                entries_merged: 480,
                merge_compare_ops: 5200,
                merge_ns: 1_500_000,
                sorts_skipped: 9,
                refit_iterations: 15,
                warm_fit: 0.998765,
                warm_fit_gap: 4.2e-8,
                publish_ns: 800_000,
                watermark: 12,
            }),
        }
    }

    #[test]
    fn json_parses_and_is_schema_stable() {
        let report = sample();
        let doc = json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(PROFILE_SCHEMA));
        assert_eq!(doc.get("ntasks").unwrap().as_u64(), Some(2));
        let routines = doc.get("routines").unwrap().as_array().unwrap();
        assert_eq!(routines.len(), 2);
        assert_eq!(
            routines[1].get("routine").unwrap().as_str(),
            Some("CPD total")
        );
        let threads = doc.get("threads").unwrap().as_array().unwrap();
        assert_eq!(threads[0].get("nanos").unwrap().as_u64(), Some(600_000));
        assert_eq!(
            doc.get("locks")
                .unwrap()
                .get("acquisitions")
                .unwrap()
                .as_u64(),
            Some(100)
        );
        assert_eq!(
            doc.get("alloc")
                .unwrap()
                .get("row_copies")
                .unwrap()
                .as_u64(),
            Some(7)
        );
        assert_eq!(
            doc.get("alloc")
                .unwrap()
                .get("kernel_scratch_bytes")
                .unwrap()
                .as_u64(),
            Some(2048)
        );
        let spans = doc.get("spans").unwrap();
        assert_eq!(spans.get("label").unwrap().as_str(), Some("cpd"));
        assert_eq!(spans.get("children").unwrap().as_array().unwrap().len(), 1);
        let faults = doc.get("faults").unwrap().as_array().unwrap();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].get("kind").unwrap().as_str(), Some("straggler"));
        assert_eq!(faults[0].get("iteration").unwrap().as_u64(), Some(0));
        assert_eq!(
            faults[0].get("action").unwrap().as_str(),
            Some("absorbed 0.5ms delay")
        );
        let guard = doc.get("guard").unwrap();
        assert_eq!(guard.get("checks").unwrap().as_u64(), Some(40));
        assert_eq!(guard.get("trips").unwrap().as_u64(), Some(1));
        assert_eq!(guard.get("watchdog_reports").unwrap().as_u64(), Some(2));
        assert!(guard
            .get("trip")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("deadline"));
    }

    #[test]
    fn serve_object_is_schema_stable() {
        let report = sample();
        let doc = json::parse(&report.to_json()).expect("valid JSON");
        let serve = doc.get("serve").unwrap();
        let kinds = serve.get("kinds").unwrap().as_array().unwrap();
        assert_eq!(kinds.len(), 2);
        assert_eq!(kinds[0].get("kind").unwrap().as_str(), Some("entry"));
        assert_eq!(kinds[0].get("requests").unwrap().as_u64(), Some(900));
        assert_eq!(kinds[0].get("p50_micros").unwrap().as_u64(), Some(4));
        assert_eq!(kinds[1].get("p99_micros").unwrap().as_u64(), Some(512));
        let buckets = kinds[0].get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 5);
        assert_eq!(buckets[1].as_u64(), Some(500));
        assert_eq!(serve.get("batches").unwrap().as_u64(), Some(250));
        assert_eq!(serve.get("max_batch").unwrap().as_u64(), Some(16));
        assert_eq!(
            serve
                .get("batch_buckets")
                .unwrap()
                .as_array()
                .unwrap()
                .len(),
            5
        );
        assert_eq!(serve.get("caller_runs").unwrap().as_u64(), Some(850));
        assert_eq!(serve.get("cache_hits").unwrap().as_u64(), Some(300));
        assert_eq!(serve.get("cache_evictions").unwrap().as_u64(), Some(5));
        let rate = serve.get("cache_hit_rate").unwrap().as_f64().unwrap();
        assert!((rate - 0.75).abs() < 1e-12);
        assert_eq!(serve.get("sheds").unwrap().as_u64(), Some(12));
        assert_eq!(serve.get("deadline_rejections").unwrap().as_u64(), Some(3));
        assert_eq!(
            serve.get("arena_growth_bytes").unwrap().as_u64(),
            Some(4096)
        );
        let shards = serve.get("shards").unwrap().as_array().unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].get("shard").unwrap().as_u64(), Some(0));
        assert_eq!(shards[0].get("retries").unwrap().as_u64(), Some(4));
        assert_eq!(shards[0].get("failovers").unwrap().as_u64(), Some(2));
        assert_eq!(shards[0].get("degraded").unwrap().as_u64(), Some(1));
        assert_eq!(
            shards[0].get("health_transitions").unwrap().as_u64(),
            Some(3)
        );
        assert_eq!(
            shards[0].get("replica_lag_micros").unwrap().as_u64(),
            Some(250)
        );
        assert_eq!(shards[1].get("retries").unwrap().as_u64(), Some(0));
        let net = serve.get("net").unwrap();
        assert_eq!(net.get("accepted").unwrap().as_u64(), Some(10_500));
        assert_eq!(net.get("connections_open").unwrap().as_u64(), Some(9_800));
        assert_eq!(net.get("connections_peak").unwrap().as_u64(), Some(10_000));
        assert_eq!(net.get("polls").unwrap().as_u64(), Some(50_000));
        assert_eq!(net.get("readiness_wakeups").unwrap().as_u64(), Some(42_000));
        assert_eq!(net.get("frames_read").unwrap().as_u64(), Some(120_000));
        assert_eq!(net.get("frames_inline").unwrap().as_u64(), Some(70_000));
        assert_eq!(net.get("frames_written").unwrap().as_u64(), Some(120_000));
        assert_eq!(net.get("writes").unwrap().as_u64(), Some(90_000));
        assert_eq!(net.get("coalesced_writes").unwrap().as_u64(), Some(8_000));
        assert_eq!(net.get("sheds_accept").unwrap().as_u64(), Some(500));
        assert_eq!(net.get("sheds_decode").unwrap().as_u64(), Some(1_200));
        assert_eq!(net.get("idle_closed").unwrap().as_u64(), Some(150));
        assert_eq!(net.get("deadline_backstops").unwrap().as_u64(), Some(2));
        assert_eq!(net.get("worker_threads").unwrap().as_u64(), Some(8));
    }

    #[test]
    fn engine_without_a_front_end_serializes_null_net() {
        let mut report = sample();
        report.serve.as_mut().unwrap().net = None;
        let json = report.to_json();
        assert!(json.contains("\"net\": null"), "json: {json}");
        json::parse(&json).expect("valid JSON");
        assert!(!report.render().contains("net:"));
    }

    #[test]
    fn non_serving_report_serializes_null_serve() {
        let mut report = sample();
        report.serve = None;
        let json = report.to_json();
        assert!(json.contains("\"serve\": null"), "json: {json}");
        json::parse(&json).expect("valid JSON");
        assert!(!report.render().contains("serve:"));
    }

    #[test]
    fn store_object_is_schema_stable() {
        let report = sample();
        let doc = json::parse(&report.to_json()).expect("valid JSON");
        let store = doc.get("store").unwrap();
        assert_eq!(store.get("wal_appends").unwrap().as_u64(), Some(120));
        assert_eq!(store.get("wal_commits").unwrap().as_u64(), Some(30));
        assert_eq!(store.get("fsyncs").unwrap().as_u64(), Some(35));
        assert_eq!(store.get("atomic_publishes").unwrap().as_u64(), Some(4));
        assert_eq!(store.get("segments_rotated").unwrap().as_u64(), Some(2));
        assert_eq!(store.get("recoveries").unwrap().as_u64(), Some(1));
        assert_eq!(store.get("records_recovered").unwrap().as_u64(), Some(118));
        assert_eq!(
            store.get("torn_bytes_truncated").unwrap().as_u64(),
            Some(17)
        );
        assert_eq!(store.get("checksum_failures").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn storeless_report_serializes_null_store() {
        let mut report = sample();
        report.store = None;
        let json = report.to_json();
        assert!(json.contains("\"store\": null"), "json: {json}");
        json::parse(&json).expect("valid JSON");
        assert!(!report.render().contains("store:"));
    }

    #[test]
    fn refresh_object_is_schema_stable() {
        let report = sample();
        let doc = json::parse(&report.to_json()).expect("valid JSON");
        let refresh = doc.get("refresh").unwrap();
        assert_eq!(refresh.get("rounds").unwrap().as_u64(), Some(3));
        assert_eq!(refresh.get("deltas_applied").unwrap().as_u64(), Some(12));
        assert_eq!(refresh.get("entries_merged").unwrap().as_u64(), Some(480));
        assert_eq!(
            refresh.get("merge_compare_ops").unwrap().as_u64(),
            Some(5200)
        );
        assert_eq!(refresh.get("merge_ns").unwrap().as_u64(), Some(1_500_000));
        assert_eq!(refresh.get("sorts_skipped").unwrap().as_u64(), Some(9));
        assert_eq!(refresh.get("refit_iterations").unwrap().as_u64(), Some(15));
        let fit = refresh.get("warm_fit").unwrap().as_f64().unwrap();
        assert!((fit - 0.998765).abs() < 1e-12);
        let gap = refresh.get("warm_fit_gap").unwrap().as_f64().unwrap();
        assert!((gap - 4.2e-8).abs() < 1e-20);
        assert_eq!(refresh.get("publish_ns").unwrap().as_u64(), Some(800_000));
        assert_eq!(refresh.get("watermark").unwrap().as_u64(), Some(12));
    }

    #[test]
    fn refreshless_report_serializes_null_refresh() {
        let mut report = sample();
        report.refresh = None;
        let json = report.to_json();
        assert!(json.contains("\"refresh\": null"), "json: {json}");
        json::parse(&json).expect("valid JSON");
        assert!(!report.render().contains("refresh:"));
    }

    #[test]
    fn cache_hit_rate_handles_empty_cache() {
        assert_eq!(ServeRow::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn unguarded_report_serializes_null_guard() {
        let mut report = sample();
        report.guard = None;
        let json = report.to_json();
        assert!(json.contains("\"guard\": null"), "json: {json}");
        json::parse(&json).expect("valid JSON");
        assert!(!report.render().contains("guard:"));
    }

    #[test]
    fn faultless_report_has_empty_faults_array() {
        let mut report = sample();
        report.faults.clear();
        let doc = json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(doc.get("faults").unwrap().as_array().unwrap().len(), 0);
        assert!(!report.render().contains("faults injected"));
    }

    #[test]
    fn render_mentions_all_sections() {
        let text = sample().render();
        assert!(text.contains("MTTKRP"));
        assert!(text.contains("per-thread"));
        assert!(text.contains("load imbalance"));
        assert!(text.contains("acquisitions"));
        assert!(text.contains("row copies"));
        assert!(text.contains("faults injected: 1"));
        assert!(text.contains("straggler"));
        assert!(text.contains("guard: 40 checks, 1 trips"));
        assert!(text.contains("tripped: deadline"));
        assert!(text.contains("serve: 250 batches"));
        assert!(text.contains("cache 75.0% hit"));
        assert!(text.contains("12 shed"));
        assert!(text.contains("net: 9800 conns open (peak 10000"));
        assert!(text.contains("sheds 500 accept / 1200 decode"));
        assert!(text.contains("store: 120 WAL appends in 30 commits"));
        assert!(text.contains("truncated 17 torn bytes"));
        assert!(text.contains("refresh: 3 rounds applied 12 deltas"));
        assert!(text.contains("15 warm refit iterations"));
        assert!(text.contains("span tree"));
    }

    #[test]
    fn cpd_seconds_lookup() {
        assert_eq!(sample().cpd_seconds(), 0.002);
        assert_eq!(ProfileReport::default().cpd_seconds(), 0.0);
    }
}
