//! The hierarchical profile report: per-routine rows (the paper's
//! Table III layout), per-thread load, lock contention, allocation
//! accounting, and the span tree — renderable as text and as
//! schema-stable JSON.
//!
//! The counter sections (`locks`, `alloc`, `guard`, `serve` and its
//! `shards` / `net`, `store`, `refresh`) are not written out here: each
//! is the field table of its [`counter_set!`](crate::counters)
//! snapshot, walked once into a [`Value`] tree that both the JSON and
//! the text renderer print. This file supplies only what no table can:
//! the members that are not counters (a rate, a histogram, a nested
//! row), asked for by the name their slot was declared under.

use crate::counters::{
    AllocStats, Field, GuardRow, LockStats, QueryKindRow, RefreshRow, ServeRow, StoreCounters,
};
use crate::json;
use crate::span::SpanNode;
use crate::tasks::ThreadLoad;
use std::fmt::Write as _;

/// Version tag embedded in every JSON profile. Bump only with a schema
/// change; tests pin the current value and a golden document
/// (`testdata/profile_v15.json`) pins every key and its order. What
/// each version added: v2 `faults`; v3 `guard`; v4 `alloc.kernel_scratch_*`;
/// v5 `serve`; v6 a `dispatch` array, removed again in v11 with the
/// second tensor format it reported on; v7 `serve.shards`; v8 `store`;
/// v9 `refresh`; v10 `serve.net`; v12 PR 21's two path counters (in
/// `serve` the requests computed on their caller, in `serve.net` the
/// frames answered on the reactor thread); v13
/// `refresh.wal_bytes_scanned`; v14 the refresh round's split,
/// `refresh.{tail,csf,refit}_ns`; v15 dropped `serve.max_batch` and
/// `serve.batch_buckets` with the engine's batcher.
pub const PROFILE_SCHEMA: &str = "splatt-profile-v15";

/// One row of the per-routine table (label from `splatt_par::Routine`).
#[derive(Debug, Clone, Default, PartialEq)]
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
    pub store: Option<StoreCounters>,
    /// Online-refresh counters; `None` outside refresh runs.
    pub refresh: Option<RefreshRow>,
}

/// One member of a report section, as both renderers see it.
enum Value<'a> {
    Count(u64),
    Real(f64),
    Flag(bool),
    Text(&'a str),
    /// A histogram: bare numbers on one line.
    Counts(&'a [u64]),
    /// An array of objects, one per line.
    Rows(Vec<Members<'a>>),
    /// A nested section; `null` when the run had none.
    Object(Option<Members<'a>>),
}

/// A section: its members under their JSON keys, in order.
type Members<'a> = Vec<(&'static str, Value<'a>)>;

use Value::{Count, Counts, Flag, Object, Real, Rows, Text};

/// A counter set's field table as a section: counters as they are,
/// every slot filled by `member`.
fn section<'a>(fields: &[Field], mut member: impl FnMut(&str) -> Value<'a>) -> Members<'a> {
    fields
        .iter()
        .map(|f| match *f {
            Field::Count(name, n) => (name, Count(n)),
            Field::Slot(name) => (name, member(name)),
        })
        .collect()
}

/// The `member` of a set that declares no slot, and of a slot this file
/// was not taught: the golden test walks every section, so a missing
/// producer fails there, not in a running server.
fn no_member<'a>(slot: &str) -> Value<'a> {
    unreachable!("report member `{slot}` is declared but nothing produces it")
}

fn kind_row(k: &QueryKindRow) -> Members<'_> {
    vec![
        ("kind", Text(&k.kind)),
        ("requests", Count(k.requests)),
        ("p50_micros", Count(k.p50_micros)),
        ("p99_micros", Count(k.p99_micros)),
        ("max_micros", Count(k.max_micros)),
        ("buckets", Counts(&k.buckets)),
    ]
}

fn serve_section(s: &ServeRow) -> Members<'_> {
    section(&s.fields(), |slot| match slot {
        "kinds" => Rows(s.kinds.iter().map(kind_row).collect()),
        "cache_hit_rate" => Real(s.cache_hit_rate()),
        // A process without a router has always written `[]` here,
        // not the `[` newline `]` of an empty row array.
        "shards" if s.shards.is_empty() => Counts(&[]),
        "shards" => Rows(
            (0u64..)
                .zip(&s.shards)
                .map(|(i, sh)| section(&sh.fields(), |_| Count(i)))
                .collect(),
        ),
        "net" => Object(s.net.map(|n| section(&n.fields(), no_member))),
        other => no_member(other),
    })
}

fn guard_section(g: &GuardRow) -> Members<'_> {
    section(&g.fields(), |_| Text(&g.trip))
}

fn refresh_section(r: &RefreshRow) -> Members<'_> {
    section(&r.fields(), |slot| match slot {
        "warm_fit" => Real(r.warm_fit),
        "warm_fit_gap" => Real(r.warm_fit_gap),
        other => no_member(other),
    })
}

fn num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

fn write_members(out: &mut String, members: &Members, open: &str, sep: &str, close: &str) {
    out.push_str(open);
    for (i, (name, value)) in members.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        let _ = write!(out, "\"{name}\": ");
        write_value(out, value);
    }
    out.push_str(close);
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Count(n) => {
            let _ = write!(out, "{n}");
        }
        Real(x) => num(out, *x),
        Flag(b) => {
            let _ = write!(out, "{b}");
        }
        Text(s) => json::write_escaped(out, s),
        Counts(ns) => {
            out.push('[');
            for (i, n) in ns.iter().enumerate() {
                let _ = write!(out, "{}{n}", if i > 0 { ", " } else { "" });
            }
            out.push(']');
        }
        Rows(rows) => {
            out.push('[');
            for (i, row) in rows.iter().enumerate() {
                out.push_str(if i > 0 { ", \n    " } else { "\n    " });
                write_members(out, row, "{", ", ", "}");
            }
            out.push_str("\n  ]");
        }
        Object(None) => out.push_str("null"),
        Object(Some(members)) => write_members(out, members, "{", ", ", "}"),
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

/// Columns a text section wraps at.
const TEXT_WIDTH: usize = 96;

/// One section of the text report, the same for every counter set:
/// `label: name value, name value, …` wrapped at [`TEXT_WIDTH`] with the
/// values printed as the JSON prints them, then one indented section
/// per nested row.
fn write_section(out: &mut String, depth: usize, label: &str, members: &Members) {
    let mut line = format!("{:1$}{label}:", "", depth * 2);
    let hang = line.len();
    let mut nested = Vec::new();
    for (name, value) in members {
        match value {
            Rows(rows) => nested.extend(
                (0..)
                    .zip(rows)
                    .map(|(i, row)| (format!("{name}[{i}]"), row)),
            ),
            Object(Some(members)) => nested.push((name.to_string(), members)),
            Object(None) => {}
            scalar => {
                let mut item = format!(" {name} ");
                write_value(&mut item, scalar);
                item.push(',');
                if line.len() + item.len() > TEXT_WIDTH && line.len() > hang {
                    let _ = writeln!(out, "{line}");
                    line = " ".repeat(hang);
                }
                line.push_str(&item);
            }
        }
    }
    let _ = writeln!(out, "{}", line.trim_end_matches(','));
    for (label, members) in &nested {
        write_section(out, depth + 1, label, members);
    }
}

/// The text section of one counter set outside a report (the CLI
/// prints the store's after an ingest); slots are left out.
pub fn render_counters(label: &str, fields: &[Field]) -> String {
    let mut out = String::new();
    write_section(&mut out, 0, label, &section(fields, |_| Object(None)));
    out
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

    /// The document, member by member — everything but the span tree.
    fn members(&self) -> Members<'_> {
        let routines = self
            .routines
            .iter()
            .map(|r| vec![("routine", Text(&r.routine)), ("seconds", Real(r.seconds))]);
        let threads = self.threads.threads.iter().map(|t| {
            vec![
                ("tid", Count(t.tid as u64)),
                ("nanos", Count(t.nanos)),
                ("seconds", Real(t.seconds())),
                ("invocations", Count(t.invocations)),
                ("items", Count(t.items)),
            ]
        });
        let faults = self.faults.iter().map(|f| {
            vec![
                ("kind", Text(&f.kind)),
                ("iteration", Count(f.iteration as u64)),
                ("site", Text(&f.site)),
                ("action", Text(&f.action)),
            ]
        });
        let locks = section(&self.locks.fields(), |_| Real(self.locks.contention_rate()));
        vec![
            ("schema", Text(PROFILE_SCHEMA)),
            ("ntasks", Count(self.ntasks as u64)),
            ("rank", Count(self.rank as u64)),
            ("iterations", Count(self.iterations as u64)),
            ("lock_strategy", Text(&self.lock_strategy)),
            ("used_locks", Flag(self.used_locks)),
            ("routines", Rows(routines.collect())),
            ("threads", Rows(threads.collect())),
            ("locks", Object(Some(locks))),
            (
                "alloc",
                Object(Some(section(&self.alloc.fields(), no_member))),
            ),
            ("faults", Rows(faults.collect())),
            ("guard", Object(self.guard.as_ref().map(guard_section))),
            ("serve", Object(self.serve.as_ref().map(serve_section))),
            (
                "store",
                Object(self.store.map(|s| section(&s.fields(), no_member))),
            ),
            (
                "refresh",
                Object(self.refresh.as_ref().map(refresh_section)),
            ),
        ]
    }

    /// Serialize as one JSON document (schema [`PROFILE_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        write_members(
            &mut out,
            &self.members(),
            "{\n  ",
            ",\n  ",
            ",\n  \"spans\": ",
        );
        span_json(&mut out, &self.span);
        out.push_str("\n}\n");
        out
    }

    /// Text rendering in the spirit of the paper's Table III: per-routine
    /// seconds with their share of CPD total, per-thread load, then one
    /// uniform section per counter set (the observability the paper
    /// derives its Section V analysis from), the injected faults, and
    /// the span tree.
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
            "  load imbalance (max/mean): {:.3}\n",
            self.threads.imbalance()
        );
        for (name, value) in &self.members() {
            if let Object(Some(members)) = value {
                write_section(&mut out, 1, name, members);
            }
        }
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
        out.push_str("\n  span tree\n");
        self.span.render_into(&mut out, 1);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{NetSnapshot, ShardRow};
    use crate::tasks::ThreadLoadRow;

    /// Every section present, two query kinds, two shards, a net row:
    /// the report whose JSON `testdata/profile_v15.json` pins.
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
                caller_runs: 850,
                cache_hits: 300,
                cache_misses: 100,
                cache_evictions: 5,
                sheds: 12,
                deadline_rejections: 3,
                arena_growth_allocs: 6,
                arena_growth_bytes: 4096,
                shards: vec![
                    ShardRow {
                        retries: 4,
                        failovers: 2,
                        degraded: 1,
                        health_transitions: 3,
                        replica_lag_micros: 250,
                    },
                    ShardRow::default(),
                ],
                net: Some(NetSnapshot {
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
            store: Some(StoreCounters {
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
                csf_ns: 3_600_000,
                sorts_skipped: 9,
                tail_ns: 450_000,
                wal_bytes_scanned: 61_440,
                refit_ns: 4_200_000,
                refit_iterations: 15,
                publish_ns: 800_000,
                watermark: 12,
                warm_fit: 0.998765,
                warm_fit_gap: 4.2e-8,
            }),
        }
    }

    /// The schema, key by key and byte by byte: the committed document
    /// was written by the hand-formatted serializer this file replaced
    /// (PR 22's `to_json` on this same fixture). A new counter shows up
    /// here as one added key; regenerate the file in the PR that adds it.
    #[test]
    fn json_is_byte_identical_to_the_committed_golden() {
        let json = sample().to_json();
        assert_eq!(json, include_str!("../testdata/profile_v15.json"));
        let doc = json::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(PROFILE_SCHEMA));
    }

    #[test]
    fn absent_sections_serialize_null_and_leave_the_text() {
        type Remove = fn(&mut ProfileReport);
        let strip: [(&str, Remove); 5] = [
            ("guard", |r| r.guard = None),
            ("serve", |r| r.serve = None),
            ("net", |r| r.serve.as_mut().unwrap().net = None),
            ("store", |r| r.store = None),
            ("refresh", |r| r.refresh = None),
        ];
        for (section, remove) in strip {
            let mut report = sample();
            remove(&mut report);
            let json = report.to_json();
            assert!(json.contains(&format!("\"{section}\": null")), "{json}");
            json::parse(&json).expect("valid JSON");
            let text = report.render();
            assert!(!text.contains(&format!("{section}:")), "{text}");
        }
    }

    #[test]
    fn a_process_without_a_router_writes_an_empty_shards_array() {
        let mut report = sample();
        report.serve.as_mut().unwrap().shards.clear();
        let json = report.to_json();
        assert!(json.contains("\"shards\": [], \"net\""), "{json}");
        json::parse(&json).expect("valid JSON");
    }

    #[test]
    fn cache_hit_rate_handles_empty_cache() {
        assert_eq!(ServeRow::default().cache_hit_rate(), 0.0);
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
    fn render_keeps_the_table_layout_and_prints_every_counter_section_alike() {
        let text = sample().render();
        assert!(
            text.contains("  MTTKRP             0.0010    50.0%"),
            "{text}"
        );
        assert!(text.contains("per-thread"));
        assert!(text.contains("load imbalance (max/mean): 1.200"));
        assert!(text.contains("faults injected: 1"));
        assert!(text.contains("straggler"));
        assert!(text.contains("span tree"));
        // One rule for every set: `label: name value, ...`, the values
        // as the JSON prints them, nested rows indented beneath.
        assert!(text.contains("  locks: acquisitions 100, contended 10, releases 100,"));
        assert!(text.contains("contention_rate 0.1\n"));
        assert!(text.contains("  alloc: row_copies 7, row_copy_bytes 224,"));
        assert!(text.contains("  guard: checks 40, trips 1,"));
        assert!(text.contains("trip \"deadline exceeded"));
        assert!(text.contains("  serve: batches 250, batched_requests 1000,"));
        assert!(text.contains("cache_hit_rate 0.75,"));
        assert!(text.contains("    kinds[1]: kind \"topk\", requests 100,"));
        assert!(text.contains("    shards[0]: shard 0, retries 4,"));
        assert!(text.contains("    net: accepted 10500, connections_open 9800,"));
        assert!(text.contains("  store: wal_appends 120, wal_commits 30,"));
        assert!(text.contains("  refresh: rounds 3, deltas_applied 12,"));
        assert!(text.contains("refit_ns 4200000, refit_iterations 15, warm_fit 0.998765,\n"));
        assert!(text.contains("warm_fit_gap 0.000000042, publish_ns 800000, watermark 12"));
        for line in text.lines() {
            assert!(line.len() <= TEXT_WIDTH || !line.contains(", "), "{line}");
        }
        // The stand-alone form the CLI prints after an ingest.
        let store = sample().store.unwrap();
        assert!(render_counters("store", &store.fields()).starts_with("store: wal_appends 120,"));
    }

    #[test]
    fn cpd_seconds_lookup() {
        assert_eq!(sample().cpd_seconds(), 0.002);
        assert_eq!(ProfileReport::default().cpd_seconds(), 0.0);
    }
}
