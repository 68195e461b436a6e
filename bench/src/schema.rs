//! The benchmark's vocabulary: workloads, end-to-end metrics, per-layer
//! metrics — one table each, from which `BENCHMARK.json` is generated
//! (`e2e schema`) and against which every emitted metric is checked.

use crate::adapter::write_escaped;

/// Seconds one run measures for (`BENCHMARK.json: run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Seed used when none is given (the paper's workshop date).
pub const DEFAULT_SEED: u64 = 20180521;

/// `(name, why)` of each workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "cpd_nell2",
        "cp_als paper protocol on a NELL-2-shaped tensor (3.08M nnz, dense-ish modes): MTTKRP ~70% and sort ~20% of wall, no locks - the kernel/sort workload",
    ),
    (
        "cpd_yelp",
        "same protocol on a YELP-shaped tensor (600k nnz, long sparse modes): leaf kernel on the lock path, dense algebra ~30% - the dense/locks workload and the bypass for sort work",
    ),
    (
        "refresh_stream",
        "WAL ingest of 1024-entry delta records, then 16 warm-started refresh rounds: the only workload where splatt-store and merge_entries do most of the work",
    ),
    (
        "serve_point",
        "2 closed-loop TCP clients, single-coordinate Entry queries: the kernel is <1% of a round trip - the wire/reactor/batcher workload and the bypass for query-kernel work",
    ),
    (
        "serve_scan",
        "2 closed-loop TCP clients, 70% TopK / 30% Slice over a key set 8x the LRU: the kernel dominates - the query-kernel/cache workload and the bypass for front-end work",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the vocabulary. `bound` is set for end-to-end metrics
/// only: the share of the parent's median by which the metric may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees, defined on every workload (README
/// "End-to-end metrics" maps them to `cpd_s`, `refresh_round_s`,
/// `ingest_nnz_per_s`, `qps` and `p50_us`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("op_ms", "ms", Better::Lower, 0.25),
    e2e("work_per_s", "1/s", Better::Higher, 0.25),
];

/// One layer's own numbers, from the traced pass. A layer a workload
/// does not exercise reads 0 there — which is the bypass, stated.
pub const PER_LAYER: &[MetricDef] = &[
    lo("tensor.sort_s", "s"),
    lo("tensor.merge_s", "s"),
    lo("tensor.merge_compare_ops", "count"),
    lo("csf.build_s", "s"),
    lo("csf.bytes_per_nnz", "B/nnz"),
    lo("mttkrp.mode0_ms", "ms"),
    lo("mttkrp.mode1_ms", "ms"),
    lo("mttkrp.mode2_ms", "ms"),
    lo("mttkrp.total_s", "s"),
    hi("mttkrp.gflops", "GFLOP/s"),
    lo("mttkrp.bytes_per_nnz_computed", "B/nnz"),
    lo("mttkrp.lock_modes", "count"),
    lo("mttkrp.ported_over_ref", "ratio"),
    lo("dense.solve_s", "s"),
    lo("dense.ata_s", "s"),
    lo("dense.norm_s", "s"),
    lo("cpals.fit_s", "s"),
    lo("cpals.iters", "count"),
    lo("cpals.unattributed_share", "share"),
    lo("par.cpd_2t_s", "s"),
    hi("par.speedup_2t", "ratio"),
    lo("par.busy_imbalance", "ratio"),
    lo("locks.contended_share", "share"),
    lo("store.encode_ns_per_nnz", "ns/nnz"),
    hi("store.ingest_wall_nnz_per_s", "nnz/s"),
    lo("store.append_commit_us", "us"),
    lo("store.fsyncs_per_commit", "count"),
    lo("store.wal_bytes_per_nnz", "B/nnz"),
    lo("store.recover_ms", "ms"),
    lo("store.decode_ns_per_nnz", "ns/nnz"),
    lo("store.publish_ms", "ms"),
    lo("refresh.refit_s", "s"),
    lo("refresh.refit_iters", "count"),
    lo("refresh.cold_round_s", "s"),
    lo("refresh.open_s", "s"),
    lo("refresh.unattributed_share", "share"),
    lo("query.entry_ns", "ns"),
    lo("query.topk_us", "us"),
    lo("query.slice_us", "us"),
    lo("engine.entry_us", "us"),
    lo("engine.scan_us", "us"),
    lo("engine.self_us", "us"),
    hi("engine.batch_mean", "count"),
    hi("engine.cache_hit_ratio", "ratio"),
    lo("engine.sheds", "count"),
    lo("protocol.codec_ns", "ns"),
    lo("protocol.resp_bytes", "B"),
    lo("net.self_us", "us"),
    lo("net.polls_per_frame", "count"),
    lo("net.writes_per_frame", "count"),
    lo("net.sheds", "count"),
    lo("net.p99_us", "us"),
    lo("net.unpinned_p50_us", "us"),
    lo("loadgen.open_p50_us", "us"),
    lo("loadgen.open_p99_us", "us"),
    lo("loadgen.late_p99_us", "us"),
    lo("loadgen.calib_drift", "share"),
    lo("trace_overhead_share", "share"),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|(w, _)| *w == name)
}

/// Measured values, keyed by vocabulary name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `value` for `name`.
    ///
    /// # Panics
    /// Panics when `name` is not in the vocabulary, is set twice, or the
    /// value is not finite — each is a harness bug, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric {name} is not in the vocabulary"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((def.name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` for every metric of
    /// `defs`, in table order; a metric never set reads 0.
    pub fn to_json(&self, defs: &[MetricDef]) -> String {
        let body: Vec<String> = defs
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    self.get(d.name).unwrap_or(0.0),
                    d.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The text of `BENCHMARK.json` this vocabulary defines.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"bench/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"bench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!("    {{\"name\": \"{name}\", \"why\": "));
        write_escaped(&mut out, why);
        out.push_str(if i + 1 < WORKLOADS.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound.expect("end-to-end metrics carry a bound"),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}\n",
            m.name,
            m.unit,
            m.better.label(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::parse_json;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn vocabulary_meets_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16, "unit {}", m.unit);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in END_TO_END {
            let b = m.bound.expect("bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_this_vocabulary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `e2e schema > BENCHMARK.json`"
        );
        let v = parse_json(&committed).expect("valid JSON");
        let keys: Vec<&String> = v.as_object().expect("object").keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(committed.len() <= 64 << 10);
    }

    #[test]
    fn metrics_round_trip_through_the_result_line() {
        let mut m = Metrics::default();
        m.set("op_ms", 1.25);
        m.set("setup_s", 0.5);
        let v = parse_json(&m.to_json(END_TO_END)).expect("valid JSON");
        let obj = v.as_object().expect("object");
        assert_eq!(obj.len(), END_TO_END.len());
        assert_eq!(obj["op_ms"].get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(obj["op_ms"].get("unit").and_then(Json::as_str), Some("ms"));
        // never set: present, reads 0
        assert_eq!(
            obj["work_per_s"].get("value").and_then(Json::as_f64),
            Some(0.0)
        );
    }

    use crate::adapter::Json;

    #[test]
    #[should_panic(expected = "not in the vocabulary")]
    fn unknown_metric_names_are_a_harness_bug() {
        Metrics::default().set("qps_typo", 1.0);
    }
}
