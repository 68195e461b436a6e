//! `compare`: two result sets, one row per (metric, workload), a verdict
//! from the bounds in `BENCHMARK.json`.
//!
//! The verdict rules are those of the choosing-metrics guide: a metric
//! is **regressed** when the candidate's median is worse than the base's
//! by more than its bound; **unresolved** (not "unchanged") when either
//! side's quartile spread is wider than the bound or the noise guard
//! drifted more than 25 % in a side's median run — unless every candidate run reads
//! better than every base run; **improved** when the medians differ, the
//! better way, by more than the base's own quartile distance (or every
//! candidate run beats every base run); otherwise **unchanged**.

use crate::adapter::{parse_json, Json};
use crate::result::Loaded;
use crate::schema::Better;
use crate::stats::{quartiles, spread};
use std::collections::BTreeMap;

/// A median `loadgen.calib_drift` above this makes a set's timings
/// unresolved. The issue planned 0.05 for a chain of dependent
/// multiply-adds; the guard that replaced it feels what the workloads
/// feel, and on the shared sandbox its two readings differ by 0.05-0.18
/// in the median run of an ordinary half hour.
const MAX_CALIB_DRIFT: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
    /// A per-layer metric: shown, never judged.
    Info,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub better: Better,
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The `end_to_end` and `per_layer` lists of a `BENCHMARK.json` text.
///
/// # Errors
/// A message naming the malformed part.
pub fn gates_from_benchmark_json(text: &str) -> Result<Vec<Gate>, String> {
    let v = parse_json(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut gates = Vec::new();
    for list in ["end_to_end", "per_layer"] {
        let items = v
            .get(list)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json: no \"{list}\" list"))?;
        for item in items {
            let name = item.get("name").and_then(Json::as_str);
            let better = match item.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("BENCHMARK.json: {name:?} better = {other:?}")),
            };
            gates.push(Gate {
                name: name
                    .ok_or("BENCHMARK.json: a metric without a name")?
                    .to_string(),
                better,
                bound: item.get("bound").and_then(Json::as_f64),
            });
        }
    }
    Ok(gates)
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub metric: String,
    pub workload: String,
    /// `(q1, median, q3, runs)` of the base and of the candidate.
    pub base: (f64, f64, f64, usize),
    pub cand: (f64, f64, f64, usize),
    pub verdict: Verdict,
}

fn judge(gate: &Gate, base: &[f64], cand: &[f64], drifted: bool) -> Verdict {
    let Some(bound) = gate.bound else {
        return Verdict::Info;
    };
    let (bq1, bmed, bq3) = quartiles(base);
    let cmed = quartiles(cand).1;
    // positive = the candidate is worse, as a share of the base median
    let worse = match gate.better {
        Better::Lower => (cmed - bmed) / bmed.abs(),
        Better::Higher => (bmed - cmed) / bmed.abs(),
    };
    let every_cand_better = base.iter().all(|b| {
        cand.iter().all(|c| match gate.better {
            Better::Lower => c < b,
            Better::Higher => c > b,
        })
    });
    let noisy = spread(base) > bound || spread(cand) > bound || drifted;
    if noisy && !every_cand_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < 0.0 && (every_cand_better || (cmed - bmed).abs() > (bq3 - bq1)) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Compare two result sets. Workloads or metrics present on one side
/// only are skipped; non-comparable (`--quick`) results are refused.
///
/// # Errors
/// A message when a set holds a quick or failed run, or the sets share
/// no workload.
pub fn compare(gates: &[Gate], base: &[Loaded], cand: &[Loaded]) -> Result<Vec<Row>, String> {
    for run in base.iter().chain(cand) {
        if !run.comparable {
            return Err(format!(
                "{} seed {}: a --quick result is not comparable",
                run.workload, run.seed
            ));
        }
        if !run.correct {
            return Err(format!(
                "{} seed {}: the run failed its output checks",
                run.workload, run.seed
            ));
        }
    }
    let by_workload = |set: &[Loaded]| -> BTreeMap<String, Vec<Loaded>> {
        let mut map: BTreeMap<String, Vec<Loaded>> = BTreeMap::new();
        for run in set {
            map.entry(run.workload.clone())
                .or_default()
                .push(run.clone());
        }
        map
    };
    let (base, cand) = (by_workload(base), by_workload(cand));
    let mut rows = Vec::new();
    for (workload, base_runs) in &base {
        let Some(cand_runs) = cand.get(workload) else {
            continue;
        };
        // a side has drifted when its median run did: single runs on the
        // shared sandbox read 0.1-0.2 now and then, and one of ten must
        // not withhold every verdict
        let drifted = [base_runs, cand_runs].iter().any(|runs| {
            let drifts: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get("loadgen.calib_drift").copied())
                .collect();
            !drifts.is_empty() && quartiles(&drifts).1 > MAX_CALIB_DRIFT
        });
        for gate in gates {
            let values = |runs: &[Loaded]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&gate.name).copied())
                    .collect()
            };
            let (b, c) = (values(base_runs), values(cand_runs));
            if b.is_empty() || c.is_empty() {
                continue;
            }
            let ((bq1, bmed, bq3), (cq1, cmed, cq3)) = (quartiles(&b), quartiles(&c));
            rows.push(Row {
                metric: gate.name.clone(),
                workload: workload.clone(),
                base: (bq1, bmed, bq3, b.len()),
                cand: (cq1, cmed, cq3, c.len()),
                verdict: judge(gate, &b, &c, drifted),
            });
        }
    }
    if rows.is_empty() {
        return Err("the two sets share no workload".into());
    }
    Ok(rows)
}

/// The table `compare` prints. Every ratio is given with its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<30} {:<15} {:>14} {:>25} {:>14} {:>25} {:>22}  {}\n",
        "metric",
        "workload",
        "base median",
        "base [q1, q3] (runs)",
        "cand median",
        "cand [q1, q3] (runs)",
        "cand / base",
        "verdict"
    );
    for r in rows {
        let quart = |(q1, _, q3, n): (f64, f64, f64, usize)| format!("[{q1:.4}, {q3:.4}] ({n})");
        let ratio = if r.base.1 == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4} (base {:.4})", r.cand.1 / r.base.1, r.base.1)
        };
        out.push_str(&format!(
            "{:<30} {:<15} {:>14.4} {:>25} {:>14.4} {:>25} {:>22}  {}\n",
            r.metric,
            r.workload,
            r.base.1,
            quart(r.base),
            r.cand.1,
            quart(r.cand),
            ratio,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, op_ms: f64, drift: f64) -> Loaded {
        Loaded {
            workload: workload.into(),
            seed: 1,
            comparable: true,
            correct: true,
            metrics: [
                ("op_ms".to_string(), op_ms),
                ("loadgen.calib_drift".to_string(), drift),
            ]
            .into(),
        }
    }

    /// A gate with a 0.10 bound and an unjudged per-layer metric.
    fn gates() -> Vec<Gate> {
        vec![
            Gate {
                name: "op_ms".into(),
                better: Better::Lower,
                bound: Some(0.10),
            },
            Gate {
                name: "loadgen.calib_drift".into(),
                better: Better::Lower,
                bound: None,
            },
        ]
    }

    #[test]
    fn gates_are_read_from_benchmark_json() {
        let gates = gates_from_benchmark_json(&crate::schema::benchmark_json()).expect("parses");
        let n = crate::schema::END_TO_END.len() + crate::schema::PER_LAYER.len();
        assert_eq!(gates.len(), n);
        let work = gates.iter().find(|g| g.name == "work_per_s").expect("gate");
        assert_eq!(work.better, Better::Higher);
        assert!(work.bound.is_some());
        assert!(
            gates.iter().filter(|g| g.bound.is_some()).count() == crate::schema::END_TO_END.len()
        );
        assert!(gates_from_benchmark_json("{\"end_to_end\": []}").is_err());
    }

    fn verdict_of(base: &[f64], cand: &[f64], drift: f64) -> Verdict {
        let set = |v: &[f64]| v.iter().map(|&x| run("w", x, drift)).collect::<Vec<_>>();
        let rows = compare(&gates(), &set(base), &set(cand)).expect("comparable sets");
        rows.iter()
            .find(|r| r.metric == "op_ms")
            .expect("op_ms row")
            .verdict
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict_of(&base, &base, 0.0), Verdict::Unchanged);
        assert_eq!(
            verdict_of(&base, &[120.0, 121.0, 119.0, 120.5, 119.5], 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict_of(&base, &[90.0, 91.0, 89.0, 90.5, 89.5], 0.0),
            Verdict::Improved
        );
        // within the bound and within the base's own spread: unchanged
        assert_eq!(
            verdict_of(&base, &[100.4, 101.2, 99.1, 100.6, 99.9], 0.0),
            Verdict::Unchanged
        );
    }

    #[test]
    fn noise_is_unresolved_unless_every_run_wins() {
        let noisy = [100.0, 140.0, 80.0, 120.0, 90.0];
        assert_eq!(verdict_of(&noisy, &noisy, 0.0), Verdict::Unresolved);
        // calibration drift alone also withholds the verdict
        let base = [100.0, 101.0, 99.0];
        assert_eq!(verdict_of(&base, &base, 0.3), Verdict::Unresolved);
        // ... but not when every candidate run beats every base run
        assert_eq!(
            verdict_of(&noisy, &[50.0, 60.0, 55.0], 0.0),
            Verdict::Improved
        );
    }

    #[test]
    fn quick_failed_and_disjoint_sets_are_refused() {
        let mut quick = run("w", 1.0, 0.0);
        quick.comparable = false;
        assert!(compare(&gates(), &[quick], &[run("w", 1.0, 0.0)]).is_err());
        let mut failed = run("w", 1.0, 0.0);
        failed.correct = false;
        assert!(compare(&gates(), &[run("w", 1.0, 0.0)], &[failed]).is_err());
        assert!(compare(&gates(), &[run("a", 1.0, 0.0)], &[run("b", 1.0, 0.0)]).is_err());
    }

    #[test]
    fn per_layer_rows_are_shown_not_judged() {
        let rows = compare(&gates(), &[run("w", 1.0, 0.0)], &[run("w", 9.0, 0.0)]).expect("rows");
        let drift = rows
            .iter()
            .find(|r| r.metric == "loadgen.calib_drift")
            .expect("per-layer row");
        assert_eq!(drift.verdict, Verdict::Info);
        let text = render(&rows);
        assert!(text.contains("9.0000 (base 1.0000)"), "{text}");
        assert!(text.contains("regressed"));
    }
}
