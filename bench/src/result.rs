//! Result files: what one run writes and what `compare` reads back.

use crate::adapter::{parse_json, write_escaped, Json};
use crate::env::EnvRecord;
use crate::schema::{find, END_TO_END, PER_LAYER};
use crate::workloads::Outcome;
use std::collections::BTreeMap;
use std::path::Path;

pub const RESULT_SCHEMA: &str = "splatt-e2e-result-v1";

/// Everything about one run that is not in its [`Outcome`].
#[derive(Debug, Clone)]
pub struct RunHeader {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub calib_before_s: f64,
    pub calib_after_s: f64,
    pub env: EnvRecord,
}

fn quoted(s: &str) -> String {
    let mut out = String::new();
    write_escaped(&mut out, s);
    out
}

/// The result file of one run.
pub fn to_json(head: &RunHeader, outcome: &Outcome) -> String {
    let defs: Vec<_> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .filter(|d| outcome.metrics.get(d.name).is_some())
        .copied()
        .collect();
    let config: Vec<String> = outcome
        .config
        .iter()
        .map(|(k, v)| format!("    {}: {}", quoted(k), quoted(v)))
        .collect();
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|c| {
            format!(
                "    {{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                quoted(&c.name),
                c.ok,
                quoted(&c.detail)
            )
        })
        .collect();
    let spans: Vec<String> = outcome
        .trace
        .iter()
        .flat_map(|t| t.summary())
        .map(|(name, count, wall_s, self_s)| {
            format!(
                "    {}: {{\"count\": {count}, \"wall_s\": {wall_s}, \"self_s\": {self_s}}}",
                quoted(name)
            )
        })
        .collect();
    let env = &head.env;
    format!(
        "{{\n  \"schema\": \"{RESULT_SCHEMA}\",\n  \"workload\": {},\n  \"seed\": {},\n  \
         \"seconds\": {},\n  \"traced\": {},\n  \"quick\": {},\n  \"comparable\": {},\n  \
         \"correct\": {},\n  \"ops_attempted\": {},\n  \"ops_failed\": {},\n  \
         \"env\": {{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_commit\": {}, \
         \"scratch_fs\": {}}},\n  \
         \"calibration\": {{\"before_s\": {}, \"after_s\": {}}},\n  \
         \"config\": {{\n{}\n  }},\n  \"metrics\": {},\n  \"spans\": {{\n{}\n  }},\n  \
         \"checks\": [\n{}\n  ]\n}}\n",
        quoted(&head.workload),
        head.seed,
        head.seconds,
        head.traced,
        head.quick,
        !head.quick,
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        env.nproc,
        quoted(&env.cpu_model),
        quoted(&env.rustc),
        quoted(&env.git_commit),
        quoted(&env.scratch_fs),
        head.calib_before_s,
        head.calib_after_s,
        config.join(",\n"),
        outcome.metrics.to_json(&defs),
        spans.join(",\n"),
        checks.join(",\n"),
    )
}

/// What `compare` needs of a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Loaded {
    pub workload: String,
    pub seed: u64,
    pub comparable: bool,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
}

/// Parse a result file's text.
///
/// # Errors
/// A message naming what is missing or malformed.
pub fn parse(text: &str) -> Result<Loaded, String> {
    let v = parse_json(text).map_err(|e| e.to_string())?;
    let field = |k: &str| v.get(k).ok_or(format!("missing \"{k}\""));
    if field("schema")?.as_str() != Some(RESULT_SCHEMA) {
        return Err(format!("not a {RESULT_SCHEMA} file"));
    }
    let flag = |k: &str| -> Result<bool, String> {
        match field(k)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("\"{k}\" is not a boolean")),
        }
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics")?
        .as_object()
        .ok_or("\"metrics\" is not an object")?
    {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or(format!("metric {name} has no numeric value"))?;
        let unit = m.get("unit").and_then(Json::as_str);
        match find(name) {
            Some(def) if unit == Some(def.unit) => metrics.insert(name.clone(), value),
            Some(def) => return Err(format!("metric {name}: unit {unit:?}, not {}", def.unit)),
            None => return Err(format!("metric {name} is not in the vocabulary")),
        };
    }
    Ok(Loaded {
        workload: field("workload")?
            .as_str()
            .ok_or("\"workload\" is not a string")?
            .to_string(),
        seed: field("seed")?
            .as_u64()
            .ok_or("\"seed\" is not an integer")?,
        comparable: flag("comparable")?,
        correct: flag("correct")?,
        metrics,
    })
}

/// Every result file (`*.json` with our schema) directly in `dir`.
///
/// # Errors
/// An unreadable directory, or a file that claims our schema and does not
/// parse. Other JSON files (traces) are skipped.
pub fn load_dir(dir: &Path) -> Result<Vec<Loaded>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if !text.contains(RESULT_SCHEMA) {
            continue;
        }
        out.push(parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_file_round_trips() {
        let mut outcome = Outcome::new(false);
        outcome.metrics.set("op_ms", 12.5);
        outcome.metrics.set("setup_s", 0.25);
        outcome.metrics.set("loadgen.calib_drift", 0.01);
        outcome.attempted = 7;
        outcome.note("dims", "[1, 2, 3]");
        outcome.check("a \"quoted\" check", true, "line\nbreak".into());
        let head = RunHeader {
            workload: "cpd_yelp".into(),
            seed: 42,
            seconds: 1.5,
            traced: false,
            quick: true,
            calib_before_s: 0.2,
            calib_after_s: 0.21,
            env: EnvRecord::capture(&std::env::temp_dir()),
        };
        let loaded = parse(&to_json(&head, &outcome)).expect("own output parses");
        assert_eq!(loaded.workload, "cpd_yelp");
        assert_eq!(loaded.seed, 42);
        assert!(!loaded.comparable, "quick results are not comparable");
        assert!(loaded.correct);
        assert_eq!(loaded.metrics.len(), 3);
        assert_eq!(loaded.metrics["op_ms"], 12.5);

        // a failed check makes the file say so
        outcome.check("broken", false, String::new());
        assert!(!parse(&to_json(&head, &outcome)).expect("parses").correct);
    }

    #[test]
    fn foreign_and_malformed_files_are_refused() {
        assert!(parse("{\"schema\": \"other\"}").is_err());
        assert!(parse("not json").is_err());
        let bad_unit = format!(
            "{{\"schema\": \"{RESULT_SCHEMA}\", \"workload\": \"w\", \"seed\": 1, \
             \"comparable\": true, \"correct\": true, \
             \"metrics\": {{\"op_ms\": {{\"value\": 1, \"unit\": \"s\"}}}}}}"
        );
        assert!(parse(&bad_unit).unwrap_err().contains("unit"));
    }
}
