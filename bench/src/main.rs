//! `e2e`: the end-to-end + per-layer benchmark of splatt-rs.
//!
//! ```text
//! e2e run --workload NAME [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!         [--quick] [--scratch DIR] [--out FILE]
//! e2e compare BASE_DIR CANDIDATE_DIR [--benchmark FILE]
//! e2e schema                       # the text of BENCHMARK.json
//! ```
//!
//! `run` executes one workload in this process, checks its outputs,
//! prints every metric by name with its unit, writes a result file, and
//! ends its standard output with one JSON line for the driver. See
//! `bench/README.md`.

mod adapter;
mod compare;
mod env;
mod result;
mod schema;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Exit code of a bad command line (a failed check exits 1).
const USAGE: u8 = 2;

const HELP: &str = "usage:
  e2e run --workload NAME [--seed N] [--seconds S] [--trace 0|1 | --traced] [--quick]
          [--scratch DIR] [--out FILE]
  e2e compare BASE_DIR CANDIDATE_DIR [--benchmark FILE]
  e2e schema";

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

struct RunArgs {
    workload: String,
    ctx: workloads::Ctx,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut out = None;
    let mut seconds = None;
    let mut ctx = workloads::Ctx {
        seed: schema::DEFAULT_SEED,
        seconds: 0.0,
        traced: false,
        quick: false,
        // inside the checkout: a run reads and writes nowhere else
        scratch: bench_dir().join("out").join("scratch"),
        corrupt_oracle: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                ctx.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => ctx.traced = true,
            "--quick" => ctx.quick = true,
            "--scratch" => ctx.scratch = PathBuf::from(value()?),
            "--out" => out = Some(PathBuf::from(value()?)),
            // harness self-test, see workloads::Ctx::corrupt_oracle
            "--corrupt-oracle" => ctx.corrupt_oracle = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !schema::is_workload(&workload) {
        let names: Vec<&str> = schema::WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!("unknown workload {workload}; one of {names:?}"));
    }
    ctx.seconds = seconds.unwrap_or(if ctx.quick {
        1.0
    } else {
        schema::RUN_SECONDS as f64
    });
    Ok(RunArgs { workload, ctx, out })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let RunArgs { workload, ctx, out } = parse_run(args)?;
    std::fs::create_dir_all(&ctx.scratch)
        .map_err(|e| format!("scratch {}: {e}", ctx.scratch.display()))?;
    let env = env::EnvRecord::capture(&ctx.scratch);

    let calib_before_s = env::calibrate();
    let mut outcome = workloads::run(&workload, &ctx);
    let calib_after_s = env::calibrate();
    outcome.metrics.set(
        "loadgen.calib_drift",
        (calib_after_s - calib_before_s).abs() / calib_before_s,
    );
    outcome
        .metrics
        .set("peak_rss_mb", env::peak_rss_mb().unwrap_or(0.0));
    for def in schema::END_TO_END {
        if outcome.metrics.get(def.name).is_none() {
            return Err(format!("{workload} did not measure {}", def.name));
        }
    }

    // every metric by name, with its unit
    println!(
        "workload {workload}  seed {}  seconds {}{}{}",
        ctx.seed,
        ctx.seconds,
        if ctx.traced { "  traced" } else { "" },
        if ctx.quick {
            "  QUICK (not comparable)"
        } else {
            ""
        },
    );
    for (name, value) in outcome.metrics.iter() {
        let unit = schema::find(name).map_or("", |d| d.unit);
        println!("  {name:<32} {value:>18.6} {unit}");
    }
    for c in &outcome.checks {
        println!(
            "  check {:<44} {} {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        outcome.attempted, outcome.failed
    );

    let stem = format!(
        "{workload}-{}{}",
        ctx.seed,
        if ctx.quick { "-quick" } else { "" }
    );
    let out_dir = bench_dir().join("out");
    let result_path = out.unwrap_or_else(|| {
        let pass = if ctx.traced { "-traced" } else { "" };
        out_dir.join(format!("result-{stem}{pass}.json"))
    });
    let write = |path: &Path, text: String| -> Result<(), String> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let head = result::RunHeader {
        workload,
        seed: ctx.seed,
        seconds: ctx.seconds,
        traced: ctx.traced,
        quick: ctx.quick,
        calib_before_s,
        calib_after_s,
        env,
    };
    write(&result_path, result::to_json(&head, &outcome))?;
    if let Some(trace) = &outcome.trace {
        write(&out_dir.join(format!("trace-{stem}.json")), trace.to_json())?;
    }
    let _ = std::fs::remove_dir(&ctx.scratch);

    // the driver's line: end-to-end metrics untraced, per-layer traced
    let defs = if ctx.traced {
        schema::PER_LAYER
    } else {
        schema::END_TO_END
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json(defs)
    );
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let mut dirs = Vec::new();
    let mut benchmark = bench_dir().join("..").join("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--benchmark" => {
                benchmark = PathBuf::from(it.next().ok_or("--benchmark needs a value")?);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    let [base, cand] = dirs.as_slice() else {
        return Err("compare takes a base and a candidate directory".into());
    };
    let text =
        std::fs::read_to_string(&benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let gates = compare::gates_from_benchmark_json(&text)?;
    let rows = compare::compare(&gates, &result::load_dir(base)?, &result::load_dir(cand)?)?;
    print!("{}", compare::render(&rows));
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} regressed, {} unresolved, {} improved, {} unchanged",
        count(compare::Verdict::Regressed),
        count(compare::Verdict::Unresolved),
        count(compare::Verdict::Improved),
        count(compare::Verdict::Unchanged)
    );
    Ok(if count(compare::Verdict::Regressed) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        Some((cmd, [])) if cmd == "schema" => {
            print!("{}", schema::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(HELP.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("e2e: {message}");
        ExitCode::from(USAGE)
    })
}
