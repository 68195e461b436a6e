//! `splatt` — command-line sparse tensor decomposition.
//!
//! The Rust counterpart of SPLATT's CLI:
//!
//! ```sh
//! splatt cpd tensor.tns --rank 35 --iters 20 --tasks 8 --out factors
//! splatt stats tensor.tns
//! splatt check tensor.tns
//! splatt generate yelp --scale 0.01 --out yelp_small.tns
//! ```

use splatt::core::{
    rmse_observed, tensor_complete, tensor_complete_ccd, CcdOptions, CompletionOptions,
};
use splatt::par::Routine;
use splatt::serve::protocol::Response;
use splatt::serve::{
    serve_with, Client, ClusterConfig, FrontEndConfig, LoopbackCluster, ServeConfig, ServeEngine,
    SharedModel,
};
use splatt::tensor::{io, synth, TensorStats};
use splatt::{
    corcondia, try_cp_als, Constraint, CpalsError, CpalsOptions, CpalsRun, CsfAlloc, FaultPlan,
    Governance, GuardConfig, Implementation, KruskalModel, Matrix, WatchdogConfig,
};
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         splatt cpd <tensor.tns> [--rank R] [--iters N] [--tol T] [--tasks N]\n              \
         [--impl reference|ported-initial|ported-optimized]\n              \
         [--csf one|two|all] [--seed S] [--nonneg 1] [--diagnose 1]\n              \
         [--dedup keep|sum|error]\n              \
         [--profile FILE.json] [--out PREFIX]\n              \
         [--fault-plan seed=S,straggler=P,nan=P,nonspd=P,horizon=N]\n              \
         [--checkpoint DIR] [--resume FILE|DIR]\n              \
         [--deadline SECS] [--mem-budget BYTES] [--stall-bound MS]\n  \
         splatt complete <train.tns> [--solver als|ccd] [--rank R] [--iters N]\n              \
         [--tol T] [--reg MU] [--tasks N] [--seed S]\n              \
         [--test FILE.tns] [--out PREFIX] [--model FILE]\n  \
         splatt predict <model.kruskal> <coords.tns>\n  \
         splatt export-model <checkpoint|model|.kruskal> --out FILE\n  \
         splatt serve --model NAME=FILE[,NAME=FILE...] [--addr HOST:PORT]\n              \
         [--deadline-ms MS] [--depth N] [--cache N] [--net-workers N] [--max-conns N]\n              \
         [--shards N [--replicas M] [--seed S]]\n              \
         (cluster mode: one --model; --depth/--cache/--net-workers/--max-conns refused)\n  \
         splatt cluster <addr>   (router health + per-shard failover counters)\n  \
         splatt query <addr> entry --model NAME --coords i,j,k[;i,j,k...]\n              \
         [--version V] [--deadline-ms MS]   (coords are zero-based)\n  \
         splatt query <addr> slice --model NAME --mode M --index I\n  \
         splatt query <addr> topk  --model NAME --mode M --k K [--fixed i,j]\n  \
         splatt query <addr> stats|list|health|shutdown\n  \
         splatt ingest <store-dir> <delta.tns> [--batch N] [--segment-bytes B]\n              \
         (append nnz deltas to the store's checksummed WAL)\n  \
         splatt recover <store-dir> [--base base.tns] [--out merged.tns]\n              \
         [--report FILE.json]   (replay the WAL, merge into the base tensor)\n  \
         splatt refresh <store-dir> [--base base.tns] [--rank R] [--iters N] [--tol T]\n              \
         [--tasks N] [--seed S] [--rounds N] [--audit-cold 1]\n              \
         [--deadline SECS] [--mem-budget BYTES] [--stall-bound MS]\n              \
         [--checkpoint DIR] [--model-file NAME] [--report FILE.json]\n              \
         (tail the WAL past the watermark, warm-refit, republish atomically)\n  \
         splatt stats <tensor.tns>\n  \
         splatt check <tensor.tns>\n  \
         splatt generate <yelp|rate-beer|beer-advocate|nell-2|netflix|random>\n              \
         [--scale F] [--seed S] [--dims IxJxK --nnz N] --out FILE"
    );
    ExitCode::from(2)
}

/// Flags each subcommand accepts; anything else is rejected by
/// [`Flags::parse`].
const CPD_FLAGS: &[&str] = &[
    "rank",
    "iters",
    "tol",
    "tasks",
    "impl",
    "csf",
    "seed",
    "nonneg",
    "diagnose",
    "dedup",
    "profile",
    "out",
    "model",
    "fault-plan",
    "checkpoint",
    "resume",
    "deadline",
    "mem-budget",
    "stall-bound",
];
const COMPLETE_FLAGS: &[&str] = &[
    "solver", "rank", "iters", "tol", "reg", "tasks", "seed", "test", "out", "model",
];
const SERVE_FLAGS: &[&str] = &[
    "model",
    "addr",
    "depth",
    "cache",
    "deadline-ms",
    "net-workers",
    "max-conns",
    "shards",
    "replicas",
    "seed",
];
/// The `serve` flags that size the single-process engine and front end.
/// A cluster (`--shards N`, N > 0) starts its workers with defaults, so
/// it refuses these like unknown flags rather than ignore them.
const SINGLE_PROCESS_SERVE_FLAGS: &[&str] = &["depth", "cache", "net-workers", "max-conns"];
const QUERY_FLAGS: &[&str] = &[
    "model",
    "coords",
    "version",
    "deadline-ms",
    "mode",
    "index",
    "k",
    "fixed",
];
const REFRESH_FLAGS: &[&str] = &[
    "base",
    "rank",
    "iters",
    "tol",
    "tasks",
    "seed",
    "rounds",
    "audit-cold",
    "checkpoint",
    "model-file",
    "report",
    "io-fault-seed",
    "io-crash-at-op",
    "deadline",
    "mem-budget",
    "stall-bound",
];

/// A subcommand body: positional arguments, then the parsed flags.
type Command = fn(&[String], &Flags) -> Result<(), String>;

/// `(positional argument count, accepted flags, body)` of a subcommand;
/// `None` for an unknown one.
fn subcommand(cmd: &str) -> Option<(usize, &'static [&'static str], Command)> {
    Some(match cmd {
        "cpd" => (1, CPD_FLAGS, |p, f| cmd_cpd(&p[0], f)),
        "complete" => (1, COMPLETE_FLAGS, |p, f| cmd_complete(&p[0], f)),
        "predict" => (2, &[], |p, _| cmd_predict(&p[0], &p[1])),
        "export-model" => (1, &["out"], |p, f| cmd_export_model(&p[0], f)),
        "serve" => (0, SERVE_FLAGS, |_, f| cmd_serve(f)),
        "cluster" => (1, &[], |p, _| cmd_cluster(&p[0])),
        "query" => (2, QUERY_FLAGS, |p, f| cmd_query(&p[0], &p[1], f)),
        "ingest" => (2, &["batch", "segment-bytes"], |p, f| {
            cmd_ingest(&p[0], &p[1], f)
        }),
        "recover" => (1, &["base", "out", "report"], |p, f| cmd_recover(&p[0], f)),
        "refresh" => (1, REFRESH_FLAGS, |p, f| cmd_refresh(&p[0], f)),
        "stats" => (1, &[], |p, _| cmd_stats(&p[0])),
        "check" => (1, &[], |p, _| cmd_check(&p[0])),
        "generate" => (1, &["scale", "seed", "dims", "nnz", "out"], |p, f| {
            cmd_generate(&p[0], f)
        }),
        _ => return None,
    })
}

/// Minimal flag parser: `--key value` pairs after the positional args.
struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parse `args`, rejecting any flag the subcommand does not accept —
    /// a typo must not silently run with the default.
    fn parse(args: &[String], accepted: &[&str]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{a}'"))?;
            if !accepted.contains(&key) {
                return Err(format!("unknown flag --{key}"));
            }
            let val = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            out.push((key.to_string(), val.clone()));
        }
        Ok(Flags(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every occurrence of a repeatable flag, in order.
    fn get_all(&self, key: &str) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn parse_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value '{v}' for --{key}"))
            })
            .transpose()
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parse_opt(key)?.unwrap_or(default))
    }
}

/// `serve --shards N` (N > 0) with a flag of
/// [`SINGLE_PROCESS_SERVE_FLAGS`] is a usage error, named like an
/// unknown flag: a flag that would do nothing is not accepted silently.
fn refuse_cluster_sizes(cmd: &str, flags: Flags) -> Result<Flags, String> {
    let cluster =
        cmd == "serve" && matches!(flags.parse_opt::<usize>("shards"), Ok(Some(n)) if n > 0);
    match SINGLE_PROCESS_SERVE_FLAGS
        .iter()
        .find(|k| flags.get(k).is_some())
    {
        Some(key) if cluster => Err(format!(
            "flag --{key} does not apply to a cluster (--shards): its workers run with defaults"
        )),
        _ => Ok(flags),
    }
}

/// The run limits of `cpd` / `refresh`:
/// `--deadline SECS --mem-budget BYTES --stall-bound MS`. A tripped limit
/// aborts the run; `--checkpoint` + `--resume` continue it.
fn run_limits(flags: &Flags) -> Result<GuardConfig, String> {
    let deadline = flags
        .parse_opt::<f64>("deadline")?
        .map(|secs| {
            Duration::try_from_secs_f64(secs)
                .map_err(|_| format!("invalid value '{secs}' for --deadline"))
        })
        .transpose()?;
    Ok(GuardConfig {
        deadline,
        mem_budget: flags.parse_opt("mem-budget")?,
        watchdog: flags.parse_opt("stall-bound")?.map(|ms| WatchdogConfig {
            stall_bound: Duration::from_millis(ms),
            ..Default::default()
        }),
    })
}

fn load(path: &str) -> Result<splatt::SparseTensor, String> {
    io::read_tns_file(path).map_err(|e| format!("{path}: {e}"))
}

/// Load honoring a `--dedup keep|sum|error` flag (keep is the default).
fn load_with_dedup(path: &str, flags: &Flags) -> Result<splatt::SparseTensor, String> {
    let policy = match flags.get("dedup").unwrap_or("keep") {
        "keep" => io::DuplicatePolicy::Keep,
        "sum" => io::DuplicatePolicy::Sum,
        "error" => io::DuplicatePolicy::Error,
        other => return Err(format!("unknown --dedup '{other}' (keep|sum|error)")),
    };
    io::read_tns_file_with(path, policy).map_err(|e| format!("{path}: {e}"))
}

fn write_matrix(path: &std::path::Path, m: &Matrix) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for i in 0..m.rows() {
        let row: Vec<String> = m.row(i).iter().map(|v| format!("{v:.17e}")).collect();
        writeln!(f, "{}", row.join(" "))?;
    }
    f.flush()
}

fn cmd_cpd(path: &str, flags: &Flags) -> Result<(), String> {
    let tensor = load_with_dedup(path, flags)?;
    println!("{path}:");
    print!("{}", TensorStats::compute(&tensor));

    let imp = match flags.get("impl").unwrap_or("reference") {
        "reference" => Implementation::Reference,
        "ported-initial" => Implementation::PortedInitial,
        "ported-optimized" => Implementation::PortedOptimized,
        other => return Err(format!("unknown --impl '{other}'")),
    };
    let csf_alloc = match flags.get("csf").unwrap_or("two") {
        "one" => CsfAlloc::One,
        "two" => CsfAlloc::Two,
        "all" => CsfAlloc::All,
        other => return Err(format!("unknown --csf '{other}'")),
    };
    let constraint = if flags.parse_or("nonneg", 0u8)? != 0 {
        Constraint::NonNegative
    } else {
        Constraint::None
    };
    let profile_path = flags.get("profile").map(str::to_string);

    // ---- fault tolerance flags ----
    let fault_plan = flags
        .get("fault-plan")
        .map(|spec| FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}")))
        .transpose()?;
    let checkpoint_dir = flags.get("checkpoint").map(std::path::PathBuf::from);
    if let Some(dir) = &checkpoint_dir {
        if dir.exists() && !dir.is_dir() {
            return Err(format!(
                "--checkpoint: '{}' exists and is not a directory",
                dir.display()
            ));
        }
    }
    let resume_from = match flags.get("resume") {
        None => None,
        Some(p) => {
            let path = std::path::PathBuf::from(p);
            if path.is_dir() {
                // a directory means "latest checkpoint in there"
                match splatt::Checkpoint::latest_in(&path) {
                    Ok(Some(latest)) => Some(latest),
                    Ok(None) => return Err(format!("--resume: no ckpt-*.splatt in '{p}'")),
                    Err(e) => return Err(format!("--resume: {e}")),
                }
            } else if path.is_file() {
                Some(path)
            } else {
                return Err(format!("--resume: '{p}' does not exist"));
            }
        }
    };

    let opts = CpalsOptions {
        rank: flags.parse_or("rank", 10)?,
        max_iters: flags.parse_or("iters", 50)?,
        tolerance: flags.parse_or("tol", 1e-5)?,
        ntasks: flags.parse_or("tasks", 1)?,
        seed: flags.parse_or("seed", 0xC0FFEE_u64)?,
        csf_alloc,
        constraint,
        profile: profile_path.is_some(),
        checkpoint_dir,
        resume_from,
        ..Default::default()
    }
    .with_implementation(imp);

    println!(
        "\nCP-ALS: rank {}, max {} iterations, {} task(s), {} implementation",
        opts.rank,
        opts.max_iters,
        opts.ntasks,
        imp.label()
    );
    if let Some(plan) = &fault_plan {
        println!(
            "fault injection: seed {}, rates {:?}",
            plan.seed(),
            plan.rates()
        );
    }
    if let Some(path) = &opts.resume_from {
        println!("resuming from {}", path.display());
    }
    if let Some(dir) = &opts.checkpoint_dir {
        println!("checkpointing to {}", dir.display());
    }

    let limits = run_limits(flags)?;
    if limits.is_armed() {
        println!(
            "governance: deadline {}, mem budget {}, stall bound {}",
            limits
                .deadline
                .map_or("none".into(), |d| format!("{}s", d.as_secs_f64())),
            limits
                .mem_budget
                .map_or("none".into(), |b| format!("{b} bytes")),
            limits.watchdog.map_or("none".into(), |w| format!(
                "{}ms",
                w.stall_bound.as_millis()
            )),
        );
    }
    let run = CpalsRun {
        faults: fault_plan.as_ref(),
        governance: Governance::Policy(&limits),
        ..Default::default()
    };
    let out = match try_cp_als(&tensor, &opts, &run) {
        Ok(out) => out,
        Err(e @ CpalsError::Aborted(_)) => {
            return Err(format!(
                "{e}\nhint: re-run with --resume to continue from the checkpoint"
            ));
        }
        Err(e) => return Err(e.to_string()),
    };
    println!(
        "converged: fit {:.6} after {} iterations",
        out.fit, out.iterations
    );
    if let Some(plan) = &fault_plan {
        let events = plan.events();
        println!("\ninjected faults: {}", events.len());
        for e in &events {
            println!(
                "  [it {:>3}] {:<18} at {:<24} -> {}",
                e.iteration,
                e.kind.label(),
                e.site,
                e.action.describe()
            );
        }
    }
    println!("\nper-routine seconds:");
    for r in Routine::ALL {
        println!("  {:<10} {:>10.4}", r.label(), out.timers.seconds(r));
    }

    if let Some(path) = &profile_path {
        let report = out
            .profile
            .as_ref()
            .ok_or_else(|| "--profile: run produced no profile report".to_string())?;
        std::fs::write(path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("\n{}", report.render());
        println!("wrote {path}");
    }

    if flags.parse_or("diagnose", 0u8)? != 0 {
        if tensor.order() == 3 {
            println!(
                "\ncore consistency (CORCONDIA): {:.1}",
                corcondia(&out.model, &tensor)
            );
        } else {
            println!("\n--diagnose: CORCONDIA requires a 3rd-order tensor; skipped");
        }
    }

    if let Some(prefix) = flags.get("out") {
        let lambda_path = format!("{prefix}.lambda.txt");
        let mut f =
            std::fs::File::create(&lambda_path).map_err(|e| format!("{lambda_path}: {e}"))?;
        for l in &out.model.lambda {
            writeln!(f, "{l:.17e}").map_err(|e| e.to_string())?;
        }
        println!("\nwrote {lambda_path}");
        for (m, factor) in out.model.factors.iter().enumerate() {
            let p = format!("{prefix}.mode{m}.txt");
            write_matrix(std::path::Path::new(&p), factor).map_err(|e| format!("{p}: {e}"))?;
            println!("wrote {p} ({}x{})", factor.rows(), factor.cols());
        }
    }
    if let Some(model_path) = flags.get("model") {
        save_model(&out.model, model_path)?;
    }
    Ok(())
}

fn save_model(model: &KruskalModel, path: &str) -> Result<(), String> {
    // Text `.kruskal` format, but published atomically (temp + fsync +
    // rename) so a crash mid-save can never leave a torn half-model
    // where a previous good model used to be.
    let mut bytes = Vec::new();
    model
        .write(&mut bytes)
        .map_err(|e| format!("{path}: {e}"))?;
    splatt::store::publish_bytes(std::path::Path::new(path), &bytes, None)
        .map_err(|e| format!("{path}: {e}"))?;
    println!(
        "wrote {path} (rank {}, {} modes)",
        model.rank(),
        model.order()
    );
    Ok(())
}

fn cmd_predict(model_path: &str, coords_path: &str) -> Result<(), String> {
    let model = splatt::core::load_model_path(std::path::Path::new(model_path))
        .map_err(|e| format!("{model_path}: {e}"))?;
    let queries = load(coords_path)?;
    if queries.order() != model.order() {
        return Err(format!(
            "model has {} modes but queries have {}",
            model.order(),
            queries.order()
        ));
    }
    let mut sse = 0.0;
    for x in 0..queries.nnz() {
        let coord = queries.coord(x);
        let pred = model.value_at(&coord);
        let actual = queries.vals()[x];
        sse += (pred - actual) * (pred - actual);
        let printable: Vec<String> = coord.iter().map(|&c| (c as u64 + 1).to_string()).collect();
        println!("{} {pred:.6}", printable.join(" "));
    }
    if queries.nnz() > 0 {
        eprintln!(
            "RMSE vs provided values: {:.6}",
            (sse / queries.nnz() as f64).sqrt()
        );
    }
    Ok(())
}

fn cmd_complete(path: &str, flags: &Flags) -> Result<(), String> {
    let train = load(path)?;
    println!("{path}:");
    print!("{}", TensorStats::compute(&train));

    let rank = flags.parse_or("rank", 10)?;
    let max_iters = flags.parse_or("iters", 50)?;
    let tolerance = flags.parse_or("tol", 1e-5)?;
    let regularization = flags.parse_or("reg", 1e-2)?;
    let ntasks = flags.parse_or("tasks", 1)?;
    let seed = flags.parse_or("seed", 0xBEEF_u64)?;
    let solver = flags.get("solver").unwrap_or("als");
    println!(
        "\ntensor completion: solver {solver}, rank {rank}, max {max_iters} sweeps, \
         mu {regularization}, {ntasks} task(s)"
    );
    let out = match solver {
        "als" => tensor_complete(
            &train,
            &CompletionOptions {
                rank,
                max_iters,
                tolerance,
                regularization,
                ntasks,
                seed,
                ..Default::default()
            },
        ),
        "ccd" => tensor_complete_ccd(
            &train,
            &CcdOptions {
                rank,
                max_sweeps: max_iters,
                tolerance,
                regularization,
                ntasks,
                seed,
                ..Default::default()
            },
        ),
        other => return Err(format!("unknown --solver '{other}' (als|ccd)")),
    };
    println!("train RMSE {:.6} after {} sweeps", out.rmse, out.iterations);

    if let Some(test_path) = flags.get("test") {
        let test = load(test_path)?;
        println!(
            "held-out RMSE {:.6} on {test_path}",
            rmse_observed(&out.model, &test)
        );
    }
    if let Some(prefix) = flags.get("out") {
        for (m, factor) in out.model.factors.iter().enumerate() {
            let p = format!("{prefix}.mode{m}.txt");
            write_matrix(std::path::Path::new(&p), factor).map_err(|e| format!("{p}: {e}"))?;
            println!("wrote {p} ({}x{})", factor.rows(), factor.cols());
        }
    }
    if let Some(model_path) = flags.get("model") {
        save_model(&out.model, model_path)?;
    }
    Ok(())
}

/// Convert a checkpoint, bit-exact model file, or text `.kruskal` model
/// into the canonical bit-exact model format used by `splatt serve`.
///
/// The output is a CRC-framed artifact written via atomic publish, so a
/// crash mid-export leaves either the old file or the new one — never a
/// torn hybrid that parses as a wrong model.
fn cmd_export_model(input: &str, flags: &Flags) -> Result<(), String> {
    let out_path = flags.get("out").ok_or("export-model requires --out FILE")?;
    let model = splatt::core::load_model_path(std::path::Path::new(input))
        .map_err(|e| format!("{input}: {e}"))?;
    splatt::core::save_model_path(&model, std::path::Path::new(out_path), 1)
        .map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "wrote {out_path} (rank {}, {} modes, dims {:?})",
        model.rank(),
        model.order(),
        model.factors.iter().map(Matrix::rows).collect::<Vec<_>>()
    );
    Ok(())
}

/// Append the nonzeros of `delta.tns` to a store directory's WAL in
/// group-committed batches, then publish a refreshed manifest. Every
/// batch reported as committed here is durable: the WAL fsyncs before
/// `commit` returns, and recovery replays it even after power loss.
fn cmd_ingest(store_dir: &str, delta_path: &str, flags: &Flags) -> Result<(), String> {
    use splatt::store::{counters_snapshot, encode_delta, Manifest, Wal, WalOptions};
    let batch: usize = flags.parse_or("batch", 1024)?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let segment_bytes: u64 = flags.parse_or("segment-bytes", 4 << 20)?;
    if segment_bytes == 0 {
        return Err("--segment-bytes must be at least 1".into());
    }
    let (order, entries) =
        io::read_tns_entries_file(delta_path).map_err(|e| format!("{delta_path}: {e}"))?;
    let dir = std::path::Path::new(store_dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{store_dir}: {e}"))?;
    let (mut wal, recovery) = Wal::open(
        dir,
        WalOptions {
            segment_bytes,
            plan: None,
        },
    )
    .map_err(|e| format!("{store_dir}: {e}"))?;
    if recovery.truncated_bytes > 0 {
        println!(
            "recovered WAL: truncated {} torn tail byte(s), {} committed record(s) intact",
            recovery.truncated_bytes,
            recovery.records.len()
        );
    }
    let mut committed_nnz = 0usize;
    for chunk in entries.chunks(batch) {
        let payload = encode_delta(order, chunk);
        wal.append(&payload)
            .map_err(|e| format!("{store_dir}: {e}"))?;
        wal.commit().map_err(|e| format!("{store_dir}: {e}"))?;
        committed_nnz += chunk.len();
    }
    let mut manifest = Manifest::load(dir, None)
        .map_err(|e| format!("{store_dir}: {e}"))?
        .unwrap_or_default();
    manifest.set("order", &order.to_string());
    manifest.set("segment", &wal.segment_index().to_string());
    if let Some(seq) = wal.acked_seq() {
        manifest.set("acked_seq", &seq.to_string());
    }
    let generation = manifest
        .publish(dir, None)
        .map_err(|e| format!("{store_dir}: {e}"))?;
    println!(
        "ingested {committed_nnz} nonzeros from {delta_path} into {store_dir} \
         (manifest generation {generation})"
    );
    let counters = counters_snapshot().fields();
    print!("{}", splatt::probe::render_counters("store", &counters));
    Ok(())
}

/// Replay a store directory's WAL, merge the recovered nnz deltas into
/// an optional base tensor, and report what recovery found. Coincident
/// coordinates sum (the WAL is a log of *deltas*, not of final values).
fn cmd_recover(store_dir: &str, flags: &Flags) -> Result<(), String> {
    use splatt::store::{counters_snapshot, decode_delta, Manifest, Wal};
    let dir = std::path::Path::new(store_dir);
    let recovery = Wal::recover(dir, None).map_err(|e| format!("{store_dir}: {e}"))?;
    let manifest = Manifest::load(dir, None).map_err(|e| format!("{store_dir}: {e}"))?;
    if let Some(m) = &manifest {
        println!(
            "manifest generation {}{}",
            m.generation,
            m.get("acked_seq")
                .map(|s| format!(", acked seq {s}"))
                .unwrap_or_default()
        );
    }
    let mut entries: Vec<(Vec<u32>, f64)> = Vec::new();
    let mut order: Option<usize> = None;
    for record in &recovery.records {
        let (rec_order, batch) = decode_delta(&record.payload)
            .map_err(|e| format!("{store_dir}: WAL record {}: {e}", record.seq))?;
        match order {
            None => order = Some(rec_order),
            Some(o) if o == rec_order => {}
            Some(o) => {
                return Err(format!(
                    "{store_dir}: WAL record {} has order {rec_order}, expected {o}",
                    record.seq
                ))
            }
        }
        entries.extend(batch);
    }
    println!(
        "recovered {} record(s) holding {} nonzeros from {} segment(s), \
         truncated {} torn byte(s)",
        recovery.records.len(),
        entries.len(),
        recovery.segments_scanned,
        recovery.truncated_bytes
    );
    let merged = match (flags.get("base"), order) {
        (Some(base_path), _) => {
            let mut base = load(base_path)?;
            let expect = base.order();
            if let Some(o) = order {
                if o != expect {
                    return Err(format!(
                        "{base_path} has order {expect} but the WAL holds order-{o} deltas"
                    ));
                }
            }
            base.merge_entries(&entries);
            println!(
                "merged into {base_path}: {} nonzeros after coalescing",
                base.nnz()
            );
            Some(base)
        }
        (None, Some(o)) => {
            // Unit dims: merge_entries grows each mode to fit its data.
            let mut t = splatt::SparseTensor::new(vec![1; o]);
            t.merge_entries(&entries);
            Some(t)
        }
        (None, None) => None,
    };
    if let Some(out_path) = flags.get("out") {
        let t = merged
            .as_ref()
            .ok_or("--out needs recovered records or a --base tensor")?;
        io::write_tns_file(t, out_path).map_err(|e| format!("{out_path}: {e}"))?;
        println!("wrote {} nonzeros to {out_path}", t.nnz());
    }
    if let Some(report_path) = flags.get("report") {
        let report = splatt::probe::ProfileReport {
            store: Some(counters_snapshot()),
            ..Default::default()
        };
        std::fs::write(report_path, report.to_json()).map_err(|e| format!("{report_path}: {e}"))?;
        println!("wrote {report_path}");
    }
    Ok(())
}

/// Tail a store directory's WAL past its committed watermark, merge the
/// pending delta batches incrementally, warm-start a governed CP-ALS
/// refit from the previously published model, and atomically republish
/// the refreshed model into the store — the streaming counterpart of
/// `recover` + `cpd`. Each round commits its watermark to the manifest
/// only after the model artifact is durably published, so a crash at
/// any point recovers to a consistent (tensor, model, watermark) triple.
fn cmd_refresh(store_dir: &str, flags: &Flags) -> Result<(), String> {
    use splatt::core::refresh::{RefreshEngine, RefreshOptions};
    use splatt::faults::IoFaultPlan;
    use splatt::store::counters_snapshot;

    let dir = std::path::Path::new(store_dir);
    if !dir.is_dir() {
        return Err(format!("{store_dir}: not a directory"));
    }
    let base = flags.get("base").map(load).transpose()?;
    let rounds: usize = flags.parse_or("rounds", 1)?;
    if rounds == 0 {
        return Err("--rounds must be at least 1".into());
    }

    let cpals = CpalsOptions {
        rank: flags.parse_or("rank", 10)?,
        max_iters: flags.parse_or("iters", 50)?,
        tolerance: flags.parse_or("tol", 1e-5)?,
        ntasks: flags.parse_or("tasks", 1)?,
        seed: flags.parse_or("seed", 0xC0FFEE_u64)?,
        checkpoint_dir: flags.get("checkpoint").map(std::path::PathBuf::from),
        ..Default::default()
    };

    let policy = run_limits(flags)?;

    // Disk-fault injection (crash storms drive this from scripts).
    let io_seed: u64 = flags.parse_or("io-fault-seed", 0)?;
    let plan = match flags.get("io-crash-at-op") {
        Some(v) => {
            let op: u64 = v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --io-crash-at-op"))?;
            Some(Arc::new(IoFaultPlan::quiet(io_seed).with_crash_at_op(op)))
        }
        None => None,
    };

    let opts = RefreshOptions {
        cpals,
        policy,
        plan,
        audit_cold: flags.parse_or("audit-cold", 0u8)? != 0,
        model_file: flags.get("model-file").unwrap_or_default().to_string(),
    };
    let mut eng = RefreshEngine::open(dir, base, opts).map_err(|e| format!("{store_dir}: {e}"))?;
    println!(
        "refresh: store {store_dir}, watermark {} ({} nonzeros resident, previous model {})",
        eng.watermark(),
        eng.tensor().nnz(),
        if eng.model().is_some() {
            "loaded"
        } else {
            "none"
        }
    );

    for round in 0..rounds {
        match eng
            .refresh_once()
            .map_err(|e| format!("{store_dir}: {e}"))?
        {
            None => {
                println!("round {}: WAL has nothing past the watermark", round + 1);
                break;
            }
            Some(out) => {
                println!(
                    "round {}: applied {} record(s) / {} entries \
                     ({} merge comparisons), fit {:.6} in {} iteration(s), \
                     published generation {} at watermark {}",
                    round + 1,
                    out.applied,
                    out.entries,
                    out.merge.compare_ops,
                    out.fit,
                    out.iterations,
                    out.round,
                    out.watermark
                );
                if out.warm_fit_gap > 0.0 {
                    println!("warm-vs-cold fit gap {:.3e}", out.warm_fit_gap);
                }
            }
        }
    }

    if let Some(model) = eng.model() {
        println!(
            "model: rank {}, dims {:?} ({})",
            model.rank(),
            model.factors.iter().map(Matrix::rows).collect::<Vec<_>>(),
            dir.join(splatt::core::refresh::REFRESH_MODEL_FILE)
                .display()
        );
    }
    if let Some(report_path) = flags.get("report") {
        let report = splatt::probe::ProfileReport {
            store: Some(counters_snapshot()),
            refresh: Some(eng.refresh_row()),
            ..Default::default()
        };
        std::fs::write(report_path, report.to_json()).map_err(|e| format!("{report_path}: {e}"))?;
        println!("wrote {report_path}");
    }
    Ok(())
}

/// Parse every `--model NAME=FILE[,NAME=FILE...]` occurrence.
fn parse_model_specs(flags: &Flags) -> Result<Vec<(String, String)>, String> {
    let mut specs = Vec::new();
    for occurrence in flags.get_all("model") {
        for spec in occurrence.split(',') {
            let (name, path) = spec
                .split_once('=')
                .ok_or_else(|| format!("--model '{spec}' is not NAME=FILE"))?;
            if name.is_empty() || path.is_empty() {
                return Err(format!("--model '{spec}' is not NAME=FILE"));
            }
            specs.push((name.to_string(), path.to_string()));
        }
    }
    if specs.is_empty() {
        return Err("serve requires at least one --model NAME=FILE".into());
    }
    Ok(specs)
}

/// SIGTERM/SIGINT → graceful drain, not a dropped connection: the
/// handler only sets a flag (async-signal-safe); a watcher thread trips
/// the shutdown token, which stops accepting and lets requests already
/// computing finish under the drain deadline before the process exits.
#[cfg(unix)]
mod term_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    pub fn received() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod term_signal {
    pub fn install() {}

    pub fn received() -> bool {
        false
    }
}

/// Run `drain` once a termination signal arrives; exit quietly when
/// `done` reports the server already stopped on its own.
fn spawn_term_watcher(
    drain: impl FnOnce() + Send + 'static,
    done: impl Fn() -> bool + Send + 'static,
) {
    term_signal::install();
    std::thread::spawn(move || loop {
        if term_signal::received() {
            drain();
            return;
        }
        if done() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let specs = parse_model_specs(flags)?;
    let nshards: usize = flags.parse_or("shards", 0)?;
    if nshards > 0 {
        return cmd_serve_cluster(&specs, flags, nshards);
    }
    let addr = flags.get("addr").unwrap_or("127.0.0.1:0");
    let config = ServeConfig {
        max_depth: flags.parse_or("depth", ServeConfig::default().max_depth)?,
        cache_capacity: flags.parse_or("cache", ServeConfig::default().cache_capacity)?,
        default_deadline: Duration::from_millis(flags.parse_or(
            "deadline-ms",
            ServeConfig::default().default_deadline.as_millis() as u64,
        )?),
        ..Default::default()
    };
    let front_defaults = FrontEndConfig::default();
    let front = FrontEndConfig {
        workers: flags.parse_or("net-workers", front_defaults.workers)?,
        max_conns: flags.parse_or("max-conns", front_defaults.max_conns)?,
        ..front_defaults
    };
    let engine = ServeEngine::start(config);
    for (name, path) in &specs {
        let model = splatt::core::load_model_path(std::path::Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
        let version = engine.publish(name, model);
        println!("published {name} v{version} from {path}");
    }
    let handle = serve_with(engine, addr, front).map_err(|e| format!("{addr}: {e}"))?;
    // Tests parse the bound address from a pipe: flush past block buffering.
    println!("serving {} model(s) on {}", specs.len(), handle.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let drain = Arc::clone(handle.engine());
    let done = Arc::clone(handle.engine());
    spawn_term_watcher(
        move || drain.shutdown_token().cancel(),
        move || done.shutdown_token().is_cancelled(),
    );
    handle.join();
    println!("server stopped");
    Ok(())
}

/// `splatt serve --shards N [--replicas M]`: a loopback cluster —
/// N×M shard workers behind one router that speaks the ordinary wire
/// protocol, so `splatt query` works unchanged against it.
fn cmd_serve_cluster(
    specs: &[(String, String)],
    flags: &Flags,
    nshards: usize,
) -> Result<(), String> {
    if specs.len() != 1 {
        return Err("cluster mode serves exactly one --model NAME=FILE".into());
    }
    let (name, path) = &specs[0];
    let shared =
        SharedModel::load(name, std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let defaults = ClusterConfig::default();
    let nreplicas: usize = flags.parse_or("replicas", defaults.nreplicas)?;
    if nreplicas == 0 {
        return Err("--replicas must be at least 1".into());
    }
    let seed: u64 = flags.parse_or("seed", defaults.seed)?;
    let config = ClusterConfig {
        nshards,
        nreplicas,
        seed,
        default_deadline: Duration::from_millis(
            flags.parse_or("deadline-ms", defaults.default_deadline.as_millis() as u64)?,
        ),
        ..defaults
    };
    let addr = flags.get("addr").unwrap_or("127.0.0.1:0");
    let cluster = LoopbackCluster::start_on(config, &shared, None, addr)
        .map_err(|e| format!("{addr}: {e}"))?;
    println!(
        "published {name} v1 from {path} on {} worker(s) \
         ({nshards} shard(s) x {nreplicas} replica(s), ring seed {seed:#x})",
        nshards * nreplicas
    );
    // Same line format as single-process serve: tests and scripts parse
    // the bound address from it.
    println!("serving 1 model(s) on {}", cluster.router_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let drain = cluster.router();
    let done = cluster.router();
    spawn_term_watcher(
        move || drain.stop_token().cancel(),
        move || done.stop_token().is_cancelled(),
    );
    cluster.join();
    println!("server stopped");
    Ok(())
}

/// `splatt cluster <addr>`: ping a running router and print its stats
/// JSON (the schema v7 `serve` object with per-shard failover counters).
fn cmd_cluster(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    match client.health().map_err(|e| format!("{addr}: {e}"))? {
        Response::Health { .. } => println!("{addr}: healthy"),
        Response::Error(code, msg) => return Err(format!("server error ({code:?}): {msg}")),
        other => return Err(format!("unexpected health response {other:?}")),
    }
    match client.stats().map_err(|e| format!("{addr}: {e}"))? {
        Response::Stats(json) => {
            println!("{json}");
            Ok(())
        }
        Response::Error(code, msg) => Err(format!("server error ({code:?}): {msg}")),
        other => Err(format!("unexpected stats response {other:?}")),
    }
}

fn parse_coord_list(spec: &str, what: &str) -> Result<Vec<u32>, String> {
    spec.split(',')
        .map(|c| {
            c.trim()
                .parse()
                .map_err(|_| format!("bad {what} '{spec}': '{c}' is not a u32"))
        })
        .collect()
}

fn cmd_query(addr: &str, op: &str, flags: &Flags) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let model = flags.get("model").unwrap_or("");
    let version: u64 = flags.parse_or("version", 0)?;
    let deadline_ms: u32 = flags.parse_or("deadline-ms", 0)?;
    let needs_model = matches!(op, "entry" | "slice" | "topk");
    if needs_model && model.is_empty() {
        return Err(format!("query {op} requires --model NAME"));
    }
    let response = match op {
        "entry" => {
            let spec = flags.get("coords").ok_or("entry requires --coords")?;
            let tuples: Vec<Vec<u32>> = spec
                .split(';')
                .map(|t| parse_coord_list(t, "--coords"))
                .collect::<Result<_, _>>()?;
            let order = tuples.first().map_or(0, Vec::len);
            if order == 0 || order > usize::from(u8::MAX) {
                return Err(format!("bad --coords '{spec}'"));
            }
            if let Some(bad) = tuples.iter().find(|t| t.len() != order) {
                return Err(format!(
                    "--coords tuples disagree on order ({order} vs {})",
                    bad.len()
                ));
            }
            let coords: Vec<u32> = tuples.into_iter().flatten().collect();
            client.entries(model, version, deadline_ms, order as u8, coords)
        }
        "slice" => {
            let mode: u8 = flags.parse_or("mode", 0)?;
            let index: u32 = flags.parse_or("index", 0)?;
            client.slice(model, version, deadline_ms, mode, index)
        }
        "topk" => {
            let mode: u8 = flags.parse_or("mode", 0)?;
            let k: u32 = flags.parse_or("k", 10)?;
            let fixed = match flags.get("fixed") {
                Some(spec) => parse_coord_list(spec, "--fixed")?,
                None => Vec::new(),
            };
            client.top_k(model, version, deadline_ms, mode, k, fixed)
        }
        "stats" => client.stats(),
        "list" => client.list(),
        "health" => client.health(),
        "shutdown" => client.shutdown(),
        other => return Err(format!("unknown query op '{other}'")),
    }
    .map_err(|e| format!("{addr}: {e}"))?;
    print_response(&response)
}

fn print_response(response: &Response) -> Result<(), String> {
    match response {
        Response::Entries(vals) | Response::Slice(vals) => {
            let mut out = std::io::BufWriter::new(std::io::stdout().lock());
            for v in vals {
                writeln!(out, "{v:.17e}").map_err(|e| e.to_string())?;
            }
            out.flush().map_err(|e| e.to_string())
        }
        Response::TopK(pairs) => {
            for (index, score) in pairs {
                println!("{index} {score:.17e}");
            }
            Ok(())
        }
        Response::Stats(json) => {
            println!("{json}");
            Ok(())
        }
        Response::Models(models) => {
            for m in models {
                println!(
                    "{} v{}: order {}, rank {}",
                    m.name, m.version, m.order, m.rank
                );
            }
            Ok(())
        }
        Response::Health { worker, shard } => {
            if *worker == u32::MAX {
                // The sentinel covers both a router front end and a
                // standalone server — neither has a shard identity.
                println!("healthy");
            } else {
                println!("healthy (worker {worker}, shard {shard})");
            }
            Ok(())
        }
        Response::Ack => {
            println!("server acknowledged shutdown");
            Ok(())
        }
        Response::Error(code, msg) => Err(format!("server error ({code:?}): {msg}")),
    }
}

fn cmd_stats(path: &str) -> Result<(), String> {
    let tensor = load(path)?;
    println!("{path}:");
    print!("{}", TensorStats::compute(&tensor));
    Ok(())
}

fn cmd_check(path: &str) -> Result<(), String> {
    let tensor = load(path)?;
    let entries = tensor.canonical_entries();
    let mut dups = 0usize;
    for w in entries.windows(2) {
        if w[0].0 == w[1].0 {
            dups += 1;
        }
    }
    let zeros = tensor.vals().iter().filter(|&&v| v == 0.0).count();
    println!(
        "{path}: order {}, {} nonzeros, {} duplicate coordinate pair(s), {} explicit zero(s)",
        tensor.order(),
        tensor.nnz(),
        dups,
        zeros
    );
    if dups > 0 {
        println!("note: duplicates are summed by CP-ALS; `coalesce` merges them");
    }
    Ok(())
}

fn cmd_generate(which: &str, flags: &Flags) -> Result<(), String> {
    let out_path = flags.get("out").ok_or("generate requires --out FILE")?;
    let seed: u64 = flags.parse_or("seed", 42)?;
    let tensor = if which == "random" {
        let dims_s = flags.get("dims").ok_or("random requires --dims IxJxK")?;
        let dims: Vec<usize> = dims_s
            .split('x')
            .map(|d| d.parse().map_err(|_| format!("bad dims '{dims_s}'")))
            .collect::<Result<_, _>>()?;
        let nnz: usize = flags.parse_or("nnz", 10_000)?;
        synth::random_uniform(&dims, nnz, seed)
    } else {
        let shape = synth::ALL_SHAPES
            .iter()
            .find(|s| s.name.eq_ignore_ascii_case(which))
            .ok_or_else(|| format!("unknown data set '{which}'"))?;
        let scale: f64 = flags.parse_or("scale", 0.01)?;
        shape.generate(scale, seed)
    };
    io::write_tns_file(&tensor, out_path).map_err(|e| format!("{out_path}: {e}"))?;
    println!("wrote {} nonzeros to {out_path}", tensor.nnz());
    print!("{}", TensorStats::compute(&tensor));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    let Some((npos, accepted, body)) = subcommand(cmd) else {
        return usage();
    };
    if rest.len() < npos {
        return usage();
    }
    let (pos, flag_args) = rest.split_at(npos);
    let flags = match Flags::parse(flag_args, accepted).and_then(|f| refuse_cluster_sizes(cmd, f)) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match body(pos, &flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
