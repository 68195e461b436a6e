//! End-to-end tests of the `splatt` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn splatt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_splatt"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("splatt_cli_test_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_stats_check_roundtrip() {
    let dir = workdir("gen");
    let tns = dir.join("t.tns");
    let out = splatt()
        .args(["generate", "yelp", "--scale", "0.001", "--seed", "5"])
        .args(["--out", tns.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote"), "{stdout}");

    let out = splatt()
        .args(["stats", tns.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("density"));

    let out = splatt()
        .args(["check", tns.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("nonzeros"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cpd_writes_factors_and_model_then_predict() {
    let dir = workdir("cpd");
    let tns = dir.join("t.tns");
    let model = dir.join("t.kruskal");
    let prefix = dir.join("fac");

    assert!(splatt()
        .args(["generate", "random", "--dims", "12x10x8", "--nnz", "400", "--seed", "3"])
        .args(["--out", tns.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    let out = splatt()
        .args([
            "cpd",
            tns.to_str().unwrap(),
            "--rank",
            "3",
            "--iters",
            "5",
            "--tasks",
            "2",
        ])
        .args([
            "--out",
            prefix.to_str().unwrap(),
            "--model",
            model.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fit"), "{stdout}");
    for m in 0..3 {
        assert!(dir.join(format!("fac.mode{m}.txt")).exists());
    }
    assert!(model.exists());

    // the same run under a deadline it cannot reach goes through the
    // same driver call and prints the same fit line
    let fit_line = |stdout: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with("converged: fit"))
            .unwrap_or_else(|| panic!("no fit line: {stdout}"))
            .to_string()
    };
    let governed = splatt()
        .args(["cpd", tns.to_str().unwrap(), "--rank", "3", "--iters", "5"])
        .args(["--tasks", "2", "--deadline", "300"])
        .output()
        .unwrap();
    assert!(
        governed.status.success(),
        "{}",
        String::from_utf8_lossy(&governed.stderr)
    );
    let governed_stdout = String::from_utf8_lossy(&governed.stdout);
    assert!(governed_stdout.contains("governance: deadline 300s"));
    assert_eq!(fit_line(&stdout), fit_line(&governed_stdout));

    // predict on the training coordinates: prints one value per line
    let out = splatt()
        .args(["predict", model.to_str().unwrap(), tns.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines = String::from_utf8_lossy(&out.stdout).lines().count();
    assert_eq!(lines, 400);
    assert!(String::from_utf8_lossy(&out.stderr).contains("RMSE"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn complete_runs_each_solver() {
    let dir = workdir("complete");
    let tns = dir.join("t.tns");
    assert!(splatt()
        .args(["generate", "random", "--dims", "10x8x6", "--nnz", "300", "--seed", "4"])
        .args(["--out", tns.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    for solver in ["als", "ccd"] {
        let out = splatt()
            .args(["complete", tns.to_str().unwrap()])
            .args(["--solver", solver, "--rank", "2", "--iters", "3"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{solver}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("train RMSE"),
            "{solver}"
        );
    }
    // SGD is gone: naming it is an error that lists the solvers left
    let out = splatt()
        .args(["complete", tns.to_str().unwrap()])
        .args(["--solver", "sgd", "--rank", "2", "--iters", "3"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("als|ccd"), "{stderr}");
    // ... and so are its step-size flags
    for flag in ["--step", "--decay"] {
        let out = splatt()
            .args(["complete", tns.to_str().unwrap(), flag, "0.1"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "stderr must name {flag}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn nonneg_flag_is_accepted() {
    let dir = workdir("nonneg");
    let tns = dir.join("t.tns");
    assert!(splatt()
        .args(["generate", "random", "--dims", "8x8x8", "--nnz", "200", "--seed", "6"])
        .args(["--out", tns.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = splatt()
        .args([
            "cpd",
            tns.to_str().unwrap(),
            "--rank",
            "2",
            "--iters",
            "3",
            "--nonneg",
            "1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_are_rejected_by_name_with_exit_code_2() {
    let dir = workdir("unknown_flags");
    let tns = dir.join("t.tns");
    assert!(splatt()
        .args(["generate", "random", "--dims", "8x8x8", "--nnz", "200", "--seed", "21"])
        .args(["--out", tns.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    // removed flags (whatever their value) and a typo: none may
    // silently run with defaults
    let cpd = ["cpd", tns.to_str().unwrap(), "--rank", "2", "--iters", "2"];
    let serve = ["serve", "--model", "m=unread.model"];
    let refresh = ["refresh", dir.to_str().unwrap(), "--rank", "2"];
    for (subcommand, flag, value) in [
        (&cpd[..], "--format", "csf"),
        (&cpd[..], "--tassks", "8"),
        (&cpd[..], "--on-overrun", "degrade"),
        (&refresh[..], "--on-overrun", "abort"),
        (&serve[..], "--legacy-threads", "1"),
        (&serve[..], "--tasks", "2"),
        (&serve[..], "--batch", "8"),
        (&serve[..], "--shards", "3"),
        (&serve[..], "--replicas", "2"),
        (&serve[..], "--seed", "1"),
    ] {
        let out = splatt()
            .args(subcommand)
            .args([flag, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "stderr must name {flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} must fail before running");
    }
    // a flag another subcommand owns is still unknown here
    let out = splatt()
        .args(["stats", tns.to_str().unwrap(), "--rank", "3"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cpd_profile_writes_schema_stable_json() {
    use splatt::par::Routine;
    use splatt::probe::{json, PROFILE_SCHEMA};

    let dir = workdir("profile");
    let tns = dir.join("t.tns");
    let prof = dir.join("profile.json");
    assert!(splatt()
        .args(["generate", "random", "--dims", "14x12x10", "--nnz", "500", "--seed", "9"])
        .args(["--out", tns.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    let iters = 4;
    let ntasks = 2;
    let out = splatt()
        .args(["cpd", tns.to_str().unwrap(), "--rank", "3"])
        .args([
            "--iters",
            &iters.to_string(),
            "--tasks",
            &ntasks.to_string(),
        ])
        .args(["--profile", prof.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("span tree"), "render missing: {stdout}");
    assert!(
        stdout.contains("load imbalance"),
        "render missing: {stdout}"
    );

    let text = std::fs::read_to_string(&prof).unwrap();
    let doc = json::parse(&text).expect("profile JSON parses");
    assert_eq!(doc.get("schema").unwrap().as_str(), Some(PROFILE_SCHEMA));
    assert_eq!(doc.get("ntasks").unwrap().as_u64(), Some(ntasks));
    assert_eq!(doc.get("iterations").unwrap().as_u64(), Some(iters));

    // every Table III routine row is present
    let routines = doc.get("routines").unwrap().as_array().unwrap();
    let names: Vec<&str> = routines
        .iter()
        .map(|r| r.get("routine").unwrap().as_str().unwrap())
        .collect();
    for r in Routine::ALL {
        assert!(
            names.contains(&r.label()),
            "missing routine row {}",
            r.label()
        );
    }
    let cpd_total = routines
        .iter()
        .find(|r| r.get("routine").unwrap().as_str() == Some("CPD total"))
        .and_then(|r| r.get("seconds").unwrap().as_f64())
        .unwrap();
    assert!(cpd_total > 0.0);

    // per-thread MTTKRP busy time: one entry per task, and the summed
    // busy time fits inside the CPD total times the task count (each
    // task can at most be busy for the whole loop)
    let threads = doc.get("threads").unwrap().as_array().unwrap();
    assert_eq!(threads.len(), ntasks as usize);
    let busy: f64 = threads
        .iter()
        .map(|t| t.get("seconds").unwrap().as_f64().unwrap())
        .sum();
    assert!(busy > 0.0, "no per-thread busy time recorded");
    assert!(
        busy <= cpd_total * ntasks as f64 * 1.5 + 0.05,
        "threads busy {busy}s vs CPD total {cpd_total}s x {ntasks}"
    );

    // span tree: root covers the whole loop, one child per iteration,
    // and nesting holds within clock slack
    let spans = doc.get("spans").unwrap();
    assert_eq!(spans.get("label").unwrap().as_str(), Some("CPD total"));
    let root_secs = spans.get("seconds").unwrap().as_f64().unwrap();
    assert!((root_secs - cpd_total).abs() <= cpd_total * 0.5 + 0.05);
    let iterations = spans.get("children").unwrap().as_array().unwrap();
    assert_eq!(iterations.len(), iters as usize);
    let child_sum: f64 = iterations
        .iter()
        .map(|c| c.get("seconds").unwrap().as_f64().unwrap())
        .sum();
    assert!(child_sum <= root_secs * 1.1 + 0.05);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cpd_fault_plan_checkpoint_and_resume() {
    let dir = workdir("faults");
    let tns = dir.join("t.tns");
    let ckpt = dir.join("ckpts");
    assert!(splatt()
        .args(["generate", "random", "--dims", "14x12x10", "--nnz", "600", "--seed", "11"])
        .args(["--out", tns.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    // faulted, checkpointed run: the fault table must list the events
    let out = splatt()
        .args(["cpd", tns.to_str().unwrap(), "--rank", "3", "--iters", "6"])
        .args(["--tol", "0", "--tasks", "2"])
        .args(["--fault-plan", "seed=42,straggler=0.5,nonspd=0.4,horizon=3"])
        .args(["--checkpoint", ckpt.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fault injection: seed 42"), "{stdout}");
    assert!(stdout.contains("injected faults:"), "{stdout}");
    assert!(
        stdout.contains("straggler") || stdout.contains("non-spd"),
        "no fault rows: {stdout}"
    );
    for k in 1..=6 {
        assert!(
            ckpt.join(format!("ckpt-{k:05}.splatt")).exists(),
            "ckpt {k}"
        );
    }

    // resume from the checkpoint directory (picks the latest)
    let out = splatt()
        .args(["cpd", tns.to_str().unwrap(), "--rank", "3", "--iters", "8"])
        .args(["--tol", "0", "--tasks", "2"])
        .args(["--resume", ckpt.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("resuming from"), "{stdout}");
    assert!(stdout.contains("after 8 iterations"), "{stdout}");

    // a malformed plan and a dangling resume path are typed CLI errors;
    // so are kinds CP-ALS has no site for, named in the message
    for (spec, key) in [
        ("bogus=1", "bogus"),
        ("drop=0.2", "drop"),
        ("corrupt=0.5", "corrupt"),
    ] {
        let out = splatt()
            .args(["cpd", tns.to_str().unwrap(), "--fault-plan", spec])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{spec} must be refused");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--fault-plan"), "{spec}: {stderr}");
        assert!(stderr.contains(&format!("'{key}'")), "{spec}: {stderr}");
    }
    let out = splatt()
        .args(["cpd", tns.to_str().unwrap(), "--resume", "/no/such/ckpt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--resume"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cpd_dedup_flag_controls_duplicate_handling() {
    let dir = workdir("dedup");
    let tns = dir.join("dup.tns");
    std::fs::write(&tns, "1 1 1 2.5\n1 1 1 0.5\n2 2 2 1.0\n").unwrap();

    let out = splatt()
        .args(["cpd", tns.to_str().unwrap(), "--rank", "1", "--iters", "2"])
        .args(["--dedup", "sum"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("nnz 2"),
        "sum did not coalesce"
    );

    let out = splatt()
        .args(["cpd", tns.to_str().unwrap(), "--rank", "1", "--iters", "2"])
        .args(["--dedup", "error"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("duplicate coordinate"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Two finite values of one coordinate can sum to infinity: `--dedup sum`
/// must refuse the file, naming the line, before any decomposition.
#[test]
fn cpd_dedup_sum_refuses_an_overflowing_duplicate() {
    let dir = workdir("dedup_overflow");
    let tns = dir.join("overflow.tns");
    std::fs::write(&tns, "1 1 1 1.5e308\n1 1 1 1.5e308\n2 2 2 1.0\n").unwrap();
    let out = splatt()
        .args(["cpd", tns.to_str().unwrap(), "--rank", "1", "--iters", "2"])
        .args(["--dedup", "sum"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("line 2: non-finite value inf"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Generate a small tensor, decompose it, and export the model in the
/// canonical bit-exact format; returns (dir, model path).
fn exported_model(name: &str) -> (PathBuf, PathBuf) {
    let dir = workdir(name);
    let tns = dir.join("t.tns");
    let kruskal = dir.join("m.kruskal");
    let model = dir.join("m.model");
    assert!(splatt()
        .args(["generate", "random", "--dims", "9x8x7", "--nnz", "250", "--seed", "17"])
        .args(["--out", tns.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(splatt()
        .args(["cpd", tns.to_str().unwrap(), "--rank", "3", "--iters", "5"])
        .args(["--model", kruskal.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = splatt()
        .args(["export-model", kruskal.to_str().unwrap()])
        .args(["--out", model.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("rank 3"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    (dir, model)
}

#[test]
fn export_model_roundtrip_is_bit_exact() {
    let (dir, model_path) = exported_model("export");
    // Re-exporting the canonical format is byte-identical (fixed point).
    let again = dir.join("again.model");
    assert!(splatt()
        .args(["export-model", model_path.to_str().unwrap()])
        .args(["--out", again.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert_eq!(
        std::fs::read(&model_path).unwrap(),
        std::fs::read(&again).unwrap(),
        "canonical model format must be a fixed point of export"
    );
    // And the loaded factors match the text model bit for bit.
    let canonical = splatt::core::load_model_path(&model_path).unwrap();
    let text =
        splatt::KruskalModel::read(std::fs::File::open(dir.join("m.kruskal")).unwrap()).unwrap();
    assert_eq!(canonical.lambda.len(), text.lambda.len());
    for (a, b) in canonical.lambda.iter().zip(&text.lambda) {
        assert_eq!(a.to_bits(), b.to_bits(), "lambda bits differ");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawn `splatt serve` and block until it prints its bound address.
fn spawn_server(model: &std::path::Path) -> (std::process::Child, String) {
    use std::io::BufRead;
    let mut child = splatt()
        .args(["serve", "--model"])
        .arg(format!("demo={}", model.display()))
        .args(["--addr", "127.0.0.1:0", "--net-workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines.next().expect("server exited before binding").unwrap();
        if let Some(rest) = line.split(" on ").nth(1) {
            if line.starts_with("serving") {
                break rest.trim().to_string();
            }
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
    (child, addr)
}

#[test]
fn serve_and_query_cli_round_trip_matches_oracle() {
    let (dir, model_path) = exported_model("servecli");
    let model = splatt::core::load_model_path(&model_path).unwrap();
    let (mut child, addr) = spawn_server(&model_path);

    // Entry queries print one bit-exact value per line ({:.17e}
    // round-trips f64 exactly).
    let out = splatt()
        .args(["query", &addr, "entry", "--model", "demo"])
        .args(["--coords", "0,0,0;8,7,6;3,2,1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got: Vec<f64> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| l.trim().parse().unwrap())
        .collect();
    let want = [
        model.value_at(&[0, 0, 0]),
        model.value_at(&[8, 7, 6]),
        model.value_at(&[3, 2, 1]),
    ];
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.to_bits(), w.to_bits(), "served {g} vs oracle {w}");
    }

    // list names the model; a bad model name is a nonzero exit.
    let out = splatt().args(["query", &addr, "list"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("demo v1"));
    let out = splatt()
        .args(["query", &addr, "slice", "--model", "nope"])
        .args(["--mode", "0", "--index", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("ModelNotFound"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Wire shutdown stops the whole server process.
    assert!(splatt()
        .args(["query", &addr, "shutdown"])
        .status()
        .unwrap()
        .success());
    let status = child.wait().unwrap();
    assert!(status.success(), "server must exit cleanly after shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn serve_exits_promptly_on_sigterm() {
    let (dir, model_path) = exported_model("sigterm");
    let (mut child, addr) = spawn_server(&model_path);
    // Prove the server answers before the signal lands.
    assert!(splatt()
        .args(["query", &addr, "list"])
        .status()
        .unwrap()
        .success());
    assert!(std::process::Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap()
        .success());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server ignored SIGTERM"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    // SIGTERM is a graceful drain, not a crash: the process exits 0
    // after finishing in-flight work, instead of dying on the default
    // signal disposition.
    assert!(status.success(), "SIGTERM must drain and exit cleanly");
    std::fs::remove_dir_all(&dir).ok();
}

/// `splatt query` checks what it was asked before it dials: against an
/// address nothing listens on, an unknown op (`health` among them) is a
/// usage error naming the op, and a malformed query names its flag —
/// neither is reported as a refused connection. `cluster` is no
/// subcommand.
#[test]
fn a_malformed_query_fails_before_dialing() {
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    for (args, code, named) in [
        (&["query", &addr, "health"][..], 2, "health"),
        (&["query", &addr, "frobnicate"], 2, "frobnicate"),
        (
            &["query", &addr, "entry", "--coords", "0,0,0"],
            1,
            "--model",
        ),
        (
            &["query", &addr, "entry", "--model", "m", "--coords", "0,x"],
            1,
            "--coords",
        ),
        (&["cluster", &addr], 2, "cluster"),
    ] {
        let out = splatt().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        assert!(
            stderr.contains(named),
            "{args:?} must name {named}: {stderr}"
        );
        assert!(!stderr.contains("refused"), "{args:?} dialed: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn bad_usage_exits_nonzero() {
    assert!(!splatt().output().unwrap().status.success());
    assert!(!splatt().args(["cpd"]).output().unwrap().status.success());
    assert!(!splatt()
        .args(["cpd", "/definitely/not/a/file.tns"])
        .output()
        .unwrap()
        .status
        .success());
    assert!(!splatt()
        .args(["frobnicate", "x"])
        .output()
        .unwrap()
        .status
        .success());
}
