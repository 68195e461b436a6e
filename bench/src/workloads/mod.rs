//! The five workloads. Each runs in one process, checks its own outputs,
//! and fills the metric vocabulary of [`crate::schema`].
//!
//! Gated (end-to-end) numbers come from one compute task: on the 2-vCPU
//! sandbox identical one-task CP-ALS runs moved 1-5 %, two-task runs
//! 13-35 % (the scheduler, not the program), so two-task numbers are
//! per-layer diagnostics (`par.*`) and never gates.

pub mod cpd;
pub mod gen;
pub mod loadgen;
pub mod refresh;
pub mod serve;

use crate::schema::Metrics;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// Compute tasks of every gated phase.
pub const GATED_TASKS: usize = 1;

/// A workload's set-up is repeated at least this often, and until
/// `SETUP_BUDGET_S` is spent or `SETUP_MAX_REPEATS` are done; `setup_s` is
/// the quiet decile like every other gated value. (The serving set-up is
/// 3 ms: three of those say nothing.)
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 25;
const SETUP_BUDGET_S: f64 = 0.5;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// How long the timed phases measure for.
    pub seconds: f64,
    /// Also run the traced pass (per-layer metrics, spans).
    pub traced: bool,
    /// Small inputs; numbers are not comparable with full-size runs.
    pub quick: bool,
    /// Directory for stores and WALs; the workload creates and removes
    /// its own subdirectories.
    pub scratch: PathBuf,
    /// Self-test: flip one precomputed oracle value, so a correct answer
    /// must be reported as a failed operation.
    pub corrupt_oracle: bool,
}

/// One named output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What a workload hands back.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted (cp_als calls; commits + rounds; requests).
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// The fixed configuration and input fingerprint, for the result file.
    pub config: Vec<(String, String)>,
    /// Spans of the traced pass.
    pub trace: Option<Tracer>,
}

impl Outcome {
    pub fn new(traced: bool) -> Self {
        Outcome {
            metrics: Metrics::default(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            config: Vec::new(),
            trace: traced.then(|| Tracer::new(Instant::now())),
        }
    }

    /// Record a check; a failed one counts as one failed operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// Record whether the gated passes ran confined to one CPU.
    pub fn note_confinement(&mut self, confined: &Option<crate::env::OneCpu>) {
        let cpu = confined.as_ref().map(|c| c.cpu.to_string());
        self.note("confined_cpu", cpu.unwrap_or_else(|| "none".into()));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// Run `workload` under `ctx`.
///
/// # Panics
/// Panics on a name outside [`crate::schema::WORKLOADS`] (the caller
/// validates) and on harness-level I/O failures.
pub fn run(workload: &str, ctx: &Ctx) -> Outcome {
    match workload {
        "cpd_nell2" => cpd::run(ctx, cpd::Shape::Nell2),
        "cpd_yelp" => cpd::run(ctx, cpd::Shape::Yelp),
        "refresh_stream" => refresh::run(ctx),
        "serve_point" => serve::run(ctx, serve::Mix::Point),
        "serve_scan" => serve::run(ctx, serve::Mix::Scan),
        other => panic!("unknown workload {other}"),
    }
}

/// Quiet wall time of repeated runs of `setup`; returns the last run's
/// product with it.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let phase = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.len() < SETUP_MAX_REPEATS && phase.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (
        last.expect("SETUP_MIN_REPEATS is positive"),
        crate::stats::quiet_time(&times),
    )
}
