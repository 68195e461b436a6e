//! Timing wrappers shared by every experiment.

use crate::datasets::{bench_iters, BENCH_RANK};
use splatt_core::locks::LockStrategy;
use splatt_core::MatrixAccess;
use splatt_core::{cp_als, CpalsOptions, Implementation};
use splatt_par::{Routine, TaskTeam, TeamConfig};
use splatt_tensor::{SortVariant, SparseTensor};

/// Per-routine seconds for one CP-ALS run — one row of the paper's
/// Table III / Figures 5–8.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoutineSeconds {
    pub mttkrp: f64,
    pub sort: f64,
    pub ata: f64,
    pub norm: f64,
    pub fit: f64,
    pub inverse: f64,
    pub total: f64,
}

impl RoutineSeconds {
    fn from_timers(t: &splatt_par::TimerRegistry) -> Self {
        RoutineSeconds {
            mttkrp: t.seconds(Routine::Mttkrp),
            sort: t.seconds(Routine::Sort),
            ata: t.seconds(Routine::AtA),
            norm: t.seconds(Routine::MatNorm),
            fit: t.seconds(Routine::Fit),
            inverse: t.seconds(Routine::Inverse),
            total: t.seconds(Routine::CpdTotal),
        }
    }
}

/// Build a task team the way the paper ultimately configures Qthreads:
/// `QT_SPINCOUNT=300` (Section V-E). Also the sane choice for
/// oversubscribed CI hosts.
pub fn team_for(ntasks: usize) -> TaskTeam {
    TaskTeam::with_config(ntasks, TeamConfig::short_spin())
}

/// Fully-specified CP-ALS run configuration for one measurement, on
/// SPLATT's two CSF trees ([`run_cpals`]).
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub access: MatrixAccess,
    pub locks: LockStrategy,
    pub sort_variant: SortVariant,
    pub ntasks: usize,
}

impl RunSpec {
    /// The knobs bundled by an [`Implementation`] preset.
    pub fn of(imp: Implementation, ntasks: usize) -> Self {
        let (access, locks, sort_variant) = imp.knobs();
        RunSpec {
            access,
            locks,
            sort_variant,
            ntasks,
        }
    }
}

/// Run the paper's protocol (rank 35, 20 iterations, tolerance 0) under
/// `spec` and return the per-routine seconds and final fit.
pub fn run_cpals(tensor: &SparseTensor, spec: RunSpec) -> (RoutineSeconds, f64) {
    let opts = CpalsOptions {
        rank: BENCH_RANK,
        max_iters: bench_iters(),
        tolerance: 0.0,
        ntasks: spec.ntasks,
        access: spec.access,
        locks: spec.locks,
        sort_variant: spec.sort_variant,
        // the paper's configurations: SPLATT's two trees, locks and all
        csf_alloc: splatt_core::CsfAlloc::Two,
        ..Default::default()
    };
    let out = cp_als(tensor, &opts);
    (RoutineSeconds::from_timers(&out.timers), out.fit)
}

/// Time just the pre-processing sort under a variant: the sorts SPLATT
/// performs for its (default, two-representation) CSF build.
pub fn sort_seconds(tensor: &SparseTensor, variant: SortVariant, ntasks: usize) -> f64 {
    let team = team_for(ntasks);
    let timers = splatt_par::TimerRegistry::new();
    let _set = splatt_core::CsfSet::build_timed(
        tensor,
        splatt_core::CsfAlloc::Two,
        &team,
        variant,
        &timers,
    );
    timers.seconds(Routine::Sort)
}

/// Format seconds with 4 significant-ish digits, like the paper's tables.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.1}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{s:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatt_tensor::synth;

    #[test]
    fn run_cpals_produces_positive_times() {
        let t = synth::random_uniform(&[30, 20, 40], 2_000, 3);
        // tiny protocol for the test: fast mode not assumed, so this runs
        // the full iteration count — keep the tensor tiny.
        let (secs, fit) = run_cpals(&t, RunSpec::of(Implementation::Reference, 2));
        assert!(secs.mttkrp > 0.0);
        assert!(secs.sort > 0.0);
        assert!(secs.total > 0.0);
        assert!(fit.is_finite());
    }

    #[test]
    fn sort_seconds_positive_and_variant_sensitive() {
        let t = synth::power_law(&[100, 60, 140], 30_000, 1.8, 4);
        let opt = sort_seconds(&t, SortVariant::AllOpts, 2);
        let initial = sort_seconds(&t, SortVariant::Initial, 2);
        assert!(opt > 0.0 && initial > 0.0);
        // not asserting an ordering at this size — just that both run
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(123.456), "123.5");
        assert_eq!(fmt_secs(12.345), "12.35");
        assert_eq!(fmt_secs(0.12345), "0.1235");
    }
}
