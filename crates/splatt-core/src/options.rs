//! CP-ALS configuration and the paper's three implementation presets.

use crate::csf::CsfAlloc;
use crate::locks::LockStrategy;
use crate::mttkrp::{MatrixAccess, DEFAULT_PRIV_THRESHOLD};
use crate::pool::DEFAULT_POOL_SIZE;
use splatt_tensor::SortVariant;
use std::path::PathBuf;

/// The three code states the paper measures against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implementation {
    /// The C/OpenMP reference: pointer-arithmetic row access with
    /// check-free inner loops, atomic spin locks, fully optimized sort.
    Reference,
    /// The initial Chapel port: row accesses through array slicing
    /// (owned copies), `sync`-variable sleeping locks, allocation- and
    /// copy-heavy sort. 10-20x slower on the hot kernels (Table III).
    PortedInitial,
    /// The tuned Chapel port: pointer-style row access (bounds checks
    /// retained — the residual "high-level language" cost), atomic spin
    /// locks, optimized sort. 83-96% of the reference (Figures 5-10).
    PortedOptimized,
}

impl Implementation {
    /// Label used in the paper's tables and figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Implementation::Reference => "C",
            Implementation::PortedInitial => "Chapel-initial",
            Implementation::PortedOptimized => "Chapel-optimize",
        }
    }

    /// The knob settings this preset bundles.
    pub fn knobs(self) -> (MatrixAccess, LockStrategy, SortVariant) {
        match self {
            Implementation::Reference => (
                MatrixAccess::PointerZip,
                LockStrategy::Spin,
                SortVariant::AllOpts,
            ),
            Implementation::PortedInitial => (
                MatrixAccess::RowCopy,
                LockStrategy::Sleep,
                SortVariant::Initial,
            ),
            Implementation::PortedOptimized => (
                MatrixAccess::PointerChecked,
                LockStrategy::Spin,
                SortVariant::AllOpts,
            ),
        }
    }
}

/// Factor constraint applied during ALS (SPLATT's "constrained CP").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Constraint {
    /// Unconstrained least squares.
    #[default]
    None,
    /// Nonnegative CP: each factor update is projected onto the
    /// nonnegative orthant (projected ALS). Appropriate for count- and
    /// rating-valued tensors where negative loadings are meaningless.
    NonNegative,
}

/// Full configuration for [`crate::cp_als`].
///
/// Not `Copy` (the checkpoint paths own heap data); clone or use
/// struct-update syntax on a cloned base.
#[derive(Debug, Clone, PartialEq)]
pub struct CpalsOptions {
    /// Decomposition rank `R` (the paper uses 35).
    pub rank: usize,
    /// Maximum ALS iterations (the paper runs exactly 20 by setting the
    /// tolerance to 0).
    pub max_iters: usize,
    /// Stop when the fit improves by less than this between iterations;
    /// `0.0` always runs `max_iters` iterations (paper methodology).
    pub tolerance: f64,
    /// Tasks in the team (the paper's threads/tasks axis, 1..32).
    pub ntasks: usize,
    /// Seed for factor initialization.
    pub seed: u64,
    /// Factor-row access strategy in the MTTKRP.
    pub access: MatrixAccess,
    /// Mutex-pool lock strategy.
    pub locks: LockStrategy,
    /// Locks in the pool.
    pub pool_size: usize,
    /// Sort optimization state.
    pub sort_variant: SortVariant,
    /// CSF representation allocation policy.
    pub csf_alloc: CsfAlloc,
    /// Privatization threshold (SPLATT default 0.02).
    pub priv_threshold: f64,
    /// Run the tuned MTTKRP inner loops (the register-blocked gather and
    /// scatter and the fiber-ahead prefetch — the same code at every
    /// rank) instead of the plain per-nonzero loops. Bit-identical
    /// either way; on by default.
    pub specialize: bool,
    /// Spin-before-park count for the task team's idle workers.
    /// Defaults to 300 — the `QT_SPINCOUNT=300` setting the paper lands
    /// on (Section V-E); pass 300 000 for Qthreads' out-of-the-box
    /// behaviour or 0 for the fifo layer.
    pub spin_count: u32,
    /// Factor constraint (SPLATT's constrained-CP support).
    pub constraint: Constraint,
    /// Use mode tiling for modes whose MTTKRP would otherwise need
    /// locks or privatization (SPLATT's tiling option; the paper's
    /// future-work item). Tiles are bound to the task count.
    pub tiling: bool,
    /// Collect a [`splatt_probe::ProfileReport`] during the run:
    /// per-routine times (Table III rows), per-thread MTTKRP busy time,
    /// lock-pool contention, allocation counters, and the span tree.
    /// Off by default; the disabled path costs one branch per probe site.
    pub profile: bool,
    /// Write a [`crate::Checkpoint`] to this directory after every
    /// completed iteration (`ckpt-NNNNN.splatt`). `None` disables
    /// checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from this checkpoint file instead of random factor
    /// initialization. The resumed run continues **bit for bit** where
    /// the checkpointed run left off.
    pub resume_from: Option<PathBuf>,
    /// Seed the factors from a previous [`crate::KruskalModel`] instead
    /// of random initialization — the online-refresh warm start. The
    /// model's lambda weights are folded into mode 0, so iteration 1
    /// starts exactly at the previous solution; modes whose dimension
    /// grew since the model was fit pad the new rows with the usual
    /// seeded random values. Ignored when `resume_from` is set (a
    /// checkpoint is a strictly stronger restart).
    pub warm_start: Option<crate::KruskalModel>,
}

impl Default for CpalsOptions {
    fn default() -> Self {
        CpalsOptions {
            rank: 10,
            max_iters: 50,
            tolerance: 1e-5,
            ntasks: 1,
            seed: 0xC0FFEE,
            access: MatrixAccess::default(),
            locks: LockStrategy::default(),
            pool_size: DEFAULT_POOL_SIZE,
            sort_variant: SortVariant::default(),
            csf_alloc: CsfAlloc::default(),
            priv_threshold: DEFAULT_PRIV_THRESHOLD,
            specialize: true,
            spin_count: 300,
            constraint: Constraint::None,
            tiling: false,
            profile: false,
            checkpoint_dir: None,
            resume_from: None,
            warm_start: None,
        }
    }
}

impl CpalsOptions {
    /// The paper's experimental protocol: rank 35, exactly 20 iterations.
    pub fn paper_protocol(ntasks: usize) -> Self {
        CpalsOptions {
            rank: 35,
            max_iters: 20,
            tolerance: 0.0,
            ntasks,
            ..Default::default()
        }
    }

    /// Apply an [`Implementation`] preset's knobs, on SPLATT's own
    /// [`CsfAlloc::Two`]: the paper's configurations put the middle mode
    /// on the lock path where SPLATT's privatization test fails, and
    /// Figure 4 prices those locks.
    pub fn with_implementation(mut self, imp: Implementation) -> Self {
        let (access, locks, sort) = imp.knobs();
        self.access = access;
        self.locks = locks;
        self.sort_variant = sort;
        self.csf_alloc = CsfAlloc::Two;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_bundle_expected_knobs() {
        let (a, l, s) = Implementation::Reference.knobs();
        assert_eq!(a, MatrixAccess::PointerZip);
        assert_eq!(l, LockStrategy::Spin);
        assert_eq!(s, SortVariant::AllOpts);

        let (a, l, s) = Implementation::PortedInitial.knobs();
        assert_eq!(a, MatrixAccess::RowCopy);
        assert_eq!(l, LockStrategy::Sleep);
        assert_eq!(s, SortVariant::Initial);

        let (a, _, _) = Implementation::PortedOptimized.knobs();
        assert_eq!(a, MatrixAccess::PointerChecked);
    }

    #[test]
    fn paper_protocol_matches_methodology() {
        let o = CpalsOptions::paper_protocol(32);
        assert_eq!(o.rank, 35);
        assert_eq!(o.max_iters, 20);
        assert_eq!(o.tolerance, 0.0);
        assert_eq!(o.ntasks, 32);
    }

    #[test]
    fn with_implementation_overrides_knobs() {
        let o = CpalsOptions::default().with_implementation(Implementation::PortedInitial);
        assert_eq!(o.access, MatrixAccess::RowCopy);
        assert_eq!(o.locks, LockStrategy::Sleep);
        assert_eq!(o.sort_variant, SortVariant::Initial);
        assert_eq!(o.csf_alloc, CsfAlloc::Two);
        // unrelated fields untouched
        assert_eq!(o.rank, CpalsOptions::default().rank);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Implementation::Reference.label(), "C");
        assert_eq!(Implementation::PortedInitial.label(), "Chapel-initial");
        assert_eq!(Implementation::PortedOptimized.label(), "Chapel-optimize");
    }
}
