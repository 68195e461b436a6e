//! The deterministic fault plan.
//!
//! A [`FaultPlan`] decides, for every *site* the solver stack exposes,
//! whether a fault fires there. Decisions are **stateless**: each is a
//! pure hash of `(seed, kind, iteration, unit)` compared against the
//! kind's configured rate. That makes plans reproducible across runs
//! and — crucially — across checkpoint/restart boundaries: a resumed run
//! re-derives exactly the faults the uninterrupted run would have seen
//! from the resume iteration onward, with no RNG stream to rewind.
//!
//! Faults are *one-shot* per site (a fired site is remembered and never
//! refires), which models transient failures: a rolled-back iteration
//! re-executes cleanly, the way a real recompute would succeed after a
//! transient bit-flip event.

use crate::recovery::RecoveryAction;
use splatt_rt::rng::{splitmix64, RngExt, SeedableRng, StdRng};
use std::collections::HashSet;
use std::sync::Mutex;

/// The fault families the plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A slow task: an injected delay before a kernel.
    Straggler,
    /// A kernel output value is poisoned to NaN (models a bit flip in
    /// the significand/exponent of an accumulator).
    NanPoison,
    /// The Gram-matrix Hadamard product is perturbed to be indefinite,
    /// breaking the Cholesky fast path.
    NonSpdGram,
}

impl FaultKind {
    /// All kinds, in a stable order.
    #[cfg(test)]
    pub(crate) const ALL: [FaultKind; 3] = [
        FaultKind::Straggler,
        FaultKind::NanPoison,
        FaultKind::NonSpdGram,
    ];

    /// Stable label used in reports, specs, and JSON.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Straggler => "straggler",
            FaultKind::NanPoison => "nan-poison",
            FaultKind::NonSpdGram => "non-spd-gram",
        }
    }

    fn tag(self) -> u64 {
        match self {
            FaultKind::Straggler => 0x51,
            FaultKind::NanPoison => 0x54,
            FaultKind::NonSpdGram => 0x55,
        }
    }
}

/// Per-kind injection probabilities, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    pub straggler: f64,
    pub nan: f64,
    pub nonspd: f64,
}

impl FaultRates {
    fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::Straggler => self.straggler,
            FaultKind::NanPoison => self.nan,
            FaultKind::NonSpdGram => self.nonspd,
        }
    }
}

/// One injected fault and how (or whether) the stack recovered from it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    pub kind: FaultKind,
    /// ALS iteration the fault fired in.
    pub iteration: usize,
    /// Human-readable site, e.g. `"mode 1 / mttkrp"` or
    /// `"mode 0 / layer allreduce"`.
    pub site: String,
    pub action: RecoveryAction,
}

/// A seeded, deterministic fault-injection plan.
///
/// Thread-safe: decisions are pure functions of the seed, and the
/// one-shot set and event log sit behind mutexes.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
    /// Faults only fire in iterations `< horizon` (`usize::MAX` = always).
    horizon: usize,
    /// Multiplier on straggler delays (default 1: 100 µs – 1 ms). The
    /// governance tests scale delays up into watchdog territory without
    /// changing which sites fire.
    straggler_scale: u64,
    fired: Mutex<HashSet<(u64, u64, u64)>>,
    events: Mutex<Vec<FaultRecord>>,
}

/// The site's hash; `salt` is 0 for the fire decision and the straggler
/// delay, 1 for the target index.
fn site_hash(seed: u64, kind: FaultKind, iteration: u64, unit: u64, salt: u64) -> u64 {
    let mut h = splitmix64(seed ^ kind.tag().wrapping_mul(0xA24B_AED4_963E_E407));
    h = splitmix64(h ^ iteration.wrapping_mul(0x9FB2_1C65_1E98_DF25));
    h = splitmix64(h ^ unit.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    splitmix64(h ^ salt.wrapping_mul(0xCA5A_8268_85B3_F57B))
}

/// Uniform f64 in `[0, 1)` from one xoshiro256** draw seeded by the site
/// hash — the same generator family as the rest of the workspace.
fn unit_f64(h: u64) -> f64 {
    StdRng::seed_from_u64(h).random()
}

impl FaultPlan {
    /// A plan firing each kind independently at its configured rate.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        FaultPlan {
            seed,
            rates,
            horizon: usize::MAX,
            straggler_scale: 1,
            fired: Mutex::new(HashSet::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    /// A plan that injects nothing (useful as a control arm).
    #[cfg(test)]
    pub(crate) fn quiet(seed: u64) -> Self {
        Self::new(seed, FaultRates::default())
    }

    /// Restrict injection to iterations `< horizon`. Letting the tail of
    /// a run execute fault-free is how the recovery tests separate
    /// "transient degradation" from "converged result".
    pub fn with_horizon(mut self, horizon: usize) -> Self {
        self.horizon = horizon;
        self
    }

    /// Multiply straggler delays by `scale` (min 1). Which sites fire is
    /// unchanged — only how long each absorbed delay lasts.
    pub fn with_straggler_scale(mut self, scale: u64) -> Self {
        self.straggler_scale = scale.max(1);
        self
    }

    /// The seed this plan derives every decision from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Configured rates.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// Parse a CP-ALS plan from a `key=value` comma list, e.g.
    /// `seed=42,straggler=0.5,nan=0.2,nonspd=0.2,horizon=5`. The keys are
    /// exactly the kinds CP-ALS has a site for, plus `seed` and
    /// `horizon`; all are optional (`seed` defaults to 0, rates to 0,
    /// `horizon` to unlimited). `drop` and `corrupt` have no site and are
    /// rejected like any unknown key.
    ///
    /// # Errors
    /// A message starting `invalid fault plan:` on unknown keys (it
    /// lists the accepted ones), malformed numbers, or rates outside
    /// `[0, 1]`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let bad = |msg: String| format!("invalid fault plan: {msg}");
        let mut seed = 0u64;
        let mut rates = FaultRates::default();
        let mut horizon = usize::MAX;
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| bad(format!("expected key=value, got '{part}'")))?;
            let key = key.trim();
            let value = value.trim();
            let parse_rate = || -> Result<f64, String> {
                let r: f64 = value
                    .parse()
                    .map_err(|_| bad(format!("bad number '{value}' for {key}")))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(bad(format!("rate {key}={r} outside [0, 1]")));
                }
                Ok(r)
            };
            match key {
                "seed" => {
                    seed = value
                        .parse()
                        .map_err(|_| bad(format!("bad integer '{value}' for seed")))?;
                }
                "horizon" => {
                    horizon = value
                        .parse()
                        .map_err(|_| bad(format!("bad integer '{value}' for horizon")))?;
                }
                "straggler" => rates.straggler = parse_rate()?,
                "nan" => rates.nan = parse_rate()?,
                "nonspd" => rates.nonspd = parse_rate()?,
                other => {
                    return Err(bad(format!(
                        "unknown key '{other}' (seed, horizon, straggler, nan, nonspd)"
                    )))
                }
            }
        }
        Ok(FaultPlan::new(seed, rates).with_horizon(horizon))
    }

    /// Decide whether `kind` fires at `(iteration, unit)`. Deterministic
    /// in the plan's seed; one-shot per site — the first `true` for a
    /// site is also its last.
    pub(crate) fn roll(&self, kind: FaultKind, iteration: usize, unit: usize) -> bool {
        if iteration >= self.horizon {
            return false;
        }
        let rate = self.rates.rate(kind);
        if rate <= 0.0 {
            return false;
        }
        let h = site_hash(self.seed, kind, iteration as u64, unit as u64, 0);
        if unit_f64(h) >= rate {
            return false;
        }
        let key = (kind.tag(), iteration as u64, unit as u64);
        self.fired.lock().expect("fault plan poisoned").insert(key)
    }

    /// A deterministic per-site straggler delay in nanoseconds
    /// (100 µs – 1 ms at the default scale), derived from the same hash
    /// stream and multiplied by the straggler scale.
    pub(crate) fn straggler_delay_nanos(&self, iteration: usize, unit: usize) -> u64 {
        let h = site_hash(
            self.seed ^ 0xDE1A_F00D,
            FaultKind::Straggler,
            iteration as u64,
            unit as u64,
            0,
        );
        (100_000 + h % 900_000).saturating_mul(self.straggler_scale)
    }

    /// A deterministic index used to pick which payload element gets
    /// poisoned at a site.
    pub(crate) fn target_index(
        &self,
        kind: FaultKind,
        iteration: usize,
        unit: usize,
        len: usize,
    ) -> usize {
        if len == 0 {
            return 0;
        }
        (site_hash(
            self.seed ^ 0x1D10_7BAD,
            kind,
            iteration as u64,
            unit as u64,
            1,
        ) % len as u64) as usize
    }

    /// Append a fault/recovery record to the plan's event log.
    pub(crate) fn record(&self, record: FaultRecord) {
        self.events
            .lock()
            .expect("fault plan poisoned")
            .push(record);
    }

    /// Snapshot of every recorded event, in injection order.
    pub fn events(&self) -> Vec<FaultRecord> {
        self.events.lock().expect("fault plan poisoned").clone()
    }

    /// Number of recorded events.
    pub fn event_count(&self) -> usize {
        self.events.lock().expect("fault plan poisoned").len()
    }

    /// True if any recorded event went unrecovered.
    pub fn any_unrecovered(&self) -> bool {
        self.events
            .lock()
            .expect("fault plan poisoned")
            .iter()
            .any(|e| matches!(e.action, RecoveryAction::Unrecovered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy() -> FaultPlan {
        FaultPlan::new(
            7,
            FaultRates {
                straggler: 0.5,
                nan: 0.5,
                nonspd: 0.5,
            },
        )
    }

    #[test]
    fn decisions_are_deterministic_across_plans() {
        let a = noisy();
        let b = noisy();
        for it in 0..20 {
            for unit in 0..4 {
                for kind in FaultKind::ALL {
                    assert_eq!(a.roll(kind, it, unit), b.roll(kind, it, unit));
                }
            }
        }
    }

    #[test]
    fn fired_sites_do_not_refire() {
        let p = FaultPlan::new(
            1,
            FaultRates {
                nan: 1.0,
                ..Default::default()
            },
        );
        assert!(p.roll(FaultKind::NanPoison, 3, 1));
        assert!(!p.roll(FaultKind::NanPoison, 3, 1), "site refired");
        assert!(p.roll(FaultKind::NanPoison, 3, 2), "other site blocked");
    }

    #[test]
    fn horizon_suppresses_late_faults() {
        let p = FaultPlan::new(
            1,
            FaultRates {
                nan: 1.0,
                ..Default::default()
            },
        )
        .with_horizon(5);
        assert!(p.roll(FaultKind::NanPoison, 4, 0));
        assert!(!p.roll(FaultKind::NanPoison, 5, 0));
        assert!(!p.roll(FaultKind::NanPoison, 100, 0));
    }

    #[test]
    fn zero_rates_never_fire() {
        let p = FaultPlan::quiet(9);
        for it in 0..50 {
            for kind in FaultKind::ALL {
                assert!(!p.roll(kind, it, 0));
            }
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = FaultPlan::new(
            11,
            FaultRates {
                straggler: 0.25,
                ..Default::default()
            },
        );
        let fired = (0..4000)
            .filter(|&i| p.roll(FaultKind::Straggler, i, 0))
            .count();
        let frac = fired as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.05, "observed rate {frac}");
    }

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse("seed=42, straggler=0.5,nan=0.2,nonspd=0.3,horizon=5").unwrap();
        assert_eq!(p.seed(), 42);
        assert_eq!(p.rates().straggler, 0.5);
        assert_eq!(p.rates().nan, 0.2);
        assert_eq!(p.rates().nonspd, 0.3);
        assert!(!p.roll(FaultKind::NanPoison, 7, 0), "horizon ignored");
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("bogus=1").is_err());
        // no CP-ALS site: rejected, and the message lists what is accepted
        for spec in ["drop=0.2", "corrupt=0.5"] {
            let err = FaultPlan::parse(spec).unwrap_err().to_string();
            let key = spec.split('=').next().unwrap();
            assert!(err.contains(&format!("'{key}'")), "{err}");
            assert!(
                err.contains("seed, horizon, straggler, nan, nonspd"),
                "{err}"
            );
        }
        assert!(FaultPlan::parse("straggler=1.5").is_err());
        assert!(FaultPlan::parse("straggler=-0.1").is_err());
        assert!(FaultPlan::parse("seed=notanumber").is_err());
        assert!(FaultPlan::parse("straggler").is_err());
    }

    #[test]
    fn parse_empty_spec_is_quiet() {
        let p = FaultPlan::parse("").unwrap();
        assert_eq!(p.rates(), FaultRates::default());
    }

    #[test]
    fn event_log_round_trips() {
        let p = FaultPlan::quiet(0);
        p.record(FaultRecord {
            kind: FaultKind::Straggler,
            iteration: 2,
            site: "mode 0".into(),
            action: RecoveryAction::AbsorbedDelay { nanos: 123 },
        });
        let events = p.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, FaultKind::Straggler);
        assert!(!p.any_unrecovered());
        p.record(FaultRecord {
            kind: FaultKind::NanPoison,
            iteration: 3,
            site: "fit".into(),
            action: RecoveryAction::Unrecovered,
        });
        assert!(p.any_unrecovered());
        assert_eq!(p.event_count(), 2);
    }

    #[test]
    fn delays_and_targets_are_deterministic_and_bounded() {
        let a = noisy();
        let b = noisy();
        for it in 0..10 {
            let d = a.straggler_delay_nanos(it, 1);
            assert_eq!(d, b.straggler_delay_nanos(it, 1));
            assert!((100_000..1_000_000).contains(&d), "delay {d}");
            let t = a.target_index(FaultKind::NanPoison, it, 0, 37);
            assert_eq!(t, b.target_index(FaultKind::NanPoison, it, 0, 37));
            assert!(t < 37);
        }
        assert_eq!(a.target_index(FaultKind::NanPoison, 0, 0, 0), 0);
    }

    #[test]
    fn straggler_scale_multiplies_delays_without_changing_decisions() {
        let base = noisy();
        let scaled = noisy().with_straggler_scale(100);
        assert_eq!(scaled.straggler_scale, 100);
        for it in 0..10 {
            assert_eq!(
                scaled.straggler_delay_nanos(it, 1),
                100 * base.straggler_delay_nanos(it, 1)
            );
            for kind in FaultKind::ALL {
                assert_eq!(base.roll(kind, it, 1), scaled.roll(kind, it, 1));
            }
        }
        // scale 0 clamps to 1 rather than zeroing every delay
        assert_eq!(noisy().with_straggler_scale(0).straggler_scale, 1);
    }
}
