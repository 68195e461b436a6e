//! Criterion micro-benchmarks for the MTTKRP kernels: access strategies,
//! kernel kinds (root/internal/leaf), and synchronization modes.

use splatt_bench::microbench::{BenchmarkId, Criterion};
use splatt_bench::{criterion_group, criterion_main};
use splatt_core::dense::Matrix;
use splatt_core::locks::LockStrategy;
use splatt_core::mttkrp::{mttkrp, MttkrpConfig, MttkrpWorkspace};
use splatt_core::{CsfAlloc, CsfSet, MatrixAccess};
use splatt_par::{TaskTeam, TeamConfig};
use splatt_tensor::{synth, SortVariant};

const RANK: usize = 35;

fn bench_access_strategies(c: &mut Criterion) {
    let tensor = synth::YELP.generate(1.0 / 400.0, 1);
    let team = TaskTeam::with_config(2, TeamConfig::short_spin());
    let set = CsfSet::build(&tensor, CsfAlloc::Two, &team, SortVariant::AllOpts);
    let factors: Vec<Matrix> = tensor
        .dims()
        .iter()
        .enumerate()
        .map(|(m, &d)| Matrix::random(d, RANK, m as u64))
        .collect();

    let mut group = c.benchmark_group("mttkrp_access");
    group.sample_size(10);
    for access in [
        MatrixAccess::RowCopy,
        MatrixAccess::Index2D,
        MatrixAccess::PointerChecked,
        MatrixAccess::PointerZip,
    ] {
        let cfg = MttkrpConfig {
            access,
            ..Default::default()
        };
        let mut ws = MttkrpWorkspace::new(&cfg, 2);
        let mut out = Matrix::zeros(tensor.dims()[0], RANK);
        group.bench_function(BenchmarkId::from_parameter(access.label()), |b| {
            b.iter(|| {
                mttkrp(&set, &factors, 0, &mut out, &mut ws, &team, &cfg);
            })
        });
    }
    group.finish();
}

fn bench_kernel_kinds(c: &mut Criterion) {
    // One-representation CSF: mode at root / internal / leaf exercises the
    // three kernels on the same tensor.
    let tensor = synth::NELL2.generate(1.0 / 1000.0, 2);
    let team = TaskTeam::with_config(2, TeamConfig::short_spin());
    let set = CsfSet::build(&tensor, CsfAlloc::One, &team, SortVariant::AllOpts);
    let factors: Vec<Matrix> = tensor
        .dims()
        .iter()
        .enumerate()
        .map(|(m, &d)| Matrix::random(d, RANK, m as u64))
        .collect();
    let root_mode = set.csfs()[0].dim_perm()[0];
    let internal_mode = set.csfs()[0].dim_perm()[1];
    let leaf_mode = set.csfs()[0].dim_perm()[2];

    let mut group = c.benchmark_group("mttkrp_kernel");
    group.sample_size(10);
    for (label, mode) in [
        ("root", root_mode),
        ("internal", internal_mode),
        ("leaf", leaf_mode),
    ] {
        let cfg = MttkrpConfig::default();
        let mut ws = MttkrpWorkspace::new(&cfg, 2);
        let mut out = Matrix::zeros(tensor.dims()[mode], RANK);
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                mttkrp(&set, &factors, mode, &mut out, &mut ws, &team, &cfg);
            })
        });
    }
    group.finish();
}

fn bench_sync_modes(c: &mut Criterion) {
    let tensor = synth::YELP.generate(1.0 / 400.0, 3);
    let team = TaskTeam::with_config(4, TeamConfig::short_spin());
    let set = CsfSet::build(&tensor, CsfAlloc::One, &team, SortVariant::AllOpts);
    let factors: Vec<Matrix> = tensor
        .dims()
        .iter()
        .enumerate()
        .map(|(m, &d)| Matrix::random(d, RANK, m as u64))
        .collect();
    let internal_mode = set.csfs()[0].dim_perm()[1];

    let mut group = c.benchmark_group("mttkrp_sync");
    group.sample_size(10);
    // privatized
    {
        let cfg = MttkrpConfig {
            priv_threshold: 1e12,
            ..Default::default()
        };
        let mut ws = MttkrpWorkspace::new(&cfg, 4);
        let mut out = Matrix::zeros(tensor.dims()[internal_mode], RANK);
        group.bench_function("privatized", |b| {
            b.iter(|| {
                mttkrp(
                    &set,
                    &factors,
                    internal_mode,
                    &mut out,
                    &mut ws,
                    &team,
                    &cfg,
                )
            })
        });
    }
    // each lock strategy, forced
    for locks in LockStrategy::ALL {
        let cfg = MttkrpConfig {
            locks,
            priv_threshold: 0.0,
            ..Default::default()
        };
        let mut ws = MttkrpWorkspace::new(&cfg, 4);
        let mut out = Matrix::zeros(tensor.dims()[internal_mode], RANK);
        group.bench_function(BenchmarkId::new("locks", locks.label()), |b| {
            b.iter(|| {
                mttkrp(
                    &set,
                    &factors,
                    internal_mode,
                    &mut out,
                    &mut ws,
                    &team,
                    &cfg,
                )
            })
        });
    }
    group.finish();
}

fn bench_probe_overhead(c: &mut Criterion) {
    // Acceptance gate for the observability layer: with no probe attached
    // the instrumented MTTKRP must stay within noise of its pre-probe
    // cost, and the "probed" row shows what enabling everything costs.
    use splatt_probe::MttkrpProbe;
    use std::sync::Arc;

    let tensor = synth::YELP.generate(1.0 / 400.0, 4);
    let team = TaskTeam::with_config(2, TeamConfig::short_spin());
    let set = CsfSet::build(&tensor, CsfAlloc::One, &team, SortVariant::AllOpts);
    let factors: Vec<Matrix> = tensor
        .dims()
        .iter()
        .enumerate()
        .map(|(m, &d)| Matrix::random(d, RANK, m as u64))
        .collect();
    let internal_mode = set.csfs()[0].dim_perm()[1];
    let cfg = MttkrpConfig {
        priv_threshold: 0.0,
        ..Default::default()
    };

    let mut group = c.benchmark_group("mttkrp_probe");
    group.sample_size(10);
    {
        let mut ws = MttkrpWorkspace::new(&cfg, 2);
        let mut out = Matrix::zeros(tensor.dims()[internal_mode], RANK);
        group.bench_function("disabled", |b| {
            b.iter(|| {
                mttkrp(
                    &set,
                    &factors,
                    internal_mode,
                    &mut out,
                    &mut ws,
                    &team,
                    &cfg,
                )
            })
        });
    }
    {
        let mut ws = MttkrpWorkspace::new(&cfg, 2);
        ws.set_probe(Some(Arc::new(MttkrpProbe::new(2))));
        let mut out = Matrix::zeros(tensor.dims()[internal_mode], RANK);
        group.bench_function("probed", |b| {
            b.iter(|| {
                mttkrp(
                    &set,
                    &factors,
                    internal_mode,
                    &mut out,
                    &mut ws,
                    &team,
                    &cfg,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_access_strategies,
    bench_kernel_kinds,
    bench_sync_modes,
    bench_probe_overhead
);
criterion_main!(benches);
