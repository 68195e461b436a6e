//! Zero-allocation steady state.
//!
//! After one warm-up call per mode (which grows the per-task scratch
//! arenas), repeated MTTKRPs under the paper's Reference and
//! Chapel-optimize presets must perform **zero** hot-loop allocations:
//! no row copies, no slice descriptors, no replica or kernel-scratch
//! growth. The probe's process-global allocation counters are the
//! witness, which is why this file holds exactly one test — a second
//! test running concurrently in the same process would pollute the
//! deltas.

use splatt_bench::baseline::{bench_team, workload_tensor, BenchWorkload};
use splatt_core::dense::Matrix;
use splatt_core::mttkrp::{mttkrp, MttkrpConfig, MttkrpWorkspace};
use splatt_core::{CsfAlloc, CsfSet, Implementation};
use splatt_tensor::SortVariant;

#[test]
fn steady_state_mttkrp_performs_no_hot_loop_allocations() {
    let w = BenchWorkload {
        dims: vec![40, 30, 50],
        nnz: 8_000,
        alpha: 1.6,
        seed: 0x5EED,
        ntasks: 2,
        reps: 0,
        warmup: 0,
    };
    let tensor = workload_tensor(&w);
    let team = bench_team(w.ntasks);
    let set = CsfSet::build(&tensor, CsfAlloc::One, &team, SortVariant::AllOpts);
    let _recording = splatt_probe::alloc::Recording::start();
    // one full column chunk of the blocked kernels, and the paper's rank
    // (two chunks and a remainder)
    for (rank, imp) in [16, 35].into_iter().flat_map(|rank| {
        [Implementation::Reference, Implementation::PortedOptimized].map(|imp| (rank, imp))
    }) {
        let factors: Vec<Matrix> = tensor
            .dims()
            .iter()
            .enumerate()
            .map(|(m, &d)| Matrix::random(d, rank, 0xA110C + m as u64))
            .collect();
        let (access, _, _) = imp.knobs();
        for (sync, priv_threshold) in [("privatized", 1e12), ("locks", 0.0)] {
            let cfg = MttkrpConfig {
                access,
                priv_threshold,
                ..Default::default()
            };
            let mut ws = MttkrpWorkspace::new(&cfg, w.ntasks);
            let mut out = Matrix::zeros(tensor.dims()[0], rank);
            // Warm-up: one call per mode grows every per-task arena and
            // replica buffer to its final size.
            for mode in 0..tensor.order() {
                let mut m_out = Matrix::zeros(tensor.dims()[mode], rank);
                mttkrp(&set, &factors, mode, &mut m_out, &mut ws, &team, &cfg);
            }
            let before = splatt_probe::alloc::snapshot();
            for _ in 0..3 {
                for mode in 0..tensor.order() {
                    let mut m_out = Matrix::zeros(tensor.dims()[mode], rank);
                    mttkrp(&set, &factors, mode, &mut m_out, &mut ws, &team, &cfg);
                }
                mttkrp(&set, &factors, 0, &mut out, &mut ws, &team, &cfg);
            }
            let delta = splatt_probe::alloc::snapshot().since(&before);
            assert_eq!(
                delta.hot_loop_allocs(),
                0,
                "{} / {sync} / rank {rank}: hot-loop allocations in steady state: {delta:?}",
                imp.label()
            );
            assert_eq!(
                delta.total_bytes(),
                0,
                "{} / {sync} / rank {rank}: hot-loop bytes allocated in steady state: {delta:?}",
                imp.label()
            );
        }
    }
}
