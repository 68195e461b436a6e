//! Property-based tests over the core data structures and kernels,
//! driven by the deterministic `splatt_rt::qc` harness (seeds are fixed;
//! failures name the case seed for replay via `SPLATT_QC_SEED`).

use splatt::core::mttkrp::{mttkrp, MttkrpConfig, MttkrpWorkspace};
use splatt::core::reference::mttkrp_coo;
use splatt::core::KernelKind;
use splatt::dense::{cholesky_factor, cholesky_solve, gemm, jacobi_eigen, mat_ata};
use splatt::par::TaskTeam;
use splatt::rt::qc::{self, Gen};
use splatt::tensor::{sort, SortVariant};
use splatt::{Csf, CsfAlloc, CsfSet, LockStrategy, Matrix, MatrixAccess, SparseTensor};

/// A random small 3rd-order tensor (dims 2..=12, nnz 0..200, duplicate
/// coordinates allowed).
fn gen_tensor(g: &mut Gen) -> SparseTensor {
    let dims = [g.usize_in(2..13), g.usize_in(2..13), g.usize_in(2..13)];
    let nnz = g.usize_in(0..200);
    let mut t = SparseTensor::new(dims.to_vec());
    for _ in 0..nnz {
        let coord = [
            g.usize_in(0..dims[0]) as u32,
            g.usize_in(0..dims[1]) as u32,
            g.usize_in(0..dims[2]) as u32,
        ];
        t.push(&coord, g.f64_in(-5.0, 5.0));
    }
    t
}

/// Random factor matrices matching `t`'s dims at `rank`, seeded off `base`.
fn gen_factors(t: &SparseTensor, rank: usize, base: u64) -> Vec<Matrix> {
    t.dims()
        .iter()
        .enumerate()
        .map(|(m, &d)| Matrix::random(d, rank, base + m as u64))
        .collect()
}

#[test]
fn sort_is_a_permutation_and_ordered() {
    qc::check("sort permutes and orders", 64, |g| {
        let t = gen_tensor(g);
        let perm = g.permutation(3);
        let variant = *g.choose(&SortVariant::ALL);
        let team = TaskTeam::new(g.usize_in(1..4));
        let before = t.canonical_entries();
        let mut sorted = t.clone();
        sort::sort_by_perm(&mut sorted, &perm, &team, variant);
        assert!(sorted.is_sorted_by(&perm), "not sorted under {perm:?}");
        assert_eq!(sorted.canonical_entries(), before);
    });
}

#[test]
fn csf_roundtrips_coo() {
    qc::check("csf roundtrips coo", 64, |g| {
        let t = gen_tensor(g);
        let perm = g.permutation(3);
        let team = TaskTeam::new(2);
        let csf = Csf::build(&t, &perm, &team, SortVariant::AllOpts);
        assert_eq!(csf.nnz(), t.nnz());
        if t.nnz() > 0 {
            assert_eq!(csf.to_coo().canonical_entries(), t.canonical_entries());
            assert_eq!(csf.slice_nnz().iter().sum::<usize>(), t.nnz());
        }
    });
}

#[test]
fn mttkrp_matches_reference() {
    qc::check("mttkrp matches coo oracle", 64, |g| {
        let t = gen_tensor(g);
        let mode = g.usize_in(0..3);
        let rank = g.usize_in(1..6);
        let priv_force = g.bool();
        let team = TaskTeam::new(2);
        let set = CsfSet::build(&t, CsfAlloc::Two, &team, SortVariant::AllOpts);
        let factors = gen_factors(&t, rank, 77);
        let cfg = MttkrpConfig {
            priv_threshold: if priv_force { 1e12 } else { 0.0 },
            ..Default::default()
        };
        let mut ws = MttkrpWorkspace::new(&cfg, 2);
        let mut out = Matrix::zeros(t.dims()[mode], rank);
        mttkrp(&set, &factors, mode, &mut out, &mut ws, &team, &cfg);
        let expect = mttkrp_coo(&t, &factors, mode);
        assert!(
            out.approx_eq(&expect, 1e-8),
            "max diff {}",
            out.max_abs_diff(&expect)
        );
    });
}

/// The exhaustive kernel matrix the observability PR pins down: every
/// MatrixAccess variant x every kernel kind (root / internal / leaf,
/// via `CsfAlloc::One`'s single tree) x both synchronization paths
/// (privatized replicas vs the lock pool, under every lock strategy),
/// each checked against the naive dense COO oracle within 1e-9.
#[test]
fn mttkrp_kernel_matrix_matches_oracle() {
    let ntasks = 3;
    let rank = 4;
    let team = TaskTeam::new(ntasks);
    qc::check("access x kernel x sync matrix", 8, |g| {
        let t = gen_tensor(g);
        if t.nnz() == 0 {
            return;
        }
        let set = CsfSet::build(&t, CsfAlloc::One, &team, SortVariant::AllOpts);
        let factors = gen_factors(&t, rank, g.u64());
        let oracles: Vec<Matrix> = (0..3).map(|m| mttkrp_coo(&t, &factors, m)).collect();

        let access_variants = [
            MatrixAccess::RowCopy,
            MatrixAccess::Index2D,
            MatrixAccess::PointerChecked,
            MatrixAccess::PointerZip,
        ];
        let sync_paths: [(f64, LockStrategy); 4] = [
            (1e12, LockStrategy::Spin), // privatized: strategy irrelevant
            (0.0, LockStrategy::Spin),
            (0.0, LockStrategy::Sleep),
            (0.0, LockStrategy::Os),
        ];
        for access in access_variants {
            for (priv_threshold, locks) in sync_paths {
                let cfg = MttkrpConfig {
                    access,
                    locks,
                    priv_threshold,
                    ..Default::default()
                };
                let mut ws = MttkrpWorkspace::new(&cfg, ntasks);
                let mut kinds = Vec::new();
                for (mode, oracle) in oracles.iter().enumerate() {
                    kinds.push(set.for_mode(mode).1);
                    let mut out = Matrix::zeros(t.dims()[mode], rank);
                    mttkrp(&set, &factors, mode, &mut out, &mut ws, &team, &cfg);
                    assert!(
                        out.approx_eq(oracle, 1e-9),
                        "{access:?}/{locks:?}/priv={priv_threshold} mode {mode} \
                         ({:?}): max diff {}",
                        set.for_mode(mode).1,
                        out.max_abs_diff(oracle)
                    );
                }
                // one CSF tree serves all three kernel shapes
                assert!(kinds.iter().any(|k| matches!(k, KernelKind::Root)));
                assert!(kinds.iter().any(|k| matches!(k, KernelKind::Internal(_))));
                assert!(kinds.iter().any(|k| matches!(k, KernelKind::Leaf)));
            }
        }
    });
}

/// The fiber-density routing rule of `CsfSet::for_mode`, pinned on one
/// dense and one hypersparse tensor of the same shape family: with two
/// representations the middle mode runs the internal (gather) kernel on
/// the first one when its fibers are long, and the leaf kernel on the
/// second one when they hold about one nonzero each. Either way every
/// mode matches the oracle.
#[test]
fn kernel_routing_follows_fiber_density() {
    use splatt::tensor::synth;
    let team = TaskTeam::new(2);
    // csf0 is rooted at mode 1 with perm [1, 0, 2]: its fibers are the
    // distinct (mode 1, mode 0) pairs — 72 possible vs 7200 possible
    let dense = synth::random_uniform(&[12, 6, 20], 2_000, 17);
    let hypersparse = synth::random_uniform(&[120, 60, 200], 400, 17);
    for (t, middle) in [
        (&dense, KernelKind::Internal(1)),
        (&hypersparse, KernelKind::Leaf),
    ] {
        let set = CsfSet::build(t, CsfAlloc::Two, &team, SortVariant::default());
        let kinds: Vec<KernelKind> = (0..3).map(|m| set.for_mode(m).1).collect();
        assert_eq!(
            kinds,
            [middle, KernelKind::Root, KernelKind::Root],
            "nnz per fiber {}",
            set.csfs()[0].nnz_per_fiber()
        );
        let factors = gen_factors(t, 5, 3);
        let cfg = MttkrpConfig::default();
        let mut ws = MttkrpWorkspace::new(&cfg, 2);
        for mode in 0..3 {
            let mut out = Matrix::zeros(t.dims()[mode], 5);
            mttkrp(&set, &factors, mode, &mut out, &mut ws, &team, &cfg);
            assert!(out.approx_eq(&mttkrp_coo(t, &factors, mode), 1e-9));
        }
    }
}

/// The differential matrix over the ranks people use: every chunk shape
/// of the blocked gather and scatter (remainders 1..15, one and two full
/// chunks), 8/16/32 with their neighbours, and the paper's 35 —
/// x 4 access strategies x root/internal/leaf/tiled x privatized/locks.
/// The tuned kernels (`specialize: true`: blocked gather, blocked scatter
/// and — all for the pointer strategies — the fiber-ahead prefetch) must
/// equal the plain per-nonzero loops (`specialize: false`, no prefetch)
/// bit for bit, and both the COO oracle to 1e-9. Both sync paths are run
/// where they are deterministic: replicas reduce in task order on one,
/// two and three tasks; the lock path on one task.
///
/// The tensors are the shapes a look-ahead can get wrong — about one
/// nonzero per fiber (what the prefetch is for), deeper trees, fewer
/// fibers than the prefetch distance, one nonzero, none — and the ones a
/// blocked scatter can: exact duplicate coordinates, fibers longer than a
/// chunk. The last few fibers of every level are where an off-by-one
/// would index past `fids`, so this runs in debug (bounds checks live) as
/// well as `--release`.
#[test]
fn tuned_kernels_equal_plain_loops_bit_for_bit_at_every_rank() {
    use splatt::tensor::synth;
    let paper_like = synth::power_law(&[30, 14, 40], 2_500, 1.8, 23);
    // one tree serves all three kernel shapes
    let team = TaskTeam::new(1);
    let set = CsfSet::build(&paper_like, CsfAlloc::One, &team, SortVariant::default());
    let kinds: Vec<KernelKind> = (0..3).map(|m| set.for_mode(m).1).collect();
    assert!(kinds.contains(&KernelKind::Root));
    assert!(kinds.contains(&KernelKind::Internal(1)));
    assert!(kinds.contains(&KernelKind::Leaf));

    let hypersparse = synth::random_uniform(&[300, 200, 400], 700, 29);
    let set = CsfSet::build(&hypersparse, CsfAlloc::One, &team, SortVariant::default());
    assert!(set.csfs()[0].nnz_per_fiber() < 1.1);

    // Every coordinate two to four times over, uncoalesced, with values
    // that differ: one fiber adds into the same output row more than
    // once, which is where a blocked scatter looping in the wrong order
    // (columns outside nonzeros, or the reverse) would change bits.
    let mut entries = Vec::new();
    for n in 0..60u32 {
        let coord = vec![n % 4, (n / 4) % 3, (n * 7) % 9];
        for copy in 0..2 + n % 3 {
            entries.push((coord.clone(), 0.5 + f64::from(n) - 1.25 * f64::from(copy)));
        }
    }
    let duplicates = SparseTensor::from_entries(vec![4, 3, 9], &entries);

    // Fibers longer than a 16-wide chunk is wide, and than the prefetch
    // distance is long.
    let long_fibers = synth::random_uniform(&[4, 3, 60], 500, 43);
    let set = CsfSet::build(&long_fibers, CsfAlloc::One, &team, SortVariant::default());
    assert!(set.csfs()[0].nnz_per_fiber() > 16.0);

    let tensors = [
        ("paper-like", paper_like),
        ("hypersparse", hypersparse),
        ("duplicates", duplicates),
        ("long fibers", long_fibers),
        ("order 4", synth::random_uniform(&[8, 12, 6, 9], 900, 31)),
        ("order 5", synth::random_uniform(&[5, 6, 4, 7, 3], 600, 37)),
        ("5 nonzeros", synth::random_uniform(&[9, 7, 11], 5, 41)),
        (
            "1 nonzero",
            SparseTensor::from_entries(vec![4, 5, 6], &[(vec![1, 2, 3], 2.0)]),
        ),
        ("empty", SparseTensor::new(vec![3, 4, 5])),
    ];
    for (name, t) in &tensors {
        tuned_equals_plain(name, t);
    }
}

/// One tensor of [`tuned_kernels_equal_plain_loops_bit_for_bit_at_every_rank`].
fn tuned_equals_plain(name: &str, t: &SparseTensor) {
    let teams = [TaskTeam::new(1), TaskTeam::new(2), TaskTeam::new(3)];
    let set = CsfSet::build(t, CsfAlloc::One, &teams[1], SortVariant::default());
    let tiled: Vec<_> = (0..t.order())
        .map(|m| splatt::core::TiledCsf::build(t, m, 3, &teams[1], SortVariant::default()))
        .collect();
    for rank in [1, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 35, 40] {
        let factors = gen_factors(t, rank, 5);
        let oracles: Vec<Matrix> = (0..t.order()).map(|m| mttkrp_coo(t, &factors, m)).collect();
        for access in [
            MatrixAccess::RowCopy,
            MatrixAccess::Index2D,
            MatrixAccess::PointerChecked,
            MatrixAccess::PointerZip,
        ] {
            for (team, sync, priv_threshold, run_tiled) in [
                (&teams[0], "privatized x1", 1e12, false),
                (&teams[1], "privatized x2", 1e12, false),
                (&teams[2], "privatized x3", 1e12, false),
                (&teams[0], "locks x1", 0.0, false),
                (&teams[0], "tiled x1", 0.0, true),
                (&teams[1], "tiled x2", 0.0, true),
            ] {
                for (mode, oracle) in oracles.iter().enumerate() {
                    let run = |specialize: bool| {
                        let cfg = MttkrpConfig {
                            access,
                            priv_threshold,
                            specialize,
                            ..Default::default()
                        };
                        let mut out = Matrix::zeros(t.dims()[mode], rank);
                        if run_tiled {
                            splatt::core::mttkrp::mttkrp_tiled(
                                &tiled[mode],
                                &factors,
                                &mut out,
                                team,
                                &cfg,
                                None,
                            );
                        } else {
                            let mut ws = MttkrpWorkspace::new(&cfg, team.ntasks());
                            mttkrp(&set, &factors, mode, &mut out, &mut ws, team, &cfg);
                        }
                        out
                    };
                    let (plain, tuned) = (run(false), run(true));
                    let cell = format!(
                        "{name}: rank {rank} {access:?} {sync} mode {mode} ({:?})",
                        set.for_mode(mode).1
                    );
                    assert_eq!(plain.as_slice(), tuned.as_slice(), "{cell}");
                    assert!(tuned.approx_eq(oracle, 1e-9), "{cell}");
                }
            }
        }
    }
}

#[test]
fn gramians_are_psd() {
    qc::check("gramians are psd", 64, |g| {
        let rows = g.usize_in(1..30);
        let cols = g.usize_in(1..8);
        let a = Matrix::random(rows, cols, g.u64());
        let gram = mat_ata(&a);
        assert!(gram.approx_eq(&gram.transpose(), 1e-12));
        let e = jacobi_eigen(&gram);
        for &w in &e.values {
            assert!(w > -1e-9, "negative eigenvalue {w}");
        }
    });
}

#[test]
fn cholesky_solve_is_inverse_application() {
    qc::check("cholesky solves", 64, |g| {
        let n = g.usize_in(1..8);
        let seed = g.u64();
        let a = Matrix::random(n + 3, n, seed);
        let mut v = mat_ata(&a);
        for i in 0..n {
            v[(i, i)] += 1.0; // guarantee SPD
        }
        let x_true = Matrix::random(4, n, seed.wrapping_add(1));
        let mut b = gemm(&x_true, &v);
        let l = cholesky_factor(&v).unwrap();
        cholesky_solve(&l, &mut b);
        assert!(
            b.approx_eq(&x_true, 1e-6),
            "max diff {}",
            b.max_abs_diff(&x_true)
        );
    });
}

#[test]
fn eigen_reconstructs() {
    qc::check("eigen reconstructs", 64, |g| {
        let n = g.usize_in(1..8);
        let gram = mat_ata(&Matrix::random(n + 2, n, g.u64()));
        let e = jacobi_eigen(&gram);
        assert!(e.reconstruct().approx_eq(&gram, 1e-8));
    });
}

#[test]
fn coalesce_preserves_coordinate_sums() {
    qc::check("coalesce preserves sums", 64, |g| {
        let t = gen_tensor(g);
        use std::collections::HashMap;
        let mut sums: HashMap<Vec<u32>, f64> = HashMap::new();
        for x in 0..t.nnz() {
            *sums.entry(t.coord(x)).or_insert(0.0) += t.vals()[x];
        }
        let mut c = t.clone();
        c.coalesce();
        let entries = c.canonical_entries();
        for w in entries.windows(2) {
            assert_ne!(&w[0].0, &w[1].0, "duplicate survived coalesce");
        }
        for (coord, v) in &entries {
            let expect = sums.get(coord).copied().unwrap_or(0.0);
            assert!((v - expect).abs() < 1e-12);
        }
        let nonzero_sums = sums.values().filter(|v| **v != 0.0).count();
        assert_eq!(entries.len(), nonzero_sums);
    });
}

#[test]
fn tiled_mttkrp_matches_reference() {
    qc::check("tiled mttkrp matches oracle", 64, |g| {
        let t = gen_tensor(g);
        if t.nnz() == 0 {
            return;
        }
        let mode = g.usize_in(0..3);
        let ntiles = g.usize_in(1..5);
        let rank = g.usize_in(1..5);
        let team = TaskTeam::new(2);
        let tiled = splatt::core::TiledCsf::build(&t, mode, ntiles, &team, SortVariant::AllOpts);
        let factors = gen_factors(&t, rank, 31);
        let cfg = MttkrpConfig::default();
        let mut out = Matrix::zeros(t.dims()[mode], rank);
        splatt::core::mttkrp::mttkrp_tiled(&tiled, &factors, &mut out, &team, &cfg, None);
        let expect = mttkrp_coo(&t, &factors, mode);
        assert!(
            out.approx_eq(&expect, 1e-8),
            "max diff {}",
            out.max_abs_diff(&expect)
        );
    });
}

#[test]
fn permute_modes_preserves_values() {
    qc::check("permute_modes preserves", 64, |g| {
        let t = gen_tensor(g);
        let p = t.permute_modes(&[2, 0, 1]);
        assert_eq!(p.nnz(), t.nnz());
        let mut vals_a: Vec<f64> = t.vals().to_vec();
        let mut vals_b: Vec<f64> = p.vals().to_vec();
        vals_a.sort_by(f64::total_cmp);
        vals_b.sort_by(f64::total_cmp);
        assert_eq!(vals_a, vals_b);
        // inverse permutation restores the original
        assert_eq!(p.permute_modes(&[1, 2, 0]), t);
    });
}

#[test]
fn split_holdout_partitions() {
    qc::check("split_holdout partitions", 64, |g| {
        let t = gen_tensor(g);
        let frac = g.f64();
        let seed = g.u64();
        let (train, test) = t.split_holdout(frac, seed);
        assert_eq!(train.nnz() + test.nnz(), t.nnz());
        let mut all = train.canonical_entries();
        all.extend(test.canonical_entries());
        all.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        assert_eq!(all, t.canonical_entries());
    });
}

#[test]
fn kruskal_model_roundtrips() {
    qc::check("kruskal io roundtrips", 64, |g| {
        let rank = g.usize_in(1..5);
        let seed = g.u64();
        let model = splatt::KruskalModel {
            lambda: (0..rank).map(|r| (r + 1) as f64).collect(),
            factors: vec![
                Matrix::random(6, rank, seed),
                Matrix::random(4, rank, seed.wrapping_add(1)),
                Matrix::random(5, rank, seed.wrapping_add(2)),
            ],
        };
        let mut buf = Vec::new();
        model.write(&mut buf).unwrap();
        let back = splatt::KruskalModel::read(buf.as_slice()).unwrap();
        assert_eq!(back.lambda, model.lambda);
        for (a, b) in back.factors.iter().zip(&model.factors) {
            assert!(a.approx_eq(b, 0.0));
        }
    });
}

#[test]
fn tns_roundtrip() {
    qc::check("tns io roundtrips", 64, |g| {
        let t = gen_tensor(g);
        if t.nnz() == 0 {
            return;
        }
        let mut buf = Vec::new();
        splatt::tensor::io::write_tns(&t, &mut buf).unwrap();
        let back = splatt::tensor::io::read_tns(buf.as_slice()).unwrap();
        assert_eq!(back.canonical_entries(), t.canonical_entries());
    });
}
