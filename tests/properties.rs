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

/// The ten tensors of the kernel suite: the shapes a look-ahead can
/// get wrong — about one nonzero per fiber (what the prefetch is for),
/// deeper trees, fewer fibers than the prefetch distance, one nonzero,
/// none — the ones a blocked scatter can: exact duplicate coordinates,
/// fibers longer than a chunk — and the one the hypersparse walk's flat
/// loop can: sparse fibers of mixed length.
fn kernel_suite() -> Vec<(&'static str, SparseTensor)> {
    use splatt::tensor::synth;
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
    vec![
        (
            "paper-like",
            synth::power_law(&[30, 14, 40], 2_500, 1.8, 23),
        ),
        (
            "hypersparse",
            synth::random_uniform(&[300, 200, 400], 700, 29),
        ),
        (
            "duplicates",
            SparseTensor::from_entries(vec![4, 3, 9], &entries),
        ),
        // Fibers longer than a 16-wide chunk is wide, and than the
        // prefetch distance is long.
        ("long fibers", synth::random_uniform(&[4, 3, 60], 500, 43)),
        ("order 4", synth::random_uniform(&[8, 12, 6, 9], 900, 31)),
        ("order 5", synth::random_uniform(&[5, 6, 4, 7, 3], 600, 37)),
        ("5 nonzeros", synth::random_uniform(&[9, 7, 11], 5, 41)),
        (
            "1 nonzero",
            SparseTensor::from_entries(vec![4, 5, 6], &[(vec![1, 2, 3], 2.0)]),
        ),
        ("empty", SparseTensor::new(vec![3, 4, 5])),
        ("mixed fibers", mixed_fibers()),
    ]
}

/// 400 sparse fibers: most hold one nonzero, one in five two or three,
/// and one in fifty 40 — longer than the widest column chunk — so the
/// hypersparse walk's flat loop (about 2 nonzeros per fiber, under
/// `DENSE_FIBER_NNZ`) meets multi-nonzero fibers between single ones.
fn mixed_fibers() -> SparseTensor {
    let mut entries = Vec::new();
    for n in 0..400u32 {
        let len = match n {
            _ if n % 50 == 7 => 40,
            _ if n % 5 == 0 => 2 + n % 2,
            _ => 1,
        };
        for x in 0..len {
            let coord = vec![n % 20, n / 20, (n * 37 + 11 * x) % 500];
            entries.push((coord, 0.25 + f64::from(n % 13) - 0.5 * f64::from(x)));
        }
    }
    SparseTensor::from_entries(vec![20, 60, 500], &entries)
}

/// A matrix's values as bits: `==` on `f64` calls `-0.0` equal to `+0.0`.
fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The differential matrix over the ranks people use: every chunk shape
/// of the blocked gather and scatter (remainders 1..15, one and two full
/// chunks), 8/16/32 with their neighbours, the paper's 35, and the edges
/// of the hypersparse walk's 32-wide first chunk (47-49, 63-65) —
/// x 4 access strategies x root/internal/leaf/tiled x privatized/locks.
/// The tuned kernels (`specialize: true`: blocked gather, blocked scatter
/// and — all for the pointer strategies — the fiber-ahead prefetch and,
/// on sparse fibers, the flat bottom two levels) must equal the plain
/// per-nonzero loops (`specialize: false`, no prefetch) bit for bit
/// (`to_bits`), and both the COO oracle to 1e-9. Both sync paths are run
/// where they are deterministic: replicas reduce in task order on one,
/// two and three tasks; the lock path on one task.
///
/// The tensors are [`kernel_suite`]. The last few fibers of every level
/// are where an off-by-one would index past `fids`, so this runs in
/// debug (bounds checks live) as well as `--release`.
#[test]
fn tuned_kernels_equal_plain_loops_bit_for_bit_at_every_rank() {
    let suite = kernel_suite();
    let team = TaskTeam::new(1);
    let tree = |i: usize| CsfSet::build(&suite[i].1, CsfAlloc::One, &team, SortVariant::default());
    // one tree of the paper-like tensor serves all three kernel shapes
    let set = tree(0);
    let kinds: Vec<KernelKind> = (0..3).map(|m| set.for_mode(m).1).collect();
    assert!(kinds.contains(&KernelKind::Root));
    assert!(kinds.contains(&KernelKind::Internal(1)));
    assert!(kinds.contains(&KernelKind::Leaf));
    assert!(tree(1).csfs()[0].nnz_per_fiber() < 1.1, "hypersparse");
    assert!(tree(3).csfs()[0].nnz_per_fiber() > 16.0, "long fibers");
    let mixed = tree(9).csfs()[0].nnz_per_fiber();
    assert!(mixed > 1.5 && mixed < 4.3, "mixed fibers: {mixed}");
    for (name, t) in &suite {
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
    for rank in [
        1, 2, 3, 7, 8, 15, 16, 17, 31, 32, 33, 35, 40, 47, 48, 49, 63, 64, 65,
    ] {
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
                    assert_eq!(bits(&plain), bits(&tuned), "{cell}");
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

/// `t` with every value multiplied by `scale` (a power of two: exact).
fn scaled(t: &SparseTensor, scale: f64) -> SparseTensor {
    let inds = (0..t.order()).map(|m| t.ind(m).to_vec()).collect();
    let vals = t.vals().iter().map(|v| v * scale).collect();
    SparseTensor::from_parts(t.dims().to_vec(), inds, vals)
}

fn assert_scaled_bits(got: &[f64], want: &[f64], scale: f64, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), (w * scale).to_bits(), "{what}: entry {i}");
    }
}

/// Metamorphic: scaling a tensor by an exact power of two, `2^k`, scales
/// every CP-ALS step exactly — the MTTKRP and the Cholesky solve are
/// linear, the 2-norm column normalization returns the same columns
/// with `2^k` times the norms, and the fit is a ratio of norms — and the
/// seeded initialization never reads the tensor. So on the ten tensors
/// of [`kernel_suite`], for k in {-4, 7}, each step is checked on its
/// own (the message names it), and the first iteration of `cp_als`
/// (the one that normalizes by the 2-norm) gives `to_bits`-equal
/// factors and fit and exactly `2^k` times the lambda.
///
/// One step breaks the property: every later iteration normalizes by
/// the max-norm with SPLATT's clamp `lambda = max(lambda, 1)`, which
/// leaves a column whose largest entry is under 1 unnormalized. Scaling
/// moves columns across that clamp, and the runs part by rounding from
/// there. The clamp is pinned below; above it the max-norm commutes,
/// and whole runs stay bit-exact where no column ever falls under it.
#[test]
fn power_of_two_scaling_commutes_with_every_cp_als_step() {
    use splatt::dense::{hadamard_assign, normalize_columns, solve_normals, MatNorm};
    use splatt::{cp_als, CpalsOptions};
    const RANK: usize = 5;
    let team = TaskTeam::new(1);
    let cfg = MttkrpConfig::default();
    for (name, t) in &kernel_suite() {
        let factors = gen_factors(t, RANK, 5);
        let set = CsfSet::build(t, CsfAlloc::default(), &team, SortVariant::default());
        for k in [-4, 7] {
            let scale = 2f64.powi(k);
            let xs = scaled(t, scale);
            let set_s = CsfSet::build(&xs, CsfAlloc::default(), &team, SortVariant::default());
            let mut ws = MttkrpWorkspace::new(&cfg, 1);
            for mode in 0..t.order() {
                let step = |what: &str| format!("{name}, 2^{k}, mode {mode}: {what}");
                let mut m = Matrix::zeros(t.dims()[mode], RANK);
                let mut m_s = m.clone();
                mttkrp(&set, &factors, mode, &mut m, &mut ws, &team, &cfg);
                mttkrp(&set_s, &factors, mode, &mut m_s, &mut ws, &team, &cfg);
                assert_scaled_bits(m_s.as_slice(), m.as_slice(), scale, &step("MTTKRP"));

                let mut v = Matrix::filled(RANK, RANK, 1.0);
                for (other, f) in factors.iter().enumerate() {
                    if other != mode {
                        hadamard_assign(&mut v, &mat_ata(f));
                    }
                }
                solve_normals(&v, &mut m);
                solve_normals(&v, &mut m_s);
                assert_scaled_bits(m_s.as_slice(), m.as_slice(), scale, &step("Cholesky solve"));

                let (mut a, mut a_s) = (m.clone(), m_s.clone());
                let (mut lambda, mut lambda_s) = (vec![0.0; RANK], vec![0.0; RANK]);
                normalize_columns(&mut a, &mut lambda, MatNorm::Two);
                normalize_columns(&mut a_s, &mut lambda_s, MatNorm::Two);
                assert_eq!(a.as_slice(), a_s.as_slice(), "{}", step("2-norm columns"));
                assert_scaled_bits(&lambda_s, &lambda, scale, &step("2-norm lambda"));

                // the max-norm, on the columns no clamp touches at either scale
                normalize_columns(&mut m, &mut lambda, MatNorm::Max);
                normalize_columns(&mut m_s, &mut lambda_s, MatNorm::Max);
                for r in 0..RANK {
                    if lambda[r] > 1.0 && lambda_s[r] > 1.0 {
                        let column = |a: &Matrix| -> Vec<u64> {
                            (0..a.rows()).map(|i| a[(i, r)].to_bits()).collect()
                        };
                        assert_eq!(column(&m), column(&m_s), "{}", step("max-norm column"));
                        assert_eq!(
                            lambda_s[r].to_bits(),
                            (lambda[r] * scale).to_bits(),
                            "{}",
                            step("max-norm lambda")
                        );
                    }
                }
            }

            // the first iteration end to end, the fit included
            let opts = CpalsOptions {
                rank: RANK,
                max_iters: 1,
                tolerance: 0.0,
                ..Default::default()
            };
            let (run, run_s) = (cp_als(t, &opts), cp_als(&xs, &opts));
            let what = format!("{name}, 2^{k}: cp_als, first iteration");
            for (f, f_s) in run.model.factors.iter().zip(&run_s.model.factors) {
                assert_eq!(f.as_slice(), f_s.as_slice(), "{what}: factors");
            }
            assert_eq!(run.fit.to_bits(), run_s.fit.to_bits(), "{what}: fit");
            assert_scaled_bits(&run_s.model.lambda, &run.model.lambda, scale, &what);

            // Ten iterations: exact where no column max ever fell under
            // the clamp, within rounding of it everywhere.
            let opts = CpalsOptions {
                max_iters: 10,
                ..opts
            };
            let (run, run_s) = (cp_als(t, &opts), cp_als(&xs, &opts));
            let what = format!("{name}, 2^{k}: cp_als, ten iterations");
            assert!((run.fit - run_s.fit).abs() <= 1e-6, "{what}: fit");
            let unclamped = matches!(
                (*name, k),
                ("duplicates", _) | ("paper-like", 7) | ("long fibers", 7)
            );
            if unclamped {
                for (f, f_s) in run.model.factors.iter().zip(&run_s.model.factors) {
                    assert_eq!(f.as_slice(), f_s.as_slice(), "{what}: factors");
                }
                assert_eq!(run.fit.to_bits(), run_s.fit.to_bits(), "{what}: fit");
                assert_scaled_bits(&run_s.model.lambda, &run.model.lambda, scale, &what);
            }
        }
    }

    // The step that breaks it: a column whose largest entry is 0.5 is
    // left alone (lambda clamped to 1); scaled by 2^7 it is divided by 64.
    let column = Matrix::from_vec(2, 1, vec![0.5, -0.25]);
    let mut scaled_column = Matrix::from_vec(2, 1, vec![64.0, -32.0]);
    let (mut plain, mut lambda, mut lambda_s) = (column.clone(), [0.0], [0.0]);
    normalize_columns(&mut plain, &mut lambda, MatNorm::Max);
    normalize_columns(&mut scaled_column, &mut lambda_s, MatNorm::Max);
    assert_eq!((lambda, lambda_s), ([1.0], [64.0]), "max-norm clamp");
    assert_eq!(plain.as_slice(), column.as_slice());
    assert_eq!(scaled_column.as_slice(), [1.0, -0.5]);
}

/// `t` with every coordinate `2 + n % 3` times over (uncoalesced), the
/// copies' values differing.
fn repeated_coordinates(t: &SparseTensor) -> SparseTensor {
    let mut entries = Vec::new();
    for x in 0..t.nnz() {
        for copy in 0..2 + x % 3 {
            entries.push((t.coord(x), t.vals()[x] * (1.0 + 0.375 * copy as f64)));
        }
    }
    SparseTensor::from_entries(t.dims().to_vec(), &entries)
}

/// Metamorphic: the fit of `cp_als` on an uncoalesced tensor does not
/// depend on the order its duplicate entries arrive in. Sorting keeps
/// duplicates in input order, so a shuffle reorders the additions every
/// MTTKRP makes for them — rounding may move, the fit may not, beyond
/// 1e-12. On the kernel suite's `duplicates` and a power-law tensor with
/// every coordinate two to four times over, at one and two tasks, over
/// three shuffles each.
#[test]
fn cp_als_fit_is_invariant_under_duplicate_order() {
    use splatt::rt::rng::{RngExt, SeedableRng, StdRng};
    use splatt::{cp_als, CpalsOptions};
    let duplicates = kernel_suite().swap_remove(2);
    assert_eq!(duplicates.0, "duplicates");
    let power_law = repeated_coordinates(&splatt::tensor::synth::power_law(
        &[40, 30, 50],
        600,
        1.6,
        19,
    ));
    for (name, t) in [duplicates, ("power-law, 2-4x over", power_law)] {
        for ntasks in [1, 2] {
            let opts = CpalsOptions {
                rank: 4,
                max_iters: 15,
                tolerance: 0.0,
                ntasks,
                seed: 7,
                ..Default::default()
            };
            let fit = cp_als(&t, &opts).fit;
            for shuffle in 0..3u64 {
                let mut entries: Vec<_> = (0..t.nnz()).map(|x| (t.coord(x), t.vals()[x])).collect();
                let mut rng = StdRng::seed_from_u64(shuffle);
                for i in (1..entries.len()).rev() {
                    entries.swap(i, rng.random_range(0..i + 1));
                }
                let shuffled = SparseTensor::from_entries(t.dims().to_vec(), &entries);
                let got = cp_als(&shuffled, &opts).fit;
                assert!(
                    (got - fit).abs() <= 1e-12,
                    "{name}, {ntasks} task(s), shuffle {shuffle}: fit {got} against {fit}"
                );
            }
        }
    }
}

/// A YELP shape at a tenth of the end-to-end benchmark's quick size: the
/// middle mode (137 > 2 % of 6 000 nonzeros) fails SPLATT's
/// privatization test at one task.
fn tiny_yelp() -> SparseTensor {
    let yelp = splatt::tensor::synth::YELP;
    splatt::tensor::synth::power_law(&[137, 37, 250], 6_000, yelp.skew, 20180521)
}

/// λ, every factor and the fit of a run, as bits.
fn run_bits(out: &splatt::CpalsOutput) -> Vec<u64> {
    let model = &out.model;
    let mut all: Vec<u64> = model.lambda.iter().map(|x| x.to_bits()).collect();
    for f in &model.factors {
        all.extend(bits(f));
    }
    all.push(out.fit.to_bits());
    all
}

/// The default CSF set (`CsfAlloc::LockFree`) takes no lock: on every
/// tensor of the kernel suite and a tiny YELP shape, at 1, 2, 3, 4 and 8
/// tasks, `uses_locks` reports no mode. Where that set roots every mode,
/// every MTTKRP sums an output row inside one root slice in tree order,
/// so default `cp_als` gives the same bits at every task count.
#[test]
fn default_cp_als_takes_no_lock_and_its_bits_ignore_the_task_count() {
    use splatt::core::mttkrp::uses_locks;
    let mut suite = kernel_suite();
    suite.push(("tiny yelp", tiny_yelp()));
    let counts = [1, 2, 3, 4, 8];
    let mut rooted = Vec::new();
    for (name, t) in &suite {
        let cfg = MttkrpConfig::default();
        let mut every_root = false;
        for ntasks in counts {
            let team = TaskTeam::new(ntasks);
            let set = CsfSet::build(t, CsfAlloc::default(), &team, SortVariant::default());
            for m in 0..t.order() {
                assert!(
                    !uses_locks(&set, m, ntasks, &cfg),
                    "{name}: mode {m} at {ntasks}"
                );
            }
            if ntasks == 1 {
                every_root = (0..t.order()).all(|m| set.for_mode(m).1 == KernelKind::Root);
            }
        }
        if !every_root {
            continue;
        }
        rooted.push(*name);
        let run = |ntasks| {
            let opts = splatt::CpalsOptions {
                rank: 5,
                max_iters: 4,
                tolerance: 0.0,
                ntasks,
                ..Default::default()
            };
            run_bits(&splatt::cp_als(t, &opts))
        };
        let one = run(1);
        for ntasks in &counts[1..] {
            assert!(one == run(*ntasks), "{name}: {ntasks} tasks");
        }
    }
    assert!(rooted.contains(&"tiny yelp"), "{rooted:?}");
    assert!(rooted.len() >= 5, "{rooted:?}");
}

/// The paper's presets run SPLATT's two trees: on the YELP shape mode 0
/// still takes the lock path at one task, as Figure 4's `locked` column
/// needs, and a profiled preset run says so.
#[test]
fn every_preset_still_locks_the_yelp_middle_mode() {
    use splatt::core::mttkrp::uses_locks;
    use splatt::Implementation;
    let t = tiny_yelp();
    for imp in [
        Implementation::Reference,
        Implementation::PortedInitial,
        Implementation::PortedOptimized,
    ] {
        let opts = splatt::CpalsOptions {
            rank: 4,
            max_iters: 2,
            tolerance: 0.0,
            profile: true,
            ..Default::default()
        }
        .with_implementation(imp);
        assert_eq!(opts.csf_alloc, CsfAlloc::Two);
        let team = TaskTeam::new(1);
        let set = CsfSet::build(&t, opts.csf_alloc, &team, opts.sort_variant);
        let cfg = MttkrpConfig::default();
        assert!(uses_locks(&set, 0, 1, &cfg), "{imp:?}");
        let out = splatt::cp_als(&t, &opts);
        assert!(out.profile.expect("profiled").used_locks, "{imp:?}");
    }
}

/// The default's YELP-shaped bits change on purpose (mode 0 is summed per
/// root slice of its own tree): the tuned run equals the plain-loop
/// oracle (`specialize: false`) on the same set, bit for bit.
#[test]
fn default_yelp_bits_equal_the_plain_loop_oracle() {
    let t = tiny_yelp();
    let base = splatt::CpalsOptions {
        rank: 35,
        max_iters: 3,
        tolerance: 0.0,
        ..Default::default()
    };
    let set = CsfSet::build(&t, base.csf_alloc, &TaskTeam::new(1), base.sort_variant);
    assert_eq!(set.csfs().len(), 3, "a tree rooted at mode 0");
    let tuned = splatt::cp_als(&t, &base);
    let plain = splatt::cp_als(
        &t,
        &splatt::CpalsOptions {
            specialize: false,
            ..base
        },
    );
    assert!(run_bits(&tuned) == run_bits(&plain));
}
