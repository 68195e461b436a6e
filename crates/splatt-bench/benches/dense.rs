//! Criterion micro-benchmarks for the dense substrate: the Gram-matrix
//! product (SYRK), Cholesky solve (the paper's "Inverse" routine), the
//! eigen fallback, and column normalization — at round sizes, and at the
//! factor shapes of the end-to-end benchmark's `cpd_yelp` workload (the
//! one where dense algebra is a quarter of the wall).

use splatt_bench::microbench::{self as criterion, BenchmarkId, Criterion};
use splatt_bench::{criterion_group, criterion_main};
use splatt_core::dense::{
    cholesky_factor, cholesky_solve, jacobi_eigen, mat_ata, normalize_columns, solve_normals,
    MatNorm, Matrix,
};

const RANK: usize = 35;

fn bench_mat_ata(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_ata");
    group.sample_size(10);
    for rows in [1_000usize, 10_000, 100_000] {
        let a = Matrix::random(rows, RANK, 1);
        group.bench_function(BenchmarkId::from_parameter(rows), |b| {
            b.iter(|| mat_ata(&a))
        });
    }
    group.finish();
}

fn bench_inverse(c: &mut Criterion) {
    let a = Matrix::random(10_000, RANK, 2);
    let mut v = mat_ata(&a);
    for i in 0..RANK {
        v[(i, i)] += 1.0;
    }
    let m = Matrix::random(10_000, RANK, 3);

    let mut group = c.benchmark_group("dense_inverse");
    group.sample_size(10);
    group.bench_function("cholesky_factor", |b| {
        b.iter(|| cholesky_factor(&v).unwrap())
    });
    let l = cholesky_factor(&v).unwrap();
    group.bench_function("cholesky_solve_10k_rhs", |b| {
        b.iter_batched(
            || m.clone(),
            |mut rhs| cholesky_solve(&l, &mut rhs),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("solve_normals_10k", |b| {
        b.iter_batched(
            || m.clone(),
            |mut rhs| solve_normals(&v, &mut rhs),
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("jacobi_eigen_35", |b| b.iter(|| jacobi_eigen(&v)));
    group.finish();
}

fn bench_normalize(c: &mut Criterion) {
    let a = Matrix::random(100_000, RANK, 4);
    let mut group = c.benchmark_group("dense_normalize");
    group.sample_size(10);
    for (label, which) in [("two", MatNorm::Two), ("max", MatNorm::Max)] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || (a.clone(), vec![0.0; RANK]),
                |(mut m, mut l)| normalize_columns(&mut m, &mut l, which),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// `cpd_yelp`'s two long factors, at the paper's rank and at 16.
fn bench_yelp_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_yelp");
    group.sample_size(10);
    for (rows, rank) in [(13_666, 35), (25_000, 35), (13_666, 16), (25_000, 16)] {
        let a = Matrix::random(rows, rank, 5);
        let mut v = mat_ata(&a);
        for i in 0..rank {
            v[(i, i)] += 1.0;
        }
        let l = cholesky_factor(&v).unwrap();
        let shape = format!("{rows}x{rank}");
        group.bench_function(BenchmarkId::new("solve", &shape), |b| {
            b.iter_batched(
                || a.clone(),
                |mut rhs| cholesky_solve(&l, &mut rhs),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_function(BenchmarkId::new("ata", &shape), |b| b.iter(|| mat_ata(&a)));
        group.bench_function(BenchmarkId::new("normalize_max", &shape), |b| {
            b.iter_batched(
                || (a.clone(), vec![0.0; rank]),
                |(mut m, mut l)| normalize_columns(&mut m, &mut l, MatNorm::Max),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mat_ata,
    bench_inverse,
    bench_normalize,
    bench_yelp_shapes
);
criterion_main!(benches);
