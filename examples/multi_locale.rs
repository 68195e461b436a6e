//! Multi-locale decomposition (the paper's future-work item).
//!
//! The Chapel-port paper plans to add SPLATT's distributed-memory
//! (medium-grained) algorithm using Chapel's multi-locales. Its arithmetic
//! is the shared-memory solver's — the same sums, associated per block —
//! so this example runs one shared-memory CP-ALS for the answer and prices
//! a NELL-2-shaped tensor on 8 locales under several process-grid shapes:
//! balanced grids move far less factor data than one-dimensional
//! decompositions — the medium-grained paper's central claim.
//!
//! ```sh
//! cargo run --release --example multi_locale
//! ```

use splatt::dist::{medium_grained_volume, ProcessGrid, TensorDistribution};
use splatt::{cp_als, CpalsOptions};

fn main() {
    let mut tensor = splatt::tensor::synth::NELL2.generate(1.0 / 400.0, 99);
    // the scaled-down generator produces duplicate coordinates; merge
    // them so the reported fit is meaningful
    tensor.coalesce();
    println!("tensor: {}", splatt::tensor::TensorStats::compute(&tensor));

    let (rank, iters) = (12, 10);
    let shared = cp_als(
        &tensor,
        &CpalsOptions {
            rank,
            max_iters: iters,
            tolerance: 0.0,
            ntasks: 1,
            seed: 0xD157,
            ..Default::default()
        },
    );
    println!("fit after {iters} iterations: {:.6}\n", shared.fit);

    println!("{:>6}  {:>12}  {:>14}", "grid", "total MB", "max block nnz");
    for grid in [vec![8, 1, 1], vec![1, 1, 8], vec![4, 2, 1], vec![2, 2, 2]] {
        let grid = ProcessGrid::new(grid);
        let volume = medium_grained_volume(tensor.dims(), &grid, rank, iters);
        let dist = TensorDistribution::new(&tensor, grid);
        println!(
            "{:>6}  {:>12.2}  {:>14}",
            dist.grid()
                .dims()
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("x"),
            volume.total_bytes() as f64 / (1024.0 * 1024.0),
            dist.max_block_nnz(),
        );
    }
    println!("\nsame answer everywhere; the grid shape only moves the communication bill.");
}
