//! Synthetic tensors shaped like the paper's data sets.
//!
//! The five data sets in Table I are multi-gigabyte external downloads
//! (Yelp Dataset Challenge, NELL, Netflix, …) that cannot be assumed
//! present, so we synthesize stand-ins. What must be preserved is not the
//! values but the *shape statistics the paper's behaviour depends on*:
//!
//! * mode dimensions and nonzero count — these set the
//!   `dim[mode] * nthreads / nnz` ratio that decides privatization vs.
//!   locks in the MTTKRP (the entire YELP-vs-NELL-2 contrast of Section
//!   V-D.2). The ratio is invariant under uniform scaling of `dims` and
//!   `nnz`, so scaled-down instances reproduce the same lock decisions at
//!   the same task counts.
//! * index skew — real review/knowledge tensors are power-law distributed,
//!   which drives load imbalance in slice-partitioned kernels. Generators
//!   draw indices from a tunable power-law marginal.

use crate::SparseTensor;
use splatt_rt::rng::{RngExt, SeedableRng, StdRng};

/// Shape parameters of one of the paper's data sets (Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetShape {
    /// Data set name as printed in Table I.
    pub name: &'static str,
    /// Full-scale mode dimensions from the paper.
    pub dims: [usize; 3],
    /// Full-scale nonzero count from the paper.
    pub nnz: usize,
    /// Power-law skew exponent for index marginals (1.0 = uniform);
    /// larger values concentrate nonzeros in low indices.
    pub skew: f64,
}

/// YELP: 41k x 11k x 75k, 8M nonzeros. Small tensor whose *sparse modes*
/// force the MTTKRP onto the lock-based path beyond ~2 tasks.
pub const YELP: DatasetShape = DatasetShape {
    name: "YELP",
    dims: [41_000, 11_000, 75_000],
    nnz: 8_000_000,
    skew: 2.0,
};

/// RATE-BEER: 27k x 105k x 262k, 62M nonzeros.
pub(crate) const RATE_BEER: DatasetShape = DatasetShape {
    name: "RATE-BEER",
    dims: [27_000, 105_000, 262_000],
    nnz: 62_000_000,
    skew: 2.0,
};

/// BEER-ADVOCATE: 31k x 61k x 182k, 63M nonzeros.
pub(crate) const BEER_ADVOCATE: DatasetShape = DatasetShape {
    name: "BEER-ADVOCATE",
    dims: [31_000, 61_000, 182_000],
    nnz: 63_000_000,
    skew: 2.0,
};

/// NELL-2: 12k x 9k x 29k, 77M nonzeros. Dense-ish modes keep the MTTKRP
/// on the privatized (lock-free) path at every task count the paper runs.
pub const NELL2: DatasetShape = DatasetShape {
    name: "NELL-2",
    dims: [12_000, 9_000, 29_000],
    nnz: 77_000_000,
    skew: 1.5,
};

/// NETFLIX: 480k x 18k x 2k, 100M nonzeros.
pub const NETFLIX: DatasetShape = DatasetShape {
    name: "NETFLIX",
    dims: [480_000, 18_000, 2_000],
    nnz: 100_000_000,
    skew: 1.8,
};

/// All five Table I shapes, in table order.
pub const ALL_SHAPES: [DatasetShape; 5] = [YELP, RATE_BEER, BEER_ADVOCATE, NELL2, NETFLIX];

impl DatasetShape {
    /// Dimensions and nonzero count scaled by `scale` (each dimension and
    /// the nonzero count multiplied by `scale`, floored, clamped to ≥ 4
    /// and ≥ 16 respectively).
    ///
    /// Scaling `dims` and `nnz` by the same factor preserves the
    /// privatization ratio `dim * ntasks / nnz` exactly, so the lock
    /// decisions of the full-size data set survive scaling.
    pub(crate) fn scaled(&self, scale: f64) -> (Vec<usize>, usize) {
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        let dims = self
            .dims
            .iter()
            .map(|&d| (((d as f64) * scale) as usize).max(4))
            .collect();
        let nnz = (((self.nnz as f64) * scale) as usize).max(16);
        (dims, nnz)
    }

    /// Generate a synthetic instance at `scale` (1.0 = paper size).
    pub fn generate(&self, scale: f64, seed: u64) -> SparseTensor {
        let (dims, nnz) = self.scaled(scale);
        power_law(&dims, nnz, self.skew, seed)
    }
}

/// Draw one power-law index in `0..dim`: `floor(dim * u^alpha)` for
/// uniform `u`. `alpha = 1` is uniform; larger `alpha` piles probability
/// onto low indices (short-head heavy, long-tail light — the shape of
/// review and knowledge-base data).
fn power_index(rng: &mut StdRng, dim: usize, alpha: f64) -> u32 {
    let u: f64 = rng.random();
    let idx = (dim as f64 * u.powf(alpha)) as usize;
    idx.min(dim - 1) as u32
}

/// Random sparse tensor with uniform index marginals and values in
/// `[0.5, 1.5)`. Duplicate coordinates possible (harmless for CP-ALS).
pub fn random_uniform(dims: &[usize], nnz: usize, seed: u64) -> SparseTensor {
    power_law(dims, nnz, 1.0, seed)
}

/// Random sparse tensor with power-law index marginals (exponent `alpha`
/// per mode) and values in `[0.5, 1.5)`.
///
/// # Panics
/// Panics if any dimension is zero or `alpha <= 0`.
pub fn power_law(dims: &[usize], nnz: usize, alpha: f64, seed: u64) -> SparseTensor {
    assert!(alpha > 0.0, "power-law exponent must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let order = dims.len();
    let mut inds: Vec<Vec<u32>> = vec![Vec::with_capacity(nnz); order];
    let mut vals: Vec<f64> = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        for (m, &d) in dims.iter().enumerate() {
            inds[m].push(power_index(&mut rng, d, alpha));
        }
        vals.push(0.5 + rng.random::<f64>());
    }
    SparseTensor::from_parts(dims.to_vec(), inds, vals)
}

/// A planted low-rank model: ground-truth factor matrices plus the sparse
/// tensor sampled from them. Used by recovery tests and the examples.
#[derive(Debug, Clone)]
pub struct PlantedModel {
    /// Ground-truth rank.
    pub rank: usize,
    /// One row-major `dims[m] x rank` factor per mode.
    pub factors: Vec<Vec<f64>>,
    /// Mode dimensions.
    pub dims: Vec<usize>,
}

impl PlantedModel {
    /// The model's value at a coordinate: `sum_r prod_m A_m[i_m, r]`.
    pub(crate) fn value_at(&self, coord: &[u32]) -> f64 {
        (0..self.rank)
            .map(|r| {
                coord
                    .iter()
                    .enumerate()
                    .map(|(m, &i)| self.factors[m][i as usize * self.rank + r])
                    .product::<f64>()
            })
            .sum()
    }
}

/// Sample a sparse tensor whose values follow a planted rank-`rank` model
/// with optional additive noise (`noise` = scale of a uniform
/// perturbation). Coordinates are sampled uniformly *without repetition*
/// (duplicate draws are discarded), so every stored entry equals the model
/// value plus its noise; the result may have slightly fewer than `nnz`
/// entries when the requested count approaches the number of cells.
///
/// Returns the tensor and the ground truth. CP-ALS on the result must
/// reach a fit near 1 when `noise == 0` — the core correctness experiment
/// for the whole stack.
pub fn planted_low_rank(
    dims: &[usize],
    rank: usize,
    nnz: usize,
    noise: f64,
    seed: u64,
) -> (SparseTensor, PlantedModel) {
    assert!(rank > 0, "rank must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let factors: Vec<Vec<f64>> = dims
        .iter()
        .map(|&d| (0..d * rank).map(|_| 0.1 + rng.random::<f64>()).collect())
        .collect();
    let model = PlantedModel {
        rank,
        factors,
        dims: dims.to_vec(),
    };
    let mut tensor = SparseTensor::new(dims.to_vec());
    let mut seen = std::collections::HashSet::with_capacity(nnz);
    let mut coord = vec![0u32; dims.len()];
    let max_attempts = nnz.saturating_mul(20).max(64);
    let mut attempts = 0usize;
    while tensor.nnz() < nnz && attempts < max_attempts {
        attempts += 1;
        for (c, &d) in coord.iter_mut().zip(dims) {
            *c = rng.random_range(0..d as u32);
        }
        if !seen.insert(coord.clone()) {
            continue;
        }
        let v = model.value_at(&coord) + noise * (rng.random::<f64>() - 0.5);
        tensor.push(&coord, v);
    }
    (tensor, model)
}

/// A *fully dense* planted low-rank tensor: every cell of the rank-`rank`
/// model is stored as a nonzero (plus optional uniform noise). Unlike
/// [`planted_low_rank`] — whose unsampled cells are implicit zeros and
/// therefore break exact low-rankness — the result here is exactly
/// rank-`rank` when `noise == 0`, so CP-ALS must drive the fit to 1.
/// Intended for small dims (the cell count is `prod(dims)`).
pub fn planted_dense(
    dims: &[usize],
    rank: usize,
    noise: f64,
    seed: u64,
) -> (SparseTensor, PlantedModel) {
    assert!(rank > 0, "rank must be positive");
    let cells: usize = dims.iter().product();
    assert!(cells <= 1 << 24, "planted_dense is for small tensors");
    let mut rng = StdRng::seed_from_u64(seed);
    let factors: Vec<Vec<f64>> = dims
        .iter()
        .map(|&d| (0..d * rank).map(|_| 0.1 + rng.random::<f64>()).collect())
        .collect();
    let model = PlantedModel {
        rank,
        factors,
        dims: dims.to_vec(),
    };
    let mut tensor = SparseTensor::new(dims.to_vec());
    let mut coord = vec![0u32; dims.len()];
    for cell in 0..cells {
        let mut rest = cell;
        for (c, &d) in coord.iter_mut().zip(dims).rev() {
            *c = (rest % d) as u32;
            rest /= d;
        }
        let v = model.value_at(&coord) + noise * (rng.random::<f64>() - 0.5);
        tensor.push(&coord, v);
    }
    (tensor, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_table1() {
        assert_eq!(YELP.dims, [41_000, 11_000, 75_000]);
        assert_eq!(YELP.nnz, 8_000_000);
        assert_eq!(NELL2.dims, [12_000, 9_000, 29_000]);
        assert_eq!(NELL2.nnz, 77_000_000);
        assert_eq!(ALL_SHAPES.len(), 5);
    }

    #[test]
    fn scaling_preserves_privatization_ratio() {
        // middle mode (sorted dims) over nnz — the quantity SPLATT's
        // privatization heuristic divides
        let ratio = |dims: &[usize], nnz: usize| {
            let mut d = dims.to_vec();
            d.sort_unstable();
            d[1] as f64 / nnz as f64
        };
        let full = ratio(&YELP.dims, YELP.nnz);
        let (dims, nnz) = YELP.scaled(1.0 / 32.0);
        let scaled = ratio(&dims, nnz);
        assert!((full - scaled).abs() / full < 0.05, "{full} vs {scaled}");
    }

    #[test]
    fn generate_respects_scaled_size() {
        let t = YELP.generate(1.0 / 1000.0, 42);
        let (dims, nnz) = YELP.scaled(1.0 / 1000.0);
        assert_eq!(t.dims(), &dims[..]);
        assert_eq!(t.nnz(), nnz);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = NELL2.generate(1.0 / 5000.0, 7);
        let b = NELL2.generate(1.0 / 5000.0, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn power_law_skews_toward_low_indices() {
        let dims = vec![1000, 1000];
        let t = power_law(&dims, 20_000, 3.0, 1);
        let low = t.ind(0).iter().filter(|&&i| i < 100).count();
        // with alpha=3, P(idx < dim/10) = 0.1^(1/3) ≈ 0.46 >> 0.1
        assert!(low > 5_000, "low-index count {low} not skewed");
    }

    #[test]
    fn uniform_is_roughly_flat() {
        let dims = vec![1000, 1000];
        let t = random_uniform(&dims, 50_000, 2);
        let low = t.ind(0).iter().filter(|&&i| i < 100).count();
        assert!((3_000..7_000).contains(&low), "low-index count {low}");
    }

    #[test]
    fn all_indices_in_range() {
        let t = power_law(&[17, 5, 9], 1000, 2.5, 3);
        for m in 0..3 {
            assert!(t.ind(m).iter().all(|&i| (i as usize) < t.dims()[m]));
        }
    }

    #[test]
    fn planted_model_values_match_factors() {
        let (tensor, model) = planted_low_rank(&[6, 7, 8], 3, 50, 0.0, 11);
        for x in 0..tensor.nnz() {
            let coord = tensor.coord(x);
            assert!(
                (tensor.vals()[x] - model.value_at(&coord)).abs() < 1e-12,
                "entry {x} disagrees with planted model"
            );
        }
    }

    #[test]
    fn planted_model_is_coalesced() {
        let (tensor, _) = planted_low_rank(&[3, 3, 3], 2, 200, 0.0, 4);
        let entries = tensor.canonical_entries();
        for w in entries.windows(2) {
            assert_ne!(w[0].0, w[1].0, "duplicate coordinate survived coalesce");
        }
    }

    #[test]
    fn planted_dense_covers_every_cell() {
        let (tensor, model) = planted_dense(&[3, 4, 5], 2, 0.0, 13);
        assert_eq!(tensor.nnz(), 60);
        let entries = tensor.canonical_entries();
        for w in entries.windows(2) {
            assert_ne!(w[0].0, w[1].0, "duplicate cell");
        }
        for x in 0..tensor.nnz() {
            let coord = tensor.coord(x);
            assert!((tensor.vals()[x] - model.value_at(&coord)).abs() < 1e-12);
        }
    }

    #[test]
    fn planted_noise_perturbs_values() {
        let (clean, _) = planted_low_rank(&[5, 5, 5], 2, 60, 0.0, 9);
        let (noisy, model) = planted_low_rank(&[5, 5, 5], 2, 60, 0.5, 9);
        let _ = clean;
        let mut max_dev: f64 = 0.0;
        for x in 0..noisy.nnz() {
            let coord = noisy.coord(x);
            max_dev = max_dev.max((noisy.vals()[x] - model.value_at(&coord)).abs());
        }
        assert!(max_dev > 0.01, "noise had no effect");
    }
}
