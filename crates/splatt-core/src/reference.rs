//! Naive coordinate-format reference kernels.
//!
//! These are the textbook `O(nnz * rank * order)` formulations, written
//! for obviousness rather than speed. Every optimized kernel in this crate
//! is validated against them in unit, integration, and property tests;
//! they also serve as the "no data structure" baseline in the benchmark
//! ablations.

use crate::dense::Matrix;
use splatt_tensor::SparseTensor;

/// MTTKRP straight off the COO representation:
/// `out[i_mode][r] += val * prod_{m != mode} factors[m][i_m][r]`.
///
/// # Panics
/// Panics if factor shapes disagree with the tensor.
pub fn mttkrp_coo(tensor: &SparseTensor, factors: &[Matrix], mode: usize) -> Matrix {
    let order = tensor.order();
    assert!(mode < order, "mode out of range");
    assert_eq!(factors.len(), order, "one factor per mode required");
    let rank = factors[0].cols();
    for (m, f) in factors.iter().enumerate() {
        assert_eq!(f.rows(), tensor.dims()[m], "factor {m} rows mismatch");
        assert_eq!(f.cols(), rank, "factor {m} rank mismatch");
    }
    let mut out = Matrix::zeros(tensor.dims()[mode], rank);
    let mut prod = vec![0.0; rank];
    for x in 0..tensor.nnz() {
        let v = tensor.vals()[x];
        prod.iter_mut().for_each(|p| *p = v);
        for (m, factor) in factors.iter().enumerate() {
            if m == mode {
                continue;
            }
            let row = factor.row(tensor.ind(m)[x] as usize);
            for (p, &f) in prod.iter_mut().zip(row) {
                *p *= f;
            }
        }
        let orow = out.row_mut(tensor.ind(mode)[x] as usize);
        for (o, &p) in orow.iter_mut().zip(&prod) {
            *o += p;
        }
    }
    out
}

/// Dense reconstruction value of a Kruskal model (`lambda`, `factors`) at
/// one coordinate: `sum_r lambda[r] * prod_m factors[m][i_m][r]`.
pub fn kruskal_value(lambda: &[f64], factors: &[Matrix], coord: &[u32]) -> f64 {
    let rank = lambda.len();
    (0..rank)
        .map(|r| {
            lambda[r]
                * coord
                    .iter()
                    .enumerate()
                    .map(|(m, &i)| factors[m][(i as usize, r)])
                    .product::<f64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mttkrp_hand_computed_example() {
        // X with two nonzeros; rank-1 factors of ones scaled per mode.
        let t = SparseTensor::from_entries(
            vec![2, 2, 2],
            &[(vec![0, 1, 0], 2.0), (vec![1, 1, 1], 3.0)],
        );
        let factors = vec![
            Matrix::filled(2, 1, 2.0),
            Matrix::filled(2, 1, 3.0),
            Matrix::filled(2, 1, 5.0),
        ];
        // mode 0: out[0] = 2 * B[1]*C[0] = 2*3*5 = 30; out[1] = 3*3*5 = 45
        let out = mttkrp_coo(&t, &factors, 0);
        assert_eq!(out[(0, 0)], 30.0);
        assert_eq!(out[(1, 0)], 45.0);
        // mode 2: out[0] = 2 * A[0]*B[1] = 2*2*3 = 12; out[1] = 3*2*3 = 18
        let out = mttkrp_coo(&t, &factors, 2);
        assert_eq!(out[(0, 0)], 12.0);
        assert_eq!(out[(1, 0)], 18.0);
    }

    #[test]
    fn mttkrp_accumulates_duplicate_output_rows() {
        let t = SparseTensor::from_entries(
            vec![1, 2, 2],
            &[(vec![0, 0, 0], 1.0), (vec![0, 1, 1], 1.0)],
        );
        let factors = vec![
            Matrix::filled(1, 2, 1.0),
            Matrix::filled(2, 2, 1.0),
            Matrix::filled(2, 2, 1.0),
        ];
        let out = mttkrp_coo(&t, &factors, 0);
        assert_eq!(out[(0, 0)], 2.0);
        assert_eq!(out[(0, 1)], 2.0);
    }

    #[test]
    fn kruskal_value_matches_rank_sum() {
        let factors = vec![
            Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]),
            Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]),
        ];
        let lambda = vec![2.0, 0.5];
        // coord (1,0): 2*3*5 + 0.5*4*6 = 30 + 12 = 42
        assert_eq!(kruskal_value(&lambda, &factors, &[1, 0]), 42.0);
    }

    #[test]
    #[should_panic(expected = "mode out of range")]
    fn bad_mode_panics() {
        let t = SparseTensor::new(vec![2, 2]);
        let f = vec![Matrix::zeros(2, 1), Matrix::zeros(2, 1)];
        let _ = mttkrp_coo(&t, &f, 2);
    }
}
