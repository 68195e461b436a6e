//! The Kruskal (rank-decomposed) model produced by CP-ALS.

use crate::reference::kruskal_value;
use splatt_dense::Matrix;
use splatt_tensor::SparseTensor;

/// Most elements a model decoder reserves on the word of a count it read
/// from untrusted bytes (an order, a row count).
const RESERVE_CAP: usize = 1 << 8;

/// An empty vector for `claimed` elements, a count read from untrusted
/// bytes: at most [`RESERVE_CAP`] are reserved up front and the rest grow
/// as the values arrive, so a crafted header fails at its first missing
/// line instead of reserving what the bytes present could never fill.
pub(crate) fn with_claimed_capacity<T>(claimed: usize) -> Vec<T> {
    Vec::with_capacity(claimed.min(RESERVE_CAP))
}

/// A rank-`R` Kruskal tensor: weights `lambda` and one column-normalized
/// factor matrix per mode. The modeled value at coordinate `(i_1..i_N)` is
/// `sum_r lambda[r] * prod_m factors[m][i_m][r]`.
#[derive(Debug, Clone, PartialEq)]
pub struct KruskalModel {
    /// Component weights (column norms absorbed during ALS).
    pub lambda: Vec<f64>,
    /// One `dims[m] x rank` factor matrix per mode.
    pub factors: Vec<Matrix>,
}

impl KruskalModel {
    /// Decomposition rank.
    pub fn rank(&self) -> usize {
        self.lambda.len()
    }

    /// Number of modes.
    pub fn order(&self) -> usize {
        self.factors.len()
    }

    /// Modeled value at one coordinate.
    pub fn value_at(&self, coord: &[u32]) -> f64 {
        kruskal_value(&self.lambda, &self.factors, coord)
    }

    /// Component indices sorted by descending weight — "top components"
    /// for pattern-extraction use cases (the paper's motivating
    /// application domain).
    pub fn components_by_weight(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.rank()).collect();
        idx.sort_by(|&a, &b| self.lambda[b].total_cmp(&self.lambda[a]));
        idx
    }

    /// The `top_k` highest-loading row indices of component `r` in mode
    /// `m` — e.g. "which users load on this pattern".
    pub fn top_rows(&self, m: usize, r: usize, top_k: usize) -> Vec<(usize, f64)> {
        let f = &self.factors[m];
        let mut rows: Vec<(usize, f64)> = (0..f.rows()).map(|i| (i, f[(i, r)])).collect();
        rows.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        rows.truncate(top_k);
        rows
    }

    /// Exact fit of this model against a sparse tensor, computed naively:
    /// `1 - ||X - Z||_F / ||X||_F`, where the residual norm accounts for
    /// both the stored nonzeros and the model's mass on zero entries.
    /// Assumes coalesced input (duplicate coordinates skew `||X||`).
    ///
    /// `||X - Z||^2 = ||X||^2 - 2 <X, Z> + ||Z||^2`, with `<X, Z>` summed
    /// over stored nonzeros and `||Z||^2` computed from the factor
    /// Gramians — exact and cheap even for large sparse tensors.
    pub fn fit_to(&self, tensor: &SparseTensor) -> f64 {
        let norm_x_sq = tensor.norm_squared();
        if norm_x_sq == 0.0 {
            return 0.0;
        }
        let inner: f64 = (0..tensor.nnz())
            .map(|x| tensor.vals()[x] * self.value_at(&tensor.coord(x)))
            .sum();
        let norm_z_sq = self.norm_squared();
        let residual_sq = (norm_x_sq - 2.0 * inner + norm_z_sq).max(0.0);
        1.0 - (residual_sq.sqrt() / norm_x_sq.sqrt())
    }

    /// Serialize the model as plain text: a header line
    /// `splatt-kruskal <rank> <order>`, the lambda vector, then each
    /// factor as `mode <rows> <cols>` followed by its rows.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn write(&self, w: impl std::io::Write) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut w = std::io::BufWriter::new(w);
        writeln!(w, "splatt-kruskal {} {}", self.rank(), self.order())?;
        let lambda: Vec<String> = self.lambda.iter().map(|l| format!("{l:.17e}")).collect();
        writeln!(w, "{}", lambda.join(" "))?;
        for f in &self.factors {
            writeln!(w, "mode {} {}", f.rows(), f.cols())?;
            for i in 0..f.rows() {
                let row: Vec<String> = f.row(i).iter().map(|v| format!("{v:.17e}")).collect();
                writeln!(w, "{}", row.join(" "))?;
            }
        }
        w.flush()
    }

    /// Parse a model written by [`KruskalModel::write`].
    ///
    /// # Errors
    /// Returns `InvalidData` on any malformed content.
    pub fn read(r: impl std::io::Read) -> std::io::Result<KruskalModel> {
        use std::io::{BufRead, BufReader, Error, ErrorKind};
        let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_string());
        let mut lines = BufReader::new(r).lines();
        let mut next = || -> std::io::Result<String> {
            lines
                .next()
                .ok_or_else(|| bad("unexpected end of model file"))?
        };

        let header = next()?;
        let parts: Vec<&str> = header.split_whitespace().collect();
        if parts.len() != 3 || parts[0] != "splatt-kruskal" {
            return Err(bad("missing splatt-kruskal header"));
        }
        let rank: usize = parts[1].parse().map_err(|_| bad("bad rank"))?;
        let order: usize = parts[2].parse().map_err(|_| bad("bad order"))?;

        let lambda: Vec<f64> = next()?
            .split_whitespace()
            .map(|t| t.parse().map_err(|_| bad("bad lambda value")))
            .collect::<Result<_, _>>()?;
        if lambda.len() != rank {
            return Err(bad("lambda length does not match rank"));
        }

        let mut factors = with_claimed_capacity(order);
        for _ in 0..order {
            let head = next()?;
            let parts: Vec<&str> = head.split_whitespace().collect();
            if parts.len() != 3 || parts[0] != "mode" {
                return Err(bad("missing mode header"));
            }
            let rows: usize = parts[1].parse().map_err(|_| bad("bad row count"))?;
            let cols: usize = parts[2].parse().map_err(|_| bad("bad col count"))?;
            if cols != rank {
                return Err(bad("factor columns do not match rank"));
            }
            let mut data = with_claimed_capacity(rows.saturating_mul(cols));
            for _ in 0..rows {
                let line = next()?;
                let before = data.len();
                for t in line.split_whitespace() {
                    data.push(t.parse().map_err(|_| bad("bad factor value"))?);
                }
                if data.len() - before != cols {
                    return Err(bad("wrong number of values in factor row"));
                }
            }
            factors.push(Matrix::from_vec(rows, cols, data));
        }
        Ok(KruskalModel { lambda, factors })
    }

    /// `||Z||^2` via the Hadamard product of factor Gramians:
    /// `lambda^T (hadamard_m A_m^T A_m) lambda`.
    ///
    /// Single pass over the factors: both the running Hadamard product
    /// and the per-mode Gramian live in one packed upper-triangle buffer
    /// each (the Gramian is symmetric, so only `r <= s` is stored and the
    /// final bilinear form counts each off-diagonal entry twice). No
    /// `rank x rank` matrices are materialized.
    pub fn norm_squared(&self) -> f64 {
        let rank = self.rank();
        let packed = rank * (rank + 1) / 2;
        let mut had = vec![1.0; packed];
        let mut gram = vec![0.0; packed];
        for f in &self.factors {
            gram.iter_mut().for_each(|g| *g = 0.0);
            for i in 0..f.rows() {
                let row = f.row(i);
                let mut p = 0;
                for r in 0..rank {
                    let fr = row[r];
                    for &fs in &row[r..] {
                        gram[p] += fr * fs;
                        p += 1;
                    }
                }
            }
            for (h, &g) in had.iter_mut().zip(&gram) {
                *h *= g;
            }
        }
        let mut total = 0.0;
        let mut p = 0;
        for r in 0..rank {
            let lr = self.lambda[r];
            total += lr * had[p] * lr;
            p += 1;
            for s in r + 1..rank {
                total += 2.0 * (lr * had[p] * self.lambda[s]);
                p += 1;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank1_model() -> KruskalModel {
        // Z = 2 * a ⊗ b with a = [1, 0], b = [0, 1] -> Z[0][1] = 2
        KruskalModel {
            lambda: vec![2.0],
            factors: vec![
                Matrix::from_vec(2, 1, vec![1.0, 0.0]),
                Matrix::from_vec(2, 1, vec![0.0, 1.0]),
            ],
        }
    }

    #[test]
    fn value_at_rank1() {
        let m = rank1_model();
        assert_eq!(m.value_at(&[0, 1]), 2.0);
        assert_eq!(m.value_at(&[1, 1]), 0.0);
    }

    #[test]
    fn norm_squared_matches_dense_sum() {
        let m = rank1_model();
        // dense Z has a single entry 2 -> ||Z||^2 = 4
        assert!((m.norm_squared() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn norm_squared_matches_dense_oracle_on_random_model() {
        // Regression pin for the single-pass Gramian path: reconstruct the
        // full dense tensor and sum squares the slow way.
        let m = KruskalModel {
            lambda: vec![1.5, -0.75, 0.3],
            factors: vec![
                Matrix::random(4, 3, 21),
                Matrix::random(3, 3, 22),
                Matrix::random(5, 3, 23),
            ],
        };
        let mut dense_sq = 0.0;
        for i in 0..4u32 {
            for j in 0..3u32 {
                for k in 0..5u32 {
                    let v = m.value_at(&[i, j, k]);
                    dense_sq += v * v;
                }
            }
        }
        let got = m.norm_squared();
        assert!(
            (got - dense_sq).abs() <= 1e-12 * dense_sq.max(1.0),
            "norm_squared {got} vs dense oracle {dense_sq}"
        );
        // Degenerate shapes stay finite and exact.
        let empty = KruskalModel {
            lambda: vec![],
            factors: vec![Matrix::zeros(2, 0), Matrix::zeros(3, 0)],
        };
        assert_eq!(empty.norm_squared(), 0.0);
    }

    #[test]
    fn perfect_fit_is_one() {
        let m = rank1_model();
        let t = SparseTensor::from_entries(vec![2, 2], &[(vec![0, 1], 2.0)]);
        assert!((m.fit_to(&t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_model_fit_is_zero() {
        let m = KruskalModel {
            lambda: vec![0.0],
            factors: vec![Matrix::zeros(2, 1), Matrix::zeros(2, 1)],
        };
        let t = SparseTensor::from_entries(vec![2, 2], &[(vec![0, 0], 3.0)]);
        assert!((m.fit_to(&t) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn components_sorted_by_weight() {
        let m = KruskalModel {
            lambda: vec![1.0, 5.0, 3.0],
            factors: vec![Matrix::zeros(2, 3), Matrix::zeros(2, 3)],
        };
        assert_eq!(m.components_by_weight(), vec![1, 2, 0]);
    }

    #[test]
    fn write_read_roundtrip() {
        let m = KruskalModel {
            lambda: vec![2.5, 0.125],
            factors: vec![
                Matrix::random(4, 2, 1),
                Matrix::random(3, 2, 2),
                Matrix::random(5, 2, 3),
            ],
        };
        let mut buf = Vec::new();
        m.write(&mut buf).unwrap();
        let back = KruskalModel::read(buf.as_slice()).unwrap();
        assert_eq!(back.lambda, m.lambda);
        for (a, b) in back.factors.iter().zip(&m.factors) {
            assert!(a.approx_eq(b, 0.0));
        }
    }

    #[test]
    fn read_rejects_garbage() {
        assert!(KruskalModel::read("not a model".as_bytes()).is_err());
        assert!(KruskalModel::read("splatt-kruskal 2 3\n1.0\n".as_bytes()).is_err());
        // truncated factor section
        let partial = "splatt-kruskal 1 2\n1.0\nmode 2 1\n0.5\n";
        assert!(KruskalModel::read(partial.as_bytes()).is_err());
    }

    #[test]
    fn read_rejects_rank_mismatch() {
        let text = "splatt-kruskal 2 1\n1.0 2.0\nmode 2 3\n1 2 3\n4 5 6\n";
        assert!(KruskalModel::read(text.as_bytes()).is_err());
    }

    #[test]
    fn top_rows_orders_by_magnitude() {
        let m = KruskalModel {
            lambda: vec![1.0],
            factors: vec![
                Matrix::from_vec(3, 1, vec![0.1, -0.9, 0.5]),
                Matrix::zeros(2, 1),
            ],
        };
        let top = m.top_rows(0, 0, 2);
        assert_eq!(top[0].0, 1);
        assert_eq!(top[1].0, 2);
    }
}
