//! Flat row-major dense matrix.
//!
//! SPLATT stores factor matrices as a single `val` array of length
//! `I * J` in row-major order and hands kernels raw row pointers
//! (`vals + i * J`). [`Matrix`] keeps the same layout so the MTTKRP access
//! strategies studied in the paper (row copies vs. 2D indexing vs. pointer
//! arithmetic) are meaningful distinctions over identical memory.

use splatt_rt::rng::{RngExt, SeedableRng, StdRng};
use std::fmt;

/// A dense row-major `f64` matrix.
///
/// The backing storage is a single `Vec<f64>` of length `rows * cols`;
/// element `(i, j)` lives at `data[i * cols + j]`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create the `n x n` identity matrix.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a generator function over `(row, col)`.
    #[cfg(test)]
    pub(crate) fn from_fn(
        rows: usize,
        cols: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build a matrix from an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Uniform random entries in `[0, 1)`, seeded for reproducibility.
    ///
    /// This is how SPLATT initializes factor matrices (`mat_rand`).
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.random::<f64>()).collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix has no elements.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The backing row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The backing row-major slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `i` as a slice of length `cols`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        let start = i * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Row `i` as a mutable slice of length `cols`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let start = i * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Copy of row `i` as an owned vector.
    ///
    /// This is the "array slicing" analogue used by the `RowCopy` MTTKRP
    /// access strategy: every row access materializes a fresh allocation,
    /// mimicking the descriptor/domain setup cost of a Chapel array view.
    pub(crate) fn row_copy(&self, i: usize) -> Vec<f64> {
        self.row(i).to_vec()
    }

    /// Set every element to `value`.
    pub(crate) fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Frobenius norm (`sqrt(sum of squares)`).
    pub(crate) fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Maximum absolute element-wise difference with `other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// `true` when all elements differ from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape() && self.max_abs_diff(other) <= tol
    }

    /// Add `other` element-wise into `self`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    #[cfg(test)]
    pub(crate) fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Scale all elements by `s`.
    pub(crate) fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            write!(f, "  [")?;
            let cols = self.cols.min(8);
            for j in 0..cols {
                write!(f, "{:>10.4}", self[(i, j)])?;
                if j + 1 < cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_contents() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_diagonal() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = Matrix::zeros(2, 2);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m[(1, 0)], 7.0);
    }

    #[test]
    fn row_copy_is_independent() {
        let mut m = Matrix::filled(2, 2, 1.0);
        let copy = m.row_copy(0);
        m.row_mut(0)[0] = 9.0;
        assert_eq!(copy, vec![1.0, 1.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::random(5, 3, 42);
        assert!(m.transpose().transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn transpose_moves_elements() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        for i in 0..2 {
            for j in 0..3 {
                assert_eq!(t[(j, i)], m[(i, j)]);
            }
        }
    }

    #[test]
    fn random_is_reproducible() {
        let a = Matrix::random(4, 4, 7);
        let b = Matrix::random(4, 4, 7);
        assert_eq!(a, b);
        let c = Matrix::random(4, 4, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn random_entries_in_unit_interval() {
        let m = Matrix::random(10, 10, 1);
        assert!(m.as_slice().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn frobenius_norm_of_unit_rows() {
        let m = Matrix::filled(2, 2, 1.0);
        assert!((m.frobenius_norm() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.add_assign(&b);
        a.scale(0.5);
        assert!(a.approx_eq(&Matrix::filled(2, 2, 1.5), 0.0));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_bad_length_panics() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn empty_matrix_is_well_behaved() {
        let m = Matrix::zeros(0, 5);
        assert!(m.is_empty());
        assert_eq!(m.frobenius_norm(), 0.0);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 0));
    }
}
