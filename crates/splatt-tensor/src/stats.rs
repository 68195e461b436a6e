//! Data set summaries in the shape of the paper's Table I.

use crate::SparseTensor;
use std::fmt;

/// Summary statistics for a sparse tensor (the columns of Table I, plus a
/// couple of skew measures useful for interpreting load balance).
#[derive(Debug, Clone, PartialEq)]
pub struct TensorStats {
    /// Mode dimensions.
    pub dims: Vec<usize>,
    /// Stored nonzero count.
    pub nnz: usize,
    /// `nnz / prod(dims)`.
    pub density: f64,
    /// Approximate size of the COO representation in memory, in bytes
    /// (`order` u32 indices + one f64 value per nonzero). The paper's
    /// "Size on Disk" column is the text file; this is the loaded size.
    pub coo_bytes: usize,
    /// Per-mode maximum slice nonzero count (load-imbalance indicator).
    pub max_slice_nnz: Vec<usize>,
    /// Per-mode mean nonzero count over *nonempty* slices.
    pub mean_slice_nnz: Vec<f64>,
}

impl TensorStats {
    /// Compute statistics for `t`.
    pub fn compute(t: &SparseTensor) -> Self {
        let order = t.order();
        let mut max_slice_nnz = Vec::with_capacity(order);
        let mut mean_slice_nnz = Vec::with_capacity(order);
        for m in 0..order {
            let mut counts = vec![0usize; t.dims()[m]];
            for &i in t.ind(m) {
                counts[i as usize] += 1;
            }
            let max = counts.iter().copied().max().unwrap_or(0);
            let nonempty = counts.iter().filter(|&&c| c > 0).count();
            max_slice_nnz.push(max);
            mean_slice_nnz.push(if nonempty > 0 {
                t.nnz() as f64 / nonempty as f64
            } else {
                0.0
            });
        }
        TensorStats {
            dims: t.dims().to_vec(),
            nnz: t.nnz(),
            density: t.density(),
            coo_bytes: t.nnz() * (order * 4 + 8),
            max_slice_nnz,
            mean_slice_nnz,
        }
    }

    /// Dimensions rendered like Table I ("41k x 11k x 75k").
    pub(crate) fn dims_human(&self) -> String {
        self.dims
            .iter()
            .map(|&d| human_count(d))
            .collect::<Vec<_>>()
            .join(" x ")
    }
}

/// Render a count with k/M suffixes like the paper's Table I.
pub(crate) fn human_count(n: usize) -> String {
    if n >= 10_000_000 {
        format!("{}M", n / 1_000_000)
    } else if n >= 10_000 {
        format!("{}k", n / 1_000)
    } else {
        format!("{n}")
    }
}

/// Render a byte count with MB/GB suffixes.
pub fn human_bytes(n: usize) -> String {
    const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    const MB: f64 = 1024.0 * 1024.0;
    let f = n as f64;
    if f >= GB {
        format!("{:.2} GB", f / GB)
    } else if f >= MB {
        format!("{:.0} MB", f / MB)
    } else {
        format!("{:.0} KB", f / 1024.0)
    }
}

impl fmt::Display for TensorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} | nnz {} | density {:.2e} | {} in memory",
            self.dims_human(),
            human_count(self.nnz),
            self.density,
            human_bytes(self.coo_bytes),
        )?;
        for (m, (&max, &mean)) in self
            .max_slice_nnz
            .iter()
            .zip(&self.mean_slice_nnz)
            .enumerate()
        {
            writeln!(f, "  mode {m}: max slice nnz {max}, mean {mean:.1}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    #[test]
    fn stats_of_known_tensor() {
        let t = SparseTensor::from_entries(
            vec![2, 3, 4],
            &[
                (vec![0, 0, 0], 1.0),
                (vec![0, 1, 1], 1.0),
                (vec![1, 2, 3], 1.0),
            ],
        );
        let s = TensorStats::compute(&t);
        assert_eq!(s.nnz, 3);
        assert_eq!(s.dims, vec![2, 3, 4]);
        assert!((s.density - 3.0 / 24.0).abs() < 1e-15);
        assert_eq!(s.coo_bytes, 3 * (3 * 4 + 8));
        assert_eq!(s.max_slice_nnz[0], 2); // slice 0 of mode 0 holds 2 nnz
        assert_eq!(s.max_slice_nnz[1], 1);
    }

    #[test]
    fn mean_over_nonempty_slices() {
        let t = SparseTensor::from_entries(
            vec![10, 2],
            &[(vec![0, 0], 1.0), (vec![0, 1], 1.0), (vec![9, 0], 1.0)],
        );
        let s = TensorStats::compute(&t);
        // mode 0: slices {0: 2, 9: 1} nonempty -> mean 1.5
        assert!((s.mean_slice_nnz[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_tensor_stats() {
        let t = SparseTensor::new(vec![3, 3]);
        let s = TensorStats::compute(&t);
        assert_eq!(s.nnz, 0);
        assert_eq!(s.max_slice_nnz, vec![0, 0]);
        assert_eq!(s.mean_slice_nnz, vec![0.0, 0.0]);
    }

    #[test]
    fn human_count_formats() {
        assert_eq!(human_count(999), "999");
        assert_eq!(human_count(41_000), "41k");
        assert_eq!(human_count(77_000_000), "77M");
    }

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(2048), "2 KB");
        assert_eq!(human_bytes(240 * 1024 * 1024), "240 MB");
        assert_eq!(
            human_bytes(2 * 1024 * 1024 * 1024 + 300 * 1024 * 1024),
            "2.29 GB"
        );
    }

    #[test]
    fn display_contains_density() {
        let t = synth::random_uniform(&[10, 10, 10], 100, 1);
        let s = format!("{}", TensorStats::compute(&t));
        assert!(s.contains("density"));
        assert!(s.contains("mode 2"));
    }
}
