//! Static work partitioning.
//!
//! The paper (Section IV-B) notes that Chapel has no analogue of an
//! `omp for` nested inside an `omp parallel`, so the port computes loop
//! bounds per task by hand inside a `coforall`. These helpers are those
//! hand-computed bounds: [`block`] is the `omp for` static schedule, and
//! [`weighted`] is SPLATT's nonzero-balanced partitioning of CSF slices
//! across threads (each task receives a contiguous slice range carrying
//! roughly `nnz / ntasks` nonzeros).

use std::ops::Range;

/// The contiguous index range task `tid` of `ntasks` owns when `n` items
/// are split as evenly as possible (OpenMP static schedule).
///
/// The first `n % ntasks` tasks receive one extra item. Returns an empty
/// range for tasks beyond the item count.
///
/// # Panics
/// Panics if `ntasks == 0` or `tid >= ntasks`.
pub fn block(n: usize, ntasks: usize, tid: usize) -> Range<usize> {
    assert!(ntasks > 0, "block: ntasks must be positive");
    assert!(
        tid < ntasks,
        "block: tid {tid} out of range for {ntasks} tasks"
    );
    let base = n / ntasks;
    let extra = n % ntasks;
    let start = tid * base + tid.min(extra);
    let len = base + usize::from(tid < extra);
    start..(start + len)
}

/// Inclusive prefix sum: `out[i] = w[0] + ... + w[i-1]`, with
/// `out.len() == w.len() + 1` and `out[0] == 0`.
pub fn prefix_sum(weights: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(weights.len() + 1);
    let mut acc = 0usize;
    out.push(0);
    for &w in weights {
        acc += w;
        out.push(acc);
    }
    out
}

/// Partition `prefix.len() - 1` weighted items into `nparts` contiguous
/// parts of approximately equal total weight.
///
/// `prefix` must be an inclusive prefix sum as produced by [`prefix_sum`].
/// Returns `nparts + 1` boundaries `b` such that part `p` owns items
/// `b[p]..b[p+1]`. This is SPLATT's `partition_weighted`, used to hand each
/// MTTKRP task a slice range with a balanced nonzero count rather than a
/// balanced slice count (sparse tensors are wildly skewed per slice).
///
/// # Panics
/// Panics if `nparts == 0` or `prefix` is empty.
pub fn weighted(prefix: &[usize], nparts: usize) -> Vec<usize> {
    assert!(nparts > 0, "weighted: nparts must be positive");
    assert!(!prefix.is_empty(), "weighted: prefix sum must be non-empty");
    let n = prefix.len() - 1;
    let total = *prefix.last().unwrap();
    let mut bounds = Vec::with_capacity(nparts + 1);
    bounds.push(0);
    for p in 1..nparts {
        let target = (total as u128 * p as u128 / nparts as u128) as usize;
        // first index whose prefix weight reaches the target
        let idx = prefix.partition_point(|&w| w < target).min(n);
        let prev = *bounds.last().unwrap();
        // A heavy item straddling the target drags `idx` past it by the
        // item's full weight; cutting *before* that item can sit much
        // closer to the target. Pick whichever boundary is nearer (ties
        // keep the forward cut).
        let idx = if idx > prev && target.abs_diff(prefix[idx - 1]) < target.abs_diff(prefix[idx]) {
            idx - 1
        } else {
            idx
        };
        // keep boundaries monotonic even with zero-weight runs
        bounds.push(idx.max(prev));
    }
    bounds.push(n);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The boundary-cut regression fixture:
    /// 30 light items, one weight-50 slice, 20 light items. The flooring
    /// target for 2 parts is 50; the first prefix reaching it is *past*
    /// the heavy slice (weight 80), while cutting before it leaves
    /// weight 30 — closer to the target. Code without the closer-cut
    /// rule hands one task 80% of the load.
    fn skewed_boundary_weights() -> Vec<usize> {
        let mut w = vec![1usize; 30];
        w.push(50);
        w.extend(std::iter::repeat_n(1, 20));
        w
    }

    fn assert_balanced_cut(b: &[usize], w: &[usize], nparts: usize, max_over_mean: f64) {
        let total: usize = w.iter().sum();
        let loads: Vec<usize> = (0..nparts)
            .map(|k| w[b[k]..b[k + 1]].iter().sum())
            .collect();
        let mean = total as f64 / nparts as f64;
        let max = *loads.iter().max().unwrap() as f64;
        assert!(
            max / mean <= max_over_mean + 1e-9,
            "max/mean load ratio {} too high (loads {loads:?})",
            max / mean
        );
    }

    #[test]
    fn block_covers_everything_exactly_once() {
        for n in [0usize, 1, 7, 100, 101] {
            for ntasks in [1usize, 2, 3, 8, 150] {
                let mut seen = vec![0u32; n];
                for tid in 0..ntasks {
                    for i in block(n, ntasks, tid) {
                        seen[i] += 1;
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "n={n} ntasks={ntasks}");
            }
        }
    }

    #[test]
    fn block_is_balanced() {
        for tid in 0..4 {
            let r = block(10, 4, tid);
            let len = r.end - r.start;
            assert!(len == 2 || len == 3);
        }
    }

    #[test]
    fn block_more_tasks_than_items() {
        let mut nonempty = 0;
        for tid in 0..10 {
            let r = block(3, 10, tid);
            if !r.is_empty() {
                nonempty += 1;
                assert_eq!(r.end - r.start, 1);
            }
        }
        assert_eq!(nonempty, 3);
    }

    #[test]
    fn block_single_task_owns_all() {
        assert_eq!(block(42, 1, 0), 0..42);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_bad_tid_panics() {
        let _ = block(5, 2, 2);
    }

    #[test]
    fn prefix_sum_basic() {
        assert_eq!(prefix_sum(&[3, 1, 4]), vec![0, 3, 4, 8]);
        assert_eq!(prefix_sum(&[]), vec![0]);
    }

    #[test]
    fn weighted_boundaries_are_monotonic_and_cover() {
        let w = [5usize, 1, 1, 1, 1, 1, 10, 1, 1, 1];
        let p = prefix_sum(&w);
        let b = weighted(&p, 3);
        assert_eq!(b.len(), 4);
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), w.len());
        for k in 1..b.len() {
            assert!(b[k] >= b[k - 1]);
        }
    }

    #[test]
    fn weighted_balances_skewed_weights() {
        // one heavy item among light ones: the heavy item must not share a
        // part with many light ones on both sides
        let w = [1usize, 1, 1, 100, 1, 1, 1, 1];
        let p = prefix_sum(&w);
        let b = weighted(&p, 2);
        // the split should land right after or at the heavy item
        let part0: usize = w[b[0]..b[1]].iter().sum();
        let part1: usize = w[b[1]..b[2]].iter().sum();
        assert!(part0.max(part1) <= 103, "parts {part0}/{part1}");
    }

    #[test]
    fn weighted_uniform_weights_match_block() {
        let w = vec![1usize; 100];
        let p = prefix_sum(&w);
        let b = weighted(&p, 4);
        assert_eq!(b, vec![0, 25, 50, 75, 100]);
    }

    #[test]
    fn weighted_more_parts_than_items() {
        let w = [7usize, 7];
        let p = prefix_sum(&w);
        let b = weighted(&p, 5);
        assert_eq!(b.len(), 6);
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 2);
        for k in 1..b.len() {
            assert!(b[k] >= b[k - 1]);
        }
    }

    #[test]
    fn weighted_heavy_boundary_slice_takes_closer_cut() {
        // The old code always took the forward cut, handing one task 80%
        // of the load (see `skewed_boundary_weights`).
        let w = skewed_boundary_weights();
        let p = prefix_sum(&w);
        let b = weighted(&p, 2);
        assert_eq!(b, vec![0, 30, 51]);
        assert_balanced_cut(&b, &w, 2, 1.4);
    }

    #[test]
    fn weighted_exact_targets_keep_forward_cut() {
        // uniform weights hit every target exactly; the closer-cut rule
        // must not move those boundaries
        let w = vec![2usize; 50];
        let p = prefix_sum(&w);
        assert_eq!(weighted(&p, 5), vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn weighted_all_zero_weights() {
        let w = [0usize; 6];
        let p = prefix_sum(&w);
        let b = weighted(&p, 3);
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 6);
    }

    #[test]
    fn weighted_empty_items() {
        let p = prefix_sum(&[]);
        let b = weighted(&p, 4);
        assert_eq!(b, vec![0, 0, 0, 0, 0]);
    }
}
