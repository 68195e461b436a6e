//! Per-thread scratch buffers (SPLATT's `thd_info`).
//!
//! The work-sharing pattern in the paper's Listing 7 — every thread owns a
//! private accumulation buffer, iterates its slice of the shared data, then
//! the buffers are reduced — needs per-thread storage that (a) is reused
//! across many parallel regions (allocation inside hot loops was one of the
//! paper's sorting bottlenecks) and (b) does not false-share cache lines
//! between threads.

use splatt_rt::sync::{CachePadded, Mutex};

/// A set of `ntasks` equally-sized `f64` buffers, one per task, padded to
/// cache-line boundaries.
///
/// Buffers are wrapped in uncontended mutexes: each task locks only its own
/// buffer (`tid`-indexed), so acquisition is a single uncontended atomic —
/// negligible next to the buffer-sized work done under it — while keeping
/// the API safe for use inside [`crate::TaskTeam::coforall`].
pub struct ThreadScratch {
    bufs: Vec<CachePadded<Mutex<Vec<f64>>>>,
    len: usize,
}

impl ThreadScratch {
    /// Allocate `ntasks` zeroed buffers of `len` elements each.
    pub fn new(ntasks: usize, len: usize) -> Self {
        ThreadScratch {
            bufs: (0..ntasks)
                .map(|_| CachePadded::new(Mutex::new(vec![0.0; len])))
                .collect(),
            len,
        }
    }

    /// Run `f` with mutable access to task `tid`'s buffer.
    pub fn with_mut<R>(&self, tid: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
        let mut guard = self.bufs[tid].lock();
        f(&mut guard)
    }

    /// Zero every buffer.
    pub fn reset(&self) {
        for b in &self.bufs {
            b.lock().fill(0.0);
        }
    }

    /// Ensure each buffer holds at least `len` elements, growing (zeroed)
    /// if needed. Shrinks never happen, mirroring SPLATT's grow-only
    /// `thd_info` reallocation.
    ///
    /// Returns the number of bytes newly allocated across all task
    /// buffers — `0` when the buffers were already large enough — so
    /// callers can feed allocation accounting only on actual growth and
    /// verify the steady state allocates nothing.
    pub fn ensure_len(&mut self, len: usize) -> usize {
        if len > self.len {
            for b in &mut self.bufs {
                b.get_mut().resize(len, 0.0);
            }
            let grown = (len - self.len) * self.bufs.len() * std::mem::size_of::<f64>();
            self.len = len;
            grown
        } else {
            0
        }
    }

    /// Element-wise sum of all task buffers into `out`
    /// (`out[i] = sum_t buf[t][i]`). `out` is overwritten.
    ///
    /// # Panics
    /// Panics if `out.len() > self.len()`.
    pub fn reduce_sum_into(&self, out: &mut [f64]) {
        assert!(
            out.len() <= self.len,
            "reduce_sum_into: out length {} exceeds buffer length {}",
            out.len(),
            self.len
        );
        out.fill(0.0);
        for b in &self.bufs {
            let buf = b.lock();
            for (o, &v) in out.iter_mut().zip(buf.iter()) {
                *o += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskTeam;

    #[test]
    fn buffers_start_zeroed() {
        let s = ThreadScratch::new(3, 8);
        let mut out = vec![1.0; 8];
        s.reduce_sum_into(&mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn with_mut_isolates_tasks() {
        let s = ThreadScratch::new(2, 4);
        s.with_mut(0, |b| b.fill(1.0));
        s.with_mut(1, |b| b.fill(2.0));
        let mut out = vec![0.0; 4];
        s.reduce_sum_into(&mut out);
        assert_eq!(out, vec![3.0; 4]);
    }

    #[test]
    fn reset_clears_all() {
        let s = ThreadScratch::new(2, 4);
        s.with_mut(0, |b| b.fill(5.0));
        s.reset();
        let mut out = vec![0.0; 4];
        s.reduce_sum_into(&mut out);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn ensure_len_grows_and_preserves() {
        let mut s = ThreadScratch::new(2, 2);
        s.with_mut(0, |b| b[1] = 3.0);
        // growth reports the newly allocated bytes across both buffers
        assert_eq!(s.ensure_len(5), 3 * 2 * std::mem::size_of::<f64>());
        assert_eq!(s.len, 5);
        s.with_mut(0, |b| {
            assert_eq!(b.len(), 5);
            assert_eq!(b[1], 3.0);
            assert_eq!(b[4], 0.0);
        });
        // shrink request is ignored and allocates nothing
        assert_eq!(s.ensure_len(1), 0);
        assert_eq!(s.len, 5);
        // re-requesting the current size is also allocation-free
        assert_eq!(s.ensure_len(5), 0);
    }

    #[test]
    fn concurrent_accumulation_under_coforall() {
        let ntasks = 4;
        let team = TaskTeam::new(ntasks);
        let s = ThreadScratch::new(ntasks, 16);
        team.coforall(|tid| {
            s.with_mut(tid, |b| {
                for v in b.iter_mut() {
                    *v += (tid + 1) as f64;
                }
            });
        });
        let mut out = vec![0.0; 16];
        s.reduce_sum_into(&mut out);
        assert!(out.iter().all(|&v| v == 10.0)); // 1+2+3+4
    }

    #[test]
    #[should_panic(expected = "exceeds buffer length")]
    fn reduce_into_oversized_out_panics() {
        let s = ThreadScratch::new(1, 2);
        let mut out = vec![0.0; 3];
        s.reduce_sum_into(&mut out);
    }
}
