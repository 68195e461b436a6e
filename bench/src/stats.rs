//! Order statistics for timing samples.
//!
//! A gated value is never a mean, and — a finding of this benchmark, not
//! a preference — not a median of a few repetitions either. The sandbox
//! is a microVM on a shared host: interference only ever adds time, and
//! it arrives in bursts of seconds to minutes (a 0.14 s MTTKRP triple
//! read 0.137-0.140 s in every quiet 5 s window and 0.234 s throughout a
//! noisy one; a serving run can spend 16 of its 20 s at half speed). Over
//! ten identical runs in a noisy half hour the median 2 s serving segment
//! moved 15-32 %, the best 5-6 %; the median refresh round 23 %, the
//! second best 5 %; the median of 4-5 `cp_als` calls 15-24 %, the fastest
//! 12-14 %. So every gated value is the **quiet decile** of its
//! repetitions: the nearest-rank 10th percentile of times
//! ([`quiet_time`]), the 90th of rates ([`quiet_rate`]) — the best of up
//! to ten repetitions, the second best of up to twenty. Medians stay
//! where samples are many and the question is the distribution itself
//! (request latency inside a segment, per-layer spans).

/// `v` in ascending order.
///
/// # Panics
/// Panics on a NaN sample: a timing is never one.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

/// Median of `v` (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile of an ascending-sorted slice; `p` in `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Does `n` samples support percentile `p` — are at least ten samples
/// beyond it (choosing-metrics §1)?
pub fn supports_percentile(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p) >= 10.0
}

/// First quartile, median, third quartile — the method of Python's
/// `statistics.quantiles(v, n=4)` (exclusive), which is what the driver
/// computes spreads with. Fewer than two samples have no spread: all
/// three are the sample.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    assert!(!v.is_empty(), "quartiles of no samples");
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        return (s[0], s[0], s[0]);
    }
    let q = |i: usize| {
        // position i*(n+1)/4, 1-based, linearly interpolated and clamped
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + delta * (s[j] - s[j - 1])
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median (0 when the median is 0).
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The quiet decile of repeated timings: the nearest-rank 10th
/// percentile (the fastest of up to ten repetitions, the second fastest
/// of eleven to twenty, ...).
pub fn quiet_time(v: &[f64]) -> f64 {
    percentile_sorted(&sorted(v), 0.10)
}

/// The quiet decile of repeated rates: what [`quiet_time`] is for times,
/// from the top.
pub fn quiet_rate(v: &[f64]) -> f64 {
    let mut s = sorted(v);
    s.reverse();
    percentile_sorted(&s, 0.10)
}

/// Latencies one closed-loop client observed inside the timed window, in
/// completion order, four bytes each: a run's memory must not grow with
/// how fast the program answered (16-byte samples in a doubling `Vec`
/// made `peak_rss_mb` follow the request count).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LoopSamples {
    /// Latency of each request, nanoseconds (saturating at 4.29 s).
    pub lat_ns: Vec<u32>,
    /// Requests completed in each time segment.
    pub seg_counts: Vec<usize>,
}

impl LoopSamples {
    /// Room for `capacity` samples (untouched memory is not resident)
    /// over `segments` equal time segments.
    pub fn new(capacity: usize, segments: usize) -> Self {
        LoopSamples {
            lat_ns: Vec::with_capacity(capacity),
            seg_counts: vec![0; segments],
        }
    }

    /// Record a request that completed in time segment `segment` (never
    /// an earlier one than the last recorded); one completing after the
    /// last segment is dropped.
    pub fn record(&mut self, segment: usize, lat_ns: u64) {
        if let Some(count) = self.seg_counts.get_mut(segment) {
            *count += 1;
            self.lat_ns.push(u32::try_from(lat_ns).unwrap_or(u32::MAX));
        }
    }

    fn segment(&self, i: usize) -> &[u32] {
        let start: usize = self.seg_counts[..i].iter().sum();
        &self.lat_ns[start..start + self.seg_counts[i]]
    }
}

/// Throughput and latency of a timed closed loop, by equal time segments.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentStats {
    /// Quiet decile over segments of completions per second.
    pub per_s: f64,
    /// Quiet decile over segments of the per-segment median latency (µs).
    pub p50_us: f64,
    /// The 99th percentile latency over all samples of the window (µs);
    /// `None` with fewer than ten samples beyond it.
    pub p99_us: Option<f64>,
    /// Each segment's completions per second and median latency (µs),
    /// in time order: kept in the result file so a run can be audited.
    pub segments: Vec<(f64, f64)>,
}

fn sorted_us<'a>(parts: impl Iterator<Item = &'a [u32]>) -> Vec<f64> {
    let us: Vec<f64> = parts.flatten().map(|&ns| f64::from(ns) / 1e3).collect();
    sorted(&us)
}

/// Each time segment's throughput and median latency over all clients,
/// and the quiet deciles over segments. `segment_s` is one segment's
/// length in seconds.
pub fn segment_stats(clients: &[LoopSamples], segment_s: f64) -> SegmentStats {
    let segments = clients.first().map_or(0, |c| c.seg_counts.len());
    assert!(segments > 0 && segment_s > 0.0);
    let by_segment: Vec<(f64, f64)> = (0..segments)
        .map(|i| {
            let us = sorted_us(clients.iter().map(|c| c.segment(i)));
            let p50 = if us.is_empty() {
                0.0
            } else {
                percentile_sorted(&us, 0.5)
            };
            (us.len() as f64 / segment_s, p50)
        })
        .collect();
    let all = sorted_us(clients.iter().map(|c| c.lat_ns.as_slice()));
    let answered: Vec<f64> = by_segment
        .iter()
        .filter(|s| s.0 > 0.0)
        .map(|s| s.1)
        .collect();
    SegmentStats {
        per_s: quiet_rate(&by_segment.iter().map(|s| s.0).collect::<Vec<_>>()),
        p50_us: if answered.is_empty() {
            0.0
        } else {
            quiet_time(&answered)
        },
        p99_us: supports_percentile(all.len(), 0.99).then(|| percentile_sorted(&all, 0.99)),
        segments: by_segment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert!(supports_percentile(1000, 0.99));
        assert!(!supports_percentile(999, 0.99));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q2, q3) = quartiles(&[20.0, 10.0]);
        assert_eq!((q1, q2, q3), (7.5, 15.0, 22.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn quiet_deciles_pick_the_undisturbed_repetitions() {
        // up to ten repetitions: the best one
        assert_eq!(quiet_time(&[4.2, 3.9, 6.1]), 3.9);
        assert_eq!(quiet_time(&[4.2, 3.9, 6.1, 4.0, 5.0]), 3.9);
        assert_eq!(quiet_rate(&[100.0, 140.0, 90.0]), 140.0);
        // sixteen: the second best, whichever way "best" points
        let v: Vec<f64> = (1..=16).map(f64::from).collect();
        assert_eq!(quiet_time(&v), 2.0);
        assert_eq!(quiet_rate(&v), 15.0);
        assert_eq!(quiet_time(&[7.0]), 7.0);
    }

    #[test]
    fn segment_stats_shrug_off_stalled_segments() {
        // two clients, 5 segments of 1 s; 150 samples of 10 µs per client
        // and segment — but segments 1 to 3 are stalled: 5 samples of
        // 1000 µs each, and segment 4 of client 1 is empty.
        let mut clients = vec![LoopSamples::new(16, 5), LoopSamples::new(16, 5)];
        for (c, client) in clients.iter_mut().enumerate() {
            for seg in 0..5 {
                let (n, lat) = if (1..=3).contains(&seg) {
                    (5, 1_000_000)
                } else if seg == 4 && c == 1 {
                    (0, 0)
                } else {
                    (150, 10_000)
                };
                for _ in 0..n {
                    client.record(seg, lat);
                }
            }
            // a straggler completing after the window is dropped
            client.record(5, 9);
        }
        assert_eq!(clients[1].seg_counts, [150, 5, 5, 5, 0]);
        let s = segment_stats(&clients, 1.0);
        assert_eq!(s.per_s, 300.0);
        assert_eq!(s.p50_us, 10.0);
        assert_eq!(s.segments[2], (10.0, 1000.0));
        assert_eq!(s.segments[4], (150.0, 10.0));
        // 480 samples: too few for a p99
        assert_eq!(s.p99_us, None);
        for client in &mut clients {
            for _ in 0..300 {
                client.record(4, 20_000);
            }
        }
        // 1080 samples, 30 of them at 1000 µs: the p99 sits in those
        assert_eq!(segment_stats(&clients, 1.0).p99_us, Some(1000.0));
        // a latency past 4.29 s saturates instead of wrapping
        clients[0].record(4, u64::MAX);
        assert_eq!(clients[0].lat_ns.last(), Some(&u32::MAX));
    }
}
