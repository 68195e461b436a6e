//! Serving telemetry: lock-free log2 latency histograms per query kind
//! and the scalar counters (declared in `splatt-probe` as
//! `ServeCounters`) that roll up with them into the probe report's
//! `serve` object.

use splatt_probe::{QueryKindRow, ServeCounters, ServeRow};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets: bucket 31 absorbs everything ≥ ~36 minutes.
const BUCKETS: usize = 32;

/// The three query kinds the server answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    Entry,
    Slice,
    TopK,
}

impl QueryKind {
    /// Stable label used in the probe schema and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            QueryKind::Entry => "entry",
            QueryKind::Slice => "slice",
            QueryKind::TopK => "topk",
        }
    }

    const ALL: [QueryKind; 3] = [QueryKind::Entry, QueryKind::Slice, QueryKind::TopK];

    fn index(self) -> usize {
        match self {
            QueryKind::Entry => 0,
            QueryKind::Slice => 1,
            QueryKind::TopK => 2,
        }
    }
}

/// A lock-free log2 histogram: `buckets[i]` counts samples in
/// `[2^i, 2^(i+1))`, with 0-valued samples in bucket 0.
#[derive(Debug, Default)]
pub struct Log2Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    max: AtomicU64,
}

fn bucket_of(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((63 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

impl Log2Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Largest sample recorded.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Upper bound (`2^(i+1)`) of the bucket containing quantile `q`
    /// (`0.0..=1.0`); 0 when empty. Conservative: the true quantile is
    /// at most this.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max()
    }

    /// Bucket counts trimmed of trailing zeros.
    pub fn snapshot(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }
}

/// All serving counters, updated lock-free from the request path.
#[derive(Debug, Default)]
pub struct ServeStats {
    latency: [Log2Histogram; 3],
    /// The scalars. The cache and shed counts of the set stay zero here:
    /// the cache and the admission gate keep their own, and
    /// [`ServeStats::to_row`] is handed them.
    pub counters: ServeCounters,
}

impl ServeStats {
    /// Fresh, zeroed stats.
    pub fn new() -> Self {
        ServeStats::default()
    }

    /// Record one answered request of `kind` with the given end-to-end
    /// latency in microseconds.
    pub fn record_latency(&self, kind: QueryKind, micros: u64) {
        self.latency[kind.index()].record(micros);
    }

    /// Record one request computed on the thread that asked for it.
    pub fn record_caller_run(&self) {
        self.counters.caller_runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a request rejected because its deadline expired.
    pub fn record_deadline_rejection(&self) {
        self.counters
            .deadline_rejections
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Add one query's arena growth (zero once the arena it ran with
    /// has reached its high-water mark).
    pub fn add_arena_growth(&self, allocs: u64, bytes: u64) {
        self.counters
            .arena_growth_allocs
            .fetch_add(allocs, Ordering::Relaxed);
        self.counters
            .arena_growth_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Roll everything up into the probe `serve` row; cache and shed
    /// counters come from their owning components.
    pub fn to_row(
        &self,
        cache_hits: u64,
        cache_misses: u64,
        cache_evictions: u64,
        sheds: u64,
    ) -> ServeRow {
        let kinds = QueryKind::ALL
            .iter()
            .filter(|k| self.latency[k.index()].count() > 0)
            .map(|&k| {
                let h = &self.latency[k.index()];
                QueryKindRow {
                    kind: k.label().to_string(),
                    requests: h.count(),
                    p50_micros: h.quantile_upper(0.50),
                    p99_micros: h.quantile_upper(0.99),
                    max_micros: h.max(),
                    buckets: h.snapshot(),
                }
            })
            .collect();
        // The net row belongs to the front end; it fills in after this
        // rollup.
        ServeRow {
            kinds,
            cache_hits,
            cache_misses,
            cache_evictions,
            sheds,
            ..self.counters.snapshot()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_upper_bounds() {
        let h = Log2Histogram::default();
        for _ in 0..98 {
            h.record(3); // bucket 1 -> upper bound 4
        }
        h.record(1000); // bucket 9 -> upper bound 1024
        h.record(5000); // bucket 12 -> upper bound 8192
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_upper(0.5), 4);
        assert_eq!(h.quantile_upper(0.99), 1024);
        assert_eq!(h.quantile_upper(1.0), 8192);
        assert_eq!(h.max(), 5000);
        assert_eq!(Log2Histogram::default().quantile_upper(0.5), 0);
    }

    #[test]
    fn row_contains_only_active_kinds() {
        let stats = ServeStats::new();
        stats.record_latency(QueryKind::Entry, 10);
        stats.record_latency(QueryKind::Entry, 12);
        stats.record_deadline_rejection();
        stats.add_arena_growth(3, 1024);
        let row = stats.to_row(5, 10, 1, 2);
        assert_eq!(row.kinds.len(), 1);
        assert_eq!(row.kinds[0].kind, "entry");
        assert_eq!(row.kinds[0].requests, 2);
        assert_eq!(row.cache_hits, 5);
        assert_eq!(row.sheds, 2);
        assert_eq!(row.deadline_rejections, 1);
        assert_eq!(row.arena_growth_bytes, 1024);
        assert!((row.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }
}
