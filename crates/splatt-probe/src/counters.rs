//! Every counter the workspace reports, declared once.
//!
//! A subsystem's counters are one [`counter_set!`] list of documented
//! names. From that list the macro generates the `AtomicU64` struct the
//! hot paths increment (pub fields, so an increment site is the plain
//! `set.field.fetch_add(n, Ordering::Relaxed)`; `const fn new`, so a
//! set can be a `static`), its plain snapshot with the same names,
//! `snapshot()`, `since()`, and `fields()` — the ordered `(name, value)`
//! table [`ProfileReport`](crate::ProfileReport) serializes and renders
//! from. The snapshot *is* the report row. **Adding a counter is one
//! documented name in one list here, plus the site that increments
//! it**: its JSON key and its place in the text report follow.
//!
//! `name => member` gives a report member that is not a counter (a
//! derived rate, a histogram, a nested row) its place after `name`; a
//! leading `=> member,` one before the first counter. `report.rs` knows
//! how to produce each by that name; the ones a row has to store are
//! its fields in the trailing `+ { .. }` block.
//!
//! Where a set lives is its owner's business: `splatt-store` and
//! [`crate::alloc`] keep one process-global `static` each, the reactor,
//! the lock pool, the engine and the run guard an instance.

use std::sync::atomic::{AtomicU64, Ordering};

/// One entry of a counter set's ordered field table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// A counter: its declared name and its value.
    Count(&'static str, u64),
    /// The place of a report member that is not a counter.
    Slot(&'static str),
}

/// See the module docs. `struct Atomics => Row` generates both types,
/// `struct Row` only the plain one, for values a single owner keeps in
/// ordinary fields; `Row: Copy, Eq` adds derives to the row's `Debug`,
/// `Clone`, `Default` and `PartialEq`.
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        pub struct $atomics:ident => $row:ident $(: $($derive:ident),+)? {
            $(=> $lead:ident,)*
            $( $(#[$fmeta:meta])* $field:ident $(=> $slot:ident)* ),+ $(,)?
        }
        $(+ { $($stored:tt)* })?
    ) => {
        $(#[$meta])*
        /// All increments are relaxed — statistics, not synchronization.
        #[derive(Debug, Default)]
        pub struct $atomics {
            $( $(#[$fmeta])* pub $field: AtomicU64, )+
        }

        impl $atomics {
            /// Every counter zero.
            pub const fn new() -> Self {
                $atomics { $( $field: AtomicU64::new(0), )+ }
            }

            /// Read every counter (each field individually atomic); what
            /// the row stores beside them is left at its default.
            #[allow(clippy::needless_update)]
            pub fn snapshot(&self) -> $row {
                $row {
                    $( $field: self.$field.load(Ordering::Relaxed), )+
                    ..Default::default()
                }
            }
        }

        counter_set! {
            #[doc = concat!("`", stringify!($atomics), "` at one instant, under the same names: the report row.")]
            pub struct $row $(: $($derive),+)? {
                $(=> $lead,)*
                $( $(#[$fmeta])* $field $(=> $slot)* ),+
            }
            $(+ { $($stored)* })?
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $row:ident $(: $($derive:ident),+)? {
            $(=> $lead:ident,)*
            $( $(#[$fmeta:meta])* $field:ident $(=> $slot:ident)* ),+ $(,)?
        }
        $(+ { $( $(#[$smeta:meta])* $stored:ident : $sty:ty ),+ $(,)? })?
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Default, PartialEq $($(, $derive)+)?)]
        pub struct $row {
            $( $(#[$fmeta])* pub $field: u64, )+
            $($( $(#[$smeta])* pub $stored: $sty, )+)?
        }

        impl $row {
            /// Counter-wise (wrapping) difference from an `earlier` row;
            /// what is stored beside the counters is this row's.
            #[allow(clippy::needless_update)]
            pub fn since(&self, earlier: &Self) -> Self {
                $row {
                    $( $field: self.$field.wrapping_sub(earlier.$field), )+
                    ..self.clone()
                }
            }

            /// Every declared name, in declaration order.
            pub fn fields(&self) -> Vec<Field> {
                vec![
                    $( Field::Slot(stringify!($lead)), )*
                    $(
                        Field::Count(stringify!($field), self.$field),
                        $( Field::Slot(stringify!($slot)), )*
                    )+
                ]
            }
        }
    };
}

counter_set! {
    /// Contention counters of one `LockPool` (the paper's §V-D
    /// sync / atomic / FIFO comparison).
    pub struct LockCounters => LockStats: Copy, Eq {
        /// Lock acquisitions, contended or not.
        acquisitions,
        /// Acquisitions that found the lock held.
        contended,
        /// Lock releases; equals `acquisitions` once quiescent.
        releases,
        /// Failed CAS / test-and-set iterations (park rounds for
        /// sleeping locks) across contended acquisitions.
        spin_iters,
        /// Nanoseconds contended acquisitions spent waiting.
        wait_nanos => contention_rate,
    }
}

counter_set! {
    /// Allocation traffic the kernels announce ([`crate::alloc`]): the
    /// `RowCopy` access variant's slice story and the privatization
    /// side of the lock-vs-replica tradeoff.
    pub struct AllocCounters => AllocStats: Copy, Eq {
        /// Factor-row copies (`RowCopy` access variant).
        row_copies,
        /// Bytes of those row copies.
        row_copy_bytes,
        /// Slice-descriptor allocations.
        descriptor_allocs,
        /// Bytes of those descriptors.
        descriptor_bytes,
        /// Bytes of per-task replica buffers sized or grown.
        replica_bytes,
        /// Reduction passes over the replicas.
        replica_reductions,
        /// Growths of the per-task kernel walk arenas (grow-only:
        /// silent in steady state).
        kernel_scratch_allocs,
        /// Bytes of those growths.
        kernel_scratch_bytes,
    }
}

counter_set! {
    /// Reactor front-end counters, shared between the reactor thread,
    /// the worker pool and whoever exports metrics; `serve.net` in the
    /// report (`null` when the engine is used in-process).
    pub struct NetCounters => NetSnapshot: Copy, Eq {
        /// Connections accepted from the OS (including ones later shed).
        accepted,
        /// Connections currently registered with the reactor.
        connections_open,
        /// High-water mark of `connections_open`.
        connections_peak,
        /// `poll`/sweep iterations executed.
        polls,
        /// Poll returns with at least one ready descriptor (readiness
        /// wakeups, as opposed to timeout ticks).
        readiness_wakeups,
        /// Complete request frames parsed off sockets.
        frames_read,
        /// Request frames answered on the reactor thread by
        /// `FrameService::try_handle_now` — never handed to the pool. With
        /// `sheds_decode`, what is left of `frames_read` went to a worker.
        frames_inline,
        /// Response frames appended to connection write buffers.
        frames_written,
        /// Write syscalls issued.
        writes,
        /// Flushes that pushed two or more response frames in one syscall
        /// batch — the payoff of buffering completions per connection.
        coalesced_writes,
        /// Connections shed at the accept layer (connection cap).
        sheds_accept,
        /// Requests shed at the decode layer (queue depth or per-connection
        /// pipeline cap).
        sheds_decode,
        /// Connections closed by the idle timer.
        idle_closed,
        /// Requests answered by the reactor's deadline backstop because the
        /// worker had not completed them in time.
        deadline_backstops,
        /// Worker threads in the pool (set once at startup).
        worker_threads,
    }
}

counter_set! {
    /// Durability counters of the crash-safe persistence stack, one
    /// process-global set in `splatt-store`; `store` in the report
    /// (`null` outside ingest/recover/refresh runs).
    pub struct StoreAtomics => StoreCounters: Copy, Eq {
        /// Records appended to a WAL (buffered; not yet durable).
        wal_appends,
        /// Group commits that reached the durable-ack point.
        wal_commits,
        /// `fsync` calls issued (segments, artifacts, directories).
        fsyncs,
        /// Artifacts published through the temp→fsync→rename protocol.
        atomic_publishes,
        /// WAL segment rotations.
        segments_rotated,
        /// WAL recovery scans performed on open.
        recoveries,
        /// Records returned by recovery scans.
        records_recovered,
        /// Bytes physically truncated off torn WAL tails.
        torn_bytes_truncated,
        /// CRC mismatches observed while reading frames.
        checksum_failures,
    }
}

counter_set! {
    /// Run-governance activity of one `RunGuard`; `guard` in the report
    /// (`null` when the run was unguarded).
    pub struct GuardCounters => GuardRow: Eq {
        /// Full driver guard checks performed.
        checks,
        /// Checks that returned a trip.
        trips,
        /// Stall reports filed by the watchdog (read off its ledger).
        watchdog_reports,
        /// Sampling passes the watchdog completed (read off its ledger).
        watchdog_samples => trip,
    } + {
        /// Human-readable trip reason, empty if the run never tripped.
        trip: String,
    }
}

counter_set! {
    /// The scalar counters of the serving engine (and of the cluster
    /// router, which caches nothing); with the histograms and nested
    /// rows beside them, `serve` in the report (`null` outside a
    /// serving process).
    pub struct ServeCounters => ServeRow: Eq {
        => kinds,
        /// Always 0: the engine has no batcher. Kept, with
        /// `batched_requests`, because the end-to-end benchmark reads
        /// both; they leave with that benchmark's next change.
        batches,
        /// Always 0; see `batches`.
        batched_requests,
        /// Queries computed, each on the thread that asked for it: an
        /// answered query is counted here or is a cache hit.
        caller_runs,
        /// Result-cache hits (read off the cache).
        cache_hits,
        /// Result-cache misses (read off the cache).
        cache_misses,
        /// Entries evicted from the result cache (read off the cache).
        cache_evictions => cache_hit_rate,
        /// Requests shed by admission control, typed `Overloaded` (read
        /// off the engine's gate).
        sheds,
        /// Requests rejected because their deadline expired in queue.
        deadline_rejections,
        /// Query-arena growth events since serving started (warm-up only
        /// in a healthy steady state).
        arena_growth_allocs,
        /// Bytes of query-arena growth.
        arena_growth_bytes => net,
    } + {
        /// Per-query-kind latency rows, one per kind that saw traffic.
        kinds: Vec<QueryKindRow>,
        /// Multiplexed front-end counters; `None` when the engine is used
        /// in-process with no front end attached.
        net: Option<NetSnapshot>,
    }
}

counter_set! {
    /// What one `RefreshEngine` has done since it was opened; `refresh`
    /// in the report (`null` outside refresh runs).
    pub struct RefreshRow: Copy {
        /// Refresh rounds completed (WAL tail → merge → refit → publish).
        rounds,
        /// WAL records applied past the committed watermark.
        deltas_applied,
        /// Individual delta entries merged into the resident tensor.
        entries_merged,
        /// Fiber-id comparisons the merges into the resident trees made
        /// to place each round's delta (its sort is a radix sort and
        /// compares nothing) — the asymptotic-cost evidence (compare
        /// against a full re-coalesce bound, not wall-clock).
        merge_compare_ops,
        /// Nanoseconds spent preparing each round's delta for the trees:
        /// decoding it into one packed batch and sorting that once per
        /// tree's level order.
        merge_ns,
        /// Nanoseconds spent producing the CSF set each refit runs on:
        /// merging the sorted delta into the resident trees, or sorting a
        /// merged tree's coordinates for a level order the engine held
        /// none of.
        csf_ns,
        /// CSF roots handed to the solver without sorting the tensor:
        /// the engine merged the round's delta into its resident tree of
        /// that level order.
        sorts_skipped,
        /// Nanoseconds spent reading the WAL tail.
        tail_ns,
        /// Framed bytes of the WAL records the rounds read: the log is
        /// tailed from the first unapplied record, so a round's share is
        /// the size of its own records, however long the log before them.
        wal_bytes_scanned,
        /// Nanoseconds spent in the warm-started refits (and their cold
        /// audits, when requested).
        refit_ns,
        /// ALS iterations across all warm-started refits.
        refit_iterations => warm_fit => warm_fit_gap,
        /// Nanoseconds spent publishing (model artifact + manifest + registry).
        publish_ns,
        /// Committed WAL watermark, exclusive: every record with
        /// `seq < watermark` is durably folded into the published state.
        watermark,
    } + {
        /// Final fit of the most recent warm-started refit.
        warm_fit: f64,
        /// `|warm fit − cold fit|` of the most recent audited refit; `0`
        /// when the cold-refit audit was not requested.
        warm_fit_gap: f64,
    }
}

/// Latency profile of one query kind served by the serving subsystem.
///
/// Buckets are log2 microseconds: `buckets[i]` counts requests whose
/// latency fell in `[2^i, 2^(i+1))` µs, with sub-microsecond requests in
/// bucket 0. Quantiles are precomputed by the producer from the same
/// histogram so the row stays plain data.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryKindRow {
    /// Query kind label (`entry`, `slice`, `topk`).
    pub kind: String,
    /// Requests answered successfully.
    pub requests: u64,
    /// Median latency in microseconds (histogram upper bound).
    pub p50_micros: u64,
    /// 99th-percentile latency in microseconds (histogram upper bound).
    pub p99_micros: u64,
    /// Worst observed latency in microseconds.
    pub max_micros: u64,
    /// Log2-microsecond latency histogram.
    pub buckets: Vec<u64>,
}

impl ServeRow {
    /// Cache hit rate in `[0, 1]`; 0 when the cache saw no lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    counter_set! {
        /// A set with every slot position the macro accepts.
        pub struct DemoCounters => DemoRow: Eq {
            => lead,
            /// First.
            a,
            b => mid => mid2,
            c => tail,
        } + {
            /// What the row stores for `tail`.
            tail: String,
        }
    }

    fn row(a: u64, b: u64, c: u64, tail: &str) -> DemoRow {
        let tail = tail.to_string();
        DemoRow { a, b, c, tail }
    }

    #[test]
    fn the_table_names_every_field_once_in_declaration_order() {
        let fields = row(1, 2, 3, "").fields();
        assert_eq!(
            fields,
            [
                Field::Slot("lead"),
                Field::Count("a", 1),
                Field::Count("b", 2),
                Field::Slot("mid"),
                Field::Slot("mid2"),
                Field::Count("c", 3),
                Field::Slot("tail"),
            ]
        );
    }

    #[test]
    fn snapshot_reads_and_since_subtracts_every_field() {
        static SET: DemoCounters = DemoCounters::new();
        assert_eq!(SET.snapshot(), DemoRow::default());
        SET.a.fetch_add(5, Ordering::Relaxed);
        SET.b.fetch_add(7, Ordering::Relaxed);
        SET.c.fetch_add(11, Ordering::Relaxed);
        let early = SET.snapshot();
        assert_eq!(early, row(5, 7, 11, ""));
        SET.a.fetch_add(1, Ordering::Relaxed);
        SET.b.fetch_add(2, Ordering::Relaxed);
        SET.c.fetch_add(3, Ordering::Relaxed);
        // What a row stores beside its counters is the later row's.
        let late = DemoRow {
            tail: "late".into(),
            ..SET.snapshot()
        };
        assert_eq!(late.since(&early), row(1, 2, 3, "late"));
        // Wrapping, like the counters themselves.
        assert_eq!(early.since(&SET.snapshot()).a, u64::MAX);
    }
}
