//! Append-only write-ahead log of opaque records (nnz delta batches).
//!
//! ## Protocol
//!
//! * [`Wal::append`] buffers a CRC-framed record in memory and hands
//!   back its sequence number. **Appended is not durable.**
//! * [`Wal::commit`] writes every buffered record with one `write`,
//!   then one `fsync` — the *group commit*. Only when `commit` returns
//!   `Ok` are the records acknowledged durable; the returned value is
//!   the highest acknowledged sequence number.
//! * Segments rotate at the commit boundary once the active segment
//!   exceeds `segment_bytes`, so a segment is only ever succeeded by
//!   another after it has been fully committed — which is what lets
//!   recovery distinguish a torn tail from real corruption.
//!
//! ## Recovery
//!
//! [`Wal::open`] scans segments in order, validating every frame's CRC
//! and the global contiguity of sequence numbers. A defect in the
//! **final** segment is the signature of a crash mid-commit: the tail
//! is physically truncated at the defect offset and the log continues
//! from the last good record. A defect in any **earlier** segment
//! implicates acknowledged data, so recovery refuses with a typed
//! [`StoreError::Corrupt`] instead of silently dropping records.
//! Recovery therefore returns *at least* every acknowledged record and
//! *at most* the appended prefix — never a record that was not
//! appended, never a hole.
//!
//! ## Reading a log someone else writes
//!
//! Recovery is the *writer's* restart: it truncates, creates the first
//! segment and fsyncs. A reader of a live log must do none of that —
//! bytes that do not parse yet may be a `write` the writer is in the
//! middle of, and cutting them off cuts off a record the writer goes on
//! to acknowledge. [`Wal::tail`] is the reader: it opens segments
//! read-only from a [`WalPosition`], applies the same CRC, contiguity
//! and non-final-segment checks to what it reads, and at a defect in the
//! final segment stops, says so, and leaves the file as it found it.

use crate::atomic::{fsync_dir, fsync_faulted, read_faulted, read_faulted_from, write_faulted};
use crate::counters::COUNTERS;
use crate::error::StoreError;
use crate::frame::{self, FrameDefect};
use crate::io::IoFaultPlan;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the active one exceeds this many
    /// bytes (checked after each commit).
    pub segment_bytes: u64,
    /// Optional disk-fault plan driving injected crashes and faults.
    pub plan: Option<Arc<IoFaultPlan>>,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 4 << 20,
            plan: None,
        }
    }
}

/// One recovered record: its global sequence number and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub seq: u64,
    pub payload: Vec<u8>,
}

/// What a recovery scan found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalRecovery {
    /// Every intact record, in sequence order.
    pub records: Vec<WalRecord>,
    /// Segment files scanned.
    pub segments_scanned: usize,
    /// Bytes truncated off the torn tail of the final segment.
    pub truncated_bytes: u64,
    /// The defect that ended the final segment, if it was torn.
    pub tail_defect: Option<FrameDefect>,
}

/// Where a reader of the log stands: the record it expects next and the
/// byte that record's frame starts at. The default is the start of the
/// log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalPosition {
    /// Index of the segment file.
    pub segment: u64,
    /// Byte offset inside that segment.
    pub offset: u64,
    /// Sequence number of the record expected there.
    pub seq: u64,
}

/// What one [`Wal::tail`] read found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalTail {
    /// Every intact record read, in sequence order.
    pub records: Vec<WalRecord>,
    /// Where the next read starts: just past the last record returned.
    pub next: WalPosition,
    /// Framed size of `records`: the bytes this read had to parse.
    pub bytes_scanned: u64,
    /// The defect that ended the final segment, if its tail did not
    /// parse. The bytes are still on disk.
    pub tail_defect: Option<FrameDefect>,
}

/// The append-only log; see the module docs for the protocol.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    segment_bytes: u64,
    plan: Option<Arc<IoFaultPlan>>,
    /// Active segment, opened for append.
    file: File,
    seg_index: u64,
    /// Bytes already written to the active segment.
    seg_len: u64,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Highest sequence number acknowledged durable.
    acked_seq: Option<u64>,
    /// Highest sequence number written but not yet fsynced (survives a
    /// failed fsync so the retry does not rewrite the records).
    written_seq: Option<u64>,
    /// Encoded frames appended since the last write.
    pending: Vec<u8>,
    pending_last_seq: Option<u64>,
}

fn segment_name(index: u64) -> String {
    format!("wal-{index:06}.log")
}

fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(idx) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            segments.push((idx, entry.path()));
        }
    }
    segments.sort_by_key(|(idx, _)| *idx);
    Ok(segments)
}

impl Wal {
    /// Open (or create) the log in `dir`, running recovery first.
    ///
    /// Returns the ready-to-append log and everything recovery found.
    /// New appends continue after the last recovered record.
    pub fn open(dir: &Path, opts: WalOptions) -> Result<(Wal, WalRecovery), StoreError> {
        std::fs::create_dir_all(dir)?;
        let plan = opts.plan;
        let plan_ref = plan.as_deref();
        let segments = list_segments(dir)?;

        let mut recovery = WalRecovery::default();
        let mut expected_seq = 0u64;

        if !segments.is_empty() {
            COUNTERS.recoveries.fetch_add(1, Relaxed);
            recovery.segments_scanned = segments.len();
            let last = segments.len() - 1;
            for (i, (_, path)) in segments.iter().enumerate() {
                let bytes = read_faulted(path, plan_ref, "wal read-segment")?;
                let (frames, defect) = frame::parse_frames(&bytes);
                for f in &frames {
                    if f.generation != expected_seq {
                        return Err(StoreError::SequenceGap {
                            path: path.clone(),
                            expected: expected_seq,
                            found: f.generation,
                        });
                    }
                    expected_seq += 1;
                }
                match defect {
                    None => {}
                    Some((offset, kind)) => {
                        if kind == FrameDefect::ChecksumMismatch {
                            COUNTERS.checksum_failures.fetch_add(1, Relaxed);
                        }
                        if i != last {
                            // Bytes can only follow a fully committed
                            // segment, so damage here is corruption of
                            // acknowledged data — refuse, don't drop.
                            return Err(StoreError::Corrupt {
                                path: path.clone(),
                                offset: offset as u64,
                                defect: kind,
                            });
                        }
                        // Torn tail of the final segment: truncate.
                        let torn = bytes.len() as u64 - offset as u64;
                        let f = OpenOptions::new().write(true).open(path)?;
                        f.set_len(offset as u64)?;
                        fsync_faulted(&f, plan_ref, "wal truncate-fsync")?;
                        recovery.truncated_bytes = torn;
                        recovery.tail_defect = Some(kind);
                        COUNTERS.torn_bytes_truncated.fetch_add(torn, Relaxed);
                    }
                }
                recovery
                    .records
                    .extend(frames.into_iter().map(|f| WalRecord {
                        seq: f.generation,
                        payload: f.payload,
                    }));
            }
            COUNTERS
                .records_recovered
                .fetch_add(recovery.records.len() as u64, Relaxed);
        }

        // Resume appending into the last segment (or create the first).
        let (seg_index, seg_path) = match segments.last() {
            Some((idx, path)) => (*idx, path.clone()),
            None => {
                let path = dir.join(segment_name(0));
                if let Some(p) = plan_ref {
                    p.next_op("wal create-segment")?;
                }
                File::create(&path)?;
                fsync_dir(dir, plan_ref, "wal fsync-dir")?;
                (0, path)
            }
        };
        let file = OpenOptions::new().append(true).open(&seg_path)?;
        let seg_len = file.metadata()?.len();
        let acked = expected_seq.checked_sub(1);

        Ok((
            Wal {
                dir: dir.to_path_buf(),
                segment_bytes: opts.segment_bytes.max(1),
                plan,
                file,
                seg_index,
                seg_len,
                next_seq: expected_seq,
                acked_seq: acked,
                written_seq: acked,
                pending: Vec::new(),
                pending_last_seq: None,
            },
            recovery,
        ))
    }

    /// Recovery scan without keeping the log open for appends.
    pub fn recover(dir: &Path, plan: Option<Arc<IoFaultPlan>>) -> Result<WalRecovery, StoreError> {
        let (_, recovery) = Wal::open(
            dir,
            WalOptions {
                plan,
                ..WalOptions::default()
            },
        )?;
        Ok(recovery)
    }

    /// Read the records from `from` up to (not including) sequence
    /// number `until_seq`, or to the end of the log, without writing:
    /// nothing is truncated, created or fsynced, and a directory that
    /// does not exist is an empty log. A read costs the bytes after
    /// `from`, however long the log before it is.
    ///
    /// # Errors
    /// [`StoreError::SequenceGap`] when a frame does not carry the next
    /// sequence number; [`StoreError::Corrupt`] for a defect in a segment
    /// that has a successor. A defect in the final segment ends the read
    /// with `WalTail::tail_defect` set: a torn tail, or the writer in
    /// the middle of a `write`.
    pub fn tail(
        dir: &Path,
        from: WalPosition,
        until_seq: u64,
        plan: Option<&IoFaultPlan>,
    ) -> Result<WalTail, StoreError> {
        let mut tail = WalTail {
            records: Vec::new(),
            next: from,
            bytes_scanned: 0,
            tail_defect: None,
        };
        let segments = match list_segments(dir) {
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            listed => listed?,
        };
        let last = segments.last().map(|(index, _)| *index);
        for (index, path) in segments.iter().filter(|(i, _)| *i >= from.segment) {
            if tail.next.seq >= until_seq {
                break;
            }
            let start = if *index == from.segment {
                from.offset
            } else {
                0
            };
            let bytes = read_faulted_from(path, start, plan, "wal tail-read")?;
            tail.next.segment = *index;
            tail.next.offset = start;
            let mut at = 0usize;
            while at < bytes.len() && tail.next.seq < until_seq {
                match frame::parse_frame_at(&bytes, at) {
                    Ok((f, end)) => {
                        if f.generation != tail.next.seq {
                            return Err(StoreError::SequenceGap {
                                path: path.clone(),
                                expected: tail.next.seq,
                                found: f.generation,
                            });
                        }
                        tail.bytes_scanned += (end - at) as u64;
                        at = end;
                        tail.next.offset = start + end as u64;
                        tail.next.seq += 1;
                        tail.records.push(WalRecord {
                            seq: f.generation,
                            payload: f.payload,
                        });
                    }
                    Err(defect) => {
                        if defect == FrameDefect::ChecksumMismatch {
                            COUNTERS.checksum_failures.fetch_add(1, Relaxed);
                        }
                        if Some(*index) != last {
                            return Err(StoreError::Corrupt {
                                path: path.clone(),
                                offset: start + at as u64,
                                defect,
                            });
                        }
                        tail.tail_defect = Some(defect);
                        return Ok(tail);
                    }
                }
            }
        }
        Ok(tail)
    }

    /// Buffer one record; returns its sequence number. Not durable
    /// until the next successful [`Wal::commit`].
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let seq = self.next_seq;
        frame::encode_frame_into(&mut self.pending, seq, payload);
        self.next_seq += 1;
        self.pending_last_seq = Some(seq);
        COUNTERS.wal_appends.fetch_add(1, Relaxed);
        Ok(seq)
    }

    /// Group-commit every buffered record: one write, one fsync.
    ///
    /// On `Ok`, the returned sequence number (and everything before
    /// it) is acknowledged durable. On an injected fsync failure the
    /// records stay un-acknowledged but are *not* rewritten by the
    /// next commit — a retry issues only the fsync.
    pub fn commit(&mut self) -> Result<Option<u64>, StoreError> {
        let plan = self.plan.clone();
        let plan_ref = plan.as_deref();
        if !self.pending.is_empty() {
            let buf = std::mem::take(&mut self.pending);
            match write_faulted(&mut self.file, &buf, plan_ref, "wal write") {
                Ok(()) => {}
                Err(e) => {
                    // A torn write is a process death: the Wal object
                    // is dead with it. Restore nothing.
                    return Err(e);
                }
            }
            self.seg_len += buf.len() as u64;
            self.written_seq = self.pending_last_seq.take().or(self.written_seq);
        }
        if self.written_seq > self.acked_seq {
            fsync_faulted(&self.file, plan_ref, "wal fsync")?;
            self.acked_seq = self.written_seq;
            COUNTERS.wal_commits.fetch_add(1, Relaxed);
        }
        if self.seg_len >= self.segment_bytes {
            self.rotate(plan_ref)?;
        }
        Ok(self.acked_seq)
    }

    fn rotate(&mut self, plan: Option<&IoFaultPlan>) -> Result<(), StoreError> {
        let next_index = self.seg_index + 1;
        let path = self.dir.join(segment_name(next_index));
        if let Some(p) = plan {
            p.next_op("wal rotate-create")?;
        }
        File::create(&path)?;
        fsync_dir(&self.dir, plan, "wal rotate-fsync-dir")?;
        self.file = OpenOptions::new().append(true).open(&path)?;
        self.seg_index = next_index;
        self.seg_len = 0;
        COUNTERS.segments_rotated.fetch_add(1, Relaxed);
        Ok(())
    }

    /// Highest acknowledged-durable sequence number, if any.
    pub fn acked_seq(&self) -> Option<u64> {
        self.acked_seq
    }

    /// Next sequence number [`Wal::append`] will assign.
    #[cfg(test)]
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Index of the active segment file.
    pub fn segment_index(&self) -> u64 {
        self.seg_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::SeqCst);
        let dir =
            std::env::temp_dir().join(format!("splatt-store-wal-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn append_commit_reopen_round_trips() {
        let dir = tmpdir("rt");
        {
            let (mut wal, rec) = Wal::open(&dir, WalOptions::default()).expect("open");
            assert!(rec.records.is_empty());
            for i in 0..10u64 {
                let seq = wal
                    .append(format!("record {i}").as_bytes())
                    .expect("append");
                assert_eq!(seq, i);
            }
            assert_eq!(wal.commit().expect("commit"), Some(9));
        }
        let (wal, rec) = Wal::open(&dir, WalOptions::default()).expect("reopen");
        assert_eq!(rec.records.len(), 10);
        assert_eq!(rec.truncated_bytes, 0);
        for (i, r) in rec.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.payload, format!("record {i}").into_bytes());
        }
        assert_eq!(wal.next_seq(), 10);
        assert_eq!(wal.acked_seq(), Some(9));
    }

    #[test]
    fn appends_without_commit_may_be_lost_but_commits_never() {
        let dir = tmpdir("ack");
        {
            let (mut wal, _) = Wal::open(&dir, WalOptions::default()).expect("open");
            wal.append(b"durable").expect("append");
            wal.commit().expect("commit");
            wal.append(b"buffered only").expect("append");
            // Dropped without commit: buffered record never hit disk.
        }
        let (_, rec) = Wal::open(&dir, WalOptions::default()).expect("reopen");
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].payload, b"durable");
    }

    #[test]
    fn segments_rotate_and_recovery_spans_them() {
        let dir = tmpdir("rot");
        {
            let (mut wal, _) = Wal::open(
                &dir,
                WalOptions {
                    segment_bytes: 64,
                    plan: None,
                },
            )
            .expect("open");
            for i in 0..20u64 {
                wal.append(format!("payload number {i}").as_bytes())
                    .expect("append");
                wal.commit().expect("commit");
            }
            assert!(wal.segment_index() > 2, "expected several rotations");
        }
        let (_, rec) = Wal::open(&dir, WalOptions::default()).expect("reopen");
        assert!(rec.segments_scanned > 2);
        assert_eq!(rec.records.len(), 20);
        for (i, r) in rec.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_recovery_is_idempotent() {
        let dir = tmpdir("torn");
        {
            let (mut wal, _) = Wal::open(&dir, WalOptions::default()).expect("open");
            for i in 0..5u64 {
                wal.append(format!("rec-{i}").as_bytes()).expect("append");
            }
            wal.commit().expect("commit");
        }
        // Tear the tail: chop 3 bytes off the final segment.
        let seg = dir.join(segment_name(0));
        let len = std::fs::metadata(&seg).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&seg).expect("open seg");
        f.set_len(len - 3).expect("truncate");
        drop(f);

        let (_, rec) = Wal::open(&dir, WalOptions::default()).expect("recover");
        assert_eq!(rec.records.len(), 4);
        assert!(rec.truncated_bytes > 0);
        assert!(rec.tail_defect.is_some());

        // Idempotent: a second recovery finds a clean log.
        let (mut wal, rec2) = Wal::open(&dir, WalOptions::default()).expect("recover 2");
        assert_eq!(rec2.records.len(), 4);
        assert_eq!(rec2.truncated_bytes, 0);
        assert!(rec2.tail_defect.is_none());

        // And the log keeps working: the torn seq is reassigned.
        let seq = wal.append(b"rec-4 again").expect("append");
        assert_eq!(seq, 4);
        wal.commit().expect("commit");
        let (_, rec3) = Wal::open(&dir, WalOptions::default()).expect("recover 3");
        assert_eq!(rec3.records.len(), 5);
        assert_eq!(rec3.records[4].payload, b"rec-4 again");
    }

    #[test]
    fn damage_in_a_non_final_segment_is_typed_corruption() {
        let dir = tmpdir("corrupt");
        {
            let (mut wal, _) = Wal::open(
                &dir,
                WalOptions {
                    segment_bytes: 32,
                    plan: None,
                },
            )
            .expect("open");
            for i in 0..6u64 {
                wal.append(format!("record body {i}").as_bytes())
                    .expect("append");
                wal.commit().expect("commit");
            }
            assert!(wal.segment_index() >= 2);
        }
        // Flip a payload bit in the FIRST segment (acknowledged data).
        let seg = dir.join(segment_name(0));
        let mut bytes = std::fs::read(&seg).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&seg, &bytes).expect("write");

        match Wal::open(&dir, WalOptions::default()) {
            Err(StoreError::Corrupt { path, defect, .. }) => {
                assert_eq!(path, seg);
                assert_eq!(defect, FrameDefect::ChecksumMismatch);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn tail_resumes_where_it_stopped_and_reads_only_the_suffix() {
        let dir = tmpdir("tail");
        let opts = WalOptions {
            segment_bytes: 64,
            plan: None,
        };
        let (mut wal, _) = Wal::open(&dir, opts).expect("open");
        let payload = |i: u64| format!("payload number {i:04}").into_bytes();
        let framed = frame::frame_len(payload(0).len()) as u64;
        let (mut pos, mut seen) = (WalPosition::default(), 0u64);
        // a growing log, several rotations: each read is the new records
        for batch in [3u64, 1, 0, 7, 2] {
            for _ in 0..batch {
                wal.append(&payload(wal.next_seq())).expect("append");
                wal.commit().expect("commit");
            }
            let tail = Wal::tail(&dir, pos, u64::MAX, None).expect("tail");
            assert_eq!(tail.records.len() as u64, batch);
            assert_eq!(tail.bytes_scanned, batch * framed, "flat in log length");
            assert_eq!(tail.tail_defect, None);
            for r in &tail.records {
                assert_eq!((r.seq, &r.payload), (seen, &payload(seen)));
                seen += 1;
            }
            pos = tail.next;
            assert_eq!(pos.seq, seen);
        }
        assert!(wal.segment_index() > 2, "expected several rotations");
        // one read from the start sees what the pieces saw, and lands on
        // the same position; a bounded one stops before `until_seq`
        let whole = Wal::tail(&dir, WalPosition::default(), u64::MAX, None).expect("tail");
        assert_eq!((whole.records.len() as u64, whole.next), (seen, pos));
        let prefix = Wal::tail(&dir, WalPosition::default(), 5, None).expect("tail");
        assert_eq!(prefix.next.seq, 5);
        let rest = Wal::tail(&dir, prefix.next, u64::MAX, None).expect("tail");
        assert_eq!(rest.records[..], whole.records[5..]);
    }

    #[test]
    fn tail_leaves_a_torn_tail_and_an_empty_directory_as_they_are() {
        let dir = tmpdir("tail-ro");
        let start = WalPosition::default();
        let none = Wal::tail(&dir, start, u64::MAX, None).expect("tail");
        assert!(none.records.is_empty());
        assert_eq!(none.next, start);
        assert_eq!(std::fs::read_dir(&dir).expect("ls").count(), 0);
        let missing = Wal::tail(&dir.join("absent"), start, u64::MAX, None).expect("tail");
        assert!(missing.records.is_empty());
        assert!(!dir.join("absent").exists());

        // a whole frame and most of the next: a writer mid-`write`
        let seg = dir.join(segment_name(0));
        let second = frame::encode_frame(1, b"second record");
        let mut bytes = frame::encode_frame(0, b"first record");
        bytes.extend_from_slice(&second[..second.len() - 4]);
        std::fs::write(&seg, &bytes).expect("write");
        let torn = Wal::tail(&dir, start, u64::MAX, None).expect("tail");
        assert_eq!(torn.records.len(), 1);
        assert_eq!(torn.tail_defect, Some(FrameDefect::TruncatedPayload));
        assert_eq!(
            std::fs::read(&seg).expect("read"),
            bytes,
            "bytes left alone"
        );
        // the writer finishes: the next read picks the record up
        bytes.extend_from_slice(&second[second.len() - 4..]);
        std::fs::write(&seg, &bytes).expect("write");
        let done = Wal::tail(&dir, torn.next, u64::MAX, None).expect("tail");
        assert_eq!(done.records.len(), 1);
        assert_eq!(done.records[0].payload, b"second record");
        assert_eq!(done.tail_defect, None);
    }

    #[test]
    fn tail_refuses_damage_and_gaps_in_acknowledged_segments() {
        let dir = tmpdir("tail-corrupt");
        {
            let opts = WalOptions {
                segment_bytes: 32,
                plan: None,
            };
            let (mut wal, _) = Wal::open(&dir, opts).expect("open");
            for i in 0..6u64 {
                wal.append(format!("record body {i}").as_bytes())
                    .expect("append");
                wal.commit().expect("commit");
            }
        }
        let start = WalPosition::default();
        let clean = Wal::tail(&dir, start, u64::MAX, None).expect("tail");
        // starting one record late is a gap, not a silent skip
        let late = WalPosition { seq: 1, ..start };
        match Wal::tail(&dir, late, u64::MAX, None) {
            Err(StoreError::SequenceGap {
                expected, found, ..
            }) => assert_eq!((expected, found), (1, 0)),
            other => panic!("expected SequenceGap, got {other:?}"),
        }
        let seg = dir.join(segment_name(0));
        let mut bytes = std::fs::read(&seg).expect("read");
        *bytes.last_mut().expect("non-empty") ^= 0x01;
        std::fs::write(&seg, &bytes).expect("write");
        match Wal::tail(&dir, start, u64::MAX, None) {
            Err(StoreError::Corrupt { path, defect, .. }) => {
                assert_eq!(path, seg);
                assert_eq!(defect, FrameDefect::ChecksumMismatch);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // a reader past the damage never meets it
        let after_first = Wal::tail(&dir, clean.next, u64::MAX, None).expect("tail");
        assert!(after_first.records.is_empty());
    }

    #[test]
    fn fsync_failure_leaves_records_unacked_and_retry_commits_them() {
        use crate::io::{IoFaultPlan, IoFaultRates};
        let dir = tmpdir("fsync");
        // Plan: first fsync op fails; later rolls (different ops) may
        // pass. Find a seed where op0's fsync fails and op1's doesn't.
        let seed = (0..200u64)
            .find(|&s| {
                let p = IoFaultPlan::new(
                    s,
                    IoFaultRates {
                        failed_fsync: 0.5,
                        ..Default::default()
                    },
                );
                // ops: 0 create-segment, 1 fsync-dir, 2 wal write, 3 wal fsync, 4 retry fsync
                !p.fsync_fails(1, "probe")
                    && p.fsync_fails(3, "probe")
                    && !p.fsync_fails(4, "probe")
            })
            .expect("seed exists");
        let plan = Arc::new(IoFaultPlan::new(
            seed,
            IoFaultRates {
                failed_fsync: 0.5,
                ..Default::default()
            },
        ));
        let (mut wal, _) = Wal::open(
            &dir,
            WalOptions {
                segment_bytes: 1 << 20,
                plan: Some(plan),
            },
        )
        .expect("open");
        wal.append(b"needs durability").expect("append");
        let err = wal.commit().expect_err("fsync fails");
        assert!(err.is_fsync_failure(), "{err}");
        assert_eq!(wal.acked_seq(), None, "must not ack on failed fsync");
        // Retry: records are not rewritten, just fsynced.
        let acked = wal.commit().expect("retry succeeds");
        assert_eq!(acked, Some(0));
        drop(wal);
        let (_, rec) = Wal::open(&dir, WalOptions::default()).expect("recover");
        assert_eq!(rec.records.len(), 1, "no duplicate frames from retry");
    }
}
