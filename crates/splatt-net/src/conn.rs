//! Per-connection frame state machine: nonblocking reads into a frame
//! reassembly buffer, sequence-ordered completion tracking for
//! pipelined requests, and a coalescing write buffer.
//!
//! The connection owns its socket's mode exclusively: the stream is put
//! into nonblocking mode once at registration and never toggled again
//! (a per-request `set_nonblocking` flip would race a read timeout on
//! the same socket; there is no such race by construction).
//!
//! Pipelining discipline: requests on one connection are answered in
//! the order they arrived, whatever order the worker pool finishes them
//! in. Each request gets a sequence number at decode; completions are
//! parked in an ordered map until they are next in line, then appended
//! to the write buffer — several at once when the pool bursts, which is
//! where write coalescing comes from.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use splatt_guard::OwnedAdmissionPermit;

use crate::service::{Disposition, Reply};

/// Wire framing: a `u32` little-endian payload length precedes each
/// payload (matching `splatt-serve`'s frame layer).
pub const FRAME_HEADER: usize = 4;

/// Reassembly-buffer capacity an idle connection may keep.
const READ_BUF_KEEP: usize = 16 * 1024;

/// Result of pumping bytes from the socket.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Some bytes may have arrived; the socket would now block.
    Progress,
    /// Orderly EOF from the peer.
    Eof,
}

/// A frame-layer protocol violation (oversized frame).
#[derive(Debug)]
pub struct FrameTooLarge {
    pub len: usize,
    pub max: usize,
}

/// See the module docs.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    pub fd: i32,
    /// Distinguishes reincarnations of the same slab slot so stale
    /// completions and timers can be recognized and dropped.
    pub generation: u32,
    /// Raw bytes read off the socket; `read_buf[read_pos..]` is not yet
    /// framed.
    read_buf: Vec<u8>,
    /// Prefix of `read_buf` already handed out as frames. Consuming a
    /// frame only moves this; [`Conn::compact`] reclaims the prefix once
    /// per read pass.
    read_pos: usize,
    /// Encoded, length-prefixed response bytes not yet written.
    out_buf: Vec<u8>,
    /// Prefix of `out_buf` already written to the socket.
    out_pos: usize,
    /// Response frames currently sitting in `out_buf`.
    pending_out_frames: usize,
    /// Next sequence number to assign at decode.
    next_seq: u64,
    /// Next sequence number the write side may emit.
    next_write_seq: u64,
    /// Completions that finished out of order, parked until their turn.
    done: BTreeMap<u64, Reply>,
    /// Sequence numbers dispatched to the pool and not yet answered
    /// (by completion or by the deadline backstop).
    in_flight: std::collections::HashSet<u64>,
    /// Shared with worker jobs; cleared on disconnect so handlers can
    /// abort work nobody will read.
    pub alive: Arc<AtomicBool>,
    /// Accept-layer admission permit, held for the connection lifetime.
    _permit: OwnedAdmissionPermit,
    pub last_activity: Instant,
    /// Close once the write buffer drains.
    pub closing: bool,
}

impl Conn {
    /// Register a freshly accepted stream: switch it to nonblocking
    /// (once, forever) and wrap it in connection state.
    ///
    /// # Errors
    /// Propagates `set_nonblocking` failure.
    pub fn new(
        stream: TcpStream,
        generation: u32,
        permit: OwnedAdmissionPermit,
        now: Instant,
    ) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let fd = raw_fd(&stream);
        Ok(Conn {
            stream,
            fd,
            generation,
            read_buf: Vec::new(),
            read_pos: 0,
            out_buf: Vec::new(),
            out_pos: 0,
            pending_out_frames: 0,
            next_seq: 0,
            next_write_seq: 0,
            done: BTreeMap::new(),
            in_flight: std::collections::HashSet::new(),
            alive: Arc::new(AtomicBool::new(true)),
            _permit: permit,
            last_activity: now,
            closing: false,
        })
    }

    /// Drain the socket into the reassembly buffer until it would
    /// block. `scratch` is the reactor's shared read buffer.
    ///
    /// # Errors
    /// Propagates socket errors other than `WouldBlock`/`Interrupted`.
    pub fn read_ready(&mut self, scratch: &mut [u8], now: Instant) -> io::Result<ReadOutcome> {
        loop {
            match self.stream.read(scratch) {
                Ok(0) => return Ok(ReadOutcome::Eof),
                Ok(n) => {
                    self.read_buf.extend_from_slice(&scratch[..n]);
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(ReadOutcome::Progress)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete frame's payload, borrowed from the reassembly
    /// buffer. `Ok(None)` means more bytes are needed. The frame stays
    /// at the head of the buffer until [`Conn::consume_frame`].
    ///
    /// # Errors
    /// [`FrameTooLarge`] when the peer announces a frame over `max_frame`.
    pub fn peek_frame(&self, max_frame: usize) -> Result<Option<&[u8]>, FrameTooLarge> {
        let unframed = &self.read_buf[self.read_pos..];
        let Some((header, rest)) = unframed.split_first_chunk::<FRAME_HEADER>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*header) as usize;
        if len > max_frame {
            return Err(FrameTooLarge {
                len,
                max: max_frame,
            });
        }
        Ok(rest.get(..len))
    }

    /// Drop the frame [`Conn::peek_frame`] last returned, whose payload
    /// was `payload_len` bytes.
    pub fn consume_frame(&mut self, payload_len: usize) {
        self.read_pos = (self.read_pos + FRAME_HEADER + payload_len).min(self.read_buf.len());
    }

    /// Reclaim the consumed prefix of the reassembly buffer. Called once
    /// per read pass, after its frames: when every byte was framed (the
    /// usual case) nothing moves, otherwise the partial tail slides to
    /// the front. A buffer one large request grew is given back.
    pub fn compact(&mut self) {
        if self.read_pos == self.read_buf.len() {
            self.read_buf.clear();
            self.read_buf.shrink_to(READ_BUF_KEEP);
        } else {
            self.read_buf.drain(..self.read_pos);
        }
        self.read_pos = 0;
    }

    /// Assign the next request sequence number and mark it in flight.
    pub fn begin_request(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.in_flight.insert(seq);
        seq
    }

    /// Assign a sequence number for a request answered instantly on the
    /// reactor thread (a shed): it participates in response ordering
    /// but never goes in flight.
    pub fn begin_instant(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Whether `seq` is still awaiting an answer. The deadline backstop
    /// and late worker completions race through this: whoever calls
    /// [`Conn::finish_request`] first wins.
    pub fn is_in_flight(&self, seq: u64) -> bool {
        self.in_flight.contains(&seq)
    }

    /// Claim `seq` as answered; returns false if something else (the
    /// backstop, a duplicate completion) already did.
    pub fn finish_request(&mut self, seq: u64) -> bool {
        self.in_flight.remove(&seq)
    }

    /// Requests currently unanswered on this connection (in flight in
    /// the pool plus completions parked for ordering).
    pub fn pipeline_depth(&self) -> usize {
        self.in_flight.len() + self.done.len()
    }

    /// Park a completed reply, then move every now-contiguous reply
    /// into the write buffer. Returns the number of frames buffered by
    /// this call (0 if `seq` is still blocked behind an earlier one).
    pub fn enqueue_reply(&mut self, seq: u64, reply: Reply) -> usize {
        self.done.insert(seq, reply);
        let mut appended = 0;
        while let Some(reply) = self.done.remove(&self.next_write_seq) {
            self.next_write_seq += 1;
            appended += 1;
            self.pending_out_frames += 1;
            let len = reply.payload.len() as u32;
            self.out_buf.extend_from_slice(&len.to_le_bytes());
            self.out_buf.extend_from_slice(&reply.payload);
            match reply.disposition {
                Disposition::Continue => {}
                Disposition::CloseAfterWrite | Disposition::ShutdownAfterWrite => {
                    self.closing = true;
                }
            }
        }
        appended
    }

    /// Whether any buffered response bytes await the socket.
    pub fn wants_write(&self) -> bool {
        self.out_pos < self.out_buf.len()
    }

    /// Push buffered response bytes until the socket would block or the
    /// buffer drains. Returns `(write_syscalls, frames_flushed,
    /// coalesced)` where `coalesced` is true when this flush carried
    /// two or more frames.
    ///
    /// # Errors
    /// Propagates socket errors other than `WouldBlock`/`Interrupted`.
    pub fn flush(&mut self, now: Instant) -> io::Result<(u64, u64, bool)> {
        let coalesced = self.pending_out_frames >= 2;
        let mut syscalls = 0u64;
        while self.out_pos < self.out_buf.len() {
            match self.stream.write(&self.out_buf[self.out_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    syscalls += 1;
                    self.out_pos += n;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos >= self.out_buf.len() {
            self.out_buf.clear();
            self.out_pos = 0;
            let flushed = self.pending_out_frames as u64;
            self.pending_out_frames = 0;
            Ok((syscalls, flushed, coalesced && flushed > 0))
        } else {
            // Partial flush: frames are counted when the buffer fully
            // drains so each is reported exactly once.
            Ok((syscalls, 0, false))
        }
    }

    /// Whether the connection has fully quiesced: nothing unanswered
    /// and nothing left to write.
    pub fn is_drained(&self) -> bool {
        self.in_flight.is_empty() && self.done.is_empty() && !self.wants_write()
    }

    /// Mark the connection dead so worker jobs holding its alive flag
    /// abort.
    pub fn mark_dead(&self) {
        self.alive.store(false, Ordering::Relaxed);
    }
}

fn raw_fd(stream: &TcpStream) -> i32 {
    #[cfg(unix)]
    {
        use std::os::fd::AsRawFd;
        stream.as_raw_fd()
    }
    #[cfg(not(unix))]
    {
        let _ = stream;
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatt_guard::AdmissionGate;
    use std::net::TcpListener;

    fn test_conn() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let gate = Arc::new(AdmissionGate::new(4));
        let permit = gate.try_admit_owned().unwrap();
        let conn = Conn::new(stream, 1, permit, Instant::now()).unwrap();
        (conn, peer)
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn reassembles_frames_split_across_reads() {
        let (mut conn, mut peer) = test_conn();
        let msg = frame(b"hello");
        peer.write_all(&msg[..3]).unwrap();
        peer.flush().unwrap();
        let mut scratch = [0u8; 4096];
        std::thread::sleep(std::time::Duration::from_millis(20));
        conn.read_ready(&mut scratch, Instant::now()).unwrap();
        assert!(conn.peek_frame(1 << 20).unwrap().is_none());
        peer.write_all(&msg[3..]).unwrap();
        peer.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        conn.read_ready(&mut scratch, Instant::now()).unwrap();
        assert_eq!(conn.peek_frame(1 << 20).unwrap().unwrap(), b"hello");
    }

    #[test]
    fn rejects_frames_over_the_cap() {
        let (mut conn, mut peer) = test_conn();
        peer.write_all(&(100u32).to_le_bytes()).unwrap();
        peer.flush().unwrap();
        let mut scratch = [0u8; 4096];
        std::thread::sleep(std::time::Duration::from_millis(20));
        conn.read_ready(&mut scratch, Instant::now()).unwrap();
        let err = conn.peek_frame(10).unwrap_err();
        assert_eq!(err.len, 100);
        assert_eq!(err.max, 10);
    }

    #[test]
    fn out_of_order_completions_are_written_in_request_order() {
        let (mut conn, mut peer) = test_conn();
        let a = conn.begin_request();
        let b = conn.begin_request();
        let c = conn.begin_request();
        // Finish them backwards.
        assert!(conn.finish_request(c));
        assert_eq!(conn.enqueue_reply(c, Reply::ok(b"C".to_vec())), 0);
        assert!(conn.finish_request(b));
        assert_eq!(conn.enqueue_reply(b, Reply::ok(b"B".to_vec())), 0);
        assert!(conn.finish_request(a));
        // The head of line unblocks everything: three frames coalesce.
        assert_eq!(conn.enqueue_reply(a, Reply::ok(b"A".to_vec())), 3);
        let (_sys, flushed, coalesced) = conn.flush(Instant::now()).unwrap();
        assert_eq!(flushed, 3);
        assert!(coalesced);
        let mut got = [0u8; 15];
        peer.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        peer.read_exact(&mut got).unwrap();
        let mut expect = Vec::new();
        for p in [b"A", b"B", b"C"] {
            expect.extend_from_slice(&frame(p));
        }
        assert_eq!(&got[..], &expect[..]);
    }

    #[test]
    fn finish_request_claims_a_sequence_exactly_once() {
        let (mut conn, _peer) = test_conn();
        let seq = conn.begin_request();
        assert!(conn.is_in_flight(seq));
        assert!(conn.finish_request(seq));
        assert!(!conn.finish_request(seq), "second claim must lose the race");
        assert_eq!(conn.pipeline_depth(), 0);
    }

    #[test]
    fn instant_replies_share_the_ordering_sequence() {
        let (mut conn, _peer) = test_conn();
        let a = conn.begin_request();
        let shed = conn.begin_instant();
        assert_eq!(conn.pipeline_depth(), 1);
        // The shed's reply parks behind the in-flight request.
        assert_eq!(conn.enqueue_reply(shed, Reply::ok(b"S".to_vec())), 0);
        conn.finish_request(a);
        assert_eq!(conn.enqueue_reply(a, Reply::ok(b"A".to_vec())), 2);
        assert!(!conn.closing);
        assert!(conn.wants_write());
    }

    #[test]
    fn close_dispositions_latch_the_closing_flag() {
        let (mut conn, _peer) = test_conn();
        let seq = conn.begin_instant();
        conn.enqueue_reply(
            seq,
            Reply {
                payload: b"bye".to_vec(),
                disposition: Disposition::CloseAfterWrite,
            },
        );
        assert!(conn.closing);
        assert!(!conn.is_drained());
        conn.flush(Instant::now()).unwrap();
        assert!(conn.is_drained());
    }
}
