//! The reactor: one thread multiplexing every connection through a
//! readiness poller, answering cheap requests itself and leaving the
//! blocking application work to a bounded worker pool.
//!
//! ## Threading model
//!
//! One reactor thread owns the listener, every connection, the timer
//! wheel, and all socket I/O. Each admitted request is first offered to
//! [`FrameService::try_handle_now`] on that thread, as a slice borrowed
//! from the connection's read buffer. A request the service can finish
//! there runs to completion — its reply is in the connection's write
//! buffer when the call returns — with no thread hand-off, no
//! completion queue, no wake-up and no backstop timer, and the replies
//! of one read pass leave in one write. A request the service declines
//! is copied out (its one allocation) and goes to one of `workers` pool
//! threads, which run [`FrameService::handle`] (it may block on the
//! serving engine) and push completions into a shared queue, waking the
//! reactor through a loopback socket pair. Total front-end threads are
//! `1 + workers`, independent of connection count.
//!
//! Inline work holds the reactor — nothing else is read, written or
//! accepted while it runs — so the service bounds the cost of one call
//! (see the trait docs) and the reactor bounds the calls one connection
//! gets per read pass: a reply not yet flushed still counts against the
//! pipeline cap, so at most `max_pipeline` of them. In exchange an
//! inline request never waits behind a pooled one from another
//! connection: a scan that occupies every worker does not delay a point
//! read. On one connection, responses keep request order either way.
//!
//! ## Admission layers
//!
//! - **accept**: an [`AdmissionGate`] caps registered connections. Shed
//!   connections get one typed frame (supplied by the embedder via
//!   [`ReactorConfig::accept_shed_frame`]) and are closed.
//! - **decode**: a second gate caps decoded-but-unanswered requests
//!   across all connections, and a per-connection pipeline cap bounds
//!   any one client. Both are consulted before the inline offer, so an
//!   inline-eligible request is shed exactly when a pooled one would
//!   be. Shed requests get a typed reply from
//!   [`FrameService::shed_reply`] that participates in response
//!   ordering as an instant completion.
//! - **batch**: the application's own gate inside
//!   [`FrameService::handle`] and [`FrameService::try_handle_now`] (the
//!   serving engine's admission gate).
//!
//! ## Shutdown
//!
//! Tripping the stop token starts a drain: accepting and reading stop,
//! in-flight requests finish and their responses flush, then the
//! reactor exits — or the drain deadline passes and remaining
//! connections are dropped. A [`Disposition::ShutdownAfterWrite`] reply
//! triggers [`FrameService::on_shutdown`] (where the embedder cancels
//! its engine) and, via the token hierarchy, the same drain.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use splatt_guard::{AdmissionGate, CancelToken};
use splatt_rt::sync::Mutex;

use crate::conn::{Conn, FrameTooLarge, ReadOutcome};
use crate::counters::{conn_closed, conn_opened, NetCounters, NetSnapshot};
use crate::poller::{Event, Interest, Poller};
use crate::pool::WorkerPool;
use crate::service::{Disposition, FrameService, Reply, RequestCtx, ShedLayer};
use crate::timer::TimerWheel;

/// Poll timeout: bounds stop-token latency and timer slack.
const POLL_TIMEOUT: Duration = Duration::from_millis(50);
/// Timer wheel geometry: 256 slots of 100 ms (one lap ≈ 25.6 s).
const WHEEL_SLOTS: usize = 256;
const WHEEL_GRANULARITY: Duration = Duration::from_millis(100);
/// Backstop timers fire this long after the request's own deadline —
/// the application enforces the deadline itself; the backstop only
/// answers for a stuck worker.
const BACKSTOP_GRACE: Duration = Duration::from_millis(250);
/// Shared read scratch size.
const SCRATCH: usize = 64 * 1024;

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKE_TOKEN: u64 = u64::MAX - 1;

/// Front-end tuning; see the module docs for what each layer does.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Worker-pool threads running [`FrameService::handle`].
    pub workers: usize,
    /// Accept-layer cap: connections registered at once.
    pub max_conns: usize,
    /// Decode-layer cap: decoded-but-unanswered requests at once.
    pub queue_depth: usize,
    /// Per-connection cap on unanswered pipelined requests.
    pub max_pipeline: usize,
    /// Close connections with no traffic for this long.
    pub idle_timeout: Duration,
    /// How long a drain may run before remaining connections drop.
    pub drain_deadline: Duration,
    /// Largest acceptable frame payload.
    pub max_frame: usize,
    /// Force the sweep poller even where `poll(2)` exists (tests).
    pub force_sweep: bool,
    /// Pre-encoded payload written (length-prefixed) to a connection
    /// shed at the accept layer; empty means close without a reply.
    pub accept_shed_frame: Vec<u8>,
    /// Thread-name prefix for the reactor and worker threads.
    pub thread_name: String,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        ReactorConfig {
            workers: cores.max(2),
            max_conns: 4096,
            queue_depth: 256,
            max_pipeline: 32,
            idle_timeout: Duration::from_secs(60),
            drain_deadline: Duration::from_secs(5),
            max_frame: 64 << 20,
            force_sweep: false,
            accept_shed_frame: Vec::new(),
            thread_name: "splatt-net".to_string(),
        }
    }
}

/// Timer identity: enough to recognize stale firings lazily.
#[derive(Debug, Clone, Copy)]
enum TimerKey {
    Idle {
        slot: u32,
        generation: u32,
    },
    Backstop {
        slot: u32,
        generation: u32,
        seq: u64,
    },
}

struct Completion {
    token: u64,
    seq: u64,
    reply: Reply,
}

/// Where an admitted or refused frame goes.
enum Routed {
    /// Answered on the reactor thread: a shed, or the service's
    /// `try_handle_now`.
    Instant(Reply),
    /// An owned copy of the payload for a pool job, with the decode
    /// permit the job holds while it runs.
    Pooled(Vec<u8>, splatt_guard::OwnedAdmissionPermit),
}

/// Per-connection state of one `read_conn` pass.
#[derive(Default)]
struct ReadPass {
    /// Frames `try_handle_now` answered in this pass.
    inline: usize,
    /// Whether the pass left reply bytes to flush.
    buffered: bool,
}

/// State shared between the reactor thread, worker jobs, and the handle.
struct Shared {
    counters: Arc<NetCounters>,
    completions: Mutex<Vec<Completion>>,
    wake_tx: TcpStream,
    stop: CancelToken,
    accept_gate: Arc<AdmissionGate>,
    decode_gate: Arc<AdmissionGate>,
}

impl Shared {
    fn wake(&self) {
        // Nonblocking one-byte nudge; a full buffer means the reactor
        // is already awash in wakeups.
        let _ = (&self.wake_tx).write(&[1u8]);
    }

    fn push_completion(&self, c: Completion) {
        self.completions.lock().push(c);
        self.wake();
    }
}

/// Handle to a running reactor; dropping it does NOT stop the reactor —
/// call [`NetHandle::join`] (or at least [`NetHandle::stop`]).
pub struct NetHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for NetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl NetHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current front-end counters.
    pub fn counters(&self) -> NetSnapshot {
        self.shared.counters.snapshot()
    }

    /// The live counters themselves, for embedding in probe reports.
    pub fn counters_handle(&self) -> Arc<NetCounters> {
        Arc::clone(&self.shared.counters)
    }

    /// The accept-layer gate (connection cap).
    pub fn accept_gate(&self) -> &Arc<AdmissionGate> {
        &self.shared.accept_gate
    }

    /// The decode-layer gate (request queue depth).
    pub fn decode_gate(&self) -> &Arc<AdmissionGate> {
        &self.shared.decode_gate
    }

    /// Begin a drain: trip the stop token and wake the reactor.
    pub fn stop(&self) {
        self.shared.stop.cancel();
        self.shared.wake();
    }

    /// Stop and wait for the reactor thread (and its workers) to exit.
    pub fn join(mut self) {
        self.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Wait for the reactor to exit *without* tripping the stop token —
    /// for embedders whose handle contract is "block until someone else
    /// requests shutdown" (a signal handler, a wire op, another thread).
    pub fn wait(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Run a reactor over `listener`, serving `service`, until `stop`
/// trips. Returns once the reactor thread is spawned.
///
/// # Errors
/// Propagates listener/wake-channel setup failures.
pub fn serve_frames(
    listener: TcpListener,
    service: Arc<dyn FrameService>,
    config: ReactorConfig,
    stop: CancelToken,
) -> io::Result<NetHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let (wake_tx, wake_rx) = wake_pair()?;
    let counters = Arc::new(NetCounters::default());
    let shared = Arc::new(Shared {
        counters: Arc::clone(&counters),
        completions: Mutex::new(Vec::new()),
        wake_tx,
        stop,
        accept_gate: Arc::new(AdmissionGate::new(config.max_conns)),
        decode_gate: Arc::new(AdmissionGate::new(config.queue_depth)),
    });
    let pool = WorkerPool::new(config.workers, &format!("{}-worker", config.thread_name));
    counters
        .worker_threads
        .store(pool.workers() as u64, std::sync::atomic::Ordering::Relaxed);
    let thread_name = format!("{}-reactor", config.thread_name);
    let force_sweep = config.force_sweep;
    let reactor_shared = Arc::clone(&shared);
    let thread = std::thread::Builder::new()
        .name(thread_name)
        .spawn(move || {
            let mut reactor = Reactor {
                listener,
                service,
                config,
                shared: reactor_shared,
                pool: Some(pool),
                wake_rx,
                conns: Vec::new(),
                free: Vec::new(),
                next_generation: 0,
                wheel: TimerWheel::new(WHEEL_SLOTS, WHEEL_GRANULARITY),
                poller: Poller::new(force_sweep),
                scratch: vec![0u8; SCRATCH],
                interests: Vec::new(),
                events: Vec::new(),
                fired: Vec::new(),
                draining: false,
                drain_deadline: None,
                shutdown_hook_called: false,
            };
            reactor.run();
        })?;
    Ok(NetHandle {
        addr,
        shared,
        thread: Some(thread),
    })
}

fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    // std has no pipe; a loopback socket pair serves as one.
    let l = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(l.local_addr()?)?;
    let (rx, _) = l.accept()?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true).ok();
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

fn listener_fd(listener: &TcpListener) -> i32 {
    #[cfg(unix)]
    {
        use std::os::fd::AsRawFd;
        listener.as_raw_fd()
    }
    #[cfg(not(unix))]
    {
        let _ = listener;
        0
    }
}

fn stream_fd(stream: &TcpStream) -> i32 {
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

struct Reactor {
    listener: TcpListener,
    service: Arc<dyn FrameService>,
    config: ReactorConfig,
    shared: Arc<Shared>,
    /// `Option` so teardown can shut the pool down by value.
    pool: Option<WorkerPool>,
    wake_rx: TcpStream,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u32,
    wheel: TimerWheel<TimerKey>,
    poller: Poller,
    scratch: Vec<u8>,
    interests: Vec<Interest>,
    events: Vec<Event>,
    fired: Vec<TimerKey>,
    draining: bool,
    drain_deadline: Option<Instant>,
    shutdown_hook_called: bool,
}

impl Reactor {
    fn token(slot: usize, generation: u32) -> u64 {
        ((slot as u64) << 32) | u64::from(generation)
    }

    fn run(&mut self) {
        loop {
            self.process_completions();
            let now = Instant::now();
            if !self.draining && self.shared.stop.is_cancelled() {
                self.draining = true;
                self.drain_deadline = Some(now + self.config.drain_deadline);
            }
            if self.draining {
                let expired = self.drain_deadline.is_some_and(|d| now >= d);
                let all_quiet = self.conns.iter().flatten().all(|c| c.is_drained());
                if expired || all_quiet {
                    break;
                }
            }
            self.build_interests();
            let counters = &self.shared.counters;
            counters
                .polls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let mut events = std::mem::take(&mut self.events);
            match self.poller.wait(&self.interests, POLL_TIMEOUT, &mut events) {
                Ok(n) if n > 0 => {
                    counters
                        .readiness_wakeups
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                Ok(_) => {}
                Err(_) => {
                    // A failed poll (fd limit churn, EBADF race) is
                    // retried; persistent failure would spin here, but
                    // every path that closes fds goes through us.
                    events.clear();
                }
            }
            for &ev in &events {
                match ev.token {
                    WAKE_TOKEN => self.drain_wake(),
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_event(token, ev),
                }
            }
            self.events = events;
            self.fire_timers();
        }
        self.teardown();
    }

    fn build_interests(&mut self) {
        self.interests.clear();
        if !self.draining {
            self.interests.push(Interest {
                token: LISTENER_TOKEN,
                fd: listener_fd(&self.listener),
                readable: true,
                writable: false,
            });
        }
        self.interests.push(Interest {
            token: WAKE_TOKEN,
            fd: stream_fd(&self.wake_rx),
            readable: true,
            writable: false,
        });
        for (slot, conn) in self.conns.iter().enumerate() {
            let Some(conn) = conn else { continue };
            let readable = !self.draining && !conn.closing;
            let writable = conn.wants_write();
            if readable || writable {
                self.interests.push(Interest {
                    token: Self::token(slot, conn.generation),
                    fd: conn.fd,
                    readable,
                    writable,
                });
            }
        }
    }

    fn drain_wake(&mut self) {
        loop {
            match (&self.wake_rx).read(&mut self.scratch) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.shared
                        .counters
                        .accepted
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    match self.shared.accept_gate.try_admit_owned() {
                        Ok(permit) => self.register(stream, permit),
                        Err(_) => {
                            self.shared
                                .counters
                                .sheds_accept
                                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            self.shed_accepted(stream);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Tell a shed connection why, without letting it block the
    /// reactor: one short-timeout blocking write of the typed frame.
    fn shed_accepted(&self, stream: TcpStream) {
        let frame = &self.config.accept_shed_frame;
        if frame.is_empty() {
            return;
        }
        let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
        let mut msg = Vec::with_capacity(4 + frame.len());
        msg.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        msg.extend_from_slice(frame);
        let _ = (&stream).write_all(&msg);
    }

    fn register(&mut self, stream: TcpStream, permit: splatt_guard::OwnedAdmissionPermit) {
        stream.set_nodelay(true).ok();
        let now = Instant::now();
        self.next_generation = self.next_generation.wrapping_add(1);
        let generation = self.next_generation;
        let conn = match Conn::new(stream, generation, permit, now) {
            Ok(c) => c,
            Err(_) => return,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.conns[s] = Some(conn);
                s
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        conn_opened(&self.shared.counters);
        self.wheel.schedule(
            now + self.config.idle_timeout,
            TimerKey::Idle {
                slot: slot as u32,
                generation,
            },
        );
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            conn.mark_dead();
            conn_closed(&self.shared.counters);
            self.free.push(slot);
        }
    }

    fn conn_event(&mut self, token: u64, ev: Event) {
        let slot = (token >> 32) as usize;
        let generation = token as u32;
        let matches = self
            .conns
            .get(slot)
            .is_some_and(|c| c.as_ref().is_some_and(|c| c.generation == generation));
        if !matches {
            return;
        }
        if (ev.readable || ev.error) && !self.read_conn(slot) {
            return;
        }
        if ev.writable {
            self.flush_conn(slot);
        }
    }

    /// Pump bytes and frames from one connection. Returns false if the
    /// connection was closed.
    fn read_conn(&mut self, slot: usize) -> bool {
        let now = Instant::now();
        let outcome = {
            let Some(conn) = self.conns[slot].as_mut() else {
                return false;
            };
            match conn.read_ready(&mut self.scratch, now) {
                Ok(o) => o,
                Err(_) => {
                    self.close_conn(slot);
                    return false;
                }
            }
        };
        // Replies this pass left in the write buffer go out in one
        // flush at its end, so a pipelined burst answered here costs
        // one write, not one per frame.
        let mut pass = ReadPass::default();
        loop {
            match self.process_frame(slot, now, &mut pass) {
                Ok(true) => {}
                Ok(false) => break,
                Err(_) => {
                    // Frame-layer protocol violation: drop the
                    // connection; there is no frame to answer in.
                    self.close_conn(slot);
                    return false;
                }
            }
        }
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.compact();
        }
        if pass.buffered {
            self.flush_conn(slot);
            if self.conns[slot].is_none() {
                return false;
            }
        }
        if outcome == ReadOutcome::Eof {
            self.close_conn(slot);
            return false;
        }
        true
    }

    /// Route the frame at the head of `slot`'s reassembly buffer: shed
    /// it, answer it here, or hand it to the pool. `Ok(false)` when no
    /// complete frame is there yet.
    fn process_frame(
        &mut self,
        slot: usize,
        now: Instant,
        pass: &mut ReadPass,
    ) -> Result<bool, FrameTooLarge> {
        let counters = &self.shared.counters;
        let Some(conn) = self.conns[slot].as_mut() else {
            return Ok(false);
        };
        let Some(payload) = conn.peek_frame(self.config.max_frame)? else {
            return Ok(false);
        };
        let payload_len = payload.len();
        counters.frames_read.fetch_add(1, Relaxed);
        // Layer 2a: per-connection pipeline cap. A reply made on this
        // thread in this pass is not on the wire before the pass's
        // flush, so it still counts: one pass answers at most
        // `max_pipeline` frames of one connection inline.
        let routed = if conn.pipeline_depth() + pass.inline >= self.config.max_pipeline {
            counters.sheds_decode.fetch_add(1, Relaxed);
            Routed::Instant(Reply::ok(self.service.shed_reply(ShedLayer::Pipeline {
                max_pipeline: self.config.max_pipeline,
            })))
        } else {
            // Layer 2b: global decode-queue depth.
            match self.shared.decode_gate.try_admit_owned() {
                Err(over) => {
                    counters.sheds_decode.fetch_add(1, Relaxed);
                    Routed::Instant(Reply::ok(self.service.shed_reply(ShedLayer::QueueDepth {
                        depth: over.depth,
                        max_depth: over.max_depth,
                    })))
                }
                // The permit covers the inline call as it covers a
                // pooled job's run, and is released on return.
                Ok(permit) => match self.service.try_handle_now(payload) {
                    Some(reply) => {
                        counters.frames_inline.fetch_add(1, Relaxed);
                        pass.inline += 1;
                        Routed::Instant(reply)
                    }
                    // The pooled frame's one allocation.
                    None => Routed::Pooled(payload.to_vec(), permit),
                },
            }
        };
        conn.consume_frame(payload_len);
        match routed {
            // Answered without leaving this thread: the reply takes its
            // place in the response order (behind any earlier pooled
            // request) and never goes in flight — no pool job, no
            // completion, no wake-up, no backstop timer.
            Routed::Instant(reply) => {
                let seq = conn.begin_instant();
                pass.buffered |= self.buffer_reply(slot, seq, reply) > 0;
            }
            Routed::Pooled(payload, permit) => self.dispatch(slot, payload, permit, now),
        }
        Ok(true)
    }

    /// Hand one admitted request to the worker pool.
    fn dispatch(
        &mut self,
        slot: usize,
        payload: Vec<u8>,
        permit: splatt_guard::OwnedAdmissionPermit,
        now: Instant,
    ) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let generation = conn.generation;
        let seq = conn.begin_request();
        let deadline = self.service.deadline_of(&payload).map(|d| now + d);
        if let Some(d) = deadline {
            self.wheel.schedule(
                d + BACKSTOP_GRACE,
                TimerKey::Backstop {
                    slot: slot as u32,
                    generation,
                    seq,
                },
            );
        }
        let ctx = RequestCtx::new(Arc::clone(&conn.alive), deadline);
        let token = Self::token(slot, generation);
        let service = Arc::clone(&self.service);
        let shared = Arc::clone(&self.shared);
        let pool = self.pool.as_ref().expect("pool alive while running");
        pool.submit(Box::new(move || {
            // Hold the decode permit for the job's whole run: depth
            // covers queued plus executing requests.
            let _permit = permit;
            if ctx.is_aborted() {
                // The connection died before we started; nobody will
                // read the answer, so don't compute it.
                return;
            }
            let reply = service.handle(&payload, &ctx);
            shared.push_completion(Completion { token, seq, reply });
        }));
    }

    /// Park `reply` at `seq` on `slot`'s connection and move every
    /// reply that is now next in line into its write buffer. Returns
    /// the frames buffered; the caller flushes.
    fn buffer_reply(&mut self, slot: usize, seq: u64, reply: Reply) -> usize {
        let Some(conn) = self.conns[slot].as_mut() else {
            return 0;
        };
        if reply.disposition == Disposition::ShutdownAfterWrite && !self.shutdown_hook_called {
            self.shutdown_hook_called = true;
            self.service.on_shutdown();
        }
        let appended = conn.enqueue_reply(seq, reply);
        self.shared
            .counters
            .frames_written
            .fetch_add(appended as u64, Relaxed);
        appended
    }

    fn process_completions(&mut self) {
        let batch = {
            let mut queue = self.shared.completions.lock();
            if queue.is_empty() {
                return;
            }
            std::mem::take(&mut *queue)
        };
        for Completion { token, seq, reply } in batch {
            let slot = (token >> 32) as usize;
            let generation = token as u32;
            let Some(Some(conn)) = self.conns.get_mut(slot) else {
                continue;
            };
            if conn.generation != generation || !conn.finish_request(seq) {
                // Stale: the connection died and was reincarnated, or
                // the deadline backstop already answered this sequence.
                continue;
            }
            if self.buffer_reply(slot, seq, reply) > 0 {
                self.flush_conn(slot);
            }
        }
    }

    fn flush_conn(&mut self, slot: usize) {
        let now = Instant::now();
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        match conn.flush(now) {
            Ok((syscalls, _flushed, coalesced)) => {
                let counters = &self.shared.counters;
                counters
                    .writes
                    .fetch_add(syscalls, std::sync::atomic::Ordering::Relaxed);
                if coalesced {
                    counters
                        .coalesced_writes
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                if conn.closing && !conn.wants_write() {
                    self.close_conn(slot);
                }
            }
            Err(_) => self.close_conn(slot),
        }
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        let mut fired = std::mem::take(&mut self.fired);
        fired.clear();
        self.wheel.expired(now, &mut fired);
        for key in &fired {
            match *key {
                TimerKey::Idle { slot, generation } => {
                    self.idle_fired(slot as usize, generation, now)
                }
                TimerKey::Backstop {
                    slot,
                    generation,
                    seq,
                } => self.backstop_fired(slot as usize, generation, seq),
            }
        }
        self.fired = fired;
    }

    fn idle_fired(&mut self, slot: usize, generation: u32, now: Instant) {
        let Some(Some(conn)) = self.conns.get(slot) else {
            return;
        };
        if conn.generation != generation {
            return;
        }
        // Busy connections are not idle, whatever their byte traffic.
        let busy = conn.pipeline_depth() > 0 || conn.wants_write();
        let deadline = conn.last_activity + self.config.idle_timeout;
        if !busy && now >= deadline {
            self.shared
                .counters
                .idle_closed
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.close_conn(slot);
        } else {
            // Activity moved the deadline (or work is in flight):
            // re-arm lazily instead of tracking cancellations.
            let due = if busy {
                now + self.config.idle_timeout
            } else {
                deadline
            };
            self.wheel.schedule(
                due,
                TimerKey::Idle {
                    slot: slot as u32,
                    generation,
                },
            );
        }
    }

    fn backstop_fired(&mut self, slot: usize, generation: u32, seq: u64) {
        let Some(Some(conn)) = self.conns.get_mut(slot) else {
            return;
        };
        if conn.generation != generation || !conn.finish_request(seq) {
            return;
        }
        // The worker overran the deadline and its completion will now
        // be stale; answer for it so the client is not left hanging.
        self.shared
            .counters
            .deadline_backstops
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let reply = Reply::ok(self.service.deadline_reply());
        if self.buffer_reply(slot, seq, reply) > 0 {
            self.flush_conn(slot);
        }
    }

    fn teardown(&mut self) {
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].take() {
                conn.mark_dead();
                conn_closed(&self.shared.counters);
            }
        }
        // Workers drain their queue (jobs see dead alive-flags and
        // return immediately), then stop.
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
        self.process_completions();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Echoes payloads back; payloads starting with `b"sleep"` stall
    /// the worker long enough to exercise pipelining and backstops,
    /// ones starting with `b"park"` hold their worker until the test
    /// calls [`EchoService::release`], and ones starting with `b"now"`
    /// are echoed on the reactor thread.
    struct EchoService {
        handled: AtomicU64,
        shutdowns: AtomicU64,
        parked: AtomicU64,
        released: (std::sync::Mutex<bool>, std::sync::Condvar),
    }

    impl EchoService {
        fn new() -> EchoService {
            EchoService {
                handled: AtomicU64::new(0),
                shutdowns: AtomicU64::new(0),
                parked: AtomicU64::new(0),
                released: (std::sync::Mutex::new(false), std::sync::Condvar::new()),
            }
        }

        /// Let every `b"park"` request, parked or still to come, finish.
        fn release(&self) {
            *self.released.0.lock().unwrap() = true;
            self.released.1.notify_all();
        }
    }

    impl FrameService for EchoService {
        fn handle(&self, payload: &[u8], _ctx: &RequestCtx) -> Reply {
            self.handled.fetch_add(1, Ordering::Relaxed);
            if payload.starts_with(b"sleep") {
                std::thread::sleep(Duration::from_millis(50));
            }
            if payload.starts_with(b"park") {
                self.parked.fetch_add(1, Ordering::Relaxed);
                let mut released = self.released.0.lock().unwrap();
                while !*released {
                    released = self.released.1.wait(released).unwrap();
                }
            }
            if payload == b"quit" {
                return Reply {
                    payload: b"bye".to_vec(),
                    disposition: Disposition::ShutdownAfterWrite,
                };
            }
            Reply::ok(payload.to_vec())
        }

        fn try_handle_now(&self, payload: &[u8]) -> Option<Reply> {
            payload
                .starts_with(b"now")
                .then(|| Reply::ok(payload.to_vec()))
        }

        fn shed_reply(&self, _layer: ShedLayer) -> Vec<u8> {
            b"SHED".to_vec()
        }

        fn deadline_reply(&self) -> Vec<u8> {
            b"LATE".to_vec()
        }

        fn on_shutdown(&self) {
            self.shutdowns.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn start(config: ReactorConfig) -> (NetHandle, Arc<EchoService>, CancelToken) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let service = Arc::new(EchoService::new());
        let stop = CancelToken::new();
        let handle = serve_frames(
            listener,
            Arc::<EchoService>::clone(&service) as Arc<dyn FrameService>,
            config,
            stop.child(),
        )
        .unwrap();
        (handle, service, stop)
    }

    fn send_frame(stream: &mut TcpStream, payload: &[u8]) {
        let mut msg = (payload.len() as u32).to_le_bytes().to_vec();
        msg.extend_from_slice(payload);
        stream.write_all(&msg).unwrap();
    }

    fn recv_frame(stream: &mut TcpStream) -> Vec<u8> {
        let mut len = [0u8; 4];
        stream.read_exact(&mut len).unwrap();
        let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
        stream.read_exact(&mut payload).unwrap();
        payload
    }

    fn echo_roundtrips(force_sweep: bool) {
        let (handle, service, _stop) = start(ReactorConfig {
            workers: 2,
            force_sweep,
            thread_name: "echo-test".into(),
            ..ReactorConfig::default()
        });
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for i in 0..20u32 {
            let msg = format!("ping-{i}");
            send_frame(&mut c, msg.as_bytes());
            assert_eq!(recv_frame(&mut c), msg.as_bytes());
        }
        assert_eq!(service.handled.load(Ordering::Relaxed), 20);
        let snap = handle.counters();
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.frames_read, 20);
        assert_eq!(snap.frames_written, 20);
        assert!(snap.readiness_wakeups > 0);
        handle.join();
    }

    #[test]
    fn echoes_frames_with_the_poll_backend() {
        echo_roundtrips(false);
    }

    #[test]
    fn echoes_frames_with_the_sweep_backend() {
        echo_roundtrips(true);
    }

    #[test]
    fn pipelined_requests_come_back_in_order() {
        let (handle, _service, _stop) = start(ReactorConfig {
            workers: 4,
            thread_name: "pipeline-test".into(),
            ..ReactorConfig::default()
        });
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // A slow head-of-line request followed by fast ones: workers
        // finish out of order, responses must not.
        send_frame(&mut c, b"sleep-head");
        for i in 0..8u32 {
            send_frame(&mut c, format!("fast-{i}").as_bytes());
        }
        assert_eq!(recv_frame(&mut c), b"sleep-head");
        for i in 0..8u32 {
            assert_eq!(recv_frame(&mut c), format!("fast-{i}").as_bytes());
        }
        let snap = handle.counters();
        assert!(
            snap.coalesced_writes > 0,
            "parked completions behind the sleeper must coalesce, got {snap:?}"
        );
        handle.join();
    }

    #[test]
    fn accept_cap_sheds_with_the_typed_frame() {
        let (handle, _service, _stop) = start(ReactorConfig {
            workers: 1,
            max_conns: 1,
            accept_shed_frame: b"FULL".to_vec(),
            thread_name: "acceptcap-test".into(),
            ..ReactorConfig::default()
        });
        let mut first = TcpStream::connect(handle.addr()).unwrap();
        first
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        send_frame(&mut first, b"hold");
        assert_eq!(recv_frame(&mut first), b"hold");
        let mut second = TcpStream::connect(handle.addr()).unwrap();
        second
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(recv_frame(&mut second), b"FULL");
        // The shed socket is closed after the frame.
        let mut buf = [0u8; 1];
        assert_eq!(second.read(&mut buf).unwrap(), 0);
        assert_eq!(handle.counters().sheds_accept, 1);
        drop(first);
        handle.join();
    }

    #[test]
    fn pipeline_cap_sheds_typed_replies_in_order() {
        let (handle, _service, _stop) = start(ReactorConfig {
            workers: 1,
            max_pipeline: 1,
            thread_name: "pipecap-test".into(),
            ..ReactorConfig::default()
        });
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Both frames arrive while the first is still in the sleeper's
        // worker: the second must shed but stay ordered after the first.
        send_frame(&mut c, b"sleepy");
        send_frame(&mut c, b"extra");
        assert_eq!(recv_frame(&mut c), b"sleepy");
        assert_eq!(recv_frame(&mut c), b"SHED");
        assert_eq!(handle.counters().sheds_decode, 1);
        handle.join();
    }

    #[test]
    fn queue_depth_of_zero_sheds_every_request() {
        let (handle, service, _stop) = start(ReactorConfig {
            workers: 1,
            queue_depth: 0,
            thread_name: "qdepth-test".into(),
            ..ReactorConfig::default()
        });
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        send_frame(&mut c, b"anything");
        assert_eq!(recv_frame(&mut c), b"SHED");
        assert_eq!(service.handled.load(Ordering::Relaxed), 0);
        assert_eq!(handle.counters().sheds_decode, 1);
        handle.join();
    }

    #[test]
    fn idle_connections_are_closed_by_the_timer() {
        let (handle, _service, _stop) = start(ReactorConfig {
            workers: 1,
            idle_timeout: Duration::from_millis(200),
            thread_name: "idle-test".into(),
            ..ReactorConfig::default()
        });
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = [0u8; 1];
        // The reactor closes us; read returns 0 (EOF).
        assert_eq!(c.read(&mut buf).unwrap(), 0);
        assert_eq!(handle.counters().idle_closed, 1);
        handle.join();
    }

    #[test]
    fn stop_token_drains_and_joins() {
        let (handle, _service, stop) = start(ReactorConfig {
            workers: 2,
            thread_name: "drain-test".into(),
            ..ReactorConfig::default()
        });
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        send_frame(&mut c, b"last-call");
        assert_eq!(recv_frame(&mut c), b"last-call");
        stop.cancel();
        handle.join();
        // The reactor is gone: the connection sees EOF.
        let mut buf = [0u8; 1];
        assert_eq!(c.read(&mut buf).unwrap_or(0), 0);
    }

    #[test]
    fn shutdown_disposition_invokes_the_hook_and_acks() {
        let (handle, service, _stop) = start(ReactorConfig {
            workers: 1,
            thread_name: "quit-test".into(),
            ..ReactorConfig::default()
        });
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        send_frame(&mut c, b"quit");
        assert_eq!(recv_frame(&mut c), b"bye");
        // Wait for the hook on the reactor thread.
        let deadline = Instant::now() + Duration::from_secs(5);
        while service.shutdowns.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(service.shutdowns.load(Ordering::Relaxed), 1);
        handle.join();
    }

    #[test]
    fn disconnect_aborts_queued_work() {
        let (handle, service, _stop) = start(ReactorConfig {
            workers: 1,
            thread_name: "abort-test".into(),
            ..ReactorConfig::default()
        });
        {
            let mut c = TcpStream::connect(handle.addr()).unwrap();
            // Jam the single worker, then queue work and vanish.
            send_frame(&mut c, b"sleep-jam");
            for _ in 0..4 {
                send_frame(&mut c, b"doomed");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        // Give the reactor time to notice the close and the worker time
        // to drain the queue.
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.counters().connections_open > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.join();
        // The sleeper ran; the doomed requests were skipped (alive flag
        // cleared before their jobs started).
        assert_eq!(service.handled.load(Ordering::Relaxed), 1);
    }

    /// Spin until `cond` holds; the conditions waited on here are made
    /// true by the reactor or a worker, never by the clock.
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn connect(handle: &NetHandle) -> TcpStream {
        let c = TcpStream::connect(handle.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        c
    }

    /// `n` frames `now-0..n` in one buffer, for a single `write`.
    fn now_burst(n: usize) -> Vec<u8> {
        let mut burst = Vec::new();
        for i in 0..n {
            let payload = format!("now-{i}");
            burst.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            burst.extend_from_slice(payload.as_bytes());
        }
        burst
    }

    #[test]
    fn inline_frames_never_touch_the_pool_and_pooled_frames_never_count_inline() {
        let (handle, service, _stop) = start(ReactorConfig {
            workers: 1,
            thread_name: "paths-test".into(),
            ..ReactorConfig::default()
        });
        let mut c = connect(&handle);
        for i in 0..12u32 {
            let msg = format!("now-{i}");
            send_frame(&mut c, msg.as_bytes());
            assert_eq!(recv_frame(&mut c), msg.as_bytes());
        }
        let snap = handle.counters();
        assert_eq!(snap.frames_read, 12);
        assert_eq!(snap.frames_inline, 12);
        assert_eq!(snap.frames_written, 12);
        assert_eq!(snap.deadline_backstops, 0);
        assert_eq!(service.handled.load(Ordering::Relaxed), 0, "pool jobs");
        for i in 0..5u32 {
            let msg = format!("ping-{i}");
            send_frame(&mut c, msg.as_bytes());
            assert_eq!(recv_frame(&mut c), msg.as_bytes());
        }
        let snap = handle.counters();
        assert_eq!(snap.frames_read, 17);
        assert_eq!(snap.frames_inline, 12);
        assert_eq!(service.handled.load(Ordering::Relaxed), 5);
        handle.join();
    }

    #[test]
    fn inline_replies_keep_request_order_and_coalesce_behind_a_pooled_one() {
        let (handle, service, _stop) = start(ReactorConfig {
            workers: 1,
            thread_name: "order-test".into(),
            ..ReactorConfig::default()
        });
        let mut c = connect(&handle);
        send_frame(&mut c, b"park-head");
        wait_for("the head request to reach its worker", || {
            service.parked.load(Ordering::Relaxed) == 1
        });
        for i in 0..8u32 {
            send_frame(&mut c, format!("now-{i}").as_bytes());
        }
        wait_for("eight inline answers", || {
            handle.counters().frames_inline == 8
        });
        // Answered, but parked behind the head of line: nothing has
        // been buffered, let alone written.
        let snap = handle.counters();
        assert_eq!((snap.frames_written, snap.writes), (0, 0), "{snap:?}");
        service.release();
        assert_eq!(recv_frame(&mut c), b"park-head");
        for i in 0..8u32 {
            assert_eq!(recv_frame(&mut c), format!("now-{i}").as_bytes());
        }
        wait_for("the flush to be counted", || {
            handle.counters().coalesced_writes > 0
        });
        let snap = handle.counters();
        assert_eq!(snap.frames_written, 9);
        assert_eq!(
            (snap.writes, snap.coalesced_writes),
            (1, 1),
            "nine replies, one write: {snap:?}"
        );
        assert_eq!(service.handled.load(Ordering::Relaxed), 1);
        handle.join();
    }

    #[test]
    fn a_pipelined_inline_burst_is_answered_in_one_write() {
        let (handle, service, _stop) = start(ReactorConfig {
            workers: 1,
            thread_name: "burst-test".into(),
            ..ReactorConfig::default()
        });
        let mut c = connect(&handle);
        // One write, so one read pass sees all ten frames.
        c.write_all(&now_burst(10)).unwrap();
        for i in 0..10 {
            assert_eq!(recv_frame(&mut c), format!("now-{i}").as_bytes());
        }
        // The client can see the bytes before the reactor has counted
        // the write that carried them.
        wait_for("the flush to be counted", || {
            handle.counters().coalesced_writes > 0
        });
        let snap = handle.counters();
        assert_eq!(snap.frames_inline, 10);
        assert!(snap.coalesced_writes > 0, "{snap:?}");
        assert!(
            snap.writes < 10,
            "a flush per pass, not per reply: {snap:?}"
        );
        assert_eq!(service.handled.load(Ordering::Relaxed), 0);
        handle.join();
    }

    #[test]
    fn the_gates_are_consulted_before_the_inline_offer() {
        // Decode gate: depth 0 sheds the inline-eligible frame too.
        let (handle, _service, _stop) = start(ReactorConfig {
            workers: 1,
            queue_depth: 0,
            thread_name: "inline-qdepth-test".into(),
            ..ReactorConfig::default()
        });
        let mut c = connect(&handle);
        send_frame(&mut c, b"now-refused");
        assert_eq!(recv_frame(&mut c), b"SHED");
        let snap = handle.counters();
        assert_eq!((snap.frames_inline, snap.sheds_decode), (0, 1));
        handle.join();

        // Pipeline cap: behind one unanswered request, the same.
        let (handle, service, _stop) = start(ReactorConfig {
            workers: 1,
            max_pipeline: 1,
            thread_name: "inline-pipecap-test".into(),
            ..ReactorConfig::default()
        });
        let mut c = connect(&handle);
        send_frame(&mut c, b"park");
        wait_for("the parked request", || {
            service.parked.load(Ordering::Relaxed) == 1
        });
        send_frame(&mut c, b"now-refused");
        wait_for("the shed", || handle.counters().sheds_decode == 1);
        service.release();
        assert_eq!(recv_frame(&mut c), b"park");
        assert_eq!(recv_frame(&mut c), b"SHED");
        assert_eq!(handle.counters().frames_inline, 0);
        handle.join();

        // And an inline reply not yet flushed still occupies its
        // pipeline slot: one pass answers `max_pipeline` frames of one
        // connection, the rest of the burst is shed, in order.
        let (handle, _service, _stop) = start(ReactorConfig {
            workers: 1,
            max_pipeline: 4,
            thread_name: "inline-pass-test".into(),
            ..ReactorConfig::default()
        });
        let mut c = connect(&handle);
        c.write_all(&now_burst(10)).unwrap();
        for i in 0..10 {
            let want = if i < 4 {
                format!("now-{i}").into_bytes()
            } else {
                b"SHED".to_vec()
            };
            assert_eq!(recv_frame(&mut c), want, "reply {i}");
        }
        let snap = handle.counters();
        assert_eq!((snap.frames_inline, snap.sheds_decode), (4, 6));
        // The next pass starts from an empty pipeline.
        send_frame(&mut c, b"now-again");
        assert_eq!(recv_frame(&mut c), b"now-again");
        handle.join();
    }

    #[test]
    fn a_client_vanishing_mid_pipeline_of_inline_frames_leaks_no_permit() {
        let (handle, _service, _stop) = start(ReactorConfig {
            workers: 1,
            thread_name: "inline-vanish-test".into(),
            ..ReactorConfig::default()
        });
        {
            let mut c = connect(&handle);
            c.write_all(&now_burst(20)).unwrap();
            // Dropped with every reply unread.
        }
        wait_for("the connection to be reaped", || {
            let snap = handle.counters();
            snap.accepted == 1 && snap.connections_open == 0
        });
        assert_eq!(handle.decode_gate().depth(), 0);
        assert_eq!(handle.accept_gate().depth(), 0);
        // The gate still admits: a fresh connection is served.
        let mut c = connect(&handle);
        send_frame(&mut c, b"now-alive");
        assert_eq!(recv_frame(&mut c), b"now-alive");
        assert_eq!(handle.decode_gate().depth(), 0);
        handle.join();
    }

    #[test]
    fn an_inline_request_does_not_wait_for_a_busy_pool() {
        let (handle, service, _stop) = start(ReactorConfig {
            workers: 1,
            thread_name: "isolation-test".into(),
            ..ReactorConfig::default()
        });
        let mut slow = connect(&handle);
        send_frame(&mut slow, b"park-the-only-worker");
        wait_for("the only worker to be held", || {
            service.parked.load(Ordering::Relaxed) == 1
        });
        // The pool is fully occupied until `release`; the point read on
        // a second connection is answered regardless.
        let mut fast = connect(&handle);
        for i in 0..5u32 {
            let msg = format!("now-{i}");
            send_frame(&mut fast, msg.as_bytes());
            assert_eq!(recv_frame(&mut fast), msg.as_bytes());
        }
        assert_eq!(service.handled.load(Ordering::Relaxed), 1);
        assert_eq!(handle.decode_gate().depth(), 1, "the parked request's");
        service.release();
        assert_eq!(recv_frame(&mut slow), b"park-the-only-worker");
        handle.join();
    }

    #[test]
    fn shutdown_and_drain_complete_with_inline_traffic_in_flight() {
        let (handle, service, stop) = start(ReactorConfig {
            workers: 1,
            thread_name: "inline-drain-test".into(),
            ..ReactorConfig::default()
        });
        let mut c = connect(&handle);
        let hammer = std::thread::spawn(move || {
            // Closed loop of inline requests until the reactor goes
            // away; every reply that does arrive must be whole and ours.
            let mut answered = 0u64;
            loop {
                let msg = format!("now-{answered}");
                let mut frame = (msg.len() as u32).to_le_bytes().to_vec();
                frame.extend_from_slice(msg.as_bytes());
                if c.write_all(&frame).is_err() {
                    return answered;
                }
                let mut len = [0u8; 4];
                if c.read_exact(&mut len).is_err() {
                    return answered;
                }
                let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
                c.read_exact(&mut payload)
                    .expect("a started frame completes");
                assert_eq!(payload, msg.as_bytes());
                answered += 1;
            }
        });
        wait_for("inline traffic", || handle.counters().frames_inline >= 50);
        // A protocol-level shutdown request is acknowledged under it ...
        let mut q = connect(&handle);
        send_frame(&mut q, b"quit");
        assert_eq!(recv_frame(&mut q), b"bye");
        wait_for("the shutdown hook", || {
            service.shutdowns.load(Ordering::Relaxed) == 1
        });
        // ... and the drain finishes while the client is still sending.
        stop.cancel();
        handle.join();
        assert!(hammer.join().expect("hammer thread") >= 50);
    }
}
