//! A persistent task team with Chapel-`coforall` semantics.
//!
//! `coforall tid in 0..numTasks-1 { body(tid) }` (paper Listing 1) creates
//! exactly `numTasks` concurrent tasks and waits for all of them; the OpenMP
//! analogue is `#pragma omp parallel num_threads(n)` (Listing 2).
//! [`TaskTeam::coforall`] reproduces this: the calling thread runs task 0,
//! `n - 1` persistent workers run tasks `1..n`, and the call returns only
//! after every task finished.
//!
//! Workers waiting for the next broadcast first *spin* on an atomic
//! generation counter for [`TeamConfig::spin_count`] iterations and only
//! then park on a condition variable — the same policy Qthreads applies
//! (default 300 000 iterations, tuned down to 300 in the paper's Section
//! V-E to stop idle spinning from starving OpenBLAS threads). Setting
//! `spin_count = 0` gives the `fifo` tasking layer's park-immediately
//! behaviour.

use splatt_probe::TaskTimes;
use splatt_rt::sync::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Tuning knobs for a [`TaskTeam`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeamConfig {
    /// How many times an idle worker polls the generation counter before
    /// parking on a condition variable. Qthreads' `QT_SPINCOUNT` analogue.
    pub spin_count: u32,
}

impl Default for TeamConfig {
    fn default() -> Self {
        // Qthreads' default spin-wait interval (see paper Section V-E).
        TeamConfig {
            spin_count: 300_000,
        }
    }
}

impl TeamConfig {
    /// Park immediately on idle, like the `fifo` (POSIX threads) layer.
    pub fn fifo() -> Self {
        TeamConfig { spin_count: 0 }
    }

    /// The shortened spin the paper lands on (`QT_SPINCOUNT=300`).
    pub fn short_spin() -> Self {
        TeamConfig { spin_count: 300 }
    }
}

/// Why a `coforall` broadcast failed.
///
/// Replaces the old untyped `panic!("a task in TaskTeam::coforall
/// panicked")`: the error carries which task failed and the panic
/// payload's message, so callers can attribute a kernel failure to a
/// worker instead of unwinding with a context-free string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeamError {
    /// A task panicked while running the broadcast body.
    Panicked {
        /// The task id (`tid`) whose body panicked. When several tasks
        /// panic in one broadcast, the first to be recorded wins.
        worker: usize,
        /// The panic payload's message (`&str` / `String` payloads are
        /// preserved verbatim; anything else is summarized).
        payload: String,
    },
}

impl TeamError {
    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        }
    }
}

impl std::fmt::Display for TeamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TeamError::Panicked { worker, payload } => {
                write!(f, "task {worker} in TaskTeam::coforall panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for TeamError {}

/// Internal broadcast outcome: a caller (task 0) panic keeps its
/// original payload so `coforall` can resume it unchanged.
enum Broadcast {
    Caller(Box<dyn std::any::Any + Send>),
    Worker(TeamError),
}

/// Type-erased reference to the closure being broadcast. Only valid while
/// the owning `coforall` frame is alive; see the safety notes in
/// [`TaskTeam::coforall`].
#[derive(Clone, Copy)]
struct JobRef {
    data: *const (),
    call: fn(*const (), usize),
}

// SAFETY: JobRef is only ever dereferenced while the closure it points to is
// kept alive (and not moved) by the blocked `coforall` caller, and the
// closure is required to be `Sync`.
unsafe impl Send for JobRef {}
unsafe impl Sync for JobRef {}

struct Shared {
    /// Bumped once per broadcast; workers detect new work by comparing
    /// against the last generation they executed.
    generation: AtomicU64,
    /// Current job for the current generation. Written before the
    /// generation bump (release) and read after observing it (acquire).
    job: Mutex<Option<JobRef>>,
    /// Tasks still running in the current generation.
    remaining: AtomicUsize,
    /// Set when the team is being dropped.
    shutdown: AtomicBool,
    /// Any worker panicked while running the current job.
    panicked: AtomicBool,
    /// First (worker id, panic message) of the current job.
    panic_info: Mutex<Option<(usize, String)>>,
    /// Workers park here while idle.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// The caller parks here while waiting for completion.
    done_lock: Mutex<()>,
    done_cv: Condvar,
    config: TeamConfig,
}

/// A persistent team of threads executing `coforall`-style broadcasts.
///
/// ```
/// use splatt_par::TaskTeam;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let team = TaskTeam::new(4);
/// let hits = AtomicUsize::new(0);
/// team.coforall(|tid| {
///     assert!(tid < 4);
///     hits.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 4);
/// ```
pub struct TaskTeam {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    ntasks: usize,
}

impl TaskTeam {
    /// Create a team that runs `ntasks` tasks per broadcast with the
    /// default (Qthreads-like) configuration.
    ///
    /// # Panics
    /// Panics if `ntasks == 0`.
    pub fn new(ntasks: usize) -> Self {
        Self::with_config(ntasks, TeamConfig::default())
    }

    /// Create a team with an explicit [`TeamConfig`].
    ///
    /// # Panics
    /// Panics if `ntasks == 0`.
    pub fn with_config(ntasks: usize, config: TeamConfig) -> Self {
        assert!(ntasks > 0, "TaskTeam requires at least one task");
        let shared = Arc::new(Shared {
            generation: AtomicU64::new(0),
            job: Mutex::new(None),
            remaining: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            panic_info: Mutex::new(None),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
            config,
        });
        let workers = (1..ntasks)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("splatt-task-{tid}"))
                    .spawn(move || worker_loop(shared, tid))
                    .expect("failed to spawn task team worker")
            })
            .collect();
        TaskTeam {
            shared,
            workers,
            ntasks,
        }
    }

    /// Number of tasks each broadcast runs.
    pub fn ntasks(&self) -> usize {
        self.ntasks
    }

    /// The team's configuration.
    pub fn config(&self) -> TeamConfig {
        self.shared.config
    }

    /// Run `f(tid)` for every `tid in 0..ntasks` concurrently and wait for
    /// all of them. The calling thread executes task 0.
    ///
    /// # Panics
    /// Panics (after all tasks finish or unwind) if any task panicked: a
    /// task-0 panic resumes its original payload on the caller, a worker
    /// panic raises the [`TeamError`] message naming the worker.
    pub fn coforall<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        match self.broadcast(&f) {
            Ok(()) => {}
            Err(Broadcast::Caller(payload)) => std::panic::resume_unwind(payload),
            Err(Broadcast::Worker(err)) => panic!("{err}"),
        }
    }

    /// The broadcast core: runs every task to completion (or unwind) and
    /// reports the first panic.
    fn broadcast<F>(&self, f: &F) -> Result<(), Broadcast>
    where
        F: Fn(usize) + Sync,
    {
        fn call_impl<F: Fn(usize) + Sync>(data: *const (), tid: usize) {
            // SAFETY: `data` points at the `f` borrowed by the enclosing
            // `broadcast` frame, which blocks until `remaining == 0`; thus
            // the referent is alive for every invocation.
            let f = unsafe { &*(data as *const F) };
            f(tid);
        }

        if self.ntasks == 1 {
            return catch_unwind(AssertUnwindSafe(|| f(0))).map_err(Broadcast::Caller);
        }

        let job = JobRef {
            data: f as *const F as *const (),
            call: call_impl::<F>,
        };

        self.shared.panicked.store(false, Ordering::Relaxed);
        *self.shared.panic_info.lock() = None;
        self.shared
            .remaining
            .store(self.ntasks - 1, Ordering::Relaxed);
        {
            let mut slot = self.shared.job.lock();
            *slot = Some(job);
        }
        // Publish the new generation and wake any parked workers.
        self.shared.generation.fetch_add(1, Ordering::Release);
        {
            let _guard = self.shared.idle_lock.lock();
            self.shared.idle_cv.notify_all();
        }

        // Task 0 runs on the caller.
        let caller_result = catch_unwind(AssertUnwindSafe(|| f(0)));

        // Wait for the workers: spin briefly, then park.
        let mut spins = 0u32;
        while self.shared.remaining.load(Ordering::Acquire) != 0 {
            if spins < self.shared.config.spin_count {
                spins += 1;
                std::hint::spin_loop();
            } else {
                let mut guard = self.shared.done_lock.lock();
                if self.shared.remaining.load(Ordering::Acquire) != 0 {
                    self.shared.done_cv.wait(&mut guard);
                }
            }
        }

        if let Err(payload) = caller_result {
            return Err(Broadcast::Caller(payload));
        }
        if self.shared.panicked.load(Ordering::Relaxed) {
            let (worker, payload) = self
                .shared
                .panic_info
                .lock()
                .take()
                .unwrap_or_else(|| (0, "<panic message lost>".to_string()));
            return Err(Broadcast::Worker(TeamError::Panicked { worker, payload }));
        }
        Ok(())
    }

    /// [`TaskTeam::coforall`] with per-thread busy-time recording: each
    /// task's wall time in `f` is accumulated into `times[tid]`, making
    /// load imbalance across the team observable. `f` returns the number
    /// of work items it processed (any caller-defined unit), recorded
    /// alongside the time.
    ///
    /// The timing happens inside the broadcast closure, so it measures the
    /// task body only — not spin-up, park/unpark, or the completion wait.
    ///
    /// # Panics
    /// Panics if `times` has fewer slots than the team has tasks, or if
    /// any task panicked.
    pub fn coforall_timed<F>(&self, times: &TaskTimes, f: F)
    where
        F: Fn(usize) -> u64 + Sync,
    {
        assert!(
            times.ntasks() >= self.ntasks,
            "TaskTimes has {} slots for a {}-task team",
            times.ntasks(),
            self.ntasks
        );
        self.coforall(|tid| {
            let start = Instant::now();
            let items = f(tid);
            times.record(tid, start.elapsed(), items);
        });
    }
}

impl Drop for TaskTeam {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // bump the generation so spinning workers notice, and wake parked ones
        self.shared.generation.fetch_add(1, Ordering::Release);
        {
            let _guard = self.shared.idle_lock.lock();
            self.shared.idle_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, tid: usize) {
    let mut seen_gen = 0u64;
    loop {
        // Wait for a generation newer than the last one we executed:
        // spin `spin_count` times, then park (the Qthreads policy).
        let mut spins = 0u32;
        let new_gen = loop {
            let g = shared.generation.load(Ordering::Acquire);
            if g != seen_gen {
                break g;
            }
            if spins < shared.config.spin_count {
                spins += 1;
                std::hint::spin_loop();
            } else {
                let mut guard = shared.idle_lock.lock();
                let g = shared.generation.load(Ordering::Acquire);
                if g != seen_gen {
                    break g;
                }
                shared.idle_cv.wait(&mut guard);
            }
        };
        seen_gen = new_gen;
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let job = {
            let slot = shared.job.lock();
            match *slot {
                Some(job) => job,
                // Spurious generation bump without a job (shutdown race).
                None => continue,
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| (job.call)(job.data, tid)));
        if let Err(payload) = result {
            let mut info = shared.panic_info.lock();
            if info.is_none() {
                *info = Some((tid, TeamError::panic_message(payload.as_ref())));
            }
            drop(info);
            shared.panicked.store(true, Ordering::Relaxed);
        }
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = shared.done_lock.lock();
            shared.done_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_tid_exactly_once() {
        let team = TaskTeam::new(8);
        let counts: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        team.coforall(|tid| {
            counts[tid].fetch_add(1, Ordering::Relaxed);
        });
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn single_task_team_runs_inline() {
        let team = TaskTeam::new(1);
        let flag = AtomicBool::new(false);
        team.coforall(|tid| {
            assert_eq!(tid, 0);
            flag.store(true, Ordering::Relaxed);
        });
        assert!(flag.load(Ordering::Relaxed));
    }

    #[test]
    fn repeated_broadcasts_reuse_workers() {
        let team = TaskTeam::new(4);
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            team.coforall(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn results_are_visible_after_coforall() {
        // coforall must establish happens-before for plain (non-atomic)
        // writes partitioned by tid.
        let team = TaskTeam::new(4);
        let mut data = vec![0usize; 4000];
        let chunks: Vec<Mutex<&mut [usize]>> = data.chunks_mut(1000).map(Mutex::new).collect();
        team.coforall(|tid| {
            for v in chunks[tid].lock().iter_mut() {
                *v = tid + 1;
            }
        });
        drop(chunks);
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i / 1000 + 1);
        }
    }

    #[test]
    fn fifo_config_parks_immediately_and_still_works() {
        let team = TaskTeam::with_config(3, TeamConfig::fifo());
        let total = AtomicUsize::new(0);
        for _ in 0..20 {
            team.coforall(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
            // let workers actually park between broadcasts
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(total.load(Ordering::Relaxed), 60);
    }

    #[test]
    fn short_spin_config_works() {
        let team = TaskTeam::with_config(2, TeamConfig::short_spin());
        let total = AtomicUsize::new(0);
        for _ in 0..10 {
            team.coforall(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let team = TaskTeam::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            team.coforall(|tid| {
                if tid == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // team must still be usable afterwards
        let total = AtomicUsize::new(0);
        team.coforall(|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 4);
    }

    /// `coforall`'s panic, caught: the payload it resumed or raised.
    fn panic_of(team: &TaskTeam, f: impl Fn(usize) + Sync) -> Box<dyn std::any::Any + Send> {
        catch_unwind(AssertUnwindSafe(|| team.coforall(f))).unwrap_err()
    }

    #[test]
    fn coforall_resumes_a_caller_panic_with_its_own_payload() {
        let team = TaskTeam::new(2);
        let payload = panic_of(&team, |tid| {
            if tid == 0 {
                panic!("driver-side failure");
            }
        });
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("driver-side failure")
        );
    }

    #[test]
    fn coforall_single_task_team_propagates_and_survives_a_panic() {
        let team = TaskTeam::new(1);
        let payload = panic_of(&team, |_| panic!("inline"));
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("inline"));
        team.coforall(|_| {});
    }

    #[test]
    fn coforall_panic_message_names_the_worker() {
        let team = TaskTeam::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            team.coforall(|tid| {
                if tid == 3 {
                    panic!("boom");
                }
            });
        }));
        let payload = result.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("task 3"), "message was: {msg}");
        assert!(msg.contains("boom"), "message was: {msg}");
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn zero_tasks_panics() {
        let _ = TaskTeam::new(0);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        for _ in 0..5 {
            let team = TaskTeam::new(3);
            team.coforall(|_| {});
            drop(team); // must not hang or leak
        }
    }

    #[test]
    fn coforall_timed_records_each_task() {
        let team = TaskTeam::new(4);
        let times = TaskTimes::new(4);
        for _ in 0..3 {
            team.coforall_timed(&times, |tid| {
                std::hint::black_box(tid);
                (tid + 1) as u64
            });
        }
        let snap = times.snapshot();
        for (tid, row) in snap.threads.iter().enumerate() {
            assert_eq!(row.invocations, 3, "tid {tid}");
            assert_eq!(row.items, 3 * (tid as u64 + 1), "tid {tid}");
        }
    }

    #[test]
    #[should_panic(expected = "slots for a")]
    fn coforall_timed_rejects_undersized_times() {
        let team = TaskTeam::new(4);
        let times = TaskTimes::new(2);
        team.coforall_timed(&times, |_| 0);
    }
}
