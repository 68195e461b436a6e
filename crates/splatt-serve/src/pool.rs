//! A bounded worker pool: N threads draining a shared job queue.
//!
//! The pool itself keeps an unbounded `VecDeque` — boundedness comes
//! from the layer above: the reactor only submits jobs for requests
//! that hold a decode-gate admission permit, so the queue can never
//! exceed the gate's depth. That keeps the pool free of its own
//! backpressure policy and makes shedding a single, typed decision at
//! admission time rather than a blocking `send` deep in the I/O loop.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use splatt_rt::sync::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send>;

struct PoolInner {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// Written only under `queue`'s lock (see [`WorkerPool::stop`]);
    /// atomic so that `submit` can assert on it without the lock.
    shutdown: AtomicBool,
}

/// See the module docs.
pub(crate) struct WorkerPool {
    inner: Arc<PoolInner>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.threads.len())
            .field("queued", &self.queued())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn `workers` threads named `{name}-{i}`.
    pub(crate) fn new(workers: usize, name: &str) -> WorkerPool {
        let workers = workers.max(1);
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let threads = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { inner, threads }
    }

    /// Enqueue a job. Panics if called after [`WorkerPool::shutdown`].
    pub(crate) fn submit(&self, job: Job) {
        assert!(
            !self.inner.shutdown.load(Ordering::Acquire),
            "submit after pool shutdown"
        );
        let mut queue = self.inner.queue.lock();
        queue.push_back(job);
        drop(queue);
        self.inner.available.notify_one();
    }

    /// Jobs waiting for a worker (excludes jobs mid-execution).
    pub(crate) fn queued(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Worker threads in the pool.
    pub(crate) fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Finish every queued job, then stop the workers and join them —
    /// what dropping the pool does.
    pub(crate) fn shutdown(self) {
        drop(self);
    }

    /// The one stop path. The flag is set under the queue lock: a
    /// worker that has read it false holds that lock until
    /// [`Condvar::wait`] has taken its wake-up ticket, so the notify
    /// below cannot fall between the worker's check and its sleep.
    fn stop(&mut self) {
        let queue = self.inner.queue.lock();
        self.inner.shutdown.store(true, Ordering::Release);
        drop(queue);
        self.inner.available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Queued jobs are drained first; the threads then exit.
        self.stop();
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut queue = inner.queue.lock();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                #[cfg(test)]
                tests::stall_before_wait(inner);
                inner.available.wait(&mut queue);
            }
        };
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    /// Name of the pools whose workers stall in [`stall_before_wait`].
    const STALLING: &str = "stall-before-wait";
    /// Set once a stalling worker is inside the window.
    static STALLED: AtomicBool = AtomicBool::new(false);

    /// Called by `worker_loop` between its shutdown check and its wait,
    /// holding the queue lock. A worker of a [`STALLING`] pool waits
    /// there until the shutdown flag reads true or 200 ms pass, then
    /// ≈ 10 ms more, so that a notify sent right after the flag lands
    /// inside the window. A flag written without the lock is seen here
    /// and its notify is lost; one written under the lock cannot change
    /// while the worker is here.
    pub(super) fn stall_before_wait(inner: &PoolInner) {
        let stalling = std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with(STALLING));
        if !stalling {
            return;
        }
        STALLED.store(true, Ordering::SeqCst);
        let give_up = Instant::now() + Duration::from_millis(200);
        while !inner.shutdown.load(Ordering::Acquire) && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    #[test]
    fn shutdown_wakes_a_worker_caught_between_its_check_and_its_wait() {
        let pool = WorkerPool::new(1, STALLING);
        let give_up = Instant::now() + Duration::from_secs(5);
        while !STALLED.load(Ordering::SeqCst) {
            assert!(Instant::now() < give_up, "the worker never went idle");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The watchdog: a worker that slept through the stop notify
        // never exits, so `shutdown`'s join would hang this test.
        let (done, stopped) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            pool.shutdown();
            let _ = done.send(());
        });
        assert!(
            stopped.recv_timeout(Duration::from_secs(5)).is_ok(),
            "shutdown hung for 5 s: the idle worker missed its wake-up"
        );
    }

    #[test]
    fn runs_every_submitted_job_across_workers() {
        let pool = WorkerPool::new(4, "test-worker");
        assert_eq!(pool.workers(), 4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..1000 {
            let done = Arc::clone(&done);
            pool.submit(Box::new(move || {
                done.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn shutdown_drains_queued_jobs_before_stopping() {
        // One worker, jobs that sleep: shutdown must still run them all.
        let pool = WorkerPool::new(1, "test-drain");
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            pool.submit(Box::new(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                done.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let pool = WorkerPool::new(0, "test-clamp");
        assert_eq!(pool.workers(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.submit(Box::new(move || {
            d.fetch_add(1, Ordering::Relaxed);
        }));
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }
}
