//! Readiness polling behind one interface: a real `poll(2)` backend on
//! unix and a portable nonblocking-sweep fallback everywhere else.
//!
//! The reactor rebuilds its interest list every iteration from the
//! connection slab and hands it to [`Poller::wait`]. The poll backend
//! translates it to a `pollfd` array and blocks in the kernel until
//! readiness or timeout. The sweep backend cannot ask the OS anything,
//! so it *optimistically* reports every interest as ready after a short
//! pacing sleep — the reactor's nonblocking reads and writes then
//! discover real readiness themselves via `WouldBlock`. The sweep burns
//! more syscalls per idle connection and adds up to one pacing interval
//! of latency; it exists so the crate builds and behaves correctly on
//! targets without `poll(2)`, and so tests can exercise the reactor's
//! `WouldBlock` paths deterministically (`force_sweep`).

use std::io;
use std::time::Duration;

use crate::sys;

/// Which backend a [`Poller`] is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PollerKind {
    /// Kernel readiness via `poll(2)`.
    Poll,
    /// Optimistic nonblocking sweep with pacing sleeps.
    Sweep,
}

/// One descriptor the caller wants readiness for.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interest {
    /// Caller-defined identity, echoed back in [`Event::token`].
    pub token: u64,
    /// Raw descriptor (ignored by the sweep backend).
    pub fd: i32,
    pub readable: bool,
    pub writable: bool,
}

/// Readiness reported for one interest.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Error or hangup condition; the caller should read to find out
    /// (a read on such a socket returns the real error or EOF).
    pub error: bool,
}

/// Sweep pacing: how long the fallback sleeps before reporting
/// everything ready. Bounds both busy-spin and added latency.
const SWEEP_PACE: Duration = Duration::from_millis(1);

/// See the module docs.
#[derive(Debug)]
pub(crate) struct Poller {
    kind: PollerKind,
    /// Scratch `pollfd` array, reused across waits (poll backend only).
    fds: Vec<sys::PollFd>,
}

impl Poller {
    /// A poller on the best backend this platform has; `force_sweep`
    /// selects the fallback even where `poll(2)` exists (for tests).
    pub(crate) fn new(force_sweep: bool) -> Poller {
        let kind = if sys::have_poll() && !force_sweep {
            PollerKind::Poll
        } else {
            PollerKind::Sweep
        };
        Poller {
            kind,
            fds: Vec::new(),
        }
    }

    /// Wait up to `timeout` for readiness on `interests`, clearing and
    /// filling `events`. Returns the number of ready interests (0 on
    /// timeout).
    ///
    /// # Errors
    /// Propagates `poll(2)` failures (poll backend only).
    pub(crate) fn wait(
        &mut self,
        interests: &[Interest],
        timeout: Duration,
        events: &mut Vec<Event>,
    ) -> io::Result<usize> {
        events.clear();
        match self.kind {
            PollerKind::Poll => self.wait_poll(interests, timeout, events),
            PollerKind::Sweep => {
                std::thread::sleep(SWEEP_PACE.min(timeout));
                for it in interests {
                    if it.readable || it.writable {
                        events.push(Event {
                            token: it.token,
                            readable: it.readable,
                            writable: it.writable,
                            error: false,
                        });
                    }
                }
                Ok(events.len())
            }
        }
    }

    fn wait_poll(
        &mut self,
        interests: &[Interest],
        timeout: Duration,
        events: &mut Vec<Event>,
    ) -> io::Result<usize> {
        self.fds.clear();
        self.fds.reserve(interests.len());
        for it in interests {
            let mut flags = 0i16;
            if it.readable {
                flags |= sys::POLL_IN;
            }
            if it.writable {
                flags |= sys::POLL_OUT;
            }
            self.fds.push(sys::PollFd::new(it.fd, flags));
        }
        let ready = sys::poll_fds(&mut self.fds, timeout)?;
        if ready > 0 {
            for (it, fd) in interests.iter().zip(&self.fds) {
                if fd.revents == 0 {
                    continue;
                }
                events.push(Event {
                    token: it.token,
                    readable: fd.revents & sys::POLL_IN != 0,
                    writable: fd.revents & sys::POLL_OUT != 0,
                    error: fd.revents & (sys::POLL_ERR | sys::POLL_HUP) != 0,
                });
            }
        }
        Ok(events.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    impl Poller {
        /// The backend in use.
        fn kind(&self) -> PollerKind {
            self.kind
        }
    }

    fn fd_of(stream: &TcpStream) -> i32 {
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

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    #[cfg(unix)]
    fn poll_backend_reports_readability_only_when_data_arrives() {
        let (mut a, b) = pair();
        let mut poller = Poller::new(false);
        assert_eq!(poller.kind(), PollerKind::Poll);
        let interests = [Interest {
            token: 42,
            fd: fd_of(&b),
            readable: true,
            writable: false,
        }];
        let mut events = Vec::new();
        let n = poller
            .wait(&interests, Duration::from_millis(10), &mut events)
            .unwrap();
        assert_eq!(n, 0, "no data yet, poll must time out");
        a.write_all(b"x").unwrap();
        let n = poller
            .wait(&interests, Duration::from_millis(1000), &mut events)
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);
    }

    #[test]
    fn sweep_backend_reports_everything_optimistically() {
        let (_a, b) = pair();
        let mut poller = Poller::new(true);
        assert_eq!(poller.kind(), PollerKind::Sweep);
        let interests = [Interest {
            token: 7,
            fd: fd_of(&b),
            readable: true,
            writable: true,
        }];
        let mut events = Vec::new();
        let n = poller
            .wait(&interests, Duration::from_millis(50), &mut events)
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable && events[0].writable);
    }

    #[test]
    #[cfg(unix)]
    fn poll_backend_reports_writability_on_a_fresh_socket() {
        let (a, _b) = pair();
        let mut poller = Poller::new(false);
        let interests = [Interest {
            token: 1,
            fd: fd_of(&a),
            readable: false,
            writable: true,
        }];
        let mut events = Vec::new();
        let n = poller
            .wait(&interests, Duration::from_millis(1000), &mut events)
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].writable);
    }
}
