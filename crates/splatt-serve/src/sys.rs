//! Thin, std-only OS shims: `poll(2)` readiness on unix and the
//! `RLIMIT_NOFILE` raise a many-connection server needs at startup.
//!
//! Nothing here pulls in an external crate — the declarations bind the
//! libc symbols every Rust binary already links. Non-unix targets get
//! no-op fallbacks; the reactor detects that and runs its portable
//! nonblocking-sweep poller instead.

#[cfg(unix)]
pub use unix::*;

#[cfg(unix)]
mod unix {
    use std::io;
    use std::os::fd::RawFd;

    /// Readable interest/readiness (`POLLIN`).
    pub(crate) const POLL_IN: i16 = 0x001;
    /// Writable interest/readiness (`POLLOUT`).
    pub(crate) const POLL_OUT: i16 = 0x004;
    /// Error condition (`POLLERR`) — always reported, never requested.
    pub(crate) const POLL_ERR: i16 = 0x008;
    /// Peer hangup (`POLLHUP`) — always reported, never requested.
    pub(crate) const POLL_HUP: i16 = 0x010;

    /// One `struct pollfd` as `poll(2)` expects it.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    impl PollFd {
        /// Interest in `events` on `fd`, with readiness cleared.
        pub(crate) fn new(fd: RawFd, events: i16) -> PollFd {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }
    }

    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }

    const RLIMIT_NOFILE: i32 = 7;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }

    /// Block until readiness lands on any of `fds` or `timeout` passes.
    /// Returns the number of entries with non-zero `revents` (0 on
    /// timeout). `EINTR` is retried internally so callers never see it.
    ///
    /// # Errors
    /// Propagates `poll(2)` failures other than `EINTR`.
    pub(crate) fn poll_fds(fds: &mut [PollFd], timeout: std::time::Duration) -> io::Result<usize> {
        let millis = timeout.as_millis().min(i32::MAX as u128) as i32;
        loop {
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, millis) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// Whether this platform has a real `poll(2)` backend.
    pub(crate) fn have_poll() -> bool {
        true
    }

    /// Current `(soft, hard)` `RLIMIT_NOFILE`.
    ///
    /// # Errors
    /// Propagates `getrlimit` failures.
    pub fn nofile_limit() -> io::Result<(u64, u64)> {
        let mut lim = RLimit { cur: 0, max: 0 };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((lim.cur, lim.max))
    }

    /// Raise the file-descriptor limit toward `want` and return the
    /// soft limit actually in effect afterwards. Tries the hard limit
    /// first (possible with `CAP_SYS_RESOURCE`/root), then settles for
    /// raising the soft limit to the existing hard cap. Never lowers.
    ///
    /// # Errors
    /// Propagates `getrlimit` failures; a refused raise is not an error
    /// — the achieved limit is simply returned.
    pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
        let (soft, hard) = nofile_limit()?;
        if soft >= want {
            return Ok(soft);
        }
        if hard < want {
            let raised = RLimit {
                cur: want,
                max: want,
            };
            if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
                return Ok(want);
            }
        }
        let capped = RLimit {
            cur: want.min(hard).max(soft),
            max: hard,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &capped) } == 0 {
            return Ok(capped.cur);
        }
        Ok(soft)
    }
}

#[cfg(not(unix))]
pub use portable::*;

#[cfg(not(unix))]
mod portable {
    use std::io;

    pub(crate) const POLL_IN: i16 = 0x001;
    pub(crate) const POLL_OUT: i16 = 0x004;
    pub(crate) const POLL_ERR: i16 = 0x008;
    pub(crate) const POLL_HUP: i16 = 0x010;

    /// Mirror of the unix layout so the reactor compiles unchanged; the
    /// sweep poller never hands these to the OS.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    impl PollFd {
        pub(crate) fn new(fd: i32, events: i16) -> PollFd {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }
    }

    /// No `poll(2)` here; the reactor uses the sweep poller instead.
    pub(crate) fn poll_fds(
        _fds: &mut [PollFd],
        _timeout: std::time::Duration,
    ) -> io::Result<usize> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "poll(2) unavailable; use the sweep poller",
        ))
    }

    pub(crate) fn have_poll() -> bool {
        false
    }

    pub fn nofile_limit() -> io::Result<(u64, u64)> {
        Ok((u64::MAX, u64::MAX))
    }

    pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
        Ok(want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(unix)]
    fn poll_times_out_on_a_quiet_listener() {
        use std::os::fd::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLL_IN)];
        let n = poll_fds(&mut fds, std::time::Duration::from_millis(10)).unwrap();
        assert_eq!(n, 0);
        assert_eq!(fds[0].revents, 0);
    }

    #[test]
    #[cfg(unix)]
    fn poll_reports_an_accept_ready_listener() {
        use std::os::fd::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut fds = [PollFd::new(listener.as_raw_fd(), POLL_IN)];
        let n = poll_fds(&mut fds, std::time::Duration::from_millis(1000)).unwrap();
        assert_eq!(n, 1);
        assert_ne!(fds[0].revents & POLL_IN, 0);
    }

    #[test]
    fn nofile_limit_is_sane() {
        let (soft, hard) = nofile_limit().unwrap();
        assert!(soft > 0);
        assert!(hard >= soft);
    }

    #[test]
    fn raising_the_limit_never_lowers_it() {
        let (before, _) = nofile_limit().unwrap();
        let after = raise_nofile_limit(before.saturating_sub(1).max(1)).unwrap();
        assert!(after >= before);
    }
}
