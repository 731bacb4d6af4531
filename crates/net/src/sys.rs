//! The event-notification shim: epoll on Linux, `poll(2)` elsewhere.
//!
//! The workspace is offline/vendored — no tokio, no mio, no `libc`
//! crate — so readiness notification is declared directly against the
//! C library the binary already links: four `extern "C"` entry points
//! on Linux (`epoll_create1`/`epoll_ctl`/`epoll_wait`/`close`), one on
//! other unix (`poll`). This module is the crate's single audited
//! `unsafe` island (see the crate docs); everything above it sees only
//! the safe [`Poller`]/[`Event`] API.
//!
//! Both backends are used **level-triggered**: a socket with unread
//! bytes (or writable space, when write interest is armed) reports
//! ready on every wait until drained. Level-triggering is deliberate —
//! the ingest loop reads a bounded amount per readiness event to keep
//! per-connection fairness, and a level-triggered poller re-reports the
//! remainder without the re-arm bookkeeping edge-triggering needs.
//!
//! On x86-64 Linux `struct epoll_event` is `#[repr(C, packed)]` — the
//! kernel ABI has no padding between `events` and `data` there — while
//! every other architecture uses natural `#[repr(C)]` alignment;
//! getting this wrong corrupts the token of every second event, so the
//! layout is pinned by `cfg_attr` exactly as the kernel headers do.

// The one audited unsafe island of the crate (see crate docs): raw
// syscall declarations and the calls into them, nothing else.
#![allow(unsafe_code)]

use std::io;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// A readiness event: which registered token fired, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// The descriptor has bytes to read (or a pending accept).
    pub readable: bool,
    /// The descriptor has buffer space to write.
    pub writable: bool,
    /// The descriptor errored, or both directions are shut: there is no
    /// one left to answer, and the connection is dropped at once. A peer
    /// that shuts only its write half is not a hang-up: it reads as
    /// end of input, and its answers still go out.
    pub hangup: bool,
}

/// What a registered descriptor should wake the poller for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake on readable bytes / pending accepts.
    pub readable: bool,
    /// Wake on writable buffer space.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an ingest connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest — armed while a response is buffered.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// Clamp an optional timeout to the `c_int` milliseconds the syscalls
/// take (`-1` = block forever). Sub-millisecond waits round up to 1ms
/// so a short timeout never becomes a busy spin.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_millis();
            if d > Duration::ZERO && ms == 0 {
                1
            } else {
                ms.min(i32::MAX as u128) as i32
            }
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{timeout_ms, Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    // The kernel ABI: packed on x86-64 (no padding between the 32-bit
    // event mask and the 64-bit data word), naturally aligned elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// The Linux backend: one epoll instance, closed on drop.
    pub struct Poller {
        epfd: RawFd,
        /// Reused kernel-side event buffer for [`wait`](Poller::wait).
        scratch: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes a flags word and returns a new
            // fd or -1; no pointers are exchanged.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                scratch: vec![EpollEvent { events: 0, data: 0 }; 64],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut mask = 0;
            if interest.readable {
                mask |= EPOLLIN;
            }
            if interest.writable {
                mask |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events: mask,
                data: token,
            };
            // SAFETY: `ev` is a live, correctly laid out epoll_event for
            // the duration of the call; the kernel copies it out.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            // A dummy event for portability with pre-2.6.9 kernels, which
            // required a non-null pointer even for DEL.
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ)
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            // SAFETY: `scratch` is a live buffer of `len` epoll_events;
            // the kernel writes at most `maxevents` entries into it.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.scratch.as_mut_ptr(),
                    self.scratch.len() as i32,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            for slot in &self.scratch[..n as usize] {
                // Copy out of the (possibly packed) struct by value
                // before touching the fields — references into packed
                // fields are undefined behaviour.
                let mask = { slot.events };
                let token = { slot.data };
                events.push(Event {
                    token,
                    readable: mask & EPOLLIN != 0,
                    writable: mask & EPOLLOUT != 0,
                    hangup: mask & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(events.len())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd is a descriptor this struct exclusively owns.
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::{timeout_ms, Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// The portable unix backend: the full registration list is handed
    /// to `poll(2)` on every wait. O(n) per wait instead of epoll's
    /// O(ready), which is fine at the connection counts the service
    /// targets on non-Linux dev hosts.
    pub struct Poller {
        registered: Vec<(RawFd, u64, Interest)>,
        scratch: Vec<PollFd>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: Vec::new(),
                scratch: Vec::new(),
            })
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            if self.registered.iter().any(|&(f, _, _)| f == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.registered.push((fd, token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            for entry in &mut self.registered {
                if entry.0 == fd {
                    *entry = (fd, token, interest);
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let before = self.registered.len();
            self.registered.retain(|&(f, _, _)| f != fd);
            if self.registered.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            events.clear();
            self.scratch.clear();
            for &(fd, _, interest) in &self.registered {
                let mut mask = 0i16;
                if interest.readable {
                    mask |= POLLIN;
                }
                if interest.writable {
                    mask |= POLLOUT;
                }
                self.scratch.push(PollFd {
                    fd,
                    events: mask,
                    revents: 0,
                });
            }
            if self.scratch.is_empty() {
                if let Some(d) = timeout {
                    std::thread::sleep(d);
                }
                return Ok(0);
            }
            // SAFETY: `scratch` is a live pollfd array of exactly `nfds`
            // entries for the duration of the call.
            let n = unsafe {
                poll(
                    self.scratch.as_mut_ptr(),
                    self.scratch.len() as u64,
                    timeout_ms(timeout),
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            for (slot, &(_, token, _)) in self.scratch.iter().zip(&self.registered) {
                if slot.revents == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: slot.revents & POLLIN != 0,
                    writable: slot.revents & POLLOUT != 0,
                    hangup: slot.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(events.len())
        }
    }
}

#[cfg(not(unix))]
compile_error!("sss-net's event loop needs a unix host (epoll or poll(2))");

/// Readiness notification over a set of registered file descriptors.
///
/// A thin safe facade over the platform backend; see the module docs
/// for the backend selection and triggering semantics.
pub struct Poller {
    inner: imp::Poller,
}

impl Poller {
    /// Create an empty poller.
    ///
    /// # Errors
    ///
    /// The OS refused an epoll instance (fd exhaustion).
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: imp::Poller::new()?,
        })
    }

    /// Start watching `fd` under `token`. The descriptor must outlive
    /// its registration (deregister before closing it).
    ///
    /// # Errors
    ///
    /// The fd is already registered, or the kernel rejected it.
    pub fn register(
        &mut self,
        fd: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        self.inner.register(fd.as_raw_fd(), token, interest)
    }

    /// Change the interest set (and token) of a registered descriptor.
    ///
    /// # Errors
    ///
    /// The fd is not registered.
    pub fn modify(&mut self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd.as_raw_fd(), token, interest)
    }

    /// Stop watching a registered descriptor.
    ///
    /// # Errors
    ///
    /// The fd is not registered.
    pub fn deregister(&mut self, fd: &impl AsRawFd) -> io::Result<()> {
        self.inner.deregister(fd.as_raw_fd())
    }

    /// Block until at least one registered descriptor is ready, the
    /// timeout elapses, or a signal interrupts the wait (reported as
    /// zero events, not an error). Ready events replace the contents of
    /// `events`; the return value is the event count.
    ///
    /// # Errors
    ///
    /// A genuine syscall failure (bad fd slipped into the set, fd
    /// exhaustion) — `EINTR` is absorbed.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        self.inner.wait(events, timeout)
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poller_reports_accept_and_read_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(&listener, 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing pending: a short wait returns no events.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        let mut client = TcpStream::connect(addr).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        let (mut conn, _) = listener.accept().unwrap();
        conn.set_nonblocking(true).unwrap();
        poller.register(&conn, 9, Interest::READ).unwrap();
        client.write_all(b"ping").unwrap();

        // Level-triggered: the data re-reports until drained.
        for _ in 0..2 {
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert!(n >= 1);
            assert!(events.iter().any(|e| e.token == 9 && e.readable));
        }
        let mut buf = [0u8; 8];
        assert_eq!(conn.read(&mut buf).unwrap(), 4);

        poller.deregister(&conn).unwrap();
        poller.deregister(&listener).unwrap();
        assert!(poller.deregister(&listener).is_err());
    }

    #[test]
    fn write_interest_fires_on_an_idle_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        client.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(&client, 3, Interest::READ_WRITE).unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == 3 && e.writable));
    }
}
