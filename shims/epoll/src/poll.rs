//! The portable backend: `poll(2)` over a registration table, and a
//! socket-pair waker. Same API and level-triggered semantics as the epoll
//! backend.
//!
//! Registration changes are picked up at the start of the next
//! [`Epoll::wait`]; the reactor only changes registrations from the
//! thread that waits, so it never notices.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Mutex;
use std::time::Duration;

use crate::{cvt, timeout_ms, Event, Interest};

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

// Same values on Linux, the BSDs and macOS.
const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout_ms: i32) -> i32;
}

/// A `poll(2)` descriptor set behind the epoll API (level-triggered).
#[derive(Debug, Default)]
pub struct Epoll {
    registered: Mutex<BTreeMap<RawFd, (u64, Interest)>>,
}

fn not_found() -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, "fd is not registered")
}

impl Epoll {
    /// Creates an empty descriptor set.
    ///
    /// # Errors
    ///
    /// None today; fallible for parity with the epoll backend.
    pub fn new() -> io::Result<Epoll> {
        Ok(Epoll::default())
    }

    fn table(&self) -> std::sync::MutexGuard<'_, BTreeMap<RawFd, (u64, Interest)>> {
        // Nothing panics under this lock, so poison carries no news.
        self.registered.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers `fd` with the given `token` and `interest`.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` if the fd is already registered.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut table = self.table();
        if table.contains_key(&fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd is already registered",
            ));
        }
        table.insert(fd, (token, interest));
        Ok(())
    }

    /// Changes the token and interest set of an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// `NotFound` for an unknown fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        *self.table().get_mut(&fd).ok_or_else(not_found)? = (token, interest);
        Ok(())
    }

    /// Deregisters `fd`. Call it before closing the descriptor: nothing
    /// else removes the entry, and a closed fd's number is soon reused.
    ///
    /// # Errors
    ///
    /// `NotFound` for an unknown fd.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.table().remove(&fd).map(|_| ()).ok_or_else(not_found)
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout` elapses (`None` = block indefinitely), filling `events`
    /// with every ready descriptor. Returns the number of events. EINTR
    /// is retried internally.
    ///
    /// # Errors
    ///
    /// Propagates `poll` failure.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let (mut fds, tokens): (Vec<PollFd>, Vec<u64>) = self
            .table()
            .iter()
            .map(|(&fd, &(token, interest))| {
                let mut bits = 0;
                if interest.readable {
                    bits |= POLLIN;
                }
                if interest.writable {
                    bits |= POLLOUT;
                }
                let pfd = PollFd {
                    fd,
                    events: bits,
                    revents: 0,
                };
                (pfd, token)
            })
            .unzip();
        let timeout_ms = timeout_ms(timeout);
        loop {
            // SAFETY: the pointer and length describe `fds`, a live vector
            // of correctly laid-out pollfd entries; the kernel writes only
            // their `revents`.
            match cvt(unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) }) {
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        events.ready.clear();
        for (pfd, token) in fds.iter().zip(tokens) {
            let bits = pfd.revents;
            if bits != 0 {
                events.ready.push(Event {
                    token,
                    readable: bits & (POLLIN | POLLHUP) != 0,
                    writable: bits & POLLOUT != 0,
                    // POLLNVAL: the owner closed the fd without `delete`;
                    // its read fails and it drops the source.
                    error: bits & (POLLERR | POLLHUP | POLLNVAL) != 0,
                });
            }
        }
        Ok(events.ready.len())
    }
}

/// Reusable buffer of readiness notifications for [`Epoll::wait`].
#[derive(Debug)]
pub struct Events {
    ready: Vec<Event>,
}

impl Events {
    /// A buffer sized for `capacity` events; it grows if one wait finds
    /// more ready (a scan reports them all, so none can starve).
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            ready: Vec::with_capacity(capacity),
        }
    }

    /// Iterates over the events delivered by the last wait.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.ready.iter().copied()
    }
}

/// Wakes an [`Epoll::wait`] from another thread: a non-blocking socket
/// pair whose read end is registered under the caller's token. A waker
/// lives as long as its poller, so it never deregisters.
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    /// Creates a waker and registers it with `epoll` under `token`.
    ///
    /// # Errors
    ///
    /// Propagates `socketpair`/`fcntl` failure.
    pub fn new(epoll: &Epoll, token: u64) -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        epoll.add(rx.as_raw_fd(), token, Interest::READABLE)?;
        Ok(Waker { tx, rx })
    }

    /// Makes the next (or current) `wait` return immediately. Safe to call
    /// from any thread; coalesces.
    ///
    /// # Errors
    ///
    /// Propagates the `write(2)` failure (never `EAGAIN`: a full socket
    /// buffer means a wake is already pending).
    pub fn wake(&self) -> io::Result<()> {
        match (&self.tx).write(&[1]) {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Clears the pending wakes after their event is observed.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}
