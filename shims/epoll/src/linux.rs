//! The Linux backend: `epoll(7)` and an `eventfd(2)` waker.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

use crate::{cvt, timeout_ms, Event, Interest};

// epoll_event is packed on x86_64 (kernel ABI quirk); matching libc's
// definition exactly is what keeps this wrapper correct.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0x80000;
const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

/// An epoll instance (level-triggered).
#[derive(Debug)]
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// Creates a new epoll instance.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: no pointer arguments; the call only returns an fd or -1.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll {
            // SAFETY: `fd` is a fresh descriptor (cvt rejected -1) that
            // nothing else owns.
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Option<Interest>) -> io::Result<()> {
        let mut events = 0;
        if let Some(interest) = interest {
            events = EPOLLRDHUP;
            if interest.readable {
                events |= EPOLLIN;
            }
            if interest.writable {
                events |= EPOLLOUT;
            }
        }
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, correctly laid-out epoll_event for the
        // duration of the call; the kernel validates both descriptors.
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) }).map(|_| ())
    }

    /// Registers `fd` with the given `token` and `interest`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (e.g. the fd is already registered).
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, Some(interest))
    }

    /// Changes the token and interest set of an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (`NotFound` for an unknown fd).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, Some(interest))
    }

    /// Deregisters `fd`. Call it before closing the descriptor.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (`NotFound` for an unknown fd).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, None)
    }

    /// Blocks until at least one registered descriptor is ready or
    /// `timeout` elapses (`None` = block indefinitely), filling `events`.
    /// Returns the number of events. EINTR is retried internally.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failure.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms = timeout_ms(timeout);
        loop {
            // SAFETY: the pointer and length describe `events.buf`, which
            // is exclusively borrowed and outlives the call; the kernel
            // writes at most `maxevents` entries.
            let n = unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    events.buf.as_mut_ptr(),
                    events.buf.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                events.len = n as usize;
                return Ok(events.len);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// Reusable buffer of readiness notifications for [`Epoll::wait`].
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl std::fmt::Debug for Events {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Events").field("len", &self.len).finish()
    }
}

impl Events {
    /// A buffer able to hold `capacity` events per wait.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// Iterates over the events delivered by the last wait.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|raw| {
            // Copy out of the (possibly packed) struct before use.
            let bits = raw.events;
            let token = raw.data;
            Event {
                token,
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                error: bits & (EPOLLERR | EPOLLHUP) != 0,
            }
        })
    }
}

/// Wakes an [`Epoll::wait`] from another thread (an `eventfd` registered
/// read-only under the caller's token).
#[derive(Debug)]
pub struct Waker {
    fd: OwnedFd,
}

impl Waker {
    /// Creates a waker and registers it with `epoll` under `token`.
    ///
    /// # Errors
    ///
    /// Propagates `eventfd`/`epoll_ctl` failure.
    pub fn new(epoll: &Epoll, token: u64) -> io::Result<Waker> {
        // SAFETY: no pointer arguments; the call only returns an fd or -1.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // SAFETY: `fd` is a fresh descriptor (cvt rejected -1) that
        // nothing else owns.
        let fd = unsafe { OwnedFd::from_raw_fd(fd) };
        epoll.add(fd.as_raw_fd(), token, Interest::READABLE)?;
        Ok(Waker { fd })
    }

    /// Makes the next (or current) `wait` return immediately. Safe to call
    /// from any thread; coalesces.
    ///
    /// # Errors
    ///
    /// Propagates the `write(2)` failure (never `EAGAIN`, which coalesces).
    pub fn wake(&self) -> io::Result<()> {
        let one = 1u64.to_ne_bytes();
        // SAFETY: the pointer and length describe the local `one`.
        let n = unsafe { write(self.fd.as_raw_fd(), one.as_ptr(), one.len()) };
        // EAGAIN means the counter is already non-zero: the wake is
        // pending, which is all the caller needs.
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::WouldBlock {
                return Err(err);
            }
        }
        Ok(())
    }

    /// Clears the pending wake after its event is observed.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // Non-blocking: one read clears the counter entirely.
        // SAFETY: the pointer and length describe the local `buf`.
        let _ = unsafe { read(self.fd.as_raw_fd(), buf.as_mut_ptr(), buf.len()) };
    }
}
