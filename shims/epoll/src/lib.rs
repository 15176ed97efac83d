//! In-tree stand-in for the `epoll`/`mio` crates: a minimal safe readiness
//! poller with two backends behind one API.
//!
//! * **Linux** — `epoll(7)` plus an `eventfd(2)` waker (`linux.rs`).
//! * **Every other unix** — `poll(2)` over a registration table plus a
//!   socket-pair waker (`poll.rs`). O(registered fds) per wait, which is
//!   what `poll` costs; it exists so the one reactor in `swarm-net` runs
//!   everywhere, not to be fast.
//!
//! The backend is a property of the target OS. There is no feature, env
//! var or runtime switch, and the public surface ([`Epoll`], [`Events`],
//! [`Waker`], [`Interest`], [`Event`]) is identical on both.
//!
//! The workspace forbids unsafe code everywhere business logic lives, but
//! readiness-driven I/O needs a handful of raw syscalls. This shim
//! confines them: the `extern "C"` declarations bind symbols that `std`
//! already links from libc, every fd is held in an owned handle, and the
//! public surface is entirely safe.
//!
//! Only level-triggered mode is exposed — the reactor re-arms interest
//! explicitly, which keeps the state machines auditable. Callers
//! [`Epoll::delete`] a descriptor before closing it: epoll would forget a
//! closed fd by itself, `poll(2)` has no kernel object that could.

#![deny(unsafe_op_in_unsafe_fn)]

#[cfg(not(unix))]
compile_error!("the epoll shim needs a unix target: epoll(7) on Linux, poll(2) elsewhere");

use std::io;
pub use std::os::fd::RawFd;
use std::time::Duration;

#[cfg(target_os = "linux")]
mod linux;
#[cfg(any(not(target_os = "linux"), test))]
mod poll;

#[cfg(target_os = "linux")]
pub use linux::{Epoll, Events, Waker};
#[cfg(not(target_os = "linux"))]
pub use poll::{Epoll, Events, Waker};

/// Readiness interest to register a descriptor with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the descriptor is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Write-only interest.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };

    /// Read + write interest.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness notification returned by [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Descriptor is readable (includes peer hang-up, so a final `read`
    /// observing EOF is never missed).
    pub readable: bool,
    /// Descriptor is writable.
    pub writable: bool,
    /// Error or hang-up condition: the owner should read to collect the
    /// error and close.
    pub error: bool,
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// `timeout` as the millisecond argument both `epoll_wait` and `poll`
/// take: `-1` blocks indefinitely; anything shorter than a millisecond
/// becomes 1 so a 100 µs deadline does not spin at timeout 0.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => i32::try_from(d.as_millis().max(1)).unwrap_or(i32::MAX),
    }
}

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

#[cfg(any(target_os = "linux", target_os = "android"))]
const RLIMIT_NOFILE: i32 = 7;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const RLIMIT_NOFILE: i32 = 8; // the BSDs and macOS

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

/// Raises the process soft `RLIMIT_NOFILE` to at least `min` (clamped to
/// the hard limit). Returns the resulting soft limit. Used by
/// many-connection stress tests; a no-op when the limit is already high
/// enough.
///
/// # Errors
///
/// Propagates `getrlimit`/`setrlimit` failure.
pub fn raise_nofile_soft_limit(min: u64) -> io::Result<u64> {
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a live rlimit the call fills in.
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.cur >= min {
        return Ok(lim.cur);
    }
    let want = min.min(lim.max);
    let new = Rlimit {
        cur: want,
        max: lim.max,
    };
    // SAFETY: `new` is a live rlimit the call only reads.
    cvt(unsafe { setrlimit(RLIMIT_NOFILE, &new) })?;
    Ok(want)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nofile_limit_can_be_raised() {
        let got = raise_nofile_soft_limit(64).unwrap();
        assert!(got >= 64);
    }

    /// The same behavioural suite against each backend this target can
    /// build: on Linux that is both (the `poll(2)` backend is compiled
    /// under `cfg(test)` so the code non-Linux targets run is exercised
    /// where CI runs).
    macro_rules! backend_tests {
        ($backend:ident) => {
            mod $backend {
                use crate::$backend::{Epoll, Events, Waker};
                use crate::Interest;
                use std::io::{ErrorKind, Read, Write};
                use std::net::{TcpListener, TcpStream};
                use std::os::fd::AsRawFd;
                use std::time::{Duration, Instant};

                fn pair() -> (TcpStream, TcpStream) {
                    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                    let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                    let (server, _) = listener.accept().unwrap();
                    server.set_nonblocking(true).unwrap();
                    (client, server)
                }

                const SHORT: Option<Duration> = Some(Duration::from_millis(20));
                const LONG: Option<Duration> = Some(Duration::from_secs(10));

                #[test]
                fn waker_wakes_a_blocked_wait_and_drains() {
                    let ep = Epoll::new().unwrap();
                    let waker = std::sync::Arc::new(Waker::new(&ep, 0).unwrap());
                    let w2 = waker.clone();
                    let t = std::thread::spawn(move || {
                        std::thread::sleep(Duration::from_millis(50));
                        // Wakes coalesce: two before the drain are one event.
                        w2.wake().unwrap();
                        w2.wake().unwrap();
                    });
                    let mut events = Events::with_capacity(4);
                    assert_eq!(ep.wait(&mut events, LONG).unwrap(), 1);
                    assert_eq!(events.iter().next().unwrap().token, 0);
                    t.join().unwrap();
                    // Level-triggered: still pending until drained.
                    assert_eq!(ep.wait(&mut events, SHORT).unwrap(), 1);
                    waker.drain();
                    assert_eq!(ep.wait(&mut events, SHORT).unwrap(), 0);
                    assert_eq!(events.iter().count(), 0);
                }

                #[test]
                fn timeout_expires_with_no_events() {
                    let ep = Epoll::new().unwrap();
                    let mut events = Events::with_capacity(4);
                    let t0 = Instant::now();
                    assert_eq!(ep.wait(&mut events, SHORT).unwrap(), 0);
                    assert!(t0.elapsed() >= Duration::from_millis(15));
                }

                #[test]
                fn register_modify_delete_follow_readiness() {
                    let (mut client, server) = pair();
                    let ep = Epoll::new().unwrap();
                    let fd = server.as_raw_fd();
                    ep.add(fd, 7, Interest::READABLE).unwrap();
                    assert!(ep.add(fd, 8, Interest::READABLE).is_err(), "double add");

                    let mut events = Events::with_capacity(4);
                    assert_eq!(ep.wait(&mut events, SHORT).unwrap(), 0, "nothing sent yet");

                    client.write_all(b"ping").unwrap();
                    assert_eq!(ep.wait(&mut events, LONG).unwrap(), 1);
                    let ev = events.iter().next().unwrap();
                    assert_eq!(ev.token, 7);
                    assert!(ev.readable && !ev.writable);

                    let mut buf = [0u8; 4];
                    (&server).read_exact(&mut buf).unwrap();
                    assert_eq!(&buf, b"ping");
                    assert_eq!(ep.wait(&mut events, SHORT).unwrap(), 0, "drained");

                    // Interest (and token) can be switched.
                    ep.modify(fd, 9, Interest::WRITABLE).unwrap();
                    assert_eq!(ep.wait(&mut events, LONG).unwrap(), 1);
                    let ev = events.iter().next().unwrap();
                    assert_eq!(ev.token, 9);
                    assert!(ev.writable && !ev.readable);

                    // A deleted fd reports nothing, however ready it is.
                    ep.delete(fd).unwrap();
                    client.write_all(b"more").unwrap();
                    assert_eq!(ep.wait(&mut events, SHORT).unwrap(), 0);
                    let gone =
                        |r: std::io::Result<()>| r.unwrap_err().kind() == ErrorKind::NotFound;
                    assert!(gone(ep.modify(fd, 9, Interest::READABLE)));
                    assert!(gone(ep.delete(fd)));
                    // …and can be registered afresh.
                    ep.add(fd, 10, Interest::BOTH).unwrap();
                    assert_eq!(ep.wait(&mut events, LONG).unwrap(), 1);
                    let ev = events.iter().next().unwrap();
                    assert!(ev.token == 10 && ev.readable && ev.writable);
                }

                #[test]
                fn several_ready_descriptors_are_all_reported() {
                    let ep = Epoll::new().unwrap();
                    let mut pairs: Vec<_> = (0..3).map(|_| pair()).collect();
                    for (i, (_, server)) in pairs.iter().enumerate() {
                        ep.add(server.as_raw_fd(), 100 + i as u64, Interest::READABLE)
                            .unwrap();
                    }
                    for (client, _) in pairs.iter_mut() {
                        client.write_all(b"x").unwrap();
                    }
                    let mut events = Events::with_capacity(8);
                    let mut seen = Vec::new();
                    let t0 = Instant::now();
                    while seen.len() < 3 && t0.elapsed() < Duration::from_secs(10) {
                        ep.wait(&mut events, SHORT).unwrap();
                        seen = events.iter().map(|e| e.token).collect();
                        seen.sort_unstable();
                    }
                    assert_eq!(seen, vec![100, 101, 102]);
                }

                #[test]
                fn hangup_reports_readable() {
                    let (client, server) = pair();
                    let ep = Epoll::new().unwrap();
                    ep.add(server.as_raw_fd(), 1, Interest::READABLE).unwrap();
                    drop(client);
                    let mut events = Events::with_capacity(4);
                    assert_eq!(ep.wait(&mut events, LONG).unwrap(), 1);
                    let ev = events.iter().next().unwrap();
                    assert!(ev.readable, "EOF must surface as readable");
                    let mut buf = [0u8; 1];
                    assert_eq!((&server).read(&mut buf).unwrap(), 0);
                }
            }
        };
    }

    #[cfg(target_os = "linux")]
    backend_tests!(linux);
    backend_tests!(poll);
}
