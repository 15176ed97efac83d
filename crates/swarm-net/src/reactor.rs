//! Readiness-driven event loop: the one I/O engine under the TCP
//! transport, client and server side.
//!
//! §2.3's "a client talks to its whole stripe group" would cost a parked
//! thread per member (and a server a thread per connection) on blocking
//! sockets. The [`Reactor`] inverts that: one thread owns a poller and a
//! set of [`Source`]s (listener, server connections, multiplexed client
//! channels), each a small state machine advanced only when its
//! descriptor is ready. Per-connection state is a few hundred bytes
//! instead of a stack, which is what lets one server hold thousands of
//! connections.
//!
//! The poller is the in-tree `epoll` shim: `epoll(7)` on Linux, `poll(2)`
//! behind the same API on other unix targets. Which one is a property of
//! the target OS, not a setting.
//!
//! Pieces:
//!
//! * [`Source`] — a registered descriptor plus its state machine:
//!   `on_ready` (readable/writable edges), `on_notify` (another thread
//!   queued work for it), `on_timer` (its deadline fired).
//! * [`Handle`] — a cheap cross-thread address for a source; worker
//!   threads use it to say "this connection has a response to write".
//! * `TimerWheel` — a hashed timing wheel (16 ms ticks) holding at most
//!   one deadline per source; deadlines drive idle-connection reaping.
//!
//! The reactor thread is the only code that touches sources, so sources
//! need no internal locking; cross-thread communication happens through
//! the command queue + waker, and through whatever shared state a source
//! chooses to carry (the mux channel shares a mutex-guarded outbox with
//! callers).

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use epoll::{Epoll, Events, Interest, RawFd, Waker};
use parking_lot::Mutex;

/// What a readiness or notify callback wants done with its source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ready {
    /// Keep the source registered.
    Continue,
    /// Drop the source (closing its descriptor).
    Close,
}

/// What a timer callback wants done with its source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerVerdict {
    /// No deadline armed any more.
    Disarm,
    /// Fire again at the given instant.
    ReArm(Instant),
    /// Drop the source (deadline expired for real).
    Close,
}

/// A descriptor-owning state machine driven by the reactor thread.
///
/// All methods run on the reactor thread; implementations must never
/// block (socket I/O uses non-blocking descriptors, heavy work is handed
/// to the worker pool).
pub(crate) trait Source: Send {
    /// The descriptor to register.
    fn fd(&self) -> RawFd;

    /// The interest set the source currently wants. Re-queried after
    /// every callback; the reactor issues `EPOLL_CTL_MOD` on change.
    fn interest(&self) -> Interest;

    /// The descriptor is ready. Level-triggered: drain until `WouldBlock`.
    fn on_ready(&mut self, readable: bool, writable: bool, ctx: &mut Ctx<'_>) -> Ready;

    /// Another thread called [`Handle::notify`] for this source.
    fn on_notify(&mut self, ctx: &mut Ctx<'_>) -> Ready {
        let _ = ctx;
        Ready::Continue
    }

    /// The source's armed deadline fired.
    fn on_timer(&mut self, now: Instant, ctx: &mut Ctx<'_>) -> TimerVerdict {
        let _ = (now, ctx);
        TimerVerdict::Disarm
    }
}

enum Cmd {
    Register {
        token: u64,
        source: Box<dyn Source>,
        deadline: Option<Instant>,
    },
    Notify(u64),
    Close(u64),
}

struct Shared {
    epoll: Epoll,
    waker: Waker,
    next_token: AtomicU64,
    cmds: Mutex<Vec<Cmd>>,
    stop: AtomicBool,
}

impl Shared {
    fn push(&self, cmd: Cmd) {
        if self.stop.load(Ordering::SeqCst) {
            return;
        }
        self.cmds.lock().push(cmd);
        let _ = self.waker.wake();
    }
}

/// A cheap cross-thread address for a registered source.
#[derive(Clone)]
pub(crate) struct Handle {
    shared: Arc<Shared>,
    token: u64,
}

impl Handle {
    /// Asks the reactor to run the source's `on_notify` soon. Used by
    /// worker threads after queueing output for a connection. A no-op on
    /// a stopped reactor.
    pub(crate) fn notify(&self) {
        self.shared.push(Cmd::Notify(self.token));
    }

    /// Asks the reactor to drop the source (closing its descriptor).
    pub(crate) fn close(&self) {
        self.shared.push(Cmd::Close(self.token));
    }
}

/// Registration context passed to source callbacks, letting them spawn
/// further sources (the listener spawns one per accepted connection).
pub(crate) struct Ctx<'a> {
    shared: &'a Arc<Shared>,
    pending: &'a mut Vec<Cmd>,
}

impl Ctx<'_> {
    /// Reserves a token and returns its handle, so a new source can embed
    /// its own address before being attached.
    pub(crate) fn reserve(&self) -> Handle {
        Handle {
            shared: Arc::clone(self.shared),
            token: self.shared.next_token.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Attaches a source under a previously [`Ctx::reserve`]d handle,
    /// optionally arming a deadline. Installed when the current callback
    /// returns.
    pub(crate) fn attach(
        &mut self,
        handle: &Handle,
        source: Box<dyn Source>,
        deadline: Option<Instant>,
    ) {
        self.pending.push(Cmd::Register {
            token: handle.token,
            source,
            deadline,
        });
    }
}

/// One reactor: a poller plus the thread that drives it.
///
/// Dropping (or [`Reactor::stop`]ping) the reactor drops every source,
/// which closes every owned descriptor — connections are severed exactly
/// like a process exit.
pub(crate) struct Reactor {
    shared: Arc<Shared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Reactor")
    }
}

const WAKER_TOKEN: u64 = 0;

impl Reactor {
    /// Creates the poller and spawns the reactor thread.
    pub(crate) fn new(name: &str) -> io::Result<Reactor> {
        let epoll = Epoll::new()?;
        let waker = Waker::new(&epoll, WAKER_TOKEN)?;
        let shared = Arc::new(Shared {
            epoll,
            waker,
            next_token: AtomicU64::new(WAKER_TOKEN + 1),
            cmds: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let shared2 = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || run(&shared2))
            .map_err(|e| io::Error::other(format!("spawn reactor thread: {e}")))?;
        Ok(Reactor {
            shared,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// Registers a source built by `build` (which receives the source's
    /// own handle, so it can hand copies to worker threads). Returns the
    /// handle.
    pub(crate) fn register(
        &self,
        deadline: Option<Instant>,
        build: impl FnOnce(&Handle) -> Box<dyn Source>,
    ) -> Handle {
        let handle = Handle {
            shared: Arc::clone(&self.shared),
            token: self.shared.next_token.fetch_add(1, Ordering::Relaxed),
        };
        let source = build(&handle);
        self.shared.push(Cmd::Register {
            token: handle.token,
            source,
            deadline,
        });
        handle
    }

    /// Stops the reactor thread and joins it, dropping every source (and
    /// so closing every owned socket).
    pub(crate) fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = self.shared.waker.wake();
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop();
    }
}

struct Entry {
    fd: RawFd,
    source: Box<dyn Source>,
    interest: Interest,
}

/// Hashed timing wheel: 16 ms ticks, 512 slots (~8 s per round). Each
/// entry keeps its absolute deadline; insertion rounds *up* to a tick so
/// a deadline never fires early, and entries landing on an occupied slot
/// from a later round simply stay until their round comes up.
struct TimerWheel {
    slots: Vec<Vec<(u64, Instant)>>,
    start: Instant,
    /// Absolute index of the next unprocessed tick.
    next_tick: u64,
    armed: usize,
}

const TICK: Duration = Duration::from_millis(16);
const SLOTS: usize = 512;

impl TimerWheel {
    fn new(now: Instant) -> TimerWheel {
        TimerWheel {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            start: now,
            next_tick: 0,
            armed: 0,
        }
    }

    fn tick_of(&self, when: Instant) -> u64 {
        let offset = when.saturating_duration_since(self.start);
        // Round up: fire at-or-after the deadline, never before.
        offset.as_micros().div_ceil(TICK.as_micros()) as u64
    }

    fn insert(&mut self, token: u64, when: Instant) {
        let tick = self.tick_of(when).max(self.next_tick);
        self.slots[(tick % SLOTS as u64) as usize].push((token, when));
        self.armed += 1;
    }

    /// How long `epoll_wait` may sleep: until the next tick that holds an
    /// entry (scanning at most one wheel round), or forever when no
    /// deadline is armed.
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.armed == 0 {
            return None;
        }
        let mut tick = self.next_tick;
        for _ in 0..SLOTS {
            if !self.slots[(tick % SLOTS as u64) as usize].is_empty() {
                break;
            }
            tick += 1;
        }
        // 64-bit math: `TICK * (tick as u32)` would truncate after 2^32
        // ticks (~795 days) and wrap the boundary.
        let boundary = self.start + Duration::from_micros(TICK.as_micros() as u64 * tick.max(1));
        Some(
            boundary
                .saturating_duration_since(now)
                .max(Duration::from_millis(1)),
        )
    }

    /// Advances the wheel to `now`, returning the tokens whose deadline
    /// has passed. Entries from future rounds sharing a slot are kept.
    fn expired(&mut self, now: Instant) -> Vec<u64> {
        let mut due = Vec::new();
        // Every slot whose boundary has passed — round *down*, unlike
        // `tick_of`. Sweeping the slot `now` is still inside would keep its
        // not-yet-due entries but move the cursor past them, and they
        // would only fire a full wheel round (~8 s) late.
        let offset = now.saturating_duration_since(self.start);
        let now_tick = (offset.as_micros() / TICK.as_micros()) as u64 + 1;
        while self.next_tick < now_tick {
            let slot = &mut self.slots[(self.next_tick % SLOTS as u64) as usize];
            if !slot.is_empty() {
                let before = due.len();
                let mut kept = Vec::new();
                for (token, when) in slot.drain(..) {
                    if when <= now {
                        due.push(token);
                    } else {
                        kept.push((token, when));
                    }
                }
                // Only this slot's expirations: `due` is cumulative across
                // the sweep, and over-subtracting would zero `armed` while
                // deadlines remain, stalling `next_timeout` forever.
                self.armed -= (due.len() - before).min(self.armed);
                *slot = kept;
            }
            self.next_tick += 1;
        }
        due
    }
}

fn run(shared: &Arc<Shared>) {
    let mut entries: HashMap<u64, Entry> = HashMap::new();
    let mut wheel = TimerWheel::new(Instant::now());
    let mut events = Events::with_capacity(256);
    let mut spawned: Vec<Cmd> = Vec::new();

    loop {
        // Install / dispatch queued commands first so a registration is
        // never delayed behind a long epoll sleep.
        let cmds: Vec<Cmd> = std::mem::take(&mut *shared.cmds.lock());
        for cmd in cmds {
            apply(shared, &mut entries, &mut wheel, &mut spawned, cmd);
        }
        while let Some(cmd) = spawned.pop() {
            apply(shared, &mut entries, &mut wheel, &mut spawned, cmd);
        }
        if shared.stop.load(Ordering::SeqCst) {
            // Dropping the entries closes every socket.
            return;
        }

        let timeout = wheel.next_timeout(Instant::now());
        match shared.epoll.wait(&mut events, timeout) {
            Ok(_) => {}
            Err(e) => {
                swarm_metrics::trace!("net.reactor", "epoll_wait failed, stopping: {e}");
                return;
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }

        let collected: Vec<epoll::Event> = events.iter().collect();
        for ev in collected {
            if ev.token == WAKER_TOKEN {
                shared.waker.drain();
                continue;
            }
            let Some(entry) = entries.get_mut(&ev.token) else {
                continue; // closed earlier in this batch
            };
            let mut ctx = Ctx {
                shared,
                pending: &mut spawned,
            };
            let verdict = entry
                .source
                .on_ready(ev.readable || ev.error, ev.writable, &mut ctx);
            finish(shared, &mut entries, ev.token, verdict);
        }

        let now = Instant::now();
        for token in wheel.expired(now) {
            let Some(entry) = entries.get_mut(&token) else {
                continue;
            };
            let mut ctx = Ctx {
                shared,
                pending: &mut spawned,
            };
            match entry.source.on_timer(now, &mut ctx) {
                TimerVerdict::Disarm => {
                    finish(shared, &mut entries, token, Ready::Continue);
                }
                TimerVerdict::ReArm(when) => {
                    wheel.insert(token, when);
                    finish(shared, &mut entries, token, Ready::Continue);
                }
                TimerVerdict::Close => {
                    finish(shared, &mut entries, token, Ready::Close);
                }
            }
        }
    }
}

fn apply(
    shared: &Arc<Shared>,
    entries: &mut HashMap<u64, Entry>,
    wheel: &mut TimerWheel,
    spawned: &mut Vec<Cmd>,
    cmd: Cmd,
) {
    match cmd {
        Cmd::Register {
            token,
            source,
            deadline,
        } => {
            let fd = source.fd();
            let interest = source.interest();
            if shared.epoll.add(fd, token, interest).is_err() {
                // Registration failure closes the connection (source drop);
                // the peer observes a severed socket and redials.
                swarm_metrics::trace!("net.reactor", "failed to register fd, dropping source");
                return;
            }
            entries.insert(
                token,
                Entry {
                    fd,
                    source,
                    interest,
                },
            );
            if let Some(when) = deadline {
                wheel.insert(token, when);
            }
        }
        Cmd::Notify(token) => {
            if let Some(entry) = entries.get_mut(&token) {
                let mut ctx = Ctx {
                    shared,
                    pending: spawned,
                };
                let verdict = entry.source.on_notify(&mut ctx);
                finish(shared, entries, token, verdict);
            }
        }
        Cmd::Close(token) => close(shared, entries, token),
    }
}

/// Drops a source: deregisters its descriptor, then closes it. The
/// `poll(2)` backend has no kernel object that forgets a closed fd, so
/// the delete is explicit on every backend.
fn close(shared: &Arc<Shared>, entries: &mut HashMap<u64, Entry>, token: u64) {
    if let Some(entry) = entries.remove(&token) {
        let _ = shared.epoll.delete(entry.fd);
    }
}

/// Applies a callback verdict: drop the source on `Close`, otherwise
/// reconcile its interest set with epoll.
fn finish(shared: &Arc<Shared>, entries: &mut HashMap<u64, Entry>, token: u64, verdict: Ready) {
    match verdict {
        Ready::Close => close(shared, entries, token),
        Ready::Continue => {
            if let Some(entry) = entries.get_mut(&token) {
                let want = entry.source.interest();
                if want != entry.interest && shared.epoll.modify(entry.fd, token, want).is_ok() {
                    entry.interest = want;
                }
            }
        }
    }
}

/// The process-wide reactor that drives all multiplexed client channels.
/// Lazily spawned; lives for the process (client connections come and go,
/// the loop is shared).
///
/// # Errors
///
/// Fails if the poller or its thread cannot be created (fd or thread
/// exhaustion); the failure is remembered, so every later call reports it.
pub(crate) fn client_reactor() -> io::Result<&'static Reactor> {
    static CLIENT: std::sync::OnceLock<io::Result<Reactor>> = std::sync::OnceLock::new();
    match CLIENT.get_or_init(|| Reactor::new("swarm-mux-client")) {
        Ok(r) => Ok(r),
        Err(e) => Err(io::Error::new(e.kind(), e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_wheel_fires_at_or_after_deadline_and_keeps_future_rounds() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.insert(1, t0 + Duration::from_millis(10));
        wheel.insert(2, t0 + Duration::from_millis(100));
        // A deadline a full round + a bit away shares slots with near ones.
        wheel.insert(3, t0 + TICK * SLOTS as u32 + Duration::from_millis(10));

        assert!(wheel.next_timeout(t0).is_some());
        assert!(wheel.expired(t0).is_empty(), "nothing due at t0");

        let due = wheel.expired(t0 + Duration::from_millis(40));
        assert_eq!(due, vec![1]);
        let due = wheel.expired(t0 + Duration::from_millis(200));
        assert_eq!(due, vec![2]);
        assert!(wheel.next_timeout(t0).is_some(), "far entry still armed");
        let due = wheel.expired(t0 + TICK * (SLOTS as u32 + 4));
        assert_eq!(due, vec![3]);
        assert_eq!(wheel.next_timeout(t0), None, "wheel drained");
    }

    /// Regression: a wait that returns a hair before the tick boundary
    /// (poll timeouts are whole milliseconds) swept the current slot,
    /// kept its not-yet-due entry, and moved the cursor past it — the
    /// deadline then fired a whole wheel round late.
    #[test]
    fn timer_wheel_early_wake_does_not_skip_the_current_slot() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        wheel.insert(1, t0 + Duration::from_millis(15));
        assert!(wheel.expired(t0 + Duration::from_millis(14)).is_empty());
        assert_eq!(wheel.expired(t0 + Duration::from_millis(20)), vec![1]);
    }

    #[test]
    fn timer_wheel_armed_survives_multi_slot_sweep() {
        let t0 = Instant::now();
        let mut wheel = TimerWheel::new(t0);
        // Three entries in three different slots, all expired by one
        // sweep, plus one far in the future.
        wheel.insert(1, t0 + Duration::from_millis(10));
        wheel.insert(2, t0 + Duration::from_millis(40));
        wheel.insert(3, t0 + Duration::from_millis(70));
        wheel.insert(4, t0 + Duration::from_secs(4));

        let mut due = wheel.expired(t0 + Duration::from_millis(100));
        due.sort_unstable();
        assert_eq!(due, vec![1, 2, 3]);
        // Regression: subtracting the cumulative due count per slot zeroed
        // `armed` here, so the far deadline never woke epoll again.
        assert!(wheel.next_timeout(t0).is_some(), "far entry still armed");
        assert_eq!(wheel.expired(t0 + Duration::from_secs(5)), vec![4]);
        assert_eq!(wheel.next_timeout(t0), None, "wheel drained");
    }

    mod live {
        use super::*;
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;
        use std::sync::atomic::AtomicUsize;

        /// Counts readiness callbacks on one accepted socket.
        struct CountSource {
            stream: TcpStream,
            hits: Arc<AtomicUsize>,
            timer_hits: Arc<AtomicUsize>,
        }

        impl Source for CountSource {
            fn fd(&self) -> RawFd {
                self.stream.as_raw_fd()
            }
            fn interest(&self) -> Interest {
                Interest::READABLE
            }
            fn on_ready(&mut self, readable: bool, _w: bool, _ctx: &mut Ctx<'_>) -> Ready {
                use std::io::Read;
                if readable {
                    let mut buf = [0u8; 64];
                    match (&self.stream).read(&mut buf) {
                        Ok(0) => return Ready::Close,
                        Ok(_) => {
                            self.hits.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {}
                        Err(_) => return Ready::Close,
                    }
                }
                Ready::Continue
            }
            fn on_timer(&mut self, _now: Instant, _ctx: &mut Ctx<'_>) -> TimerVerdict {
                self.timer_hits.fetch_add(1, Ordering::SeqCst);
                TimerVerdict::Disarm
            }
        }

        #[test]
        fn reactor_delivers_readiness_and_timers() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let mut client = TcpStream::connect(addr).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();

            let reactor = Reactor::new("test-reactor").unwrap();
            let hits = Arc::new(AtomicUsize::new(0));
            let timer_hits = Arc::new(AtomicUsize::new(0));
            let h2 = hits.clone();
            let t2 = timer_hits.clone();
            let deadline = Instant::now() + Duration::from_millis(80);
            let _handle = reactor.register(Some(deadline), move |_h| {
                Box::new(CountSource {
                    stream: server,
                    hits: h2,
                    timer_hits: t2,
                })
            });

            client.write_all(b"x").unwrap();
            let t0 = Instant::now();
            while hits.load(Ordering::SeqCst) == 0 && t0.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert!(hits.load(Ordering::SeqCst) >= 1, "readiness delivered");
            while timer_hits.load(Ordering::SeqCst) == 0 && t0.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(timer_hits.load(Ordering::SeqCst), 1, "deadline fired once");
            reactor.stop();
        }
    }
}
