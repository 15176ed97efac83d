//! Per-client connection pool and parallel broadcast: the transport half
//! of the read engine.
//!
//! The paper's client talks to every server in its stripe group, and
//! reconstruction additionally contacts the whole cluster (§2.3.3). Doing
//! that over a fresh connection per call wastes a dial per request and
//! serializes the broadcast; [`ConnectionPool`] keeps a small stack of
//! idle connections per server, tracks per-server health, and fans
//! broadcasts out across threads so a locate costs one round-trip to the
//! slowest *relevant* server, not the sum over the cluster.
//!
//! Pool lifecycle:
//!
//! * [`ConnectionPool::call`] checks a connection out (reusing an idle one
//!   when available), issues the request, and checks the connection back
//!   in on success. A failed call drops the connection and redials once —
//!   a pooled connection may be stale because the server restarted, and
//!   that must be invisible to the caller.
//! * Failed dials put the server in a short backoff window; the next dial
//!   to that server waits out the remainder of the window first. Backoff
//!   rate-limits connection attempts to an unhealthy server without ever
//!   skipping a dial *that is asked for*: `checkout`, `call` and
//!   `redial_call` always dial, so the write path, recovery and the
//!   cleaner observe a server that comes back immediately. A failed dial
//!   also drops the server's idle connections — same dead process.
//! * [`ConnectionPool::should_try`] says what the slot already knows — a
//!   server whose last dial failed is down — so that a caller with another
//!   way to its answer (a degraded read, survivor selection) may decline
//!   to ask. One caller per [`PROBE_PERIOD`] is told to try anyway: no
//!   background thread, no ping; any successful dial, the writer's
//!   included, clears the suspicion at once.
//! * [`ConnectionPool::broadcast`] queries every server in parallel and
//!   returns the replies in server-id order. Servers that fail are
//!   counted (`net.broadcast_errors`) and traced, never silently absent.
//! * [`ConnectionPool::broadcast_first`] is the first-positive-wins mode
//!   used by `Locate`: it returns as soon as any server's reply satisfies
//!   the acceptance predicate, leaving the stragglers to finish (and
//!   check their connections back in) in the background.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use swarm_types::{ClientId, Result, ServerId, SwarmError};

use crate::proto::{Request, Response};
use crate::transport::{Connection, Transport};

/// Idle connections kept per server; more are simply dropped on check-in.
const MAX_IDLE_PER_SERVER: usize = 4;
/// First-failure backoff; doubles per consecutive failure up to the cap.
const BACKOFF_BASE: Duration = Duration::from_micros(500);
/// Backoff cap. Deliberately small: the pool never refuses to dial, it
/// only spaces dials out, so the cap bounds the latency a recovered
/// server can add to the first request after it comes back.
const BACKOFF_CAP: Duration = Duration::from_millis(4);
/// How often [`ConnectionPool::should_try`] lets one caller through to a
/// server whose last dial failed. Bounds both the dials a dead server
/// costs its readers and how long a recovered one keeps being read around.
pub const PROBE_PERIOD: Duration = Duration::from_millis(100);

struct PoolMetrics {
    hits: swarm_metrics::Counter,
    connects: swarm_metrics::Counter,
    reconnects: swarm_metrics::Counter,
    broadcast_errors: swarm_metrics::Counter,
    probes: swarm_metrics::Counter,
}

fn pool_metrics() -> &'static PoolMetrics {
    static M: std::sync::OnceLock<PoolMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| PoolMetrics {
        hits: swarm_metrics::counter("net.pool_hits"),
        connects: swarm_metrics::counter("net.pool_connects"),
        reconnects: swarm_metrics::counter("net.pool_reconnects"),
        broadcast_errors: swarm_metrics::counter("net.broadcast_errors"),
        probes: swarm_metrics::counter("net.pool_probes"),
    })
}

/// Records a broadcast leg failure: counted so a half-deaf cluster shows
/// up in `swarm-admin stats`, traced so the culprit server is named.
fn note_broadcast_error(server: ServerId, err: &SwarmError) {
    pool_metrics().broadcast_errors.inc();
    swarm_metrics::trace!(
        "net.broadcast",
        "server {} dropped from broadcast: {}",
        server,
        err
    );
}

#[derive(Default)]
struct Slot {
    idle: Vec<Box<dyn Connection>>,
    consecutive_failures: u32,
    retry_at: Option<Instant>,
    /// While down: when `should_try` next elects a probe.
    probe_at: Option<Instant>,
}

/// A per-client pool of cached server connections with health tracking.
///
/// Shared (`Arc<ConnectionPool>`) between the log's read path,
/// reconstruction, recovery, and the cleaner, so they all reuse the same
/// warm connections instead of dialing per call.
pub struct ConnectionPool {
    transport: Arc<dyn Transport>,
    client: ClientId,
    slots: Mutex<HashMap<ServerId, Slot>>,
}

impl std::fmt::Debug for ConnectionPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnectionPool")
            .field("client", &self.client)
            .finish()
    }
}

impl ConnectionPool {
    /// Creates an empty pool for `client` over `transport`.
    pub fn new(transport: Arc<dyn Transport>, client: ClientId) -> ConnectionPool {
        ConnectionPool {
            transport,
            client,
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// The transport this pool dials through.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// The client this pool authenticates as.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// Checks a connection to `server` out of the pool, dialing a fresh
    /// one if no idle connection is cached.
    ///
    /// # Errors
    ///
    /// Returns the transport's connect error (after waiting out any
    /// backoff window from earlier failed dials).
    pub fn checkout(&self, server: ServerId) -> Result<Box<dyn Connection>> {
        let wait = {
            let mut slots = self.slots.lock();
            let slot = slots.entry(server).or_default();
            if let Some(conn) = slot.idle.pop() {
                pool_metrics().hits.inc();
                return Ok(conn);
            }
            slot.retry_at
                .map(|t| t.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::ZERO)
        };
        if !wait.is_zero() {
            // Rate-limit dials to an unhealthy server — but always dial,
            // so a recovered server is never spuriously reported down.
            std::thread::sleep(wait);
        }
        self.dial(server)
    }

    fn dial(&self, server: ServerId) -> Result<Box<dyn Connection>> {
        match self.transport.connect(server, self.client) {
            Ok(conn) => {
                pool_metrics().connects.inc();
                let mut slots = self.slots.lock();
                let slot = slots.entry(server).or_default();
                slot.consecutive_failures = 0;
                slot.retry_at = None;
                Ok(conn)
            }
            Err(e) => {
                let mut slots = self.slots.lock();
                let slot = slots.entry(server).or_default();
                // Its idle connections are to the process that just died:
                // each would cost its next user a failed call and a redial.
                slot.idle.clear();
                let exp = slot.consecutive_failures.min(3);
                slot.consecutive_failures = slot.consecutive_failures.saturating_add(1);
                let backoff = BACKOFF_BASE.saturating_mul(1 << exp).min(BACKOFF_CAP);
                let now = Instant::now();
                slot.retry_at = Some(now + backoff);
                slot.probe_at = Some(now + PROBE_PERIOD);
                Err(e)
            }
        }
    }

    /// Is `server` worth asking? `true` unless its last dial failed; then
    /// `true` for exactly one caller per [`PROBE_PERIOD`] — the elected
    /// probe, whose dial clears the suspicion or renews it — and `false`
    /// for everyone else. Advice only: the pool never refuses a dial.
    pub fn should_try(&self, server: ServerId) -> bool {
        let mut slots = self.slots.lock();
        let down = |slot: &&mut Slot| slot.consecutive_failures > 0;
        let Some(slot) = slots.get_mut(&server).filter(down) else {
            return true;
        };
        let now = Instant::now();
        if slot.probe_at.is_some_and(|at| now < at) {
            return false;
        }
        slot.probe_at = Some(now + PROBE_PERIOD);
        pool_metrics().probes.inc();
        true
    }

    /// Number of idle connections currently cached for `server`. A
    /// diagnostic hook: chaos and leak tests assert the count stays
    /// bounded after injected connection failures.
    pub fn idle_count(&self, server: ServerId) -> usize {
        self.slots
            .lock()
            .get(&server)
            .map_or(0, |slot| slot.idle.len())
    }

    /// Returns a connection to the pool for reuse. Connections that
    /// errored should be dropped instead.
    pub fn checkin(&self, conn: Box<dyn Connection>) {
        let server = conn.server();
        let mut slots = self.slots.lock();
        let slot = slots.entry(server).or_default();
        if slot.idle.len() < MAX_IDLE_PER_SERVER {
            slot.idle.push(conn);
        }
    }

    /// Sends one request to `server` over a pooled connection.
    ///
    /// A stale pooled connection (the server restarted since it was
    /// cached) is detected by the call failing; the pool transparently
    /// redials once and retries.
    ///
    /// # Errors
    ///
    /// Propagates transport errors after the one reconnect attempt.
    pub fn call(&self, server: ServerId, request: &Request) -> Result<Response> {
        let mut conn = self.checkout(server)?;
        match conn.call(request) {
            Ok(resp) => {
                self.checkin(conn);
                Ok(resp)
            }
            Err(_) => {
                // The cached connection may be stale (server restart):
                // drop it and retry once on a fresh dial.
                drop(conn);
                pool_metrics().reconnects.inc();
                swarm_metrics::trace!("net.pool", "reconnecting to server {}", server);
                let mut conn = self.dial(server)?;
                let resp = conn.call(request)?;
                self.checkin(conn);
                Ok(resp)
            }
        }
    }

    /// Sends one request to `server` on a *fresh* dial, for callers that
    /// just watched a pooled connection fail mid-use (e.g. a pipelined
    /// call whose channel died): the failure is counted as a pool
    /// reconnect and the idle list — whose connections are likely just as
    /// stale — is bypassed.
    ///
    /// # Errors
    ///
    /// Propagates the dial or call error; no further retry.
    pub fn redial_call(&self, server: ServerId, request: &Request) -> Result<Response> {
        pool_metrics().reconnects.inc();
        swarm_metrics::trace!("net.pool", "reconnecting to server {}", server);
        let mut conn = self.dial(server)?;
        let resp = conn.call(request)?;
        self.checkin(conn);
        Ok(resp)
    }

    /// Sends `request` to every server in parallel, returning the replies
    /// that arrived in server-id order (the paper's broadcast, §2.3.3).
    /// Unreachable servers are counted in `net.broadcast_errors` and
    /// traced.
    pub fn broadcast(&self, request: &Request) -> Vec<(ServerId, Response)> {
        let servers = self.transport.servers();
        let mut replies: Vec<(ServerId, Response)> = std::thread::scope(|s| {
            let handles: Vec<_> = servers
                .into_iter()
                .map(|server| s.spawn(move || (server, self.call(server, request))))
                .collect();
            handles
                .into_iter()
                .filter_map(|h| {
                    let (server, result) = h.join().expect("broadcast worker panicked");
                    match result {
                        Ok(resp) => Some((server, resp)),
                        Err(e) => {
                            note_broadcast_error(server, &e);
                            None
                        }
                    }
                })
                .collect()
        });
        replies.sort_by_key(|(s, _)| *s);
        replies
    }

    /// First-positive-wins broadcast: sends `request` to every server in
    /// parallel and returns the first reply for which `accept` is true,
    /// without waiting for the remaining servers (a locate hit on server 1
    /// must not wait out server N's timeout).
    ///
    /// Straggler legs keep running detached after the early return. Each
    /// leg goes through [`ConnectionPool::call`], which checks its
    /// connection back in on success and drops it on failure — so a
    /// straggler that completes after the winner neither leaks its
    /// connection nor pools a broken one, and a leg that finds the cancel
    /// flag already set never dials at all. (Regression-tested:
    /// `broadcast_first_stragglers_check_connections_back_in`.)
    ///
    /// Returns `None` when no server's reply is accepted.
    pub fn broadcast_first(
        self: &Arc<Self>,
        request: &Request,
        accept: fn(&Response) -> bool,
    ) -> Option<(ServerId, Response)> {
        let servers = self.transport.servers();
        let total = servers.len();
        if total == 0 {
            return None;
        }
        let cancel = Arc::new(AtomicBool::new(false));
        let req = Arc::new(request.clone());
        let (tx, rx) = mpsc::channel::<(ServerId, Option<Response>)>();
        for server in servers {
            let pool = Arc::clone(self);
            let cancel = Arc::clone(&cancel);
            let req = Arc::clone(&req);
            let tx = tx.clone();
            std::thread::spawn(move || {
                // A winner may already have been returned; don't dial.
                if cancel.load(Ordering::Relaxed) {
                    let _ = tx.send((server, None));
                    return;
                }
                match pool.call(server, &req) {
                    Ok(resp) => {
                        let hit = accept(&resp);
                        if hit {
                            cancel.store(true, Ordering::Relaxed);
                        }
                        let _ = tx.send((server, hit.then_some(resp)));
                    }
                    Err(e) => {
                        note_broadcast_error(server, &e);
                        let _ = tx.send((server, None));
                    }
                }
            });
        }
        drop(tx);
        let mut seen = 0;
        while let Ok((server, resp)) = rx.recv() {
            seen += 1;
            if let Some(resp) = resp {
                return Some((server, resp));
            }
            if seen == total {
                break;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::testing::EchoStore;
    use crate::mem::MemTransport;

    fn cluster(n: u32) -> Arc<MemTransport> {
        let t = Arc::new(MemTransport::new());
        for i in 0..n {
            t.register(ServerId::new(i), Arc::new(EchoStore::default()));
        }
        t
    }

    fn pool(transport: Arc<MemTransport>) -> Arc<ConnectionPool> {
        Arc::new(ConnectionPool::new(transport, ClientId::new(1)))
    }

    #[test]
    fn call_reuses_idle_connections() {
        let p = pool(cluster(1));
        let hits = swarm_metrics::counter("net.pool_hits");
        let before = hits.get();
        p.call(ServerId::new(0), &Request::Ping).unwrap();
        p.call(ServerId::new(0), &Request::Ping).unwrap();
        p.call(ServerId::new(0), &Request::Ping).unwrap();
        assert!(
            hits.get() >= before + 2,
            "second and third calls must reuse the pooled connection"
        );
    }

    /// A connection dialed before a "restart" (epoch bump) fails its
    /// calls, exactly like a pooled socket whose server came back on the
    /// same address.
    struct EpochConn {
        inner: Box<dyn Connection>,
        born: u64,
        epoch: Arc<std::sync::atomic::AtomicU64>,
    }

    impl Connection for EpochConn {
        fn call(&mut self, request: &Request) -> Result<Response> {
            if self.born != self.epoch.load(Ordering::SeqCst) {
                return Err(SwarmError::ServerUnavailable(self.inner.server()));
            }
            self.inner.call(request)
        }

        fn server(&self) -> ServerId {
            self.inner.server()
        }
    }

    #[test]
    fn stale_pooled_connection_reconnects_transparently() {
        let t = cluster(1);
        let epoch = Arc::new(std::sync::atomic::AtomicU64::new(0));
        struct T {
            inner: Arc<MemTransport>,
            epoch: Arc<std::sync::atomic::AtomicU64>,
        }
        impl Transport for T {
            fn connect(&self, server: ServerId, client: ClientId) -> Result<Box<dyn Connection>> {
                Ok(Box::new(EpochConn {
                    inner: self.inner.connect(server, client)?,
                    born: self.epoch.load(Ordering::SeqCst),
                    epoch: self.epoch.clone(),
                }))
            }
            fn servers(&self) -> Vec<ServerId> {
                self.inner.servers()
            }
        }
        let transport = Arc::new(T {
            inner: t,
            epoch: epoch.clone(),
        });
        let p = Arc::new(ConnectionPool::new(transport, ClientId::new(1)));
        let reconnects = swarm_metrics::counter("net.pool_reconnects");
        p.call(ServerId::new(0), &Request::Ping).unwrap();
        // "Restart" the server: the pooled connection is now stale.
        epoch.fetch_add(1, Ordering::SeqCst);
        let before = reconnects.get();
        assert_eq!(
            p.call(ServerId::new(0), &Request::Ping).unwrap(),
            Response::Ok,
            "stale pooled connection must reconnect transparently"
        );
        assert!(reconnects.get() > before);
    }

    #[test]
    fn down_server_fails_with_backoff_then_recovers() {
        let t = cluster(1);
        let p = pool(t.clone());
        t.set_down(ServerId::new(0), true);
        for _ in 0..3 {
            assert!(p.call(ServerId::new(0), &Request::Ping).is_err());
        }
        // Backoff never refuses a dial: recovery is observed immediately.
        t.set_down(ServerId::new(0), false);
        assert_eq!(
            p.call(ServerId::new(0), &Request::Ping).unwrap(),
            Response::Ok
        );
    }

    /// Regression: a refused dial used to leave the slot's idle
    /// connections in place, so after a server died each of the next four
    /// checkouts popped a dead socket, failed its call and redialed.
    #[test]
    fn refused_dial_drops_the_idle_connections() {
        let t = cluster(1);
        let p = pool(t.clone());
        let s = ServerId::new(0);
        let (a, b) = (p.checkout(s).unwrap(), p.checkout(s).unwrap());
        p.checkin(a);
        p.checkin(b);
        assert_eq!(p.idle_count(s), 2);
        t.set_down(s, true);
        assert!(p.redial_call(s, &Request::Ping).is_err());
        assert_eq!(p.idle_count(s), 0);
    }

    #[test]
    fn broadcast_returns_replies_in_server_order() {
        let p = pool(cluster(4));
        let replies = p.broadcast(&Request::Ping);
        let ids: Vec<u32> = replies.iter().map(|(s, _)| s.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn broadcast_counts_down_servers() {
        let t = cluster(3);
        let p = pool(t.clone());
        t.set_down(ServerId::new(1), true);
        let errors = swarm_metrics::counter("net.broadcast_errors");
        let before = errors.get();
        let replies = p.broadcast(&Request::Ping);
        let ids: Vec<u32> = replies.iter().map(|(s, _)| s.raw()).collect();
        assert_eq!(ids, vec![0, 2]);
        assert!(errors.get() > before, "down server must be counted");
    }

    #[test]
    fn broadcast_first_returns_an_accepted_reply() {
        let p = pool(cluster(4));
        let (_, resp) = p
            .broadcast_first(&Request::Ping, |r| matches!(r, Response::Ok))
            .expect("every server answers Ok");
        assert_eq!(resp, Response::Ok);
    }

    #[test]
    fn broadcast_first_rejects_all_yields_none() {
        let p = pool(cluster(3));
        assert!(p.broadcast_first(&Request::Ping, |_| false).is_none());
    }

    /// A handler that parks every request until `n` requests have
    /// arrived, then answers them all — so a broadcast's legs are
    /// provably all mid-call before any winner can return.
    struct GatedEcho {
        inner: EchoStore,
        arrived: std::sync::atomic::AtomicUsize,
        n: usize,
    }

    impl crate::handler::RequestHandler for GatedEcho {
        fn handle(&self, client: ClientId, request: Request) -> Response {
            self.arrived.fetch_add(1, Ordering::SeqCst);
            while self.arrived.load(Ordering::SeqCst) < self.n {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.inner.handle(client, request)
        }
    }

    /// Satellite regression: after `broadcast_first` returns early with a
    /// winner, straggler legs that already dialed still finish and check
    /// their connections back into the pool — they are not leaked with
    /// the abandoned threads. (A leg that observes the cancel flag before
    /// dialing never opens a connection, so there is nothing to return.)
    #[test]
    fn broadcast_first_stragglers_check_connections_back_in() {
        const N: usize = 3;
        let gate = Arc::new(GatedEcho {
            inner: EchoStore::default(),
            arrived: std::sync::atomic::AtomicUsize::new(0),
            n: N,
        });
        let t = Arc::new(MemTransport::new());
        for i in 0..N as u32 {
            t.register(ServerId::new(i), gate.clone());
        }
        let p = pool(t);
        // The gate guarantees all N legs dialed and are in-flight before
        // the first response exists, so none was cancelled pre-dial.
        let (_, resp) = p
            .broadcast_first(&Request::Ping, |r| matches!(r, Response::Ok))
            .expect("every server answers Ok");
        assert_eq!(resp, Response::Ok);
        // Every leg — winner and stragglers — must eventually return its
        // connection to the pool.
        let deadline = Instant::now() + Duration::from_secs(10);
        for server in 0..N as u32 {
            while p.idle_count(ServerId::new(server)) == 0 {
                assert!(
                    Instant::now() < deadline,
                    "server {server}'s broadcast leg never checked its connection back in"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    /// A handler that parks until the global broadcast-error counter
    /// passes a threshold: the winner cannot return before the failing
    /// leg has been counted.
    struct WaitForErrors {
        inner: EchoStore,
        at_least: u64,
    }

    impl crate::handler::RequestHandler for WaitForErrors {
        fn handle(&self, client: ClientId, request: Request) -> Response {
            let errors = swarm_metrics::counter("net.broadcast_errors");
            while errors.get() < self.at_least {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.inner.handle(client, request)
        }
    }

    /// Satellite regression: a leg whose server is down is counted in
    /// `net.broadcast_errors` and drops its failed connection instead of
    /// pooling it.
    #[test]
    fn broadcast_first_down_straggler_is_counted_not_pooled() {
        let errors = swarm_metrics::counter("net.broadcast_errors");
        let before = errors.get();
        let t = Arc::new(MemTransport::new());
        t.register(
            ServerId::new(0),
            Arc::new(WaitForErrors {
                inner: EchoStore::default(),
                at_least: before + 1,
            }),
        );
        t.register(ServerId::new(1), Arc::new(EchoStore::default()));
        t.set_down(ServerId::new(1), true);
        let p = pool(t);
        let (winner, _) = p
            .broadcast_first(&Request::Ping, |r| matches!(r, Response::Ok))
            .expect("the healthy server answers Ok");
        assert_eq!(winner, ServerId::new(0));
        assert!(errors.get() > before, "down leg must be counted");
        assert_eq!(
            p.idle_count(ServerId::new(1)),
            0,
            "a failed leg must not pool a connection"
        );
    }
}
