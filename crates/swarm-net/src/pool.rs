//! Per-client connection pool and the read side's one fan-out: the
//! transport half of the read engine.
//!
//! The paper's client talks to every server in its stripe group, and
//! reconstruction additionally contacts the whole cluster (§2.3.3). Doing
//! that over a fresh connection per call wastes a dial per request and
//! serializes the broadcast; [`ConnectionPool`] keeps a small stack of
//! idle connections per server, tracks per-server health, and overlaps
//! RPCs in exactly one way — [`ConnectionPool::fan_out`], a window of
//! [`PendingCall`]s started and harvested by the calling thread — so a
//! locate costs one round-trip to the slowest *relevant* server, not the
//! sum over the cluster, and no thread is spawned to get there.
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
//! * [`ConnectionPool::fan_out`] takes jobs of `(server, request)` and
//!   keeps up to [`WINDOW`] of them outstanding *per server*: every leg that
//!   has room is started before any is waited on, legs are harvested in
//!   the order they were started, results come back in job order, and a
//!   call whose channel died is replayed on a fresh dial. The read
//!   engine's batched fetches, the broadcasts below and reconstruction's
//!   survivor reads are all thin callers of it.
//! * [`ConnectionPool::broadcast`] is one job per server; the replies come
//!   back in server-id order. Servers that fail are counted
//!   (`net.broadcast_errors`) and traced, never silently absent.
//! * [`ConnectionPool::broadcast_first`] is the first-positive-wins mode
//!   used by `Locate`: the same legs, abandoned at the first reply that
//!   satisfies the acceptance predicate. Servers `should_try` advises
//!   against are asked only when no other server accepted.

use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use swarm_types::{ClientId, Result, ServerId, SwarmError};

use crate::proto::{PreparedRequest, Request, Response};
use crate::transport::{Connection, PendingCall, Transport};

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
/// RPCs a client keeps outstanding per server: the depth of
/// [`ConnectionPool::fan_out`] and of each of the log's per-server store
/// writers. The width in effect is `min(WINDOW, pipeline_width())` of the
/// connection in use, so `MemTransport`, which completes each call as it
/// is started, is the paper's one-RPC-at-a-time path, and a TCP
/// connection (width 64) runs the full window — in production and under
/// chaos alike, since faults are injected at the server.
pub const WINDOW: usize = 8;

struct PoolMetrics {
    hits: swarm_metrics::Counter,
    connects: swarm_metrics::Counter,
    reconnects: swarm_metrics::Counter,
    broadcast_errors: swarm_metrics::Counter,
    probes: swarm_metrics::Counter,
    // The fan-out's. The names are from when the loop was the log's read
    // engine's; they are pinned (DESIGN.md §9) and mean what they meant.
    /// Fan-out RPCs currently on the wire across all servers (gauge).
    read_inflight: swarm_metrics::Gauge,
    /// A server's window occupancy sampled after each leg is started
    /// (histogram over counts, not microseconds).
    window_occupancy: swarm_metrics::Histogram,
    read_rpc_us: swarm_metrics::Histogram,
    retries: swarm_metrics::Counter,
}

fn pool_metrics() -> &'static PoolMetrics {
    static M: std::sync::OnceLock<PoolMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| PoolMetrics {
        hits: swarm_metrics::counter("net.pool_hits"),
        connects: swarm_metrics::counter("net.pool_connects"),
        reconnects: swarm_metrics::counter("net.pool_reconnects"),
        broadcast_errors: swarm_metrics::counter("net.broadcast_errors"),
        probes: swarm_metrics::counter("net.pool_probes"),
        read_inflight: swarm_metrics::gauge("log.read_inflight"),
        window_occupancy: swarm_metrics::histogram("log.read_window_occupancy"),
        read_rpc_us: swarm_metrics::histogram("log.read_rpc_us"),
        retries: swarm_metrics::counter("log.read_retries"),
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

/// One server's share of a fan-out: its jobs not yet started, the
/// connection they ride and how many of them are on the wire.
struct Lane {
    server: ServerId,
    queue: VecDeque<usize>,
    conn: Option<Box<dyn Connection>>,
    /// The lane's last checkout failed. The rest of its queue fails
    /// without another dial; a dead server is not hammered once per job.
    dial_failed: bool,
    inflight: usize,
}

/// One started job of a fan-out.
struct Leg {
    job: usize,
    lane: usize,
    pending: PendingCall,
    started: Instant,
    /// No call was made: the lane's checkout had failed.
    synthesized: bool,
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

    /// The cluster's servers in the order a search should ask them: those
    /// [`ConnectionPool::should_try`] says are worth asking, then the rest.
    pub fn fresh_then_suspects(&self) -> [Vec<ServerId>; 2] {
        let (fresh, suspects) =
            (self.transport.servers().into_iter()).partition(|&server| self.should_try(server));
        [fresh, suspects]
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
                self.redial_call(server, request)
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

    /// Issues `jobs`, keeping up to [`WINDOW`] of them outstanding per server
    /// (clamped to what the server's connection can pipeline, so a
    /// synchronous transport degrades to one at a time), and returns the
    /// responses in job order. Every leg that has room is started before
    /// any is waited on; legs are harvested in the order they were started,
    /// so completions that land out of order on the wire are invisible
    /// here. A call that fails on a live channel is replayed once on a
    /// fresh dial ([`ConnectionPool::redial_call`]); a server that cannot
    /// be dialed fails the rest of its jobs with `ServerUnavailable`.
    ///
    /// This is the only way the read side overlaps RPCs: no thread, no
    /// channel, one loop.
    pub fn fan_out(&self, jobs: Vec<(ServerId, Request)>) -> Vec<Result<Response>> {
        let mut results: Vec<Option<Result<Response>>> = Vec::new();
        results.resize_with(jobs.len(), || None);
        let _ = self.harvest(jobs, |job, _, result| -> ControlFlow<()> {
            results[job] = Some(result);
            ControlFlow::Continue(())
        });
        results
            .into_iter()
            .map(|r| r.expect("every job harvested"))
            .collect()
    }

    /// The fill/harvest loop under [`ConnectionPool::fan_out`]. Each
    /// result goes to `sink` as it is harvested; a `Break` abandons the
    /// legs still in flight (a dropped [`PendingCall`] releases its slot)
    /// and is returned. Every connection the loop checked out is checked
    /// back in, or was dropped with its failed call, before it returns.
    fn harvest<B>(
        &self,
        jobs: Vec<(ServerId, Request)>,
        mut sink: impl FnMut(usize, ServerId, Result<Response>) -> ControlFlow<B>,
    ) -> Option<B> {
        let m = pool_metrics();
        let mut lanes: Vec<Lane> = Vec::new();
        let prepared: Vec<PreparedRequest> = jobs
            .into_iter()
            .enumerate()
            .map(|(job, (server, request))| {
                let lane = match lanes.iter_mut().find(|l| l.server == server) {
                    Some(lane) => lane,
                    None => {
                        lanes.push(Lane {
                            server,
                            queue: VecDeque::new(),
                            conn: None,
                            dial_failed: false,
                            inflight: 0,
                        });
                        lanes.last_mut().expect("just pushed")
                    }
                };
                lane.queue.push_back(job);
                PreparedRequest::new(request)
            })
            .collect();
        let mut inflight: VecDeque<Leg> = VecDeque::new();
        for (at, lane) in lanes.iter_mut().enumerate() {
            self.fill(at, lane, &prepared, &mut inflight);
        }
        let mut broke = None;
        while let Some(leg) = inflight.pop_front() {
            let lane = &mut lanes[leg.lane];
            let result = match leg.pending.wait() {
                Err(_) if !leg.synthesized => {
                    // The lane's channel, and every sibling leg on it, may
                    // be dead: drop it and replay this request on a fresh
                    // dial; the pool's idle connections are likely just as
                    // stale. Siblings repair themselves the same way as
                    // they are harvested.
                    lane.conn = None;
                    lane.dial_failed = false;
                    m.retries.inc();
                    self.redial_call(lane.server, prepared[leg.job].request())
                }
                result => result,
            };
            lane.inflight -= 1;
            m.read_inflight.add(-1);
            m.read_rpc_us.record(leg.started.elapsed());
            if let ControlFlow::Break(b) = sink(leg.job, lane.server, result) {
                broke = Some(b);
                break;
            }
            self.fill(leg.lane, lane, &prepared, &mut inflight);
        }
        m.read_inflight.add(-(inflight.len() as i64));
        drop(inflight);
        for conn in lanes.into_iter().filter_map(|lane| lane.conn) {
            self.checkin(conn);
        }
        broke
    }

    /// Starts `lane`'s queued jobs until its window is full. The width
    /// re-clamps to the live connection each time, so a redial onto a
    /// narrower transport is honoured.
    fn fill(
        &self,
        at: usize,
        lane: &mut Lane,
        prepared: &[PreparedRequest],
        inflight: &mut VecDeque<Leg>,
    ) {
        let m = pool_metrics();
        while let Some(&job) = lane.queue.front() {
            if lane.conn.is_none() && !lane.dial_failed {
                match self.checkout(lane.server) {
                    Ok(conn) => lane.conn = Some(conn),
                    Err(_) => lane.dial_failed = true,
                }
            }
            let (pending, synthesized) = match &mut lane.conn {
                Some(conn) => {
                    if lane.inflight >= WINDOW.min(conn.pipeline_width().max(1)) {
                        return;
                    }
                    (conn.start_prepared(&prepared[job]), false)
                }
                None => (
                    PendingCall::ready(Err(SwarmError::ServerUnavailable(lane.server))),
                    true,
                ),
            };
            lane.queue.pop_front();
            lane.inflight += 1;
            m.read_inflight.add(1);
            m.window_occupancy.record_us(lane.inflight as u64);
            inflight.push_back(Leg {
                job,
                lane: at,
                pending,
                started: Instant::now(),
                synthesized,
            });
        }
    }

    /// Sends `request` to every server at once, returning the replies that
    /// arrived in server-id order (the paper's broadcast, §2.3.3).
    /// Unreachable servers are counted in `net.broadcast_errors` and
    /// traced.
    pub fn broadcast(&self, request: &Request) -> Vec<(ServerId, Response)> {
        let servers = self.transport.servers();
        let jobs = servers.iter().map(|&s| (s, request.clone())).collect();
        let replies = servers.into_iter().zip(self.fan_out(jobs));
        replies
            .filter_map(|(server, result)| {
                result
                    .inspect_err(|e| note_broadcast_error(server, e))
                    .ok()
                    .map(|resp| (server, resp))
            })
            .collect()
    }

    /// First-positive-wins broadcast: sends `request` to every server at
    /// once and returns the first harvested reply for which `accept` is
    /// true; the legs still in flight are abandoned, their connections
    /// checked back in. Servers [`ConnectionPool::should_try`] advises
    /// against are asked only if no other server's reply is accepted (the
    /// fresh-then-suspects order survivor selection uses), so a server
    /// known to be down is not dialed in front of a healthy one's answer.
    ///
    /// Returns `None` when no server's reply is accepted.
    pub fn broadcast_first(
        &self,
        request: &Request,
        accept: fn(&Response) -> bool,
    ) -> Option<(ServerId, Response)> {
        self.fresh_then_suspects().into_iter().find_map(|servers| {
            let jobs = servers.iter().map(|&s| (s, request.clone())).collect();
            self.harvest(jobs, |_, server, result| match result {
                Ok(resp) if accept(&resp) => ControlFlow::Break((server, resp)),
                Ok(_) => ControlFlow::Continue(()),
                Err(e) => {
                    note_broadcast_error(server, &e);
                    ControlFlow::Continue(())
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::testing::EchoStore;
    use crate::mem::MemTransport;
    use std::sync::atomic::Ordering;

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

    /// Counts dials per server and live connections, and parks the legs
    /// to `parked` servers: their `start_prepared` returns a call that is
    /// in flight forever and panics if anyone waits on it.
    #[derive(Default)]
    struct Tracked {
        dials: Mutex<HashMap<ServerId, usize>>,
        live: std::sync::atomic::AtomicUsize,
        parked: Vec<ServerId>,
    }

    struct TrackedTransport {
        inner: Arc<MemTransport>,
        state: Arc<Tracked>,
    }

    struct TrackedConn {
        inner: Box<dyn Connection>,
        state: Arc<Tracked>,
    }

    impl Transport for TrackedTransport {
        fn connect(&self, server: ServerId, client: ClientId) -> Result<Box<dyn Connection>> {
            *self.state.dials.lock().entry(server).or_default() += 1;
            let inner = self.inner.connect(server, client)?;
            self.state.live.fetch_add(1, Ordering::SeqCst);
            Ok(Box::new(TrackedConn {
                inner,
                state: self.state.clone(),
            }))
        }
        fn servers(&self) -> Vec<ServerId> {
            self.inner.servers()
        }
    }

    impl Connection for TrackedConn {
        fn call(&mut self, request: &Request) -> Result<Response> {
            self.inner.call(request)
        }
        fn start_prepared(&mut self, prepared: &PreparedRequest) -> PendingCall {
            if self.state.parked.contains(&self.server()) {
                return PendingCall::deferred(|| panic!("an abandoned leg was waited on"));
            }
            PendingCall::ready(self.call(prepared.request()))
        }
        fn server(&self) -> ServerId {
            self.inner.server()
        }
    }

    impl Drop for TrackedConn {
        fn drop(&mut self) {
            self.state.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn tracked(n: u32, parked: &[u32]) -> (Arc<MemTransport>, Arc<Tracked>, ConnectionPool) {
        let mem = cluster(n);
        let state = Arc::new(Tracked {
            parked: parked.iter().map(|&s| ServerId::new(s)).collect(),
            ..Tracked::default()
        });
        let transport = Arc::new(TrackedTransport {
            inner: mem.clone(),
            state: state.clone(),
        });
        let pool = ConnectionPool::new(transport, ClientId::new(1));
        (mem, state, pool)
    }

    /// The winner is harvested while the other two legs are provably still
    /// in flight (waiting on either panics). Before `broadcast_first`
    /// returns, every connection it started a leg on is back in the pool:
    /// none is leaked with an abandoned leg, none is left to a straggler.
    #[test]
    fn broadcast_first_checks_every_started_connection_in_before_returning() {
        let (_mem, state, p) = tracked(3, &[1, 2]);
        let (winner, resp) = p
            .broadcast_first(&Request::Ping, |r| matches!(r, Response::Ok))
            .expect("server 0 answers Ok");
        assert_eq!((winner, resp), (ServerId::new(0), Response::Ok));
        let idle: usize = (0..3).map(|s| p.idle_count(ServerId::new(s))).sum();
        assert_eq!(idle, 3, "one connection per started leg, all checked in");
        assert_eq!(
            state.live.load(Ordering::SeqCst),
            idle,
            "a connection leaked"
        );
    }

    /// A leg whose server is down is counted in `net.broadcast_errors`
    /// and leaves nothing in the pool.
    #[test]
    fn broadcast_first_down_leg_is_counted_not_pooled() {
        let errors = swarm_metrics::counter("net.broadcast_errors");
        let before = errors.get();
        let (mem, state, p) = tracked(2, &[]);
        mem.set_down(ServerId::new(0), true);
        let (winner, _) = p
            .broadcast_first(&Request::Ping, |r| matches!(r, Response::Ok))
            .expect("the healthy server answers Ok");
        assert_eq!(winner, ServerId::new(1));
        assert!(errors.get() > before, "down leg must be counted");
        assert_eq!(p.idle_count(ServerId::new(0)), 0, "a failed leg pooled");
        assert_eq!(state.live.load(Ordering::SeqCst), 1, "only the winner's");
    }

    /// Once a dial to it has failed, a server is asked only when nobody
    /// else accepts: while a healthy server answers, the dead one costs at
    /// most its elected probe per [`PROBE_PERIOD`], not a dial per locate.
    #[test]
    fn broadcast_first_asks_a_suspect_only_when_no_healthy_server_accepts() {
        let (mem, state, p) = tracked(3, &[]);
        let dead = ServerId::new(0);
        mem.set_down(dead, true);
        let dials = || state.dials.lock().get(&dead).copied().unwrap_or(0);
        let ok: fn(&Response) -> bool = |r| matches!(r, Response::Ok);
        // Nobody knows yet: the first broadcast dials it and learns.
        assert!(p.broadcast_first(&Request::Ping, ok).is_some());
        assert_eq!(dials(), 1);
        let t0 = Instant::now();
        for _ in 0..50 {
            assert!(p.broadcast_first(&Request::Ping, ok).is_some());
        }
        let probes = t0.elapsed().as_nanos() / PROBE_PERIOD.as_nanos() + 1;
        assert!(
            (dials() - 1) as u128 <= probes,
            "{} dials to a known-down server in {:?}",
            dials() - 1,
            t0.elapsed()
        );
        // Nobody accepts: now the suspect is asked too.
        let before = dials();
        assert!(p.broadcast_first(&Request::Ping, |_| false).is_none());
        assert_eq!(dials(), before + 1, "suspect skipped with no winner");
    }
}
