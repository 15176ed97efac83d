//! The decorated transport the two pipelining property tests share
//! (`pipeline_prop.rs`, `read_pipeline_prop.rs`): a `MemTransport` whose
//! pipelined calls complete out of order, fail on a budget, report a
//! per-server pipeline width and count what is on each server's wire.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use swarm_net::pool::WINDOW;
use swarm_net::{Connection, MemTransport, PendingCall, PreparedRequest, Request, Transport};
use swarm_server::{MemStore, StorageServer};
use swarm_types::{ClientId, Result, ServerId, SwarmError};

/// The most servers either test draws.
pub const MAX_SERVERS: usize = 5;

pub fn cluster(n: u32) -> Arc<MemTransport> {
    let transport = Arc::new(MemTransport::new());
    for i in 0..n {
        let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
        transport.register(ServerId::new(i), srv);
    }
    transport
}

/// Shared schedule for the decorated transport. Every per-server vector
/// holds [`MAX_SERVERS`] entries, indexed by server id.
pub struct ChaosState {
    /// Pipelined calls left to fail per server. Transient: the writer's
    /// retries and the fan-out's redial replay are plain calls that bypass
    /// injection, so every failure heals on retry.
    pub fail_budget: Mutex<Vec<usize>>,
    /// Completion delays in microseconds, consumed round-robin.
    delays: Vec<u64>,
    next_delay: AtomicUsize,
    /// What each server's connections pipeline ([`Connection::pipeline_width`]).
    pub widths: Vec<usize>,
    /// Pipelined calls started and not yet completed, per server, and the
    /// most that ever was.
    inflight: Vec<AtomicUsize>,
    pub peak: Vec<AtomicUsize>,
    /// No call to a server completes before its peak has reached this
    /// (0: completions are not held back).
    pub gate: Vec<AtomicUsize>,
}

impl ChaosState {
    pub fn new(fail_budget: Vec<usize>, delays: Vec<u64>, widths: Vec<usize>) -> Arc<ChaosState> {
        let zeros = || (0..MAX_SERVERS).map(|_| AtomicUsize::new(0)).collect();
        Arc::new(ChaosState {
            fail_budget: Mutex::new(fail_budget),
            delays,
            next_delay: AtomicUsize::new(0),
            widths,
            inflight: zeros(),
            peak: zeros(),
            gate: zeros(),
        })
    }

    /// No server's wire carried more than `min(WINDOW, width)` calls since
    /// the peaks were last reset.
    pub fn assert_window_held(&self) {
        for (server, peak) in self.peak.iter().enumerate() {
            let (peak, limit) = (peak.load(Ordering::SeqCst), WINDOW.min(self.widths[server]));
            assert!(
                peak <= limit,
                "server {server}: {peak} in flight, window {limit}"
            );
        }
    }
}

/// Wraps `MemTransport` with a pipelining `start_prepared`: every RPC is
/// dispatched on a detached thread and completes after a drawn delay, so
/// completions land out of order exactly as they do on a multiplexed
/// socket.
pub struct ReorderTransport {
    pub inner: Arc<MemTransport>,
    pub state: Arc<ChaosState>,
}

struct ReorderConn {
    inner: Box<dyn Connection>,
    mem: Arc<MemTransport>,
    client: ClientId,
    state: Arc<ChaosState>,
}

impl Connection for ReorderConn {
    fn call(&mut self, request: &Request) -> Result<swarm_net::Response> {
        self.inner.call(request)
    }

    fn start_prepared(&mut self, prepared: &PreparedRequest) -> PendingCall {
        let server = self.inner.server();
        let at = server.raw() as usize;
        let fail = {
            let mut budget = self.state.fail_budget.lock();
            let left = budget[at];
            budget[at] = left.saturating_sub(1);
            left > 0
        };
        let idx = self.state.next_delay.fetch_add(1, Ordering::Relaxed);
        let delay = self.state.delays[idx % self.state.delays.len()];
        let mem = self.mem.clone();
        let client = self.client;
        let request = prepared.request().clone();
        let state = self.state.clone();
        let now = state.inflight[at].fetch_add(1, Ordering::SeqCst) + 1;
        state.peak[at].fetch_max(now, Ordering::SeqCst);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_micros(delay));
            // A gate nobody fills is a failed assertion in the test, not a
            // hang.
            let gate = state.gate[at].load(Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while state.peak[at].load(Ordering::SeqCst) < gate && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(100));
            }
            let result = if fail {
                Err(SwarmError::ServerUnavailable(server))
            } else {
                mem.connect(server, client)
                    .and_then(|mut c| c.call(&request))
            };
            state.inflight[at].fetch_sub(1, Ordering::SeqCst);
            let _ = tx.send(result);
        });
        PendingCall::deferred(move || {
            rx.recv()
                .unwrap_or(Err(SwarmError::ServerUnavailable(server)))
        })
    }

    fn pipeline_width(&self) -> usize {
        self.state.widths[self.inner.server().raw() as usize]
    }

    fn server(&self) -> ServerId {
        self.inner.server()
    }
}

impl Transport for ReorderTransport {
    fn connect(&self, server: ServerId, client: ClientId) -> Result<Box<dyn Connection>> {
        Ok(Box::new(ReorderConn {
            inner: self.inner.connect(server, client)?,
            mem: self.inner.clone(),
            client,
            state: self.state.clone(),
        }))
    }

    fn servers(&self) -> Vec<ServerId> {
        self.inner.servers()
    }
}
