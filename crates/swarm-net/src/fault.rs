//! Deterministic fault injection for both transports.
//!
//! Swarm's headline claim is tolerance of server failures, so the test
//! suite needs to *cause* them precisely: a server that is down, a server
//! that dies after N requests, a connection that drops mid-call, a reply
//! that never arrives. The [`FaultPlan`] expresses those scenarios
//! deterministically (no wall-clock or RNG in the plan itself) so failing
//! tests replay exactly.
//!
//! Three consumers read a plan:
//!
//! * [`crate::MemTransport`] consults its own per-member plans on every
//!   connect and call (the original, mem-only fault path).
//! * [`FaultTransport`] decorates *any* [`Transport`] — including
//!   [`crate::tcp::TcpTransport`] — and applies the same plan semantics
//!   client-side, so one fault schedule replays identically on mem and
//!   TCP.
//! * [`FaultHandler`] wraps a [`RequestHandler`] server-side (disk-full
//!   on store), and a TCP server given the plan in
//!   [`crate::tcp::ServerConfig::faults`] consumes truncation server-side
//!   so a genuinely torn frame crosses a real socket.
//!
//! ## Fault semantics
//!
//! | fault            | request delivered? | observable error            |
//! |------------------|--------------------|-----------------------------|
//! | down             | no                 | `ServerUnavailable`         |
//! | connection reset | no                 | `ServerUnavailable`, severed|
//! | delay            | yes                | none (slow reply)           |
//! | truncated frame  | **yes**            | `ServerUnavailable`, severed|
//! | disk-full        | yes                | `OutOfSpace` response       |
//!
//! The truncation row is the interesting one: the server processed the
//! request but the ack was lost, so a retried store hits
//! `FragmentExists` — exactly the duplicate-ack-loss case the writer's
//! retry path must treat as success.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use swarm_types::{ClientId, Result, ServerId, SwarmError};

use crate::handler::RequestHandler;
use crate::proto::{PreparedRequest, Request, Response};
use crate::transport::{Connection, Transport};

/// Per-server fault state consulted by [`crate::MemTransport`],
/// [`FaultTransport`], [`FaultHandler`], and the TCP server's truncation
/// hook on every connect and call.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Server refuses connections and calls entirely.
    down: AtomicBool,
    /// Fail calls once this many have been served (u64::MAX = never).
    fail_after: AtomicU64,
    /// Calls served so far (for `fail_after`).
    served: AtomicU64,
    /// Pending connection resets: each one severs a connection *before*
    /// the request is delivered.
    reset_next: AtomicU64,
    /// One-shot delay (microseconds) applied before the next call.
    delay_next_us: AtomicU64,
    /// Pending truncations: the request is processed but the response
    /// frame is cut short and the connection severed (ack lost).
    truncate_next: AtomicU64,
    /// One-shot server-side stall (milliseconds) applied to the next
    /// store: models a wedged disk / journal committer held mid-commit.
    stall_next_ms: AtomicU64,
    /// While set, stores and preallocations fail with `OutOfSpace`.
    disk_full: AtomicBool,
}

fn take_one(counter: &AtomicU64) -> bool {
    counter
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn new() -> Self {
        FaultPlan {
            down: AtomicBool::new(false),
            fail_after: AtomicU64::new(u64::MAX),
            served: AtomicU64::new(0),
            reset_next: AtomicU64::new(0),
            delay_next_us: AtomicU64::new(0),
            truncate_next: AtomicU64::new(0),
            stall_next_ms: AtomicU64::new(0),
            disk_full: AtomicBool::new(false),
        }
    }

    /// Marks the server down (or back up).
    pub fn set_down(&self, down: bool) {
        let was = self.down.swap(down, Ordering::SeqCst);
        if down && !was {
            static DOWNS: std::sync::OnceLock<swarm_metrics::Counter> = std::sync::OnceLock::new();
            DOWNS
                .get_or_init(|| swarm_metrics::counter("net.fault.down_transitions"))
                .inc();
            swarm_metrics::trace!("net.fault", "server marked down");
        }
    }

    /// Is the server currently down?
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// Makes the server fail permanently after serving `n` more calls
    /// (counting from now).
    pub fn fail_after(&self, n: u64) {
        let served = self.served.load(Ordering::SeqCst);
        self.fail_after
            .store(served.saturating_add(n), Ordering::SeqCst);
    }

    /// Schedules `n` connection resets: each severs a connection before
    /// the request reaches the server (the request is *not* processed).
    pub fn inject_reset(&self, n: u64) {
        self.reset_next.fetch_add(n, Ordering::SeqCst);
    }

    /// Consumes one pending reset, if any.
    pub fn take_reset(&self) -> bool {
        take_one(&self.reset_next)
    }

    /// Delays the next call by `micros` microseconds (one-shot).
    pub fn inject_delay_us(&self, micros: u64) {
        self.delay_next_us.store(micros, Ordering::SeqCst);
    }

    /// Consumes the pending delay, returning it (0 = none).
    pub fn take_delay_us(&self) -> u64 {
        self.delay_next_us.swap(0, Ordering::SeqCst)
    }

    /// Schedules `n` response truncations: the request *is* processed,
    /// but the reply frame is cut short and the connection severed, so
    /// the client never sees the ack.
    pub fn inject_truncate(&self, n: u64) {
        self.truncate_next.fetch_add(n, Ordering::SeqCst);
    }

    /// Consumes one pending truncation, if any.
    pub fn take_truncate(&self) -> bool {
        take_one(&self.truncate_next)
    }

    /// Stalls the next store for `millis` milliseconds server-side
    /// (one-shot): [`FaultHandler`] sleeps *before* delegating, modelling
    /// a journal committer held mid-commit. With group commit, stores
    /// queued behind the stalled one must still commit exactly once —
    /// late, not lost.
    pub fn inject_stall_ms(&self, millis: u64) {
        self.stall_next_ms.store(millis, Ordering::SeqCst);
    }

    /// Consumes the pending server-side stall, returning it (0 = none).
    pub fn take_stall_ms(&self) -> u64 {
        self.stall_next_ms.swap(0, Ordering::SeqCst)
    }

    /// Simulates a full (or freed) disk: while set, [`FaultHandler`]
    /// rejects stores and preallocations with [`SwarmError::OutOfSpace`].
    pub fn set_disk_full(&self, full: bool) {
        self.disk_full.store(full, Ordering::SeqCst);
    }

    /// Is the injected disk-full condition active?
    pub fn is_disk_full(&self) -> bool {
        self.disk_full.load(Ordering::SeqCst)
    }

    /// Clears pending one-shot injections (resets, delay, truncations)
    /// without touching down / fail-after / disk-full state. Chaos
    /// schedules call this at quiesce points so unconsumed transients
    /// cannot leak into verification.
    pub fn clear_transients(&self) {
        self.reset_next.store(0, Ordering::SeqCst);
        self.delay_next_us.store(0, Ordering::SeqCst);
        self.truncate_next.store(0, Ordering::SeqCst);
        self.stall_next_ms.store(0, Ordering::SeqCst);
    }

    /// Clears every fault: scheduled failures, transients, and disk-full.
    pub fn clear(&self) {
        self.set_down(false);
        self.fail_after.store(u64::MAX, Ordering::SeqCst);
        self.set_disk_full(false);
        self.clear_transients();
    }

    /// Records one attempted call; returns `true` if it should fail.
    pub fn on_call(&self) -> bool {
        if self.is_down() {
            return true;
        }
        let served = self.served.fetch_add(1, Ordering::SeqCst);
        if served >= self.fail_after.load(Ordering::SeqCst) {
            self.down.store(true, Ordering::SeqCst);
            true
        } else {
            false
        }
    }
}

/// A fault-injecting decorator over any [`Transport`].
///
/// Holds one [`FaultPlan`] per server (created on demand) and applies it
/// client-side on every connect and call, so the same fault schedule
/// drives [`crate::MemTransport`] and [`crate::tcp::TcpTransport`]
/// identically. Server-side faults (disk-full, TCP frame truncation) share
/// the same plan objects via [`FaultTransport::plan`].
pub struct FaultTransport {
    inner: Arc<dyn Transport>,
    plans: RwLock<BTreeMap<ServerId, Arc<FaultPlan>>>,
    /// When true (the default), pending truncations are consumed
    /// client-side: the inner call completes (request processed) and the
    /// response is discarded. A TCP cluster whose servers were given the
    /// plan in [`crate::tcp::ServerConfig::faults`] disables this so the
    /// truncation happens at the socket, byte-for-byte.
    client_truncation: AtomicBool,
}

impl std::fmt::Debug for FaultTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultTransport")
            .field("servers", &self.plans.read().keys().collect::<Vec<_>>())
            .finish()
    }
}

impl FaultTransport {
    /// Wraps `inner` with an empty fault registry.
    pub fn new(inner: Arc<dyn Transport>) -> FaultTransport {
        FaultTransport {
            inner,
            plans: RwLock::new(BTreeMap::new()),
            client_truncation: AtomicBool::new(true),
        }
    }

    /// Chooses where truncation faults are consumed (see the field docs on
    /// the type). Affects connections opened after the call.
    pub fn set_client_truncation(&self, on: bool) {
        self.client_truncation.store(on, Ordering::SeqCst);
    }

    /// The fault plan for `server`, created on first use. The same `Arc`
    /// may be shared with a server-side [`FaultHandler`] or
    /// [`crate::tcp::ServerConfig::faults`].
    pub fn plan(&self, server: ServerId) -> Arc<FaultPlan> {
        if let Some(plan) = self.plans.read().get(&server) {
            return plan.clone();
        }
        self.plans
            .write()
            .entry(server)
            .or_insert_with(|| Arc::new(FaultPlan::new()))
            .clone()
    }

    /// Clears every registered plan completely.
    pub fn clear_all(&self) {
        for plan in self.plans.read().values() {
            plan.clear();
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &Arc<dyn Transport> {
        &self.inner
    }
}

impl Transport for FaultTransport {
    fn connect(&self, server: ServerId, client: ClientId) -> Result<Box<dyn Connection>> {
        let plan = self.plan(server);
        if plan.is_down() {
            return Err(SwarmError::ServerUnavailable(server));
        }
        let inner = self.inner.connect(server, client)?;
        Ok(Box::new(FaultConnection {
            server,
            plan,
            inner: Some(inner),
            client_truncation: self.client_truncation.load(Ordering::SeqCst),
        }))
    }

    fn servers(&self) -> Vec<ServerId> {
        self.inner.servers()
    }
}

struct FaultConnection {
    server: ServerId,
    plan: Arc<FaultPlan>,
    /// `None` after an injected sever — like a dead socket, every
    /// subsequent call on this connection fails until the caller redials.
    inner: Option<Box<dyn Connection>>,
    client_truncation: bool,
}

impl FaultConnection {
    fn exchange(
        &mut self,
        f: impl FnOnce(&mut Box<dyn Connection>) -> Result<Response>,
    ) -> Result<Response> {
        if self.plan.on_call() {
            self.inner = None;
            return Err(SwarmError::ServerUnavailable(self.server));
        }
        if self.plan.take_reset() {
            // Severed before the request left: the server never sees it.
            self.inner = None;
            swarm_metrics::trace!("net.fault", "injected reset to server {}", self.server);
            return Err(SwarmError::ServerUnavailable(self.server));
        }
        let delay = self.plan.take_delay_us();
        if delay > 0 {
            std::thread::sleep(Duration::from_micros(delay));
        }
        let Some(inner) = self.inner.as_mut() else {
            return Err(SwarmError::ServerUnavailable(self.server));
        };
        if self.client_truncation && self.plan.take_truncate() {
            // The request is delivered and processed; the ack is lost and
            // the connection severed — the duplicate-store case.
            let _ = f(inner);
            self.inner = None;
            swarm_metrics::trace!(
                "net.fault",
                "injected truncation from server {}",
                self.server
            );
            return Err(SwarmError::ServerUnavailable(self.server));
        }
        f(inner)
    }
}

impl Connection for FaultConnection {
    fn call(&mut self, request: &Request) -> Result<Response> {
        self.exchange(|c| c.call(request))
    }

    fn call_prepared(&mut self, prepared: &PreparedRequest) -> Result<Response> {
        self.exchange(|c| c.call_prepared(prepared))
    }

    fn server(&self) -> ServerId {
        self.server
    }
}

/// A server-side [`RequestHandler`] decorator driven by the same
/// [`FaultPlan`]: while [`FaultPlan::set_disk_full`] is active, `Store`
/// and `Preallocate` requests fail with [`SwarmError::OutOfSpace`] —
/// exercising the client's non-retryable store-error path on both
/// transports without filling a real disk.
pub struct FaultHandler {
    inner: Arc<dyn RequestHandler>,
    plan: Arc<FaultPlan>,
}

impl FaultHandler {
    /// Wraps `inner`, consulting `plan` on every request.
    pub fn new(inner: Arc<dyn RequestHandler>, plan: Arc<FaultPlan>) -> FaultHandler {
        FaultHandler { inner, plan }
    }
}

impl RequestHandler for FaultHandler {
    fn handle(&self, client: ClientId, request: Request) -> Response {
        if self.plan.is_disk_full()
            && matches!(request, Request::Store { .. } | Request::Preallocate { .. })
        {
            return Response::from_error(&SwarmError::OutOfSpace("injected disk-full".to_string()));
        }
        if matches!(request, Request::Store { .. }) {
            let stall = self.plan.take_stall_ms();
            if stall > 0 {
                swarm_metrics::trace!("net.fault", "injected store stall of {stall}ms");
                std::thread::sleep(Duration::from_millis(stall));
            }
        }
        self.inner.handle(client, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_plan_never_fails() {
        let plan = FaultPlan::new();
        for _ in 0..1000 {
            assert!(!plan.on_call());
        }
    }

    #[test]
    fn down_fails_immediately_and_recovers() {
        let plan = FaultPlan::new();
        plan.set_down(true);
        assert!(plan.on_call());
        plan.set_down(false);
        assert!(!plan.on_call());
    }

    #[test]
    fn fail_after_counts_calls() {
        let plan = FaultPlan::new();
        plan.fail_after(3);
        assert!(!plan.on_call());
        assert!(!plan.on_call());
        assert!(!plan.on_call());
        assert!(plan.on_call());
        // …and stays down.
        assert!(plan.is_down());
        assert!(plan.on_call());
    }

    #[test]
    fn clear_resets_everything() {
        let plan = FaultPlan::new();
        plan.fail_after(0);
        assert!(plan.on_call());
        plan.clear();
        assert!(!plan.on_call());
    }

    #[test]
    fn one_shot_injections_are_counted() {
        let plan = FaultPlan::new();
        assert!(!plan.take_reset());
        plan.inject_reset(2);
        assert!(plan.take_reset());
        assert!(plan.take_reset());
        assert!(!plan.take_reset());

        plan.inject_truncate(1);
        assert!(plan.take_truncate());
        assert!(!plan.take_truncate());

        plan.inject_delay_us(500);
        assert_eq!(plan.take_delay_us(), 500);
        assert_eq!(plan.take_delay_us(), 0);

        plan.inject_stall_ms(25);
        assert_eq!(plan.take_stall_ms(), 25);
        assert_eq!(plan.take_stall_ms(), 0);
    }

    #[test]
    fn clear_transients_leaves_persistent_state() {
        let plan = FaultPlan::new();
        plan.inject_reset(3);
        plan.inject_truncate(3);
        plan.inject_delay_us(1000);
        plan.inject_stall_ms(40);
        plan.set_disk_full(true);
        plan.clear_transients();
        assert!(!plan.take_reset());
        assert!(!plan.take_truncate());
        assert_eq!(plan.take_delay_us(), 0);
        assert_eq!(plan.take_stall_ms(), 0);
        assert!(plan.is_disk_full(), "disk-full is not a transient");
        plan.clear();
        assert!(!plan.is_disk_full());
    }
}
