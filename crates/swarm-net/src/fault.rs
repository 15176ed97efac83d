//! Deterministic fault injection, applied at the server end of each
//! transport.
//!
//! Swarm's headline claim is tolerance of server failures, so the test
//! suite needs to *cause* them precisely: a server that is down, a server
//! that dies after N requests, a connection that drops mid-call, a reply
//! that never arrives. The [`FaultPlan`] expresses those scenarios
//! deterministically (no wall-clock or RNG in the plan itself) so failing
//! tests replay exactly.
//!
//! A plan is read where the failure it models happens — at the server —
//! and nowhere else, so a client under test runs its production path:
//!
//! * [`crate::MemTransport`] consults each member's plan on every connect
//!   and on every call, around the handler.
//! * A [`crate::tcp::TcpServer`] given the plan in
//!   [`crate::tcp::ServerConfig::faults`] consults it on its reactor before
//!   a request is dispatched (down, fail-after, reset: the socket closes,
//!   and every call in flight on it dies with it), on the worker just
//!   before the handler (delay, stall, disk-full), and when the reply is
//!   framed (truncation: a genuinely torn frame crosses the socket).
//!
//! ## Fault semantics
//!
//! Checked in this order for each request:
//!
//! | fault            | request delivered? | observable error            |
//! |------------------|--------------------|-----------------------------|
//! | down, fail-after | no                 | `ServerUnavailable`         |
//! | connection reset | no                 | `ServerUnavailable`, severed|
//! | delay            | yes                | none (slow reply)           |
//! | disk-full        | yes                | `OutOfSpace` response       |
//! | store stall      | yes                | none (slow store)           |
//! | truncated frame  | **yes**            | `ServerUnavailable`, severed|
//!
//! The truncation row is the interesting one: the server processed the
//! request but the ack was lost, so a retried store hits
//! `FragmentExists` — exactly the duplicate-ack-loss case the writer's
//! retry path must treat as success.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use swarm_types::SwarmError;

use crate::proto::{Request, Response};

/// Per-server fault state, consulted by [`crate::MemTransport`] and by a
/// [`crate::tcp::TcpServer`] configured with it.
#[derive(Debug)]
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

/// A plan with no faults (not all-zero fields: `fail_after` = 0 would fail
/// the first call).
impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new()
    }
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
    pub(crate) fn take_reset(&self) -> bool {
        take_one(&self.reset_next)
    }

    /// Delays the next delivered call by `micros` microseconds (one-shot).
    pub fn inject_delay_us(&self, micros: u64) {
        self.delay_next_us.store(micros, Ordering::SeqCst);
    }

    /// Schedules `n` response truncations: the request *is* processed,
    /// but the reply frame is cut short and the connection severed, so
    /// the client never sees the ack.
    pub fn inject_truncate(&self, n: u64) {
        self.truncate_next.fetch_add(n, Ordering::SeqCst);
    }

    /// Consumes one pending truncation, if any.
    pub(crate) fn take_truncate(&self) -> bool {
        take_one(&self.truncate_next)
    }

    /// Stalls the next store for `millis` milliseconds server-side
    /// (one-shot), *before* it reaches the handler, modelling a journal
    /// committer held mid-commit. With group commit, stores queued behind
    /// the stalled one must still commit exactly once — late, not lost.
    pub fn inject_stall_ms(&self, millis: u64) {
        self.stall_next_ms.store(millis, Ordering::SeqCst);
    }

    /// Simulates a full (or freed) disk: while set, stores and
    /// preallocations are refused with [`SwarmError::OutOfSpace`].
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

    /// Records one attempted call; returns `true` if it should fail.
    pub(crate) fn on_call(&self) -> bool {
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

    /// The faults a delivered request meets on its way to the handler:
    /// the one-shot delay, then, for a store, disk-full and the one-shot
    /// stall. Returns the reply that stands in for the handler's, if any.
    /// Both transports call this just before the handler (TCP on the
    /// worker, never on the reactor).
    pub(crate) fn before_handler(&self, request: &Request) -> Option<Response> {
        let delay = self.delay_next_us.swap(0, Ordering::SeqCst);
        if delay > 0 {
            std::thread::sleep(Duration::from_micros(delay));
        }
        if self.is_disk_full()
            && matches!(request, Request::Store { .. } | Request::Preallocate { .. })
        {
            return Some(Response::from_error(&SwarmError::OutOfSpace(
                "injected disk-full".to_string(),
            )));
        }
        if matches!(request, Request::Store { .. }) {
            let stall = self.stall_next_ms.swap(0, Ordering::SeqCst);
            if stall > 0 {
                swarm_metrics::trace!("net.fault", "injected store stall of {stall}ms");
                std::thread::sleep(Duration::from_millis(stall));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use swarm_types::{ClientId, FragmentId};

    fn store() -> Request {
        Request::Store {
            fid: FragmentId::new(ClientId::new(1), 0),
            marked: false,
            ranges: vec![],
            data: vec![1u8; 8].into(),
        }
    }

    #[test]
    fn healthy_plan_never_fails() {
        for plan in [FaultPlan::new(), FaultPlan::default()] {
            for _ in 0..1000 {
                assert!(!plan.on_call());
                assert!(plan.before_handler(&store()).is_none());
            }
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

        // Sleeps of 100 ms, so a loaded box cannot blur slept and not.
        let slept = |request: &Request| {
            let t0 = Instant::now();
            assert!(plan.before_handler(request).is_none());
            t0.elapsed() >= Duration::from_millis(100)
        };
        plan.inject_delay_us(100_000);
        assert!(slept(&Request::Ping), "delay not applied");
        assert!(!slept(&Request::Ping), "delay is one-shot");

        // A stall waits for a store; a ping leaves it pending.
        plan.inject_stall_ms(100);
        assert!(!slept(&Request::Ping), "a ping was stalled");
        assert!(slept(&store()), "store not stalled");
        assert!(!slept(&store()), "stall is one-shot");
    }

    #[test]
    fn disk_full_refuses_stores_and_preallocations_only() {
        let plan = FaultPlan::new();
        plan.set_disk_full(true);
        let refused = plan.before_handler(&store()).expect("store refused");
        assert!(matches!(
            refused.into_result(),
            Err(SwarmError::OutOfSpace(_))
        ));
        let prealloc = Request::Preallocate {
            fid: FragmentId::new(ClientId::new(1), 1),
            len: 64,
        };
        assert!(plan.before_handler(&prealloc).is_some());
        assert!(plan.before_handler(&Request::Ping).is_none());
        plan.set_disk_full(false);
        assert!(plan.before_handler(&store()).is_none());
    }

    #[test]
    fn clear_transients_leaves_persistent_state() {
        let plan = FaultPlan::new();
        plan.inject_reset(3);
        plan.inject_truncate(3);
        plan.inject_delay_us(1_000_000);
        plan.inject_stall_ms(1_000);
        plan.set_disk_full(true);
        plan.clear_transients();
        assert!(!plan.take_reset());
        assert!(!plan.take_truncate());
        assert!(plan.is_disk_full(), "disk-full is not a transient");
        plan.set_disk_full(false);
        let t0 = Instant::now();
        assert!(plan.before_handler(&store()).is_none());
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "a delay or stall survived"
        );
    }
}
