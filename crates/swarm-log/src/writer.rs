//! The pipelined fragment writer (§2.1.2).
//!
//! "The log layer software in the client is multi-threaded, and performs
//! several operations concurrently … fragments are written to the servers
//! asynchronously, so that several may be written simultaneously … the log
//! layer transfers a fragment to a server while the previous fragment is
//! being written to disk."
//!
//! [`WritePool`] keeps one writer thread per server with a small bounded
//! queue (the paper's "rudimentary form of flow control"): the appending
//! thread seals fragments and hands them off without blocking until a
//! server's queue is full, keeping both network and disk busy.
//!
//! Each writer additionally keeps a *window* of outstanding `Store` RPCs
//! on the wire, [`WINDOW`] deep — the same constant, clamped by the same
//! `min(WINDOW, pipeline_width())` rule, as the read side's
//! [`ConnectionPool::fan_out`]: stores are started through
//! [`Connection::start_prepared`], completion is tracked per fragment
//! keyed by FID, and acks are consumed as they arrive — out of order on a
//! multiplexed transport, where the window lets the server's group commit
//! batch one client's fsyncs. A transport whose connections report
//! `pipeline_width() == 1` (in-process dispatch) completes each store
//! inside `start_prepared`: one store in flight per server, the paper's
//! behavior exactly. Connections come from the log's shared
//! [`ConnectionPool`], so the write path rides the same per-server
//! channels as reads instead of holding private sockets.
//!
//! The two loops share that depth and that width rule and nothing else, on
//! purpose. A fan-out is a batch over many servers, harvested once by its
//! caller, with one redial replay per leg; a writer is a per-server stream
//! fed by a queue, with N retries, backoff, `Busy`, `FragmentExists` and
//! re-queueing across flushes. One loop serving both would branch on its
//! caller, and a store window harvested by the flushing thread would hold
//! a lock across the server's group-commit wait.

use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};
use parking_lot::{Condvar, Mutex};
use swarm_net::pool::WINDOW;
use swarm_net::{Connection, ConnectionPool, PendingCall, PreparedRequest, Request, Response};
use swarm_types::{FragmentId, Result, ServerId, SwarmError};

use crate::fragment::SealedFragment;

/// How many times a writer retries a failed store before reporting the
/// server lost (default; see `LogConfig::store_retries`).
pub const STORE_RETRIES: usize = 5;

/// Pause between retries: long enough for a rebooting server process to
/// come back, short enough not to stall the pipeline noticeably
/// (default; see `LogConfig::retry_backoff`).
pub const RETRY_BACKOFF: std::time::Duration = std::time::Duration::from_millis(20);

/// Sealed fragments a server's queue holds before `submit` blocks: one
/// being transferred while the previous is written to disk (§2.1.2).
const QUEUE_DEPTH: usize = 2;

pub(crate) struct WriterMetrics {
    pub(crate) store_us: swarm_metrics::Histogram,
    pub(crate) store_retries: swarm_metrics::Counter,
    /// Stores resubmitted after the server's admission layer answered
    /// `Busy` (fair-queueing pushback, not a connectivity failure).
    pub(crate) busy_backoffs: swarm_metrics::Counter,
    pub(crate) reconnects: swarm_metrics::Counter,
    pub(crate) write_errors: swarm_metrics::Counter,
    pub(crate) flush_dropped_errors: swarm_metrics::Counter,
    pub(crate) store_requeues: swarm_metrics::Counter,
    /// Stores currently on the wire across all servers (gauge).
    pub(crate) store_inflight: swarm_metrics::Gauge,
    /// Window occupancy sampled after each store is started (histogram
    /// over counts, not microseconds): how much of the window the
    /// workload actually uses.
    pub(crate) window_occupancy: swarm_metrics::Histogram,
}

pub(crate) fn metrics() -> &'static WriterMetrics {
    static M: std::sync::OnceLock<WriterMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| WriterMetrics {
        store_us: swarm_metrics::histogram("log.store_us"),
        store_retries: swarm_metrics::counter("log.store_retries"),
        busy_backoffs: swarm_metrics::counter("log.busy_backoffs"),
        reconnects: swarm_metrics::counter("log.reconnects"),
        write_errors: swarm_metrics::counter("log.write_errors"),
        flush_dropped_errors: swarm_metrics::counter("log.flush_dropped_errors"),
        store_requeues: swarm_metrics::counter("log.store_requeues"),
        store_inflight: swarm_metrics::gauge("log.store_inflight"),
        window_occupancy: swarm_metrics::histogram("log.store_window_occupancy"),
    })
}

struct Job {
    fragment: SealedFragment,
}

#[derive(Default)]
struct PoolState {
    in_flight: usize,
    errors: Vec<(ServerId, SwarmError)>,
    /// Sealed fragments whose store failed. They are *not* abandoned:
    /// the next flush re-queues them, so a stripe that lost a member to
    /// a down server heals once the server is back, and a flush that
    /// returns `Ok` really means every sealed fragment is durable.
    failed: Vec<(ServerId, SealedFragment)>,
}

struct Shared {
    state: Mutex<PoolState>,
    done: Condvar,
}

/// A pool of per-server writer threads with bounded queues.
pub struct WritePool {
    senders: HashMap<ServerId, Sender<Job>>,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WritePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WritePool")
            .field("servers", &self.senders.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl WritePool {
    /// Spawns one writer thread per server. Writers check connections out
    /// of `engine` — the same pool the log's read path uses, so write and
    /// read share per-server channels — and each keeps up to [`WINDOW`]
    /// stores on the wire (clamped to the connection's
    /// [`Connection::pipeline_width`]). Each failed store is tried up to
    /// `retries` times in total, sleeping `backoff` between attempts.
    pub fn new(
        engine: Arc<ConnectionPool>,
        servers: &[ServerId],
        retries: usize,
        backoff: std::time::Duration,
    ) -> WritePool {
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState::default()),
            done: Condvar::new(),
        });
        let mut senders = HashMap::new();
        let mut threads = Vec::new();
        for &server in servers {
            let (tx, rx) = bounded::<Job>(QUEUE_DEPTH);
            let writer = ServerWriter {
                engine: engine.clone(),
                server,
                rx,
                shared: shared.clone(),
                retries,
                backoff,
                conn: None,
                window: HashMap::new(),
                order: VecDeque::new(),
            };
            let handle = std::thread::Builder::new()
                .name(format!("swarm-writer-{}", server.raw()))
                .spawn(move || writer.run())
                .expect("spawn writer thread");
            senders.insert(server, tx);
            threads.push(handle);
        }
        WritePool {
            senders,
            shared,
            threads,
        }
    }

    /// Queues a sealed fragment for storage on `server`. Blocks only when
    /// that server's queue is full (flow control).
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidArgument`] if `server` is not part of
    /// this pool, or [`SwarmError::Closed`] if the pool has shut down.
    pub fn submit(&self, server: ServerId, fragment: SealedFragment) -> Result<()> {
        let sender = self.senders.get(&server).ok_or_else(|| {
            SwarmError::invalid(format!("server {server} is not in the write pool"))
        })?;
        {
            let mut state = self.shared.state.lock();
            state.in_flight += 1;
        }
        sender.send(Job { fragment }).map_err(|_| {
            {
                let mut state = self.shared.state.lock();
                state.in_flight -= 1;
            }
            // Every in_flight decrement must notify: a flush_all waiting
            // on this job being the last in flight would otherwise sleep
            // forever (regression: failed_submit_wakes_waiting_flush).
            self.shared.done.notify_all();
            SwarmError::Closed("write pool")
        })
    }

    /// Waits for every queued fragment to be durably stored.
    ///
    /// # Errors
    ///
    /// Returns the first error any writer hit since the last `flush`. The
    /// remaining errors are no longer silently dropped: each one is traced
    /// with its server id and counted in `log.flush_dropped_errors` before
    /// being discarded (the log treats any store failure as fatal for the
    /// affected stripe, so one error is enough to fail the flush). Use
    /// [`WritePool::flush_all`] to receive every per-server error.
    pub fn flush(&self) -> Result<()> {
        self.flush_all().map_err(|mut errors| {
            let (_, first) = errors.remove(0);
            for (server, e) in errors {
                metrics().flush_dropped_errors.inc();
                swarm_metrics::trace!(
                    "log.flush",
                    "additional flush error on server {server}: {e}"
                );
            }
            first
        })
    }

    /// Waits for every queued fragment to be durably stored, reporting
    /// *all* errors accumulated since the last flush, each with the server
    /// that produced it.
    ///
    /// Fragments whose store failed earlier are re-queued here first: a
    /// flush only returns `Ok` once every sealed fragment — including ones
    /// a previous flush reported as failed — is actually on its server.
    /// (Duplicate stores after a lost ack are absorbed by the servers'
    /// idempotent `FragmentExists` reply.)
    ///
    /// # Errors
    ///
    /// The error value is the non-empty list of `(server, error)` pairs.
    /// Fragments that failed again stay queued for the next flush.
    pub fn flush_all(&self) -> std::result::Result<(), Vec<(ServerId, SwarmError)>> {
        loop {
            let retry = {
                let mut state = self.shared.state.lock();
                while state.in_flight > 0 {
                    self.shared.done.wait(&mut state);
                }
                if !state.errors.is_empty() {
                    return Err(state.errors.drain(..).collect());
                }
                std::mem::take(&mut state.failed)
            };
            if retry.is_empty() {
                return Ok(());
            }
            // Re-queue outside the lock: submit blocks on a full queue,
            // and the writer threads need the lock to drain it.
            for (server, fragment) in retry {
                metrics().store_requeues.inc();
                swarm_metrics::trace!(
                    "log.write",
                    "re-queueing {} for server {server} after earlier store failure",
                    fragment.fid()
                );
                if let Err(e) = self.submit(server, fragment) {
                    let mut state = self.shared.state.lock();
                    state.errors.push((server, e));
                }
            }
        }
    }

    /// Swaps in a test-controlled sender for `server`, detaching the real
    /// writer thread (its receiver drops, so it drains and exits). Lets
    /// tests stand in for the writer and control exactly when sends fail.
    #[cfg(test)]
    fn test_replace_sender(&mut self, server: ServerId, tx: Sender<Job>) {
        self.senders.insert(server, tx);
    }

    /// Stands in for a writer thread completing one job: decrements
    /// `in_flight` and notifies, exactly as `harvest_one` does.
    #[cfg(test)]
    fn test_complete_one(&self) {
        {
            let mut state = self.shared.state.lock();
            state.in_flight -= 1;
        }
        self.shared.done.notify_all();
    }

    /// Shuts the pool down, joining all writer threads. Queued work is
    /// completed first; fragments whose store already failed are dropped
    /// (flush never reported them durable, so nothing acknowledged is
    /// lost).
    pub fn shutdown(&mut self) {
        self.senders.clear(); // closes channels; threads drain and exit
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for WritePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One fragment on the wire: the sealed bytes (kept for re-queueing on
/// failure), the prepared request (kept so retries replay the same
/// buffers), and the pending completion.
struct InFlightStore {
    fragment: SealedFragment,
    prepared: PreparedRequest,
    pending: PendingCall,
    started: Instant,
}

/// Per-server writer: pulls jobs off the bounded queue, keeps a window of
/// stores on the wire, and harvests completions oldest-first.
struct ServerWriter {
    engine: Arc<ConnectionPool>,
    server: ServerId,
    rx: Receiver<Job>,
    shared: Arc<Shared>,
    retries: usize,
    backoff: Duration,
    conn: Option<Box<dyn Connection>>,
    /// Completion tracking keyed by FID; `order` remembers start order
    /// for oldest-first harvesting.
    window: HashMap<FragmentId, InFlightStore>,
    order: VecDeque<FragmentId>,
}

impl ServerWriter {
    fn run(mut self) {
        let mut open = true;
        while open || !self.order.is_empty() {
            open = self.fill(open);
            if !self.order.is_empty() {
                self.harvest_one();
            }
        }
    }

    /// The effective window: [`WINDOW`] clamped to what the live
    /// connection can pipeline (1 on in-process transports, the mux
    /// inflight cap on a multiplexed channel).
    fn width(&self) -> usize {
        match &self.conn {
            Some(c) => WINDOW.min(c.pipeline_width().max(1)),
            None => WINDOW,
        }
    }

    /// Starts stores until the window is full or no job is immediately
    /// available. Blocks for work only when nothing is in flight (an
    /// empty window with a closed queue is the exit condition). Returns
    /// whether the queue is still open.
    fn fill(&mut self, mut open: bool) -> bool {
        while open && self.order.len() < self.width() {
            let job = if self.order.is_empty() {
                match self.rx.recv() {
                    Ok(job) => job,
                    Err(_) => {
                        open = false;
                        break;
                    }
                }
            } else {
                match self.rx.try_recv() {
                    Ok(job) => job,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            };
            // A re-queued fragment can share a FID with a copy already on
            // the wire (flush re-submitting while a duplicate store is in
            // flight); drain until the earlier copy completes so the
            // FID-keyed tracking stays unambiguous.
            while self.window.contains_key(&job.fragment.fid()) {
                self.harvest_one();
            }
            self.start_store(job);
        }
        open
    }

    /// Puts one store on the wire without waiting for its ack. `share()`
    /// hands the prepared request a view of the sealed fragment's buffer
    /// (no byte copy); any retry replays the same header + payload.
    fn start_store(&mut self, job: Job) {
        let fid = job.fragment.fid();
        let prepared = PreparedRequest::new(Request::Store {
            fid,
            marked: job.fragment.marked,
            ranges: vec![],
            data: job.fragment.bytes.share(),
        });
        let pending = match self.ensure_conn() {
            Ok(conn) => conn.start_prepared(&prepared),
            // Checkout failed (server down): the failure is harvested —
            // and retried — like any other store, preserving order.
            Err(e) => PendingCall::ready(Err(e)),
        };
        let m = metrics();
        m.store_inflight.add(1);
        self.window.insert(
            fid,
            InFlightStore {
                fragment: job.fragment,
                prepared,
                pending,
                started: Instant::now(),
            },
        );
        self.order.push_back(fid);
        m.window_occupancy.record_us(self.order.len() as u64);
    }

    /// Waits out the oldest store on the wire, retrying transport-level
    /// failures on fresh pooled connections, then reports the result to
    /// the pool's shared state. Every completion notifies `done`.
    fn harvest_one(&mut self) {
        let fid = self.order.pop_front().expect("harvest on empty window");
        let inflight = self.window.remove(&fid).expect("window entry for fid");
        let result = self.finish_store(inflight.prepared, inflight.pending);
        let m = metrics();
        m.store_inflight.add(-1);
        m.store_us.record(inflight.started.elapsed());
        let server = self.server;
        let mut state = self.shared.state.lock();
        state.in_flight -= 1;
        if let Err(e) = result {
            m.write_errors.inc();
            swarm_metrics::trace!("log.write", "store of {fid} on server {server} failed: {e}");
            state.errors.push((server, e));
            state.failed.push((server, inflight.fragment));
        }
        drop(state);
        self.shared.done.notify_all();
    }

    fn ensure_conn(&mut self) -> Result<&mut Box<dyn Connection>> {
        if self.conn.is_none() {
            self.conn = Some(self.engine.checkout(self.server)?);
        }
        Ok(self.conn.as_mut().expect("connection present"))
    }

    fn finish_store(&mut self, prepared: PreparedRequest, pending: PendingCall) -> Result<()> {
        let mut last_err = match self.classify(pending.wait()) {
            ControlFlow::Break(done) => return done,
            ControlFlow::Continue(e) => e,
        };
        for attempt in 1..self.retries.max(1) {
            metrics().store_retries.inc();
            std::thread::sleep(self.backoff);
            if self.conn.is_none() {
                metrics().reconnects.inc();
                swarm_metrics::trace!(
                    "log.reconnect",
                    "reconnecting to server {} (attempt {attempt})",
                    self.server
                );
            }
            // The retry replays the same prepared buffers. A failed dial
            // is a transport failure like any other.
            let answer = self
                .ensure_conn()
                .and_then(|conn| conn.call_prepared(&prepared));
            match self.classify(answer) {
                ControlFlow::Break(done) => return done,
                ControlFlow::Continue(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// What one answer to a store means for its fragment: `Break` with
    /// the final verdict, or `Continue` with the error to retry past.
    fn classify(&mut self, answer: Result<Response>) -> ControlFlow<Result<()>, SwarmError> {
        match answer.map(Response::into_result) {
            Ok(Ok(_)) => ControlFlow::Break(Ok(())),
            // A duplicate store after a retried-but-actually-successful
            // attempt is fine: the fragment is there.
            Ok(Err(SwarmError::FragmentExists(_))) => ControlFlow::Break(Ok(())),
            // Admission pushback: the server is up but bounded this
            // client's backlog. Back off and resubmit on the same (healthy)
            // connection — the one server-answered error that is
            // explicitly retryable.
            Ok(Err(e @ SwarmError::Busy(_))) => {
                metrics().busy_backoffs.inc();
                ControlFlow::Continue(e)
            }
            // Any other server answer is a protocol-level refusal: final,
            // not a connectivity problem to retry.
            Ok(Err(e)) => ControlFlow::Break(Err(e)),
            // Transport failure: the shared connection (and, on mux, every
            // sibling store on it) may be dead. Drop it so the retry dials
            // a fresh pooled one.
            Err(e) => {
                self.conn = None;
                ControlFlow::Continue(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::{FragmentBuilder, FragmentHeader};
    use swarm_net::{MemTransport, Transport};
    use swarm_server::{FragmentStore, MemStore, StorageServer};
    use swarm_types::{ClientId, FragmentId, ServiceId, StripeSeq};

    fn cluster(n: u32) -> (Arc<MemTransport>, Vec<Arc<StorageServer<MemStore>>>) {
        let transport = Arc::new(MemTransport::new());
        let mut servers = Vec::new();
        for i in 0..n {
            let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
            transport.register(ServerId::new(i), srv.clone());
            servers.push(srv);
        }
        (transport, servers)
    }

    /// A pool over `transport` with the default retry policy.
    fn write_pool(transport: Arc<dyn Transport>, servers: &[ServerId]) -> WritePool {
        let engine = Arc::new(ConnectionPool::new(transport, ClientId::new(1)));
        WritePool::new(engine, servers, STORE_RETRIES, RETRY_BACKOFF)
    }

    fn fragment(seq: u64, payload: &[u8]) -> SealedFragment {
        let header = FragmentHeader {
            flags: 0,
            fid: FragmentId::new(ClientId::new(1), seq),
            stripe: StripeSeq::new(0),
            stripe_first_seq: 0,
            member_count: 2,
            my_index: 0,
            parity_index: 1,
            body_len: 0,
            body_crc: 0,
            group: vec![ServerId::new(0), ServerId::new(1)],
            member_lens: vec![],
        };
        let mut b = FragmentBuilder::new(header, 1 << 16);
        b.append_block(ServiceId::new(1), b"", payload);
        b.seal()
    }

    #[test]
    fn fragments_arrive_on_their_servers() {
        let (transport, servers) = cluster(2);
        let pool = write_pool(transport.clone(), &[ServerId::new(0), ServerId::new(1)]);
        for seq in 0..10 {
            let target = ServerId::new((seq % 2) as u32);
            pool.submit(target, fragment(seq, format!("frag{seq}").as_bytes()))
                .unwrap();
        }
        pool.flush().unwrap();
        assert_eq!(servers[0].store().fragment_count(), 5);
        assert_eq!(servers[1].store().fragment_count(), 5);
    }

    #[test]
    fn flush_reports_down_server() {
        let (transport, servers) = cluster(2);
        let pool = write_pool(transport.clone(), &[ServerId::new(0), ServerId::new(1)]);
        transport.set_down(ServerId::new(1), true);
        pool.submit(ServerId::new(0), fragment(0, b"ok")).unwrap();
        pool.submit(ServerId::new(1), fragment(1, b"delayed"))
            .unwrap();
        let err = pool.flush().unwrap_err();
        assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
        // The failed fragment is not abandoned: once the server is back,
        // the next flush re-queues it and only then reports clean.
        transport.set_down(ServerId::new(1), false);
        pool.submit(ServerId::new(0), fragment(2, b"ok2")).unwrap();
        pool.flush().unwrap();
        assert_eq!(servers[1].store().fragment_count(), 1);
    }

    /// While the server stays down, every flush keeps failing — the
    /// fragment is never silently dropped just because its error was
    /// reported once.
    #[test]
    fn flush_keeps_failing_until_the_fragment_lands() {
        let (transport, servers) = cluster(2);
        let pool = write_pool(transport.clone(), &[ServerId::new(0), ServerId::new(1)]);
        transport.set_down(ServerId::new(1), true);
        pool.submit(ServerId::new(1), fragment(0, b"stuck"))
            .unwrap();
        pool.flush().unwrap_err();
        pool.flush().unwrap_err(); // re-queued and failed again
        transport.set_down(ServerId::new(1), false);
        pool.flush().unwrap(); // healed
        assert_eq!(servers[1].store().fragment_count(), 1);
    }

    /// Regression test: flush used to drop all but the first error on the
    /// floor with no record of which server failed. `flush_all` reports
    /// one error per failing server, and the pool stays usable afterward.
    #[test]
    fn flush_all_reports_every_failing_server_and_pool_recovers() {
        let (transport, servers) = cluster(3);
        let ids = [ServerId::new(0), ServerId::new(1), ServerId::new(2)];
        let pool = write_pool(transport.clone(), &ids);
        transport.set_down(ServerId::new(1), true);
        transport.set_down(ServerId::new(2), true);
        pool.submit(ServerId::new(0), fragment(0, b"ok")).unwrap();
        pool.submit(ServerId::new(1), fragment(1, b"doomed"))
            .unwrap();
        pool.submit(ServerId::new(2), fragment(2, b"doomed"))
            .unwrap();
        let errors = pool.flush_all().unwrap_err();
        let mut failed: Vec<u32> = errors.iter().map(|(s, _)| s.raw()).collect();
        failed.sort_unstable();
        assert_eq!(failed, vec![1, 2]);
        for (_, e) in &errors {
            assert!(matches!(e, SwarmError::ServerUnavailable(_)), "{e}");
        }
        // The errors were taken; once the servers come back the next
        // flush stores the new fragments *and* heals the failed ones.
        transport.set_down(ServerId::new(1), false);
        transport.set_down(ServerId::new(2), false);
        pool.submit(ServerId::new(1), fragment(3, b"retry"))
            .unwrap();
        pool.submit(ServerId::new(2), fragment(4, b"retry"))
            .unwrap();
        pool.flush().unwrap();
        assert_eq!(servers[1].store().fragment_count(), 2);
        assert_eq!(servers[2].store().fragment_count(), 2);
    }

    #[test]
    fn submit_to_foreign_server_rejected() {
        let (transport, _servers) = cluster(1);
        let pool = write_pool(transport, &[ServerId::new(0)]);
        let err = pool
            .submit(ServerId::new(7), fragment(0, b"x"))
            .unwrap_err();
        assert!(matches!(err, SwarmError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn flush_on_idle_pool_is_ok() {
        let (transport, _servers) = cluster(1);
        let pool = write_pool(transport, &[ServerId::new(0)]);
        pool.flush().unwrap();
        pool.flush().unwrap();
    }

    #[test]
    fn many_fragments_through_narrow_queue() {
        // Fifty fragments through a queue of `QUEUE_DEPTH` force the
        // submitter to block — exercising flow control — but everything
        // must still arrive.
        let (transport, servers) = cluster(1);
        let pool = write_pool(transport, &[ServerId::new(0)]);
        for seq in 0..50 {
            pool.submit(ServerId::new(0), fragment(seq, &[seq as u8; 128]))
                .unwrap();
        }
        pool.flush().unwrap();
        assert_eq!(servers[0].store().fragment_count(), 50);
    }

    /// A store that fails and is retried must replay the *same* prepared
    /// buffers — no re-encode, no payload clone — and still land intact.
    #[test]
    fn retried_store_reuses_prepared_payload_without_copying() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct FlakyShared {
            fail_remaining: AtomicUsize,
            payload_ptrs: Mutex<Vec<usize>>,
        }

        struct Flaky {
            inner: Arc<MemTransport>,
            shared: Arc<FlakyShared>,
        }

        struct FlakyConn {
            shared: Arc<FlakyShared>,
            inner: Box<dyn Connection>,
        }

        impl Connection for FlakyConn {
            fn call(&mut self, request: &Request) -> swarm_types::Result<swarm_net::Response> {
                self.inner.call(request)
            }

            fn call_prepared(
                &mut self,
                prepared: &PreparedRequest,
            ) -> swarm_types::Result<swarm_net::Response> {
                self.shared
                    .payload_ptrs
                    .lock()
                    .push(prepared.payload().as_ptr() as usize);
                if self
                    .shared
                    .fail_remaining
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    return Err(SwarmError::ServerUnavailable(self.inner.server()));
                }
                self.inner.call_prepared(prepared)
            }

            fn server(&self) -> ServerId {
                self.inner.server()
            }
        }

        impl Transport for Flaky {
            fn connect(
                &self,
                server: ServerId,
                client: ClientId,
            ) -> swarm_types::Result<Box<dyn Connection>> {
                Ok(Box::new(FlakyConn {
                    shared: self.shared.clone(),
                    inner: self.inner.connect(server, client)?,
                }))
            }

            fn servers(&self) -> Vec<ServerId> {
                self.inner.servers()
            }
        }

        let (mem, servers) = cluster(1);
        let shared = Arc::new(FlakyShared {
            fail_remaining: AtomicUsize::new(2),
            payload_ptrs: Mutex::new(Vec::new()),
        });
        let flaky = Flaky {
            inner: mem,
            shared: shared.clone(),
        };
        let pool = write_pool(Arc::new(flaky), &[ServerId::new(0)]);
        let sealed = fragment(0, b"retry me without copying");
        let fid = sealed.fid();
        let expected = sealed.bytes.to_vec();
        let sealed_ptr = sealed.bytes.as_ptr() as usize;
        pool.submit(ServerId::new(0), sealed).unwrap();
        pool.flush().unwrap();

        // Two failures + the success: three attempts, every one carrying
        // the sealed fragment's own buffer (pointer identity ⇒ the payload
        // was neither re-encoded nor cloned between attempts).
        let ptrs = shared.payload_ptrs.lock().clone();
        assert_eq!(ptrs.len(), 3, "expected 2 failed attempts + 1 success");
        assert!(
            ptrs.iter().all(|&p| p == sealed_ptr),
            "payload buffer changed across retries: {ptrs:?} vs {sealed_ptr:#x}"
        );
        assert_eq!(
            servers[0]
                .store()
                .read(fid, 0, expected.len() as u32)
                .unwrap(),
            expected
        );
    }

    /// Regression: `submit`'s send-failure path used to decrement
    /// `in_flight` without notifying, so a `flush_all` waiting on that
    /// last in-flight job slept forever. The test stands in for the
    /// writer thread so it controls exactly when the channel dies.
    #[test]
    fn failed_submit_wakes_waiting_flush() {
        use std::time::{Duration, Instant};

        let (transport, _servers) = cluster(1);
        let mut pool = write_pool(transport, &[ServerId::new(0)]);
        // Detach the real writer; the test plays its part.
        let (tx, rx) = bounded::<Job>(1);
        pool.test_replace_sender(ServerId::new(0), tx);
        let pool = Arc::new(pool);

        // Job A fills the queue; nothing consumes it.
        pool.submit(ServerId::new(0), fragment(0, b"parked"))
            .unwrap();
        // Job B blocks in send() on the full queue.
        let p = pool.clone();
        let blocked =
            std::thread::spawn(move || p.submit(ServerId::new(0), fragment(1, b"doomed")));
        std::thread::sleep(Duration::from_millis(50));
        // The flusher goes to sleep waiting for both in-flight jobs.
        let p = pool.clone();
        let flusher = std::thread::spawn(move || p.flush_all());
        std::thread::sleep(Duration::from_millis(50));

        // Job A "completes"...
        pool.test_complete_one();
        // ...and the channel dies under job B's blocked send. That
        // failure path's decrement is the last one — without its notify,
        // the flusher never wakes.
        drop(rx);
        let err = blocked.join().unwrap().unwrap_err();
        assert!(matches!(err, SwarmError::Closed(_)), "{err}");

        let deadline = Instant::now() + Duration::from_secs(10);
        while !flusher.is_finished() {
            assert!(
                Instant::now() < deadline,
                "flush_all slept through the failed submit's decrement"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        flusher.join().unwrap().expect("no store ever failed");
    }

    /// The writer genuinely overlaps stores, exactly as far as the
    /// connection pipelines: with every fragment queued before the first
    /// dial returns, `min(WINDOW, width, FRAGS)` stores are on the wire
    /// before any ack is consumed, and never more. (Completions are gated
    /// on that many being in flight, so a serial regression hangs rather
    /// than passes — a watchdog turns that into a failure — and a window
    /// that ignores a narrow transport overshoots the peak.) A width of 1
    /// is the paper's one-store-at-a-time path.
    #[test]
    fn window_overlaps_stores_on_a_pipelined_transport() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        use swarm_net::PendingCall;

        /// What the fill loop can see at once: the job in hand plus a
        /// full queue.
        const FRAGS: usize = 1 + QUEUE_DEPTH;

        struct PipeShared {
            width: usize,
            inflight: AtomicUsize,
            peak: AtomicUsize,
            dial_open: AtomicBool,
        }

        impl PipeShared {
            fn target(&self) -> usize {
                WINDOW.min(self.width).min(FRAGS)
            }
        }

        struct PipeTransport {
            inner: Arc<MemTransport>,
            shared: Arc<PipeShared>,
        }

        struct PipeConn {
            inner: Box<dyn Connection>,
            mem: Arc<MemTransport>,
            shared: Arc<PipeShared>,
        }

        impl Connection for PipeConn {
            fn call(&mut self, request: &Request) -> swarm_types::Result<swarm_net::Response> {
                self.inner.call(request)
            }

            fn start_prepared(&mut self, prepared: &PreparedRequest) -> PendingCall {
                let now = self.shared.inflight.fetch_add(1, Ordering::SeqCst) + 1;
                self.shared.peak.fetch_max(now, Ordering::SeqCst);
                let shared = self.shared.clone();
                let mem = self.mem.clone();
                let server = self.inner.server();
                let request = prepared.request().clone();
                PendingCall::deferred(move || {
                    // No ack completes until the window is as full as
                    // this transport lets it get.
                    while shared.peak.load(Ordering::SeqCst) < shared.target() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    shared.inflight.fetch_sub(1, Ordering::SeqCst);
                    mem.connect(server, ClientId::new(1))?.call(&request)
                })
            }

            fn pipeline_width(&self) -> usize {
                self.shared.width
            }

            fn server(&self) -> ServerId {
                self.inner.server()
            }
        }

        impl Transport for PipeTransport {
            fn connect(
                &self,
                server: ServerId,
                client: ClientId,
            ) -> swarm_types::Result<Box<dyn Connection>> {
                // Hold the writer's first dial until the test has queued
                // every fragment, so the fill loop sees them all at once.
                while !self.shared.dial_open.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(Box::new(PipeConn {
                    inner: self.inner.connect(server, client)?,
                    mem: self.inner.clone(),
                    shared: self.shared.clone(),
                }))
            }

            fn servers(&self) -> Vec<ServerId> {
                self.inner.servers()
            }
        }

        for width in [1, 2, 64] {
            let (mem, servers) = cluster(1);
            let shared = Arc::new(PipeShared {
                width,
                inflight: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                dial_open: AtomicBool::new(false),
            });
            let transport = Arc::new(PipeTransport {
                inner: mem,
                shared: shared.clone(),
            });
            let pool = Arc::new(write_pool(transport, &[ServerId::new(0)]));
            for seq in 0..FRAGS as u64 {
                pool.submit(ServerId::new(0), fragment(seq, &[seq as u8; 64]))
                    .unwrap();
            }
            shared.dial_open.store(true, Ordering::SeqCst);

            let p = pool.clone();
            let flusher = std::thread::spawn(move || p.flush());
            let deadline = Instant::now() + Duration::from_secs(30);
            while !flusher.is_finished() {
                assert!(
                    Instant::now() < deadline,
                    "width {width}: writer never reached {} concurrent stores (peak {})",
                    shared.target(),
                    shared.peak.load(Ordering::SeqCst)
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            flusher.join().unwrap().unwrap();
            assert_eq!(
                shared.peak.load(Ordering::SeqCst),
                shared.target(),
                "width {width}"
            );
            assert_eq!(servers[0].store().fragment_count(), FRAGS as u64);
        }
    }

    #[test]
    fn shutdown_completes_queued_work() {
        let (transport, servers) = cluster(1);
        let mut pool = write_pool(transport, &[ServerId::new(0)]);
        for seq in 0..8 {
            pool.submit(ServerId::new(0), fragment(seq, b"payload"))
                .unwrap();
        }
        pool.shutdown();
        assert_eq!(servers[0].store().fragment_count(), 8);
    }
}
