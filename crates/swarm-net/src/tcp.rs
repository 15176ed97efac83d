//! TCP transport: the real-sockets equivalent of the paper's prototype,
//! where storage servers are user-level processes reached over switched
//! Ethernet (§3).
//!
//! There is one TCP session. Connection establishment performs a small
//! handshake so the server knows which client it is talking to (the
//! prototype relied on the transport for identity as well): the client
//! sends the mux hello frame carrying its [`ClientId`] (see `crate::mux`),
//! the server replies with its [`ServerId`]. After that every frame in
//! both directions is `request id ++ message`, and any number of calls
//! overlap on the socket.
//!
//! Both ends run on the readiness reactor (`crate::reactor`): a reactor
//! thread drives every connection as a non-blocking state machine, and
//! the [`WorkerPool`] only runs handlers (file I/O, fragment-store
//! locking). A server holds thousands of idle connections at a few
//! hundred bytes each; a client shares one socket per `(server, client)`
//! pair among all its [`Connection`] handles. A peer that does not open
//! with the mux hello, or sends a frame too short to carry a request id,
//! loses its connection and nothing else.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use swarm_metrics::{Counter, Histogram};
use swarm_types::{ByteWriter, Bytes, ClientId, Decode, Encode, Result, ServerId, SwarmError};

use crate::fault::FaultPlan;
use crate::frame::{frame_header_for, FrameProgress, FrameReader};
use crate::handler::RequestHandler;
use crate::mux::{mux_dial, parse_mux_hello, MuxChannel, MuxSource, Seg, MUX_ID_PREFIX};
use crate::proto::{PreparedRequest, Request, Response};
use crate::reactor::{Ctx, Handle, Reactor, Ready, Source, TimerVerdict};
use crate::transport::{Connection, PendingCall, Transport};
use crate::workpool::{WorkerPool, DEFAULT_WORKERS};

/// How long the accept path backs off after a failed `accept()` before
/// trying again, so a persistent error (fd exhaustion, dead listener)
/// cannot spin a core at 100%.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Consecutive `accept()` failures after which the accept path concludes
/// the listener is dead and stops. A successful accept resets the count.
const ACCEPT_ERROR_LIMIT: u32 = 100;

/// Default read/write timeout for client connections; long enough for a
/// slow disk on the far side, short enough that a hung server surfaces as
/// [`SwarmError::ServerUnavailable`] and the writer's retry path engages.
pub const DEFAULT_CALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Default server-side read deadline: a connection that delivers no bytes
/// for this long while nothing is in flight is reaped. Protects the
/// server from slow-loris peers (a trickled half-frame would otherwise
/// pin reactor connection state forever).
pub const DEFAULT_READ_DEADLINE: Duration = Duration::from_secs(30);

/// Requests a single connection may have in flight (queued or running in
/// the worker pool) before the server pauses reading from it.
const MAX_INFLIGHT_PER_CONN: usize = 64;

pub(crate) struct NetMetrics {
    pub(crate) accept_errors: Counter,
    pub(crate) server_connections: Counter,
    pub(crate) server_requests: Counter,
    pub(crate) server_fast_reads: Counter,
    pub(crate) server_bytes_in: Counter,
    pub(crate) server_bytes_out: Counter,
    pub(crate) conns_reaped: Counter,
    pub(crate) server_request_us: Histogram,
    pub(crate) client_connects: Counter,
    pub(crate) client_call_errors: Counter,
    pub(crate) client_bytes_out: Counter,
    pub(crate) client_bytes_in: Counter,
    pub(crate) client_call_us: Histogram,
}

pub(crate) fn metrics() -> &'static NetMetrics {
    static M: OnceLock<NetMetrics> = OnceLock::new();
    M.get_or_init(|| NetMetrics {
        accept_errors: swarm_metrics::counter("net.server.accept_errors"),
        server_connections: swarm_metrics::counter("net.server.connections"),
        server_requests: swarm_metrics::counter("net.server.requests"),
        server_fast_reads: swarm_metrics::counter("net.server.fast_reads"),
        server_bytes_in: swarm_metrics::counter("net.server.bytes_in"),
        server_bytes_out: swarm_metrics::counter("net.server.bytes_out"),
        conns_reaped: swarm_metrics::counter("net.server.conns_reaped"),
        server_request_us: swarm_metrics::histogram("net.server.request_us"),
        client_connects: swarm_metrics::counter("net.client.connects"),
        client_call_errors: swarm_metrics::counter("net.client.call_errors"),
        client_bytes_out: swarm_metrics::counter("net.client.bytes_out"),
        client_bytes_in: swarm_metrics::counter("net.client.bytes_in"),
        client_call_us: swarm_metrics::histogram("net.client.call_us"),
    })
}

/// Configuration for [`TcpServer::spawn_with_config`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker pool width: max handlers running concurrently (connections
    /// themselves are unbounded).
    pub workers: usize,
    /// Reap a connection that delivers no bytes for this long while no
    /// request of its is in flight (`None` = never reap). Clients whose
    /// pooled idle connection is reaped redial transparently.
    pub read_deadline: Option<Duration>,
    /// Fault plan (`None` on every production server). While the plan is
    /// down the server refuses the mux hello and closes any connection a
    /// request arrives on; fail-after and a pending reset close the
    /// connection before the request is dispatched, so every call in
    /// flight on it dies too. Delay, store stall and disk-full are met on
    /// the worker just before the handler. A pending truncation lets the
    /// request run, writes only a *prefix* of the response frame and
    /// severs the connection — a genuinely torn frame on a real socket,
    /// with the ack lost, so a retried store hits the duplicate-store
    /// path. A server with a plan never answers on the reactor fast path.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: DEFAULT_WORKERS,
            read_deadline: Some(DEFAULT_READ_DEADLINE),
            faults: None,
        }
    }
}

/// A running TCP storage-server endpoint.
///
/// Wraps a [`RequestHandler`] and serves it on a listening socket: a
/// reactor thread owns the listener and every connection, a worker pool
/// runs the handlers. Dropping the server (or calling
/// [`TcpServer::shutdown`]) stops accepting, severs established
/// connections, and joins all threads.
pub struct TcpServer {
    id: ServerId,
    addr: SocketAddr,
    reactor: Option<Reactor>,
    pool: Option<Arc<WorkerPool>>,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("id", &self.id)
            .field("addr", &self.addr)
            .finish()
    }
}

impl TcpServer {
    /// Binds `bind_addr` (use port 0 for an ephemeral port) and starts
    /// serving `handler` as server `id` with default configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::Io`] if the address cannot be bound.
    pub fn spawn(
        id: ServerId,
        bind_addr: &str,
        handler: Arc<dyn RequestHandler>,
    ) -> Result<TcpServer> {
        Self::spawn_with_config(id, bind_addr, handler, ServerConfig::default())
    }

    /// Binds `bind_addr` and serves `handler` with full control over the
    /// worker width, read deadline and fault plan.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::Io`] if the address cannot be bound or the
    /// reactor cannot start (no poller, no thread).
    pub fn spawn_with_config(
        id: ServerId,
        bind_addr: &str,
        handler: Arc<dyn RequestHandler>,
        config: ServerConfig,
    ) -> Result<TcpServer> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let pool = Arc::new(WorkerPool::new(
            &format!("swarm-conn-{}", id.raw()),
            config.workers,
        ));
        let reactor = Reactor::new(&format!("swarm-net-{}", id.raw()))?;
        let source = ListenerSource {
            listener,
            id,
            handler,
            faults: config.faults,
            pool: pool.clone(),
            read_deadline: config.read_deadline,
            consecutive_errors: 0,
        };
        reactor.register(None, move |_h| Box::new(source));
        Ok(TcpServer {
            id,
            addr,
            reactor: Some(reactor),
            pool: Some(pool),
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Stops accepting new connections, severs established ones, and joins
    /// every thread. Like a process exit, in-flight peers see their
    /// sockets close — a client holding a pooled connection must redial.
    pub fn shutdown(&mut self) {
        // Stopping the reactor drops the listener and every connection
        // source, closing their sockets. Workers never park on sockets,
        // so closing the job queue then joins promptly; their late
        // notify() calls land on a stopped reactor and are ignored.
        self.reactor.take();
        self.pool.take();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Server side: listener + per-connection readiness state machines.
// ---------------------------------------------------------------------------

struct ListenerSource {
    listener: TcpListener,
    id: ServerId,
    handler: Arc<dyn RequestHandler>,
    faults: Option<Arc<FaultPlan>>,
    pool: Arc<WorkerPool>,
    read_deadline: Option<Duration>,
    consecutive_errors: u32,
}

impl Source for ListenerSource {
    fn fd(&self) -> epoll::RawFd {
        self.listener.as_raw_fd()
    }

    fn interest(&self) -> epoll::Interest {
        epoll::Interest::READABLE
    }

    fn on_ready(&mut self, _readable: bool, _writable: bool, ctx: &mut Ctx<'_>) -> Ready {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.consecutive_errors = 0;
                    metrics().server_connections.inc();
                    if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let handle = ctx.reserve();
                    let deadline = self.read_deadline.map(|d| Instant::now() + d);
                    let conn = ConnSource::new(
                        stream,
                        self.id,
                        self.handler.clone(),
                        self.faults.clone(),
                        self.pool.clone(),
                        handle.clone(),
                        self.read_deadline,
                    );
                    ctx.attach(&handle, Box::new(conn), deadline);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ready::Continue,
                Err(e) => {
                    metrics().accept_errors.inc();
                    self.consecutive_errors += 1;
                    swarm_metrics::trace!(
                        "net.accept",
                        "server {} accept error ({} consecutive): {e}",
                        self.id.raw(),
                        self.consecutive_errors
                    );
                    if self.consecutive_errors >= ACCEPT_ERROR_LIMIT {
                        swarm_metrics::trace!(
                            "net.accept",
                            "server {} giving up on dead listener",
                            self.id.raw()
                        );
                        return Ready::Close;
                    }
                    // Brief blocking backoff: under fd exhaustion the
                    // level-triggered poller would otherwise re-deliver
                    // readiness instantly.
                    std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                    return Ready::Continue;
                }
            }
        }
    }
}

/// A finished handler invocation, posted by a worker to the connection's
/// mailbox. Responses go out in completion order (the id prefix lets the
/// client match them).
struct Completion {
    segs: Vec<Seg>,
    close_after: bool,
}

struct ConnSource {
    stream: TcpStream,
    id: ServerId,
    handler: Arc<dyn RequestHandler>,
    faults: Option<Arc<FaultPlan>>,
    pool: Arc<WorkerPool>,
    handle: Handle,
    reader: FrameReader,
    /// The peer's identity; `None` until its hello frame arrives.
    client: Option<ClientId>,
    outbox: VecDeque<Seg>,
    front_off: usize,
    mailbox: Arc<Mutex<Vec<Completion>>>,
    inflight: usize,
    read_deadline: Option<Duration>,
    last_activity: Instant,
    /// Flush the outbox, then close; no further reads.
    closing: bool,
}

impl ConnSource {
    fn new(
        stream: TcpStream,
        id: ServerId,
        handler: Arc<dyn RequestHandler>,
        faults: Option<Arc<FaultPlan>>,
        pool: Arc<WorkerPool>,
        handle: Handle,
        read_deadline: Option<Duration>,
    ) -> ConnSource {
        ConnSource {
            stream,
            id,
            handler,
            faults,
            pool,
            handle,
            reader: FrameReader::new(),
            client: None,
            outbox: VecDeque::new(),
            front_off: 0,
            mailbox: Arc::new(Mutex::new(Vec::new())),
            inflight: 0,
            read_deadline,
            last_activity: Instant::now(),
            closing: false,
        }
    }

    /// Writes queued output until the socket would block or the queue
    /// drains. Returns false on a fatal socket error.
    fn pump_write(&mut self) -> bool {
        while let Some(front) = self.outbox.front() {
            let slice = &front.as_slice()[self.front_off..];
            match (&self.stream).write(slice) {
                Ok(0) => return false,
                Ok(n) => {
                    self.front_off += n;
                    if self.front_off == front.as_slice().len() {
                        self.outbox.pop_front();
                        self.front_off = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Reads frames: completes the handshake, then dispatches request
    /// frames to the worker pool. Returns false when the connection must
    /// close (EOF, socket error, corrupt stream, protocol breach).
    fn pump_read(&mut self) -> bool {
        loop {
            if self.closing || self.inflight >= MAX_INFLIGHT_PER_CONN {
                // Backpressure: interest() drops EPOLLIN until completions
                // drain; unread requests stay in the socket buffer.
                return true;
            }
            match self.reader.read_from(&mut &self.stream) {
                Ok(FrameProgress::Frame(frame)) => {
                    self.last_activity = Instant::now();
                    if !self.on_frame(frame) {
                        return false;
                    }
                }
                Ok(FrameProgress::Blocked) => return true,
                Ok(FrameProgress::Eof) | Err(_) => return false,
            }
        }
    }

    /// Handles one inbound frame. Returns false to close the connection.
    fn on_frame(&mut self, frame: Vec<u8>) -> bool {
        let Some(client) = self.client else {
            // Handshake: anything but the mux hello closes the connection,
            // and so does any hello while the fault plan has us down.
            let Ok(client) = parse_mux_hello(&frame) else {
                return false;
            };
            if self.faults.as_ref().is_some_and(|plan| plan.is_down()) {
                return false;
            }
            let mut w = ByteWriter::new();
            self.id.encode(&mut w);
            let Ok(fh) = frame_header_for(&[w.as_slice()]) else {
                return false;
            };
            let mut head = Vec::with_capacity(12 + w.len());
            head.extend_from_slice(&fh);
            head.extend_from_slice(w.as_slice());
            self.outbox.push_back(Seg::Owned(head));
            self.client = Some(client);
            return true;
        };

        if let Some(plan) = &self.faults {
            // Down, fail-after and reset: the request is never delivered,
            // and closing the socket kills every sibling in flight on it.
            if plan.on_call() || plan.take_reset() {
                swarm_metrics::trace!(
                    "net.fault",
                    "server {} closing a connection before dispatch",
                    self.id.raw()
                );
                return false;
            }
        }
        let m = metrics();
        m.server_requests.inc();
        m.server_bytes_in.add(frame.len() as u64);
        if frame.len() < MUX_ID_PREFIX {
            return false; // frame shorter than its request id
        }
        let frame = Bytes::from(frame);
        let mux_id = u64::from_le_bytes(
            frame[..MUX_ID_PREFIX]
                .try_into()
                .expect("length checked above"),
        );
        let body = frame.slice(MUX_ID_PREFIX..);
        self.inflight += 1;

        // Reactor fast path: offer reads to the handler before paying the
        // worker-pool round trip (two context switches — the dominant
        // cost of a memory-resident read). Only the Read tag is peeked:
        // decoding anything heavier on the reactor thread would stall
        // every other connection. Fault plans disable the shortcut so
        // injected delays/truncations still cover reads.
        if self.faults.is_none() && body.first() == Some(&crate::proto::tag::READ) {
            if let Ok(request) = Request::decode_all_shared(&body) {
                if let Some(response) = self.handler.try_handle_fast(client, &request) {
                    m.server_fast_reads.inc();
                    let completion = encode_completion(self.id, None, mux_id, response);
                    self.mailbox.lock().push(completion);
                    self.drain_mailbox();
                    return true;
                }
            }
        }

        let handler = self.handler.clone();
        let faults = self.faults.clone();
        let mailbox = self.mailbox.clone();
        let handle = self.handle.clone();
        let server = self.id;
        // Only stores are rejectable under the pool's backpressure: the
        // writer is the one caller with retry machinery, and a bounced
        // read would surface as a data-path failure.
        let rejectable = body.first() == Some(&crate::proto::tag::STORE);
        let cost = body.len() as u64;
        let queued = self.pool.submit(client, cost, rejectable, move || {
            let completion =
                run_request(server, &*handler, faults.as_deref(), client, mux_id, &body);
            mailbox.lock().push(completion);
            handle.notify();
        });
        if !queued {
            // Busy pushback: answered from the reactor thread, bypassing
            // the very queue that is full.
            let response = Response::from_error(&SwarmError::Busy(self.id));
            let completion = encode_completion(self.id, None, mux_id, response);
            self.mailbox.lock().push(completion);
            self.drain_mailbox();
        }
        true
    }

    /// Drains worker completions into the outbox.
    fn drain_mailbox(&mut self) {
        let done: Vec<Completion> = std::mem::take(&mut *self.mailbox.lock());
        for c in done {
            self.inflight = self.inflight.saturating_sub(1);
            self.enqueue(c);
        }
    }

    fn enqueue(&mut self, c: Completion) {
        if self.closing {
            return; // a truncation already sealed this connection
        }
        self.outbox.extend(c.segs);
        if c.close_after {
            self.closing = true;
        }
    }

    /// Post-I/O verdict shared by ready/notify callbacks.
    fn verdict(&mut self, io_ok: bool) -> Ready {
        if !io_ok || (self.closing && self.outbox.is_empty()) {
            return Ready::Close;
        }
        Ready::Continue
    }
}

/// Runs one request through the handler and encodes its response frame as
/// write-ready segments (executed on a worker thread).
fn run_request(
    server: ServerId,
    handler: &dyn RequestHandler,
    faults: Option<&FaultPlan>,
    client: ClientId,
    mux_id: u64,
    body: &Bytes,
) -> Completion {
    let m = metrics();
    let span = m.server_request_us.span("net.server.request");
    let response = match Request::decode_all_shared(body) {
        Ok(request) => match faults.and_then(|plan| plan.before_handler(&request)) {
            Some(refused) => refused,
            None => handler.handle(client, request),
        },
        Err(e) => Response::from_error(&e),
    };
    drop(span);
    encode_completion(server, faults, mux_id, response)
}

/// Encodes a computed response as write-ready segments. Shared by the
/// worker path ([`run_request`]) and the reactor fast path, so a response
/// frame is byte-identical regardless of which thread produced it.
fn encode_completion(
    server: ServerId,
    faults: Option<&FaultPlan>,
    mux_id: u64,
    response: Response,
) -> Completion {
    let m = metrics();
    let mut header = ByteWriter::new();
    header.put_raw(&mux_id.to_le_bytes());
    let _ = response.encode_split(&mut header);
    // Re-borrow the payload as a shared view so the (possibly large) read
    // data rides to the socket without a copy.
    let payload = match &response {
        Response::Data(b) => b.share(),
        Response::Located(Some(b)) => b.share(),
        Response::Batch(reply) => reply.data.share(),
        _ => Bytes::new(),
    };
    m.server_bytes_out
        .add((header.len() + payload.len()) as u64);

    let Ok(fh) = frame_header_for(&[header.as_slice(), &payload]) else {
        // Response too large to frame: close without replying.
        return Completion {
            segs: Vec::new(),
            close_after: true,
        };
    };
    let mut head = Vec::with_capacity(12 + header.len());
    head.extend_from_slice(&fh);
    head.extend_from_slice(header.as_slice());

    if faults.is_some_and(|p| p.take_truncate()) {
        // Injected truncation: ship only a prefix of the frame, then close.
        let mut full = head;
        full.extend_from_slice(&payload);
        let keep = full.len() / 2;
        full.truncate(keep);
        swarm_metrics::trace!(
            "net.fault",
            "server {} truncating response frame (kept {keep} bytes)",
            server.raw()
        );
        return Completion {
            segs: vec![Seg::Owned(full)],
            close_after: true,
        };
    }

    let mut segs = vec![Seg::Owned(head)];
    if !payload.is_empty() {
        segs.push(Seg::Shared(payload));
    }
    Completion {
        segs,
        close_after: false,
    }
}

impl Source for ConnSource {
    fn fd(&self) -> epoll::RawFd {
        self.stream.as_raw_fd()
    }

    fn interest(&self) -> epoll::Interest {
        epoll::Interest {
            readable: !self.closing && self.inflight < MAX_INFLIGHT_PER_CONN,
            writable: !self.outbox.is_empty(),
        }
    }

    fn on_ready(&mut self, readable: bool, writable: bool, _ctx: &mut Ctx<'_>) -> Ready {
        if writable && !self.pump_write() {
            return Ready::Close;
        }
        if readable && !self.pump_read() {
            // A peer that half-closed after its last request gets no more
            // replies: the connection is the session.
            return Ready::Close;
        }
        // Reads answered on the fast path during pump_read are sitting in
        // the outbox now; flush them in this pass rather than waiting for
        // the next writability event.
        if !self.outbox.is_empty() && !self.pump_write() {
            return Ready::Close;
        }
        self.verdict(true)
    }

    fn on_notify(&mut self, _ctx: &mut Ctx<'_>) -> Ready {
        self.drain_mailbox();
        let ok = self.pump_write();
        self.verdict(ok)
    }

    fn on_timer(&mut self, now: Instant, _ctx: &mut Ctx<'_>) -> TimerVerdict {
        let Some(deadline) = self.read_deadline else {
            return TimerVerdict::Disarm;
        };
        // Never reap a connection with work in flight or output queued —
        // the deadline guards against *silent* peers, not slow handlers.
        let busy = self.inflight > 0 || !self.outbox.is_empty();
        let due = self.last_activity + deadline;
        if busy || now < due {
            return TimerVerdict::ReArm(if busy { now + deadline } else { due });
        }
        metrics().conns_reaped.inc();
        swarm_metrics::trace!(
            "net.deadline",
            "server {} reaping stalled connection (mid-frame: {})",
            self.id.raw(),
            self.reader.in_frame()
        );
        TimerVerdict::Close
    }
}

// ---------------------------------------------------------------------------
// Client transport.
// ---------------------------------------------------------------------------

/// Client-side transport over TCP.
///
/// Maps [`ServerId`]s to socket addresses; `connect` dials and performs
/// the handshake. The server set is fixed at construction (plus
/// [`TcpTransport::add_server`]), mirroring the prototype where clients
/// know the cluster membership.
///
/// All connections between one `(server, client)` pair share a single
/// multiplexed socket: every [`Connection`] handed out is a lightweight
/// handle onto that channel, and any number of calls proceed
/// concurrently, matched by request id.
///
/// Calls time out after [`DEFAULT_CALL_TIMEOUT`] unless overridden with
/// [`TcpTransport::set_call_timeout`], so a hung server surfaces as
/// [`SwarmError::ServerUnavailable`] instead of wedging the caller.
pub struct TcpTransport {
    servers: Mutex<BTreeMap<ServerId, SocketAddr>>,
    call_timeout: Mutex<Option<Duration>>,
    channels: Mutex<HashMap<(ServerId, ClientId), Arc<MuxChannel>>>,
    /// Per-pair dial locks: concurrent `connect` calls for the same
    /// `(server, client)` collapse to one socket without holding the
    /// `channels` map lock across the dial (one unreachable server must
    /// not stall connects to every other server).
    dialing: Mutex<HashMap<(ServerId, ClientId), DialLock>>,
}

/// Lock serializing dials for one `(server, client)` pair.
type DialLock = Arc<Mutex<()>>;

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("servers", &*self.servers.lock())
            .finish()
    }
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl TcpTransport {
    /// Creates a transport with no servers.
    pub fn new() -> Self {
        TcpTransport {
            servers: Mutex::new(BTreeMap::new()),
            call_timeout: Mutex::new(Some(DEFAULT_CALL_TIMEOUT)),
            channels: Mutex::new(HashMap::new()),
            dialing: Mutex::new(HashMap::new()),
        }
    }

    /// Creates a transport pointing at the given running servers.
    pub fn with_servers(servers: impl IntoIterator<Item = (ServerId, SocketAddr)>) -> Self {
        let t = Self::new();
        t.servers.lock().extend(servers);
        t
    }

    /// Sets the per-call timeout for connections opened after this call
    /// (`None` = block forever, the pre-timeout behaviour).
    pub fn set_call_timeout(&self, timeout: Option<Duration>) {
        *self.call_timeout.lock() = timeout;
    }

    /// The currently configured per-call timeout.
    pub fn call_timeout(&self) -> Option<Duration> {
        *self.call_timeout.lock()
    }

    /// Adds (or re-addresses) a server. Re-addressing closes any
    /// multiplexed channel to the old address (the server it pointed at
    /// is gone; pending calls fail over to the retry path).
    pub fn add_server(&self, id: ServerId, addr: SocketAddr) {
        let prev = self.servers.lock().insert(id, addr);
        if prev.is_some() && prev != Some(addr) {
            self.close_channels_for(id);
        }
    }

    /// Removes a server from the membership, closing its channels.
    pub fn remove_server(&self, id: ServerId) {
        self.servers.lock().remove(&id);
        self.close_channels_for(id);
    }

    /// Number of live multiplexed channels (diagnostic: each is one
    /// socket shared by every connection to its `(server, client)` pair).
    pub fn mux_channels(&self) -> usize {
        self.channels
            .lock()
            .values()
            .filter(|c| c.is_alive())
            .count()
    }

    /// High-water mark of concurrently in-flight calls across multiplexed
    /// channels (diagnostic for pipelining tests).
    pub fn mux_inflight_peak(&self) -> usize {
        self.channels
            .lock()
            .values()
            .map(|c| c.inflight_peak())
            .max()
            .unwrap_or(0)
    }

    fn close_channels_for(&self, id: ServerId) {
        let mut channels = self.channels.lock();
        channels.retain(|(server, _), ch| {
            if *server == id {
                ch.shutdown();
                false
            } else {
                true
            }
        });
        drop(channels);
        self.dialing.lock().retain(|(server, _), _| *server != id);
    }

    /// Returns the live channel for the pair, pruning a dead one.
    fn live_channel(&self, server: ServerId, client: ClientId) -> Option<Arc<MuxChannel>> {
        let mut channels = self.channels.lock();
        if let Some(ch) = channels.get(&(server, client)) {
            if ch.is_alive() {
                return Some(ch.clone());
            }
            channels.remove(&(server, client));
        }
        None
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // The global client reactor outlives any transport; without this,
        // its sources would hold the transport's sockets open forever.
        for ch in self.channels.lock().values() {
            ch.shutdown();
        }
    }
}

impl Transport for TcpTransport {
    /// # Errors
    ///
    /// [`SwarmError::ServerUnavailable`] when the server is unknown,
    /// unreachable, or garbles the handshake; [`SwarmError::Io`] when the
    /// process-wide client reactor cannot start — retrying a dial cannot
    /// fix that, so it is not dressed up as unavailability.
    fn connect(&self, server: ServerId, client: ClientId) -> Result<Box<dyn Connection>> {
        let addr = *self
            .servers
            .lock()
            .get(&server)
            .ok_or(SwarmError::ServerUnavailable(server))?;
        let reactor = crate::reactor::client_reactor()?;
        let timeout = self.call_timeout();
        let connection = |channel| -> Result<Box<dyn Connection>> {
            Ok(Box::new(MuxConnection {
                server,
                channel,
                timeout,
            }))
        };
        if let Some(channel) = self.live_channel(server, client) {
            return connection(channel);
        }
        // Serialize dials per pair, never transport-wide: concurrent
        // connects to the same pair collapse onto one socket, while a dial
        // to an unreachable server (bounded by the call timeout inside
        // `mux_dial`, but still seconds) cannot block connects to healthy
        // servers from other threads (the writer engines, other clients).
        let pair_lock = self
            .dialing
            .lock()
            .entry((server, client))
            .or_default()
            .clone();
        let _dial_guard = pair_lock.lock();
        if let Some(channel) = self.live_channel(server, client) {
            // Lost the race; the winner's channel serves this pair.
            return connection(channel);
        }
        metrics().client_connects.inc();
        swarm_metrics::trace!("net.connect", "client {client} -> server {server}");
        let stream = mux_dial(addr, server, client, timeout)?;
        let channel = MuxChannel::new(server);
        let ch2 = channel.clone();
        reactor.register(None, move |h| {
            ch2.set_handle(h.clone());
            Box::new(MuxSource::new(stream, ch2.clone()))
        });
        self.channels
            .lock()
            .insert((server, client), channel.clone());
        connection(channel)
    }

    fn servers(&self) -> Vec<ServerId> {
        self.servers.lock().keys().copied().collect()
    }
}

/// A lightweight handle onto a shared [`MuxChannel`]: every call is
/// tagged with a fresh request id and may overlap with calls from any
/// number of sibling connections on the same socket.
struct MuxConnection {
    server: ServerId,
    channel: Arc<MuxChannel>,
    timeout: Option<Duration>,
}

impl MuxConnection {
    fn exchange(&mut self, header: &[u8], payload: &Bytes) -> Result<Response> {
        let m = metrics();
        let span = m.client_call_us.span("net.client.call");
        let reply = self
            .channel
            .call(header, payload, self.timeout)
            .inspect_err(|_| m.client_call_errors.inc())?;
        drop(span);
        Response::decode_all_shared(&reply)
    }
}

impl Connection for MuxConnection {
    fn call(&mut self, request: &Request) -> Result<Response> {
        let mut header = ByteWriter::new();
        let _ = request.encode_split(&mut header);
        // Re-borrow the Store payload as a shared view (no copy); other
        // requests have no payload.
        let payload = match request {
            Request::Store { data, .. } => data.share(),
            _ => Bytes::new(),
        };
        self.exchange(header.as_slice(), &payload)
    }

    fn call_prepared(&mut self, prepared: &PreparedRequest) -> Result<Response> {
        self.exchange(prepared.header(), prepared.payload())
    }

    fn start_prepared(&mut self, prepared: &PreparedRequest) -> PendingCall {
        // Put the frame on the wire now; hand the caller a completion that
        // blocks on this request id only. The deadline is fixed at start
        // time so a windowed caller can't stretch it by harvesting late.
        let started = Instant::now();
        let call = match self.channel.start(prepared.header(), prepared.payload()) {
            Ok(call) => call,
            Err(e) => {
                metrics().client_call_errors.inc();
                return PendingCall::ready(Err(e));
            }
        };
        let deadline = self.timeout.map(|t| started + t);
        PendingCall::deferred(move || {
            let m = metrics();
            let reply = call
                .finish(deadline)
                .inspect_err(|_| m.client_call_errors.inc())?;
            m.client_call_us.record(started.elapsed());
            Response::decode_all_shared(&reply)
        })
    }

    fn pipeline_width(&self) -> usize {
        // Matches the server's per-connection inflight cap; going wider
        // would only park frames in the server's backpressure window.
        MAX_INFLIGHT_PER_CONN
    }

    fn server(&self) -> ServerId {
        self.server
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use crate::handler::testing::EchoStore;
    use crate::mux::encode_mux_hello;
    use std::io::{BufReader, BufWriter, Read};
    use swarm_types::FragmentId;

    fn spawn_echo(id: u32, config: ServerConfig) -> TcpServer {
        TcpServer::spawn_with_config(
            ServerId::new(id),
            "127.0.0.1:0",
            Arc::new(EchoStore::default()),
            config,
        )
        .unwrap()
    }

    #[test]
    fn tcp_roundtrip() {
        let server = spawn_echo(0, ServerConfig::default());
        let transport = TcpTransport::with_servers([(server.id(), server.addr())]);
        let mut conn = transport.connect(server.id(), ClientId::new(5)).unwrap();
        assert_eq!(conn.call(&Request::Ping).unwrap(), Response::Ok);

        let fid = FragmentId::new(ClientId::new(5), 1);
        let data = (0..255u8).collect::<Vec<_>>();
        conn.call(&Request::Store {
            fid,
            marked: true,
            ranges: vec![],
            data: data.clone().into(),
        })
        .unwrap();
        let resp = conn
            .call(&Request::Read {
                fid,
                offset: 10,
                len: 5,
            })
            .unwrap();
        assert_eq!(resp, Response::Data(data[10..15].to_vec().into()));
    }

    /// A peer that does not speak the mux session — a pre-mux client's
    /// bare-client-id hello, or a frame too short to carry a request id
    /// after a good handshake — loses its own connection and nothing
    /// else: a mux client on the same server keeps getting `Ok`.
    #[test]
    fn non_mux_peers_are_closed_and_nobody_else_is() {
        let server = spawn_echo(2, ServerConfig::default());
        let transport = TcpTransport::with_servers([(server.id(), server.addr())]);
        let mut healthy = transport.connect(server.id(), ClientId::new(1)).unwrap();
        assert_eq!(healthy.call(&Request::Ping).unwrap(), Response::Ok);

        let reads_eof = |mut stream: TcpStream| {
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut buf = [0u8; 16];
            // EOF or a reset: the connection is gone either way. A
            // timeout means the server kept it.
            match stream.read(&mut buf) {
                Ok(0) => true,
                Ok(_) => false,
                Err(e) => !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
            }
        };

        // Pre-mux hello: the 4-byte client id with no MUX1 magic.
        let mut classic = TcpStream::connect(server.addr()).unwrap();
        let mut w = ByteWriter::new();
        ClientId::new(77).encode(&mut w);
        write_frame(&mut classic, w.as_slice()).unwrap();
        assert!(reads_eof(classic), "bare-client-id hello must be refused");
        assert_eq!(healthy.call(&Request::Ping).unwrap(), Response::Ok);

        // Good handshake, then a frame shorter than the 8-byte request id.
        let mut short = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut short, &encode_mux_hello(ClientId::new(78))).unwrap();
        let ack = read_frame(&mut short).unwrap();
        assert_eq!(ServerId::decode_all(&ack).unwrap(), server.id());
        write_frame(&mut short, &[1, 2, 3]).unwrap();
        assert!(reads_eof(short), "id-less frame must close the connection");
        assert_eq!(healthy.call(&Request::Ping).unwrap(), Response::Ok);
    }

    /// A request under a retired tag (14 was the cooperative cache's peer
    /// read) on a live mux session is answered with a `Protocol` error
    /// under its own request id, and the session keeps serving.
    #[test]
    fn retired_request_tag_gets_a_protocol_error_and_the_session_lives() {
        let server = spawn_echo(5, ServerConfig::default());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut stream, &encode_mux_hello(ClientId::new(3))).unwrap();
        let ack = read_frame(&mut stream).unwrap();
        assert_eq!(ServerId::decode_all(&ack).unwrap(), server.id());

        let exchange = |stream: &mut TcpStream, mux_id: u64, body: &[u8]| {
            write_frame(&mut *stream, &[&mux_id.to_le_bytes()[..], body].concat()).unwrap();
            let reply = read_frame(&mut *stream).unwrap();
            assert_eq!(reply[..MUX_ID_PREFIX], mux_id.to_le_bytes(), "reply id");
            Response::decode_all(&reply[MUX_ID_PREFIX..]).unwrap()
        };
        // A peer read with no hints, byte for byte as it used to be sent.
        let retired = [
            14u8, 3, 0, 0, 0, 0, 7, 0, 0, 128, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0,
        ];
        let err = exchange(&mut stream, 41, &retired)
            .into_result()
            .unwrap_err();
        assert!(matches!(err, SwarmError::Protocol(_)), "{err}");
        let ping = Request::Ping.encode_to_vec();
        assert_eq!(exchange(&mut stream, 42, &ping), Response::Ok);
    }

    #[test]
    fn multiple_clients_share_a_server() {
        let server = TcpServer::spawn(
            ServerId::new(3),
            "127.0.0.1:0",
            Arc::new(EchoStore::default()),
        )
        .unwrap();
        let transport = TcpTransport::with_servers([(ServerId::new(3), server.addr())]);
        let mut handles = Vec::new();
        let transport = Arc::new(transport);
        for c in 0..4u32 {
            let t = transport.clone();
            handles.push(std::thread::spawn(move || {
                let mut conn = t.connect(ServerId::new(3), ClientId::new(c)).unwrap();
                for i in 0..20u64 {
                    let fid = FragmentId::new(ClientId::new(c), i);
                    conn.call(&Request::Store {
                        fid,
                        marked: false,
                        ranges: vec![],
                        data: vec![c as u8; 64].into(),
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn connect_to_stopped_server_is_unavailable() {
        let mut server = TcpServer::spawn(
            ServerId::new(0),
            "127.0.0.1:0",
            Arc::new(EchoStore::default()),
        )
        .unwrap();
        let addr = server.addr();
        server.shutdown();
        drop(server);
        let transport = TcpTransport::with_servers([(ServerId::new(0), addr)]);
        // Either connect fails or the first call does; both surface as
        // ServerUnavailable.
        match transport.connect(ServerId::new(0), ClientId::new(0)) {
            Err(e) => assert!(matches!(e, SwarmError::ServerUnavailable(_)), "{e}"),
            Ok(mut conn) => {
                let err = conn.call(&Request::Ping).unwrap_err();
                assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
            }
        }
    }

    #[test]
    fn unknown_server_id_fails_fast() {
        let transport = TcpTransport::new();
        assert!(transport
            .connect(ServerId::new(1), ClientId::new(0))
            .is_err());
    }

    /// Regression test: a server that accepts the handshake but never
    /// answers a request used to wedge the client forever; with call
    /// timeouts the call fails as ServerUnavailable within the timeout.
    #[test]
    fn call_times_out_on_hung_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stall = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let _hello = read_frame(&mut reader).unwrap();
            let mut w = ByteWriter::new();
            ServerId::new(9).encode(&mut w);
            write_frame(&mut writer, w.as_slice()).unwrap();
            // Swallow the request and never reply; exit when the client
            // hangs up (the read fails once the connection is dropped).
            let _req = read_frame(&mut reader);
            let _ = read_frame(&mut reader);
        });

        let transport = TcpTransport::with_servers([(ServerId::new(9), addr)]);
        transport.set_call_timeout(Some(Duration::from_millis(200)));
        let mut conn = transport
            .connect(ServerId::new(9), ClientId::new(1))
            .unwrap();
        let start = std::time::Instant::now();
        let err = conn.call(&Request::Ping).unwrap_err();
        assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "hung for {:?} instead of timing out",
            start.elapsed()
        );
        drop(conn);
        // Dropping the transport closes the mux socket (the stall thread
        // is blocked reading from it).
        drop(transport);
        stall.join().unwrap();
    }

    /// A peer that completes the dial but sends a garbled handshake ack
    /// must surface as ServerUnavailable (so retry engages), not as a raw
    /// decode error.
    #[test]
    fn garbled_handshake_is_unavailable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let imposter = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let _hello = read_frame(&mut reader).unwrap();
            // Reply with a frame that is not a ServerId encoding.
            write_frame(&mut writer, b"not a server id").unwrap();
        });
        let transport = TcpTransport::with_servers([(ServerId::new(2), addr)]);
        let err = match transport.connect(ServerId::new(2), ClientId::new(1)) {
            Ok(_) => panic!("garbled handshake should fail to connect"),
            Err(err) => err,
        };
        assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
        imposter.join().unwrap();
    }

    /// Large stores arrive intact through the vectored write path and a
    /// prepared request can be replayed on a fresh connection without
    /// re-encoding.
    #[test]
    fn vectored_store_and_prepared_call_roundtrip() {
        let server = TcpServer::spawn(
            ServerId::new(0),
            "127.0.0.1:0",
            Arc::new(EchoStore::default()),
        )
        .unwrap();
        let transport = TcpTransport::with_servers([(ServerId::new(0), server.addr())]);
        let mut conn = transport
            .connect(ServerId::new(0), ClientId::new(5))
            .unwrap();
        let data: Vec<u8> = (0..(256 * 1024u32)).map(|i| (i % 251) as u8).collect();
        let fid = FragmentId::new(ClientId::new(5), 7);
        let prepared = PreparedRequest::new(Request::Store {
            fid,
            marked: false,
            ranges: vec![],
            data: data.clone().into(),
        });
        assert_eq!(conn.call_prepared(&prepared).unwrap(), Response::Ok);
        let resp = conn
            .call(&Request::Read {
                fid,
                offset: 0,
                len: data.len() as u32,
            })
            .unwrap();
        assert_eq!(resp, Response::Data(data.into()));
    }

    /// The configured timeout is observable and `None` restores blocking
    /// semantics for newly opened connections.
    #[test]
    fn call_timeout_is_configurable() {
        let transport = TcpTransport::new();
        assert_eq!(transport.call_timeout(), Some(DEFAULT_CALL_TIMEOUT));
        transport.set_call_timeout(Some(Duration::from_secs(1)));
        assert_eq!(transport.call_timeout(), Some(Duration::from_secs(1)));
        transport.set_call_timeout(None);
        assert_eq!(transport.call_timeout(), None);
    }

    /// One multiplexed connection sustains at least 8 concurrently
    /// in-flight calls: a barrier handler refuses to answer any of the 8
    /// until all 8 have *arrived*, which is only possible if they share
    /// the socket and pipeline.
    #[test]
    fn pipelined_calls_share_one_connection() {
        struct BarrierHandler(std::sync::Barrier);
        impl RequestHandler for BarrierHandler {
            fn handle(&self, _client: ClientId, _request: Request) -> Response {
                self.0.wait();
                Response::Ok
            }
        }
        const CALLS: usize = 8;
        let server = TcpServer::spawn_with_config(
            ServerId::new(7),
            "127.0.0.1:0",
            Arc::new(BarrierHandler(std::sync::Barrier::new(CALLS))),
            ServerConfig {
                workers: CALLS,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let transport = Arc::new(TcpTransport::with_servers([(
            ServerId::new(7),
            server.addr(),
        )]));
        let handles: Vec<_> = (0..CALLS)
            .map(|_| {
                let t = transport.clone();
                std::thread::spawn(move || {
                    let mut conn = t.connect(ServerId::new(7), ClientId::new(1)).unwrap();
                    conn.call(&Request::Ping).unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), Response::Ok);
        }
        assert_eq!(
            transport.mux_channels(),
            1,
            "all 8 calls must share one socket"
        );
        assert!(
            transport.mux_inflight_peak() >= CALLS,
            "peak in-flight {} < {CALLS}",
            transport.mux_inflight_peak()
        );
    }

    /// A connection that goes silent mid-frame is reaped by the read
    /// deadline while a healthy connection on the same server keeps
    /// serving.
    #[test]
    fn stalled_connection_is_reaped_while_healthy_conn_serves() {
        let server = spawn_echo(
            4,
            ServerConfig {
                read_deadline: Some(Duration::from_millis(150)),
                ..ServerConfig::default()
            },
        );

        // Slow loris: real handshake, then 4 bytes of a frame header,
        // then silence.
        let mut loris = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut loris, &encode_mux_hello(ClientId::new(99))).unwrap();
        let ack = read_frame(&mut loris).unwrap();
        assert_eq!(ServerId::decode_all(&ack).unwrap(), ServerId::new(4));
        loris
            .write_all(&swarm_types::constants::FRAME_MAGIC.to_le_bytes())
            .unwrap();
        loris.flush().unwrap();

        let reaped_before = swarm_metrics::snapshot().counter("net.server.conns_reaped");

        // Healthy client keeps getting served across the loris's
        // reaping. Tests share one core, so this client may itself go
        // quiet past the (short) deadline and be reaped — that is the
        // deadline working as designed, and a real client redials; the
        // assertion is that the *server* keeps answering throughout.
        let transport = TcpTransport::with_servers([(ServerId::new(4), server.addr())]);
        let mut conn = transport
            .connect(ServerId::new(4), ClientId::new(1))
            .unwrap();
        let mut ping = move || {
            let resp = match conn.call(&Request::Ping) {
                Ok(resp) => resp,
                Err(_) => {
                    conn = transport
                        .connect(ServerId::new(4), ClientId::new(1))
                        .unwrap();
                    conn.call(&Request::Ping).unwrap()
                }
            };
            assert_eq!(resp, Response::Ok);
        };

        // The loris is severed when its socket reads EOF/reset (a
        // read *timeout* is not severance — keep waiting).
        loris
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut buf = [0u8; 16];
        loop {
            ping();
            match loris.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => panic!("reaped conn sent {n} bytes"),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    assert!(
                        Instant::now() < deadline,
                        "stalled connection was never reaped"
                    );
                }
                Err(_) => break, // reset is also a severed connection
            }
        }
        let reaped_after = swarm_metrics::snapshot().counter("net.server.conns_reaped");
        assert!(reaped_after > reaped_before, "reap not counted");
        // And the server still answers after the reap.
        ping();
    }

    /// A healthy-but-idle pooled connection is also reaped (freeing
    /// server state); the client transparently redials on next use.
    #[test]
    fn idle_connection_reap_is_transparent_to_pool() {
        let server = spawn_echo(
            6,
            ServerConfig {
                read_deadline: Some(Duration::from_millis(100)),
                ..ServerConfig::default()
            },
        );
        let transport = Arc::new(TcpTransport::with_servers([(
            ServerId::new(6),
            server.addr(),
        )]));
        let pool = crate::pool::ConnectionPool::new(transport.clone(), ClientId::new(1));
        assert_eq!(
            pool.call(ServerId::new(6), &Request::Ping).unwrap(),
            Response::Ok
        );
        // Idle well past the server deadline; the channel dies server-side.
        std::thread::sleep(Duration::from_millis(400));
        // The pool's transparent redial absorbs the reaped connection.
        assert_eq!(
            pool.call(ServerId::new(6), &Request::Ping).unwrap(),
            Response::Ok
        );
    }

    /// Holds every request until the test opens it (or it opens itself
    /// after 10 s, so a failing test cannot hang the suite), then logs
    /// which client's request ran, in order.
    #[derive(Default)]
    struct Gated {
        open: Mutex<bool>,
        opened: parking_lot::Condvar,
        ran: Mutex<Vec<ClientId>>,
    }

    impl Gated {
        fn open(&self) {
            *self.open.lock() = true;
            self.opened.notify_all();
        }
    }

    impl RequestHandler for Gated {
        fn handle(&self, client: ClientId, _request: Request) -> Response {
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut open = self.open.lock();
            while !*open {
                self.opened.wait_for(&mut open, Duration::from_millis(50));
                *open |= Instant::now() >= deadline;
            }
            drop(open);
            self.ran.lock().push(client);
            Response::Ok
        }
    }

    /// A one-worker server in front of `gate`.
    fn spawn_gated(id: u32, gate: &Arc<Gated>) -> TcpServer {
        TcpServer::spawn_with_config(
            ServerId::new(id),
            "127.0.0.1:0",
            gate.clone(),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    }

    /// Waits until the server's pool shows `(busy workers, queued jobs)`.
    fn wait_for_load(server: &TcpServer, load: (usize, usize)) {
        let pool = server.pool.as_ref().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.load() != load {
            assert!(
                Instant::now() < deadline,
                "pool load {:?}, want {load:?}",
                pool.load()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn store(client: ClientId, seq: u64, len: usize) -> PreparedRequest {
        PreparedRequest::new(Request::Store {
            fid: FragmentId::new(client, seq),
            marked: false,
            ranges: vec![],
            data: vec![0u8; len].into(),
        })
    }

    fn read(client: ClientId) -> PreparedRequest {
        PreparedRequest::new(Request::Read {
            fid: FragmentId::new(client, 0),
            offset: 0,
            len: 1,
        })
    }

    /// A saturated server answers a client's stores beyond its backlog
    /// with `Busy` pushback instead of queueing them; a read behind them
    /// on the same connection still queues. The gate makes the count
    /// exact: with the one worker held by a first store, 32 (the
    /// per-client backlog) of the next 47 queue and 15 bounce.
    #[test]
    fn saturated_server_bounces_stores_with_busy() {
        let gate = Arc::new(Gated::default());
        let server = spawn_gated(9, &gate);
        let throttled_before = swarm_metrics::snapshot().counter("server.client_throttled");
        let transport = TcpTransport::with_servers([(server.id(), server.addr())]);
        let client = ClientId::new(1);
        let mut conn = transport.connect(server.id(), client).unwrap();
        let mut pending = vec![conn.start_prepared(&store(client, 0, 512))];
        wait_for_load(&server, (1, 0));
        pending.extend((1..48).map(|i| conn.start_prepared(&store(client, i, 512))));
        // One socket's stores are dispatched in order, so the last one's
        // `Busy` means every store is queued or bounced. The read goes
        // out only now: the client sends reads ahead of queued stores.
        let last = pending.pop().unwrap().wait().unwrap().into_result();
        assert!(matches!(last, Err(SwarmError::Busy(_))), "{last:?}");
        let read = conn.start_prepared(&read(client));
        wait_for_load(&server, (1, 32 + 1));
        gate.open();
        let mut busy = 1;
        for p in pending {
            match p.wait().unwrap().into_result() {
                Ok(_) => {}
                Err(SwarmError::Busy(s)) => {
                    assert_eq!(s, server.id(), "Busy names the throttling server");
                    busy += 1;
                }
                Err(e) => panic!("unexpected store outcome: {e}"),
            }
        }
        assert_eq!(busy, 48 - 1 - 32, "stores bounced");
        let throttled_after = swarm_metrics::snapshot().counter("server.client_throttled");
        assert!(
            throttled_after - throttled_before >= busy,
            "throttle counter moved by {} for {busy} bounces",
            throttled_after - throttled_before
        );
        assert_eq!(
            read.wait().unwrap(),
            Response::Ok,
            "a read must never bounce with Busy"
        );
    }

    /// Deficit round robin through a real server: client A's first store
    /// holds the one worker while the rest of A's burst of 64 KiB stores
    /// queues behind it, then client B's single read queues behind those.
    /// When the worker frees, B's read runs within two jobs; FIFO would
    /// run it after all 16 of A's stores.
    #[test]
    fn a_light_clients_read_overtakes_a_heavy_clients_backlog() {
        const BURST: u64 = 16;
        let gate = Arc::new(Gated::default());
        let server = spawn_gated(10, &gate);
        let transport = TcpTransport::with_servers([(server.id(), server.addr())]);
        let (heavy, light) = (ClientId::new(1), ClientId::new(2));
        let mut conn = transport.connect(server.id(), heavy).unwrap();
        let pending: Vec<_> = (0..BURST)
            .map(|i| conn.start_prepared(&store(heavy, i, 64 * 1024)))
            .collect();
        wait_for_load(&server, (1, BURST as usize - 1));
        let mut conn = transport.connect(server.id(), light).unwrap();
        let read = conn.start_prepared(&read(light));
        wait_for_load(&server, (1, BURST as usize));
        gate.open();
        assert_eq!(read.wait().unwrap(), Response::Ok);
        for p in pending {
            assert_eq!(p.wait().unwrap(), Response::Ok);
        }
        let ran = gate.ran.lock().clone();
        let at = ran.iter().position(|&c| c == light).unwrap();
        assert!(
            at <= 2,
            "B's read ran at {at}, FIFO would be {BURST}: {ran:?}"
        );
    }
}
