//! Outside-in tracing: spans recorded by decorating the trait boundaries
//! the stack already has (`Transport`/`Connection`, `RequestHandler`,
//! `FragmentStore`, `Service`) and by timing calls into public functions.
//! Nothing inside the crates is instrumented.
//!
//! The wire carries no request id yet, so a span names what it can see —
//! layer, client, server, fragment id — and `analysis` matches a child to
//! its parent by those plus interval containment on this one clock.
//!
//! Every decorator forwards *every* trait method. The default bodies of
//! `Connection::{call_prepared, start_prepared, pipeline_width}` and
//! `RequestHandler::try_handle_fast` would silently turn the mux into a
//! one-slot pipeline and switch the reactor fast path off.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use swarm_log::{Log, ReplayEntry};
use swarm_net::proto::wire_error;
use swarm_net::{
    Connection, PendingCall, PreparedRequest, Request, RequestHandler, Response, Transport,
};
use swarm_server::{FileStore, FragmentMeta, FragmentStore};
use swarm_services::Service;
use swarm_types::{BlockAddr, Bytes, ClientId, FragmentId, Result, ServerId, ServiceId};

/// Nanoseconds since the first call in this process — the one clock every
/// span and every end-to-end sample is taken on.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Where a span was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// `Log::read` called by a workload (raw-log clients).
    LogRead,
    /// `Log::flush` / `LogicalDisk::flush` called by a workload.
    Flush,
    /// `LogicalDisk::read` called by a workload.
    DiskRead,
    /// One RPC as the client saw it: submit to harvest.
    Rpc,
    /// `RequestHandler::handle` on a server worker.
    Handle,
    /// `RequestHandler::try_handle_fast` that answered on the reactor.
    FastHandle,
    /// `FragmentStore::store` (includes group-commit wait and fsync).
    StoreStore,
    /// `FragmentStore::read`.
    StoreRead,
    /// One `Cleaner::clean_pass`.
    CleanPass,
    /// One `Service::write_checkpoint`.
    Checkpoint,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::LogRead => "log.read",
            Layer::Flush => "log.flush",
            Layer::DiskRead => "services.disk_read",
            Layer::Rpc => "net.rpc",
            Layer::Handle => "server.handle",
            Layer::FastHandle => "server.fast_handle",
            Layer::StoreStore => "store.store",
            Layer::StoreRead => "store.read",
            Layer::CleanPass => "cleaner.pass",
            Layer::Checkpoint => "services.checkpoint",
        }
    }
}

/// The request kinds the per-layer metrics tell apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RpcKind {
    Store,
    Read,
    ReadBatch,
    Other,
}

impl RpcKind {
    pub fn name(self) -> &'static str {
        match self {
            RpcKind::Store => "store",
            RpcKind::Read => "read",
            RpcKind::ReadBatch => "read_batch",
            RpcKind::Other => "other",
        }
    }
}

/// Kind and fragment id of a request, as far as it names one (0 if not).
///
/// `read` is a block read. The log also uses `Request::Read` to fetch
/// whole fragments (reconstruction's member fetches, the cleaner's scan,
/// recovery); those start at offset 0, which a block never does because
/// the fragment header comes first, and they are counted under `other` so
/// that a megabyte fetch does not sit in the mean of the 4 KiB reads.
pub fn classify(request: &Request) -> (RpcKind, u64) {
    match request {
        Request::Store { fid, .. } => (RpcKind::Store, fid.raw()),
        Request::Read { fid, offset: 0, .. } => (RpcKind::Other, fid.raw()),
        Request::Read { fid, .. } => (RpcKind::Read, fid.raw()),
        Request::ReadBatch { reads } => {
            (RpcKind::ReadBatch, reads.first().map_or(0, |r| r.fid.raw()))
        }
        Request::Locate { fid, .. }
        | Request::Delete { fid }
        | Request::Preallocate { fid, .. } => (RpcKind::Other, fid.raw()),
        _ => (RpcKind::Other, 0),
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub kind: RpcKind,
    /// Raw client id (0 where the layer does not know it).
    pub client: u32,
    /// Raw server id (`u32::MAX` where the layer does not know it).
    pub server: u32,
    /// Raw fragment id (0 where the layer does not know it).
    pub fid: u64,
    pub start: u64,
    pub end: u64,
    /// `LogRead`/`DiskRead`: the read reconstructed a fragment.
    pub flag: bool,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub const NO_SERVER: u32 = u32::MAX;

/// Counts taken at the same boundaries as the spans.
#[derive(Default)]
pub struct Counts {
    pub connects: AtomicU64,
    pub errors: AtomicU64,
    pub busy_replies: AtomicU64,
    pub bytes_out: AtomicU64,
    pub bytes_in: AtomicU64,
    /// Reads `try_handle_fast` was offered and declined.
    pub fast_declined: AtomicU64,
    pub store_bytes: AtomicU64,
}

const SHARDS: usize = 16;

/// In-memory span sink. Recording is off until [`Tracer::set_on`]: a run
/// traces its measured phase only, not the load or the crash check.
pub struct Tracer {
    on: AtomicBool,
    shards: Vec<Mutex<Vec<Span>>>,
    pub counts: Counts,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            on: AtomicBool::new(false),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            counts: Counts::default(),
        })
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        if !self.is_on() {
            return;
        }
        // Threads spread over the shards round-robin, so the sink's lock
        // is almost never contended.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
        }
        let shard = SHARD.with(|s| *s);
        self.shards[shard]
            .lock()
            .expect("no span is pushed while panicking")
            .push(span);
    }

    fn count(&self, counter: &AtomicU64, n: u64) {
        if self.is_on() {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Takes every span recorded so far, ordered by start time.
    pub fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.append(&mut shard.lock().expect("no span is pushed while panicking"));
        }
        all.sort_by_key(|s| (s.start, s.end));
        all
    }
}

/// Most spans written to a trace file; a read-heavy run records millions
/// and the file is for reading by eye or a short script.
pub const TRACE_FILE_SPANS: usize = 50_000;

/// Writes the first [`TRACE_FILE_SPANS`] spans as JSON.
pub fn write_trace(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let shown = spans.len().min(TRACE_FILE_SPANS);
    writeln!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"ns since process start\",\
         \"total_spans\":{},\"written_spans\":{shown},\"spans\":[",
        spans.len()
    )?;
    for (i, s) in spans[..shown].iter().enumerate() {
        let server = if s.server == NO_SERVER {
            "null".to_string()
        } else {
            s.server.to_string()
        };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"kind\":\"{}\",\"client\":{},\"server\":{server},\"fid\":{},\
             \"start\":{},\"end\":{},\"flag\":{}}}{}",
            s.layer.name(),
            s.kind.name(),
            s.client,
            s.fid,
            s.start,
            s.end,
            s.flag,
            if i + 1 == shown { "" } else { "," }
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

// ---------------------------------------------------------------------------
// Transport / Connection
// ---------------------------------------------------------------------------

/// A [`Transport`] whose connections record one `Rpc` span per call.
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
}

impl TracedTransport {
    pub fn new(inner: Arc<dyn Transport>, tracer: Arc<Tracer>) -> TracedTransport {
        TracedTransport { inner, tracer }
    }
}

impl Transport for TracedTransport {
    fn connect(&self, server: ServerId, client: ClientId) -> Result<Box<dyn Connection>> {
        self.tracer.count(&self.tracer.counts.connects, 1);
        let inner = self
            .inner
            .connect(server, client)
            .inspect_err(|_| self.tracer.count(&self.tracer.counts.errors, 1))?;
        Ok(Box::new(TracedConnection {
            inner,
            client: client.raw(),
            tracer: self.tracer.clone(),
        }))
    }

    fn servers(&self) -> Vec<ServerId> {
        self.inner.servers()
    }
}

struct TracedConnection {
    inner: Box<dyn Connection>,
    client: u32,
    tracer: Arc<Tracer>,
}

/// What a call needs to remember until its reply is harvested.
struct CallTag {
    tracer: Arc<Tracer>,
    kind: RpcKind,
    fid: u64,
    client: u32,
    server: u32,
    start: u64,
}

impl CallTag {
    fn finish(self, result: &Result<Response>) {
        let t = &self.tracer;
        match result {
            Err(_) => t.count(&t.counts.errors, 1),
            Ok(Response::Err { code, .. }) if *code == wire_error::code::BUSY => {
                t.count(&t.counts.busy_replies, 1)
            }
            Ok(resp) => t.count(&t.counts.bytes_in, reply_bytes(resp)),
        }
        t.record(Span {
            layer: Layer::Rpc,
            kind: self.kind,
            client: self.client,
            server: self.server,
            fid: self.fid,
            start: self.start,
            end: now_ns(),
            flag: false,
        });
    }
}

/// Payload bytes of a reply (the frame adds a fixed few dozen).
fn reply_bytes(resp: &Response) -> u64 {
    match resp {
        Response::Data(b) | Response::Located(Some(b)) => b.len() as u64,
        _ => 0,
    }
}

impl TracedConnection {
    fn tag(&self, request: &Request, bytes_out: u64) -> CallTag {
        let (kind, fid) = classify(request);
        self.tracer.count(&self.tracer.counts.bytes_out, bytes_out);
        CallTag {
            tracer: self.tracer.clone(),
            kind,
            fid,
            client: self.client,
            server: self.inner.server().raw(),
            start: now_ns(),
        }
    }
}

fn prepared_bytes(prepared: &PreparedRequest) -> u64 {
    (prepared.header().len() + prepared.payload().len()) as u64
}

impl Connection for TracedConnection {
    fn call(&mut self, request: &Request) -> Result<Response> {
        let out = match request {
            Request::Store { data, .. } => data.len() as u64,
            _ => 0,
        };
        let tag = self.tag(request, out);
        let result = self.inner.call(request);
        tag.finish(&result);
        result
    }

    fn call_prepared(&mut self, prepared: &PreparedRequest) -> Result<Response> {
        let tag = self.tag(prepared.request(), prepared_bytes(prepared));
        let result = self.inner.call_prepared(prepared);
        tag.finish(&result);
        result
    }

    fn start_prepared(&mut self, prepared: &PreparedRequest) -> PendingCall {
        let tag = self.tag(prepared.request(), prepared_bytes(prepared));
        let pending = self.inner.start_prepared(prepared);
        // The span ends when the caller harvests the reply, which is when
        // the caller stops waiting for it.
        PendingCall::deferred(move || {
            let result = pending.wait();
            tag.finish(&result);
            result
        })
    }

    fn pipeline_width(&self) -> usize {
        self.inner.pipeline_width()
    }

    fn server(&self) -> ServerId {
        self.inner.server()
    }
}

// ---------------------------------------------------------------------------
// RequestHandler
// ---------------------------------------------------------------------------

/// A [`RequestHandler`] that records one `Handle` span per request served
/// on a worker and one `FastHandle` span per read answered on the reactor.
pub struct TracedHandler {
    inner: Arc<dyn RequestHandler>,
    server: u32,
    tracer: Arc<Tracer>,
}

impl TracedHandler {
    pub fn new(inner: Arc<dyn RequestHandler>, server: ServerId, tracer: Arc<Tracer>) -> Self {
        TracedHandler {
            inner,
            server: server.raw(),
            tracer,
        }
    }

    fn span(&self, layer: Layer, client: ClientId, kind: RpcKind, fid: u64, start: u64) {
        self.tracer.record(Span {
            layer,
            kind,
            client: client.raw(),
            server: self.server,
            fid,
            start,
            end: now_ns(),
            flag: false,
        });
    }
}

impl RequestHandler for TracedHandler {
    fn handle(&self, client: ClientId, request: Request) -> Response {
        let (kind, fid) = classify(&request);
        let start = now_ns();
        let response = self.inner.handle(client, request);
        self.span(Layer::Handle, client, kind, fid, start);
        response
    }

    fn try_handle_fast(&self, client: ClientId, request: &Request) -> Option<Response> {
        let start = now_ns();
        let response = self.inner.try_handle_fast(client, request);
        let (kind, fid) = classify(request);
        match &response {
            Some(_) => self.span(Layer::FastHandle, client, kind, fid, start),
            None if kind == RpcKind::Read => {
                self.tracer.count(&self.tracer.counts.fast_declined, 1)
            }
            None => {}
        }
        response
    }
}

// ---------------------------------------------------------------------------
// FragmentStore
// ---------------------------------------------------------------------------

/// The store every benchmark server runs on: a [`FileStore`] the
/// benchmark can still reach for its journal counters, which records
/// `StoreStore`/`StoreRead` spans when a tracer is attached. Untraced
/// runs pay one `Option` test per call.
pub struct StoreHandle {
    inner: FileStore,
    server: u32,
    tracer: Option<Arc<Tracer>>,
}

impl StoreHandle {
    pub fn new(inner: FileStore, server: ServerId, tracer: Option<Arc<Tracer>>) -> StoreHandle {
        StoreHandle {
            inner,
            server: server.raw(),
            tracer,
        }
    }

    pub fn file_store(&self) -> &FileStore {
        &self.inner
    }

    fn span(&self, layer: Layer, fid: FragmentId, start: u64) {
        if let Some(t) = &self.tracer {
            t.record(Span {
                layer,
                kind: RpcKind::Other,
                client: fid.client().raw(),
                server: self.server,
                fid: fid.raw(),
                start,
                end: now_ns(),
                flag: false,
            });
        }
    }

    fn start(&self) -> u64 {
        if self.tracer.is_some() {
            now_ns()
        } else {
            0
        }
    }
}

impl FragmentStore for StoreHandle {
    fn store(&self, fid: FragmentId, data: Bytes, marked: bool) -> Result<()> {
        let start = self.start();
        let len = data.len() as u64;
        let result = self.inner.store(fid, data, marked);
        if let Some(t) = &self.tracer {
            t.count(&t.counts.store_bytes, len);
        }
        self.span(Layer::StoreStore, fid, start);
        result
    }

    fn read(&self, fid: FragmentId, offset: u32, len: u32) -> Result<Bytes> {
        let start = self.start();
        let result = self.inner.read(fid, offset, len);
        self.span(Layer::StoreRead, fid, start);
        result
    }

    fn delete(&self, fid: FragmentId) -> Result<()> {
        self.inner.delete(fid)
    }

    fn preallocate(&self, fid: FragmentId, len: u32) -> Result<()> {
        self.inner.preallocate(fid, len)
    }

    fn meta(&self, fid: FragmentId) -> Option<FragmentMeta> {
        self.inner.meta(fid)
    }

    fn last_marked(&self, client: ClientId) -> Option<FragmentId> {
        self.inner.last_marked(client)
    }

    fn list(&self) -> Vec<FragmentId> {
        self.inner.list()
    }

    fn fragment_count(&self) -> u64 {
        self.inner.fragment_count()
    }

    fn byte_count(&self) -> u64 {
        self.inner.byte_count()
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }
}

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

/// A [`Service`] that records one `Checkpoint` span per
/// `write_checkpoint` (the cleaner forces these from its own thread, where
/// the workload cannot see them).
pub struct TracedService<S> {
    inner: S,
    client: u32,
    tracer: Arc<Tracer>,
}

impl<S: Service> TracedService<S> {
    pub fn new(inner: S, client: ClientId, tracer: Arc<Tracer>) -> Self {
        TracedService {
            inner,
            client: client.raw(),
            tracer,
        }
    }
}

impl<S: Service> Service for TracedService<S> {
    fn id(&self) -> ServiceId {
        self.inner.id()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn restore_checkpoint(&mut self, data: &[u8]) -> Result<()> {
        self.inner.restore_checkpoint(data)
    }

    fn replay(&mut self, entry: &ReplayEntry) -> Result<()> {
        self.inner.replay(entry)
    }

    fn block_moved(&mut self, old: BlockAddr, new: BlockAddr, create: &[u8]) -> Result<()> {
        self.inner.block_moved(old, new, create)
    }

    fn write_checkpoint(&mut self, log: &Log) -> Result<()> {
        let start = now_ns();
        let result = self.inner.write_checkpoint(log);
        self.tracer.record(Span {
            layer: Layer::Checkpoint,
            kind: RpcKind::Other,
            client: self.client,
            server: NO_SERVER,
            fid: 0,
            start,
            end: now_ns(),
            flag: false,
        });
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use swarm_types::SwarmError;

    /// A connection that pipelines: `start_prepared` returns a deferred
    /// call, and it counts which methods were reached.
    #[derive(Default)]
    struct Probe {
        calls: Arc<AtomicUsize>,
        prepared: Arc<AtomicUsize>,
        started: Arc<AtomicUsize>,
    }

    impl Connection for Probe {
        fn call(&mut self, _request: &Request) -> Result<Response> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            Ok(Response::Ok)
        }
        fn call_prepared(&mut self, _p: &PreparedRequest) -> Result<Response> {
            self.prepared.fetch_add(1, Ordering::SeqCst);
            Ok(Response::Data(vec![0u8; 100].into()))
        }
        fn start_prepared(&mut self, _p: &PreparedRequest) -> PendingCall {
            self.started.fetch_add(1, Ordering::SeqCst);
            PendingCall::deferred(|| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                Err(SwarmError::ServerUnavailable(ServerId::new(3)))
            })
        }
        fn pipeline_width(&self) -> usize {
            64
        }
        fn server(&self) -> ServerId {
            ServerId::new(3)
        }
    }

    struct ProbeTransport(Arc<AtomicUsize>, Arc<AtomicUsize>, Arc<AtomicUsize>);

    impl Transport for ProbeTransport {
        fn connect(&self, _server: ServerId, _client: ClientId) -> Result<Box<dyn Connection>> {
            Ok(Box::new(Probe {
                calls: self.0.clone(),
                prepared: self.1.clone(),
                started: self.2.clone(),
            }))
        }
        fn servers(&self) -> Vec<ServerId> {
            vec![ServerId::new(3)]
        }
    }

    fn read_request() -> Request {
        Request::Read {
            fid: FragmentId::new(ClientId::new(7), 9),
            offset: 64,
            len: 100,
        }
    }

    #[test]
    fn connection_wrapper_forwards_every_method() {
        let (c, p, s) = (
            Arc::new(AtomicUsize::new(0)),
            Arc::new(AtomicUsize::new(0)),
            Arc::new(AtomicUsize::new(0)),
        );
        let tracer = Tracer::new();
        tracer.set_on(true);
        let transport = TracedTransport::new(
            Arc::new(ProbeTransport(c.clone(), p.clone(), s.clone())),
            tracer.clone(),
        );
        assert_eq!(transport.servers(), vec![ServerId::new(3)]);
        let mut conn = transport
            .connect(ServerId::new(3), ClientId::new(7))
            .unwrap();
        // The inner width and server pass through: no one-slot pipeline.
        assert_eq!(conn.pipeline_width(), 64);
        assert_eq!(conn.server(), ServerId::new(3));

        conn.call(&Request::Ping).unwrap();
        let prepared = PreparedRequest::new(read_request());
        conn.call_prepared(&prepared).unwrap();
        let pending = conn.start_prepared(&prepared);
        // The inner call is genuinely in flight: nothing recorded until
        // the harvest.
        assert_eq!(tracer.drain().len(), 2);
        let before = now_ns();
        assert!(pending.wait().is_err());
        assert_eq!(
            (
                c.load(Ordering::SeqCst),
                p.load(Ordering::SeqCst),
                s.load(Ordering::SeqCst)
            ),
            (1, 1, 1)
        );
        let spans = tracer.drain();
        assert_eq!(spans.len(), 1);
        let span = spans[0];
        assert_eq!((span.layer, span.kind), (Layer::Rpc, RpcKind::Read));
        assert_eq!((span.client, span.server), (7, 3));
        assert_eq!(span.fid, FragmentId::new(ClientId::new(7), 9).raw());
        // It started at submit and ended at harvest, 2 ms later.
        assert!(span.start <= before && span.dur() >= 2_000_000);
        let n = &tracer.counts;
        assert_eq!(n.connects.load(Ordering::SeqCst), 1);
        assert_eq!(n.errors.load(Ordering::SeqCst), 1);
        assert_eq!(n.bytes_in.load(Ordering::SeqCst), 100);
    }

    struct FastOnly;

    impl RequestHandler for FastOnly {
        fn handle(&self, _client: ClientId, _request: Request) -> Response {
            Response::Ok
        }
        fn try_handle_fast(&self, _client: ClientId, request: &Request) -> Option<Response> {
            matches!(request, Request::Read { offset: 64, .. }).then_some(Response::Ok)
        }
    }

    #[test]
    fn handler_wrapper_forwards_the_fast_path() {
        let tracer = Tracer::new();
        tracer.set_on(true);
        let h = TracedHandler::new(Arc::new(FastOnly), ServerId::new(2), tracer.clone());
        let client = ClientId::new(7);
        assert!(h.try_handle_fast(client, &read_request()).is_some());
        let declined = Request::Read {
            fid: FragmentId::new(client, 1),
            offset: 8,
            len: 1,
        };
        assert!(h.try_handle_fast(client, &declined).is_none());
        assert!(h.try_handle_fast(client, &Request::Ping).is_none());
        assert_eq!(h.handle(client, declined), Response::Ok);
        let layers: Vec<Layer> = tracer.drain().iter().map(|s| s.layer).collect();
        assert_eq!(layers, vec![Layer::FastHandle, Layer::Handle]);
        assert_eq!(tracer.counts.fast_declined.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nothing_is_recorded_while_off() {
        let tracer = Tracer::new();
        let h = TracedHandler::new(Arc::new(FastOnly), ServerId::new(2), tracer.clone());
        h.handle(ClientId::new(1), Request::Ping);
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn store_wrapper_records_spans_and_keeps_the_store_reachable() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tracer = Tracer::new();
        tracer.set_on(true);
        let store = StoreHandle::new(
            FileStore::open(&dir).unwrap(),
            ServerId::new(4),
            Some(tracer.clone()),
        );
        let fid = FragmentId::new(ClientId::new(7), 0);
        store.store(fid, vec![1u8; 64].into(), true).unwrap();
        assert_eq!(store.read(fid, 0, 64).unwrap().len(), 64);
        assert_eq!(store.meta(fid).unwrap().len, 64);
        assert_eq!(store.last_marked(ClientId::new(7)), Some(fid));
        assert_eq!((store.fragment_count(), store.byte_count()), (1, 64));
        assert_eq!(store.list(), vec![fid]);
        assert_eq!(store.capacity(), 0);
        assert!(store.file_store().journal_batches() >= 1);
        store.delete(fid).unwrap();
        let spans = tracer.drain();
        let layers: Vec<Layer> = spans.iter().map(|s| s.layer).collect();
        assert_eq!(layers, vec![Layer::StoreStore, Layer::StoreRead]);
        assert_eq!((spans[0].client, spans[0].server), (7, 4));
        assert_eq!(tracer.counts.store_bytes.load(Ordering::SeqCst), 64);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
