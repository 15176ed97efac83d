//! The storage server request handler: glues a [`FragmentStore`] and an
//! [`AclDb`] behind the wire protocol.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use swarm_net::{BatchReply, Request, RequestHandler, Response, ServerStats};
use swarm_types::{Bytes, ClientId, FragmentId, LruCache, Result, ServerId, SwarmError};

use crate::acl::AclDb;
use crate::store::FragmentStore;

struct ServerMetrics {
    stores: swarm_metrics::Counter,
    store_bytes: swarm_metrics::Counter,
    reads: swarm_metrics::Counter,
    deletes: swarm_metrics::Counter,
    read_cache_hits: swarm_metrics::Counter,
    read_cache_misses: swarm_metrics::Counter,
    read_cache_bypass: swarm_metrics::Counter,
    errors: swarm_metrics::Counter,
    store_us: swarm_metrics::Histogram,
    read_us: swarm_metrics::Histogram,
}

fn metrics() -> &'static ServerMetrics {
    static M: std::sync::OnceLock<ServerMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| ServerMetrics {
        stores: swarm_metrics::counter("server.stores"),
        store_bytes: swarm_metrics::counter("server.store_bytes"),
        reads: swarm_metrics::counter("server.reads"),
        deletes: swarm_metrics::counter("server.deletes"),
        read_cache_hits: swarm_metrics::counter("server.read_cache_hits"),
        read_cache_misses: swarm_metrics::counter("server.read_cache_misses"),
        read_cache_bypass: swarm_metrics::counter("server.read_cache_bypass"),
        errors: swarm_metrics::counter("server.errors"),
        store_us: swarm_metrics::histogram("server.store_us"),
        read_us: swarm_metrics::histogram("server.read_us"),
    })
}

/// A complete Swarm storage server.
///
/// Generic over its [`FragmentStore`] so the identical request-handling
/// logic (ACL checks, marked-fragment queries, statistics) runs in-memory,
/// on disk, over TCP, or inside the simulator.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use swarm_server::{MemStore, StorageServer};
/// use swarm_net::{Request, RequestHandler, Response};
/// use swarm_types::{ClientId, FragmentId, ServerId};
///
/// let server = StorageServer::new(ServerId::new(0), MemStore::new());
/// let fid = FragmentId::new(ClientId::new(1), 0);
/// let resp = server.handle(ClientId::new(1), Request::Store {
///     fid, marked: false, ranges: vec![], data: vec![1, 2, 3].into(),
/// });
/// assert_eq!(resp, Response::Ok);
/// ```
pub struct StorageServer<S> {
    id: ServerId,
    store: S,
    acls: AclDb,
    stores: AtomicU64,
    reads: AtomicU64,
    deletes: AtomicU64,
    /// Optional in-memory fragment cache (sharded LRU). The paper's
    /// prototype had none ("the prototype servers do not cache log
    /// fragments in memory", §3.4) — this is the extension it names.
    cache: Option<ShardedCache>,
}

/// Number of independent LRU shards in the read cache. Each shard has
/// its own lock, so concurrent reads from the worker pool only contend
/// when they land on the same shard — the same bookkeeping-only locking
/// discipline as the FileStore index.
const CACHE_SHARDS: usize = 8;

/// A fragment cache split into [`CACHE_SHARDS`] independently-locked
/// [`LruCache`] shards keyed by a hash of the fragment id. The lock only
/// guards bookkeeping; the cached payloads are shared [`Bytes`], so
/// holding a shard lock never copies fragment data.
struct ShardedCache {
    shards: Vec<Mutex<LruCache<FragmentId, Bytes>>>,
    hits: Vec<AtomicU64>,
    misses: Vec<AtomicU64>,
    bypasses: Vec<AtomicU64>,
}

impl ShardedCache {
    fn new(capacity: usize) -> Self {
        // Distribute the budget across shards, rounding up so every
        // shard can hold at least one fragment; the effective total is
        // therefore approximate (within CACHE_SHARDS of the request).
        let per_shard = capacity.div_ceil(CACHE_SHARDS).max(1);
        ShardedCache {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
            hits: (0..CACHE_SHARDS).map(|_| AtomicU64::new(0)).collect(),
            misses: (0..CACHE_SHARDS).map(|_| AtomicU64::new(0)).collect(),
            bypasses: (0..CACHE_SHARDS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Which shard a fragment lives in: a Fibonacci-hash mix of the raw
    /// fid so sequential fragment ids still spread across shards.
    fn shard_of(fid: FragmentId) -> usize {
        let mixed = fid.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mixed >> 56) as usize % CACHE_SHARDS
    }

    /// Looks `fid` up in `shard`, refreshing its recency on a hit.
    fn touch(&self, shard: usize, fid: FragmentId) -> Option<Bytes> {
        self.shards[shard].lock().get(&fid).map(Bytes::share)
    }

    /// LRU probe: a hit refreshes the entry's recency.
    fn get(&self, fid: FragmentId) -> Option<Bytes> {
        let shard = Self::shard_of(fid);
        let got = self.touch(shard, fid);
        match &got {
            Some(_) => {
                self.hits[shard].fetch_add(1, Ordering::Relaxed);
                metrics().read_cache_hits.inc();
            }
            None => {
                self.misses[shard].fetch_add(1, Ordering::Relaxed);
                metrics().read_cache_misses.inc();
            }
        }
        got
    }

    /// Probe that records a hit but never a miss: the reactor fast path
    /// declines on a miss and the worker-path probe that follows records
    /// it, so one logical read counts at most one miss.
    fn get_resident(&self, fid: FragmentId) -> Option<Bytes> {
        let shard = Self::shard_of(fid);
        let got = self.touch(shard, fid);
        if got.is_some() {
            self.hits[shard].fetch_add(1, Ordering::Relaxed);
            metrics().read_cache_hits.inc();
        }
        got
    }

    /// Like [`get`], but a miss counts against the bypass counter: the
    /// caller (a `ReadBatch` sweep) will not admit what it fetches.
    fn get_bypass(&self, fid: FragmentId) -> Option<Bytes> {
        let shard = Self::shard_of(fid);
        let got = self.touch(shard, fid);
        match &got {
            Some(_) => {
                self.hits[shard].fetch_add(1, Ordering::Relaxed);
                metrics().read_cache_hits.inc();
            }
            None => {
                self.bypasses[shard].fetch_add(1, Ordering::Relaxed);
                metrics().read_cache_bypass.inc();
            }
        }
        got
    }

    /// Admits `fid` (a re-store of a live fid replaces its bytes and
    /// refreshes its recency), evicting the shard's coldest if full.
    fn insert(&self, fid: FragmentId, bytes: Bytes) {
        self.shards[Self::shard_of(fid)].lock().insert(fid, bytes);
    }

    fn remove(&self, fid: FragmentId) {
        self.shards[Self::shard_of(fid)].lock().remove(&fid);
    }

    /// Per-shard `(hits, misses, bypasses)` counters.
    fn shard_stats(&self) -> Vec<(u64, u64, u64)> {
        (0..CACHE_SHARDS)
            .map(|i| {
                (
                    self.hits[i].load(Ordering::Relaxed),
                    self.misses[i].load(Ordering::Relaxed),
                    self.bypasses[i].load(Ordering::Relaxed),
                )
            })
            .collect()
    }
}

impl<S: FragmentStore> StorageServer<S> {
    /// Creates a server with an empty ACL database.
    pub fn new(id: ServerId, store: S) -> Self {
        StorageServer {
            id,
            store,
            acls: AclDb::new(),
            stores: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            cache: None,
        }
    }

    /// Enables an in-memory read cache of roughly `fragments` recently
    /// stored or read fragments — the server-side caching §3.4 names as
    /// the optimization the prototype lacked. The budget is spread over
    /// [`CACHE_SHARDS`] independently-locked LRU shards (each at least
    /// one fragment deep), so the effective capacity is approximate.
    pub fn with_read_cache(mut self, fragments: usize) -> Self {
        if fragments > 0 {
            self.cache = Some(ShardedCache::new(fragments));
        }
        self
    }

    /// Per-shard read-cache `(hits, misses, bypasses)` counters; empty
    /// when the cache is disabled.
    pub fn read_cache_shard_stats(&self) -> Vec<(u64, u64, u64)> {
        self.cache
            .as_ref()
            .map(ShardedCache::shard_stats)
            .unwrap_or_default()
    }

    /// Convenience: wraps the server in an [`Arc`] for sharing with
    /// transports.
    pub fn into_shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Direct access to the backing store (used by tests and tools).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Direct access to the ACL database.
    pub fn acls(&self) -> &AclDb {
        &self.acls
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            fragments: self.store.fragment_count(),
            bytes: self.store.byte_count(),
            stores: self.stores.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            capacity_fragments: self.store.capacity(),
        }
    }

    fn dispatch(&self, client: ClientId, request: Request) -> Result<Response> {
        match request {
            Request::Store {
                fid,
                marked,
                ranges,
                data,
            } => {
                self.stores.fetch_add(1, Ordering::Relaxed);
                let m = metrics();
                m.stores.inc();
                m.store_bytes.add(data.len() as u64);
                let _span = m.store_us.span("server.store");
                // Validate ranges (and record them) before committing the
                // bytes so a bad request stores nothing; whether they stay
                // is for the store to say — a refused duplicate leaves the
                // fragment's ranges as they were.
                let ranges = self.acls.attach_ranges(fid, ranges)?;
                // `share()` is an O(1) refcount bump; the store and the
                // cache alias the same buffer (on TCP, the network frame).
                let stored = self.store.store(fid, data.share(), marked);
                self.acls.settle_ranges(fid, ranges, stored.is_ok());
                stored?;
                if let Some(cache) = &self.cache {
                    cache.insert(fid, data);
                }
                Ok(Response::Ok)
            }
            Request::Read { fid, offset, len } => {
                self.reads.fetch_add(1, Ordering::Relaxed);
                let m = metrics();
                m.reads.inc();
                let _span = m.read_us.span("server.read");
                self.acls.check(fid, offset, len, client, "read")?;
                if let Some(cache) = &self.cache {
                    if let Some(bytes) = cache.get(fid) {
                        let end = offset as usize + len as usize;
                        if end <= bytes.len() {
                            return Ok(Response::Data(bytes.slice(offset as usize..end)));
                        }
                    }
                    let data = self.store.read(fid, offset, len)?;
                    // Admit whole-fragment reads — the client's normal
                    // unit — so a re-read working set is served from
                    // memory. Partial reads are not admitted: the cache
                    // holds whole fragments only.
                    if offset == 0
                        && self
                            .store
                            .meta(fid)
                            .is_some_and(|meta| meta.len as usize == data.len())
                    {
                        cache.insert(fid, data.share());
                    }
                    return Ok(Response::Data(data));
                }
                let data = self.store.read(fid, offset, len)?;
                Ok(Response::Data(data))
            }
            Request::ReadBatch { reads } => {
                let m = metrics();
                let _span = m.read_us.span("server.read_batch");
                self.reads.fetch_add(reads.len() as u64, Ordering::Relaxed);
                m.reads.add(reads.len() as u64);
                // One worker job serves the whole sweep. Each read still
                // probes the cache (hits refresh recency), but misses are
                // NOT admitted — a scan must not evict the hot set.
                let results = reads
                    .into_iter()
                    .map(|spec| {
                        self.acls
                            .check(spec.fid, spec.offset, spec.len, client, "read")?;
                        if let Some(cache) = &self.cache {
                            if let Some(bytes) = cache.get_bypass(spec.fid) {
                                let end = spec.offset as usize + spec.len as usize;
                                if end <= bytes.len() {
                                    return Ok(bytes.slice(spec.offset as usize..end));
                                }
                            }
                        }
                        self.store.read(spec.fid, spec.offset, spec.len)
                    })
                    .collect();
                Ok(Response::Batch(BatchReply::from_results(results)))
            }
            Request::Delete { fid } => {
                self.deletes.fetch_add(1, Ordering::Relaxed);
                metrics().deletes.inc();
                self.acls.check(fid, 0, u32::MAX, client, "delete")?;
                self.store.delete(fid)?;
                self.acls.detach_ranges(fid);
                if let Some(cache) = &self.cache {
                    cache.remove(fid);
                }
                Ok(Response::Ok)
            }
            Request::Preallocate { fid, len } => {
                self.store.preallocate(fid, len)?;
                Ok(Response::Ok)
            }
            Request::LastMarked => Ok(Response::LastMarked(self.store.last_marked(client))),
            Request::Locate { fid, header_len } => match self.store.meta(fid) {
                None => Ok(Response::Located(None)),
                Some(meta) => {
                    let take = header_len.min(meta.len);
                    self.acls.check(fid, 0, take, client, "locate")?;
                    let header = self.store.read(fid, 0, take)?;
                    Ok(Response::Located(Some(header)))
                }
            },
            Request::AclCreate { members } => Ok(Response::AclCreated(self.acls.create(members))),
            Request::AclModify { aid, add, remove } => {
                self.acls.modify(aid, add, remove)?;
                Ok(Response::Ok)
            }
            Request::AclDelete { aid } => {
                self.acls.delete(aid)?;
                Ok(Response::Ok)
            }
            Request::Stat => Ok(Response::Stats(self.stats())),
            Request::Ping => Ok(Response::Ok),
            Request::Metrics => Ok(Response::Metrics(swarm_metrics::snapshot().to_json())),
            other => Err(SwarmError::protocol(format!(
                "unsupported request {other:?}"
            ))),
        }
    }
}

impl<S: FragmentStore> RequestHandler for StorageServer<S> {
    fn handle(&self, client: ClientId, request: Request) -> Response {
        // A panic anywhere in request handling must degrade to an error
        // response, not kill the serving thread: one malformed or hostile
        // request may cost its sender an error, never the server. The
        // stores use parking_lot locks (no poisoning), so catching here
        // cannot wedge later requests.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.dispatch(client, request)
        }));
        match result {
            Ok(Ok(resp)) => resp,
            Ok(Err(e)) => {
                metrics().errors.inc();
                swarm_metrics::trace!(
                    "server.error",
                    "server {} request from {client} failed: {e}",
                    self.id.raw()
                );
                Response::from_error(&e)
            }
            Err(panic) => {
                metrics().errors.inc();
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                swarm_metrics::trace!(
                    "server.error",
                    "server {} PANIC serving request from {client}: {msg}",
                    self.id.raw()
                );
                Response::from_error(&SwarmError::other(format!("internal server error: {msg}")))
            }
        }
    }

    fn try_handle_fast(&self, client: ClientId, request: &Request) -> Option<Response> {
        // Only a single ranged read of a cache-resident fragment
        // qualifies: everything below is an ACL map probe plus one shard
        // lookup — bounded bookkeeping a reactor thread can afford.
        // Anything else (including a batch, whose misses touch the
        // store) takes the worker path.
        let Request::Read { fid, offset, len } = *request else {
            return None;
        };
        let cache = self.cache.as_ref()?;
        let m = metrics();
        if let Err(e) = self.acls.check(fid, offset, len, client, "read") {
            self.reads.fetch_add(1, Ordering::Relaxed);
            m.reads.inc();
            m.errors.inc();
            return Some(Response::from_error(&e));
        }
        let bytes = cache.get_resident(fid)?;
        let end = offset as usize + len as usize;
        if end > bytes.len() {
            // Short entry for this range: let the store rule on bounds.
            return None;
        }
        self.reads.fetch_add(1, Ordering::Relaxed);
        m.reads.inc();
        Some(Response::Data(bytes.slice(offset as usize..end)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memstore::MemStore;
    use swarm_net::StoreRange;
    use swarm_types::{Aid, FragmentId};

    fn server() -> StorageServer<MemStore> {
        StorageServer::new(ServerId::new(0), MemStore::new())
    }

    fn fid(c: u32, s: u64) -> FragmentId {
        FragmentId::new(ClientId::new(c), s)
    }

    /// A store whose every operation panics — stands in for any internal
    /// bug reached through request handling.
    struct PanicStore;

    impl crate::store::FragmentStore for PanicStore {
        fn store(&self, _: FragmentId, _: swarm_types::Bytes, _: bool) -> Result<()> {
            panic!("injected store panic")
        }
        fn read(&self, _: FragmentId, _: u32, _: u32) -> Result<swarm_types::Bytes> {
            panic!("injected read panic")
        }
        fn delete(&self, _: FragmentId) -> Result<()> {
            panic!("injected delete panic")
        }
        fn preallocate(&self, _: FragmentId, _: u32) -> Result<()> {
            panic!("injected preallocate panic")
        }
        fn meta(&self, _: FragmentId) -> Option<crate::store::FragmentMeta> {
            None
        }
        fn last_marked(&self, _: ClientId) -> Option<FragmentId> {
            None
        }
        fn list(&self) -> Vec<FragmentId> {
            Vec::new()
        }
        fn fragment_count(&self) -> u64 {
            0
        }
        fn byte_count(&self) -> u64 {
            0
        }
        fn capacity(&self) -> u64 {
            0
        }
    }

    /// A panic inside request handling must come back as an error
    /// response — never kill the serving thread — and the server must
    /// keep answering afterwards.
    #[test]
    fn panic_in_dispatch_becomes_error_response() {
        let s = StorageServer::new(ServerId::new(0), PanicStore);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let resp = s.handle(
            ClientId::new(1),
            Request::Store {
                fid: fid(1, 0),
                marked: false,
                ranges: vec![],
                data: b"boom".to_vec().into(),
            },
        );
        std::panic::set_hook(prev);
        let err = resp.into_result().unwrap_err();
        assert!(matches!(err, SwarmError::Other(_)), "{err}");
        // Still serving.
        assert_eq!(s.handle(ClientId::new(1), Request::Ping), Response::Ok);
    }

    fn ok(resp: Response) -> Response {
        resp.into_result().expect("expected success")
    }

    #[test]
    fn store_read_delete_cycle() {
        let srv = server();
        let me = ClientId::new(1);
        ok(srv.handle(
            me,
            Request::Store {
                fid: fid(1, 0),
                marked: false,
                ranges: vec![],
                data: b"hello".into(),
            },
        ));
        let resp = ok(srv.handle(
            me,
            Request::Read {
                fid: fid(1, 0),
                offset: 1,
                len: 3,
            },
        ));
        assert_eq!(resp, Response::Data(b"ell".into()));
        ok(srv.handle(me, Request::Delete { fid: fid(1, 0) }));
        let resp = srv.handle(
            me,
            Request::Read {
                fid: fid(1, 0),
                offset: 0,
                len: 1,
            },
        );
        assert!(resp.into_result().is_err());
    }

    #[test]
    fn last_marked_is_per_client() {
        let srv = server();
        for (c, s, m) in [(1, 0, true), (1, 1, false), (2, 5, true), (1, 2, true)] {
            ok(srv.handle(
                ClientId::new(c),
                Request::Store {
                    fid: fid(c, s),
                    marked: m,
                    ranges: vec![],
                    data: vec![0].into(),
                },
            ));
        }
        assert_eq!(
            ok(srv.handle(ClientId::new(1), Request::LastMarked)),
            Response::LastMarked(Some(fid(1, 2)))
        );
        assert_eq!(
            ok(srv.handle(ClientId::new(2), Request::LastMarked)),
            Response::LastMarked(Some(fid(2, 5)))
        );
        assert_eq!(
            ok(srv.handle(ClientId::new(3), Request::LastMarked)),
            Response::LastMarked(None)
        );
    }

    #[test]
    fn locate_returns_fragment_prefix() {
        let srv = server();
        let me = ClientId::new(1);
        ok(srv.handle(
            me,
            Request::Store {
                fid: fid(1, 3),
                marked: false,
                ranges: vec![],
                data: b"headerbody".into(),
            },
        ));
        let resp = ok(srv.handle(
            me,
            Request::Locate {
                fid: fid(1, 3),
                header_len: 6,
            },
        ));
        assert_eq!(resp, Response::Located(Some(b"header".into())));
        // header_len longer than the fragment is clamped, not an error.
        let resp = ok(srv.handle(
            me,
            Request::Locate {
                fid: fid(1, 3),
                header_len: 1000,
            },
        ));
        assert_eq!(resp, Response::Located(Some(b"headerbody".into())));
        let resp = ok(srv.handle(
            me,
            Request::Locate {
                fid: fid(1, 9),
                header_len: 6,
            },
        ));
        assert_eq!(resp, Response::Located(None));
    }

    #[test]
    fn acl_protected_store_and_read() {
        let srv = server();
        let owner = ClientId::new(1);
        let other = ClientId::new(2);
        let aid = match ok(srv.handle(
            owner,
            Request::AclCreate {
                members: vec![owner],
            },
        )) {
            Response::AclCreated(aid) => aid,
            r => panic!("{r:?}"),
        };
        ok(srv.handle(
            owner,
            Request::Store {
                fid: fid(1, 0),
                marked: false,
                ranges: vec![StoreRange {
                    offset: 0,
                    len: 5,
                    aid,
                }],
                data: b"secret+public".into(),
            },
        ));
        // Non-member denied on protected bytes…
        let resp = srv.handle(
            other,
            Request::Read {
                fid: fid(1, 0),
                offset: 0,
                len: 5,
            },
        );
        assert!(matches!(
            resp.into_result(),
            Err(SwarmError::AccessDenied { .. })
        ));
        // …but allowed on unprotected bytes.
        let resp = ok(srv.handle(
            other,
            Request::Read {
                fid: fid(1, 0),
                offset: 7,
                len: 6,
            },
        ));
        assert_eq!(resp, Response::Data(b"public".into()));
        // Granting membership opens the protected range.
        ok(srv.handle(
            owner,
            Request::AclModify {
                aid,
                add: vec![other],
                remove: vec![],
            },
        ));
        ok(srv.handle(
            other,
            Request::Read {
                fid: fid(1, 0),
                offset: 0,
                len: 5,
            },
        ));
    }

    #[test]
    fn failed_store_leaves_no_acl_ranges() {
        let srv = server();
        let me = ClientId::new(1);
        ok(srv.handle(
            me,
            Request::Store {
                fid: fid(1, 0),
                marked: false,
                ranges: vec![],
                data: vec![1].into(),
            },
        ));
        // Second store of same fid fails; its ranges must not take effect.
        let aid = match ok(srv.handle(me, Request::AclCreate { members: vec![] })) {
            Response::AclCreated(aid) => aid,
            r => panic!("{r:?}"),
        };
        let resp = srv.handle(
            me,
            Request::Store {
                fid: fid(1, 0),
                marked: false,
                ranges: vec![StoreRange {
                    offset: 0,
                    len: 1,
                    aid,
                }],
                data: vec![2].into(),
            },
        );
        assert!(resp.into_result().is_err());
        // Anyone can still read the original byte (no lingering ACL).
        ok(srv.handle(
            ClientId::new(9),
            Request::Read {
                fid: fid(1, 0),
                offset: 0,
                len: 1,
            },
        ));
    }

    #[test]
    fn stats_count_operations() {
        let srv = server();
        let me = ClientId::new(1);
        ok(srv.handle(
            me,
            Request::Store {
                fid: fid(1, 0),
                marked: false,
                ranges: vec![],
                data: vec![0; 64].into(),
            },
        ));
        ok(srv.handle(
            me,
            Request::Read {
                fid: fid(1, 0),
                offset: 0,
                len: 8,
            },
        ));
        let stats = match ok(srv.handle(me, Request::Stat)) {
            Response::Stats(s) => s,
            r => panic!("{r:?}"),
        };
        assert_eq!(stats.fragments, 1);
        assert_eq!(stats.bytes, 64);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.reads, 1);
    }

    #[test]
    fn errors_never_panic_the_handler() {
        let srv = server();
        let me = ClientId::new(1);
        // Read of missing fragment, bad ranges, unknown ACL: all must
        // come back as Response::Err.
        let r1 = srv.handle(
            me,
            Request::Read {
                fid: fid(1, 0),
                offset: 0,
                len: 1,
            },
        );
        assert!(matches!(r1, Response::Err { .. }));
        let r2 = srv.handle(
            me,
            Request::AclModify {
                aid: Aid::new(999),
                add: vec![],
                remove: vec![],
            },
        );
        assert!(matches!(r2, Response::Err { .. }));
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use crate::memstore::MemStore;
    use crate::store::FragmentMeta;
    use swarm_types::FragmentId;

    /// Counts reads that actually reach the backing store.
    struct CountingStore {
        inner: MemStore,
        reads: AtomicU64,
    }

    impl FragmentStore for CountingStore {
        fn store(&self, fid: FragmentId, data: Bytes, marked: bool) -> Result<()> {
            self.inner.store(fid, data, marked)
        }
        fn read(&self, fid: FragmentId, offset: u32, len: u32) -> Result<Bytes> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.read(fid, offset, len)
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

    fn fid(s: u64) -> FragmentId {
        FragmentId::new(ClientId::new(1), s)
    }

    fn counting_server(cache: usize) -> StorageServer<CountingStore> {
        let srv = StorageServer::new(
            ServerId::new(0),
            CountingStore {
                inner: MemStore::new(),
                reads: AtomicU64::new(0),
            },
        );
        if cache > 0 {
            srv.with_read_cache(cache)
        } else {
            srv
        }
    }

    fn store_frag(srv: &StorageServer<CountingStore>, seq: u64, data: &[u8]) {
        srv.handle(
            ClientId::new(1),
            Request::Store {
                fid: fid(seq),
                marked: false,
                ranges: vec![],
                data: data.into(),
            },
        )
        .into_result()
        .unwrap();
    }

    fn read_frag(srv: &StorageServer<CountingStore>, seq: u64, offset: u32, len: u32) -> Response {
        srv.handle(
            ClientId::new(1),
            Request::Read {
                fid: fid(seq),
                offset,
                len,
            },
        )
    }

    /// `(hits, misses, bypasses)` summed over the read cache's shards.
    fn cache_totals(srv: &StorageServer<CountingStore>) -> (u64, u64, u64) {
        srv.read_cache_shard_stats()
            .iter()
            .fold((0, 0, 0), |a, s| (a.0 + s.0, a.1 + s.1, a.2 + s.2))
    }

    #[test]
    fn cached_reads_never_hit_the_disk() {
        let srv = counting_server(4);
        store_frag(&srv, 0, &[7u8; 1024]);
        for _ in 0..10 {
            assert_eq!(
                read_frag(&srv, 0, 100, 16),
                Response::Data(vec![7u8; 16].into())
            );
        }
        assert_eq!(srv.store().reads.load(Ordering::Relaxed), 0);
        assert_eq!(cache_totals(&srv).0, 10);
    }

    #[test]
    fn fast_path_serves_resident_reads_and_declines_misses() {
        let srv = counting_server(4);
        store_frag(&srv, 0, &[9u8; 512]);
        // Resident: answered in place with the requested slice.
        let resp = srv
            .try_handle_fast(
                ClientId::new(1),
                &Request::Read {
                    fid: fid(0),
                    offset: 8,
                    len: 16,
                },
            )
            .expect("resident fragment answers fast");
        assert_eq!(resp, Response::Data(vec![9u8; 16].into()));
        assert_eq!(srv.store().reads.load(Ordering::Relaxed), 0);
        // Not resident: declined, and no miss is charged — the worker
        // path that follows the decline records it.
        assert!(srv
            .try_handle_fast(
                ClientId::new(1),
                &Request::Read {
                    fid: fid(99),
                    offset: 0,
                    len: 4,
                },
            )
            .is_none());
        let (hits, misses, _) = cache_totals(&srv);
        assert_eq!(hits, 1);
        assert_eq!(misses, 0);
        // Anything but a single Read never qualifies.
        assert!(srv
            .try_handle_fast(ClientId::new(1), &Request::LastMarked)
            .is_none());
    }

    #[test]
    fn fast_path_declines_without_a_cache() {
        let srv = counting_server(0);
        store_frag(&srv, 0, &[9u8; 64]);
        assert!(srv
            .try_handle_fast(
                ClientId::new(1),
                &Request::Read {
                    fid: fid(0),
                    offset: 0,
                    len: 8,
                },
            )
            .is_none());
    }

    #[test]
    fn without_cache_every_read_hits_the_store() {
        let srv = counting_server(0);
        store_frag(&srv, 0, &[7u8; 1024]);
        for _ in 0..5 {
            read_frag(&srv, 0, 0, 8);
        }
        assert_eq!(srv.store().reads.load(Ordering::Relaxed), 5);
        assert!(srv.read_cache_shard_stats().is_empty());
    }

    /// First `n` fragment seqs that all land in the same cache shard,
    /// so eviction order is deterministic regardless of the shard hash.
    fn same_shard_seqs(n: usize) -> Vec<u64> {
        let target = ShardedCache::shard_of(fid(0));
        let mut out = vec![0u64];
        let mut s = 1u64;
        while out.len() < n {
            if ShardedCache::shard_of(fid(s)) == target {
                out.push(s);
            }
            s += 1;
        }
        out
    }

    #[test]
    fn cache_evicts_lru_within_a_shard_and_falls_back_to_store() {
        // Capacity 16 over 8 shards = 2 entries per shard.
        let srv = counting_server(16);
        let seqs = same_shard_seqs(3);
        let (a, b, c) = (seqs[0], seqs[1], seqs[2]);
        store_frag(&srv, a, &[1u8; 64]);
        store_frag(&srv, b, &[2u8; 64]);
        // Refresh `a`: under LRU the next eviction victim is `b`, even
        // though `a` entered the shard first (FIFO would evict `a`).
        read_frag(&srv, a, 0, 4);
        store_frag(&srv, c, &[3u8; 64]);
        assert_eq!(srv.store().reads.load(Ordering::Relaxed), 0);
        // `a` and `c` still cached; `b` was evicted and hits the store.
        read_frag(&srv, a, 0, 4);
        read_frag(&srv, c, 0, 4);
        assert_eq!(srv.store().reads.load(Ordering::Relaxed), 0);
        assert_eq!(
            read_frag(&srv, b, 0, 4),
            Response::Data(vec![2u8; 4].into())
        );
        assert_eq!(srv.store().reads.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn single_read_miss_admits_the_whole_fragment() {
        // Capacity 1 ⇒ one entry per shard; `b` evicts `a`.
        let srv = counting_server(1);
        let seqs = same_shard_seqs(2);
        let (a, b) = (seqs[0], seqs[1]);
        store_frag(&srv, a, &[1u8; 64]);
        store_frag(&srv, b, &[2u8; 64]);
        // Whole-fragment read of the evicted `a` hits the store once and
        // re-admits it; the re-read is then served from cache.
        assert_eq!(
            read_frag(&srv, a, 0, 64),
            Response::Data(vec![1u8; 64].into())
        );
        assert_eq!(srv.store().reads.load(Ordering::Relaxed), 1);
        read_frag(&srv, a, 0, 16);
        assert_eq!(srv.store().reads.load(Ordering::Relaxed), 1);
        // A *partial* read of the (now evicted) `b` is served from the
        // store but NOT admitted: partial bytes can't seed the cache.
        read_frag(&srv, b, 0, 16);
        read_frag(&srv, b, 0, 16);
        assert_eq!(srv.store().reads.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn read_batch_probes_the_cache_but_never_admits() {
        use swarm_net::ReadSpec;
        let srv = counting_server(1);
        let seqs = same_shard_seqs(2);
        let (a, b) = (seqs[0], seqs[1]);
        store_frag(&srv, a, &[1u8; 64]);
        store_frag(&srv, b, &[2u8; 64]); // evicts `a` from its shard
        let batch = |specs: Vec<ReadSpec>| match srv
            .handle(ClientId::new(1), Request::ReadBatch { reads: specs })
        {
            Response::Batch(reply) => reply.into_results(),
            r => panic!("{r:?}"),
        };
        let spec = |seq: u64| ReadSpec {
            fid: fid(seq),
            offset: 0,
            len: 64,
        };
        // `b` is cached (hit), `a` is not (bypass: store read, no
        // admission), and a missing fid yields a per-item error without
        // poisoning the batch.
        for _ in 0..2 {
            let results = batch(vec![spec(a), spec(b), spec(999)]);
            assert_eq!(results[0].as_ref().unwrap().as_slice(), &[1u8; 64][..]);
            assert_eq!(results[1].as_ref().unwrap().as_slice(), &[2u8; 64][..]);
            assert!(results[2].is_err());
        }
        // Both sweeps re-read `a` (and re-attempt the missing fid) from
        // the store: batches never admit.
        assert_eq!(srv.store().reads.load(Ordering::Relaxed), 4);
        let (hits, _misses, bypasses) = cache_totals(&srv);
        assert_eq!(bypasses, 4, "bypassed probes of `a` and the missing fid");
        assert!(hits >= 2, "cached `b` probed twice: {hits}");
    }

    #[test]
    fn delete_invalidates_the_cache() {
        let srv = counting_server(4);
        store_frag(&srv, 0, &[1u8; 64]);
        srv.handle(ClientId::new(1), Request::Delete { fid: fid(0) })
            .into_result()
            .unwrap();
        // Same fid re-stored with different contents must not serve stale
        // bytes (it re-populates, so the store is never read, but the
        // data must be the NEW data).
        store_frag(&srv, 0, &[2u8; 64]);
        assert_eq!(
            read_frag(&srv, 0, 0, 4),
            Response::Data(vec![2u8; 4].into())
        );
    }

    #[test]
    fn out_of_range_cached_read_still_errors() {
        let srv = counting_server(4);
        store_frag(&srv, 0, &[1u8; 64]);
        let resp = read_frag(&srv, 0, 60, 10);
        assert!(resp.into_result().is_err());
    }
}
