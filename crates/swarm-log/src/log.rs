//! The striped log: Swarm's core abstraction (§2.1).
//!
//! Each client owns one [`Log`]. Appended blocks and records are packed
//! into fragments; full fragments are sealed and handed to the pipelined
//! [`WritePool`]; completed stripes get a parity fragment. All of this
//! happens without any coordination with other clients or between servers
//! — the paper's central design goal.
//!
//! The log is append-only and conceptually infinite. Blocks persist until
//! deleted; records drive crash recovery (see [`crate::recovery`]); the
//! cleaner (crate `swarm-cleaner`) reclaims dead stripes.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use swarm_net::{ConnectionPool, Request, Response, Transport};
use swarm_types::{
    BlockAddr, Bytes, ClientId, FragmentId, LruCache, Result, ServerId, ServiceId, StripeSeq,
    SwarmError, DEFAULT_FRAGMENT_SIZE,
};

use crate::entry::Entry;
use crate::fragment::{FragmentBuilder, FragmentHeader, FragmentView};
use crate::parity::ParityAccumulator;
use crate::reader::ReadEngine;
use crate::reconstruct;
use crate::stripe::{StripeGroup, StripePlan};
use crate::writer::WritePool;

struct LogMetrics {
    fragments_sealed: swarm_metrics::Counter,
    reads: swarm_metrics::Counter,
    reconstructions: swarm_metrics::Counter,
    degraded_reads: swarm_metrics::Counter,
    seal_us: swarm_metrics::Histogram,
    submit_us: swarm_metrics::Histogram,
    flush_us: swarm_metrics::Histogram,
    reconstruct_us: swarm_metrics::Histogram,
    /// Read latency split by the source that served the read.
    read_builder_us: swarm_metrics::Histogram,
    read_cache_us: swarm_metrics::Histogram,
    read_home_us: swarm_metrics::Histogram,
    read_reconstruct_us: swarm_metrics::Histogram,
}

fn metrics() -> &'static LogMetrics {
    static M: std::sync::OnceLock<LogMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| LogMetrics {
        fragments_sealed: swarm_metrics::counter("log.fragments_sealed"),
        reads: swarm_metrics::counter("log.reads"),
        reconstructions: swarm_metrics::counter("log.reconstructions"),
        degraded_reads: swarm_metrics::counter("log.degraded_reads"),
        seal_us: swarm_metrics::histogram("log.seal_us"),
        submit_us: swarm_metrics::histogram("log.submit_us"),
        flush_us: swarm_metrics::histogram("log.flush_us"),
        reconstruct_us: swarm_metrics::histogram("log.reconstruct_us"),
        read_builder_us: swarm_metrics::histogram("log.read_us.builder"),
        read_cache_us: swarm_metrics::histogram("log.read_us.cache"),
        read_home_us: swarm_metrics::histogram("log.read_us.home"),
        read_reconstruct_us: swarm_metrics::histogram("log.read_us.reconstruct"),
    })
}

/// Record kinds written by the log layer itself (under
/// [`ServiceId::LOG_LAYER`]).
pub mod log_record {
    /// A checkpoint directory: the positions of every service's newest
    /// checkpoint at the time it was written. Stored alongside each
    /// checkpoint so recovery can find *all* services' checkpoints from
    /// the anchor fragment alone — "the log layer tracks the most
    /// recently written checkpoint for each service and makes it
    /// available to the service on restart" (§2.1.3).
    pub const CHECKPOINT_DIR: u16 = 1;
}

/// A position in the log, ordered by (fragment sequence, offset).
///
/// Services compare positions to decide which replayed records postdate
/// their checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogPosition {
    /// Fragment sequence number within the client's log.
    pub seq: u64,
    /// Byte offset within the fragment.
    pub offset: u32,
}

impl LogPosition {
    /// Position of an address.
    pub fn of(addr: BlockAddr) -> LogPosition {
        LogPosition {
            seq: addr.fid.seq(),
            offset: addr.offset,
        }
    }

    /// The zero position (start of the log).
    pub fn zero() -> LogPosition {
        LogPosition { seq: 0, offset: 0 }
    }
}

/// Client-side operation counters (observability; all monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Blocks appended by services.
    pub blocks_appended: u64,
    /// Records (incl. deletes) appended.
    pub records_appended: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Data fragments shipped to servers.
    pub data_fragments: u64,
    /// Parity fragments shipped.
    pub parity_fragments: u64,
    /// Empty padding fragments shipped (mid-stripe flushes).
    pub padding_fragments: u64,
    /// Total bytes shipped (data + parity + padding + headers).
    pub bytes_shipped: u64,
    /// Read requests served.
    pub reads: u64,
    /// Reads served locally: the open builder, a sealed fragment whose
    /// store is not acked yet, or the client fragment cache.
    pub cache_hits: u64,
    /// Reads answered by a decode of the stripe's survivors (a whole
    /// fragment rebuilt, or just the addressed range).
    pub reconstructions: u64,
}

/// Configuration for a client's log.
///
/// How many RPCs the log keeps outstanding per server is not configured
/// here or anywhere: it is [`swarm_net::pool::WINDOW`], clamped to what
/// each connection pipelines, for stores and reads alike.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// The owning client.
    pub client: ClientId,
    /// Servers to stripe across (width = group size, one member is
    /// parity).
    pub group: StripeGroup,
    /// Fragment size in bytes (default 1 MiB, the prototype's choice).
    pub fragment_size: usize,
    /// Client-side fragment cache capacity, in fragments (default 16).
    /// Serves re-reads and recovery scans without server round-trips.
    /// Read-your-writes does not depend on it: 0 is a supported setting.
    pub cache_fragments: usize,
    /// Attempts per fragment store before the writer reports the server
    /// lost (default [`crate::writer::STORE_RETRIES`]).
    pub store_retries: usize,
    /// Pause between store retry attempts (default
    /// [`crate::writer::RETRY_BACKOFF`]). Chaos runs shorten this so
    /// injected kill/restart cycles resolve within a flush.
    pub retry_backoff: std::time::Duration,
}

impl LogConfig {
    /// Creates a config with the paper's defaults.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidArgument`] if the server set is not a
    /// valid stripe group (see [`StripeGroup::new`]).
    pub fn new(client: ClientId, servers: Vec<ServerId>) -> Result<LogConfig> {
        Ok(LogConfig {
            client,
            group: StripeGroup::new(servers)?,
            fragment_size: DEFAULT_FRAGMENT_SIZE,
            cache_fragments: 16,
            store_retries: crate::writer::STORE_RETRIES,
            retry_backoff: crate::writer::RETRY_BACKOFF,
        })
    }

    /// Sets the stripe geometry (`k` data + `m` parity members per
    /// stripe). The group's server count must equal `k + m`. The default
    /// is the paper's `width-1 + 1` XOR shape; `m > 1` selects GF(2^8)
    /// Reed–Solomon parity that survives any `m` concurrent losses.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidArgument`] if the geometry's width
    /// does not match the group's server count.
    pub fn geometry(mut self, geometry: swarm_types::Geometry) -> Result<LogConfig> {
        self.group = StripeGroup::with_geometry(self.group.servers().to_vec(), geometry)?;
        Ok(self)
    }

    /// Sets the fragment size.
    pub fn fragment_size(mut self, bytes: usize) -> LogConfig {
        self.fragment_size = bytes;
        self
    }

    /// Sets the client-side fragment cache capacity.
    pub fn cache_fragments(mut self, fragments: usize) -> LogConfig {
        self.cache_fragments = fragments;
        self
    }

    /// Sets the writer's store retry count.
    pub fn store_retries(mut self, retries: usize) -> LogConfig {
        self.store_retries = retries;
        self
    }

    /// Sets the pause between store retry attempts.
    pub fn retry_backoff(mut self, backoff: std::time::Duration) -> LogConfig {
        self.retry_backoff = backoff;
        self
    }
}

struct OpenStripe {
    plan: StripePlan,
    acc: ParityAccumulator,
    next_member: u8,
}

/// Which layer served a read — keys the `log.read_us.*` histograms.
#[derive(Clone, Copy)]
enum ReadSource {
    Builder,
    Cache,
    Home,
    Reconstruct,
}

impl ReadSource {
    fn record(self, elapsed: std::time::Duration) {
        let m = metrics();
        let h = match self {
            ReadSource::Builder => &m.read_builder_us,
            ReadSource::Cache => &m.read_cache_us,
            ReadSource::Home => &m.read_home_us,
            ReadSource::Reconstruct => &m.read_reconstruct_us,
        };
        h.record(elapsed);
    }
}

/// Stripe descriptions ([`reconstruct::stripe_info`] headers, ~100 B)
/// the degraded read path remembers, keyed by each stripe's first member,
/// so such a read costs no `Locate`.
const STRIPE_INFO_CACHE: usize = 256;

struct LogState {
    next_seq: u64,
    stripe: Option<OpenStripe>,
    builder: Option<FragmentBuilder>,
    /// Where each fragment this log knows about lives.
    fragment_map: HashMap<FragmentId, ServerId>,
    /// Per-service newest checkpoint position.
    checkpoints: HashMap<ServiceId, LogPosition>,
    /// Sequence of the newest *marked* fragment this log knows to be
    /// durable (a lower bound — see [`Log::anchor_seq`]).
    anchor_seq: Option<u64>,
    /// Bytes of entries appended since creation (statistics).
    appended_bytes: u64,
    stats: LogStats,
    closed: bool,
}

/// A client's striped, self-parity-protected, append-only log.
///
/// All methods take `&self`; the log is internally synchronized and can be
/// shared (`Arc<Log>`) between a file system, a cleaner, and other
/// services on the same client. Appends from multiple threads serialize on
/// an internal lock — per the paper there is exactly one log per client,
/// and services on that client share it.
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use swarm_log::{Log, LogConfig};
/// use swarm_types::{ClientId, ServerId, ServiceId};
///
/// # fn transport() -> Arc<dyn swarm_net::Transport> { unimplemented!() }
/// let config = LogConfig::new(
///     ClientId::new(1),
///     vec![ServerId::new(0), ServerId::new(1)],
/// )?;
/// let log = Log::create(transport(), config)?;
/// let addr = log.append_block(ServiceId::new(1), b"inode 7 offset 0", b"file data")?;
/// log.flush()?;
/// assert_eq!(log.read(addr)?, b"file data");
/// # Ok::<(), swarm_types::SwarmError>(())
/// ```
pub struct Log {
    config: LogConfig,
    transport: Arc<dyn Transport>,
    pool: WritePool,
    /// Pooled read connections shared with reconstruction, recovery, and
    /// the cleaner.
    engine: Arc<ConnectionPool>,
    /// Windowed, batching read front-end over `engine` — serves the read
    /// fast path and scans.
    reader: ReadEngine,
    /// Client fragment cache. Outside `state` so whole-fragment fetches
    /// (cleaner, recovery) fill it without holding up appends. Entries
    /// are [`Bytes`] views, so caching a sealed fragment shares its
    /// buffer with the write pipeline instead of copying it.
    cache: Mutex<LruCache<FragmentId, Bytes>>,
    /// Stripe descriptions learnt by degraded reads.
    stripes: Mutex<LruCache<FragmentId, Arc<FragmentHeader>>>,
    state: Mutex<LogState>,
}

impl std::fmt::Debug for Log {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Log")
            .field("client", &self.config.client)
            .field("group", &self.config.group)
            .field("fragment_size", &self.config.fragment_size)
            .finish()
    }
}

impl Log {
    /// Creates a fresh, empty log.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidArgument`] if the fragment size cannot
    /// hold a header plus one minimal entry.
    pub fn create(transport: Arc<dyn Transport>, config: LogConfig) -> Result<Log> {
        Self::with_start_seq(transport, config, 0)
    }

    /// Creates a log resuming at fragment sequence `next_seq` (used by
    /// recovery; `next_seq` must be stripe-aligned).
    pub(crate) fn with_start_seq(
        transport: Arc<dyn Transport>,
        config: LogConfig,
        next_seq: u64,
    ) -> Result<Log> {
        let engine = Arc::new(ConnectionPool::new(transport.clone(), config.client));
        Self::with_engine(transport, config, next_seq, engine)
    }

    /// Creates a log reusing an existing connection pool (recovery hands
    /// its warmed-up pool over so the new log starts with live
    /// connections).
    pub(crate) fn with_engine(
        transport: Arc<dyn Transport>,
        config: LogConfig,
        next_seq: u64,
        engine: Arc<ConnectionPool>,
    ) -> Result<Log> {
        let probe_plan = config.group.plan(config.client, StripeSeq::new(0));
        let header_len = probe_plan.header(0).encoded_len();
        if config.fragment_size < header_len + 64 {
            return Err(SwarmError::invalid(format!(
                "fragment size {} too small (header alone is {header_len} bytes)",
                config.fragment_size
            )));
        }
        if !next_seq.is_multiple_of(config.group.width() as u64) {
            return Err(SwarmError::invalid("start sequence not stripe-aligned"));
        }
        // Writers share the log's connection pool, so the write path rides
        // the same per-server channels as reads (one mux socket per
        // server) instead of holding private sockets.
        let pool = WritePool::new(
            engine.clone(),
            config.group.servers(),
            config.store_retries,
            config.retry_backoff,
        );
        let reader = ReadEngine::new(engine.clone());
        Ok(Log {
            pool,
            transport,
            reader,
            engine,
            cache: Mutex::new(LruCache::new(config.cache_fragments)),
            stripes: Mutex::new(LruCache::new(STRIPE_INFO_CACHE)),
            state: Mutex::new(LogState {
                next_seq,
                stripe: None,
                builder: None,
                fragment_map: HashMap::new(),
                checkpoints: HashMap::new(),
                anchor_seq: None,
                appended_bytes: 0,
                stats: LogStats::default(),
                closed: false,
            }),
            config,
        })
    }

    /// The owning client.
    pub fn client(&self) -> ClientId {
        self.config.client
    }

    /// The stripe group this log writes across.
    pub fn group(&self) -> &StripeGroup {
        &self.config.group
    }

    /// The configured fragment size.
    pub fn fragment_size(&self) -> usize {
        self.config.fragment_size
    }

    /// Largest block payload that fits in one fragment (blocks larger than
    /// this must be split by the service).
    pub fn max_block_size(&self) -> usize {
        let header_len = self
            .config
            .group
            .plan(self.config.client, StripeSeq::new(0))
            .header(0)
            .encoded_len();
        // Entry overhead for a block with empty creation info: tag(1) +
        // service(2) + create_len(4) + data_len(4).
        self.config.fragment_size - header_len - 11
    }

    /// Total entry bytes appended since creation.
    pub fn appended_bytes(&self) -> u64 {
        self.state.lock().appended_bytes
    }

    /// The transport this log talks through.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// The shared read engine (pooled connections + parallel broadcast)
    /// this log reads through.
    pub fn engine(&self) -> &Arc<ConnectionPool> {
        &self.engine
    }

    /// Seeds the fragment→server map (used after recovery so reads skip
    /// the broadcast).
    pub(crate) fn seed_fragment_map(
        &self,
        entries: impl IntoIterator<Item = (FragmentId, ServerId)>,
    ) {
        let mut state = self.state.lock();
        state.fragment_map.extend(entries);
    }

    /// Records a service's checkpoint position (used by recovery).
    pub(crate) fn seed_checkpoint(&self, service: ServiceId, pos: LogPosition) {
        let mut state = self.state.lock();
        state.anchor_seq = state.anchor_seq.max(Some(pos.seq));
        state.checkpoints.insert(service, pos);
    }

    /// Records the recovery anchor (newest marked fragment found by the
    /// `LastMarked` broadcast) on a recovered log.
    pub(crate) fn seed_anchor(&self, seq: u64) {
        let mut state = self.state.lock();
        state.anchor_seq = state.anchor_seq.max(Some(seq));
    }

    /// Sequence of the newest marked fragment this log knows to be
    /// durable, if any — a lower bound on the recovery anchor the next
    /// `LastMarked` broadcast would find.
    ///
    /// The rollforward scan treats a missing fragment at or beyond the
    /// anchor as the end of the log, so anything that removes fragments
    /// (the cleaner) must stay strictly below this sequence.
    pub fn anchor_seq(&self) -> Option<u64> {
        self.state.lock().anchor_seq
    }

    // ------------------------------------------------------------------
    // Append path
    // ------------------------------------------------------------------

    fn ensure_builder<'a>(
        &self,
        state: &'a mut LogState,
        need: usize,
    ) -> Result<&'a mut FragmentBuilder> {
        if state.closed {
            return Err(SwarmError::Closed("log"));
        }
        if let Some(b) = &state.builder {
            if !b.fits(need) {
                self.seal_current(state)?;
            }
        }
        if state.builder.is_none() {
            let stripe = match &mut state.stripe {
                Some(s) => s,
                None => {
                    let width = self.config.group.width() as u64;
                    let stripe_seq = StripeSeq::new(state.next_seq / width);
                    debug_assert_eq!(state.next_seq % width, 0);
                    let plan = self.config.group.plan(self.config.client, stripe_seq);
                    state.stripe = Some(OpenStripe {
                        acc: ParityAccumulator::with_geometry(
                            plan.data_count() as usize,
                            plan.parity_count() as usize,
                        ),
                        plan,
                        next_member: 0,
                    });
                    state.stripe.as_mut().expect("just inserted")
                }
            };
            let header = stripe.plan.header(stripe.next_member);
            let builder = FragmentBuilder::new(header, self.config.fragment_size);
            if !builder.fits(need) {
                return Err(SwarmError::invalid(format!(
                    "entry of {need} bytes exceeds fragment capacity {}",
                    self.config.fragment_size
                )));
            }
            state.builder = Some(builder);
        }
        Ok(state.builder.as_mut().expect("present"))
    }

    /// Seals the open fragment (if any) and submits it; closes the stripe
    /// with a parity fragment when the last data member seals.
    fn seal_current(&self, state: &mut LogState) -> Result<()> {
        let Some(builder) = state.builder.take() else {
            return Ok(());
        };
        let m = metrics();
        let _seal_span = m.seal_us.span("log.seal");
        let sealed = builder.seal();
        let (server, stripe_done) = {
            let stripe = state.stripe.as_mut().expect("builder implies stripe");
            let server = stripe.plan.member_server(stripe.next_member);
            stripe.acc.add(&sealed);
            stripe.next_member += 1;
            (server, stripe.next_member == stripe.plan.parity_index())
        };
        state.fragment_map.insert(sealed.fid(), server);
        state.next_seq = sealed.fid().seq() + 1;
        state.stats.data_fragments += 1;
        state.stats.bytes_shipped += sealed.bytes.len() as u64;
        // A cache, not a correctness measure: until its store is acked the
        // write pool serves the fragment (`read_local`). Caching it here
        // keeps the newest fragments local after they land. `share`
        // aliases the sealed buffer; no copy is made.
        self.cache.lock().insert(sealed.fid(), sealed.bytes.share());
        m.fragments_sealed.inc();
        swarm_metrics::trace!(
            "log.seal",
            "sealed fragment seq={} for server {}",
            state.next_seq - 1,
            server
        );
        {
            let _submit_span = m.submit_us.span("log.submit");
            self.pool.submit(server, sealed)?;
        }
        if stripe_done {
            self.close_stripe(state)?;
        }
        Ok(())
    }

    /// Emits the stripe's `m` parity fragments and resets stripe state.
    /// Requires all data members sealed (padding happens in `flush`).
    fn close_stripe(&self, state: &mut LogState) -> Result<()> {
        let Some(stripe) = state.stripe.take() else {
            return Ok(());
        };
        let first_parity = stripe.plan.parity_index();
        let headers = (first_parity..stripe.plan.width()).map(|i| stripe.plan.header(i));
        let parities = stripe.acc.build_parities(headers);
        for (offset, parity) in parities.into_iter().enumerate() {
            let server = stripe.plan.member_server(first_parity + offset as u8);
            state.fragment_map.insert(parity.fid(), server);
            state.next_seq = parity.fid().seq() + 1;
            state.stats.parity_fragments += 1;
            state.stats.bytes_shipped += parity.bytes.len() as u64;
            self.pool.submit(server, parity)?;
        }
        Ok(())
    }

    /// Pads the open stripe's unfilled data members with empty fragments
    /// so the stripe can close (used when flushing mid-stripe).
    fn pad_and_close_stripe(&self, state: &mut LogState) -> Result<()> {
        let (plan, mut next_member) = match &state.stripe {
            None => return Ok(()),
            Some(s) if s.next_member == 0 => {
                // Nothing written into this stripe: drop it entirely and
                // reuse its sequence numbers for the next appends.
                state.stripe = None;
                return Ok(());
            }
            Some(s) => (s.plan.clone(), s.next_member),
        };
        while next_member < plan.parity_index() {
            let header = plan.header(next_member);
            let empty = FragmentBuilder::new(header, self.config.fragment_size).seal();
            let server = plan.member_server(next_member);
            let fid = empty.fid();
            state
                .stripe
                .as_mut()
                .expect("stripe open during padding")
                .acc
                .add(&empty);
            state.fragment_map.insert(fid, server);
            state.next_seq = fid.seq() + 1;
            state.stats.padding_fragments += 1;
            state.stats.bytes_shipped += empty.bytes.len() as u64;
            self.pool.submit(server, empty)?;
            next_member += 1;
            state
                .stripe
                .as_mut()
                .expect("stripe open during padding")
                .next_member = next_member;
        }
        self.close_stripe(state)
    }

    /// Appends a data block for `service`, returning its address.
    ///
    /// `create` is the service-specific creation information stored with
    /// the block (the paper's creation record): enough for the service to
    /// find the block in its metadata when it is replayed after a crash or
    /// moved by the cleaner.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidArgument`] if the block exceeds
    /// [`Log::max_block_size`], [`SwarmError::Closed`] after
    /// [`Log::close`], or a transport error if a fragment seal cascades
    /// into a failed store.
    pub fn append_block(
        &self,
        service: ServiceId,
        create: &[u8],
        data: &[u8],
    ) -> Result<BlockAddr> {
        if service == ServiceId::LOG_LAYER {
            return Err(SwarmError::invalid(
                "service id 0 is reserved for the log layer",
            ));
        }
        let need = Entry::block_encoded_len(create.len(), data.len());
        let mut state = self.state.lock();
        let builder = self.ensure_builder(&mut state, need)?;
        let addr = builder.append_block(service, create, data);
        state.appended_bytes += need as u64;
        state.stats.blocks_appended += 1;
        Ok(addr)
    }

    /// Appends a service record, returning its position.
    ///
    /// Record writes are atomic (the enclosing fragment stores atomically)
    /// and replayed in order after a crash.
    ///
    /// # Errors
    ///
    /// As for [`Log::append_block`].
    pub fn append_record(&self, service: ServiceId, kind: u16, data: &[u8]) -> Result<LogPosition> {
        if service == ServiceId::LOG_LAYER {
            return Err(SwarmError::invalid(
                "service id 0 is reserved for the log layer",
            ));
        }
        let need = Entry::record_encoded_len(data.len());
        let mut state = self.state.lock();
        let builder = self.ensure_builder(&mut state, need)?;
        let offset = builder.append_record(service, kind, data);
        let seq = builder.fid().seq();
        state.appended_bytes += need as u64;
        state.stats.records_appended += 1;
        Ok(LogPosition { seq, offset })
    }

    /// Appends a block-deletion record. The block's bytes remain on the
    /// servers until the cleaner reclaims the stripe; this record makes
    /// the deletion durable and replayable.
    ///
    /// # Errors
    ///
    /// As for [`Log::append_block`].
    pub fn delete_block(&self, service: ServiceId, addr: BlockAddr) -> Result<LogPosition> {
        let entry = Entry::Delete { service, addr };
        let need = entry.encoded_len();
        let mut state = self.state.lock();
        let builder = self.ensure_builder(&mut state, need)?;
        let offset = builder.append_delete(service, addr);
        let seq = builder.fid().seq();
        state.appended_bytes += need as u64;
        state.stats.records_appended += 1;
        Ok(LogPosition { seq, offset })
    }

    /// Writes a checkpoint for `service` and flushes the log.
    ///
    /// The fragment containing the checkpoint is stored *marked*, so after
    /// a crash the service's recovery starts from here (§2.1.3, §2.3.1).
    /// Records older than this checkpoint are implicitly deleted and
    /// become cleanable.
    ///
    /// # Errors
    ///
    /// As for [`Log::append_block`] plus any flush error.
    pub fn checkpoint(&self, service: ServiceId, data: &[u8]) -> Result<LogPosition> {
        if service == ServiceId::LOG_LAYER {
            return Err(SwarmError::invalid(
                "service id 0 is reserved for the log layer",
            ));
        }
        let entry = Entry::Checkpoint {
            service,
            data: data.to_vec(),
        };
        let pos = {
            let mut state = self.state.lock();
            // The checkpoint entry and the log layer's checkpoint
            // directory must land in the same (marked) fragment, so
            // recovery can find every service's checkpoint from the
            // anchor alone. Reserve room for both up front.
            let dir_bound = encode_checkpoint_dir(&state.checkpoints, None).len() + 32;
            let need = entry.encoded_len() + dir_bound + 16;
            let checkpoints_snapshot = state.checkpoints.clone();
            let builder = self.ensure_builder(&mut state, need)?;
            let offset = builder.append_checkpoint(service, data);
            let seq = builder.fid().seq();
            let pos = LogPosition { seq, offset };
            let dir = encode_checkpoint_dir(&checkpoints_snapshot, Some((service, pos)));
            builder.append_record(ServiceId::LOG_LAYER, log_record::CHECKPOINT_DIR, &dir);
            state.appended_bytes += need as u64;
            state.stats.checkpoints += 1;
            state.checkpoints.insert(service, pos);
            pos
        };
        self.flush()?;
        // Only a flushed marked fragment moves the anchor: recovery's
        // `LastMarked` broadcast can't see an unstored fragment.
        let mut state = self.state.lock();
        state.anchor_seq = state.anchor_seq.max(Some(pos.seq));
        Ok(pos)
    }

    /// Writes a *marked* fragment carrying only the log layer's checkpoint
    /// directory, and flushes. This re-establishes the recovery anchor at
    /// the current head without touching any service's checkpoint:
    /// recovery writes one after discarding a torn tail, so the resulting
    /// hole in the sequence space falls *below* the anchor, where the
    /// rollforward scan knows to skip missing stripes.
    ///
    /// # Errors
    ///
    /// As for [`Log::flush`].
    pub(crate) fn write_anchor(&self) -> Result<LogPosition> {
        let pos = {
            let mut state = self.state.lock();
            let dir = encode_checkpoint_dir(&state.checkpoints, None);
            let need = dir.len() + 16;
            let builder = self.ensure_builder(&mut state, need)?;
            let offset =
                builder.append_record(ServiceId::LOG_LAYER, log_record::CHECKPOINT_DIR, &dir);
            builder.mark();
            let seq = builder.fid().seq();
            state.appended_bytes += need as u64;
            LogPosition { seq, offset }
        };
        self.flush()?;
        let mut state = self.state.lock();
        state.anchor_seq = state.anchor_seq.max(Some(pos.seq));
        Ok(pos)
    }

    /// The newest checkpoint position for `service`, if any.
    pub fn last_checkpoint(&self, service: ServiceId) -> Option<LogPosition> {
        self.state.lock().checkpoints.get(&service).copied()
    }

    /// Seals and stores everything appended so far, waiting for
    /// durability. Partial stripes are completed (empty-fragment padding
    /// plus parity) so every byte is parity-protected.
    ///
    /// # Errors
    ///
    /// Returns the first store failure (e.g.
    /// [`SwarmError::ServerUnavailable`] if a stripe-group member is
    /// down).
    pub fn flush(&self) -> Result<()> {
        let _span = metrics().flush_us.span("log.flush");
        {
            let mut state = self.state.lock();
            if let Some(b) = &state.builder {
                if !b.is_empty() {
                    self.seal_current(&mut state)?;
                } else {
                    state.builder = None;
                }
            }
            self.pad_and_close_stripe(&mut state)?;
        }
        self.pool.flush()
    }

    /// Closes the log: flushes and rejects further appends.
    ///
    /// # Errors
    ///
    /// Propagates flush failures.
    pub fn close(&self) -> Result<()> {
        self.flush()?;
        self.state.lock().closed = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Reads the bytes at `addr`, transparently decoding them from the
    /// stripe's survivors if the fragment's server is unavailable
    /// (§2.3.3). Unless rebuilt, the returned [`Bytes`] aliases the
    /// fragment's buffer (cache entry or decoded wire frame) — no copy is
    /// made.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::ReconstructionFailed`] when more than `m`
    /// members of the fragment's `k + m` stripe are gone, or the
    /// underlying transport/server errors otherwise.
    pub fn read(&self, addr: BlockAddr) -> Result<Bytes> {
        let start = std::time::Instant::now();
        let local = {
            let mut state = self.state.lock();
            self.read_local(&mut state, addr)
        };
        let (source, result) = local.unwrap_or_else(|| self.read_remote(addr));
        source.record(start.elapsed());
        result
    }

    /// The local half of a read, and the one place a read is counted: the
    /// open builder, then the sealed fragments whose stores are not acked
    /// (their homes may not have them yet), then the client fragment
    /// cache. `None` leaves the address to [`Log::read_remote`].
    fn read_local(
        &self,
        state: &mut LogState,
        addr: BlockAddr,
    ) -> Option<(ReadSource, Result<Bytes>)> {
        metrics().reads.inc();
        state.stats.reads += 1;
        // Unflushed data may still be in the open builder: entries are
        // immutable once appended, so serve such reads straight from the
        // build buffer.
        if let Some(b) = &state.builder {
            if b.fid() == addr.fid {
                let result = match b.read_range(addr.offset, addr.len) {
                    Some(bytes) => Ok(Bytes::from(bytes.to_vec())),
                    None => Err(SwarmError::RangeOutOfBounds {
                        addr,
                        stored: b.len() as u32,
                    }),
                };
                if result.is_ok() {
                    state.stats.cache_hits += 1;
                }
                return Some((ReadSource::Builder, result));
            }
        }
        let bytes = match self.pool.unacked(addr.fid) {
            Some(bytes) => bytes,
            None => self.cache.lock().get(&addr.fid)?.share(),
        };
        state.stats.cache_hits += 1;
        Some((ReadSource::Cache, slice_fragment(&bytes, addr)))
    }

    /// The remote half of a read: everything from the home server down.
    fn read_remote(&self, addr: BlockAddr) -> (ReadSource, Result<Bytes>) {
        // Fast path: direct range read from the fragment's home server
        // through the pipelined read engine — or, when the home does not
        // answer, the same range decoded from the stripe's survivors.
        // Knowing the home is down only reorders the two attempts; what
        // neither serves falls through to locate + rebuild.
        let home = self.state.lock().fragment_map.get(&addr.fid).copied();
        if let Some(server) = home {
            let home_first = self.engine.should_try(server);
            if !home_first {
                metrics().degraded_reads.inc();
                if let Some(data) = self.read_degraded(addr) {
                    return (ReadSource::Reconstruct, Ok(data));
                }
            }
            match self
                .reader
                .read_one(server, addr.fid, addr.offset, addr.len)
            {
                Ok(data) => return (ReadSource::Home, Ok(data)),
                Err(e) if e.is_unavailability() => {}
                Err(e) => return (ReadSource::Home, Err(e)),
            }
            if let Some(data) = home_first.then(|| self.read_degraded(addr)).flatten() {
                return (ReadSource::Reconstruct, Ok(data));
            }
        }

        // Slow path: locate (the map may be stale) or reconstruct.
        if let Some((server, _)) = reconstruct::locate_fragment(&self.engine, addr.fid) {
            self.state.lock().fragment_map.insert(addr.fid, server);
            match self
                .reader
                .read_one(server, addr.fid, addr.offset, addr.len)
            {
                Ok(data) => return (ReadSource::Home, Ok(data)),
                Err(e) if e.is_unavailability() => {}
                Err(e) => return (ReadSource::Home, Err(e)),
            }
        }

        let m = metrics();
        swarm_metrics::trace!("log.read", "reconstructing fragment {}", addr.fid);
        let bytes = {
            let _span = m.reconstruct_us.span("log.reconstruct");
            match reconstruct::reconstruct_fragment(&self.reader, addr.fid) {
                Ok(b) => b,
                Err(e) => return (ReadSource::Reconstruct, Err(e)),
            }
        };
        m.reconstructions.inc();
        let data = slice_fragment(&bytes, addr);
        {
            let mut state = self.state.lock();
            state.stats.reconstructions += 1;
            self.cache.lock().insert(addr.fid, bytes);
        }
        (ReadSource::Reconstruct, data)
    }

    /// Decodes the bytes at `addr` from the other members of its stripe
    /// without touching its home ([`reconstruct::rebuild_range`]). The
    /// stripe's description comes from the cache or one direct `Locate` to
    /// a parity mate, placed by this log's stripe plan for the block's
    /// writer (`addr` may be another client's: a log reads any client's
    /// blocks). `None` — no such mate, too few survivors, a bad range —
    /// leaves the read to the slow path.
    fn read_degraded(&self, addr: BlockAddr) -> Option<Bytes> {
        let _span = metrics().reconstruct_us.span("log.reconstruct");
        let group = &self.config.group;
        let stripe_seq = StripePlan::stripe_of(addr.fid.seq(), group.width());
        let plan = group.plan(addr.fid.client(), stripe_seq);
        let lost = (addr.fid.seq() - plan.first_seq) as u8;
        let end = addr.offset.checked_add(addr.len)?;
        if lost >= plan.parity_index() {
            return None; // parity holds no blocks
        }
        let key = plan.member_fid(0);
        let cached = self.stripes.lock().get(&key).cloned();
        let stripe = match cached {
            Some(stripe) => stripe,
            None => {
                let mate = plan.header(lost);
                let found = Arc::new(reconstruct::stripe_info(&self.engine, &mate)?);
                self.stripes.lock().insert(key, found.clone());
                found
            }
        };
        if stripe.member_fid(lost) != addr.fid {
            return None; // not this block's stripe: nothing validates a decode
        }
        let data =
            reconstruct::rebuild_range(&self.reader, &stripe, lost, addr.offset..end).ok()?;
        metrics().reconstructions.inc();
        self.state.lock().stats.reconstructions += 1;
        Some(data)
    }

    /// Reads several addresses at once — the scan path. Builder and
    /// cache hits are served locally; the remaining addresses are
    /// grouped by home server and fetched through the pipelined read
    /// engine (runs against one server collapse into `ReadBatch` RPCs,
    /// servers are queried in parallel), so a scan costs round trips
    /// proportional to the servers involved, not the blocks. Addresses
    /// whose fragment is unlocated or whose home is unavailable take the
    /// remote half of [`Log::read`] one at a time, reconstruction included.
    ///
    /// Results are in `addrs` order.
    ///
    /// # Errors
    ///
    /// Returns the first non-availability error (a bad range, a failed
    /// reconstruction); per the single-read path, availability problems
    /// are masked by locate + reconstruction before they surface.
    pub fn read_many(&self, addrs: &[BlockAddr]) -> Result<Vec<Bytes>> {
        let mut out: Vec<Option<Bytes>> = Vec::new();
        out.resize_with(addrs.len(), || None);
        // (index into addrs/out, the read at its home) for the engine.
        let mut jobs: Vec<(usize, (ServerId, swarm_net::ReadSpec))> = Vec::new();
        // `should_try`, asked once per home: it may elect this scan the probe.
        let mut homes: Vec<(ServerId, bool)> = Vec::new();
        let mut fallback: Vec<usize> = Vec::new();
        {
            let mut state = self.state.lock();
            for (i, &addr) in addrs.iter().enumerate() {
                if let Some((_, served)) = self.read_local(&mut state, addr) {
                    out[i] = Some(served?);
                    continue;
                }
                let Some(server) = state.fragment_map.get(&addr.fid).copied() else {
                    fallback.push(i);
                    continue;
                };
                let try_home = match homes.iter().find(|(s, _)| *s == server) {
                    Some(&(_, known)) => known,
                    None => {
                        let asked = self.engine.should_try(server);
                        homes.push((server, asked));
                        asked
                    }
                };
                if try_home {
                    let spec = swarm_net::ReadSpec {
                        fid: addr.fid,
                        offset: addr.offset,
                        len: addr.len,
                    };
                    jobs.push((i, (server, spec)));
                } else {
                    // Home known down: the remote half decodes.
                    fallback.push(i);
                }
            }
        }
        let reads: Vec<_> = jobs.iter().map(|(_, job)| *job).collect();
        for (&(i, _), result) in jobs.iter().zip(self.reader.fetch_scatter(&reads)) {
            match result {
                Ok(bytes) => out[i] = Some(bytes),
                // Home gone or mapping stale: the remote half will locate
                // or reconstruct.
                Err(e) if e.is_unavailability() => fallback.push(i),
                Err(e) => return Err(e),
            }
        }
        for i in fallback {
            let start = std::time::Instant::now();
            let (source, result) = self.read_remote(addrs[i]);
            source.record(start.elapsed());
            out[i] = Some(result?);
        }
        Ok(out
            .into_iter()
            .map(|b| b.expect("every address resolved"))
            .collect())
    }

    /// Client-side operation counters.
    pub fn stats(&self) -> LogStats {
        self.state.lock().stats
    }

    /// Fetches and parses a whole fragment (the cleaner uses this): from
    /// the write pool or the fragment cache, else from the home this log
    /// stored it on (a `Locate` and a `Read` there, no broadcast), else
    /// from wherever a broadcast finds it, else by reconstruction.
    /// `Ok(None)` means the fragment does not exist anywhere.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and corruption.
    pub fn fetch_fragment_view(&self, fid: FragmentId) -> Result<Option<FragmentView>> {
        let cached = self
            .pool
            .unacked(fid)
            .or_else(|| self.cache.lock().get(&fid).map(Bytes::share));
        if let Some(bytes) = cached {
            return Ok(Some(FragmentView::parse(&bytes)?));
        }
        let home = self.state.lock().fragment_map.get(&fid).copied();
        let at_home = home
            .filter(|&server| self.engine.should_try(server))
            .map(|server| reconstruct::fetch_fragment(&self.reader, server, fid));
        let fetched = match at_home {
            Some(Ok(bytes)) => Some(bytes),
            Some(Err(e)) if !e.is_unavailability() => return Err(e),
            // No known home, home gone or mapping stale: look everywhere.
            _ => reconstruct::read_fragment_anywhere(&self.reader, fid)?,
        };
        match fetched {
            None => Ok(None),
            Some(bytes) => {
                let view = FragmentView::parse(&bytes)?;
                self.cache.lock().insert(fid, bytes);
                Ok(Some(view))
            }
        }
    }

    /// Forgets the home-server mapping of a deleted fragment.
    pub fn forget_fragment(&self, fid: FragmentId) {
        self.cache.lock().remove(&fid);
        self.state.lock().fragment_map.remove(&fid);
    }

    /// Sends one request to `server` over the read engine's pooled
    /// connections (a stale connection is transparently redialed).
    ///
    /// # Errors
    ///
    /// Propagates transport errors after one reconnect attempt.
    pub fn call_server(&self, server: ServerId, request: &Request) -> Result<Response> {
        self.engine.call(server, request)
    }

    /// Deletes fragment `fid` on its home server (cleaner use).
    ///
    /// # Errors
    ///
    /// Propagates server errors; deleting an already-absent fragment is
    /// reported as [`SwarmError::FragmentNotFound`].
    pub fn delete_fragment(&self, fid: FragmentId) -> Result<()> {
        self.delete_fragments(&[fid])
            .pop()
            .expect("one result per fragment")
    }

    /// Deletes each of `fids` on its home server, all in one fan-out, and
    /// returns one result per fragment, as for [`Log::delete_fragment`].
    /// The deletes bound for one server arrive together, so its journal
    /// can commit them in one batch instead of one sync each.
    pub fn delete_fragments(&self, fids: &[FragmentId]) -> Vec<Result<()>> {
        let homes: Vec<Option<ServerId>> = {
            let state = self.state.lock();
            fids.iter()
                .map(|fid| state.fragment_map.get(fid).copied())
                .collect()
        };
        let mut results: Vec<Result<()>> = Vec::with_capacity(fids.len());
        let mut jobs = Vec::new();
        for (i, (&fid, home)) in fids.iter().zip(homes).enumerate() {
            let home = home.or_else(|| {
                reconstruct::locate_fragment(&self.engine, fid).map(|(server, _)| server)
            });
            match home {
                Some(server) => {
                    jobs.push((i, (server, Request::Delete { fid })));
                    results.push(Ok(()));
                }
                None => results.push(Err(SwarmError::FragmentNotFound(fid))),
            }
        }
        let (slots, requests): (Vec<usize>, Vec<_>) = jobs.into_iter().unzip();
        for (i, reply) in slots.into_iter().zip(self.engine.fan_out(requests)) {
            results[i] = reply.and_then(Response::into_result).map(|_| {
                self.forget_fragment(fids[i]);
            });
        }
        results
    }

    /// Preallocates server slots for the next `stripes` stripes, so the
    /// corresponding stores cannot later fail for lack of space (§2.3's
    /// "preallocating space for a fragment" operation).
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::OutOfSpace`] if any member server cannot
    /// reserve a slot, *before* any data is written — the caller can run
    /// the cleaner and retry.
    pub fn preallocate_stripes(&self, stripes: u64) -> Result<()> {
        let width = self.config.group.width() as u64;
        let first = {
            let state = self.state.lock();
            // Start at the current stripe's first sequence (slots for
            // already-written members are no-ops on the servers).
            (state.next_seq / width) * width
        };
        for s in 0..stripes {
            let stripe_seq = StripeSeq::new(first / width + s);
            let plan = self.config.group.plan(self.config.client, stripe_seq);
            for i in 0..plan.width() {
                let fid = plan.member_fid(i);
                let server = plan.member_server(i);
                self.call_server(
                    server,
                    &Request::Preallocate {
                        fid,
                        len: self.config.fragment_size as u32,
                    },
                )?
                .into_result()?;
            }
        }
        Ok(())
    }

    /// The sequence number the next-appended fragment will get.
    pub fn next_seq(&self) -> u64 {
        let state = self.state.lock();
        match &state.builder {
            Some(b) => b.fid().seq(),
            None => state.next_seq,
        }
    }
}

/// Encodes the per-service checkpoint directory, optionally overriding
/// one entry with a just-written checkpoint.
fn encode_checkpoint_dir(
    checkpoints: &HashMap<ServiceId, LogPosition>,
    extra: Option<(ServiceId, LogPosition)>,
) -> Vec<u8> {
    use swarm_types::{ByteWriter, Encode};
    let mut merged: std::collections::BTreeMap<ServiceId, LogPosition> =
        checkpoints.iter().map(|(s, p)| (*s, *p)).collect();
    if let Some((svc, pos)) = extra {
        merged.insert(svc, pos);
    }
    let mut w = ByteWriter::new();
    w.put_u32(merged.len() as u32);
    for (svc, pos) in merged {
        svc.encode(&mut w);
        w.put_u64(pos.seq);
        w.put_u32(pos.offset);
    }
    w.into_bytes()
}

/// Decodes a checkpoint directory record payload.
///
/// # Errors
///
/// Returns [`SwarmError::Corrupt`] on malformed payloads.
pub fn decode_checkpoint_dir(data: &[u8]) -> Result<Vec<(ServiceId, LogPosition)>> {
    use swarm_types::{ByteReader, Decode};
    let mut r = ByteReader::new(data);
    let n = r.get_u32()? as usize;
    if n > 4096 {
        return Err(SwarmError::corrupt("checkpoint directory too large"));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let svc = ServiceId::decode(&mut r)?;
        let seq = r.get_u64()?;
        let offset = r.get_u32()?;
        out.push((svc, LogPosition { seq, offset }));
    }
    Ok(out)
}

/// Cuts the addressed range out of a whole-fragment buffer as a shared
/// view — no copy.
fn slice_fragment(bytes: &Bytes, addr: BlockAddr) -> Result<Bytes> {
    let start = addr.offset as usize;
    let end = addr.end() as usize;
    if end > bytes.len() {
        return Err(SwarmError::RangeOutOfBounds {
            addr,
            stored: bytes.len() as u32,
        });
    }
    Ok(bytes.slice(start..end))
}
