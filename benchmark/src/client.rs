//! One client log and the oracle that checks it.
//!
//! A [`Client`] is what a workload drives: `write`, `commit`, `read`. It
//! hides whether the keys are blocks appended straight to the `Log`
//! (`ingest`, `point-read`, `degraded-read`) or LBAs of a `LogicalDisk`
//! (`oltp`), and it keeps, per key, the version a read must return — so
//! every read is verified byte-exact and a crash can be checked against
//! exactly the writes that were acknowledged.

use std::sync::Arc;

use swarm_log::{recover, Entry, Log, LogConfig};
use swarm_net::tcp::TcpTransport;
use swarm_net::Transport;
use swarm_services::service::SharedService;
use swarm_services::{LogicalDisk, LogicalDiskService, ServiceStack};
use swarm_types::{BlockAddr, ClientId, FragmentId, Geometry, Result, ServiceId};

use crate::cluster::Cluster;
use crate::gen::{check_value, fill_value, Rng64, BLOCK};
use crate::trace::{
    now_ns, Layer, RpcKind, Span, TracedService, TracedTransport, Tracer, NO_SERVER,
};

/// Service id every benchmark block is written under.
pub const SERVICE: ServiceId = ServiceId::new(21);

/// How a client stores its keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `Log::append_block` / `Log::read`; an overwrite leaves the old
    /// block behind as garbage.
    Raw,
    /// `LogicalDisk::write` / `LogicalDisk::read` of this many LBAs.
    Disk,
}

#[derive(Debug, Clone, Copy)]
pub struct ClientSpec {
    pub id: ClientId,
    pub mode: Mode,
    /// `None` is the paper's (n-1)+1 XOR stripe over all servers.
    pub geometry: Option<Geometry>,
}

/// An interval on the run's clock and whether the bytes were right.
pub struct ReadOutcome {
    pub start: u64,
    pub end: u64,
    pub correct: bool,
}

pub struct Client {
    spec: ClientSpec,
    tcp: Arc<TcpTransport>,
    log: Arc<Log>,
    disk: Option<Arc<LogicalDisk>>,
    stack: Arc<ServiceStack>,
    tracer: Option<Arc<Tracer>>,
    /// Raw mode: committed address per key.
    table: Vec<BlockAddr>,
    /// Version a read of the key must return.
    visible: Vec<u32>,
    /// Newest version written (ahead of `visible` for staged raw writes).
    latest: Vec<u32>,
    /// Raw mode: writes since the last commit.
    staged: Vec<(usize, BlockAddr, u32)>,
    /// Keys written since the last commit with the version they had
    /// before, oldest first: what a crash now would roll back.
    unacked: Vec<(usize, u32)>,
    buf: Box<[u8; BLOCK]>,
    scratch: Box<[u8; BLOCK]>,
    /// Keys `retired..readable` have a version a read can be checked
    /// against; keys below `retired` were deleted with their stripes.
    readable: usize,
    retired: usize,
    /// Σ time and count of `write` calls while tracing.
    pub write_ns: u64,
    pub writes: u64,
}

fn create_info(key: usize, version: u32) -> [u8; 12] {
    let mut c = [0u8; 12];
    c[..8].copy_from_slice(&(key as u64).to_le_bytes());
    c[8..].copy_from_slice(&version.to_le_bytes());
    c
}

fn parse_create(create: &[u8]) -> Option<(usize, u32)> {
    let key = u64::from_le_bytes(create.get(..8)?.try_into().ok()?);
    let version = u32::from_le_bytes(create.get(8..12)?.try_into().ok()?);
    Some((key as usize, version))
}

fn log_config(cluster: &Cluster, spec: &ClientSpec) -> Result<LogConfig> {
    // `LogConfig::new` defaults: 1 MiB fragments, write and read window 8,
    // a 16-fragment client cache, no prefetch.
    let config = LogConfig::new(spec.id, cluster.server_ids())?;
    match spec.geometry {
        Some(g) => config.geometry(g),
        None => Ok(config),
    }
}

fn traced(tcp: &Arc<TcpTransport>, tracer: &Option<Arc<Tracer>>) -> Arc<dyn Transport> {
    match tracer {
        Some(t) => Arc::new(TracedTransport::new(tcp.clone(), t.clone())),
        None => tcp.clone(),
    }
}

/// A logical disk on `log` and the stack recovery and cleaning reach it
/// through.
fn disk_stack(
    spec: &ClientSpec,
    log: &Arc<Log>,
    tracer: &Option<Arc<Tracer>>,
) -> Result<(Option<Arc<LogicalDisk>>, Arc<ServiceStack>)> {
    let mut stack = ServiceStack::new();
    if spec.mode == Mode::Raw {
        return Ok((None, Arc::new(stack)));
    }
    let disk = Arc::new(LogicalDisk::new(SERVICE, log.clone()));
    let service = LogicalDiskService::new(disk.clone());
    let shared: SharedService = match tracer {
        Some(t) => Arc::new(parking_lot::Mutex::new(TracedService::new(
            service,
            spec.id,
            t.clone(),
        ))),
        None => Arc::new(parking_lot::Mutex::new(service)),
    };
    stack.register(shared)?;
    Ok((Some(disk), Arc::new(stack)))
}

impl Client {
    /// A client with an empty log, on its own transport with its own
    /// connection to each server.
    pub fn create(
        cluster: &Cluster,
        spec: ClientSpec,
        tracer: Option<Arc<Tracer>>,
    ) -> Result<Client> {
        let tcp = cluster.transport();
        let log = Arc::new(Log::create(
            traced(&tcp, &tracer),
            log_config(cluster, &spec)?,
        )?);
        let (disk, stack) = disk_stack(&spec, &log, &tracer)?;
        Ok(Client {
            spec,
            tcp,
            log,
            disk,
            stack,
            tracer,
            table: Vec::new(),
            visible: Vec::new(),
            latest: Vec::new(),
            staged: Vec::new(),
            unacked: Vec::new(),
            buf: Box::new([0; BLOCK]),
            scratch: Box::new([0; BLOCK]),
            readable: 0,
            retired: 0,
            write_ns: 0,
            writes: 0,
        })
    }

    pub fn id(&self) -> u32 {
        self.spec.id.raw()
    }

    pub fn log(&self) -> &Arc<Log> {
        &self.log
    }

    pub fn stack(&self) -> &Arc<ServiceStack> {
        &self.stack
    }

    /// The transport, for re-addressing a restarted server.
    pub fn tcp(&self) -> &Arc<TcpTransport> {
        &self.tcp
    }

    /// The tracer, while it is recording.
    fn tracing(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref().filter(|t| t.is_on())
    }

    /// One past the newest key that has a readable version.
    pub fn keys(&self) -> usize {
        self.readable
    }

    /// A uniformly chosen key that may be read or overwritten.
    pub fn pick(&self, rng: &mut Rng64) -> usize {
        self.retired + rng.below((self.readable - self.retired) as u64) as usize
    }

    /// Payload bytes of every live key's current version.
    pub fn live_bytes(&self) -> u64 {
        ((self.readable - self.retired) * BLOCK) as u64
    }

    /// Deletes the stripe holding the oldest `keys` live keys (raw mode,
    /// keys loaded a whole stripe at a time): the log as a sliding window
    /// with a retention limit.
    pub fn retire_oldest(&mut self, keys: usize) -> Result<()> {
        let width = self.log.group().width() as u64;
        let first = self.table[self.retired].fid;
        let stripe_first = first.seq() / width * width;
        for seq in stripe_first..stripe_first + width {
            self.log
                .delete_fragment(FragmentId::new(first.client(), seq))?;
        }
        self.retired += keys;
        Ok(())
    }

    /// Writes the next version of `key`; `key == ` the number of keys so
    /// far appends a new one. Not durable, and in raw mode not readable,
    /// until [`Client::commit`].
    pub fn write(&mut self, key: usize) -> Result<()> {
        if key == self.latest.len() {
            self.table.push(BlockAddr::default());
            self.visible.push(0);
            self.latest.push(0);
        }
        let previous = self.latest[key];
        let version = previous + 1;
        let id = self.id();
        fill_value(&mut self.buf, id, key as u64, version);
        let start = self.tracing().map(|_| now_ns());
        match &self.disk {
            None => {
                let addr = self.log.append_block(
                    SERVICE,
                    &create_info(key, version),
                    self.buf.as_slice(),
                )?;
                self.staged.push((key, addr, version));
            }
            Some(disk) => {
                disk.write(key as u64, self.buf.as_slice())?;
                self.visible[key] = version;
                self.readable = self.readable.max(key + 1);
            }
        }
        if let Some(start) = start {
            self.write_ns += now_ns() - start;
            self.writes += 1;
        }
        self.latest[key] = version;
        self.unacked.push((key, previous));
        Ok(())
    }

    /// Flushes; when it returns `Ok` every write so far is acknowledged
    /// durable. Returns the flush's interval and the payload bytes it
    /// newly covered.
    pub fn commit(&mut self) -> Result<(u64, u64, u64)> {
        let start = now_ns();
        match &self.disk {
            None => self.log.flush()?,
            Some(disk) => disk.flush()?,
        }
        let end = now_ns();
        if let Some(t) = &self.tracer {
            t.record(Span {
                layer: Layer::Flush,
                kind: RpcKind::Store,
                client: self.id(),
                server: NO_SERVER,
                fid: 0,
                start,
                end,
                flag: false,
            });
        }
        for (key, addr, version) in self.staged.drain(..) {
            self.table[key] = addr;
            self.visible[key] = version;
            self.readable = self.readable.max(key + 1);
        }
        let bytes = (self.unacked.len() * BLOCK) as u64;
        self.unacked.clear();
        Ok((start, end, bytes))
    }

    /// Reads `key` and checks the bytes against the version it must hold.
    pub fn read(&mut self, key: usize) -> Result<ReadOutcome> {
        let want = self.visible[key];
        let before = self.tracing().map(|_| self.log.stats().reconstructions);
        let (start, data, end, layer, fid) = match &self.disk {
            None => {
                let addr = self.table[key];
                let start = now_ns();
                let data = self.log.read(addr)?;
                (start, Some(data), now_ns(), Layer::LogRead, addr.fid.raw())
            }
            Some(disk) => {
                let start = now_ns();
                let data = disk.read(key as u64)?;
                (start, data, now_ns(), Layer::DiskRead, 0)
            }
        };
        if let (Some(t), Some(before)) = (self.tracing(), before) {
            t.record(Span {
                layer,
                kind: RpcKind::Read,
                client: self.id(),
                server: NO_SERVER,
                fid,
                start,
                end,
                flag: self.log.stats().reconstructions > before,
            });
        }
        let id = self.id();
        let correct = data
            .is_some_and(|d| check_value(d.as_slice(), &mut self.scratch, id, key as u64, want));
        Ok(ReadOutcome {
            start,
            end,
            correct,
        })
    }

    /// Writes a checkpoint, so recovery rolls forward from here.
    pub fn checkpoint(&mut self) -> Result<()> {
        match &self.disk {
            // The raw workloads' "service" has no state of its own: the
            // benchmark's table is the oracle, not something to recover.
            None => self
                .log
                .checkpoint(SERVICE, &(self.keys() as u64).to_le_bytes())
                .map(|_| ()),
            Some(_) => self.stack.checkpoint_all(&self.log),
        }
    }

    /// Forgets everything a crash forgets — the log object with its
    /// unflushed builder, the connections, the disk map — and keeps only
    /// the oracle, rolled back to the acknowledged versions. Returns the
    /// keys whose unacknowledged write may or may not have reached disk.
    pub fn crash(self) -> Crashed {
        let Client {
            spec,
            tracer,
            table,
            mut visible,
            unacked,
            retired,
            ..
        } = self;
        // Newest first, so a key written twice ends at its oldest version.
        if spec.mode == Mode::Disk {
            for &(key, previous) in unacked.iter().rev() {
                visible[key] = previous;
            }
        }
        let maybe: Vec<(usize, u32)> = unacked.iter().map(|&(k, prev)| (k, prev + 1)).collect();
        // A key appended but never committed has no acknowledged version.
        while visible.last() == Some(&0) {
            visible.pop();
        }
        let table = table[..visible.len().min(table.len())].to_vec();
        Crashed {
            spec,
            tracer,
            table,
            visible,
            maybe,
            retired,
        }
    }
}

/// What is left of a client after [`Client::crash`].
pub struct Crashed {
    spec: ClientSpec,
    tracer: Option<Arc<Tracer>>,
    table: Vec<BlockAddr>,
    visible: Vec<u32>,
    maybe: Vec<(usize, u32)>,
    retired: usize,
}

impl Crashed {
    /// Recovers the log (and, in disk mode, the logical disk) from the
    /// servers: `recover()` + `ServiceStack::recover` on a fresh transport.
    /// Returns the client and how many replayed blocks disagreed with the
    /// oracle.
    pub fn recover(self, cluster: &Cluster) -> Result<(Client, u64)> {
        let Crashed {
            spec,
            tracer,
            mut table,
            mut visible,
            maybe,
            retired,
        } = self;
        let tcp = cluster.transport();
        let (log, replay) = recover(
            traced(&tcp, &tracer),
            log_config(cluster, &spec)?,
            &[SERVICE],
        )?;
        let log = Arc::new(log);
        let (disk, stack) = disk_stack(&spec, &log, &tracer)?;
        stack.recover(&replay)?;

        // Raw mode: every block the log replays after the checkpoint must
        // be one the oracle knows, at the address the oracle has — unless
        // it is a write that was never acknowledged.
        let mut wrong = 0;
        if spec.mode == Mode::Raw {
            for e in replay.records_for(SERVICE) {
                let Entry::Block { create, .. } = &e.entry else {
                    continue;
                };
                let (Some((key, version)), Some(addr)) = (parse_create(create), e.block_addr)
                else {
                    wrong += 1;
                    continue;
                };
                if maybe.contains(&(key, version)) {
                    // It did reach disk: from now on it is the key's
                    // acknowledged version.
                    if key == visible.len() {
                        visible.push(0);
                        table.push(BlockAddr::default());
                    }
                    if key < visible.len() && version == visible[key] + 1 {
                        visible[key] = version;
                        table[key] = addr;
                    }
                    continue;
                }
                let known = key < visible.len() && version <= visible[key];
                let current = known && version == visible[key];
                if !known || (current && table[key] != addr) {
                    wrong += 1;
                }
            }
        }
        let latest = visible.clone();
        let readable = visible.len();
        let mut client = Client {
            spec,
            tcp,
            log,
            disk,
            stack,
            tracer,
            table,
            visible,
            latest,
            staged: Vec::new(),
            unacked: Vec::new(),
            buf: Box::new([0; BLOCK]),
            scratch: Box::new([0; BLOCK]),
            readable,
            retired,
            write_ns: 0,
            writes: 0,
        };
        // Disk mode: an unacknowledged overwrite either survived or did
        // not; both honour the contract. Adopt what the disk holds (the
        // caller's read-back then checks it like any other key).
        if client.spec.mode == Mode::Disk {
            for &(key, version) in &maybe {
                if key < client.visible.len()
                    && version == client.visible[key] + 1
                    && !client.read(key)?.correct
                {
                    client.visible[key] = version;
                    client.latest[key] = version;
                }
            }
        }
        Ok((client, wrong))
    }
}

/// Blocks of `BLOCK` bytes (with this benchmark's creation record) that
/// fit one data fragment of `log`.
pub fn blocks_per_fragment(log: &Log) -> usize {
    // `max_block_size` is the fragment body less one block entry's fixed
    // overhead (11 bytes) with empty creation info.
    let body = log.max_block_size() + 11;
    body / (11 + create_info(0, 0).len() + BLOCK)
}
