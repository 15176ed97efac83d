//! Schedule execution and crash-consistency checking.
//!
//! The runner's oracle is a **model of acked writes**: a map from block
//! id to `(address, length, fill byte)` that a block enters only when a
//! flush or checkpoint covering it *succeeded*. Everything the harness
//! asserts follows from the paper's durability contract — data the
//! client was told is durable must stay readable (possibly via parity
//! reconstruction); data whose ack was lost may or may not survive and
//! is simply never verified.
//!
//! The model is shared with a [`ChaosService`] registered on the service
//! stack, so when the cleaner moves a block the model's address moves
//! with it. Moves of *unknown* ids are ignored: a block whose flush
//! failed client-side can still be durable server-side ("limbo"), and
//! the cleaner is entitled to move it.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use swarm_cleaner::{CleanPolicy, Cleaner};
use swarm_log::{recover, Log, LogConfig, ReplayEntry};
use swarm_services::{Service, ServiceStack};
use swarm_types::{BlockAddr, ClientId, Geometry, Result, ServerId, ServiceId, SwarmError};

use crate::cluster::{Cluster, StoreKind, TransportKind};
use crate::schedule::{ChaosEvent, DownSet, Schedule};

/// The service id the harness writes blocks under.
pub const CHAOS_SERVICE: ServiceId = ServiceId::new(7);

/// What the harness believes about one acked block.
#[derive(Debug, Clone, Copy)]
struct BlockState {
    addr: BlockAddr,
    len: usize,
    fill: u8,
}

/// Shared harness-side view of every block the client has appended.
///
/// `pending` matters for correctness of the oracle itself: the cleaner
/// flushes the open stripe during a pass, which can make a
/// not-yet-acked block movable. The move notification arrives before
/// the runner acks the block, so unless pending addresses live behind
/// the same lock the ack would promote a stale (deleted) address into
/// the model.
#[derive(Default)]
struct ModelInner {
    /// Blocks covered by a successful flush, keyed by harness id.
    acked: BTreeMap<u64, BlockState>,
    /// Appended but not yet covered by a successful flush.
    pending: Vec<(u64, BlockState)>,
}

type Model = Arc<Mutex<ModelInner>>;

/// The model-maintaining service: tracks cleaner moves, checkpoints on
/// demand, and treats replay as a no-op (the model lives harness-side).
struct ChaosService {
    model: Model,
}

impl Service for ChaosService {
    fn id(&self) -> ServiceId {
        CHAOS_SERVICE
    }

    fn name(&self) -> &str {
        "chaos-model"
    }

    fn restore_checkpoint(&mut self, _data: &[u8]) -> Result<()> {
        Ok(())
    }

    fn replay(&mut self, _entry: &ReplayEntry) -> Result<()> {
        Ok(())
    }

    fn block_moved(&mut self, old: BlockAddr, new: BlockAddr, create: &[u8]) -> Result<()> {
        let Ok(raw) = <[u8; 8]>::try_from(create) else {
            return Err(SwarmError::invalid("chaos creation record is 8 bytes"));
        };
        let id = u64::from_le_bytes(raw);
        let mut model = self.model.lock();
        if let Some(state) = model.acked.get_mut(&id) {
            if state.addr == old {
                state.addr = new;
            }
        }
        for (pid, state) in &mut model.pending {
            if *pid == id && state.addr == old {
                state.addr = new;
            }
        }
        // Unknown id: a limbo block (durable but never acked to the
        // harness). The cleaner may move it; nothing to track.
        Ok(())
    }

    fn write_checkpoint(&mut self, log: &Log) -> Result<()> {
        log.checkpoint(CHAOS_SERVICE, b"chaos-ckpt")?;
        Ok(())
    }
}

/// The full set of knobs that pin down one chaos run.
///
/// `Display` prints the exact `swarm-chaos` replay command and `FromStr`
/// parses one back, so a failing-seed line in CI output is checkably
/// lossless: parsing what was printed yields identical options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Schedule seed.
    pub seed: u64,
    /// Transport under test.
    pub transport: TransportKind,
    /// Fragment store backing the servers.
    pub store: StoreKind,
    /// Body events generated per schedule.
    pub events: usize,
    /// Cluster width (`k + m`).
    pub servers: u32,
    /// Parity members per stripe (`m`).
    pub parity: u32,
    /// Concurrent client logs sharing the cluster.
    pub clients: u32,
}

impl fmt::Display for RunOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "swarm-chaos --seed {} --transport {} --store {} --events {} --geometry {}+{} \
             --clients {}",
            self.seed,
            self.transport,
            self.store,
            self.events,
            self.servers - self.parity,
            self.parity,
            self.clients
        )
    }
}

impl FromStr for RunOptions {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        let mut tokens = s.split_whitespace();
        if tokens.next() != Some("swarm-chaos") {
            return Err("replay line must start with `swarm-chaos`".into());
        }
        let mut seed = None;
        let mut transport = None;
        let mut store = None;
        let mut events = None;
        let mut geometry: Option<Geometry> = None;
        let mut clients = None;
        while let Some(flag) = tokens.next() {
            let value = tokens
                .next()
                .ok_or_else(|| format!("flag {flag} is missing its value"))?;
            match flag {
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
                "--transport" => transport = Some(value.parse::<TransportKind>()?),
                "--store" => store = Some(value.parse::<StoreKind>()?),
                "--events" => events = Some(value.parse::<usize>().map_err(|e| e.to_string())?),
                "--geometry" => {
                    geometry = Some(value.parse::<Geometry>().map_err(|e| e.to_string())?)
                }
                "--clients" => clients = Some(value.parse::<u32>().map_err(|e| e.to_string())?),
                other => return Err(format!("unknown replay flag {other}")),
            }
        }
        let geometry = geometry.ok_or("replay line is missing --geometry")?;
        Ok(RunOptions {
            seed: seed.ok_or("replay line is missing --seed")?,
            transport: transport.ok_or("replay line is missing --transport")?,
            store: store.ok_or("replay line is missing --store")?,
            events: events.ok_or("replay line is missing --events")?,
            servers: geometry.width() as u32,
            parity: geometry.parity() as u32,
            // Older replay lines predate multi-client runs: one client.
            clients: clients.unwrap_or(1),
        })
    }
}

/// Panics recorded by [`install_panic_hook`]'s hook and not yet claimed
/// by a run.
static PANICS: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());

/// Makes a panicked thread a failed run: every panic, on any thread, is
/// recorded with its thread's name and a backtrace, and
/// [`Runner::run`] moves what was recorded during a run into
/// that run's [`RunReport::failures`]. The previous hook still runs, so
/// the message reaches stderr as before. For the binary, which runs one
/// schedule at a time: a test process would blame whichever run ends next
/// for any test's panic.
pub fn install_panic_hook() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let thread = std::thread::current();
        let report = format!(
            "thread '{}' {info}\n{}",
            thread.name().unwrap_or("<unnamed>"),
            std::backtrace::Backtrace::force_capture()
        );
        panics().push(report);
        previous(info);
    }));
}

/// A thread that panicked holding the lock left the list whole: a push or
/// a take is one step.
fn panics() -> std::sync::MutexGuard<'static, Vec<String>> {
    PANICS.lock().unwrap_or_else(|held| held.into_inner())
}

/// The outcome of replaying one schedule on one transport.
#[derive(Debug)]
pub struct RunReport {
    /// Seed the schedule came from.
    pub seed: u64,
    /// Transport the run used.
    pub transport: TransportKind,
    /// Fragment store backing the servers during the run.
    pub store: StoreKind,
    /// Schedule hash (transport-independent for a given seed).
    pub hash: u64,
    /// Events executed.
    pub events: usize,
    /// Individual block reads that verified successfully.
    pub verified_reads: u64,
    /// Blocks acked over the whole run.
    pub acked_blocks: u64,
    /// Parity members per stripe (`m`) the run striped with.
    pub parity: u32,
    /// Concurrent client logs the run dealt events across.
    pub clients: u32,
    /// Invariant violations, each tagged with the offending event index.
    pub failures: Vec<String>,
}

impl RunReport {
    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The full option set of this run, for replay lines.
    pub fn options(&self, events: usize, servers: u32) -> RunOptions {
        RunOptions {
            seed: self.seed,
            transport: self.transport,
            store: self.store,
            events,
            servers,
            parity: self.parity,
            clients: self.clients,
        }
    }

    /// The one-liner that replays this exact run.
    pub fn replay_command(&self, events: usize, servers: u32) -> String {
        self.options(events, servers).to_string()
    }
}

fn make_config(client: ClientId, servers: u32, parity: u32) -> Result<LogConfig> {
    Ok(
        LogConfig::new(client, (0..servers).map(ServerId::new).collect())?
            // `m = 1` resolves to the paper's XOR geometry; wider parity
            // engages the Reed–Solomon coder under the same chaos matrix.
            .geometry(Geometry::new((servers - parity) as u8, parity as u8)?)?
            .fragment_size(4096)
            // Every verification read must hit the servers, not a client
            // cache — the whole point is checking what survived.
            .cache_fragments(0)
            // Chaos connections drop on purpose; more retries with a
            // short backoff ride out injected transients without turning
            // a deliberate down-window into a minutes-long stall.
            .store_retries(8)
            .retry_backoff(Duration::from_millis(5)),
    )
}

/// One client's complete state: its own log, cleaner, service stack,
/// and acked-write model. Rigs share nothing but the cluster, so a
/// byte-exact per-rig verify at every quiesce point *is* the zero
/// cross-client-interference check — client A's blocks must survive
/// client B's appends, clean passes, and crash recoveries untouched.
struct Rig {
    client: ClientId,
    model: Model,
    stack: Arc<ServiceStack>,
    log: Option<Arc<Log>>,
    cleaner: Option<Cleaner>,
    next_id: u64,
}

impl Rig {
    fn new(cluster: &Cluster, client: ClientId, servers: u32, parity: u32) -> Result<Rig> {
        let model: Model = Arc::new(Mutex::new(ModelInner::default()));
        let mut stack = ServiceStack::new();
        let service: Arc<Mutex<dyn Service>> = Arc::new(Mutex::new(ChaosService {
            model: model.clone(),
        }));
        stack.register(service)?;
        let stack = Arc::new(stack);
        let log = Arc::new(Log::create(
            cluster.transport(),
            make_config(client, servers, parity)?,
        )?);
        let cleaner = Cleaner::new(log.clone(), stack.clone(), CleanPolicy::CostBenefit);
        Ok(Rig {
            client,
            model,
            stack,
            log: Some(log),
            cleaner: Some(cleaner),
            next_id: 0,
        })
    }

    fn log(&self) -> Arc<Log> {
        self.log.clone().expect("log present while stepping")
    }
}

/// Replays one [`Schedule`] against a live cluster, checking invariants
/// at every quiesce point.
///
/// With `schedule.clients > 1` the runner stands up one [`Rig`] per
/// client over the *same* servers: appends and deletes are dealt
/// round-robin, while flushes, checkpoints, clean passes, quiesces,
/// and crash recoveries apply to every rig — maximal contention on the
/// shared cluster with fully independent durability oracles.
pub struct Runner {
    cluster: Cluster,
    rigs: Vec<Rig>,
    parity: u32,
    append_rr: usize,
    delete_rr: usize,
    verified_reads: u64,
    acked_blocks: u64,
    failures: Vec<String>,
}

/// Stop collecting after this many failures — a broken run would
/// otherwise report every remaining block at every remaining check.
const MAX_FAILURES: usize = 24;

impl Runner {
    /// Stands up a fresh cluster of `store`-backed servers, and a log and
    /// a cleaner per client, for `schedule`.
    ///
    /// # Errors
    ///
    /// Propagates cluster construction and log creation failures.
    pub fn new(schedule: &Schedule, kind: TransportKind, store: StoreKind) -> Result<Runner> {
        let cluster = Cluster::new(kind, schedule.servers, store)?;
        let rigs = (1..=schedule.clients)
            .map(|c| {
                Rig::new(
                    &cluster,
                    ClientId::new(c),
                    schedule.servers,
                    schedule.parity,
                )
            })
            .collect::<Result<Vec<Rig>>>()?;
        Ok(Runner {
            cluster,
            rigs,
            parity: schedule.parity,
            append_rr: 0,
            delete_rr: 0,
            verified_reads: 0,
            acked_blocks: 0,
            failures: Vec::new(),
        })
    }

    /// Runs `schedule` to completion and reports. [`StoreKind::File`] puts
    /// the `FileStore` journal group-commit path on the chaos critical
    /// path; [`TransportKind::Mem`] connections take one RPC at a time
    /// (the paper's serial pipelines), [`TransportKind::Tcp`] ones a
    /// window of them.
    ///
    /// # Errors
    ///
    /// Returns setup errors only; invariant violations are collected in
    /// the report, not returned.
    pub fn run(schedule: &Schedule, kind: TransportKind, store: StoreKind) -> Result<RunReport> {
        let mut runner = Runner::new(schedule, kind, store)?;
        // A panic on this thread fails the run, not the sweep; the hook
        // (when installed) has its message and backtrace.
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            for (i, event) in schedule.events.iter().enumerate() {
                if runner.failures.len() >= MAX_FAILURES {
                    runner
                        .failures
                        .push(format!("[{i}] aborting: too many failures"));
                    break;
                }
                if runner.rigs.iter().any(|r| r.log.is_none()) {
                    break; // unrecoverable (crash recovery itself failed)
                }
                runner.step(i, event);
            }
        }));
        if stepped.is_err() {
            runner.failures.push("the run panicked".into());
        }
        // Tear the clients and the cluster down first: every thread they
        // own is joined, so a panic on any of them has been recorded.
        let Runner {
            cluster,
            rigs,
            mut failures,
            verified_reads,
            acked_blocks,
            ..
        } = runner;
        drop(rigs);
        drop(cluster);
        failures.extend(std::mem::take(&mut *panics()));
        Ok(RunReport {
            seed: schedule.seed,
            transport: kind,
            store,
            hash: schedule.hash(),
            events: schedule.events.len(),
            verified_reads,
            acked_blocks,
            parity: schedule.parity,
            clients: schedule.clients,
            failures,
        })
    }

    fn step(&mut self, i: usize, event: &ChaosEvent) {
        match *event {
            ChaosEvent::Append { size, fill } => {
                let r = self.append_rr % self.rigs.len();
                self.append_rr += 1;
                self.append(r, size, fill);
            }
            ChaosEvent::Flush => {
                for r in 0..self.rigs.len() {
                    match self.rigs[r].log().flush() {
                        Ok(()) => self.ack_pending(r),
                        Err(e) => {
                            swarm_metrics::trace!("chaos", "flush failed (acks dropped): {e}");
                            self.drop_pending(r);
                        }
                    }
                }
            }
            ChaosEvent::Checkpoint => {
                for r in 0..self.rigs.len() {
                    match self.rigs[r].log().checkpoint(CHAOS_SERVICE, b"chaos-ckpt") {
                        Ok(_) => self.ack_pending(r),
                        Err(e) => {
                            swarm_metrics::trace!("chaos", "checkpoint failed (acks dropped): {e}");
                            self.drop_pending(r);
                        }
                    }
                }
            }
            ChaosEvent::DeleteOldest => {
                let r = self.delete_rr % self.rigs.len();
                self.delete_rr += 1;
                self.delete_oldest(r);
            }
            ChaosEvent::ConnReset { server } => self.cluster.plan(server).inject_reset(1),
            ChaosEvent::Delay { server, micros } => {
                self.cluster.plan(server).inject_delay_us(micros);
            }
            ChaosEvent::TruncateNext { server } => self.cluster.plan(server).inject_truncate(1),
            ChaosEvent::ServerStall { server, millis } => {
                self.cluster.plan(server).inject_stall_ms(millis);
            }
            ChaosEvent::KillServer { server } => self.cluster.kill(server),
            ChaosEvent::RestartServer { server } => {
                if let Err(e) = self.cluster.restart(server) {
                    self.failures
                        .push(format!("[{i}] restart of server {server} failed: {e}"));
                }
            }
            ChaosEvent::DiskFull { server } => self.cluster.plan(server).set_disk_full(true),
            ChaosEvent::DiskFree { server } => self.cluster.plan(server).set_disk_full(false),
            ChaosEvent::CleanPass => {
                for r in 0..self.rigs.len() {
                    let Some(cleaner) = &self.rigs[r].cleaner else {
                        continue;
                    };
                    // The generator restored the cluster first, so a
                    // cleaning error here is a real bug, not bad luck.
                    match cleaner.clean_pass(4) {
                        Ok(stats) => {
                            swarm_metrics::trace!(
                                "chaos",
                                "clean pass: {} stripes, {} blocks moved",
                                stats.stripes_cleaned,
                                stats.blocks_moved
                            );
                        }
                        Err(e) => {
                            let client = self.rigs[r].client;
                            self.failures
                                .push(format!("[{i}] client {client} clean pass failed: {e}"));
                        }
                    }
                }
                self.verify_all(i, "after clean pass");
            }
            ChaosEvent::Quiesce { verify_down } => self.quiesce(i, verify_down),
            ChaosEvent::CrashRecover => {
                // All clients crash together: unflushed appends die with
                // their processes, then each recovers its own log.
                self.cluster.clear_transients();
                for r in 0..self.rigs.len() {
                    self.crash_recover(r, i);
                }
            }
        }
    }

    /// One client appends a block (round-robin dealt by the caller).
    fn append(&mut self, r: usize, size: usize, fill: u8) {
        let rig = &mut self.rigs[r];
        let id = rig.next_id;
        rig.next_id += 1;
        let data = vec![fill; size];
        match rig
            .log()
            .append_block(CHAOS_SERVICE, &id.to_le_bytes(), &data)
        {
            Ok(addr) => rig.model.lock().pending.push((
                id,
                BlockState {
                    addr,
                    len: size,
                    fill,
                },
            )),
            // Append can fail when a sealed fragment's store cascades;
            // the block was never acked, so the model simply never
            // learns about it.
            Err(e) => {
                swarm_metrics::trace!("chaos", "append {id} failed: {e}");
            }
        }
    }

    /// One client deletes its oldest acked block.
    fn delete_oldest(&mut self, r: usize) {
        let rig = &self.rigs[r];
        let oldest = rig
            .model
            .lock()
            .acked
            .iter()
            .next()
            .map(|(&id, state)| (id, state.addr));
        if let Some((id, addr)) = oldest {
            match rig.log().delete_block(CHAOS_SERVICE, addr) {
                // The record may still be unflushed, but dropping the
                // block from the model is safe either way: we just stop
                // verifying it.
                Ok(_) => {
                    rig.model.lock().acked.remove(&id);
                }
                Err(e) => {
                    swarm_metrics::trace!("chaos", "delete of {id} failed: {e}");
                }
            }
        }
    }

    /// A successful flush acked everything the rig had pending.
    fn ack_pending(&mut self, r: usize) {
        let mut model = self.rigs[r].model.lock();
        let pending = std::mem::take(&mut model.pending);
        for (id, state) in pending {
            self.acked_blocks += 1;
            model.acked.insert(id, state);
        }
    }

    /// A failed flush leaves pending blocks unacked. They may or may not
    /// be durable ("limbo"); the harness never verifies them.
    fn drop_pending(&mut self, r: usize) {
        self.rigs[r].model.lock().pending.clear();
    }

    fn quiesce(&mut self, i: usize, verify_down: DownSet) {
        // Unconsumed one-shot injections must not leak into verification
        // traffic.
        self.cluster.clear_transients();
        for r in 0..self.rigs.len() {
            // First flush drains any store errors accumulated during
            // fault windows; on a restored cluster the retry succeeds.
            let flushed = match self.rigs[r].log().flush() {
                Ok(()) => true,
                Err(e) => {
                    swarm_metrics::trace!("chaos", "quiesce flush drained errors: {e}");
                    self.drop_pending(r);
                    match self.rigs[r].log().flush() {
                        Ok(()) => true,
                        Err(e) => {
                            let client = self.rigs[r].client;
                            self.failures.push(format!(
                                "[{i}] client {client} flush failed on a healthy cluster: {e}"
                            ));
                            false
                        }
                    }
                }
            };
            if flushed {
                self.ack_pending(r);
                self.check_recovery_head(r, i);
            }
        }
        self.verify_all(i, "at quiesce");
        if !verify_down.is_empty() {
            // Hold the listed servers (up to `m`) down simultaneously and
            // verify again: every read touching them must come back via
            // erasure decoding — XOR for one loss, Reed–Solomon beyond.
            for server in verify_down.iter() {
                self.cluster.plan(server).set_down(true);
            }
            self.verify_all(i, "with servers held down");
            for server in verify_down.iter() {
                self.cluster.plan(server).set_down(false);
            }
        }
    }

    /// Every rig's acked blocks verify byte-exact — each against its own
    /// model, so any bleed-through between client logs surfaces here.
    fn verify_all(&mut self, i: usize, context: &str) {
        for r in 0..self.rigs.len() {
            self.verify(r, i, context);
        }
    }

    /// Invariant: recovery rollforward reaches the live (flushed) log
    /// head — same next sequence number, nothing silently dropped.
    fn check_recovery_head(&mut self, r: usize, i: usize) {
        let client = self.rigs[r].client;
        let config = match make_config(client, self.cluster.servers(), self.parity) {
            Ok(c) => c,
            Err(e) => {
                self.failures
                    .push(format!("[{i}] config rebuild failed: {e}"));
                return;
            }
        };
        match recover(self.cluster.transport(), config, &[CHAOS_SERVICE]) {
            Ok((recovered, _replay)) => {
                let live = self.rigs[r].log().next_seq();
                let got = recovered.next_seq();
                if got != live {
                    self.failures.push(format!(
                        "[{i}] client {client} recovery stopped short of the log head: \
                         recovered next_seq {got}, live next_seq {live}"
                    ));
                }
            }
            Err(e) => self.failures.push(format!(
                "[{i}] client {client} recovery of a flushed log failed: {e}"
            )),
        }
    }

    /// Invariant: every acked block reads back with its exact bytes.
    fn verify(&mut self, r: usize, i: usize, context: &str) {
        let client = self.rigs[r].client;
        let log = self.rigs[r].log();
        let snapshot: Vec<(u64, BlockState)> = self.rigs[r]
            .model
            .lock()
            .acked
            .iter()
            .map(|(&id, &state)| (id, state))
            .collect();
        for (id, state) in &snapshot {
            if self.failures.len() >= MAX_FAILURES {
                return;
            }
            match log.read(state.addr) {
                Ok(bytes) => {
                    if bytes.len() != state.len || bytes.as_slice().iter().any(|&b| b != state.fill)
                    {
                        self.failures.push(format!(
                            "[{i}] client {client} block {id} corrupt {context}: \
                             want {} x {:#04x}, got {} bytes",
                            state.len,
                            state.fill,
                            bytes.len()
                        ));
                    } else {
                        self.verified_reads += 1;
                    }
                }
                Err(e) => self.failures.push(format!(
                    "[{i}] client {client} acked block {id} unreadable {context} \
                     (addr {:?}): {e}",
                    state.addr
                )),
            }
        }
        self.verify_scan(r, i, &snapshot, context);
    }

    /// Invariant: the batched scan path agrees with the model too —
    /// `read_many` returns every acked block byte-exact, in order, even
    /// when a held-down server forces the reconstruction fallback.
    fn verify_scan(&mut self, r: usize, i: usize, snapshot: &[(u64, BlockState)], context: &str) {
        if self.failures.len() >= MAX_FAILURES || snapshot.is_empty() {
            return;
        }
        let client = self.rigs[r].client;
        let addrs: Vec<BlockAddr> = snapshot.iter().map(|(_, s)| s.addr).collect();
        match self.rigs[r].log().read_many(&addrs) {
            Ok(results) => {
                for ((id, state), bytes) in snapshot.iter().zip(&results) {
                    if bytes.len() != state.len || bytes.as_slice().iter().any(|&b| b != state.fill)
                    {
                        self.failures.push(format!(
                            "[{i}] client {client} block {id} corrupt in scan {context}: \
                             want {} x {:#04x}, got {} bytes",
                            state.len,
                            state.fill,
                            bytes.len()
                        ));
                        if self.failures.len() >= MAX_FAILURES {
                            return;
                        }
                    }
                }
            }
            Err(e) => self.failures.push(format!(
                "[{i}] client {client} scan of acked blocks failed {context}: {e}"
            )),
        }
    }

    /// Drops one client without flushing (a crash), recovers, and
    /// verifies through the recovered log.
    fn crash_recover(&mut self, r: usize, i: usize) {
        // Unflushed appends die with the client; they were never acked.
        self.drop_pending(r);
        let client = self.rigs[r].client;
        // The cleaner holds the only other reference to the log; dropping
        // both simulates the client process dying. The open fragment is
        // lost — exactly the torn tail recovery must discard.
        self.rigs[r].cleaner = None;
        self.rigs[r].log = None;
        let config = match make_config(client, self.cluster.servers(), self.parity) {
            Ok(c) => c,
            Err(e) => {
                self.failures
                    .push(format!("[{i}] config rebuild failed: {e}"));
                return;
            }
        };
        match recover(self.cluster.transport(), config, &[CHAOS_SERVICE]) {
            Ok((log, replay)) => {
                if let Err(e) = self.rigs[r].stack.recover(&replay) {
                    self.failures
                        .push(format!("[{i}] client {client} service replay failed: {e}"));
                }
                let log = Arc::new(log);
                self.rigs[r].cleaner = Some(Cleaner::new(
                    log.clone(),
                    self.rigs[r].stack.clone(),
                    CleanPolicy::CostBenefit,
                ));
                self.rigs[r].log = Some(log);
                self.verify(r, i, "after crash recovery");
            }
            Err(e) => {
                // Leaves the rig log-less; the step loop stops.
                self.failures
                    .push(format!("[{i}] client {client} crash recovery failed: {e}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every failing seed prints a replay command; this pins the contract
    /// that the printed line carries the *full* option set — parsing it
    /// back yields options identical to the run's.
    #[test]
    fn replay_line_round_trips_every_option() {
        let all = [
            RunOptions {
                seed: 42,
                transport: TransportKind::Mem,
                store: StoreKind::Mem,
                events: 64,
                servers: 4,
                parity: 1,
                clients: 1,
            },
            RunOptions {
                seed: u64::MAX,
                transport: TransportKind::Tcp,
                store: StoreKind::File,
                events: 256,
                servers: 6,
                parity: 2,
                clients: 8,
            },
            RunOptions {
                seed: 7,
                transport: TransportKind::Mem,
                store: StoreKind::File,
                events: 48,
                servers: 11,
                parity: 3,
                clients: 32,
            },
        ];
        for options in all {
            let line = options.to_string();
            for flag in [
                "--seed",
                "--transport",
                "--store",
                "--events",
                "--geometry",
                "--clients",
            ] {
                assert!(line.contains(flag), "replay line lost {flag}: {line}");
            }
            let parsed: RunOptions = line.parse().expect("replay line parses");
            assert_eq!(parsed, options, "round-trip changed {line}");
        }
    }

    /// Replay lines printed before multi-client runs existed have no
    /// `--clients` flag; they must keep parsing as one-client runs.
    #[test]
    fn legacy_replay_line_defaults_to_one_client() {
        let line = "swarm-chaos --seed 3 --transport mem --store mem --events 32 --geometry 3+1";
        let parsed: RunOptions = line.parse().expect("legacy line parses");
        assert_eq!(parsed.clients, 1);
    }

    /// A replay line carrying a flag this parser does not know — which is
    /// what a line printed while a since-retired axis existed is — fails
    /// loudly, naming the flag, instead of replaying without it.
    #[test]
    fn replay_line_with_an_unknown_flag_is_refused_by_name() {
        let line = "swarm-chaos --seed 3 --transport mem --store mem --events 32 \
                    --geometry 3+1 --window 8 --clients 1";
        let err = line.parse::<RunOptions>().unwrap_err();
        assert!(err.contains("unknown replay flag --window"), "{err}");
    }

    /// Replay lines printed while a second TCP runtime existed name a
    /// transport that is gone; they fail loudly instead of silently
    /// replaying on something else.
    #[test]
    fn replay_line_naming_a_removed_runtime_is_refused() {
        for runtime in ["epoll", "blocking"] {
            let line = format!(
                "swarm-chaos --seed 3 --transport tcp-{runtime} --store mem --events 32 \
                 --geometry 3+1 --clients 1"
            );
            let err = line.parse::<RunOptions>().unwrap_err();
            assert!(err.contains("want mem|tcp"), "{err}");
        }
    }

    /// The report's replay command is the same canonical line.
    #[test]
    fn report_replay_command_matches_options() {
        let report = RunReport {
            seed: 9,
            transport: TransportKind::Mem,
            store: StoreKind::Mem,
            hash: 0,
            events: 70,
            verified_reads: 0,
            acked_blocks: 0,
            parity: 2,
            clients: 8,
            failures: Vec::new(),
        };
        let line = report.replay_command(64, 6);
        assert_eq!(line, report.options(64, 6).to_string());
        let parsed: RunOptions = line.parse().expect("parses");
        assert_eq!(parsed.servers, 6);
        assert_eq!(parsed.parity, 2);
        assert_eq!(parsed.events, 64);
        assert_eq!(parsed.clients, 8);
    }
}
