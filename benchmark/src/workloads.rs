//! The four workloads and the life cycle every run goes through:
//!
//! 1. **set-up** — spawn the cluster, load the data set, warm up; done
//!    [`SETUPS`] times, the last one kept (`setup_s` is the median);
//! 2. **measured phase** — the workload's loop, for `--seconds`;
//! 3. **crash check** — [`CRASH_ROUNDS`] rounds of checkpoint, a burst of
//!    small commits, a crash of every client and server, recovery from
//!    disk, and a byte-exact read-back.
//!
//! A metric is taken over the measured phase's samples of its kind; a
//! workload whose measured phase has none of that kind (`ingest` reads
//! nothing, the read workloads write nothing) takes it over the crash
//! check's, which is the same code in every workload.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use swarm_cleaner::{CleanPolicy, Cleaner, CleanerConfig};
use swarm_types::{ClientId, Geometry, Result, SwarmError};

use crate::client::{blocks_per_fragment, Client, ClientSpec, Crashed, Mode};
use crate::cluster::{Cluster, StoreRoot, GROUP_COMMIT};
use crate::gen::{Rng64, Zipfian, BLOCK};
use crate::stats::Timed;
use crate::trace::{now_ns, Layer, RpcKind, Span, Tracer, NO_SERVER};
use swarm_server::Durability;

/// Client logs, and so driver threads: the box has two cores.
pub const CLIENTS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Crash-check rounds per run; `recover_ms` is the median over rounds and
/// clients.
pub const CRASH_ROUNDS: usize = 5;

/// Writes per commit in `oltp` and in every crash check's burst.
pub const WRITES_PER_COMMIT: usize = 8;

/// Offered load of `oltp`, per log: about a quarter of what two logs can
/// commit on this box, so a backlog means something broke.
pub const OLTP_OPS_PER_SEC: f64 = 400.0;

/// The cleaner's relocation budget in `oltp`, bytes per second (the
/// contention scoreboard's figure).
pub const CLEANER_BUDGET: u64 = 2_000_000;
const CLEANER_STRIPES_PER_PASS: usize = 4;
const CLEANER_PAUSE: Duration = Duration::from_millis(250);

/// Stripes each `ingest` log retains: 64 x 5 MiB per log keeps the
/// stores' dirty page cache (their writes are not fsynced) far below the
/// kernel's write-back thresholds, so the sandbox's disk — 170 to 870 MB/s
/// from one second to the next — never enters the measurement.
const INGEST_RETAIN_STRIPES: usize = 64;

/// How many stripes behind the head `ingest` reads back after each commit:
/// 8 stripes is 32 data fragments, twice the client's fragment cache.
const INGEST_VERIFY_LAG: usize = 8;

/// Writes appended after the last commit of a burst and never flushed:
/// the crash must not need them and must not be confused by them.
const UNACKED_TAIL: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ingest,
    PointRead,
    DegradedRead,
    Oltp,
}

/// Everything that distinguishes one workload (at one scale) from another.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub name: &'static str,
    pub kind: Kind,
    pub mode: Mode,
    pub geometry: Option<(u8, u8)>,
    /// When the stores fsync.
    pub durability: Durability,
    /// Server read cache, fragments per server.
    pub cache_fragments: usize,
    /// Payload loaded per log during set-up, bytes.
    pub load_bytes: usize,
    /// Warm-up operations per log at the end of set-up.
    pub warmup_ops: usize,
    /// `ingest` only: full stripes each log keeps; the oldest is deleted
    /// as a new one commits.
    pub retain_stripes: usize,
    /// Server stopped between set-up and the measured phase.
    pub stop_server: Option<usize>,
    /// Writes per crash-check burst, per log.
    pub burst_writes: usize,
    /// Older keys read back per crash-check round, per log.
    pub verify_sample: usize,
    /// Store bytes the run may need (refused up front if not free).
    pub need_bytes: u64,
}

pub const WORKLOADS: [&str; 4] = ["ingest", "point-read", "degraded-read", "oltp"];

const MIB: usize = 1 << 20;

impl Plan {
    /// The plan for `name`; `smoke` shrinks every data set to 16 MiB or
    /// less so the whole suite runs in seconds.
    pub fn named(name: &str, smoke: bool) -> Option<Plan> {
        let sized = |n: usize| if smoke { n.min(16 * MIB) / CLIENTS } else { n };
        let burst_writes = if smoke { 32 } else { 256 };
        let verify_sample = if smoke { 64 } else { 1024 };
        Some(match name {
            // Fig 3/4 of the paper: sequential 4 KiB appends, a flush per
            // full stripe. No data set; 8 stripes per log warm the path.
            "ingest" => Plan {
                name: "ingest",
                kind: Kind::Ingest,
                mode: Mode::Raw,
                geometry: None,
                durability: Durability::None,
                cache_fragments: 1024,
                load_bytes: 0,
                warmup_ops: 8,
                retain_stripes: if smoke { 2 } else { INGEST_RETAIN_STRIPES },
                stop_server: None,
                burst_writes,
                verify_sample,
                need_bytes: 2 << 30,
            },
            // 128 MiB per log is 64 resident fragments per server against
            // a 16-fragment cache: the working set is 4x the cache.
            "point-read" => Plan {
                name: "point-read",
                kind: Kind::PointRead,
                mode: Mode::Raw,
                geometry: None,
                durability: Durability::Group(GROUP_COMMIT),
                cache_fragments: 16,
                load_bytes: sized(128 * MIB),
                warmup_ops: 2000,
                retain_stripes: 0,
                stop_server: None,
                burst_writes,
                verify_sample,
                need_bytes: 1 << 30,
            },
            // 3+2 Reed-Solomon over the same five servers; 96 MiB per log
            // is again 64 fragments per server against a cache of 16.
            "degraded-read" => Plan {
                name: "degraded-read",
                kind: Kind::DegradedRead,
                mode: Mode::Raw,
                geometry: Some((3, 2)),
                durability: Durability::Group(GROUP_COMMIT),
                cache_fragments: 16,
                load_bytes: sized(96 * MIB),
                warmup_ops: 2000,
                retain_stripes: 0,
                stop_server: Some(2),
                burst_writes,
                verify_sample,
                need_bytes: 1 << 30,
            },
            // 16384 LBAs per log; with a 1024-fragment cache the whole
            // data set stays resident on the servers.
            "oltp" => Plan {
                name: "oltp",
                kind: Kind::Oltp,
                mode: Mode::Disk,
                geometry: None,
                durability: Durability::Group(GROUP_COMMIT),
                cache_fragments: 1024,
                load_bytes: sized(64 * MIB),
                warmup_ops: 400,
                retain_stripes: 0,
                stop_server: None,
                burst_writes,
                verify_sample,
                need_bytes: 2 << 30,
            },
            _ => return None,
        })
    }

    fn spec(&self, client: usize) -> Result<ClientSpec> {
        Ok(ClientSpec {
            id: ClientId::new(1 + client as u32),
            mode: self.mode,
            geometry: match self.geometry {
                Some((k, m)) => Some(Geometry::new(k, m)?),
                None => None,
            },
        })
    }
}

/// What one driver thread observed. Times are on the run's clock; the
/// first element of each pair is when the operation completed.
#[derive(Default)]
pub struct Samples {
    /// Read latency, µs.
    pub reads: Vec<Timed>,
    /// Commit latency, ms.
    pub commits: Vec<Timed>,
    /// Payload bytes newly covered by an `Ok` flush.
    pub acked: Vec<Timed>,
    /// Completed, verified operations (the count each completion stands
    /// for: a stripe flush completes all its appends).
    pub ops: Vec<Timed>,
    /// How late the open-loop generator started each operation, µs.
    pub late: Vec<f64>,
    /// Recovery time, ms.
    pub recoveries: Vec<f64>,
    /// (payload bytes, seconds) of each crash-check burst.
    pub bursts: Vec<(f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Samples {
    pub fn merge(&mut self, mut other: Samples) {
        self.reads.append(&mut other.reads);
        self.commits.append(&mut other.commits);
        self.acked.append(&mut other.acked);
        self.ops.append(&mut other.ops);
        self.late.append(&mut other.late);
        self.recoveries.append(&mut other.recoveries);
        self.bursts.append(&mut other.bursts);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Counts an operation; a failed one is reported once on stderr per
    /// kind of failure so a broken run explains itself.
    fn note<T>(&mut self, what: &str, result: Result<T>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                if self.failed < 5 {
                    eprintln!("benchmark: {what} failed: {e}");
                }
                self.failed += 1;
                None
            }
        }
    }

    fn read(&mut self, client: &mut Client, key: usize) -> Option<(u64, u64)> {
        let outcome = self.note("read", client.read(key))?;
        if !outcome.correct {
            if self.failed < 5 {
                eprintln!(
                    "benchmark: client {} key {key} read back the wrong bytes",
                    client.id()
                );
            }
            self.failed += 1;
            return None;
        }
        Some((outcome.start, outcome.end))
    }
}

/// A cluster with its loaded, warmed-up clients.
pub struct Rig {
    // Field order is drop order: clients and servers go before the
    // directory they live in.
    pub clients: Vec<Client>,
    pub cluster: Cluster,
    root: StoreRoot,
    /// Stored bytes ÷ live payload bytes when set-up finished.
    pub space_amp_at_setup: f64,
}

fn in_parallel<T: Send, R: Send>(items: Vec<T>, f: impl Fn(usize, T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                std::thread::Builder::new()
                    .name(format!("bench-client-{i}"))
                    .spawn_scoped(s, move || f(i, item))
                    .expect("spawn a driver thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    })
}

/// Appends whole stripes of new keys, a flush per stripe, until `keys`
/// more keys exist.
fn load(client: &mut Client, keys: usize, per_stripe: usize) -> Result<()> {
    let target = client.keys() + keys;
    while client.keys() < target {
        let n = per_stripe.min(target - client.keys());
        let first = client.keys();
        for key in first..first + n {
            client.write(key)?;
        }
        client.commit()?;
    }
    Ok(())
}

/// Blocks in one full stripe of `client`'s log: a flush every this many
/// sequential appends seals exactly the stripe's data fragments, so no
/// padding fragment is ever written.
fn blocks_per_stripe(client: &Client) -> usize {
    blocks_per_fragment(client.log()) * client.log().group().data_width() as usize
}

/// One complete set-up: cluster, load, warm-up.
pub fn setup(plan: &Plan, seed: u64, tracer: Option<Arc<Tracer>>) -> Result<Rig> {
    let root = StoreRoot::create(plan.need_bytes)?;
    let cluster = Cluster::start(
        root.path(),
        plan.durability,
        plan.cache_fragments,
        tracer.clone(),
    )?;
    let mut clients = Vec::new();
    for c in 0..CLIENTS {
        clients.push(Client::create(&cluster, plan.spec(c)?, tracer.clone())?);
    }
    let results = in_parallel(clients.iter_mut().collect(), |c, client| -> Result<()> {
        let per_stripe = blocks_per_stripe(client);
        let mut rng = Rng64::new(seed ^ 0x5e7 ^ (c as u64) << 32);
        match plan.kind {
            Kind::Ingest => load(client, plan.warmup_ops * per_stripe, per_stripe)?,
            Kind::PointRead | Kind::DegradedRead => {
                load(client, plan.load_bytes / BLOCK, per_stripe)?;
                for _ in 0..plan.warmup_ops {
                    let key = client.pick(&mut rng);
                    if !client.read(key)?.correct {
                        return Err(SwarmError::other("warm-up read returned the wrong bytes"));
                    }
                }
            }
            Kind::Oltp => {
                load(client, plan.load_bytes / BLOCK, per_stripe)?;
                // The measured mix, unpaced, so the first timed commit is
                // not the first commit.
                for i in 0..plan.warmup_ops {
                    let key = client.pick(&mut rng);
                    if i % 2 == 0 {
                        client.write(key)?;
                    } else if !client.read(key)?.correct {
                        return Err(SwarmError::other("warm-up read returned the wrong bytes"));
                    }
                    if i % (2 * WRITES_PER_COMMIT) == 0 {
                        client.commit()?;
                    }
                }
                client.commit()?;
            }
        }
        Ok(())
    });
    for r in results {
        r?;
    }
    let space_amp_at_setup = space_amp(&cluster, &clients);
    Ok(Rig {
        clients,
        cluster,
        root,
        space_amp_at_setup,
    })
}

/// Σ `FragmentStore::byte_count()` ÷ payload bytes of every key's current
/// version.
pub fn space_amp(cluster: &Cluster, clients: &[Client]) -> f64 {
    let live: u64 = clients.iter().map(Client::live_bytes).sum();
    cluster.stored_bytes() as f64 / live.max(1) as f64
}

/// Totals of the cleaners that ran beside a measured phase.
#[derive(Default, Clone, Copy)]
pub struct CleanerTotals {
    pub passes: u64,
    pub stripes_cleaned: u64,
    pub bytes_moved: u64,
    pub bytes_reclaimed: u64,
}

impl CleanerTotals {
    fn add(&mut self, other: CleanerTotals) {
        self.passes += other.passes;
        self.stripes_cleaned += other.stripes_cleaned;
        self.bytes_moved += other.bytes_moved;
        self.bytes_reclaimed += other.bytes_reclaimed;
    }
}

/// Runs `Cleaner::clean_pass` on `client`'s log until `stop`, recording
/// one span per pass.
fn cleaner_loop(
    cleaner: &Cleaner,
    client: u32,
    stop: &AtomicBool,
    tracer: &Option<Arc<Tracer>>,
) -> CleanerTotals {
    let mut totals = CleanerTotals::default();
    while !stop.load(Ordering::SeqCst) {
        let start = now_ns();
        // A pass that loses a race with the foreground (a stripe sealed
        // under it) is retried by the next one, as `spawn_periodic` does.
        let pass = cleaner
            .clean_pass(CLEANER_STRIPES_PER_PASS)
            .unwrap_or_default();
        totals.add(CleanerTotals {
            passes: 1,
            stripes_cleaned: pass.stripes_cleaned,
            bytes_moved: pass.bytes_moved,
            bytes_reclaimed: pass.bytes_reclaimed,
        });
        if let Some(t) = tracer {
            t.record(Span {
                layer: Layer::CleanPass,
                kind: RpcKind::Other,
                client,
                server: NO_SERVER,
                fid: 0,
                start,
                end: now_ns(),
                flag: false,
            });
        }
        let mut slept = Duration::ZERO;
        while slept < CLEANER_PAUSE && !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(10));
            slept += Duration::from_millis(10);
        }
    }
    totals
}

/// The measured phase of one client. `t0..t1` is the phase on the run's
/// clock.
fn drive(plan: &Plan, client: &mut Client, seed: u64, t0: u64, t1: u64) -> Samples {
    let mut s = Samples::default();
    let mut rng = Rng64::new(seed ^ (client.id() as u64) << 32);
    match plan.kind {
        // Closed loop: a stripe of appends, then the flush that makes
        // them durable; the next stripe starts when the flush returns.
        Kind::Ingest => {
            let per_stripe = blocks_per_stripe(client);
            while now_ns() < t1 {
                let first = client.keys();
                let mut ok = true;
                for key in first..first + per_stripe {
                    ok &= s.note("append", client.write(key)).is_some();
                }
                let Some((start, end, bytes)) = s.note("flush", client.commit()) else {
                    break;
                };
                if ok {
                    s.commits.push((end, (end - start) as f64 / 1e6));
                    s.acked.push((end, bytes as f64));
                    s.ops.push((end, per_stripe as f64));
                }
                // Verify one block per commit, from a stripe old enough to
                // have left the client's fragment cache: a read that has to
                // share the connections with the 1 MiB stores in flight.
                let lag = INGEST_VERIFY_LAG.min(plan.retain_stripes - 1) * per_stripe;
                let key = first - lag + rng.below(per_stripe as u64) as usize;
                if let Some((start, end)) = s.read(client, key) {
                    s.reads.push((end, (end - start) as f64 / 1e3));
                }
                while client.live_bytes() as usize > plan.retain_stripes * per_stripe * BLOCK {
                    if s.note("retire", client.retire_oldest(per_stripe)).is_none() {
                        return s;
                    }
                }
            }
        }
        // Closed loop: uniform single-block reads over the whole log.
        Kind::PointRead | Kind::DegradedRead => {
            while now_ns() < t1 {
                let key = client.pick(&mut rng);
                if let Some((start, end)) = s.read(client, key) {
                    s.reads.push((end, (end - start) as f64 / 1e3));
                    s.ops.push((end, 1.0));
                }
            }
        }
        // Open loop: operation i is due at t0 + i/rate whether or not the
        // previous one has finished, and its latency runs from then.
        Kind::Oltp => {
            let keys = client.keys() as u64;
            let zipf = Zipfian::new(keys, Zipfian::THETA);
            let step = 1e9 / OLTP_OPS_PER_SEC;
            let mut uncommitted = 0;
            for i in 0u64.. {
                let due = t0 + (i as f64 * step) as u64;
                if due >= t1 {
                    break;
                }
                let now = now_ns();
                if now < due {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                s.late.push(now_ns().saturating_sub(due) as f64 / 1e3);
                let key = zipf.next_key(&mut rng) as usize;
                if rng.below(2) == 0 {
                    if let Some((_, end)) = s.read(client, key) {
                        s.reads.push((end, (end - due) as f64 / 1e3));
                        s.ops.push((end, 1.0));
                    }
                    continue;
                }
                if s.note("write", client.write(key)).is_none() {
                    continue;
                }
                uncommitted += 1;
                if uncommitted == WRITES_PER_COMMIT {
                    uncommitted = 0;
                    // One commit: from when its last write was due to the
                    // flush acknowledging all eight.
                    if let Some((_, end, bytes)) = s.note("commit", client.commit()) {
                        s.commits.push((end, (end - due) as f64 / 1e6));
                        s.acked.push((end, bytes as f64));
                    }
                }
                s.ops.push((now_ns(), 1.0));
            }
            s.note("commit", client.commit());
        }
    }
    s
}

/// What the measured phase produced.
pub struct Measured {
    pub samples: Samples,
    pub t0: u64,
    pub t1: u64,
    pub cleaner: CleanerTotals,
    pub space_amp: f64,
}

/// Runs the measured phase on every client at once (`plan.stop_server`,
/// if any, has been stopped by the caller).
pub fn measure(
    plan: &Plan,
    rig: &mut Rig,
    seed: u64,
    seconds: f64,
    tracer: &Option<Arc<Tracer>>,
) -> Measured {
    let stop = AtomicBool::new(false);
    let cleaners: Vec<Option<Cleaner>> = rig
        .clients
        .iter()
        .map(|c| {
            (plan.kind == Kind::Oltp).then(|| {
                Cleaner::with_config(
                    c.log().clone(),
                    c.stack().clone(),
                    CleanerConfig {
                        policy: CleanPolicy::CostBenefit,
                        budget_bytes_per_sec: Some(CLEANER_BUDGET),
                    },
                )
            })
        })
        .collect();
    if let Some(t) = tracer {
        t.set_on(true);
    }
    let t0 = now_ns() + 1_000_000;
    let t1 = t0 + (seconds * 1e9) as u64;
    let mut samples = Samples::default();
    let mut cleaner = CleanerTotals::default();
    std::thread::scope(|scope| {
        let stop = &stop;
        let cleaner_threads: Vec<_> = cleaners
            .iter()
            .zip(&rig.clients)
            .filter_map(|(cl, client)| {
                let (cl, id) = (cl.as_ref()?, client.id());
                Some(scope.spawn(move || cleaner_loop(cl, id, stop, tracer)))
            })
            .collect();
        let driven = in_parallel(rig.clients.iter_mut().collect(), |_, client| {
            drive(plan, client, seed, t0, t1)
        });
        stop.store(true, Ordering::SeqCst);
        for s in driven {
            samples.merge(s);
        }
        for h in cleaner_threads {
            cleaner.add(h.join().expect("the cleaner thread does not panic"));
        }
    });
    if let Some(t) = tracer {
        t.set_on(false);
    }
    // With a server stopped the stores cannot be summed; nothing was
    // written since set-up, so that figure still holds.
    let space_amp = match plan.stop_server {
        Some(_) => rig.space_amp_at_setup,
        None => space_amp(&rig.cluster, &rig.clients),
    };
    Measured {
        samples,
        t0,
        t1,
        cleaner,
        space_amp,
    }
}

/// One client's burst before a crash: checkpoint, `burst_writes` writes
/// with a commit after every [`WRITES_PER_COMMIT`]th, then a tail that is
/// never committed. Returns the keys written.
fn burst(plan: &Plan, client: &mut Client, rng: &mut Rng64, s: &mut Samples) -> Vec<usize> {
    s.note("checkpoint", client.checkpoint());
    let mut written = Vec::new();
    let start = now_ns();
    let mut bytes = 0;
    for i in 0..plan.burst_writes {
        let key = client.pick(rng);
        if s.note("write", client.write(key)).is_some() {
            written.push(key);
        }
        if (i + 1) % WRITES_PER_COMMIT == 0 {
            if let Some((from, end, acked)) = s.note("commit", client.commit()) {
                s.commits.push((end, (end - from) as f64 / 1e6));
                bytes += acked;
            }
        }
    }
    if let Some((_, _, acked)) = s.note("commit", client.commit()) {
        bytes += acked;
    }
    s.bursts
        .push((bytes as f64, (now_ns() - start) as f64 / 1e9));
    for _ in 0..UNACKED_TAIL {
        let key = client.pick(rng);
        if client.write(key).is_ok() {
            written.push(key);
        }
    }
    written
}

/// Recovers one crashed client and reads back every key of the burst plus
/// a sample of older keys.
fn recover_and_verify(
    plan: &Plan,
    crashed: Crashed,
    written: &[usize],
    cluster: &Cluster,
    rng: &mut Rng64,
    s: &mut Samples,
) -> Result<Client> {
    let start = now_ns();
    let (mut client, disagreements) = crashed.recover(cluster)?;
    s.recoveries.push((now_ns() - start) as f64 / 1e6);
    s.attempted += 1;
    if disagreements > 0 {
        eprintln!(
            "benchmark: client {} recovery replayed {disagreements} blocks the oracle does not know",
            client.id()
        );
        s.failed += disagreements;
    }
    let sampled: Vec<usize> = (0..plan.verify_sample).map(|_| client.pick(rng)).collect();
    let all: Vec<usize> = written.iter().copied().chain(sampled).collect();
    for key in all {
        if let Some((from, end)) = s.read(&mut client, key) {
            s.reads.push((end, (end - from) as f64 / 1e3));
        }
    }
    Ok(client)
}

/// The crash check: see the module documentation.
pub fn crash_check(plan: &Plan, rig: Rig, seed: u64) -> Result<(Rig, Samples)> {
    let Rig {
        mut clients,
        mut cluster,
        root,
        space_amp_at_setup,
    } = rig;
    if let Some(i) = plan.stop_server {
        // Writing needs every server of the stripe group: the stopped one
        // comes back from its directory first.
        let (id, addr) = cluster.start_server(i)?;
        for c in &clients {
            c.tcp().add_server(id, addr);
        }
    }
    let mut samples = Samples::default();
    for round in 0..CRASH_ROUNDS {
        let round_seed = seed ^ 0xc4a5 ^ (round as u64) << 16;
        let bursts = in_parallel(clients, |c, mut client| {
            let mut s = Samples::default();
            let mut rng = Rng64::new(round_seed ^ (c as u64) << 32);
            let written = burst(plan, &mut client, &mut rng, &mut s);
            // The crash: no flush, no close.
            (client.crash(), written, rng, s)
        });
        cluster.crash_and_reopen()?;
        let cluster_ref = &cluster;
        let recovered = in_parallel(bursts, |_, (crashed, written, mut rng, mut s)| {
            let client = recover_and_verify(plan, crashed, &written, cluster_ref, &mut rng, &mut s);
            (client, s)
        });
        clients = Vec::new();
        for (client, s) in recovered {
            samples.merge(s);
            clients.push(client?);
        }
    }
    Ok((
        Rig {
            clients,
            cluster,
            root,
            space_amp_at_setup,
        },
        samples,
    ))
}
