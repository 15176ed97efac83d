//! What the connection pool knows about a down server is bounded, lazy
//! and self-clearing (DESIGN.md §11 "ConnectionPool", "Read paths").
//!
//! Readers decline to ask a server whose last dial failed —
//! `ConnectionPool::should_try` elects one probe per `PROBE_PERIOD` —
//! and decode the addressed bytes from the stripe's survivors instead.
//! These tests count what that costs and show it undoes itself, over a
//! transport that counts dials and `Locate`s and whose connections, like
//! sockets, stay dead once their server has been down. No sleep here is
//! longer than one probe period.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use swarm_log::{Log, LogConfig};
use swarm_net::pool::PROBE_PERIOD;
use swarm_net::{
    Connection, ConnectionPool, MemTransport, PreparedRequest, Request, Response, Transport,
};
use swarm_server::{MemStore, StorageServer};
use swarm_types::{BlockAddr, ClientId, Geometry, Result, ServerId, ServiceId, SwarmError};

const SVC: ServiceId = ServiceId::new(1);
const SERVERS: u32 = 5;
/// The server the tests take down.
const VICTIM: ServerId = ServerId::new(2);

#[derive(Default)]
struct Counts {
    dials: Mutex<HashMap<ServerId, u64>>,
    locates: AtomicU64,
    /// Bumped whenever the victim goes down: its connections dialed
    /// before stay dead after it comes back.
    epoch: AtomicU64,
}

/// `MemTransport` with the counters above.
struct CountingTransport {
    inner: Arc<MemTransport>,
    counts: Arc<Counts>,
}

struct CountingConn {
    inner: Box<dyn Connection>,
    born: u64,
    counts: Arc<Counts>,
}

impl CountingConn {
    fn observe(&self, request: &Request) -> Result<()> {
        if self.inner.server() == VICTIM && self.born != self.counts.epoch.load(Ordering::SeqCst) {
            return Err(SwarmError::ServerUnavailable(VICTIM));
        }
        if matches!(request, Request::Locate { .. }) {
            self.counts.locates.fetch_add(1, Ordering::SeqCst);
        }
        Ok(())
    }
}

impl Connection for CountingConn {
    fn call(&mut self, request: &Request) -> Result<Response> {
        self.observe(request)?;
        self.inner.call(request)
    }

    fn call_prepared(&mut self, prepared: &PreparedRequest) -> Result<Response> {
        self.observe(prepared.request())?;
        self.inner.call_prepared(prepared)
    }

    fn server(&self) -> ServerId {
        self.inner.server()
    }
}

impl Transport for CountingTransport {
    fn connect(&self, server: ServerId, client: ClientId) -> Result<Box<dyn Connection>> {
        *self.counts.dials.lock().entry(server).or_default() += 1;
        Ok(Box::new(CountingConn {
            inner: self.inner.connect(server, client)?,
            born: self.counts.epoch.load(Ordering::SeqCst),
            counts: self.counts.clone(),
        }))
    }

    fn servers(&self) -> Vec<ServerId> {
        self.inner.servers()
    }
}

struct Rig {
    mem: Arc<MemTransport>,
    counts: Arc<Counts>,
    log: Log,
    /// The blocks homed on the victim.
    homed: Vec<(BlockAddr, Vec<u8>)>,
    stripes: usize,
}

impl Rig {
    /// A flushed 3+2 log of a few stripes with nothing cached client-side.
    /// `store_retries` of 2 is one attempt on the writer's (possibly dead)
    /// connection plus one on a fresh dial.
    fn new() -> Rig {
        let mem = Arc::new(MemTransport::new());
        for i in 0..SERVERS {
            let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
            mem.register(ServerId::new(i), srv);
        }
        let counts = Arc::new(Counts::default());
        let transport = Arc::new(CountingTransport {
            inner: mem.clone(),
            counts: counts.clone(),
        });
        let config = LogConfig::new(ClientId::new(1), (0..SERVERS).map(ServerId::new).collect())
            .unwrap()
            .geometry(Geometry::new(3, 2).unwrap())
            .unwrap()
            .fragment_size(4096)
            .cache_fragments(0)
            .store_retries(2)
            .retry_backoff(Duration::from_millis(1));
        let log = Log::create(transport, config).unwrap();
        let mut blocks = Vec::new();
        for i in 0..120u32 {
            let payload = vec![(i % 251) as u8; 700];
            blocks.push((log.append_block(SVC, b"", &payload).unwrap(), payload));
        }
        log.flush().unwrap();
        let homed: Vec<_> = blocks
            .into_iter()
            .filter(|(addr, _)| {
                let home = swarm_log::reconstruct::locate_fragment(log.engine(), addr.fid);
                home.is_some_and(|(server, _)| server == VICTIM)
            })
            .collect();
        assert!(homed.len() >= 10, "too few blocks on the victim");
        let stripes = (log.next_seq() / u64::from(SERVERS)) as usize;
        Rig {
            mem,
            counts,
            log,
            homed,
            stripes,
        }
    }

    fn set_down(&self, down: bool) {
        if down {
            self.counts.epoch.fetch_add(1, Ordering::SeqCst);
        }
        self.mem.set_down(VICTIM, down);
    }

    fn dials(&self) -> u64 {
        self.dials_to(VICTIM)
    }

    fn dials_to(&self, server: ServerId) -> u64 {
        self.counts.dials.lock().get(&server).copied().unwrap_or(0)
    }

    /// Reads the `i`th block homed on the victim; was it decoded?
    fn read(&self, i: usize) -> bool {
        let (addr, payload) = &self.homed[i % self.homed.len()];
        let before = self.log.stats().reconstructions;
        assert_eq!(&self.log.read(*addr).unwrap(), payload);
        self.log.stats().reconstructions > before
    }
}

#[test]
fn reads_homed_on_a_down_server_cost_a_dial_per_probe_period_and_no_broadcast() {
    let rig = Rig::new();
    rig.set_down(true);
    // The first read finds out: its pooled connection is dead, the redial
    // is refused. It is answered from the survivors all the same.
    assert!(rig.read(0));
    let (dials, locates) = (rig.dials(), rig.counts.locates.load(Ordering::SeqCst));
    let start = Instant::now();
    for i in 1..=2000 {
        assert!(rig.read(i), "read {i} was not decoded from the survivors");
    }
    let periods = (start.elapsed().as_nanos() / PROBE_PERIOD.as_nanos()) as u64;
    let dialed = rig.dials() - dials;
    assert!(
        dialed <= periods + 2,
        "{dialed} dials to a down server in {periods} probe periods"
    );
    // A locate broadcast asks every server; a cold stripe asks one parity
    // mate, once.
    let located = rig.counts.locates.load(Ordering::SeqCst) - locates;
    assert!(
        located <= rig.stripes as u64,
        "{located} Locates for {} stripes: a read went to the cluster",
        rig.stripes
    );
}

/// Regression: a survivor whose home was down used to be chased with a
/// locate broadcast (which dials every server, the dead included) on every
/// rebuild, even with `k` other members a direct read away.
#[test]
fn survivors_on_known_down_homes_are_passed_over_not_chased() {
    let rig = Rig::new();
    let also_down = ServerId::new(4);
    rig.set_down(true);
    rig.mem.set_down(also_down, true);
    // Both outages are found out within the first few reads (3 + 2 rides
    // out two), whichever members the dead servers hold in each stripe.
    for i in 0..rig.homed.len() {
        assert!(rig.read(i));
    }
    let (dials, locates) = (
        rig.dials_to(also_down),
        rig.counts.locates.load(Ordering::SeqCst),
    );
    let start = Instant::now();
    for i in 0..1000 {
        assert!(rig.read(i));
    }
    let periods = (start.elapsed().as_nanos() / PROBE_PERIOD.as_nanos()) as u64;
    let dialed = rig.dials_to(also_down) - dials;
    assert!(
        dialed <= periods + 2,
        "{dialed} dials to a down survivor home in {periods} probe periods"
    );
    assert_eq!(rig.counts.locates.load(Ordering::SeqCst), locates);
}

/// Regression: a probe election made only to *order* the survivors was
/// spent without a dial whenever the elected member was not among the
/// first `k` drawn, so a recovered survivor home stayed suspect.
#[test]
fn a_recovered_survivor_home_is_probed_by_the_read_that_is_elected() {
    let rig = Rig::new();
    let also_down = ServerId::new(4);
    rig.set_down(true);
    rig.mem.set_down(also_down, true);
    for i in 0..rig.homed.len() {
        assert!(rig.read(i));
    }
    rig.mem.set_down(also_down, false);
    let (flipped, dials) = (Instant::now(), rig.dials_to(also_down));
    let mut i = 0;
    while rig.dials_to(also_down) == dials {
        assert!(rig.read(i));
        i += 1;
        assert!(flipped.elapsed() < 20 * PROBE_PERIOD, "never probed");
    }
    // That one dial succeeded: the home is an ordinary survivor again.
    for i in 0..200 {
        assert!(rig.read(i));
    }
    assert_eq!(rig.dials_to(also_down) - dials, 1);
    assert!(rig.log.engine().should_try(also_down));
}

/// Regression: a degraded read of *another* client's block (a reader of a
/// shared log reads its writer's addresses through its own log) was decoded from the
/// reading log's own stripe at the same sequence numbers — the reader's
/// bytes, returned as `Ok`.
#[test]
fn another_clients_block_is_decoded_from_that_clients_stripe() {
    let mem = Arc::new(MemTransport::new());
    for i in 0..SERVERS {
        let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
        mem.register(ServerId::new(i), srv);
    }
    let open = |client: u32| {
        let servers = (0..SERVERS).map(ServerId::new).collect();
        let config = LogConfig::new(ClientId::new(client), servers)
            .unwrap()
            .geometry(Geometry::new(3, 2).unwrap())
            .unwrap()
            .fragment_size(4096)
            .cache_fragments(0);
        Log::create(mem.clone(), config).unwrap()
    };
    let (theirs, ours) = (open(1), open(2));
    let mut blocks = Vec::new();
    for i in 0..60u32 {
        let payload = vec![(i % 200) as u8; 700];
        blocks.push((theirs.append_block(SVC, b"", &payload).unwrap(), payload));
        ours.append_block(SVC, b"", &[0xEE; 700]).unwrap();
    }
    theirs.flush().unwrap();
    ours.flush().unwrap();
    // Healthy reads teach `ours` where client 1's fragments live.
    for (addr, payload) in &blocks {
        assert_eq!(&ours.read(*addr).unwrap(), payload);
    }
    mem.set_down(VICTIM, true);
    for round in 0..2 {
        for (addr, payload) in &blocks {
            assert_eq!(&ours.read(*addr).unwrap(), payload, "round {round}");
        }
    }
    assert!(ours.stats().reconstructions >= 10, "nothing was decoded");
}

#[test]
fn a_recovered_server_is_read_directly_again_after_one_probe() {
    let rig = Rig::new();
    rig.set_down(true);
    assert!(rig.read(0));
    assert!(rig.read(1), "a known-down home is read around");
    rig.set_down(false);
    let (flipped, dials) = (Instant::now(), rig.dials());
    let mut i = 2;
    while rig.read(i) {
        i += 1;
        // One period by design; the slack is for sanitizers and busy boxes.
        assert!(
            flipped.elapsed() < 20 * PROBE_PERIOD,
            "still reading around the server {:?} after it came back",
            flipped.elapsed()
        );
    }
    // It took one dial — the elected probe's — and it stays that way.
    assert_eq!(rig.dials() - dials, 1);
    assert!(!rig.read(i + 1));
}

#[test]
fn a_flush_right_after_recovery_does_not_wait_for_a_probe() {
    let rig = Rig::new();
    rig.set_down(true);
    assert!(rig.read(0));
    assert!(rig.read(1));
    rig.set_down(false);
    // The pool still has the server down as known, and the next probe is
    // most of a period away. The writer's own connection died with the
    // server, so this flush has one attempt left and it must dial.
    let dials = rig.dials();
    let payload = vec![7u8; 700];
    let addr = rig.log.append_block(SVC, b"", &payload).unwrap();
    rig.log.flush().unwrap();
    assert_eq!(rig.dials() - dials, 1, "the store dialed once, at once");
    // That dial cleared the suspicion for the readers too.
    assert!(!rig.read(2));
    assert_eq!(rig.log.read(addr).unwrap(), payload);
}

#[test]
fn racing_callers_elect_one_probe_per_period() {
    const THREADS: usize = 8;
    let mem = Arc::new(MemTransport::new());
    let server = ServerId::new(0);
    mem.register(
        server,
        StorageServer::new(server, MemStore::new()).into_shared(),
    );
    let pool = Arc::new(ConnectionPool::new(
        mem.clone() as Arc<dyn Transport>,
        ClientId::new(1),
    ));
    assert!(pool.should_try(server), "never dialed: nothing known");
    mem.set_down(server, true);
    assert!(pool.call(server, &Request::Ping).is_err());
    assert!(!pool.should_try(server), "a refused dial starts a period");
    for _ in 0..3 {
        std::thread::sleep(PROBE_PERIOD);
        let barrier = Barrier::new(THREADS);
        let elected = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    barrier.wait();
                    if pool.should_try(server) {
                        elected.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(elected.load(Ordering::SeqCst), 1);
    }
    // Any successful dial clears it, for every caller.
    mem.set_down(server, false);
    pool.call(server, &Request::Ping).unwrap();
    assert!(pool.should_try(server) && pool.should_try(server));
}
