//! Property tests for the windowed, batched read path (DESIGN.md §16):
//! servers of random pipeline width (1 is the paper's serial path), random
//! scan lengths (exercising `ReadBatch` chunking), genuinely out-of-order
//! completions (each RPC finishes on
//! its own thread after a random delay, like responses on a mux channel),
//! injected transient per-call failures, and a dead server must all
//! preserve byte-exact readback — single reads and `read_many` scans
//! alike, through the reconstruction fallback when the home is gone. The
//! engine's multi-server fan-out takes the same inputs directly: jobs
//! interleaved across servers that each pipeline a different width come
//! back in job order, no server's window overrun — and, with completions
//! held back until it is, every server's window filled to exactly
//! `min(WINDOW, width, jobs)`.
//!
//! Also pins the YCSB-B head-of-line fix at the log layer: reads complete
//! while a full window of store RPCs is stalled in flight; and
//! read-your-writes before `flush`: a block whose store has not reached
//! its home reads back, whatever the client cache holds.

mod common;

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use common::{cluster, ChaosState, ReorderTransport, MAX_SERVERS};
use parking_lot::Mutex;
use proptest::prelude::*;
use swarm_log::{Log, LogConfig, ReadEngine};
use swarm_net::pool::WINDOW;
use swarm_net::{
    Connection, MemTransport, PendingCall, PreparedRequest, ReadSpec, Request, Transport,
};
use swarm_types::{BlockAddr, ClientId, Result, ServerId, ServiceId, SwarmError};

const SVC: ServiceId = ServiceId::new(1);

fn read_config(servers: u32) -> LogConfig {
    LogConfig::new(ClientId::new(1), (0..servers).map(ServerId::new).collect())
        .unwrap()
        .fragment_size(2048)
        .cache_fragments(0) // force reads through the servers
        .store_retries(4)
        .retry_backoff(Duration::from_millis(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Windowed, batched reads under reordered completions and transient
    /// call failures: single reads and scans of every chunk length return
    /// byte-exact data, in order — then again with a random server dead,
    /// through locate + reconstruction. The same blocks as one multi-server
    /// fan-out, each server pipelining its own width: results in job order,
    /// and with the server dead its jobs fail alone.
    #[test]
    fn prop_windowed_batched_reads_are_byte_exact(
        servers in 2u32..5,
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..700), 8..32),
        delays in proptest::collection::vec(0u64..2_000, 16..17),
        read_failures in 0usize..4,
        scan in 1usize..20,
        dead in 0u32..5,
        widths in proptest::collection::vec(1usize..12, MAX_SERVERS..MAX_SERVERS + 1),
    ) {
        let mem = cluster(servers);
        // Writes land before the budget applies to the read phase: stores
        // also draw from it, which only adds coverage (their retry path
        // heals transient failures the same way).
        let state = ChaosState::new(vec![0; MAX_SERVERS], delays, widths.clone());
        let transport = Arc::new(ReorderTransport { inner: mem.clone(), state: state.clone() });
        let log = Log::create(transport, read_config(servers)).unwrap();
        let mut written: Vec<(BlockAddr, Vec<u8>)> = Vec::new();
        for p in &payloads {
            written.push((log.append_block(SVC, b"", p).unwrap(), p.clone()));
        }
        log.flush().unwrap();
        state.fail_budget.lock().fill(read_failures);

        // Single-read path.
        for (addr, data) in &written {
            prop_assert_eq!(&log.read(*addr).unwrap(), data);
        }
        // Scan path: every chunk length, so requests to one server span
        // the single-Read case, partial batches, and multi-chunk batches.
        for chunk in written.chunks(scan) {
            let addrs: Vec<BlockAddr> = chunk.iter().map(|(a, _)| *a).collect();
            let results = log.read_many(&addrs).unwrap();
            prop_assert_eq!(results.len(), chunk.len());
            for ((_, data), got) in chunk.iter().zip(&results) {
                prop_assert_eq!(got, data);
            }
        }
        // The engine itself, every server in one fan-out, the jobs
        // shuffled so consecutive ones land on different servers.
        let engine = ReadEngine::new(log.engine().clone());
        let mut jobs: Vec<((ServerId, ReadSpec), &Vec<u8>)> = Vec::new();
        for (addr, data) in &written {
            let (home, _) = swarm_log::reconstruct::locate_fragment(log.engine(), addr.fid)
                .expect("a flushed fragment has a home");
            let spec = ReadSpec { fid: addr.fid, offset: addr.offset, len: addr.len };
            jobs.push(((home, spec), data));
        }
        jobs.sort_by_key(|((_, spec), _)| (spec.offset as usize ^ scan).wrapping_mul(40_503) % 251);
        let reads: Vec<(ServerId, ReadSpec)> = jobs.iter().map(|(job, _)| *job).collect();
        for peak in &state.peak {
            peak.store(0, Ordering::SeqCst);
        }
        for (got, (_, data)) in engine.fetch_scatter(&reads).into_iter().zip(&jobs) {
            prop_assert_eq!(&got.unwrap(), *data);
        }
        state.assert_window_held();
        // The same reads one RPC each, completions held back until every
        // server's window is as full as it can get: the fan-out fills to
        // exactly `min(WINDOW, width, jobs)` — a serial loop stops short,
        // one that ignores a narrow transport overshoots.
        let mut per_server = [0usize; MAX_SERVERS];
        let singles: Vec<(ServerId, Request)> = (reads.iter())
            .map(|&(server, ReadSpec { fid, offset, len })| {
                per_server[server.raw() as usize] += 1;
                (server, Request::Read { fid, offset, len })
            })
            .collect();
        for (server, &count) in per_server.iter().enumerate() {
            state.peak[server].store(0, Ordering::SeqCst);
            state.gate[server].store(WINDOW.min(widths[server]).min(count), Ordering::SeqCst);
        }
        for (got, (_, data)) in engine.run(singles).into_iter().zip(&jobs) {
            match got.unwrap() {
                swarm_net::Response::Data(bytes) => prop_assert_eq!(&bytes, *data),
                other => prop_assert!(false, "unexpected read reply {:?}", other),
            }
        }
        for (server, gate) in state.gate.iter().enumerate() {
            let full = gate.swap(0, Ordering::SeqCst);
            let peak = state.peak[server].load(Ordering::SeqCst);
            prop_assert_eq!(peak, full, "server {}: window filled to {} of {}", server, peak, full);
        }

        // One dead server: scatter failures fall back to locate +
        // reconstruction, still byte-exact, still in order.
        let dead = ServerId::new(dead % servers);
        mem.set_down(dead, true);
        for (got, ((home, _), data)) in engine.fetch_scatter(&reads).into_iter().zip(&jobs) {
            match got {
                Ok(bytes) => prop_assert_eq!(&bytes, *data),
                Err(e) => prop_assert!(*home == dead && e.is_unavailability(), "{}: {}", home, e),
            }
        }
        for chunk in written.chunks(scan) {
            let addrs: Vec<BlockAddr> = chunk.iter().map(|(a, _)| *a).collect();
            let results = log.read_many(&addrs).unwrap();
            for ((_, data), got) in chunk.iter().zip(&results) {
                prop_assert_eq!(got, data);
            }
        }
    }
}

/// `read_many` is `read` mapped over its addresses: the same bytes and the
/// same advance of `Log::stats()`, whichever layer serves each address —
/// the open builder, the client cache, the home, a decode around a home
/// that is down, or a locate for a fragment the map has forgotten.
#[test]
fn read_many_returns_and_counts_what_read_does() {
    let mem = cluster(3);
    let log = Log::create(mem.clone(), read_config(3).cache_fragments(2)).unwrap();
    let mut written: Vec<(BlockAddr, Vec<u8>)> = Vec::new();
    let mut append = |i: u8| {
        let payload = vec![i; 500];
        written.push((log.append_block(SVC, b"", &payload).unwrap(), payload));
    };
    // Eight data fragments: the cache keeps the last two sealed.
    (0..24).for_each(&mut append);
    log.flush().unwrap();
    (24..26).for_each(&mut append); // stay in the open builder
    let forgotten = written[0].0.fid;
    let down = written[3].0.fid;
    assert_ne!(forgotten, down, "two fragments of the first stripe");
    let (dead, _) = swarm_log::reconstruct::locate_fragment(log.engine(), down).unwrap();
    mem.set_down(dead, true);

    let addrs: Vec<BlockAddr> = written.iter().map(|(a, _)| *a).collect();
    let advance = |reads: &dyn Fn() -> Vec<swarm_types::Bytes>| {
        log.forget_fragment(forgotten); // a read's locate re-learns the home
        let before = log.stats();
        let got = reads();
        let after = log.stats();
        let counted = (
            after.reads - before.reads,
            after.cache_hits - before.cache_hits,
            after.reconstructions - before.reconstructions,
        );
        (got, counted)
    };
    let (one_by_one, counted) = advance(&|| addrs.iter().map(|a| log.read(*a).unwrap()).collect());
    let (scanned, scan_counted) = advance(&|| log.read_many(&addrs).unwrap());
    for ((got, scan_got), (_, data)) in one_by_one.iter().zip(&scanned).zip(&written) {
        assert_eq!(got, data);
        assert_eq!(scan_got, data);
    }
    assert_eq!(scan_counted, counted);
    let (reads, cache_hits, reconstructions) = counted;
    assert_eq!(reads, addrs.len() as u64);
    assert!(
        (3..reads).contains(&cache_hits),
        "builder and cache hits: {cache_hits}"
    );
    assert!(
        (1..reads - cache_hits).contains(&reconstructions),
        "{reconstructions} decoded"
    );
}

/// Gate for the head-of-line test: `Store` RPCs stall until released,
/// everything else passes straight through.
struct GatedState {
    gate: Mutex<Option<Vec<mpsc::Sender<()>>>>,
}

struct GatedTransport {
    inner: Arc<MemTransport>,
    state: Arc<GatedState>,
}

struct GatedConn {
    inner: Box<dyn Connection>,
    mem: Arc<MemTransport>,
    client: ClientId,
    state: Arc<GatedState>,
}

impl Connection for GatedConn {
    fn call(&mut self, request: &Request) -> Result<swarm_net::Response> {
        self.inner.call(request)
    }

    fn start_prepared(&mut self, prepared: &PreparedRequest) -> PendingCall {
        let gated = matches!(prepared.request(), Request::Store { .. });
        if gated {
            let mut gate = self.state.gate.lock();
            if let Some(waiters) = gate.as_mut() {
                let server = self.inner.server();
                let mem = self.mem.clone();
                let client = self.client;
                let request = prepared.request().clone();
                let (tx, rx) = mpsc::channel();
                waiters.push(tx);
                return PendingCall::deferred(move || {
                    rx.recv()
                        .map_err(|_| SwarmError::ServerUnavailable(server))?;
                    mem.connect(server, client)
                        .and_then(|mut c| c.call(&request))
                });
            }
        }
        let result = self.inner.call(prepared.request());
        PendingCall::ready(result)
    }

    fn pipeline_width(&self) -> usize {
        64
    }

    fn server(&self) -> ServerId {
        self.inner.server()
    }
}

impl Transport for GatedTransport {
    fn connect(&self, server: ServerId, client: ClientId) -> Result<Box<dyn Connection>> {
        Ok(Box::new(GatedConn {
            inner: self.inner.connect(server, client)?,
            mem: self.inner.clone(),
            client,
            state: self.state.clone(),
        }))
    }

    fn servers(&self) -> Vec<ServerId> {
        self.inner.servers()
    }
}

/// The YCSB-B regression pin (DESIGN.md §16): with a full window of store
/// RPCs stalled in flight, reads of durable data must still complete —
/// the read path may not queue behind the write window. If reads shared
/// the writers' in-order pipeline, this test would deadlock (the gate
/// only opens after the reads finish).
#[test]
fn reads_complete_while_store_window_is_stalled() {
    let servers = 3u32;
    let mem = cluster(servers);
    let state = Arc::new(GatedState {
        gate: Mutex::new(None),
    });
    let transport = Arc::new(GatedTransport {
        inner: mem.clone(),
        state: state.clone(),
    });
    let log = Log::create(transport, read_config(servers)).unwrap();

    // Phase 1: gate open — make some data durable.
    let mut written = Vec::new();
    for i in 0..6u8 {
        let payload = vec![i; 900];
        written.push((log.append_block(SVC, b"", &payload).unwrap(), payload));
    }
    log.flush().unwrap();

    // Phase 2: close the gate and queue a window of stores behind it.
    *state.gate.lock() = Some(Vec::new());
    for i in 0..6u8 {
        log.append_block(SVC, b"", &vec![0x40 + i; 1600]).unwrap();
    }
    // Sealed fragments are now stalled inside the writers' windows. Give
    // the writer threads a moment to start them.
    for _ in 0..200 {
        if state.gate.lock().as_ref().is_some_and(|w| !w.is_empty()) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        state.gate.lock().as_ref().is_some_and(|w| !w.is_empty()),
        "no store reached the gate"
    );

    // The reads must complete while the stores are still stalled. (The
    // sealed-fragment cache is disabled, so these cross the wire.)
    for (addr, data) in &written {
        assert_eq!(&log.read(*addr).unwrap(), data);
    }
    let scan: Vec<BlockAddr> = written.iter().map(|(a, _)| *a).collect();
    for (got, (_, data)) in log.read_many(&scan).unwrap().iter().zip(&written) {
        assert_eq!(got, data);
    }

    // Release the gate; the stalled stores land and flush completes.
    let waiters = state.gate.lock().take().expect("gate installed");
    for tx in waiters {
        let _ = tx.send(());
    }
    // Any store that arrives at the gate from here on passes through.
    log.flush().unwrap();
}

/// Appends `blocks` one-fragment blocks with every store held at the gate,
/// reads each back before and after `flush`, and returns the indices of
/// the blocks a single read could not return byte-exact before the flush,
/// and whether one scan of them all could. The gate is released whatever
/// the reads did, so a failing read never strands the writer threads.
fn unflushed_read_failures(config: LogConfig, servers: u32, blocks: u8) -> (Vec<usize>, bool) {
    let state = Arc::new(GatedState {
        gate: Mutex::new(Some(Vec::new())),
    });
    let transport = Arc::new(GatedTransport {
        inner: cluster(servers),
        state: state.clone(),
    });
    let log = Log::create(transport, config).unwrap();
    let written: Vec<(BlockAddr, Vec<u8>)> = (0..blocks)
        .map(|i| {
            let payload = vec![i; 1600]; // one block fills a 2 KiB fragment
            (log.append_block(SVC, b"", &payload).unwrap(), payload)
        })
        .collect();
    let failed: Vec<usize> = written
        .iter()
        .enumerate()
        .filter(|(_, (addr, data))| log.read(*addr).ok().as_deref() != Some(&data[..]))
        .map(|(i, _)| i)
        .collect();
    let scan: Vec<BlockAddr> = written.iter().map(|(a, _)| *a).collect();
    let scanned = log.read_many(&scan).is_ok_and(|got| {
        got.iter()
            .zip(&written)
            .all(|(got, (_, data))| got[..] == data[..])
    });

    for tx in state.gate.lock().take().expect("gate installed") {
        let _ = tx.send(());
    }
    log.flush().unwrap();
    for (addr, data) in &written {
        assert_eq!(&log.read(*addr).unwrap(), data, "after flush");
    }
    (failed, scanned)
}

/// Read-your-writes does not rest on the client fragment cache: a block
/// `append_block` returned reads back while its fragment's store is still
/// held short of its home — with no cache at all, and with the default
/// cache when more fragments are in the write pipeline than it holds.
#[test]
fn appended_blocks_read_back_before_their_stores_land() {
    let no_cache = read_config(3);
    assert_eq!(unflushed_read_failures(no_cache, 3, 6), (vec![], true));

    let default_cache = LogConfig::new(ClientId::new(1), (0..8).map(ServerId::new).collect())
        .unwrap()
        .fragment_size(2048);
    assert!(default_cache.cache_fragments < 21); // 21 of the 22 are sealed
    assert_eq!(
        unflushed_read_failures(default_cache, 8, 22),
        (vec![], true)
    );
}
