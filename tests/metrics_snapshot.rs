//! Metrics-snapshot sanity over a full write/recover cycle: the global
//! registry must show store activity, the Metrics RPC must serve a
//! parseable snapshot, and counters must move monotonically.
//!
//! The registry is process-global and tests run in parallel, so every
//! assertion here compares before/after *deltas*, never absolute values —
//! except the server queue's depth gauge, which only this file's one
//! `TcpServer` sets.

use std::sync::Arc;

use swarm_log::{recover, Log, LogConfig};
use swarm_net::{MemTransport, Request, Response, Transport};
use swarm_server::{MemStore, StorageServer};
use swarm_types::{ClientId, ServerId, ServiceId};

fn cluster(n: u32) -> Arc<MemTransport> {
    let transport = Arc::new(MemTransport::new());
    for i in 0..n {
        let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
        transport.register(ServerId::new(i), srv);
    }
    transport
}

fn config(servers: u32) -> LogConfig {
    LogConfig::new(ClientId::new(7), (0..servers).map(ServerId::new).collect())
        .unwrap()
        .fragment_size(4096)
        .cache_fragments(0)
}

#[test]
fn snapshot_tracks_a_full_write_recover_cycle() {
    let svc = ServiceId::new(3);
    let before = swarm_metrics::snapshot();
    let transport = cluster(3);

    let addr = {
        let log = Log::create(transport.clone(), config(3)).unwrap();
        let addr = log.append_block(svc, b"tag", &[42u8; 2000]).unwrap();
        log.checkpoint(svc, b"ckpt").unwrap();
        log.flush().unwrap();
        addr
    };

    // Crash-recover the client and read the block back.
    let (log, replay) = recover(transport.clone(), config(3), &[svc]).unwrap();
    assert_eq!(replay.checkpoint_data(svc), Some(&b"ckpt"[..]));
    assert_eq!(log.read(addr).unwrap(), vec![42u8; 2000]);

    let after = swarm_metrics::snapshot();

    // Write path: fragments were sealed and stored, and the store
    // latency histogram accumulated samples.
    assert!(
        after.counter("log.fragments_sealed") > before.counter("log.fragments_sealed"),
        "seal counter did not move"
    );
    assert!(
        after.counter("server.stores") > before.counter("server.stores"),
        "server store counter did not move"
    );
    let stores_before = before.histogram("log.store_us").map_or(0, |h| h.count);
    let stores_after = after.histogram("log.store_us").map_or(0, |h| h.count);
    assert!(
        stores_after > stores_before,
        "store latency histogram gained no samples"
    );

    // Recovery path: the pass was counted and fragments were scanned.
    assert!(after.counter("recovery.recoveries") > before.counter("recovery.recoveries"));
    assert!(
        after.counter("recovery.fragments_scanned") > before.counter("recovery.fragments_scanned")
    );

    // Read path.
    assert!(after.counter("log.reads") > before.counter("log.reads"));

    // The snapshot JSON roundtrips and carries the histogram rollup.
    let parsed = swarm_metrics::Snapshot::from_json(&after.to_json()).unwrap();
    assert_eq!(
        parsed.counter("log.fragments_sealed"),
        after.counter("log.fragments_sealed")
    );
    let h = parsed.histogram("log.store_us").expect("store histogram");
    assert!(h.count >= stores_after - stores_before);
    // Quantiles are bucket upper bounds, so only their ordering (not a
    // relation to the exact max) is guaranteed.
    assert!(h.p50_us <= h.p99_us);
}

#[test]
fn read_engine_metrics_track_pool_and_read_sources() {
    let svc = ServiceId::new(5);
    let before = swarm_metrics::snapshot();
    let transport = cluster(3);

    // cache_fragments(0): every read goes to the servers, exercising the
    // connection pool.
    let log = Log::create(transport.clone(), config(3)).unwrap();
    let addr = log.append_block(svc, b"", &[9u8; 3000]).unwrap();
    log.flush().unwrap();

    // Two home reads: the second reuses the pooled connection.
    assert_eq!(log.read(addr).unwrap(), vec![9u8; 3000]);
    assert_eq!(log.read(addr).unwrap(), vec![9u8; 3000]);

    // Kill the holder and read again: locate broadcast sees a down server
    // (broadcast_errors) and the read is served by reconstruction.
    let (holder, _) = swarm_log::reconstruct::locate_fragment(log.engine(), addr.fid).unwrap();
    log.forget_fragment(addr.fid);
    transport.set_down(holder, true);
    assert_eq!(log.read(addr).unwrap(), vec![9u8; 3000]);

    let after = swarm_metrics::snapshot();
    assert!(
        after.counter("net.pool_connects") > before.counter("net.pool_connects"),
        "pool never dialed"
    );
    assert!(
        after.counter("net.pool_hits") > before.counter("net.pool_hits"),
        "repeat read did not reuse a pooled connection"
    );
    assert!(
        after.counter("net.broadcast_errors") > before.counter("net.broadcast_errors"),
        "down server not counted in broadcast_errors"
    );
    let count =
        |snap: &swarm_metrics::Snapshot, name: &str| snap.histogram(name).map_or(0, |h| h.count);
    assert!(
        count(&after, "log.read_us.home") > count(&before, "log.read_us.home"),
        "home-path read latency not recorded"
    );
    assert!(
        count(&after, "log.read_us.reconstruct") > count(&before, "log.read_us.reconstruct"),
        "reconstruct-path read latency not recorded"
    );
}

/// Down-knowledge (DESIGN.md §11): a read whose home is known down skips
/// it (`log.degraded_reads`) and is decoded from the survivors
/// (`log.reconstructions`); once a probe period has passed, one read is
/// elected to ask the home again (`net.pool_probes`).
#[test]
fn degraded_read_metrics_count_skipped_homes_and_probes() {
    let svc = ServiceId::new(9);
    let transport = cluster(3);
    let log = Log::create(transport.clone(), config(3)).unwrap();
    let addr = log.append_block(svc, b"", &[5u8; 3000]).unwrap();
    log.flush().unwrap();
    let (holder, _) = swarm_log::reconstruct::locate_fragment(log.engine(), addr.fid).unwrap();
    transport.set_down(holder, true);

    let before = swarm_metrics::snapshot();
    // Finds the home down, then reads around it.
    assert_eq!(log.read(addr).unwrap(), vec![5u8; 3000]);
    assert_eq!(log.read(addr).unwrap(), vec![5u8; 3000]);
    std::thread::sleep(swarm_net::pool::PROBE_PERIOD);
    assert_eq!(log.read(addr).unwrap(), vec![5u8; 3000]);
    let after = swarm_metrics::snapshot();

    for name in ["log.degraded_reads", "net.pool_probes"] {
        assert!(
            after.counter(name) > before.counter(name),
            "{name} did not move"
        );
    }
    assert!(after.counter("log.reconstructions") >= before.counter("log.reconstructions") + 3);
    assert_eq!(log.stats().reconstructions, 3);
}

/// The pipelined write engine's instruments (DESIGN.md §15) are visible
/// through the same snapshot `swarm-admin stats` prints: the
/// `log.store_inflight` gauge exists (and is back to zero once flush
/// returns — every started store was harvested) and the
/// `log.store_window_occupancy` histogram gained a sample per store.
#[test]
fn store_window_metrics_appear_in_snapshot() {
    let svc = ServiceId::new(11);
    let before = swarm_metrics::snapshot();
    let transport = cluster(3);

    let log = Log::create(transport, config(3)).unwrap();
    for i in 0..12u8 {
        log.append_block(svc, b"", &[i; 1500]).unwrap();
    }
    log.flush().unwrap();

    let after = swarm_metrics::snapshot();
    let occupancy = |snap: &swarm_metrics::Snapshot| {
        snap.histogram("log.store_window_occupancy")
            .map_or(0, |h| h.count)
    };
    assert!(
        occupancy(&after) > occupancy(&before),
        "window occupancy histogram gained no samples"
    );
    assert!(
        after.gauges.contains_key("log.store_inflight"),
        "store_inflight gauge not registered"
    );

    // The JSON `swarm-admin stats` prints carries both instruments.
    let parsed = swarm_metrics::Snapshot::from_json(&after.to_json()).unwrap();
    assert!(parsed.gauges.contains_key("log.store_inflight"));
    assert!(parsed.histogram("log.store_window_occupancy").is_some());
}

/// The pipelined read engine's instruments (DESIGN.md §16) are the write
/// twin's mirror: the `log.read_inflight` gauge exists, the
/// `log.read_window_occupancy` histogram gains a sample per read RPC, and
/// the sharded server read cache reports hits, misses, and scan bypasses.
#[test]
fn read_fan_out_and_cache_metrics_appear_in_snapshot() {
    let svc = ServiceId::new(13);
    let before = swarm_metrics::snapshot();
    // Servers with a deliberately tiny read cache (one fragment per
    // shard): stores admit fragments, so writing more fragments per
    // server than the cache holds guarantees evictions — and therefore
    // cache misses on single reads and bypasses on batched scans —
    // while the still-resident fragments guarantee hits.
    let transport = Arc::new(MemTransport::new());
    for i in 0..3 {
        let srv = StorageServer::new(ServerId::new(i), MemStore::new())
            .with_read_cache(1)
            .into_shared();
        transport.register(ServerId::new(i), srv);
    }

    let log = Log::create(transport, config(3)).unwrap();
    let mut addrs = Vec::new();
    for i in 0..60u32 {
        addrs.push(log.append_block(svc, b"", &[i as u8; 1500]).unwrap());
    }
    log.flush().unwrap();

    // One scan: grouped by home server into ReadBatch RPCs, probing the
    // cache without admitting (hits on resident fragments, bypasses on
    // evicted ones).
    let scanned = log.read_many(&addrs).unwrap();
    assert_eq!(scanned.len(), addrs.len());
    // Single windowed reads: evicted fragments count ordinary misses.
    for (i, addr) in addrs.iter().enumerate() {
        assert_eq!(log.read(*addr).unwrap(), vec![i as u8; 1500]);
    }

    let after = swarm_metrics::snapshot();
    let count =
        |snap: &swarm_metrics::Snapshot, name: &str| snap.histogram(name).map_or(0, |h| h.count);
    assert!(
        count(&after, "log.read_window_occupancy") > count(&before, "log.read_window_occupancy"),
        "read window occupancy histogram gained no samples"
    );
    assert!(
        after.gauges.contains_key("log.read_inflight"),
        "read_inflight gauge not registered"
    );
    for name in [
        "server.read_cache_hits",
        "server.read_cache_misses",
        "server.read_cache_bypass",
    ] {
        assert!(
            after.counter(name) > before.counter(name),
            "{name} did not move"
        );
    }

    // The JSON `swarm-admin stats` prints carries the read instruments.
    let parsed = swarm_metrics::Snapshot::from_json(&after.to_json()).unwrap();
    assert!(parsed.gauges.contains_key("log.read_inflight"));
    assert!(parsed.histogram("log.read_window_occupancy").is_some());
    assert!(parsed.counter("server.read_cache_hits") >= after.counter("server.read_cache_hits"));
}

/// The journal's instruments (DESIGN.md §13): one `server.journal_fsync`
/// tick, one `server.journal_batch` sample and one
/// `server.journal_gather_us` sample per synced batch, and the
/// `server.journal_window_expired` counter registered beside them (a lone
/// store and a lone delete have no company to wait for, so it stays put
/// unless another test's batch runs out its window meanwhile).
#[test]
fn journal_metrics_appear_in_snapshot() {
    use swarm_server::{Durability, FileStore, FragmentStore};

    let dir = std::env::temp_dir().join(format!("swarm-journal-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let before = swarm_metrics::snapshot();
    {
        let store = FileStore::open_with_durability(
            &dir,
            0,
            Durability::Group(std::time::Duration::from_millis(5)),
        )
        .unwrap();
        let fid = swarm_types::FragmentId::new(ClientId::new(7), 0);
        store.store(fid, vec![1u8; 512].into(), false).unwrap();
        store.delete(fid).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);

    let after = swarm_metrics::snapshot();
    assert!(after.counter("server.journal_fsync") >= before.counter("server.journal_fsync") + 2);
    let count =
        |snap: &swarm_metrics::Snapshot, name: &str| snap.histogram(name).map_or(0, |h| h.count);
    for name in ["server.journal_batch", "server.journal_gather_us"] {
        assert!(
            count(&after, name) >= count(&before, name) + 2,
            "{name} gained no sample per batch"
        );
    }
    assert!(
        after.counters.contains_key("server.journal_window_expired"),
        "journal_window_expired counter not registered"
    );
}

/// The server queue's instruments (DESIGN.md §18), provoked through a
/// one-worker `TcpServer` whose handler holds every request until the test
/// lets go. `net.workpool_panics` is registered with the pool, so a
/// healthy server shows it at 0. With the worker held by a first store,
/// 32 of the next 47 queue (`server.admission_queue_depth`) and 15 bounce
/// with `Busy` (`server.client_throttled`); the queued ones are admitted
/// once the worker frees (`server.drr_admits`); a panicking handler is
/// counted and its worker goes on serving.
#[test]
fn server_queue_metrics_appear_in_snapshot() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex};
    use std::time::{Duration, Instant};
    use swarm_net::tcp::{ServerConfig, TcpServer, TcpTransport};
    use swarm_net::{PreparedRequest, RequestHandler};
    use swarm_types::{FragmentId, SwarmError};

    /// Holds requests until opened (or for 10 s, so a failure cannot
    /// hang the suite); panics on `Ping`.
    #[derive(Default)]
    struct Held {
        open: Mutex<bool>,
        opened: Condvar,
        entered: AtomicUsize,
    }
    impl RequestHandler for Held {
        fn handle(&self, _client: ClientId, request: Request) -> Response {
            if matches!(request, Request::Ping) {
                panic!("a handler panics");
            }
            self.entered.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self
                    .opened
                    .wait_timeout(open, Duration::from_millis(50))
                    .unwrap()
                    .0;
                *open |= Instant::now() >= deadline;
            }
            Response::Ok
        }
    }
    let eventually = |what: &str, cond: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    let before = swarm_metrics::snapshot();
    let held = Arc::new(Held::default());
    let server = TcpServer::spawn_with_config(
        ServerId::new(40),
        "127.0.0.1:0",
        held.clone(),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let healthy = swarm_metrics::snapshot();
    assert!(
        healthy.counters.contains_key("net.workpool_panics"),
        "net.workpool_panics not registered with the pool"
    );

    let client = ClientId::new(4);
    let transport = TcpTransport::with_servers([(server.id(), server.addr())]);
    let mut conn = transport.connect(server.id(), client).unwrap();
    let store = |seq: u64| {
        PreparedRequest::new(Request::Store {
            fid: FragmentId::new(client, seq),
            marked: false,
            ranges: vec![],
            data: vec![0u8; 512].into(),
        })
    };
    let mut pending = vec![conn.start_prepared(&store(0))];
    eventually("the worker to take the first store", &|| {
        held.entered.load(Ordering::SeqCst) == 1
    });
    pending.extend((1..48).map(|seq| conn.start_prepared(&store(seq))));
    // One socket's stores are dispatched in order: the last one's `Busy`
    // means all of them are queued or bounced.
    let last = pending.pop().unwrap().wait().unwrap().into_result();
    assert!(matches!(last, Err(SwarmError::Busy(_))), "{last:?}");
    let saturated = swarm_metrics::snapshot();
    assert_eq!(
        saturated.gauges.get("server.admission_queue_depth"),
        Some(&32)
    );
    assert_eq!(
        saturated.counter("server.client_throttled") - before.counter("server.client_throttled"),
        15
    );

    // Queued behind the stores, never answered: its handler panics.
    drop(conn.start_prepared(&PreparedRequest::new(Request::Ping)));
    *held.open.lock().unwrap() = true;
    held.opened.notify_all();
    let acked = pending
        .into_iter()
        .map(|p| p.wait().unwrap())
        .filter(|reply| *reply == Response::Ok)
        .count();
    assert_eq!(acked, 1 + 32);
    let panics = |snap: &swarm_metrics::Snapshot| snap.counter("net.workpool_panics");
    eventually("the panic to be counted", &|| {
        panics(&swarm_metrics::snapshot()) > panics(&before)
    });
    // The panicking job freed the one worker.
    assert_eq!(
        conn.call_prepared(&store(48)).unwrap(),
        Response::Ok,
        "the worker serves on after a panic"
    );

    let after = swarm_metrics::snapshot();
    assert!(after.counter("server.drr_admits") >= before.counter("server.drr_admits") + 32);
    assert_eq!(after.gauges.get("server.admission_queue_depth"), Some(&0));
}

#[test]
fn metrics_rpc_serves_a_parseable_snapshot() {
    let transport = cluster(2);
    let mut conn = transport
        .connect(ServerId::new(0), ClientId::new(9))
        .unwrap();

    // Generate some server-side activity first.
    let log = Log::create(transport.clone(), config(2)).unwrap();
    log.append_block(ServiceId::new(1), b"", &[7u8; 512])
        .unwrap();
    log.flush().unwrap();

    match conn.call(&Request::Metrics).unwrap() {
        Response::Metrics(json) => {
            let snap = swarm_metrics::Snapshot::from_json(&json).unwrap();
            assert!(
                snap.counter("server.stores") > 0,
                "RPC snapshot missing store count: {json}"
            );
        }
        other => panic!("unexpected reply {other:?}"),
    }
}
