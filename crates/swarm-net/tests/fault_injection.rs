//! End-to-end fault-injection semantics over both transports.
//!
//! These tests pin the behaviour the chaos harness (`swarm-chaos`) relies
//! on: a reset is a pre-delivery failure, a truncation is a post-delivery
//! ack loss, disk-full is an error response, and the connection pool
//! recovers from severed connections without leaking slots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use std::collections::HashMap;
use swarm_net::tcp::{ServerConfig, TcpServer, TcpTransport};
use swarm_net::{
    ConnectionPool, FaultHandler, FaultPlan, FaultTransport, MemTransport, Request, RequestHandler,
    Response, Transport,
};
use swarm_types::{Bytes, ClientId, FragmentId, ServerId, SwarmError};

/// Minimal fragment server that also counts every request it actually
/// receives — the counter is how the tests distinguish "request never
/// delivered" (reset) from "request processed, ack lost" (truncation).
#[derive(Default)]
struct CountingStore {
    requests: AtomicU64,
    fragments: Mutex<HashMap<FragmentId, Bytes>>,
}

impl CountingStore {
    fn seen(&self) -> u64 {
        self.requests.load(Ordering::SeqCst)
    }
}

impl RequestHandler for CountingStore {
    fn handle(&self, _client: ClientId, request: Request) -> Response {
        self.requests.fetch_add(1, Ordering::SeqCst);
        match request {
            Request::Ping => Response::Ok,
            Request::Store { fid, data, .. } => {
                let mut frags = self.fragments.lock();
                if frags.contains_key(&fid) {
                    return Response::from_error(&SwarmError::FragmentExists(fid));
                }
                frags.insert(fid, data);
                Response::Ok
            }
            Request::Read { fid, offset, len } => match self.fragments.lock().get(&fid) {
                None => Response::from_error(&SwarmError::FragmentNotFound(fid)),
                Some(data) => {
                    let start = offset as usize;
                    let end = start + len as usize;
                    if end > data.len() {
                        Response::from_error(&SwarmError::corrupt("short fragment"))
                    } else {
                        Response::Data(data.slice(start..end))
                    }
                }
            },
            _ => Response::Ok,
        }
    }
}

fn fid(c: u32, s: u64) -> FragmentId {
    FragmentId::new(ClientId::new(c), s)
}

fn store_req(f: FragmentId, data: &[u8]) -> Request {
    Request::Store {
        fid: f,
        marked: false,
        ranges: vec![],
        data: Bytes::from(data),
    }
}

/// Builds a one-server faulty mem cluster; returns (transport, store, plan).
fn mem_cluster(server: ServerId) -> (Arc<FaultTransport>, Arc<CountingStore>, Arc<FaultPlan>) {
    let mem = MemTransport::new();
    let store = Arc::new(CountingStore::default());
    mem.register(server, store.clone());
    let faults = Arc::new(FaultTransport::new(Arc::new(mem)));
    let plan = faults.plan(server);
    (faults, store, plan)
}

#[test]
fn reset_severs_before_delivery_and_pool_recovers() {
    let server = ServerId::new(1);
    let (faults, store, plan) = mem_cluster(server);
    let pool = ConnectionPool::new(faults, ClientId::new(7));

    // Healthy round trip first so the pool holds an idle connection.
    assert_eq!(pool.call(server, &Request::Ping).unwrap(), Response::Ok);
    let baseline = store.seen();

    // Two resets: enough to defeat the pool's single transparent redial.
    plan.inject_reset(2);
    let err = pool.call(server, &Request::Ping).unwrap_err();
    assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
    assert_eq!(
        store.seen(),
        baseline,
        "reset request must not be delivered"
    );

    // The pool redials on the next call and recovers.
    assert_eq!(pool.call(server, &Request::Ping).unwrap(), Response::Ok);
    assert_eq!(store.seen(), baseline + 1);
}

#[test]
fn pool_does_not_leak_slots_across_reset_storms() {
    let server = ServerId::new(1);
    let (faults, _store, plan) = mem_cluster(server);
    let pool = ConnectionPool::new(faults, ClientId::new(7));

    for round in 0..32 {
        if round % 2 == 0 {
            plan.inject_reset(2);
            let _ = pool.call(server, &Request::Ping);
        } else {
            assert_eq!(pool.call(server, &Request::Ping).unwrap(), Response::Ok);
        }
        assert!(
            pool.idle_count(server) <= 4,
            "idle slots exceeded cap after round {round}: {}",
            pool.idle_count(server)
        );
    }
    // Severed connections must not be checked back in as idle.
    plan.inject_reset(2);
    let _ = pool.call(server, &Request::Ping);
    assert_eq!(pool.idle_count(server), 0, "severed conns must be dropped");
}

#[test]
fn truncation_is_processed_but_ack_lost() {
    let server = ServerId::new(1);
    let (faults, store, plan) = mem_cluster(server);
    let pool = ConnectionPool::new(faults, ClientId::new(7));

    let f = fid(7, 0);
    plan.inject_truncate(2); // survive the pool's transparent redial
    let err = pool.call(server, &store_req(f, b"hello")).unwrap_err();
    assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
    assert!(
        store.seen() >= 1,
        "truncated request must still be processed"
    );

    // The retry path: the fragment is already there, so the duplicate
    // store reports FragmentExists — which the writer treats as success.
    let err = pool
        .call(server, &store_req(f, b"hello"))
        .unwrap()
        .into_result()
        .unwrap_err();
    assert!(matches!(err, SwarmError::FragmentExists(_)), "{err}");
    let data = pool
        .call(
            server,
            &Request::Read {
                fid: f,
                offset: 0,
                len: 5,
            },
        )
        .unwrap();
    assert_eq!(data, Response::Data(Bytes::from(&b"hello"[..])));
}

#[test]
fn delay_slows_exactly_one_call() {
    let server = ServerId::new(1);
    let (faults, _store, plan) = mem_cluster(server);
    let pool = ConnectionPool::new(faults, ClientId::new(7));

    plan.inject_delay_us(50_000);
    let start = Instant::now();
    assert_eq!(pool.call(server, &Request::Ping).unwrap(), Response::Ok);
    assert!(
        start.elapsed() >= Duration::from_millis(45),
        "delay not applied: {:?}",
        start.elapsed()
    );

    let start = Instant::now();
    assert_eq!(pool.call(server, &Request::Ping).unwrap(), Response::Ok);
    assert!(
        start.elapsed() < Duration::from_millis(45),
        "delay must be one-shot: {:?}",
        start.elapsed()
    );
}

#[test]
fn disk_full_rejects_stores_until_freed() {
    let server = ServerId::new(1);
    let mem = Arc::new(MemTransport::new());
    let store = Arc::new(CountingStore::default());
    let faults = Arc::new(FaultTransport::new(mem.clone()));
    let plan = faults.plan(server);
    mem.register(
        server,
        Arc::new(FaultHandler::new(store.clone(), plan.clone())),
    );
    let pool = ConnectionPool::new(faults, ClientId::new(7));

    plan.set_disk_full(true);
    let err = pool
        .call(server, &store_req(fid(7, 0), b"x"))
        .unwrap()
        .into_result()
        .unwrap_err();
    assert!(matches!(err, SwarmError::OutOfSpace(_)), "{err}");
    // Reads still work while the disk is full.
    assert_eq!(pool.call(server, &Request::Ping).unwrap(), Response::Ok);

    plan.set_disk_full(false);
    assert_eq!(
        pool.call(server, &store_req(fid(7, 0), b"x")).unwrap(),
        Response::Ok
    );
}

#[test]
fn tcp_server_side_truncation_tears_a_real_frame() {
    let server = ServerId::new(1);
    let store = Arc::new(CountingStore::default());
    let plan = Arc::new(FaultPlan::new());
    let tcp_server = TcpServer::spawn_with_config(
        server,
        "127.0.0.1:0",
        store.clone(),
        ServerConfig {
            faults: Some(plan.clone()),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let tcp = TcpTransport::new();
    tcp.add_server(server, tcp_server.addr());
    tcp.set_call_timeout(Some(Duration::from_secs(2)));
    let faults = Arc::new(FaultTransport::new(Arc::new(tcp)));
    // Truncation is consumed server-side: the torn frame crosses the wire.
    faults.set_client_truncation(false);
    let pool = ConnectionPool::new(faults, ClientId::new(7));

    let f = fid(7, 0);
    plan.inject_truncate(2); // survive the pool's transparent redial
    let err = pool.call(server, &store_req(f, b"payload")).unwrap_err();
    assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
    assert!(store.seen() >= 1, "server must have processed the request");

    // Retry on a fresh connection: duplicate store, then readable.
    let err = pool
        .call(server, &store_req(f, b"payload"))
        .unwrap()
        .into_result()
        .unwrap_err();
    assert!(matches!(err, SwarmError::FragmentExists(_)), "{err}");
    let data = pool
        .call(
            server,
            &Request::Read {
                fid: f,
                offset: 0,
                len: 7,
            },
        )
        .unwrap();
    assert_eq!(data, Response::Data(Bytes::from(&b"payload"[..])));
}

#[test]
fn same_plan_semantics_on_mem_and_tcp() {
    // The same injection sequence produces the same observable outcomes on
    // both transports — the property the chaos harness is built on.
    fn kind(e: &SwarmError) -> &'static str {
        match e {
            SwarmError::ServerUnavailable(_) => "unavail",
            SwarmError::FragmentExists(_) => "exists",
            SwarmError::OutOfSpace(_) => "nospace",
            _ => "other",
        }
    }

    fn outcomes(transport: Arc<dyn Transport>) -> Vec<String> {
        let server = ServerId::new(1);
        let faults = Arc::new(FaultTransport::new(transport));
        let plan = faults.plan(server);
        let pool = ConnectionPool::new(faults, ClientId::new(7));
        let mut log = Vec::new();
        let mut step = |tag: &str, r: swarm_types::Result<Response>| {
            log.push(format!(
                "{tag}:{}",
                match r {
                    Ok(_) => "ok".to_string(),
                    Err(e) => format!("err({})", kind(&e)),
                }
            ));
        };
        step("ping", pool.call(server, &Request::Ping));
        plan.inject_reset(2);
        step("reset-ping", pool.call(server, &Request::Ping));
        step("store", pool.call(server, &store_req(fid(7, 0), b"abc")));
        plan.set_down(true);
        step("down-ping", pool.call(server, &Request::Ping));
        plan.set_down(false);
        step("up-ping", pool.call(server, &Request::Ping));
        log
    }

    // Mem cluster.
    let server = ServerId::new(1);
    let mem = MemTransport::new();
    mem.register(server, Arc::new(CountingStore::default()));
    let mem_log = outcomes(Arc::new(mem));

    // TCP cluster.
    let store = Arc::new(CountingStore::default());
    let tcp_server = TcpServer::spawn(server, "127.0.0.1:0", store).unwrap();
    let tcp = TcpTransport::new();
    tcp.add_server(server, tcp_server.addr());
    tcp.set_call_timeout(Some(Duration::from_secs(2)));
    let tcp_log = outcomes(Arc::new(tcp));

    assert_eq!(mem_log, tcp_log);
}
