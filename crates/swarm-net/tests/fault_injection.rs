//! End-to-end fault-injection semantics over both transports.
//!
//! A [`FaultPlan`] is read at the server end only: `MemTransport`'s
//! per-member plan, or a `TcpServer`'s `ServerConfig::faults`. These tests
//! pin the behaviour the chaos harness (`swarm-chaos`) relies on, on each:
//! a reset is a pre-delivery failure, a truncation is a post-delivery ack
//! loss, a delay is one slow reply, disk-full is an error response, and
//! the connection pool recovers from severed connections without leaking
//! slots. On TCP a reset closes the socket, so every call in flight on it
//! dies too, and a server marked down refuses the next dial.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use std::collections::HashMap;
use swarm_net::tcp::{ServerConfig, TcpServer, TcpTransport};
use swarm_net::{
    ConnectionPool, FaultPlan, MemTransport, Request, RequestHandler, Response, Transport,
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

const SERVER: ServerId = ServerId::new(1);

/// One server behind one transport, with the plan that server reads.
struct Rig {
    name: &'static str,
    transport: Arc<dyn Transport>,
    store: Arc<CountingStore>,
    plan: Arc<FaultPlan>,
    tcp: Option<(Arc<TcpTransport>, TcpServer)>,
}

impl Rig {
    /// A `MemTransport` member; the plan is the member's own.
    fn mem() -> Rig {
        let mem = Arc::new(MemTransport::new());
        let store = Arc::new(CountingStore::default());
        mem.register(SERVER, store.clone());
        let plan = mem.faults(SERVER).expect("registered");
        Rig {
            name: "mem",
            transport: mem,
            store,
            plan,
            tcp: None,
        }
    }

    /// A `TcpServer` given the plan in `ServerConfig::faults`, behind a
    /// bare `TcpTransport`.
    fn tcp() -> Rig {
        let store = Arc::new(CountingStore::default());
        let plan = Arc::new(FaultPlan::new());
        let server = TcpServer::spawn_with_config(
            SERVER,
            "127.0.0.1:0",
            store.clone(),
            ServerConfig {
                faults: Some(plan.clone()),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let tcp = Arc::new(TcpTransport::new());
        tcp.add_server(SERVER, server.addr());
        tcp.set_call_timeout(Some(Duration::from_secs(2)));
        Rig {
            name: "tcp",
            transport: tcp.clone(),
            store,
            plan,
            tcp: Some((tcp, server)),
        }
    }

    fn both() -> [Rig; 2] {
        [Rig::mem(), Rig::tcp()]
    }

    fn pool(&self) -> ConnectionPool {
        ConnectionPool::new(self.transport.clone(), ClientId::new(7))
    }
}

#[test]
fn reset_severs_before_delivery_and_pool_recovers() {
    for rig in Rig::both() {
        let pool = rig.pool();
        // Healthy round trip first so the pool holds an idle connection.
        assert_eq!(pool.call(SERVER, &Request::Ping).unwrap(), Response::Ok);
        let baseline = rig.store.seen();

        // Two resets: enough to defeat the pool's single transparent redial.
        rig.plan.inject_reset(2);
        let err = pool.call(SERVER, &Request::Ping).unwrap_err();
        assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
        assert_eq!(
            rig.store.seen(),
            baseline,
            "{}: reset request must not be delivered",
            rig.name
        );

        // The pool redials on the next call and recovers.
        assert_eq!(pool.call(SERVER, &Request::Ping).unwrap(), Response::Ok);
        assert_eq!(rig.store.seen(), baseline + 1, "{}", rig.name);
    }
}

#[test]
fn pool_does_not_leak_slots_across_reset_storms() {
    for rig in Rig::both() {
        let pool = rig.pool();
        for round in 0..32 {
            if round % 2 == 0 {
                rig.plan.inject_reset(2);
                let _ = pool.call(SERVER, &Request::Ping);
            } else {
                assert_eq!(pool.call(SERVER, &Request::Ping).unwrap(), Response::Ok);
            }
            assert!(
                pool.idle_count(SERVER) <= 4,
                "{}: idle slots exceeded cap after round {round}: {}",
                rig.name,
                pool.idle_count(SERVER)
            );
        }
        // Severed connections must not be checked back in as idle.
        rig.plan.inject_reset(2);
        let _ = pool.call(SERVER, &Request::Ping);
        assert_eq!(
            pool.idle_count(SERVER),
            0,
            "{}: severed conns must be dropped",
            rig.name
        );
    }
}

/// On TCP the torn frame crosses a real socket: the server processed the
/// store, wrote half its reply and closed.
#[test]
fn truncation_is_processed_but_ack_lost() {
    for rig in Rig::both() {
        let pool = rig.pool();
        let f = fid(7, 0);
        rig.plan.inject_truncate(2); // survive the pool's transparent redial
        let err = pool.call(SERVER, &store_req(f, b"payload")).unwrap_err();
        assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
        assert!(
            rig.store.seen() >= 1,
            "{}: truncated request must still be processed",
            rig.name
        );

        // The retry path: the fragment is already there, so the duplicate
        // store reports FragmentExists — which the writer treats as success.
        let err = pool
            .call(SERVER, &store_req(f, b"payload"))
            .unwrap()
            .into_result()
            .unwrap_err();
        assert!(matches!(err, SwarmError::FragmentExists(_)), "{err}");
        let data = pool
            .call(
                SERVER,
                &Request::Read {
                    fid: f,
                    offset: 0,
                    len: 7,
                },
            )
            .unwrap();
        assert_eq!(data, Response::Data(Bytes::from(&b"payload"[..])));
    }
}

#[test]
fn delay_slows_exactly_one_call() {
    for rig in Rig::both() {
        let pool = rig.pool();
        rig.plan.inject_delay_us(50_000);
        let start = Instant::now();
        assert_eq!(pool.call(SERVER, &Request::Ping).unwrap(), Response::Ok);
        assert!(
            start.elapsed() >= Duration::from_millis(45),
            "{}: delay not applied: {:?}",
            rig.name,
            start.elapsed()
        );

        let start = Instant::now();
        assert_eq!(pool.call(SERVER, &Request::Ping).unwrap(), Response::Ok);
        assert!(
            start.elapsed() < Duration::from_millis(45),
            "{}: delay must be one-shot: {:?}",
            rig.name,
            start.elapsed()
        );
    }
}

#[test]
fn disk_full_rejects_stores_until_freed() {
    for rig in Rig::both() {
        let pool = rig.pool();
        rig.plan.set_disk_full(true);
        let err = pool
            .call(SERVER, &store_req(fid(7, 0), b"x"))
            .unwrap()
            .into_result()
            .unwrap_err();
        assert!(matches!(err, SwarmError::OutOfSpace(_)), "{err}");
        // Other requests still work while the disk is full.
        assert_eq!(pool.call(SERVER, &Request::Ping).unwrap(), Response::Ok);

        rig.plan.set_disk_full(false);
        assert_eq!(
            pool.call(SERVER, &store_req(fid(7, 0), b"x")).unwrap(),
            Response::Ok,
            "{}",
            rig.name
        );
    }
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

    fn outcomes(rig: &Rig) -> Vec<String> {
        let pool = rig.pool();
        let plan = &rig.plan;
        let mut log = Vec::new();
        let mut step = |tag: &str, r: swarm_types::Result<Response>| {
            log.push(format!(
                "{tag}:{}",
                match r.and_then(Response::into_result) {
                    Ok(_) => "ok".to_string(),
                    Err(e) => format!("err({})", kind(&e)),
                }
            ));
        };
        step("ping", pool.call(SERVER, &Request::Ping));
        plan.inject_reset(2);
        step("reset-ping", pool.call(SERVER, &Request::Ping));
        step("store", pool.call(SERVER, &store_req(fid(7, 0), b"abc")));
        plan.inject_truncate(2);
        step("torn-store", pool.call(SERVER, &store_req(fid(7, 1), b"d")));
        step("re-store", pool.call(SERVER, &store_req(fid(7, 1), b"d")));
        plan.set_disk_full(true);
        step("full-store", pool.call(SERVER, &store_req(fid(7, 2), b"e")));
        plan.set_disk_full(false);
        plan.set_down(true);
        step("down-ping", pool.call(SERVER, &Request::Ping));
        plan.set_down(false);
        step("up-ping", pool.call(SERVER, &Request::Ping));
        log
    }

    let [mem, tcp] = Rig::both();
    let mem_log = outcomes(&mem);
    assert_eq!(
        mem_log,
        [
            "ping:ok",
            "reset-ping:err(unavail)",
            "store:ok",
            "torn-store:err(unavail)",
            "re-store:err(exists)",
            "full-store:err(nospace)",
            "down-ping:err(unavail)",
            "up-ping:ok"
        ]
    );
    assert_eq!(mem_log, outcomes(&tcp));
}

/// A window of reads in flight on one mux socket; the server resets the
/// connection on the first of them. Every sibling dies with the socket —
/// none is delivered there — and `fan_out` replays each one on a fresh
/// dial, returning every read byte-exact.
#[test]
fn tcp_reset_kills_the_window_and_fan_out_replays_every_read() {
    const READS: u64 = 8;
    let rig = Rig::tcp();
    let pool = rig.pool();
    for seq in 0..READS {
        let data = vec![seq as u8; 64 + seq as usize];
        assert_eq!(
            pool.call(SERVER, &store_req(fid(7, seq), &data)).unwrap(),
            Response::Ok
        );
    }
    let conn = pool.checkout(SERVER).unwrap();
    assert!(conn.pipeline_width() >= READS as usize, "no window to fill");
    pool.checkin(conn);

    let retries = swarm_metrics::counter("log.read_retries");
    let (retries_before, seen_before) = (retries.get(), rig.store.seen());
    rig.plan.inject_reset(1);
    let jobs = (0..READS)
        .map(|seq| {
            let read = Request::Read {
                fid: fid(7, seq),
                offset: 0,
                len: 64 + seq as u32,
            };
            (SERVER, read)
        })
        .collect();
    for (seq, result) in pool.fan_out(jobs).into_iter().enumerate() {
        let want = vec![seq as u8; 64 + seq];
        assert_eq!(result.unwrap(), Response::Data(want.into()), "read {seq}");
    }
    assert_eq!(
        retries.get() - retries_before,
        READS,
        "every read on the reset socket must have died and been replayed"
    );
    assert_eq!(
        rig.store.seen() - seen_before,
        READS,
        "each read delivered exactly once, by its replay"
    );
}

/// Marking a *live* TCP server down: the next request closes its
/// connection, the redial's hello is refused, and the pool learns from
/// that failed dial — `should_try` turns false — without a client-side
/// wrapper telling it.
#[test]
fn tcp_server_set_down_refuses_the_next_dial_and_should_try_learns() {
    let rig = Rig::tcp();
    let (tcp, _server) = rig.tcp.as_ref().unwrap();
    let pool = rig.pool();
    assert_eq!(pool.call(SERVER, &Request::Ping).unwrap(), Response::Ok);
    assert!(pool.should_try(SERVER));

    rig.plan.set_down(true);
    let seen = rig.store.seen();
    let err = pool.call(SERVER, &Request::Ping).unwrap_err();
    assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
    assert_eq!(rig.store.seen(), seen, "a down server delivered a request");
    assert!(!pool.should_try(SERVER), "the failed dial went unnoticed");
    let dial = tcp.connect(SERVER, ClientId::new(8));
    assert!(
        matches!(dial, Err(SwarmError::ServerUnavailable(_))),
        "a fresh dial to a down server must fail"
    );

    rig.plan.set_down(false);
    assert_eq!(pool.call(SERVER, &Request::Ping).unwrap(), Response::Ok);
    assert!(pool.should_try(SERVER), "a good dial clears the suspicion");
}
