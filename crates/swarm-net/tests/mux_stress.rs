//! Integration stress for the TCP session: request-id multiplexing
//! under random pipelined interleavings, and a server holding 1000
//! concurrent connections.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use proptest::prelude::*;
use swarm_net::tcp::{ServerConfig, TcpServer, TcpTransport};
use swarm_net::transport::Transport;
use swarm_net::{Request, RequestHandler, Response};
use swarm_types::{ClientId, FragmentId, ServerId};

/// Minimal in-memory fragment store: enough Store/Read/Ping to exercise
/// the wire paths.
#[derive(Default)]
struct MapStore {
    frags: Mutex<std::collections::HashMap<FragmentId, Vec<u8>>>,
}

impl RequestHandler for MapStore {
    fn handle(&self, _client: ClientId, request: Request) -> Response {
        match request {
            Request::Store { fid, data, .. } => {
                self.frags.lock().insert(fid, data.to_vec());
                Response::Ok
            }
            Request::Read { fid, offset, len } => {
                let frags = self.frags.lock();
                let Some(data) = frags.get(&fid) else {
                    return Response::from_error(&swarm_types::SwarmError::protocol(
                        "no such fragment",
                    ));
                };
                let start = (offset as usize).min(data.len());
                let end = (start + len as usize).min(data.len());
                Response::Data(data[start..end].to_vec().into())
            }
            _ => Response::Ok,
        }
    }
}

fn epoll_server(id: u32, workers: usize) -> TcpServer {
    TcpServer::spawn_with_config(
        ServerId::new(id),
        "127.0.0.1:0",
        Arc::new(MapStore::default()),
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("spawn server")
}

/// Deterministic payload for `(thread, call)` so a cross-matched response
/// (a mux id bug) is detected byte-for-byte, not just by length.
fn payload_for(thread: usize, call: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (thread.wrapping_mul(31) ^ call.wrapping_mul(17) ^ i) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random interleavings of pipelined requests on ONE multiplexed
    /// connection: every thread stores its own fragments then reads them
    /// back, and each response must match the caller's bytes exactly. A
    /// request-id correlation bug anywhere (client mux table, server id
    /// echo, frame reassembly) surfaces as another call's data.
    #[test]
    fn pipelined_interleavings_match_byte_exact(
        threads in 2usize..6,
        calls in 2usize..10,
        lens in proptest::collection::vec(0usize..4096, 64..65),
    ) {
        let server = epoll_server(1, 8);
        let transport = Arc::new(TcpTransport::with_servers([(
            ServerId::new(1),
            server.addr(),
        )]));
        let lens = Arc::new(lens);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let transport = transport.clone();
                let lens = lens.clone();
                std::thread::spawn(move || {
                    // Same ClientId on every thread: all calls share one
                    // mux channel and interleave on one socket.
                    let mut conn = transport
                        .connect(ServerId::new(1), ClientId::new(7))
                        .expect("connect");
                    for c in 0..calls {
                        let len = lens[(t * calls + c) % lens.len()];
                        let data = payload_for(t, c, len);
                        let fid = FragmentId::new(ClientId::new(7), (t * 1000 + c) as u64);
                        let resp = conn
                            .call(&Request::Store {
                                fid,
                                marked: false,
                                ranges: vec![],
                                data: data.clone().into(),
                            })
                            .expect("store");
                        assert_eq!(resp, Response::Ok);
                        let resp = conn
                            .call(&Request::Read {
                                fid,
                                offset: 0,
                                len: len as u32,
                            })
                            .expect("read");
                        assert_eq!(
                            resp,
                            Response::Data(data.into()),
                            "thread {t} call {c} got another call's bytes"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("pipelining thread panicked");
        }
        prop_assert_eq!(transport.mux_channels(), 1);
    }
}

/// One caller pipelines a window of stores through `start_prepared` on a
/// single mux connection, then harvests the completions: every store must
/// land, readback must be byte-exact, and the channel's inflight peak must
/// prove the requests genuinely overlapped on the wire.
#[test]
fn start_prepared_pipelines_a_window_on_one_connection() {
    use swarm_net::PreparedRequest;

    const WINDOW: usize = 8;
    let server = epoll_server(3, 4);
    let transport = Arc::new(TcpTransport::with_servers([(
        ServerId::new(3),
        server.addr(),
    )]));
    let mut conn = transport
        .connect(ServerId::new(3), ClientId::new(11))
        .expect("connect");
    assert!(conn.pipeline_width() >= WINDOW);

    let payloads: Vec<Vec<u8>> = (0..WINDOW).map(|i| payload_for(9, i, 2048)).collect();
    let pending: Vec<_> = payloads
        .iter()
        .enumerate()
        .map(|(i, data)| {
            let prepared = PreparedRequest::new(Request::Store {
                fid: FragmentId::new(ClientId::new(11), i as u64),
                marked: false,
                ranges: vec![],
                data: data.clone().into(),
            });
            conn.start_prepared(&prepared)
        })
        .collect();
    // All WINDOW requests are on the wire before the first harvest.
    assert!(
        transport.mux_inflight_peak() >= WINDOW,
        "inflight peak {} never reached the window",
        transport.mux_inflight_peak()
    );
    for p in pending {
        assert_eq!(p.wait().expect("store"), Response::Ok);
    }
    for (i, data) in payloads.iter().enumerate() {
        let resp = conn
            .call(&Request::Read {
                fid: FragmentId::new(ClientId::new(11), i as u64),
                offset: 0,
                len: data.len() as u32,
            })
            .expect("read");
        assert_eq!(resp, Response::Data(data.clone().into()), "fragment {i}");
    }
    assert_eq!(transport.mux_channels(), 1, "everything shared one socket");
}

/// The reactor holds 1000 concurrent connections — far beyond the worker
/// pool width — and serves every one of them while all are open.
#[test]
fn epoll_server_handles_1000_concurrent_connections() {
    const CONNS: usize = 1000;
    // Each client connection costs one fd on each side, plus the harness'
    // own files; make sure the soft limit is not the bottleneck.
    epoll::raise_nofile_soft_limit(2 * CONNS as u64 + 512).expect("raise RLIMIT_NOFILE");

    let server = epoll_server(2, 8);
    let transport = TcpTransport::with_servers([(ServerId::new(2), server.addr())]);
    // Channels are shared per (server, client) pair, so 1000 distinct
    // client ids are 1000 real sockets the server genuinely holds.
    transport.set_call_timeout(Some(Duration::from_secs(60)));

    let mut conns = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let mut conn = transport
            .connect(ServerId::new(2), ClientId::new(i as u32))
            .unwrap_or_else(|e| panic!("dial {i} failed: {e}"));
        assert_eq!(conn.call(&Request::Ping).expect("first ping"), Response::Ok);
        conns.push(conn);
    }
    // All 1000 are open simultaneously; every single one is still served.
    for (i, conn) in conns.iter_mut().enumerate() {
        assert_eq!(
            conn.call(&Request::Ping)
                .unwrap_or_else(|e| panic!("ping {i} failed: {e}")),
            Response::Ok
        );
    }
    assert_eq!(transport.mux_channels(), CONNS, "one socket per client id");
}
