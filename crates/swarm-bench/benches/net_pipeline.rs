//! Client pipelining benchmark: N concurrent callers against one TCP
//! server, all multiplexed on one socket by request id. Rows:
//!
//! * `mux/1_caller` — one call in flight: the per-RPC round trip;
//! * `mux/8_callers` — eight callers share the socket, and throughput
//!   comes from overlapping requests on it rather than from more
//!   connections (per-connection server state stays constant).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use swarm_net::tcp::{ServerConfig, TcpServer, TcpTransport};
use swarm_net::{Request, RequestHandler, Response, Transport};
use swarm_types::{ClientId, ServerId};

const CALLS_PER_CALLER: usize = 64;
const PAYLOAD: usize = 4 << 10;

/// Answers every request with a fixed 4 KiB payload — network cost with
/// no storage behind it.
struct FixedData(swarm_types::Bytes);

impl RequestHandler for FixedData {
    fn handle(&self, _client: ClientId, _request: Request) -> Response {
        Response::Data(self.0.share())
    }
}

fn spawn_server() -> TcpServer {
    TcpServer::spawn_with_config(
        ServerId::new(0),
        "127.0.0.1:0",
        Arc::new(FixedData(vec![7u8; PAYLOAD].into())),
        ServerConfig {
            workers: 16,
            ..ServerConfig::default()
        },
    )
    .expect("spawn bench server")
}

/// `callers` threads issue `CALLS_PER_CALLER` pings each and join.
fn drive(transport: &Arc<TcpTransport>, callers: usize) {
    std::thread::scope(|s| {
        for _ in 0..callers {
            let transport = transport.clone();
            s.spawn(move || {
                let mut conn = transport
                    .connect(ServerId::new(0), ClientId::new(1))
                    .expect("connect");
                for _ in 0..CALLS_PER_CALLER {
                    match conn.call(&Request::Ping).expect("call") {
                        Response::Data(_) => {}
                        other => panic!("unexpected response {other:?}"),
                    }
                }
            });
        }
    });
}

fn bench_pipelining(c: &mut Criterion) {
    let server = spawn_server();
    let transport = Arc::new(TcpTransport::with_servers([(
        ServerId::new(0),
        server.addr(),
    )]));
    let mut group = c.benchmark_group("net_pipeline/mux");
    for callers in [1usize, 8] {
        group.throughput(Throughput::Elements((callers * CALLS_PER_CALLER) as u64));
        group.sample_size(10);
        group.bench_function(format!("{callers}_callers"), |b| {
            b.iter(|| drive(&transport, callers));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipelining);
criterion_main!(benches);
