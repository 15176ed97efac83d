//! Reactor fast-path integration: a handler that answers reads via
//! `try_handle_fast` serves them inline on the reactor thread,
//! skipping the worker pool — and a read issued behind a slow store
//! completes while that store is still running.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use swarm_net::tcp::{ServerConfig, TcpServer, TcpTransport};
use swarm_net::transport::Transport;
use swarm_net::{PreparedRequest, Request, RequestHandler, Response};
use swarm_types::{ClientId, FragmentId, ServerId};

/// How long the worker path dawdles per store — the clock the inline
/// read path must beat.
const STORE_DELAY: Duration = Duration::from_millis(100);

/// A store whose worker path is slow (every `Store` sleeps) but whose
/// reads are all answerable from memory via the fast path.
#[derive(Default)]
struct SlowStore {
    frags: Mutex<std::collections::HashMap<FragmentId, Vec<u8>>>,
}

impl SlowStore {
    fn read(&self, fid: FragmentId, offset: u32, len: u32) -> Response {
        let frags = self.frags.lock();
        let Some(data) = frags.get(&fid) else {
            return Response::from_error(&swarm_types::SwarmError::protocol("no such fragment"));
        };
        let start = (offset as usize).min(data.len());
        let end = (start + len as usize).min(data.len());
        Response::Data(data[start..end].to_vec().into())
    }
}

impl RequestHandler for SlowStore {
    fn handle(&self, _client: ClientId, request: Request) -> Response {
        match request {
            Request::Store { fid, data, .. } => {
                std::thread::sleep(STORE_DELAY);
                self.frags.lock().insert(fid, data.to_vec());
                Response::Ok
            }
            Request::Read { fid, offset, len } => self.read(fid, offset, len),
            _ => Response::Ok,
        }
    }

    fn try_handle_fast(&self, _client: ClientId, request: &Request) -> Option<Response> {
        let Request::Read { fid, offset, len } = *request else {
            return None;
        };
        Some(self.read(fid, offset, len))
    }
}

fn fid(seq: u64) -> FragmentId {
    FragmentId::new(ClientId::new(9), seq)
}

#[test]
fn inline_reads_answer_while_a_store_crawls_through_the_workers() {
    let server = TcpServer::spawn_with_config(
        ServerId::new(1),
        "127.0.0.1:0",
        Arc::new(SlowStore::default()),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");
    let transport = Arc::new(TcpTransport::with_servers([(
        ServerId::new(1),
        server.addr(),
    )]));
    let mut conn = transport
        .connect(ServerId::new(1), ClientId::new(9))
        .expect("connect");

    // Seed one fragment (pays the store delay once).
    let payload: Vec<u8> = (0..1024u32).map(|i| i as u8).collect();
    conn.call(&Request::Store {
        fid: fid(0),
        marked: false,
        ranges: vec![],
        data: payload.clone().into(),
    })
    .expect("seed store")
    .into_result()
    .expect("store ok");

    let fast_before = swarm_metrics::snapshot().counter("net.server.fast_reads");

    // Launch a slow store, then read while it is still in the workers:
    // the read must come back well inside the store's sleep.
    let pending = conn.start_prepared(&PreparedRequest::new(Request::Store {
        fid: fid(1),
        marked: false,
        ranges: vec![],
        data: vec![7u8; 512].into(),
    }));
    let started = Instant::now();
    let got = conn
        .call(&Request::Read {
            fid: fid(0),
            offset: 256,
            len: 128,
        })
        .expect("read during store");
    let read_latency = started.elapsed();
    assert_eq!(got, Response::Data(payload[256..384].to_vec().into()));
    assert!(
        read_latency < STORE_DELAY,
        "inline read took {read_latency:?}, slower than the {STORE_DELAY:?} store it should overtake"
    );
    pending
        .wait()
        .expect("store completes")
        .into_result()
        .expect("store ok");

    // Byte-exactness over a sweep of offsets, all served inline.
    for (offset, len) in [(0u32, 64u32), (100, 1), (512, 512), (1000, 24)] {
        let got = conn
            .call(&Request::Read {
                fid: fid(0),
                offset,
                len,
            })
            .expect("read");
        let want = payload[offset as usize..(offset + len) as usize].to_vec();
        assert_eq!(
            got,
            Response::Data(want.into()),
            "offset {offset} len {len}"
        );
    }

    let fast_after = swarm_metrics::snapshot().counter("net.server.fast_reads");
    assert!(
        fast_after >= fast_before + 5,
        "expected >=5 inline reads, counter moved {fast_before} -> {fast_after}"
    );
    drop(conn);
    drop(server);
}
