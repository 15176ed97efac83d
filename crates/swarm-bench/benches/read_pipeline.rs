//! Read-pipelining benchmark (DESIGN.md §16): the mirror of
//! `write_pipeline.rs`. A memory cluster whose reads each cost a fixed
//! simulated service time is driven with the read window at 1 (serial,
//! paper-faithful) versus 8 (pipelined), over three access patterns:
//!
//! * `sequential` — `Log::read` block by block, one RPC per read (the
//!   window's floor: nothing to overlap, so this row is the baseline);
//! * `scan/batch1` and `scan/batch16` — `Log::read_many` over runs of 1
//!   vs 16 blocks, where batch 16 rides `ReadBatch` RPCs and the window
//!   overlaps the per-chunk service time;
//! * `degraded` — one server held down, so reads touching it come back
//!   via parity reconstruction, whose member fetches the window overlaps.
//!
//! The repo benchmark's `point-read` and `degraded-read` workloads
//! (`benchmark/README.md`) measure the same effects over real TCP.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use swarm_log::{Log, LogConfig};
use swarm_net::{Connection, MemTransport, PendingCall, PreparedRequest, Request, Transport};
use swarm_server::{MemStore, StorageServer};
use swarm_types::{BlockAddr, ClientId, Result, ServerId, ServiceId};

const SERVERS: u32 = 5;
const BLOCKS: usize = 48;
const BLOCK_BYTES: usize = 4 << 10;
/// Simulated per-read service time — the disk/daemon latency a real
/// storage server charges, which the read window exists to overlap.
const READ_DELAY: Duration = Duration::from_micros(400);
const SVC: ServiceId = ServiceId::new(9);

/// Decorates `MemTransport` so every pipelined call completes on its own
/// thread after `READ_DELAY`, like a response arriving on a mux socket.
struct DelayTransport {
    inner: Arc<MemTransport>,
}

struct DelayConn {
    inner: Box<dyn Connection>,
    mem: Arc<MemTransport>,
    client: ClientId,
}

impl Connection for DelayConn {
    // Plain calls (mount, locate broadcasts, retries) pass straight
    // through: the simulated latency models *service* time, charged only
    // on the pipelined path the window manages.
    fn call(&mut self, request: &Request) -> Result<swarm_net::Response> {
        self.inner.call(request)
    }

    fn start_prepared(&mut self, prepared: &PreparedRequest) -> PendingCall {
        let server = self.inner.server();
        let mem = self.mem.clone();
        let client = self.client;
        let request = prepared.request().clone();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            std::thread::sleep(READ_DELAY);
            let result = mem
                .connect(server, client)
                .and_then(|mut c| c.call(&request));
            let _ = tx.send(result);
        });
        PendingCall::deferred(move || {
            rx.recv()
                .unwrap_or(Err(swarm_types::SwarmError::ServerUnavailable(server)))
        })
    }

    fn pipeline_width(&self) -> usize {
        64
    }

    fn server(&self) -> ServerId {
        self.inner.server()
    }
}

impl Transport for DelayTransport {
    fn connect(&self, server: ServerId, client: ClientId) -> Result<Box<dyn Connection>> {
        Ok(Box::new(DelayConn {
            inner: self.inner.connect(server, client)?,
            mem: self.inner.clone(),
            client,
        }))
    }

    fn servers(&self) -> Vec<ServerId> {
        self.inner.servers()
    }
}

fn cluster() -> (Arc<DelayTransport>, Arc<MemTransport>) {
    let mem = Arc::new(MemTransport::new());
    for i in 0..SERVERS {
        let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
        mem.register(ServerId::new(i), srv);
    }
    (Arc::new(DelayTransport { inner: mem.clone() }), mem)
}

fn config(window: usize) -> LogConfig {
    LogConfig::new(
        ClientId::new(100),
        (0..SERVERS).map(ServerId::new).collect(),
    )
    .expect("valid group")
    .fragment_size(8 * 1024)
    // Reads must hit the servers, not a client cache.
    .cache_fragments(0)
    .read_window(window)
}

/// One populated log per window setting; the corpus is written once.
fn populate(transport: Arc<DelayTransport>, window: usize) -> (Log, Vec<BlockAddr>) {
    let log = Log::create(transport, config(window)).expect("create log");
    let mut addrs = Vec::with_capacity(BLOCKS);
    for i in 0..BLOCKS {
        let payload = vec![i as u8; BLOCK_BYTES];
        addrs.push(log.append_block(SVC, b"", &payload).expect("append"));
    }
    log.flush().expect("flush");
    (log, addrs)
}

fn bench_read_pipeline(c: &mut Criterion) {
    for window in [1usize, 8] {
        let (transport, mem) = cluster();
        let (log, addrs) = populate(transport, window);
        let mut group = c.benchmark_group(format!("read_pipeline/window{window}"));
        group.throughput(Throughput::Elements(BLOCKS as u64));
        group.sample_size(10);

        group.bench_function("sequential", |b| {
            b.iter(|| {
                for &addr in &addrs {
                    let got = log.read(addr).expect("read");
                    assert_eq!(got.len(), BLOCK_BYTES);
                }
            });
        });
        for batch in [1usize, 16] {
            group.bench_function(format!("scan/batch{batch}"), |b| {
                b.iter(|| {
                    for chunk in addrs.chunks(batch) {
                        let got = log.read_many(chunk).expect("scan");
                        assert_eq!(got.len(), chunk.len());
                    }
                });
            });
        }
        // Hold one server down: reads whose home it was come back via
        // parity reconstruction, member fetches riding the read window.
        mem.set_down(ServerId::new(0), true);
        group.bench_function("degraded", |b| {
            b.iter(|| {
                for &addr in &addrs {
                    let got = log.read(addr).expect("degraded read");
                    assert_eq!(got.len(), BLOCK_BYTES);
                }
            });
        });
        mem.set_down(ServerId::new(0), false);
        group.finish();
    }
}

criterion_group!(benches, bench_read_pipeline);
criterion_main!(benches);
