//! Write-pipelining benchmark (DESIGN.md §15): appenders stream blocks
//! through `Log::append_block` + `flush` against a memory cluster whose
//! stores each cost a fixed simulated latency, with the write window at
//! 1 (paper-faithful serial stores) versus 8 (pipelined). Rows:
//!
//! * `window1/1_appender`, `window1/8_appenders` — each server channel
//!   waits out one store RTT at a time;
//! * `window8/1_appender`, `window8/8_appenders` — up to 8 stores ride
//!   the channel concurrently, so the simulated store latency overlaps.
//!
//! The interesting comparison is within an appender count: the window-8
//! row should approach `window x` lower wall time while the store
//! latency, not client CPU, is the bottleneck. The repo benchmark's
//! `ingest` workload (`benchmark/README.md`) measures the same effect
//! over real TCP.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use swarm_log::{Log, LogConfig};
use swarm_net::{Connection, MemTransport, PendingCall, PreparedRequest, Request, Transport};
use swarm_server::{MemStore, StorageServer};
use swarm_types::{ClientId, Result, ServerId, ServiceId};

const SERVERS: u32 = 5;
const BLOCKS_PER_APPENDER: usize = 64;
const BLOCK_BYTES: usize = 4 << 10;
/// Simulated per-store service time — the disk/daemon latency a real
/// storage server charges, which the write window exists to overlap.
const STORE_DELAY: Duration = Duration::from_micros(400);
const SVC: ServiceId = ServiceId::new(9);

/// Decorates `MemTransport` so every pipelined store completes on its own
/// thread after `STORE_DELAY`, like a response arriving on a mux socket.
struct DelayTransport {
    inner: Arc<MemTransport>,
}

struct DelayConn {
    inner: Box<dyn Connection>,
    mem: Arc<MemTransport>,
    client: ClientId,
}

impl Connection for DelayConn {
    // Plain calls (mount, reads, retries) pass straight through: the
    // simulated latency models store *service* time, charged only on the
    // pipelined path the window manages.
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
            std::thread::sleep(STORE_DELAY);
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

fn cluster() -> Arc<DelayTransport> {
    let mem = Arc::new(MemTransport::new());
    for i in 0..SERVERS {
        let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
        mem.register(ServerId::new(i), srv);
    }
    Arc::new(DelayTransport { inner: mem })
}

fn config(client: u32, window: usize) -> LogConfig {
    LogConfig::new(
        ClientId::new(client),
        (0..SERVERS).map(ServerId::new).collect(),
    )
    .expect("valid group")
    // One block per fragment: every append is a store, so the store
    // channel is the measured bottleneck.
    .fragment_size(8 * 1024)
    .write_window(window)
    .queue_depth(window.max(2) * 2)
}

/// `appenders` threads each stream `BLOCKS_PER_APPENDER` blocks through
/// their own log and flush, all on the shared delayed transport.
fn drive(transport: &Arc<DelayTransport>, appenders: usize, window: usize) {
    std::thread::scope(|s| {
        for a in 0..appenders {
            let transport = transport.clone();
            s.spawn(move || {
                let log =
                    Log::create(transport, config(100 + a as u32, window)).expect("create log");
                let payload = vec![a as u8; BLOCK_BYTES];
                for _ in 0..BLOCKS_PER_APPENDER {
                    log.append_block(SVC, b"", &payload).expect("append");
                }
                log.flush().expect("flush");
            });
        }
    });
}

fn bench_write_pipeline(c: &mut Criterion) {
    let transport = cluster();
    for window in [1usize, 8] {
        let mut group = c.benchmark_group(format!("write_pipeline/window{window}"));
        for appenders in [1usize, 8] {
            group.throughput(Throughput::Elements(
                (appenders * BLOCKS_PER_APPENDER) as u64,
            ));
            group.sample_size(10);
            group.bench_function(format!("{appenders}_appenders"), |b| {
                b.iter(|| drive(&transport, appenders, window));
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_write_pipeline);
criterion_main!(benches);
