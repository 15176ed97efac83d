//! Read-pipelining benchmark (DESIGN.md §16): the mirror of
//! `write_pipeline.rs`. A memory cluster whose reads each cost a fixed
//! simulated service time is driven over connections that pipeline 1 RPC
//! (serial, paper-faithful: `window1`) versus 64 (so the fan-out's
//! `WINDOW` of 8 bounds them: `window8`), over three access patterns:
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
use swarm_bench::{log_config, mem_cluster, DelayTransport};
use swarm_log::{Log, LogConfig};
use swarm_net::MemTransport;
use swarm_types::{BlockAddr, ServerId, ServiceId};

const SERVERS: u32 = 5;
const BLOCKS: usize = 48;
const BLOCK_BYTES: usize = 4 << 10;
/// Simulated per-read service time — the disk/daemon latency a real
/// storage server charges, which the read window exists to overlap.
const READ_DELAY: Duration = Duration::from_micros(400);
const SVC: ServiceId = ServiceId::new(9);

fn cluster(width: usize) -> (Arc<DelayTransport>, Arc<MemTransport>) {
    let mem = mem_cluster(SERVERS);
    let delayed = DelayTransport {
        inner: mem.clone(),
        width,
        delay: READ_DELAY,
    };
    (Arc::new(delayed), mem)
}

fn config() -> LogConfig {
    log_config(100, SERVERS)
        .fragment_size(8 * 1024)
        // Reads must hit the servers, not a client cache.
        .cache_fragments(0)
}

/// One populated log per transport width; the corpus is written once.
fn populate(transport: Arc<DelayTransport>) -> (Log, Vec<BlockAddr>) {
    let log = Log::create(transport, config()).expect("create log");
    let mut addrs = Vec::with_capacity(BLOCKS);
    for i in 0..BLOCKS {
        let payload = vec![i as u8; BLOCK_BYTES];
        addrs.push(log.append_block(SVC, b"", &payload).expect("append"));
    }
    log.flush().expect("flush");
    (log, addrs)
}

fn bench_read_pipeline(c: &mut Criterion) {
    for width in [1usize, 64] {
        let (transport, mem) = cluster(width);
        let (log, addrs) = populate(transport);
        let window = swarm_net::pool::WINDOW.min(width);
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
