//! Write-pipelining benchmark (DESIGN.md §15): appenders stream blocks
//! through `Log::append_block` + `flush` against a memory cluster whose
//! stores each cost a fixed simulated latency, over connections that
//! pipeline 1 store (the paper-faithful serial path) versus 64 (so the
//! log's `WINDOW` of 8 is what bounds them). Rows:
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
use swarm_bench::{log_config, mem_cluster, DelayTransport};
use swarm_log::{Log, LogConfig};
use swarm_types::ServiceId;

const SERVERS: u32 = 5;
const BLOCKS_PER_APPENDER: usize = 64;
const BLOCK_BYTES: usize = 4 << 10;
/// Simulated per-store service time — the disk/daemon latency a real
/// storage server charges, which the write window exists to overlap.
const STORE_DELAY: Duration = Duration::from_micros(400);
const SVC: ServiceId = ServiceId::new(9);

fn cluster(width: usize) -> Arc<DelayTransport> {
    Arc::new(DelayTransport {
        inner: mem_cluster(SERVERS),
        width,
        delay: STORE_DELAY,
    })
}

fn config(client: u32) -> LogConfig {
    // One block per fragment: every append is a store, so the store
    // channel is the measured bottleneck.
    log_config(client, SERVERS).fragment_size(8 * 1024)
}

/// `appenders` threads each stream `BLOCKS_PER_APPENDER` blocks through
/// their own log and flush, all on the shared delayed transport.
fn drive(transport: &Arc<DelayTransport>, appenders: usize) {
    std::thread::scope(|s| {
        for a in 0..appenders {
            let transport = transport.clone();
            s.spawn(move || {
                let log = Log::create(transport, config(100 + a as u32)).expect("create log");
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
    for width in [1usize, 64] {
        let transport = cluster(width);
        let window = swarm_net::pool::WINDOW.min(width);
        let mut group = c.benchmark_group(format!("write_pipeline/window{window}"));
        for appenders in [1usize, 8] {
            group.throughput(Throughput::Elements(
                (appenders * BLOCKS_PER_APPENDER) as u64,
            ));
            group.sample_size(10);
            group.bench_function(format!("{appenders}_appenders"), |b| {
                b.iter(|| drive(&transport, appenders));
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_write_pipeline);
criterion_main!(benches);
