//! Read-path benchmarks over the parallel read engine: sequential read
//! bandwidth through the home fast path, degraded (reconstructing) reads
//! with a server down, and the recovery rollforward scan.
//!
//! The recovery group measures the scan, `WINDOW` fragments located and
//! fetched per batch.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use swarm_bench::{log_config, mem_cluster, next_random};
use swarm_log::{recover, Log};
use swarm_types::{BlockAddr, ServiceId};

const SVC: ServiceId = ServiceId::new(1);
const BLOCK: usize = 8 * 1024;
const BLOCKS: usize = 64;

/// A flushed log plus the addresses of its blocks, cache disabled so every
/// read exercises the engine.
fn seeded_log(servers: u32) -> (Arc<swarm_net::MemTransport>, Log, Vec<BlockAddr>) {
    let transport = mem_cluster(servers);
    let config = log_config(1, servers)
        .fragment_size(32 * 1024)
        .cache_fragments(0);
    let log = Log::create(transport.clone(), config).unwrap();
    let mut addrs = Vec::with_capacity(BLOCKS);
    for i in 0..BLOCKS {
        addrs.push(
            log.append_block(SVC, b"", &vec![(i % 251) as u8; BLOCK])
                .unwrap(),
        );
    }
    log.flush().unwrap();
    (transport, log, addrs)
}

fn bench_sequential_read(c: &mut Criterion) {
    let mut g = c.benchmark_group("sequential_read");
    g.sample_size(20);
    g.throughput(Throughput::Bytes((BLOCKS * BLOCK) as u64));
    let (_t, log, addrs) = seeded_log(4);
    g.bench_function("pooled_fanout", |b| {
        b.iter(|| {
            for addr in &addrs {
                criterion::black_box(log.read(*addr).unwrap());
            }
        });
    });
    g.finish();
}

fn bench_degraded_read(c: &mut Criterion) {
    let mut g = c.benchmark_group("degraded_read");
    g.sample_size(10);
    g.throughput(Throughput::Bytes((BLOCKS * BLOCK) as u64));
    let (transport, log, addrs) = seeded_log(4);
    // One server down: reads of its fragments reconstruct from the
    // surviving stripe members on every iteration (cache is off and
    // the fragment map entry is forgotten each round).
    transport.set_down(swarm_types::ServerId::new(0), true);
    g.bench_function("pooled_fanout", |b| {
        b.iter(|| {
            for addr in &addrs {
                log.forget_fragment(addr.fid);
                criterion::black_box(log.read(*addr).unwrap());
            }
        });
    });
    // The shape a degraded block read has in service: random 4 KiB reads
    // of blocks homed on the down server, the fragment map intact. The pool
    // knows the home is down, so each read is `k` ranged survivor reads
    // and a 4 KiB fold — no dial, no locate, no whole-fragment decode.
    let (transport, log, addrs) = seeded_log(4);
    let down = swarm_types::ServerId::new(0);
    let lost: Vec<BlockAddr> = (addrs.into_iter())
        .filter(|a| {
            let home = swarm_log::reconstruct::locate_fragment(log.engine(), a.fid);
            home.is_some_and(|(server, _)| server == down)
        })
        .collect();
    assert!(!lost.is_empty(), "no block is homed on the down server");
    transport.set_down(down, true);
    const READS: u64 = 256;
    g.throughput(Throughput::Bytes(READS * 4096));
    g.bench_function("random_4k_ranged", |b| {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        b.iter(|| {
            for _ in 0..READS {
                let r = next_random(&mut rng);
                let addr = lost[(r >> 1) as usize % lost.len()];
                let half = BlockAddr::new(addr.fid, addr.offset + 4096 * (r & 1) as u32, 4096);
                criterion::black_box(log.read(half).unwrap());
            }
        });
    });
    g.finish();
}

fn bench_recovery_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("recovery_scan");
    g.sample_size(10);
    g.throughput(Throughput::Bytes((BLOCKS * BLOCK) as u64));
    let (transport, log, _addrs) = seeded_log(4);
    drop(log); // client crash: rollforward scans the whole log
    let config = log_config(1, 4).fragment_size(32 * 1024).cache_fragments(0);
    g.bench_function("rollforward", |b| {
        b.iter(|| {
            let (log, replay) = recover(
                transport.clone() as Arc<dyn swarm_net::Transport>,
                config.clone(),
                &[SVC],
            )
            .unwrap();
            criterion::black_box((log, replay.records_for(SVC).len()));
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sequential_read,
    bench_degraded_read,
    bench_recovery_scan
);
criterion_main!(benches);
