//! In-text measurement (§3.4): uncached 4 KB read bandwidth.
//!
//! "The prototype servers do not cache log fragments in memory, and the
//! clients do not prefetch blocks from the servers. … As a result, a
//! Swarm client can read 4 KB blocks from the servers at only 1.7 MB/s."
//!
//! Each read is a synchronous RPC: request processing and disk
//! positioning on the server, the 4 KB transfer on the 100 Mb/s link,
//! and the client-side copy — no pipelining to hide any of it.

use std::sync::Arc;
use std::time::Instant;

use swarm_bench::print_table;
use swarm_log::{Log, LogConfig};
use swarm_net::tcp::{TcpServer, TcpTransport};
use swarm_server::{MemStore, StorageServer};
use swarm_sim::{simulate_read, simulate_read_prefetch, Calibration};
use swarm_types::{ClientId, ServerId, ServiceId};

fn main() {
    let cal = Calibration::testbed_1999();
    let mut rows = Vec::new();
    for block_kb in [1u64, 2, 4, 8, 16, 64] {
        let r = simulate_read(&cal, 10_000, block_kb * 1024);
        rows.push(vec![
            format!("{block_kb} KB"),
            format!("{:.2}", r.mb_per_s),
            format!("{:.2}", r.block_latency_us as f64 / 1000.0),
        ]);
    }
    print_table(
        "Uncached read bandwidth vs block size (no server cache, no prefetch)",
        &["block", "MB/s", "latency (ms)"],
        &rows,
    );
    let r = simulate_read(&cal, 10_000, 4096);
    println!(
        "\npaper anchor: 4 KB blocks read at 1.7 MB/s (ours: {:.2} MB/s)",
        r.mb_per_s
    );
    println!("larger transfers amortize the RPC: the paper notes client caching and prefetch");
    println!("\"would greatly improve the performance of reads that miss in the client cache\"");
    let p = simulate_read_prefetch(&cal, 10_000, 4096);
    println!(
        "\nextension (this repo implements it as LogConfig::prefetch): whole-fragment\n\
         prefetch lifts sequential 4 KB reads to {:.2} MB/s ({:.1}×)",
        p.mb_per_s,
        p.mb_per_s / r.mb_per_s
    );

    measure_real_stack();
}

/// Sequential 4 KB read bandwidth on the real stack over TCP loopback:
/// no client cache and no prefetch (the paper's uncached-read setup)
/// against prefetch + read-ahead. The sim above models the 1999 testbed;
/// this measures this implementation.
fn measure_real_stack() {
    const BLOCK: usize = 4 * 1024;
    const BLOCKS: usize = 256;
    const ROUNDS: usize = 10;

    let mut rows = Vec::new();
    for (name, prefetch) in [("no prefetch", false), ("prefetch + read-ahead", true)] {
        let transport = Arc::new(TcpTransport::new());
        let mut servers = Vec::new();
        for i in 0..4u32 {
            let handler = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
            let server = TcpServer::spawn(ServerId::new(i), "127.0.0.1:0", handler).unwrap();
            transport.add_server(ServerId::new(i), server.addr());
            servers.push(server);
        }
        let config = LogConfig::new(ClientId::new(1), (0..4).map(ServerId::new).collect())
            .unwrap()
            .fragment_size(64 * 1024)
            .cache_fragments(if prefetch { 8 } else { 0 })
            .prefetch(prefetch);
        let log = Log::create(transport.clone() as Arc<dyn swarm_net::Transport>, config).unwrap();
        let svc = ServiceId::new(1);
        let mut addrs = Vec::new();
        for i in 0..BLOCKS {
            addrs.push(
                log.append_block(svc, b"", &vec![(i % 251) as u8; BLOCK])
                    .unwrap(),
            );
        }
        log.flush().unwrap();

        let start = Instant::now();
        for _ in 0..ROUNDS {
            for addr in &addrs {
                // Evict so every round misses the client cache the same
                // way; prefetch refills it a whole fragment at a time.
                if !prefetch {
                    log.evict_cached(addr.fid);
                }
                let data = log.read(*addr).unwrap();
                assert_eq!(data.len(), BLOCK);
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let mb_s = (ROUNDS * BLOCKS * BLOCK) as f64 / 1e6 / secs;
        rows.push(vec![name.to_string(), format!("{mb_s:.2}")]);
    }
    print_table(
        "Real stack (TCP loopback, width 4): sequential 4 KB reads",
        &["client", "MB/s"],
        &rows,
    );
}
