//! Extension experiment: degraded-mode read bandwidth.
//!
//! The paper claims qualitatively that stripe groups bound
//! reconstruction's performance impact ("in the event of a server
//! failure, fragment reconstruction involves fewer servers, lessening
//! its impact on performance", §2.1.2) and that rotated parity balances
//! reconstruction load. This binary quantifies the claim on the 1999
//! testbed model: sequential fragment-read bandwidth with one group
//! member down, by stripe width.

use std::sync::Arc;
use std::time::Instant;

use swarm_bench::{next_random, print_table};
use swarm_log::{Log, LogConfig};
use swarm_net::tcp::{TcpServer, TcpTransport};
use swarm_server::{MemStore, StorageServer};
use swarm_sim::{simulate_degraded_read, Calibration};
use swarm_types::{BlockAddr, ClientId, Geometry, ServerId, ServiceId};

fn main() {
    let cal = Calibration::testbed_1999();
    let mut rows = Vec::new();
    for width in [2u32, 3, 4, 6, 8, 16] {
        let (healthy, degraded) = simulate_degraded_read(&cal, width, 400);
        rows.push(vec![
            width.to_string(),
            format!("{healthy:.2}"),
            format!("{degraded:.2}"),
            format!("{:.2}×", healthy / degraded),
        ]);
    }
    print_table(
        "Extension: sequential read bandwidth with one group member down",
        &["width", "healthy MB/s", "degraded MB/s", "slowdown"],
        &rows,
    );
    println!("\nwidth 2 degrades for free (parity is a mirror); wider groups approach a");
    println!("bounded ~2× worst case — and smaller stripe groups involve fewer servers in");
    println!("each rebuild, the paper's argument for groups smaller than the cluster.");

    measure_real_stack(Geometry::new(3, 1).unwrap(), &[1]);
    measure_real_stack(Geometry::new(4, 2).unwrap(), &[0, 1, 2]);
}

/// Degraded reads on the real stack over TCP loopback (the sim above
/// models the 1999 testbed; this measures this implementation): one
/// cluster per row, with that many servers killed before the timed reads.
/// Two rows of reads per cluster: random 4 KiB reads with the fragment
/// map intact (a read homed on a dead server decodes just its range from
/// `k` survivors), and whole blocks with the fragment forgotten first
/// (the full locate + whole-fragment rebuild path). Two down is the
/// multi-failure case single parity cannot serve at all.
fn measure_real_stack(geometry: Geometry, kills: &[usize]) {
    const BLOCK: usize = 8 * 1024;
    const BLOCKS: usize = 64;
    const ROUNDS: usize = 10;
    let width = u32::from(geometry.width());

    let mut rows = Vec::new();
    for &kill in kills {
        let transport = Arc::new(TcpTransport::new());
        let mut servers = Vec::new();
        for i in 0..width {
            let handler = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
            let server = TcpServer::spawn(ServerId::new(i), "127.0.0.1:0", handler).unwrap();
            transport.add_server(ServerId::new(i), server.addr());
            servers.push(server);
        }
        let config = LogConfig::new(ClientId::new(1), (0..width).map(ServerId::new).collect())
            .unwrap()
            .geometry(geometry)
            .unwrap()
            .fragment_size(32 * 1024)
            .cache_fragments(0);
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

        for _ in 0..kill {
            let mut dead = servers.remove(0);
            dead.shutdown();
            drop(dead);
        }

        // Uniform random 4 KiB reads with the fragment map intact — the
        // shape of the repo benchmark's `degraded-read`: a read homed on
        // a live server is one RPC, one homed on a dead server is `k`
        // ranged survivor reads and a 4 KiB fold.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let reads = ROUNDS * BLOCKS * 4;
        let start = Instant::now();
        for _ in 0..reads {
            let r = next_random(&mut rng);
            let i = (r >> 1) as usize % BLOCKS;
            let offset = addrs[i].offset + 4096 * (r & 1) as u32;
            let data = log
                .read(BlockAddr::new(addrs[i].fid, offset, 4096))
                .unwrap();
            assert!(
                data.len() == 4096 && data.iter().all(|&b| b == (i % 251) as u8),
                "degraded read returned wrong bytes"
            );
        }
        let random_mb_s = (reads * 4096) as f64 / 1e6 / start.elapsed().as_secs_f64();
        let decoded = log.stats().reconstructions as f64 / reads as f64;

        // Forgetting the fragment each round forces the locate + rebuild
        // path instead of the home fast path.
        let start = Instant::now();
        for _ in 0..ROUNDS {
            for (i, addr) in addrs.iter().enumerate() {
                log.forget_fragment(addr.fid);
                let data = log.read(*addr).unwrap();
                assert_eq!(data.len(), BLOCK);
                assert!(
                    data.iter().all(|&b| b == (i % 251) as u8),
                    "degraded read returned wrong bytes"
                );
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let mb_s = (ROUNDS * BLOCKS * BLOCK) as f64 / 1e6 / secs;
        rows.push(vec![
            format!("{kill} down"),
            format!("{random_mb_s:.2}"),
            format!("{:.0}%", decoded * 100.0),
            format!("{mb_s:.2}"),
        ]);
    }
    print_table(
        &format!("Real stack (TCP loopback, {geometry}): reads by failure count"),
        &[
            "cluster state",
            "random 4 KiB MB/s",
            "decoded",
            "forgotten whole-block MB/s",
        ],
        &rows,
    );
}
