//! In-text measurement (§3.4): uncached 4 KB read bandwidth.
//!
//! "The prototype servers do not cache log fragments in memory, and the
//! clients do not prefetch blocks from the servers. … As a result, a
//! Swarm client can read 4 KB blocks from the servers at only 1.7 MB/s."
//!
//! Each read is a synchronous RPC: request processing and disk
//! positioning on the server, the 4 KB transfer on the 100 Mb/s link,
//! and the client-side copy — no pipelining to hide any of it.

use swarm_bench::print_table;
use swarm_sim::{simulate_read, simulate_read_prefetch, Calibration};

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
        "\nmodelled, not implemented: whole-fragment prefetch would lift sequential\n\
         4 KB reads to {:.2} MB/s ({:.1}×)",
        p.mb_per_s,
        p.mb_per_s / r.mb_per_s
    );
}
