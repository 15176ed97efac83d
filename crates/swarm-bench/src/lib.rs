//! Benchmark harness utilities: table printing and cluster setup shared
//! by the figure binaries (`fig3_raw_bandwidth`, `fig4_useful_bandwidth`,
//! `fig5_mab`, `text_read_bandwidth`, `text_server_bound`) and the
//! criterion benches.
//!
//! Every table and figure in the paper's evaluation (§3.4) has a binary
//! here that regenerates it; see `EXPERIMENTS.md` at the workspace root
//! for the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use std::time::Duration;

use swarm_net::{Connection, MemTransport, PendingCall, PreparedRequest, Request, Transport};
use swarm_server::{MemStore, StorageServer};
use swarm_types::{ClientId, Result, ServerId, SwarmError};

/// Prints a row-aligned table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Builds an in-process cluster of `n` memory-backed storage servers.
pub fn mem_cluster(n: u32) -> Arc<MemTransport> {
    let transport = Arc::new(MemTransport::new());
    for i in 0..n {
        let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
        transport.register(ServerId::new(i), srv);
    }
    transport
}

/// Decorates a [`MemTransport`] for the pipelining benches: every
/// pipelined call completes on its own thread after `delay` — the
/// service time a real server charges, arriving like a response on a mux
/// socket — and connections report `width` as their `pipeline_width`, so
/// width 1 is the paper's one-RPC-at-a-time client and a wide one lets the
/// log's window bound what is in flight.
pub struct DelayTransport {
    /// The cluster underneath.
    pub inner: Arc<MemTransport>,
    /// What every connection reports as its `pipeline_width`.
    pub width: usize,
    /// Simulated service time per pipelined call.
    pub delay: Duration,
}

struct DelayConn {
    inner: Box<dyn Connection>,
    mem: Arc<MemTransport>,
    client: ClientId,
    width: usize,
    delay: Duration,
}

impl Connection for DelayConn {
    // Plain calls (mount, locate broadcasts, retries) pass straight
    // through: the simulated latency models *service* time, charged only
    // on the pipelined path the window manages.
    fn call(&mut self, request: &Request) -> Result<swarm_net::Response> {
        self.inner.call(request)
    }

    fn start_prepared(&mut self, prepared: &PreparedRequest) -> PendingCall {
        let (server, client, delay) = (self.inner.server(), self.client, self.delay);
        let mem = self.mem.clone();
        let request = prepared.request().clone();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            let result = mem
                .connect(server, client)
                .and_then(|mut c| c.call(&request));
            let _ = tx.send(result);
        });
        PendingCall::deferred(move || {
            rx.recv()
                .unwrap_or(Err(SwarmError::ServerUnavailable(server)))
        })
    }

    fn pipeline_width(&self) -> usize {
        self.width
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
            width: self.width,
            delay: self.delay,
        }))
    }

    fn servers(&self) -> Vec<ServerId> {
        self.inner.servers()
    }
}

/// A default log config over servers `0..n` for `client`.
pub fn log_config(client: u32, n: u32) -> swarm_log::LogConfig {
    swarm_log::LogConfig::new(ClientId::new(client), (0..n).map(ServerId::new).collect())
        .expect("valid group")
}

/// Steps `state` and returns 31 well-mixed bits: a fixed-seed generator
/// for picking benchmark keys (Knuth's 64-bit LCG, high half).
pub fn next_random(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printing_does_not_panic() {
        print_table(
            "demo",
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    fn mem_cluster_builds() {
        use swarm_net::Transport;
        let t = mem_cluster(3);
        assert_eq!(t.servers().len(), 3);
    }

    /// Quick-mode sanity for the kernels `benches/kernels.rs` measures:
    /// the optimized CRC and XOR must agree with their byte-at-a-time
    /// baselines on unaligned, odd-length data. Runs under `cargo test`
    /// so CI catches a broken kernel without running the benches.
    #[test]
    fn crc_kernel_matches_baseline() {
        use swarm_types::{crc::crc32_baseline, crc32};
        let buf: Vec<u8> = (0..4099u32).map(|i| (i * 31 % 256) as u8).collect();
        for start in [0usize, 1, 3, 7] {
            assert_eq!(crc32(&buf[start..]), crc32_baseline(&buf[start..]));
        }
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn xor_kernel_matches_baseline() {
        use swarm_log::parity::{xor_into, xor_into_baseline};
        let src: Vec<u8> = (0..4097u32).map(|i| (i * 17 % 256) as u8).collect();
        let mut fast = vec![0x5au8; 129];
        let mut slow = fast.clone();
        xor_into(&mut fast, &src);
        xor_into_baseline(&mut slow, &src);
        assert_eq!(fast, slow);
    }
}
