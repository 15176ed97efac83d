//! The Figure 3/4 write-bandwidth experiment and the in-text read
//! measurement, on the simulated testbed.
//!
//! Workload (§3.4): each client writes 10,000 4 KB blocks into its log
//! and flushes. The log layer batches blocks into 1 MB fragments, adds a
//! parity fragment per stripe, and pipelines fragments to the servers
//! with a depth-2 window per server. We simulate exactly that structure
//! over [`Timeline`] resources: per-client CPU and NIC, per-server NIC
//! and fragment service (network processing + disk, §3.4's sustained
//! 7.7 MB/s).

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calib::Calibration;
use crate::timeline::Timeline;

/// Result of one simulated write run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthPoint {
    /// Number of clients writing.
    pub clients: u32,
    /// Number of storage servers.
    pub servers: u32,
    /// Aggregate rate at which bytes land on servers (data + parity +
    /// metadata) — Figure 3's metric.
    pub raw_mb_per_s: f64,
    /// Aggregate rate of application payload — Figure 4's metric.
    pub useful_mb_per_s: f64,
    /// Simulated elapsed time, µs.
    pub elapsed_us: u64,
}

/// Per-block metadata overhead in the log (entry header: tag + service +
/// two length prefixes).
const BLOCK_ENTRY_OVERHEAD: u64 = 11;
/// Fragment header (self-identifying stripe info).
const FRAGMENT_HEADER: u64 = 100;

/// Simulates `clients` clients each writing `blocks_per_client` blocks of
/// `block_size` bytes across `servers` servers, then flushing.
///
/// Clients are interleaved in virtual-time order (the client whose next
/// fragment would start earliest goes next), so contention at shared
/// servers plays out the way concurrent clients would experience it.
pub fn simulate_write(
    cal: &Calibration,
    clients: u32,
    servers: u32,
    blocks_per_client: u64,
    block_size: u64,
) -> BandwidthPoint {
    assert!(clients >= 1 && servers >= 1);
    let width = servers as u64; // clients stripe across every server (§3.4)
    let payload_per_fragment = cal.fragment_size - FRAGMENT_HEADER;

    struct ClientState {
        cpu: Timeline,
        nic: Timeline,
        rng: StdRng,
        cpu_ready: u64,
        remaining: u64,
        member: u64,
        stripe: u64,
        phase: u64,
        pending_parity: bool,
        outstanding: Vec<VecDeque<u64>>,
    }

    impl ClientState {
        fn done(&self) -> bool {
            self.remaining == 0 && !self.pending_parity
        }
    }

    let mut states: Vec<ClientState> = (0..clients)
        .map(|c| ClientState {
            cpu: Timeline::new(),
            nic: Timeline::new(),
            rng: StdRng::seed_from_u64(0x5741_524d + c as u64),
            // Clients start almost together with a small skew.
            cpu_ready: (c as u64) * 1_700,
            remaining: blocks_per_client * (block_size + BLOCK_ENTRY_OVERHEAD),
            member: 0,
            stripe: 0,
            // Independent clients start their rotation at unrelated
            // points in the server ring (they never coordinate, §2).
            phase: (c as u64 * width) / clients as u64,
            pending_parity: false,
            outstanding: (0..servers).map(|_| VecDeque::new()).collect(),
        })
        .collect();

    let mut server_nic: Vec<Timeline> = (0..servers).map(|_| Timeline::new()).collect();
    let mut server_svc: Vec<Timeline> = (0..servers).map(|_| Timeline::new()).collect();

    let total_useful = clients as u64 * blocks_per_client * block_size;
    let mut total_raw_bytes = 0u64;
    let mut finish = 0u64;

    // Next client = earliest possible CPU start for its next fragment.
    while let Some(c) = states
        .iter()
        .enumerate()
        .filter(|(_, st)| !st.done())
        .min_by_key(|(_, st)| st.cpu_ready.max(st.cpu.free_at()))
        .map(|(i, _)| i)
    {
        let st = &mut states[c];

        // Decide what this client emits next.
        let data_members = if width >= 2 { width - 1 } else { 1 };
        let (bytes, is_parity) = if st.pending_parity {
            (cal.fragment_size, true)
        } else {
            let payload = st.remaining.min(payload_per_fragment);
            (payload + FRAGMENT_HEADER, false)
        };
        let member_index = if is_parity { data_members } else { st.member };
        let server = ((st.phase + st.stripe + member_index) % width) as usize;

        // CPU: fragment formation (data) or parity finalization.
        let jitter = 1.0 + st.rng.gen_range(-0.05..0.05);
        let cpu_us = (cal.client_fragment_us(bytes) as f64 * jitter) as u64;
        let (_, cpu_end) = st.cpu.acquire(st.cpu_ready, cpu_us);

        // Flow control: queue capacity `flow_window` plus the fragment
        // the writer thread is currently storing (matches the real
        // WritePool: a channel slot frees when the writer takes a job).
        let q = &mut st.outstanding[server];
        let gate = if q.len() > cal.flow_window {
            q.pop_front().expect("nonempty")
        } else {
            0
        };
        let submit = cpu_end.max(gate);
        st.cpu_ready = submit;

        let (_, out_end) = st.nic.acquire(submit, cal.link_us(bytes));
        let (_, in_end) = server_nic[server].acquire(out_end, cal.link_us(bytes));
        let (_, disk_end) = server_svc[server].acquire(in_end, cal.server_fragment_us(bytes));
        st.outstanding[server].push_back(disk_end);
        total_raw_bytes += bytes;
        finish = finish.max(disk_end);

        // Advance the stripe state machine.
        if is_parity {
            st.pending_parity = false;
            st.member = 0;
            st.stripe += 1;
        } else {
            st.remaining -= bytes - FRAGMENT_HEADER;
            st.member += 1;
            if width >= 2 {
                if st.member == data_members || st.remaining == 0 {
                    st.pending_parity = true;
                }
            } else if st.member == 1 {
                st.member = 0;
                st.stripe += 1;
            }
        }
    }

    BandwidthPoint {
        clients,
        servers,
        raw_mb_per_s: total_raw_bytes as f64 / finish as f64,
        useful_mb_per_s: total_useful as f64 / finish as f64,
        elapsed_us: finish,
    }
}

/// Result of the uncached-read measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadPoint {
    /// Read bandwidth, MB/s.
    pub mb_per_s: f64,
    /// Mean per-block latency, µs.
    pub block_latency_us: u64,
}

/// Simulates a client reading `blocks` blocks of `block_size` bytes with
/// a cold cache and no prefetching (§3.4: servers don't cache, clients
/// don't prefetch, so each read is a synchronous RPC + disk access).
pub fn simulate_read(cal: &Calibration, blocks: u64, block_size: u64) -> ReadPoint {
    let mut t = 0u64;
    for _ in 0..blocks {
        let rpc = cal.read_rpc_us;
        let transfer = cal.link_us(block_size);
        let cpu = (block_size as f64 * cal.read_cpu_per_byte).round() as u64;
        t += rpc + transfer + cpu;
    }
    ReadPoint {
        mb_per_s: (blocks * block_size) as f64 / t as f64,
        block_latency_us: t / blocks.max(1),
    }
}

/// Simulates sequential block reads with whole-fragment prefetch: the
/// first miss in each fragment fetches the whole fragment (one RPC + a
/// 1 MB transfer), and the remaining blocks hit the client cache.
///
/// This is the optimization §3.4 names ("both of these optimizations
/// would greatly improve the performance of reads that miss in the
/// client cache"). It is modelled here, not implemented: the client reads
/// the way the prototype did.
pub fn simulate_read_prefetch(cal: &Calibration, blocks: u64, block_size: u64) -> ReadPoint {
    let blocks_per_fragment = (cal.fragment_size / block_size).max(1);
    let mut t = 0u64;
    let mut done = 0u64;
    while done < blocks {
        let batch = blocks_per_fragment.min(blocks - done);
        // One fragment fetch: RPC + positioning, full-fragment transfer
        // on the link, sequential disk read on the server.
        t += cal.read_rpc_us;
        t += cal.link_us(cal.fragment_size);
        t += (cal.fragment_size as f64 / cal.disk.seq_mb_per_s) as u64;
        // Client-side copies for each block served from the cache.
        t += (batch as f64 * block_size as f64 * cal.read_cpu_per_byte) as u64;
        done += batch;
    }
    ReadPoint {
        mb_per_s: (blocks * block_size) as f64 / t as f64,
        block_latency_us: t / blocks.max(1),
    }
}

/// Degraded-mode sequential read bandwidth: one server of a width-`w`
/// stripe group is down, and every fragment that lived there must be
/// rebuilt by fetching the surviving `w-1` stripe members (§2.3.3).
///
/// Returns `(healthy, degraded)` MB/s for a client streaming `fragments`
/// fragments with whole-fragment prefetch. Quantifies two §2.1.2 claims:
/// a width-2 group degrades gracefully (the "reconstruction" is just a
/// mirror read), and wider groups pay more per lost fragment while
/// losing fewer fragments — the product levels off near 2× amplification.
pub fn simulate_degraded_read(cal: &Calibration, width: u32, fragments: u64) -> (f64, f64) {
    assert!(width >= 2);
    let per_fragment_us = |fetches: u64| -> u64 {
        // Each fetch: RPC + link transfer + sequential disk read; fetches
        // of stripe mates go to distinct servers and overlap on their
        // disks, but the client's single link serializes the transfers.
        cal.read_rpc_us
            + fetches * cal.link_us(cal.fragment_size)
            + (cal.fragment_size as f64 / cal.disk.seq_mb_per_s) as u64
    };
    let healthy_us = fragments * per_fragment_us(1);
    // 1/width of data fragments lived on the dead server; each costs
    // width-1 fetches (parity + the width-2 surviving data members) to
    // rebuild, plus XORing those width-2 members into the parity on the
    // client CPU (at width 2 the parity IS the data — a free mirror).
    let lost = fragments / width as u64;
    let xor_us = (cal.fragment_size as f64 * cal.client_cpu_per_byte * (width as f64 - 2.0)) as u64;
    let degraded_us = (fragments - lost) * per_fragment_us(1)
        + lost * (per_fragment_us((width - 1) as u64) + xor_us);
    let bytes = (fragments * cal.fragment_size) as f64;
    (bytes / healthy_us as f64, bytes / degraded_us as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> Calibration {
        Calibration::testbed_1999()
    }

    const BLOCKS: u64 = 10_000;
    const BS: u64 = 4096;

    #[test]
    fn fig3_single_client_is_client_limited_and_flat() {
        let p1 = simulate_write(&cal(), 1, 1, BLOCKS, BS);
        let p8 = simulate_write(&cal(), 1, 8, BLOCKS, BS);
        assert!(
            (p1.raw_mb_per_s - 6.1).abs() < 0.5,
            "raw@1srv = {:.2}, paper 6.1",
            p1.raw_mb_per_s
        );
        assert!(
            (p8.raw_mb_per_s - 6.4).abs() < 0.6,
            "raw@8srv = {:.2}, paper 6.4",
            p8.raw_mb_per_s
        );
        // Flat: within ~10% across the sweep.
        assert!((p8.raw_mb_per_s - p1.raw_mb_per_s).abs() / p1.raw_mb_per_s < 0.12);
    }

    #[test]
    fn fig4_useful_bandwidth_amortizes_parity() {
        let p2 = simulate_write(&cal(), 1, 2, BLOCKS, BS);
        assert!(
            (p2.useful_mb_per_s - 3.0).abs() < 0.4,
            "useful@2srv = {:.2}, paper 3.0",
            p2.useful_mb_per_s
        );
        let p4 = simulate_write(&cal(), 1, 4, BLOCKS, BS);
        let p8 = simulate_write(&cal(), 1, 8, BLOCKS, BS);
        assert!(p4.useful_mb_per_s > p2.useful_mb_per_s);
        assert!(p8.useful_mb_per_s > p4.useful_mb_per_s);
        // Approaches but never reaches raw.
        assert!(p8.useful_mb_per_s < p8.raw_mb_per_s);
        assert!(p8.useful_mb_per_s / p8.raw_mb_per_s > 0.8);
    }

    #[test]
    fn two_clients_saturate_one_server_at_7_7() {
        let p = simulate_write(&cal(), 2, 1, BLOCKS, BS);
        assert!(
            (p.raw_mb_per_s - 7.7).abs() < 0.4,
            "2 clients → 1 server: {:.2} MB/s, paper 7.7",
            p.raw_mb_per_s
        );
    }

    #[test]
    fn fig3_multi_client_scaling() {
        let p2 = simulate_write(&cal(), 2, 8, BLOCKS, BS);
        let p4 = simulate_write(&cal(), 4, 8, BLOCKS, BS);
        assert!(
            (p2.raw_mb_per_s - 12.9).abs() < 1.3,
            "2 clients × 8 servers raw {:.2}, paper 12.9",
            p2.raw_mb_per_s
        );
        // Paper: 19.3. Our model gives ~24 (the paper's own constants
        // leave no saturated resource at 4×8; see EXPERIMENTS.md). The
        // shape — monotone scaling well past 2 clients, bounded by
        // 4× the single-client ceiling — must hold.
        assert!(
            p4.raw_mb_per_s > 17.0 && p4.raw_mb_per_s < 26.0,
            "4 clients × 8 servers raw {:.2}, paper 19.3, model ceiling 24.4",
            p4.raw_mb_per_s
        );
        assert!(p4.raw_mb_per_s > 1.5 * p2.raw_mb_per_s);
    }

    #[test]
    fn fig4_four_clients_eight_servers_useful() {
        let p = simulate_write(&cal(), 4, 8, BLOCKS, BS);
        assert!(
            p.useful_mb_per_s > 14.0 && p.useful_mb_per_s < 22.5,
            "4×8 useful {:.2}, paper 16.0 (model ~21, see EXPERIMENTS.md)",
            p.useful_mb_per_s
        );
        // "only 17% less than the raw bandwidth"
        let gap = 1.0 - p.useful_mb_per_s / p.raw_mb_per_s;
        assert!(gap > 0.10 && gap < 0.25, "useful/raw gap {gap:.2}");
    }

    #[test]
    fn text_read_bandwidth_is_1_7() {
        let r = simulate_read(&cal(), 10_000, BS);
        assert!(
            (r.mb_per_s - 1.7).abs() < 0.15,
            "uncached read {:.2} MB/s, paper 1.7",
            r.mb_per_s
        );
    }

    #[test]
    fn prefetch_greatly_improves_sequential_reads() {
        // §3.4: caching/prefetch "would greatly improve the performance
        // of reads that miss in the client cache".
        let cold = simulate_read(&cal(), 10_000, BS);
        let warm = simulate_read_prefetch(&cal(), 10_000, BS);
        assert!(
            warm.mb_per_s > 2.2 * cold.mb_per_s,
            "prefetch {:.2} MB/s vs cold {:.2} MB/s",
            warm.mb_per_s,
            cold.mb_per_s
        );
        // Bounded by the slower of disk and link.
        assert!(warm.mb_per_s < cal().net_mb_per_s);
    }

    #[test]
    fn degraded_reads_width_two_is_a_mirror() {
        // §2.1.2: with a 2-wide group the "reconstruction" is reading the
        // parity mirror — no amplification at all.
        let (healthy, degraded) = simulate_degraded_read(&cal(), 2, 200);
        assert!(
            (healthy - degraded).abs() / healthy < 0.02,
            "w=2: healthy {healthy:.2} vs degraded {degraded:.2}"
        );
    }

    #[test]
    fn degraded_penalty_grows_with_width_but_stays_bounded() {
        let cal = cal();
        let (h4, d4) = simulate_degraded_read(&cal, 4, 200);
        let (h8, d8) = simulate_degraded_read(&cal, 8, 200);
        assert!(d4 < h4 && d8 < h8);
        // Wider stripes pay more per lost fragment.
        assert!(d8 / h8 < d4 / h4);
        // …but the slowdown never exceeds ~2.2× (1/w of fragments cost
        // w-1 fetches).
        assert!(h8 / d8 < 2.2, "w=8 slowdown {:.2}", h8 / d8);
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = simulate_write(&cal(), 4, 8, 1000, BS);
        let b = simulate_write(&cal(), 4, 8, 1000, BS);
        assert_eq!(a, b);
    }
}
