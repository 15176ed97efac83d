//! Property tests for the windowed, pipelined write path (DESIGN.md §15):
//! connections of random pipeline width (1 is the paper's serial path),
//! genuinely out-of-order acks (each store completes on its own thread
//! after a random delay, like responses on a mux channel), and injected
//! per-server store failures must preserve the flush contract — `flush`
//! returns `Ok` ⇔ every sealed fragment is durable — and byte-exact
//! readback, including reconstruction with any single server dead, with
//! never more than `min(WINDOW, width)` stores on a server's wire.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{cluster, ChaosState, ReorderTransport, MAX_SERVERS};
use proptest::prelude::*;
use swarm_log::{Log, LogConfig};
use swarm_types::{ClientId, ServerId, ServiceId};

const SVC: ServiceId = ServiceId::new(1);

fn pipelined_config(servers: u32) -> LogConfig {
    LogConfig::new(ClientId::new(1), (0..servers).map(ServerId::new).collect())
        .unwrap()
        .fragment_size(2048)
        .cache_fragments(0) // force reads through the servers
        .store_retries(4)
        .retry_backoff(Duration::from_millis(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Pipelined writes under reordered acks and transient per-server
    /// store failures: every flush succeeds (retries absorb the injected
    /// failures), and every block reads back byte-exact — even through
    /// reconstruction with a random server dead.
    #[test]
    fn prop_pipelined_stores_flush_clean_and_read_back(
        width in 1usize..10,
        servers in 2u32..5,
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..900), 4..28),
        delays in proptest::collection::vec(0u64..2_500, 16..17),
        failures in proptest::collection::vec(0usize..3, 4..5),
        flush_every in 3usize..8,
        dead in 0u32..5,
    ) {
        let mem = cluster(servers);
        let budget = (0..MAX_SERVERS).map(|i| failures[i % failures.len()]).collect();
        let state = ChaosState::new(budget, delays, vec![width; MAX_SERVERS]);
        let transport = Arc::new(ReorderTransport { inner: mem.clone(), state: state.clone() });
        let log = Log::create(transport, pipelined_config(servers)).unwrap();
        let mut written = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            written.push((log.append_block(SVC, b"", p).unwrap(), p.clone()));
            if i % flush_every == flush_every - 1 {
                // Injected failures are transient, so the contract demands
                // a clean flush: the writer retried until durable.
                log.flush().unwrap();
            }
        }
        log.flush().unwrap();
        state.assert_window_held();
        // Flush Ok promises every member durable: readback must survive
        // any single server dying, via parity reconstruction.
        mem.set_down(ServerId::new(dead % servers), true);
        for (addr, data) in &written {
            prop_assert_eq!(&log.read(*addr).unwrap(), data);
        }
    }

    /// The failure half of the contract: while a server is down, flushes
    /// keep failing (the sealed fragments are re-queued, never silently
    /// dropped); once it heals, one flush lands everything, after which
    /// readback survives any single server dying.
    #[test]
    fn prop_flush_fails_honestly_then_heals(
        width in 1usize..10,
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 300..900), 12..40),
        delays in proptest::collection::vec(0u64..1_500, 8..9),
        down in 0u32..3,
    ) {
        let servers = 3u32;
        let down = ServerId::new(down % servers);
        let mem = cluster(servers);
        let state = ChaosState::new(vec![0; MAX_SERVERS], delays, vec![width; MAX_SERVERS]);
        let transport = Arc::new(ReorderTransport { inner: mem.clone(), state: state.clone() });
        let log = Log::create(transport, pipelined_config(servers)).unwrap();
        mem.set_down(down, true);
        let mut written = Vec::new();
        for p in &payloads {
            written.push((log.append_block(SVC, b"", p).unwrap(), p.clone()));
        }
        // Enough data is in flight that some fragment is homed on the
        // down server (every flushed stripe touches all three members):
        // the flush must refuse to report it durable.
        log.flush().unwrap_err();
        mem.set_down(down, false);
        // One flush heals: flush_all loops re-queueing failed fragments
        // until everything (including parity) is on its server.
        log.flush().unwrap();
        state.assert_window_held();
        for kill in 0..servers {
            mem.set_down(ServerId::new(kill), true);
            for (addr, data) in &written {
                prop_assert_eq!(&log.read(*addr).unwrap(), data);
            }
            mem.set_down(ServerId::new(kill), false);
        }
    }
}
