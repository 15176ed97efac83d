//! Metric-name snapshot coverage for the contention layer: the cleaner
//! budget's `cleaner.budget_*` accounting must appear in the process-wide
//! `swarm_metrics::snapshot()` under exactly these names — dashboards
//! and the `Metrics` RPC key on them, so a silent rename is a break.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use swarm_cleaner::{CleanPolicy, Cleaner, CleanerConfig};
use swarm_log::{Log, LogConfig, ReplayEntry};
use swarm_net::MemTransport;
use swarm_server::{MemStore, StorageServer};
use swarm_services::{Service, ServiceStack};
use swarm_types::{BlockAddr, ClientId, Result, ServerId, ServiceId, SwarmError};

const SVC: ServiceId = ServiceId::new(1);
const SERVERS: u32 = 3;

fn cluster() -> Arc<MemTransport> {
    let transport = Arc::new(MemTransport::new());
    for i in 0..SERVERS {
        let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
        transport.register(ServerId::new(i), srv);
    }
    transport
}

fn log_for(transport: &Arc<MemTransport>, client: u32) -> Arc<Log> {
    let cfg = LogConfig::new(
        ClientId::new(client),
        (0..SERVERS).map(ServerId::new).collect(),
    )
    .unwrap()
    .fragment_size(4096)
    .cache_fragments(0);
    Arc::new(Log::create(transport.clone(), cfg).unwrap())
}

/// Minimal block owner so the cleaner can relocate live blocks.
#[derive(Default)]
struct Owner {
    blocks: HashMap<Vec<u8>, BlockAddr>,
}

impl Service for Owner {
    fn id(&self) -> ServiceId {
        SVC
    }
    fn name(&self) -> &str {
        "owner"
    }
    fn restore_checkpoint(&mut self, _data: &[u8]) -> Result<()> {
        Ok(())
    }
    fn replay(&mut self, _entry: &ReplayEntry) -> Result<()> {
        Ok(())
    }
    fn block_moved(&mut self, old: BlockAddr, new: BlockAddr, create: &[u8]) -> Result<()> {
        match self.blocks.get_mut(create) {
            Some(addr) if *addr == old => {
                *addr = new;
                Ok(())
            }
            _ => Err(SwarmError::invalid("unknown block moved")),
        }
    }
    fn write_checkpoint(&mut self, log: &Log) -> Result<()> {
        log.checkpoint(SVC, b"ckpt")?;
        Ok(())
    }
}

#[test]
fn cleaner_budget_metric_names_appear_in_the_snapshot() {
    let transport = cluster();

    // --- A budgeted clean pass: the budget is small enough that the
    // relocation charges outrun one second of tokens, so the cleaner
    // demonstrably waited on the bucket at least once.
    let churn_log = log_for(&transport, 9);
    let owner: Arc<Mutex<Owner>> = Arc::new(Mutex::new(Owner::default()));
    let mut stack = ServiceStack::new();
    stack
        .register(owner.clone() as Arc<Mutex<dyn Service>>)
        .unwrap();
    let mut addrs = Vec::new();
    for i in 0..12u64 {
        let tag = i.to_be_bytes();
        let addr = churn_log
            .append_block(SVC, &tag, &vec![i as u8; 1500])
            .unwrap();
        owner.lock().blocks.insert(tag.to_vec(), addr);
        addrs.push((i, addr));
    }
    churn_log.flush().unwrap();
    for (i, addr) in addrs {
        if i % 2 == 0 {
            churn_log.delete_block(SVC, addr).unwrap();
            owner.lock().blocks.remove(&i.to_be_bytes()[..]);
        }
    }
    churn_log.checkpoint(SVC, b"ckpt").unwrap();
    let cleaner = Cleaner::with_config(
        churn_log,
        Arc::new(stack),
        CleanerConfig {
            policy: CleanPolicy::Greedy,
            // Six live 1500 B blocks charge 18 KB of relocation I/O;
            // at 8 KB/s the bucket goes into debt on the first charge.
            budget_bytes_per_sec: Some(8 * 1024),
        },
    );
    let stats = cleaner.clean_pass(16).unwrap();
    assert!(stats.blocks_moved > 0, "{stats:?}");

    // --- The names, exactly as dashboards consume them.
    let snap = swarm_metrics::snapshot();
    for name in ["cleaner.budget_bytes", "cleaner.budget_waits"] {
        assert!(
            snap.counters.contains_key(name),
            "counter {name} missing from snapshot; got {:?}",
            snap.counters.keys().collect::<Vec<_>>()
        );
    }
    assert!(
        snap.histograms.contains_key("cleaner.budget_wait_us"),
        "histogram cleaner.budget_wait_us missing from snapshot"
    );

    // Value-level sanity on the accounting that must have fired here: the
    // budgeted pass charged the bucket and waited on it.
    assert!(snap.counter("cleaner.budget_bytes") >= 2 * 1500);
    assert!(snap.counter("cleaner.budget_waits") >= 1);
}
