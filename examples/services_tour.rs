//! A tour of the service stack (§2.2): "applications pick and choose the
//! exact services needed". One shared log hosts atomic recovery units, an
//! overwritable logical disk and a background cleaner — and both services
//! recover from a crash together.
//!
//! Run with: `cargo run --example services_tour`

use std::sync::Arc;

use parking_lot::Mutex;
use swarm::local::LocalCluster;
use swarm_cleaner::{CleanPolicy, Cleaner};
use swarm_log::{recover, Log};
use swarm_services::{
    AruService, AruServiceAdapter, LogicalDisk, LogicalDiskService, Service, ServiceStack,
};
use swarm_types::ServiceId;

const DISK_SVC: ServiceId = ServiceId::new(3);
const ARU_SVC: ServiceId = ServiceId::new(5);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = LocalCluster::new(3)?;

    // ------------------------------------------------------------------
    // Logical disk
    // ------------------------------------------------------------------
    // Small fragments so the churn below spans many stripes (visible cleaning).
    let config = cluster.log_config(1)?.fragment_size(8 * 1024);
    let log = Arc::new(Log::create(cluster.transport(), config.clone())?);
    let disk = Arc::new(LogicalDisk::new(DISK_SVC, log.clone()));

    let block = b"block 7, first version".to_vec();
    disk.write(7, b"block 7, overwritten below")?;
    disk.write(7, &block)?; // an overwrite appends; the old copy is dead
    disk.flush()?;
    assert_eq!(disk.read(7)?.expect("written"), block);
    println!(
        "logical disk block 7: overwritten (a fresh copy appended, the old one deleted), {} bytes live",
        block.len()
    );

    // ------------------------------------------------------------------
    // Atomic recovery units
    // ------------------------------------------------------------------
    let aru = AruService::new(ARU_SVC, log.clone());
    let committed = aru.begin()?;
    aru.append(committed, b"debit alice 100")?;
    aru.append(committed, b"credit bob 100")?;
    aru.commit(committed)?;
    let doomed = aru.begin()?;
    aru.append(doomed, b"debit carol 999")?; // never commits
    log.flush()?;
    println!("ARU: committed one transfer, left one half-done (it must vanish at recovery)");

    // ------------------------------------------------------------------
    // Crash! Recover both services through one stack.
    // ------------------------------------------------------------------
    drop((aru, disk, log));
    let (log, replay) = recover(cluster.transport(), config, &[DISK_SVC, ARU_SVC])?;
    let log = Arc::new(log);
    let disk = Arc::new(LogicalDisk::new(DISK_SVC, log.clone()));
    let aru = AruService::new(ARU_SVC, log.clone());
    let mut stack = ServiceStack::new();
    let s1: Arc<Mutex<dyn Service>> = Arc::new(Mutex::new(LogicalDiskService::new(disk.clone())));
    let s2: Arc<Mutex<dyn Service>> = Arc::new(Mutex::new(AruServiceAdapter::new(aru.clone())));
    stack.register(s1)?;
    stack.register(s2)?;
    stack.recover(&replay)?;

    assert_eq!(disk.read(7)?.expect("block survived"), block);
    let units = aru.committed_units();
    assert_eq!(units.len(), 1, "only the committed unit survives");
    println!(
        "recovered: logical block intact; {} ARU unit(s) committed — payloads: {:?}",
        units.len(),
        units[0]
            .1
            .iter()
            .map(|p| String::from_utf8_lossy(p).into_owned())
            .collect::<Vec<_>>()
    );

    // ------------------------------------------------------------------
    // Background cleaner over the whole stack
    // ------------------------------------------------------------------
    for lba in 0..20 {
        disk.write(lba, &vec![lba as u8; 3000])?;
        disk.write(lba, &vec![lba as u8; 3000])?; // churn: each block twice
    }
    disk.checkpoint()?;
    let mut stack2 = ServiceStack::new();
    let s: Arc<Mutex<dyn Service>> = Arc::new(Mutex::new(LogicalDiskService::new(disk.clone())));
    stack2.register(s)?;
    let cleaner = Arc::new(Cleaner::new(
        log,
        Arc::new(stack2),
        CleanPolicy::CostBenefit,
    ));
    let mut handle = cleaner.spawn_periodic(std::time::Duration::from_millis(10), 16);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while handle.totals().stripes_cleaned == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    handle.stop();
    println!("background cleaner totals: {:?}", handle.totals());
    for lba in 0..20 {
        assert_eq!(disk.read(lba)?.unwrap(), vec![lba as u8; 3000]);
    }
    println!("all logical blocks verified after background cleaning");
    Ok(())
}
