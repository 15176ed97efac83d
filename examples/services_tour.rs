//! A tour of the service stack (§2.2): "applications pick and choose the
//! exact services needed". One shared log hosts atomic recovery units, an
//! overwritable logical disk with a compression+encryption+checksum
//! transform stack, and a background cleaner — then everything recovers
//! from a crash together.
//!
//! Run with: `cargo run --example services_tour`

use std::sync::Arc;

use parking_lot::Mutex;
use swarm::local::LocalCluster;
use swarm_cleaner::{CleanPolicy, Cleaner};
use swarm_log::{recover, Log};
use swarm_services::{
    AruService, AruServiceAdapter, ChecksumTransform, CompressTransform, EncryptTransform,
    LogicalDisk, LogicalDiskService, Service, ServiceStack, TransformStack,
};
use swarm_types::ServiceId;

const DISK_SVC: ServiceId = ServiceId::new(3);
const ARU_SVC: ServiceId = ServiceId::new(5);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = LocalCluster::new(3)?;

    // ------------------------------------------------------------------
    // Logical disk + transform stack
    // ------------------------------------------------------------------
    // Small fragments so the churn below spans many stripes (visible cleaning).
    let config = cluster.log_config(1)?.fragment_size(8 * 1024);
    let log = Arc::new(Log::create(cluster.transport(), config.clone())?);
    let disk = Arc::new(LogicalDisk::new(DISK_SVC, log.clone()));
    let transforms = TransformStack::new()
        .push(CompressTransform)
        .push(EncryptTransform::new(b"tour secret"))
        .push(ChecksumTransform);

    let plaintext = b"block 7: redundant redundant redundant redundant data".to_vec();
    disk.write(7, &transforms.encode(plaintext.clone(), 7))?;
    disk.flush()?;
    let stored = disk.read(7)?.expect("written");
    println!(
        "logical disk block 7: {} plaintext bytes stored as {} transformed bytes (compressed+encrypted+checksummed)",
        plaintext.len(),
        stored.len()
    );
    assert_eq!(transforms.decode(stored.to_vec(), 7)?, plaintext);

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

    let recovered = disk.read(7)?.expect("block survived");
    assert_eq!(transforms.decode(recovered.to_vec(), 7)?, plaintext);
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
