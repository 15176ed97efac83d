//! Multiple services stacked on one shared log — the paper's §2.2
//! architecture: Sting, a logical disk, and an ARU service coexist on a
//! single client's log, recover together through the ServiceStack, and
//! tolerate server failures together.

use std::sync::Arc;

use parking_lot::Mutex;
use sting::{StingConfig, StingFs, StingService};
use swarm::local::LocalCluster;
use swarm_log::{recover, Log};
use swarm_services::{
    AruService, AruServiceAdapter, LogicalDisk, LogicalDiskService, Service, ServiceStack,
};
use swarm_types::ServiceId;

const STING_SVC: ServiceId = ServiceId::new(2);
const DISK_SVC: ServiceId = ServiceId::new(3);
const ARU_SVC: ServiceId = ServiceId::new(5);

#[test]
fn three_services_share_one_log_and_recover_together() {
    let cluster = LocalCluster::new(3).unwrap();

    // --- Before the crash: all three services do work -------------------
    {
        let log =
            Arc::new(Log::create(cluster.transport(), cluster.log_config(1).unwrap()).unwrap());
        let fs = StingFs::format(
            log.clone(),
            StingConfig {
                service: STING_SVC,
                ..StingConfig::default()
            },
        )
        .unwrap();
        let disk = Arc::new(LogicalDisk::new(DISK_SVC, log.clone()));
        let aru = AruService::new(ARU_SVC, log.clone());

        fs.write_file("/shared-log.txt", 0, b"sting data").unwrap();
        disk.write(42, b"logical block forty-two").unwrap();
        disk.checkpoint().unwrap();
        disk.write(43, b"written after disk ckpt").unwrap();

        let unit = aru.begin().unwrap();
        aru.append(unit, b"transfer: debit account A").unwrap();
        aru.append(unit, b"transfer: credit account B").unwrap();
        aru.commit(unit).unwrap();
        let doomed = aru.begin().unwrap();
        aru.append(doomed, b"half-done work").unwrap();

        fs.checkpoint().unwrap();
        log.flush().unwrap();
        // Crash: nothing cleanly shut down.
    }

    // --- Recovery through one stack --------------------------------------
    let (log, replay) = recover(
        cluster.transport(),
        cluster.log_config(1).unwrap(),
        &[STING_SVC, DISK_SVC, ARU_SVC],
    )
    .unwrap();
    let log = Arc::new(log);
    let fs = StingFs::bare(
        log.clone(),
        StingConfig {
            service: STING_SVC,
            ..StingConfig::default()
        },
    );
    let disk = Arc::new(LogicalDisk::new(DISK_SVC, log.clone()));
    let aru = AruService::new(ARU_SVC, log.clone());

    let mut stack = ServiceStack::new();
    let s1: Arc<Mutex<dyn Service>> = Arc::new(Mutex::new(StingService::new(fs.clone())));
    let s2: Arc<Mutex<dyn Service>> = Arc::new(Mutex::new(LogicalDiskService::new(disk.clone())));
    let s3: Arc<Mutex<dyn Service>> = Arc::new(Mutex::new(AruServiceAdapter::new(aru.clone())));
    stack.register(s1).unwrap();
    stack.register(s2).unwrap();
    stack.register(s3).unwrap();
    stack.recover(&replay).unwrap();

    // Sting state.
    assert_eq!(fs.read_to_end("/shared-log.txt").unwrap(), b"sting data");
    // Logical disk state, across its own checkpoint.
    assert_eq!(disk.read(42).unwrap().unwrap(), b"logical block forty-two");
    assert_eq!(disk.read(43).unwrap().unwrap(), b"written after disk ckpt");
    // ARU: committed unit survives, uncommitted one is gone.
    let committed = aru.committed_units();
    assert_eq!(committed.len(), 1);
    assert_eq!(
        committed[0].1,
        vec![
            b"transfer: debit account A".to_vec(),
            b"transfer: credit account B".to_vec()
        ]
    );
}

#[test]
fn services_survive_server_failure_together() {
    let cluster = LocalCluster::new(4).unwrap();
    let log = Arc::new(Log::create(cluster.transport(), cluster.log_config(1).unwrap()).unwrap());
    let fs = StingFs::format(
        log.clone(),
        StingConfig {
            service: STING_SVC,
            ..StingConfig::default()
        },
    )
    .unwrap();
    let disk = LogicalDisk::new(DISK_SVC, log.clone());

    fs.write_file("/a", 0, &vec![1u8; 20_000]).unwrap();
    for lba in 0..10 {
        disk.write(lba, &vec![lba as u8; 2_000]).unwrap();
    }
    log.flush().unwrap();

    for down in 0..4u32 {
        cluster.set_down(down, true);
        assert_eq!(fs.read_to_end("/a").unwrap(), vec![1u8; 20_000]);
        for lba in 0..10 {
            assert_eq!(disk.read(lba).unwrap().unwrap(), vec![lba as u8; 2_000]);
        }
        cluster.set_down(down, false);
    }
}
