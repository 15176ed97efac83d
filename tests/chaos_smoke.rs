//! Workspace-level chaos smoke test: a handful of seeded fault
//! schedules must complete with zero acked-write loss on every
//! transport, and each seed's schedule hash must be identical across
//! transports (the schedule is derived from the seed alone).
//!
//! The CI `chaos` job runs a wider matrix via the `swarm-chaos` binary;
//! this test keeps the core guarantee inside plain `cargo test`.

use swarm_chaos::{Runner, Schedule, ScheduleConfig, StoreKind, TransportKind};

#[test]
fn seeded_schedules_keep_every_acked_write_on_all_transports() {
    let cfg = ScheduleConfig::new(4, 40);
    for seed in [0u64, 1, 2] {
        let schedule = Schedule::generate(seed, &cfg);
        let mem = Runner::run(&schedule, TransportKind::Mem, StoreKind::Mem).unwrap();
        assert!(
            mem.passed(),
            "seed {seed} on mem: {:?}\nreplay: {}",
            mem.failures,
            mem.replay_command(40, 4)
        );
        let tcp = Runner::run(&schedule, TransportKind::Tcp, StoreKind::Mem).unwrap();
        assert!(
            tcp.passed(),
            "seed {seed} on tcp: {:?}\nreplay: {}",
            tcp.failures,
            tcp.replay_command(40, 4)
        );
        assert_eq!(mem.hash, tcp.hash, "seed {seed}: schedule hash diverged");
        assert_eq!(mem.acked_blocks, tcp.acked_blocks, "seed {seed}");
    }
}
