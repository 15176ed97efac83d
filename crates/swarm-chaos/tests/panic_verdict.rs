//! A panicked thread is a failed run. One test, alone in its process: the
//! panic hook is process-wide, and a neighbour test's run would claim the
//! panic this one plants.

use swarm_chaos::{
    install_panic_hook, RunOptions, Runner, Schedule, ScheduleConfig, StoreKind, TransportKind,
};

#[test]
fn a_panic_on_any_thread_fails_the_run_and_is_in_its_report() {
    install_panic_hook();
    let schedule = Schedule::generate(7, &ScheduleConfig::new(4, 48));
    let clean = Runner::run(&schedule, TransportKind::Mem, StoreKind::Mem).unwrap();
    assert!(clean.passed(), "{:?}", clean.failures);

    // The worker-pool signature: a named thread dies, nobody looks.
    let doomed = std::thread::Builder::new()
        .name("swarm-conn-doomed".into())
        .spawn(|| panic!("failed to join thread: Resource deadlock avoided"));
    assert!(doomed.unwrap().join().is_err());

    let report = Runner::run(&schedule, TransportKind::Mem, StoreKind::Mem).unwrap();
    assert_eq!(report.verified_reads, clean.verified_reads);
    let [failure] = &report.failures[..] else {
        panic!("want exactly the planted panic, got {:?}", report.failures);
    };
    assert!(failure.contains("thread 'swarm-conn-doomed' panicked"));
    assert!(failure.contains("Resource deadlock avoided"), "{failure}");
    assert!(failure.lines().count() > 2, "no backtrace: {failure}");
    // The line a failed run prints replays exactly that run.
    let replay: RunOptions = report.replay_command(48, 4).parse().unwrap();
    assert_eq!(replay, report.options(48, 4));
    assert_eq!((replay.seed, replay.servers, replay.clients), (7, 4, 1));

    // Claimed once: the next run is clean again.
    let after = Runner::run(&schedule, TransportKind::Mem, StoreKind::Mem).unwrap();
    assert!(after.passed(), "{:?}", after.failures);
}
