//! Seeded chaos runner CLI.
//!
//! ```text
//! swarm-chaos --seed 42                      # one seed, both transports
//! swarm-chaos --seeds 0..16 --transport mem  # a CI shard
//! swarm-chaos --seeds 0..16 --store file     # durable FileStore backing
//! swarm-chaos --seeds 0..8 --geometry 3+1,4+2,8+3   # RS geometry sweep
//! swarm-chaos --seed 42 --dump               # print the schedule
//! swarm-chaos --seeds 0..256 --dump-failures target/chaos
//! ```
//!
//! Exit status is 0 iff every seed passed on every requested transport.
//! Each failing seed prints its invariant violations and a one-line
//! replay command carrying the full option set (transport, store,
//! geometry, clients). A panic on any thread fails the run it happened
//! in; its message and backtrace are among the violations.

use std::process::ExitCode;

use swarm_chaos::{RunReport, Runner, Schedule, ScheduleConfig, StoreKind, TransportKind};
use swarm_types::Geometry;

struct Args {
    seeds: Vec<u64>,
    transports: Vec<TransportKind>,
    stores: Vec<StoreKind>,
    events: usize,
    servers: u32,
    clients: u32,
    geometries: Option<Vec<Geometry>>,
    dump: bool,
    dump_failures: Option<String>,
}

const USAGE: &str = "usage: swarm-chaos [--seed N | --seeds A..B] \
[--transport mem|tcp|all] [--store mem|file|both] \
[--events N] [--servers N] [--clients N] [--geometry K+M[,K+M...]] [--dump] \
[--dump-failures DIR]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: vec![0],
        transports: TransportKind::all(),
        stores: vec![StoreKind::Mem],
        events: 64,
        servers: 4,
        clients: 1,
        geometries: None,
        dump: false,
        dump_failures: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                args.seeds = vec![v.parse().map_err(|e| format!("--seed {v}: {e}"))?];
            }
            "--seeds" => {
                let v = value("--seeds")?;
                let (a, b) = v
                    .split_once("..")
                    .ok_or_else(|| format!("--seeds wants A..B, got {v}"))?;
                let a: u64 = a.parse().map_err(|e| format!("--seeds {v}: {e}"))?;
                let b: u64 = b.parse().map_err(|e| format!("--seeds {v}: {e}"))?;
                if a >= b {
                    return Err(format!("--seeds {v}: empty range"));
                }
                args.seeds = (a..b).collect();
            }
            "--transport" => {
                let v = value("--transport")?;
                args.transports = match v.as_str() {
                    "all" => TransportKind::all(),
                    one => vec![one.parse()?],
                };
            }
            "--store" => {
                let v = value("--store")?;
                args.stores = match v.as_str() {
                    "both" => vec![StoreKind::Mem, StoreKind::File],
                    one => vec![one.parse()?],
                };
            }
            "--events" => {
                let v = value("--events")?;
                args.events = v.parse().map_err(|e| format!("--events {v}: {e}"))?;
            }
            "--servers" => {
                let v = value("--servers")?;
                args.servers = v.parse().map_err(|e| format!("--servers {v}: {e}"))?;
            }
            "--clients" => {
                let v = value("--clients")?;
                args.clients = v.parse().map_err(|e| format!("--clients {v}: {e}"))?;
                if args.clients == 0 {
                    return Err("--clients must be >= 1".into());
                }
            }
            "--geometry" => {
                let v = value("--geometry")?;
                let mut list = Vec::new();
                for g in v.split(',') {
                    list.push(
                        g.parse::<Geometry>()
                            .map_err(|e| format!("--geometry {g}: {e}"))?,
                    );
                }
                args.geometries = Some(list);
            }
            "--dump" => args.dump = true,
            "--dump-failures" => args.dump_failures = Some(value("--dump-failures")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn report_line(report: &RunReport, geometry: Geometry) -> String {
    format!(
        "seed {:>6} transport={} store={} geometry={} clients={} \
         hash={:#018x} events={} acked={} reads={} moved={} {}",
        report.seed,
        report.transport,
        report.store,
        geometry,
        report.clients,
        report.hash,
        report.events,
        report.acked_blocks,
        report.verified_reads,
        report.blocks_moved,
        if report.passed() { "PASS" } else { "FAIL" }
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // No --geometry means the classic single-XOR-parity cluster of
    // --servers members ((servers-1)+1), matching historical behavior.
    let geometries = match &args.geometries {
        Some(list) => list.clone(),
        None => match Geometry::xor(args.servers as u8) {
            Ok(g) => vec![g],
            Err(e) => {
                eprintln!("--servers {}: {e}", args.servers);
                return ExitCode::from(2);
            }
        },
    };
    swarm_chaos::install_panic_hook();
    let mut failed = 0usize;
    let mut ran = 0usize;

    for &geometry in &geometries {
        let servers = geometry.width() as u32;
        let cfg = ScheduleConfig::with_parity(servers, args.events, geometry.parity() as u32)
            .clients(args.clients);
        for &seed in &args.seeds {
            let schedule = Schedule::generate(seed, &cfg);
            if args.dump {
                print!("{}", schedule.dump());
            }
            let mut hashes = Vec::new();
            for &kind in &args.transports {
                for &store in &args.stores {
                    ran += 1;
                    let report = match Runner::run(&schedule, kind, store) {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!(
                                "seed {seed} transport={kind} store={store} \
                                 geometry={geometry}: setup failed: {e}"
                            );
                            failed += 1;
                            continue;
                        }
                    };
                    println!("{}", report_line(&report, geometry));
                    hashes.push(report.hash);
                    if !report.passed() {
                        failed += 1;
                        for f in &report.failures {
                            eprintln!("  {f}");
                        }
                        eprintln!("  replay: {}", report.replay_command(args.events, servers));
                        if let Some(dir) = &args.dump_failures {
                            let path = format!(
                                "{dir}/seed-{seed}-{kind}-{store}-g{}p{}.schedule",
                                geometry.data(),
                                geometry.parity()
                            );
                            if std::fs::create_dir_all(dir)
                                .and_then(|_| {
                                    let mut dump = schedule.dump();
                                    dump.push_str("\n# failures:\n");
                                    for f in &report.failures {
                                        let f = f.replace('\n', "\n# ");
                                        dump.push_str(&format!("# {f}\n"));
                                    }
                                    std::fs::write(&path, dump)
                                })
                                .is_ok()
                            {
                                eprintln!("  schedule dumped to {path}");
                            }
                        }
                    }
                }
            }
            if hashes.windows(2).any(|w| w[0] != w[1]) {
                eprintln!(
                    "seed {seed} geometry {geometry}: schedule hash differs across transports (bug)"
                );
                failed += 1;
            }
        }
    }

    println!(
        "chaos: {ran} runs, {} passed, {failed} failed",
        ran - failed.min(ran)
    );
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
