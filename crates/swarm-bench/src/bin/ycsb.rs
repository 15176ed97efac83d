//! YCSB-style workload scoreboard over a real TCP cluster.
//!
//! ```text
//! ycsb                                  # workload `write`, full scoreboard
//! ycsb --workload all                   # A, B, C, D, E, and write
//! ycsb --smoke --out target/bench       # CI configuration
//! ycsb --workload a --threads 8 --windows 8 --rate 500
//! ycsb diff --fresh target/bench        # gate fresh results vs committed
//! ```
//!
//! Stands up an in-process cluster of real TCP servers, drives it with [`swarm_bench::ycsb`], and writes one
//! `BENCH_ycsb_<workload>.json` per workload: throughput and
//! p50/p99/p999 latency for every `(threads, window)` cell, plus the
//! window-8-over-window-1 speedup at 8 threads — the number the write
//! pipelining (DESIGN.md §15) is judged on.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use swarm_bench::contention::{run_contention_cell, ChurnConfig, CleanerMode, ContentionCell};
use swarm_bench::print_table;
use swarm_bench::ycsb::{run_workload, RunConfig, RunResult, Workload};
use swarm_net::tcp::{ServerConfig, TcpServer, TcpTransport};
use swarm_net::RequestHandler;
use swarm_server::{Durability, FileStore, FragmentStore, MemStore, StorageServer};
use swarm_types::{Result, ServerId};

struct Args {
    workloads: Vec<Workload>,
    threads: Vec<usize>,
    windows: Vec<usize>,
    records: usize,
    ops: usize,
    value_bytes: usize,
    fragment_bytes: usize,
    flush_every: usize,
    servers: u32,
    /// Reed–Solomon stripe geometry; `None` is the default XOR layout
    /// over `--servers`. Setting it also fixes the cluster size to the
    /// geometry width and suffixes output files (`_<k>p<m>`), so an RS
    /// run never overwrites the committed XOR-baseline scoreboard.
    geometry: Option<swarm_types::Geometry>,
    file_store: bool,
    /// Server-side sharded read cache capacity in fragments; 0 disables.
    cache_fragments: usize,
    /// Group-commit window for file-backed servers: long enough that
    /// serial stores visibly wait on it, short enough to keep runs quick.
    group_ms: u64,
    rate: Option<f64>,
    out: PathBuf,
    seed: u64,
    dump_metrics: bool,
    /// Multi-client interference scoreboard: the `write` workload at
    /// 1/8/32 concurrent client logs with a concurrent cleaner in
    /// idle/unpaced/budgeted modes (`BENCH_ycsb_contention.json`).
    contention: bool,
    /// Cleaner relocation budget for the budgeted contention cells.
    cleaner_budget: u64,
}

const USAGE: &str = "usage: ycsb [--workload a|b|c|d|e|write|all] [--threads N,N,..] \
[--windows N,N,..] [--records N] [--ops N] [--value BYTES] [--fragment BYTES] \
[--flush-every N] [--servers N] [--geometry K+M] [--store mem|file] [--cache FRAGMENTS] [--group-ms N] \
[--rate OPS_PER_SEC] [--smoke] [--out DIR] [--seed N]\n       \
ycsb --contention [--cleaner-budget BYTES_PER_SEC] [--threads N,N,..] [..]\n       \
ycsb diff [--baseline DIR] [--fresh DIR] [--threshold PCT]";

fn parse_usize_list(v: &str, flag: &str) -> std::result::Result<Vec<usize>, String> {
    v.split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|e| format!("{flag} {v}: {e}"))
                .and_then(|n| {
                    if n == 0 {
                        Err(format!("{flag} entries must be >= 1"))
                    } else {
                        Ok(n)
                    }
                })
        })
        .collect()
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args {
        workloads: vec![Workload::named("write").expect("table has write")],
        threads: vec![1, 8, 64],
        windows: vec![1, 8],
        records: 200,
        ops: 2000,
        value_bytes: 4096,
        // One 4 KiB block per fragment: every update is a store, so the
        // per-server store channel — the thing the write window widens —
        // is the bottleneck under measurement rather than client CPU.
        fragment_bytes: 8 * 1024,
        flush_every: 64,
        servers: 5,
        geometry: None,
        file_store: true,
        cache_fragments: 1024,
        group_ms: 5,
        rate: None,
        out: PathBuf::from("."),
        seed: 42,
        dump_metrics: false,
        contention: false,
        // Well below the foreground's aggregate write rate, so the
        // budgeted cleaner visibly yields where the unpaced one storms.
        cleaner_budget: 2_000_000,
    };
    let mut threads_given = false;
    let mut windows_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                args.workloads = match v.as_str() {
                    "all" => Workload::all().to_vec(),
                    name => vec![Workload::named(name).ok_or_else(|| {
                        format!("unknown workload {name:?} (want a|b|c|d|e|write|all)")
                    })?],
                };
            }
            "--threads" => {
                args.threads = parse_usize_list(&value("--threads")?, "--threads")?;
                threads_given = true;
            }
            "--windows" => {
                args.windows = parse_usize_list(&value("--windows")?, "--windows")?;
                windows_given = true;
            }
            "--records" => {
                let v = value("--records")?;
                args.records = v.parse().map_err(|e| format!("--records {v}: {e}"))?;
            }
            "--ops" => {
                let v = value("--ops")?;
                args.ops = v.parse().map_err(|e| format!("--ops {v}: {e}"))?;
            }
            "--value" => {
                let v = value("--value")?;
                args.value_bytes = v.parse().map_err(|e| format!("--value {v}: {e}"))?;
            }
            "--fragment" => {
                let v = value("--fragment")?;
                args.fragment_bytes = v.parse().map_err(|e| format!("--fragment {v}: {e}"))?;
            }
            "--flush-every" => {
                let v = value("--flush-every")?;
                args.flush_every = v.parse().map_err(|e| format!("--flush-every {v}: {e}"))?;
            }
            "--servers" => {
                let v = value("--servers")?;
                args.servers = v.parse().map_err(|e| format!("--servers {v}: {e}"))?;
            }
            "--geometry" => {
                let v = value("--geometry")?;
                args.geometry = Some(
                    v.parse::<swarm_types::Geometry>()
                        .map_err(|e| format!("--geometry {v}: {e}"))?,
                );
            }
            "--store" => {
                let v = value("--store")?;
                args.file_store = match v.as_str() {
                    "file" => true,
                    "mem" => false,
                    other => return Err(format!("unknown store {other:?} (want mem|file)")),
                };
            }
            "--cache" => {
                let v = value("--cache")?;
                args.cache_fragments = v.parse().map_err(|e| format!("--cache {v}: {e}"))?;
            }
            "--group-ms" => {
                let v = value("--group-ms")?;
                args.group_ms = v.parse().map_err(|e| format!("--group-ms {v}: {e}"))?;
            }
            "--rate" => {
                let v = value("--rate")?;
                args.rate = Some(v.parse().map_err(|e| format!("--rate {v}: {e}"))?);
            }
            "--dump-metrics" => args.dump_metrics = true,
            "--contention" => args.contention = true,
            "--cleaner-budget" => {
                let v = value("--cleaner-budget")?;
                args.cleaner_budget = v
                    .parse()
                    .map_err(|e| format!("--cleaner-budget {v}: {e}"))?;
                if args.cleaner_budget == 0 {
                    return Err("--cleaner-budget must be >= 1 byte/sec".into());
                }
            }
            "--smoke" => {
                // CI shape: small but still exercising 8-way pipelining.
                // Counts as an explicit thread list so a contention smoke
                // stays at [1, 8] instead of the full [1, 8, 32] sweep.
                args.threads = vec![1, 8];
                threads_given = true;
                args.records = 64;
                args.ops = 384;
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.contention {
        // The contention scoreboard sweeps client-log counts at one
        // window: the interference axis is clients × cleaner mode, not
        // pipelining depth. Explicit --threads/--windows still override.
        if !threads_given {
            args.threads = vec![1, 8, 32];
        }
        if !windows_given {
            args.windows = vec![8];
        }
    }
    Ok(args)
}

/// An in-process cluster of real TCP servers; the store root (if any) is
/// removed on drop.
struct BenchCluster {
    addrs: Vec<(ServerId, std::net::SocketAddr)>,
    _servers: Vec<TcpServer>,
    dir: Option<PathBuf>,
}

impl BenchCluster {
    /// Store root for file-backed servers. Prefers tmpfs (`/dev/shm`)
    /// when `TMPDIR` is unset: the scoreboard's controlled durability
    /// cost is the group-commit *window*, and a slow or contended host
    /// disk would swamp it with fsync noise. `TMPDIR` overrides.
    fn store_root() -> PathBuf {
        let shm = PathBuf::from("/dev/shm");
        let base = if std::env::var_os("TMPDIR").is_none() && shm.is_dir() {
            shm
        } else {
            std::env::temp_dir()
        };
        base.join(format!("swarm-ycsb-{}", std::process::id()))
    }

    fn spawn(
        n: u32,
        file_store: bool,
        cache_fragments: usize,
        group_ms: u64,
    ) -> Result<BenchCluster> {
        let dir = file_store.then(Self::store_root);
        let mut servers = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..n {
            let id = ServerId::new(i);
            let store: Box<dyn FragmentStore> = match &dir {
                Some(root) => Box::new(FileStore::open_with_durability(
                    root.join(format!("server-{i}")),
                    0,
                    Durability::Group(Duration::from_millis(group_ms)),
                )?),
                None => Box::new(MemStore::new()),
            };
            let handler: Arc<dyn RequestHandler> = StorageServer::new(id, store)
                .with_read_cache(cache_fragments)
                .into_shared();
            let srv = TcpServer::spawn_with_config(
                id,
                "127.0.0.1:0",
                handler,
                ServerConfig {
                    // Store handlers park on the group-commit fsync, so the
                    // pool must hold a full pipelining window per client —
                    // otherwise worker starvation, not the wire, sets the
                    // concurrency and the window can't be observed.
                    workers: 64,
                    ..ServerConfig::default()
                },
            )?;
            addrs.push((id, srv.addr()));
            servers.push(srv);
        }
        Ok(BenchCluster {
            addrs,
            _servers: servers,
            dir,
        })
    }

    /// A factory handing each driver thread its own [`TcpTransport`] —
    /// its own connections and client-side reactor. Sharing one transport
    /// across 8 driver threads serializes every client on a single mux
    /// reactor and hides the windowing effect being measured.
    fn transport_factory(&self) -> Arc<swarm_bench::ycsb::TransportFactory> {
        let addrs = self.addrs.clone();
        Arc::new(move |_thread| {
            let transport = Arc::new(TcpTransport::new());
            // 64-thread cells queue behind group commits; don't let the
            // default call timeout turn backlog into failures.
            transport.set_call_timeout(Some(Duration::from_secs(30)));
            for &(id, addr) in &addrs {
                transport.add_server(id, addr);
            }
            Ok(transport as Arc<dyn swarm_net::Transport>)
        })
    }
}

impl Drop for BenchCluster {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

struct Row {
    threads: usize,
    window: usize,
    result: RunResult,
}

fn json_row(row: &Row) -> String {
    let s = row.result.summary();
    let mean = s.sum_us.checked_div(s.count).unwrap_or(0);
    format!(
        "    {{\"threads\": {}, \"window\": {}, \"ops\": {}, \"elapsed_s\": {:.3}, \
         \"throughput_ops_per_s\": {:.1}, \"mean_us\": {}, \"p50_us\": {}, \
         \"p99_us\": {}, \"p999_us\": {}, \"max_us\": {}}}",
        row.threads,
        row.window,
        row.result.ops,
        row.result.elapsed.as_secs_f64(),
        row.result.throughput(),
        mean,
        s.p50_us,
        s.p99_us,
        s.p999_us,
        s.max_us
    )
}

/// Window-8-over-window-1 throughput ratio at 8 threads — the scoreboard
/// number for the pipelined write engine.
fn speedup_at_8_threads(rows: &[Row]) -> Option<f64> {
    let at = |window: usize| {
        rows.iter()
            .find(|r| r.threads == 8 && r.window == window)
            .map(|r| r.result.throughput())
    };
    match (at(8), at(1)) {
        (Some(w8), Some(w1)) if w1 > 0.0 => Some(w8 / w1),
        _ => None,
    }
}

/// One contention scoreboard row: the usual latency cell plus the
/// cleaner-mode tag (the diff gate's third key) and what the concurrent
/// cleaner accomplished while the foreground ran.
fn contention_json_row(cell: &ContentionCell, window: usize, p99_x_idle: Option<f64>) -> String {
    let s = cell.result.summary();
    let mean = s.sum_us.checked_div(s.count).unwrap_or(0);
    format!(
        "    {{\"threads\": {}, \"window\": {window}, \"cleaner\": \"{}\", \"ops\": {}, \
         \"elapsed_s\": {:.3}, \"throughput_ops_per_s\": {:.1}, \"mean_us\": {}, \
         \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \"max_us\": {}, \
         \"p99_x_idle\": {}, \"stripes_cleaned\": {}, \"blocks_moved\": {}, \
         \"bytes_moved\": {}}}",
        cell.clients,
        cell.mode.tag(),
        cell.result.ops,
        cell.result.elapsed.as_secs_f64(),
        cell.result.throughput(),
        mean,
        s.p50_us,
        s.p99_us,
        s.p999_us,
        s.max_us,
        p99_x_idle.map_or("null".to_string(), |x| format!("{x:.3}")),
        cell.clean.stripes_cleaned,
        cell.clean.blocks_moved,
        cell.clean.bytes_moved,
    )
}

/// `--contention`: the write workload at each client-log count, each run
/// under the three cleaner modes, on a fresh cluster per cell. Writes
/// `BENCH_ycsb_contention.json` and prints the p99-inflation headline
/// the cleaner budget is judged on (≤ 2× over idle when budgeted).
fn run_contention(args: &Args) -> std::process::ExitCode {
    let workload = Workload::named("write").expect("table has write");
    let churn = ChurnConfig::default();
    let window = args.windows[0];
    let store_name = if args.file_store { "file" } else { "mem" };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return std::process::ExitCode::FAILURE;
    }
    let modes = [
        CleanerMode::Idle,
        CleanerMode::Unpaced,
        CleanerMode::Budgeted(args.cleaner_budget),
    ];
    let mut cells: Vec<ContentionCell> = Vec::new();
    for &clients in &args.threads {
        for mode in modes {
            let cluster = match BenchCluster::spawn(
                args.servers,
                args.file_store,
                args.cache_fragments,
                args.group_ms,
            ) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cluster setup failed: {e}");
                    return std::process::ExitCode::FAILURE;
                }
            };
            let cfg = RunConfig {
                threads: clients,
                window,
                records: args.records,
                ops: args.ops,
                value_bytes: args.value_bytes,
                fragment_bytes: args.fragment_bytes,
                flush_every: args.flush_every,
                rate: args.rate,
                servers: args.servers,
                geometry: None,
                seed: args.seed,
            };
            match run_contention_cell(cluster.transport_factory(), workload, cfg, mode, &churn) {
                Ok(cell) => cells.push(cell),
                Err(e) => {
                    eprintln!(
                        "contention clients={clients} cleaner={} failed: {e}",
                        mode.tag()
                    );
                    return std::process::ExitCode::FAILURE;
                }
            }
        }
    }

    let p99_idle = |clients: usize| {
        cells
            .iter()
            .find(|c| c.clients == clients && c.mode == CleanerMode::Idle)
            .map(|c| c.result.summary().p99_us)
    };
    let p99_x_idle = |cell: &ContentionCell| {
        p99_idle(cell.clients)
            .filter(|&idle| idle > 0)
            .map(|idle| cell.result.summary().p99_us as f64 / idle as f64)
    };
    let table: Vec<Vec<String>> = cells
        .iter()
        .map(|cell| {
            let s = cell.result.summary();
            vec![
                cell.clients.to_string(),
                cell.mode.tag().to_string(),
                format!("{:.0}", cell.result.throughput()),
                s.p50_us.to_string(),
                s.p99_us.to_string(),
                s.p999_us.to_string(),
                p99_x_idle(cell).map_or("-".into(), |x| format!("{x:.2}")),
                cell.clean.stripes_cleaned.to_string(),
                (cell.clean.bytes_moved / 1024).to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "YCSB contention over tcp ({store_name} store, {} B values, \
             window {window}, cleaner budget {} B/s)",
            args.value_bytes, args.cleaner_budget
        ),
        &[
            "clients", "cleaner", "ops/s", "p50_us", "p99_us", "p999_us", "p99/idle", "stripes",
            "movedKB",
        ],
        &table,
    );
    // The headline the budget is judged on: budgeted p99 must stay
    // within 2x of the idle baseline at every client count.
    let mut budget_ok = true;
    for cell in &cells {
        if let (CleanerMode::Budgeted(_), Some(x)) = (cell.mode, p99_x_idle(cell)) {
            println!(
                "clients {:>2}: budgeted p99 {:.2}x idle{}",
                cell.clients,
                x,
                if x <= 2.0 { "" } else { "  OVER 2x BUDGET BAR" }
            );
            budget_ok &= x <= 2.0;
        }
    }

    let rows: Vec<String> = cells
        .iter()
        .map(|c| contention_json_row(c, window, p99_x_idle(c)))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"ycsb-contention\",\n  \"workload\": \"write\",\n  \
         \"transport\": \"tcp\",\n  \"store\": \"{store_name}\",\n  \
         \"servers\": {},\n  \"value_bytes\": {},\n  \"records_per_thread\": {},\n  \
         \"ops_per_thread\": {},\n  \"window\": {window},\n  \
         \"cleaner_budget_bytes_per_sec\": {},\n  \
         \"churn\": {{\"blocks\": {}, \"value_bytes\": {}, \"fragment_bytes\": {}, \
         \"stripes_per_pass\": {}}},\n  \"rows\": [\n{}\n  ],\n  \
         \"budgeted_p99_within_2x_of_idle\": {budget_ok}\n}}\n",
        args.servers,
        args.value_bytes,
        args.records,
        args.ops,
        args.cleaner_budget,
        churn.blocks,
        churn.value_bytes,
        churn.fragment_bytes,
        churn.stripes_per_pass,
        rows.join(",\n"),
    );
    let path = args.out.join("BENCH_ycsb_contention.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("cannot write {}: {e}", path.display());
        return std::process::ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    std::process::ExitCode::SUCCESS
}

struct DiffArgs {
    baseline: PathBuf,
    fresh: PathBuf,
    threshold: f64,
}

fn parse_diff_args() -> std::result::Result<DiffArgs, String> {
    let mut args = DiffArgs {
        baseline: PathBuf::from("."),
        fresh: PathBuf::from("bench-artifacts"),
        threshold: 15.0,
    };
    let mut it = std::env::args().skip(2);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--baseline" => args.baseline = PathBuf::from(value("--baseline")?),
            "--fresh" => args.fresh = PathBuf::from(value("--fresh")?),
            "--threshold" => {
                let v = value("--threshold")?;
                args.threshold = v.parse().map_err(|e| format!("--threshold {v}: {e}"))?;
                if !(0.0..100.0).contains(&args.threshold) {
                    return Err("--threshold wants a percentage in [0, 100)".into());
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Pulls `"key": <number>` out of one line of the scoreboard's own JSON.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = line[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pulls `"key": "<string>"` out of one line of the scoreboard's JSON.
fn json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let at = line.find(&pat)? + pat.len();
    let end = line[at..].find('"')?;
    Some(line[at..at + end].to_string())
}

/// `(threads, window, cleaner-tag, throughput)` for every row in a
/// scoreboard file. Plain workload rows carry no `cleaner` key and get
/// the empty tag; contention rows key three ways per (threads, window).
fn scoreboard_rows(text: &str) -> Vec<(u64, u64, String, f64)> {
    text.lines()
        .filter_map(|l| {
            Some((
                json_num(l, "threads")? as u64,
                json_num(l, "window")? as u64,
                json_str(l, "cleaner").unwrap_or_default(),
                json_num(l, "throughput_ops_per_s")?,
            ))
        })
        .collect()
}

/// `ycsb diff`: compare fresh `BENCH_ycsb_*.json` against the committed
/// trajectory, cell by cell. Exit non-zero when any shared `(threads,
/// window)` cell lost more than `--threshold` percent throughput — the
/// nightly scoreboard's regression gate.
fn run_diff() -> std::process::ExitCode {
    let args = match parse_diff_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return std::process::ExitCode::from(2);
        }
    };
    let mut names: Vec<String> = match std::fs::read_dir(&args.fresh) {
        Ok(dir) => dir
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_ycsb_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("cannot read fresh dir {}: {e}", args.fresh.display());
            return std::process::ExitCode::FAILURE;
        }
    };
    names.sort();
    let mut compared = 0usize;
    let mut regressions = 0usize;
    for name in &names {
        let fresh = match std::fs::read_to_string(args.fresh.join(name)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {name}: {e}");
                return std::process::ExitCode::FAILURE;
            }
        };
        let Ok(base) = std::fs::read_to_string(args.baseline.join(name)) else {
            println!("{name}: no committed baseline, skipping");
            continue;
        };
        let fresh_rows = scoreboard_rows(&fresh);
        for (threads, window, tag, was) in scoreboard_rows(&base) {
            let Some((_, _, _, now)) = fresh_rows
                .iter()
                .find(|(t, w, c, _)| *t == threads && *w == window && *c == tag)
            else {
                // The committed trajectory covers cells (e.g. 64 threads)
                // the smoke run doesn't produce; only shared cells gate.
                continue;
            };
            compared += 1;
            let ratio = if was > 0.0 { now / was } else { 1.0 };
            // Contention cells measure interference between a foreground
            // fleet and a concurrent cleaner; their throughput is
            // bimodal run to run (group-commit alignment puts a cell at
            // ~0.6x of its fast mode), so they gate at a wider band than
            // the quiet single-tenant workloads.
            let threshold = if tag.is_empty() {
                args.threshold
            } else {
                args.threshold.max(50.0)
            };
            let regressed = ratio < 1.0 - threshold / 100.0;
            let tag_col = if tag.is_empty() {
                String::new()
            } else {
                format!(" cleaner={tag}")
            };
            println!(
                "{name}: threads={threads} window={window}{tag_col} \
                 {was:.0} -> {now:.0} ops/s ({ratio:.2}x){}",
                if regressed { "  REGRESSION" } else { "" }
            );
            if regressed {
                regressions += 1;
            }
        }
    }
    if compared == 0 {
        eprintln!(
            "ycsb diff: no comparable cells between {} and {}",
            args.baseline.display(),
            args.fresh.display()
        );
        return std::process::ExitCode::FAILURE;
    }
    println!(
        "ycsb diff: {compared} cells compared, {regressions} regressed \
         (threshold {:.0}%)",
        args.threshold
    );
    if regressions > 0 {
        std::process::ExitCode::FAILURE
    } else {
        std::process::ExitCode::SUCCESS
    }
}

fn main() -> std::process::ExitCode {
    if std::env::args().nth(1).as_deref() == Some("diff") {
        return run_diff();
    }
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return std::process::ExitCode::from(2);
        }
    };
    if args.contention {
        return run_contention(&args);
    }
    let store_name = if args.file_store { "file" } else { "mem" };
    // A requested RS geometry dictates the cluster size; every stripe
    // spans the whole group, so width and server count must agree.
    if let Some(g) = args.geometry {
        args.servers = g.width() as u32;
    }
    // Default XOR runs keep their historical filenames (the committed
    // baselines); RS runs get a `_<k>p<m>` suffix and their own baseline.
    let geometry_suffix = args
        .geometry
        .map(|g| format!("_{}p{}", g.data(), g.parity()))
        .unwrap_or_default();
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return std::process::ExitCode::FAILURE;
    }

    for workload in &args.workloads {
        let mut rows = Vec::new();
        let mut table = Vec::new();
        for &threads in &args.threads {
            for &window in &args.windows {
                let cluster = match BenchCluster::spawn(
                    args.servers,
                    args.file_store,
                    args.cache_fragments,
                    args.group_ms,
                ) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("cluster setup failed: {e}");
                        return std::process::ExitCode::FAILURE;
                    }
                };
                let cfg = RunConfig {
                    threads,
                    window,
                    records: args.records,
                    ops: args.ops,
                    value_bytes: args.value_bytes,
                    fragment_bytes: args.fragment_bytes,
                    flush_every: args.flush_every,
                    rate: args.rate,
                    servers: args.servers,
                    geometry: args.geometry,
                    seed: args.seed,
                };
                let result = match run_workload(cluster.transport_factory(), *workload, cfg) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!(
                            "workload {} threads={threads} window={window} failed: {e}",
                            workload.name
                        );
                        return std::process::ExitCode::FAILURE;
                    }
                };
                let s = result.summary();
                table.push(vec![
                    threads.to_string(),
                    window.to_string(),
                    format!("{:.0}", result.throughput()),
                    s.p50_us.to_string(),
                    s.p99_us.to_string(),
                    s.p999_us.to_string(),
                ]);
                rows.push(Row {
                    threads,
                    window,
                    result,
                });
                if args.dump_metrics {
                    eprintln!(
                        "# metrics threads={threads} window={window}\n{}",
                        swarm_metrics::snapshot().to_json()
                    );
                }
            }
        }

        print_table(
            &format!(
                "YCSB '{}' over tcp ({store_name} store, {} B values{})",
                workload.name,
                args.value_bytes,
                args.geometry
                    .map(|g| format!(", geometry {g}"))
                    .unwrap_or_default()
            ),
            &["threads", "window", "ops/s", "p50_us", "p99_us", "p999_us"],
            &table,
        );
        let speedup = speedup_at_8_threads(&rows);
        if let Some(x) = speedup {
            println!("window 8 over window 1 at 8 threads: {x:.2}x");
        }

        let json = format!(
            "{{\n  \"bench\": \"ycsb\",\n  \"workload\": \"{}\",\n  \
             \"mix\": {{\"read_pct\": {}, \"scan_pct\": {}, \"update_pct\": {}, \
             \"insert_pct\": {}, \"dist\": \"{}\"}},\n  \
             \"transport\": \"tcp\",\n  \"store\": \"{store_name}\",\n  \
             \"servers\": {},\n  \"geometry\": \"{}\",\n  \"value_bytes\": {},\n  \
             \"records_per_thread\": {},\n  \
             \"ops_per_thread\": {},\n  \"mode\": \"{}\",\n  \"rows\": [\n{}\n  ],\n  \
             \"speedup_w8_over_w1_at_8_threads\": {}\n}}\n",
            workload.name,
            workload.read_pct,
            workload.scan_pct,
            workload.update_pct,
            100 - workload.read_pct - workload.scan_pct - workload.update_pct,
            match workload.dist {
                swarm_bench::ycsb::KeyDist::Zipfian => "zipfian",
                swarm_bench::ycsb::KeyDist::Uniform => "uniform",
                swarm_bench::ycsb::KeyDist::Latest => "latest",
            },
            args.servers,
            args.geometry
                .map(|g| g.to_string())
                .unwrap_or_else(|| format!("{}+1", args.servers - 1)),
            args.value_bytes,
            args.records,
            args.ops,
            if args.rate.is_some() {
                "open"
            } else {
                "closed"
            },
            rows.iter().map(json_row).collect::<Vec<_>>().join(",\n"),
            speedup.map_or("null".to_string(), |x| format!("{x:.3}")),
        );
        let path = args.out.join(format!(
            "BENCH_ycsb_{}{geometry_suffix}.json",
            workload.name
        ));
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {}: {e}", path.display());
            return std::process::ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    std::process::ExitCode::SUCCESS
}
