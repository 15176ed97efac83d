//! `swarm-admin` — drive a running Swarm cluster from the shell.
//!
//! ```text
//! swarm-admin ping   --servers 0=host:port,1=host:port
//! swarm-admin stat   --servers …
//! swarm-admin stats  --servers …   # live metrics snapshot (JSON) per server
//!
//! # Self-hosting file system (no local state — every invocation
//! # recovers the client's log from the cluster, works, checkpoints):
//! swarm-admin fs mkdir  /dir          --servers … [--client N]
//! swarm-admin fs write  /path         --servers …   # stdin → file
//! swarm-admin fs read   /path         --servers …   # file → stdout
//! swarm-admin fs ls     /dir          --servers …
//! swarm-admin fs rm     /path         --servers …
//! swarm-admin fs stat   /path         --servers …
//!
//! swarm-admin clean  --servers …  [--client N]      # run the cleaner
//! swarm-admin log dump --servers … [--client N]     # print the recovered log
//!
//! Log-mounting commands accept `--geometry K+M` to select a
//! Reed–Solomon stripe shape (DESIGN.md §17); unset (or any M=1) is the
//! paper's XOR layout. How many RPCs a server channel keeps in flight is
//! not a flag (DESIGN.md §15, §16). A flag a command does not know is an
//! error that names it, never a silent default.
//! swarm-admin frag locate <seq> --servers … [--client N]   # where is a fragment?
//! ```

use std::io::{Read, Write};
use std::sync::Arc;

use parking_lot::Mutex;
use sting::{StingConfig, StingFs, StingService};
use swarm_cleaner::{CleanPolicy, Cleaner};
use swarm_cli::{parse_servers, transport_for, Args};
use swarm_log::{recover, Log, LogConfig};
use swarm_net::{Request, Response, Transport};
use swarm_services::{Service, ServiceStack};
use swarm_types::{ClientId, Result, SwarmError};

const STING_SVC: swarm_types::ServiceId = swarm_types::ServiceId::new(2);

fn main() {
    if let Err(e) = run() {
        eprintln!("swarm-admin: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<()> {
    let args = Args::parse(std::env::args().skip(1));
    let command = args
        .positional
        .first()
        .map(|s| s.as_str())
        .ok_or_else(|| SwarmError::invalid("usage: swarm-admin <ping|stat|fs|clean> …"))?;
    // Each command with the flags it reads: anything else on the line
    // is refused before the command touches the cluster.
    const CLUSTER: &[&str] = &["servers", "client"];
    const MOUNT: &[&str] = &["servers", "client", "geometry", "fragment-size"];
    type Command = fn(&Args) -> Result<()>;
    let (run, known): (Command, &[&str]) = match command {
        "ping" => (ping, CLUSTER),
        "stat" => (stat, CLUSTER),
        "stats" => (stats, CLUSTER),
        "fs" => (fs_command, MOUNT),
        "clean" => (
            clean,
            &[
                "servers",
                "client",
                "geometry",
                "fragment-size",
                "policy",
                "max-stripes",
            ],
        ),
        "log" => (log_command, &["servers", "client", "geometry"]),
        "frag" => (frag_command, CLUSTER),
        other => return Err(SwarmError::invalid(format!("unknown command {other:?}"))),
    };
    args.reject_unknown(known)?;
    run(&args)
}

fn client_id(args: &Args) -> Result<ClientId> {
    Ok(ClientId::new(args.get_u64("client", 1)? as u32))
}

/// `--geometry K+M`: stripe shape — K data plus M Reed–Solomon parity
/// members per stripe (DESIGN.md §17). Unset keeps the paper's default
/// single-XOR-parity layout over the full server list; `--geometry` with
/// M=1 is bit-identical to that default.
fn apply_geometry(args: &Args, config: LogConfig) -> Result<LogConfig> {
    match args.options.get("geometry") {
        None => Ok(config),
        Some(spec) => {
            let geometry: swarm_types::Geometry = spec.parse()?;
            config.geometry(geometry)
        }
    }
}

fn ping(args: &Args) -> Result<()> {
    let transport = transport_for(args.require("servers")?)?;
    let client = client_id(args)?;
    for server in transport.servers() {
        let outcome = transport
            .connect(server, client)
            .and_then(|mut c| c.call(&Request::Ping));
        match outcome {
            Ok(Response::Ok) => println!("{server}: ok"),
            Ok(r) => println!("{server}: unexpected reply {r:?}"),
            Err(e) => println!("{server}: DOWN ({e})"),
        }
    }
    Ok(())
}

fn stat(args: &Args) -> Result<()> {
    let transport = transport_for(args.require("servers")?)?;
    let client = client_id(args)?;
    println!(
        "{:>8} {:>10} {:>12} {:>8} {:>8} {:>8}",
        "server", "fragments", "bytes", "stores", "reads", "deletes"
    );
    for server in transport.servers() {
        match transport
            .connect(server, client)
            .and_then(|mut c| c.call(&Request::Stat))
            .and_then(Response::into_result)
        {
            Ok(Response::Stats(s)) => println!(
                "{:>8} {:>10} {:>12} {:>8} {:>8} {:>8}",
                server.to_string(),
                s.fragments,
                s.bytes,
                s.stores,
                s.reads,
                s.deletes
            ),
            Ok(r) => println!("{server}: unexpected reply {r:?}"),
            Err(e) => println!("{server}: DOWN ({e})"),
        }
    }
    Ok(())
}

/// Dumps every server's live metrics registry as JSON (the Metrics RPC
/// returns the snapshot serialized by `swarm_metrics::Snapshot::to_json`).
fn stats(args: &Args) -> Result<()> {
    let transport = transport_for(args.require("servers")?)?;
    let client = client_id(args)?;
    for server in transport.servers() {
        match transport
            .connect(server, client)
            .and_then(|mut c| c.call(&Request::Metrics))
            .and_then(Response::into_result)
        {
            Ok(Response::Metrics(json)) => println!("{server}: {json}"),
            Ok(r) => println!("{server}: unexpected reply {r:?}"),
            Err(e) => println!("{server}: DOWN ({e})"),
        }
    }
    Ok(())
}

/// Recovers the client's Sting instance from the cluster — the
/// self-hosting trick: the cluster itself is the only state.
fn mount(args: &Args) -> Result<(Arc<Log>, Arc<StingFs>)> {
    let spec = args.require("servers")?;
    let transport = transport_for(spec)?;
    let ids: Vec<_> = parse_servers(spec)?.into_iter().map(|(id, _)| id).collect();
    let config = LogConfig::new(client_id(args)?, ids)?
        .fragment_size(args.get_u64("fragment-size", 1 << 20)? as usize);
    let config = apply_geometry(args, config)?;
    let (log, replay) = recover(transport, config, &[STING_SVC])?;
    let log = Arc::new(log);
    let fs = StingFs::bare(log.clone(), StingConfig::default());
    let mut svc = StingService::new(fs.clone());
    if let Some(data) = replay.checkpoint_data(STING_SVC) {
        svc.restore_checkpoint(data)?;
    }
    for e in replay.records_for(STING_SVC) {
        svc.replay(e)?;
    }
    Ok((log, fs))
}

fn fs_err(e: sting::StingError) -> SwarmError {
    SwarmError::other(e.to_string())
}

fn fs_command(args: &Args) -> Result<()> {
    let sub = args.positional.get(1).map(|s| s.as_str()).ok_or_else(|| {
        SwarmError::invalid("usage: swarm-admin fs <mkdir|write|read|ls|rm|stat> <path>")
    })?;
    let path = args
        .positional
        .get(2)
        .map(|s| s.as_str())
        .ok_or_else(|| SwarmError::invalid("fs: missing <path>"))?;
    let (_log, fs) = mount(args)?;
    match sub {
        "mkdir" => {
            fs.mkdir(path).map_err(fs_err)?;
            fs.unmount().map_err(fs_err)?;
            eprintln!("created {path}");
        }
        "write" => {
            let mut data = Vec::new();
            std::io::stdin().read_to_end(&mut data)?;
            if fs.exists(path) {
                fs.truncate(path, 0).map_err(fs_err)?;
            }
            fs.write_file(path, 0, &data).map_err(fs_err)?;
            fs.unmount().map_err(fs_err)?;
            eprintln!("wrote {} bytes to {path}", data.len());
        }
        "read" => {
            let data = fs.read_to_end(path).map_err(fs_err)?;
            std::io::stdout().write_all(&data)?;
        }
        "ls" => {
            for entry in fs.readdir(path).map_err(fs_err)? {
                let slash = if entry.is_dir { "/" } else { "" };
                println!("{}{}", entry.name, slash);
            }
        }
        "rm" => {
            fs.unlink(path).map_err(fs_err)?;
            fs.unmount().map_err(fs_err)?;
            eprintln!("removed {path}");
        }
        "stat" => {
            let st = fs.stat(path).map_err(fs_err)?;
            println!(
                "ino {} {} size {} nlink {} blocks {}",
                st.ino,
                if st.is_dir { "dir" } else { "file" },
                st.size,
                st.nlink,
                st.blocks
            );
        }
        other => return Err(SwarmError::invalid(format!("unknown fs command {other:?}"))),
    }
    Ok(())
}

fn log_command(args: &Args) -> Result<()> {
    let sub = args.positional.get(1).map(|s| s.as_str()).unwrap_or("dump");
    if sub != "dump" {
        return Err(SwarmError::invalid(format!("unknown log command {sub:?}")));
    }
    let spec = args.require("servers")?;
    let transport = transport_for(spec)?;
    let ids: Vec<_> = parse_servers(spec)?.into_iter().map(|(id, _)| id).collect();
    let config = apply_geometry(args, LogConfig::new(client_id(args)?, ids)?)?;
    let (log, replay) = recover(transport, config, &[STING_SVC])?;
    println!(
        "log of {}: next fragment seq {}, {} entries since the oldest needed checkpoint",
        log.client(),
        log.next_seq(),
        replay.entries.len()
    );
    for (svc, (pos, data)) in &replay.checkpoints {
        println!(
            "checkpoint {svc} @ seq {} offset {} ({} bytes)",
            pos.seq,
            pos.offset,
            data.len()
        );
    }
    for entry in &replay.entries {
        use swarm_log::Entry;
        let desc = match &entry.entry {
            Entry::Block { service, data, .. } => {
                format!(
                    "{service} BLOCK {} bytes @ {:?}",
                    data.len(),
                    entry.block_addr
                )
            }
            Entry::Record {
                service,
                kind,
                data,
            } if *service == swarm_types::ServiceId::LOG_LAYER
                && *kind == swarm_log::log::log_record::CHECKPOINT_DIR =>
            {
                match swarm_log::log::decode_checkpoint_dir(data) {
                    Ok(dir) => format!(
                        "LOG CHECKPOINT-DIRECTORY {{ {} }}",
                        dir.iter()
                            .map(|(s, p)| format!("{s}@seq{}+{}", p.seq, p.offset))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                    Err(_) => "LOG CHECKPOINT-DIRECTORY (unreadable)".into(),
                }
            }
            Entry::Record {
                service,
                kind,
                data,
            } => {
                format!("{service} RECORD kind={kind} {} bytes", data.len())
            }
            Entry::Delete { service, addr } => format!("{service} DELETE {addr}"),
            Entry::Checkpoint { service, data } => {
                format!("{service} CHECKPOINT {} bytes", data.len())
            }
        };
        println!(
            "seq {:>6} off {:>8}  {desc}",
            entry.pos.seq, entry.pos.offset
        );
    }
    Ok(())
}

fn frag_command(args: &Args) -> Result<()> {
    let sub = args.positional.get(1).map(|s| s.as_str());
    let Some("locate") = sub else {
        return Err(SwarmError::invalid("usage: swarm-admin frag locate <seq>"));
    };
    let seq: u64 = args
        .positional
        .get(2)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| SwarmError::invalid("frag locate: missing or bad <seq>"))?;
    let transport = transport_for(args.require("servers")?)?;
    let client = client_id(args)?;
    let fid = swarm_types::FragmentId::new(client, seq);
    let pool = Arc::new(swarm_net::ConnectionPool::new(transport, client));
    match swarm_log::reconstruct::locate_fragment(&pool, fid) {
        Some((server, header)) => {
            println!(
                "{fid}: on {server}; stripe {} (members seq {}..{}), index {}, parity index {},                  {} body bytes{}",
                header.stripe,
                header.stripe_first_seq,
                header.stripe_first_seq + header.member_count as u64 - 1,
                header.my_index,
                header.parity_index,
                header.body_len,
                if header.is_parity() { " [PARITY]" } else { "" }
            );
            println!(
                "group: {}",
                header
                    .group
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
        None => {
            // Not directly present: can it be reconstructed?
            let engine = swarm_log::ReadEngine::new(pool);
            match swarm_log::reconstruct::reconstruct_fragment(&engine, fid) {
                Ok(bytes) => println!(
                    "{fid}: NOT stored on any reachable server, but reconstructible                      from parity ({} bytes)",
                    bytes.len()
                ),
                Err(e) => println!("{fid}: not found and not reconstructible ({e})"),
            }
        }
    }
    Ok(())
}

fn clean(args: &Args) -> Result<()> {
    let (log, fs) = mount(args)?;
    let mut stack = ServiceStack::new();
    let svc: Arc<Mutex<dyn Service>> = Arc::new(Mutex::new(StingService::new(fs.clone())));
    stack.register(svc)?;
    let policy = match args.get_or("policy", "cost-benefit") {
        "greedy" => CleanPolicy::Greedy,
        _ => CleanPolicy::CostBenefit,
    };
    let cleaner = Cleaner::new(log, Arc::new(stack), policy);
    let max = args.get_u64("max-stripes", 64)? as usize;
    let stats = cleaner.clean_pass(max)?;
    fs.unmount().map_err(fs_err)?;
    println!(
        "cleaned {} stripes, moved {} blocks ({} bytes), reclaimed {} bytes, forced {} checkpoints",
        stats.stripes_cleaned,
        stats.blocks_moved,
        stats.bytes_moved,
        stats.bytes_reclaimed,
        stats.forced_checkpoints
    );
    Ok(())
}
