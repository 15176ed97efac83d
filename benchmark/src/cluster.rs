//! The system under test: five in-process `TcpServer`s on the epoll
//! runtime with `ServerConfig::default()`, each a `StorageServer` over a
//! `FileStore` (`Durability::Group(5 ms)` unless the workload says
//! otherwise).
//!
//! Servers can be stopped and re-opened from their directories, which is
//! how `degraded-read` loses a server and how the crash check restarts the
//! cluster from only what reached the disk.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use swarm_net::tcp::{ServerConfig, TcpServer, TcpTransport};
use swarm_net::RequestHandler;
use swarm_server::{Durability, FileStore, FragmentStore, StorageServer};
use swarm_types::{Result, ServerId, SwarmError};

use crate::trace::{StoreHandle, TracedHandler, Tracer};

/// Servers in the cluster; every workload stripes over all of them.
pub const SERVERS: u32 = 5;

/// The group-commit window: an acked store has had its fragment file and
/// its journal record fsynced, and the journal leader waits up to this
/// long for more records to share the fsync.
pub const GROUP_COMMIT: Duration = Duration::from_millis(5);

/// Directory for everything a run writes: `SWARM_BENCH_OUT`, else `out/`
/// inside this package (cargo tells a `cargo run` child where that is).
pub fn out_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("SWARM_BENCH_OUT") {
        return PathBuf::from(dir);
    }
    let package = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    package.join("out")
}

/// The directory the stores live in; removed on drop and, through the
/// panic hook, on a panic in any thread.
pub struct StoreRoot {
    path: PathBuf,
}

static LIVE_ROOTS: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

/// Makes a panic anywhere remove the live store roots before the default
/// hook reports it; without this a failed run would leave gigabytes
/// behind.
pub fn install_panic_cleanup() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Ok(roots) = LIVE_ROOTS.lock() {
            for root in roots.iter() {
                let _ = std::fs::remove_dir_all(root);
            }
        }
        default(info);
    }));
}

impl StoreRoot {
    /// Creates an empty store root under [`out_dir`], refusing if the file
    /// system has less than `need_bytes` free: a run that fills the disk
    /// fails half-way with an I/O error that looks like a bug.
    pub fn create(need_bytes: u64) -> Result<StoreRoot> {
        let base = std::env::var_os("SWARM_BENCH_STORE")
            .map(PathBuf::from)
            .unwrap_or_else(out_dir);
        std::fs::create_dir_all(&base)?;
        if let Some(free) = free_bytes(&base) {
            if free < need_bytes {
                return Err(SwarmError::other(format!(
                    "store root {} has {} MiB free, this run needs {} MiB \
                     (set SWARM_BENCH_STORE to a roomier directory)",
                    base.display(),
                    free >> 20,
                    need_bytes >> 20
                )));
            }
        }
        let path = base.join(format!("stores-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        LIVE_ROOTS
            .lock()
            .expect("the root list is only pushed to and filtered")
            .push(path.clone());
        Ok(StoreRoot { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for StoreRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Ok(mut roots) = LIVE_ROOTS.lock() {
            roots.retain(|p| p != &self.path);
        }
    }
}

/// Free bytes on the file system holding `dir`, from `df -Pk` (std has no
/// statvfs). `None` when `df` is missing or prints something unexpected;
/// the run then starts without the check.
fn free_bytes(dir: &Path) -> Option<u64> {
    let out = std::process::Command::new("df")
        .arg("-Pk")
        .arg(dir)
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let kib: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// The concrete server type, kept so the benchmark can read a server's
/// cache and journal counters.
pub type Storage = StorageServer<StoreHandle>;

struct Slot {
    id: ServerId,
    dir: PathBuf,
    /// Last address served from; a stopped server keeps it, so clients
    /// still name the server and find it refusing connections.
    addr: SocketAddr,
    live: Option<(Arc<Storage>, TcpServer)>,
}

pub struct Cluster {
    slots: Vec<Slot>,
    durability: Durability,
    cache_fragments: usize,
    tracer: Option<Arc<Tracer>>,
}

impl Cluster {
    /// Opens (or re-opens) every server's store under `root` and serves
    /// it. `cache_fragments` sizes each server's read cache.
    pub fn start(
        root: &Path,
        durability: Durability,
        cache_fragments: usize,
        tracer: Option<Arc<Tracer>>,
    ) -> Result<Cluster> {
        let mut cluster = Cluster {
            slots: Vec::new(),
            durability,
            cache_fragments,
            tracer,
        };
        for i in 0..SERVERS {
            let id = ServerId::new(i);
            let dir = root.join(format!("server-{i}"));
            let live = cluster.open(id, &dir)?;
            cluster.slots.push(Slot {
                id,
                dir,
                addr: live.1.addr(),
                live: Some(live),
            });
        }
        Ok(cluster)
    }

    fn open(&self, id: ServerId, dir: &Path) -> Result<(Arc<Storage>, TcpServer)> {
        let store = FileStore::open_with_durability(dir, 0, self.durability)?;
        let storage = StorageServer::new(id, StoreHandle::new(store, id, self.tracer.clone()))
            .with_read_cache(self.cache_fragments)
            .into_shared();
        let handler: Arc<dyn RequestHandler> = match &self.tracer {
            Some(t) => Arc::new(TracedHandler::new(storage.clone(), id, t.clone())),
            None => storage.clone(),
        };
        let tcp =
            TcpServer::spawn_with_config(id, "127.0.0.1:0", handler, ServerConfig::default())?;
        Ok((storage, tcp))
    }

    /// Stops server `i` like a process exit: its sockets close and its
    /// memory (cache, store index) is gone. Its directory stays.
    pub fn stop_server(&mut self, i: usize) {
        if let Some((storage, mut tcp)) = self.slots[i].live.take() {
            tcp.shutdown();
            drop(tcp);
            drop(storage);
        }
    }

    /// Re-opens server `i` from its directory on a fresh port.
    pub fn start_server(&mut self, i: usize) -> Result<(ServerId, SocketAddr)> {
        if self.slots[i].live.is_none() {
            let live = self.open(self.slots[i].id, &self.slots[i].dir)?;
            self.slots[i].addr = live.1.addr();
            self.slots[i].live = Some(live);
        }
        Ok((self.slots[i].id, self.slots[i].addr))
    }

    /// Stops every server and re-opens each from disk.
    pub fn crash_and_reopen(&mut self) -> Result<()> {
        for i in 0..self.slots.len() {
            self.stop_server(i);
        }
        for i in 0..self.slots.len() {
            self.start_server(i)?;
        }
        Ok(())
    }

    /// A fresh client transport naming every server, stopped ones at
    /// their last address.
    pub fn transport(&self) -> Arc<TcpTransport> {
        Arc::new(TcpTransport::with_servers(
            self.slots.iter().map(|s| (s.id, s.addr)),
        ))
    }

    pub fn server_ids(&self) -> Vec<ServerId> {
        self.slots.iter().map(|s| s.id).collect()
    }

    pub fn live_servers(&self) -> usize {
        self.slots.iter().filter(|s| s.live.is_some()).count()
    }

    fn storages(&self) -> impl Iterator<Item = &Arc<Storage>> {
        self.slots
            .iter()
            .filter_map(|s| s.live.as_ref().map(|l| &l.0))
    }

    /// Σ `FragmentStore::byte_count()` over the live servers.
    pub fn stored_bytes(&self) -> u64 {
        self.storages().map(|s| s.store().byte_count()).sum()
    }

    /// Σ (journal fsyncs, journal batches) over the live servers.
    pub fn journal_counts(&self) -> (u64, u64) {
        self.storages().fold((0, 0), |(f, b), s| {
            let fs = s.store().file_store();
            (f + fs.journal_fsyncs(), b + fs.journal_batches())
        })
    }

    /// Σ read-cache (hits, probes) over the live servers.
    pub fn cache_counts(&self) -> (u64, u64) {
        self.storages()
            .flat_map(|s| s.read_cache_shard_stats())
            .fold((0, 0), |(h, n), (hits, misses, bypasses)| {
                (h + hits, n + hits + misses + bypasses)
            })
    }
}
