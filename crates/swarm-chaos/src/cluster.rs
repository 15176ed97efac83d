//! Transport-agnostic chaos cluster.
//!
//! The same schedule must replay on the in-process transport and over
//! real sockets, so this module hides the difference behind one type:
//! a [`Cluster`] owns N storage servers (each a
//! [`swarm_server::StorageServer`] over a [`swarm_server::MemStore`] or a
//! [`swarm_server::FileStore`], standing in for the server's disk — it
//! survives kill/restart cycles the way a disk survives a process crash),
//! each with its own [`FaultPlan`], and hands clients the *bare*
//! transport: [`MemTransport`] or [`TcpTransport`], the client path
//! production runs. Faults are injected where failures happen, at the
//! server end: on mem the plan is the member's own
//! ([`MemTransport::faults`]), on TCP it is the server's
//! ([`ServerConfig::faults`]). So a TCP run keeps the full window of
//! RPCs in flight per server, and a reset or a kill takes every call on
//! the socket with it.
//!
//! Kill/restart semantics differ by transport in mechanism but not in
//! effect: on mem, down is a plan flag; on TCP, kill additionally tears
//! down the listening socket (severing live connections like a process
//! exit) and restart respawns on a **fresh ephemeral port** — re-binding
//! the old port would race with TIME_WAIT — and re-addresses the
//! transport, exactly how a restarted server would re-register.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use swarm_net::tcp::{ServerConfig, TcpServer, TcpTransport};
use swarm_net::{FaultPlan, MemTransport, Transport};
use swarm_server::{Durability, FileStore, FragmentStore, MemStore, StorageServer};
use swarm_types::{Result, ServerId};

/// Which transport a chaos run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process dispatch ([`MemTransport`]).
    Mem,
    /// Real sockets ([`TcpTransport`] + one [`TcpServer`] per member).
    Tcp,
}

impl TransportKind {
    /// Every kind (the CI matrix).
    pub fn all() -> Vec<TransportKind> {
        vec![TransportKind::Mem, TransportKind::Tcp]
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportKind::Mem => write!(f, "mem"),
            TransportKind::Tcp => write!(f, "tcp"),
        }
    }
}

impl FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "mem" => Ok(TransportKind::Mem),
            "tcp" => Ok(TransportKind::Tcp),
            other => Err(format!("unknown transport {other:?} (want mem|tcp)")),
        }
    }
}

/// Which fragment store backs each chaos server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// Heap-backed [`MemStore`] (the original chaos configuration).
    Mem,
    /// Durable [`FileStore`] in a per-run temp directory, opened with
    /// `durability=group` so the journal group-commit path is on the
    /// chaos critical path.
    File,
}

impl fmt::Display for StoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreKind::Mem => write!(f, "mem"),
            StoreKind::File => write!(f, "file"),
        }
    }
}

impl FromStr for StoreKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "mem" => Ok(StoreKind::Mem),
            "file" => Ok(StoreKind::File),
            other => Err(format!("unknown store {other:?} (want mem|file)")),
        }
    }
}

/// Group-commit window the file-backed chaos store runs with: the most a
/// journal batch waits for a store still writing its data. A lone store
/// pays none of it, so single-threaded schedules run at fsync speed; it
/// is short so that a multi-client schedule with a slow data phase is not
/// held up either.
const CHAOS_GROUP_WINDOW: Duration = Duration::from_millis(1);

/// Owns the on-disk root of a file-backed chaos cluster; removed on drop.
struct StoreDir(PathBuf);

impl StoreDir {
    fn fresh() -> StoreDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "swarm-chaos-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        StoreDir(path)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Slot {
    id: ServerId,
    storage: Arc<StorageServer<Box<dyn FragmentStore>>>,
    plan: Arc<FaultPlan>,
    tcp_server: Option<TcpServer>,
}

impl Slot {
    /// (Re)spawns this member's listener on a fresh ephemeral port, with
    /// its fault plan: the server is where every fault is injected.
    fn spawn_tcp(&self) -> Result<TcpServer> {
        TcpServer::spawn_with_config(
            self.id,
            "127.0.0.1:0",
            self.storage.clone(),
            ServerConfig {
                faults: Some(self.plan.clone()),
                ..ServerConfig::default()
            },
        )
    }
}

/// A running chaos cluster: N storage servers, each reading its own
/// [`FaultPlan`], behind one bare transport.
pub struct Cluster {
    kind: TransportKind,
    store_kind: StoreKind,
    transport: Arc<dyn Transport>,
    tcp: Option<Arc<TcpTransport>>,
    slots: Vec<Slot>,
    /// Present for file-backed clusters; removes the store root on drop.
    _store_dir: Option<StoreDir>,
}

impl Cluster {
    /// Stands up `servers` storage servers over the chosen transport and
    /// fragment store. File-backed servers live in a fresh temp directory
    /// that is removed when the cluster drops; the [`FileStore`] instance
    /// (like a disk) survives kill/restart cycles.
    ///
    /// # Errors
    ///
    /// Returns [`swarm_types::SwarmError::Io`] if a TCP listener cannot
    /// bind or a file store cannot be created.
    pub fn new(kind: TransportKind, servers: u32, store_kind: StoreKind) -> Result<Cluster> {
        let store_dir = match store_kind {
            StoreKind::Mem => None,
            StoreKind::File => Some(StoreDir::fresh()),
        };
        let make_store = |i: u32| -> Result<Box<dyn FragmentStore>> {
            match (&store_dir, store_kind) {
                (Some(root), StoreKind::File) => Ok(Box::new(FileStore::open_with_durability(
                    root.0.join(format!("server-{i}")),
                    0,
                    Durability::Group(CHAOS_GROUP_WINDOW),
                )?)),
                _ => Ok(Box::new(MemStore::new())),
            }
        };
        let mem = Arc::new(MemTransport::new());
        let tcp = (kind == TransportKind::Tcp).then(|| {
            let tcp = Arc::new(TcpTransport::new());
            // Chaos schedules sever connections on purpose; a short
            // timeout keeps a lost ack from stalling the run.
            tcp.set_call_timeout(Some(Duration::from_secs(2)));
            tcp
        });
        let mut slots = Vec::new();
        for i in 0..servers {
            let id = ServerId::new(i);
            let storage = StorageServer::new(id, make_store(i)?).into_shared();
            let plan = match &tcp {
                // The server reads the plan it is spawned with.
                Some(_) => Arc::new(FaultPlan::new()),
                // The transport reads each member's own plan on every call.
                None => {
                    mem.register(id, storage.clone());
                    mem.faults(id).expect("just registered")
                }
            };
            let mut slot = Slot {
                id,
                storage,
                plan,
                tcp_server: None,
            };
            if let Some(tcp) = &tcp {
                let srv = slot.spawn_tcp()?;
                tcp.add_server(id, srv.addr());
                slot.tcp_server = Some(srv);
            }
            slots.push(slot);
        }
        let transport: Arc<dyn Transport> = match &tcp {
            Some(tcp) => tcp.clone(),
            None => mem,
        };
        Ok(Cluster {
            kind,
            store_kind,
            transport,
            tcp,
            slots,
            _store_dir: store_dir,
        })
    }

    /// Which transport this cluster runs on.
    pub fn kind(&self) -> TransportKind {
        self.kind
    }

    /// Which fragment store backs the servers.
    pub fn store_kind(&self) -> StoreKind {
        self.store_kind
    }

    /// Number of servers.
    pub fn servers(&self) -> u32 {
        self.slots.len() as u32
    }

    /// The transport the client log should use: the bare production
    /// transport, with no fault wrapper in front of it.
    pub fn transport(&self) -> Arc<dyn Transport> {
        self.transport.clone()
    }

    /// The fault plan for server `index`.
    pub fn plan(&self, index: u32) -> Arc<FaultPlan> {
        self.slots[index as usize].plan.clone()
    }

    /// Takes server `index` down. The plan flag makes the server refuse
    /// connects and calls on both transports; on TCP the listener is also
    /// shut down, severing established connections like a process exit.
    pub fn kill(&mut self, index: u32) {
        let slot = &mut self.slots[index as usize];
        slot.plan.set_down(true);
        if let Some(mut srv) = slot.tcp_server.take() {
            srv.shutdown();
        }
    }

    /// Brings server `index` back up. Its fragment store (the "disk")
    /// kept everything stored before the kill.
    ///
    /// # Errors
    ///
    /// Returns [`swarm_types::SwarmError::Io`] if the TCP respawn cannot
    /// bind a fresh port.
    pub fn restart(&mut self, index: u32) -> Result<()> {
        let slot = &mut self.slots[index as usize];
        if let Some(tcp) = &self.tcp {
            let srv = slot.spawn_tcp()?;
            tcp.add_server(slot.id, srv.addr());
            slot.tcp_server = Some(srv);
        }
        slot.plan.set_down(false);
        Ok(())
    }

    /// Clears pending one-shot injections (resets, delays, truncations)
    /// on every server, leaving down / disk-full state alone. Called at
    /// quiesce points so an unconsumed transient cannot fail verification.
    pub fn clear_transients(&self) {
        for slot in &self.slots {
            slot.plan.clear_transients();
        }
    }

    /// Total fragments currently held across all servers (diagnostics).
    pub fn total_fragments(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.storage.store().fragment_count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_net::{ConnectionPool, Request, Response};
    use swarm_types::ClientId;

    fn ping_all(cluster: &Cluster) -> Vec<bool> {
        let pool = ConnectionPool::new(cluster.transport(), ClientId::new(1));
        (0..cluster.servers())
            .map(|i| {
                pool.call(ServerId::new(i), &Request::Ping)
                    .map(|r| r == Response::Ok)
                    .unwrap_or(false)
            })
            .collect()
    }

    #[test]
    fn mem_kill_restart_cycle() {
        let mut c = Cluster::new(TransportKind::Mem, 3, StoreKind::Mem).unwrap();
        assert_eq!(ping_all(&c), vec![true, true, true]);
        c.kill(1);
        assert_eq!(ping_all(&c), vec![true, false, true]);
        c.restart(1).unwrap();
        assert_eq!(ping_all(&c), vec![true, true, true]);
    }

    #[test]
    fn tcp_kill_restart_cycle_reuses_the_store() {
        let mut c = Cluster::new(TransportKind::Tcp, 3, StoreKind::Mem).unwrap();
        assert_eq!(ping_all(&c), vec![true, true, true]);
        c.kill(2);
        assert_eq!(ping_all(&c), vec![true, true, false]);
        c.restart(2).unwrap();
        assert_eq!(ping_all(&c), vec![true, true, true]);
    }

    #[test]
    fn file_backed_cluster_survives_kill_restart() {
        use swarm_types::FragmentId;
        let mut c = Cluster::new(TransportKind::Mem, 3, StoreKind::File).unwrap();
        assert_eq!(c.store_kind(), StoreKind::File);
        let pool = ConnectionPool::new(c.transport(), ClientId::new(1));
        let fid = FragmentId::new(ClientId::new(1), 0);
        let resp = pool
            .call(
                ServerId::new(0),
                &Request::Store {
                    fid,
                    marked: false,
                    ranges: vec![],
                    data: b"on disk".to_vec().into(),
                },
            )
            .unwrap();
        assert_eq!(resp, Response::Ok);
        c.kill(0);
        c.restart(0).unwrap();
        let resp = pool
            .call(
                ServerId::new(0),
                &Request::Read {
                    fid,
                    offset: 0,
                    len: 7,
                },
            )
            .unwrap();
        assert_eq!(resp, Response::Data(b"on disk".to_vec().into()));
    }
}
