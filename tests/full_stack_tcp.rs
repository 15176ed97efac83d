//! Full-stack integration over real TCP with disk-backed servers: the
//! closest configuration to the paper's actual prototype (user-level
//! storage server processes + network + Sting on a client).

use std::sync::Arc;

use sting::{StingConfig, StingFs, StingService};
use swarm_log::{recover, Log, LogConfig};
use swarm_net::tcp::{TcpServer, TcpTransport};
use swarm_server::{Durability, FileStore, StorageServer};
use swarm_services::Service;
use swarm_types::{ClientId, ServerId, ServiceId};

const STING_SVC: ServiceId = ServiceId::new(2);

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let n = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let path =
            std::env::temp_dir().join(format!("swarm-itest-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct TcpCluster {
    servers: Vec<TcpServer>,
    transport: Arc<TcpTransport>,
    _dirs: Vec<TempDir>,
}

fn tcp_cluster(n: u32, tag: &str) -> TcpCluster {
    let transport = Arc::new(TcpTransport::new());
    let mut servers = Vec::new();
    let mut dirs = Vec::new();
    for i in 0..n {
        let dir = TempDir::new(&format!("{tag}-{i}"));
        // Non-durable file store: the semantics are identical, and tests
        // shouldn't hammer fsync.
        let store = FileStore::open_with_durability(&dir.0, 0, Durability::None).unwrap();
        let handler = StorageServer::new(ServerId::new(i), store).into_shared();
        let server = TcpServer::spawn(ServerId::new(i), "127.0.0.1:0", handler).unwrap();
        transport.add_server(ServerId::new(i), server.addr());
        servers.push(server);
        dirs.push(dir);
    }
    TcpCluster {
        servers,
        transport,
        _dirs: dirs,
    }
}

fn config(n: u32) -> LogConfig {
    LogConfig::new(ClientId::new(1), (0..n).map(ServerId::new).collect())
        .unwrap()
        .fragment_size(32 * 1024)
}

#[test]
fn sting_over_tcp_with_disk_backed_servers() {
    let cluster = tcp_cluster(3, "fs");
    let log = Arc::new(Log::create(cluster.transport.clone(), config(3)).unwrap());
    let fs = StingFs::format(log, StingConfig::default()).unwrap();

    fs.mkdir("/data").unwrap();
    let payload: Vec<u8> = (0..60_000u32).map(|i| (i % 241) as u8).collect();
    fs.write_file("/data/blob", 0, &payload).unwrap();
    fs.write_file("/data/note", 0, b"over real sockets onto real files")
        .unwrap();
    fs.unmount().unwrap();

    assert_eq!(fs.read_to_end("/data/blob").unwrap(), payload);
    assert_eq!(
        fs.read_to_end("/data/note").unwrap(),
        b"over real sockets onto real files"
    );
}

#[test]
fn recovery_over_tcp_after_client_crash() {
    let cluster = tcp_cluster(3, "recover");
    {
        let log = Arc::new(Log::create(cluster.transport.clone(), config(3)).unwrap());
        let fs = StingFs::format(log, StingConfig::default()).unwrap();
        fs.write_file("/persist.txt", 0, b"checkpointed state")
            .unwrap();
        fs.checkpoint().unwrap();
        fs.write_file("/tail.txt", 0, b"rolled forward").unwrap();
        fs.flush().unwrap();
        // crash: drop fs + log; TCP servers keep running.
    }
    let (log, replay) = recover(cluster.transport.clone(), config(3), &[STING_SVC]).unwrap();
    let fs = StingFs::bare(Arc::new(log), StingConfig::default());
    let mut svc = StingService::new(fs.clone());
    if let Some(c) = replay.checkpoint_data(STING_SVC) {
        svc.restore_checkpoint(c).unwrap();
    }
    for e in replay.records_for(STING_SVC) {
        svc.replay(e).unwrap();
    }
    assert_eq!(
        fs.read_to_end("/persist.txt").unwrap(),
        b"checkpointed state"
    );
    assert_eq!(fs.read_to_end("/tail.txt").unwrap(), b"rolled forward");
}

#[test]
fn reconstruction_over_tcp_when_a_server_process_dies() {
    let mut cluster = tcp_cluster(4, "reconstruct");
    let log = Arc::new(Log::create(cluster.transport.clone(), config(4)).unwrap());
    let svc = ServiceId::new(1);
    let mut addrs = Vec::new();
    for i in 0..30u32 {
        addrs.push(log.append_block(svc, b"", &vec![i as u8; 5000]).unwrap());
    }
    log.flush().unwrap();

    // Kill one actual server process (not just a flag).
    let mut dead = cluster.servers.remove(1);
    dead.shutdown();
    drop(dead);

    for (i, addr) in addrs.iter().enumerate() {
        let data = log.read(*addr).unwrap_or_else(|e| panic!("block {i}: {e}"));
        assert_eq!(data, vec![i as u8; 5000]);
    }
}

#[test]
fn server_restart_preserves_fragments_on_disk() {
    let transport = Arc::new(TcpTransport::new());
    let dir = TempDir::new("restart");
    let svc = ServiceId::new(1);
    let addr;
    {
        let store = FileStore::open_with_durability(&dir.0, 0, Durability::None).unwrap();
        let handler = StorageServer::new(ServerId::new(0), store).into_shared();
        let handler2 =
            StorageServer::new(ServerId::new(1), swarm_server::MemStore::new()).into_shared();
        let s0 = TcpServer::spawn(ServerId::new(0), "127.0.0.1:0", handler).unwrap();
        let s1 = TcpServer::spawn(ServerId::new(1), "127.0.0.1:0", handler2).unwrap();
        transport.add_server(ServerId::new(0), s0.addr());
        transport.add_server(ServerId::new(1), s1.addr());
        let log = Log::create(
            transport.clone() as Arc<dyn swarm_net::Transport>,
            config(2),
        )
        .unwrap();
        addr = log.append_block(svc, b"", b"durable bytes").unwrap();
        log.flush().unwrap();
        // Both server processes stop ("power cycle" of server 0's disk).
    }
    // Restart server 0 from the same directory; server 1's MemStore is
    // gone for good (that's the single-failure the parity covers).
    let store = FileStore::open_with_durability(&dir.0, 0, Durability::None).unwrap();
    let handler = StorageServer::new(ServerId::new(0), store).into_shared();
    let s0 = TcpServer::spawn(ServerId::new(0), "127.0.0.1:0", handler).unwrap();
    let transport2 = Arc::new(TcpTransport::new());
    transport2.add_server(ServerId::new(0), s0.addr());

    // The fragment (or its mirror) is still on disk: read it directly.
    let pool = Arc::new(swarm_net::ConnectionPool::new(
        transport2.clone() as Arc<dyn swarm_net::Transport>,
        ClientId::new(1),
    ));
    let (server, _) = swarm_log::reconstruct::locate_fragment(&pool, addr.fid)
        .expect("fragment survived restart");
    let engine = swarm_log::ReadEngine::new(pool);
    let bytes = swarm_log::reconstruct::fetch_fragment(&engine, server, addr.fid).unwrap();
    let view = swarm_log::FragmentView::parse(&bytes).unwrap();
    assert!(view.entries.iter().any(
        |e| matches!(&e.entry, swarm_log::Entry::Block { data, .. } if data == b"durable bytes")
    ));
}

#[test]
fn pooled_connections_reconnect_across_server_restart() {
    let transport = Arc::new(TcpTransport::new());
    let mut dirs = Vec::new();
    let mut servers = Vec::new();
    for i in 0..2u32 {
        let dir = TempDir::new(&format!("poolrestart-{i}"));
        let store = FileStore::open_with_durability(&dir.0, 0, Durability::None).unwrap();
        let handler = StorageServer::new(ServerId::new(i), store).into_shared();
        let server = TcpServer::spawn(ServerId::new(i), "127.0.0.1:0", handler).unwrap();
        transport.add_server(ServerId::new(i), server.addr());
        servers.push(server);
        dirs.push(dir);
    }
    // No client cache: both reads must cross the wire.
    let log = Log::create(
        transport.clone() as Arc<dyn swarm_net::Transport>,
        config(2).cache_fragments(0),
    )
    .unwrap();
    let svc = ServiceId::new(1);
    let addr = log.append_block(svc, b"", &vec![5u8; 4000]).unwrap();
    log.flush().unwrap();
    assert_eq!(log.read(addr).unwrap(), vec![5u8; 4000]); // warms the pool

    let before = swarm_metrics::snapshot();
    // Restart both server processes from the same directories. Every
    // socket the read engine pooled is now stale.
    for i in 0..2u32 {
        let mut old = servers.remove(0);
        old.shutdown();
        drop(old);
        let store =
            FileStore::open_with_durability(&dirs[i as usize].0, 0, Durability::None).unwrap();
        let handler = StorageServer::new(ServerId::new(i), store).into_shared();
        let server = TcpServer::spawn(ServerId::new(i), "127.0.0.1:0", handler).unwrap();
        transport.remove_server(ServerId::new(i));
        transport.add_server(ServerId::new(i), server.addr());
        servers.push(server);
    }

    // The stale pooled connection must be detected and transparently
    // redialed — the read succeeds without the caller seeing an error.
    assert_eq!(log.read(addr).unwrap(), vec![5u8; 4000]);
    let after = swarm_metrics::snapshot();
    assert!(
        after.counter("net.pool_reconnects") > before.counter("net.pool_reconnects"),
        "restart did not register as a pool reconnect"
    );
}
