//! Chaos over TCP drives the client path production runs. The transport a
//! TCP [`Cluster`] hands out is the bare `TcpTransport` — faults are read
//! by the servers — so its connections pipeline, and a log over them keeps
//! more than one RPC in flight per server. (A client-side fault wrapper
//! whose connections report width 1 clamps every window to one RPC.)
//!
//! Its own test binary: the window histograms are process-global, and no
//! other test here may feed them.

use swarm_chaos::{Cluster, StoreKind, TransportKind};
use swarm_log::{Log, LogConfig};
use swarm_types::{ClientId, Geometry, ServerId, ServiceId};

#[test]
fn tcp_cluster_runs_the_windowed_client() {
    let cluster = Cluster::new(TransportKind::Tcp, 4, StoreKind::Mem).unwrap();
    let transport = cluster.transport();
    let conn = transport
        .connect(ServerId::new(0), ClientId::new(1))
        .unwrap();
    assert!(
        conn.pipeline_width() > 1,
        "a chaos TCP connection pipelines {} call(s)",
        conn.pipeline_width()
    );
    drop(conn);

    let servers = (0..cluster.servers()).map(ServerId::new).collect();
    let config = LogConfig::new(ClientId::new(1), servers)
        .unwrap()
        .geometry(Geometry::new(3, 1).unwrap())
        .unwrap()
        .fragment_size(4096)
        // Every read goes to a server.
        .cache_fragments(0);
    let log = Log::create(transport, config).unwrap();
    // ~100 fragments over 3 data servers: more than one `ReadBatch` of
    // reads per server.
    let addrs: Vec<_> = (0..400u32)
        .map(|i| {
            let block = vec![i as u8; 1000];
            log.append_block(ServiceId::new(7), &i.to_le_bytes(), &block)
                .unwrap()
        })
        .collect();
    log.flush().unwrap();
    for (i, block) in log.read_many(&addrs).unwrap().iter().enumerate() {
        assert_eq!(block.as_slice(), &[i as u8; 1000][..], "block {i}");
    }

    let snapshot = swarm_metrics::snapshot();
    let peak = |name: &str| snapshot.histogram(name).map_or(0, |h| h.max_us);
    let (stores, reads) = (
        peak("log.store_window_occupancy"),
        peak("log.read_window_occupancy"),
    );
    assert!(
        reads >= 2,
        "at most {reads} read RPC(s) in flight per server ({stores} store(s))"
    );
}
