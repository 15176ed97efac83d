//! # Swarm — a scalable striped-log storage system
//!
//! A full reproduction of *"The Swarm Scalable Storage System"* (Hartman,
//! Murdock, Spalink — ICDCS 1999): simple storage servers aggregated into
//! a high-performance, fault-tolerant store by client-side striped logs
//! with rotated parity, plus the stackable services (cleaner, ARU,
//! logical disk, caching) and the Sting local file system the paper
//! builds on top.
//!
//! This crate is the facade: it re-exports every subsystem and provides
//! [`local::LocalCluster`], a one-liner for spinning up an in-process
//! cluster (the moral equivalent of the paper's switched-Ethernet lab).
//!
//! ```
//! use swarm::local::LocalCluster;
//! use swarm_types::ServiceId;
//!
//! let cluster = LocalCluster::new(4)?;
//! let log = cluster.create_log(1)?;
//! let addr = log.append_block(ServiceId::new(1), b"", b"hello swarm")?;
//! log.flush()?;
//!
//! // Kill a server: the block stays readable via parity reconstruction.
//! cluster.set_down(0, true);
//! assert_eq!(log.read(addr)?, b"hello swarm");
//! # Ok::<(), swarm_types::SwarmError>(())
//! ```
//!
//! See `README.md` for the architecture tour, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the paper-vs-measured record of
//! every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use swarm_cleaner as cleaner;
pub use swarm_log as log;
pub use swarm_net as net;
pub use swarm_server as server;
pub use swarm_services as services;
pub use swarm_sim as sim;
pub use swarm_types as types;

pub use sting;

/// In-process cluster harness used by examples, tests, and quick starts.
pub mod local {
    use std::sync::Arc;

    use swarm_log::{Log, LogConfig};
    use swarm_net::{MemTransport, ServerStats};
    use swarm_server::{MemStore, StorageServer};
    use swarm_types::{ClientId, Result, ServerId};

    /// An in-process Swarm cluster: `n` memory-backed storage servers
    /// behind a fault-injectable transport.
    pub struct LocalCluster {
        transport: Arc<MemTransport>,
        servers: Vec<Arc<StorageServer<MemStore>>>,
    }

    impl std::fmt::Debug for LocalCluster {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("LocalCluster")
                .field("servers", &self.servers.len())
                .finish()
        }
    }

    impl LocalCluster {
        /// Spins up `n` storage servers.
        ///
        /// # Errors
        ///
        /// Currently infallible; returns `Result` so call sites read like
        /// the TCP variant's.
        pub fn new(n: u32) -> Result<LocalCluster> {
            let transport = Arc::new(MemTransport::new());
            let mut servers = Vec::new();
            for i in 0..n {
                let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
                transport.register(ServerId::new(i), srv.clone());
                servers.push(srv);
            }
            Ok(LocalCluster { transport, servers })
        }

        /// The shared transport (pass to [`Log`]s and recovery).
        pub fn transport(&self) -> Arc<MemTransport> {
            self.transport.clone()
        }

        /// Number of servers.
        pub fn len(&self) -> usize {
            self.servers.len()
        }

        /// Always false — a cluster has at least one server in practice.
        pub fn is_empty(&self) -> bool {
            self.servers.is_empty()
        }

        /// A default [`LogConfig`] striping across every server.
        ///
        /// # Errors
        ///
        /// Returns an error for clusters of fewer than 2 servers (no
        /// room for parity).
        pub fn log_config(&self, client: u32) -> Result<LogConfig> {
            LogConfig::new(
                ClientId::new(client),
                (0..self.servers.len() as u32).map(ServerId::new).collect(),
            )
        }

        /// Creates a fresh log for `client` striped across every server.
        ///
        /// # Errors
        ///
        /// Propagates configuration and transport errors.
        pub fn create_log(&self, client: u32) -> Result<Log> {
            Log::create(self.transport.clone(), self.log_config(client)?)
        }

        /// Marks server `i` down (or back up).
        pub fn set_down(&self, i: u32, down: bool) {
            self.transport.set_down(ServerId::new(i), down);
        }

        /// Statistics for server `i`.
        pub fn server_stats(&self, i: u32) -> ServerStats {
            self.servers[i as usize].stats()
        }
    }
}
