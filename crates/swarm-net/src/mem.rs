//! In-process transport: direct dispatch to registered handlers, with
//! fault injection.
//!
//! This stands in for the prototype's switched 100 Mb/s Ethernet when the
//! whole cluster runs inside one process (tests, examples, benchmarks).
//! Requests still travel through the full encode → frame → decode path so
//! the exact bytes that would cross a socket are exercised; only the socket
//! itself is elided.
//!
//! Each member has a [`FaultPlan`] ([`MemTransport::faults`]), read on
//! every connect and call in the order the module docs of
//! [`crate::fault`] give: down and fail-after, reset, the request faults
//! just before the handler, truncation after it. A reset or truncation
//! severs the connection it hit.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use swarm_types::{Bytes, ClientId, Decode, Encode, Result, ServerId, SwarmError};

use crate::fault::FaultPlan;
use crate::handler::RequestHandler;
use crate::proto::{Request, Response};
use crate::transport::{Connection, Transport};

struct Member {
    handler: Arc<dyn RequestHandler>,
    faults: Arc<FaultPlan>,
}

struct MemMetrics {
    requests: swarm_metrics::Counter,
    injected_faults: swarm_metrics::Counter,
    bytes_out: swarm_metrics::Counter,
    bytes_in: swarm_metrics::Counter,
    call_us: swarm_metrics::Histogram,
}

fn mem_metrics() -> &'static MemMetrics {
    static M: std::sync::OnceLock<MemMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| MemMetrics {
        requests: swarm_metrics::counter("net.mem.requests"),
        injected_faults: swarm_metrics::counter("net.mem.injected_faults"),
        bytes_out: swarm_metrics::counter("net.mem.bytes_out"),
        bytes_in: swarm_metrics::counter("net.mem.bytes_in"),
        call_us: swarm_metrics::histogram("net.mem.call_us"),
    })
}

/// An in-process cluster of storage servers.
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use swarm_net::{MemTransport, Transport, Request};
/// use swarm_types::{ClientId, ServerId};
///
/// # fn handler() -> Arc<dyn swarm_net::RequestHandler> { unimplemented!() }
/// let transport = MemTransport::new();
/// transport.register(ServerId::new(0), handler());
/// let mut conn = transport.connect(ServerId::new(0), ClientId::new(1))?;
/// let reply = conn.call(&Request::Ping)?;
/// # Ok::<(), swarm_types::SwarmError>(())
/// ```
#[derive(Default)]
pub struct MemTransport {
    members: RwLock<BTreeMap<ServerId, Member>>,
}

impl MemTransport {
    /// Creates an empty cluster. Every message it carries round-trips
    /// through the wire codec.
    pub fn new() -> Self {
        MemTransport::default()
    }

    /// Adds (or replaces) a server.
    pub fn register(&self, server: ServerId, handler: Arc<dyn RequestHandler>) {
        self.members.write().insert(
            server,
            Member {
                handler,
                faults: Arc::new(FaultPlan::new()),
            },
        );
    }

    /// Removes a server entirely (as opposed to marking it down).
    pub fn deregister(&self, server: ServerId) {
        self.members.write().remove(&server);
    }

    /// Marks a server down or back up. Down servers refuse connections and
    /// fail in-flight calls with [`SwarmError::ServerUnavailable`].
    pub fn set_down(&self, server: ServerId, down: bool) {
        if let Some(m) = self.members.read().get(&server) {
            m.faults.set_down(down);
        }
    }

    /// Access the fault plan of a server for fine-grained scenarios.
    pub fn faults(&self, server: ServerId) -> Option<Arc<FaultPlan>> {
        self.members.read().get(&server).map(|m| m.faults.clone())
    }
}

impl Transport for MemTransport {
    fn connect(&self, server: ServerId, client: ClientId) -> Result<Box<dyn Connection>> {
        let members = self.members.read();
        let member = members
            .get(&server)
            .ok_or(SwarmError::ServerUnavailable(server))?;
        if member.faults.is_down() {
            return Err(SwarmError::ServerUnavailable(server));
        }
        Ok(Box::new(MemConnection {
            server,
            client,
            handler: member.handler.clone(),
            faults: member.faults.clone(),
            severed: false,
        }))
    }

    fn servers(&self) -> Vec<ServerId> {
        self.members.read().keys().copied().collect()
    }
}

struct MemConnection {
    server: ServerId,
    client: ClientId,
    handler: Arc<dyn RequestHandler>,
    faults: Arc<FaultPlan>,
    /// Set by an injected reset or truncation: like a dead socket, every
    /// later call on this connection fails until the caller redials.
    severed: bool,
}

impl MemConnection {
    /// An injected failure: counted, traced, and `ServerUnavailable`.
    fn injected(&mut self, what: &str, sever: bool) -> Result<Response> {
        mem_metrics().injected_faults.inc();
        swarm_metrics::trace!("net.mem.fault", "injected {what} at server {}", self.server);
        self.severed |= sever;
        Err(SwarmError::ServerUnavailable(self.server))
    }

    /// The server's side of a delivered request: its request faults, then
    /// the handler.
    fn serve(&self, request: Request) -> Response {
        match self.faults.before_handler(&request) {
            Some(refused) => refused,
            None => self.handler.handle(self.client, request),
        }
    }
}

impl Connection for MemConnection {
    fn call(&mut self, request: &Request) -> Result<Response> {
        let m = mem_metrics();
        m.requests.inc();
        if self.faults.on_call() {
            return self.injected("failure", false);
        }
        if self.faults.take_reset() {
            return self.injected("reset", true);
        }
        if self.severed {
            return Err(SwarmError::ServerUnavailable(self.server));
        }
        let span = m.call_us.span("net.mem.call");
        // Round-trip through the exact bytes a socket would carry, decoding
        // them shared just like the TCP path does.
        let wire = Bytes::from(request.encode_to_vec());
        m.bytes_out.add(wire.len() as u64);
        let decoded = Request::decode_all_shared(&wire)?;
        let response = self.serve(decoded);
        let wire = Bytes::from(response.encode_to_vec());
        m.bytes_in.add(wire.len() as u64);
        let response = Response::decode_all_shared(&wire)?;
        drop(span);
        if self.faults.take_truncate() {
            // Processed, but the ack is lost with the connection.
            return self.injected("truncation", true);
        }
        Ok(response)
    }

    fn server(&self) -> ServerId {
        self.server
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::testing::EchoStore;
    use swarm_types::FragmentId;

    fn cluster(n: u32) -> MemTransport {
        let t = MemTransport::new();
        for i in 0..n {
            t.register(ServerId::new(i), Arc::new(EchoStore::default()));
        }
        t
    }

    #[test]
    fn connect_and_ping() {
        let t = cluster(1);
        let mut conn = t.connect(ServerId::new(0), ClientId::new(0)).unwrap();
        assert_eq!(conn.call(&Request::Ping).unwrap(), Response::Ok);
    }

    #[test]
    fn connect_to_unknown_server_fails() {
        let t = cluster(1);
        match t.connect(ServerId::new(9), ClientId::new(0)) {
            Err(err) => assert!(matches!(err, SwarmError::ServerUnavailable(_))),
            Ok(_) => panic!("connect to unknown server should fail"),
        }
    }

    #[test]
    fn down_server_refuses_connections_and_calls() {
        let t = cluster(2);
        let mut conn = t.connect(ServerId::new(1), ClientId::new(0)).unwrap();
        t.set_down(ServerId::new(1), true);
        assert!(conn.call(&Request::Ping).is_err());
        assert!(t.connect(ServerId::new(1), ClientId::new(0)).is_err());
        // Other servers unaffected.
        assert!(t.connect(ServerId::new(0), ClientId::new(0)).is_ok());
    }

    #[test]
    fn server_recovers_after_set_down_false() {
        let t = cluster(1);
        t.set_down(ServerId::new(0), true);
        t.set_down(ServerId::new(0), false);
        let mut conn = t.connect(ServerId::new(0), ClientId::new(0)).unwrap();
        assert_eq!(conn.call(&Request::Ping).unwrap(), Response::Ok);
    }

    #[test]
    fn store_read_through_codec_path() {
        let t = cluster(1);
        let mut conn = t.connect(ServerId::new(0), ClientId::new(2)).unwrap();
        let fid = FragmentId::new(ClientId::new(2), 0);
        let data = vec![7u8; 1024];
        conn.call(&Request::Store {
            fid,
            marked: false,
            ranges: vec![],
            data: data.clone().into(),
        })
        .unwrap()
        .into_result()
        .unwrap();
        let resp = conn
            .call(&Request::Read {
                fid,
                offset: 100,
                len: 24,
            })
            .unwrap();
        assert_eq!(resp, Response::Data(data[100..124].to_vec().into()));
    }

    #[test]
    fn servers_listed_in_order() {
        let t = cluster(4);
        let ids: Vec<u32> = t.servers().iter().map(|s| s.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn deregister_removes_server() {
        let t = cluster(2);
        t.deregister(ServerId::new(0));
        assert_eq!(t.servers(), vec![ServerId::new(1)]);
    }
}
