//! Networking substrate for Swarm: framing, the client↔server request
//! protocol, and pluggable transports.
//!
//! The paper's storage servers export a tiny fragment-oriented interface
//! (§2.3): store, read, delete, preallocate, and "query the FID of the last
//! marked fragment", plus ACL management. This crate defines that protocol
//! as typed [`Request`]/[`Response`] enums over a checksummed binary frame
//! format, and a [`Transport`] abstraction with two implementations:
//!
//! * [`MemTransport`] — in-process dispatch. Used by tests, examples, and
//!   benchmarks: it is the moral equivalent of the paper's switched
//!   Ethernet for functional purposes.
//! * [`tcp::TcpTransport`] / [`tcp::TcpServer`] — real sockets, one
//!   multiplexed session driven by a readiness reactor with handlers on
//!   a bounded [`WorkerPool`], matching the prototype's user-level
//!   server processes. The pool is the server's one request queue: it
//!   shares workers among clients by deficit round robin and answers a
//!   backlogged client's stores with `Busy`.
//!
//! Faults ([`FaultPlan`]) are injected at the server end of either
//! transport, so the client under test is the production client.
//!
//! The paper locates stripe neighbours by *broadcast* (§2.3.3). Both
//! transports expose the member set, and [`ConnectionPool::broadcast`]
//! simply queries every server — the same observable semantics on a
//! switched network.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod frame;
pub mod handler;
pub mod mem;
mod mux;
pub mod pool;
pub mod proto;
mod reactor;
pub mod tcp;
pub mod transport;
pub mod workpool;

pub use fault::FaultPlan;
pub use frame::{read_frame, write_frame};
pub use handler::RequestHandler;
pub use mem::MemTransport;
pub use pool::ConnectionPool;
pub use proto::{
    BatchItem, BatchReply, PreparedRequest, ReadSpec, Request, Response, ServerStats, StoreRange,
};
pub use transport::{Connection, PendingCall, Transport};
pub use workpool::WorkerPool;
