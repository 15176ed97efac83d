//! Client-side transport abstraction.

use swarm_types::{ClientId, Result, ServerId};

use crate::proto::{PreparedRequest, Request, Response};

/// An RPC that has been shipped but whose response has not been consumed.
///
/// [`Connection::start_prepared`] returns one of these; pipelined callers
/// hold a window of them and [`PendingCall::wait`] each when they choose,
/// in any order. Transports without genuine pipelining complete the call
/// inside `start_prepared` and hand back a `Ready` — callers get identical
/// semantics (window degrades to 1 effective slot) with no special-casing.
pub enum PendingCall {
    /// The call already completed (synchronous transports, or an error at
    /// submission time).
    Ready(Result<Response>),
    /// The call is in flight; the closure blocks until its response lands.
    Deferred(Box<dyn FnOnce() -> Result<Response> + Send>),
}

impl PendingCall {
    /// Wraps an already-completed call.
    pub fn ready(result: Result<Response>) -> PendingCall {
        PendingCall::Ready(result)
    }

    /// Wraps an in-flight call whose completion `wait` will block on.
    pub fn deferred(wait: impl FnOnce() -> Result<Response> + Send + 'static) -> PendingCall {
        PendingCall::Deferred(Box::new(wait))
    }

    /// Blocks until the response is available and returns it.
    ///
    /// # Errors
    ///
    /// As for [`Connection::call`].
    pub fn wait(self) -> Result<Response> {
        match self {
            PendingCall::Ready(r) => r,
            PendingCall::Deferred(f) => f(),
        }
    }
}

/// A live connection from a client to one storage server.
pub trait Connection: Send {
    /// Sends a request and waits for its reply.
    ///
    /// # Errors
    ///
    /// Returns [`swarm_types::SwarmError::ServerUnavailable`] (or an I/O
    /// error) if the server cannot be reached; protocol-level failures are
    /// returned inside the [`Response`] (`Response::Err`) so callers can
    /// distinguish "server said no" from "server gone".
    fn call(&mut self, request: &Request) -> Result<Response>;

    /// Sends a pre-encoded request (see [`PreparedRequest`]).
    ///
    /// Retry loops prepare a request once and call this on every attempt;
    /// wire transports override it to reuse the prepared header and
    /// payload without re-encoding. The default delegates to
    /// [`Connection::call`] for transports that dispatch in-process.
    ///
    /// # Errors
    ///
    /// As for [`Connection::call`].
    fn call_prepared(&mut self, prepared: &PreparedRequest) -> Result<Response> {
        self.call(prepared.request())
    }

    /// Ships a pre-encoded request without waiting for the reply.
    ///
    /// Pipelined callers keep up to [`Connection::pipeline_width`] of the
    /// returned [`PendingCall`]s outstanding and harvest them in any
    /// order. The default completes the call synchronously (one effective
    /// slot), which is correct for synchronous in-process transports; the
    /// mux transport overrides it to put many requests on the wire first.
    fn start_prepared(&mut self, prepared: &PreparedRequest) -> PendingCall {
        PendingCall::ready(self.call_prepared(prepared))
    }

    /// How many [`Connection::start_prepared`] calls can usefully be in
    /// flight at once on this connection (1 = no pipelining).
    fn pipeline_width(&self) -> usize {
        1
    }

    /// The server this connection talks to.
    fn server(&self) -> ServerId;
}

/// A factory for connections to the servers of a Swarm cluster.
///
/// Swarm clients keep one logical connection per server in their stripe
/// group; reconstruction additionally contacts every member returned by
/// [`Transport::servers`] (the paper's broadcast, §2.3.3).
pub trait Transport: Send + Sync {
    /// Opens a connection to `server`, authenticated as `client`.
    ///
    /// # Errors
    ///
    /// Returns [`swarm_types::SwarmError::ServerUnavailable`] if the server
    /// is unknown or down.
    fn connect(&self, server: ServerId, client: ClientId) -> Result<Box<dyn Connection>>;

    /// All servers currently part of the cluster, in id order.
    fn servers(&self) -> Vec<ServerId>;
}

impl<T: Transport + ?Sized> Transport for std::sync::Arc<T> {
    fn connect(&self, server: ServerId, client: ClientId) -> Result<Box<dyn Connection>> {
        (**self).connect(server, client)
    }

    fn servers(&self) -> Vec<ServerId> {
        (**self).servers()
    }
}
