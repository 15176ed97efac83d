//! The server-side request dispatch interface.

use swarm_types::ClientId;

use crate::proto::{Request, Response};

/// Something that can service storage-server requests.
///
/// Implemented by `swarm_server::StorageServer`; the transports
/// ([`crate::MemTransport`], [`crate::tcp::TcpServer`]) are generic over
/// this trait so the same server logic runs in-process and over sockets.
///
/// `client` is the authenticated identity of the requester: transports
/// establish it at connection time (the TCP handshake carries it; the
/// in-memory transport is told at `connect`). ACL checks key off it.
pub trait RequestHandler: Send + Sync {
    /// Services one request on behalf of `client`.
    ///
    /// Implementations must be infallible at this boundary: internal errors
    /// are reported as [`Response::Err`], never panics, so one bad request
    /// cannot take down a server thread.
    fn handle(&self, client: ClientId, request: Request) -> Response;

    /// Services `request` without blocking, if it can.
    ///
    /// The server's reactor thread offers each read here before
    /// queueing it for a worker: answering in place skips the two context
    /// switches of the worker-pool round trip, which dominate the cost of
    /// a memory-resident read on a loaded machine. An implementation may
    /// therefore only answer requests it can serve from memory under
    /// short bookkeeping locks — anything that could touch disk or wait
    /// on I/O must return `None` and take the worker path. The default
    /// declines everything.
    fn try_handle_fast(&self, _client: ClientId, _request: &Request) -> Option<Response> {
        None
    }
}

impl<T: RequestHandler + ?Sized> RequestHandler for std::sync::Arc<T> {
    fn handle(&self, client: ClientId, request: Request) -> Response {
        (**self).handle(client, request)
    }

    fn try_handle_fast(&self, client: ClientId, request: &Request) -> Option<Response> {
        (**self).try_handle_fast(client, request)
    }
}

#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use swarm_types::{Bytes, FragmentId, SwarmError};

    /// Minimal in-memory handler used by transport tests (the real storage
    /// server lives in `swarm-server`; tests here only need the protocol
    /// plumbing).
    #[derive(Default)]
    pub struct EchoStore {
        pub fragments: Mutex<HashMap<FragmentId, Bytes>>,
    }

    impl RequestHandler for EchoStore {
        fn handle(&self, _client: ClientId, request: Request) -> Response {
            match request {
                Request::Ping => Response::Ok,
                Request::Store { fid, data, .. } => {
                    self.fragments.lock().insert(fid, data);
                    Response::Ok
                }
                Request::Read { fid, offset, len } => {
                    let frags = self.fragments.lock();
                    match frags.get(&fid) {
                        None => Response::from_error(&SwarmError::FragmentNotFound(fid)),
                        Some(data) => {
                            let start = offset as usize;
                            let end = start + len as usize;
                            if end > data.len() {
                                Response::from_error(&SwarmError::corrupt("short"))
                            } else {
                                Response::Data(data.slice(start..end))
                            }
                        }
                    }
                }
                _ => Response::Ok,
            }
        }
    }
}
