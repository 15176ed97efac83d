//! The pipelined read engine — the read-side mirror of the write path's
//! [`crate::writer::WritePool`].
//!
//! The paper's prototype issued one synchronous `Read` RPC per fragment
//! access, so a scan of N blocks cost N round trips and the network sat
//! idle while the server seeked. [`ReadEngine`] closes that gap two ways:
//!
//! * **Windowing** — up to [`swarm_net::pool::WINDOW`] read RPCs stay
//!   outstanding per server, across however many servers a fetch touches,
//!   through the pool's one fan-out loop ([`ConnectionPool::fan_out`]):
//!   pending calls started and harvested by the calling thread, no thread
//!   per server. On a multiplexed transport a server's window rides one
//!   socket; a transport whose connections report `pipeline_width() == 1`
//!   completes each call as it is started, which is the paper's serial
//!   read path — the depth is not an option.
//! * **Batching** — runs of reads against one server collapse into
//!   [`Request::ReadBatch`] RPCs ([`BATCH_CHUNK`] fragments per call), so
//!   a scan or stripe fetch is a single round trip per server. Batch
//!   requests carry no payload, which routes them onto the mux's priority
//!   lane — reads overtake queued store payloads instead of waiting out a
//!   window of 1 MiB writes (the YCSB-B head-of-line fix).
//!
//! A transport-level failure mid-window poisons every sibling call on the
//! shared channel; the fan-out replays each affected request on a fresh
//! dial — so a bounced connection costs a retry, never a wrong result.

use std::sync::Arc;

use swarm_net::proto::wire_error;
use swarm_net::{ConnectionPool, ReadSpec, Request, Response};
use swarm_types::{Bytes, FragmentId, Result, ServerId, SwarmError};

use crate::fragment::{parse_header, FragmentHeader, LOCATE_HEADER_LEN};

/// Reads folded into one `ReadBatch` RPC. Bounded so a huge scan neither
/// builds an unbounded reply frame nor stalls the window behind one
/// mega-request.
pub const BATCH_CHUNK: usize = 16;

struct ReaderMetrics {
    batches: swarm_metrics::Counter,
    batched_reads: swarm_metrics::Counter,
}

fn metrics() -> &'static ReaderMetrics {
    static M: std::sync::OnceLock<ReaderMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| ReaderMetrics {
        batches: swarm_metrics::counter("log.read_batches"),
        batched_reads: swarm_metrics::counter("log.batched_reads"),
    })
}

/// Duplicates an error for fanning one whole-RPC failure out to every
/// read the RPC carried ([`SwarmError`] holds `io::Error` and cannot be
/// `Clone`). The unavailability variants — which the read path's
/// reconstruction fallback keys on — are rebuilt exactly; the rest
/// round-trip through the wire encoding, which keeps their category.
fn clone_error(e: &SwarmError) -> SwarmError {
    match e {
        SwarmError::ServerUnavailable(s) => SwarmError::ServerUnavailable(*s),
        SwarmError::Io(io) => SwarmError::Io(std::io::Error::new(io.kind(), io.to_string())),
        other => {
            let (code, datum, detail) = wire_error::to_wire(other);
            wire_error::from_wire(code, datum, detail)
        }
    }
}

/// A windowed, batching read front-end over a shared [`ConnectionPool`].
///
/// Cheap to clone (an `Arc`); the log, reconstruction, and recovery all
/// drive their reads through one of these.
#[derive(Clone, Debug)]
pub struct ReadEngine {
    pool: Arc<ConnectionPool>,
}

impl ReadEngine {
    /// Creates an engine reading through `pool`.
    pub fn new(pool: Arc<ConnectionPool>) -> ReadEngine {
        ReadEngine { pool }
    }

    /// The connection pool this engine reads through.
    pub fn pool(&self) -> &Arc<ConnectionPool> {
        &self.pool
    }

    /// Issues `jobs` through the pool's fan-out: responses in job order
    /// (see [`ConnectionPool::fan_out`]).
    pub fn run(&self, jobs: Vec<(ServerId, Request)>) -> Vec<Result<Response>> {
        self.pool.fan_out(jobs)
    }

    /// One ranged read per job, from any number of servers at once. Per
    /// server, runs of reads collapse into `ReadBatch` RPCs of up to
    /// [`BATCH_CHUNK`]; every server's RPCs ride its own window in one
    /// fan-out. Results are in job order. Each `Ok` is a shared view of its
    /// reply frame — no copy. Per-read failures (a missing fragment
    /// mid-scan) are per-element `Err`s; they do not poison the rest of
    /// their batch.
    pub fn fetch_scatter(&self, jobs: &[(ServerId, ReadSpec)]) -> Vec<Result<Bytes>> {
        let m = metrics();
        // Job indices per server, in job order.
        let mut homes: Vec<(ServerId, Vec<usize>)> = Vec::new();
        for (job, &(server, _)) in jobs.iter().enumerate() {
            match homes.iter_mut().find(|(s, _)| *s == server) {
                Some((_, list)) => list.push(job),
                None => homes.push((server, vec![job])),
            }
        }
        let chunks: Vec<(ServerId, &[usize])> = (homes.iter())
            .flat_map(|(server, list)| list.chunks(BATCH_CHUNK).map(|chunk| (*server, chunk)))
            .collect();
        let requests = chunks.iter().map(|&(server, chunk)| {
            let request = match *chunk {
                [job] => {
                    let ReadSpec { fid, offset, len } = jobs[job].1;
                    Request::Read { fid, offset, len }
                }
                _ => {
                    m.batches.inc();
                    m.batched_reads.add(chunk.len() as u64);
                    let reads = chunk.iter().map(|&job| jobs[job].1).collect();
                    Request::ReadBatch { reads }
                }
            };
            (server, request)
        });
        let responses = self.run(requests.collect());
        let mut out: Vec<Option<Result<Bytes>>> = Vec::new();
        out.resize_with(jobs.len(), || None);
        for ((_, chunk), resp) in chunks.into_iter().zip(responses) {
            for (&job, result) in chunk.iter().zip(unpack(chunk.len(), resp)) {
                out[job] = Some(result);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every job answered"))
            .collect()
    }

    /// [`ReadEngine::fetch_scatter`] with every spec on one server.
    pub fn fetch_from(&self, server: ServerId, specs: &[ReadSpec]) -> Vec<Result<Bytes>> {
        let jobs: Vec<_> = specs.iter().map(|&spec| (server, spec)).collect();
        self.fetch_scatter(&jobs)
    }

    /// One ranged read — a single-spec [`ReadEngine::fetch_from`].
    pub fn read_one(
        &self,
        server: ServerId,
        fid: FragmentId,
        offset: u32,
        len: u32,
    ) -> Result<Bytes> {
        self.fetch_from(server, &[ReadSpec { fid, offset, len }])
            .pop()
            .expect("one spec yields one result")
    }

    /// Asks each job's server for its fragment's header: one windowed pass
    /// of `Locate`s. `Ok(None)` means that server does not hold that
    /// fragment.
    pub fn locate_each(
        &self,
        jobs: &[(ServerId, FragmentId)],
    ) -> Vec<Result<Option<FragmentHeader>>> {
        let locates = jobs.iter().map(|&(server, fid)| {
            let header_len = LOCATE_HEADER_LEN;
            (server, Request::Locate { fid, header_len })
        });
        (self.run(locates.collect()).into_iter())
            .map(|resp| match resp?.into_result()? {
                Response::Located(Some(prefix)) => parse_header(&prefix).map(Some),
                Response::Located(None) => Ok(None),
                other => Err(SwarmError::protocol(format!(
                    "unexpected locate reply {other:?}"
                ))),
            })
            .collect()
    }
}

/// The read that returns all of fragment `fid`, whose header is `header`.
pub(crate) fn whole_fragment(fid: FragmentId, header: &FragmentHeader) -> ReadSpec {
    ReadSpec {
        fid,
        offset: 0,
        len: header.encoded_len() as u32 + header.body_len,
    }
}

/// Spreads the reply to a read RPC that carried `n` reads into one result
/// per read.
fn unpack(n: usize, resp: Result<Response>) -> Vec<Result<Bytes>> {
    let protocol = |detail: String| {
        let errors = (0..n).map(|_| Err(SwarmError::protocol(detail.clone())));
        errors.collect()
    };
    match resp.and_then(Response::into_result) {
        Ok(Response::Data(bytes)) if n == 1 => vec![Ok(bytes)],
        Ok(Response::Batch(reply)) => {
            let results = reply.into_results();
            if results.len() == n {
                return results;
            }
            protocol(format!(
                "batch reply carried {} results for {n} reads",
                results.len()
            ))
        }
        Ok(other) => protocol(format!("unexpected read reply {other:?}")),
        Err(e) => {
            let mut errors: Vec<_> = (1..n).map(|_| Err(clone_error(&e))).collect();
            errors.push(Err(e));
            errors
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_net::MemTransport;
    use swarm_server::{MemStore, StorageServer};
    use swarm_types::ClientId;

    fn pool_with_cluster(n: u32) -> (Arc<ConnectionPool>, Arc<MemTransport>) {
        let transport = Arc::new(MemTransport::new());
        for i in 0..n {
            let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
            transport.register(ServerId::new(i), srv.clone());
        }
        let pool = Arc::new(ConnectionPool::new(
            transport.clone() as Arc<dyn swarm_net::Transport>,
            ClientId::new(1),
        ));
        (pool, transport)
    }

    fn fid(seq: u64) -> FragmentId {
        FragmentId::new(ClientId::new(1), seq)
    }

    fn store(pool: &ConnectionPool, server: u32, seq: u64, data: Vec<u8>) {
        pool.call(
            ServerId::new(server),
            &Request::Store {
                fid: fid(seq),
                marked: false,
                ranges: vec![],
                data: data.into(),
            },
        )
        .unwrap()
        .into_result()
        .unwrap();
    }

    #[test]
    fn fetch_from_returns_results_in_spec_order() {
        let (pool, _t) = pool_with_cluster(1);
        for seq in 0..40 {
            store(&pool, 0, seq, vec![seq as u8; 64]);
        }
        let engine = ReadEngine::new(pool);
        // 40 specs span 3 chunks; order must survive chunking + windowing.
        let specs: Vec<ReadSpec> = (0..40)
            .map(|seq| ReadSpec {
                fid: fid(seq),
                offset: 2,
                len: 8,
            })
            .collect();
        let results = engine.fetch_from(ServerId::new(0), &specs);
        assert_eq!(results.len(), 40);
        for (seq, r) in results.into_iter().enumerate() {
            assert_eq!(r.unwrap().as_slice(), &[seq as u8; 8][..], "spec {seq}");
        }
    }

    #[test]
    fn missing_fragment_fails_only_its_own_slot() {
        let (pool, _t) = pool_with_cluster(1);
        store(&pool, 0, 0, vec![1; 16]);
        store(&pool, 0, 2, vec![3; 16]);
        let engine = ReadEngine::new(pool);
        let specs: Vec<ReadSpec> = (0..3)
            .map(|seq| ReadSpec {
                fid: fid(seq),
                offset: 0,
                len: 16,
            })
            .collect();
        let results = engine.fetch_from(ServerId::new(0), &specs);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(SwarmError::FragmentNotFound(f)) if f == fid(1)
        ));
        assert!(results[2].is_ok());
    }

    #[test]
    fn down_server_fails_every_spec_with_unavailability() {
        let (pool, transport) = pool_with_cluster(1);
        store(&pool, 0, 0, vec![1; 16]);
        transport.set_down(ServerId::new(0), true);
        let engine = ReadEngine::new(pool);
        let specs: Vec<ReadSpec> = (0..5)
            .map(|seq| ReadSpec {
                fid: fid(seq),
                offset: 0,
                len: 16,
            })
            .collect();
        for r in engine.fetch_from(ServerId::new(0), &specs) {
            let e = r.unwrap_err();
            assert!(e.is_unavailability(), "{e}");
        }
    }

    #[test]
    fn fetch_scatter_keeps_job_order() {
        let (pool, _t) = pool_with_cluster(3);
        for server in 0..3u32 {
            store(&pool, server, 100 + server as u64, vec![server as u8; 32]);
        }
        let engine = ReadEngine::new(pool);
        // Two passes over the servers, interleaved: 2, 1, 0, 2, 1, 0.
        let jobs: Vec<(ServerId, ReadSpec)> = (0..6u32)
            .map(|i| 2 - i % 3)
            .map(|server| {
                let spec = ReadSpec {
                    fid: fid(100 + server as u64),
                    offset: 0,
                    len: 32,
                };
                (ServerId::new(server), spec)
            })
            .collect();
        for ((server, _), result) in jobs.iter().zip(engine.fetch_scatter(&jobs)) {
            assert_eq!(result.unwrap().as_slice(), &[server.raw() as u8; 32][..]);
        }
    }
}
