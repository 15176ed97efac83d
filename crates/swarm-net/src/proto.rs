//! The Swarm storage-server protocol.
//!
//! §2.3 of the paper: "The fragment operations supported by the server
//! consist of storing data in a fragment, retrieving data from a fragment,
//! deleting a fragment, preallocating space for a fragment, and querying
//! the FID of the last marked fragment", plus ACL management (§2.3.2). The
//! prototype used TCL scripts as its request encoding; we use the typed
//! binary messages below (the paper notes the encoding overhead was
//! inconsequential because every operation involves a disk access).
//!
//! Fragments are opaque to servers: `Store` carries raw bytes assembled by
//! the client's log layer, and `Locate` (used during reconstruction,
//! §2.3.3) returns a *prefix* of those bytes — the log layer keeps its
//! self-identifying stripe-group header at the front of every fragment.

use swarm_types::{
    Aid, ByteReader, ByteWriter, Bytes, ClientId, Decode, Encode, FragmentId, Result, SwarmError,
};

/// An access-controlled byte range within a stored fragment (§2.3.2).
///
/// "When a fragment is stored each non-overlapping byte range can be
/// assigned an AID."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreRange {
    /// Offset of the protected range within the fragment.
    pub offset: u32,
    /// Length of the protected range.
    pub len: u32,
    /// ACL protecting the range.
    pub aid: Aid,
}

impl Encode for StoreRange {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.offset);
        w.put_u32(self.len);
        self.aid.encode(w);
    }
}

impl Decode for StoreRange {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(StoreRange {
            offset: r.get_u32()?,
            len: r.get_u32()?,
            aid: Aid::decode(r)?,
        })
    }
}

/// One read within a [`Request::ReadBatch`]: the same `(fid, offset,
/// len)` triple as [`Request::Read`], batched so a scan or stripe fetch
/// against one server costs a single round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReadSpec {
    /// Fragment to read from.
    pub fid: FragmentId,
    /// Starting byte offset.
    pub offset: u32,
    /// Number of bytes to return.
    pub len: u32,
}

impl Encode for ReadSpec {
    fn encode(&self, w: &mut ByteWriter) {
        self.fid.encode(w);
        w.put_u32(self.offset);
        w.put_u32(self.len);
    }
}

impl Decode for ReadSpec {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(ReadSpec {
            fid: FragmentId::decode(r)?,
            offset: r.get_u32()?,
            len: r.get_u32()?,
        })
    }
}

/// Per-read outcome inside a [`Response::Batch`], in request order.
///
/// `Data { len }` claims the next `len` bytes of the reply's single
/// concatenated payload; `Err` carries the same wire triple as
/// [`Response::Err`]. Reads fail independently — one missing fragment
/// does not poison its batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchItem {
    /// The read succeeded; its bytes are the next `len` of the payload.
    Data {
        /// Byte count this read contributes to the shared payload.
        len: u32,
    },
    /// The read failed; see [`wire_error`].
    Err {
        /// Error category code (see `wire_error` mapping).
        code: u16,
        /// Associated 64-bit datum (usually a fragment id).
        datum: u64,
        /// Human-readable detail.
        detail: String,
    },
}

/// The reply to a [`Request::ReadBatch`]: per-read outcomes plus one
/// concatenated data payload.
///
/// The single-payload shape is deliberate: `encode_split` hands the
/// framing layer at most one bulk slice, so a batch reply rides the same
/// vectored zero-copy path as [`Response::Data`], and on the receive
/// side every successful read is a [`Bytes::slice`] view of the frame
/// allocation — N reads, one allocation, zero copies client-side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReply {
    /// Per-read outcomes, in request order.
    pub items: Vec<BatchItem>,
    /// Every successful read's bytes, concatenated in request order.
    pub data: Bytes,
}

impl BatchReply {
    /// Builds a reply from per-read results (server side). Successful
    /// payloads are concatenated here — the one copy a batch costs.
    pub fn from_results(results: Vec<Result<Bytes>>) -> BatchReply {
        let total: usize = results
            .iter()
            .map(|r| r.as_ref().map_or(0, |b| b.len()))
            .sum();
        let mut data = Vec::with_capacity(total);
        let mut items = Vec::with_capacity(results.len());
        for r in results {
            match r {
                Ok(bytes) => {
                    items.push(BatchItem::Data {
                        len: u32::try_from(bytes.len()).expect("field too long"),
                    });
                    data.extend_from_slice(&bytes);
                }
                Err(e) => {
                    let (code, datum, detail) = wire_error::to_wire(&e);
                    items.push(BatchItem::Err {
                        code,
                        datum,
                        detail,
                    });
                }
            }
        }
        BatchReply {
            items,
            data: data.into(),
        }
    }

    /// Splits the reply back into per-read results (client side). Each
    /// `Ok` is a shared slice of the reply payload — no copy.
    pub fn into_results(self) -> Vec<Result<Bytes>> {
        let mut out = Vec::with_capacity(self.items.len());
        let mut off = 0usize;
        for item in self.items {
            match item {
                BatchItem::Data { len } => {
                    let len = len as usize;
                    out.push(Ok(self.data.slice(off..off + len)));
                    off += len;
                }
                BatchItem::Err {
                    code,
                    datum,
                    detail,
                } => out.push(Err(wire_error::from_wire(code, datum, detail))),
            }
        }
        out
    }
}

/// Point-in-time counters describing one storage server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Fragments currently stored.
    pub fragments: u64,
    /// Bytes of fragment data currently stored.
    pub bytes: u64,
    /// Total store operations accepted since start.
    pub stores: u64,
    /// Total read operations served since start.
    pub reads: u64,
    /// Total delete operations since start.
    pub deletes: u64,
    /// Slot capacity (0 = unbounded).
    pub capacity_fragments: u64,
}

impl Encode for ServerStats {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.fragments);
        w.put_u64(self.bytes);
        w.put_u64(self.stores);
        w.put_u64(self.reads);
        w.put_u64(self.deletes);
        w.put_u64(self.capacity_fragments);
    }
}

impl Decode for ServerStats {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(ServerStats {
            fragments: r.get_u64()?,
            bytes: r.get_u64()?,
            stores: r.get_u64()?,
            reads: r.get_u64()?,
            deletes: r.get_u64()?,
            capacity_fragments: r.get_u64()?,
        })
    }
}

/// A request from a client to a storage server.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Request {
    /// Store a complete fragment. Atomic: after a crash the fragment either
    /// exists in full or not at all (§2.3.1).
    Store {
        /// Fragment id chosen by the client.
        fid: FragmentId,
        /// Marked fragments are returned by [`Request::LastMarked`];
        /// clients store checkpoints in marked fragments (§2.3.1).
        marked: bool,
        /// Access-controlled byte ranges (may be empty = world access).
        ranges: Vec<StoreRange>,
        /// Opaque fragment bytes assembled by the log layer. A shared
        /// [`Bytes`] view: the writer, retry loop, and parity accumulator
        /// all alias the sealed fragment's single allocation.
        data: Bytes,
    },
    /// Read `len` bytes at `offset` within fragment `fid`.
    Read {
        /// Fragment to read from.
        fid: FragmentId,
        /// Starting byte offset.
        offset: u32,
        /// Number of bytes to return.
        len: u32,
    },
    /// Execute several reads in one round trip (scan / stripe fetch).
    /// Served as a single worker job; answered by [`Response::Batch`].
    /// Reads fail independently, and batch reads bypass the server's
    /// read-cache *admission* (they still probe it) so a sweep cannot
    /// evict the hot set.
    ReadBatch {
        /// The reads, answered in order.
        reads: Vec<ReadSpec>,
    },
    /// Delete a fragment (invoked by the cleaner once a stripe is dead).
    Delete {
        /// Fragment to delete.
        fid: FragmentId,
    },
    /// Reserve a slot for a future fragment so a later `Store` cannot fail
    /// for lack of space.
    Preallocate {
        /// Fragment id the slot is reserved for.
        fid: FragmentId,
        /// Expected fragment length in bytes.
        len: u32,
    },
    /// Return the id of the newest *marked* fragment this client has stored
    /// on this server (checkpoint discovery after a crash, §2.3.1).
    LastMarked,
    /// Does this server hold `fid`? If so return the first `header_len`
    /// bytes (the log layer's self-identifying header). Used by broadcast
    /// reconstruction (§2.3.3).
    Locate {
        /// Fragment being sought.
        fid: FragmentId,
        /// How many leading bytes of the fragment to return.
        header_len: u32,
    },
    /// Create an ACL whose members are `members`; the server assigns the id.
    AclCreate {
        /// Initial member list.
        members: Vec<ClientId>,
    },
    /// Add and/or remove members of an existing ACL.
    AclModify {
        /// ACL to change.
        aid: Aid,
        /// Clients to add.
        add: Vec<ClientId>,
        /// Clients to remove.
        remove: Vec<ClientId>,
    },
    /// Delete an ACL.
    AclDelete {
        /// ACL to delete.
        aid: Aid,
    },
    /// Fetch server statistics.
    Stat,
    /// Liveness probe.
    Ping,
    /// Fetch the server process's full metrics snapshot (counters, gauges,
    /// latency histograms) as JSON. Richer than [`Request::Stat`]: covers
    /// every subsystem registered with `swarm-metrics`, not just the
    /// fragment-store counters.
    Metrics,
}

/// A reply from a storage server.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Response {
    /// Operation succeeded with nothing to return.
    Ok,
    /// `Read` succeeded. On the receive path the [`Bytes`] aliases the
    /// decoded network frame, so the data is not copied again.
    Data(Bytes),
    /// `ReadBatch` result: per-read outcomes plus one concatenated
    /// payload (see [`BatchReply`]).
    Batch(BatchReply),
    /// `LastMarked` result (None = this client has no marked fragment here).
    LastMarked(Option<FragmentId>),
    /// `Locate` result (None = fragment not stored here).
    Located(Option<Bytes>),
    /// `AclCreate` result.
    AclCreated(Aid),
    /// `Stat` result.
    Stats(ServerStats),
    /// `Metrics` result: a JSON metrics snapshot (see `swarm-metrics`).
    Metrics(String),
    /// The operation failed; see [`wire_error`].
    Err {
        /// Error category code (see `wire_error` mapping).
        code: u16,
        /// Associated 64-bit datum (usually a fragment id).
        datum: u64,
        /// Human-readable detail.
        detail: String,
    },
}

impl Response {
    /// Converts an error into its wire representation.
    pub fn from_error(err: &SwarmError) -> Response {
        let (code, datum, detail) = wire_error::to_wire(err);
        Response::Err {
            code,
            datum,
            detail,
        }
    }

    /// If this response is an error, converts it back into a [`SwarmError`].
    pub fn into_result(self) -> Result<Response> {
        match self {
            Response::Err {
                code,
                datum,
                detail,
            } => Err(wire_error::from_wire(code, datum, detail)),
            other => Ok(other),
        }
    }
}

/// Mapping between [`SwarmError`] and the `(code, datum, detail)` triple
/// carried by [`Response::Err`]. Keeping errors typed across the wire lets
/// the log layer react to `FragmentNotFound` (trigger reconstruction)
/// differently from `AccessDenied` (report to the caller).
pub mod wire_error {
    use swarm_types::{Aid, FragmentId, ServerId, SwarmError};

    /// Error category codes; stable across releases.
    pub mod code {
        /// Fragment not found on the server.
        pub const FRAGMENT_NOT_FOUND: u16 = 1;
        /// Fragment already exists.
        pub const FRAGMENT_EXISTS: u16 = 2;
        /// Read past end of fragment.
        pub const RANGE: u16 = 3;
        /// ACL denied the operation.
        pub const ACCESS_DENIED: u16 = 4;
        /// Unknown ACL id.
        pub const ACL_NOT_FOUND: u16 = 5;
        /// Server out of slots.
        pub const OUT_OF_SPACE: u16 = 6;
        /// Malformed request.
        pub const PROTOCOL: u16 = 7;
        /// Server-side I/O failure.
        pub const IO: u16 = 8;
        /// Stored data failed validation.
        pub const CORRUPT: u16 = 9;
        /// Admission throttled: the server bounded this client's backlog.
        /// Retryable pushback — the writer backs off and resubmits.
        pub const BUSY: u16 = 10;
        /// Anything else.
        pub const OTHER: u16 = 255;
    }

    /// Encodes `err` as a `(code, datum, detail)` triple.
    pub fn to_wire(err: &SwarmError) -> (u16, u64, String) {
        match err {
            SwarmError::FragmentNotFound(fid) => {
                (code::FRAGMENT_NOT_FOUND, fid.raw(), String::new())
            }
            SwarmError::FragmentExists(fid) => (code::FRAGMENT_EXISTS, fid.raw(), String::new()),
            SwarmError::RangeOutOfBounds { addr, stored } => (
                code::RANGE,
                addr.fid.raw(),
                format!("offset {} len {} stored {stored}", addr.offset, addr.len),
            ),
            SwarmError::AccessDenied { aid, op } => {
                (code::ACCESS_DENIED, aid.raw() as u64, (*op).to_string())
            }
            SwarmError::AclNotFound(aid) => (code::ACL_NOT_FOUND, aid.raw() as u64, String::new()),
            SwarmError::OutOfSpace(m) => (code::OUT_OF_SPACE, 0, m.clone()),
            SwarmError::Protocol(m) => (code::PROTOCOL, 0, m.clone()),
            SwarmError::Io(e) => (code::IO, 0, e.to_string()),
            SwarmError::Corrupt(m) => (code::CORRUPT, 0, m.clone()),
            SwarmError::Busy(server) => (code::BUSY, u64::from(server.raw()), String::new()),
            other => (code::OTHER, 0, other.to_string()),
        }
    }

    /// Decodes a wire triple back into a [`SwarmError`].
    pub fn from_wire(c: u16, datum: u64, detail: String) -> SwarmError {
        match c {
            code::FRAGMENT_NOT_FOUND => SwarmError::FragmentNotFound(FragmentId::from_raw(datum)),
            code::FRAGMENT_EXISTS => SwarmError::FragmentExists(FragmentId::from_raw(datum)),
            code::RANGE => SwarmError::corrupt(format!(
                "range error on fragment {}: {detail}",
                FragmentId::from_raw(datum)
            )),
            code::ACCESS_DENIED => SwarmError::AccessDenied {
                aid: Aid::new(datum as u32),
                op: "remote operation",
            },
            code::ACL_NOT_FOUND => SwarmError::AclNotFound(Aid::new(datum as u32)),
            code::OUT_OF_SPACE => SwarmError::OutOfSpace(detail),
            code::PROTOCOL => SwarmError::Protocol(detail),
            code::IO => SwarmError::Other(format!("remote i/o error: {detail}")),
            code::CORRUPT => SwarmError::Corrupt(detail),
            code::BUSY => SwarmError::Busy(ServerId::new(datum as u32)),
            _ => SwarmError::Other(detail),
        }
    }
}

pub(crate) mod tag {
    pub const STORE: u8 = 1;
    pub const READ: u8 = 2;
    pub const DELETE: u8 = 3;
    pub const PREALLOCATE: u8 = 4;
    pub const LAST_MARKED: u8 = 5;
    pub const LOCATE: u8 = 6;
    pub const ACL_CREATE: u8 = 7;
    pub const ACL_MODIFY: u8 = 8;
    pub const ACL_DELETE: u8 = 9;
    pub const STAT: u8 = 10;
    pub const PING: u8 = 11;
    pub const METRICS: u8 = 12;
    pub const READ_BATCH: u8 = 13;
    // 14, 15 and 136 carried a cooperative cache between clients, since
    // removed. They are retired: decoders refuse them, and no new message
    // may reuse them.

    pub const R_OK: u8 = 128;
    pub const R_DATA: u8 = 129;
    pub const R_LAST_MARKED: u8 = 130;
    pub const R_LOCATED: u8 = 131;
    pub const R_ACL_CREATED: u8 = 132;
    pub const R_STATS: u8 = 133;
    pub const R_METRICS: u8 = 134;
    pub const R_BATCH: u8 = 135;
    pub const R_ERR: u8 = 255;
}

impl Request {
    /// Encodes this request into `w`, stopping short of the bulk payload
    /// bytes; if the variant carries a payload, its length prefix is
    /// written and the raw bytes are returned for the caller to append.
    ///
    /// `header ++ returned-payload` is byte-identical to
    /// [`Encode::encode`] output — `Encode` is implemented in terms of
    /// this method — so a peer cannot tell which path produced a frame.
    /// The TCP send path frames the two pieces with
    /// [`crate::frame::frame_header_for`] and queues them as separate
    /// segments, which is how a 1 MB store reaches the socket without ever
    /// being copied into a contiguous message buffer.
    pub fn encode_split<'a>(&'a self, w: &mut ByteWriter) -> Option<&'a [u8]> {
        match self {
            Request::Store {
                fid,
                marked,
                ranges,
                data,
            } => {
                w.put_u8(tag::STORE);
                fid.encode(w);
                w.put_bool(*marked);
                w.put_u32(ranges.len() as u32);
                for r in ranges {
                    r.encode(w);
                }
                w.put_u32(u32::try_from(data.len()).expect("field too long"));
                return Some(data);
            }
            Request::Read { fid, offset, len } => {
                w.put_u8(tag::READ);
                fid.encode(w);
                w.put_u32(*offset);
                w.put_u32(*len);
            }
            Request::ReadBatch { reads } => {
                w.put_u8(tag::READ_BATCH);
                w.put_u32(reads.len() as u32);
                for spec in reads {
                    spec.encode(w);
                }
            }
            Request::Delete { fid } => {
                w.put_u8(tag::DELETE);
                fid.encode(w);
            }
            Request::Preallocate { fid, len } => {
                w.put_u8(tag::PREALLOCATE);
                fid.encode(w);
                w.put_u32(*len);
            }
            Request::LastMarked => w.put_u8(tag::LAST_MARKED),
            Request::Locate { fid, header_len } => {
                w.put_u8(tag::LOCATE);
                fid.encode(w);
                w.put_u32(*header_len);
            }
            Request::AclCreate { members } => {
                w.put_u8(tag::ACL_CREATE);
                members.encode(w);
            }
            Request::AclModify { aid, add, remove } => {
                w.put_u8(tag::ACL_MODIFY);
                aid.encode(w);
                add.encode(w);
                remove.encode(w);
            }
            Request::AclDelete { aid } => {
                w.put_u8(tag::ACL_DELETE);
                aid.encode(w);
            }
            Request::Stat => w.put_u8(tag::STAT),
            Request::Ping => w.put_u8(tag::PING),
            Request::Metrics => w.put_u8(tag::METRICS),
        }
        None
    }
}

impl Encode for Request {
    fn encode(&self, w: &mut ByteWriter) {
        if let Some(payload) = self.encode_split(w) {
            w.put_raw(payload);
        }
    }
}

impl Decode for Request {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let t = r.get_u8()?;
        Ok(match t {
            tag::STORE => {
                let fid = FragmentId::decode(r)?;
                let marked = r.get_bool()?;
                let n = r.get_u32()? as usize;
                if n > crate::frame::MAX_FRAME_LEN / 12 {
                    return Err(SwarmError::corrupt("too many store ranges"));
                }
                let mut ranges = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    ranges.push(StoreRange::decode(r)?);
                }
                let data = r.get_shared_bytes()?;
                Request::Store {
                    fid,
                    marked,
                    ranges,
                    data,
                }
            }
            tag::READ => Request::Read {
                fid: FragmentId::decode(r)?,
                offset: r.get_u32()?,
                len: r.get_u32()?,
            },
            tag::READ_BATCH => {
                let n = r.get_u32()? as usize;
                if n > crate::frame::MAX_FRAME_LEN / 16 {
                    return Err(SwarmError::corrupt("too many batch reads"));
                }
                let mut reads = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    reads.push(ReadSpec::decode(r)?);
                }
                Request::ReadBatch { reads }
            }
            tag::DELETE => Request::Delete {
                fid: FragmentId::decode(r)?,
            },
            tag::PREALLOCATE => Request::Preallocate {
                fid: FragmentId::decode(r)?,
                len: r.get_u32()?,
            },
            tag::LAST_MARKED => Request::LastMarked,
            tag::LOCATE => Request::Locate {
                fid: FragmentId::decode(r)?,
                header_len: r.get_u32()?,
            },
            tag::ACL_CREATE => Request::AclCreate {
                members: Vec::<ClientId>::decode(r)?,
            },
            tag::ACL_MODIFY => Request::AclModify {
                aid: Aid::decode(r)?,
                add: Vec::<ClientId>::decode(r)?,
                remove: Vec::<ClientId>::decode(r)?,
            },
            tag::ACL_DELETE => Request::AclDelete {
                aid: Aid::decode(r)?,
            },
            tag::STAT => Request::Stat,
            tag::PING => Request::Ping,
            tag::METRICS => Request::Metrics,
            other => return Err(SwarmError::protocol(format!("unknown request tag {other}"))),
        })
    }
}

impl Response {
    /// The response-side twin of [`Request::encode_split`]: encodes up to
    /// (and including) the payload length prefix, returning the raw
    /// payload bytes — if any — for the caller to append or send
    /// vectored.
    pub fn encode_split<'a>(&'a self, w: &mut ByteWriter) -> Option<&'a [u8]> {
        match self {
            Response::Ok => w.put_u8(tag::R_OK),
            Response::Data(data) => {
                w.put_u8(tag::R_DATA);
                w.put_u32(u32::try_from(data.len()).expect("field too long"));
                return Some(data);
            }
            Response::Batch(reply) => {
                w.put_u8(tag::R_BATCH);
                w.put_u32(reply.items.len() as u32);
                for item in &reply.items {
                    match item {
                        BatchItem::Data { len } => {
                            w.put_bool(true);
                            w.put_u32(*len);
                        }
                        BatchItem::Err {
                            code,
                            datum,
                            detail,
                        } => {
                            w.put_bool(false);
                            w.put_u16(*code);
                            w.put_u64(*datum);
                            w.put_str(detail);
                        }
                    }
                }
                w.put_u32(u32::try_from(reply.data.len()).expect("field too long"));
                return Some(&reply.data);
            }
            Response::LastMarked(fid) => {
                w.put_u8(tag::R_LAST_MARKED);
                fid.encode(w);
            }
            Response::Located(header) => {
                w.put_u8(tag::R_LOCATED);
                match header {
                    None => w.put_bool(false),
                    Some(h) => {
                        w.put_bool(true);
                        w.put_u32(u32::try_from(h.len()).expect("field too long"));
                        return Some(h);
                    }
                }
            }
            Response::AclCreated(aid) => {
                w.put_u8(tag::R_ACL_CREATED);
                aid.encode(w);
            }
            Response::Stats(s) => {
                w.put_u8(tag::R_STATS);
                s.encode(w);
            }
            Response::Metrics(json) => {
                w.put_u8(tag::R_METRICS);
                w.put_str(json);
            }
            Response::Err {
                code,
                datum,
                detail,
            } => {
                w.put_u8(tag::R_ERR);
                w.put_u16(*code);
                w.put_u64(*datum);
                w.put_str(detail);
            }
        }
        None
    }
}

impl Encode for Response {
    fn encode(&self, w: &mut ByteWriter) {
        if let Some(payload) = self.encode_split(w) {
            w.put_raw(payload);
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let t = r.get_u8()?;
        Ok(match t {
            tag::R_OK => Response::Ok,
            tag::R_DATA => Response::Data(r.get_shared_bytes()?),
            tag::R_BATCH => {
                let n = r.get_u32()? as usize;
                if n > crate::frame::MAX_FRAME_LEN / 16 {
                    return Err(SwarmError::corrupt("too many batch items"));
                }
                let mut items = Vec::with_capacity(n.min(1024));
                let mut claimed = 0u64;
                for _ in 0..n {
                    if r.get_bool()? {
                        let len = r.get_u32()?;
                        claimed += u64::from(len);
                        items.push(BatchItem::Data { len });
                    } else {
                        items.push(BatchItem::Err {
                            code: r.get_u16()?,
                            datum: r.get_u64()?,
                            detail: r.get_str()?,
                        });
                    }
                }
                let data = r.get_shared_bytes()?;
                if claimed != data.len() as u64 {
                    return Err(SwarmError::corrupt(format!(
                        "batch items claim {claimed} payload bytes, frame carries {}",
                        data.len()
                    )));
                }
                Response::Batch(BatchReply { items, data })
            }
            tag::R_LAST_MARKED => Response::LastMarked(Option::<FragmentId>::decode(r)?),
            tag::R_LOCATED => {
                if r.get_bool()? {
                    Response::Located(Some(r.get_shared_bytes()?))
                } else {
                    Response::Located(None)
                }
            }
            tag::R_ACL_CREATED => Response::AclCreated(Aid::decode(r)?),
            tag::R_STATS => Response::Stats(ServerStats::decode(r)?),
            tag::R_METRICS => Response::Metrics(r.get_str()?),
            tag::R_ERR => Response::Err {
                code: r.get_u16()?,
                datum: r.get_u64()?,
                detail: r.get_str()?,
            },
            other => {
                return Err(SwarmError::protocol(format!(
                    "unknown response tag {other}"
                )))
            }
        })
    }
}

/// A request encoded once, up front, so retries reuse both the header
/// bytes and the shared payload buffer.
///
/// The write pool prepares each `Store` exactly once before entering its
/// retry loop; every attempt (and every reconnect) then ships the same
/// header slice and the same [`Bytes`] payload. Nothing is re-encoded
/// and nothing is re-cloned, no matter how many times the send is
/// retried.
#[derive(Debug, Clone)]
pub struct PreparedRequest {
    request: Request,
    header: Vec<u8>,
    payload: Bytes,
}

impl PreparedRequest {
    /// Encodes `request`'s header and captures its payload view.
    pub fn new(request: Request) -> PreparedRequest {
        let mut w = ByteWriter::new();
        let _ = request.encode_split(&mut w);
        let payload = match &request {
            Request::Store { data, .. } => data.share(),
            _ => Bytes::new(),
        };
        PreparedRequest {
            request,
            header: w.into_bytes(),
            payload,
        }
    }

    /// The original request (for transports that dispatch in-process).
    pub fn request(&self) -> &Request {
        &self.request
    }

    /// The pre-encoded message header, including the payload length
    /// prefix. `header() ++ payload()` is the full encoded request.
    pub fn header(&self) -> &[u8] {
        &self.header
    }

    /// The bulk payload (empty for payload-free requests), aliasing the
    /// buffer the request was built from.
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_types::{BlockAddr, ServerId};

    fn roundtrip_req(req: Request) {
        let buf = req.encode_to_vec();
        assert_eq!(Request::decode_all(&buf).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let buf = resp.encode_to_vec();
        assert_eq!(Response::decode_all(&buf).unwrap(), resp);
    }

    fn fid(n: u64) -> FragmentId {
        FragmentId::new(ClientId::new(3), n)
    }

    #[test]
    fn all_requests_roundtrip() {
        roundtrip_req(Request::Store {
            fid: fid(1),
            marked: true,
            ranges: vec![StoreRange {
                offset: 0,
                len: 128,
                aid: Aid::new(5),
            }],
            data: vec![1, 2, 3, 4].into(),
        });
        roundtrip_req(Request::Read {
            fid: fid(2),
            offset: 17,
            len: 4096,
        });
        roundtrip_req(Request::Delete { fid: fid(3) });
        roundtrip_req(Request::Preallocate {
            fid: fid(4),
            len: 1 << 20,
        });
        roundtrip_req(Request::LastMarked);
        roundtrip_req(Request::Locate {
            fid: fid(5),
            header_len: 256,
        });
        roundtrip_req(Request::AclCreate {
            members: vec![ClientId::new(1), ClientId::new(2)],
        });
        roundtrip_req(Request::AclModify {
            aid: Aid::new(9),
            add: vec![ClientId::new(7)],
            remove: vec![],
        });
        roundtrip_req(Request::AclDelete { aid: Aid::new(9) });
        roundtrip_req(Request::Stat);
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::ReadBatch {
            reads: vec![
                ReadSpec {
                    fid: fid(6),
                    offset: 0,
                    len: 512,
                },
                ReadSpec {
                    fid: fid(7),
                    offset: 128,
                    len: 64,
                },
            ],
        });
        roundtrip_req(Request::ReadBatch { reads: vec![] });
    }

    #[test]
    fn all_responses_roundtrip() {
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Data(vec![9; 100].into()));
        roundtrip_resp(Response::LastMarked(Some(fid(8))));
        roundtrip_resp(Response::LastMarked(None));
        roundtrip_resp(Response::Located(Some(vec![1, 2].into())));
        roundtrip_resp(Response::Located(None));
        roundtrip_resp(Response::AclCreated(Aid::new(44)));
        roundtrip_resp(Response::Stats(ServerStats {
            fragments: 1,
            bytes: 2,
            stores: 3,
            reads: 4,
            deletes: 5,
            capacity_fragments: 6,
        }));
        roundtrip_resp(Response::Metrics("{\"counters\": {}}".into()));
        roundtrip_resp(Response::Err {
            code: 4,
            datum: 2,
            detail: "denied".into(),
        });
        roundtrip_resp(Response::Batch(BatchReply {
            items: vec![
                BatchItem::Data { len: 3 },
                BatchItem::Err {
                    code: 1,
                    datum: 42,
                    detail: String::new(),
                },
                BatchItem::Data { len: 2 },
            ],
            data: vec![1, 2, 3, 4, 5].into(),
        }));
        roundtrip_resp(Response::Batch(BatchReply {
            items: vec![],
            data: Bytes::new(),
        }));
    }

    #[test]
    fn batch_reply_results_roundtrip_without_copying() {
        let results = vec![
            Ok(Bytes::from(vec![7u8; 100])),
            Err(SwarmError::FragmentNotFound(fid(5))),
            Ok(Bytes::from(vec![9u8; 50])),
        ];
        let reply = BatchReply::from_results(results);
        let wire = Bytes::from(Response::Batch(reply).encode_to_vec());
        let Response::Batch(back) = Response::decode_all_shared(&wire).unwrap() else {
            panic!("wrong variant");
        };
        // The shared payload aliases the frame; every Ok slice does too.
        let frame_tail = wire[wire.len() - 150..].as_ptr();
        assert_eq!(back.data.as_ptr(), frame_tail);
        let split = back.into_results();
        assert_eq!(split.len(), 3);
        assert_eq!(split[0].as_ref().unwrap().as_ptr(), frame_tail);
        assert_eq!(split[0].as_ref().unwrap().as_slice(), &[7u8; 100][..]);
        assert!(matches!(
            split[1],
            Err(SwarmError::FragmentNotFound(f)) if f == fid(5)
        ));
        assert_eq!(split[2].as_ref().unwrap().as_slice(), &[9u8; 50][..]);
    }

    #[test]
    fn batch_reply_with_bad_length_table_is_corrupt() {
        let reply = BatchReply {
            items: vec![BatchItem::Data { len: 10 }],
            data: vec![1, 2, 3].into(),
        };
        let wire = Response::Batch(reply).encode_to_vec();
        let err = Response::decode_all(&wire).unwrap_err();
        assert!(matches!(err, SwarmError::Corrupt(_)), "{err}");
    }

    #[test]
    fn unknown_tag_is_protocol_error() {
        let err = Request::decode_all(&[200]).unwrap_err();
        assert!(matches!(err, SwarmError::Protocol(_)));
        let err = Response::decode_all(&[3]).unwrap_err();
        assert!(matches!(err, SwarmError::Protocol(_)));
    }

    #[test]
    fn typed_errors_survive_the_wire() {
        let cases = vec![
            SwarmError::FragmentNotFound(fid(7)),
            SwarmError::FragmentExists(fid(8)),
            SwarmError::RangeOutOfBounds {
                addr: BlockAddr::new(fid(1), 10, 20),
                stored: 5,
            },
            SwarmError::AccessDenied {
                aid: Aid::new(3),
                op: "read",
            },
            SwarmError::AclNotFound(Aid::new(4)),
            SwarmError::OutOfSpace("full".into()),
            SwarmError::Protocol("bad".into()),
            SwarmError::corrupt("crc"),
            SwarmError::Busy(ServerId::new(6)),
        ];
        for err in cases {
            let resp = Response::from_error(&err);
            let buf = resp.encode_to_vec();
            let back = Response::decode_all(&buf)
                .unwrap()
                .into_result()
                .unwrap_err();
            // Same variant family (FragmentNotFound stays FragmentNotFound, etc.)
            match (&err, &back) {
                (SwarmError::FragmentNotFound(a), SwarmError::FragmentNotFound(b)) => {
                    assert_eq!(a, b)
                }
                (SwarmError::FragmentExists(a), SwarmError::FragmentExists(b)) => assert_eq!(a, b),
                (SwarmError::RangeOutOfBounds { .. }, SwarmError::Corrupt(_)) => {}
                (
                    SwarmError::AccessDenied { aid: a, .. },
                    SwarmError::AccessDenied { aid: b, .. },
                ) => {
                    assert_eq!(a, b)
                }
                (SwarmError::AclNotFound(a), SwarmError::AclNotFound(b)) => assert_eq!(a, b),
                (SwarmError::OutOfSpace(_), SwarmError::OutOfSpace(_)) => {}
                (SwarmError::Protocol(_), SwarmError::Protocol(_)) => {}
                (SwarmError::Corrupt(_), SwarmError::Corrupt(_)) => {}
                (SwarmError::Busy(a), SwarmError::Busy(b)) => assert_eq!(a, b),
                (a, b) => panic!("variant mismatch: {a:?} -> {b:?}"),
            }
        }
    }

    #[test]
    fn ok_response_into_result_is_ok() {
        assert!(Response::Ok.into_result().is_ok());
    }

    #[test]
    fn encode_split_concat_equals_encode_for_payload_variants() {
        let store = Request::Store {
            fid: fid(1),
            marked: true,
            ranges: vec![StoreRange {
                offset: 4,
                len: 9,
                aid: Aid::new(2),
            }],
            data: vec![0xaau8; 300].into(),
        };
        let mut w = ByteWriter::new();
        let payload = store.encode_split(&mut w).expect("store has a payload");
        let mut joined = w.as_slice().to_vec();
        joined.extend_from_slice(payload);
        assert_eq!(joined, store.encode_to_vec());

        for resp in [
            Response::Data(vec![7u8; 64].into()),
            Response::Located(Some(b"prefix".into())),
            Response::Batch(BatchReply::from_results(vec![
                Ok(vec![1u8; 32].into()),
                Ok(vec![2u8; 16].into()),
            ])),
        ] {
            let mut w = ByteWriter::new();
            let payload = resp.encode_split(&mut w).expect("has a payload");
            let mut joined = w.as_slice().to_vec();
            joined.extend_from_slice(payload);
            assert_eq!(joined, resp.encode_to_vec());
        }
    }

    #[test]
    fn encode_split_is_full_encoding_for_payload_free_variants() {
        for req in [Request::Ping, Request::Stat, Request::LastMarked] {
            let mut w = ByteWriter::new();
            assert!(req.encode_split(&mut w).is_none());
            assert_eq!(w.as_slice(), req.encode_to_vec());
        }
        for resp in [Response::Ok, Response::Located(None)] {
            let mut w = ByteWriter::new();
            assert!(resp.encode_split(&mut w).is_none());
            assert_eq!(w.as_slice(), resp.encode_to_vec());
        }
    }

    #[test]
    fn prepared_request_reuses_header_and_payload() {
        let data = Bytes::from(vec![3u8; 1024]);
        let data_ptr = data.as_ptr();
        let prepared = PreparedRequest::new(Request::Store {
            fid: fid(9),
            marked: false,
            ranges: vec![],
            data,
        });
        // The payload aliases the original buffer — no clone happened.
        assert_eq!(prepared.payload().as_ptr(), data_ptr);
        // header ++ payload is the canonical encoding.
        let mut joined = prepared.header().to_vec();
        joined.extend_from_slice(prepared.payload());
        assert_eq!(joined, prepared.request().encode_to_vec());
        // Payload-free requests have an empty payload and full header.
        let ping = PreparedRequest::new(Request::Ping);
        assert!(ping.payload().is_empty());
        assert_eq!(ping.header(), Request::Ping.encode_to_vec());
    }

    #[test]
    fn shared_decode_aliases_the_frame_buffer() {
        let req = Request::Store {
            fid: fid(4),
            marked: false,
            ranges: vec![],
            data: vec![0x5au8; 256].into(),
        };
        let wire = Bytes::from(req.encode_to_vec());
        let decoded = Request::decode_all_shared(&wire).unwrap();
        let Request::Store { data, .. } = decoded else {
            panic!("wrong variant");
        };
        assert_eq!(data, vec![0x5au8; 256]);
        // Zero-copy: the decoded payload points into the wire buffer.
        assert_eq!(data.as_ptr(), wire[wire.len() - 256..].as_ptr());
    }
}
