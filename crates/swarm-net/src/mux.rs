//! Request-ID multiplexing: many in-flight RPCs on one connection.
//!
//! A multiplexed channel carries any number of concurrent calls on a
//! single socket: each request frame is prefixed with a 64-bit request
//! id, the server echoes the id on the response frame, and the channel
//! matches responses to waiting callers by id — order on the wire does
//! not matter. This is the only TCP session; the connection pool and the
//! windowed read/write engines all ride it.
//!
//! The handshake is one frame each way: the client sends
//! [`MUX_HELLO_MAGIC`] followed by its [`ClientId`] (8 bytes), the server
//! answers with its [`ServerId`]. A first frame without the magic closes
//! the connection.
//!
//! A mux frame payload is `id:u64le ++ message` in both directions.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use swarm_types::{Bytes, ClientId, Decode, Encode, Result, ServerId, SwarmError};

use crate::frame::{frame_header_for, FrameProgress, FrameReader};
use crate::reactor::{Ctx, Handle, Ready, Source};

/// First four bytes of the hello frame: `"MUX1"`.
pub(crate) const MUX_HELLO_MAGIC: [u8; 4] = *b"MUX1";

/// Length of the request-id prefix on every mux frame payload.
pub(crate) const MUX_ID_PREFIX: usize = 8;

/// Builds the hello frame payload announcing a multiplexed session.
pub(crate) fn encode_mux_hello(client: ClientId) -> Vec<u8> {
    let mut hello = Vec::with_capacity(8);
    hello.extend_from_slice(&MUX_HELLO_MAGIC);
    let mut w = swarm_types::ByteWriter::new();
    client.encode(&mut w);
    hello.extend_from_slice(w.as_slice());
    hello
}

/// Decodes the hello frame payload.
///
/// # Errors
///
/// Returns a protocol error if the frame does not open with
/// [`MUX_HELLO_MAGIC`], a decode error if what follows is not a client id.
pub(crate) fn parse_mux_hello(frame: &[u8]) -> Result<ClientId> {
    match frame.strip_prefix(&MUX_HELLO_MAGIC) {
        Some(rest) => ClientId::decode_all(rest),
        None => Err(SwarmError::protocol("hello frame lacks the MUX1 magic")),
    }
}

/// One segment of queued output: either an owned header or a shared
/// payload view (a `Store`'s fragment bytes travel to the socket without
/// ever being copied into a contiguous message).
pub(crate) enum Seg {
    /// Owned bytes (frame header + message header).
    Owned(Vec<u8>),
    /// Shared payload view.
    Shared(Bytes),
}

impl Seg {
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            Seg::Owned(v) => v,
            Seg::Shared(b) => b,
        }
    }
}

/// A waiting caller's slot: `None` until the response (or failure) lands.
type PendingSlot = Option<Result<Bytes>>;

struct MuxState {
    /// Bulk frames (requests carrying a payload — stores). Each frame is
    /// a contiguous run of segments: `Owned(head)` then `Shared(payload)`.
    outbox: VecDeque<Seg>,
    /// Payload-free frames (reads, locates, pings): drained ahead of the
    /// bulk lane so a windowed writer's fragment payloads cannot
    /// head-of-line-block a read on the shared socket. Safe to reorder
    /// across lanes: responses are matched by request id, and the
    /// durability contract orders stores via flush, not the wire.
    priority: VecDeque<Seg>,
    pending: HashMap<u64, PendingSlot>,
    /// Set when the socket died; every call fails fast afterwards.
    dead: bool,
    /// High-water mark of concurrently pending calls (diagnostic).
    inflight_peak: usize,
}

/// The caller-facing half of a multiplexed connection: assign an id,
/// queue the frame, wake the reactor, wait on the condvar for the
/// response with that id.
pub(crate) struct MuxChannel {
    server: ServerId,
    /// Next request id. Outside `state` so a caller can number, checksum
    /// and assemble its frame without the lock every response and every
    /// send needs; frames may therefore reach the wire out of id order,
    /// which is fine, responses match by id.
    next_id: AtomicU64,
    state: Mutex<MuxState>,
    cv: Condvar,
    handle: OnceLock<Handle>,
}

impl MuxChannel {
    pub(crate) fn new(server: ServerId) -> Arc<MuxChannel> {
        Arc::new(MuxChannel {
            server,
            next_id: AtomicU64::new(1),
            state: Mutex::new(MuxState {
                outbox: VecDeque::new(),
                priority: VecDeque::new(),
                pending: HashMap::new(),
                dead: false,
                inflight_peak: 0,
            }),
            cv: Condvar::new(),
            handle: OnceLock::new(),
        })
    }

    pub(crate) fn set_handle(&self, handle: Handle) {
        let _ = self.handle.set(handle);
    }

    /// True until the underlying socket fails.
    pub(crate) fn is_alive(&self) -> bool {
        !self.state.lock().dead
    }

    /// High-water mark of concurrently in-flight calls on this channel.
    pub(crate) fn inflight_peak(&self) -> usize {
        self.state.lock().inflight_peak
    }

    /// Marks the channel dead and asks the reactor to drop its source,
    /// closing the socket. Pending calls fail with `ServerUnavailable`.
    pub(crate) fn shutdown(&self) {
        self.fail_all();
        if let Some(h) = self.handle.get() {
            h.close();
        }
    }

    /// Fails every pending call and poisons the channel.
    pub(crate) fn fail_all(&self) {
        let mut st = self.state.lock();
        st.dead = true;
        st.outbox.clear();
        st.priority.clear();
        for slot in st.pending.values_mut() {
            if slot.is_none() {
                *slot = Some(Err(SwarmError::ServerUnavailable(self.server)));
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Queues `header ++ payload` as one request frame, wakes the reactor,
    /// and returns the request id without waiting for the response. Pair
    /// with [`MuxChannel::finish`]; a caller may hold any number of
    /// outstanding ids, which is what pipelined stores ride on.
    pub(crate) fn begin(&self, header: &[u8], payload: &Bytes) -> Result<u64> {
        // Relaxed: the counter only hands out distinct numbers.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let id_bytes = id.to_le_bytes();
        // The checksum walks the whole payload (up to 16 MiB): done here,
        // before the lock.
        let fh = frame_header_for(&[&id_bytes, header, payload])?;
        let mut head = Vec::with_capacity(12 + MUX_ID_PREFIX + header.len());
        head.extend_from_slice(&fh);
        head.extend_from_slice(&id_bytes);
        head.extend_from_slice(header);
        {
            let mut st = self.state.lock();
            if st.dead {
                return Err(SwarmError::ServerUnavailable(self.server));
            }
            if payload.is_empty() {
                // Read/control frame: the priority lane, so it cannot
                // queue behind a window's worth of store payloads.
                st.priority.push_back(Seg::Owned(head));
            } else {
                st.outbox.push_back(Seg::Owned(head));
                st.outbox.push_back(Seg::Shared(payload.share()));
            }
            st.pending.insert(id, None);
            let inflight = st.pending.len();
            if inflight > st.inflight_peak {
                st.inflight_peak = inflight;
            }
        }
        if let Some(h) = self.handle.get() {
            h.notify();
        }
        Ok(id)
    }

    /// Blocks until the response for `id` arrives, `deadline` passes, or
    /// the channel dies. Ids may be finished in any order regardless of
    /// the order their responses arrive.
    pub(crate) fn finish(&self, id: u64, deadline: Option<Instant>) -> Result<Bytes> {
        // Fixed deadline, not a fresh `timeout` per wakeup: every response
        // notify_all()s all waiters, so re-waiting the full duration after
        // each wakeup would let a busy channel postpone this call's
        // timeout indefinitely.
        let mut st = self.state.lock();
        loop {
            if let Some(Some(_)) = st.pending.get(&id) {
                // Response (or failure) landed; take it.
                return st.pending.remove(&id).flatten().expect("slot filled");
            }
            if st.dead {
                st.pending.remove(&id);
                return Err(SwarmError::ServerUnavailable(self.server));
            }
            match deadline {
                None => self.cv.wait(&mut st),
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    // The shim's wait_for returns true on timeout.
                    if remaining.is_zero() || self.cv.wait_for(&mut st, remaining) {
                        if let Some(Some(_)) = st.pending.get(&id) {
                            return st.pending.remove(&id).flatten().expect("slot filled");
                        }
                        // Abandon the call; a late response finds no slot
                        // and is dropped by the source.
                        st.pending.remove(&id);
                        return Err(SwarmError::ServerUnavailable(self.server));
                    }
                }
            }
        }
    }

    /// [`MuxChannel::begin`] for a caller that may never come back for the
    /// response: the returned [`InFlight`] releases the id's slot if it is
    /// dropped unfinished.
    pub(crate) fn start(self: &Arc<Self>, header: &[u8], payload: &Bytes) -> Result<InFlight> {
        Ok(InFlight {
            id: self.begin(header, payload)?,
            channel: self.clone(),
            finished: false,
        })
    }

    /// Hands the response frame body for `id` to its waiting caller. An id
    /// with no slot was abandoned (its caller timed out, or dropped its
    /// [`InFlight`]); the body is dropped.
    fn complete(&self, id: u64, body: Bytes) {
        let mut st = self.state.lock();
        if let Some(slot) = st.pending.get_mut(&id) {
            *slot = Some(Ok(body));
            drop(st);
            self.cv.notify_all();
        }
    }

    /// Ships `header ++ payload` as one request frame and blocks until the
    /// response with the matching id arrives, the timeout lapses, or the
    /// channel dies.
    pub(crate) fn call(
        &self,
        header: &[u8],
        payload: &Bytes,
        timeout: Option<Duration>,
    ) -> Result<Bytes> {
        let id = self.begin(header, payload)?;
        self.finish(id, timeout.map(|t| Instant::now() + t))
    }
}

/// A started call whose response has not been taken: what a pipelined
/// caller holds between [`MuxChannel::start`] and the moment it wants the
/// answer. Dropped unfinished (a first-wins broadcast returning early), it
/// releases its slot the way `finish`'s timeout does, so the late response
/// finds none and is dropped by the source instead of sitting in `pending`
/// for the life of the channel.
pub(crate) struct InFlight {
    channel: Arc<MuxChannel>,
    id: u64,
    finished: bool,
}

impl InFlight {
    /// [`MuxChannel::finish`] for this call.
    pub(crate) fn finish(mut self, deadline: Option<Instant>) -> Result<Bytes> {
        // `finish` removes the slot on every path out.
        self.finished = true;
        self.channel.finish(self.id, deadline)
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        if !self.finished {
            self.channel.state.lock().pending.remove(&self.id);
        }
    }
}

/// The reactor half of a multiplexed connection: drains the channel's
/// outbox to the socket and routes response frames back by id.
pub(crate) struct MuxSource {
    stream: TcpStream,
    channel: Arc<MuxChannel>,
    reader: FrameReader,
    /// Segments taken from the channel outbox, front partially written.
    local: VecDeque<Seg>,
    front_off: usize,
}

impl MuxSource {
    pub(crate) fn new(stream: TcpStream, channel: Arc<MuxChannel>) -> MuxSource {
        MuxSource {
            stream,
            channel,
            reader: FrameReader::new(),
            local: VecDeque::new(),
            front_off: 0,
        }
    }

    /// Moves queued segments from the shared outbox into the local write
    /// queue (shrinking the time the channel lock is held to a swap).
    /// The priority lane drains first; lanes are concatenated, never
    /// interleaved, and `local` is only refilled when empty, so every
    /// frame's head/payload segments stay contiguous on the wire.
    fn take_outbox(&mut self) {
        let mut st = self.channel.state.lock();
        while let Some(seg) = st.priority.pop_front() {
            self.local.push_back(seg);
        }
        while let Some(seg) = st.outbox.pop_front() {
            self.local.push_back(seg);
        }
    }

    /// Writes until the socket would block or the queues drain. Returns
    /// false on a fatal socket error.
    fn pump_write(&mut self) -> bool {
        loop {
            if self.local.is_empty() {
                self.take_outbox();
                if self.local.is_empty() {
                    return true;
                }
            }
            let front = &self.local[0];
            let slice = &front.as_slice()[self.front_off..];
            match (&self.stream).write(slice) {
                Ok(0) => return false,
                Ok(n) => {
                    crate::tcp::metrics().client_bytes_out.add(n as u64);
                    self.front_off += n;
                    if self.front_off == front.as_slice().len() {
                        self.local.pop_front();
                        self.front_off = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Reads response frames and completes their pending calls. Returns
    /// false on EOF, a fatal socket error, or a corrupt stream.
    fn pump_read(&mut self) -> bool {
        loop {
            match self.reader.read_from(&mut &self.stream) {
                Ok(FrameProgress::Frame(frame)) => {
                    crate::tcp::metrics()
                        .client_bytes_in
                        .add(frame.len() as u64);
                    if frame.len() < MUX_ID_PREFIX {
                        return false; // not a mux frame: protocol breach
                    }
                    let id = u64::from_le_bytes(frame[..MUX_ID_PREFIX].try_into().unwrap());
                    let body = Bytes::from(frame).slice(MUX_ID_PREFIX..);
                    self.channel.complete(id, body);
                }
                Ok(FrameProgress::Blocked) => return true,
                Ok(FrameProgress::Eof) | Err(_) => return false,
            }
        }
    }
}

impl Source for MuxSource {
    fn fd(&self) -> epoll::RawFd {
        self.stream.as_raw_fd()
    }

    fn interest(&self) -> epoll::Interest {
        let pending_output = !self.local.is_empty() || {
            let st = self.channel.state.lock();
            !st.outbox.is_empty() || !st.priority.is_empty()
        };
        epoll::Interest {
            readable: true,
            writable: pending_output,
        }
    }

    fn on_ready(&mut self, readable: bool, writable: bool, _ctx: &mut Ctx<'_>) -> Ready {
        if writable && !self.pump_write() {
            self.channel.fail_all();
            return Ready::Close;
        }
        if readable && !self.pump_read() {
            self.channel.fail_all();
            return Ready::Close;
        }
        Ready::Continue
    }

    fn on_notify(&mut self, _ctx: &mut Ctx<'_>) -> Ready {
        if !self.pump_write() {
            self.channel.fail_all();
            return Ready::Close;
        }
        Ready::Continue
    }
}

impl Drop for MuxSource {
    fn drop(&mut self) {
        // The reactor dropped us (shutdown or Close): callers must not
        // wait out their full timeout for a response that cannot come.
        self.channel.fail_all();
    }
}

/// Blocking dial + handshake for a multiplexed connection: connect,
/// announce mux, validate the server's identity, then flip the socket to
/// non-blocking for the reactor. Uses `timeout` for the handshake I/O.
pub(crate) fn mux_dial(
    addr: std::net::SocketAddr,
    server: ServerId,
    client: ClientId,
    timeout: Option<Duration>,
) -> Result<TcpStream> {
    let unavailable = |_| SwarmError::ServerUnavailable(server);
    // Bound the dial by the call timeout: the OS default connect timeout
    // can run to minutes, far longer than any caller is willing to wait.
    let stream = match timeout {
        Some(t) => TcpStream::connect_timeout(&addr, t),
        None => TcpStream::connect(addr),
    }
    .map_err(unavailable)?;
    stream.set_nodelay(true).map_err(unavailable)?;
    stream.set_read_timeout(timeout).map_err(unavailable)?;
    stream.set_write_timeout(timeout).map_err(unavailable)?;
    let mut writer = std::io::BufWriter::new(stream.try_clone().map_err(unavailable)?);
    crate::frame::write_frame(&mut writer, &encode_mux_hello(client))
        .map_err(|_| SwarmError::ServerUnavailable(server))?;
    let mut reader = std::io::BufReader::new(stream.try_clone().map_err(unavailable)?);
    let ack =
        crate::frame::read_frame(&mut reader).map_err(|_| SwarmError::ServerUnavailable(server))?;
    let got = ServerId::decode_all(&ack).map_err(|_| SwarmError::ServerUnavailable(server))?;
    if got != server {
        return Err(SwarmError::protocol(format!(
            "handshake: expected server {server}, got {got}"
        )));
    }
    // Anything buffered beyond the ack would be lost here; the server
    // sends nothing unprompted after its hello, so the buffers are empty.
    drop(reader);
    stream.set_read_timeout(None).map_err(unavailable)?;
    stream.set_write_timeout(None).map_err(unavailable)?;
    stream.set_nonblocking(true).map_err(unavailable)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_negotiation_roundtrips() {
        let mux = encode_mux_hello(ClientId::new(42));
        assert_eq!(mux.len(), 8);
        assert_eq!(parse_mux_hello(&mux).unwrap(), ClientId::new(42));

        // A pre-mux client's hello (a bare client id) is refused.
        let mut w = swarm_types::ByteWriter::new();
        ClientId::new(7).encode(&mut w);
        assert!(parse_mux_hello(w.as_slice()).is_err());

        assert!(parse_mux_hello(b"garbage that is long").is_err());
        assert!(parse_mux_hello(b"MUX1").is_err(), "magic without an id");
        assert!(parse_mux_hello(b"MUX1 and trailing junk").is_err());
    }

    #[test]
    fn dead_channel_fails_calls_fast() {
        let ch = MuxChannel::new(ServerId::new(3));
        ch.fail_all();
        let err = ch
            .call(b"hdr", &Bytes::new(), Some(Duration::from_secs(5)))
            .unwrap_err();
        assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
    }

    /// Split begin/finish: a caller holds several outstanding ids and may
    /// harvest them in submission order even when the responses land in
    /// reverse — the window the pipelined write path relies on.
    #[test]
    fn begin_finish_harvests_out_of_order_completions() {
        let ch = MuxChannel::new(ServerId::new(5));
        let ids: Vec<u64> = (0..4)
            .map(|i| {
                ch.begin(format!("hdr{i}").as_bytes(), &Bytes::new())
                    .expect("begin")
            })
            .collect();
        assert_eq!(ch.inflight_peak(), 4, "all four must be pending at once");

        // Responses arrive in reverse order (what pump_read would do).
        let (ch2, ids2) = (ch.clone(), ids.clone());
        let responder = std::thread::spawn(move || {
            for &id in ids2.iter().rev() {
                std::thread::sleep(Duration::from_millis(5));
                let mut st = ch2.state.lock();
                if let Some(slot) = st.pending.get_mut(&id) {
                    *slot = Some(Ok(Bytes::from(id.to_le_bytes().to_vec())));
                }
                drop(st);
                ch2.cv.notify_all();
            }
        });

        // Harvest in submission order; each finish must get its own bytes.
        for &id in &ids {
            let body = ch
                .finish(id, Some(Instant::now() + Duration::from_secs(5)))
                .expect("finish");
            assert_eq!(&body[..], id.to_le_bytes());
        }
        responder.join().unwrap();
        assert!(ch.state.lock().pending.is_empty());
    }

    /// Regression: a started call dropped without `finish` (what a
    /// first-wins broadcast does to its losing legs) left its slot in
    /// `pending`; the response then filled it and nothing ever removed it,
    /// one slot and one reply body leaked per abandoned call.
    #[test]
    fn dropped_in_flight_call_releases_its_slot() {
        let ch = MuxChannel::new(ServerId::new(6));
        let calls: Vec<InFlight> = (0..8)
            .map(|_| ch.start(b"locate", &Bytes::new()).expect("start"))
            .collect();
        let ids: Vec<u64> = calls.iter().map(|c| c.id).collect();
        assert_eq!(ch.state.lock().pending.len(), 8);
        // One is finished the ordinary way, the rest are abandoned.
        let mut calls = calls.into_iter();
        let kept = calls.next().unwrap();
        drop(calls);
        assert_eq!(ch.state.lock().pending.len(), 1);
        // The responses land anyway (what `pump_read` does with a frame).
        for &id in &ids {
            ch.complete(id, Bytes::from(id.to_le_bytes().to_vec()));
        }
        assert_eq!(ch.state.lock().pending.len(), 1, "a late reply was kept");
        assert_eq!(&kept.finish(None).unwrap()[..], ids[0].to_le_bytes());
        assert!(ch.state.lock().pending.is_empty());
    }

    /// A payload-free frame queued *after* a window of store frames is
    /// drained to the socket *before* them: the priority lane is the fix
    /// for reads head-of-line-blocking behind windowed store payloads.
    /// Frame contiguity must survive — a store's head and payload stay
    /// adjacent.
    #[test]
    fn priority_lane_overtakes_queued_store_payloads() {
        let ch = MuxChannel::new(ServerId::new(2));
        // Three "stores": header + 4 KiB payload each.
        for i in 0..3u8 {
            ch.begin(&[i], &Bytes::from(vec![i; 4096])).unwrap();
        }
        // Then a "read": no payload.
        let read_id = ch.begin(b"read-hdr", &Bytes::new()).unwrap();

        // What take_outbox would hand the reactor, in order.
        let mut segs = Vec::new();
        {
            let mut st = ch.state.lock();
            while let Some(s) = st.priority.pop_front() {
                segs.push(s);
            }
            while let Some(s) = st.outbox.pop_front() {
                segs.push(s);
            }
        }
        assert_eq!(segs.len(), 7, "1 read head + 3 store (head, payload) pairs");
        // The read frame leads, and its head carries the read's id.
        let Seg::Owned(head) = &segs[0] else {
            panic!("read frame must be an owned head");
        };
        let id = u64::from_le_bytes(head[12..20].try_into().unwrap());
        assert_eq!(id, read_id, "priority frame is the read");
        // Every store's head is immediately followed by its payload.
        for pair in segs[1..].chunks(2) {
            assert!(matches!(pair[0], Seg::Owned(_)));
            assert!(matches!(pair[1], Seg::Shared(_)));
            let Seg::Owned(head) = &pair[0] else {
                unreachable!()
            };
            let Seg::Shared(payload) = &pair[1] else {
                unreachable!()
            };
            // The store head's first body byte (after the 12-byte frame
            // header and 8-byte id) names the fill of its own payload.
            assert_eq!(head[20], payload[0], "store frame torn apart");
        }
    }

    /// Regression: `begin` used to number and checksum its frame (up to
    /// 16 MiB of CRC) while holding the lock `pump_read` needs to deliver
    /// every response. The lock is held here the way `pump_read` holds it;
    /// a store's `begin` must still get past its id allocation (the
    /// checksum needs the id, and the lock is taken only after both), and
    /// the answered call's `finish` must not wait for the store.
    #[test]
    fn begin_numbers_its_frame_outside_the_channel_lock() {
        let ch = MuxChannel::new(ServerId::new(4));
        let answered = ch.begin(b"read", &Bytes::new()).unwrap();
        let mut st = ch.state.lock();
        st.priority.clear();

        let ch2 = ch.clone();
        let store =
            std::thread::spawn(move || ch2.begin(b"store", &Bytes::from(vec![7u8; 1 << 20])));
        let deadline = Instant::now() + Duration::from_secs(30);
        while ch.next_id.load(Ordering::Relaxed) == answered + 1 {
            assert!(Instant::now() < deadline, "begin is waiting for the lock");
            std::thread::yield_now();
        }
        // The response for the first call lands (what pump_read does)…
        *st.pending.get_mut(&answered).unwrap() = Some(Ok(Bytes::from(b"reply".to_vec())));
        drop(st);
        ch.cv.notify_all();
        // …and its caller gets it whether or not the store has queued yet.
        assert_eq!(&ch.finish(answered, None).unwrap()[..], b"reply");

        let store_id = store.join().unwrap().unwrap();
        assert_eq!(store_id, answered + 1);
        let st = ch.state.lock();
        let Some(Seg::Owned(head)) = st.outbox.front() else {
            panic!("store head queued");
        };
        assert_eq!(head[12..20], store_id.to_le_bytes());
        assert_eq!(st.outbox.len(), 2);
    }

    /// Format stability: the wire bytes of a `Store` frame built from
    /// fixed inputs are pinned (frame header with its checksum, request
    /// id, message header, payload), hashed with a function that shares
    /// nothing with the CRC.
    #[test]
    fn store_frame_bytes_are_pinned() {
        use crate::proto::{PreparedRequest, Request, StoreRange};
        use swarm_types::{Aid, FragmentId};

        let data: Vec<u8> = (0..70_000u32).map(|i| (i * 131 + 17) as u8).collect();
        let prepared = PreparedRequest::new(Request::Store {
            fid: FragmentId::new(ClientId::new(7), 42),
            marked: true,
            ranges: vec![StoreRange {
                offset: 64,
                len: 4096,
                aid: Aid::new(9),
            }],
            data: Bytes::from(data),
        });
        let ch = MuxChannel::new(ServerId::new(2));
        let id = ch.begin(prepared.header(), prepared.payload()).unwrap();
        assert_eq!(id, 1, "a channel's first request id");
        let mut st = ch.state.lock();
        let (mut hash, mut total) = (0xcbf2_9ce4_8422_2325u64, 0usize);
        while let Some(seg) = st.outbox.pop_front() {
            for &b in seg.as_slice() {
                hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            total += seg.as_slice().len();
        }
        assert_eq!(
            (total, hash),
            (70_050, 0xc270_6e31_a18a_8db3),
            "Store frame bytes changed"
        );
    }

    /// Regression: re-waiting with the full timeout after every wakeup let
    /// a busy channel (whose responses notify_all every waiter) postpone a
    /// never-answered call's timeout indefinitely.
    #[test]
    fn call_timeout_survives_unrelated_wakeups() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let ch = MuxChannel::new(ServerId::new(9));
        let stop = Arc::new(AtomicBool::new(false));
        let (ch2, stop2) = (ch.clone(), stop.clone());
        // Spurious wakeups faster than the call timeout, for ~2 s.
        let noisy = std::thread::spawn(move || {
            for _ in 0..400 {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                ch2.cv.notify_all();
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        let t0 = Instant::now();
        let err = ch
            .call(b"hdr", &Bytes::new(), Some(Duration::from_millis(100)))
            .unwrap_err();
        assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "timeout was reset by wakeups: took {:?}",
            t0.elapsed()
        );
        stop.store(true, Ordering::SeqCst);
        noisy.join().unwrap();
    }
}
