//! Protocol robustness: arbitrary bytes must never panic the decoders,
//! and valid messages must survive frame + codec round trips bit-exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use swarm_net::frame::{frame_header_for, FrameProgress, FrameReader, MAX_FRAME_LEN, READ_AHEAD};
use swarm_net::{read_frame, write_frame, Request, Response, ServerStats, StoreRange};
use swarm_types::{Aid, ByteWriter, ClientId, Decode, Encode, FragmentId, SwarmError};

fn arb_fid() -> impl Strategy<Value = FragmentId> {
    (0u32..100, 0u64..1_000_000).prop_map(|(c, s)| FragmentId::new(ClientId::new(c), s))
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (
            arb_fid(),
            any::<bool>(),
            proptest::collection::vec(
                (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(o, l, a)| StoreRange {
                    offset: o,
                    len: l,
                    aid: Aid::new(a)
                }),
                0..4
            ),
            proptest::collection::vec(any::<u8>(), 0..512),
        )
            .prop_map(|(fid, marked, ranges, data)| Request::Store {
                fid,
                marked,
                ranges,
                data: data.into()
            }),
        (arb_fid(), any::<u32>(), any::<u32>()).prop_map(|(fid, offset, len)| Request::Read {
            fid,
            offset,
            len
        }),
        arb_fid().prop_map(|fid| Request::Delete { fid }),
        (arb_fid(), any::<u32>()).prop_map(|(fid, len)| Request::Preallocate { fid, len }),
        Just(Request::LastMarked),
        (arb_fid(), any::<u32>()).prop_map(|(fid, header_len)| Request::Locate { fid, header_len }),
        proptest::collection::vec(0u32..1000, 0..6).prop_map(|m| Request::AclCreate {
            members: m.into_iter().map(ClientId::new).collect()
        }),
        Just(Request::Stat),
        Just(Request::Ping),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        proptest::collection::vec(any::<u8>(), 0..512).prop_map(|d| Response::Data(d.into())),
        (any::<bool>(), arb_fid())
            .prop_map(|(some, fid)| Response::LastMarked(some.then_some(fid))),
        (
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..128)
        )
            .prop_map(|(some, h)| Response::Located(some.then(|| h.into()))),
        any::<u32>().prop_map(|a| Response::AclCreated(Aid::new(a))),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(
                |(fragments, bytes, stores, reads, deletes, capacity_fragments)| {
                    Response::Stats(ServerStats {
                        fragments,
                        bytes,
                        stores,
                        reads,
                        deletes,
                        capacity_fragments,
                    })
                }
            ),
        ".*".prop_map(Response::Metrics),
        (any::<u16>(), any::<u64>(), ".*").prop_map(|(code, datum, detail)| Response::Err {
            code,
            datum,
            detail,
        }),
    ]
}

/// Frames `msg` both ways — the contiguous path (`write_frame` over
/// `encode_to_vec`) and the TCP send path (`encode_split` header + payload
/// behind `frame_header_for`, never concatenated) — and asserts identical
/// wire bytes.
fn assert_vectored_framing_identical(header: &[u8], payload: &[u8], contiguous: &[u8]) {
    let mut contiguous_wire = Vec::new();
    write_frame(&mut contiguous_wire, contiguous).unwrap();
    let frame_header = frame_header_for(&[header, payload]).unwrap();
    assert_eq!(
        contiguous_wire,
        [&frame_header[..], header, payload].concat()
    );
}

/// A non-blocking socket as the reactor sees one: `data` arrives in
/// bursts of the given sizes, each burst is followed by a `WouldBlock`,
/// and once the bursts run out there is nothing but `WouldBlock`.
struct Dribble<'a> {
    data: &'a [u8],
    bursts: std::vec::IntoIter<usize>,
    burst_left: usize,
}

impl<'a> Dribble<'a> {
    fn new(data: &'a [u8], bursts: Vec<usize>) -> Self {
        Dribble {
            data,
            bursts: bursts.into_iter(),
            burst_left: 0,
        }
    }
}

impl std::io::Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.burst_left.min(buf.len()).min(self.data.len());
        if n == 0 {
            self.burst_left = self.bursts.next().unwrap_or(0);
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        self.burst_left -= n;
        Ok(n)
    }
}

/// The system allocator, counting the bytes each thread asks for, so a
/// test can bound what one decode call reserves.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell` with no destructor, so touching it neither allocates nor recurses.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocated_here() -> usize {
    ALLOCATED.with(Cell::get)
}

/// A cooperative cache between clients once spoke tags 14 (a peer read), 15
/// (a hint push) and 136 (a peer's reply); these are the exact bytes it sent.
/// The tags are retired: a peer that still sends them gets a `Protocol`
/// error, and the hint counts and payload length inside are never read.
const RETIRED_PEER_READ: [u8; 41] = [
    14, 3, 0, 0, 0, 0, 7, 0, 0, 128, 0, 0, 0, 11, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0, 0, 7, 0, 0, 0,
    0, 0, 0, 0, 16, 0, 0, 2, 0, 0, 0,
];
const RETIRED_PEER_GOSSIP: [u8; 25] = [
    15, 1, 0, 0, 0, 4, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 2, 0, 0, 0,
];
const RETIRED_PEER_DATA: [u8; 41] = [
    136, 1, 0, 0, 0, 4, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 2, 0, 0, 0, 1, 11, 0, 0, 0,
    112, 101, 101, 114, 32, 98, 121, 116, 101, 115, 33,
];

#[test]
fn retired_peer_tags_are_protocol_errors_that_reserve_nothing() {
    // Each message as sent, then with every length field it carries (hint
    // count; payload length) claiming u32::MAX.
    let inflated = |bytes: &[u8], fields: &[usize]| {
        let mut wire = bytes.to_vec();
        for &at in fields {
            wire[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        wire
    };
    let refused = |wire: &[u8], decode: fn(&[u8]) -> Result<(), SwarmError>| {
        let before = allocated_here();
        let err = decode(wire).unwrap_err();
        let reserved = allocated_here() - before;
        assert!(matches!(err, SwarmError::Protocol(_)), "{wire:?}: {err}");
        // The error's message is all a refusal may allocate.
        assert!(reserved < 256, "{wire:?}: {reserved} bytes allocated");
    };
    for wire in [
        RETIRED_PEER_READ.to_vec(),
        inflated(&RETIRED_PEER_READ, &[17]),
        RETIRED_PEER_GOSSIP.to_vec(),
        inflated(&RETIRED_PEER_GOSSIP, &[1]),
    ] {
        refused(&wire, |w| Request::decode_all(w).map(drop));
    }
    for wire in [
        RETIRED_PEER_DATA.to_vec(),
        inflated(&RETIRED_PEER_DATA, &[1, 26]),
    ] {
        refused(&wire, |w| Response::decode_all(w).map(drop));
    }
}

/// A 12-byte header is unauthenticated: claiming the largest legal frame
/// and then sending one byte must not make the receiver reserve it.
#[test]
fn a_length_field_alone_reserves_no_more_than_the_read_ahead() {
    let mut wire = Vec::new();
    write_frame(&mut wire, b"x").unwrap();
    wire[4..8].copy_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes());
    let mut socket = Dribble::new(&wire, vec![12, 1]);
    let mut reader = FrameReader::new();
    for _ in 0..4 {
        assert!(matches!(
            reader.read_from(&mut socket).unwrap(),
            FrameProgress::Blocked
        ));
    }
    assert!(socket.data.is_empty(), "header and the one byte delivered");
    assert!(reader.in_frame());
    assert!(
        reader.reserved() <= 1 + READ_AHEAD,
        "reserved {} for 1 byte received",
        reader.reserved()
    );
}

/// A frame several read-ahead steps long, arriving in bursts that straddle
/// the steps: the reservation trails the bytes received all the way, and
/// the checksum folded burst by burst still matches.
#[test]
fn a_multi_step_frame_grows_with_its_bytes_and_verifies() {
    let payload: Vec<u8> = (0..3 * READ_AHEAD as u32 + 4321)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    let mut socket = Dribble::new(&wire, vec![100_003; 9]);
    let mut reader = FrameReader::new();
    let got = loop {
        match reader.read_from(&mut socket).unwrap() {
            FrameProgress::Blocked => {
                let received = wire.len() - socket.data.len();
                assert!(reader.reserved() <= received + READ_AHEAD);
            }
            FrameProgress::Frame(got) => break got,
            FrameProgress::Eof => panic!("eof mid-frame"),
        }
    };
    assert_eq!(got, payload);
}

proptest! {
    #[test]
    fn dribbled_frames_verify_and_flipped_bits_do_not(
        payload in proptest::collection::vec(any::<u8>(), 0..3000),
        sizes in proptest::collection::vec(1usize..700, 1..40),
        flip_at in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let pump = |wire: &[u8]| {
            // The random dribbles, then whatever is left in one piece.
            let mut bursts = sizes.clone();
            bursts.push(wire.len());
            let mut socket = Dribble::new(wire, bursts);
            let mut reader = FrameReader::new();
            loop {
                match reader.read_from(&mut socket) {
                    Ok(FrameProgress::Blocked) => {
                        assert!(reader.reserved() <= payload.len().min(READ_AHEAD));
                    }
                    other => break other,
                }
            }
        };
        match pump(&wire) {
            Ok(FrameProgress::Frame(got)) => prop_assert_eq!(got, payload),
            other => prop_assert!(false, "intact frame: {other:?}"),
        }
        // Past the magic and length (a flip there is a different error,
        // or a longer frame that never completes): checksum or payload.
        let i = 8 + flip_at.index(wire.len() - 8);
        wire[i] ^= 1 << flip_bit;
        match pump(&wire) {
            Err(SwarmError::Corrupt(_)) => {}
            other => prop_assert!(false, "flipped bit {i}: {other:?}"),
        }
    }

    #[test]
    fn vectored_framing_matches_contiguous_for_requests(req in arb_request()) {
        let mut w = ByteWriter::new();
        let payload = req.encode_split(&mut w).unwrap_or(&[]);
        let mut concat = w.as_slice().to_vec();
        concat.extend_from_slice(payload);
        prop_assert_eq!(&concat, &req.encode_to_vec());
        assert_vectored_framing_identical(w.as_slice(), payload, &concat);
    }

    #[test]
    fn vectored_framing_matches_contiguous_for_responses(resp in arb_response()) {
        let mut w = ByteWriter::new();
        let payload = resp.encode_split(&mut w).unwrap_or(&[]);
        let mut concat = w.as_slice().to_vec();
        concat.extend_from_slice(payload);
        prop_assert_eq!(&concat, &resp.encode_to_vec());
        assert_vectored_framing_identical(w.as_slice(), payload, &concat);
    }

    #[test]
    fn decode_of_arbitrary_bytes_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Request::decode_all(&data);
        let _ = Response::decode_all(&data);
    }

    #[test]
    fn frames_of_arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_frame(std::io::Cursor::new(&data));
    }

    #[test]
    fn valid_requests_survive_frame_and_codec(req in arb_request()) {
        let mut framed = Vec::new();
        write_frame(&mut framed, &req.encode_to_vec()).unwrap();
        let payload = read_frame(std::io::Cursor::new(&framed)).unwrap();
        prop_assert_eq!(Request::decode_all(&payload).unwrap(), req);
    }

    #[test]
    fn corrupted_frames_are_rejected_not_misparsed(
        req in arb_request(),
        flip_at in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let mut framed = Vec::new();
        write_frame(&mut framed, &req.encode_to_vec()).unwrap();
        let i = flip_at.index(framed.len());
        framed[i] ^= 1 << flip_bit;
        match read_frame(std::io::Cursor::new(&framed)) {
            // Either the frame is rejected (bad magic/length/CRC)…
            Err(_) => {}
            // …or the CRC32 caught nothing because the flip was repaired
            // by coincidence — for single-bit flips that cannot happen,
            // so a successful parse must return the original request.
            Ok(payload) => {
                prop_assert_eq!(Request::decode_all(&payload).ok(), Some(req));
            }
        }
    }
}
