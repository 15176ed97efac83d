//! Checksummed length-prefixed frames.
//!
//! Every message between a client and a storage server travels in one
//! frame:
//!
//! ```text
//! +--------+--------+-----------+-------------------+
//! | magic  | length | crc32     | payload (length)  |
//! | u32 le | u32 le | u32 le    | bytes             |
//! +--------+--------+-----------+-------------------+
//! ```
//!
//! The CRC covers the payload only; the magic catches stream
//! desynchronization and non-Swarm peers. Frames are bounded, and a
//! receiver reserves memory only [`READ_AHEAD`] bytes ahead of what has
//! actually arrived, so a bad length prefix cannot trigger a giant
//! allocation.

use std::io::{Read, Write};

use swarm_types::constants::FRAME_MAGIC;
use swarm_types::crc::Crc32;
use swarm_types::{Result, SwarmError};

/// Maximum frame payload (16 MiB): a fragment plus protocol overhead.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// How far a [`FrameReader`]'s payload reservation may run ahead of the
/// bytes it has received (256 KiB). The 12-byte header is unauthenticated:
/// its length field alone must not be able to make a receiver reserve
/// [`MAX_FRAME_LEN`].
pub const READ_AHEAD: usize = 256 << 10;

/// Writes one frame containing `payload` to `w`, flushing it.
///
/// # Errors
///
/// Returns [`SwarmError::Io`] if the underlying writer fails, or
/// [`SwarmError::InvalidArgument`] if the payload exceeds [`MAX_FRAME_LEN`]
/// (nothing is written then).
pub fn write_frame<W: Write>(mut w: W, payload: &[u8]) -> Result<()> {
    w.write_all(&frame_header_for(&[payload])?)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Builds the 12-byte frame header for a payload given as scattered
/// `parts`, without concatenating them.
///
/// This is how the TCP send path frames: the reactor queues a frame as a
/// segment list (header `Vec` + shared payload `Bytes`, a store's fragment
/// never copied into a contiguous message) and writes it with plain
/// non-blocking `write` calls. `header ++ parts` on the wire is
/// byte-identical to [`write_frame`] of the concatenated parts.
///
/// # Errors
///
/// Returns [`SwarmError::InvalidArgument`] if the combined payload
/// exceeds [`MAX_FRAME_LEN`].
pub fn frame_header_for(parts: &[&[u8]]) -> Result<[u8; 12]> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    if len > MAX_FRAME_LEN {
        return Err(SwarmError::invalid(format!(
            "frame payload {len} exceeds {MAX_FRAME_LEN}"
        )));
    }
    let mut crc = Crc32::new();
    for p in parts {
        crc.update(p);
    }
    let mut header = [0u8; 12];
    header[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&(len as u32).to_le_bytes());
    header[8..12].copy_from_slice(&crc.finish().to_le_bytes());
    Ok(header)
}

/// Outcome of one [`FrameReader::read_from`] pump.
#[derive(Debug)]
pub enum FrameProgress {
    /// A whole frame arrived; payload verified against its checksum.
    Frame(Vec<u8>),
    /// The reader would block; try again on the next readiness event.
    Blocked,
    /// Clean end-of-stream on a frame boundary.
    Eof,
}

/// Incremental frame decoder for non-blocking streams.
///
/// Where [`read_frame`] parks the thread until a whole frame arrives, a
/// `FrameReader` consumes whatever bytes the socket has and parks the
/// *state* instead: header-so-far, then payload-so-far, resuming exactly
/// where it stopped on the next readiness event. One instance per
/// connection; it carries at most one partial frame.
#[derive(Debug, Default)]
pub struct FrameReader {
    header: [u8; 12],
    header_filled: usize,
    /// Payload length/CRC parsed from the header (`None` until complete).
    want: Option<(usize, u32)>,
    payload: Vec<u8>,
    /// Checksum of `payload` so far, folded in as each read lands (while
    /// the bytes are still in cache) instead of in a second pass.
    crc: Crc32,
}

impl FrameReader {
    /// A fresh decoder at a frame boundary.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// True when mid-frame (a reaped connection with `in_frame` lost data).
    pub fn in_frame(&self) -> bool {
        self.header_filled > 0 || self.want.is_some()
    }

    /// Bytes currently reserved for the partial frame's payload: at most
    /// [`READ_AHEAD`] more than have arrived.
    pub fn reserved(&self) -> usize {
        self.payload.capacity()
    }

    /// Pumps bytes from `r` until a frame completes, the reader would
    /// block, or the stream ends. Returns at most one frame per call;
    /// callers drain by looping until [`FrameProgress::Blocked`].
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::Corrupt`] on bad magic, oversized length, or
    /// checksum mismatch, and [`SwarmError::Io`] on reader failure —
    /// including EOF mid-frame, which surfaces as `UnexpectedEof`.
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> Result<FrameProgress> {
        loop {
            if self.want.is_none() {
                match r.read(&mut self.header[self.header_filled..]) {
                    Ok(0) => {
                        if self.header_filled == 0 {
                            return Ok(FrameProgress::Eof);
                        }
                        return Err(eof_mid_frame(self.header_filled, 12));
                    }
                    Ok(n) => self.header_filled += n,
                    Err(e) => match e.kind() {
                        std::io::ErrorKind::WouldBlock => return Ok(FrameProgress::Blocked),
                        std::io::ErrorKind::Interrupted => continue,
                        _ => return Err(SwarmError::Io(e)),
                    },
                }
                if self.header_filled < 12 {
                    continue;
                }
                let magic = u32::from_le_bytes(self.header[0..4].try_into().unwrap());
                if magic != FRAME_MAGIC {
                    return Err(SwarmError::corrupt(format!(
                        "bad frame magic {magic:#010x}"
                    )));
                }
                let len = u32::from_le_bytes(self.header[4..8].try_into().unwrap()) as usize;
                if len > MAX_FRAME_LEN {
                    return Err(SwarmError::corrupt(format!(
                        "frame length {len} exceeds {MAX_FRAME_LEN}"
                    )));
                }
                let crc = u32::from_le_bytes(self.header[8..12].try_into().unwrap());
                self.want = Some((len, crc));
            }

            let (len, want_crc) = self.want.unwrap();
            while self.payload.len() < len {
                // Straight into the payload's spare capacity (`take` +
                // `read_to_end` neither zero it nor read past `room`),
                // which grows one bounded step at a time and only once
                // the previous step is full, not on every wake-up.
                let filled = self.payload.len();
                if filled == self.payload.capacity() {
                    self.payload.reserve_exact((len - filled).min(READ_AHEAD));
                }
                let room = (self.payload.capacity() - filled).min(len - filled);
                let res = r.by_ref().take(room as u64).read_to_end(&mut self.payload);
                // A failed read keeps what arrived before the failure.
                self.crc.update(&self.payload[filled..]);
                match res {
                    Ok(n) if n < room => return Err(eof_mid_frame(self.payload.len(), len)),
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return Ok(FrameProgress::Blocked)
                    }
                    Err(e) => return Err(SwarmError::Io(e)),
                }
            }

            let got_crc = std::mem::take(&mut self.crc).finish();
            if got_crc != want_crc {
                return Err(SwarmError::corrupt(format!(
                    "frame checksum mismatch: stored {want_crc:#010x}, computed {got_crc:#010x}"
                )));
            }
            self.header_filled = 0;
            self.want = None;
            return Ok(FrameProgress::Frame(std::mem::take(&mut self.payload)));
        }
    }
}

fn eof_mid_frame(got: usize, want: usize) -> SwarmError {
    SwarmError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        format!("frame truncated: wanted {want} bytes, got {got}"),
    ))
}

/// Reads one frame from the blocking reader `r`, verifying magic and
/// checksum.
///
/// # Errors
///
/// Returns [`SwarmError::Io`] on reader failure (including EOF, at a
/// frame boundary or mid-frame, and a read timeout) and
/// [`SwarmError::Corrupt`] on bad magic, oversized length, or checksum
/// mismatch.
pub fn read_frame<R: Read>(mut r: R) -> Result<Vec<u8>> {
    match FrameReader::new().read_from(&mut r)? {
        FrameProgress::Frame(payload) => Ok(payload),
        FrameProgress::Eof => Err(eof_mid_frame(0, 12)),
        FrameProgress::Blocked => Err(SwarmError::Io(std::io::ErrorKind::WouldBlock.into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello swarm").unwrap();
        let got = read_frame(Cursor::new(&buf)).unwrap();
        assert_eq!(got, b"hello swarm");
    }

    #[test]
    fn empty_payload_roundtrips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        assert_eq!(read_frame(Cursor::new(&buf)).unwrap(), b"");
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello swarm").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        let err = read_frame(Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, SwarmError::Corrupt(_)), "{err}");
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"x").unwrap();
        buf[0] ^= 0x01;
        let err = read_frame(Cursor::new(&buf)).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, SwarmError::Io(_)), "{err}");
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(Cursor::new(&buf)).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn back_to_back_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"one").unwrap();
        write_frame(&mut buf, b"two").unwrap();
        let mut cur = Cursor::new(&buf);
        assert_eq!(read_frame(&mut cur).unwrap(), b"one");
        assert_eq!(read_frame(&mut cur).unwrap(), b"two");
    }

    /// A reader that yields its input in `chunk`-byte dribbles with a
    /// `WouldBlock` between each, like a slow non-blocking socket.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        ready: bool,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.ready = false;
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// A frame queued as scattered parts behind `frame_header_for` (the
    /// TCP send path) is byte-identical to `write_frame` of the whole.
    #[test]
    fn frame_header_for_matches_write_frame() {
        let head = b"header";
        let tail = b"payload bytes";
        let mut contiguous = Vec::new();
        write_frame(&mut contiguous, &[&head[..], &tail[..]].concat()).unwrap();
        let header = frame_header_for(&[head, tail]).unwrap();
        assert_eq!(contiguous, [&header[..], head, tail].concat());
        assert_eq!(
            frame_header_for(&[b"solo"]).unwrap(),
            frame_header_for(&[b"so", b"", b"lo"]).unwrap()
        );
        assert!(frame_header_for(&[&[0u8; MAX_FRAME_LEN], b"x"]).is_err());
    }

    #[test]
    fn frame_reader_reassembles_across_would_blocks() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first frame payload").unwrap();
        write_frame(&mut wire, b"second").unwrap();
        let mut r = Dribble {
            data: wire,
            pos: 0,
            chunk: 3,
            ready: false,
        };
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match reader.read_from(&mut r).unwrap() {
                FrameProgress::Frame(f) => frames.push(f),
                FrameProgress::Blocked => continue,
                FrameProgress::Eof => break,
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], b"first frame payload");
        assert_eq!(frames[1], b"second");
        assert!(!reader.in_frame());
    }

    #[test]
    fn frame_reader_rejects_corruption_and_mid_frame_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0xff;
        let mut reader = FrameReader::new();
        let err = reader.read_from(&mut Cursor::new(&wire)).unwrap_err();
        assert!(matches!(err, SwarmError::Corrupt(_)), "{err}");

        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        wire.truncate(wire.len() - 2);
        let mut reader = FrameReader::new();
        let mut cur = Cursor::new(&wire);
        let err = loop {
            match reader.read_from(&mut cur) {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, SwarmError::Io(_)), "{err}");
        let mut empty = Cursor::new(Vec::new());
        let mut reader = FrameReader::new();
        assert!(matches!(
            reader.read_from(&mut empty).unwrap(),
            FrameProgress::Eof
        ));
    }

    #[test]
    fn oversize_frame_is_rejected_before_writing() {
        let payload = vec![0u8; MAX_FRAME_LEN + 1];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &payload).unwrap_err();
        assert!(matches!(err, SwarmError::InvalidArgument(_)), "{err}");
        assert!(sink.is_empty(), "nothing written on reject");
    }
}
