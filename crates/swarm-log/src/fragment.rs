//! Fragment format: the unit of striping and storage (§2.1.1–2.1.2).
//!
//! A fragment is `header || body`. The header makes every fragment
//! *self-identifying* — it names the stripe the fragment belongs to, the
//! stripe's full membership (fragment ids are consecutive, so only the
//! first sequence number and count are needed), and which server holds
//! each member. This is what lets a client reconstruct a lost fragment
//! after finding *any* surviving member of the same stripe via broadcast
//! (§2.3.3: "reconstruction on the client is made possible by storing
//! stripe group information in each fragment of a stripe").
//!
//! The body is a dense sequence of [`Entry`] encodings. Blocks are
//! addressed by `(fid, absolute byte offset)`, so the storage server can
//! serve block reads without understanding the format. Header and body are
//! independently checksummed.

use swarm_types::constants::{FORMAT_VERSION, FRAGMENT_MAGIC};
use swarm_types::{
    crc32, BlockAddr, ByteReader, ByteWriter, Bytes, Decode, Encode, FragmentId, Result, ServerId,
    ServiceId, StripeSeq, SwarmError,
};

use crate::entry::{Entry, LocatedEntry};

/// Flag bit: this fragment holds parity, not data.
pub const FLAG_PARITY: u16 = 1 << 0;
/// Flag bit: this fragment was stored *marked* (contains a checkpoint).
pub const FLAG_MARKED: u16 = 1 << 1;

/// How many leading bytes of a fragment a `Locate` request must fetch to
/// be guaranteed the complete header (group and length tables included).
pub const LOCATE_HEADER_LEN: u32 = 1024;

/// The self-identifying fragment header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentHeader {
    /// Format flags ([`FLAG_PARITY`], [`FLAG_MARKED`]).
    pub flags: u16,
    /// This fragment's id.
    pub fid: FragmentId,
    /// Which stripe of this client's log the fragment belongs to.
    pub stripe: StripeSeq,
    /// Sequence number of the stripe's first member fragment; member `i`
    /// has fid `client/(first_seq + i)`.
    pub stripe_first_seq: u64,
    /// Number of fragments in the stripe (data + parity).
    pub member_count: u8,
    /// This fragment's index within the stripe.
    pub my_index: u8,
    /// Index of the *first* parity member (= number of data members `k`).
    /// Members `parity_index..member_count` are all parity; the paper's
    /// single-XOR shape has `parity_index == member_count - 1`.
    pub parity_index: u8,
    /// Length of the body in bytes.
    pub body_len: u32,
    /// CRC32 of the body.
    pub body_crc: u32,
    /// Member `i` of the stripe is stored on `group[i]`.
    pub group: Vec<ServerId>,
    /// Full stored length of each member fragment (parity fragments only;
    /// empty for data fragments). Needed to trim a reconstructed fragment
    /// to its true length.
    pub member_lens: Vec<u32>,
}

impl FragmentHeader {
    /// Is this a parity fragment?
    pub fn is_parity(&self) -> bool {
        self.flags & FLAG_PARITY != 0
    }

    /// Number of data members in the stripe (`k`).
    pub fn data_count(&self) -> u8 {
        self.parity_index
    }

    /// Number of parity members in the stripe (`m`).
    pub fn parity_count(&self) -> u8 {
        self.member_count - self.parity_index
    }

    /// Is stripe member `i` a parity member?
    pub fn is_parity_member(&self, i: u8) -> bool {
        i >= self.parity_index
    }

    /// Encoded header length in bytes (stable once `group` and
    /// `member_lens` are fixed).
    pub fn encoded_len(&self) -> usize {
        // magic4 ver2 flags2 fid8 stripe8 first8 count1 idx1 par1 pad1
        // body_len4 body_crc4 = 44, then group(4+4n) lens(4+4m) crc4
        44 + 4 + 4 * self.group.len() + 4 + 4 * self.member_lens.len() + 4
    }

    /// Fid of stripe member `i`.
    pub fn member_fid(&self, i: u8) -> FragmentId {
        FragmentId::new(self.fid.client(), self.stripe_first_seq + i as u64)
    }

    /// Server holding stripe member `i`.
    pub fn member_server(&self, i: u8) -> ServerId {
        self.group[i as usize]
    }

    fn encode_body(&self, w: &mut ByteWriter) {
        w.put_u32(FRAGMENT_MAGIC);
        w.put_u16(FORMAT_VERSION);
        w.put_u16(self.flags);
        self.fid.encode(w);
        self.stripe.encode(w);
        w.put_u64(self.stripe_first_seq);
        w.put_u8(self.member_count);
        w.put_u8(self.my_index);
        w.put_u8(self.parity_index);
        w.put_u8(0);
        w.put_u32(self.body_len);
        w.put_u32(self.body_crc);
        self.group.encode(w);
        w.put_u32(self.member_lens.len() as u32);
        for len in &self.member_lens {
            w.put_u32(*len);
        }
    }
}

impl Encode for FragmentHeader {
    fn encode(&self, w: &mut ByteWriter) {
        let mut inner = ByteWriter::with_capacity(self.encoded_len());
        self.encode_body(&mut inner);
        let crc = crc32(inner.as_slice());
        w.put_raw(inner.as_slice());
        w.put_u32(crc);
    }
}

impl Decode for FragmentHeader {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let start = r.position();
        let magic = r.get_u32()?;
        if magic != FRAGMENT_MAGIC {
            return Err(SwarmError::corrupt(format!(
                "bad fragment magic {magic:#010x}"
            )));
        }
        let version = r.get_u16()?;
        if version != FORMAT_VERSION {
            return Err(SwarmError::corrupt(format!(
                "unsupported fragment format version {version}"
            )));
        }
        let flags = r.get_u16()?;
        let fid = FragmentId::decode(r)?;
        let stripe = StripeSeq::decode(r)?;
        let stripe_first_seq = r.get_u64()?;
        let member_count = r.get_u8()?;
        let my_index = r.get_u8()?;
        let parity_index = r.get_u8()?;
        let _pad = r.get_u8()?;
        let body_len = r.get_u32()?;
        let body_crc = r.get_u32()?;
        let group = Vec::<ServerId>::decode(r)?;
        let n_lens = r.get_u32()? as usize;
        if n_lens > crate::stripe::MAX_WIDTH {
            return Err(SwarmError::corrupt("member_lens too long"));
        }
        let mut member_lens = Vec::with_capacity(n_lens);
        for _ in 0..n_lens {
            member_lens.push(r.get_u32()?);
        }
        let end = r.position();
        let header = FragmentHeader {
            flags,
            fid,
            stripe,
            stripe_first_seq,
            member_count,
            my_index,
            parity_index,
            body_len,
            body_crc,
            group,
            member_lens,
        };
        // Verify header CRC over the *raw consumed bytes* — not a
        // re-encoding — so any flipped bit (even in padding) is caught.
        let stored_crc = r.get_u32()?;
        let raw = r.slice(start, end)?;
        if crc32(raw) != stored_crc {
            return Err(SwarmError::corrupt("fragment header checksum mismatch"));
        }
        if header.member_count as usize != header.group.len() {
            return Err(SwarmError::corrupt(format!(
                "member_count {} != group size {}",
                header.member_count,
                header.group.len()
            )));
        }
        if header.my_index >= header.member_count
            || header.parity_index >= header.member_count
            || header.parity_index == 0
        {
            return Err(SwarmError::corrupt("member index out of range"));
        }
        Ok(header)
    }
}

/// Parses just the header from a fragment prefix (what `Locate` returns).
///
/// # Errors
///
/// Returns [`SwarmError::Corrupt`] on malformed or truncated headers.
pub fn parse_header(prefix: &[u8]) -> Result<FragmentHeader> {
    let mut r = ByteReader::new(prefix);
    FragmentHeader::decode(&mut r)
}

/// A sealed fragment, ready to hand to the write pipeline.
#[derive(Debug, Clone)]
pub struct SealedFragment {
    /// Parsed copy of the header (identical to the encoded prefix of
    /// `bytes`).
    pub header: FragmentHeader,
    /// Complete fragment bytes (header || body), shared so the write
    /// pipeline, parity accumulator, and fragment cache can all hold the
    /// sealed buffer without copying it.
    pub bytes: Bytes,
    /// Store this fragment marked (contains a checkpoint).
    pub marked: bool,
}

impl SealedFragment {
    /// The fragment id.
    pub fn fid(&self) -> FragmentId {
        self.header.fid
    }

    /// Total length in bytes.
    pub fn len(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// A sealed fragment always contains at least a header.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Incrementally builds one data fragment.
///
/// Appends return the *absolute* byte address of the appended item, which
/// is what the log layer reports back to services ("when a service stores
/// a block in the log, the log layer responds with the FID and offset of
/// the block", §2.1.1).
#[derive(Debug)]
pub struct FragmentBuilder {
    header: FragmentHeader,
    /// `header || entries so far`; entries are encoded straight into it.
    buf: ByteWriter,
    header_len: usize,
    capacity: usize,
    entries: u32,
    marked: bool,
}

impl FragmentBuilder {
    /// Starts a fragment. `header.body_len`/`body_crc` are patched at
    /// seal time; `capacity` bounds the total fragment size.
    pub fn new(mut header: FragmentHeader, capacity: usize) -> Self {
        header.body_len = 0;
        header.body_crc = 0;
        let header_len = header.encoded_len();
        assert!(
            capacity > header_len,
            "fragment capacity {capacity} smaller than header {header_len}"
        );
        let mut buf = ByteWriter::with_capacity(capacity);
        buf.put_raw(&vec![0; header_len]); // placeholder; rewritten at seal
        FragmentBuilder {
            header,
            buf,
            header_len,
            capacity,
            entries: 0,
            marked: false,
        }
    }

    /// The fragment id being built.
    pub fn fid(&self) -> FragmentId {
        self.header.fid
    }

    /// Bytes still available for entries.
    pub fn remaining(&self) -> usize {
        self.capacity - self.buf.len()
    }

    /// Would an entry of `len` encoded bytes fit?
    pub fn fits(&self, len: usize) -> bool {
        len <= self.remaining()
    }

    /// Number of entries appended so far.
    pub fn entry_count(&self) -> u32 {
        self.entries
    }

    /// `true` if no entries have been appended.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Current fragment length (header + body so far).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Reads bytes already appended to this (still open) fragment.
    /// Entries are immutable once appended, so serving reads from the
    /// build buffer is safe; the header region is still provisional.
    ///
    /// Returns `None` if the range extends past what has been appended
    /// or into the unsealed header.
    pub fn read_range(&self, offset: u32, len: u32) -> Option<&[u8]> {
        let start = offset as usize;
        let end = start + len as usize;
        if start < self.header_len || end > self.buf.len() {
            return None;
        }
        Some(&self.buf.as_slice()[start..end])
    }

    /// Runs `encode` against the build buffer as one entry of `len`
    /// encoded bytes, returning the entry's offset.
    fn append_with(&mut self, len: usize, what: &str, encode: impl FnOnce(&mut ByteWriter)) -> u32 {
        assert!(self.fits(len), "{what} does not fit");
        let offset = self.buf.len();
        encode(&mut self.buf);
        debug_assert_eq!(self.buf.len(), offset + len);
        self.entries += 1;
        offset as u32
    }

    /// Appends a block entry, returning the address of its data payload.
    ///
    /// # Panics
    ///
    /// Panics if the entry does not fit — callers check [`Self::fits`]
    /// first (the log layer seals and rolls to a new fragment instead).
    pub fn append_block(&mut self, service: ServiceId, create: &[u8], data: &[u8]) -> BlockAddr {
        let len = Entry::block_encoded_len(create.len(), data.len());
        let entry_offset = self.append_with(len, "block", |w| {
            Entry::encode_block(w, service, create, data)
        });
        let data_offset = entry_offset + Entry::block_data_offset(create.len()) as u32;
        BlockAddr::new(self.header.fid, data_offset, data.len() as u32)
    }

    /// Appends a service record, returning its entry offset.
    ///
    /// # Panics
    ///
    /// Panics if the entry does not fit (see [`Self::append_block`]).
    pub fn append_record(&mut self, service: ServiceId, kind: u16, data: &[u8]) -> u32 {
        let len = Entry::record_encoded_len(data.len());
        self.append_with(len, "record", |w| {
            Entry::encode_record(w, service, kind, data)
        })
    }

    /// Appends a block-deletion record.
    ///
    /// # Panics
    ///
    /// Panics if the entry does not fit (see [`Self::append_block`]).
    pub fn append_delete(&mut self, service: ServiceId, addr: BlockAddr) -> u32 {
        let entry = Entry::Delete { service, addr };
        self.append_with(entry.encoded_len(), "delete", |w| entry.encode(w))
    }

    /// Appends a checkpoint entry and marks the fragment.
    ///
    /// # Panics
    ///
    /// Panics if the entry does not fit (see [`Self::append_block`]).
    pub fn append_checkpoint(&mut self, service: ServiceId, data: &[u8]) -> u32 {
        let entry = Entry::Checkpoint {
            service,
            data: data.to_vec(),
        };
        let offset = self.append_with(entry.encoded_len(), "checkpoint", |w| entry.encode(w));
        self.marked = true;
        offset
    }

    /// Forces the fragment to be stored *marked* even without a checkpoint
    /// entry. Recovery uses this to write an anchor fragment (checkpoint
    /// directory only) past a torn-tail gap.
    pub fn mark(&mut self) {
        self.marked = true;
    }

    /// Finalizes the fragment: fills in body length/CRC and the header
    /// checksum.
    pub fn seal(mut self) -> SealedFragment {
        let mut buf = self.buf.into_bytes();
        let body = &buf[self.header_len..];
        self.header.body_len = body.len() as u32;
        self.header.body_crc = crc32(body);
        if self.marked {
            self.header.flags |= FLAG_MARKED;
        }
        let mut w = ByteWriter::with_capacity(self.header_len);
        self.header.encode(&mut w);
        debug_assert_eq!(w.len(), self.header_len);
        buf[..self.header_len].copy_from_slice(w.as_slice());
        SealedFragment {
            header: self.header,
            bytes: buf.into(),
            marked: self.marked,
        }
    }
}

/// A parsed fragment: header plus located entries.
#[derive(Debug, Clone)]
pub struct FragmentView {
    /// The fragment header.
    pub header: FragmentHeader,
    /// Entries in log order with their addresses.
    pub entries: Vec<LocatedEntry>,
}

impl FragmentView {
    /// Parses and verifies a complete fragment.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::Corrupt`] on checksum mismatch or malformed
    /// entries. Parity fragments parse with an empty entry list (their
    /// body is XOR data, not entries).
    pub fn parse(bytes: &[u8]) -> Result<FragmentView> {
        let mut r = ByteReader::new(bytes);
        let header = FragmentHeader::decode(&mut r)?;
        let header_len = r.position();
        let body_end = header_len + header.body_len as usize;
        if body_end > bytes.len() {
            return Err(SwarmError::corrupt(format!(
                "fragment truncated: header says body ends at {body_end}, have {}",
                bytes.len()
            )));
        }
        let body = &bytes[header_len..body_end];
        if crc32(body) != header.body_crc {
            return Err(SwarmError::corrupt("fragment body checksum mismatch"));
        }
        let mut entries = Vec::new();
        if !header.is_parity() {
            let mut er = ByteReader::new(body);
            while !er.is_empty() {
                let entry_offset = (header_len + er.position()) as u32;
                let entry = Entry::decode(&mut er)?;
                let block_addr = match &entry {
                    Entry::Block { create, data, .. } => Some(BlockAddr::new(
                        header.fid,
                        entry_offset + Entry::block_data_offset(create.len()) as u32,
                        data.len() as u32,
                    )),
                    _ => None,
                };
                entries.push(LocatedEntry {
                    entry,
                    entry_offset,
                    block_addr,
                });
            }
        }
        Ok(FragmentView { header, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use swarm_types::ClientId;

    fn header(fid_seq: u64) -> FragmentHeader {
        FragmentHeader {
            flags: 0,
            fid: FragmentId::new(ClientId::new(1), fid_seq),
            stripe: StripeSeq::new(0),
            stripe_first_seq: 0,
            member_count: 3,
            my_index: fid_seq as u8,
            parity_index: 2,
            body_len: 0,
            body_crc: 0,
            group: vec![ServerId::new(0), ServerId::new(1), ServerId::new(2)],
            member_lens: vec![],
        }
    }

    #[test]
    fn header_roundtrip() {
        let mut h = header(1);
        h.body_len = 123;
        h.body_crc = 456;
        h.member_lens = vec![100, 200];
        let buf = h.encode_to_vec();
        assert_eq!(buf.len(), h.encoded_len());
        assert_eq!(FragmentHeader::decode_all(&buf).unwrap(), h);
    }

    #[test]
    fn header_checksum_detects_flips() {
        let h = header(0);
        let mut buf = h.encode_to_vec();
        buf[10] ^= 1;
        assert!(parse_header(&buf).is_err());
    }

    #[test]
    fn header_parses_from_oversized_prefix() {
        let h = header(0);
        let mut buf = h.encode_to_vec();
        buf.extend_from_slice(&[0xff; 300]); // trailing body bytes
        let parsed = parse_header(&buf).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn locate_header_len_covers_max_header() {
        let h = FragmentHeader {
            group: (0..crate::stripe::MAX_WIDTH as u32)
                .map(ServerId::new)
                .collect(),
            member_lens: vec![0; crate::stripe::MAX_WIDTH],
            member_count: crate::stripe::MAX_WIDTH as u8,
            ..header(0)
        };
        assert!(h.encoded_len() as u32 <= LOCATE_HEADER_LEN);
    }

    #[test]
    fn build_seal_parse_roundtrip() {
        let mut b = FragmentBuilder::new(header(0), 8192);
        let a1 = b.append_block(ServiceId::new(1), b"meta1", b"block one data");
        let r1 = b.append_record(ServiceId::new(1), 42, b"record payload");
        let a2 = b.append_block(ServiceId::new(2), b"", b"second");
        b.append_delete(ServiceId::new(1), a1);
        b.append_checkpoint(ServiceId::new(1), b"ckpt");
        let sealed = b.seal();
        assert!(sealed.marked);
        assert!(sealed.header.flags & FLAG_MARKED != 0);

        let view = FragmentView::parse(&sealed.bytes).unwrap();
        assert_eq!(view.entries.len(), 5);
        // Block addresses computed at append time match parse-time ones.
        assert_eq!(view.entries[0].block_addr, Some(a1));
        assert_eq!(view.entries[2].block_addr, Some(a2));
        assert_eq!(view.entries[1].entry_offset, r1);
        // The data bytes really live at the address.
        let addr = a1;
        assert_eq!(
            &sealed.bytes[addr.offset as usize..addr.end() as usize],
            b"block one data"
        );
        match &view.entries[4].entry {
            Entry::Checkpoint { data, .. } => assert_eq!(data, b"ckpt"),
            e => panic!("{e:?}"),
        }
    }

    #[test]
    fn builder_capacity_accounting() {
        let h = header(0);
        let hlen = h.encoded_len();
        let mut b = FragmentBuilder::new(h, hlen + 100);
        assert_eq!(b.remaining(), 100);
        assert!(b.is_empty());
        let e = Entry::Record {
            service: ServiceId::new(1),
            kind: 0,
            data: vec![0; 50],
        };
        assert!(b.fits(e.encoded_len()));
        b.append_record(ServiceId::new(1), 0, &[0; 50]);
        assert!(!b.fits(e.encoded_len()));
        assert_eq!(b.entry_count(), 1);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overfull_append_panics() {
        let h = header(0);
        let hlen = h.encoded_len();
        let mut b = FragmentBuilder::new(h, hlen + 10);
        b.append_record(ServiceId::new(1), 0, &[0; 50]);
    }

    #[test]
    fn corrupt_body_detected() {
        let mut b = FragmentBuilder::new(header(0), 4096);
        b.append_block(ServiceId::new(1), b"", b"data");
        let sealed = b.seal();
        let mut bytes = sealed.bytes.to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(FragmentView::parse(&bytes).is_err());
    }

    #[test]
    fn truncated_fragment_detected() {
        let mut b = FragmentBuilder::new(header(0), 4096);
        b.append_block(ServiceId::new(1), b"", b"data");
        let sealed = b.seal();
        let cut = &sealed.bytes[..sealed.bytes.len() - 2];
        assert!(FragmentView::parse(cut).is_err());
    }

    #[test]
    fn parity_fragment_parses_without_entries() {
        let mut h = header(2);
        h.flags = FLAG_PARITY;
        h.member_lens = vec![10, 20];
        let body = vec![0xab; 64];
        h.body_len = body.len() as u32;
        h.body_crc = crc32(&body);
        let mut w = ByteWriter::new();
        h.encode(&mut w);
        w.put_raw(&body);
        let view = FragmentView::parse(w.as_slice()).unwrap();
        assert!(view.header.is_parity());
        assert!(view.entries.is_empty());
    }

    proptest! {
        /// Appending from borrowed fields writes exactly what encoding an
        /// owned [`Entry`] would have, at the addresses a parse finds.
        #[test]
        fn prop_borrowed_appends_equal_entry_encode(
            items in proptest::collection::vec(
                (
                    any::<bool>(),
                    1u16..9,
                    any::<u16>(),
                    proptest::collection::vec(any::<u8>(), 0..12),
                    proptest::collection::vec(any::<u8>(), 0..300),
                ),
                0..24,
            ),
        ) {
            let mut b = FragmentBuilder::new(header(0), 16 * 1024);
            let mut want = ByteWriter::new();
            let mut addrs = Vec::new();
            let mut entries = Vec::new();
            for (is_block, service, kind, create, data) in items {
                let service = ServiceId::new(service);
                let entry = if is_block {
                    addrs.push(Some(b.append_block(service, &create, &data)));
                    Entry::Block { service, create, data }
                } else {
                    b.append_record(service, kind, &data);
                    addrs.push(None);
                    Entry::Record { service, kind, data }
                };
                entry.encode(&mut want);
                entries.push(entry);
            }
            let sealed = b.seal();
            let header_len = sealed.header.encoded_len();
            prop_assert_eq!(&sealed.bytes[header_len..], want.as_slice());

            let view = FragmentView::parse(&sealed.bytes).unwrap();
            let parsed: Vec<_> = view.entries.iter().map(|e| e.block_addr).collect();
            prop_assert_eq!(parsed, addrs);
            let parsed: Vec<_> = view.entries.into_iter().map(|e| e.entry).collect();
            prop_assert_eq!(parsed, entries);
        }
    }
}
