//! Log entries: the typed items that fill a fragment's body.
//!
//! §2.1.1 and Figure 1 of the paper: the log is an ordered stream of
//! *blocks* (opaque service data) and *records* (recovery breadcrumbs).
//! The log layer automatically creates records tracking block creation and
//! deletion; services append their own records and periodic *checkpoints*.
//! The log layer never interprets the contents of blocks, creation
//! information, or service records.
//!
//! On-disk encoding (little-endian, inside the fragment body):
//!
//! ```text
//! Block:      tag=1 | service u16 | create_len u32 | create bytes | data_len u32 | data bytes
//! Record:     tag=2 | service u16 | kind u16 | len u32 | bytes
//! Delete:     tag=3 | service u16 | BlockAddr (16 bytes)
//! Checkpoint: tag=4 | service u16 | len u32 | bytes
//! ```
//!
//! A [`swarm_types::BlockAddr`] handed back by the log points directly at
//! the `data bytes` of a Block entry, so reads hit the storage server
//! without any entry parsing.

use swarm_types::{
    BlockAddr, ByteReader, ByteWriter, Decode, Encode, Result, ServiceId, SwarmError,
};

/// Entry type tags (on-disk stable).
pub mod tag {
    /// A data block.
    pub const BLOCK: u8 = 1;
    /// A service recovery record.
    pub const RECORD: u8 = 2;
    /// A block-deletion record (written by the log layer itself).
    pub const DELETE: u8 = 3;
    /// A service checkpoint.
    pub const CHECKPOINT: u8 = 4;
}

/// One parsed log entry.
///
/// Owned variant used when scanning fragments during recovery or cleaning;
/// the write path encodes entries directly into the fragment buffer
/// without materializing this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A data block written by `service`.
    Block {
        /// Service that created the block.
        service: ServiceId,
        /// Service-specific creation information (the paper's "creation
        /// record": e.g. the inode number and file offset of the block),
        /// replayed on recovery and handed to the service when the cleaner
        /// moves the block.
        create: Vec<u8>,
        /// The block contents.
        data: Vec<u8>,
    },
    /// A service-specific recovery record.
    Record {
        /// Service that wrote the record.
        service: ServiceId,
        /// Service-chosen record type.
        kind: u16,
        /// Record payload (opaque to the log layer).
        data: Vec<u8>,
    },
    /// A deletion record for a previously written block.
    Delete {
        /// Service that owned the block.
        service: ServiceId,
        /// Address of the deleted block.
        addr: BlockAddr,
    },
    /// A checkpoint: `service`'s data structures were consistent as of this
    /// point in the log; older records are implicitly deleted (§2.1.3).
    Checkpoint {
        /// Service that checkpointed.
        service: ServiceId,
        /// Checkpoint payload (a serialized consistent state).
        data: Vec<u8>,
    },
}

impl Entry {
    /// The service associated with this entry.
    pub fn service(&self) -> ServiceId {
        match self {
            Entry::Block { service, .. }
            | Entry::Record { service, .. }
            | Entry::Delete { service, .. }
            | Entry::Checkpoint { service, .. } => *service,
        }
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Entry::Block { create, data, .. } => Entry::block_encoded_len(create.len(), data.len()),
            Entry::Record { data, .. } => Entry::record_encoded_len(data.len()),
            Entry::Delete { .. } => 1 + 2 + 16,
            Entry::Checkpoint { data, .. } => 1 + 2 + 4 + data.len(),
        }
    }

    /// Encoded size of a Block entry, from its field lengths alone.
    pub fn block_encoded_len(create_len: usize, data_len: usize) -> usize {
        1 + 2 + 4 + create_len + 4 + data_len
    }

    /// Encoded size of a Record entry, from its payload length alone.
    pub fn record_encoded_len(data_len: usize) -> usize {
        1 + 2 + 2 + 4 + data_len
    }

    /// Writes a Block entry from borrowed fields: the append path's way
    /// of encoding one without first owning an [`Entry`].
    pub(crate) fn encode_block(w: &mut ByteWriter, service: ServiceId, create: &[u8], data: &[u8]) {
        w.put_u8(tag::BLOCK);
        service.encode(w);
        w.put_bytes(create);
        w.put_bytes(data);
    }

    /// Writes a Record entry from borrowed fields (see
    /// [`Entry::encode_block`]).
    pub(crate) fn encode_record(w: &mut ByteWriter, service: ServiceId, kind: u16, data: &[u8]) {
        w.put_u8(tag::RECORD);
        service.encode(w);
        w.put_u16(kind);
        w.put_bytes(data);
    }

    /// Byte offset of a Block entry's data payload relative to the start of
    /// the entry.
    pub fn block_data_offset(create_len: usize) -> usize {
        1 + 2 + 4 + create_len + 4
    }
}

impl Encode for Entry {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Entry::Block {
                service,
                create,
                data,
            } => Entry::encode_block(w, *service, create, data),
            Entry::Record {
                service,
                kind,
                data,
            } => Entry::encode_record(w, *service, *kind, data),
            Entry::Delete { service, addr } => {
                w.put_u8(tag::DELETE);
                service.encode(w);
                addr.encode(w);
            }
            Entry::Checkpoint { service, data } => {
                w.put_u8(tag::CHECKPOINT);
                service.encode(w);
                w.put_bytes(data);
            }
        }
    }
}

impl Decode for Entry {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let t = r.get_u8()?;
        Ok(match t {
            tag::BLOCK => Entry::Block {
                service: ServiceId::decode(r)?,
                create: r.get_bytes()?.to_vec(),
                data: r.get_bytes()?.to_vec(),
            },
            tag::RECORD => Entry::Record {
                service: ServiceId::decode(r)?,
                kind: r.get_u16()?,
                data: r.get_bytes()?.to_vec(),
            },
            tag::DELETE => Entry::Delete {
                service: ServiceId::decode(r)?,
                addr: BlockAddr::decode(r)?,
            },
            tag::CHECKPOINT => Entry::Checkpoint {
                service: ServiceId::decode(r)?,
                data: r.get_bytes()?.to_vec(),
            },
            other => return Err(SwarmError::corrupt(format!("unknown entry tag {other}"))),
        })
    }
}

/// An entry paired with its location in the log: yielded by fragment scans
/// during recovery, cleaning, and debugging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocatedEntry {
    /// The parsed entry.
    pub entry: Entry,
    /// Byte offset of the start of the entry within its fragment.
    pub entry_offset: u32,
    /// For Block entries: the address of the data payload (what services
    /// hold in their metadata). `None` otherwise.
    pub block_addr: Option<BlockAddr>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm_types::{ClientId, FragmentId};

    fn svc(n: u16) -> ServiceId {
        ServiceId::new(n)
    }

    #[test]
    fn all_entry_kinds_roundtrip() {
        let addr = BlockAddr::new(FragmentId::new(ClientId::new(1), 2), 3, 4);
        let entries = vec![
            Entry::Block {
                service: svc(1),
                create: vec![1, 2],
                data: vec![3; 100],
            },
            Entry::Record {
                service: svc(2),
                kind: 7,
                data: vec![9, 9],
            },
            Entry::Delete {
                service: svc(3),
                addr,
            },
            Entry::Checkpoint {
                service: svc(4),
                data: vec![],
            },
        ];
        for e in entries {
            let buf = e.encode_to_vec();
            assert_eq!(buf.len(), e.encoded_len(), "encoded_len for {e:?}");
            assert_eq!(Entry::decode_all(&buf).unwrap(), e);
        }
    }

    #[test]
    fn block_data_offset_matches_encoding() {
        let e = Entry::Block {
            service: svc(1),
            create: vec![0xaa; 13],
            data: vec![0xbb; 50],
        };
        let buf = e.encode_to_vec();
        let off = Entry::block_data_offset(13);
        assert_eq!(&buf[off..off + 50], &[0xbb; 50][..]);
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(Entry::decode_all(&[99]).is_err());
    }

    #[test]
    fn service_accessor() {
        let e = Entry::Record {
            service: svc(5),
            kind: 0,
            data: vec![],
        };
        assert_eq!(e.service(), svc(5));
    }
}
