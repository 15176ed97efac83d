//! Services layered on the Swarm log (§2.2).
//!
//! "Swarm provides additional functionality for application programs by
//! layering services on top of the log. Each service can extend and/or
//! hide the functionality of the services on which it is stacked."
//!
//! This crate provides:
//!
//! * [`Service`] / [`ServiceStack`] — the stacking framework: recovery
//!   dispatch (checkpoint restore + record replay), cleaner notifications
//!   (block moves), and demand checkpoints.
//! * [`AruService`] — *atomic recovery units* (the paper's worked
//!   example): groups of records that replay all-or-nothing.
//! * [`LogicalDisk`] — an overwritable block-device abstraction that hides
//!   the append-only log (the paper's "logical disk" service).
//! * [`LruCache`] / [`CachingReader`] — the client-side caching service
//!   the paper credits for masking read latency.
//! * [`transform`] — stackable per-block transforms: checksums
//!   ([`ChecksumTransform`]), LZSS compression ([`CompressTransform`]),
//!   and XTEA-CTR encryption ([`EncryptTransform`]) — the paper's
//!   "compression service; an encryption service; etc."

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aru;
pub mod cache;
pub mod logical_disk;
pub mod lzss;
pub mod service;
pub mod transform;
pub mod xtea;

pub use aru::{AruId, AruService, AruServiceAdapter};
pub use cache::{CachingReader, LruCache};
pub use logical_disk::{LogicalDisk, LogicalDiskService};
pub use service::{Service, ServiceStack};
pub use transform::{
    BlockTransform, ChecksumTransform, CompressTransform, EncryptTransform, TransformStack,
};
