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
//! * [`CachingReader`] — the client-side caching service the paper
//!   credits for masking read latency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aru;
pub mod cache;
pub mod logical_disk;
pub mod service;

pub use aru::{AruId, AruService, AruServiceAdapter};
pub use cache::CachingReader;
pub use logical_disk::{LogicalDisk, LogicalDiskService};
pub use service::{Service, ServiceStack};
