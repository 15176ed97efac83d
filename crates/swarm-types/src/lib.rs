//! Fundamental types shared by every Swarm crate.
//!
//! Swarm ("The Swarm Scalable Storage System", ICDCS '99) is built from a
//! small set of pervasive concepts: clients that own append-only logs,
//! fragments that hold pieces of those logs, stripes that bind fragments
//! together with parity, and storage servers that hold fragments. This crate
//! defines the identifiers for those concepts, the error type used across
//! the workspace, the binary wire/disk codec every on-disk and on-wire
//! structure is expressed in, small utilities (CRC32) that the codec and
//! fragment formats rely on, and the one [`LruCache`] every cache uses.
//!
//! # Example
//!
//! ```
//! use swarm_types::{ClientId, FragmentId, BlockAddr};
//!
//! let client = ClientId::new(7);
//! let fid = FragmentId::new(client, 42);
//! assert_eq!(fid.client(), client);
//! assert_eq!(fid.seq(), 42);
//!
//! let addr = BlockAddr::new(fid, 4096, 512);
//! assert_eq!(addr.end(), 4608);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod codec;
pub mod constants;
pub mod crc;
pub mod error;
pub mod geometry;
pub mod id;
mod lru;

pub use bytes::Bytes;
pub use codec::{ByteReader, ByteWriter, Decode, Encode};
pub use constants::{DEFAULT_BLOCK_SIZE, DEFAULT_FRAGMENT_SIZE, MAX_PARITY, MAX_STRIPE_WIDTH};
pub use crc::crc32;
pub use error::{Result, SwarmError};
pub use geometry::Geometry;
pub use id::{Aid, BlockAddr, ClientId, FragmentId, ServerId, ServiceId, StripeSeq};
pub use lru::LruCache;
