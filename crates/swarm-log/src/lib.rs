//! The Swarm log layer — the paper's primary contribution (§2.1).
//!
//! Swarm's basic storage abstraction is a **striped log**: each client
//! appends blocks and recovery records to its own conceptually infinite
//! log, cuts the log into 1 MB fragments, groups fragments into stripes
//! with one rotated parity member, and spreads each stripe across a group
//! of storage servers. Because every client owns its log and its parity:
//!
//! * clients never synchronize with each other,
//! * servers never synchronize with each other,
//! * any single server failure is masked by client-side XOR
//!   reconstruction, and
//! * crash recovery is checkpoint + rollforward over the client's own
//!   records.
//!
//! # Module map
//!
//! | module | paper section | what it does |
//! |--------|---------------|--------------|
//! | [`entry`] | §2.1.1, Fig 1 | blocks, records, deletes, checkpoints |
//! | [`fragment`] | §2.1.1 | self-identifying fragment format |
//! | [`stripe`] | §2.1.2 | stripe planning, rotated parity placement |
//! | [`parity`] | §2.1.2 | incremental XOR/Reed–Solomon parity, reconstruction math |
//! | [`gf`] | — | GF(2^8) kernel: word-wide multiply, Cauchy coding rows |
//! | [`writer`] | §2.1.2 | pipelined per-server fragment writers |
//! | [`log`] | §2.1 | the [`Log`] type: append / read / checkpoint / flush |
//! | [`reader`] | §2.3 | windowed, batching pipelined read engine |
//! | [`reconstruct`] | §2.3.3 | broadcast locate, stripe description, ranged `k`-survivor decode |
//! | [`recovery`] | §2.1.3 | anchor, checkpoint discovery, rollforward |
//!
//! # Quick start
//!
//! ```no_run
//! use std::sync::Arc;
//! use swarm_log::{Log, LogConfig};
//! use swarm_types::{ClientId, ServerId, ServiceId};
//!
//! # fn transport() -> Arc<dyn swarm_net::Transport> { unimplemented!() }
//! let config = LogConfig::new(
//!     ClientId::new(1),
//!     vec![ServerId::new(0), ServerId::new(1), ServerId::new(2)],
//! )?;
//! let log = Log::create(transport(), config)?;
//! let svc = ServiceId::new(1);
//! let addr = log.append_block(svc, b"creation info", b"payload")?;
//! log.append_record(svc, 7, b"did a thing")?;
//! log.checkpoint(svc, b"consistent state")?;
//! assert_eq!(log.read(addr)?, b"payload");
//! # Ok::<(), swarm_types::SwarmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entry;
pub mod fragment;
pub mod gf;
pub mod log;
pub mod parity;
pub mod reader;
pub mod reconstruct;
pub mod recovery;
pub mod stripe;
pub mod writer;

pub use entry::{Entry, LocatedEntry};
pub use fragment::{FragmentBuilder, FragmentHeader, FragmentView, SealedFragment};
pub use log::{Log, LogConfig, LogPosition, LogStats};
pub use parity::ParityAccumulator;
pub use reader::{ReadEngine, BATCH_CHUNK};
pub use recovery::{recover, Replay, ReplayEntry};
pub use stripe::{StripeGroup, StripePlan};
pub use writer::WritePool;
