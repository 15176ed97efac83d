//! Deterministic chaos harness for the Swarm storage stack.
//!
//! The paper's availability claims (§2.3.3, §3.3) are about what happens
//! *between* the happy paths: a storage server dies mid-stripe, a reply
//! frame is torn on the wire, a disk fills while the cleaner is moving
//! blocks. This crate turns those situations into a repeatable experiment:
//!
//! 1. [`schedule::Schedule::generate`] expands a 64-bit seed into a typed
//!    event list — appends, flushes, checkpoints, connection resets,
//!    truncated replies, server kill/restart pairs, disk-full windows,
//!    cleaner passes, and whole-client crash/recover cycles. Generation
//!    uses only the seeded RNG, so the same seed always produces the same
//!    schedule (and the same [`schedule::Schedule::hash`]).
//! 2. [`cluster::Cluster`] stands up the same cluster over either
//!    transport: in-process [`swarm_net::MemTransport`] or real sockets
//!    via [`swarm_net::tcp::TcpTransport`]. Each server reads its own
//!    [`swarm_net::FaultPlan`], so one schedule drives both while the
//!    client runs its production path (on TCP, a window of RPCs in flight
//!    per server).
//! 3. [`runner::Runner`] executes the schedule against a live
//!    log + cleaner + service stack while maintaining a model of every
//!    *acknowledged* write, and checks the crash-consistency invariants at
//!    every quiesce point:
//!
//!    * every acked block is readable with its exact bytes, including via
//!      parity reconstruction with up to `m` servers held down at once
//!      (XOR for `m = 1`, Reed–Solomon decode for wider geometries);
//!    * recovery rollforward reaches the live log head;
//!    * the cleaner never reclaims a live stripe (checked indirectly —
//!      blocks stay readable at their possibly-moved addresses after every
//!      cleaning pass).
//!
//! A panic on any thread during a run is an invariant violation like any
//! other ([`install_panic_hook`]): the run fails and its report carries
//! the message and a backtrace.
//!
//! A failing seed prints a one-line replay command. What replays exactly
//! is the schedule (and its hash) and the verdict: neither depends on
//! wall-clock time or unseeded randomness. What may not is the *amount*
//! of work a run did: the `acked` and `reads` counts. Each client's
//! writer threads race the schedule's one-shot injections (a reset or a
//! truncation hits whichever request reaches the server first), so
//! identical reruns can ack a different number of blocks and verify a
//! different number of reads — `--seed 5 --transport mem --store mem
//! --geometry 4+2` has shown both `acked=10 reads=48` and `acked=15
//! reads=77`, passing every time. Making time an input so those replay
//! too is open work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod runner;
pub mod schedule;

pub use cluster::{Cluster, StoreKind, TransportKind};
pub use runner::{install_panic_hook, RunOptions, RunReport, Runner};
pub use schedule::{ChaosEvent, DownSet, Schedule, ScheduleConfig};
