//! Performance simulation of the paper's 1999 testbed (§3.3).
//!
//! The prototype's evaluation hardware — 200 MHz Pentium Pro machines,
//! 100 Mb/s switched Ethernet, Quantum Viking II SCSI disks writing 1 MB
//! fragments at 10.3 MB/s — no longer exists, and absolute numbers from a
//! 2026 machine would say nothing about the paper. This crate rebuilds the
//! *performance model* of that testbed from the constants the paper
//! publishes, so the benchmark harness can regenerate Figures 3–5 and the
//! in-text measurements with the right shape: who wins, by what factor,
//! and where the curves bend.
//!
//! * [`timeline`] — resource-timeline simulation core (each disk, NIC,
//!   and CPU is a serialized resource; a fragment write is a pipeline of
//!   acquisitions with flow control).
//! * [`disk`] — seek/rotate/transfer disk model (Quantum Viking II
//!   geometry) used by the ext2 baseline and the in-text disk bound.
//! * [`calib`] — the 1999 calibration constants with their provenance.
//! * [`cluster`] — the Figure 3/4 write-bandwidth experiment and the
//!   in-text uncached-read measurement.
//! * [`ext2sim`] — an ext2/FFS-style file system model (block groups,
//!   synchronous-ish small writes) as the Figure 5 baseline.
//! * [`mab`] — the Modified Andrew Benchmark workload and runners for
//!   Sting-model vs ext2-model (Figure 5), plus an op list that can be
//!   replayed against the *real* `StingFs` for functional cross-checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod cluster;
pub mod disk;
pub mod ext2sim;
pub mod mab;
pub mod timeline;

pub use calib::Calibration;
pub use cluster::{
    simulate_degraded_read, simulate_read, simulate_read_prefetch, simulate_write, BandwidthPoint,
    ReadPoint,
};
pub use disk::SimDisk;
pub use ext2sim::Ext2Sim;
pub use mab::{mab_workload, run_ext2_model, run_sting_model, FsOp, MabConfig, MabResult};
pub use timeline::Timeline;
