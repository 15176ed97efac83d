//! Kernel phase of the traced run: the client's per-byte CPU work on
//! 1 MiB fragments, timed by calling the public functions the log calls
//! (`FragmentBuilder` append + `seal`, `ParityAccumulator::add` +
//! `build_parities`, `gf::decode_rows` + `gf::mul_into`). These say how
//! much of `ingest`'s and `degraded-read`'s time the kernels can own; the
//! end-to-end metrics say whether a faster kernel mattered.

use std::hint::black_box;
use std::time::Instant;

use swarm_log::{gf, FragmentBuilder, ParityAccumulator, SealedFragment, StripeGroup, StripePlan};
use swarm_types::{
    ClientId, Geometry, Result, ServerId, StripeSeq, SwarmError, DEFAULT_FRAGMENT_SIZE,
};

use crate::analysis::Metric;
use crate::client::SERVICE;
use crate::cluster::SERVERS;
use crate::gen::{fill_value, BLOCK};
use crate::stats::median;

/// Stripes each kernel is timed over; the median stripe is reported.
const ROUNDS: usize = 9;

fn plan(k: u8, m: u8) -> Result<StripePlan> {
    let servers = (0..SERVERS).map(ServerId::new).collect();
    let group = StripeGroup::with_geometry(servers, Geometry::new(k, m)?)?;
    Ok(group.plan(ClientId::new(1), StripeSeq::new(0)))
}

/// Fills and seals data member `i` of `plan`; returns it and the time.
fn seal(plan: &StripePlan, i: u8, block: &[u8; BLOCK]) -> (SealedFragment, f64) {
    let start = Instant::now();
    let mut b = FragmentBuilder::new(plan.header(i), DEFAULT_FRAGMENT_SIZE);
    while b.fits(11 + 12 + BLOCK) {
        b.append_block(SERVICE, &[0u8; 12], black_box(block));
    }
    let sealed = b.seal();
    let ns = start.elapsed().as_nanos() as f64;
    (black_box(sealed), ns)
}

/// Parity fold + build over one k+m stripe, ns per KiB of data folded.
fn parity(k: u8, m: u8, block: &[u8; BLOCK]) -> Result<f64> {
    let plan = plan(k, m)?;
    let members: Vec<SealedFragment> = (0..k).map(|i| seal(&plan, i, block).0).collect();
    let kib: f64 = members.iter().map(|f| f.len() as f64 / 1024.0).sum();
    let mut per_kib = Vec::new();
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let mut acc = ParityAccumulator::with_geometry(k as usize, m as usize);
        for f in &members {
            acc.add(black_box(f));
        }
        let parities = acc.build_parities((k..k + m).map(|i| plan.header(i)));
        per_kib.push(start.elapsed().as_nanos() as f64 / kib);
        black_box(parities);
    }
    Ok(median(&per_kib))
}

/// Rebuilding one lost data member of a 3+2 stripe from the other two
/// data members and the first parity, ns per KiB rebuilt.
fn decode(block: &[u8; BLOCK]) -> Result<f64> {
    let (k, m) = (3u8, 2u8);
    let plan = plan(k, m)?;
    let members: Vec<SealedFragment> = (0..k).map(|i| seal(&plan, i, block).0).collect();
    let mut acc = ParityAccumulator::with_geometry(k as usize, m as usize);
    for f in &members {
        acc.add(f);
    }
    let parities = acc.build_parities((k..k + m).map(|i| plan.header(i)));
    // Member 1 is lost; members 0, 2 and parity row 0 (member 3) survive.
    let survivors = [0usize, 2, 3];
    let header_len = parities[0].header.encoded_len();
    let bodies: [&[u8]; 3] = [
        members[0].bytes.as_slice(),
        members[2].bytes.as_slice(),
        &parities[0].bytes.as_slice()[header_len..],
    ];
    let lost = members[1].bytes.as_slice();
    let mut per_kib = Vec::new();
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let rows = gf::decode_rows(k as usize, &survivors, &[1])
            .ok_or_else(|| SwarmError::other("3+2 survivor matrix is singular"))?;
        let mut out = Vec::with_capacity(lost.len());
        for (body, &c) in bodies.iter().zip(&rows[0]) {
            gf::mul_into(&mut out, black_box(body), c);
        }
        per_kib.push(start.elapsed().as_nanos() as f64 / (lost.len() as f64 / 1024.0));
        if out[..lost.len()] != *lost {
            return Err(SwarmError::other(
                "3+2 decode kernel rebuilt the wrong bytes",
            ));
        }
    }
    Ok(median(&per_kib))
}

/// The four kernel metrics.
pub fn run() -> Result<Vec<Metric>> {
    let mut block = [0u8; BLOCK];
    fill_value(&mut block, 1, 1, 1);
    let plan41 = plan(4, 1)?;
    let seals: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let (f, ns) = seal(&plan41, 0, &block);
            ns / (f.len() as f64 / 1024.0)
        })
        .collect();
    Ok(vec![
        ("log.seal_ns_per_kib".into(), "ns/KiB", median(&seals)),
        (
            "log.parity_ns_per_kib.4p1".into(),
            "ns/KiB",
            parity(4, 1, &block)?,
        ),
        (
            "log.parity_ns_per_kib.3p2".into(),
            "ns/KiB",
            parity(3, 2, &block)?,
        ),
        (
            "log.decode_ns_per_kib.3p2".into(),
            "ns/KiB",
            decode(&block)?,
        ),
    ])
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernels_run_and_check_their_own_output() {
        let metrics = super::run().expect("kernels");
        assert_eq!(metrics.len(), 4);
        assert!(metrics.iter().all(|m| m.2 > 0.0));
    }
}
