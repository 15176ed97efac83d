//! Ranged rebuild == slice of whole rebuild == the bytes written
//! (DESIGN.md §11 "Reconstruction").
//!
//! `reconstruct::rebuild_range` is the one decode routine: a degraded
//! read decodes just the addressed bytes with it, and the whole-fragment
//! rebuild is the same call over the member's full length plus
//! validation. This file holds the two to each other and to the stored
//! bytes over every geometry the chaos matrix runs plus the degenerate
//! 1+1 mirror, every lost data member, every set of up to `m - 1` further
//! members down, short final stripes (members of unequal length) and
//! ranges that start at the first byte, end at the last, and cross a
//! shorter survivor's end.

use std::sync::Arc;

use proptest::prelude::*;
use swarm_log::fragment::FragmentHeader;
use swarm_log::reconstruct::{
    fetch_fragment, locate_fragment, rebuild_range, reconstruct_fragment, stripe_info,
};
use swarm_log::{Log, LogConfig, ReadEngine};
use swarm_net::{ConnectionPool, MemTransport, Transport};
use swarm_server::{MemStore, StorageServer};
use swarm_types::{
    BlockAddr, Bytes, ClientId, FragmentId, Geometry, ServerId, ServiceId, SwarmError,
};

const SVC: ServiceId = ServiceId::new(1);
const CLIENT: ClientId = ClientId::new(1);
const GEOMETRIES: [(u8, u8); 5] = [(1, 1), (3, 1), (3, 2), (4, 2), (8, 3)];

fn cluster(n: u32) -> Arc<MemTransport> {
    let transport = Arc::new(MemTransport::new());
    for i in 0..n {
        let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
        transport.register(ServerId::new(i), srv);
    }
    transport
}

/// A read engine on a pool of its own, so what one scenario learnt about
/// who is down does not order the next scenario's survivors.
fn fresh_engine(transport: &Arc<MemTransport>) -> ReadEngine {
    let transport = transport.clone() as Arc<dyn Transport>;
    let pool = Arc::new(ConnectionPool::new(transport, CLIENT));
    ReadEngine::new(pool)
}

/// One stripe as the servers hold it: its description and every member's
/// stored bytes.
struct Stripe {
    info: FragmentHeader,
    members: Vec<Bytes>,
}

/// Walks the log from sequence 0 with every server up.
fn stored_stripes(transport: &Arc<MemTransport>) -> Vec<Stripe> {
    let engine = fresh_engine(transport);
    let mut stripes = Vec::new();
    let mut seq = 0;
    while let Some((_, header)) = locate_fragment(engine.pool(), FragmentId::new(CLIENT, seq)) {
        let info = stripe_info(engine.pool(), &header).expect("a healthy stripe describes itself");
        let members = (0..info.member_count)
            .map(|i| fetch_fragment(&engine, info.member_server(i), info.member_fid(i)).unwrap())
            .collect();
        seq += info.member_count as u64;
        stripes.push(Stripe { info, members });
    }
    stripes
}

/// Every subset of `items` with at most `max` elements, the empty one
/// first.
fn subsets_up_to(items: &[u8], max: usize) -> Vec<Vec<u8>> {
    let mut out = vec![vec![]];
    for &item in items {
        for i in 0..out.len() {
            if out[i].len() < max {
                let mut with = out[i].clone();
                with.push(item);
                out.push(with);
            }
        }
    }
    out
}

fn set_down(transport: &MemTransport, info: &FragmentHeader, members: &[u8], down: bool) {
    for &i in members {
        transport.set_down(info.member_server(i), down);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn ranged_rebuild_is_a_slice_of_the_whole_rebuild_and_of_what_was_written(
        geometry in 0usize..GEOMETRIES.len(),
        sizes in proptest::collection::vec(1usize..1400, 12..48),
        picks in proptest::collection::vec((any::<u32>(), any::<u32>()), 6..7),
    ) {
        let (k, m) = GEOMETRIES[geometry];
        let width = u32::from(k + m);
        let transport = cluster(width);
        let config = LogConfig::new(CLIENT, (0..width).map(ServerId::new).collect())
            .unwrap()
            .geometry(Geometry::new(k, m).unwrap())
            .unwrap()
            .fragment_size(4096)
            .cache_fragments(0);
        let log = Log::create(transport.clone(), config).unwrap();
        let mut written: Vec<(BlockAddr, Vec<u8>)> = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let payload: Vec<u8> = (0..size).map(|b| (b * 31 + i * 7) as u8).collect();
            written.push((log.append_block(SVC, b"", &payload).unwrap(), payload));
        }
        // A flush wherever the blocks happen to end: the last stripe is
        // padded with header-only members and its parity spans the longest.
        log.flush().unwrap();

        let stripes = stored_stripes(&transport);
        prop_assert!(!stripes.is_empty());
        // The first stripe and the (short) last one.
        for stripe in [&stripes[0], &stripes[stripes.len() - 1]] {
            let info = &stripe.info;
            for lost in 0..k {
                let fid = info.member_fid(lost);
                let stored = &stripe.members[lost as usize];
                let len = stored.len() as u32;
                let others: Vec<u8> = (0..info.member_count).filter(|&i| i != lost).collect();
                // First byte, last byte, everything, the end of each
                // shorter member from both sides, and random ranges.
                let mut ranges = vec![0..1, len - 1..len, 0..len];
                for other in &stripe.members[..k as usize] {
                    let end = (other.len() as u32).min(len - 1);
                    ranges.push(end.saturating_sub(3)..(end + 3).min(len));
                    ranges.push(end..len);
                }
                for &(a, b) in &picks {
                    let start = a % len;
                    ranges.push(start..start + b % (len - start + 1));
                }

                for down in subsets_up_to(&others, m as usize - 1) {
                    set_down(&transport, info, &[lost], true);
                    set_down(&transport, info, &down, true);
                    let engine = fresh_engine(&transport);
                    for range in &ranges {
                        let got = rebuild_range(&engine, info, lost, range.clone())
                            .unwrap_or_else(|e| panic!("{k}+{m} {fid} {range:?} with {down:?} down: {e}"));
                        prop_assert_eq!(
                            got.as_slice(),
                            &stored[range.start as usize..range.end as usize],
                            "{}+{} {} {:?} with {:?} down", k, m, fid, range, down
                        );
                    }
                    // Past the member's true length is an error, never zeros
                    // — even where a longer member has bytes there.
                    for range in [len..len + 1, 0..len + 1, len - 1..len + 4096] {
                        let refused = matches!(
                            rebuild_range(&engine, info, lost, range.clone()),
                            Err(SwarmError::RangeOutOfBounds { .. })
                        );
                        prop_assert!(refused, "{:?} of a {}-byte member", range, len);
                    }
                    set_down(&transport, info, &down, false);
                }

                // The whole-fragment rebuild is the same routine over
                // [0, len) plus validation, with the home (alone) down...
                let engine = fresh_engine(&transport);
                prop_assert_eq!(&reconstruct_fragment(&engine, fid).unwrap(), stored);
                // ...and the log's own degraded read returns what was written.
                for (addr, payload) in written.iter().filter(|(addr, _)| addr.fid == fid) {
                    prop_assert_eq!(&log.read(*addr).unwrap(), payload);
                }
                // m + 1 losses: beyond repair, ranged or whole.
                let extra: Vec<u8> = others.iter().copied().take(m as usize).collect();
                set_down(&transport, info, &extra, true);
                let engine = fresh_engine(&transport);
                for result in [reconstruct_fragment(&engine, fid), rebuild_range(&engine, info, lost, 0..1)] {
                    let beyond_repair = matches!(result, Err(SwarmError::ReconstructionFailed { .. }));
                    prop_assert!(beyond_repair, "{}+{} {} with {} members down", k, m, fid, m + 1);
                }
                set_down(&transport, info, &extra, false);
                set_down(&transport, info, &[lost], false);
            }
        }
    }
}
