//! Fault injection: transient server outages and torn log tails.

use std::sync::Arc;
use std::time::Duration;

use swarm_log::{recover, Entry, FragmentBuilder, Log, LogConfig, ParityAccumulator};
use swarm_net::{MemTransport, Request, Transport};
use swarm_server::{FragmentStore, MemStore, StorageServer};
use swarm_types::{ClientId, Geometry, ServerId, ServiceId, StripeSeq, SwarmError};

const SVC: ServiceId = ServiceId::new(1);

fn cluster(n: u32) -> (Arc<MemTransport>, Vec<Arc<StorageServer<MemStore>>>) {
    let transport = Arc::new(MemTransport::new());
    let mut servers = Vec::new();
    for i in 0..n {
        let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
        transport.register(ServerId::new(i), srv.clone());
        servers.push(srv);
    }
    (transport, servers)
}

fn config(servers: u32) -> LogConfig {
    LogConfig::new(ClientId::new(1), (0..servers).map(ServerId::new).collect())
        .unwrap()
        .fragment_size(4096)
}

fn rs_config(geometry: &str) -> LogConfig {
    let g: Geometry = geometry.parse().unwrap();
    LogConfig::new(
        ClientId::new(1),
        (0..g.width() as u32).map(ServerId::new).collect(),
    )
    .unwrap()
    .geometry(g)
    .unwrap()
    .fragment_size(4096)
}

#[test]
fn rs_stripes_survive_m_concurrent_server_losses() {
    // The tentpole guarantee: k+m Reed–Solomon stripes serve byte-exact
    // reads with any m servers down — one more than XOR can absorb.
    for geometry in ["4+2", "8+3", "2+2"] {
        let g: Geometry = geometry.parse().unwrap();
        let width = g.width() as u32;
        let m = g.parity() as usize;
        let (transport, _servers) = cluster(width);
        let log = Log::create(transport.clone(), rs_config(geometry).cache_fragments(0)).unwrap();
        let mut addrs = Vec::new();
        for i in 0..48u32 {
            let payload = vec![(i % 251) as u8; 200 + (i as usize * 53) % 2500];
            addrs.push((log.append_block(SVC, b"", &payload).unwrap(), payload));
        }
        log.flush().unwrap();

        // Every m-subset of servers down, all acked blocks still read
        // byte-exact (width is small enough to sweep exhaustively).
        let mut patterns = 0;
        for pattern in 0u32..(1 << width) {
            if pattern.count_ones() as usize != m {
                continue;
            }
            patterns += 1;
            for s in 0..width {
                transport.set_down(ServerId::new(s), pattern & (1 << s) != 0);
            }
            // Spot-check a rotating handful per pattern (the full sweep
            // across all patterns covers every block many times over).
            for (j, (addr, payload)) in addrs.iter().enumerate() {
                if (j as u32 + pattern).is_multiple_of(7) {
                    assert_eq!(
                        &log.read(*addr).unwrap(),
                        payload,
                        "geometry {geometry} pattern {pattern:b} block {j}"
                    );
                }
            }
        }
        assert!(patterns > 1, "sweep actually ran");
        for s in 0..width {
            transport.set_down(ServerId::new(s), false);
        }
    }
}

#[test]
fn rs_recovery_with_m_servers_down() {
    // Checkpoint + records written at 4+2, then recovery runs with two
    // servers dead: rollforward must decode everything it replays.
    let (transport, _servers) = cluster(6);
    {
        let log = Log::create(transport.clone(), rs_config("4+2")).unwrap();
        log.checkpoint(SVC, b"anchored state").unwrap();
        for k in 0..10u16 {
            log.append_record(SVC, k, &[k as u8; 900]).unwrap();
        }
        log.flush().unwrap();
    }
    transport.set_down(ServerId::new(2), true);
    transport.set_down(ServerId::new(5), true);
    let (_log, replay) = recover(transport, rs_config("4+2"), &[SVC]).unwrap();
    assert_eq!(replay.checkpoint_data(SVC).unwrap(), b"anchored state");
    let kinds: Vec<u16> = replay
        .records_for(SVC)
        .iter()
        .filter_map(|e| match &e.entry {
            Entry::Record { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    assert_eq!(kinds, (0..10u16).collect::<Vec<_>>());
}

#[test]
fn recovery_with_wrong_geometry_is_rejected() {
    // Same width, different k/m split: recovery must refuse rather than
    // mis-stripe new data (5+1 and 4+2 both occupy 6 servers).
    let (transport, _servers) = cluster(6);
    {
        let log = Log::create(transport.clone(), rs_config("4+2")).unwrap();
        log.append_record(SVC, 1, &[0u8; 600]).unwrap();
        log.flush().unwrap();
    }
    let err = recover(transport, rs_config("5+1"), &[SVC]).unwrap_err();
    assert!(matches!(err, SwarmError::InvalidArgument(_)), "{err}");
    assert!(err.to_string().contains("geometry"), "{err}");
}

#[test]
fn rs_geometry_must_match_group_width() {
    let err = LogConfig::new(ClientId::new(1), (0..5).map(ServerId::new).collect())
        .unwrap()
        .geometry("4+2".parse().unwrap())
        .unwrap_err();
    assert!(matches!(err, SwarmError::InvalidArgument(_)), "{err}");
}

#[test]
fn transient_server_outage_is_absorbed_by_retry() {
    let (transport, servers) = cluster(2);
    let log = Log::create(transport.clone(), config(2)).unwrap();
    for i in 0..20u32 {
        log.append_block(SVC, b"", &vec![i as u8; 600]).unwrap();
    }
    // Take server 1 down briefly while the flush is in flight; the write
    // pool's retry/backoff should ride it out.
    transport.set_down(ServerId::new(1), true);
    let t2 = transport.clone();
    let reviver = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        t2.set_down(ServerId::new(1), false);
    });
    log.flush()
        .expect("transient outage should be retried away");
    reviver.join().unwrap();
    let total: u64 = servers.iter().map(|s| s.store().fragment_count()).sum();
    assert!(total > 0);
    // Everything is readable afterwards.
    let addr = log.append_block(SVC, b"", b"post-outage").unwrap();
    log.flush().unwrap();
    assert_eq!(log.read(addr).unwrap(), b"post-outage");
}

#[test]
fn permanent_outage_still_fails_the_flush() {
    let (transport, _servers) = cluster(2);
    let log = Log::create(transport.clone(), config(2)).unwrap();
    log.append_block(SVC, b"", &[1u8; 600]).unwrap();
    transport.set_down(ServerId::new(1), true);
    let err = log.flush().unwrap_err();
    assert!(matches!(err, SwarmError::ServerUnavailable(_)), "{err}");
}

#[test]
fn torn_tail_is_discarded_but_durable_prefix_survives() {
    let (transport, _servers) = cluster(3);
    let mut early_records = 0u32;
    {
        let log = Log::create(transport.clone(), config(3)).unwrap();
        log.checkpoint(SVC, b"anchor").unwrap();
        for k in 0..12u16 {
            log.append_record(SVC, k, &[k as u8; 500]).unwrap();
            early_records += 1;
        }
        log.flush().unwrap();
        // More records that are flushed…
        for k in 100..104u16 {
            log.append_record(SVC, k, &[0u8; 500]).unwrap();
        }
        log.flush().unwrap();
    }

    // Simulate a mid-write crash: the newest stripe lost two members
    // (e.g. the client died before parity and one data member shipped).
    let width = 3u64;
    let mut max_seq = 0;
    for s in 0..3u32 {
        let mut conn = transport
            .connect(ServerId::new(s), ClientId::new(1))
            .unwrap();
        // Find this server's fragments through the protocol.
        for seq in 0..100u64 {
            let fid = swarm_types::FragmentId::new(ClientId::new(1), seq);
            if let Ok(swarm_net::Response::Located(Some(_))) =
                conn.call(&Request::Locate { fid, header_len: 8 }).map(|r| {
                    r.into_result()
                        .unwrap_or(swarm_net::Response::Located(None))
                })
            {
                max_seq = max_seq.max(seq);
            }
        }
    }
    let last_stripe_first = (max_seq / width) * width;
    // Delete two members of the last stripe.
    let mut deleted = 0;
    for seq in last_stripe_first..last_stripe_first + width {
        if deleted == 2 {
            break;
        }
        for s in 0..3u32 {
            let mut conn = transport
                .connect(ServerId::new(s), ClientId::new(1))
                .unwrap();
            let fid = swarm_types::FragmentId::new(ClientId::new(1), seq);
            if conn
                .call(&Request::Delete { fid })
                .unwrap()
                .into_result()
                .is_ok()
            {
                deleted += 1;
                break;
            }
        }
    }
    assert_eq!(deleted, 2, "need a genuinely torn stripe");

    // Recovery: earlier stripes replay; the torn stripe's unreachable
    // entries are gone; new appends never collide with surviving fids.
    let (log, replay) = recover(transport, config(3), &[SVC]).unwrap();
    let kinds: Vec<u16> = replay
        .records_for(SVC)
        .iter()
        .filter_map(|e| match &e.entry {
            Entry::Record { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    // The fully-stored early records must all be there, in order.
    assert!(kinds.len() >= early_records as usize, "kinds: {kinds:?}");
    assert_eq!(
        &kinds[..early_records as usize],
        &(0..12u16).collect::<Vec<_>>()[..],
        "durable prefix intact"
    );
    // The log keeps working with no fid collisions.
    for i in 0..10u32 {
        log.append_block(SVC, b"", &vec![i as u8; 700]).unwrap();
    }
    log.flush().expect("no collisions with surviving fragments");
}

#[test]
fn double_crash_after_torn_tail_loses_no_acknowledged_writes() {
    // Crash #1 leaves a torn stripe; recovery discards it and resumes
    // appending past the gap, so the gap is permanent. Recovery must
    // re-anchor past the hole — otherwise the *next* recovery's
    // rollforward scan stops at the gap and every write acknowledged
    // after crash #1 silently vanishes.
    let (transport, _servers) = cluster(3);
    {
        let log = Log::create(transport.clone(), config(3)).unwrap();
        log.checkpoint(SVC, b"anchor").unwrap();
        log.append_record(SVC, 1, &[0u8; 500]).unwrap();
        log.flush().unwrap(); // acknowledged

        // Torn stripe: one member seals and ships as the appends roll
        // fragments, then the client dies before the rest.
        log.append_record(SVC, 2, &[0u8; 2000]).unwrap();
        log.append_record(SVC, 3, &[0u8; 2000]).unwrap();
        for i in 0..3 {
            transport.set_down(ServerId::new(i), true);
        }
        let _ = log.flush(); // fails — crash #1
    }
    for i in 0..3 {
        transport.set_down(ServerId::new(i), false);
    }

    // Recovery #1 discards the torn stripe; the client writes on and the
    // new data is acknowledged.
    {
        let (log, _replay) = recover(transport.clone(), config(3), &[SVC]).unwrap();
        log.append_record(SVC, 4, b"after first crash").unwrap();
        log.flush().unwrap(); // acknowledged
    } // crash #2: drop without a checkpoint

    // Recovery #2 must reach the live head across the discarded stripe.
    let (log, replay) = recover(transport, config(3), &[SVC]).unwrap();
    let kinds: Vec<u16> = replay
        .records_for(SVC)
        .iter()
        .filter_map(|e| match &e.entry {
            Entry::Record { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    assert_eq!(
        kinds,
        vec![1, 4],
        "acknowledged writes from both sides of the gap survive"
    );
    // And appends keep working with no fid collisions.
    log.append_record(SVC, 9, b"after second crash").unwrap();
    log.flush().unwrap();
}

/// Recovery finds checkpoints one way. An anchor with no checkpoint
/// directory — which `Log` never writes, so the stripe is built by hand —
/// sends the rollforward back to the start of the log, and it still ends
/// with the service's newest checkpoint and only the records after it.
#[test]
fn anchor_without_a_directory_recovers_by_scanning_from_the_start() {
    let (transport, _servers) = cluster(3);
    let next_seq = {
        let log = Log::create(transport.clone(), config(3)).unwrap();
        log.append_record(SVC, 1, b"before the old checkpoint")
            .unwrap();
        log.checkpoint(SVC, b"old").unwrap();
        log.append_record(SVC, 2, b"before the new checkpoint")
            .unwrap();
        log.flush().unwrap();
        log.next_seq()
    };
    let plan = config(3)
        .group
        .plan(ClientId::new(1), StripeSeq::new(next_seq / 3));
    let mut first = FragmentBuilder::new(plan.header(0), 4096);
    first.append_checkpoint(SVC, b"new");
    first.append_record(SVC, 3, b"after the new checkpoint");
    let mut second = FragmentBuilder::new(plan.header(1), 4096);
    second.append_record(SVC, 4, b"after it, next fragment");
    let mut acc = ParityAccumulator::with_geometry(2, 1);
    let mut stripe = vec![first.seal(), second.seal()];
    stripe.iter().for_each(|data| acc.add(data));
    stripe.extend(acc.build_parities([plan.header(2)]));
    assert!(stripe[0].marked, "the hand-built fragment is the anchor");
    for (member, fragment) in stripe.iter().enumerate() {
        let server = plan.member_server(member as u8);
        let store = Request::Store {
            fid: fragment.fid(),
            marked: fragment.marked,
            ranges: vec![],
            data: fragment.bytes.share(),
        };
        let mut conn = transport.connect(server, ClientId::new(1)).unwrap();
        conn.call(&store).unwrap().into_result().unwrap();
    }

    let (log, replay) = recover(transport, config(3), &[SVC]).unwrap();
    assert_eq!(replay.checkpoint_data(SVC), Some(&b"new"[..]));
    let kinds: Vec<u16> = replay
        .records_for(SVC)
        .iter()
        .filter_map(|e| match &e.entry {
            Entry::Record { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    assert_eq!(kinds, vec![3, 4]);
    assert_eq!(replay.entries[0].pos.seq, 0, "scanned from the start");
    assert_eq!(log.next_seq(), next_seq + 3);
}

#[test]
fn recovery_with_wrong_stripe_width_is_rejected() {
    let (transport, _servers) = cluster(3);
    {
        let log = Log::create(transport.clone(), config(3)).unwrap();
        log.append_block(SVC, b"", b"written at width 3").unwrap();
        log.flush().unwrap();
    }
    // Recovering with only 2 of the 3 servers configured (width 2) must
    // fail loudly instead of silently mis-striping new data.
    let narrow = LogConfig::new(ClientId::new(1), vec![ServerId::new(0), ServerId::new(1)])
        .unwrap()
        .fragment_size(4096);
    let err = recover(transport, narrow, &[SVC]).unwrap_err();
    assert!(matches!(err, SwarmError::InvalidArgument(_)), "{err}");
    assert!(err.to_string().contains("stripe width"), "{err}");
}

#[test]
fn recovery_when_the_anchor_servers_are_down() {
    // The newest marked fragment (the checkpoint anchor) may live on a
    // dead server: LastMarked then misses it, and recovery must still
    // find the checkpoint by scanning/reconstruction.
    let (transport, servers) = cluster(3);
    let ckpt_pos;
    {
        let log = Log::create(transport.clone(), config(3)).unwrap();
        log.append_record(SVC, 1, b"before").unwrap();
        ckpt_pos = log.checkpoint(SVC, b"anchored state").unwrap();
        log.append_record(SVC, 2, b"after").unwrap();
        log.flush().unwrap();
    }
    // Find which server holds the marked fragment and kill it.
    let marked_holder = servers
        .iter()
        .position(|s| {
            s.store().last_marked(ClientId::new(1))
                == Some(swarm_types::FragmentId::new(ClientId::new(1), ckpt_pos.seq))
        })
        .expect("someone holds the anchor");
    transport.set_down(ServerId::new(marked_holder as u32), true);

    let (_log, replay) = recover(transport, config(3), &[SVC]).unwrap();
    assert_eq!(
        replay.checkpoint_data(SVC).unwrap(),
        b"anchored state",
        "checkpoint recovered despite its server being down"
    );
    let kinds: Vec<u16> = replay
        .records_for(SVC)
        .iter()
        .filter_map(|e| match &e.entry {
            Entry::Record { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    assert_eq!(kinds, vec![2], "only the post-checkpoint record replays");
}

#[test]
fn unacknowledged_mid_stripe_writes_are_discarded_at_recovery() {
    // A crash between fragment stores leaves a stripe without parity.
    // Strict durability: only flush()-acknowledged (complete-stripe) data
    // survives recovery; the torn stripe is discarded entirely.
    let (transport, servers) = cluster(3);
    {
        let log = Log::create(transport.clone(), config(3)).unwrap();
        log.append_record(SVC, 1, &[0u8; 500]).unwrap();
        log.flush().unwrap(); // acknowledged: stripe 0 complete

        // Second stripe: first data member seals and ships, then the
        // client "crashes" with the rest unwritten (kill the remaining
        // servers so the writer can't finish, then drop the log).
        log.append_record(SVC, 2, &[0u8; 2000]).unwrap(); // fills frag 3
        log.append_record(SVC, 3, &[0u8; 2000]).unwrap(); // rolls to frag 4
        transport.set_down(ServerId::new(0), true);
        transport.set_down(ServerId::new(1), true);
        transport.set_down(ServerId::new(2), true);
        let _ = log.flush(); // fails — crash
    }
    for i in 0..3 {
        transport.set_down(ServerId::new(i), false);
    }
    // Whatever partial fragments landed, recovery must deliver exactly
    // the acknowledged prefix.
    let (log, replay) = recover(transport, config(3), &[SVC]).unwrap();
    let kinds: Vec<u16> = replay
        .records_for(SVC)
        .iter()
        .filter_map(|e| match &e.entry {
            Entry::Record { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    assert_eq!(kinds, vec![1], "only flushed records survive: {kinds:?}");
    // No unprotected fragments linger on the servers.
    let total: u64 = servers.iter().map(|s| s.store().fragment_count()).sum();
    assert_eq!(total, 3, "exactly the complete stripe remains, got {total}");
    // And the recovered log writes cleanly past the discarded region.
    log.append_record(SVC, 9, b"new era").unwrap();
    log.flush().unwrap();
}
