//! End-to-end tests of the log layer over an in-process cluster.

use std::sync::Arc;

use swarm_log::{recover, Entry, Log, LogConfig};
use swarm_net::MemTransport;
use swarm_server::{FragmentStore, MemStore, StorageServer};
use swarm_types::{ClientId, ServerId, ServiceId, SwarmError};

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

fn small_log(transport: Arc<MemTransport>, client: u32, servers: u32) -> Log {
    let config = LogConfig::new(
        ClientId::new(client),
        (0..servers).map(ServerId::new).collect(),
    )
    .unwrap()
    .fragment_size(4096) // small fragments force frequent sealing
    .cache_fragments(4);
    Log::create(transport, config).unwrap()
}

#[test]
fn write_flush_read_roundtrip() {
    let (transport, _servers) = cluster(3);
    let log = small_log(transport, 1, 3);
    let mut addrs = Vec::new();
    for i in 0..100u32 {
        let data = vec![i as u8; 512];
        addrs.push((
            log.append_block(SVC, &i.to_le_bytes(), &data).unwrap(),
            data,
        ));
    }
    log.flush().unwrap();
    for (addr, data) in &addrs {
        assert_eq!(&log.read(*addr).unwrap(), data);
    }
}

#[test]
fn blocks_span_many_fragments_and_stripes() {
    let (transport, servers) = cluster(3);
    let log = small_log(transport, 1, 3);
    for i in 0..200u32 {
        log.append_block(SVC, b"", &vec![(i % 251) as u8; 700])
            .unwrap();
    }
    log.flush().unwrap();
    // 200 * ~700B blocks in 4 KiB fragments: many stripes; every server
    // must hold roughly a third of the fragments.
    let counts: Vec<u64> = servers.iter().map(|s| s.store().fragment_count()).collect();
    let total: u64 = counts.iter().sum();
    assert!(total >= 30, "expected many fragments, got {total}");
    for (i, c) in counts.iter().enumerate() {
        assert!(
            *c >= total / 3 - 3 && *c <= total / 3 + 3,
            "server {i} holds {c} of {total} fragments — striping is unbalanced: {counts:?}"
        );
    }
}

#[test]
fn parity_overhead_matches_stripe_width() {
    // With width w, servers store w/(w-1) × the data bytes (plus headers
    // and padding) — Figure 4's "parity amortized over more fragments".
    for width in [2u32, 4, 8] {
        let (transport, servers) = cluster(width);
        let log = small_log(transport, 1, width);
        let payload = 100 * 1024u64;
        for _ in 0..100 {
            log.append_block(SVC, b"", &[7u8; 1024]).unwrap();
        }
        log.flush().unwrap();
        let stored: u64 = servers.iter().map(|s| s.store().byte_count()).sum();
        let ratio = stored as f64 / payload as f64;
        let ideal = width as f64 / (width as f64 - 1.0);
        assert!(
            ratio > ideal && ratio < ideal * 1.25,
            "width {width}: stored/payload = {ratio:.3}, ideal {ideal:.3}"
        );
    }
}

#[test]
fn read_with_one_server_down_reconstructs() {
    let (transport, _servers) = cluster(4);
    let log = small_log(transport.clone(), 1, 4);
    let mut addrs = Vec::new();
    for i in 0..60u32 {
        addrs.push((
            log.append_block(SVC, b"", &vec![i as u8; 600]).unwrap(),
            vec![i as u8; 600],
        ));
    }
    log.flush().unwrap();
    // Kill each server in turn; every block must stay readable.
    for down in 0..4u32 {
        transport.set_down(ServerId::new(down), true);
        for (addr, data) in &addrs {
            let got = log
                .read(*addr)
                .unwrap_or_else(|e| panic!("read {addr} with server {down} down: {e}"));
            assert_eq!(&got, data);
        }
        transport.set_down(ServerId::new(down), false);
    }
}

#[test]
fn two_failures_in_a_stripe_group_are_fatal() {
    let (transport, _servers) = cluster(3);
    // No client cache: force the read to go to the (dead) servers.
    let config = LogConfig::new(ClientId::new(1), (0..3).map(ServerId::new).collect())
        .unwrap()
        .fragment_size(4096)
        .cache_fragments(0);
    let log = Log::create(transport.clone(), config).unwrap();
    let addr = log.append_block(SVC, b"", &[1u8; 512]).unwrap();
    log.flush().unwrap();
    transport.set_down(ServerId::new(0), true);
    transport.set_down(ServerId::new(1), true);
    transport.set_down(ServerId::new(2), true);
    // All three down: certainly unreadable. (The fragment plus its stripe
    // mates span all 3 servers; with ≥2 of the *relevant* ones down the
    // read must fail.)
    let err = log.read(addr).unwrap_err();
    assert!(
        matches!(
            err,
            SwarmError::ReconstructionFailed { .. } | SwarmError::ServerUnavailable(_)
        ),
        "{err}"
    );
}

#[test]
fn flush_mid_stripe_pads_and_protects() {
    let (transport, servers) = cluster(4);
    let log = small_log(transport.clone(), 1, 4);
    // One small block: stripe is 1 data + 2 padding + 1 parity.
    let addr = log.append_block(SVC, b"", b"lonely block").unwrap();
    log.flush().unwrap();
    let total: u64 = servers.iter().map(|s| s.store().fragment_count()).sum();
    assert_eq!(total, 4, "flush must complete the stripe");
    // And the lone block survives its server's death.
    for down in 0..4u32 {
        transport.set_down(ServerId::new(down), true);
        assert_eq!(log.read(addr).unwrap(), b"lonely block");
        transport.set_down(ServerId::new(down), false);
    }
}

#[test]
fn reads_of_unflushed_data_come_from_the_write_buffer() {
    let (transport, servers) = cluster(2);
    let log = small_log(transport, 1, 2);
    let addr = log.append_block(SVC, b"", b"pending").unwrap();
    // Nothing has reached the servers yet…
    let stored: u64 = servers.iter().map(|s| s.store().fragment_count()).sum();
    assert_eq!(stored, 0);
    // …but the block is already readable from the open fragment.
    assert_eq!(log.read(addr).unwrap(), b"pending");
    log.flush().unwrap();
    assert_eq!(log.read(addr).unwrap(), b"pending");
}

#[test]
fn oversized_block_rejected() {
    let (transport, _servers) = cluster(2);
    let log = small_log(transport, 1, 2);
    let too_big = vec![0u8; 8192];
    let err = log.append_block(SVC, b"", &too_big).unwrap_err();
    assert!(matches!(err, SwarmError::InvalidArgument(_)), "{err}");
    // max_block_size fits exactly.
    let fits = vec![0u8; log.max_block_size()];
    log.append_block(SVC, b"", &fits).unwrap();
    log.flush().unwrap();
}

#[test]
fn independent_clients_share_servers_without_interference() {
    let (transport, _servers) = cluster(3);
    let log_a = small_log(transport.clone(), 1, 3);
    let log_b = small_log(transport.clone(), 2, 3);
    let a = log_a.append_block(SVC, b"", b"from client 1").unwrap();
    let b = log_b.append_block(SVC, b"", b"from client 2").unwrap();
    log_a.flush().unwrap();
    log_b.flush().unwrap();
    assert_eq!(log_a.read(a).unwrap(), b"from client 1");
    assert_eq!(log_b.read(b).unwrap(), b"from client 2");
    assert_ne!(a.fid.client(), b.fid.client());
}

#[test]
fn close_rejects_further_appends() {
    let (transport, _servers) = cluster(2);
    let log = small_log(transport, 1, 2);
    log.append_block(SVC, b"", b"x").unwrap();
    log.close().unwrap();
    let err = log.append_block(SVC, b"", b"y").unwrap_err();
    assert!(matches!(err, SwarmError::Closed(_)), "{err}");
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

fn config(client: u32, servers: u32) -> LogConfig {
    LogConfig::new(
        ClientId::new(client),
        (0..servers).map(ServerId::new).collect(),
    )
    .unwrap()
    .fragment_size(4096)
}

#[test]
fn recovery_of_empty_cluster_is_empty() {
    let (transport, _servers) = cluster(2);
    let (log, replay) = recover(transport, config(1, 2), &[SVC]).unwrap();
    assert!(replay.entries.is_empty());
    assert!(replay.checkpoints.is_empty());
    assert_eq!(log.next_seq(), 0);
}

#[test]
fn recovery_refuses_an_unreachable_cluster() {
    // A real log exists on a 3-server (2+1) cluster...
    let (transport, servers) = cluster(3);
    {
        let log = Log::create(transport.clone(), config(1, 3)).unwrap();
        log.append_record(SVC, 1, b"durable and acked").unwrap();
        log.flush().unwrap();
    }
    // ...but the recovering client can only reach one server. One
    // survivor is below the data width k=2, so "no more fragments" can
    // mean either end-of-log or unreachable data — recovery must refuse
    // rather than hand back a silently truncated (here: empty) log.
    let partitioned = Arc::new(MemTransport::new());
    partitioned.register(ServerId::new(0), servers[0].clone());
    let err = recover(partitioned, config(1, 3), &[SVC]).unwrap_err();
    assert!(
        err.to_string().contains("refusing to recover"),
        "want the reachability refusal, got: {err}"
    );
    // With k servers answering, the same recovery succeeds (third server
    // still down — within the parity budget).
    let degraded = Arc::new(MemTransport::new());
    degraded.register(ServerId::new(0), servers[0].clone());
    degraded.register(ServerId::new(1), servers[1].clone());
    let (_log, replay) = recover(degraded, config(1, 3), &[SVC]).unwrap();
    assert_eq!(replay.records_for(SVC).len(), 1);
}

#[test]
fn checkpoint_and_rollforward() {
    let (transport, _servers) = cluster(3);
    {
        let log = Log::create(transport.clone(), config(1, 3)).unwrap();
        log.append_record(SVC, 1, b"before ckpt").unwrap();
        log.checkpoint(SVC, b"state@ckpt").unwrap();
        log.append_record(SVC, 2, b"after ckpt 1").unwrap();
        log.append_block(SVC, b"blk", b"data after ckpt").unwrap();
        log.append_record(SVC, 3, b"after ckpt 2").unwrap();
        log.flush().unwrap();
        // Client "crashes" here: log dropped without close.
    }
    let (log, replay) = recover(transport, config(1, 3), &[SVC]).unwrap();
    assert_eq!(replay.checkpoint_data(SVC).unwrap(), b"state@ckpt");
    let records = replay.records_for(SVC);
    // Only entries after the checkpoint, in order, without the checkpoint
    // itself or pre-checkpoint records.
    let kinds: Vec<_> = records
        .iter()
        .filter_map(|e| match &e.entry {
            Entry::Record { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    assert_eq!(kinds, vec![2, 3]);
    let blocks: Vec<_> = records
        .iter()
        .filter(|e| matches!(e.entry, Entry::Block { .. }))
        .collect();
    assert_eq!(blocks.len(), 1);
    let addr = blocks[0].block_addr.unwrap();
    assert_eq!(log.read(addr).unwrap(), b"data after ckpt");
    // New appends continue after the old log.
    assert!(log.next_seq() > 0);
    let addr2 = log.append_block(SVC, b"", b"new era").unwrap();
    log.flush().unwrap();
    assert_eq!(log.read(addr2).unwrap(), b"new era");
}

#[test]
fn recovery_without_checkpoint_replays_everything() {
    let (transport, _servers) = cluster(2);
    {
        let log = Log::create(transport.clone(), config(1, 2)).unwrap();
        for k in 0..5u16 {
            log.append_record(SVC, k, format!("r{k}").as_bytes())
                .unwrap();
        }
        log.flush().unwrap();
    }
    let (_log, replay) = recover(transport, config(1, 2), &[SVC]).unwrap();
    let kinds: Vec<_> = replay
        .records_for(SVC)
        .iter()
        .filter_map(|e| match &e.entry {
            Entry::Record { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    assert_eq!(kinds, vec![0, 1, 2, 3, 4]);
}

#[test]
fn recovery_finds_older_checkpoints_of_other_services() {
    let svc_a = ServiceId::new(1);
    let svc_b = ServiceId::new(2);
    let (transport, _servers) = cluster(3);
    {
        let log = Log::create(transport.clone(), config(1, 3)).unwrap();
        log.checkpoint(svc_b, b"b-state").unwrap();
        log.append_record(svc_b, 10, b"b after").unwrap();
        // Several stripes of traffic, then A checkpoints much later.
        for i in 0..50u32 {
            log.append_block(svc_a, b"", &vec![i as u8; 800]).unwrap();
        }
        log.checkpoint(svc_a, b"a-state").unwrap();
        log.append_record(svc_a, 20, b"a after").unwrap();
        log.flush().unwrap();
    }
    let (_log, replay) = recover(transport, config(1, 3), &[svc_a, svc_b]).unwrap();
    assert_eq!(replay.checkpoint_data(svc_a).unwrap(), b"a-state");
    assert_eq!(replay.checkpoint_data(svc_b).unwrap(), b"b-state");
    let b_records = replay.records_for(svc_b);
    assert_eq!(b_records.len(), 1);
    match &b_records[0].entry {
        Entry::Record { kind, data, .. } => {
            assert_eq!(*kind, 10);
            assert_eq!(data, b"b after");
        }
        e => panic!("{e:?}"),
    }
}

#[test]
fn recovery_with_one_server_down_reconstructs_the_log() {
    let (transport, _servers) = cluster(3);
    {
        let log = Log::create(transport.clone(), config(1, 3)).unwrap();
        log.checkpoint(SVC, b"ckpt").unwrap();
        for k in 0..20u16 {
            log.append_record(SVC, k, &k.to_le_bytes()).unwrap();
        }
        log.flush().unwrap();
    }
    transport.set_down(ServerId::new(1), true);
    let (_log, replay) = recover(transport, config(1, 3), &[SVC]).unwrap();
    assert_eq!(replay.checkpoint_data(SVC).unwrap(), b"ckpt");
    assert_eq!(replay.records_for(SVC).len(), 20);
}

#[test]
fn recovered_log_appends_do_not_collide_with_old_fragments() {
    let (transport, servers) = cluster(2);
    {
        let log = Log::create(transport.clone(), config(1, 2)).unwrap();
        log.append_block(SVC, b"", b"old").unwrap();
        log.flush().unwrap();
    }
    let before = servers[0].store().fragment_count() + servers[1].store().fragment_count();
    let (log, _replay) = recover(transport, config(1, 2), &[SVC]).unwrap();
    log.append_block(SVC, b"", b"new").unwrap();
    log.flush().unwrap();
    let after = servers[0].store().fragment_count() + servers[1].store().fragment_count();
    assert_eq!(after, before + 2, "new stripe, no overwrites");
}

#[test]
fn multiple_checkpoints_newest_wins() {
    let (transport, _servers) = cluster(2);
    {
        let log = Log::create(transport.clone(), config(1, 2)).unwrap();
        log.checkpoint(SVC, b"v1").unwrap();
        log.append_record(SVC, 1, b"between").unwrap();
        log.checkpoint(SVC, b"v2").unwrap();
        log.append_record(SVC, 2, b"tail").unwrap();
        log.flush().unwrap();
    }
    let (_log, replay) = recover(transport, config(1, 2), &[SVC]).unwrap();
    assert_eq!(replay.checkpoint_data(SVC).unwrap(), b"v2");
    let kinds: Vec<_> = replay
        .records_for(SVC)
        .iter()
        .filter_map(|e| match &e.entry {
            Entry::Record { kind, .. } => Some(*kind),
            _ => None,
        })
        .collect();
    assert_eq!(
        kinds,
        vec![2],
        "records before the newest checkpoint are obsolete"
    );
}

#[test]
fn delete_records_replay() {
    let (transport, _servers) = cluster(2);
    let addr;
    {
        let log = Log::create(transport.clone(), config(1, 2)).unwrap();
        addr = log.append_block(SVC, b"", b"doomed").unwrap();
        log.delete_block(SVC, addr).unwrap();
        log.flush().unwrap();
    }
    let (_log, replay) = recover(transport, config(1, 2), &[SVC]).unwrap();
    let deletes: Vec<_> = replay
        .records_for(SVC)
        .into_iter()
        .filter(|e| matches!(e.entry, Entry::Delete { .. }))
        .collect();
    assert_eq!(deletes.len(), 1);
    match &deletes[0].entry {
        Entry::Delete { addr: got, .. } => assert_eq!(*got, addr),
        e => panic!("{e:?}"),
    }
}

#[test]
fn log_stats_track_the_pipeline() {
    let (transport, _servers) = cluster(3);
    let log = small_log(transport.clone(), 1, 3);
    for i in 0..50u32 {
        log.append_block(SVC, b"", &vec![i as u8; 700]).unwrap();
    }
    log.append_record(SVC, 1, b"rec").unwrap();
    let addr = log.append_block(SVC, b"", b"probe").unwrap();
    log.checkpoint(SVC, b"ckpt").unwrap();

    let s = log.stats();
    assert_eq!(s.blocks_appended, 51);
    assert_eq!(s.records_appended, 1);
    assert_eq!(s.checkpoints, 1);
    assert!(s.data_fragments > 5, "{s:?}");
    // One parity per stripe of width 3 → parity ≈ data/2.
    assert!(s.parity_fragments >= s.data_fragments / 2, "{s:?}");
    assert!(s.bytes_shipped > 35_000, "{s:?}");

    // Cached read.
    log.read(addr).unwrap();
    let s = log.stats();
    assert_eq!(s.reads, 1);
    assert_eq!(s.cache_hits, 1);
    assert_eq!(s.reconstructions, 0);

    // Force a reconstruction.
    log.forget_fragment(addr.fid);
    transport.set_down(ServerId::new(0), true);
    transport.set_down(ServerId::new(1), true);
    transport.set_down(ServerId::new(2), true);
    let _ = log.read(addr); // fails, but counts the read
    transport.set_down(ServerId::new(0), false);
    transport.set_down(ServerId::new(1), false);
    transport.set_down(ServerId::new(2), false);
    // Kill just the holder so reconstruction succeeds.
    let (holder, _) = swarm_log::reconstruct::locate_fragment(log.engine(), addr.fid).unwrap();
    log.forget_fragment(addr.fid);
    transport.set_down(holder, true);
    assert_eq!(log.read(addr).unwrap(), b"probe");
    assert_eq!(log.stats().reconstructions, 1);
}

/// The single rebuild path covers the paper's geometry: every member of a
/// 3+1 stripe — each of the three data fragments and the parity — comes
/// back byte-identical to what was stored when its home server is down.
#[test]
fn every_member_of_a_single_parity_stripe_rebuilds_bit_identical() {
    let (transport, _servers) = cluster(4);
    let log = small_log(transport.clone(), 1, 4);
    for i in 0..40u32 {
        // Uneven block sizes, so stripe members differ in length.
        log.append_block(
            SVC,
            b"",
            &vec![(i % 251) as u8; 300 + (i as usize * 37) % 500],
        )
        .unwrap();
    }
    log.flush().unwrap();

    let pool = log.engine().clone();
    let engine = swarm_log::ReadEngine::new(pool.clone());
    let (mut data_members, mut parity_members) = (0, 0);
    for seq in 0..1000u64 {
        let fid = swarm_types::FragmentId::new(ClientId::new(1), seq);
        let Some((home, header)) = swarm_log::reconstruct::locate_fragment(&pool, fid) else {
            break;
        };
        assert_eq!((header.data_count(), header.parity_count()), (3, 1));
        let stored = swarm_log::reconstruct::fetch_fragment(&engine, home, fid).unwrap();

        transport.set_down(home, true);
        let rebuilt = swarm_log::reconstruct::reconstruct_fragment(&engine, fid)
            .unwrap_or_else(|e| panic!("{fid} (member {}): {e}", header.my_index));
        transport.set_down(home, false);

        assert_eq!(rebuilt, stored, "{fid} (member {})", header.my_index);
        if header.is_parity() {
            parity_members += 1;
        } else {
            data_members += 1;
        }
    }
    assert!(
        data_members >= 3 && parity_members >= 1,
        "log too short to cover a whole stripe: {data_members} data, {parity_members} parity"
    );
}

#[test]
fn reconstruction_with_member_dying_mid_fetch_falls_back_to_locate() {
    use swarm_net::Request;

    // Stripe group = servers 0..3; server 3 is outside the group and acts
    // as the "re-homed copy" target the locate fallback must discover.
    let (transport, _servers) = cluster(4);
    let log = small_log(transport.clone(), 1, 3);
    let mut addrs = Vec::new();
    for i in 0..30u32 {
        addrs.push(
            log.append_block(SVC, b"", &vec![(i % 251) as u8; 700])
                .unwrap(),
        );
    }
    log.flush().unwrap();
    let addr = addrs[5];
    let expected = vec![5u8; 700];
    let pool = log.engine().clone();
    let engine = swarm_log::ReadEngine::new(pool.clone());

    // Mirror every fragment EXCEPT the victim's own onto server 3, so the
    // victim can only come back via reconstruction, but every stripe
    // member survives somewhere even after two group servers fail.
    let extra = ServerId::new(3);
    for seq in 0..1000u64 {
        let fid = swarm_types::FragmentId::new(ClientId::new(1), seq);
        let Some((holder, _)) = swarm_log::reconstruct::locate_fragment(&pool, fid) else {
            break;
        };
        if fid == addr.fid {
            continue;
        }
        let bytes = swarm_log::reconstruct::fetch_fragment(&engine, holder, fid).unwrap();
        pool.call(
            extra,
            &Request::Store {
                fid,
                marked: false,
                ranges: vec![],
                data: bytes,
            },
        )
        .unwrap()
        .into_result()
        .unwrap();
    }

    // Kill the victim's home outright, and arm a surviving member's home
    // to die a couple of RPCs into the reconstruction — i.e. mid-fetch,
    // while the parallel member fan-out is in flight.
    let (home, _) = swarm_log::reconstruct::locate_fragment(&pool, addr.fid).unwrap();
    log.forget_fragment(addr.fid);
    transport.set_down(home, true);
    let dying = ServerId::new((0..3).find(|i| ServerId::new(*i) != home).unwrap());
    transport.faults(dying).unwrap().fail_after(2);

    // The fan-out must notice the mid-fetch death, fall back to a locate
    // broadcast, find the mirror on server 3, and finish — not deadlock.
    assert_eq!(log.read(addr).unwrap(), expected);
    assert!(log.stats().reconstructions >= 1);
}
