//! Fragment reconstruction (§2.3.3).
//!
//! "If fragment N needs to be reconstructed, then either fragment N-1 or
//! fragment N+1 is in the same stripe. A client finds fragment N-1 and N+1
//! by broadcasting to all storage servers. Once the client locates a
//! fragment in the same stripe … it uses the stripe group information in
//! that fragment to access the other fragments in the stripe and perform
//! the reconstruction."
//!
//! Reconstruction is entirely client-side; servers only answer `Locate`
//! and `Read` and never learn that a reconstruction is happening.
//!
//! All functions here read through a [`ReadEngine`] (and its shared
//! [`ConnectionPool`]): locates use the pool's first-positive-wins
//! broadcast, member fetches ride the engine's window and the mux
//! priority lane, and stripe members — which by construction live on
//! *different* servers — are fetched in parallel.
//!
//! There is one rebuild path for every geometry. A `k + m` stripe
//! tolerates up to `m` concurrent member losses: the fetch fans out to
//! every other member, the first `k` arrivals win, and the lost fragment
//! is a GF(2^8) linear combination of those survivors
//! ([`crate::gf::decode_rows`]). The paper's single-parity stripe is the
//! `m = 1` case: coding row 0 is all ones, every coefficient comes out 1,
//! and [`crate::gf::mul_into`] folds a coefficient-1 member with plain
//! XOR — the same bytes and the same kernel as §2.3.3's rebuild.

use std::sync::Arc;

use swarm_net::{ConnectionPool, Request, Response};
use swarm_types::{Bytes, FragmentId, Result, ServerId, SwarmError, MAX_PARITY};

use crate::fragment::{parse_header, FragmentHeader, LOCATE_HEADER_LEN};
use crate::gf;
use crate::reader::ReadEngine;

/// Broadcasts a `Locate` for `fid`, returning the first server that holds
/// it plus its parsed header. First positive reply wins; a hit on one
/// server does not wait for the rest of the cluster.
pub fn locate_fragment(
    pool: &Arc<ConnectionPool>,
    fid: FragmentId,
) -> Option<(ServerId, FragmentHeader)> {
    let request = Request::Locate {
        fid,
        header_len: LOCATE_HEADER_LEN,
    };
    let (server, resp) =
        pool.broadcast_first(&request, |r| matches!(r, Response::Located(Some(_))))?;
    if let Response::Located(Some(prefix)) = resp {
        if let Ok(header) = parse_header(&prefix) {
            return Some((server, header));
        }
    }
    // The winning prefix failed to parse (corrupt header): fall back to a
    // full broadcast and accept any server whose copy parses.
    for (server, resp) in pool.broadcast(&request) {
        if let Ok(Response::Located(Some(prefix))) = resp.into_result() {
            if let Ok(header) = parse_header(&prefix) {
                return Some((server, header));
            }
        }
    }
    None
}

/// Fetches the complete bytes of a fragment from a specific server. The
/// locate and the body read ride the engine's window (and its priority
/// lane on the mux, so a reconstruction is not stuck behind queued store
/// payloads). Zero-copy: the returned [`Bytes`] is the decoded wire
/// frame's payload, shared, not copied.
///
/// # Errors
///
/// Propagates transport and server errors ([`SwarmError::FragmentNotFound`],
/// [`SwarmError::ServerUnavailable`], …) and validates the header.
pub fn fetch_fragment(engine: &ReadEngine, server: ServerId, fid: FragmentId) -> Result<Bytes> {
    match engine.fetch_whole(server, &[fid]).pop().expect("one fid") {
        Ok(Some(bytes)) => Ok(bytes),
        Ok(None) => Err(SwarmError::FragmentNotFound(fid)),
        Err(e) => Err(e),
    }
}

/// Finds a surviving stripe-mate's header for `fid` by probing `fid ± 1`
/// first (the paper's rule), then outward: multi-parity stripes can lose
/// both immediate neighbours, but never more than `m <=` [`MAX_PARITY`]
/// members total, so a surviving mate — if the stripe exists at all — sits
/// within `MAX_PARITY` fids. Any located header of this log reveals the
/// uniform stripe width, which prunes probes outside `fid`'s own stripe.
fn find_stripe_header(pool: &Arc<ConnectionPool>, fid: FragmentId) -> Option<FragmentHeader> {
    let mut width: Option<u64> = None;
    for d in 1..=MAX_PARITY as u64 {
        let below = fid.seq().checked_sub(d);
        let above = fid.seq().checked_add(d);
        for candidate in [below, above].into_iter().flatten() {
            if let Some(w) = width {
                let first = fid.seq() / w * w;
                if !(first..first + w).contains(&candidate) {
                    continue;
                }
            }
            let mate = FragmentId::new(fid.client(), candidate);
            if let Some((_, header)) = locate_fragment(pool, mate) {
                let first = header.stripe_first_seq;
                let count = header.member_count as u64;
                if (first..first + count).contains(&fid.seq()) {
                    return Some(header);
                }
                // A neighbour from an adjacent stripe: remember the log's
                // stripe width so further probing stays in-stripe.
                width = Some(count);
            }
        }
        if let Some(w) = width {
            let first = fid.seq() / w * w;
            let below_done = fid.seq().checked_sub(d + 1).is_none_or(|c| c < first);
            let above_done = fid.seq() + d + 1 >= first + w;
            if below_done && above_done {
                break;
            }
        }
    }
    None
}

/// Reconstructs the complete bytes of fragment `fid` from the surviving
/// members of its stripe, fetching them in parallel.
///
/// # Errors
///
/// Returns [`SwarmError::ReconstructionFailed`] when no stripe-mate can be
/// located (e.g. the fragment never existed) or fewer than `k` other
/// members of the stripe are available, and [`SwarmError::Corrupt`] if
/// the rebuilt bytes fail validation.
pub fn reconstruct_fragment(engine: &ReadEngine, fid: FragmentId) -> Result<Bytes> {
    rebuild(engine, fid)?.ok_or_else(|| SwarmError::ReconstructionFailed {
        fid,
        reason: "no surviving stripe-mate located via broadcast".into(),
    })
}

/// The rebuild under [`reconstruct_fragment`] and
/// [`read_fragment_anywhere`]. `Ok(None)` means no member of `fid`'s
/// stripe exists anywhere in the cluster — the stripe was never written
/// or has been cleaned — which the two callers report differently.
fn rebuild(engine: &ReadEngine, fid: FragmentId) -> Result<Option<Bytes>> {
    let Some(header) = find_stripe_header(engine.pool(), fid) else {
        return Ok(None);
    };
    let my_index = (fid.seq() - header.stripe_first_seq) as u8;
    reconstruct_rs(engine, fid, &header, my_index).map(Some)
}

/// Fetches every stripe member except `exclude` in parallel and keeps the
/// first `need` that arrive — the tolerant fan-out under the decode,
/// where any `k` of the `k + m - 1` other members suffice.
/// Unavailable members are skipped, not fatal; fewer than `need` total is
/// a [`SwarmError::ReconstructionFailed`] naming every failure.
fn fetch_survivors(
    engine: &ReadEngine,
    header: &FragmentHeader,
    exclude: u8,
    need: usize,
) -> Result<Vec<(u8, Bytes)>> {
    let indices: Vec<u8> = (0..header.member_count).filter(|i| *i != exclude).collect();
    let mut out: Vec<(u8, Bytes)> = Vec::with_capacity(need);
    let mut reasons: Vec<String> = Vec::new();
    if let [i] = indices[..] {
        // A 1+1 stripe has one other member: nothing to fan out.
        match fetch_member(engine, header, i) {
            Ok(bytes) => out.push((i, bytes)),
            Err(e) => reasons.push(format!("member {i}: {e}")),
        }
    } else {
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel();
            for &i in &indices {
                let tx = tx.clone();
                s.spawn(move || {
                    let _ = tx.send((i, fetch_member(engine, header, i)));
                });
            }
            drop(tx);
            for (i, result) in rx {
                match result {
                    Ok(bytes) => {
                        out.push((i, bytes));
                        if out.len() == need {
                            // Dropping the receiver lets the laggards'
                            // sends fail; the scope still joins them.
                            break;
                        }
                    }
                    Err(e) => reasons.push(format!("member {i}: {e}")),
                }
            }
        });
    }
    if out.len() < need {
        return Err(SwarmError::ReconstructionFailed {
            fid: header.member_fid(exclude),
            reason: format!(
                "only {} of the {} survivors needed are available ({})",
                out.len(),
                need,
                reasons.join("; ")
            ),
        });
    }
    Ok(out)
}

/// Rebuilds any member of a `k + m` stripe from the first `k` surviving
/// members to arrive.
///
/// Data members come back as a [`gf::decode_rows`] combination of the
/// survivors' symbols (a data member's symbol is its full stored bytes, a
/// parity member's is its body). A lost parity is re-encoded through the
/// same inversion: its [`gf::coding_row`] composed with the survivor
/// inverse gives one coefficient per survivor, so no intermediate data
/// rebuild is materialized.
fn reconstruct_rs(
    engine: &ReadEngine,
    fid: FragmentId,
    header: &FragmentHeader,
    my_index: u8,
) -> Result<Bytes> {
    let k = header.data_count() as usize;
    let survivors = fetch_survivors(engine, header, my_index, k)?;

    // Split each survivor into its symbol (full bytes for data members,
    // body for parity members) and harvest a parity's member-length table
    // for trimming.
    let mut lens_from_parity: Option<Vec<u32>> = None;
    let mut symbols: Vec<(usize, Bytes, usize)> = Vec::with_capacity(k); // (member, bytes, body offset)
    for (i, bytes) in survivors {
        if header.is_parity_member(i) {
            let ph = parse_header(&bytes)?;
            if !ph.is_parity() {
                return Err(SwarmError::corrupt(format!(
                    "member {i} of {} is not a parity fragment",
                    header.stripe
                )));
            }
            if lens_from_parity.is_none() {
                lens_from_parity = Some(ph.member_lens.clone());
            }
            let body = ph.encoded_len();
            symbols.push((i as usize, bytes, body));
        } else {
            symbols.push((i as usize, bytes, 0));
        }
    }
    let survivor_indices: Vec<usize> = symbols.iter().map(|(i, _, _)| *i).collect();

    // True stored length of each data member: a surviving parity's table,
    // or — when all k data members survived (only a parity was lost) —
    // their own lengths.
    let data_len = |i: usize| -> Result<usize> {
        if let Some(lens) = &lens_from_parity {
            return Ok(*lens
                .get(i)
                .ok_or_else(|| SwarmError::corrupt("parity member_lens table too short"))?
                as usize);
        }
        symbols
            .iter()
            .find(|(s, _, _)| *s == i)
            .map(|(_, bytes, _)| bytes.len())
            .ok_or_else(|| SwarmError::corrupt("no parity survivor names the lost member's length"))
    };

    let mut rebuilt: Vec<u8> = Vec::new();
    if my_index < header.parity_index {
        // Lost data member: one decode row recombines the survivors.
        // (Rebuilding data means at most k-1 data survivors, so the k
        // survivors always include a parity and `data_len` never misses.)
        let rows = gf::decode_rows(k, &survivor_indices, &[my_index as usize])
            .ok_or_else(|| SwarmError::corrupt("survivor matrix is singular"))?;
        for ((_, bytes, body), &c) in symbols.iter().zip(&rows[0]) {
            gf::mul_into(&mut rebuilt, &bytes[*body..], c);
        }
        let true_len = data_len(my_index as usize)?;
        // Shorter-than-true folds only happen when every longer survivor
        // carried a zero coefficient — the symbol really is zero there.
        rebuilt.resize(true_len.max(rebuilt.len()), 0);
        rebuilt.truncate(true_len);

        let view = crate::fragment::FragmentView::parse(&rebuilt).map_err(|e| {
            SwarmError::ReconstructionFailed {
                fid,
                reason: format!("rebuilt bytes failed validation: {e}"),
            }
        })?;
        if view.header.fid != fid {
            return Err(SwarmError::ReconstructionFailed {
                fid,
                reason: format!("rebuilt fragment identifies as {}", view.header.fid),
            });
        }
        return Ok(Bytes::from(rebuilt));
    }

    // Lost parity member: compose its coding row with the survivor
    // inverse to get coefficients directly over the survivors.
    let row_j = (my_index - header.parity_index) as usize;
    let all_data: Vec<usize> = (0..k).collect();
    let inverse = gf::decode_rows(k, &survivor_indices, &all_data)
        .ok_or_else(|| SwarmError::corrupt("survivor matrix is singular"))?;
    let target = gf::coding_row(k, row_j);
    let coeffs: Vec<u8> = (0..k)
        .map(|s| {
            let mut acc = 0u8;
            for (i, &t) in target.iter().enumerate() {
                acc ^= gf::mul(t, inverse[i][s]);
            }
            acc
        })
        .collect();
    for ((_, bytes, body), &c) in symbols.iter().zip(&coeffs) {
        gf::mul_into(&mut rebuilt, &bytes[*body..], c);
    }

    // Parity bodies span the longest member; their headers carry the
    // member-length table.
    let mut lens = Vec::with_capacity(k);
    for i in 0..k {
        lens.push(data_len(i)? as u32);
    }
    let body_len = lens.iter().map(|l| *l as usize).max().unwrap_or(0);
    rebuilt.resize(body_len.max(rebuilt.len()), 0);
    rebuilt.truncate(body_len);

    let parity_header = FragmentHeader {
        flags: crate::fragment::FLAG_PARITY,
        fid,
        stripe: header.stripe,
        stripe_first_seq: header.stripe_first_seq,
        member_count: header.member_count,
        my_index,
        parity_index: header.parity_index,
        body_len: rebuilt.len() as u32,
        body_crc: swarm_types::crc32(&rebuilt),
        group: header.group.clone(),
        member_lens: lens,
    };
    let mut w = swarm_types::ByteWriter::with_capacity(parity_header.encoded_len() + rebuilt.len());
    use swarm_types::Encode;
    parity_header.encode(&mut w);
    w.put_raw(&rebuilt);
    Ok(Bytes::from(w.into_bytes()))
}

/// Fetches stripe member `i`, trying its home server first and falling
/// back to a broadcast locate (the member may have been re-homed or its
/// header map stale).
fn fetch_member(engine: &ReadEngine, header: &FragmentHeader, i: u8) -> Result<Bytes> {
    let fid = header.member_fid(i);
    let home = header.member_server(i);
    match fetch_fragment(engine, home, fid) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.is_unavailability() => {
            if let Some((server, _)) = locate_fragment(engine.pool(), fid) {
                fetch_fragment(engine, server, fid)
            } else {
                Err(SwarmError::ReconstructionFailed {
                    fid,
                    reason: format!("stripe member {i} unavailable ({e})"),
                })
            }
        }
        Err(e) => Err(e),
    }
}

/// Reads the complete bytes of `fid` from wherever they are, falling back
/// to reconstruction; `Ok(None)` means the fragment does not exist in the
/// cluster at all (end of log, or a cleaned stripe).
pub fn read_fragment_anywhere(engine: &ReadEngine, fid: FragmentId) -> Result<Option<Bytes>> {
    if let Some((server, _)) = locate_fragment(engine.pool(), fid) {
        match fetch_fragment(engine, server, fid) {
            Ok(bytes) => return Ok(Some(bytes)),
            Err(e) if e.is_unavailability() => {} // fall through to rebuild
            Err(e) => return Err(e),
        }
    }
    rebuild(engine, fid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Log, LogConfig, DEFAULT_READ_WINDOW};
    use swarm_net::MemTransport;
    use swarm_server::{MemStore, StorageServer};
    use swarm_types::{ClientId, Geometry, ServiceId};

    /// [`read_fragment_anywhere`] tells "this fragment exists nowhere"
    /// (`Ok(None)`: recovery, prefetch and the cleaner stop probing there)
    /// from "it exists and cannot be rebuilt" (an error) by what the
    /// rebuild found, not by the wording of an error message.
    #[test]
    fn past_the_head_is_none_and_a_stripe_beyond_repair_is_an_error() {
        let transport = Arc::new(MemTransport::new());
        for i in 0..5 {
            let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
            transport.register(ServerId::new(i), srv);
        }
        let client = ClientId::new(1);
        let config = LogConfig::new(client, (0..5).map(ServerId::new).collect())
            .unwrap()
            .geometry(Geometry::new(3, 2).unwrap())
            .unwrap()
            .fragment_size(4096);
        let log = Log::create(transport.clone(), config).unwrap();
        for i in 0..40u32 {
            log.append_block(ServiceId::new(1), b"", &vec![i as u8; 700])
                .unwrap();
        }
        log.flush().unwrap();
        let pool = log.engine().clone();
        let engine = ReadEngine::new(pool.clone(), DEFAULT_READ_WINDOW);
        let fid = |seq| FragmentId::new(client, seq);

        let head = (0u64..)
            .find(|&seq| locate_fragment(&pool, fid(seq)).is_none())
            .unwrap();
        assert!(head >= 10, "log too short: {head} fragments");
        for seq in [head, head + 1, head + 100] {
            assert_eq!(read_fragment_anywhere(&engine, fid(seq)).unwrap(), None);
            assert!(matches!(
                reconstruct_fragment(&engine, fid(seq)),
                Err(SwarmError::ReconstructionFailed { .. })
            ));
        }

        // Stripe 0 loses members 0, 3 and 4: one more than m = 2. Member 1
        // still answers a locate, so the stripe is known to exist.
        let (_, header) = locate_fragment(&pool, fid(0)).unwrap();
        for member in [0, 3, 4] {
            transport.set_down(header.member_server(member), true);
        }
        assert!(matches!(
            read_fragment_anywhere(&engine, fid(0)),
            Err(SwarmError::ReconstructionFailed { .. })
        ));
        // Two losses are within m: the same call rebuilds.
        transport.set_down(header.member_server(4), false);
        assert!(read_fragment_anywhere(&engine, fid(0)).unwrap().is_some());
    }
}
