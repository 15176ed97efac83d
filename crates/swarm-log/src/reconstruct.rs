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
//! broadcast, and stripe members — which by construction live on
//! *different* servers — are read at once, `k` ranged reads in one
//! fan-out ([`ReadEngine::fetch_scatter`]).
//!
//! There is one decode routine for every geometry and every caller,
//! [`rebuild_range`]. A `k + m` stripe tolerates up to `m` concurrent
//! member losses, and both RS and XOR parity are bytewise linear: bytes
//! `[a, b)` of a lost member's symbol are a GF(2^8) linear combination
//! ([`crate::gf::decode_rows`]) of bytes `[a, b)` of any `k` survivors'
//! symbols. A degraded block read ([`crate::Log::read`] with the home
//! down) decodes exactly the addressed bytes; the whole-fragment rebuild
//! is the same call over the member's full length, followed by
//! validation. The paper's single-parity stripe is the `m = 1` case:
//! every coefficient comes out 1 and [`crate::gf::mul_into`] folds a
//! coefficient-1 member with plain XOR — §2.3.3's rebuild.
//!
//! What the paper gets from a broadcast per rebuild — who is in the
//! stripe, and where — is remembered instead: [`stripe_info`] turns one
//! parity mate's header into the stripe's description, the log caches it,
//! and survivors are chosen with [`ConnectionPool::should_try`], so a
//! server known to be down is neither dialed nor searched for while `k`
//! other members answer.

use std::sync::Arc;

use swarm_net::{ConnectionPool, ReadSpec, Request, Response};
use swarm_types::{Bytes, FragmentId, Result, ServerId, SwarmError, MAX_PARITY};

use crate::fragment::{parse_header, FragmentHeader, LOCATE_HEADER_LEN};
use crate::gf;
use crate::reader::{whole_fragment, ReadEngine};

fn locate_request(fid: FragmentId) -> Request {
    Request::Locate {
        fid,
        header_len: LOCATE_HEADER_LEN,
    }
}

/// The header in a positive `Locate` reply, if it parses.
fn located(resp: Response) -> Option<FragmentHeader> {
    match resp.into_result().ok()? {
        Response::Located(Some(prefix)) => parse_header(&prefix).ok(),
        _ => None,
    }
}

/// Broadcasts a `Locate` for `fid`, returning the first server that holds
/// it plus its parsed header. First positive reply wins; a hit on one
/// server does not wait for the rest of the cluster.
pub fn locate_fragment(
    pool: &Arc<ConnectionPool>,
    fid: FragmentId,
) -> Option<(ServerId, FragmentHeader)> {
    let request = locate_request(fid);
    let (server, resp) =
        pool.broadcast_first(&request, |r| matches!(r, Response::Located(Some(_))))?;
    if let Some(header) = located(resp) {
        return Some((server, header));
    }
    // The winning prefix failed to parse (corrupt header): fall back to a
    // full broadcast and accept any server whose copy parses.
    (pool.broadcast(&request).into_iter()).find_map(|(server, resp)| Some((server, located(resp)?)))
}

/// [`locate_fragment`] for a batch: every fragment is asked of every
/// server in one windowed pass, and of the servers
/// [`ConnectionPool::should_try`] advises against in a second pass only
/// if the first did not find it. The holder with the lowest id wins.
pub fn locate_fragments(
    engine: &ReadEngine,
    fids: &[FragmentId],
) -> Vec<Option<(ServerId, FragmentHeader)>> {
    let mut found: Vec<Option<(ServerId, FragmentHeader)>> = vec![None; fids.len()];
    for servers in engine.pool().fresh_then_suspects() {
        let missing = (0..fids.len()).filter(|&i| found[i].is_none());
        let asked: Vec<(usize, ServerId)> = missing
            .flat_map(|i| servers.iter().map(move |&server| (i, server)))
            .collect();
        let jobs: Vec<_> = asked.iter().map(|&(i, server)| (server, fids[i])).collect();
        for (&(i, server), located) in asked.iter().zip(engine.locate_each(&jobs)) {
            if let (None, Ok(Some(header))) = (&found[i], located) {
                found[i] = Some((server, header));
            }
        }
    }
    found
}

/// Fetches the complete bytes of a fragment from a specific server: one
/// `Locate` learns its length, one `Read` returns it. Both ride the
/// engine's window (and its priority lane on the mux, so a reconstruction
/// is not stuck behind queued store payloads). Zero-copy: the returned
/// [`Bytes`] is the decoded wire frame's payload, shared, not copied.
///
/// # Errors
///
/// Propagates transport and server errors ([`SwarmError::FragmentNotFound`],
/// [`SwarmError::ServerUnavailable`], …) and validates the header.
pub fn fetch_fragment(engine: &ReadEngine, server: ServerId, fid: FragmentId) -> Result<Bytes> {
    let located = engine.locate_each(&[(server, fid)]).pop();
    let header = located
        .expect("one job")?
        .ok_or(SwarmError::FragmentNotFound(fid))?;
    read_located(engine, server, fid, &header)
}

/// The `Read` half of [`fetch_fragment`], for a caller that already holds
/// the fragment's header from `server`.
fn read_located(
    engine: &ReadEngine,
    server: ServerId,
    fid: FragmentId,
    header: &FragmentHeader,
) -> Result<Bytes> {
    let ReadSpec { fid, offset, len } = whole_fragment(fid, header);
    engine.read_one(server, fid, offset, len)
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
/// members of its stripe.
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

/// The whole-fragment rebuild under [`reconstruct_fragment`] and
/// [`read_fragment_anywhere`]: [`rebuild_range`] over the member's full
/// symbol, then validation (a data member must parse, checksums and all,
/// and name itself `fid`) or, for a parity member, a re-encoded header.
/// `Ok(None)` means no member of `fid`'s stripe exists anywhere in the
/// cluster — the stripe was never written or has been cleaned — which the
/// two callers report differently.
fn rebuild(engine: &ReadEngine, fid: FragmentId) -> Result<Option<Bytes>> {
    let Some(mate) = find_stripe_header(engine.pool(), fid) else {
        return Ok(None);
    };
    let failed = |reason: String| SwarmError::ReconstructionFailed { fid, reason };
    let stripe = stripe_info(engine.pool(), &mate)
        .or_else(|| cold_stripe_info(engine.pool(), &mate))
        .ok_or_else(|| failed("no surviving member names the stripe's member lengths".into()))?;
    let my_index = (fid.seq() - stripe.stripe_first_seq) as u8;
    let symbol_len = symbol_of(&stripe, my_index).1;
    let symbol = rebuild_range(engine, &stripe, my_index, 0..symbol_len)?;
    if !stripe.is_parity_member(my_index) {
        let view = crate::fragment::FragmentView::parse(&symbol)
            .map_err(|e| failed(format!("rebuilt bytes failed validation: {e}")))?;
        if view.header.fid != fid {
            return Err(failed(format!(
                "rebuilt fragment identifies as {}",
                view.header.fid
            )));
        }
        return Ok(Some(symbol));
    }
    // A parity member's symbol is its body; its header is a function of
    // the stripe and that body.
    let parity_header = FragmentHeader {
        flags: crate::fragment::FLAG_PARITY,
        fid,
        my_index,
        body_len: symbol.len() as u32,
        body_crc: swarm_types::crc32(&symbol),
        ..stripe
    };
    let mut w = swarm_types::ByteWriter::with_capacity(parity_header.encoded_len() + symbol.len());
    use swarm_types::Encode;
    parity_header.encode(&mut w);
    w.put_raw(&symbol);
    Ok(Some(Bytes::from(w.into_bytes())))
}

/// Asks `server` alone for `fid`'s header.
fn locate_at(pool: &ConnectionPool, server: ServerId, fid: FragmentId) -> Option<FragmentHeader> {
    located(pool.call(server, &locate_request(fid)).ok()?)
}

/// Does parity header `h` describe `mate`'s stripe: the same writer, the
/// same member table, and a stored length for every data member?
fn describes(h: &FragmentHeader, mate: &FragmentHeader) -> bool {
    h.is_parity()
        && h.member_lens.len() == h.data_count() as usize
        && h.fid == mate.member_fid(h.my_index)
        && (h.stripe_first_seq, h.member_count, h.parity_index)
            == (mate.stripe_first_seq, mate.member_count, mate.parity_index)
}

/// Completes `mate` — any member's header, or the owning log's plan for
/// the stripe — into what [`rebuild_range`] needs: the member table plus
/// every data member's stored length, which is a parity member's header.
/// One direct `Locate` to a parity mate; no broadcast, and no dial that
/// [`ConnectionPool::should_try`] advises against.
pub fn stripe_info(pool: &ConnectionPool, mate: &FragmentHeader) -> Option<FragmentHeader> {
    if describes(mate, mate) {
        return Some(mate.clone());
    }
    (mate.parity_index..mate.member_count).find_map(|i| {
        let home = mate.member_server(i);
        let header = pool
            .should_try(home)
            .then(|| locate_at(pool, home, mate.member_fid(i)));
        header.flatten().filter(|h| describes(h, mate))
    })
}

/// [`stripe_info`] by search, for the whole-fragment rebuild: parity mates
/// are looked for cluster-wide, and when none survives (only parity was
/// lost) each data member's own header gives its length.
fn cold_stripe_info(pool: &Arc<ConnectionPool>, mate: &FragmentHeader) -> Option<FragmentHeader> {
    let anywhere = |i: u8| Some(locate_fragment(pool, mate.member_fid(i))?.1);
    let parity = (mate.parity_index..mate.member_count)
        .find_map(|i| anywhere(i).filter(|h| describes(h, mate)));
    if parity.is_some() {
        return parity;
    }
    let member_lens = (0..mate.parity_index)
        .map(|i| {
            let h = locate_at(pool, mate.member_server(i), mate.member_fid(i))
                .or_else(|| anywhere(i))?;
            (h.encoded_len() as u32).checked_add(h.body_len)
        })
        .collect::<Option<Vec<u32>>>()?;
    Some(FragmentHeader {
        member_lens,
        ..mate.clone()
    })
}

/// Where stripe member `i`'s symbol — the bytes the code is computed over
/// — starts within its stored fragment, and how long it is. A data
/// member's symbol is its stored bytes from offset 0; a parity member's is
/// its body, after a header whose length is a function of the geometry,
/// spanning the longest data member.
fn symbol_of(stripe: &FragmentHeader, i: u8) -> (u32, u32) {
    if stripe.is_parity_member(i) {
        let body = stripe.member_lens.iter().copied().max().unwrap_or(0);
        // `stripe` carries a full length table, so it encodes to exactly a
        // parity header's length whichever member it came from.
        (stripe.encoded_len() as u32, body)
    } else {
        (0, stripe.member_lens[i as usize])
    }
}

/// The coefficient per survivor that recombines their symbols into member
/// `lost`'s: a [`gf::decode_rows`] row for a data member; for a parity
/// member its [`gf::coding_row`] composed with the survivor inverse, so no
/// intermediate data rebuild is materialized.
fn decode_coefficients(k: usize, survivors: &[usize], lost: usize) -> Option<Vec<u8>> {
    if lost < k {
        return gf::decode_rows(k, survivors, &[lost])?.pop();
    }
    let inverse = gf::decode_rows(k, survivors, &(0..k).collect::<Vec<_>>())?;
    let target = gf::coding_row(k, lost - k);
    let coefficient =
        |s: usize| (target.iter().zip(&inverse)).fold(0, |acc, (&t, row)| acc ^ gf::mul(t, row[s]));
    Some((0..k).map(coefficient).collect())
}

/// Rebuilds bytes `range` of member `lost`'s symbol (see `symbol_of`)
/// from the same range of `k` other members of `stripe`, a
/// [`stripe_info`] header — the one decode routine (module docs).
///
/// Survivors whose homes are not known down are asked first, `k` ranged
/// reads in flight at once; a failed one is topped up from the remaining
/// members, and only when fewer than `k` answer at their homes is a
/// failed member looked for cluster-wide. Members shorter than the range
/// are read as far as they go (the code treats the rest as zeros). Each
/// reply has its wire frame's CRC behind it, as a healthy ranged read has.
///
/// # Errors
///
/// [`SwarmError::RangeOutOfBounds`] if `range` runs past the lost
/// member's true length, [`SwarmError::ReconstructionFailed`] if fewer
/// than `k` survivors are available.
pub fn rebuild_range(
    engine: &ReadEngine,
    stripe: &FragmentHeader,
    lost: u8,
    range: std::ops::Range<u32>,
) -> Result<Bytes> {
    let k = stripe.data_count() as usize;
    if stripe.member_lens.len() != k || lost >= stripe.member_count {
        return Err(SwarmError::corrupt("not a stripe description"));
    }
    let fid = stripe.member_fid(lost);
    let stored = symbol_of(stripe, lost).1;
    if range.start > range.end || range.end > stored {
        let addr =
            swarm_types::BlockAddr::new(fid, range.start, range.end.wrapping_sub(range.start));
        return Err(SwarmError::RangeOutOfBounds { addr, stored });
    }
    let spec = |i: u8| {
        let (base, len) = symbol_of(stripe, i);
        let end = range.end.min(len);
        let start = range.start.min(end);
        ReadSpec {
            fid: stripe.member_fid(i),
            offset: base.saturating_add(start),
            len: end - start,
        }
    };
    let pool = engine.pool();
    // Drawn lazily: the reader `should_try` elects as a probe does dial.
    let mut fresh = (0..stripe.member_count).filter(|i| *i != lost);
    let mut suspects: Vec<u8> = Vec::new();
    let mut draw = || loop {
        match fresh.next() {
            Some(i) if pool.should_try(stripe.member_server(i)) => return Some(i),
            Some(i) => suspects.push(i),
            None => return suspects.pop(),
        }
    };
    let mut survivors: Vec<(usize, Bytes)> = Vec::with_capacity(k);
    let mut failures: Vec<(u8, SwarmError)> = Vec::new();
    while survivors.len() < k {
        let asked: Vec<u8> = std::iter::from_fn(&mut draw)
            .take(k - survivors.len())
            .collect();
        if asked.is_empty() {
            break;
        }
        let jobs: Vec<_> = asked
            .iter()
            .map(|&i| (stripe.member_server(i), spec(i)))
            .collect();
        for (&i, result) in asked.iter().zip(engine.fetch_scatter(&jobs)) {
            match result {
                Ok(bytes) => survivors.push((i as usize, bytes)),
                Err(e) => failures.push((i, e)),
            }
        }
    }
    for (i, e) in &failures {
        if survivors.len() == k || !e.is_unavailability() {
            continue;
        }
        let ReadSpec { fid, offset, len } = spec(*i);
        if let Some((server, _)) = locate_fragment(pool, fid) {
            if let Ok(bytes) = engine.read_one(server, fid, offset, len) {
                survivors.push((*i as usize, bytes));
            }
        }
    }
    if survivors.len() < k {
        let reasons: Vec<String> = failures
            .iter()
            .map(|(i, e)| format!("member {i}: {e}"))
            .collect();
        return Err(SwarmError::ReconstructionFailed {
            fid,
            reason: format!(
                "only {} of the {k} survivors needed are available ({})",
                survivors.len(),
                reasons.join("; ")
            ),
        });
    }
    let indices: Vec<usize> = survivors.iter().map(|(i, _)| *i).collect();
    let coefficients = decode_coefficients(k, &indices, lost as usize)
        .ok_or_else(|| SwarmError::corrupt("survivor matrix is singular"))?;
    let mut rebuilt = Vec::with_capacity(range.len());
    for ((_, bytes), &c) in survivors.iter().zip(&coefficients) {
        gf::mul_into(&mut rebuilt, bytes, c);
    }
    // Shorter-than-asked folds only happen when every longer survivor is
    // itself short there — the symbol really is zero.
    rebuilt.resize(range.len(), 0);
    Ok(Bytes::from(rebuilt))
}

/// Reads the complete bytes of `fid` from wherever they are, falling back
/// to reconstruction; `Ok(None)` means the fragment does not exist in the
/// cluster at all (end of log, or a cleaned stripe). The broadcast's
/// winning header sizes the `Read`: the holder is not asked again.
pub fn read_fragment_anywhere(engine: &ReadEngine, fid: FragmentId) -> Result<Option<Bytes>> {
    if let Some((server, header)) = locate_fragment(engine.pool(), fid) {
        match read_located(engine, server, fid, &header) {
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
    use crate::{Log, LogConfig};
    use swarm_net::MemTransport;
    use swarm_server::{MemStore, StorageServer};
    use swarm_types::{ClientId, Geometry, ServiceId};

    /// [`read_fragment_anywhere`] tells "this fragment exists nowhere"
    /// (`Ok(None)`: recovery and the cleaner stop probing there)
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
        let engine = ReadEngine::new(pool.clone());
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
