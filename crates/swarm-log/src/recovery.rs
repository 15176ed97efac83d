//! Client crash recovery: checkpoint discovery and log rollforward
//! (§2.1.3, §2.3.1).
//!
//! After a client crash, recovery proceeds in stages:
//!
//! 1. **Anchor** — broadcast `LastMarked` to every server; the newest
//!    marked fragment holds the client's most recent checkpoint *and* the
//!    log layer's checkpoint directory (the positions of every service's
//!    newest checkpoint — §2.1.3: "the log layer tracks the most
//!    recently written checkpoint for each service and makes it
//!    available to the service on restart").
//! 2. **Checkpoint discovery** — read the directory from the anchor
//!    fragment and fetch each service's checkpoint directly. An anchor
//!    that cannot be read, or carries no directory, gets the same answer
//!    as a directory entry whose fragment is gone: rollforward starts at
//!    the beginning of the log and finds the checkpoints itself.
//! 3. **Rollforward** — scan *forward* from the oldest needed checkpoint
//!    to the end of the log, collecting every entry. Missing fragments are
//!    reconstructed from parity; the end of the log is the first fragment
//!    that neither exists nor can be reconstructed.
//! 4. **Torn-tail discard** — if the scan ends mid-stripe (the client
//!    crashed before the stripe's parity shipped), the partial stripe's
//!    entries are discarded and its surviving fragments deleted. This is
//!    the strict durability rule: data is acknowledged by `flush()`,
//!    `flush()` always completes stripes, so anything in an incomplete
//!    stripe was never acknowledged — and keeping it would leave bytes
//!    with no parity protection. (Like a torn journal record: the
//!    servers' atomic stores guarantee entries never tear *within* a
//!    fragment; stripes can still tear *across* fragments.)
//! 5. **Re-anchor** — a discarded stripe's sequence numbers are never
//!    reused, so the discard leaves a permanent hole in the log. Recovery
//!    writes a *marked* fragment (checkpoint directory only) at the new
//!    head so the hole falls below the anchor, where the rollforward scan
//!    skips missing stripes; without it, the *next* recovery would stop
//!    at the hole and lose every acknowledged write beyond it.
//!
//! The caller (usually the service stack) then feeds
//! [`Replay::checkpoint_data`] and [`Replay::records_for`] to each
//! service.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use swarm_net::{ConnectionPool, Request, Response, Transport};
use swarm_types::{BlockAddr, Bytes, FragmentId, Result, ServerId, ServiceId, SwarmError};

use crate::entry::Entry;
use crate::log::{Log, LogConfig, LogPosition};
use crate::reader::{whole_fragment, ReadEngine};
use crate::reconstruct;

struct RecoveryMetrics {
    recoveries: swarm_metrics::Counter,
    fragments_scanned: swarm_metrics::Counter,
    reconstructions: swarm_metrics::Counter,
    torn_tails: swarm_metrics::Counter,
    recover_us: swarm_metrics::Histogram,
}

fn metrics() -> &'static RecoveryMetrics {
    static M: std::sync::OnceLock<RecoveryMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| RecoveryMetrics {
        recoveries: swarm_metrics::counter("recovery.recoveries"),
        fragments_scanned: swarm_metrics::counter("recovery.fragments_scanned"),
        reconstructions: swarm_metrics::counter("recovery.reconstructions"),
        torn_tails: swarm_metrics::counter("recovery.torn_tails"),
        recover_us: swarm_metrics::histogram("recovery.recover_us"),
    })
}

/// One replayed log entry with its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayEntry {
    /// Where in the log the entry sits.
    pub pos: LogPosition,
    /// The entry itself.
    pub entry: Entry,
    /// For Block entries, the address of the data payload.
    pub block_addr: Option<BlockAddr>,
}

/// Everything recovery learned from the log.
#[derive(Debug, Default)]
pub struct Replay {
    /// Newest checkpoint per service: position and payload.
    pub checkpoints: HashMap<ServiceId, (LogPosition, Vec<u8>)>,
    /// All entries from the scan start to the end of the log, in order.
    pub entries: Vec<ReplayEntry>,
    /// Highest fragment sequence number found.
    pub last_seq: Option<u64>,
    /// Where each scanned fragment lives (seeds the new log's map).
    pub fragment_homes: Vec<(FragmentId, ServerId)>,
}

impl Replay {
    /// The checkpoint payload for `service`, if one was found.
    pub fn checkpoint_data(&self, service: ServiceId) -> Option<&[u8]> {
        self.checkpoints.get(&service).map(|(_, d)| d.as_slice())
    }

    /// Entries belonging to `service` that postdate its checkpoint (all of
    /// its entries if it has no checkpoint), in log order.
    ///
    /// These are exactly the records the paper says a service must replay:
    /// "the log layer provides each service with the records the service
    /// wrote after its most recent checkpoint".
    pub fn records_for(&self, service: ServiceId) -> Vec<&ReplayEntry> {
        let after = self
            .checkpoints
            .get(&service)
            .map(|(pos, _)| *pos)
            .unwrap_or(LogPosition { seq: 0, offset: 0 });
        let has_ckpt = self.checkpoints.contains_key(&service);
        self.entries
            .iter()
            .filter(|e| e.entry.service() == service)
            .filter(|e| if has_ckpt { e.pos > after } else { true })
            .filter(|e| !matches!(e.entry, Entry::Checkpoint { .. }))
            .collect()
    }
}

/// Recovers a client's log after a crash.
///
/// `expected_services` lists the services that will run on this client;
/// their checkpoints are fetched via the anchor fragment's checkpoint
/// directory (services absent from the directory get a full-log scan).
/// Returns a [`Log`] ready for new appends (sequence numbers continue
/// after the recovered log) plus the [`Replay`] data.
///
/// # Errors
///
/// Returns transport errors if no server is reachable, and corruption
/// errors if recovered fragments fail validation.
pub fn recover(
    transport: Arc<dyn Transport>,
    config: LogConfig,
    expected_services: &[ServiceId],
) -> Result<(Log, Replay)> {
    let m = metrics();
    m.recoveries.inc();
    let _span = m.recover_us.span("recovery.recover");
    let client = config.client;
    let width = config.group.width() as u64;
    // One pool for the whole recovery; it is handed to the recovered Log
    // afterwards so new reads start on already-warm connections.
    let pool = Arc::new(ConnectionPool::new(transport.clone(), client));
    // Every whole-fragment read below — checkpoint discovery and the
    // rollforward scan — rides the pool's fan-out.
    let engine = ReadEngine::new(Arc::clone(&pool));

    let anchor = find_anchor(&pool);
    swarm_metrics::trace!("recovery", "client {} anchor={:?}", client, anchor);
    let mut replay = Replay::default();

    // With no anchor, or one that yields no directory, the scan starts at
    // the beginning: it keeps each service's newest checkpoint as it goes
    // and skips cleaned stripes below the anchor.
    let directory = match anchor {
        Some(anchor_fid) => read_checkpoint_dir(&engine, anchor_fid)?,
        None => None,
    };
    let scan_start = match directory {
        Some(dir) => discover_from_directory(&engine, &dir, expected_services, &mut replay)?,
        None => 0,
    };
    let anchor_seq = anchor.map(|a| a.seq()).unwrap_or(0);

    // Rollforward, a read window at a time: the next `WINDOW` fragments
    // are located and fetched as one batch, then parsed in order.
    let mut window: VecDeque<Fetched> = VecDeque::new();
    let mut seq = scan_start;
    loop {
        let fid = FragmentId::new(client, seq);
        if window.is_empty() {
            let ahead = seq..seq + swarm_net::pool::WINDOW as u64;
            let fids: Vec<_> = ahead.map(|s| FragmentId::new(client, s)).collect();
            window = fetch_window(&engine, &fids).into();
        }
        let fetch = window.pop_front().expect("a window holds a fragment");
        let bytes = match fetch.body {
            Some(Ok(bytes)) => Some(bytes),
            Some(Err(e)) if !e.is_unavailability() => return Err(e),
            // Held by a server that cannot serve it, or by none: rebuild.
            _ => try_reconstruct(&engine, fid)?,
        };
        let Some(bytes) = bytes else {
            // Below the anchor a missing fragment is a *cleaned* stripe
            // (the cleaner only reclaims regions older than every
            // checkpoint that matters) — skip it. At or beyond the
            // anchor, a miss is the end of the log or a torn tail.
            if seq < anchor_seq {
                seq += 1;
                continue;
            }
            break;
        };
        if let Some(server) = fetch.home {
            replay.fragment_homes.push((fid, server));
        }
        m.fragments_scanned.inc();
        replay.last_seq = Some(seq);
        let view = crate::fragment::FragmentView::parse(&bytes)?;
        if view.header.member_count as u32 != width as u32 {
            return Err(SwarmError::invalid(format!(
                "log was written with stripe width {}, but recovery was configured \
                 with width {} — recover with the original stripe group",
                view.header.member_count, width
            )));
        }
        if view.header.parity_index != config.group.data_width() {
            return Err(SwarmError::invalid(format!(
                "log was written with geometry {}+{}, but recovery was configured \
                 with {}+{} — recover with the original geometry",
                view.header.data_count(),
                view.header.parity_count(),
                config.group.data_width(),
                config.group.parity_count(),
            )));
        }
        if !view.header.is_parity() {
            for le in view.entries {
                let pos = LogPosition {
                    seq,
                    offset: le.entry_offset,
                };
                if let Entry::Checkpoint { service, data } = &le.entry {
                    // The scan may see newer checkpoints than the
                    // directory listed (it starts at the oldest).
                    let newer = replay
                        .checkpoints
                        .get(service)
                        .map(|(p, _)| pos > *p)
                        .unwrap_or(true);
                    if newer {
                        replay.checkpoints.insert(*service, (pos, data.clone()));
                    }
                }
                replay.entries.push(ReplayEntry {
                    pos,
                    entry: le.entry,
                    block_addr: le.block_addr,
                });
            }
        }
        seq += 1;
    }

    // The scan concluded "end of log" at `seq`. That conclusion is only
    // sound if enough of the stripe group answered: every stripe spans
    // the whole group, so any k reachable servers are guaranteed to hold
    // members of every surviving stripe. With fewer than k servers
    // answering, a partitioned (or connection-saturated) cluster is
    // indistinguishable from a short log — recovering "empty" here would
    // silently abandon acknowledged writes, so refuse instead.
    let reachable = pool
        .broadcast(&Request::Ping)
        .into_iter()
        .filter(|(_, resp)| matches!(resp, Response::Ok))
        .count();
    if (reachable as u8) < config.group.data_width() {
        return Err(SwarmError::Io(std::io::Error::new(
            std::io::ErrorKind::NotConnected,
            format!(
                "recovery reached only {reachable} of {width} servers (need {} to \
                 prove the log head) — refusing to recover a possibly-truncated log",
                config.group.data_width()
            ),
        )));
    }

    // Torn-tail discard: the scan stopped at `seq`. If that is mid-stripe,
    // the final stripe never completed (no parity): drop its entries and
    // best-effort delete its surviving fragments so they don't linger as
    // unprotected, unaccounted data.
    let torn = !seq.is_multiple_of(width);
    if torn {
        m.torn_tails.inc();
        let torn_first = (seq / width) * width;
        swarm_metrics::trace!("recovery", "discarding torn tail from seq {}", torn_first);
        replay.entries.retain(|e| e.pos.seq < torn_first);
        replay
            .checkpoints
            .retain(|_, (pos, _)| pos.seq < torn_first);
        let torn_homes: Vec<(FragmentId, ServerId)> = replay
            .fragment_homes
            .iter()
            .filter(|(fid, _)| fid.seq() >= torn_first)
            .copied()
            .collect();
        replay
            .fragment_homes
            .retain(|(fid, _)| fid.seq() < torn_first);
        replay.last_seq = torn_first.checked_sub(1);
        for (fid, server) in torn_homes {
            let _ = pool.call(server, &Request::Delete { fid });
        }
    }

    // New appends start one stripe past the last stripe the scan touched
    // (found *or* torn) — never reuse a torn fragment's id even if its
    // best-effort deletion failed on a down server.
    let next_seq = if seq == 0 {
        0
    } else {
        ((seq - 1) / width + 1) * width
    };
    let log = Log::with_engine(transport, config, next_seq, pool)?;
    log.seed_fragment_map(replay.fragment_homes.iter().copied());
    for (service, (pos, _)) in &replay.checkpoints {
        log.seed_checkpoint(*service, *pos);
    }
    if let Some(a) = anchor {
        log.seed_anchor(a.seq());
    }
    // A discarded stripe leaves a permanent hole in the sequence space
    // (its ids are never reused), and the rollforward scan above only
    // skips missing stripes *below* the anchor. Re-anchor past the hole
    // by writing a marked directory fragment at the new head; otherwise
    // a second crash would truncate recovery at the hole, losing every
    // acknowledged write beyond it. Best-effort: if the cluster is too
    // degraded to store a stripe right now, the recovered log still
    // works, and the next successful checkpoint closes the window.
    if torn {
        match log.write_anchor() {
            Ok(pos) => {
                swarm_metrics::trace!("recovery", "re-anchored past torn tail at seq {}", pos.seq);
            }
            Err(e) => {
                swarm_metrics::trace!(
                    "recovery",
                    "re-anchor after torn tail failed (gap stays above anchor): {e}"
                );
            }
        }
    }
    Ok((log, replay))
}

/// One fragment of a rollforward window.
struct Fetched {
    /// The server a cluster-wide locate found the fragment on, if any.
    home: Option<ServerId>,
    /// What that server's read returned; `None` when no server has it.
    body: Option<Result<Bytes>>,
}

/// Locates `fids` cluster-wide and reads the located ones whole from the
/// servers that hold them: two fan-outs for the whole window, whatever its
/// size and however many servers it touches. What the batch could not
/// fetch is left to the caller, which rebuilds only as far as it scans.
fn fetch_window(engine: &ReadEngine, fids: &[FragmentId]) -> Vec<Fetched> {
    let located = reconstruct::locate_fragments(engine, fids);
    let reads: Vec<_> = (fids.iter().zip(&located))
        .filter_map(|(&fid, found)| {
            let (server, header) = found.as_ref()?;
            Some((*server, whole_fragment(fid, header)))
        })
        .collect();
    let mut bodies = engine.fetch_scatter(&reads).into_iter();
    let fetched = located.into_iter().map(|found| Fetched {
        body: found
            .is_some()
            .then(|| bodies.next().expect("a body per read")),
        home: found.map(|(server, _)| server),
    });
    fetched.collect()
}

fn try_reconstruct(engine: &ReadEngine, fid: FragmentId) -> Result<Option<Bytes>> {
    match reconstruct::reconstruct_fragment(engine, fid) {
        Ok(bytes) => {
            metrics().reconstructions.inc();
            Ok(Some(bytes))
        }
        // Unreconstructible during a rollforward scan = end of log or a
        // torn tail; both mean "stop scanning", not "fail recovery".
        Err(SwarmError::ReconstructionFailed { .. }) => Ok(None),
        Err(e) if e.is_unavailability() => Ok(None),
        Err(e) => Err(e),
    }
}

/// Broadcast `LastMarked` (in parallel); the newest reply is the recovery
/// anchor.
fn find_anchor(pool: &Arc<ConnectionPool>) -> Option<FragmentId> {
    pool.broadcast(&Request::LastMarked)
        .into_iter()
        .filter_map(|(_, resp)| match resp.into_result() {
            Ok(Response::LastMarked(fid)) => fid,
            _ => None,
        })
        .max()
}

/// Reads the log layer's checkpoint directory from the anchor fragment,
/// if present (the newest CHECKPOINT_DIR record wins).
fn read_checkpoint_dir(
    engine: &ReadEngine,
    anchor: FragmentId,
) -> Result<Option<Vec<(ServiceId, crate::log::LogPosition)>>> {
    let Some(bytes) = reconstruct::read_fragment_anywhere(engine, anchor)? else {
        return Ok(None);
    };
    let view = crate::fragment::FragmentView::parse(&bytes)?;
    for le in view.entries.iter().rev() {
        if let Entry::Record {
            service,
            kind,
            data,
        } = &le.entry
        {
            if *service == ServiceId::LOG_LAYER && *kind == crate::log::log_record::CHECKPOINT_DIR {
                return Ok(Some(crate::log::decode_checkpoint_dir(data)?));
            }
        }
    }
    Ok(None)
}

/// Fetches each expected service's checkpoint straight from the
/// directory; returns the forward-scan start (the oldest position that
/// still matters).
fn discover_from_directory(
    engine: &ReadEngine,
    directory: &[(ServiceId, LogPosition)],
    expected: &[ServiceId],
    replay: &mut Replay,
) -> Result<u64> {
    let mut scan_start = u64::MAX;
    for (service, pos) in directory {
        if !expected.contains(service) {
            continue;
        }
        let fid = FragmentId::new(engine.pool().client(), pos.seq);
        let Some(bytes) = reconstruct::read_fragment_anywhere(engine, fid)? else {
            // The directory references a fragment that is gone — fall
            // back to scanning from the beginning for safety.
            scan_start = 0;
            continue;
        };
        let view = crate::fragment::FragmentView::parse(&bytes)?;
        for le in &view.entries {
            if le.entry_offset == pos.offset {
                if let Entry::Checkpoint { service: s, data } = &le.entry {
                    if s == service {
                        replay.checkpoints.insert(*service, (*pos, data.clone()));
                    }
                }
            }
        }
        scan_start = scan_start.min(pos.seq);
    }
    // Services expected but absent from the directory never checkpointed:
    // their records are everywhere, so scan from the very beginning (the
    // cleaner cannot have reclaimed any stripe holding their records).
    let all_listed = expected
        .iter()
        .all(|svc| directory.iter().any(|(s, _)| s == svc));
    if !all_listed || scan_start == u64::MAX {
        scan_start = 0;
    }
    Ok(scan_start)
}
