//! The stripe utilization table: what the cleaner knows about each stripe.
//!
//! The cleaner "periodically traverses the log" (§2.1.4), but it need not
//! traverse it from the start each time: the table is kept between
//! passes and each pass *folds* only the fragments sealed since the last
//! one ([`UsageTable::fold`]). Every block creation, deletion record,
//! service record and checkpoint is folded once, in log order, into
//! per-stripe accounting, from which the cleaner chooses victims. A
//! deletion takes its block out of whichever stripe holds it, so a block
//! stays dead after the stripe holding its deletion record is reclaimed.

use std::collections::{BTreeMap, HashMap};

use swarm_log::{Entry, FragmentView, Log, LogPosition};
use swarm_types::{BlockAddr, FragmentId, Result, ServiceId};

/// How many of the newest complete stripes [`UsageTable::write_amplification`]
/// averages over.
const AMPLIFICATION_WINDOW: usize = 16;

/// A live block that would need to move if its stripe were cleaned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveBlock {
    /// Where the block currently lives.
    pub addr: BlockAddr,
    /// The owning service.
    pub service: ServiceId,
    /// The block's creation record (handed back to the service on move).
    pub create: Vec<u8>,
}

/// Per-stripe accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StripeUsage {
    /// Sequence number of the stripe's first fragment.
    pub first_seq: u64,
    /// Members actually found (data + parity).
    pub fragments_found: u32,
    /// Total bytes stored for this stripe (all members).
    pub stored_bytes: u64,
    /// Payload bytes of every block written into this stripe, live or dead.
    pub payload_bytes: u64,
    /// Payload bytes of blocks that are still live.
    pub live_bytes: u64,
    /// The live blocks themselves, in log order.
    pub live_blocks: Vec<LiveBlock>,
    /// Services with *records* (incl. deletes) in this stripe and the
    /// position of their newest such record.
    pub record_services: HashMap<ServiceId, LogPosition>,
    /// Positions of checkpoint entries in this stripe, per service.
    pub checkpoints: HashMap<ServiceId, LogPosition>,
}

impl StripeUsage {
    /// Fraction of stored bytes that are live (0.0 = fully dead).
    pub fn utilization(&self) -> f64 {
        if self.stored_bytes == 0 {
            0.0
        } else {
            self.live_bytes as f64 / self.stored_bytes as f64
        }
    }

    /// Does cleaning this stripe free more than it moves?
    ///
    /// Moving `live` bytes costs `amplification · live` bytes of new log
    /// (the log's own write amplification, see
    /// [`UsageTable::write_amplification`]), so reclaiming `stored` bytes
    /// frees `stored − amplification · live`. The stripe pays if that is
    /// more than the `live` bytes the move itself reads and rewrites. A
    /// fully-dead stripe always pays; a fully-live one never does.
    pub fn pays(&self, amplification: f64) -> bool {
        self.live_bytes == 0
            || self.stored_bytes as f64 - amplification * self.live_bytes as f64
                > self.live_bytes as f64
    }
}

/// The utilization table for one client's log.
#[derive(Debug, Default)]
pub struct UsageTable {
    /// Stripes keyed by first fragment sequence number.
    pub stripes: BTreeMap<u64, StripeUsage>,
    /// Stripe width of the log.
    pub width: u8,
    /// One past the newest folded fragment sequence.
    pub end_seq: u64,
    /// The stripe (first sequence) holding each live block, so a deletion
    /// finds it wherever it is.
    homes: HashMap<BlockAddr, u64>,
}

impl UsageTable {
    /// An empty table for a log of stripe `width` that will fold from
    /// sequence `floor` on.
    pub fn new(width: u8, floor: u64) -> UsageTable {
        UsageTable {
            width,
            end_seq: floor,
            ..UsageTable::default()
        }
    }

    /// Builds the table by folding the log from sequence `floor` to its
    /// current head. A block whose deletion record was already reclaimed
    /// reads as live here; only a table kept since the deletion knows
    /// better.
    ///
    /// # Errors
    ///
    /// As for [`UsageTable::fold`].
    pub fn scan(log: &Log, floor: u64) -> Result<UsageTable> {
        let mut table = UsageTable::new(log.group().width(), floor);
        table.fold(log)?;
        Ok(table)
    }

    /// Folds every fragment sealed since the last fold
    /// (`end_seq..log.next_seq()`), in log order. Fragments that exist
    /// nowhere (reclaimed, or padding of a torn tail) are skipped.
    ///
    /// # Errors
    ///
    /// Propagates read failures (a fragment that is neither present nor
    /// reconstructible mid-fold is an error — the cleaner must not treat
    /// data loss as free space). The table is then partly folded, and
    /// the caller should drop it.
    pub fn fold(&mut self, log: &Log) -> Result<()> {
        let head = log.next_seq();
        while self.end_seq < head {
            let seq = self.end_seq;
            if let Some(view) = log.fetch_fragment_view(FragmentId::new(log.client(), seq))? {
                self.fold_fragment(seq, &view);
            }
            self.end_seq += 1;
        }
        Ok(())
    }

    fn fold_fragment(&mut self, seq: u64, view: &FragmentView) {
        let first = self.stripe_of(seq);
        let usage = self.stripes.entry(first).or_insert_with(|| StripeUsage {
            first_seq: first,
            ..StripeUsage::default()
        });
        usage.fragments_found += 1;
        usage.stored_bytes += view.header.encoded_len() as u64 + view.header.body_len as u64;
        let newest = |positions: &mut HashMap<ServiceId, LogPosition>, service, pos| {
            positions
                .entry(service)
                .and_modify(|p: &mut LogPosition| *p = (*p).max(pos))
                .or_insert(pos);
        };
        let mut deleted = Vec::new();
        for le in &view.entries {
            let pos = LogPosition {
                seq,
                offset: le.entry_offset,
            };
            match &le.entry {
                Entry::Block {
                    service, create, ..
                } => {
                    let addr = le.block_addr.expect("block entries carry addresses");
                    usage.payload_bytes += u64::from(addr.len);
                    usage.live_bytes += u64::from(addr.len);
                    usage.live_blocks.push(LiveBlock {
                        addr,
                        service: *service,
                        create: create.clone(),
                    });
                    self.homes.insert(addr, first);
                }
                Entry::Delete { addr, service } => {
                    newest(&mut usage.record_services, *service, pos);
                    deleted.push(*addr);
                }
                Entry::Record { service, .. } => {
                    newest(&mut usage.record_services, *service, pos);
                }
                Entry::Checkpoint { service, .. } => {
                    newest(&mut usage.checkpoints, *service, pos);
                }
            }
        }
        // A deletion follows its block in log order, so the block is
        // already in the table unless its stripe was reclaimed.
        for addr in deleted {
            let Some(home) = self.homes.remove(&addr) else {
                continue;
            };
            let usage = self
                .stripes
                .get_mut(&home)
                .expect("homes name kept stripes");
            usage.live_bytes -= u64::from(addr.len);
            usage.live_blocks.retain(|lb| lb.addr != addr);
        }
    }

    fn stripe_of(&self, seq: u64) -> u64 {
        seq / self.width as u64 * self.width as u64
    }

    /// Drops a reclaimed stripe, and its live blocks with it.
    pub fn remove(&mut self, first_seq: u64) -> Option<StripeUsage> {
        let usage = self.stripes.remove(&first_seq)?;
        for lb in &usage.live_blocks {
            self.homes.remove(&lb.addr);
        }
        Some(usage)
    }

    /// Is every member of `usage`'s stripe folded (none still to come)?
    pub fn complete(&self, usage: &StripeUsage) -> bool {
        usage.first_seq + self.width as u64 <= self.end_seq
    }

    /// The log's current write amplification: stored bytes over block
    /// payload bytes across the newest complete stripes in the table —
    /// what moving one byte of live data costs in new log. Infinite when
    /// those stripes carry no payload at all.
    pub fn write_amplification(&self) -> f64 {
        let (stored, payload) = self
            .stripes
            .values()
            .rev()
            .filter(|s| self.complete(s))
            .take(AMPLIFICATION_WINDOW)
            .fold((0u64, 0u64), |(stored, payload), s| {
                (stored + s.stored_bytes, payload + s.payload_bytes)
            });
        if payload == 0 {
            f64::INFINITY
        } else {
            stored as f64 / payload as f64
        }
    }

    /// Total bytes stored across folded stripes.
    pub fn stored_bytes(&self) -> u64 {
        self.stripes.values().map(|s| s.stored_bytes).sum()
    }

    /// Total live payload bytes.
    pub fn live_bytes(&self) -> u64 {
        self.stripes.values().map(|s| s.live_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use swarm_log::LogConfig;
    use swarm_net::MemTransport;
    use swarm_server::{MemStore, StorageServer};
    use swarm_types::{ClientId, ServerId};

    const SVC: ServiceId = ServiceId::new(1);

    fn make_log() -> Log {
        let transport = Arc::new(MemTransport::new());
        for i in 0..3 {
            let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
            transport.register(ServerId::new(i), srv);
        }
        let config = LogConfig::new(ClientId::new(1), (0..3).map(ServerId::new).collect())
            .unwrap()
            .fragment_size(2048);
        Log::create(transport, config).unwrap()
    }

    #[test]
    fn empty_log_scans_empty() {
        let log = make_log();
        let table = UsageTable::scan(&log, 0).unwrap();
        assert!(table.stripes.is_empty());
        assert_eq!(table.end_seq, 0);
    }

    #[test]
    fn live_and_dead_blocks_accounted() {
        let log = make_log();
        let a = log.append_block(SVC, b"a", &[1u8; 400]).unwrap();
        let b = log.append_block(SVC, b"b", &[2u8; 400]).unwrap();
        log.delete_block(SVC, a).unwrap();
        log.flush().unwrap();
        let table = UsageTable::scan(&log, 0).unwrap();
        assert_eq!(table.live_bytes(), 400, "only b is live");
        let live: Vec<&LiveBlock> = table
            .stripes
            .values()
            .flat_map(|s| s.live_blocks.iter())
            .collect();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].addr, b);
        assert_eq!(live[0].create, b"b");
    }

    #[test]
    fn deletes_in_later_stripes_kill_earlier_blocks() {
        let log = make_log();
        let a = log.append_block(SVC, b"a", &[1u8; 1500]).unwrap();
        // Push several stripes of data so the delete lands much later.
        for _ in 0..10 {
            log.append_block(SVC, b"", &[0u8; 1500]).unwrap();
        }
        log.delete_block(SVC, a).unwrap();
        log.flush().unwrap();
        let table = UsageTable::scan(&log, 0).unwrap();
        let first_stripe = table.stripes.values().next().unwrap();
        assert!(
            !first_stripe.live_blocks.iter().any(|lb| lb.addr == a),
            "a was deleted later in the log"
        );
    }

    #[test]
    fn records_and_checkpoints_tracked_per_stripe() {
        let log = make_log();
        log.append_record(SVC, 7, b"record").unwrap();
        log.checkpoint(SVC, b"ckpt").unwrap();
        let table = UsageTable::scan(&log, 0).unwrap();
        let with_records: Vec<&StripeUsage> = table
            .stripes
            .values()
            .filter(|s| !s.record_services.is_empty())
            .collect();
        assert_eq!(with_records.len(), 1);
        assert!(with_records[0].record_services.contains_key(&SVC));
        let with_ckpt: Vec<&StripeUsage> = table
            .stripes
            .values()
            .filter(|s| s.checkpoints.contains_key(&SVC))
            .collect();
        assert_eq!(with_ckpt.len(), 1);
    }

    #[test]
    fn a_fold_reads_only_what_was_sealed_since_the_last() {
        let log = make_log();
        let a = log.append_block(SVC, b"a", &[1u8; 1500]).unwrap();
        log.flush().unwrap();
        let mut table = UsageTable::scan(&log, 0).unwrap();
        let folded = table.end_seq;
        assert_eq!(table.live_bytes(), 1500);
        log.append_block(SVC, b"b", &[2u8; 1500]).unwrap();
        log.delete_block(SVC, a).unwrap();
        log.flush().unwrap();
        table.fold(&log).unwrap();
        assert!(table.end_seq > folded);
        assert_eq!(table.live_bytes(), 1500, "a died, b lives");
        let fresh = UsageTable::scan(&log, 0).unwrap();
        assert_eq!(table.stripes, fresh.stripes);
    }

    #[test]
    fn a_deletion_outlives_its_own_stripe() {
        let log = make_log();
        let a = log.append_block(SVC, b"a", &[1u8; 1500]).unwrap();
        log.flush().unwrap();
        let mut table = UsageTable::scan(&log, 0).unwrap();
        log.delete_block(SVC, a).unwrap();
        log.flush().unwrap();
        table.fold(&log).unwrap();
        // The stripe holding the deletion goes; a stays dead in the kept
        // table, while a fresh scan (which no longer sees the deletion)
        // counts it live again.
        let delete_stripe = table.stripes.keys().copied().find(|&s| s > 0).unwrap();
        table.remove(delete_stripe);
        for i in 0..table.width as u64 {
            let fid = swarm_types::FragmentId::new(log.client(), delete_stripe + i);
            log.delete_fragment(fid).unwrap();
        }
        assert_eq!(table.live_bytes(), 0);
        assert_eq!(UsageTable::scan(&log, 0).unwrap().live_bytes(), 1500);
    }

    #[test]
    fn a_stripe_pays_when_it_frees_more_than_it_moves() {
        let stripe = |stored, live| StripeUsage {
            stored_bytes: stored,
            live_bytes: live,
            ..StripeUsage::default()
        };
        // Fully dead: always, even when moving costs without bound.
        assert!(stripe(1000, 0).pays(f64::INFINITY));
        // Fully live: never, whatever the amplification.
        assert!(!stripe(1000, 1000).pays(0.0));
        assert!(!stripe(1000, 800).pays(1.25));
        // 1000 − 1.5 × 300 = 550 freed for 300 moved: pays.
        assert!(stripe(1000, 300).pays(1.5));
        // 1000 − 1.5 × 400 = 400 freed for 400 moved: does not.
        assert!(!stripe(1000, 400).pays(1.5));
    }

    #[test]
    fn write_amplification_is_stored_over_payload_of_the_newest_complete_stripes() {
        let mut table = UsageTable::new(3, 0);
        assert_eq!(table.write_amplification(), f64::INFINITY);
        for (i, (stored, payload)) in [(9000, 1000), (3000, 2000)]
            .into_iter()
            .chain(std::iter::repeat_n((2000, 1000), AMPLIFICATION_WINDOW))
            .enumerate()
        {
            let first_seq = 3 * i as u64;
            table.stripes.insert(
                first_seq,
                StripeUsage {
                    first_seq,
                    stored_bytes: stored,
                    payload_bytes: payload,
                    ..StripeUsage::default()
                },
            );
        }
        // The newest stripe is still open, and the oldest falls outside
        // the window of 16.
        table.end_seq = 3 * (table.stripes.len() as u64 - 1) + 2;
        let expected = (3000.0 + 15.0 * 2000.0) / (2000.0 + 15.0 * 1000.0);
        assert!((table.write_amplification() - expected).abs() < 1e-9);
    }

    #[test]
    fn utilization_is_live_over_stored() {
        let mut usage = StripeUsage {
            stored_bytes: 1000,
            live_bytes: 250,
            ..StripeUsage::default()
        };
        assert!((usage.utilization() - 0.25).abs() < 1e-9);
        usage.stored_bytes = 0;
        assert_eq!(usage.utilization(), 0.0);
    }
}
