//! The kept usage table against a model of the log's live set.
//!
//! Random interleavings of appends, deletes, records, checkpoints,
//! flushes and cleaning passes — some of which fail mid-way — run against
//! one [`Cleaner`]. After every step the kept table, folded to the log's
//! head, must hold exactly the live blocks a model predicts, and must agree
//! with a fresh [`UsageTable::scan`] on everything a scan can know.
//!
//! The model is the log's own view: every block appended (the cleaner's
//! copies included), minus those a folded deletion record killed, minus
//! those in reclaimed stripes. A scan cannot see deletion records whose
//! stripe was reclaimed, so it counts those blocks live again; the model
//! predicts that set too, and a table rebuilt after a failed pass (which is
//! a scan) adopts it.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;
use swarm_log::{Log, LogConfig, LogPosition, ReplayEntry};
use swarm_net::MemTransport;
use swarm_server::{FragmentStore, MemStore, StorageServer};
use swarm_services::{Service, ServiceStack};
use swarm_types::{BlockAddr, ClientId, Result, ServerId, ServiceId, SwarmError};

use crate::{CleanPolicy, Cleaner, UsageTable};

const SVC: ServiceId = ServiceId::new(1);

/// Owns every block the test writes; records every move it is told of.
#[derive(Default)]
struct Owner {
    blocks: HashMap<Vec<u8>, BlockAddr>,
    /// New addresses of every copy the cleaner appended.
    copies: Vec<BlockAddr>,
    /// Fail the next move notification (after the copy is appended).
    fail_moves: bool,
}

impl Service for Owner {
    fn id(&self) -> ServiceId {
        SVC
    }
    fn name(&self) -> &str {
        "owner"
    }
    fn restore_checkpoint(&mut self, _data: &[u8]) -> Result<()> {
        Ok(())
    }
    fn replay(&mut self, _entry: &ReplayEntry) -> Result<()> {
        Ok(())
    }
    fn block_moved(&mut self, old: BlockAddr, new: BlockAddr, create: &[u8]) -> Result<()> {
        self.copies.push(new);
        if self.fail_moves {
            return Err(SwarmError::invalid("injected move failure"));
        }
        // A move of a block the owner no longer holds at `old` is stale:
        // ignored, as the real services do.
        if let Some(addr) = self.blocks.get_mut(create).filter(|a| **a == old) {
            *addr = new;
        }
        Ok(())
    }
    fn write_checkpoint(&mut self, log: &Log) -> Result<()> {
        log.checkpoint(SVC, b"owner")?;
        Ok(())
    }
}

/// What the test knows happened to the log.
#[derive(Default)]
struct Model {
    appended: BTreeSet<BlockAddr>,
    deletes: Vec<(LogPosition, BlockAddr)>,
    /// First sequences of reclaimed stripes.
    reclaimed: BTreeSet<u64>,
    /// Deleted blocks a rebuilt table counts live again.
    resurrected: BTreeSet<BlockAddr>,
}

impl Model {
    fn stripe(seq: u64, width: u64) -> u64 {
        seq / width * width
    }

    fn present(&self, addr: &BlockAddr, end_seq: u64, width: u64) -> bool {
        addr.fid.seq() < end_seq
            && !self
                .reclaimed
                .contains(&Self::stripe(addr.fid.seq(), width))
    }

    /// Live blocks as a table kept since sequence 0 sees them at `end_seq`.
    fn kept_live(&self, end_seq: u64, width: u64) -> BTreeSet<BlockAddr> {
        let deleted: BTreeSet<BlockAddr> = self
            .deletes
            .iter()
            .filter(|(pos, _)| pos.seq < end_seq)
            .map(|(_, addr)| *addr)
            .collect();
        self.appended
            .iter()
            .filter(|a| self.present(a, end_seq, width))
            .filter(|a| !deleted.contains(a) || self.resurrected.contains(a))
            .copied()
            .collect()
    }

    /// Live blocks as a scan from sequence 0 sees them at `end_seq`: a
    /// deletion counts only while its own stripe exists.
    fn scanned_live(&self, end_seq: u64, width: u64) -> BTreeSet<BlockAddr> {
        let deleted: BTreeSet<BlockAddr> = self
            .deletes
            .iter()
            .filter(|(pos, _)| pos.seq < end_seq)
            .filter(|(pos, _)| !self.reclaimed.contains(&Self::stripe(pos.seq, width)))
            .map(|(_, addr)| *addr)
            .collect();
        self.appended
            .iter()
            .filter(|a| self.present(a, end_seq, width))
            .filter(|a| !deleted.contains(a))
            .copied()
            .collect()
    }

    /// Has a stripe holding a deletion record been reclaimed?
    fn deletes_reclaimed(&self, width: u64) -> bool {
        self.deletes
            .iter()
            .any(|(pos, _)| self.reclaimed.contains(&Self::stripe(pos.seq, width)))
    }
}

fn live_set(table: &UsageTable) -> BTreeSet<BlockAddr> {
    table
        .stripes
        .values()
        .flat_map(|s| s.live_blocks.iter().map(|lb| lb.addr))
        .collect()
}

struct Rig {
    log: Arc<Log>,
    owner: Arc<Mutex<Owner>>,
    cleaner: Cleaner,
    servers: Vec<Arc<StorageServer<MemStore>>>,
    model: Model,
    width: u64,
    next_tag: u32,
}

impl Rig {
    fn new(policy: CleanPolicy) -> Rig {
        let transport = Arc::new(MemTransport::new());
        let servers: Vec<_> = (0..3)
            .map(|i| {
                let srv = StorageServer::new(ServerId::new(i), MemStore::new()).into_shared();
                transport.register(ServerId::new(i), srv.clone());
                srv
            })
            .collect();
        let config = LogConfig::new(ClientId::new(1), (0..3).map(ServerId::new).collect())
            .unwrap()
            .fragment_size(2048)
            .cache_fragments(0);
        let log = Arc::new(Log::create(transport, config).unwrap());
        let owner = Arc::new(Mutex::new(Owner::default()));
        let mut stack = ServiceStack::new();
        let owner_dyn: Arc<Mutex<dyn Service>> = owner.clone();
        stack.register(owner_dyn).unwrap();
        let cleaner = Cleaner::new(log.clone(), Arc::new(stack), policy);
        let width = log.group().width() as u64;
        Rig {
            log,
            owner,
            cleaner,
            servers,
            model: Model::default(),
            width,
            next_tag: 0,
        }
    }

    fn append(&mut self, len: usize) {
        let tag = self.next_tag.to_le_bytes().to_vec();
        self.next_tag += 1;
        let addr = self
            .log
            .append_block(SVC, &tag, &vec![tag[0]; len])
            .unwrap();
        self.owner.lock().blocks.insert(tag, addr);
        self.model.appended.insert(addr);
    }

    fn delete(&mut self, pick: usize) {
        let victim = {
            let owner = self.owner.lock();
            let mut tags: Vec<&Vec<u8>> = owner.blocks.keys().collect();
            tags.sort();
            tags.get(pick % tags.len().max(1)).map(|t| (*t).clone())
        };
        let Some(tag) = victim else { return };
        let addr = self.owner.lock().blocks.remove(&tag).unwrap();
        let pos = self.log.delete_block(SVC, addr).unwrap();
        self.model.deletes.push((pos, addr));
    }

    fn pass(&mut self, max_stripes: usize, fail: bool) {
        if self.cleaner.kept_table().is_none() {
            // This pass rebuilds the table by a scan, which cannot see the
            // deletions whose stripes are gone.
            let end_seq = self.log.next_seq();
            let kept = self.model.kept_live(end_seq, self.width);
            let scanned = self.model.scanned_live(end_seq, self.width);
            self.model.resurrected.extend(scanned.difference(&kept));
        }
        self.owner.lock().fail_moves = fail;
        let result = self.cleaner.clean_pass(max_stripes);
        let copies = std::mem::take(&mut self.owner.lock().copies);
        self.owner.lock().fail_moves = false;
        self.model.appended.extend(copies);
        match result {
            Ok(_) => assert!(self.cleaner.kept_table().is_some()),
            Err(e) => {
                assert!(fail, "unexpected pass failure: {e}");
                assert!(
                    self.cleaner.kept_table().is_none(),
                    "a failed pass keeps no table"
                );
            }
        }
        // The cleaner only reclaims below the anchor, where every store
        // has landed: a stripe there with no member on any server is gone.
        let anchor = self.log.anchor_seq().unwrap_or(0);
        let present: BTreeSet<u64> = self
            .servers
            .iter()
            .flat_map(|s| s.store().list())
            .map(|fid| Model::stripe(fid.seq(), self.width))
            .collect();
        self.model.reclaimed.extend(
            (0..anchor)
                .step_by(self.width as usize)
                .filter(|first| first + self.width <= anchor && !present.contains(first)),
        );
    }

    /// Folds the kept table to the head and checks it against the model
    /// and a fresh scan.
    fn check(&mut self, step: usize) {
        let mut kept = self.cleaner.kept_table();
        let Some(table) = kept.as_mut() else {
            return; // rebuilt by the next pass
        };
        table.fold(&self.log).unwrap();
        let end_seq = table.end_seq;
        let scan = UsageTable::scan(&self.log, 0).unwrap();
        assert_eq!(
            scan.end_seq, end_seq,
            "step {step}: head moved under the check"
        );
        let kept_live = live_set(table);
        assert_eq!(
            kept_live,
            self.model.kept_live(end_seq, self.width),
            "step {step}: kept table vs model"
        );
        assert_eq!(
            live_set(&scan),
            self.model.scanned_live(end_seq, self.width),
            "step {step}: scan vs model"
        );
        if !self.model.deletes_reclaimed(self.width) {
            assert_eq!(
                kept_live,
                live_set(&scan),
                "step {step}: kept table vs scan"
            );
        }
        // Everything but liveness is the same fold over the same bytes.
        let shape = |t: &UsageTable| -> Vec<_> {
            t.stripes
                .values()
                .map(|s| {
                    let live: u64 = s.live_blocks.iter().map(|lb| u64::from(lb.addr.len)).sum();
                    assert_eq!(live, s.live_bytes, "live bytes match live blocks");
                    (
                        s.first_seq,
                        s.fragments_found,
                        s.stored_bytes,
                        s.payload_bytes,
                        s.record_services.clone(),
                        s.checkpoints.clone(),
                    )
                })
                .collect()
        };
        assert_eq!(shape(table), shape(&scan), "step {step}: stripe accounting");
        for first in &self.model.reclaimed {
            assert!(
                !table.stripes.contains_key(first),
                "step {step}: stripe {first} was reclaimed"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn kept_table_tracks_the_live_set(
        ops in prop::collection::vec((0u8..16, 0usize..64, 50usize..1700), 20..70),
        greedy in any::<bool>(),
    ) {
        let policy = if greedy { CleanPolicy::Greedy } else { CleanPolicy::CostBenefit };
        let mut rig = Rig::new(policy);
        for (step, &(op, pick, len)) in ops.iter().enumerate() {
            match op {
                0..=5 => rig.append(len),
                6..=8 => rig.delete(pick),
                9 => {
                    rig.log.append_record(SVC, 1, b"record").unwrap();
                }
                10 => {
                    rig.log.checkpoint(SVC, b"owner").unwrap();
                }
                11 => rig.log.flush().unwrap(),
                12..=14 => rig.pass(1 + pick % 4, false),
                _ => rig.pass(1 + pick % 4, true),
            }
            rig.check(step);
        }
        // Drain: everything deleted, checkpointed and cleaned until no
        // pass finds work; the table still matches.
        while !rig.owner.lock().blocks.is_empty() {
            rig.delete(0);
        }
        rig.log.checkpoint(SVC, b"owner").unwrap();
        for step in ops.len()..ops.len() + 8 {
            rig.pass(8, false);
            rig.check(step);
        }
    }
}
