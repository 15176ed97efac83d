//! Property tests for the durable store: after any sequence of
//! store/delete/preallocate operations and a reopen (clean or after a
//! simulated torn journal), the store matches a reference model.

use proptest::prelude::*;
use swarm_server::{Durability, FileStore, FragmentStore};
use swarm_types::{ClientId, FragmentId};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> Self {
        let n = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let path = std::env::temp_dir().join(format!("swarm-fsprop-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[derive(Debug, Clone)]
enum StoreOp {
    Store { seq: u8, marked: bool, len: u16 },
    Delete { seq: u8 },
    Preallocate { seq: u8 },
}

fn op_strategy() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        4 => (0u8..20, any::<bool>(), 1u16..2000)
            .prop_map(|(seq, marked, len)| StoreOp::Store { seq, marked, len }),
        2 => (0u8..20).prop_map(|seq| StoreOp::Delete { seq }),
        1 => (0u8..20).prop_map(|seq| StoreOp::Preallocate { seq }),
    ]
}

fn fid(seq: u8) -> FragmentId {
    FragmentId::new(ClientId::new(1), seq as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_reopen_matches_model(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        truncate_tail in 0usize..8,
    ) {
        let dir = TempDir::new();
        // Model: seq → (contents, marked)
        let mut model: std::collections::BTreeMap<u8, (Vec<u8>, bool)> = Default::default();
        {
            let store = FileStore::open_with_durability(&dir.0, 0, Durability::None).unwrap();
            for op in &ops {
                match op {
                    StoreOp::Store { seq, marked, len } => {
                        let data = vec![*seq; *len as usize];
                        match store.store(fid(*seq), data.clone().into(), *marked) {
                            Ok(()) => {
                                model.insert(*seq, (data, *marked));
                            }
                            Err(_) => {
                                // Duplicate store: model unchanged.
                                prop_assert!(model.contains_key(seq));
                            }
                        }
                    }
                    StoreOp::Delete { seq } => {
                        let deleted = store.delete(fid(*seq)).is_ok();
                        prop_assert_eq!(deleted, model.remove(seq).is_some());
                    }
                    StoreOp::Preallocate { seq } => {
                        store.preallocate(fid(*seq), 100).unwrap();
                    }
                }
            }
        }
        // Simulated crash damage: chop a few bytes off the journal tail
        // (a torn final record at worst — never data loss beyond it,
        // because this store was opened non-durable and fully closed, the
        // journal is complete; tearing it can only lose *suffix* entries).
        if truncate_tail > 0 {
            let journal = dir.0.join("journal");
            let len = std::fs::metadata(&journal).unwrap().len();
            let keep = len.saturating_sub(truncate_tail as u64);
            // Replay the same ops against a fresh model, stopping where
            // the journal would stop — hard to predict exactly, so for the
            // torn case we only verify invariants, not exact equality.
            let f = std::fs::OpenOptions::new().write(true).open(&journal).unwrap();
            f.set_len(keep).unwrap();
            drop(f);
            // NOTE: artificial truncation can produce states a real crash
            // cannot (a delete's unlink persisted but its journal entry
            // "lost" — the store journals deletes *before* unlinking, so
            // in reality the entry always survives the file). The store
            // rightly reports Corrupt for such impossible states; accept
            // that outcome, verify invariants otherwise.
            let store = match FileStore::open_with_durability(&dir.0, 0, Durability::None) {
                Ok(s) => s,
                Err(swarm_types::SwarmError::Corrupt(_)) => return Ok(()),
                Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
            };
            // Invariants: every listed fragment reads back fully and
            // matches its stored length; no panic, no corruption error.
            for fid in store.list() {
                let meta = store.meta(fid).unwrap();
                let data = store.read(fid, 0, meta.len).unwrap();
                prop_assert_eq!(data.len() as u32, meta.len);
                // Contents are the constant byte pattern we wrote.
                let seq = fid.seq() as u8;
                prop_assert!(data.iter().all(|&b| b == seq));
            }
            return Ok(());
        }
        // Clean reopen: exact model equality.
        let store = FileStore::open_with_durability(&dir.0, 0, Durability::None).unwrap();
        let listed: Vec<u8> = store.list().iter().map(|f| f.seq() as u8).collect();
        let expect: Vec<u8> = model.keys().copied().collect();
        prop_assert_eq!(listed, expect);
        for (seq, (data, marked)) in &model {
            let meta = store.meta(fid(*seq)).unwrap();
            prop_assert_eq!(meta.len as usize, data.len());
            prop_assert_eq!(meta.marked, *marked);
            prop_assert_eq!(&store.read(fid(*seq), 0, meta.len).unwrap(), data);
        }
        // Marked index agrees with the model.
        let newest_marked = model
            .iter()
            .filter(|(_, (_, m))| *m)
            .map(|(s, _)| *s)
            .max();
        prop_assert_eq!(
            store.last_marked(ClientId::new(1)).map(|f| f.seq() as u8),
            newest_marked
        );
    }
}
