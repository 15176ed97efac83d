//! Concurrency stress: 8 threads × 100 mixed store/read/delete operations
//! against one `FileStore` with group commit enabled. Readers must never
//! observe a torn fragment — every read is byte-exact for its FID or a
//! clean `FragmentNotFound`. Runs under the nightly TSan sweep as well.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use swarm_server::{Durability, FileStore, FragmentStore};
use swarm_types::{ClientId, FragmentId, SwarmError};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> Self {
        let n = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let path = std::env::temp_dir().join(format!("swarm-stress-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const THREADS: u64 = 8;
const OPS_PER_THREAD: u64 = 100;
const FRAG_LEN: u32 = 512;

/// Fragment content is a pure function of the FID, so any torn or
/// cross-wired read is detectable from the bytes alone.
fn content(fid: FragmentId) -> Vec<u8> {
    let raw = fid.raw();
    (0..FRAG_LEN as u64)
        .map(|j| (raw.wrapping_mul(0x9e37_79b9).wrapping_add(j * 131)) as u8)
        .collect()
}

fn fid(owner: u64, seq: u64) -> FragmentId {
    FragmentId::new(ClientId::new(owner as u32), seq)
}

#[test]
fn eight_threads_mixed_ops_no_torn_reads() {
    let dir = TempDir::new();
    let store =
        FileStore::open_with_durability(&dir.0, 0, Durability::Group(Duration::from_millis(1)))
            .unwrap();
    let acked = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let store = &store;
            let acked = &acked;
            s.spawn(move || {
                // Each thread owns FIDs under its own ClientId and also
                // reads other threads' namespaces to catch cross-talk.
                for i in 0..OPS_PER_THREAD {
                    let mine = fid(t + 1, i);
                    match i % 5 {
                        // Mostly stores...
                        0..=2 => {
                            store
                                .store(mine, content(mine).into(), i % 2 == 0)
                                .unwrap_or_else(|e| panic!("thread {t} op {i}: store: {e}"));
                            acked.fetch_add(1, Ordering::Relaxed);
                        }
                        // ...a delete of an earlier own fragment...
                        3 => {
                            let target = fid(t + 1, i.saturating_sub(3));
                            match store.delete(target) {
                                Ok(()) => {
                                    acked.fetch_sub(1, Ordering::Relaxed);
                                }
                                Err(SwarmError::FragmentNotFound(_)) => {}
                                Err(e) => panic!("thread {t} op {i}: delete: {e}"),
                            }
                        }
                        // ...and a racing read of a neighbour's fragment.
                        _ => {
                            let theirs = fid((t + 1) % THREADS + 1, i);
                            match store.read(theirs, 0, FRAG_LEN) {
                                Ok(data) => assert_eq!(
                                    data.as_ref(),
                                    content(theirs),
                                    "thread {t} op {i}: torn read of {theirs:?}"
                                ),
                                Err(SwarmError::FragmentNotFound(_)) => {}
                                Err(e) => panic!("thread {t} op {i}: read: {e}"),
                            }
                        }
                    }
                }
            });
        }
    });

    // Every fragment the threads left behind is byte-exact.
    let live = store.list();
    assert_eq!(live.len() as u64, acked.load(Ordering::Relaxed));
    for f in &live {
        assert_eq!(
            store.read(*f, 0, FRAG_LEN).unwrap().as_ref(),
            content(*f),
            "fragment {f:?} corrupt after stress"
        );
    }

    // And the whole history replays: a reopen sees the identical set.
    drop(store);
    let reopened = FileStore::open_with_durability(&dir.0, 0, Durability::Strict).unwrap();
    let mut before: Vec<u64> = live.iter().map(|f| f.raw()).collect();
    let mut after: Vec<u64> = reopened.list().iter().map(|f| f.raw()).collect();
    before.sort_unstable();
    after.sort_unstable();
    assert_eq!(before, after, "reopen lost or resurrected fragments");
    for f in reopened.list() {
        assert_eq!(reopened.read(f, 0, FRAG_LEN).unwrap().as_ref(), content(f));
    }
}
