//! Group commit accounting: N concurrent stores must complete with fewer
//! journal fsyncs than stores (batching actually happened), and the
//! `server.journal_fsync` / `server.journal_batch` metrics must agree
//! with the store's own instance counters. And the rule for how long a
//! batch stays open: a commit leader waits for stores that are writing
//! their data, so one with no such company does not wait at all.
//!
//! Kept in its own integration binary so the global metrics registry is
//! not perturbed by unrelated tests running in the same process; the
//! tests here take [`SERIAL`] so they do not perturb each other either.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use swarm_server::{CrashPoint, Durability, FileStore, FragmentStore};
use swarm_types::{ClientId, FragmentId};

/// Every test reads deltas of process-global `server.journal_*` metrics.
static SERIAL: Mutex<()> = Mutex::new(());

/// A window no test could mistake for noise: a batch that waits it out
/// when it should not hangs for ten seconds instead of flaking.
const LONG_WINDOW: Durability = Durability::Group(Duration::from_secs(10));
const PROMPT: Duration = Duration::from_secs(1);

fn fid(seq: u64) -> FragmentId {
    FragmentId::new(ClientId::new(9), seq)
}

/// `(count, sum_us)` of `server.journal_gather_us` so far.
fn gathers() -> (u64, u64) {
    swarm_metrics::snapshot()
        .histogram("server.journal_gather_us")
        .map_or((0, 0), |h| (h.count, h.sum_us))
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> Self {
        let n = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let path = std::env::temp_dir().join(format!("swarm-gc-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn group_commit_issues_at_most_one_fsync_per_batch() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let threads: u64 = 16;
    let per: u64 = 4;
    let stores = threads * per;

    let dir = TempDir::new();
    let store =
        FileStore::open_with_durability(&dir.0, 0, Durability::Group(Duration::from_millis(5)))
            .unwrap();

    let before = swarm_metrics::snapshot();
    let fsyncs_before = before.counter("server.journal_fsync");
    let batches_before = before
        .histogram("server.journal_batch")
        .map(|h| (h.count, h.sum_us))
        .unwrap_or((0, 0));

    let barrier = Barrier::new(threads as usize);
    let next = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let store = &store;
            let barrier = &barrier;
            let next = &next;
            s.spawn(move || {
                barrier.wait();
                for _ in 0..per {
                    let seq = next.fetch_add(1, Ordering::Relaxed);
                    let fid = FragmentId::new(ClientId::new(9), seq);
                    store
                        .store(fid, vec![seq as u8; 256].into(), false)
                        .unwrap();
                }
            });
        }
    });

    // Batching happened: strictly fewer fsyncs than acked stores. The
    // barrier makes all 16 threads contend, so in practice the ratio is
    // far below 1; the assertion only pins the contract.
    let fsyncs = store.journal_fsyncs();
    let batches = store.journal_batches();
    assert!(
        fsyncs < stores,
        "no batching: {fsyncs} fsyncs for {stores} stores"
    );
    assert_eq!(
        fsyncs, batches,
        "every journal fsync must correspond to exactly one batch"
    );
    // Company in its data phase is waited for: the threads leave the
    // barrier together, so no batch should be a lone store's.
    assert!(
        batches <= stores / 2,
        "{batches} batches for {stores} stores"
    );

    // The global metrics agree with the instance counters: one
    // `server.journal_fsync` tick and one `server.journal_batch` sample
    // per batch, and the batch sizes sum to the number of stores.
    let after = swarm_metrics::snapshot();
    assert_eq!(
        after.counter("server.journal_fsync") - fsyncs_before,
        fsyncs,
        "global fsync counter diverged from instance counter"
    );
    let hist = after
        .histogram("server.journal_batch")
        .expect("batch histogram must exist after stores");
    assert_eq!(
        hist.count - batches_before.0,
        batches,
        "batch histogram count diverged"
    );
    assert_eq!(
        hist.sum_us - batches_before.1,
        stores,
        "batch sizes must sum to the number of acked stores"
    );

    // Nothing was lost to batching: all fragments durable after reopen.
    drop(store);
    let reopened = FileStore::open_with_durability(&dir.0, 0, Durability::Strict).unwrap();
    assert_eq!(reopened.fragment_count(), stores);
}

/// A store or a delete with nobody else on the way commits at once,
/// whatever the window, and its batch records a gather of (about) zero.
#[test]
fn lone_operations_do_not_wait_out_the_window() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new();
    let store = FileStore::open_with_durability(&dir.0, 0, LONG_WINDOW).unwrap();
    let expired = || swarm_metrics::snapshot().counter("server.journal_window_expired");
    let (gathers_before, expired_before) = (gathers(), expired());

    let start = Instant::now();
    store.store(fid(0), vec![1; 256].into(), false).unwrap();
    let stored = start.elapsed();
    store.delete(fid(0)).unwrap();
    let deleted = start.elapsed() - stored;
    assert!(stored < PROMPT, "a lone store took {stored:?}");
    assert!(deleted < PROMPT, "a lone delete took {deleted:?}");

    let (count, sum_us) = gathers();
    assert_eq!(count - gathers_before.0, 2, "one gather per synced batch");
    assert!(
        Duration::from_micros(sum_us - gathers_before.1) < PROMPT,
        "the leaders waited {} us for nobody",
        sum_us - gathers_before.1
    );
    assert_eq!(expired(), expired_before, "no window ran out");
    assert_eq!(store.journal_batches(), 2);
}

/// A store that dies between its claim and its journal append — at any
/// crash point, or on a real I/O error — takes itself out of the count of
/// stores on their way: the next lone store still commits at once.
#[test]
fn failed_store_is_not_waited_for() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = TempDir::new();
    let store = FileStore::open_with_durability(&dir.0, 0, LONG_WINDOW).unwrap();
    let mut seq = 0;
    let mut next_lone_store_is_prompt = |after: &str| {
        seq += 1;
        let start = Instant::now();
        store.store(fid(seq), vec![2; 256].into(), false).unwrap();
        let took = start.elapsed();
        assert!(took < PROMPT, "after {after}: a lone store took {took:?}");
    };

    for point in CrashPoint::ALL {
        store.inject_crash(point);
        store
            .store(fid(1000), vec![3; 256].into(), false)
            .unwrap_err();
        next_lone_store_is_prompt(&format!("a crash at {point:?}"));
    }

    // `tmp/` is not a directory: the data phase fails in `File::create`.
    let tmp = dir.0.join("tmp");
    std::fs::remove_dir_all(&tmp).unwrap();
    std::fs::write(&tmp, b"").unwrap();
    let err = store
        .store(fid(1001), vec![4; 256].into(), false)
        .unwrap_err();
    assert!(matches!(err, swarm_types::SwarmError::Io(_)), "{err}");
    std::fs::remove_file(&tmp).unwrap();
    std::fs::create_dir(&tmp).unwrap();
    next_lone_store_is_prompt("an I/O error");
}
