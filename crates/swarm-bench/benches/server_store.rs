//! Server store-path concurrency benchmark: the sharded `FileStore`
//! (fragment I/O outside any global lock) against a serialized baseline
//! that emulates the old architecture — every store funneled through one
//! global mutex. Rows at 8 threads:
//!
//! * `serial_global_lock` — sharded store, but callers hold a global
//!   `Mutex<()>` across the whole store (the pre-sharding behaviour);
//! * `sharded_strict` — concurrent stores, the commit leader never waits;
//! * `sharded_group` — concurrent stores, the leader waits (≤ 2 ms) for
//!   stores still writing their data;
//! * `sharded_group_5ms` — the same under the benchmark's 5 ms window.
//!
//! Each row prints its stores per journal batch; the `group` rows' must
//! not fall.
//!
//! And one row at one thread, `lone_group_5ms`: a writer with no company
//! pays its two fsyncs and none of the window (it used to sleep all of
//! it).
//!
//! The acceptance bar is `sharded_strict ≥ 2× serial_global_lock` at
//! 8 threads.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use parking_lot::Mutex;
use swarm_server::{Durability, FileStore, FragmentStore};
use swarm_types::{ClientId, FragmentId};

const THREADS: u64 = 8;
const STORES_PER_THREAD: u64 = 8;
const FRAG_LEN: usize = 8 << 10;

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let n = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let path =
            std::env::temp_dir().join(format!("swarm-bench-store-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One benchmark iteration: `threads` threads each store
/// `STORES_PER_THREAD` fresh 8 KiB fragments. `gate` is `Some` for the
/// serialized baseline — held across each store call to emulate the old
/// single-lock write path.
fn concurrent_stores(store: &FileStore, seq: &AtomicU64, gate: Option<&Mutex<()>>, threads: u64) {
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(move || {
                for _ in 0..STORES_PER_THREAD {
                    let n = seq.fetch_add(1, Ordering::Relaxed);
                    let fid = FragmentId::new(ClientId::new(7), n);
                    let data = vec![n as u8; FRAG_LEN];
                    let _held = gate.map(|g| g.lock());
                    store.store(fid, data.into(), false).unwrap();
                }
            });
        }
    });
}

fn bench_store_path(c: &mut Criterion) {
    let bytes_per_iter = THREADS * STORES_PER_THREAD * FRAG_LEN as u64;
    let mut group = c.benchmark_group("server_store_8t");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(bytes_per_iter));

    let group_5ms = Durability::Group(Duration::from_millis(5));
    let cases: [(&str, Durability, bool); 4] = [
        ("serial_global_lock", Durability::Strict, true),
        ("sharded_strict", Durability::Strict, false),
        (
            "sharded_group",
            Durability::Group(Duration::from_millis(2)),
            false,
        ),
        ("sharded_group_5ms", group_5ms, false),
    ];
    for (name, durability, serialize) in cases {
        let dir = TempDir::new();
        let store = FileStore::open_with_durability(&dir.0, 0, durability).unwrap();
        let seq = AtomicU64::new(0);
        let gate = Mutex::new(());
        group.bench_function(name, |b| {
            b.iter(|| concurrent_stores(&store, &seq, serialize.then_some(&gate), THREADS));
        });
        let (stores, batches) = (seq.load(Ordering::Relaxed), store.journal_batches());
        println!(
            "{name}: {stores} stores in {batches} journal batches = {:.2} stores per batch",
            stores as f64 / batches as f64
        );
    }
    group.finish();

    let mut lone = c.benchmark_group("server_store_1t");
    lone.sample_size(10);
    lone.throughput(Throughput::Bytes(STORES_PER_THREAD * FRAG_LEN as u64));
    let dir = TempDir::new();
    let store = FileStore::open_with_durability(&dir.0, 0, group_5ms).unwrap();
    let seq = AtomicU64::new(0);
    lone.bench_function("lone_group_5ms", |b| {
        b.iter(|| concurrent_stores(&store, &seq, None, 1));
    });
    lone.finish();
}

criterion_group!(benches, bench_store_path);
criterion_main!(benches);
