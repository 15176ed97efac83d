//! Crash-point matrix for the durable store (§2.3.1: "all storage server
//! operations are atomic").
//!
//! Every [`CrashPoint`] — tmp write, tmp fsync, rename, journal append,
//! journal fsync — gets the same treatment, in both `strict` and `group`
//! durability: commit a baseline fragment, arm the crash, attempt a second
//! store (which "crashes" mid-step, leaving the disk exactly as a power
//! cut would), then reopen the directory and assert the contract:
//!
//! * the crashed fragment is fully present or fully absent — never torn;
//! * the baseline fragment is untouched;
//! * no `tmp/` entry survives recovery;
//! * replay is idempotent — a second reopen reproduces the same state;
//! * an absent fragment's FID is immediately re-storable.

use std::path::PathBuf;
use std::time::Duration;

use swarm_server::{CrashPoint, Durability, FileStore, FragmentStore};
use swarm_types::{ClientId, FragmentId};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let n = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let path =
            std::env::temp_dir().join(format!("swarm-crash-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fid(seq: u64) -> FragmentId {
    FragmentId::new(ClientId::new(1), seq)
}

const BASELINE: &[u8] = b"committed before the crash";
const VICTIM: &[u8] = b"the fragment the crash interrupts";

fn tmp_entries(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir.join("tmp"))
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default()
}

/// Snapshot of externally observable store state, for the idempotent-
/// replay check: two reopens of the same directory must agree exactly.
fn snapshot(store: &FileStore) -> Vec<(u64, u32, Vec<u8>)> {
    store
        .list()
        .into_iter()
        .map(|f| {
            let meta = store.meta(f).unwrap();
            let data = store.read(f, 0, meta.len).unwrap();
            (f.raw(), meta.len, data.to_vec())
        })
        .collect()
}

fn run_crash_point(point: CrashPoint, durability: Durability) {
    let tag = format!("{point:?}-{durability}")
        .to_lowercase()
        .replace(':', "-");
    let dir = TempDir::new(&tag);

    // Baseline commit, then arm the crash and let a second store hit it.
    {
        let store = FileStore::open_with_durability(&dir.0, 0, durability).unwrap();
        store.store(fid(0), BASELINE.into(), false).unwrap();
        store.inject_crash(point);
        let err = store.store(fid(1), VICTIM.into(), true).unwrap_err();
        assert!(
            err.to_string().contains("injected crash"),
            "{point:?}/{durability}: wrong error: {err}"
        );
        // The crashed process does no cleanup: drop as-is.
    }

    // Power back on: recovery must restore the atomicity contract.
    let store = FileStore::open_with_durability(&dir.0, 0, durability).unwrap();
    assert_eq!(
        store.read(fid(0), 0, BASELINE.len() as u32).unwrap(),
        BASELINE,
        "{point:?}/{durability}: baseline fragment damaged"
    );
    assert!(
        tmp_entries(&dir.0).is_empty(),
        "{point:?}/{durability}: tmp/ entries survived recovery: {:?}",
        tmp_entries(&dir.0)
    );

    match store.meta(fid(1)) {
        // Fully present: only possible when the journal record was
        // completely written (the crash hit the fsync, not the append).
        Some(meta) => {
            assert_eq!(
                point,
                CrashPoint::JournalSync,
                "{point:?}/{durability}: fragment present after a pre-journal crash"
            );
            assert_eq!(meta.len as usize, VICTIM.len());
            assert!(meta.marked);
            assert_eq!(
                store.read(fid(1), 0, VICTIM.len() as u32).unwrap(),
                VICTIM,
                "{point:?}/{durability}: surviving fragment is torn"
            );
        }
        // Fully absent: the FID must be immediately re-storable.
        None => {
            assert!(store.read(fid(1), 0, 1).is_err());
            store.store(fid(1), VICTIM.into(), false).unwrap();
            assert_eq!(store.read(fid(1), 0, VICTIM.len() as u32).unwrap(), VICTIM);
            store.delete(fid(1)).unwrap();
        }
    }

    // Idempotent replay: reopening again reproduces the exact state.
    let first = snapshot(&store);
    drop(store);
    let store = FileStore::open_with_durability(&dir.0, 0, durability).unwrap();
    assert_eq!(
        snapshot(&store),
        first,
        "{point:?}/{durability}: second reopen diverged"
    );
}

#[test]
fn crash_matrix_strict() {
    for point in CrashPoint::ALL {
        run_crash_point(point, Durability::Strict);
    }
}

#[test]
fn crash_matrix_group_commit() {
    for point in CrashPoint::ALL {
        run_crash_point(point, Durability::Group(Duration::from_millis(1)));
    }
}

/// A crash mid-journal-append leaves a torn record at the tail; recovery
/// must both drop it *and* keep the journal appendable — fragments stored
/// after recovery survive further reopens.
#[test]
fn journal_append_crash_then_store_then_reopen() {
    let dir = TempDir::new("append-tail");
    {
        let store = FileStore::open_with_durability(&dir.0, 0, Durability::Strict).unwrap();
        store.store(fid(0), BASELINE.into(), false).unwrap();
        store.inject_crash(CrashPoint::JournalAppend);
        store.store(fid(1), VICTIM.into(), false).unwrap_err();
    }
    {
        let store = FileStore::open_with_durability(&dir.0, 0, Durability::Strict).unwrap();
        assert!(store.meta(fid(1)).is_none());
        store.store(fid(2), b"post-recovery".into(), false).unwrap();
    }
    let store = FileStore::open_with_durability(&dir.0, 0, Durability::Strict).unwrap();
    assert_eq!(store.fragment_count(), 2);
    assert_eq!(store.read(fid(2), 0, 13).unwrap(), b"post-recovery");
}

/// A crash-and-recover cycle at every point in sequence, on one
/// directory: each recovery must preserve every fragment committed in
/// every earlier generation (damage must not accumulate across crashes).
#[test]
fn repeated_crashes_accumulate_no_damage() {
    let dir = TempDir::new("repeat");
    for (i, point) in CrashPoint::ALL.into_iter().enumerate() {
        let store = FileStore::open_with_durability(&dir.0, 0, Durability::Strict).unwrap();
        // Everything committed by earlier generations survived.
        for j in 0..i as u64 {
            let want = format!("keep-{j}").into_bytes();
            assert_eq!(
                store.read(fid(100 + j), 0, want.len() as u32).unwrap(),
                want,
                "{point:?}: generation {j} lost after {i} crashes"
            );
        }
        store
            .store(
                fid(100 + i as u64),
                format!("keep-{i}").into_bytes().into(),
                false,
            )
            .unwrap();
        store.inject_crash(point);
        store
            .store(fid(200 + i as u64), VICTIM.into(), false)
            .unwrap_err();
        drop(store); // crash: no cleanup, straight to the next reopen
    }
    let store = FileStore::open_with_durability(&dir.0, 0, Durability::Strict).unwrap();
    for i in 0..CrashPoint::ALL.len() as u64 {
        let want = format!("keep-{i}").into_bytes();
        assert_eq!(
            store.read(fid(100 + i), 0, want.len() as u32).unwrap(),
            want
        );
    }
    assert!(tmp_entries(&dir.0).is_empty());
}

/// Decode-path contract over durable stores: a 4+2 striped log on six
/// FileStore-backed servers — one of which crashes mid-store and is
/// power-cycled — must serve every *acked* block byte-exact with any two
/// servers (the full parity budget `m`) held down simultaneously, not
/// just one.
#[test]
fn acked_reads_survive_m_servers_held_down_after_a_crash() {
    use std::sync::Arc;

    use swarm_log::{Log, LogConfig};
    use swarm_net::MemTransport;
    use swarm_server::StorageServer;
    use swarm_types::{Geometry, ServerId, ServiceId};

    const SVC: ServiceId = ServiceId::new(1);
    let geometry: Geometry = "4+2".parse().unwrap();
    let width = geometry.width() as u32;

    let dir = TempDir::new("rs-degraded");
    let transport = Arc::new(MemTransport::new());
    let mut nodes = Vec::new();
    for i in 0..width {
        let path = dir.0.join(format!("srv-{i}"));
        std::fs::create_dir_all(&path).unwrap();
        let store =
            FileStore::open_with_durability(&path, 0, Durability::Group(Duration::from_millis(1)))
                .unwrap();
        let srv = StorageServer::new(ServerId::new(i), store).into_shared();
        transport.register(ServerId::new(i), srv.clone());
        nodes.push(srv);
    }

    let config = LogConfig::new(ClientId::new(1), (0..width).map(ServerId::new).collect())
        .unwrap()
        .geometry(geometry)
        .unwrap()
        .fragment_size(4096)
        // Every verification read must hit the servers, not a cache.
        .cache_fragments(0);
    let log = Log::create(transport.clone(), config).unwrap();

    let body = |i: u64| -> Vec<u8> {
        let len = 200 + (i as usize * 131) % 1500;
        (0..len).map(|j| (i as u8) ^ (j as u8)).collect()
    };
    let mut acked = Vec::new();
    for i in 0..24u64 {
        let addr = log.append_block(SVC, &i.to_le_bytes(), &body(i)).unwrap();
        acked.push((i, addr));
    }
    log.flush().unwrap();

    // Crash server 2 mid-store (the rename step — tmp written, not yet
    // visible), attempt more writes, then power-cycle it: reopen the same
    // directory through recovery, exactly like the single-store matrix.
    let crashed = 2u32;
    nodes[crashed as usize]
        .store()
        .inject_crash(CrashPoint::Rename);
    let mut second = Vec::new();
    for i in 24..32u64 {
        match log.append_block(SVC, &i.to_le_bytes(), &body(i)) {
            Ok(addr) => second.push((i, addr)),
            Err(_) => break, // never acked; drop from expectations
        }
    }
    // A failed flush means the second batch was never acked.
    if log.flush().is_ok() {
        acked.extend(second);
    }
    transport.deregister(ServerId::new(crashed));
    drop(std::mem::replace(
        &mut nodes[crashed as usize],
        StorageServer::new(
            ServerId::new(crashed),
            FileStore::open_with_durability(
                dir.0.join(format!("srv-{crashed}")),
                0,
                Durability::Group(Duration::from_millis(1)),
            )
            .unwrap(),
        )
        .into_shared(),
    ));
    transport.register(ServerId::new(crashed), nodes[crashed as usize].clone());

    // Every pair of servers held down at once: reads must decode from the
    // surviving four members (any k of k+m suffice for MDS codes).
    for a in 0..width {
        for b in (a + 1)..width {
            transport.set_down(ServerId::new(a), true);
            transport.set_down(ServerId::new(b), true);
            for (i, addr) in &acked {
                let bytes = log.read(*addr).unwrap_or_else(|e| {
                    panic!("block {i} unreadable with servers {a},{b} down: {e}")
                });
                assert_eq!(
                    bytes.as_slice(),
                    body(*i).as_slice(),
                    "block {i} corrupt with servers {a},{b} down"
                );
            }
            transport.set_down(ServerId::new(a), false);
            transport.set_down(ServerId::new(b), false);
        }
    }
}
