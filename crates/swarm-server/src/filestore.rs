//! Durable, crash-atomic [`FragmentStore`] backed by a directory.
//!
//! Mirrors the prototype server (§3.2): fragment-sized slots (one file per
//! fragment) plus an on-disk *fragment map* — here an append-only journal
//! so that the map update itself is atomic. Store ordering gives the
//! paper's §2.3.1 guarantee ("all storage server operations are atomic"):
//!
//! 1. fragment bytes are written to `tmp/` and fsync'd,
//! 2. the file is renamed into `slots/` (atomic on POSIX),
//! 3. a journal entry is appended and fsync'd.
//!
//! A crash before (3) leaves an orphan slot file with no journal entry;
//! `open` deletes orphans, so the fragment was never stored. A crash
//! mid-(3) leaves a torn journal tail; replay stops at the first bad
//! frame and `open` truncates the tail away, discarding only the torn
//! entry. Either way the fragment exists in full or not at all.
//!
//! ## Concurrency
//!
//! The store is sharded for concurrent writers: a global mutex protects
//! only the in-memory index (fragment map, prealloc/in-flight claims,
//! marked sets), and is held for microseconds per operation. All fragment
//! data I/O — tmp write, fsync, rename, slot reads — runs outside any
//! lock. Double-store exclusion uses an *in-flight claim table*: a store
//! claims its FID under the index lock before touching the disk, so two
//! concurrent stores of the same FID cannot interleave, and claimed FIDs
//! count toward the slot capacity. A FID stays *unresolved* from its
//! claim until its journal append has returned; a second store of it
//! waits for that outcome, so `FragmentExists` is only ever answered for
//! a fragment whose record is committed.
//!
//! ## Journal group commit
//!
//! Journal appends from concurrent operations are batched: the first
//! appender becomes the *leader*, writes every queued record with one
//! `write` + one `sync_data`, and wakes all waiters — N concurrent stores
//! cost ~1 journal fsync. Before it writes, a leader *gathers*: the
//! journal counts the stores that have claimed their FID and are still
//! writing their data, and the leader waits for exactly those — woken
//! when the last of them has queued its record, never past a deadline
//! fixed when it started. [`Durability`] sets that deadline: `Strict` is
//! a zero window (batches still form behind an fsync in progress),
//! `Group(window)` is the longest a batch waits for a store already on
//! its way, and `None` never gathers and never syncs (tests/benchmarks
//! only). A leader with no such company — a lone store, any delete on an
//! idle server — writes at once. In every syncing mode an `Ok` return
//! means the operation's journal record is on disk.
//!
//! ## Crash points
//!
//! [`CrashPoint`] names each durability step of a store; tests inject one
//! with [`FileStore::inject_crash`] and the next store "crashes" there —
//! the step's on-disk effect is left half-done exactly as a power cut
//! would, no cleanup runs, and the operation returns an error. Reopening
//! the directory must then uphold the atomicity contract.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::time::{Duration, Instant};

use parking_lot::{Condvar as IndexCondvar, Mutex};
use swarm_types::{crc32, BlockAddr, Bytes, ClientId, FragmentId, Result, SwarmError};

use crate::store::{FragmentMeta, FragmentStore};

const JOURNAL: &str = "journal";
const SLOTS: &str = "slots";
const TMP: &str = "tmp";

const OP_STORE: u8 = 1;
const OP_DELETE: u8 = 2;

struct StoreMetrics {
    journal_fsync: swarm_metrics::Counter,
    journal_batch: swarm_metrics::Histogram,
    /// How long each syncing batch's leader waited for company.
    journal_gather_us: swarm_metrics::Histogram,
    /// Batches closed by the deadline with a store still in its data
    /// phase.
    journal_window_expired: swarm_metrics::Counter,
}

fn metrics() -> &'static StoreMetrics {
    static M: std::sync::OnceLock<StoreMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| StoreMetrics {
        journal_fsync: swarm_metrics::counter("server.journal_fsync"),
        journal_batch: swarm_metrics::histogram("server.journal_batch"),
        journal_gather_us: swarm_metrics::histogram("server.journal_gather_us"),
        journal_window_expired: swarm_metrics::counter("server.journal_window_expired"),
    })
}

/// When (and how) the store syncs data and journal writes to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Every operation's journal batch is fsync'd before it returns.
    /// The commit leader never waits for company, but operations that
    /// arrive during a sync in progress share the next batch (group
    /// commit), so this is the safe *and* fast default.
    Strict,
    /// Like `Strict`, but before syncing the commit leader waits for the
    /// stores that are already writing their data to join its batch. The
    /// window is an upper bound on that wait, not a delay: a leader with
    /// no store on its way syncs at once, and one whose company has all
    /// arrived stops waiting. An `Ok` ack still means durable.
    Group(Duration),
    /// Never fsync (data or journal). For tests and benchmarks that
    /// measure something other than the disk.
    None,
}

impl Durability {
    /// Default window for [`Durability::Group`] (`group` with no millis).
    pub const DEFAULT_GROUP_WINDOW: Duration = Duration::from_millis(2);

    fn syncs(self) -> bool {
        !matches!(self, Durability::None)
    }

    /// The longest a commit leader waits for stores still in their data
    /// phase; `None` (the mode) never gathers at all.
    fn window(self) -> Option<Duration> {
        match self {
            Durability::Strict => Some(Duration::ZERO),
            Durability::Group(window) => Some(window),
            Durability::None => None,
        }
    }
}

impl std::fmt::Display for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Durability::Strict => write!(f, "strict"),
            Durability::Group(w) => write!(f, "group:{}", w.as_millis()),
            Durability::None => write!(f, "none"),
        }
    }
}

impl FromStr for Durability {
    type Err = String;

    /// Parses the config-knob syntax: `strict`, `none`, `group`, or
    /// `group:<millis>`.
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "strict" => Ok(Durability::Strict),
            "none" => Ok(Durability::None),
            "group" => Ok(Durability::Group(Self::DEFAULT_GROUP_WINDOW)),
            other => match other.strip_prefix("group:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| Durability::Group(Duration::from_millis(ms)))
                    .map_err(|e| format!("durability {other:?}: {e}")),
                None => Err(format!(
                    "unknown durability {other:?} (want strict|group[:millis]|none)"
                )),
            },
        }
    }
}

/// A durability step of `store` where a simulated crash can be injected
/// (see [`FileStore::inject_crash`]). Each variant leaves the disk exactly
/// as a power cut at that step would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash mid-way through writing the fragment bytes to `tmp/`: a
    /// partial tmp file survives.
    TmpWrite,
    /// Crash after writing `tmp/` but before its fsync: the full tmp file
    /// is visible (this process never lost page cache) but was never
    /// renamed.
    TmpSync,
    /// Crash after the tmp fsync, before the rename into `slots/`.
    Rename,
    /// Crash mid-way through the journal append: the slot file exists and
    /// a torn half-record sits at the journal tail.
    JournalAppend,
    /// Crash after the journal append but before its fsync: the record is
    /// fully written (and, within this process, visible on replay).
    JournalSync,
}

impl CrashPoint {
    /// Every crash point, in durability-step order.
    pub const ALL: [CrashPoint; 5] = [
        CrashPoint::TmpWrite,
        CrashPoint::TmpSync,
        CrashPoint::Rename,
        CrashPoint::JournalAppend,
        CrashPoint::JournalSync,
    ];
}

/// Bounds-checked little-endian reads for journal replay: a short or
/// corrupt buffer yields `None` (treated as a torn tail), never a panic —
/// a damaged journal must degrade, not kill the server on open.
fn read_u32_le(buf: &[u8], pos: usize) -> Option<u32> {
    let bytes = buf.get(pos..pos.checked_add(4)?)?;
    Some(u32::from_le_bytes(bytes.try_into().ok()?))
}

fn read_u64_le(buf: &[u8], pos: usize) -> Option<u64> {
    let bytes = buf.get(pos..pos.checked_add(8)?)?;
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(8 + payload.len());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc32(payload).to_le_bytes());
    rec.extend_from_slice(payload);
    rec
}

fn store_payload(fid: FragmentId, len: u32, marked: bool) -> Vec<u8> {
    let mut payload = Vec::with_capacity(14);
    payload.push(OP_STORE);
    payload.extend_from_slice(&fid.raw().to_le_bytes());
    payload.extend_from_slice(&len.to_le_bytes());
    payload.push(marked as u8);
    payload
}

fn delete_payload(fid: FragmentId) -> Vec<u8> {
    let mut payload = Vec::with_capacity(9);
    payload.push(OP_DELETE);
    payload.extend_from_slice(&fid.raw().to_le_bytes());
    payload
}

/// The in-memory fragment index. Guarded by one mutex held only for map
/// lookups and bookkeeping — never across disk I/O.
#[derive(Default)]
struct Index {
    fragments: BTreeMap<FragmentId, (u32, bool)>, // len, marked
    prealloc: HashSet<FragmentId>,
    /// FIDs claimed by a store that has not committed yet. Claims give
    /// double-store exclusion without holding the index lock across the
    /// data write, and count toward capacity.
    inflight: HashSet<FragmentId>,
    /// FIDs a store has moved from `inflight` into `fragments` whose
    /// journal append has not returned yet. With `inflight` these are the
    /// *unresolved* FIDs: a second store of one waits for the outcome
    /// instead of answering `FragmentExists` for bytes that may never
    /// become durable. Not in `slots_used`: `fragments` counts them.
    committing: HashSet<FragmentId>,
    /// Stores parked on [`FileStore::resolved`]; resolving a FID
    /// notifies only when there are any.
    waiting: u32,
    /// FIDs mid-delete: removed from `fragments`, journal record not yet
    /// committed (or slot file not yet unlinked). A store may not reuse
    /// the FID until the delete finishes.
    deleting: HashSet<FragmentId>,
    marked: HashMap<ClientId, BTreeSet<FragmentId>>,
    bytes: u64,
}

impl Index {
    fn slots_used(&self) -> u64 {
        (self.fragments.len() + self.prealloc.len() + self.inflight.len() + self.deleting.len())
            as u64
    }

    fn insert_fragment(&mut self, fid: FragmentId, len: u32, marked: bool) {
        self.bytes += len as u64;
        self.fragments.insert(fid, (len, marked));
        if marked {
            self.marked.entry(fid.client()).or_default().insert(fid);
        }
    }

    fn remove_fragment(&mut self, fid: FragmentId) -> Option<(u32, bool)> {
        let (len, marked) = self.fragments.remove(&fid)?;
        self.bytes -= len as u64;
        if marked {
            if let Some(s) = self.marked.get_mut(&fid.client()) {
                s.remove(&fid);
            }
        }
        Some((len, marked))
    }
}

/// Group-commit journal writer.
///
/// Appenders enqueue encoded records under the state lock and take a
/// ticket; the first appender with no active leader becomes the leader,
/// writes the whole queue with one `write_all` + one `sync_data`, and
/// wakes everyone whose ticket the batch covered. A failed batch is
/// truncated back out of the file (so it cannot become a torn tail that
/// hides later, successfully committed records) and its tickets observe
/// the error.
///
/// Before writing, the leader gathers (see [`Journal::gather`]): it waits
/// for the stores counted in [`CommitState::writing`], and only for them.
struct Journal {
    dir: PathBuf,
    durability: Durability,
    file: StdMutex<JournalFile>,
    state: StdMutex<CommitState>,
    /// A batch completed (or a compaction ended): every waiter rechecks
    /// its ticket.
    done: Condvar,
    /// The last store a gathering leader waits for has arrived. Its own
    /// condvar, so an arrival wakes the one leader and never the
    /// followers parked on `done`.
    arrived: Condvar,
    /// Records in the on-disk journal (live + dead), for compaction.
    entries: AtomicU64,
    /// Syncs issued: one per batch commit and one per compaction, none
    /// in [`Durability::None`].
    fsyncs: AtomicU64,
    /// Batches written (equals fsyncs between compactions when the mode
    /// syncs).
    batches: AtomicU64,
}

#[derive(Default)]
struct CommitState {
    /// Encoded records waiting for the next batch.
    buf: Vec<u8>,
    buf_records: u64,
    /// Tickets issued / durable / failed. `failed_upto` is checked before
    /// `committed` so a ticket dropped by a failed batch can never be
    /// claimed by a later successful one.
    queued: u64,
    committed: u64,
    failed_upto: u64,
    fail_msg: String,
    leader: bool,
    /// Stores that have claimed their FID and not yet queued their record:
    /// the company a leader waits for. Mirrors the population of
    /// `Index::inflight` because a leader must never take the index lock
    /// under this one (`compact_journal` takes them in the other order).
    writing: u64,
    /// The leader is parked on `arrived`; nobody notifies it otherwise.
    gathering: bool,
}

/// A store between its FID claim and its journal append, counted in
/// [`CommitState::writing`]. It leaves the count exactly once: inside
/// [`Journal::append`], or on drop when the store fails (or "crashes")
/// before it gets there — a leaked count would make every later batch
/// wait out its whole window.
struct Writing<'a>(&'a Journal);

impl Drop for Writing<'_> {
    fn drop(&mut self) {
        // A poisoned state lock means an appender panicked and every
        // later append panics too; there is no leader left to wake.
        if let Ok(mut st) = self.0.state.lock() {
            self.0.arrive(&mut st);
        }
    }
}

struct JournalFile {
    file: File,
    /// Physical length, tracked so a failed batch can be truncated away.
    len: u64,
}

impl Journal {
    fn open(dir: &Path, durability: Durability, entries: u64) -> Result<Journal> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join(JOURNAL))?;
        let len = file.metadata()?.len();
        Ok(Journal {
            dir: dir.to_path_buf(),
            durability,
            file: StdMutex::new(JournalFile { file, len }),
            state: StdMutex::new(CommitState::default()),
            done: Condvar::new(),
            arrived: Condvar::new(),
            entries: AtomicU64::new(entries),
            fsyncs: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        })
    }

    /// Counts a store that has claimed its FID and is about to write its
    /// data, so a commit leader knows to wait for its record.
    fn expect_store(&self) -> Writing<'_> {
        self.state.lock().expect("journal state lock").writing += 1;
        Writing(self)
    }

    /// One store leaves the data phase. Called under the state lock; wakes
    /// the leader only if it is gathering and this was the last one.
    fn arrive(&self, st: &mut CommitState) {
        st.writing -= 1;
        if st.writing == 0 && st.gathering {
            self.arrived.notify_one();
        }
    }

    /// The leader's wait for company: returns once no store is left in
    /// its data phase, or once `window` has passed since the call. The
    /// deadline is fixed here, so no wake-up can push it out.
    fn gather<'a>(
        &'a self,
        mut st: StdMutexGuard<'a, CommitState>,
        window: Duration,
    ) -> StdMutexGuard<'a, CommitState> {
        let m = metrics();
        let start = Instant::now();
        st.gathering = true;
        while st.writing > 0 {
            let left = window.saturating_sub(start.elapsed());
            if left.is_zero() {
                // A zero window (`Strict`) cannot expire.
                if !window.is_zero() {
                    m.journal_window_expired.inc();
                }
                break;
            }
            st = self
                .arrived
                .wait_timeout(st, left)
                .expect("journal state lock")
                .0;
        }
        st.gathering = false;
        m.journal_gather_us.record(start.elapsed());
        st
    }

    /// Appends one record and waits until the batch containing it is
    /// durable (per the configured [`Durability`]). `arriving` is the
    /// caller's data-phase count, if it had one (stores do, deletes do
    /// not).
    fn append(&self, payload: &[u8], arriving: Option<Writing<'_>>) -> Result<()> {
        let rec = encode_record(payload);
        let mut st = self.state.lock().expect("journal state lock");
        st.buf.extend_from_slice(&rec);
        st.buf_records += 1;
        st.queued += 1;
        let ticket = st.queued;
        if let Some(writing) = arriving {
            // Leave the count in the critical section that queues the
            // record: a leader that reads zero finds this record in `buf`.
            std::mem::forget(writing);
            self.arrive(&mut st);
        }
        loop {
            if st.failed_upto >= ticket {
                return Err(SwarmError::other(format!(
                    "journal append failed: {}",
                    st.fail_msg
                )));
            }
            if st.committed >= ticket {
                return Ok(());
            }
            if st.leader {
                st = self.done.wait(st).expect("journal state lock");
                continue;
            }
            st.leader = true;
            if let Some(window) = self.durability.window() {
                st = self.gather(st, window);
            }
            let batch = std::mem::take(&mut st.buf);
            let records = std::mem::take(&mut st.buf_records);
            let hi = st.queued;
            drop(st);
            let res = if records == 0 {
                Ok(())
            } else {
                self.write_batch(&batch, records)
            };
            st = self.state.lock().expect("journal state lock");
            st.leader = false;
            match res {
                Ok(()) => st.committed = st.committed.max(hi),
                Err(e) => {
                    st.failed_upto = st.failed_upto.max(hi);
                    st.fail_msg = e.to_string();
                }
            }
            self.done.notify_all();
        }
    }

    fn write_batch(&self, batch: &[u8], records: u64) -> Result<()> {
        let mut jf = self.file.lock().expect("journal file lock");
        let start = jf.len;
        let res = jf.file.write_all(batch).and_then(|()| {
            if self.durability.syncs() {
                jf.file.sync_data()
            } else {
                Ok(())
            }
        });
        match res {
            Ok(()) => {
                jf.len = start + batch.len() as u64;
                self.entries.fetch_add(records, Ordering::Relaxed);
                self.batches.fetch_add(1, Ordering::Relaxed);
                if self.durability.syncs() {
                    self.fsyncs.fetch_add(1, Ordering::Relaxed);
                    let m = metrics();
                    m.journal_fsync.inc();
                    m.journal_batch.record_us(records);
                }
                Ok(())
            }
            Err(e) => {
                // Roll the partial batch back out: leaving it would plant
                // a torn record in the *middle* of the journal, hiding
                // every later (successful) append from replay.
                let _ = jf.file.set_len(start);
                Err(e.into())
            }
        }
    }

    /// Raw file append for injected crashes: bypasses batching, writes
    /// `rec` (halved when `torn`), never syncs, reports nothing.
    fn crash_append(&self, rec: &[u8], torn: bool) {
        let mut jf = self.file.lock().expect("journal file lock");
        let cut = if torn { rec.len() / 2 } else { rec.len() };
        if jf.file.write_all(&rec[..cut]).is_ok() {
            jf.len += cut as u64;
        }
    }

    /// Atomically replaces the journal contents with `records` (the
    /// compacted live set). The caller holds the index lock, so no new
    /// operation can commit index changes mid-snapshot; this routine
    /// additionally quiesces the committer so no batch is in flight.
    fn rewrite(&self, records: &[u8], live: u64) -> Result<()> {
        let mut st = self.state.lock().expect("journal state lock");
        while st.leader || !st.buf.is_empty() {
            st = self.done.wait(st).expect("journal state lock");
        }
        st.leader = true; // parks appenders while the file is swapped
        drop(st);

        let res = (|| {
            let new_path = self.dir.join("journal.new");
            let mut jf = self.file.lock().expect("journal file lock");
            {
                let mut f = File::create(&new_path)?;
                f.write_all(records)?;
                if self.durability.syncs() {
                    f.sync_all()?;
                    self.fsyncs.fetch_add(1, Ordering::Relaxed);
                    metrics().journal_fsync.inc();
                }
            }
            fs::rename(&new_path, self.dir.join(JOURNAL))?;
            let file = OpenOptions::new()
                .append(true)
                .open(self.dir.join(JOURNAL))?;
            jf.len = file.metadata()?.len();
            jf.file = file;
            self.entries.store(live, Ordering::Relaxed);
            Ok(())
        })();

        let mut st = self.state.lock().expect("journal state lock");
        st.leader = false;
        drop(st);
        self.done.notify_all();
        res
    }
}

/// A directory-backed fragment store with atomic stores, a journaled
/// fragment map, sharded locking, and journal group commit.
pub struct FileStore {
    dir: PathBuf,
    index: Mutex<Index>,
    /// An unresolved FID committed or aborted (see `Index::committing`).
    resolved: IndexCondvar,
    journal: Journal,
    capacity: u64,
    durability: Durability,
    /// Per-attempt tmp-name nonce: retries and concurrent stores never
    /// collide on a tmp path.
    tmp_seq: AtomicU64,
    /// One-shot injected crash (test harness; see [`CrashPoint`]).
    crash: Mutex<Option<CrashPoint>>,
}

impl std::fmt::Debug for FileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStore")
            .field("dir", &self.dir)
            .field("capacity", &self.capacity)
            .field("durability", &self.durability)
            .finish()
    }
}

impl FileStore {
    /// Opens (creating if necessary) a store rooted at `dir` with no slot
    /// limit and strict durability.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::Io`] if the directory cannot be created, or
    /// [`SwarmError::Corrupt`] if the journal references slot files that
    /// have disappeared.
    pub fn open(dir: impl AsRef<Path>) -> Result<FileStore> {
        Self::open_with_durability(dir, 0, Durability::Strict)
    }

    /// Opens a store with a slot capacity (0 = unbounded) and an explicit
    /// [`Durability`] mode.
    ///
    /// # Errors
    ///
    /// See [`FileStore::open`].
    pub fn open_with_durability(
        dir: impl AsRef<Path>,
        capacity: u64,
        durability: Durability,
    ) -> Result<FileStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(dir.join(SLOTS))?;
        fs::create_dir_all(dir.join(TMP))?;

        let mut index = Index::default();
        let entries = Self::replay_journal(&dir, &mut index)?;
        Self::sweep(&dir, &index)?;

        Ok(FileStore {
            journal: Journal::open(&dir, durability, entries)?,
            dir,
            index: Mutex::new(index),
            resolved: IndexCondvar::new(),
            capacity,
            durability,
            tmp_seq: AtomicU64::new(0),
            crash: Mutex::new(None),
        })
    }

    /// The configured durability mode.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Journal syncs issued so far: one per committed batch and one per
    /// compaction in syncing modes, none at all in [`Durability::None`].
    /// With group commit, N concurrent stores advance this by far less
    /// than N.
    pub fn journal_fsyncs(&self) -> u64 {
        self.journal.fsyncs.load(Ordering::Relaxed)
    }

    /// Journal batches committed so far.
    pub fn journal_batches(&self) -> u64 {
        self.journal.batches.load(Ordering::Relaxed)
    }

    /// Arms a one-shot simulated crash at `point`: the next store that
    /// reaches that durability step leaves the disk exactly as a power
    /// cut there would (no cleanup runs) and returns an error. Reopen the
    /// directory to run recovery. Test harness API.
    pub fn inject_crash(&self, point: CrashPoint) {
        *self.crash.lock() = Some(point);
    }

    fn take_crash(&self, point: CrashPoint) -> bool {
        let mut g = self.crash.lock();
        if *g == Some(point) {
            *g = None;
            true
        } else {
            false
        }
    }

    fn crash_err(point: CrashPoint) -> SwarmError {
        SwarmError::other(format!("injected crash at {point:?}"))
    }

    fn slot_path(dir: &Path, fid: FragmentId) -> PathBuf {
        dir.join(SLOTS).join(format!("{:016x}.frag", fid.raw()))
    }

    /// Replays the journal into `index`, returning the number of valid
    /// records, and truncates any torn tail off the file so later appends
    /// can never hide behind it.
    fn replay_journal(dir: &Path, index: &mut Index) -> Result<u64> {
        let path = dir.join(JOURNAL);
        let Ok(mut f) = File::open(&path) else {
            return Ok(0); // fresh store
        };
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        drop(f);
        let mut pos = 0usize;
        let mut entries = 0u64;
        let mut torn = false;
        while buf.len() - pos >= 8 {
            let (Some(len), Some(crc)) = (read_u32_le(&buf, pos), read_u32_le(&buf, pos + 4))
            else {
                torn = true;
                break;
            };
            let len = len as usize;
            if len == 0 || len > 64 || buf.len() - pos - 8 < len {
                // A zero-length entry can carry a valid CRC (crc32 of
                // nothing) but has no opcode to dispatch on — corrupt,
                // treated like a torn tail rather than a panic.
                torn = true;
                break;
            }
            let payload = &buf[pos + 8..pos + 8 + len];
            if crc32(payload) != crc {
                torn = true;
                break;
            }
            pos += 8 + len;
            entries += 1;
            match payload[0] {
                OP_STORE if payload.len() == 1 + 8 + 4 + 1 => {
                    let (Some(raw), Some(len)) = (read_u64_le(payload, 1), read_u32_le(payload, 9))
                    else {
                        torn = true;
                        break;
                    };
                    let fid = FragmentId::from_raw(raw);
                    let marked = payload[13] != 0;
                    if let Some((old_len, old_marked)) = index.fragments.insert(fid, (len, marked))
                    {
                        // Duplicate store entries come from the
                        // compaction/append race; keep accounting
                        // consistent.
                        index.bytes -= old_len as u64;
                        if old_marked {
                            if let Some(s) = index.marked.get_mut(&fid.client()) {
                                s.remove(&fid);
                            }
                        }
                    }
                    index.bytes += len as u64;
                    if marked {
                        index.marked.entry(fid.client()).or_default().insert(fid);
                    }
                }
                OP_DELETE if payload.len() == 1 + 8 => {
                    let Some(raw) = read_u64_le(payload, 1) else {
                        torn = true;
                        break;
                    };
                    let fid = FragmentId::from_raw(raw);
                    index.remove_fragment(fid);
                }
                other => return Err(SwarmError::corrupt(format!("unknown journal op {other}"))),
            }
        }
        if torn || pos < buf.len() {
            // Discard the torn tail physically: appends land directly
            // after the last valid record, so a record stored *after*
            // this recovery can never be hidden behind garbage at the
            // next replay.
            if let Ok(f) = OpenOptions::new().write(true).open(&path) {
                let _ = f.set_len(pos as u64);
            }
        }
        Ok(entries)
    }

    /// Deletes orphan slot files (crash between rename and journal append)
    /// and stale `tmp/` leftovers from crashed mid-store attempts;
    /// verifies every mapped fragment's file exists.
    fn sweep(dir: &Path, index: &Index) -> Result<()> {
        for entry in fs::read_dir(dir.join(TMP))? {
            let entry = entry?;
            // Every tmp entry is stale by definition at open: a store in
            // progress when the process died never committed.
            let _ = fs::remove_file(entry.path());
        }
        let mut present = HashSet::new();
        for entry in fs::read_dir(dir.join(SLOTS))? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(hex) = name.strip_suffix(".frag") else {
                continue;
            };
            let Ok(raw) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            let fid = FragmentId::from_raw(raw);
            if index.fragments.contains_key(&fid) {
                present.insert(fid);
            } else {
                // Orphan: store never committed (or delete never finished).
                let _ = fs::remove_file(entry.path());
            }
        }
        for fid in index.fragments.keys() {
            if !present.contains(fid) {
                return Err(SwarmError::corrupt(format!(
                    "fragment map references missing slot file for {fid}"
                )));
            }
        }
        Ok(())
    }

    /// Rewrites the journal to contain only live fragments. Called
    /// automatically when the journal grows far beyond the live set; also
    /// callable explicitly (e.g. at shutdown).
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::Io`] on disk failure; on error the original
    /// journal remains authoritative.
    pub fn compact_journal(&self) -> Result<()> {
        // Holding the index lock for the duration pins the snapshot: no
        // store/delete can commit an index change while the journal is
        // being swapped, so the compacted file covers exactly the live
        // set. An append already in flight re-lands in the new file (its
        // record becomes a benign duplicate that replay de-dups).
        let index = self.index.lock();
        let mut buf = Vec::new();
        for (fid, (len, marked)) in &index.fragments {
            buf.extend_from_slice(&encode_record(&store_payload(*fid, *len, *marked)));
        }
        self.journal.rewrite(&buf, index.fragments.len() as u64)
    }

    fn maybe_compact(&self) {
        let entries = self.journal.entries.load(Ordering::Relaxed);
        let live = self.index.lock().fragments.len() as u64;
        if entries > 1024 && entries > live.saturating_mul(4) {
            // Compaction failure is non-fatal: the journal stays valid.
            let _ = self.compact_journal();
        }
    }

    /// Claims `fid` for a store, in the index (`inflight`) and in the
    /// journal's count of stores on their way. A FID another store holds
    /// unresolved is waited for, not refused: that store may yet fail, and
    /// `FragmentExists` tells a retrying writer its fragment is durable.
    fn claim(&self, fid: FragmentId) -> Result<Writing<'_>> {
        let mut index = self.index.lock();
        while index.inflight.contains(&fid) || index.committing.contains(&fid) {
            index.waiting += 1;
            self.resolved.wait(&mut index);
            index.waiting -= 1;
        }
        if index.fragments.contains_key(&fid) || index.deleting.contains(&fid) {
            return Err(SwarmError::FragmentExists(fid));
        }
        let had_slot = index.prealloc.contains(&fid);
        if !had_slot && self.capacity != 0 && index.slots_used() >= self.capacity {
            return Err(SwarmError::OutOfSpace(format!(
                "all {} slots in use",
                self.capacity
            )));
        }
        index.inflight.insert(fid);
        drop(index);
        Ok(self.journal.expect_store())
    }

    /// `fid` is resolved — committed, or gone again: wakes the stores of
    /// the same FID that waited to learn which.
    fn resolve(&self, index: &mut Index, fid: FragmentId) {
        index.inflight.remove(&fid);
        index.committing.remove(&fid);
        if index.waiting > 0 {
            self.resolved.notify_all();
        }
    }

    /// Releases a store claim after a failure in the data phase.
    fn abort_claim(&self, fid: FragmentId) {
        self.resolve(&mut self.index.lock(), fid);
    }

    /// The data phase of a store: tmp write, tmp fsync, rename. Runs
    /// outside every lock. On an ordinary I/O error the tmp file is
    /// removed; on an injected crash it is left as the crash would leave
    /// it.
    fn write_data(&self, tmp: &Path, slot: &Path, data: &[u8]) -> Result<()> {
        let cleanup_err = |e: std::io::Error, tmp: &Path| -> SwarmError {
            let _ = fs::remove_file(tmp);
            e.into()
        };
        let mut f = File::create(tmp)?;
        if self.take_crash(CrashPoint::TmpWrite) {
            let _ = f.write_all(&data[..data.len() / 2]);
            return Err(Self::crash_err(CrashPoint::TmpWrite));
        }
        if let Err(e) = f.write_all(data) {
            return Err(cleanup_err(e, tmp));
        }
        if self.take_crash(CrashPoint::TmpSync) {
            return Err(Self::crash_err(CrashPoint::TmpSync));
        }
        if self.durability.syncs() {
            if let Err(e) = f.sync_all() {
                return Err(cleanup_err(e, tmp));
            }
        }
        drop(f);
        if self.take_crash(CrashPoint::Rename) {
            return Err(Self::crash_err(CrashPoint::Rename));
        }
        if let Err(e) = fs::rename(tmp, slot) {
            return Err(cleanup_err(e, tmp));
        }
        Ok(())
    }
}

impl FragmentStore for FileStore {
    fn store(&self, fid: FragmentId, data: Bytes, marked: bool) -> Result<()> {
        // Claim the FID under the index lock; everything after runs
        // without it until commit. `writing` holds this store's place in
        // the journal's count until `append` takes it — or until any of
        // the early returns below drops it.
        let writing = self.claim(fid)?;

        // (1)+(2): bytes to a per-attempt tmp file, fsync, atomic rename.
        let tmp_path = self.dir.join(TMP).join(format!(
            "{:016x}.{}",
            fid.raw(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let slot_path = Self::slot_path(&self.dir, fid);
        if let Err(e) = self.write_data(&tmp_path, &slot_path, &data) {
            self.abort_claim(fid);
            return Err(e);
        }

        // (3): journal record through the group committer.
        let payload = store_payload(fid, data.len() as u32, marked);
        if self.take_crash(CrashPoint::JournalAppend) {
            self.journal.crash_append(&encode_record(&payload), true);
            self.abort_claim(fid);
            return Err(Self::crash_err(CrashPoint::JournalAppend));
        }
        if self.take_crash(CrashPoint::JournalSync) {
            self.journal.crash_append(&encode_record(&payload), false);
            self.abort_claim(fid);
            return Err(Self::crash_err(CrashPoint::JournalSync));
        }

        // Commit to the index *before* the journal append so a concurrent
        // compaction snapshot can only duplicate the record (replay
        // de-dups), never lose it. The FID stays unresolved (`committing`)
        // until the append has returned.
        {
            let mut index = self.index.lock();
            index.inflight.remove(&fid);
            index.committing.insert(fid);
            index.prealloc.remove(&fid);
            index.insert_fragment(fid, data.len() as u32, marked);
        }
        let res = self.journal.append(&payload, Some(writing));
        if res.is_err() {
            // Never became durable: undo the slot file and the index entry
            // (an in-process failure can clean up; a real crash here
            // leaves an orphan for the open-time sweep). The file goes
            // first: once the FID is resolved a waiting store of it may
            // rename its own bytes into the same slot.
            let _ = fs::remove_file(&slot_path);
        }
        let mut index = self.index.lock();
        if res.is_err() {
            index.remove_fragment(fid);
        }
        self.resolve(&mut index, fid);
        res
    }

    fn read(&self, fid: FragmentId, offset: u32, len: u32) -> Result<Bytes> {
        let stored = {
            let index = self.index.lock();
            let (stored, _) = index
                .fragments
                .get(&fid)
                .ok_or(SwarmError::FragmentNotFound(fid))?;
            *stored
        };
        // In u64: `offset + len` from the wire may wrap a u32.
        if offset as u64 + len as u64 > stored as u64 {
            return Err(SwarmError::RangeOutOfBounds {
                addr: BlockAddr::new(fid, offset, len),
                stored,
            });
        }
        // The file I/O runs without the index lock; a concurrent delete
        // may unlink the slot file under us, which must surface as
        // not-found, not a raw I/O error.
        let mut f = match File::open(Self::slot_path(&self.dir, fid)) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(SwarmError::FragmentNotFound(fid));
            }
            Err(e) => return Err(e.into()),
        };
        use std::io::{Seek, SeekFrom};
        f.seek(SeekFrom::Start(offset as u64))?;
        let mut buf = vec![0u8; len as usize];
        f.read_exact(&mut buf)?;
        Ok(buf.into())
    }

    fn delete(&self, fid: FragmentId) -> Result<()> {
        // Remove from the index first (claiming the FID in `deleting`),
        // then journal. The order matters for the compaction race: once
        // the fragment is out of the index a compaction snapshot cannot
        // resurrect it, and the OP_DELETE lands after the compacted
        // records either way.
        let (len, marked) = {
            let mut index = self.index.lock();
            let Some((len, marked)) = index.remove_fragment(fid) else {
                return Err(SwarmError::FragmentNotFound(fid));
            };
            index.deleting.insert(fid);
            (len, marked)
        };
        match self.journal.append(&delete_payload(fid), None) {
            Ok(()) => {
                let _ = fs::remove_file(Self::slot_path(&self.dir, fid));
                self.index.lock().deleting.remove(&fid);
                self.maybe_compact();
                Ok(())
            }
            Err(e) => {
                // The delete never became durable; the fragment is still
                // fully present on disk. Restore the index entry.
                let mut index = self.index.lock();
                index.deleting.remove(&fid);
                index.insert_fragment(fid, len, marked);
                Err(e)
            }
        }
    }

    fn preallocate(&self, fid: FragmentId, _len: u32) -> Result<()> {
        let mut index = self.index.lock();
        if index.fragments.contains_key(&fid) || index.prealloc.contains(&fid) {
            return Ok(());
        }
        if self.capacity != 0 && index.slots_used() >= self.capacity {
            return Err(SwarmError::OutOfSpace(format!(
                "all {} slots in use",
                self.capacity
            )));
        }
        index.prealloc.insert(fid);
        Ok(())
    }

    fn meta(&self, fid: FragmentId) -> Option<FragmentMeta> {
        let index = self.index.lock();
        index.fragments.get(&fid).map(|(len, marked)| FragmentMeta {
            len: *len,
            marked: *marked,
        })
    }

    fn last_marked(&self, client: ClientId) -> Option<FragmentId> {
        let index = self.index.lock();
        index
            .marked
            .get(&client)
            .and_then(|set| set.iter().next_back().copied())
    }

    fn list(&self) -> Vec<FragmentId> {
        self.index.lock().fragments.keys().copied().collect()
    }

    fn fragment_count(&self) -> u64 {
        self.index.lock().fragments.len() as u64
    }

    fn byte_count(&self) -> u64 {
        self.index.lock().bytes
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::conformance;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let pid = std::process::id();
            let n = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos();
            let path = std::env::temp_dir().join(format!("swarm-fs-{tag}-{pid}-{n}"));
            fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn fid(c: u32, s: u64) -> FragmentId {
        FragmentId::new(ClientId::new(c), s)
    }

    #[test]
    fn conformance_all() {
        // Non-durable in tests (no fsync) — semantics identical. Each
        // conformance case assumes a fresh store.
        type Case = (&'static str, fn(&dyn FragmentStore));
        let cases: Vec<Case> = vec![
            ("roundtrip", conformance::store_read_roundtrip),
            ("double", conformance::double_store_rejected),
            ("missing", conformance::missing_fragment_errors),
            ("range", conformance::out_of_range_read_errors),
            ("delete", conformance::delete_frees_fragment),
            ("marked", conformance::marked_tracking),
            ("accounting", conformance::accounting),
            ("concurrent", conformance::concurrent_store_read_delete),
        ];
        for (tag, case) in cases {
            let d = TempDir::new(tag);
            let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
            case(&s);
        }
    }

    #[test]
    fn conformance_capacity() {
        let d = TempDir::new("cap");
        let s = FileStore::open_with_durability(&d.0, 2, Durability::None).unwrap();
        conformance::capacity_enforced(&s);
    }

    #[test]
    fn conformance_group_commit_mode() {
        // The same semantics hold when acks ride the group committer.
        let d = TempDir::new("group");
        let s =
            FileStore::open_with_durability(&d.0, 0, Durability::Group(Duration::from_millis(1)))
                .unwrap();
        conformance::store_read_roundtrip(&s);
        conformance::concurrent_store_read_delete(&s);
    }

    #[test]
    fn durability_knob_parses() {
        assert_eq!("strict".parse::<Durability>().unwrap(), Durability::Strict);
        assert_eq!("none".parse::<Durability>().unwrap(), Durability::None);
        assert_eq!(
            "group".parse::<Durability>().unwrap(),
            Durability::Group(Durability::DEFAULT_GROUP_WINDOW)
        );
        assert_eq!(
            "group:7".parse::<Durability>().unwrap(),
            Durability::Group(Duration::from_millis(7))
        );
        assert!("fast".parse::<Durability>().is_err());
        assert!("group:x".parse::<Durability>().is_err());
        assert_eq!(
            Durability::Group(Duration::from_millis(7)).to_string(),
            "group:7"
        );
    }

    #[test]
    fn reopen_recovers_contents_and_marks() {
        let d = TempDir::new("reopen");
        {
            let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
            s.store(fid(1, 0), b"alpha".into(), false).unwrap();
            s.store(fid(1, 1), b"beta".into(), true).unwrap();
            s.store(fid(1, 2), b"gamma".into(), false).unwrap();
            s.delete(fid(1, 0)).unwrap();
        }
        let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
        assert_eq!(s.read(fid(1, 1), 0, 4).unwrap(), b"beta");
        assert_eq!(s.read(fid(1, 2), 0, 5).unwrap(), b"gamma");
        assert!(s.read(fid(1, 0), 0, 1).is_err());
        assert_eq!(s.last_marked(ClientId::new(1)), Some(fid(1, 1)));
        assert_eq!(s.fragment_count(), 2);
        assert_eq!(s.byte_count(), 9);
    }

    #[test]
    fn orphan_slot_file_is_swept_on_open() {
        // Simulates a crash between rename (2) and journal append (3).
        let d = TempDir::new("orphan");
        {
            let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
            s.store(fid(1, 0), b"committed".into(), false).unwrap();
        }
        let orphan = FileStore::slot_path(&d.0, fid(1, 99));
        fs::write(&orphan, b"never committed").unwrap();
        let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
        assert!(!orphan.exists(), "orphan should be swept");
        assert!(s.read(fid(1, 99), 0, 1).is_err());
        assert_eq!(s.read(fid(1, 0), 0, 9).unwrap(), b"committed");
    }

    /// Regression test: a zero-length journal entry carries a valid CRC
    /// (crc32 of the empty string) but no opcode; replay used to index
    /// `payload[0]` and panic on open. It must be treated as a torn tail:
    /// entries before it survive, the store opens fine.
    #[test]
    fn zero_length_journal_entry_does_not_panic_open() {
        let d = TempDir::new("zerolen");
        {
            let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
            s.store(fid(1, 0), b"good".into(), false).unwrap();
        }
        let mut f = OpenOptions::new()
            .append(true)
            .open(d.0.join(JOURNAL))
            .unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap(); // len = 0
        f.write_all(&crc32(b"").to_le_bytes()).unwrap(); // valid CRC
        drop(f);
        let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
        assert_eq!(s.read(fid(1, 0), 0, 4).unwrap(), b"good");
        assert_eq!(s.fragment_count(), 1);
    }

    #[test]
    fn torn_journal_tail_is_discarded() {
        let d = TempDir::new("torn");
        {
            let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
            s.store(fid(1, 0), b"good".into(), false).unwrap();
        }
        // Append garbage (a torn record) to the journal.
        let mut f = OpenOptions::new()
            .append(true)
            .open(d.0.join(JOURNAL))
            .unwrap();
        f.write_all(&[14, 0, 0, 0, 0xde, 0xad]).unwrap();
        drop(f);
        let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
        assert_eq!(s.fragment_count(), 1);
        assert_eq!(s.read(fid(1, 0), 0, 4).unwrap(), b"good");
        // And the store remains writable afterwards.
        s.store(fid(1, 1), b"more".into(), false).unwrap();
    }

    /// The torn tail must be *physically* truncated at open: a fragment
    /// stored after recovery lands directly after the last valid record
    /// and survives a second reopen (it used to be appended after the
    /// garbage and silently lost).
    #[test]
    fn store_after_torn_tail_survives_second_reopen() {
        let d = TempDir::new("torn2");
        {
            let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
            s.store(fid(1, 0), b"good".into(), false).unwrap();
        }
        let mut f = OpenOptions::new()
            .append(true)
            .open(d.0.join(JOURNAL))
            .unwrap();
        f.write_all(&[14, 0, 0, 0, 0xde, 0xad]).unwrap();
        drop(f);
        {
            let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
            s.store(fid(1, 1), b"after-recovery".into(), false).unwrap();
        }
        let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
        assert_eq!(s.fragment_count(), 2);
        assert_eq!(s.read(fid(1, 1), 0, 14).unwrap(), b"after-recovery");
    }

    #[test]
    fn missing_slot_file_for_mapped_fragment_is_corruption() {
        let d = TempDir::new("missing");
        {
            let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
            s.store(fid(1, 0), b"data".into(), false).unwrap();
        }
        fs::remove_file(FileStore::slot_path(&d.0, fid(1, 0))).unwrap();
        let err = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap_err();
        assert!(matches!(err, SwarmError::Corrupt(_)), "{err}");
    }

    #[test]
    fn journal_compaction_preserves_state() {
        let d = TempDir::new("compact");
        let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
        for i in 0..50 {
            s.store(
                fid(2, i),
                format!("frag{i}").into_bytes().into(),
                i % 7 == 0,
            )
            .unwrap();
        }
        for i in 0..25 {
            s.delete(fid(2, i * 2)).unwrap();
        }
        s.compact_journal().unwrap();
        // Still queryable in place…
        assert_eq!(s.fragment_count(), 25);
        drop(s);
        // …and after reopen.
        let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
        assert_eq!(s.fragment_count(), 25);
        assert_eq!(s.read(fid(2, 1), 0, 5).unwrap(), b"frag1");
        assert!(s.read(fid(2, 0), 0, 1).is_err());
        // Marked index survives: fids 7,21,35,49 marked & odd (not deleted);
        // the newest odd multiple of 7 below 50 is 49.
        assert_eq!(s.last_marked(ClientId::new(2)), Some(fid(2, 49)));
    }

    /// Regression test (tmp-sweep fix): stale `tmp/` entries planted by a
    /// crash mid-store — whatever their name, including the per-attempt
    /// `<fid>.<nonce>` form of a committed fragment — are deleted at open
    /// and never disturb the committed data.
    #[test]
    fn tmp_leftovers_are_cleaned() {
        let d = TempDir::new("tmp");
        {
            let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
            s.store(fid(1, 0), b"kept".into(), false).unwrap();
        }
        let junk = d.0.join(TMP).join("deadbeef");
        let staged = d.0.join(TMP).join(format!("{:016x}.3", fid(1, 0).raw()));
        fs::write(&junk, b"junk").unwrap();
        fs::write(&staged, b"half-written").unwrap();
        let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
        assert!(!junk.exists());
        assert!(!staged.exists());
        assert_eq!(s.read(fid(1, 0), 0, 4).unwrap(), b"kept");
    }

    /// Group commit batches concurrent appends: far fewer journal fsyncs
    /// than stores, and every acked store survives reopen.
    #[test]
    fn group_commit_batches_concurrent_stores() {
        let d = TempDir::new("batch");
        let s = std::sync::Arc::new(
            FileStore::open_with_durability(&d.0, 0, Durability::Group(Duration::from_millis(5)))
                .unwrap(),
        );
        let threads: u32 = 8;
        let per: u64 = 4;
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(threads as usize));
        let mut handles = Vec::new();
        for t in 0..threads {
            let s = s.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for i in 0..per {
                    s.store(fid(t, i), vec![t as u8; 128].into(), false)
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stores = threads as u64 * per;
        assert!(
            s.journal_fsyncs() < stores,
            "expected batching: {} fsyncs for {stores} stores",
            s.journal_fsyncs()
        );
        assert_eq!(s.journal_batches(), s.journal_fsyncs());
        // Company still writing its data is waited for: the threads leave
        // the barrier together, so no batch should be a lone store's.
        assert!(
            s.journal_batches() <= stores / 2,
            "{} batches for {stores} stores",
            s.journal_batches()
        );
        drop(s);
        let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
        assert_eq!(s.fragment_count(), stores);
    }

    /// Spins until `cond` holds: the tests below wait for another thread
    /// to reach a state, never for an amount of time to pass.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < Duration::from_secs(10), "never: {what}");
            std::thread::yield_now();
        }
    }

    /// A leader whose company never arrives closes its batch at the
    /// deadline, once — and the deadline is the one it started with:
    /// wake-ups and arrivals of other stores while it waits do not push
    /// it out (the `MuxChannel::call` re-arm bug must not be re-made).
    #[test]
    fn gathering_leader_closes_at_its_first_deadline() {
        let window = Duration::from_millis(300);
        let d = TempDir::new("deadline");
        let s = FileStore::open_with_durability(&d.0, 0, Durability::Group(window)).unwrap();
        let expired = || swarm_metrics::snapshot().counter("server.journal_window_expired");
        let expired_before = expired();
        // A store that claimed and never gets to its append.
        let never = s.journal.expect_store();

        let waited = std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                let start = Instant::now();
                s.store(fid(1, 0), b"leader".into(), false).unwrap();
                start.elapsed()
            });
            wait_until("the leader gathers", || {
                s.journal.state.lock().unwrap().gathering
            });
            // Two thirds of the window of company: stores of other FIDs
            // arriving, and bare wake-ups of the leader between them.
            for i in 1..=5 {
                let s = &s;
                scope.spawn(move || s.store(fid(1, i), b"follower".into(), false).unwrap());
                for _ in 0..2 {
                    s.journal.arrived.notify_one();
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            leader.join().unwrap()
        });
        drop(never);

        assert!(waited >= window, "closed early: {waited:?}");
        assert!(waited < 2 * window, "deadline re-armed: {waited:?}");
        assert_eq!(s.journal_batches(), 1, "one batch took all six");
        assert!(expired() > expired_before);
        assert_eq!(s.fragment_count(), 6);
    }

    /// `FragmentExists` means durably there, so a store of a FID whose
    /// first attempt is still unresolved waits for the outcome. Here the
    /// first attempt aborts: the waiting store takes the claim itself and
    /// its own bytes are what the FID holds.
    #[test]
    fn duplicate_of_an_unresolved_fid_waits_for_the_outcome() {
        let d = TempDir::new("unresolved");
        let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
        // Pin the claim as a first attempt in its data phase would.
        s.index.lock().inflight.insert(fid(1, 0));
        std::thread::scope(|scope| {
            let second = scope.spawn(|| s.store(fid(1, 0), b"second".into(), false));
            wait_until("the second store waits", || s.index.lock().waiting == 1);
            s.abort_claim(fid(1, 0));
            second.join().unwrap().unwrap();
        });
        assert_eq!(s.read(fid(1, 0), 0, 6).unwrap(), b"second");

        // And when the first attempt commits, the waiter is refused.
        s.index.lock().inflight.insert(fid(1, 1));
        std::thread::scope(|scope| {
            let second = scope.spawn(|| s.store(fid(1, 1), b"second".into(), false));
            wait_until("the second store waits", || s.index.lock().waiting == 1);
            {
                let mut index = s.index.lock();
                index.insert_fragment(fid(1, 1), 5, false);
                s.resolve(&mut index, fid(1, 1));
            }
            let err = second.join().unwrap().unwrap_err();
            assert!(matches!(err, SwarmError::FragmentExists(_)), "{err}");
        });
    }

    /// `Durability::None` promises no fsync, and journal compaction (which
    /// holds the index lock, so every operation waits behind it) used to
    /// issue one regardless. Enough store/delete churn to compact several
    /// times: no sync is counted, and a reopen replays exactly the live
    /// set out of the compacted journal.
    #[test]
    fn durability_none_never_syncs_even_when_compacting() {
        let d = TempDir::new("nosync");
        let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
        let (pairs, keep) = (2_100u64, 8u64);
        for i in 0..pairs {
            s.store(fid(1, i), vec![i as u8; 64].into(), false).unwrap();
            if i >= keep {
                s.delete(fid(1, i - keep)).unwrap();
            }
        }
        let appended = pairs + (pairs - keep);
        assert!(
            s.journal.entries.load(Ordering::Relaxed) < appended / 2,
            "the journal was compacted along the way"
        );
        assert_eq!(s.journal_fsyncs(), 0);
        drop(s);

        let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
        assert_eq!(s.fragment_count(), keep);
        for i in pairs - keep..pairs {
            assert_eq!(s.read(fid(1, i), 0, 64).unwrap(), vec![i as u8; 64]);
        }
        assert!(s.read(fid(1, pairs - keep - 1), 0, 1).is_err());
    }

    /// A store serialized against a concurrent delete of the same FID
    /// must either land after the delete or be refused — never have its
    /// freshly renamed slot file unlinked by the delete's tail.
    #[test]
    fn store_during_delete_of_same_fid_is_refused() {
        let d = TempDir::new("storedel");
        let s = FileStore::open_with_durability(&d.0, 0, Durability::None).unwrap();
        s.store(fid(1, 0), b"old".into(), false).unwrap();
        {
            // Pin the FID in `deleting` as the journal append would.
            s.index.lock().deleting.insert(fid(1, 0));
            s.index.lock().remove_fragment(fid(1, 0));
            let err = s.store(fid(1, 0), b"new".into(), false).unwrap_err();
            assert!(matches!(err, SwarmError::FragmentExists(_)), "{err}");
            s.index.lock().deleting.remove(&fid(1, 0));
        }
    }
}
