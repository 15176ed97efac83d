//! The server's one request queue: a fixed-width worker pool that admits
//! jobs by per-client deficit round robin.
//!
//! [`WorkerPool`] caps server-side concurrency at a fixed number of
//! eagerly spawned workers, however many connections the reactor holds;
//! requests from different connections run concurrently up to the pool
//! width, which the sharded store and journal group commit in
//! `swarm-server` exploit. Each decoded request waits on its client's
//! queue, and a free worker takes its next job by deficit round robin
//! (DRR): it visits the clients with queued jobs in turn, each spending a
//! byte deficit that refills by `QUANTUM` (64 KiB) per visit. A job costs
//! its request frame in bytes, so one client pipelining 64 stores per
//! connection cannot starve another's single read: per-client logs must
//! not synchronize through the servers. With a worker free, a job runs at
//! once.
//!
//! Once every worker is spoken for and a client has `MAX_CLIENT_BACKLOG`
//! (32) jobs queued, [`WorkerPool::submit`] refuses its *rejectable* jobs
//! (stores, which the writer retries with backoff) and the caller answers
//! [`swarm_types::SwarmError::Busy`]. Reads are never refused; the
//! reactor's per-connection in-flight cap bounds them.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};
use swarm_metrics::{Counter, Gauge};
use swarm_types::ClientId;

/// Default number of workers when the caller does not specify one.
pub const DEFAULT_WORKERS: usize = 16;

/// Deficit refill per DRR visit, in request-frame bytes: one
/// fragment-sized store per visit.
const QUANTUM: u64 = 64 * 1024;

/// Jobs one client may have queued while every worker is spoken for
/// before its rejectable jobs are refused.
const MAX_CLIENT_BACKLOG: usize = 32;

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct ClientQueue {
    deficit: u64,
    /// Jobs with their cost in request-frame bytes, the DRR currency.
    jobs: VecDeque<(u64, Job)>,
}

#[derive(Default)]
struct State {
    /// Workers running a job.
    busy: usize,
    /// Jobs queued across every client (the depth gauge).
    queued: usize,
    /// Clients with queued jobs, in round-robin visit order.
    active: VecDeque<ClientId>,
    queues: HashMap<ClientId, ClientQueue>,
    /// Set when the pool drops: workers drain the queues, then exit.
    closed: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is queued for an idle worker, and at close.
    work: Condvar,
}

struct PoolMetrics {
    queue_depth: Gauge,
    throttled: Counter,
    drr_admits: Counter,
    panics: Counter,
}

fn metrics() -> &'static PoolMetrics {
    static M: OnceLock<PoolMetrics> = OnceLock::new();
    M.get_or_init(|| PoolMetrics {
        queue_depth: swarm_metrics::gauge("server.admission_queue_depth"),
        throttled: swarm_metrics::counter("server.client_throttled"),
        drr_admits: swarm_metrics::counter("server.drr_admits"),
        panics: swarm_metrics::counter("net.workpool_panics"),
    })
}

/// A fixed-width pool of job-running threads fed by per-client DRR
/// queues (see the module docs).
///
/// Dropping the pool closes the queues and joins every worker after the
/// queued jobs have run — callers that need prompt shutdown must arrange
/// for jobs to terminate (TCP server jobs are single handler invocations
/// and never wait on a socket).
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` threads (clamped to at least 1) named
    /// `{name}-{i}`.
    pub fn new(name: &str, workers: usize) -> WorkerPool {
        metrics(); // a healthy server's snapshot shows every name at 0
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
        }
    }

    /// Queues `job` on behalf of `client`. `cost` is the request's frame
    /// size in bytes (the DRR currency); `rejectable` marks jobs whose
    /// sender retries on `Busy` pushback (stores). Returns `false` — the
    /// job is dropped — when every worker is spoken for and a rejectable
    /// job's client already has `MAX_CLIENT_BACKLOG` jobs queued.
    pub fn submit(
        &self,
        client: ClientId,
        cost: u64,
        rejectable: bool,
        job: impl FnOnce() + Send + 'static,
    ) -> bool {
        let m = metrics();
        let mut guard = self.shared.state.lock();
        let st = &mut *guard;
        let saturated = st.busy + st.queued >= self.width();
        let q = st.queues.entry(client).or_default();
        if saturated && rejectable && q.jobs.len() >= MAX_CLIENT_BACKLOG {
            m.throttled.inc();
            return false;
        }
        if q.jobs.is_empty() {
            st.active.push_back(client);
        }
        q.jobs.push_back((cost, Box::new(job)));
        if saturated {
            m.drr_admits.inc(); // it waits for DRR to admit it
        }
        st.queued += 1;
        m.queue_depth.set(st.queued as i64);
        drop(guard);
        // A saturated pool has no idle worker to wake: the next worker to
        // finish a job pops again before it sleeps.
        if !saturated {
            self.shared.work.notify_one();
        }
        true
    }

    /// Number of worker threads.
    pub fn width(&self) -> usize {
        self.workers.len()
    }
}

impl State {
    /// Textbook DRR pop: visit the head-of-line client; if its deficit
    /// covers its front job's cost, take the job (keeping the client at
    /// the front so it can spend the rest of its deficit); otherwise
    /// refill by `QUANTUM` and rotate to the next client. An emptied queue
    /// is dropped, resetting its deficit — an idle client must not bank
    /// credit. The caller's worker counts as busy from here on.
    fn pop(&mut self) -> Option<Job> {
        loop {
            let client = *self.active.front()?;
            let q = self.queues.get_mut(&client).expect("active client queue");
            let cost = q.jobs.front().expect("active queue is non-empty").0;
            if cost <= q.deficit {
                q.deficit -= cost;
                let (_, job) = q.jobs.pop_front().expect("checked non-empty");
                if q.jobs.is_empty() {
                    self.queues.remove(&client);
                    self.active.pop_front();
                }
                self.queued -= 1;
                self.busy += 1;
                metrics().queue_depth.set(self.queued as i64);
                return Some(job);
            }
            q.deficit += QUANTUM;
            self.active.rotate_left(1);
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut st = shared.state.lock();
    loop {
        match st.pop() {
            Some(job) => {
                drop(st);
                // A panicking job must not kill the worker: on a width-N
                // pool, N poisoned connections would silently stop the
                // server accepting work forever. Contain the unwind, count
                // it, and move on to the next job.
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                    metrics().panics.inc();
                    swarm_metrics::trace!("net.workpool", "job panicked; worker continues");
                }
                st = shared.state.lock();
                st.busy -= 1;
            }
            None if st.closed => return,
            None => shared.work.wait(&mut st),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Idle workers wake and exit; busy ones drain the queues first.
        self.shared.state.lock().closed = true;
        self.shared.work.notify_all();
        // A job may hold the pool's last owner (a server killed mid-call
        // drops its final handle on a `swarm-conn-*` worker): that worker
        // cannot join itself. It leaves its loop when this job returns.
        let me = std::thread::current().id();
        for h in self.workers.drain(..).filter(|h| h.thread().id() != me) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
impl WorkerPool {
    /// `(busy workers, queued jobs)` right now.
    pub(crate) fn load(&self) -> (usize, usize) {
        let st = self.shared.state.lock();
        (st.busy, st.queued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    /// Polls `cond` for up to 5 s.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Holds every worker of `pool` busy until the returned sender drops.
    fn saturate(pool: &WorkerPool) -> mpsc::Sender<()> {
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..pool.width() {
            let rx = rx.clone();
            assert!(pool.submit(ClientId::new(0), 1, false, move || {
                // Blocks until the test drops `tx`.
                let _ = rx.lock().recv();
            }));
        }
        eventually("every worker busy", || pool.load() == (pool.width(), 0));
        tx
    }

    /// Runs `jobs` (client, cost) on a saturated width-1 pool and returns
    /// the clients in the order their jobs ran.
    fn drain_order(jobs: &[(u32, u64)]) -> Vec<u32> {
        let pool = WorkerPool::new("test-order", 1);
        let hold = saturate(&pool);
        let order = Arc::new(Mutex::new(Vec::new()));
        for &(client, cost) in jobs {
            let order = order.clone();
            assert!(pool.submit(ClientId::new(client), cost, false, move || {
                order.lock().push(client);
            }));
        }
        drop(hold);
        drop(pool); // drains the queues, then joins
        let order = order.lock().clone();
        assert_eq!(order.len(), jobs.len(), "every job ran");
        order
    }

    #[test]
    fn runs_every_submitted_job() {
        let pool = WorkerPool::new("test-pool", 4);
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..100 {
            let done = done.clone();
            assert!(pool.submit(ClientId::new(i % 3), 1, false, move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        drop(pool); // joins workers, so all jobs have run
        assert_eq!(done.load(Ordering::SeqCst), 100);
    }

    /// While workers are free a job runs at once — four jobs that each
    /// wait for all four to have started finish on a width-4 pool — and
    /// one client's jobs run in the order they were submitted.
    #[test]
    fn jobs_run_fifo_while_workers_are_free() {
        let pool = WorkerPool::new("test-free", 4);
        let started = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for i in 0..4 {
            let (started, tx) = (started.clone(), tx.clone());
            assert!(pool.submit(ClientId::new(i), 1, true, move || {
                started.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(5);
                while started.load(Ordering::SeqCst) < 4 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                tx.send(started.load(Ordering::SeqCst)).unwrap();
            }));
        }
        for _ in 0..4 {
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 4);
        }
        drop(pool);

        let pool = WorkerPool::new("test-fifo", 1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..8 {
            let order = order.clone();
            pool.submit(ClientId::new(1), 1, false, move || order.lock().push(i));
        }
        drop(pool);
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_beyond_width_queue_instead_of_spawning() {
        let pool = WorkerPool::new("test-queue", 2);
        assert_eq!(pool.width(), 2);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let running = running.clone();
            let peak = peak.clone();
            pool.submit(ClientId::new(1), 1, false, move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(10));
                running.fetch_sub(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "ran {} jobs at once on a width-2 pool",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn saturated_jobs_queue_and_drain() {
        let pool = WorkerPool::new("test-drain", 1);
        let hold = saturate(&pool);
        let (tx, rx) = mpsc::channel();
        for i in 0..4 {
            let tx = tx.clone();
            assert!(pool.submit(ClientId::new(i), 100, false, move || {
                tx.send(i).unwrap();
            }));
        }
        assert_eq!(pool.load(), (1, 4));
        drop(hold);
        let mut got: Vec<u32> = (0..4)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        eventually("an idle, empty pool", || pool.load() == (0, 0));
    }

    #[test]
    fn backlogged_client_bounces_rejectable_jobs_only() {
        let pool = WorkerPool::new("test-backlog", 1);
        let hold = saturate(&pool);
        let heavy = ClientId::new(7);
        for _ in 0..MAX_CLIENT_BACKLOG {
            assert!(pool.submit(heavy, 1, true, || {}));
        }
        // Backlog full: rejectable (store) jobs bounce...
        assert!(!pool.submit(heavy, 1, true, || {}));
        // ...but non-rejectable (read) jobs still queue.
        assert!(pool.submit(heavy, 1, false, || {}));
        // Other clients are unaffected.
        assert!(pool.submit(ClientId::new(8), 1, true, || {}));
        assert_eq!(pool.load(), (1, MAX_CLIENT_BACKLOG + 2));
        drop(hold);
    }

    /// One worker; client 1 floods 32 jobs, client 2 sends one. Under FIFO
    /// the trickle would wait behind the whole flood; under DRR it runs
    /// second. Each job costs one quantum, so each visit admits one.
    #[test]
    fn drr_interleaves_a_flood_with_a_trickle() {
        let mut jobs = vec![(1, QUANTUM); 32];
        jobs.push((2, QUANTUM));
        let order = drain_order(&jobs);
        let trickle = order.iter().position(|&c| c == 2).unwrap();
        assert_eq!(trickle, 1, "FIFO would serve the trickle at 32");
    }

    /// Client 1 queues 4 quantum-sized jobs, client 2 queues 8 jobs whose
    /// total cost is one quantum. Byte-fair, not request-fair: client 2's
    /// whole batch takes one visit, as much as one of client 1's jobs.
    #[test]
    fn costs_weight_the_round_robin() {
        let mut jobs = vec![(1, QUANTUM); 4];
        jobs.extend(vec![(2, QUANTUM / 8); 8]);
        let order = drain_order(&jobs);
        assert_eq!(order, [1, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1]);
    }

    /// A panicking job frees its worker and is counted: on a width-1 pool
    /// every later job still runs, and the pool ends idle.
    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new("test-panic", 1);
        let panics_before = swarm_metrics::snapshot().counter("net.workpool_panics");
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..6 {
            let done = done.clone();
            pool.submit(ClientId::new(1), 1, false, move || {
                if i % 2 == 0 {
                    panic!("poisoned job {i}");
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        eventually("the jobs after each panic", || {
            done.load(Ordering::SeqCst) == 3
        });
        eventually("the worker freed", || pool.load() == (0, 0));
        let panics_after = swarm_metrics::snapshot().counter("net.workpool_panics");
        assert_eq!(panics_after - panics_before, 3, "each panic is counted");
    }

    /// Regression: a worker that dropped the pool's last handle joined
    /// itself (`Resource deadlock avoided`, a panic inside `drop`). The
    /// channels force the order: the main thread gives its handle up
    /// first, so the job's is provably the last.
    #[test]
    fn last_handle_dropped_on_a_worker_does_not_join_itself() {
        let pool = Arc::new(WorkerPool::new("test-self-drop", 2));
        let (released_tx, released_rx) = mpsc::channel::<()>();
        let (dropped_tx, dropped_rx) = mpsc::channel::<()>();
        let last = pool.clone();
        pool.submit(ClientId::new(1), 1, false, move || {
            released_rx.recv().expect("main thread released its handle");
            assert_eq!(Arc::strong_count(&last), 1);
            drop(last);
            dropped_tx.send(()).expect("test still listening");
        });
        drop(pool);
        released_tx.send(()).unwrap();
        dropped_rx
            .recv()
            .expect("the pool's drop panicked on its own worker");
    }

    #[test]
    fn zero_width_is_clamped_to_one() {
        let pool = WorkerPool::new("test-clamp", 0);
        assert_eq!(pool.width(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        pool.submit(ClientId::new(1), 1, true, move || {
            d.fetch_add(1, Ordering::SeqCst);
        });
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
}
