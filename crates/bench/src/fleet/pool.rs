use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Batch of consecutive indices one claim takes: small enough that the
/// tail imbalance stays under a few percent of the sweep, large enough
/// that a 10⁵-scenario sweep of sub-millisecond tasks touches the shared
/// claim counter thousands of times instead of a hundred thousand.
/// Small sweeps degrade to one-at-a-time claiming, which keeps load
/// balancing exact where it matters most.
fn claim_batch(count: usize, workers: usize) -> usize {
    (count / (workers * 16)).clamp(1, 32)
}

/// Like [`map_indexed`], but each worker additionally owns a private
/// state created by `init(worker_index)` and threaded through every task
/// it claims; the joined states are returned **in worker-index order**,
/// and the results as an iterator **in index order** that moves each
/// result out of its slot. The fleet's lanes ride here: per-worker
/// state, so the hot path never writes shared memory.
///
/// Workers claim **batches** of consecutive indices (up to 32, about a
/// sixteenth of each worker's share) from the shared counter, amortizing
/// the claim over small tasks, and write each result straight into its
/// index's slot as soon as it is computed: no staging buffer, no lock.
/// Results are slotted by index, so claiming granularity can never leak
/// into the output order.
pub fn map_indexed_with<R, W, G, F>(
    count: usize,
    workers: usize,
    init: G,
    f: F,
) -> (impl ExactSizeIterator<Item = R>, Vec<W>)
where
    R: Send + Sync,
    W: Send,
    G: Fn(usize) -> W + Sync,
    F: Fn(usize, &mut W) -> R + Sync,
{
    let workers = workers.clamp(1, count.max(1));
    let lanes = Lanes::new(count, workers);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (lanes, init, f) = (&lanes, &init, &f);
            scope.spawn(move || lanes.run(w, init, f));
        }
    });
    lanes.into_parts()
}

/// The shared state of one indexed map over `0..count`: the claim
/// counter, the index-addressed result slots and the per-lane states.
/// Both [`map_indexed_with`] and [`FleetPool::run_with`] drive it.
///
/// Each index is claimed by exactly one lane and each slot is written
/// once, by that lane: a [`OnceLock`] per slot is enough, and setting it
/// takes no lock and touches no other slot.
struct Lanes<R, W> {
    count: usize,
    batch: usize,
    next: AtomicUsize,
    slots: Vec<OnceLock<R>>,
    states: Mutex<Vec<Option<W>>>,
}

impl<R, W> Lanes<R, W> {
    fn new(count: usize, lanes: usize) -> Self {
        Lanes {
            count,
            batch: claim_batch(count, lanes),
            next: AtomicUsize::new(0),
            slots: (0..count).map(|_| OnceLock::new()).collect(),
            states: Mutex::new((0..lanes).map(|_| None).collect()),
        }
    }

    /// One lane's life: claim a batch of indices and write each result
    /// into its slot as it is computed, until no index is left; then
    /// park the lane's state.
    fn run<G, F>(&self, lane: usize, init: &G, f: &F)
    where
        G: Fn(usize) -> W,
        F: Fn(usize, &mut W) -> R,
    {
        let mut state = init(lane);
        loop {
            let start = self.next.fetch_add(self.batch, Ordering::Relaxed);
            if start >= self.count {
                break;
            }
            let end = (start + self.batch).min(self.count);
            for (i, slot) in (start..end).zip(&self.slots[start..end]) {
                if slot.set(f(i, &mut state)).is_err() {
                    unreachable!("index {i} claimed twice");
                }
            }
        }
        self.states.lock().expect("lane states")[lane] = Some(state);
    }

    /// The results in index order, moved out of their slots as they are
    /// read (no second buffer of every result), and the lane states in
    /// lane order, once every lane has run.
    fn into_parts(self) -> (impl ExactSizeIterator<Item = R>, Vec<W>) {
        let parked = self.states.into_inner().expect("lane states");
        let results = self
            .slots
            .into_iter()
            .map(|r| r.into_inner().expect("every index produced a result"));
        let states = parked
            .into_iter()
            .map(|s| s.expect("every lane parked its state"));
        (results, states.collect())
    }
}

/// Runs `f` over `0..count` on `workers` self-scheduling threads and
/// returns the results **in index order** — the pool pulls indices from a
/// shared counter (work stealing by self-scheduling), but completion
/// order never leaks into the output.
pub fn map_indexed<R, F>(count: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send + Sync,
    F: Fn(usize) -> R + Sync,
{
    let (results, _) = map_indexed_with(count, workers, |_| (), |i, ()| f(i));
    results.collect()
}

/// A boxed unit of pool work.
type PoolTask = Box<dyn FnOnce() + Send + 'static>;

/// A resident fleet: long-lived worker threads fed from an MPSC inbox.
///
/// [`map_indexed_with`] spawns and joins a scoped pool per sweep — the
/// right shape for a one-shot experiment binary, and measurably wrong for
/// a daemon that answers many small sweep jobs: thread spawn/join cost
/// lands on every request. `FleetPool` keeps the workers alive across
/// jobs; [`run_with`](FleetPool::run_with) reproduces the
/// `map_indexed_with` contract (index-ordered results, worker states in
/// lane order, batched claiming) on top of them, so a sweep sharded over
/// the pool stays byte-identical to one run on scoped threads. Jobs
/// submitted concurrently interleave at lane granularity; each lane task
/// runs to completion independently, so no job can deadlock another.
///
/// Dropping the pool closes the inbox and joins every worker.
#[derive(Debug)]
pub struct FleetPool {
    workers: usize,
    sender: Option<mpsc::Sender<PoolTask>>,
    handles: Vec<JoinHandle<()>>,
}

impl FleetPool {
    /// Spawns a resident pool of `workers` threads (clamped to at least
    /// one).
    pub fn new(workers: usize) -> FleetPool {
        let workers = workers.max(1);
        let (sender, receiver) = mpsc::channel::<PoolTask>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|w| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("fleet-{w}"))
                    .spawn(move || loop {
                        // Hold the inbox lock only for the blocking recv;
                        // the task itself runs unlocked.
                        let task = receiver.lock().expect("fleet pool inbox").recv();
                        match task {
                            Ok(task) => task(),
                            Err(_) => break,
                        }
                    })
                    .expect("spawn fleet pool worker")
            })
            .collect();
        FleetPool {
            workers,
            sender: Some(sender),
            handles,
        }
    }

    /// Number of resident worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// [`map_indexed_with`] on the resident pool: runs `f` over
    /// `0..count` across at most `workers()` lanes, each lane owning a
    /// private state from `init(lane)`, and blocks until the job
    /// completes. Results come back **in index order** and lane states
    /// in lane order, as from the scoped-thread pool, so sweep artifacts
    /// cannot depend on which pool ran them.
    pub fn run_with<R, W, G, F>(
        &self,
        count: usize,
        init: G,
        f: F,
    ) -> (impl ExactSizeIterator<Item = R>, Vec<W>)
    where
        R: Send + Sync + 'static,
        W: Send + 'static,
        G: Fn(usize) -> W + Send + Sync + 'static,
        F: Fn(usize, &mut W) -> R + Send + Sync + 'static,
    {
        let lanes = self.workers.clamp(1, count.max(1));
        let job = Arc::new(Lanes::new(count, lanes));
        let init = Arc::new(init);
        let f = Arc::new(f);
        let sender = self.sender.as_ref().expect("pool inbox open");
        // Completion latch: one message per finished lane.
        let (done, finished) = mpsc::channel::<()>();
        for lane in 0..lanes {
            let (job, init, f, done) = (
                Arc::clone(&job),
                Arc::clone(&init),
                Arc::clone(&f),
                done.clone(),
            );
            sender
                .send(Box::new(move || {
                    job.run(lane, &*init, &*f);
                    // Release the job before signalling, so the caller
                    // holds the last handle once every lane has reported.
                    drop(job);
                    let _ = done.send(());
                }))
                .expect("fleet pool worker hung up");
        }
        drop(done);
        for _ in 0..lanes {
            finished.recv().expect("a fleet pool lane panicked");
        }
        match Arc::try_unwrap(job) {
            Ok(job) => job.into_parts(),
            Err(_) => unreachable!("every lane released the job before reporting"),
        }
    }
}

impl Drop for FleetPool {
    fn drop(&mut self) {
        // Closing the channel lets every worker's recv fail and exit.
        self.sender.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
