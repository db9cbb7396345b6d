//! [`ShardExecutor`]: one long-lived worker thread per shard, fed over
//! bounded channels.
//!
//! The sharded store's fan-outs used to pay a scoped-thread spawn+join
//! (~15 µs on this class of hardware) per shard per operation, which
//! dominates small operations — exactly the harness overhead the
//! measurement protocol warns against. A persistent worker consumes jobs
//! from a bounded queue instead, so a fan-out costs one channel round
//! trip (~3 µs) per shard.
//!
//! Ownership: the executor owns each shard behind an `Arc<Mutex<S>>`.
//! Jobs submitted through [`ShardExecutor::submit`] run on the shard's
//! worker thread; [`ShardExecutor::with_shard`] locks the shard directly
//! on the calling thread for point operations, where a queue hop would
//! *add* latency rather than remove it. Per-shard FIFO order holds for
//! submitted jobs; a direct `with_shard` call serializes with running
//! jobs through the mutex.
//!
//! Panic isolation: a panicking job poisons only its own shard — the
//! worker survives (the panic is caught), the shard is flagged, and
//! every subsequent submission or pending wait reports
//! [`ExecError::Poisoned`], which callers map onto the structured
//! [`HmError::ShardUnavailable`]. [`ShardExecutor::replace_shard`]
//! swaps in a recovered backend and clears the flag.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hypermodel::error::HmError;
use sanity::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use sanity::sync::Mutex;

/// Queue depth per worker. Submissions beyond this block the caller —
/// natural backpressure; the coordinator never queues unboundedly ahead
/// of a slow shard.
const QUEUE_CAP: usize = 128;

/// Why a submitted job did not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The executor (or this shard's queue) has been shut down.
    Shutdown,
    /// A previous job panicked on this shard; its state is suspect and
    /// the shard refuses work until [`ShardExecutor::replace_shard`].
    Poisoned(usize),
    /// The job did not finish within the caller's deadline. It is still
    /// running (or queued); per-shard FIFO order is preserved.
    TimedOut(usize),
    /// The worker disappeared without reporting a result. Should not
    /// happen; kept distinct from `Poisoned` for diagnosis.
    Lost(usize),
    /// The executor has no shard with this index.
    NoSuchShard(usize),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Shutdown => write!(f, "executor shut down"),
            ExecError::Poisoned(s) => write!(f, "shard {s} poisoned by a panicking job"),
            ExecError::TimedOut(s) => write!(f, "job on shard {s} missed its deadline"),
            ExecError::Lost(s) => write!(f, "shard {s} worker lost without a result"),
            ExecError::NoSuchShard(s) => write!(f, "no shard {s} in this executor"),
        }
    }
}

impl std::error::Error for ExecError {}

impl ExecError {
    /// The structured store-level error this failure maps onto: shard
    /// failures become [`HmError::ShardUnavailable`] (feeding the
    /// sharded store's health tracking), deadline misses become
    /// [`HmError::Timeout`] (transient, retryable).
    pub fn into_hm(self) -> HmError {
        match self {
            ExecError::TimedOut(s) => HmError::Timeout(format!("shard {s} job deadline missed")),
            ExecError::Poisoned(s) | ExecError::Lost(s) | ExecError::NoSuchShard(s) => {
                HmError::ShardUnavailable {
                    shard: s,
                    msg: self.to_string(),
                }
            }
            ExecError::Shutdown => HmError::Backend("shard executor shut down".into()),
        }
    }
}

/// The body of a [`Job`]: boxed work receiving the shard *mutex*, not a
/// guard — it locks only around the caller's closure and reports its
/// result (one-shot send / completion callback) after the lock is
/// released, so results never travel over a channel while the shard is
/// locked.
type JobFn<S> = Box<dyn FnOnce(&Mutex<S>) + Send>;

/// A unit of work for a shard worker. Besides the body, it carries the
/// submitter's trace id (reinstalled on the worker for its duration)
/// and its enqueue time (feeding the `exec.dispatch_wait_us`
/// histogram).
struct Job<S> {
    run: JobFn<S>,
    trace: u64,
    enqueued: Instant,
}

/// EWMA smoothing: new = old + (sample - old) / 2^EWMA_SHIFT.
const EWMA_SHIFT: u32 = 3;

/// Per-shard load counters shared between the worker and observers.
#[derive(Default)]
struct SlotLoad {
    /// Jobs enqueued but not yet picked up by the worker.
    depth: AtomicUsize,
    /// EWMA of job execution time (shard lock held), microseconds.
    busy_ewma_us: AtomicU64,
    /// Jobs executed on this shard's worker.
    jobs: AtomicU64,
}

impl SlotLoad {
    fn observe_busy(&self, us: u64) {
        // Single writer (the shard's worker), so load+store is race-free.
        let old = self.busy_ewma_us.load(Ordering::Relaxed);
        let new =
            old + (us.saturating_sub(old) >> EWMA_SHIFT) - (old.saturating_sub(us) >> EWMA_SHIFT);
        self.busy_ewma_us.store(new, Ordering::Relaxed);
        self.jobs.fetch_add(1, Ordering::Relaxed);
    }
}

struct Slot<S> {
    store: Arc<Mutex<S>>,
    tx: Option<SyncSender<Job<S>>>,
    worker: Option<JoinHandle<()>>,
    poisoned: Arc<AtomicBool>,
    load: Arc<SlotLoad>,
}

/// A pool of persistent per-shard workers owning the shard backends.
pub struct ShardExecutor<S> {
    slots: Vec<Slot<S>>,
}

/// The pending result of a submitted job.
#[derive(Debug)]
pub struct JobHandle<T> {
    shard: usize,
    rx: Receiver<T>,
    poisoned: Arc<AtomicBool>,
}

impl<T> JobHandle<T> {
    /// The shard this job runs on.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Block until the job finishes and return its value.
    pub fn wait(self) -> Result<T, ExecError> {
        match self.rx.recv() {
            Ok(v) => Ok(v),
            Err(_) => Err(self.vanished()),
        }
    }

    /// Like [`JobHandle::wait`], but give up after `timeout`.
    pub fn wait_within(self, timeout: Duration) -> Result<T, ExecError> {
        self.wait_deadline(Instant::now() + timeout)
    }

    fn wait_deadline(self, deadline: Instant) -> Result<T, ExecError> {
        let left = deadline.saturating_duration_since(Instant::now());
        match self.rx.recv_timeout(left) {
            Ok(v) => Ok(v),
            Err(RecvTimeoutError::Timeout) => Err(ExecError::TimedOut(self.shard)),
            Err(RecvTimeoutError::Disconnected) => Err(self.vanished()),
        }
    }

    /// The job's one-shot sender was dropped without a value: either the
    /// job panicked (shard now flagged) or its queue was discarded.
    fn vanished(&self) -> ExecError {
        if self.poisoned.load(Ordering::SeqCst) {
            ExecError::Poisoned(self.shard)
        } else {
            ExecError::Shutdown
        }
    }
}

impl<S> ShardExecutor<S> {
    /// Spawn one worker per shard, each owning its backend.
    pub fn new(shards: Vec<S>) -> ShardExecutor<S>
    where
        S: Send + 'static,
    {
        let slots = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let store = Arc::new(Mutex::new(shard));
                let poisoned = Arc::new(AtomicBool::new(false));
                let load = Arc::new(SlotLoad::default());
                let (tx, rx) = sync_channel::<Job<S>>(QUEUE_CAP);
                let worker_store = Arc::clone(&store);
                let worker_poison = Arc::clone(&poisoned);
                let worker_load = Arc::clone(&load);
                let worker = std::thread::Builder::new()
                    .name(format!("shard-exec-{i}"))
                    .spawn(move || {
                        // Metric handles resolved once per worker, not
                        // per job.
                        let wait_hist = obs::registry().histogram("exec.dispatch_wait_us");
                        let jobs_ctr = obs::registry().counter("exec.jobs");
                        while let Ok(job) = rx.recv() {
                            worker_load.depth.fetch_sub(1, Ordering::Relaxed);
                            if worker_poison.load(Ordering::SeqCst) {
                                // Dropping the job without running it drops
                                // its one-shot sender; the waiter observes
                                // the poison flag and reports `Poisoned`.
                                continue;
                            }
                            if obs::enabled() {
                                wait_hist.record(job.enqueued.elapsed().as_micros() as u64);
                                jobs_ctr.incr();
                            }
                            // Rejoin the submitter's trace for the job's
                            // duration (restored on scope drop).
                            let _trace = obs::trace::scope(job.trace);
                            let _span = obs::trace::span("exec.job");
                            let started = Instant::now();
                            // Jobs catch their own panics (setting the
                            // poison flag *before* dropping their one-shot
                            // sender); this is only a backstop.
                            let run = job.run;
                            let ran = catch_unwind(AssertUnwindSafe(|| run(&worker_store)));
                            worker_load.observe_busy(started.elapsed().as_micros() as u64);
                            if ran.is_err() {
                                worker_poison.store(true, Ordering::SeqCst);
                            }
                        }
                    })
                    .expect("spawn shard worker");
                Slot {
                    store,
                    tx: Some(tx),
                    worker: Some(worker),
                    poisoned,
                    load,
                }
            })
            .collect();
        ShardExecutor { slots }
    }

    /// Number of shards (and workers).
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// True once a job panicked on `shard` and it awaits replacement.
    pub fn is_poisoned(&self, shard: usize) -> bool {
        self.slots[shard].poisoned.load(Ordering::SeqCst)
    }

    /// Jobs currently enqueued for `shard` and not yet picked up by its
    /// worker.
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.slots[shard].load.depth.load(Ordering::Relaxed)
    }

    /// Exponentially-weighted moving average of job execution time on
    /// `shard` (microseconds of shard-lock hold per job); the busy-time
    /// signal a load balancer would act on.
    pub fn busy_ewma_us(&self, shard: usize) -> u64 {
        self.slots[shard].load.busy_ewma_us.load(Ordering::Relaxed)
    }

    /// Jobs executed on `shard`'s worker so far (direct
    /// [`ShardExecutor::with_shard`] calls not included).
    pub fn jobs_run(&self, shard: usize) -> u64 {
        self.slots[shard].load.jobs.load(Ordering::Relaxed)
    }

    fn slot(&self, shard: usize) -> Result<&Slot<S>, ExecError> {
        self.slots.get(shard).ok_or(ExecError::NoSuchShard(shard))
    }

    fn enqueue(&self, shard: usize, run: JobFn<S>) -> Result<(), ExecError> {
        let slot = self.slot(shard)?;
        let tx = slot.tx.as_ref().ok_or(ExecError::Shutdown)?;
        slot.load.depth.fetch_add(1, Ordering::Relaxed);
        tx.send(Job {
            run,
            trace: obs::trace::current(),
            enqueued: Instant::now(),
        })
        .map_err(|_| {
            slot.load.depth.fetch_sub(1, Ordering::Relaxed);
            ExecError::Shutdown
        })
    }

    /// Enqueue `f` on `shard`'s worker. Blocks only if the shard's queue
    /// is full (backpressure). Fails fast on a poisoned or shut-down
    /// shard without enqueueing.
    pub fn submit<T, F>(&self, shard: usize, f: F) -> Result<JobHandle<T>, ExecError>
    where
        T: Send + 'static,
        F: FnOnce(&mut S) -> T + Send + 'static,
    {
        let slot = self.slot(shard)?;
        if slot.poisoned.load(Ordering::SeqCst) {
            return Err(ExecError::Poisoned(shard));
        }
        let (done, rx) = sync_channel::<T>(1);
        let poison = Arc::clone(&slot.poisoned);
        let run: JobFn<S> = Box::new(move |store: &Mutex<S>| {
            let out = catch_unwind(AssertUnwindSafe(|| {
                let mut guard = store.lock();
                f(&mut guard)
                // Guard drops here: the result is reported below with
                // the shard unlocked.
            }));
            match out {
                // The waiter may have given up (deadline) — a send
                // failure just means nobody is listening any more.
                Ok(v) => {
                    let _ = done.send(v);
                }
                // Set the flag before `done` drops so a waiter woken by
                // the disconnect always classifies it as `Poisoned`,
                // never a spurious `Shutdown`.
                Err(_) => {
                    poison.store(true, Ordering::SeqCst);
                    drop(done);
                }
            }
        });
        self.enqueue(shard, run)?;
        Ok(JobHandle {
            shard,
            rx,
            poisoned: Arc::clone(&slot.poisoned),
        })
    }

    /// Enqueue `f` on `shard`'s worker without a handle: `complete`
    /// receives the result on the worker thread *after* the shard lock
    /// is released. This is the event-loop reply path — completions
    /// must not be sent while the shard is locked (a reply channel send
    /// under the shard mutex is exactly the hazard `sanity::sync`
    /// flags).
    pub fn submit_detached<T, F, C>(&self, shard: usize, f: F, complete: C) -> Result<(), ExecError>
    where
        T: Send + 'static,
        F: FnOnce(&mut S) -> T + Send + 'static,
        C: FnOnce(T) + Send + 'static,
    {
        let slot = self.slot(shard)?;
        if slot.poisoned.load(Ordering::SeqCst) {
            return Err(ExecError::Poisoned(shard));
        }
        let poison = Arc::clone(&slot.poisoned);
        let run: JobFn<S> = Box::new(move |store: &Mutex<S>| {
            let out = catch_unwind(AssertUnwindSafe(|| {
                let mut guard = store.lock();
                f(&mut guard)
            }));
            match out {
                Ok(v) => complete(v),
                Err(_) => poison.store(true, Ordering::SeqCst),
            }
        });
        self.enqueue(shard, run)
    }

    /// Lock `shard`'s backend on the *calling* thread and run `f`. This
    /// is the point-operation path: no queue hop, no boxing — an
    /// uncontended mutex acquisition. Serializes with the shard's worker
    /// through the same mutex, so job FIFO effects stay visible.
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&mut S) -> R) -> Result<R, ExecError> {
        let mut guard = self.slot(shard)?.store.lock();
        Ok(f(&mut guard))
    }

    /// Start a fan-out: spawn jobs on several shards, then join them all.
    pub fn batch<T: Send + 'static>(&self) -> Batch<'_, S, T> {
        Batch {
            exec: self,
            pending: Vec::new(),
        }
    }

    /// Swap in a replacement backend for `shard` (e.g. a store reopened
    /// by recovery) and clear the poison flag. Returns the previous
    /// backend. Waits for any running job on the shard to finish first.
    pub fn replace_shard(&self, shard: usize, store: S) -> S {
        let slot = &self.slots[shard];
        let mut guard = slot.store.lock();
        let old = std::mem::replace(&mut *guard, store);
        slot.poisoned.store(false, Ordering::SeqCst);
        old
    }

    /// Graceful shutdown: close every queue, let the workers drain all
    /// jobs already enqueued, and join them. Idempotent; called by Drop.
    pub fn shutdown(&mut self) {
        for slot in &mut self.slots {
            slot.tx = None; // closing the channel ends the worker loop
        }
        for slot in &mut self.slots {
            if let Some(worker) = slot.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

impl<S> Drop for ShardExecutor<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<S> std::fmt::Debug for ShardExecutor<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardExecutor")
            .field("shards", &self.slots.len())
            .finish()
    }
}

/// A scope-style fan-out over the executor: spawn any number of jobs,
/// then [`Batch::join`] them (optionally under one shared deadline).
pub struct Batch<'e, S, T> {
    exec: &'e ShardExecutor<S>,
    pending: Vec<(usize, Result<JobHandle<T>, ExecError>)>,
}

impl<S, T: Send + 'static> Batch<'_, S, T> {
    /// Enqueue `f` on `shard`. A submission failure (poisoned shard,
    /// shutdown) is recorded and surfaces from `join`, so one dead shard
    /// does not prevent fanning out to the others.
    pub fn spawn<F>(&mut self, shard: usize, f: F)
    where
        F: FnOnce(&mut S) -> T + Send + 'static,
    {
        let handle = self.exec.submit(shard, f);
        self.pending.push((shard, handle));
    }

    /// Wait for every spawned job; results in spawn order.
    pub fn join(self) -> Vec<(usize, Result<T, ExecError>)> {
        self.pending
            .into_iter()
            .map(|(shard, h)| (shard, h.and_then(JobHandle::wait)))
            .collect()
    }

    /// Like [`Batch::join`], but with one shared deadline `timeout` from
    /// now: any job not finished by then reports [`ExecError::TimedOut`]
    /// (it keeps running on its worker; per-shard FIFO is preserved).
    pub fn join_within(self, timeout: Duration) -> Vec<(usize, Result<T, ExecError>)> {
        let deadline = Instant::now() + timeout;
        self.pending
            .into_iter()
            .map(|(shard, h)| (shard, h.and_then(|h| h.wait_deadline(deadline))))
            .collect()
    }

    /// Wait jobs in spawn order only until `need` of them have produced a
    /// value `is_ok` accepts, then stop waiting. Jobs not waited on keep
    /// running detached on their workers (per-shard FIFO is preserved),
    /// which is the point: a quorum-acked replicated write returns as
    /// soon as enough replicas confirm, while the stragglers still apply
    /// the write in order. Returns only the results actually waited for.
    pub fn join_quorum(
        self,
        need: usize,
        is_ok: impl Fn(&T) -> bool,
    ) -> Vec<(usize, Result<T, ExecError>)> {
        let mut out = Vec::with_capacity(self.pending.len());
        let mut acked = 0usize;
        for (shard, h) in self.pending {
            if acked >= need {
                break; // remaining jobs run detached
            }
            let result = h.and_then(JobHandle::wait);
            if matches!(&result, Ok(v) if is_ok(v)) {
                acked += 1;
            }
            out.push((shard, result));
        }
        out
    }
}
