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
//! worker thread. [`ShardExecutor::run_here`] runs work on the *calling*
//! thread under the same mutex: the point path, and the one share of a
//! fan-out the caller runs itself instead of idling in a join — there a
//! queue hop would *add* latency rather than remove it.
//! [`ShardExecutor::with_shard`] also locks on the caller, for
//! instrumentation that must reach a shard whatever its state. Per-shard
//! FIFO order holds for submitted jobs; work on the calling thread
//! serializes with running jobs through the mutex but does not queue
//! behind jobs still waiting in the channel.
//!
//! Panic isolation: a panicking job, or a panic inside `run_here`,
//! poisons only its own shard — the worker survives (the panic is
//! caught), the shard is flagged, and every subsequent submission,
//! `run_here` or pending wait reports [`ExecError::Poisoned`], which
//! callers map onto the structured [`HmError::ShardUnavailable`].
//! [`ShardExecutor::replace_shard`] swaps in a recovered backend and
//! clears the flag.

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
/// guard — it locks only around the caller's closure and sends its
/// result on the one-shot channel after the lock is released, so
/// results never travel over a channel while the shard is locked.
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
    /// EWMA of shard-lock hold time per job or `run_here` call,
    /// microseconds.
    busy_ewma_us: AtomicU64,
    /// Jobs executed on this shard's worker.
    jobs: AtomicU64,
}

impl SlotLoad {
    /// Lock `store` and, unless the shard is poisoned, run `f` on it
    /// under `catch_unwind`, folding the lock hold into the busy EWMA.
    /// `None` means `f` did not produce a value: the shard was poisoned
    /// already, or `f` panicked and poisoned it. Both the check and the
    /// flag happen under the lock, so nothing else runs on a shard
    /// between a panic and its poisoning.
    fn run_locked<S, T>(
        &self,
        store: &Mutex<S>,
        poisoned: &AtomicBool,
        f: impl FnOnce(&mut S) -> T,
    ) -> Option<T> {
        let mut guard = store.lock();
        if poisoned.load(Ordering::SeqCst) {
            return None;
        }
        let started = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| f(&mut guard))).ok();
        if out.is_none() {
            poisoned.store(true, Ordering::SeqCst);
        }
        // Written only with the shard lock held, so there is one writer
        // at a time and load+store is race-free.
        let us = started.elapsed().as_micros() as u64;
        let old = self.busy_ewma_us.load(Ordering::Relaxed);
        let new =
            old + (us.saturating_sub(old) >> EWMA_SHIFT) - (old.saturating_sub(us) >> EWMA_SHIFT);
        self.busy_ewma_us.store(new, Ordering::Relaxed);
        out
        // Guard drops here: callers report the result with the shard
        // unlocked.
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
                #[expect(
                    clippy::expect_used,
                    reason = "a pool that cannot start its workers has no error path to report through"
                )]
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
                            worker_load.jobs.fetch_add(1, Ordering::Relaxed);
                            if obs::enabled() {
                                wait_hist.record(job.enqueued.elapsed().as_micros() as u64);
                                jobs_ctr.incr();
                            }
                            // Rejoin the submitter's trace for the job's
                            // duration (restored on scope drop).
                            let _trace = obs::trace::scope(job.trace);
                            let _span = obs::trace::span("exec.job");
                            // Jobs catch their own panics (setting the
                            // poison flag *before* dropping their one-shot
                            // sender); this is only a backstop.
                            let run = job.run;
                            let ran = catch_unwind(AssertUnwindSafe(|| run(&worker_store)));
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
    pub fn is_poisoned(&self, shard: usize) -> Result<bool, ExecError> {
        Ok(self.slot(shard)?.poisoned.load(Ordering::SeqCst))
    }

    /// Jobs currently enqueued for `shard` and not yet picked up by its
    /// worker.
    pub fn queue_depth(&self, shard: usize) -> Result<usize, ExecError> {
        Ok(self.slot(shard)?.load.depth.load(Ordering::Relaxed))
    }

    /// Exponentially-weighted moving average of work time on `shard`
    /// (microseconds of shard-lock hold per worker job or
    /// [`ShardExecutor::run_here`] call); the busy-time signal a load
    /// balancer acts on.
    pub fn busy_ewma_us(&self, shard: usize) -> Result<u64, ExecError> {
        Ok(self.slot(shard)?.load.busy_ewma_us.load(Ordering::Relaxed))
    }

    /// Jobs executed on `shard`'s worker so far — queue hops only:
    /// [`ShardExecutor::run_here`] and [`ShardExecutor::with_shard`]
    /// calls are not included.
    pub fn jobs_run(&self, shard: usize) -> Result<u64, ExecError> {
        Ok(self.slot(shard)?.load.jobs.load(Ordering::Relaxed))
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
        let load = Arc::clone(&slot.load);
        let run: JobFn<S> = Box::new(move |store: &Mutex<S>| {
            // The waiter may have given up (deadline) — a send failure
            // just means nobody is listening any more. Without a value,
            // `run_locked` has set the poison flag before `done` drops
            // here, so a waiter woken by the disconnect always classifies
            // it as `Poisoned`, never a spurious `Shutdown`.
            if let Some(v) = load.run_locked(store, &poison, f) {
                let _ = done.send(v);
            }
        });
        self.enqueue(shard, run)?;
        Ok(JobHandle {
            shard,
            rx,
            poisoned: Arc::clone(&slot.poisoned),
        })
    }

    /// Run `f` on `shard`'s backend on the *calling* thread, with a
    /// worker job's panic isolation: a poisoned shard refuses, and a
    /// panic inside `f` poisons the shard and reports
    /// [`ExecError::Poisoned`] instead of unwinding into the caller. No
    /// queue hop, no boxing — an uncontended mutex acquisition. The lock
    /// hold feeds the shard's busy EWMA like a job's; it is not a queue
    /// hop, so neither [`ShardExecutor::jobs_run`] nor the `exec.jobs`
    /// counter counts it.
    ///
    /// It serializes with the shard's worker through the mutex but does
    /// not queue behind jobs waiting in the channel: callers that need
    /// FIFO order after submitted jobs use [`ShardExecutor::submit`].
    pub fn run_here<T>(&self, shard: usize, f: impl FnOnce(&mut S) -> T) -> Result<T, ExecError> {
        let slot = self.slot(shard)?;
        slot.load
            .run_locked(&slot.store, &slot.poisoned, f)
            .ok_or(ExecError::Poisoned(shard))
    }

    /// Lock `shard`'s backend on the *calling* thread and run `f`, with
    /// no poison check and no panic isolation — for instrumentation and
    /// fault plans, which must reach a shard whatever its state.
    /// Serializes with the shard's worker through the same mutex.
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
    pub fn replace_shard(&self, shard: usize, store: S) -> Result<S, ExecError> {
        let slot = self.slot(shard)?;
        let mut guard = slot.store.lock();
        let old = std::mem::replace(&mut *guard, store);
        slot.poisoned.store(false, Ordering::SeqCst);
        Ok(old)
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
