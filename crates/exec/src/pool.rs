//! [`ShardExecutor`]: one long-lived worker thread per shard, fed over
//! bounded channels.
//!
//! A persistent worker consumes jobs from a bounded queue, so a fan-out
//! costs one channel round trip (~3 µs) per shard, not a scoped-thread
//! spawn+join (~15 µs) — harness overhead that would dominate small
//! operations, which the measurement protocol warns against. The
//! executor keeps no load figures: a shard's load is the request count
//! its router keeps.
//!
//! Ownership: the executor owns each shard as an [`Isolated`] store
//! behind an `Arc<Mutex<_>>`. Jobs submitted through
//! [`ShardExecutor::submit`] run on the shard's worker thread.
//! [`ShardExecutor::run_here`] runs work on the *calling* thread under
//! the same mutex: the point path, and the one share of a fan-out the
//! caller runs itself instead of idling in a join — there a queue hop
//! would *add* latency rather than remove it.
//! [`ShardExecutor::with_shard`] also locks on the caller, for
//! instrumentation that must reach a shard whatever its state. Per-shard
//! FIFO order holds for submitted jobs; work on the calling thread
//! serializes with running jobs through the mutex but does not queue
//! behind jobs still waiting in the channel.
//!
//! Panic isolation is [`Isolated`]'s: a panicking job, or a panic inside
//! `run_here`, poisons only its own shard — the worker survives, the
//! shard is flagged, and every subsequent submission, `run_here` or
//! pending wait reports [`ExecError::Poisoned`], which callers map onto
//! the structured [`HmError::ShardUnavailable`].
//! [`ShardExecutor::replace_shard`] swaps in a recovered backend and
//! clears the flag.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use hypermodel::error::HmError;
use sanity::sync::mpsc::{sync_channel, Receiver, SyncSender};
use sanity::sync::Mutex;

use crate::Isolated;

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
            ExecError::Lost(s) => write!(f, "shard {s} worker lost without a result"),
            ExecError::NoSuchShard(s) => write!(f, "no shard {s} in this executor"),
        }
    }
}

impl std::error::Error for ExecError {}

impl ExecError {
    /// The structured store-level error this failure maps onto: shard
    /// failures become [`HmError::ShardUnavailable`], feeding the
    /// sharded store's health tracking.
    pub fn into_hm(self) -> HmError {
        match self {
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
type JobFn<S> = Box<dyn FnOnce(&Mutex<Isolated<S>>) + Send>;

/// A unit of work for a shard worker. Besides the body, it carries the
/// submitter's trace id (reinstalled on the worker for its duration)
/// and its enqueue time (feeding the `exec.dispatch_wait_us`
/// histogram).
struct Job<S> {
    run: JobFn<S>,
    trace: u64,
    enqueued: Instant,
}

struct Slot<S> {
    store: Arc<Mutex<Isolated<S>>>,
    tx: Option<SyncSender<Job<S>>>,
    worker: Option<JoinHandle<()>>,
}

/// A pool of persistent per-shard workers owning the shard backends.
pub struct ShardExecutor<S> {
    slots: Vec<Slot<S>>,
}

/// The pending result of a submitted job: its value, or `None` when
/// the shard was poisoned or the job panicked.
#[derive(Debug)]
pub struct JobHandle<T> {
    shard: usize,
    rx: Receiver<Option<T>>,
}

impl<T> JobHandle<T> {
    /// The shard this job runs on.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Block until the job finishes and return its value.
    pub fn wait(self) -> Result<T, ExecError> {
        match self.rx.recv() {
            Ok(Some(v)) => Ok(v),
            Ok(None) => Err(ExecError::Poisoned(self.shard)),
            Err(_) => Err(ExecError::Lost(self.shard)),
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
                let store = Arc::new(Mutex::new(Isolated::new(shard)));
                let (tx, rx) = sync_channel::<Job<S>>(QUEUE_CAP);
                let worker_store = Arc::clone(&store);
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
                            wait_hist.record(job.enqueued.elapsed().as_micros() as u64);
                            jobs_ctr.incr();
                            // Rejoin the submitter's trace for the job's
                            // duration (restored on scope drop).
                            let _trace = obs::trace::scope(job.trace);
                            // The body cannot unwind: `Isolated::run`
                            // catches a panic in the caller's closure.
                            (job.run)(&worker_store);
                        }
                    })
                    .expect("spawn shard worker");
                Slot {
                    store,
                    tx: Some(tx),
                    worker: Some(worker),
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
        Ok(self.slot(shard)?.store.lock().is_poisoned())
    }

    fn slot(&self, shard: usize) -> Result<&Slot<S>, ExecError> {
        self.slots.get(shard).ok_or(ExecError::NoSuchShard(shard))
    }

    fn enqueue(&self, shard: usize, run: JobFn<S>) -> Result<(), ExecError> {
        let slot = self.slot(shard)?;
        let tx = slot.tx.as_ref().ok_or(ExecError::Shutdown)?;
        tx.send(Job {
            run,
            trace: obs::trace::current(),
            enqueued: Instant::now(),
        })
        .map_err(|_| ExecError::Shutdown)
    }

    /// Enqueue `f` on `shard`'s worker. Blocks only if the shard's queue
    /// is full (backpressure). Fails fast on a poisoned or shut-down
    /// shard without enqueueing.
    pub fn submit<T, F>(&self, shard: usize, f: F) -> Result<JobHandle<T>, ExecError>
    where
        T: Send + 'static,
        F: FnOnce(&mut S) -> T + Send + 'static,
    {
        if self.is_poisoned(shard)? {
            return Err(ExecError::Poisoned(shard));
        }
        let (done, rx) = sync_channel::<Option<T>>(1);
        let run: JobFn<S> = Box::new(move |store: &Mutex<Isolated<S>>| {
            // The job's span is recorded and the shard unlocked before
            // the result is sent: once a waiter has the result, the job
            // has left no trace still to come.
            let out = {
                let _span = obs::trace::span("exec.job");
                store.lock().run(f)
            };
            let _ = done.send(out);
        });
        self.enqueue(shard, run)?;
        Ok(JobHandle { shard, rx })
    }

    /// Run `f` on `shard`'s backend on the *calling* thread, with a
    /// worker job's panic isolation: a poisoned shard refuses, and a
    /// panic inside `f` poisons the shard and reports
    /// [`ExecError::Poisoned`] instead of unwinding into the caller. No
    /// queue hop, no boxing — an uncontended mutex acquisition. It is
    /// not a queue hop, so the `exec.jobs` counter does not count it.
    ///
    /// It serializes with the shard's worker through the mutex but does
    /// not queue behind jobs waiting in the channel: callers that need
    /// FIFO order after submitted jobs use [`ShardExecutor::submit`].
    pub fn run_here<T>(&self, shard: usize, f: impl FnOnce(&mut S) -> T) -> Result<T, ExecError> {
        let slot = self.slot(shard)?;
        let out = slot.store.lock().run(f);
        out.ok_or(ExecError::Poisoned(shard))
    }

    /// Lock `shard`'s backend on the *calling* thread and run `f`, with
    /// no poison check and no panic isolation — for instrumentation and
    /// fault plans, which must reach a shard whatever its state.
    /// Serializes with the shard's worker through the same mutex.
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&mut S) -> R) -> Result<R, ExecError> {
        let mut guard = self.slot(shard)?.store.lock();
        Ok(f(guard.get_mut()))
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
        let old = self.slot(shard)?.store.lock().replace(store);
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
/// then [`Batch::join`] them.
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
}
