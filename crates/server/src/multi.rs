//! [`serve_multi`]: one process hosting N shard servers on N ports.
//!
//! The blocking [`crate::server::serve`] loop needs one thread per
//! connection. This module instead composes the `exec` crate's layers:
//! a single nonblocking [`exec::EventLoop`] owns every listener and
//! connection, and request *execution* is deferred onto the persistent
//! per-shard workers of an [`exec::ShardExecutor`] — listener `i`
//! serves shard `i`. An N-shard deployment runs on N workers plus one
//! loop thread, regardless of connection count.
//!
//! Every frame goes through the same admission routine as the blocking
//! loop's: `admit` on the loop thread when the frame arrives, then
//! `execute` on the shard's worker. Each shard's dedup cache lives
//! beside its store under the shard lock, so the at-most-once decision
//! for a tagged request is taken in the shard's execution order — a
//! retry arriving on a second connection while the first copy is still
//! queued or running is replayed, not run twice — and is shared by
//! every connection to that shard, so retries survive reconnects.
//! `Shutdown` closes the requesting connection only: the *server*
//! outlives its clients and stops via [`MultiServer::stop`].

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use exec::{Completions, ConnId, EventLoop, FrameHandler, FrameOutcome, LoopStats, ShardExecutor};
use hypermodel::error::{HmError, Result};
use hypermodel::store::HyperStore;

use crate::protocol::{Request, Response};
use crate::server::{admit, execute, Admission, DedupCache, SessionStats};

/// Counters shared between the loop thread, the shard workers and
/// [`MultiServer`].
#[derive(Default)]
struct Shared {
    requests: AtomicU64,
    errors: AtomicU64,
    replayed: AtomicU64,
}

impl Shared {
    fn add(&self, delta: &SessionStats) {
        self.requests.fetch_add(delta.requests, Ordering::Relaxed);
        self.errors.fetch_add(delta.errors, Ordering::Relaxed);
        self.replayed.fetch_add(delta.replayed, Ordering::Relaxed);
    }
}

/// Aggregate statistics for a stopped [`MultiServer`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MultiStats {
    /// Requests executed across all shards (excluding shutdowns and
    /// dedup replays).
    pub requests: u64,
    /// Error responses sent (malformed frames and store errors).
    pub errors: u64,
    /// Tagged requests answered from a dedup cache without re-executing.
    pub replayed: u64,
    /// The event loop's connection/frame counters.
    pub loop_stats: LoopStats,
}

/// Routes frames from listener `i` onto shard `i`'s executor worker.
struct MultiHandler<S> {
    /// Each shard's store with the at-most-once memory of what ran
    /// against it.
    exec: ShardExecutor<(S, DedupCache)>,
    shared: Arc<Shared>,
    /// Malformed-frame streak per connection.
    garbage: HashMap<ConnId, u32>,
}

impl<S: HyperStore + Send + 'static> MultiHandler<S> {
    /// Queue `req` for `conn`'s shard worker; its reply arrives through
    /// `done`.
    fn run_on_shard(&mut self, conn: ConnId, req: Request, done: &Completions) -> FrameOutcome {
        let shared = Arc::clone(&self.shared);
        let done = done.clone();
        // `execute` runs under the shard lock; the counters and the
        // completion send happen in the completion callback after the
        // worker has released it (`sanity::sync` flags sends performed
        // while a lock is held).
        let submitted = self.exec.submit_detached(
            conn.listener,
            move |(store, cache)| {
                let mut stats = SessionStats::default();
                let mut out = Vec::new();
                execute(store, cache, req, &mut stats, &mut out);
                (stats, out)
            },
            move |(stats, out)| {
                shared.add(&stats);
                done.send(conn, out);
            },
        );
        match submitted {
            Ok(()) => FrameOutcome::Pending,
            Err(e) => {
                // Poisoned or shut-down shard: answer with the structured
                // error instead of going silent.
                self.shared.errors.fetch_add(1, Ordering::Relaxed);
                let mut out = Vec::new();
                Response::Err(e.into_hm().to_string()).encode_into(&mut out);
                FrameOutcome::Reply(out)
            }
        }
    }
}

impl<S: HyperStore + Send + 'static> FrameHandler for MultiHandler<S> {
    fn on_frame(&mut self, conn: ConnId, frame: &[u8], done: &Completions) -> FrameOutcome {
        let mut stats = SessionStats::default();
        let mut out = Vec::new();
        let streak = self.garbage.entry(conn).or_insert(0);
        let outcome = match admit(frame, streak, &mut stats, &mut out) {
            Admission::Execute(req) => return self.run_on_shard(conn, req, done),
            Admission::Reply => FrameOutcome::Reply(out),
            // Closes this client's connection; the server keeps running.
            Admission::ReplyClose => FrameOutcome::ReplyClose(out),
            Admission::Close => FrameOutcome::Close,
        };
        self.shared.add(&stats);
        outcome
    }

    fn on_disconnect(&mut self, conn: ConnId) {
        self.garbage.remove(&conn);
    }
}

/// A running multi-shard server. Stops (and joins its loop thread) on
/// [`MultiServer::stop`] or drop.
#[derive(Debug)]
pub struct MultiServer {
    addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<Result<LoopStats>>>,
    shared: Arc<Shared>,
}

impl MultiServer {
    /// The bound address of each shard's listener, in shard order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The listener addresses as strings — the form the `shard` crate's
    /// `connect_sharded` takes. Shard `i` connects to element `i`.
    pub fn addr_strings(&self) -> Vec<String> {
        self.addrs.iter().map(|a| a.to_string()).collect()
    }

    /// Stop the loop, join its thread, and report what was served.
    pub fn stop(mut self) -> Result<MultiStats> {
        let loop_stats = self.halt()?.unwrap_or_default();
        Ok(MultiStats {
            requests: self.shared.requests.load(Ordering::Relaxed),
            errors: self.shared.errors.load(Ordering::Relaxed),
            replayed: self.shared.replayed.load(Ordering::Relaxed),
            loop_stats,
        })
    }

    fn halt(&mut self) -> Result<Option<LoopStats>> {
        self.stop.store(true, Ordering::SeqCst);
        match self.join.take() {
            Some(join) => match join.join() {
                Ok(r) => r.map(Some),
                Err(_) => Err(HmError::Backend("serve_multi loop panicked".into())),
            },
            None => Ok(None),
        }
    }
}

impl Drop for MultiServer {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("requests", &self.requests.load(Ordering::Relaxed))
            .finish()
    }
}

/// Host every store in `shards` in one process, shard `i` on its own
/// freshly-bound localhost port (read them back with
/// [`MultiServer::addrs`]). One event-loop thread handles all
/// connections; one persistent worker per shard executes requests.
pub fn serve_multi<S>(shards: Vec<S>) -> Result<MultiServer>
where
    S: HyperStore + Send + 'static,
{
    let binds: Vec<String> = shards.iter().map(|_| "127.0.0.1:0".to_string()).collect();
    serve_multi_on(shards, &binds)
}

/// [`serve_multi`] with explicit bind addresses, one per shard.
pub fn serve_multi_on<S>(shards: Vec<S>, binds: &[String]) -> Result<MultiServer>
where
    S: HyperStore + Send + 'static,
{
    if shards.len() != binds.len() {
        return Err(HmError::InvalidArgument(format!(
            "serve_multi: {} shards but {} bind addresses",
            shards.len(),
            binds.len()
        )));
    }
    let event_loop = EventLoop::bind(binds)?;
    let addrs = event_loop.local_addrs().to_vec();
    let stop = event_loop.stop_handle();
    let shared = Arc::new(Shared::default());
    let handler = MultiHandler {
        exec: ShardExecutor::new(
            shards
                .into_iter()
                .map(|store| (store, DedupCache::default()))
                .collect(),
        ),
        shared: Arc::clone(&shared),
        garbage: HashMap::new(),
    };
    let join = std::thread::Builder::new()
        .name("serve-multi".into())
        .spawn(move || event_loop.run(handler))
        .map_err(|e| HmError::Backend(format!("spawn serve_multi loop: {e}")))?;
    Ok(MultiServer {
        addrs,
        stop,
        join: Some(join),
        shared,
    })
}
