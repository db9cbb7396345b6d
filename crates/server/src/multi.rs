//! [`serve_multi`]: one process hosting N shard servers on N ports.
//!
//! The blocking [`crate::server::serve`] loop needs one thread per
//! connection. This module instead runs a single nonblocking
//! [`exec::EventLoop`] that owns every listener, every connection and
//! every shard — listener `i` serves shard `i` — so an N-shard
//! deployment is one thread, regardless of connection count.
//!
//! Every frame goes through the same admission routine as the blocking
//! loop's, called the same way: `admit`, then `execute`, back to back on
//! the loop thread. Each shard's dedup cache lives beside its store, and
//! one request runs at a time, so the at-most-once decision for a tagged
//! request is taken in the shard's execution order and is shared by
//! every connection to that shard — a retry arriving on a second
//! connection is replayed, not run twice, and retries survive
//! reconnects. A request that panics poisons its shard only: it and
//! every later request to that shard are answered with
//! `ShardUnavailable`, and the other shards keep serving. `Shutdown`
//! closes the requesting connection only: the *server* outlives its
//! clients and stops via [`MultiServer::stop`].
//!
//! The price of one thread: the shards share a CPU. A request to one
//! shard waits behind a request to another, so a slow store (a remote
//! one, say) holds up every shard in the process.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use exec::{ConnId, EventLoop, ExecError, FrameHandler, FrameOutcome, Isolated, LoopStats};
use hypermodel::error::{HmError, Result};
use hypermodel::store::HyperStore;

use crate::protocol::{Request, Response};
use crate::server::{admit, execute, Admission, DedupCache, SessionStats};

/// Aggregate statistics for a stopped [`MultiServer`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MultiStats {
    /// Requests executed across all shards (excluding shutdowns and
    /// dedup replays).
    pub requests: u64,
    /// Error responses sent (malformed frames, store errors and
    /// requests refused by a poisoned shard).
    pub errors: u64,
    /// Tagged requests answered from a dedup cache without re-executing.
    pub replayed: u64,
    /// The event loop's connection/frame counters.
    pub loop_stats: LoopStats,
}

/// One hosted shard: its store, poisoned by a request that panics inside
/// it, and the at-most-once memory of what ran against it.
struct Shard<S> {
    store: Isolated<S>,
    cache: DedupCache,
}

/// Runs frames from listener `i` against shard `i`, on the loop thread.
struct MultiHandler<S> {
    shards: Vec<Shard<S>>,
    stats: SessionStats,
    /// Malformed-frame streak per connection.
    garbage: HashMap<ConnId, u32>,
}

impl<S: HyperStore> MultiHandler<S> {
    /// Execute `req` against `shard`, encoding the reply into `out`. A
    /// panic poisons the shard; a poisoned shard refuses with the error
    /// an executor reports for a poisoned shard.
    fn run_on_shard(&mut self, shard: usize, req: Request, out: &mut Vec<u8>) {
        if let Some(Shard { store, cache }) = self.shards.get_mut(shard) {
            let stats = &mut self.stats;
            if store
                .run(|store| execute(store, cache, req, stats, out))
                .is_some()
            {
                return;
            }
        }
        out.clear();
        self.stats.errors += 1;
        Response::Err(ExecError::Poisoned(shard).into_hm().to_string()).encode_into(out);
    }
}

impl<S: HyperStore> FrameHandler for MultiHandler<S> {
    fn on_frame(&mut self, conn: ConnId, frame: &[u8]) -> FrameOutcome {
        let mut out = Vec::new();
        let streak = self.garbage.entry(conn).or_insert(0);
        match admit(frame, streak, &mut self.stats, &mut out) {
            Admission::Execute(req) => {
                self.run_on_shard(conn.listener, req, &mut out);
                FrameOutcome::Reply(out)
            }
            Admission::Reply => FrameOutcome::Reply(out),
            // Closes this client's connection; the server keeps running.
            Admission::ReplyClose => FrameOutcome::ReplyClose(out),
            Admission::Close => FrameOutcome::Close,
        }
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
    join: Option<JoinHandle<Result<MultiStats>>>,
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
        Ok(self.halt()?.unwrap_or_default())
    }

    fn halt(&mut self) -> Result<Option<MultiStats>> {
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

/// Host every store in `shards` in one process, shard `i` on its own
/// freshly-bound localhost port (read them back with
/// [`MultiServer::addrs`]). One event-loop thread handles every
/// connection and executes every request.
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
    let mut handler = MultiHandler {
        shards: shards
            .into_iter()
            .map(|store| Shard {
                store: Isolated::new(store),
                cache: DedupCache::default(),
            })
            .collect(),
        stats: SessionStats::default(),
        garbage: HashMap::new(),
    };
    let join = std::thread::Builder::new()
        .name("serve-multi".into())
        .spawn(move || {
            let loop_stats = event_loop.run(&mut handler)?;
            let SessionStats {
                requests,
                errors,
                replayed,
            } = handler.stats;
            Ok(MultiStats {
                requests,
                errors,
                replayed,
                loop_stats,
            })
        })
        .map_err(|e| HmError::Backend(format!("spawn serve_multi loop: {e}")))?;
    Ok(MultiServer {
        addrs,
        stop,
        join: Some(join),
    })
}
