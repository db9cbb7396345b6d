//! [`serve_multi`]: one process hosting N shard servers on N ports.
//!
//! A single nonblocking [`exec::EventLoop`] owns every listener, every
//! connection and every shard — listener `i` serves shard `i` — so an
//! N-shard deployment is one thread, regardless of connection count.
//! The loop hands each frame to the one frame handler
//! ([`crate::server`]), the same one [`crate::serve`] pumps frames to
//! from a single transport. `Shutdown` closes the requesting connection
//! only: the *server* outlives its clients and stops via
//! [`MultiServer::stop`]. A request that panics poisons its shard only;
//! the other shards keep serving.
//!
//! The price of one thread: the shards share a CPU. A request to one
//! shard waits behind a request to another, so a slow store (a remote
//! one, say) holds up every shard in the process.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use exec::EventLoop;
use hypermodel::error::{HmError, Result};
use hypermodel::store::HyperStore;

use crate::server::{Handler, MultiStats};

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
    let mut handler = Handler::new(shards);
    let join = std::thread::Builder::new()
        .name("serve-multi".into())
        .spawn(move || {
            let loop_stats = event_loop.run(&mut handler)?;
            Ok(MultiStats {
                loop_stats,
                ..handler.stats
            })
        })
        .map_err(|e| HmError::Backend(format!("spawn serve_multi loop: {e}")))?;
    Ok(MultiServer {
        addrs,
        stop,
        join: Some(join),
    })
}
