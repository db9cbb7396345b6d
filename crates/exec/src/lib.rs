//! `exec` — execution infrastructure for the sharded HyperModel store.
//!
//! Three layers, all dependency-free (raw `std` plus the in-tree
//! `parking_lot` compat shim):
//!
//! * [`ShardExecutor`] — a persistent per-shard worker pool. One
//!   long-lived thread per shard, fed over bounded channels, replaces
//!   the scoped-thread spawn+join (~15 µs/shard) the sharded store used
//!   to pay on every fan-out with a channel round trip (~3 µs). Panic
//!   isolation poisons only the offending shard; [`Batch`] gives
//!   scope-style fan-out/join with an optional shared deadline.
//! * [`frame`] — the wire-frame format (`[u32 len][u64 trace][payload]`):
//!   its two constants, its one header writer and its one header
//!   parser/inbound buffer. It lives here, in the lowest crate that
//!   touches a socket, so the event loop and `server`'s TCP transport
//!   cannot disagree about it.
//! * [`EventLoop`] — a single-threaded nonblocking socket loop over raw
//!   `std::net`, hosting N listeners in one thread with per-connection
//!   read/write buffers. Request execution is deferred onto the shard
//!   executors via [`Completions`], so one process serves N shard ports
//!   without a thread per connection.
//!
//! `server::serve_multi` composes the last two into a single-process
//! multi-shard server; `shard::ShardedStore` routes every fan-out,
//! level-batched closure, and parallel 2PC prepare through the pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event_loop;
pub mod frame;
mod pool;

pub use event_loop::{Completions, ConnId, EventLoop, FrameHandler, FrameOutcome, LoopStats};
pub use pool::{Batch, ExecError, JobHandle, ShardExecutor};
