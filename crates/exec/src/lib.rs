//! `exec` — execution infrastructure for the sharded HyperModel store.
//!
//! Three layers, all dependency-free (raw `std` plus the in-tree
//! `parking_lot` compat shim):
//!
//! * [`ShardExecutor`] — a persistent per-shard worker pool. One
//!   long-lived thread per shard, fed over bounded channels, replaces
//!   the scoped-thread spawn+join (~15 µs/shard) the sharded store used
//!   to pay on every fan-out with a channel round trip (~3 µs), and
//!   [`ShardExecutor::run_here`] runs work on the calling thread with
//!   the same panic isolation. A panic poisons only the offending shard;
//!   [`Batch`] gives scope-style fan-out/join with an optional shared
//!   deadline.
//! * [`frame`] — the wire-frame format (`[u32 len][u64 trace][payload]`):
//!   its two constants, its one header writer and its one header
//!   parser/inbound buffer. It lives here, in the lowest crate that
//!   touches a socket, so the event loop and `server`'s TCP transport
//!   cannot disagree about it.
//! * [`EventLoop`] — a single-threaded nonblocking socket loop over raw
//!   `std::net`, hosting N listeners in one thread with per-connection
//!   read/write buffers. The [`FrameHandler`] answers each frame on the
//!   loop thread, so one process serves N shard ports without a thread
//!   per connection.
//!
//! `server::serve_multi` builds a single-process multi-shard server on
//! the last two. `shard::ShardedStore` uses the pool on the client: a
//! point operation runs on the calling thread (`run_here`); a fan-out
//! (range and scan reads, each level of a batched closure, commit) runs
//! the first involved shard's share on the calling thread and queues the
//! others on their workers; the 2PC prepare round queues every shard
//! under one deadline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

mod event_loop;
pub mod frame;
mod pool;

pub use event_loop::{ConnId, EventLoop, FrameHandler, FrameOutcome, LoopStats};
pub use pool::{Batch, ExecError, JobHandle, ShardExecutor};
