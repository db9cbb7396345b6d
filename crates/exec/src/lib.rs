//! `exec` — execution infrastructure for the sharded HyperModel store.
//!
//! Four layers, all dependency-free (raw `std` plus the in-tree
//! `parking_lot` compat shim):
//!
//! * [`Isolated`] — one store whose calls run under `catch_unwind`: a
//!   panic poisons that store only, and it refuses every later call
//!   until a sound backend replaces it. Every owner of shard backends
//!   holds them this way: the executor's slots, `shard::ReplicaGroup`'s
//!   members and `server::serve_multi`'s shards.
//! * [`ShardExecutor`] — a persistent per-shard worker pool. One
//!   long-lived thread per shard, fed over bounded channels, replaces
//!   the scoped-thread spawn+join (~15 µs/shard) the sharded store used
//!   to pay on every fan-out with a channel round trip (~3 µs), and
//!   [`ShardExecutor::run_here`] runs work on the calling thread with
//!   the same panic isolation. [`Batch`] gives scope-style
//!   fan-out/join.
//! * [`frame`] — the wire-frame format (`[u32 len][u64 trace][payload]`):
//!   its two constants, its one header writer and its one header
//!   parser/inbound buffer. It lives here, in the lowest crate that
//!   touches a socket, so the event loop and `server`'s TCP transport
//!   cannot disagree about it.
//! * [`EventLoop`] — a single-threaded nonblocking socket loop over raw
//!   `std::net`, hosting N listeners in one thread with per-connection
//!   read/write buffers. The [`FrameHandler`] answers each frame on the
//!   loop thread, writing the reply into one buffer the loop reuses for
//!   every frame, and says with a [`FrameOutcome`] whether to send it,
//!   send it and close, or hang up — so one process serves N shard
//!   ports without a thread per connection.
//!
//! `server` implements [`FrameHandler`] once and drives it two ways:
//! `serve_multi` runs it under an [`EventLoop`] over TCP, and `serve`
//! pumps frames to it from any one `Transport`. `shard::ShardedStore`
//! uses the pool on the client: a point operation runs on the calling
//! thread (`run_here`); a fan-out (range and scan reads, each level of a
//! batched closure, both rounds of a commit) runs the first involved
//! shard's share on the calling thread and queues the others on their
//! workers, and joins every job before it returns.

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
mod isolated;
mod pool;

pub use event_loop::{ConnId, EventLoop, FrameHandler, FrameOutcome, LoopStats};
pub use isolated::Isolated;
pub use pool::{Batch, ExecError, JobHandle, ShardExecutor};
