//! # `shard` — a sharded, parallel `HyperStore`
//!
//! Partitions one HyperModel test database across N backend stores while
//! presenting a single [`hypermodel::HyperStore`]. One module per
//! decision:
//!
//! * [`router`] — placement ([`Placement::OidHash`],
//!   [`Placement::SubtreeAffinity`]), the global ↔ local id directory and
//!   ghost bookkeeping, and the one mapping of a shard's answer back to
//!   global ids;
//! * [`store`] — [`ShardedStore`], a `hypermodel::Service`: shard health,
//!   point routes by a request's subject, and fan-outs, the first shard's
//!   share on the calling thread and the others on per-shard executor
//!   workers (`exec::ShardExecutor`);
//! * `closure` — the O10–O15 and O18 closures and a migration's subtree:
//!   rounds of one `expand` per shard with work, each shard walking its
//!   part to the shard boundary, replayed in the trait defaults' order;
//! * `write` — every creation and edge write: placement and the ghost
//!   stand-ins of cross-shard edges, at most two requests per shard;
//! * [`replica`] — [`ReplicaGroup`]: K mirrors behind one store, so a
//!   replicated deployment is a `ShardedStore<ReplicaGroup<S>>`
//!   ([`ShardedStore::new_replicated`]) on the same code path;
//! * [`coordinator`] — crash-safe cross-shard commit (two-phase,
//!   presumed abort), its decision log ([`CommitLog`]) and
//!   [`recover_sharded`] for in-doubt shards after a crash;
//! * [`migrate`] — online subtree migration
//!   ([`ShardedStore::migrate_subtree`]);
//! * [`remote`] — N TCP servers behind one router, each shard one
//!   `server::RemoteStore` connection.
//!
//! The store also degrades gracefully: per-shard health is tracked, and
//! point operations and fan-out reads that need a dead shard fail fast
//! with the structured
//! [`hypermodel::error::HmError::ShardUnavailable`].
//!
//! The deployment is oblivious to the backend: `ShardedStore<MemStore>`,
//! `ShardedStore<DiskStore>` and `ShardedStore<RemoteStore>` all behave
//! identically up to timing, and the workspace conformance tests hold the
//! sharded stores to byte-identical oracle output.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod closure;
pub mod coordinator;
pub mod migrate;
pub mod remote;
pub mod replica;
pub mod router;
pub mod store;
mod write;

pub use coordinator::{recover_sharded, recover_sharded_in, CommitLog, ShardResolution};
pub use remote::{connect_sharded, connect_sharded_replicated};
pub use replica::ReplicaGroup;
pub use router::{Placement, ShardRouter, GHOST_UID_BASE};
pub use store::ShardedStore;
