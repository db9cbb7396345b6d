//! # `shard` — a sharded, parallel `HyperStore`
//!
//! Partitions one HyperModel test database across N backend stores while
//! presenting a single [`hypermodel::HyperStore`]. One module per
//! decision:
//!
//! * [`router`] — deterministic placement ([`Placement::OidHash`] and
//!   [`Placement::SubtreeAffinity`]), the global ↔ local id directory,
//!   ghost-node bookkeeping, and the one mapping of the ids in a shard's
//!   answer back to global ids;
//! * [`store`] — [`ShardedStore`]: shard health, point routes generated
//!   from the operation catalogue (`hypermodel::store_ops!`, every row
//!   with an `about` column except the closures), and range lookups and
//!   scans fanned out across all shards and merged — the first shard's
//!   share on the calling thread, the others on persistent per-shard
//!   executor workers (`exec::ShardExecutor`), every job joined before
//!   the call returns;
//! * `closure` — the O10–O15 and O18 closures and the subtree of a
//!   migration: one level collector (one batched request per shard per
//!   BFS level, so cross-shard round trips scale with traversal depth
//!   rather than node count) replayed in the trait defaults' order;
//! * `write` — every creation and edge write: placement of new nodes and
//!   the ghost stand-ins of cross-shard edges, a batch of writes sent as
//!   at most two requests per shard;
//! * [`replica`] — [`ReplicaGroup`]: K mirrors behind one `HyperStore`,
//!   so a replicated deployment is a `ShardedStore<ReplicaGroup<S>>`
//!   ([`ShardedStore::new_replicated`]) on the same code path. The group
//!   calls its members one after another on the caller's thread: reads
//!   with failover, writes to every healthy member, anti-entropy repair;
//! * [`coordinator`] — crash-safe cross-shard commit: the two-phase
//!   protocol (presumed abort, prepare through the ordinary fan-out)
//!   and its durable decision log ([`CommitLog`]), plus
//!   [`recover_sharded`], which resolves in-doubt shards after a crash —
//!   after which [`ShardedStore::revive_shard`] or
//!   [`ShardedStore::replace_shard`] re-admits a shard health tracking
//!   had written off;
//! * [`migrate`] — online subtree migration
//!   ([`ShardedStore::migrate_subtree`]);
//! * [`remote`] — composition with `server::RemoteStore`: N TCP servers
//!   behind one router, each shard one wire connection.
//!
//! The store also degrades gracefully: per-shard health is tracked, point
//! operations to a dead shard fail fast with the structured
//! [`hypermodel::error::HmError::ShardUnavailable`], and fan-out reads
//! follow a caller-chosen [`ScanPolicy`] (fail atomically, or complete
//! over the healthy shards with an explicit partial-result marker).
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

pub use coordinator::{recover_sharded, CommitLog, ShardResolution};
pub use remote::{connect_sharded, connect_sharded_replicated};
pub use replica::ReplicaGroup;
pub use router::{Placement, ShardRouter, GHOST_UID_BASE};
pub use store::{ScanPolicy, ShardedStore};
