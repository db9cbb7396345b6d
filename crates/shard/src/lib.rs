//! # `shard` — a sharded, parallel `HyperStore`
//!
//! Partitions one HyperModel test database across N backend stores while
//! presenting a single [`hypermodel::HyperStore`]. One module per
//! decision:
//!
//! * [`router`] — deterministic placement ([`Placement::OidHash`] and
//!   [`Placement::SubtreeAffinity`]) plus the global ↔ local id directory
//!   and ghost-node bookkeeping;
//! * [`store`] — [`ShardedStore`]: point operations route to the owning
//!   shard, range lookups and scans fan out across all shards on
//!   persistent per-shard executor workers (`exec::ShardExecutor`) and
//!   merge, and the O10–O15 closures run level-batched frontier
//!   exchange so cross-shard round trips scale with traversal depth
//!   rather than node count;
//! * [`replica`] — [`ReplicaGroup`]: K mirrors behind one `HyperStore`;
//! * [`coordinator`] — crash-safe cross-shard commit: the two-phase
//!   protocol (presumed abort, parallel prepare with a per-shard
//!   deadline) and its durable decision log ([`CommitLog`]), which
//!   checkpoints itself once every shard has acknowledged a txid, plus
//!   [`recover_sharded`], which resolves in-doubt shards after a crash —
//!   after which [`ShardedStore::revive_shard`] or
//!   [`ShardedStore::replace_shard`] re-admits a shard health tracking
//!   had written off;
//! * `write` — every creation and edge write: placement of new nodes and
//!   the ghost stand-ins of cross-shard edges, a batch of writes sent as
//!   at most two requests per shard;
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
//!
//! ## Replication
//!
//! Replication is a layer, not a mode: a [`ReplicaGroup`] mirrors K
//! backends and *is* a `HyperStore`, so a replicated deployment is a
//! `ShardedStore<ReplicaGroup<S>>` ([`ShardedStore::new_replicated`]
//! chunks the members by K — group-major, primary first — and wraps each
//! chunk) and the sharded store keeps a single code path. Inside a
//! group, writes fan out to every healthy mirror under a configurable
//! [`WriteAck`] policy (primary / quorum / all); reads route to the
//! least-loaded healthy mirror using the executor queue-depth and
//! `busy_us` EWMA, failing over transparently when a mirror dies. A
//! demoted mirror is repaired at the group's next commit: the group
//! pulls an anti-entropy snapshot from a healthy peer
//! ([`hypermodel::HyperStore::sync_export`]) and installs it on the
//! lagging member ([`hypermodel::HyperStore::sync_import`] — carried over
//! the wire as `Request::SyncSubtree` / `Request::InstallSubtree` for
//! remote shards) before re-admitting it to the read path.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod coordinator;
pub mod migrate;
pub mod remote;
pub mod replica;
pub mod router;
pub mod store;
mod write;

pub use coordinator::{recover_sharded, CommitLog, ShardResolution};
pub use remote::{connect_sharded, connect_sharded_replicated};
pub use replica::{ReplicaGroup, WriteAck};
pub use router::{Placement, ShardRouter, GHOST_UID_BASE};
pub use store::{ScanPolicy, ShardedStore};
