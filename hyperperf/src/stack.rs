//! Building the stack a workload drives, through the same public
//! constructors `hyperbench` uses.

use std::path::{Path, PathBuf};

use disk_backend::DiskStore;
use hypermodel::error::{HmError, Result};
use hypermodel::store::HyperStore;
use mem_backend::MemStore;
use rel_backend::RelStore;
use server::client::RemoteStore;
use server::MultiServer;
use shard::ShardedStore;
use storage::IoStats;

use crate::workloads::StackKind;

/// Pool frames a level-6 bulk load needs (64 MiB).
const LOAD_FRAMES: usize = 8192;

/// A built stack. Field order is drop order: the router's connections
/// close before the server that answers them stops.
pub enum Stack {
    /// `mem`.
    Mem(MemStore),
    /// `disk`.
    Disk(DiskStore, PathBuf),
    /// `rel`.
    Rel(RelStore, PathBuf),
    /// `sharded-tcp:2`.
    Tcp2(ShardedStore<RemoteStore>, MultiServer),
}

impl Stack {
    /// Create an empty store of `kind`; persistent backends put their
    /// files at `dir/<tag>.db`.
    pub fn build(kind: StackKind, dir: &Path, tag: &str) -> Result<Stack> {
        let path = dir.join(format!("{tag}.db"));
        Ok(match kind {
            StackKind::Mem => Stack::Mem(MemStore::new()),
            // The engine keeps a transaction's dirty pages in the pool
            // until commit, so a bulk load needs a pool that holds a
            // creation phase: load big, then `loaded` reopens small.
            StackKind::Disk { frames, .. } => {
                Stack::Disk(DiskStore::create(&path, frames.max(LOAD_FRAMES))?, path)
            }
            StackKind::Rel { frames } => Stack::Rel(RelStore::create(&path, frames)?, path),
            StackKind::Tcp2 => {
                let server = server::serve_multi(vec![MemStore::new(), MemStore::new()])?;
                let store =
                    shard::connect_sharded(&server.addr_strings(), shard::Placement::affinity())?;
                Stack::Tcp2(store, server)
            }
        })
    }

    /// Finish set-up once the database is loaded and committed: a disk
    /// store whose workload wants a pool smaller than the load needed is
    /// closed and opened again at that size.
    pub fn loaded(self, kind: StackKind) -> Result<Stack> {
        match (self, kind) {
            (Stack::Disk(store, path), StackKind::Disk { frames, .. }) if frames < LOAD_FRAMES => {
                drop(store);
                Ok(Stack::Disk(DiskStore::open(&path, frames)?, path))
            }
            (stack, _) => Ok(stack),
        }
    }

    /// The store, as the operations see it.
    pub fn store(&mut self) -> &mut dyn HyperStore {
        match self {
            Stack::Mem(s) => s,
            Stack::Disk(s, _) => s,
            Stack::Rel(s, _) => s,
            Stack::Tcp2(s, _) => s,
        }
    }

    /// The database file, for persistent backends.
    pub fn db_path(&self) -> Option<&Path> {
        match self {
            Stack::Disk(_, p) | Stack::Rel(_, p) => Some(p),
            _ => None,
        }
    }

    /// Bytes in the write-ahead log file right now.
    pub fn wal_bytes(&self) -> u64 {
        self.db_path()
            .and_then(|p| std::fs::metadata(storage::engine::wal_path_for(p)).ok())
            .map_or(0, |m| m.len())
    }

    /// Database plus log file bytes; `None` when nothing is stored.
    pub fn stored_bytes(&self) -> Option<u64> {
        let db = std::fs::metadata(self.db_path()?).ok()?.len();
        Some(db + self.wal_bytes())
    }

    /// Physical page I/O counters. Only `DiskStore` exposes its engine;
    /// `RelStore` has no public accessor, so its page counts read 0.
    pub fn io_stats(&self) -> IoStats {
        match self {
            Stack::Disk(s, _) => s.engine().pool_ref().io_stats(),
            _ => IoStats::default(),
        }
    }

    /// Requests the router has sent to its shards so far.
    pub fn shard_requests(&mut self) -> u64 {
        self.store()
            .shard_balance()
            .map_or(0, |loads| loads.iter().map(|l| l.requests).sum())
    }

    /// Stop the stack and delete its files.
    pub fn close(self) -> Result<()> {
        match self {
            Stack::Mem(_) => Ok(()),
            Stack::Disk(store, path) => {
                drop(store);
                remove_db(&path)
            }
            Stack::Rel(store, path) => {
                drop(store);
                remove_db(&path)
            }
            Stack::Tcp2(store, server) => {
                drop(store);
                server.stop().map(|_| ())
            }
        }
    }
}

/// Delete a database file and its log.
pub fn remove_db(path: &Path) -> Result<()> {
    for p in [path.to_path_buf(), storage::engine::wal_path_for(path)] {
        match std::fs::remove_file(&p) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(HmError::Backend(format!("remove {}: {e}", p.display()))),
        }
    }
    Ok(())
}
