//! The storage engine facade: pool + log + catalog + transactions.
//!
//! An [`Engine`] owns one database file and its write-ahead log. Backends
//! build heaps and B+Trees on top and persist their root page ids in the
//! engine's **catalog** — a name → `u64` map stored on the meta page.
//!
//! # Transactions
//!
//! The engine exposes coarse *engine transactions*: mutate pages through
//! the pool, then [`Engine::commit`]. One function stages a transaction
//! for [`Engine::commit`] and [`Engine::prepare`] alike, in three steps:
//!
//! 1. The dirty pages at or past the file's **durable end** are written to
//!    the database file, and the file is `fdatasync`ed. The durable end is
//!    the file's page count after the last commit or prepare: 0 at
//!    [`Engine::create`], the file's length at [`Engine::open`]. A page
//!    past it is one the file has never held, so no committed state can
//!    reach it, and nothing is logged for it.
//! 2. Every other changed dirty page is logged as a
//!    [`crate::wal::PageDelta`] against the before-image the pool kept:
//!    the chunks the transaction's writes saved. Only those chunks are
//!    compared and diffed (the rest of the page is as it was), except in
//!    a page's zero-based record, which encodes the whole page.
//! 3. The commit (or prepare) marker is appended, and the log is written
//!    and fsynced once.
//!
//! A commit then writes nothing more: the pool is **no-force**
//! ([`crate::buffer`], write policy). Its logged pages stay in the pool,
//! clean and *unwritten*, and reach the file — without an fsync — when
//! eviction picks them, when [`Engine::checkpoint`] flushes the pool
//! before its fsync and log truncate, or when [`Engine::prepare`] writes
//! the committed bytes back before it stages, so that
//! [`Engine::abort_prepared`] can drop every frame. Until then the log
//! alone holds them, which is all recovery reads for a logged page.
//! A crash before the marker leaves only unreferenced pages past the old
//! end, which leak like those of an aborted prepare. Every extension of
//! the file is synced before a marker can name it, so recovery never grows
//! the file. What a crash may leave of each step is the crash model of
//! [`crate::vfs`]. A bulk load writes its pages once, to the file, and
//! leaves the log nearly empty; the first later change to such a page logs
//! its image (the base rule of [`crate::wal`]).
//!
//! The benchmark measures commit time as part of update operations, as
//! the paper requires ("database-commit-time should be included"), so the
//! cost is kept proportional to the bytes a transaction changed: a page
//! fetched for writing but left as it was is neither logged nor written,
//! and a changed page is written to the log only.
//!
//! Higher-level concurrency (locking, optimistic validation, workspaces)
//! lives in the `concurrency` crate; the engine itself is single-writer.

use std::path::{Path, PathBuf};

use crate::buffer::BufferPool;
use crate::disk::DiskManager;
use crate::error::{Result, StorageError};
use crate::page::{PageId, HEADER_SIZE, PAGE_SIZE};
use crate::recovery::{recover, RecoveryReport};
use crate::vfs::{OsFs, Vfs};
use crate::wal::Wal;

const CATALOG_MAGIC: u32 = 0x4859_4D43; // "HYMC"
                                        // The first 8 payload bytes of the meta page hold the free-list head
                                        // (see `page::META_FREELIST_OFFSET`); the catalog follows it.
const CAT_MAGIC_OFF: usize = HEADER_SIZE + 8;
const CAT_COUNT_OFF: usize = HEADER_SIZE + 12;
const CAT_ENTRIES_OFF: usize = HEADER_SIZE + 14;

/// Statistics returned by [`Engine::commit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Pages the commit wrote: those past the durable end to the file,
    /// and those whose changes it logged.
    pub pages: usize,
    /// Bytes appended to the log for this commit.
    pub wal_bytes: u64,
}

/// A single-file storage engine with page cache, redo log and catalog.
pub struct Engine {
    pool: BufferPool,
    wal: Wal,
    db_path: PathBuf,
    wal_path: PathBuf,
    txn_counter: u64,
    commits: u64,
    /// Transaction staged by [`Engine::prepare`], awaiting a decision.
    prepared: Option<u64>,
    /// The file's page count after the last commit or prepare: a dirty
    /// page at or past it goes to the file, not the log.
    durable_end: u64,
}

/// The record that ends a staged transaction.
enum Marker {
    Commit(u64),
    Prepare(u64),
}

/// The write-ahead-log path the engine uses for a database at `db_path`
/// (the db path with `.wal` appended). Public so coordinators can inspect
/// a closed database's log for in-doubt transactions without opening it.
pub fn wal_path_for(db_path: &Path) -> PathBuf {
    let mut p = db_path.as_os_str().to_os_string();
    p.push(".wal");
    PathBuf::from(p)
}

impl Engine {
    /// Create a new database at `db_path` with a pool of `pool_frames`.
    /// Its empty catalog is committed before this returns.
    pub fn create(db_path: &Path, pool_frames: usize) -> Result<Engine> {
        Engine::create_in(&OsFs, db_path, pool_frames)
    }

    /// [`Engine::create`] with the database and its log in `fs`.
    pub fn create_in(fs: &dyn Vfs, db_path: &Path, pool_frames: usize) -> Result<Engine> {
        let wal_path = wal_path_for(db_path);
        let _ = fs.remove(&wal_path); // stale log from a deleted db
        let disk = DiskManager::create(fs, db_path)?;
        let mut engine = Engine {
            pool: BufferPool::new(disk, pool_frames),
            wal: Wal::open(fs, &wal_path)?,
            db_path: db_path.to_path_buf(),
            wal_path,
            txn_counter: 0,
            commits: 0,
            prepared: None,
            durable_end: 0,
        };
        engine.init_catalog()?;
        // The meta page too goes to the file before any marker, so an
        // aborted first transaction finds the empty catalog there.
        engine.commit()?;
        Ok(engine)
    }

    /// Open an existing database, running crash recovery first if the log
    /// is non-empty. Returns the engine and the recovery report.
    pub fn open(db_path: &Path, pool_frames: usize) -> Result<(Engine, RecoveryReport)> {
        Engine::open_in(&OsFs, db_path, pool_frames)
    }

    /// [`Engine::open`] with the database and its log in `fs`.
    pub fn open_in(
        fs: &dyn Vfs,
        db_path: &Path,
        pool_frames: usize,
    ) -> Result<(Engine, RecoveryReport)> {
        let wal_path = wal_path_for(db_path);
        let report = recover(fs, db_path, &wal_path)?;
        let disk = DiskManager::open(fs, db_path)?;
        let durable_end = disk.page_count();
        let mut engine = Engine {
            pool: BufferPool::new(disk, pool_frames),
            wal: Wal::open(fs, &wal_path)?,
            db_path: db_path.to_path_buf(),
            wal_path,
            txn_counter: 0,
            commits: 0,
            prepared: None,
            durable_end,
        };
        engine.read_catalog()?; // validates the catalog magic
        Ok((engine, report))
    }

    /// Path of the database file.
    pub fn db_path(&self) -> &Path {
        &self.db_path
    }

    /// Path of the write-ahead log.
    pub fn wal_path(&self) -> &Path {
        &self.wal_path
    }

    /// The buffer pool, through which all page access flows.
    pub fn pool(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    /// Immutable pool access (stats).
    pub fn pool_ref(&self) -> &BufferPool {
        &self.pool
    }

    /// Number of commits performed by this handle.
    pub fn commit_count(&self) -> u64 {
        self.commits
    }

    /// Total database file size in bytes.
    pub fn file_size(&self) -> u64 {
        self.pool.disk().file_size()
    }

    /// Bytes stored for this database: the file plus its log.
    pub fn stored_bytes(&self) -> u64 {
        self.file_size() + self.wal.durable_len()
    }

    // ---- catalog -------------------------------------------------------

    fn init_catalog(&mut self) -> Result<()> {
        let mut page = self.pool.page_mut(PageId::META)?;
        page.write_u32(CAT_MAGIC_OFF, CATALOG_MAGIC);
        page.write_u16(CAT_COUNT_OFF, 0);
        Ok(())
    }

    fn read_catalog(&mut self) -> Result<Vec<(String, u64)>> {
        let page = self.pool.page(PageId::META)?;
        if page.read_u32(CAT_MAGIC_OFF) != CATALOG_MAGIC {
            return Err(StorageError::Corruption {
                page: Some(0),
                detail: "bad catalog magic".into(),
            });
        }
        let count = page.read_u16(CAT_COUNT_OFF) as usize;
        let mut entries = Vec::with_capacity(count);
        let mut off = CAT_ENTRIES_OFF;
        for _ in 0..count {
            let name_len = page.bytes()[off] as usize;
            off += 1;
            let name =
                String::from_utf8(page.read_bytes(off, name_len).to_vec()).map_err(|_| {
                    StorageError::Corruption {
                        page: Some(0),
                        detail: "catalog name is not utf-8".into(),
                    }
                })?;
            off += name_len;
            let value = page.read_u64(off);
            off += 8;
            entries.push((name, value));
        }
        Ok(entries)
    }

    fn write_catalog(&mut self, entries: &[(String, u64)]) -> Result<()> {
        let needed: usize =
            CAT_ENTRIES_OFF + entries.iter().map(|(n, _)| 1 + n.len() + 8).sum::<usize>();
        if needed > PAGE_SIZE {
            return Err(StorageError::InvalidArgument(
                "catalog overflow: too many named roots".into(),
            ));
        }
        let mut page = self.pool.page_mut(PageId::META)?;
        page.write_u16(CAT_COUNT_OFF, entries.len() as u16);
        let mut off = CAT_ENTRIES_OFF;
        for (name, value) in entries {
            if name.len() > 255 {
                return Err(StorageError::InvalidArgument(
                    "catalog name too long".into(),
                ));
            }
            page.write_bytes(off, &[name.len() as u8]);
            off += 1;
            page.write_bytes(off, name.as_bytes());
            off += name.len();
            page.write_u64(off, *value);
            off += 8;
        }
        Ok(())
    }

    /// Set (insert or replace) catalog entry `name = value`. Becomes
    /// durable at the next commit.
    pub fn catalog_set(&mut self, name: &str, value: u64) -> Result<()> {
        let mut entries = self.read_catalog()?;
        match entries.iter_mut().find(|(n, _)| n == name) {
            Some(e) => e.1 = value,
            None => entries.push((name.to_string(), value)),
        }
        self.write_catalog(&entries)
    }

    /// Look up catalog entry `name`.
    pub fn catalog_get(&mut self, name: &str) -> Result<u64> {
        self.read_catalog()?
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .ok_or_else(|| StorageError::CatalogMissing(name.to_string()))
    }

    /// Look up catalog entry `name`, returning `None` when absent.
    pub fn catalog_try_get(&mut self, name: &str) -> Result<Option<u64>> {
        Ok(self
            .read_catalog()?
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v))
    }

    // ---- transactions --------------------------------------------------

    /// Stage the open transaction, ended by `marker`, as the module doc
    /// describes.
    fn stage(&mut self, marker: Marker) -> Result<CommitStats> {
        let before = self.wal.appended_bytes();
        let mut pages = 0;
        let end = self.pool.disk().page_count();
        if end > self.durable_end {
            pages = self.pool.flush_from(PageId(self.durable_end))?;
            self.pool.sync()?;
            // A marker may name these pages from here on, so whatever
            // changes them next is logged, even if this commit fails.
            self.durable_end = end;
        }
        pages += self.log_dirty_pages();
        match marker {
            Marker::Commit(txn) => self.wal.append_commit(txn),
            Marker::Prepare(txid) => self.wal.append_prepare(txid),
        }
        self.wal.sync()?;
        Ok(CommitStats {
            pages,
            wal_bytes: self.wal.appended_bytes() - before,
        })
    }

    /// Stage one delta record per changed dirty page in the log buffer
    /// (no I/O) and return how many. What each record is a delta against
    /// is the log's decision (the base rule of [`crate::wal`]). A page
    /// with a before-image is compared, and diffed, in the chunks it
    /// saved only: the pool's writers left every other byte as it was.
    fn log_dirty_pages(&mut self) -> usize {
        let wal = &mut self.wal;
        let (mut pages, mut saved_bytes, mut delta_bytes) = (0, 0, 0);
        self.pool.for_each_dirty(|id, before, page| {
            if let Some(saved) = before {
                saved_bytes += saved.len() as u64;
                if saved.unchanged(page.bytes()) {
                    return false;
                }
            }
            pages += 1;
            delta_bytes += wal.append_page_delta(id, before, page.bytes());
            true
        });
        obs::observe("storage.commit.pages", pages as u64);
        obs::observe("storage.commit.saved_bytes", saved_bytes);
        obs::observe("storage.commit.delta_bytes", delta_bytes);
        pages
    }

    /// The transaction whose commit marker was just synced is complete:
    /// its logged pages stay in the pool, unwritten, and it is counted.
    fn finish_commit(&mut self) {
        self.pool.mark_committed();
        self.commits += 1;
    }

    /// Commit all dirty pages: stage them (see the module doc) and leave
    /// the logged ones in the pool for eviction or a checkpoint to write.
    pub fn commit(&mut self) -> Result<CommitStats> {
        if let Some(txid) = self.prepared {
            return Err(StorageError::InvalidArgument(format!(
                "commit while transaction {txid} is prepared"
            )));
        }
        if self.pool.dirty_count() == 0 {
            return Ok(CommitStats::default());
        }
        // A write set that turns out unchanged still gets its marker and
        // its fsync: one log force per transaction that fetched a page for
        // writing is the engine's flush policy, whatever the diff finds.
        let stats = self.stage(Marker::Commit(self.txn_counter + 1))?;
        self.txn_counter += 1;
        self.finish_commit();
        Ok(stats)
    }

    // ---- two-phase commit (participant side) ---------------------------

    /// Phase one: durably stage all dirty pages under coordinator
    /// transaction id `txid`, as a commit does, but with a prepare marker
    /// and without writing the logged pages to the database file. Only
    /// pages past the old durable end, which nothing committed references,
    /// reach the file before the decision — and, before staging, the
    /// committed bytes of every unwritten page ([`BufferPool::write_back`]),
    /// so that an abort, which drops the pool, finds them in the file.
    /// After a successful prepare the engine can finish either way, even
    /// across a crash (recovery reports the transaction as in-doubt and
    /// [`crate::recovery::resolve_in_doubt`] applies the decision).
    ///
    /// A prepare that fails once the committed bytes are written back is
    /// a vote to abort, and no decision will follow it: the engine rolls
    /// the transaction back itself, as [`Engine::abort_prepared`] does,
    /// without logging an abort (nothing of it is in the log).
    pub fn prepare(&mut self, txid: u64) -> Result<CommitStats> {
        if let Some(other) = self.prepared {
            return Err(StorageError::InvalidArgument(format!(
                "prepare({txid}) while transaction {other} is prepared"
            )));
        }
        self.pool.write_back()?;
        match self.stage(Marker::Prepare(txid)) {
            Ok(stats) => {
                self.prepared = Some(txid);
                Ok(stats)
            }
            Err(e) => {
                self.pool.discard_all()?;
                Err(e)
            }
        }
    }

    /// Phase two, commit side: make the transaction prepared as `txid`
    /// durable. Idempotent — a decision for an already-decided (or never
    /// prepared) transaction is a no-op.
    pub fn commit_prepared(&mut self, txid: u64) -> Result<()> {
        match self.prepared {
            Some(t) if t == txid => {
                self.wal.append_commit(txid);
                self.wal.sync()?;
                self.prepared = None;
                self.finish_commit();
                Ok(())
            }
            Some(other) => Err(StorageError::InvalidArgument(format!(
                "commit_prepared({txid}) but transaction {other} is prepared"
            ))),
            None => Ok(()),
        }
    }

    /// Phase two, abort side: discard the transaction prepared as `txid`.
    /// Logs the abort decision, then drops every cached frame (no-steal,
    /// and the prepare wrote back every unwritten page: the database file
    /// holds the pre-transaction images, so the next fetch reads clean
    /// state). The zero-based records the transaction logged are
    /// forgotten with it: a page it imaged for the first time is imaged
    /// again by the next transaction that touches it.
    /// Pages the aborted transaction added to the end of the file leak
    /// there — harmless, reclaimed by no one, the standard cost of
    /// redo-only abort. Idempotent like [`Engine::commit_prepared`].
    ///
    /// The caller must treat all in-memory structures layered on this
    /// engine (heap/index handles, cached roots) as invalid afterwards
    /// and re-read them from the catalog.
    pub fn abort_prepared(&mut self, txid: u64) -> Result<()> {
        match self.prepared {
            Some(t) if t == txid => {
                self.wal.append_abort(txid);
                self.wal.sync()?;
                self.pool.discard_all()?;
                self.prepared = None;
                Ok(())
            }
            Some(other) => Err(StorageError::InvalidArgument(format!(
                "abort_prepared({txid}) but transaction {other} is prepared"
            ))),
            None => Ok(()),
        }
    }

    /// The transaction id currently prepared on this engine, if any.
    pub fn prepared_txid(&self) -> Option<u64> {
        self.prepared
    }

    /// Write every unwritten and dirty page, fsync, and truncate the log.
    /// After a checkpoint the database file alone is a consistent, durable
    /// image.
    pub fn checkpoint(&mut self) -> Result<()> {
        if let Some(txid) = self.prepared {
            // Flushing undecided pages would break the no-steal invariant
            // recovery depends on.
            return Err(StorageError::InvalidArgument(format!(
                "checkpoint while transaction {txid} is prepared"
            )));
        }
        self.pool.flush_all()?;
        self.pool.sync()?;
        self.wal.truncate()?;
        Ok(())
    }

    /// Checkpoint and drop the page cache — the benchmark's "close the
    /// database" step between operation sequences (§6 step e). The engine
    /// remains usable; subsequent reads are cold.
    pub fn close_for_cold_run(&mut self) -> Result<()> {
        self.checkpoint()?;
        self.pool.drop_all()?;
        self.pool.reset_stats();
        Ok(())
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("db", &self.db_path)
            .field("commits", &self.commits)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::{HeapFile, RecordId};
    use std::path::PathBuf;

    fn dbpath(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hm-eng-{}-{}.db", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(wal_path_for(&p));
        p
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(wal_path_for(p));
    }

    #[test]
    fn catalog_round_trip_and_persistence() {
        let path = dbpath("catalog");
        {
            let mut e = Engine::create(&path, 64).unwrap();
            e.catalog_set("nodes_heap", 17).unwrap();
            e.catalog_set("uid_index", 29).unwrap();
            e.catalog_set("nodes_heap", 18).unwrap(); // replace
            e.commit().unwrap();
            e.checkpoint().unwrap();
        }
        {
            let (mut e, report) = Engine::open(&path, 64).unwrap();
            assert_eq!(report.pages_redone, 0);
            assert_eq!(e.catalog_get("nodes_heap").unwrap(), 18);
            assert_eq!(e.catalog_get("uid_index").unwrap(), 29);
            assert!(matches!(
                e.catalog_get("missing"),
                Err(StorageError::CatalogMissing(_))
            ));
            assert_eq!(e.catalog_try_get("missing").unwrap(), None);
        }
        cleanup(&path);
    }

    #[test]
    fn commit_makes_heap_changes_durable() {
        let path = dbpath("durable");
        let rid;
        {
            let mut e = Engine::create(&path, 64).unwrap();
            let mut heap = HeapFile::create(e.pool()).unwrap();
            rid = heap.insert(e.pool(), b"persist me").unwrap();
            e.catalog_set("heap", heap.first_page().0).unwrap();
            // Heap page + meta page. NOT checkpointed: the new heap page
            // went to the file, synced before the marker, and only the
            // meta page's change is logged.
            let stats = e.commit().unwrap();
            assert_eq!(stats.pages, 2);
            assert_eq!(logged_deltas(&path), vec![(0, true)]);
        }
        {
            let (mut e, report) = Engine::open(&path, 64).unwrap();
            assert_eq!(report.pages_redone, 1);
            let heap = HeapFile::open(PageId(e.catalog_get("heap").unwrap()));
            assert_eq!(heap.get(e.pool(), rid).unwrap(), b"persist me");
        }
        cleanup(&path);
    }

    #[test]
    fn close_for_cold_run_drops_cache() {
        let path = dbpath("cold");
        let mut e = Engine::create(&path, 64).unwrap();
        let mut heap = HeapFile::create(e.pool()).unwrap();
        let rid = heap.insert(e.pool(), b"x").unwrap();
        e.commit().unwrap();
        e.close_for_cold_run().unwrap();
        assert_eq!(e.pool_ref().resident(), 0);
        // First access after close is a miss (cold), second a hit (warm).
        heap.get(e.pool(), rid).unwrap();
        assert!(e.pool_ref().stats().misses >= 1);
        let misses_before = e.pool_ref().stats().misses;
        heap.get(e.pool(), rid).unwrap();
        assert_eq!(e.pool_ref().stats().misses, misses_before);
        cleanup(&path);
    }

    #[test]
    fn prepare_then_commit_prepared_is_durable() {
        let path = dbpath("2pc-commit");
        let rid;
        {
            let mut e = Engine::create(&path, 64).unwrap();
            let mut heap = HeapFile::create(e.pool()).unwrap();
            rid = heap.insert(e.pool(), b"two-phase").unwrap();
            e.catalog_set("heap", heap.first_page().0).unwrap();
            e.prepare(5).unwrap();
            assert_eq!(e.prepared_txid(), Some(5));
            // Single-phase commit and checkpoint are refused mid-prepare.
            assert!(e.commit().is_err());
            assert!(e.checkpoint().is_err());
            e.commit_prepared(5).unwrap();
            assert_eq!(e.prepared_txid(), None);
            // Idempotent.
            e.commit_prepared(5).unwrap();
        }
        {
            let (mut e, report) = Engine::open(&path, 64).unwrap();
            assert_eq!(report.in_doubt, None);
            let heap = HeapFile::open(PageId(e.catalog_get("heap").unwrap()));
            assert_eq!(heap.get(e.pool(), rid).unwrap(), b"two-phase");
        }
        cleanup(&path);
    }

    #[test]
    fn prepare_then_abort_restores_pre_txn_state() {
        let path = dbpath("2pc-abort");
        {
            let mut e = Engine::create(&path, 64).unwrap();
            e.catalog_set("kept", 1).unwrap();
            e.commit().unwrap();
            e.checkpoint().unwrap();
            e.catalog_set("doomed", 2).unwrap();
            e.prepare(6).unwrap();
            e.abort_prepared(6).unwrap();
            // In-memory caches were discarded; the catalog re-read from
            // disk has only the committed entry.
            assert_eq!(e.catalog_try_get("doomed").unwrap(), None);
            assert_eq!(e.catalog_get("kept").unwrap(), 1);
            // The engine stays usable for new transactions.
            e.catalog_set("after", 3).unwrap();
            e.commit().unwrap();
        }
        {
            let (mut e, _) = Engine::open(&path, 64).unwrap();
            assert_eq!(e.catalog_try_get("doomed").unwrap(), None);
            assert_eq!(e.catalog_get("after").unwrap(), 3);
        }
        cleanup(&path);
    }

    #[test]
    fn an_aborted_first_transaction_leaves_the_empty_catalog() {
        let path = dbpath("2pc-first");
        {
            let mut e = Engine::create(&path, 64).unwrap();
            e.catalog_set("doomed", 2).unwrap();
            e.prepare(1).unwrap();
            e.abort_prepared(1).unwrap();
            assert_eq!(e.catalog_try_get("doomed").unwrap(), None);
        }
        let (mut e, _) = Engine::open(&path, 64).unwrap();
        assert_eq!(e.catalog_try_get("doomed").unwrap(), None);
        cleanup(&path);
    }

    #[test]
    fn crash_while_prepared_leaves_in_doubt_until_resolved() {
        let path = dbpath("2pc-indoubt");
        {
            let mut e = Engine::create(&path, 64).unwrap();
            e.commit().unwrap();
            e.checkpoint().unwrap();
        }
        {
            let (mut e, _) = Engine::open(&path, 64).unwrap();
            e.catalog_set("staged", 9).unwrap();
            e.prepare(11).unwrap();
            // "crash": abandon the engine without a decision.
            std::mem::forget(e);
        }
        // Reopen refuses silently picking a side: the report names the
        // in-doubt transaction and the staged images survive in the log.
        {
            let (mut e, report) = Engine::open(&path, 64).unwrap();
            assert_eq!(report.in_doubt, Some(11));
            assert_eq!(e.catalog_try_get("staged").unwrap(), None);
        }
        // The coordinator decides commit; the staged write lands.
        crate::recovery::resolve_in_doubt(&path, &wal_path_for(&path), 11, true).unwrap();
        {
            let (mut e, report) = Engine::open(&path, 64).unwrap();
            assert_eq!(report.in_doubt, None);
            assert_eq!(e.catalog_get("staged").unwrap(), 9);
        }
        cleanup(&path);
    }

    /// A heap with one record of `len` bytes of `fill`, committed.
    fn engine_with_record(path: &Path, fill: u8, len: usize) -> (Engine, HeapFile, RecordId) {
        let mut e = Engine::create(path, 64).unwrap();
        let mut heap = HeapFile::create(e.pool()).unwrap();
        let rid = heap.insert(e.pool(), &vec![fill; len]).unwrap();
        e.catalog_set("heap", heap.first_page().0).unwrap();
        e.commit().unwrap();
        (e, heap, rid)
    }

    /// `(page, zero_based)` of every delta record in the log, in order.
    fn logged_deltas(path: &Path) -> Vec<(u64, bool)> {
        let mut reader = crate::wal::WalReader::open(&OsFs, &wal_path_for(path)).unwrap();
        let mut out = Vec::new();
        while let Some(record) = reader.next_record().unwrap() {
            if let crate::wal::WalRecord::PageDelta(d) = record {
                out.push((d.page_id.0, d.zero_based));
            }
        }
        out
    }

    #[test]
    fn a_page_fetched_for_writing_but_left_alone_is_neither_logged_nor_flushed() {
        let path = dbpath("untouched");
        let (mut e, mut heap, rid) = engine_with_record(&path, 7, 100);
        let log_len = std::fs::metadata(wal_path_for(&path)).unwrap().len();
        let io = e.pool_ref().io_stats();
        e.pool().page_mut(rid.page).unwrap();
        // Writing back what is already there is no change either.
        heap.update(e.pool(), rid, &[7; 100]).unwrap();
        assert_eq!(e.pool_ref().dirty_count(), 1);
        // The commit is its marker and nothing else.
        let stats = e.commit().unwrap();
        assert_eq!((stats.pages, stats.wal_bytes), (0, 17));
        assert_eq!(e.pool_ref().dirty_count(), 0);
        // No page write, and no database fsync: the file did not grow.
        assert_eq!(e.pool_ref().io_stats(), io);
        assert_eq!(
            std::fs::metadata(wal_path_for(&path)).unwrap().len(),
            log_len + 17
        );
        // The set-up's meta page; its heap page went to the file.
        assert_eq!(logged_deltas(&path), vec![(0, true)]);
        cleanup(&path);
    }

    #[test]
    fn commit_logs_the_change_and_a_checkpoint_resets_the_base() {
        let path = dbpath("base-rule");
        let (mut e, mut heap, rid) = engine_with_record(&path, 7, 4000);
        // The page went to the file, not the log, so its first change
        // logs its image ...
        heap.update(e.pool(), rid, &[[8; 4].as_slice(), &[7; 3996]].concat())
            .unwrap();
        let first = e.commit().unwrap();
        assert_eq!(first.pages, 1);
        assert!(first.wal_bytes > 4000, "{first:?}");
        // ... and a four-byte edit after that logs a few dozen bytes, one
        // page, one fsync.
        heap.update(e.pool(), rid, &[[9; 4].as_slice(), &[7; 3996]].concat())
            .unwrap();
        let small = e.commit().unwrap();
        assert_eq!(small.pages, 1);
        assert!(small.wal_bytes < 64, "{small:?}");
        assert_eq!(
            logged_deltas(&path),
            vec![(0, true), (rid.page.0, true), (rid.page.0, false)]
        );
        // After a checkpoint the log is empty, so the same edit must carry
        // the whole page again: nothing else could repair a torn write.
        e.checkpoint().unwrap();
        heap.update(e.pool(), rid, &[7; 4000]).unwrap();
        let image = e.commit().unwrap();
        assert_eq!(image.pages, 1);
        assert!(image.wal_bytes > 4000, "{image:?}");
        // ... and only the first time.
        heap.update(e.pool(), rid, &[[9; 4].as_slice(), &[7; 3996]].concat())
            .unwrap();
        assert!(e.commit().unwrap().wal_bytes < 64);
        assert_eq!(
            logged_deltas(&path),
            vec![(rid.page.0, true), (rid.page.0, false)]
        );
        cleanup(&path);
    }

    #[test]
    fn an_aborted_transactions_image_is_not_the_next_ones_base() {
        let path = dbpath("abort-base");
        let rid;
        {
            let (mut e, mut heap, r) = engine_with_record(&path, 7, 4000);
            rid = r;
            e.checkpoint().unwrap();
            // The page's first record since the checkpoint belongs to a
            // transaction that aborts ...
            heap.update(e.pool(), rid, &[8; 4000]).unwrap();
            e.prepare(3).unwrap();
            e.abort_prepared(3).unwrap();
            // ... so the next edit of the page images it again, and
            // recovery can rebuild it without the aborted record.
            heap.update(e.pool(), rid, &[[9; 4].as_slice(), &[7; 3996]].concat())
                .unwrap();
            // Dropped without a checkpoint: the log alone carries it.
            e.commit().unwrap();
        }
        assert_eq!(
            logged_deltas(&path),
            vec![(rid.page.0, true), (rid.page.0, true)]
        );
        let (mut e, _) = Engine::open(&path, 64).unwrap();
        let heap = HeapFile::open(PageId(e.catalog_get("heap").unwrap()));
        let got = heap.get(e.pool(), rid).unwrap();
        assert_eq!((&got[..4], &got[4..]), (&[9u8; 4][..], &[7u8; 3996][..]));
        cleanup(&path);
    }

    #[test]
    fn a_prepared_transactions_image_counts_once_it_commits() {
        let path = dbpath("prepare-base");
        let (mut e, mut heap, rid) = engine_with_record(&path, 7, 4000);
        e.checkpoint().unwrap();
        heap.update(e.pool(), rid, &[8; 4000]).unwrap();
        e.prepare(4).unwrap();
        e.commit_prepared(4).unwrap();
        heap.update(e.pool(), rid, &[[9; 4].as_slice(), &[8; 3996]].concat())
            .unwrap();
        assert!(e.commit().unwrap().wal_bytes < 64);
        assert_eq!(
            logged_deltas(&path),
            vec![(rid.page.0, true), (rid.page.0, false)]
        );
        cleanup(&path);
    }

    #[test]
    fn a_commit_writes_its_logged_pages_to_the_log_only() {
        let path = dbpath("no-force");
        let rid;
        {
            let (mut e, mut heap, r) = engine_with_record(&path, 7, 100);
            rid = r;
            heap.update(e.pool(), rid, &[8; 100]).unwrap();
            e.catalog_set("extra", 1).unwrap();
            let io = e.pool_ref().io_stats();
            assert_eq!(e.commit().unwrap().pages, 2);
            assert_eq!(e.pool_ref().io_stats(), io, "no page write, no db fsync");
            assert_eq!(e.pool_ref().stats().writebacks, 0);
        }
        // Dropped without a checkpoint: the log alone carries the commit.
        let (mut e, report) = Engine::open(&path, 64).unwrap();
        assert_eq!(report.pages_redone, 2);
        let heap = HeapFile::open(PageId(e.catalog_get("heap").unwrap()));
        assert_eq!(heap.get(e.pool(), rid).unwrap(), vec![8; 100]);
        cleanup(&path);
    }

    #[test]
    fn a_checkpoint_writes_each_unwritten_page_once() {
        let path = dbpath("checkpoint-once");
        let (mut e, mut heap, rid) = engine_with_record(&path, 7, 100);
        for fill in [8, 9, 10] {
            heap.update(e.pool(), rid, &[fill; 100]).unwrap();
            e.catalog_set("fill", fill as u64).unwrap();
            e.commit().unwrap();
        }
        let io = e.pool_ref().io_stats();
        e.checkpoint().unwrap();
        // The heap page and the meta page, after three commits each.
        assert_eq!(e.pool_ref().io_stats().writes, io.writes + 2);
        assert_eq!(e.pool_ref().stats().writebacks, 2);
        e.checkpoint().unwrap();
        assert_eq!(e.pool_ref().io_stats().writes, io.writes + 2);
        e.close_for_cold_run().unwrap();
        assert_eq!(heap.get(e.pool(), rid).unwrap(), vec![10; 100]);
        cleanup(&path);
    }

    #[test]
    fn an_aborted_prepare_keeps_the_commit_the_file_had_not_seen() {
        let path = dbpath("abort-unwritten");
        let rid;
        {
            let (mut e, mut heap, r) = engine_with_record(&path, 7, 100);
            rid = r;
            heap.update(e.pool(), rid, &[8; 100]).unwrap();
            e.commit().unwrap();
            // The committed page is only in the pool and the log when a
            // prepared transaction changes it and aborts.
            heap.update(e.pool(), rid, &[9; 100]).unwrap();
            e.prepare(5).unwrap();
            e.abort_prepared(5).unwrap();
            let heap = HeapFile::open(PageId(e.catalog_get("heap").unwrap()));
            assert_eq!(heap.get(e.pool(), rid).unwrap(), vec![8; 100]);
        }
        let (mut e, _) = Engine::open(&path, 64).unwrap();
        let heap = HeapFile::open(PageId(e.catalog_get("heap").unwrap()));
        assert_eq!(heap.get(e.pool(), rid).unwrap(), vec![8; 100]);
        cleanup(&path);
    }

    #[test]
    fn empty_commit_is_a_cheap_noop() {
        let path = dbpath("noop");
        let mut e = Engine::create(&path, 64).unwrap();
        e.commit().unwrap();
        let stats = e.commit().unwrap();
        assert_eq!(stats, CommitStats::default());
        cleanup(&path);
    }
}
