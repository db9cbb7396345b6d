//! Buffer pool: an LRU cache of pages between the engine and the disk.
//!
//! The pool is the mechanism behind the benchmark's cold/warm distinction
//! (paper §6, run protocol): a *cold* run starts with an empty pool so every
//! page access is a disk read; a *warm* run re-touches pages already cached.
//!
//! # Pinning
//!
//! [`BufferPool::fetch`] returns a [`PageHandle`] — a cheap clone of an
//! `Arc` around the frame. A frame is *pinned* while any handle to it is
//! alive and will not be evicted. Drop the handle to unpin.
//!
//! # Write policy
//!
//! The pool is **no-steal**: dirty frames are never written back by
//! eviction. Dirtied pages stay resident until the engine's commit writes
//! them ([`BufferPool::flush_from`], [`BufferPool::flush_all`]). If every
//! frame is dirty or pinned, `fetch` reports [`StorageError::PoolExhausted`]
//! — the transaction's write set exceeded the pool, which the engine
//! surfaces as "commit more often or enlarge the pool". No-steal means
//! uncommitted data never overwrites a page committed state can reach, so
//! the write-ahead log only ever needs *redo*.
//!
//! # Before-images
//!
//! The log records what a transaction *changed* on a page, not the page
//! (see [`crate::wal`]). To know what changed, [`BufferPool::fetch_mut`]
//! copies a frame's bytes when it goes from clean to dirty — the page as
//! the database file and the log last saw it — and commit hands that
//! before-image, beside the page's current bytes, to
//! [`BufferPool::for_each_dirty`]'s caller to diff. Every mutation must
//! therefore go through a handle obtained from `fetch_mut` (or
//! [`BufferPool::allocate`]) *before* the first byte is written: a change
//! made through a plain [`BufferPool::fetch`] handle would be missing from
//! the log. A page the file has never held (one [`BufferPool::allocate`]
//! added to its end) has no before-image: the engine writes it to the file
//! before the commit marker ([`BufferPool::flush_from`]) and logs nothing
//! (see [`crate::engine`]). A frame whose before-image a failed commit
//! already spent is logged whole. The copy is made on the write path only;
//! reads never pay for it.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::disk::{DiskManager, IoStats};
use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, PageKind, PAGE_SIZE};

/// Shared, lockable reference to a cached page. Holding one pins the frame.
pub type PageHandle = Arc<Mutex<Page>>;

struct Frame {
    id: PageId,
    page: PageHandle,
    dirty: bool,
    /// The page's bytes when the frame last went from clean to dirty;
    /// taken by [`BufferPool::for_each_dirty`].
    before: Option<Box<[u8; PAGE_SIZE]>>,
    last_used: u64,
}

/// Cache statistics, used by the harness to demonstrate warm-run behaviour.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Fetches satisfied from the cache.
    pub hits: u64,
    /// Fetches that had to read from disk.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
}

/// The registry's counters for this layer, looked up once per pool: a
/// fetch runs several times per operation, and finding a counter by name
/// (a lock and a map walk) costs more than the rest of a hit.
struct Counters {
    hits: Arc<obs::Counter>,
    misses: Arc<obs::Counter>,
    evictions: Arc<obs::Counter>,
}

/// Add one to `counter` unless the registry is switched off.
fn bump(counter: &obs::Counter) {
    if obs::enabled() {
        counter.incr();
    }
}

/// An LRU page cache over a [`DiskManager`].
pub struct BufferPool {
    disk: DiskManager,
    frames: Vec<Frame>,
    map: HashMap<u64, usize>,
    /// Ids of the frames whose `dirty` flag is set, so commit visits the
    /// write set and not the pool.
    dirty_ids: Vec<u64>,
    capacity: usize,
    tick: u64,
    stats: PoolStats,
    counters: Counters,
}

impl BufferPool {
    /// Wrap `disk` with a pool of at most `capacity` frames.
    ///
    /// `capacity` must be at least 8; tiny pools deadlock real workloads
    /// (a single B+Tree descent pins several pages).
    pub fn new(disk: DiskManager, capacity: usize) -> BufferPool {
        BufferPool {
            disk,
            frames: Vec::new(),
            map: HashMap::new(),
            dirty_ids: Vec::new(),
            capacity: capacity.max(8),
            tick: 0,
            stats: PoolStats::default(),
            counters: Counters {
                hits: obs::registry().counter("storage.buffer.hits"),
                misses: obs::registry().counter("storage.buffer.misses"),
                evictions: obs::registry().counter("storage.buffer.evictions"),
            },
        }
    }

    /// Number of frames currently resident.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Configured capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cache statistics snapshot.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Disk-level I/O statistics snapshot.
    pub fn io_stats(&self) -> IoStats {
        self.disk.stats()
    }

    /// Reset both cache and disk counters (between benchmark phases).
    pub fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
        self.disk.reset_stats();
    }

    /// Borrow the underlying disk manager (e.g. for size reporting).
    pub fn disk(&self) -> &DiskManager {
        &self.disk
    }

    fn touch(&mut self, idx: usize) {
        self.tick += 1;
        self.frames[idx].last_used = self.tick;
    }

    /// Fetch page `id`, reading it from disk on a miss.
    pub fn fetch(&mut self, id: PageId) -> Result<PageHandle> {
        if let Some(&idx) = self.map.get(&id.0) {
            self.stats.hits += 1;
            bump(&self.counters.hits);
            self.touch(idx);
            return Ok(Arc::clone(&self.frames[idx].page));
        }
        self.stats.misses += 1;
        bump(&self.counters.misses);
        let page = self.disk.read_page(id)?;
        self.install(id, page, false)
    }

    /// Fetch page `id` and mark it dirty (the caller intends to modify it).
    /// On the frame's clean→dirty transition its bytes are kept as the
    /// before-image commit diffs against, so call this *before* mutating.
    pub fn fetch_mut(&mut self, id: PageId) -> Result<PageHandle> {
        let handle = self.fetch(id)?;
        let frame = &mut self.frames[self.map[&id.0]];
        if !frame.dirty {
            frame.dirty = true;
            frame.before = Some(Box::new(*handle.lock().bytes()));
            self.dirty_ids.push(id.0);
        }
        Ok(handle)
    }

    /// Allocate a page: pop the persistent free list if non-empty, else
    /// extend the file. The page enters the pool dirty and zeroed.
    pub fn allocate(&mut self) -> Result<(PageId, PageHandle)> {
        // The free-list head lives in a fixed slot of the meta page so it
        // participates in commit/recovery like any other page content.
        let head = self.freelist_head()?;
        if head != 0 {
            let id = PageId(head);
            let handle = self.fetch_mut(id)?;
            let next = {
                let mut page = handle.lock();
                if page.kind()? != PageKind::Free {
                    return Err(StorageError::Corruption {
                        page: Some(id.0),
                        detail: "free-list entry is not a free page".into(),
                    });
                }
                let next = page.read_u64(crate::page::FREE_NEXT_OFFSET);
                page.clear_payload();
                next
            };
            self.set_freelist_head(next)?;
            return Ok((id, handle));
        }
        let id = self.disk.allocate()?;
        let handle = self.install(id, Page::new(id), true)?;
        Ok((id, handle))
    }

    /// Return `id` to the persistent free list. The caller must ensure no
    /// live structure references the page.
    pub fn free_page(&mut self, id: PageId) -> Result<()> {
        debug_assert_ne!(id, PageId::META, "cannot free the meta page");
        let head = self.freelist_head()?;
        let handle = self.fetch_mut(id)?;
        {
            let mut page = handle.lock();
            page.clear_payload();
            page.set_kind(PageKind::Free);
            page.write_u64(crate::page::FREE_NEXT_OFFSET, head);
        }
        self.set_freelist_head(id.0)
    }

    /// Number of pages currently on the free list (walks the chain; for
    /// tests and stats).
    pub fn free_page_count(&mut self) -> Result<usize> {
        let mut n = 0usize;
        let mut cur = self.freelist_head()?;
        while cur != 0 {
            let handle = self.fetch(PageId(cur))?;
            cur = handle.lock().read_u64(crate::page::FREE_NEXT_OFFSET);
            n += 1;
        }
        Ok(n)
    }

    fn freelist_head(&mut self) -> Result<u64> {
        let handle = self.fetch(PageId::META)?;
        let head = handle.lock().read_u64(crate::page::META_FREELIST_OFFSET);
        Ok(head)
    }

    fn set_freelist_head(&mut self, head: u64) -> Result<()> {
        let handle = self.fetch_mut(PageId::META)?;
        handle
            .lock()
            .write_u64(crate::page::META_FREELIST_OFFSET, head);
        Ok(())
    }

    fn install(&mut self, id: PageId, page: Page, dirty: bool) -> Result<PageHandle> {
        if self.frames.len() >= self.capacity {
            self.evict_one()?;
        }
        let handle = Arc::new(Mutex::new(page));
        self.tick += 1;
        let frame = Frame {
            id,
            page: Arc::clone(&handle),
            dirty,
            before: None,
            last_used: self.tick,
        };
        if dirty {
            self.dirty_ids.push(id.0);
        }
        let idx = self.frames.len();
        self.frames.push(frame);
        self.map.insert(id.0, idx);
        Ok(handle)
    }

    /// Evict the least-recently-used clean, unpinned frame.
    fn evict_one(&mut self) -> Result<()> {
        let mut victim: Option<usize> = None;
        for (i, f) in self.frames.iter().enumerate() {
            // strong_count == 1 means only the pool itself holds the Arc.
            if !f.dirty
                && Arc::strong_count(&f.page) == 1
                && victim.is_none_or(|v| f.last_used < self.frames[v].last_used)
            {
                victim = Some(i);
            }
        }
        let idx = victim.ok_or(StorageError::PoolExhausted)?;
        let frame = self.frames.swap_remove(idx);
        self.map.remove(&frame.id.0);
        // Fix the index of the frame that swap_remove moved into `idx`.
        if idx < self.frames.len() {
            let moved_id = self.frames[idx].id;
            self.map.insert(moved_id.0, idx);
        }
        self.stats.evictions += 1;
        bump(&self.counters.evictions);
        Ok(())
    }

    /// Write every dirty frame to the database file and clear its flag.
    /// Returns how many were written. Does **not** fsync; callers pair
    /// this with [`BufferPool::sync`] according to their durability protocol.
    pub fn flush_all(&mut self) -> Result<usize> {
        self.flush_from(PageId::META)
    }

    /// [`BufferPool::flush_all`] for the dirty frames whose id is `first`
    /// or higher; the others stay dirty, before-images and all.
    pub fn flush_from(&mut self, first: PageId) -> Result<usize> {
        // Sorted descending, the frames due are a prefix. Walking it back
        // to front writes in file order, and a failed write leaves exactly
        // the unwritten frames listed.
        self.dirty_ids.sort_unstable_by(|a, b| b.cmp(a));
        let due = self.dirty_ids.partition_point(|&id| id >= first.0);
        let mut written = 0;
        let result = self.dirty_ids[..due].iter().rev().try_for_each(|id| {
            let frame = &mut self.frames[self.map[id]];
            {
                // The page latch must stay held across the disk write
                // so the frame cannot be mutated mid-flush; this is a
                // per-page latch, not a pool-wide lock.
                let mut page = frame.page.lock();
                self.disk.write_page(&mut page)?;
            }
            frame.dirty = false;
            frame.before = None;
            written += 1;
            Ok(())
        });
        self.dirty_ids.drain(due - written..due);
        result.map(|()| written)
    }

    /// Visit every dirty frame in page-id order with its before-image
    /// (`None` for a frame that was never clean, or already visited) and
    /// its latched current bytes. `keep` answers whether the frame stays
    /// dirty: a frame it reports unchanged is clean again and will be
    /// neither logged nor flushed. The before-image is consumed either
    /// way — once a page's change is handed to the log the copy no longer
    /// describes what the log holds, so a frame still dirty at the next
    /// visit (a failed commit being retried) is logged whole.
    pub fn for_each_dirty(
        &mut self,
        mut keep: impl FnMut(PageId, Option<&[u8; PAGE_SIZE]>, &Page) -> bool,
    ) {
        self.dirty_ids.sort_unstable();
        let (frames, map) = (&mut self.frames, &self.map);
        self.dirty_ids.retain(|id| {
            let frame = &mut frames[map[id]];
            let before = frame.before.take();
            frame.dirty = keep(frame.id, before.as_deref(), &frame.page.lock());
            frame.dirty
        });
    }

    /// Number of dirty frames.
    pub fn dirty_count(&self) -> usize {
        self.dirty_ids.len()
    }

    /// fsync the database file.
    pub fn sync(&mut self) -> Result<()> {
        self.disk.sync()
    }

    /// Drop every cached frame. Pinned or dirty frames make this an error;
    /// it is used to simulate a database close/open cycle (cold runs).
    pub fn drop_all(&mut self) -> Result<()> {
        if let Some(id) = self.dirty_ids.first() {
            return Err(StorageError::InvalidArgument(format!(
                "drop_all with dirty page {}",
                PageId(*id)
            )));
        }
        if let Some(f) = self.frames.iter().find(|f| Arc::strong_count(&f.page) > 1) {
            return Err(StorageError::InvalidArgument(format!(
                "drop_all with pinned page {}",
                f.id
            )));
        }
        self.frames.clear();
        self.map.clear();
        Ok(())
    }

    /// Drop every cached frame **including dirty ones**, without writing
    /// them. Under the no-steal protocol the database file still holds the
    /// pre-transaction state, so this is the abort primitive: the next
    /// fetch re-reads clean images from disk. Pinned frames are still an
    /// error — a caller holding a page handle across an abort is a bug.
    pub fn discard_all(&mut self) -> Result<()> {
        if let Some(f) = self.frames.iter().find(|f| Arc::strong_count(&f.page) > 1) {
            return Err(StorageError::InvalidArgument(format!(
                "discard_all with pinned page {}",
                f.id
            )));
        }
        self.frames.clear();
        self.map.clear();
        self.dirty_ids.clear();
        Ok(())
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("resident", &self.frames.len())
            .field("dirty", &self.dirty_count())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn pool(name: &str, cap: usize) -> (BufferPool, PathBuf) {
        let mut p = std::env::temp_dir();
        p.push(format!("hm-pool-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        let dm = DiskManager::create(&p).unwrap();
        (BufferPool::new(dm, cap), p)
    }

    #[test]
    fn fetch_caches_pages() {
        let (mut bp, path) = pool("cache", 16);
        let (id, h) = bp.allocate().unwrap();
        h.lock().write_u64(100, 5);
        drop(h);
        bp.flush_all().unwrap();
        let h1 = bp.fetch(id).unwrap();
        assert_eq!(h1.lock().read_u64(100), 5);
        drop(h1);
        let before = bp.stats();
        bp.fetch(id).unwrap();
        let after = bp.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn eviction_prefers_lru_and_skips_pinned() {
        let (mut bp, path) = pool("lru", 8);
        let mut ids = Vec::new();
        for _ in 0..8 {
            let (id, h) = bp.allocate().unwrap();
            drop(h);
            ids.push(id);
        }
        bp.flush_all().unwrap();
        // Pin the LRU page (ids[0]); eviction must pick ids[1] instead.
        let pinned = bp.fetch(ids[0]).unwrap();
        bp.allocate().unwrap(); // forces one eviction
        assert!(bp.map.contains_key(&ids[0].0), "pinned page must stay");
        assert!(!bp.map.contains_key(&ids[1].0), "LRU unpinned page evicted");
        drop(pinned);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dirty_pages_are_never_evicted() {
        let (mut bp, path) = pool("nosteal", 8);
        // Fill the pool with dirty pages, then demand one more frame.
        for _ in 0..8 {
            let (_, h) = bp.allocate().unwrap();
            drop(h);
        }
        let err = bp.allocate().unwrap_err();
        assert!(matches!(err, StorageError::PoolExhausted));
        // After a flush, eviction succeeds.
        bp.flush_all().unwrap();
        bp.allocate().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flush_all_persists_and_cleans() {
        let (mut bp, path) = pool("flush", 8);
        let (id, h) = bp.allocate().unwrap();
        h.lock().write_u64(200, 99);
        drop(h);
        assert_eq!(bp.dirty_count(), 1);
        assert_eq!(bp.flush_all().unwrap(), 1);
        assert_eq!(bp.dirty_count(), 0);
        bp.drop_all().unwrap();
        let h = bp.fetch(id).unwrap();
        assert_eq!(h.lock().read_u64(200), 99);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn drop_all_refuses_dirty_or_pinned() {
        let (mut bp, path) = pool("dropall", 8);
        let (id, h) = bp.allocate().unwrap();
        drop(h);
        assert!(bp.drop_all().is_err()); // dirty
        bp.flush_all().unwrap();
        let h = bp.fetch(id).unwrap();
        assert!(bp.drop_all().is_err()); // pinned
        drop(h);
        bp.drop_all().unwrap();
        assert_eq!(bp.resident(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn discard_all_drops_dirty_frames_without_writing() {
        let (mut bp, path) = pool("discard", 8);
        let (id, h) = bp.allocate().unwrap();
        h.lock().write_u64(200, 7);
        drop(h);
        bp.flush_all().unwrap();
        // Dirty the page again with a value that must NOT survive.
        let h = bp.fetch_mut(id).unwrap();
        h.lock().write_u64(200, 8);
        drop(h);
        bp.discard_all().unwrap();
        assert_eq!(bp.resident(), 0);
        let h = bp.fetch(id).unwrap();
        assert_eq!(h.lock().read_u64(200), 7, "pre-abort image re-read");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn for_each_dirty_visits_the_write_set_in_id_order_with_before_images() {
        let (mut bp, path) = pool("visit", 8);
        let (fresh, h) = bp.allocate().unwrap();
        h.lock().write_u64(64, 1);
        drop(h);
        let (edited, h) = bp.allocate().unwrap();
        drop(h);
        let (probed, h) = bp.allocate().unwrap();
        drop(h);
        let (clean, h) = bp.allocate().unwrap();
        drop(h);
        bp.flush_all().unwrap();
        assert_eq!(bp.dirty_count(), 0);

        // One page never clean, one edited, one fetched for writing but
        // left alone, one only read.
        let (newer, h) = bp.allocate().unwrap();
        h.lock().write_u64(64, 5);
        drop(h);
        bp.fetch_mut(edited).unwrap().lock().write_u64(64, 2);
        // A second fetch_mut of a dirty frame keeps the first before-image.
        bp.fetch_mut(edited).unwrap().lock().write_u64(72, 3);
        drop(bp.fetch_mut(probed).unwrap());
        drop(bp.fetch(clean).unwrap());
        assert_eq!(bp.dirty_count(), 3);

        let mut seen = Vec::new();
        bp.for_each_dirty(|id, before, page| {
            let changed = before.is_none_or(|b| b != page.bytes());
            seen.push((id, before.map(|b| b[64]), page.read_u64(64), changed));
            changed
        });
        assert_eq!(
            seen,
            vec![
                (edited, Some(0), 2, true),
                (probed, Some(0), 0, false),
                (newer, None, 5, true),
            ]
        );
        assert!(fresh < edited && probed < newer);
        // The unchanged frame is clean again; a second visit finds the
        // other two, their before-images spent.
        assert_eq!(bp.dirty_count(), 2);
        let mut second = Vec::new();
        bp.for_each_dirty(|id, before, _| {
            second.push((id, before.is_some()));
            true
        });
        assert_eq!(second, vec![(edited, false), (newer, false)]);
        assert_eq!(bp.flush_all().unwrap(), 2);
        bp.drop_all().unwrap();
        assert_eq!(bp.fetch(edited).unwrap().lock().read_u64(72), 3);
        assert_eq!(bp.fetch(probed).unwrap().lock().read_u64(64), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cold_reload_misses_then_hits() {
        let (mut bp, path) = pool("coldwarm", 32);
        let mut ids = Vec::new();
        for _ in 0..10 {
            let (id, h) = bp.allocate().unwrap();
            drop(h);
            ids.push(id);
        }
        bp.flush_all().unwrap();
        bp.drop_all().unwrap();
        bp.reset_stats();
        for &id in &ids {
            drop(bp.fetch(id).unwrap());
        }
        assert_eq!(bp.stats().misses, 10);
        assert_eq!(bp.stats().hits, 0);
        for &id in &ids {
            drop(bp.fetch(id).unwrap());
        }
        assert_eq!(bp.stats().hits, 10);
        std::fs::remove_file(&path).unwrap();
    }
}
