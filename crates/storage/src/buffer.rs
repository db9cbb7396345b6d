//! Buffer pool: an LRU cache of pages between the engine and the disk.
//!
//! The pool is the mechanism behind the benchmark's cold/warm distinction
//! (paper §6, run protocol): a *cold* run starts with an empty pool so every
//! page access is a disk read; a *warm* run re-touches pages already cached.
//!
//! # Page table
//!
//! Page ids are dense offsets into the database file, so the pool finds a
//! resident page by indexing a `Vec<u32>` with its id: entry `id` holds
//! the slot of page `id`'s frame, or a sentinel for "not resident". A hit
//! costs that index and an LRU tick. The table grows to the largest id
//! ever resident — 4 bytes per file page — and an entry is written only
//! after the page's read (or [`BufferPool::allocate`]) succeeded, so a
//! fetch that fails maps nothing.
//!
//! Inside the crate, `fetch` hands out the slot index itself, and `at` /
//! `at_mut` lend the slot's page without counting a second fetch. A slot
//! index is only valid until the next pool call that can evict — any
//! fetch, `allocate` or `free_page` — because eviction reuses the slot for
//! another page. So code holds one across no pool call: a B+Tree parent
//! fetches itself again after its child split. `at` and `at_mut` also take
//! the page id the slot was fetched for, and debug builds assert the slot
//! still holds it.
//!
//! # Borrowing
//!
//! The pool lends its pages: [`BufferPool::page`] returns a `&Page` and
//! [`BufferPool::page_mut`] a `&mut Page`, each for as long as the pool
//! stays borrowed. No page can be held across another pool call, so none
//! can be evicted while in use. Code that changes two or three pages at
//! once (a B+Tree split, borrow or merge) borrows them together with
//! `pages_mut`; `dirty_mut` lends again, without a second fetch, pages
//! already fetched for writing, which no-steal keeps resident. The one
//! page kept resident across other pool calls is a heap scan's while it
//! reads an overflow chain: the pool holds one *pinned* page, which
//! eviction skips.
//!
//! # Write policy
//!
//! The pool is **no-steal** and **no-force**. No-steal: a dirty frame —
//! one an open transaction changed — is never written back by eviction.
//! It stays resident until its transaction commits; if every frame is
//! dirty or pinned, a fetch reports [`StorageError::PoolExhausted`] with
//! the counts — the transaction's write set exceeded the pool: commit more
//! often or enlarge the pool. So uncommitted data never overwrites a page
//! committed state can reach, and the write-ahead log only ever needs
//! *redo*.
//!
//! No-force: a commit forces its log, not its pages. After the commit
//! marker is durable, [`BufferPool::mark_committed`] makes the logged
//! frames clean and *unwritten* — holding committed bytes the database
//! file lacks, which the log alone can rebuild (see [`crate::recovery`]).
//! An unwritten frame is written to the file, without an fsync, when
//! eviction picks it, when [`BufferPool::flush_all`] runs (the engine's
//! checkpoint, before its fsync and log truncate), and when
//! [`BufferPool::write_back`] runs (the engine's 2PC prepare, so an abort
//! can drop every frame and re-read committed bytes). [`BufferPool::drop_all`]
//! and [`BufferPool::discard_all`] refuse unwritten frames as `drop_all`
//! refuses dirty ones. Each such write counts as a *writeback*
//! ([`PoolStats::writebacks`], `storage.buffer.writebacks`).
//!
//! # Before-images
//!
//! The log records what a transaction *changed* on a page, not the page
//! (see [`crate::wal`]). To know what changed, the pool keeps each dirty
//! frame's page as the last commit left it — not as a copy of the page,
//! but as the old bytes of the 128-byte [chunks](crate::page::CHUNK) the
//! transaction wrote. The pool lends a page for writing only as a
//! [`PageMut`] (from `page_mut`, `pages_mut`, `dirty_mut` or
//! [`BufferPool::allocate`]); a `&Page` cannot change a page. Each
//! `PageMut` writer first saves every chunk it covers that the frame has
//! not saved since it went dirty, and sets the chunk's bit in the frame's
//! `u64` mask. A later write to a saved chunk costs the mask test.
//!
//! The saved chunks of all dirty frames go into one *arena* that the pool
//! owns: a byte vector the chunks are appended to, and per dirty frame a
//! table of where each of its chunks went. Commit hands each frame's
//! saved chunks ([`SavedChunks`]), beside the page's current bytes, to
//! [`BufferPool::for_each_dirty`]'s caller, which compares and diffs
//! those chunks only: every other byte is unchanged. Then the arena is
//! emptied for the next transaction. It keeps its capacity up to
//! [`RETAINED_BYTES`], which a write set of 128 whole pages fills, so a
//! warm pool saves without allocating; a larger write set (a load phase)
//! allocates, and its excess is released at commit.
//!
//! Chunks, not the byte ranges each write covers: a B+Tree insert shifts
//! the entries after its slot, and one commit's shifts can move more
//! bytes than the pages hold, while the chunks they cover are a fraction
//! of the pages. A chunk of 128 bytes is 16 of the differ's words.
//!
//! A page the file has never held (one `allocate` added to its end) saves
//! nothing: the engine writes it to the file before the commit marker
//! ([`BufferPool::flush_from`]) and logs nothing (see [`crate::engine`]).
//! A frame whose saved chunks a failed commit already spent saves nothing
//! either, and is logged whole. Saving happens on the write path only;
//! reads never pay for it.
//!
//! In debug builds a dirty frame also keeps a whole copy of its page, in
//! the arena, and commit asserts that every byte outside the saved chunks
//! is unchanged and every saved chunk holds the copy's bytes: a change
//! that bypassed the writers fails there.

use std::cell::RefCell;
use std::sync::Arc;

use crate::disk::{DiskManager, IoStats};
use crate::error::{Result, StorageError};
use crate::page::{
    Page, PageId, PageKind, PageMut, SavedChunks, CHUNK, CHUNKS, PAGE_ID_OFFSET, PAGE_SIZE,
};

/// The id of a slot that holds no page; never in the page table.
const FREE: PageId = PageId(u64::MAX);

/// A page-table entry for a page that is not resident.
const ABSENT: u32 = u32::MAX;

/// Bytes of saved chunks the arena keeps allocated between transactions:
/// the chunks of 128 whole pages. A level-6 `closure1NAttSet` commit, the
/// benchmark's largest write set, saves about 435 KB
/// (`storage.commit.saved_bytes`).
pub const RETAINED_BYTES: usize = 1 << 20;

/// A dirty frame's share of the arena: which chunks it saved, and its
/// entry in the arena's tables.
#[derive(Debug, Clone, Copy)]
struct Saved {
    mask: u64,
    entry: u32,
}

/// The saved chunks of every dirty frame (see the module doc's
/// before-images).
#[derive(Default)]
struct Arena {
    /// Saved chunks, [`CHUNK`] bytes each, in the order they were saved.
    chunks: Vec<u8>,
    /// Per entry, the index in `chunks` of each chunk the entry saved.
    slots: Vec<[u32; CHUNKS]>,
    /// Debug builds: per entry, the whole page when the frame went dirty.
    #[cfg(debug_assertions)]
    shadows: Vec<u8>,
}

impl Arena {
    /// A new entry, for `page` going from clean to dirty.
    fn begin(&mut self, page: &Page) -> Saved {
        #[cfg(debug_assertions)]
        self.shadows.extend_from_slice(page.bytes());
        #[cfg(not(debug_assertions))]
        let _ = page;
        self.slots.push([0; CHUNKS]);
        Saved {
            mask: 0,
            entry: (self.slots.len() - 1) as u32,
        }
    }

    /// Save `page`'s chunks of `mask` under `entry`.
    fn save(&mut self, entry: u32, mut mask: u64, page: &[u8; PAGE_SIZE]) {
        let slots = &mut self.slots[entry as usize];
        while mask != 0 {
            let c = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            slots[c] = (self.chunks.len() / CHUNK) as u32;
            self.chunks
                .extend_from_slice(&page[c * CHUNK..(c + 1) * CHUNK]);
        }
    }

    /// What `saved` saved.
    fn chunks(&self, saved: Saved) -> SavedChunks<'_> {
        SavedChunks::new(saved.mask, &self.slots[saved.entry as usize], &self.chunks)
    }

    /// Debug builds: panic unless `page` differs from its copy in the
    /// saved chunks only, and each saved chunk holds the copy's bytes.
    #[cfg(debug_assertions)]
    fn check(&self, saved: Saved, page: &Page) {
        let at = saved.entry as usize * PAGE_SIZE;
        let shadow = &self.shadows[at..at + PAGE_SIZE];
        let before = self.chunks(saved);
        for c in 0..CHUNKS {
            let span = c * CHUNK..(c + 1) * CHUNK;
            let (was, now) = (&shadow[span.clone()], &page.bytes()[span.clone()]);
            if saved.mask & (1 << c) == 0 {
                assert!(
                    was == now,
                    "page {}: bytes {span:?} changed without being saved",
                    page.id()
                );
            }
        }
        for (c, old) in before.iter() {
            assert!(
                old[..] == shadow[c * CHUNK..(c + 1) * CHUNK],
                "page {}: chunk {c} saved the wrong bytes",
                page.id()
            );
        }
    }

    /// Drop every entry, keeping at most [`RETAINED_BYTES`] of capacity.
    fn clear(&mut self) {
        self.chunks.clear();
        self.chunks.shrink_to(RETAINED_BYTES);
        self.slots.clear();
        self.slots.shrink_to(RETAINED_BYTES / PAGE_SIZE);
        #[cfg(debug_assertions)]
        {
            self.shadows.clear();
            self.shadows.shrink_to(RETAINED_BYTES);
        }
    }
}

/// How a [`PageMut`] of a frame with a before-image saves old bytes.
pub(crate) struct Saver<'a> {
    saved: &'a mut Saved,
    arena: &'a RefCell<Arena>,
}

impl Saver<'_> {
    /// Save the chunks of `page` that bytes `off..off + len` overlap and
    /// the frame has not saved yet.
    #[inline]
    pub(crate) fn save(&mut self, page: &[u8; PAGE_SIZE], off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let (first, last) = (off / CHUNK, (off + len - 1) / CHUNK);
        let span = (u64::MAX >> (CHUNKS - 1 - last)) & (u64::MAX << first);
        let new = span & !self.saved.mask;
        if new != 0 {
            self.arena.borrow_mut().save(self.saved.entry, new, page);
            self.saved.mask |= new;
        }
    }
}

/// Lend `frame`'s page for writing.
fn lend<'a>(frame: &'a mut Frame, arena: &'a RefCell<Arena>) -> PageMut<'a> {
    let saver = frame.saved.as_mut().map(|saved| Saver { saved, arena });
    PageMut::new(&mut frame.page, saver)
}

struct Frame {
    /// The page in this slot, or [`FREE`].
    id: PageId,
    page: Page,
    dirty: bool,
    /// The frame holds committed bytes the database file lacks (see the
    /// module doc's write policy). Independent of `dirty`: a frame a
    /// transaction dirties after its last commit is both.
    unwritten: bool,
    /// The chunks saved since the frame last went from clean to dirty;
    /// `None` for a clean frame and for a dirty one without a
    /// before-image. Taken by [`BufferPool::for_each_dirty`].
    saved: Option<Saved>,
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
    /// Committed pages written to the file after their commit: by
    /// eviction, [`BufferPool::flush_all`] or [`BufferPool::write_back`].
    pub writebacks: u64,
}

/// The registry's counters for this layer, looked up once per pool: a
/// fetch runs several times per operation, and finding a counter by name
/// (a lock and a map walk) costs more than the rest of a hit.
struct Counters {
    hits: Arc<obs::Counter>,
    misses: Arc<obs::Counter>,
    evictions: Arc<obs::Counter>,
    writebacks: Arc<obs::Counter>,
}

/// An LRU page cache over a [`DiskManager`].
pub struct BufferPool {
    disk: DiskManager,
    /// The slots, each reused in place when its page is evicted.
    frames: Vec<Frame>,
    /// The slot of each resident page, indexed by page id; [`ABSENT`] for
    /// the others (see the module doc's page table).
    table: Vec<u32>,
    /// Ids of the frames whose `dirty` flag is set, so commit visits the
    /// write set and not the pool.
    dirty_ids: Vec<u64>,
    /// The slot of the pinned page, which eviction skips.
    pin: Option<usize>,
    /// The saved chunks of the dirty frames.
    arena: RefCell<Arena>,
    /// Where [`BufferPool::write_committed`] rebuilds a dirty frame's
    /// committed bytes.
    scratch: Page,
    capacity: usize,
    tick: u64,
    stats: PoolStats,
    counters: Counters,
}

impl BufferPool {
    /// Wrap `disk` with a pool of at most `capacity` frames.
    ///
    /// `capacity` is raised to at least 8: a B+Tree split or merge dirties
    /// several pages at once, and the pool is no-steal.
    pub fn new(disk: DiskManager, capacity: usize) -> BufferPool {
        BufferPool {
            disk,
            frames: Vec::new(),
            table: Vec::new(),
            dirty_ids: Vec::new(),
            pin: None,
            arena: RefCell::default(),
            scratch: Page::new(FREE),
            capacity: capacity.max(8),
            tick: 0,
            stats: PoolStats::default(),
            counters: Counters {
                hits: obs::registry().counter("storage.buffer.hits"),
                misses: obs::registry().counter("storage.buffer.misses"),
                evictions: obs::registry().counter("storage.buffer.evictions"),
                writebacks: obs::registry().counter("storage.buffer.writebacks"),
            },
        }
    }

    /// Number of frames currently resident.
    pub fn resident(&self) -> usize {
        self.frames.iter().filter(|f| f.id != FREE).count()
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

    /// The slot of page `id` if it is resident.
    fn slot(&self, id: PageId) -> Option<usize> {
        match self.table.get(usize::try_from(id.0).ok()?) {
            Some(&slot) if slot != ABSENT => Some(slot as usize),
            _ => None,
        }
    }

    /// The slot of page `id`, read from disk on a miss; counts a hit or
    /// a miss. The index is valid until the next call that can evict.
    pub(crate) fn fetch(&mut self, id: PageId) -> Result<usize> {
        if let Some(idx) = self.slot(id) {
            self.stats.hits += 1;
            self.counters.hits.incr();
            self.touch(idx);
            return Ok(idx);
        }
        self.stats.misses += 1;
        self.counters.misses.incr();
        // A full pool reads into the buffer of the page it evicts. A slot
        // whose read fails stays free.
        let idx = self.make_room()?;
        self.disk.read_page_into(id, &mut self.frames[idx].page)?;
        self.install(idx, id, false);
        Ok(idx)
    }

    /// Page `id` in slot `idx`, which `fetch(id)` returned since the last
    /// evicting call; counts no fetch.
    pub(crate) fn at(&self, idx: usize, id: PageId) -> &Page {
        debug_assert_eq!(self.frames[idx].id, id, "stale slot {idx}");
        &self.frames[idx].page
    }

    /// [`BufferPool::at`] to change the page: the frame becomes dirty. On
    /// its clean→dirty transition it starts saving the chunks its writers
    /// change, the before-image commit diffs against.
    pub(crate) fn at_mut(&mut self, idx: usize, id: PageId) -> PageMut<'_> {
        debug_assert_eq!(self.frames[idx].id, id, "stale slot {idx}");
        let frame = &mut self.frames[idx];
        if !frame.dirty {
            frame.dirty = true;
            frame.saved = Some(self.arena.get_mut().begin(&frame.page));
            self.dirty_ids.push(frame.id.0);
        }
        lend(frame, &self.arena)
    }

    /// Borrow page `id`, reading it from disk on a miss.
    pub fn page(&mut self, id: PageId) -> Result<&Page> {
        let idx = self.fetch(id)?;
        Ok(&self.frames[idx].page)
    }

    /// Borrow page `id` to change it, reading it from disk on a miss. The
    /// frame becomes dirty; see the module doc's before-images.
    pub fn page_mut(&mut self, id: PageId) -> Result<PageMut<'_>> {
        let idx = self.fetch(id)?;
        Ok(self.at_mut(idx, id))
    }

    /// [`BufferPool::page_mut`] for each of `ids` in order, then borrow
    /// them all at once.
    pub(crate) fn pages_mut<const N: usize>(
        &mut self,
        ids: [PageId; N],
    ) -> Result<[PageMut<'_>; N]> {
        for id in ids {
            self.page_mut(id)?;
        }
        self.dirty_mut(ids)
    }

    /// Borrow pages already fetched for writing, all at once, counting no
    /// fetch: no-steal keeps a dirty page resident. Fails if one of `ids`
    /// is not dirty or two are the same.
    pub(crate) fn dirty_mut<const N: usize>(
        &mut self,
        ids: [PageId; N],
    ) -> Result<[PageMut<'_>; N]> {
        let mut slots = [0; N];
        for (slot, id) in slots.iter_mut().zip(ids) {
            *slot = match self.slot(id) {
                Some(idx) if self.frames[idx].dirty => idx,
                _ => {
                    return Err(StorageError::InvalidArgument(format!(
                        "page {id} is not dirty"
                    )))
                }
            };
        }
        let frames = self.frames.get_disjoint_mut(slots).map_err(|_| {
            StorageError::InvalidArgument(format!("pages {ids:?} are not distinct"))
        })?;
        Ok(frames.map(|frame| lend(frame, &self.arena)))
    }

    /// Fetch page `id` and keep it resident until [`BufferPool::unpin`]:
    /// eviction skips it. One page at a time.
    pub(crate) fn pin(&mut self, id: PageId) -> Result<()> {
        debug_assert!(self.pin.is_none(), "one pinned page at a time");
        self.pin = Some(self.fetch(id)?);
        Ok(())
    }

    /// The pinned page, counting no fetch.
    pub(crate) fn pinned(&self) -> &Page {
        &self.frames[self.pin.expect("a page is pinned")].page
    }

    /// Let eviction pick the pinned page again.
    pub(crate) fn unpin(&mut self) {
        self.pin = None;
    }

    /// Allocate a page: pop the persistent free list if non-empty, else
    /// add one at the end of the file. The page enters the pool dirty and
    /// zeroed.
    pub fn allocate(&mut self) -> Result<(PageId, PageMut<'_>)> {
        // The free-list head lives in a fixed slot of the meta page so it
        // participates in commit/recovery like any other page content.
        let head = self.freelist_head()?;
        let idx = if head != 0 {
            let idx = self.fetch(PageId(head))?;
            let mut page = self.at_mut(idx, PageId(head));
            if page.kind()? != PageKind::Free {
                return Err(StorageError::Corruption {
                    page: Some(head),
                    detail: "free-list entry is not a free page".into(),
                });
            }
            let next = page.read_u64(crate::page::FREE_NEXT_OFFSET);
            page.clear_payload();
            self.set_freelist_head(next)?;
            idx
        } else {
            let idx = self.make_room()?;
            let id = self.disk.allocate()?;
            let page = &mut self.frames[idx].page;
            page.write_u64(PAGE_ID_OFFSET, id.0);
            page.clear_payload();
            self.install(idx, id, true);
            idx
        };
        let frame = &mut self.frames[idx];
        Ok((frame.id, lend(frame, &self.arena)))
    }

    /// Return `id` to the persistent free list. The caller must ensure no
    /// live structure references the page.
    pub fn free_page(&mut self, id: PageId) -> Result<()> {
        debug_assert_ne!(id, PageId::META, "cannot free the meta page");
        let head = self.freelist_head()?;
        let mut page = self.page_mut(id)?;
        page.clear_payload();
        page.set_kind(PageKind::Free);
        page.write_u64(crate::page::FREE_NEXT_OFFSET, head);
        self.set_freelist_head(id.0)
    }

    /// Number of pages currently on the free list (walks the chain; for
    /// tests and stats).
    pub fn free_page_count(&mut self) -> Result<usize> {
        let mut n = 0usize;
        let mut cur = self.freelist_head()?;
        while cur != 0 {
            cur = self
                .page(PageId(cur))?
                .read_u64(crate::page::FREE_NEXT_OFFSET);
            n += 1;
        }
        Ok(n)
    }

    fn freelist_head(&mut self) -> Result<u64> {
        Ok(self
            .page(PageId::META)?
            .read_u64(crate::page::META_FREELIST_OFFSET))
    }

    fn set_freelist_head(&mut self, head: u64) -> Result<()> {
        self.page_mut(PageId::META)?
            .write_u64(crate::page::META_FREELIST_OFFSET, head);
        Ok(())
    }

    /// Put page `id`, whose bytes are in slot `idx`, in the page table.
    fn install(&mut self, idx: usize, id: PageId, dirty: bool) {
        let frame = &mut self.frames[idx];
        frame.id = id;
        frame.dirty = dirty;
        if dirty {
            self.dirty_ids.push(id.0);
        }
        let entry = id.0 as usize;
        if entry >= self.table.len() {
            self.table.resize(entry + 1, ABSENT);
        }
        self.table[entry] = idx as u32;
        self.touch(idx);
    }

    /// A free slot: a new one while the pool has room, else the slot of
    /// the least-recently-used frame that is neither dirty nor pinned,
    /// evicted — and written first if it is unwritten. The slot keeps the
    /// evicted page's buffer for the caller to reuse.
    fn make_room(&mut self) -> Result<usize> {
        if self.frames.len() < self.capacity {
            self.frames.push(Frame {
                id: FREE,
                page: Page::new(FREE),
                dirty: false,
                unwritten: false,
                saved: None,
                last_used: 0,
            });
            return Ok(self.frames.len() - 1);
        }
        let mut victim: Option<usize> = None;
        for (i, f) in self.frames.iter().enumerate() {
            if !f.dirty
                && self.pin != Some(i)
                && victim.is_none_or(|v| f.last_used < self.frames[v].last_used)
            {
                victim = Some(i);
            }
        }
        let Some(idx) = victim else {
            return Err(StorageError::PoolExhausted {
                capacity: self.capacity,
                dirty: self.dirty_ids.len(),
                pinned: usize::from(self.pin.is_some()),
            });
        };
        if self.frames[idx].unwritten {
            self.write_committed(idx)?;
        }
        let frame = &mut self.frames[idx];
        // A free slot (its read failed) is reused without an eviction.
        if frame.id != FREE {
            self.table[frame.id.0 as usize] = ABSENT;
            self.stats.evictions += 1;
            self.counters.evictions.incr();
        }
        frame.id = FREE;
        frame.last_used = 0;
        Ok(idx)
    }

    /// The dirty frames' changes are committed — logged, and the log
    /// forced: mark them clean and unwritten, and let go of their saved
    /// chunks. Writes nothing.
    pub fn mark_committed(&mut self) {
        for id in self.dirty_ids.drain(..) {
            let frame = &mut self.frames[self.table[id as usize] as usize];
            frame.dirty = false;
            frame.unwritten = true;
            frame.saved = None;
        }
        self.arena.get_mut().clear();
    }

    /// Write every unwritten frame's committed bytes to the database file,
    /// in page-id order: a clean frame's current bytes, a dirty frame's
    /// with its saved chunks put back. Returns how many were written. Does
    /// **not** fsync.
    /// Afterwards dropping any frame loses nothing committed.
    ///
    /// Fails for a dirty unwritten frame whose before-image a failed
    /// commit already spent: its committed bytes are in the log only, and
    /// the next successful commit makes it clean again.
    pub fn write_back(&mut self) -> Result<usize> {
        let mut due: Vec<usize> = (0..self.frames.len())
            .filter(|&i| self.frames[i].unwritten)
            .collect();
        due.sort_unstable_by_key(|&i| self.frames[i].id);
        for &i in &due {
            self.write_committed(i)?;
        }
        Ok(due.len())
    }

    /// Write frame `idx`'s committed bytes — its current bytes if clean,
    /// its before-image if dirty — to the file, and count a writeback.
    fn write_committed(&mut self, idx: usize) -> Result<()> {
        let frame = &mut self.frames[idx];
        match (frame.dirty, frame.saved) {
            (false, _) => self.disk.write_page(&mut frame.page)?,
            // The before-image is the page with its saved chunks put back,
            // sealed in the scratch page: the frame keeps the
            // transaction's bytes.
            (true, Some(saved)) => {
                self.scratch.clone_from(&frame.page);
                self.arena
                    .get_mut()
                    .chunks(saved)
                    .restore(&mut self.scratch);
                self.disk.write_page(&mut self.scratch)?
            }
            (true, None) => {
                return Err(StorageError::InvalidArgument(format!(
                    "page {} holds committed bytes only the log has; commit before writing back",
                    frame.id
                )))
            }
        }
        frame.unwritten = false;
        self.stats.writebacks += 1;
        self.counters.writebacks.incr();
        Ok(())
    }

    /// Write every unwritten frame ([`BufferPool::write_back`]) and every
    /// dirty frame to the database file, and clear their flags. Returns
    /// how many writes that took. Does **not** fsync; callers pair this
    /// with [`BufferPool::sync`] according to their durability protocol.
    pub fn flush_all(&mut self) -> Result<usize> {
        Ok(self.write_back()? + self.flush_from(PageId::META)?)
    }

    /// [`BufferPool::flush_all`] for the dirty frames whose id is `first`
    /// or higher; the others stay dirty, saved chunks and all.
    pub fn flush_from(&mut self, first: PageId) -> Result<usize> {
        // Sorted descending, the frames due are a prefix. Walking it back
        // to front writes in file order, and a failed write leaves exactly
        // the unwritten frames listed.
        self.dirty_ids.sort_unstable_by(|a, b| b.cmp(a));
        let due = self.dirty_ids.partition_point(|&id| id >= first.0);
        let mut written = 0;
        let result = self.dirty_ids[..due].iter().rev().try_for_each(|&id| {
            let frame = &mut self.frames[self.table[id as usize] as usize];
            self.disk.write_page(&mut frame.page)?;
            frame.dirty = false;
            frame.unwritten = false;
            frame.saved = None;
            written += 1;
            Ok(())
        });
        self.dirty_ids.drain(due - written..due);
        result.map(|()| written)
    }

    /// Visit every dirty frame in page-id order with its before-image —
    /// the chunks it saved (`None` for a frame that was never clean, or
    /// already visited) — and its current bytes. Outside the saved chunks
    /// the page is as it was. `keep` answers whether the frame stays
    /// dirty: a frame it reports unchanged is clean again and will be
    /// neither logged nor flushed. The saved chunks are consumed either
    /// way — once a page's change is handed to the log they no longer
    /// describe what the log holds, so a frame still dirty at the next
    /// visit (a failed commit being retried) is logged whole — and the
    /// arena is emptied.
    pub fn for_each_dirty(
        &mut self,
        mut keep: impl FnMut(PageId, Option<SavedChunks<'_>>, &Page) -> bool,
    ) {
        self.dirty_ids.sort_unstable();
        let (frames, table, arena) = (&mut self.frames, &self.table, self.arena.get_mut());
        self.dirty_ids.retain(|&id| {
            let frame = &mut frames[table[id as usize] as usize];
            let saved = frame.saved.take();
            #[cfg(debug_assertions)]
            if let Some(saved) = saved {
                arena.check(saved, &frame.page);
            }
            frame.dirty = keep(frame.id, saved.map(|s| arena.chunks(s)), &frame.page);
            frame.dirty
        });
        arena.clear();
    }

    /// Number of dirty frames.
    pub fn dirty_count(&self) -> usize {
        self.dirty_ids.len()
    }

    /// fsync the database file.
    pub fn sync(&mut self) -> Result<()> {
        self.disk.sync()
    }

    /// Drop every cached frame. Dirty or unwritten frames make this an
    /// error; it is used to simulate a database close/open cycle (cold
    /// runs).
    pub fn drop_all(&mut self) -> Result<()> {
        if let Some(id) = self.dirty_ids.first() {
            return Err(StorageError::InvalidArgument(format!(
                "drop_all with dirty page {}",
                PageId(*id)
            )));
        }
        self.clear_frames("drop_all")
    }

    /// Drop every cached frame **including dirty ones**, without writing
    /// them. Under the no-steal protocol the database file still holds the
    /// pre-transaction state of every page that is not unwritten, so this
    /// is the abort primitive: the next fetch re-reads clean images from
    /// disk. Unwritten frames are still an error: they must go through
    /// [`BufferPool::write_back`] first.
    pub fn discard_all(&mut self) -> Result<()> {
        self.clear_frames("discard_all")
    }

    /// Drop every frame, or fail as `what` if one is unwritten.
    fn clear_frames(&mut self, what: &str) -> Result<()> {
        if let Some(f) = self.frames.iter().find(|f| f.unwritten) {
            return Err(StorageError::InvalidArgument(format!(
                "{what} with unwritten page {}",
                f.id
            )));
        }
        self.frames.clear();
        self.table.clear();
        self.dirty_ids.clear();
        self.arena.get_mut().clear();
        Ok(())
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("resident", &self.resident())
            .field("dirty", &self.dirty_count())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::OsFs;
    use std::path::PathBuf;

    fn pool(name: &str, cap: usize) -> (BufferPool, PathBuf) {
        let mut p = std::env::temp_dir();
        p.push(format!("hm-pool-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        let dm = DiskManager::create(&OsFs, &p).unwrap();
        (BufferPool::new(dm, cap), p)
    }

    #[test]
    fn fetch_caches_pages() {
        let (mut bp, path) = pool("cache", 16);
        let (id, mut page) = bp.allocate().unwrap();
        page.write_u64(100, 5);
        bp.flush_all().unwrap();
        assert_eq!(bp.page(id).unwrap().read_u64(100), 5);
        let before = bp.stats();
        bp.page(id).unwrap();
        let after = bp.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn eviction_prefers_lru_and_skips_pinned() {
        // Seven pages and the meta page fill the pool.
        let (mut bp, path) = pool("lru", 8);
        let ids: Vec<PageId> = (0..7).map(|_| bp.allocate().unwrap().0).collect();
        bp.flush_all().unwrap();
        // Pin ids[0], then touch every other page: ids[0] is the LRU page.
        bp.pin(ids[0]).unwrap();
        for &id in [PageId::META].iter().chain(&ids[1..]) {
            bp.page(id).unwrap();
        }
        bp.allocate().unwrap(); // forces one eviction
        assert!(bp.slot(ids[0]).is_some(), "pinned page must stay");
        assert!(bp.slot(ids[1]).is_none(), "LRU unpinned page evicted");
        assert_eq!(bp.pinned().id(), ids[0]);
        // Unpinned, it is the next victim.
        bp.unpin();
        bp.allocate().unwrap();
        assert!(bp.slot(ids[0]).is_none(), "unpinned LRU page evicted");
        assert_eq!(bp.stats().evictions, 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dirty_pages_are_never_evicted() {
        let (mut bp, path) = pool("nosteal", 8);
        // Fill the pool with dirty pages, then demand one more frame.
        for _ in 0..8 {
            bp.allocate().unwrap();
        }
        let err = bp.allocate().unwrap_err();
        assert!(matches!(
            err,
            StorageError::PoolExhausted {
                capacity: 8,
                dirty: 8,
                pinned: 0
            }
        ));
        // After a flush, eviction succeeds.
        bp.flush_all().unwrap();
        bp.allocate().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dirty_pages_are_lent_again_without_a_fetch() {
        let (mut bp, path) = pool("lend", 8);
        let (a, _) = bp.allocate().unwrap();
        let (b, _) = bp.allocate().unwrap();
        bp.flush_all().unwrap();
        let stats = bp.stats();
        let [mut pa, mut pb] = bp.pages_mut([a, b]).unwrap();
        pa.write_u64(64, 1);
        pb.write_u64(64, 2);
        assert_eq!(bp.stats().hits, stats.hits + 2);
        let [pb, pa] = bp.dirty_mut([b, a]).unwrap();
        assert_eq!((pa.read_u64(64), pb.read_u64(64)), (1, 2));
        assert_eq!(bp.stats().hits, stats.hits + 2, "no fetch counted");
        assert!(bp.dirty_mut([a, a]).is_err(), "one page lent twice");
        assert!(bp.dirty_mut([PageId::META]).is_err(), "a clean page");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flush_all_persists_and_cleans() {
        let (mut bp, path) = pool("flush", 8);
        let (id, mut page) = bp.allocate().unwrap();
        page.write_u64(200, 99);
        assert_eq!(bp.dirty_count(), 1);
        assert_eq!(bp.flush_all().unwrap(), 1);
        assert_eq!(bp.dirty_count(), 0);
        bp.drop_all().unwrap();
        assert_eq!(bp.page(id).unwrap().read_u64(200), 99);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn drop_all_refuses_dirty_frames() {
        let (mut bp, path) = pool("dropall", 8);
        bp.allocate().unwrap();
        assert!(bp.drop_all().is_err()); // dirty
        bp.flush_all().unwrap();
        bp.drop_all().unwrap();
        assert_eq!(bp.resident(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn discard_all_drops_dirty_frames_without_writing() {
        let (mut bp, path) = pool("discard", 8);
        let (id, mut page) = bp.allocate().unwrap();
        page.write_u64(200, 7);
        bp.flush_all().unwrap();
        // Dirty the page again with a value that must NOT survive.
        bp.page_mut(id).unwrap().write_u64(200, 8);
        bp.discard_all().unwrap();
        assert_eq!(bp.resident(), 0);
        assert_eq!(
            bp.page(id).unwrap().read_u64(200),
            7,
            "pre-abort image re-read"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failed_read_leaves_a_free_slot_that_is_reused_first() {
        let (mut bp, path) = pool("failed-read", 8);
        let ids: Vec<PageId> = (0..7).map(|_| bp.allocate().unwrap().0).collect();
        bp.flush_all().unwrap();
        // The miss evicts the LRU frame, ids[0], then its read fails.
        assert!(bp.page(PageId(99)).is_err());
        assert!(bp.slot(ids[0]).is_none());
        assert_eq!((bp.resident(), bp.stats().evictions), (7, 1));
        // The next miss takes the free slot and evicts nothing.
        assert_eq!(bp.page(ids[0]).unwrap().id(), ids[0]);
        assert_eq!((bp.resident(), bp.stats().evictions), (8, 1));
        std::fs::remove_file(&path).unwrap();
    }

    /// `n` pages allocated and written, then one of them changed and
    /// committed: clean, unwritten, and the file untouched.
    fn pool_with_a_commit(name: &str, n: usize) -> (BufferPool, PathBuf, Vec<PageId>) {
        let (mut bp, path) = pool(name, 8);
        let ids: Vec<PageId> = (0..n).map(|_| bp.allocate().unwrap().0).collect();
        bp.flush_all().unwrap();
        bp.page_mut(ids[0]).unwrap().write_u64(64, 42);
        let io = bp.io_stats();
        bp.mark_committed();
        assert_eq!(bp.dirty_count(), 0);
        assert_eq!(bp.io_stats(), io, "a commit writes no page");
        (bp, path, ids)
    }

    #[test]
    fn evicting_an_unwritten_frame_writes_it_once() {
        // Seven pages and the meta page fill the pool.
        let (mut bp, path, ids) = pool_with_a_commit("evict-unwritten", 7);
        for &id in [PageId::META].iter().chain(&ids[1..]) {
            bp.page(id).unwrap();
        }
        let (writes, stats) = (bp.io_stats().writes, bp.stats());
        bp.allocate().unwrap(); // evicts ids[0], the LRU frame
        assert!(bp.slot(ids[0]).is_none());
        assert_eq!(bp.io_stats().writes, writes + 1);
        assert_eq!(bp.stats().evictions, stats.evictions + 1);
        assert_eq!(bp.stats().writebacks, stats.writebacks + 1);
        // The miss reads the committed bytes back, into the buffer of the
        // frame it evicts, and writes nothing: that frame was written.
        assert_eq!(bp.page(ids[0]).unwrap().read_u64(64), 42);
        assert_eq!(bp.io_stats().writes, writes + 1);
        assert_eq!(bp.stats().writebacks, stats.writebacks + 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn drop_all_and_discard_all_refuse_unwritten_frames() {
        let (mut bp, path, ids) = pool_with_a_commit("drop-unwritten", 2);
        let refused = |r: Result<()>| r.unwrap_err().to_string();
        let unwritten = format!("unwritten page {}", ids[0]);
        assert!(refused(bp.drop_all()).contains(&unwritten));
        assert!(refused(bp.discard_all()).contains(&unwritten));
        // flush_all writes it, once, and then both may drop it.
        let writes = bp.io_stats().writes;
        assert_eq!(bp.flush_all().unwrap(), 1);
        assert_eq!(bp.flush_all().unwrap(), 0);
        assert_eq!(bp.io_stats().writes, writes + 1);
        assert_eq!(bp.stats().writebacks, 1);
        bp.drop_all().unwrap();
        assert_eq!(bp.page(ids[0]).unwrap().read_u64(64), 42);
        std::fs::remove_file(&path).unwrap();
    }

    /// Byte `off` of `page` as it was before the chunks `saved` changed.
    fn was(saved: SavedChunks<'_>, page: &Page, off: usize) -> u8 {
        let mut before = page.clone();
        saved.restore(&mut before);
        before.bytes()[off]
    }

    #[test]
    fn write_back_writes_a_dirty_frames_committed_bytes() {
        let (mut bp, path, ids) = pool_with_a_commit("write-back", 2);
        // An open transaction changes the committed page again.
        bp.page_mut(ids[0]).unwrap().write_u64(64, 43);
        assert_eq!(bp.write_back().unwrap(), 1);
        assert_eq!(bp.write_back().unwrap(), 0);
        // The change is still dirty, its before-image intact ...
        let mut seen = Vec::new();
        bp.for_each_dirty(|id, before, page| {
            seen.push((id, before.map(|b| was(b, page, 64)), page.read_u64(64)));
            true
        });
        assert_eq!(seen, vec![(ids[0], Some(42), 43)]);
        // ... and dropping it leaves the committed bytes in the file.
        bp.discard_all().unwrap();
        assert_eq!(bp.page(ids[0]).unwrap().read_u64(64), 42);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn for_each_dirty_visits_the_write_set_in_id_order_with_before_images() {
        let (mut bp, path) = pool("visit", 8);
        let (fresh, mut page) = bp.allocate().unwrap();
        page.write_u64(64, 1);
        let (edited, _) = bp.allocate().unwrap();
        let (probed, _) = bp.allocate().unwrap();
        let (clean, _) = bp.allocate().unwrap();
        bp.flush_all().unwrap();
        assert_eq!(bp.dirty_count(), 0);

        // One page never clean, one edited, one fetched for writing but
        // left alone, one only read.
        let (newer, mut page) = bp.allocate().unwrap();
        page.write_u64(64, 5);
        bp.page_mut(edited).unwrap().write_u64(64, 2);
        // A second page_mut of a dirty frame keeps the first before-image.
        bp.page_mut(edited).unwrap().write_u64(72, 3);
        bp.page_mut(probed).unwrap();
        bp.page(clean).unwrap();
        assert_eq!(bp.dirty_count(), 3);

        let mut seen = Vec::new();
        bp.for_each_dirty(|id, before, page| {
            let changed = before.is_none_or(|b| !b.unchanged(page.bytes()));
            let old = before.map(|b| (b.mask(), was(b, page, 64)));
            seen.push((id, old, page.read_u64(64), changed));
            changed
        });
        // Both writes to `edited` fall in its chunk 0, saved once.
        assert_eq!(
            seen,
            vec![
                (edited, Some((1, 0)), 2, true),
                (probed, Some((0, 0)), 0, false),
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
        assert_eq!(bp.page(edited).unwrap().read_u64(72), 3);
        assert_eq!(bp.page(probed).unwrap().read_u64(64), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cold_reload_misses_then_hits() {
        let (mut bp, path) = pool("coldwarm", 32);
        let ids: Vec<PageId> = (0..10).map(|_| bp.allocate().unwrap().0).collect();
        bp.flush_all().unwrap();
        bp.drop_all().unwrap();
        bp.reset_stats();
        for &id in &ids {
            bp.page(id).unwrap();
        }
        assert_eq!(bp.stats().misses, 10);
        assert_eq!(bp.stats().hits, 0);
        for &id in &ids {
            bp.page(id).unwrap();
        }
        assert_eq!(bp.stats().hits, 10);
        std::fs::remove_file(&path).unwrap();
    }
}
