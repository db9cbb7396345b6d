//! Heap files: unordered collections of variable-size records.
//!
//! A heap file is a chain of slotted pages. Records are addressed by a
//! stable [`RecordId`] (page, slot). Records larger than
//! [`INLINE_LIMIT`] are spilled to a chain of overflow pages and the heap
//! record stores only a pointer — this is how HyperModel form-node bitmaps
//! (up to 400×400 bits = 20 kB) are stored on 8 kB pages.
//!
//! # Clustering
//!
//! [`HeapFile::insert_near`] implements the paper's clustering requirement
//! (§5.2: *"If the system supports clustering, clustering should be done
//! along the 1-N relationship-hierarchy"*): the caller passes the record id
//! of a neighbour (e.g. the parent node) and the record is placed on the
//! same page when it fits, so a pre-order 1-N traversal touches few pages.

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{PageId, PageKind, HEADER_SIZE};
use crate::slotted;

/// Records up to this many bytes are stored inline on a heap page; larger
/// ones go to overflow chains. Half a page keeps at least two records per
/// page while letting typical text nodes (≈380 B) stay inline.
pub const INLINE_LIMIT: usize = 4000;

/// Tag byte preceding every stored record.
const TAG_INLINE: u8 = 0;
const TAG_OVERFLOW: u8 = 1;

/// Overflow page payload layout: common header, then
/// `u64 next`, `u32 len`, data.
const OVF_NEXT: usize = HEADER_SIZE;
const OVF_LEN: usize = HEADER_SIZE + 8;
const OVF_DATA: usize = HEADER_SIZE + 12;
const OVF_CAP: usize = crate::page::PAGE_SIZE - OVF_DATA;

/// Stable address of a record within a heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Page holding the record's slot.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

impl RecordId {
    /// Pack into a u64 for storage in indexes (page ids fit in 48 bits).
    pub fn pack(self) -> u64 {
        (self.page.0 << 16) | self.slot as u64
    }

    /// Unpack from [`RecordId::pack`] form.
    pub fn unpack(v: u64) -> RecordId {
        RecordId {
            page: PageId(v >> 16),
            slot: (v & 0xFFFF) as u16,
        }
    }
}

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.page, self.slot)
    }
}

/// A stored record: its bytes, or where its overflow chain starts and
/// how long it is.
enum Stored<'a> {
    Inline(&'a [u8]),
    Overflow { head: u64, len: usize },
}

/// A heap file rooted at `first_page`. The struct itself is a lightweight
/// cursor; all state lives in the buffer pool / on disk. The id of the
/// first page is persisted in the engine catalog by the caller.
#[derive(Debug, Clone, Copy)]
pub struct HeapFile {
    first_page: PageId,
    /// Cached tail hint: page where the last append landed. Purely an
    /// optimization; if stale the insert path walks the chain.
    tail_hint: PageId,
}

impl HeapFile {
    /// Create a new heap file with one empty page.
    pub fn create(pool: &mut BufferPool) -> Result<HeapFile> {
        let (id, mut page) = pool.allocate()?;
        slotted::init(&mut page, PageKind::Heap);
        Ok(HeapFile {
            first_page: id,
            tail_hint: id,
        })
    }

    /// Re-open a heap file rooted at `first_page`.
    pub fn open(first_page: PageId) -> HeapFile {
        HeapFile {
            first_page,
            tail_hint: first_page,
        }
    }

    /// Id of the first page (persist this in the catalog).
    pub fn first_page(&self) -> PageId {
        self.first_page
    }

    fn encode_inline(data: &[u8]) -> Vec<u8> {
        let mut v = Vec::with_capacity(data.len() + 1);
        v.push(TAG_INLINE);
        v.extend_from_slice(data);
        v
    }

    fn write_overflow_chain(pool: &mut BufferPool, data: &[u8]) -> Result<PageId> {
        // Build the chain back-to-front so each page can store its `next`
        // link at creation time.
        let mut next: u64 = 0;
        let mut chunks: Vec<&[u8]> = data.chunks(OVF_CAP).collect();
        let mut first = PageId(0);
        while let Some(chunk) = chunks.pop() {
            let (id, mut page) = pool.allocate()?;
            page.clear_payload();
            page.set_kind(PageKind::Overflow);
            page.write_u64(OVF_NEXT, next);
            page.write_u32(OVF_LEN, chunk.len() as u32);
            page.write_bytes(OVF_DATA, chunk);
            next = id.0;
            first = id;
        }
        Ok(first)
    }

    fn read_overflow_chain(
        pool: &mut BufferPool,
        mut page_id: u64,
        total: usize,
    ) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(total);
        while page_id != 0 {
            let page = pool.page(PageId(page_id))?;
            if page.kind()? != PageKind::Overflow {
                return Err(StorageError::Corruption {
                    page: Some(page_id),
                    detail: "expected overflow page".into(),
                });
            }
            let len = page.read_u32(OVF_LEN) as usize;
            out.extend_from_slice(page.read_bytes(OVF_DATA, len));
            page_id = page.read_u64(OVF_NEXT);
        }
        if out.len() != total {
            return Err(StorageError::Corruption {
                page: None,
                detail: format!("overflow chain length {} != recorded {}", out.len(), total),
            });
        }
        Ok(out)
    }

    fn encode(pool: &mut BufferPool, data: &[u8]) -> Result<Vec<u8>> {
        if data.len() <= INLINE_LIMIT {
            Ok(Self::encode_inline(data))
        } else {
            let first = Self::write_overflow_chain(pool, data)?;
            let mut v = Vec::with_capacity(13);
            v.push(TAG_OVERFLOW);
            v.extend_from_slice(&first.0.to_le_bytes());
            v.extend_from_slice(&(data.len() as u32).to_le_bytes());
            Ok(v)
        }
    }

    /// Return every page of an overflow chain to the free list.
    fn free_overflow_chain(pool: &mut BufferPool, mut page_id: u64) -> Result<()> {
        while page_id != 0 {
            let page = pool.page(PageId(page_id))?;
            if page.kind()? != PageKind::Overflow {
                return Err(StorageError::Corruption {
                    page: Some(page_id),
                    detail: "expected overflow page while freeing".into(),
                });
            }
            let next = page.read_u64(OVF_NEXT);
            pool.free_page(PageId(page_id))?;
            page_id = next;
        }
        Ok(())
    }

    /// The first page of the overflow chain `stored` points to, if any.
    fn overflow_head(stored: &[u8], rid: RecordId) -> Option<u64> {
        match Self::parse(stored, rid) {
            Ok(Stored::Overflow { head, .. }) => Some(head),
            _ => None,
        }
    }

    /// Parse the record `stored` in `rid`'s slot.
    fn parse(stored: &[u8], rid: RecordId) -> Result<Stored<'_>> {
        match stored.first() {
            Some(&TAG_INLINE) => Ok(Stored::Inline(&stored[1..])),
            Some(&TAG_OVERFLOW) if stored.len() >= 13 => Ok(Stored::Overflow {
                head: u64::from_le_bytes(stored[1..9].try_into().expect("8 bytes")),
                len: u32::from_le_bytes(stored[9..13].try_into().expect("4 bytes")) as usize,
            }),
            _ => Err(StorageError::Corruption {
                page: Some(rid.page.0),
                detail: format!("bad record tag in slot {}", rid.slot),
            }),
        }
    }

    /// Insert a record at the tail of the heap, returning its id.
    pub fn insert(&mut self, pool: &mut BufferPool, data: &[u8]) -> Result<RecordId> {
        let encoded = Self::encode(pool, data)?;
        self.insert_encoded(pool, &encoded, None)
    }

    /// Insert a record, preferring the page of `neighbor` (clustering).
    pub fn insert_near(
        &mut self,
        pool: &mut BufferPool,
        data: &[u8],
        neighbor: RecordId,
    ) -> Result<RecordId> {
        let encoded = Self::encode(pool, data)?;
        self.insert_encoded(pool, &encoded, Some(neighbor.page))
    }

    fn insert_encoded(
        &mut self,
        pool: &mut BufferPool,
        encoded: &[u8],
        hint: Option<PageId>,
    ) -> Result<RecordId> {
        // A page is probed through `page` and borrowed for writing only
        // once it is known to take the record (`fits` is exactly
        // `insert`'s own test): a page merely walked past stays clean, so
        // it costs no before-image and the no-steal pool can still evict
        // it. After `open` the tail hint is the first page, and the walk
        // may be longer than the pool.
        if let Some(hp) = hint {
            let page = pool.page(hp)?;
            if page.kind()? == PageKind::Heap && slotted::fits(page, encoded.len()) {
                if let Some(slot) = slotted::insert(&mut pool.page_mut(hp)?, encoded) {
                    return Ok(RecordId { page: hp, slot });
                }
            }
        }
        // Try the tail hint, then walk/extend the chain.
        let mut current = self.tail_hint;
        loop {
            let page = pool.page(current)?;
            let next = slotted::next_page(page);
            if slotted::fits(page, encoded.len()) {
                if let Some(slot) = slotted::insert(&mut pool.page_mut(current)?, encoded) {
                    self.tail_hint = current;
                    return Ok(RecordId {
                        page: current,
                        slot,
                    });
                }
            }
            if next != 0 {
                current = PageId(next);
                continue;
            }
            // Extend the chain with a fresh page.
            let (new_id, mut page) = pool.allocate()?;
            slotted::init(&mut page, PageKind::Heap);
            slotted::set_next_page(&mut pool.page_mut(current)?, new_id.0);
            current = new_id;
        }
    }

    /// Read the record at `rid`.
    pub fn get(&self, pool: &mut BufferPool, rid: RecordId) -> Result<Vec<u8>> {
        let page = pool.page(rid.page)?;
        let stored = slotted::get(page, rid.slot).ok_or(StorageError::RecordNotFound {
            page: rid.page.0,
            slot: rid.slot,
        })?;
        match Self::parse(stored, rid)? {
            Stored::Inline(data) => Ok(data.to_vec()),
            Stored::Overflow { head, len } => Self::read_overflow_chain(pool, head, len),
        }
    }

    /// Update the record at `rid`. Returns the (possibly new) record id:
    /// if the grown record no longer fits on its page it is relocated and
    /// the caller must update any references to it.
    pub fn update(
        &mut self,
        pool: &mut BufferPool,
        rid: RecordId,
        data: &[u8],
    ) -> Result<RecordId> {
        let encoded = Self::encode(pool, data)?;
        let old_overflow;
        let in_place = {
            let mut page = pool.page_mut(rid.page)?;
            let Some(old_stored) = slotted::get(&page, rid.slot) else {
                return Err(StorageError::RecordNotFound {
                    page: rid.page.0,
                    slot: rid.slot,
                });
            };
            old_overflow = Self::overflow_head(old_stored, rid);
            if slotted::update(&mut page, rid.slot, &encoded) {
                true
            } else {
                // Does not fit on this page: delete, re-insert elsewhere.
                slotted::delete(&mut page, rid.slot);
                false
            }
        };
        // The old value's overflow chain (if any) is dead either way.
        if let Some(head) = old_overflow {
            Self::free_overflow_chain(pool, head)?;
        }
        if in_place {
            Ok(rid)
        } else {
            self.insert_encoded(pool, &encoded, None)
        }
    }

    /// Delete the record at `rid`, returning any overflow pages to the
    /// free list. Returns an error if the record does not exist.
    pub fn delete(&mut self, pool: &mut BufferPool, rid: RecordId) -> Result<()> {
        let mut page = pool.page_mut(rid.page)?;
        let Some(stored) = slotted::get(&page, rid.slot) else {
            return Err(StorageError::RecordNotFound {
                page: rid.page.0,
                slot: rid.slot,
            });
        };
        let old_overflow = Self::overflow_head(stored, rid);
        slotted::delete(&mut page, rid.slot);
        if let Some(head) = old_overflow {
            Self::free_overflow_chain(pool, head)?;
        }
        Ok(())
    }

    /// Visit every live record in chain order, invoking `f(rid, bytes)`.
    /// Stops early if `f` returns `false`. A page stays pinned while its
    /// records are visited, overflow chains and all.
    pub fn scan<F>(&self, pool: &mut BufferPool, mut f: F) -> Result<()>
    where
        F: FnMut(RecordId, &[u8]) -> bool,
    {
        let mut current = self.first_page;
        loop {
            pool.pin(current)?;
            let visited = Self::visit_pinned(pool, current, &mut f);
            pool.unpin();
            match visited? {
                Some(next) if next != 0 => current = PageId(next),
                _ => return Ok(()),
            }
        }
    }

    /// [`HeapFile::scan`]'s visit of the pinned page `id`: its next-page
    /// link, or `None` if `f` stopped the scan.
    fn visit_pinned<F>(pool: &mut BufferPool, id: PageId, f: &mut F) -> Result<Option<u64>>
    where
        F: FnMut(RecordId, &[u8]) -> bool,
    {
        let mut page = pool.pinned();
        let next = slotted::next_page(page);
        for slot in 0..slotted::slot_count(page) {
            let rid = RecordId { page: id, slot };
            let Some(stored) = slotted::get(page, slot) else {
                continue;
            };
            // An inline record is visited where it lies; only a chain
            // of overflow pages has to be put together first.
            let more = match Self::parse(stored, rid)? {
                Stored::Inline(data) => f(rid, data),
                Stored::Overflow { head, len } => {
                    let data = Self::read_overflow_chain(pool, head, len)?;
                    // Borrowed again after the chain's reads; the pin kept
                    // the page resident.
                    page = pool.pinned();
                    f(rid, &data)
                }
            };
            if !more {
                return Ok(None);
            }
        }
        Ok(Some(next))
    }

    /// Count live records (walks the whole chain).
    pub fn len(&self, pool: &mut BufferPool) -> Result<usize> {
        let mut n = 0usize;
        let mut current = self.first_page;
        loop {
            let page = pool.page(current)?;
            n += slotted::live_count(page) as usize;
            let next = slotted::next_page(page);
            if next == 0 {
                return Ok(n);
            }
            current = PageId(next);
        }
    }

    /// True if the heap holds no records.
    pub fn is_empty(&self, pool: &mut BufferPool) -> Result<bool> {
        Ok(self.len(pool)? == 0)
    }

    /// Number of pages in the heap chain (excluding overflow pages).
    pub fn page_count(&self, pool: &mut BufferPool) -> Result<usize> {
        let mut n = 0usize;
        let mut current = self.first_page;
        loop {
            n += 1;
            let next = slotted::next_page(pool.page(current)?);
            if next == 0 {
                return Ok(n);
            }
            current = PageId(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::PoolStats;
    use crate::disk::DiskManager;
    use crate::vfs::OsFs;
    use std::path::PathBuf;

    fn setup(name: &str) -> (BufferPool, PathBuf) {
        let mut p = std::env::temp_dir();
        p.push(format!("hm-heap-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        let dm = DiskManager::create(&OsFs, &p).unwrap();
        (BufferPool::new(dm, 256), p)
    }

    #[test]
    fn insert_get_update_delete() {
        let (mut pool, path) = setup("crud");
        let mut heap = HeapFile::create(&mut pool).unwrap();
        let rid = heap.insert(&mut pool, b"alpha").unwrap();
        assert_eq!(heap.get(&mut pool, rid).unwrap(), b"alpha");
        let rid2 = heap.update(&mut pool, rid, b"alpha-extended").unwrap();
        assert_eq!(rid2, rid, "small grow stays in place");
        assert_eq!(heap.get(&mut pool, rid).unwrap(), b"alpha-extended");
        heap.delete(&mut pool, rid).unwrap();
        assert!(heap.get(&mut pool, rid).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn heap_spans_many_pages() {
        let (mut pool, path) = setup("many");
        let mut heap = HeapFile::create(&mut pool).unwrap();
        let mut rids = Vec::new();
        for i in 0..1000u32 {
            let data = format!("record-{i:05}-{}", "x".repeat(64));
            rids.push(heap.insert(&mut pool, data.as_bytes()).unwrap());
        }
        assert!(heap.page_count(&mut pool).unwrap() > 5);
        assert_eq!(heap.len(&mut pool).unwrap(), 1000);
        for (i, &rid) in rids.iter().enumerate() {
            let data = heap.get(&mut pool, rid).unwrap();
            assert!(String::from_utf8(data)
                .unwrap()
                .starts_with(&format!("record-{i:05}")));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn overflow_round_trip() {
        let (mut pool, path) = setup("ovf");
        let mut heap = HeapFile::create(&mut pool).unwrap();
        // A 400x400 bitmap = 20 000 bytes, the paper's largest form node.
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let rid = heap.insert(&mut pool, &big).unwrap();
        assert_eq!(heap.get(&mut pool, rid).unwrap(), big);
        // Update the overflow record with a different large value.
        let big2: Vec<u8> = (0..19_999u32).map(|i| (i % 13) as u8).collect();
        let rid2 = heap.update(&mut pool, rid, &big2).unwrap();
        assert_eq!(heap.get(&mut pool, rid2).unwrap(), big2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scan_visits_all_in_chain_order() {
        let (mut pool, path) = setup("scan");
        let mut heap = HeapFile::create(&mut pool).unwrap();
        for i in 0..500u32 {
            heap.insert(&mut pool, &i.to_le_bytes()).unwrap();
        }
        let mut seen = Vec::new();
        heap.scan(&mut pool, |_, data| {
            seen.push(u32::from_le_bytes(data.try_into().unwrap()));
            true
        })
        .unwrap();
        assert_eq!(seen, (0..500).collect::<Vec<u32>>());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scan_keeps_a_page_resident_while_it_reads_its_overflow_chains() {
        let mut p = std::env::temp_dir();
        p.push(format!("hm-heap-{}-scanmixed", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let mut pool = BufferPool::new(DiskManager::create(&OsFs, &p).unwrap(), 8);
        let mut heap = HeapFile::create(&mut pool).unwrap();
        // Inline records alternate with 400x400 form bitmaps, which are
        // over INLINE_LIMIT and take a three-page overflow chain each.
        let records: Vec<Vec<u8>> = (0..12u8)
            .map(|i| vec![i; if i % 2 == 0 { 2_000 } else { 20_000 }])
            .collect();
        let mut rids = Vec::new();
        for data in &records {
            rids.push(heap.insert(&mut pool, data).unwrap());
            pool.flush_all().unwrap();
        }
        assert_eq!(heap.page_count(&mut pool).unwrap(), 2);
        pool.drop_all().unwrap();
        pool.reset_stats();

        let mut seen = Vec::new();
        heap.scan(&mut pool, |rid, data| {
            seen.push((rid, data.to_vec()));
            true
        })
        .unwrap();
        assert_eq!(seen, rids.into_iter().zip(records).collect::<Vec<_>>());
        // A cold scan reads every page once: 2 heap pages and 6 chains of
        // 3. The first heap page's four chains alone outnumber the pool's
        // 8 frames, but the page stays resident until its last record.
        assert_eq!(
            pool.stats(),
            PoolStats {
                hits: 0,
                misses: 20,
                evictions: 12,
                writebacks: 0
            }
        );
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn scan_early_exit() {
        let (mut pool, path) = setup("early");
        let mut heap = HeapFile::create(&mut pool).unwrap();
        for i in 0..100u32 {
            heap.insert(&mut pool, &i.to_le_bytes()).unwrap();
        }
        let mut n = 0;
        heap.scan(&mut pool, |_, _| {
            n += 1;
            n < 10
        })
        .unwrap();
        assert_eq!(n, 10);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn insert_near_clusters_on_same_page() {
        let (mut pool, path) = setup("cluster");
        let mut heap = HeapFile::create(&mut pool).unwrap();
        let parent = heap.insert(&mut pool, &[0u8; 100]).unwrap();
        // Fill unrelated records until the tail moves to another page, then
        // free one record on the parent's page so clustering has room.
        let mut victim = None;
        loop {
            let rid = heap.insert(&mut pool, &[1u8; 100]).unwrap();
            if rid.page == parent.page {
                victim = Some(rid);
            } else {
                break;
            }
        }
        heap.delete(&mut pool, victim.expect("parent page had fillers"))
            .unwrap();
        let child = heap.insert_near(&mut pool, &[2u8; 100], parent).unwrap();
        assert_eq!(
            child.page, parent.page,
            "clustered insert lands near parent"
        );
        // Without the hint, the same insert lands on the tail page instead.
        let unhinted = heap.insert(&mut pool, &[3u8; 100]).unwrap();
        assert_ne!(unhinted.page, parent.page);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn insert_after_reopen_walks_a_chain_longer_than_the_pool_without_dirtying_it() {
        let mut p = std::env::temp_dir();
        p.push(format!("hm-heap-{}-longchain", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let mut pool = BufferPool::new(DiskManager::create(&OsFs, &p).unwrap(), 16);
        let mut heap = HeapFile::create(&mut pool).unwrap();
        // Two 3000-byte records fill a page, so 400 of them chain 200.
        for _ in 0..400 {
            heap.insert(&mut pool, &[5u8; 3000]).unwrap();
            pool.flush_all().unwrap();
        }
        assert!(heap.page_count(&mut pool).unwrap() >= 200);
        let parent = RecordId {
            page: heap.first_page(),
            slot: 0,
        };

        // A reopened heap starts its walk at the first page. The pages it
        // passes must stay clean: the pool is no-steal, so dirtying them
        // would exhaust it long before the tail.
        let mut heap = HeapFile::open(heap.first_page());
        let rid = heap.insert(&mut pool, &[6u8; 3000]).unwrap();
        assert_eq!(
            pool.dirty_count(),
            2,
            "the old tail's link and the new page"
        );
        pool.flush_all().unwrap();
        // A full hint page is only probed, too.
        let mut heap = HeapFile::open(heap.first_page());
        let near = heap.insert_near(&mut pool, &[7u8; 3000], parent).unwrap();
        assert_eq!(near.page, rid.page);
        assert_eq!(pool.dirty_count(), 1);
        assert_eq!(heap.get(&mut pool, near).unwrap(), vec![7u8; 3000]);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn record_id_pack_unpack() {
        let rid = RecordId {
            page: PageId(123456),
            slot: 789,
        };
        assert_eq!(RecordId::unpack(rid.pack()), rid);
    }

    #[test]
    fn relocating_update_returns_new_rid() {
        let (mut pool, path) = setup("reloc");
        let mut heap = HeapFile::create(&mut pool).unwrap();
        let rid = heap.insert(&mut pool, b"tiny").unwrap();
        // Fill the first page completely so the grown record must move.
        loop {
            if !slotted::fits(pool.page(rid.page).unwrap(), 300) {
                break;
            }
            heap.insert(&mut pool, &[7u8; 250]).unwrap();
        }
        let grown = vec![9u8; 3000];
        let new_rid = heap.update(&mut pool, rid, &grown).unwrap();
        assert_ne!(new_rid, rid);
        assert_eq!(heap.get(&mut pool, new_rid).unwrap(), grown);
        assert!(heap.get(&mut pool, rid).is_err(), "old rid is dead");
        std::fs::remove_file(&path).unwrap();
    }
}
