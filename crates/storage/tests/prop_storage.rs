//! Property-based tests: storage structures against reference models.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;
use storage::btree::{BTree, Key, FANOUT};
use storage::buffer::{BufferPool, PoolStats};
use storage::disk::DiskManager;
use storage::heap::HeapFile;
use storage::page::{
    Page, PageId, PageKind, PageMut, SavedChunks, CHECKSUM_OFFSET, FREE_NEXT_OFFSET, HEADER_SIZE,
    META_FREELIST_OFFSET, PAGE_SIZE,
};
use storage::slotted;
use storage::vfs::OsFs;
use storage::wal::encode_ranges;

fn fresh_pool(tag: &str, frames: usize) -> (BufferPool, PathBuf) {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hm-prop-{}-{}-{tag}.db",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "-")
    ));
    let _ = std::fs::remove_file(&p);
    let dm = DiskManager::create(&OsFs, &p).unwrap();
    (BufferPool::new(dm, frames), p)
}

/// Operations applied to both the B+Tree and a `BTreeMap` model.
#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u64, u64),
    Delete(u64),
    Get(u64),
    Range(u64, u64),
}

fn arb_tree_op() -> impl Strategy<Value = TreeOp> {
    // Key space wider than one leaf (~340 entries) so random walks force
    // splits, borrows and merges at interior levels.
    prop_oneof![
        3 => (0u64..1500, any::<u64>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        2 => (0u64..1500).prop_map(TreeOp::Delete),
        1 => (0u64..1500).prop_map(TreeOp::Get),
        1 => (0u64..1500, 0u64..1500).prop_map(|(a, b)| TreeOp::Range(a.min(b), a.max(b))),
    ]
}

/// Operations for the append-heavy B+Tree case: `Append(n)` inserts the
/// `n` keys just past the current maximum, `DeleteTop(r)` removes the key
/// of rank `r` from the top.
#[derive(Debug, Clone)]
enum AppendOp {
    Append(u64),
    Insert(u64, u64),
    Delete(u64),
    DeleteTop(usize),
}

fn arb_append_op() -> impl Strategy<Value = AppendOp> {
    let fanout = FANOUT as u64;
    prop_oneof![
        2 => (1..2 * fanout).prop_map(AppendOp::Append),
        2 => (0u64..4000, any::<u64>()).prop_map(|(k, v)| AppendOp::Insert(k, v)),
        2 => (0u64..4000).prop_map(AppendOp::Delete),
        3 => (0usize..4).prop_map(AppendOp::DeleteTop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The B+Tree behaves exactly like a `BTreeMap` under arbitrary
    /// operation sequences (including enough inserts to force splits).
    #[test]
    fn btree_matches_model(ops in proptest::collection::vec(arb_tree_op(), 1..1200)) {
        let (mut pool, path) = fresh_pool("btree", 512);
        let mut tree = BTree::create(&mut pool).unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    let old = tree.insert(&mut pool, Key::from_pair(k, 0), v).unwrap();
                    prop_assert_eq!(old, model.insert(k, v));
                }
                TreeOp::Delete(k) => {
                    let old = tree.delete(&mut pool, Key::from_pair(k, 0)).unwrap();
                    prop_assert_eq!(old, model.remove(&k));
                }
                TreeOp::Get(k) => {
                    let got = tree.get(&mut pool, Key::from_pair(k, 0)).unwrap();
                    prop_assert_eq!(got, model.get(&k).copied());
                }
                TreeOp::Range(lo, hi) => {
                    let got = tree
                        .range_vec(&mut pool, Key::from_pair(lo, 0), Key::from_pair(hi, u64::MAX))
                        .unwrap();
                    let want: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
                    let got_pairs: Vec<(u64, u64)> =
                        got.iter().map(|&(k, v)| (k.to_pair().0, v)).collect();
                    prop_assert_eq!(got_pairs, want);
                }
            }
        }
        prop_assert_eq!(tree.len(&mut pool).unwrap(), model.len());
        let _ = std::fs::remove_file(&path);
    }

    /// Ascending runs past the current maximum leave a rightmost leaf of
    /// as few as one entry; random inserts and deletes (some aimed at the
    /// largest keys) then make borrow and merge meet it. On an 8-frame
    /// pool the tree matches a `BTreeMap` after every step.
    #[test]
    fn btree_appends_mixed_with_random_edits_match_model(
        ops in proptest::collection::vec(arb_append_op(), 1..300)
    ) {
        let (mut pool, path) = fresh_pool("append", 8);
        let mut tree = BTree::create(&mut pool).unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                AppendOp::Append(len) => {
                    let first = model.last_key_value().map_or(0, |(&k, _)| k + 1);
                    for k in first..first + len {
                        prop_assert_eq!(tree.insert(&mut pool, Key::from_pair(k, 0), !k).unwrap(), None);
                        model.insert(k, !k);
                    }
                }
                AppendOp::Insert(k, v) => {
                    let old = tree.insert(&mut pool, Key::from_pair(k, 0), v).unwrap();
                    prop_assert_eq!(old, model.insert(k, v));
                }
                AppendOp::Delete(k) => {
                    let old = tree.delete(&mut pool, Key::from_pair(k, 0)).unwrap();
                    prop_assert_eq!(old, model.remove(&k));
                }
                AppendOp::DeleteTop(rank) => {
                    if let Some(&k) = model.keys().rev().nth(rank) {
                        let old = tree.delete(&mut pool, Key::from_pair(k, 0)).unwrap();
                        prop_assert_eq!(old, model.remove(&k));
                    }
                }
            }
            pool.flush_all().unwrap();
            let got: Vec<(u64, u64)> = tree
                .range_vec(&mut pool, Key::MIN, Key::MAX)
                .unwrap()
                .iter()
                .map(|&(k, v)| (k.to_pair().0, v))
                .collect();
            let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(got, want);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Bulk insert of arbitrary key sets: iteration order equals sorted
    /// order, and every key is findable after splits at any depth.
    #[test]
    fn btree_bulk_insert_sorted_iteration(
        keys in proptest::collection::hash_set(any::<u64>(), 1..800)
    ) {
        let (mut pool, path) = fresh_pool("bulk", 1024);
        let mut tree = BTree::create(&mut pool).unwrap();
        for &k in &keys {
            tree.insert(&mut pool, Key::from_pair(k, k), k ^ 0xFF).unwrap();
        }
        let all = tree.range_vec(&mut pool, Key::MIN, Key::MAX).unwrap();
        prop_assert_eq!(all.len(), keys.len());
        prop_assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "sorted");
        for &k in &keys {
            prop_assert_eq!(
                tree.get(&mut pool, Key::from_pair(k, k)).unwrap(),
                Some(k ^ 0xFF)
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    /// The slotted page behaves like a `Vec<Option<Vec<u8>>>` model under
    /// arbitrary insert/delete/update/get sequences.
    #[test]
    fn slotted_page_matches_model(
        ops in proptest::collection::vec(
            prop_oneof![
                proptest::collection::vec(any::<u8>(), 0..300).prop_map(SlotOp::Insert),
                (0u16..40).prop_map(SlotOp::Delete),
                (0u16..40, proptest::collection::vec(any::<u8>(), 0..300))
                    .prop_map(|(s, d)| SlotOp::Update(s, d)),
                (0u16..40).prop_map(SlotOp::Get),
            ],
            1..120
        )
    ) {
        let mut owned = Page::new(PageId(1));
        let mut page = PageMut::from(&mut owned);
        slotted::init(&mut page, PageKind::Heap);
        // Model: slot -> Option<record>.
        let mut model: Vec<Option<Vec<u8>>> = Vec::new();
        for op in ops {
            match op {
                SlotOp::Insert(data) => {
                    match slotted::insert(&mut page, &data) {
                        Some(slot) => {
                            let s = slot as usize;
                            if s == model.len() {
                                model.push(Some(data));
                            } else {
                                prop_assert!(model[s].is_none(), "reused a live slot");
                                model[s] = Some(data);
                            }
                        }
                        None => {
                            // Page declared itself full; insert of empty
                            // data must always fit unless truly full.
                            prop_assert!(!slotted::fits(&page, data.len()));
                        }
                    }
                }
                SlotOp::Delete(slot) => {
                    let expect = model
                        .get_mut(slot as usize)
                        .map(|e| e.take().is_some())
                        .unwrap_or(false);
                    prop_assert_eq!(slotted::delete(&mut page, slot), expect);
                }
                SlotOp::Update(slot, data) => {
                    let live = model
                        .get(slot as usize)
                        .map(|e| e.is_some())
                        .unwrap_or(false);
                    let ok = slotted::update(&mut page, slot, &data);
                    if ok {
                        prop_assert!(live);
                        model[slot as usize] = Some(data);
                    }
                    // A failed update must leave the old value intact —
                    // checked by the Get arm and the final sweep.
                }
                SlotOp::Get(slot) => {
                    let got = slotted::get(&page, slot).map(|b| b.to_vec());
                    let want = model.get(slot as usize).cloned().flatten();
                    prop_assert_eq!(got, want);
                }
            }
        }
        // Final sweep: every model entry matches the page.
        for (s, want) in model.iter().enumerate() {
            let got = slotted::get(&page, s as u16).map(|b| b.to_vec());
            prop_assert_eq!(&got, want, "slot {}", s);
        }
        let live = model.iter().filter(|e| e.is_some()).count();
        prop_assert_eq!(slotted::live_count(&page) as usize, live);
    }

    /// Heap files preserve arbitrary record sets across insert/update,
    /// including records that cross the overflow threshold in both
    /// directions.
    #[test]
    fn heap_preserves_records(
        sizes in proptest::collection::vec(0usize..6000, 1..40),
        grow in any::<bool>(),
    ) {
        let (mut pool, path) = fresh_pool("heap", 512);
        let mut heap = HeapFile::create(&mut pool).unwrap();
        let mut rids = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let data = vec![(i % 251) as u8; n];
            rids.push((heap.insert(&mut pool, &data).unwrap(), data));
        }
        // Update every record, growing (crosses into overflow) or
        // shrinking.
        for (i, (rid, data)) in rids.iter_mut().enumerate() {
            let new_len = if grow { data.len() * 2 + 10 } else { data.len() / 2 };
            let new_data = vec![(i % 13) as u8; new_len];
            *rid = heap.update(&mut pool, *rid, &new_data).unwrap();
            *data = new_data;
        }
        for (rid, data) in &rids {
            prop_assert_eq!(&heap.get(&mut pool, *rid).unwrap(), data);
        }
        prop_assert_eq!(heap.len(&mut pool).unwrap(), rids.len());
        let _ = std::fs::remove_file(&path);
    }
}

#[derive(Debug, Clone)]
enum SlotOp {
    Insert(Vec<u8>),
    Delete(u16),
    Update(u16, Vec<u8>),
    Get(u16),
}

/// A page's bytes without its checksum, which only I/O sets.
fn content(page: &Page) -> &[u8] {
    &page.bytes()[CHECKSUM_OFFSET + 4..]
}

/// One step of the buffer-pool model test. A `u64` picks its page at run
/// time, modulo the pages it may name.
#[derive(Debug, Clone)]
enum PoolOp {
    /// Read a page of the file.
    Page(u64),
    /// Read a page at or past the file's end: an error.
    PastEnd(u64),
    /// Change one word of a page of the file.
    PageMut(u64, u64),
    Allocate,
    /// Free a page that is neither the meta page nor on the free list.
    Free(u64),
    MarkCommitted,
    FlushAll,
    DropAll,
}

fn arb_pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        6 => any::<u64>().prop_map(PoolOp::Page),
        1 => (0u64..3).prop_map(PoolOp::PastEnd),
        4 => (any::<u64>(), any::<u64>()).prop_map(|(p, v)| PoolOp::PageMut(p, v)),
        3 => Just(PoolOp::Allocate),
        1 => any::<u64>().prop_map(PoolOp::Free),
        2 => Just(PoolOp::MarkCommitted),
        1 => Just(PoolOp::FlushAll),
        1 => Just(PoolOp::DropAll),
    ]
}

/// A resident page in [`PoolModel`].
struct ModelFrame {
    dirty: bool,
    unwritten: bool,
    last_used: u64,
}

/// The buffer pool's contract over a `HashMap`: the least-recently-used
/// clean frame is evicted, a dirty one never; an unwritten one is written
/// when evicted or flushed; the free list lives in the pages, as on disk.
struct PoolModel {
    capacity: usize,
    /// Every page of the file, as the pool should lend it.
    pages: Vec<Page>,
    frames: HashMap<u64, ModelFrame>,
    tick: u64,
    stats: PoolStats,
}

impl PoolModel {
    fn new(capacity: usize) -> PoolModel {
        let mut meta = Page::new(PageId::META);
        meta.set_kind(PageKind::Meta);
        PoolModel {
            capacity,
            pages: vec![meta],
            frames: HashMap::new(),
            tick: 0,
            stats: PoolStats::default(),
        }
    }

    fn dirty_count(&self) -> usize {
        self.frames.values().filter(|f| f.dirty).count()
    }

    fn make_room(&mut self) -> Result<(), ()> {
        if self.frames.len() < self.capacity {
            return Ok(());
        }
        let (&victim, frame) = self
            .frames
            .iter()
            .filter(|(_, f)| !f.dirty)
            .min_by_key(|(_, f)| f.last_used)
            .ok_or(())?;
        if frame.unwritten {
            self.stats.writebacks += 1;
        }
        self.frames.remove(&victim);
        self.stats.evictions += 1;
        Ok(())
    }

    fn fetch(&mut self, id: u64, write: bool) -> Result<(), ()> {
        if let Some(frame) = self.frames.get_mut(&id) {
            self.stats.hits += 1;
            self.tick += 1;
            frame.last_used = self.tick;
            frame.dirty |= write;
            return Ok(());
        }
        self.stats.misses += 1;
        self.make_room()?;
        if id >= self.pages.len() as u64 {
            return Err(());
        }
        self.install(id, write);
        Ok(())
    }

    fn install(&mut self, id: u64, dirty: bool) {
        self.tick += 1;
        let frame = ModelFrame {
            dirty,
            unwritten: false,
            last_used: self.tick,
        };
        self.frames.insert(id, frame);
    }

    fn page_mut(&mut self, id: u64) -> Result<&mut Page, ()> {
        self.fetch(id, true)?;
        Ok(&mut self.pages[id as usize])
    }

    fn head(&mut self) -> Result<u64, ()> {
        self.fetch(0, false)?;
        Ok(self.pages[0].read_u64(META_FREELIST_OFFSET))
    }

    fn allocate(&mut self) -> Result<u64, ()> {
        let head = self.head()?;
        if head != 0 {
            let page = self.page_mut(head)?;
            let next = page.read_u64(FREE_NEXT_OFFSET);
            page.clear_payload();
            self.page_mut(0)?.write_u64(META_FREELIST_OFFSET, next);
            return Ok(head);
        }
        self.make_room()?;
        let id = self.pages.len() as u64;
        self.pages.push(Page::new(PageId(id)));
        self.install(id, true);
        Ok(id)
    }

    fn free_page(&mut self, id: u64) -> Result<(), ()> {
        let head = self.head()?;
        let page = self.page_mut(id)?;
        page.clear_payload();
        page.set_kind(PageKind::Free);
        page.write_u64(FREE_NEXT_OFFSET, head);
        self.page_mut(0)?.write_u64(META_FREELIST_OFFSET, id);
        Ok(())
    }

    /// The pages on the free list, read from the pages themselves.
    fn free_list(&self) -> Vec<u64> {
        let mut list = Vec::new();
        let mut cur = self.pages[0].read_u64(META_FREELIST_OFFSET);
        while cur != 0 && list.len() < self.pages.len() {
            list.push(cur);
            cur = self.pages[cur as usize].read_u64(FREE_NEXT_OFFSET);
        }
        list
    }

    fn mark_committed(&mut self) {
        for frame in self.frames.values_mut().filter(|f| f.dirty) {
            frame.dirty = false;
            frame.unwritten = true;
        }
    }

    fn flush_all(&mut self) -> usize {
        let unwritten = self.frames.values().filter(|f| f.unwritten).count();
        self.stats.writebacks += unwritten as u64;
        let dirty = self.dirty_count();
        for frame in self.frames.values_mut() {
            frame.dirty = false;
            frame.unwritten = false;
        }
        unwritten + dirty
    }

    fn drop_all(&mut self) -> Result<(), ()> {
        if self.frames.values().any(|f| f.dirty || f.unwritten) {
            return Err(());
        }
        self.frames.clear();
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An 8-frame pool and [`PoolModel`] agree, after every step, on what
    /// is resident, on the pool's statistics, on the write set and on the
    /// bytes of every page read; at the end, on every page of the file.
    #[test]
    fn buffer_pool_matches_an_lru_model(ops in proptest::collection::vec(arb_pool_op(), 1..150)) {
        let (mut pool, path) = fresh_pool("pool-model", 8);
        let mut model = PoolModel::new(8);
        for op in ops {
            let n = model.pages.len() as u64;
            match op {
                PoolOp::Page(pick) => {
                    let id = pick % n;
                    match pool.page(PageId(id)) {
                        Ok(page) => {
                            model.fetch(id, false).unwrap();
                            prop_assert_eq!(content(page), content(&model.pages[id as usize]));
                        }
                        Err(_) => prop_assert!(model.fetch(id, false).is_err()),
                    }
                }
                PoolOp::PastEnd(past) => {
                    prop_assert!(pool.page(PageId(n + past)).is_err());
                    prop_assert!(model.fetch(n + past, false).is_err());
                }
                PoolOp::PageMut(pick, value) => {
                    let (id, off) = (pick % n, 64 + 8 * (value % 16) as usize);
                    match pool.page_mut(PageId(id)) {
                        Ok(mut page) => {
                            page.write_u64(off, value);
                            model.page_mut(id).unwrap().write_u64(off, value);
                        }
                        Err(_) => prop_assert!(model.page_mut(id).is_err()),
                    }
                }
                PoolOp::Allocate => {
                    let got = pool.allocate().map(|(id, _)| id.0).ok();
                    prop_assert_eq!(got, model.allocate().ok());
                }
                PoolOp::Free(pick) => {
                    let free = model.free_list();
                    let live: Vec<u64> = (1..n).filter(|id| !free.contains(id)).collect();
                    if let Some(&id) = live.get((pick % n.max(1)) as usize % live.len().max(1)) {
                        let got = pool.free_page(PageId(id)).is_ok();
                        prop_assert_eq!(got, model.free_page(id).is_ok());
                    }
                }
                PoolOp::MarkCommitted => {
                    pool.mark_committed();
                    model.mark_committed();
                }
                PoolOp::FlushAll => prop_assert_eq!(pool.flush_all().unwrap(), model.flush_all()),
                PoolOp::DropAll => prop_assert_eq!(pool.drop_all().is_ok(), model.drop_all().is_ok()),
            }
            prop_assert_eq!(pool.resident(), model.frames.len());
            prop_assert_eq!(pool.stats(), model.stats);
            prop_assert_eq!(pool.dirty_count(), model.dirty_count());
            prop_assert_eq!(pool.disk().page_count(), model.pages.len() as u64);
        }
        pool.flush_all().unwrap();
        model.flush_all();
        for id in 0..model.pages.len() as u64 {
            let page = pool.page(PageId(id)).unwrap();
            model.fetch(id, false).unwrap();
            prop_assert_eq!(content(page), content(&model.pages[id as usize]), "page {}", id);
        }
        prop_assert_eq!(pool.stats(), model.stats);
        let _ = std::fs::remove_file(&path);
    }

    /// Key order is `(hi, lo)` tuple order, and a key unpacks to its pair.
    #[test]
    fn key_order_is_pair_order(
        a in (prop_oneof![0u64..3, any::<u64>()], prop_oneof![0u64..3, any::<u64>()]),
        b in (prop_oneof![0u64..3, any::<u64>()], prop_oneof![0u64..3, any::<u64>()]),
    ) {
        let (ka, kb) = (Key::from_pair(a.0, a.1), Key::from_pair(b.0, b.1));
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        prop_assert_eq!((ka.to_pair(), kb.to_pair()), (a, b));
    }
}

/// The on-page format of a leaf, byte for byte: entry count, next-leaf
/// link, then each entry as 16 big-endian key bytes and a little-endian
/// value.
#[test]
fn a_leaf_stores_big_endian_keys_and_little_endian_values() {
    let (mut pool, path) = fresh_pool("golden-leaf", 16);
    let mut tree = BTree::create(&mut pool).unwrap();
    tree.insert(&mut pool, Key::from_pair(1, 2), 3).unwrap();
    let page = pool.page(tree.root()).unwrap();
    assert_eq!(page.kind().unwrap(), PageKind::BTreeLeaf);
    let mut want = vec![1, 0]; // one entry
    want.extend([0; 8]); // no next leaf
    want.extend([0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2]);
    want.extend([3, 0, 0, 0, 0, 0, 0, 0]);
    want.extend([0; 24]); // no second entry
    assert_eq!(&page.bytes()[16..16 + want.len()], &want[..]);
    let _ = std::fs::remove_file(&path);
}

/// One write through a pool's [`PageMut`]. Offsets and lengths are
/// clamped to the page when the write is applied.
#[derive(Debug, Clone)]
enum Write {
    U16(usize, u16),
    U32(usize, u32),
    U64(usize, u64),
    Bytes(usize, Vec<u8>),
    /// Copy `len` bytes from `src` to `src + shift`: overlapping when the
    /// shift is shorter than the copy, as a B+Tree entry shift is.
    CopyWithin {
        src: usize,
        len: usize,
        shift: isize,
    },
    /// Write `len` bytes at `off` that the page already holds: the chunks
    /// are saved but unchanged.
    Same(usize, usize),
    Kind,
    Clear,
}

fn arb_write() -> impl Strategy<Value = Write> {
    let off = 0..PAGE_SIZE;
    prop_oneof![
        3 => (off.clone(), any::<u16>()).prop_map(|(o, v)| Write::U16(o, v)),
        3 => (off.clone(), any::<u32>()).prop_map(|(o, v)| Write::U32(o, v)),
        3 => (off.clone(), any::<u64>()).prop_map(|(o, v)| Write::U64(o, v)),
        3 => (off.clone(), proptest::collection::vec(any::<u8>(), 0..300))
            .prop_map(|(o, v)| Write::Bytes(o, v)),
        6 => (off.clone(), 0usize..3000, 0usize..600).prop_map(|(src, len, shift)| {
            Write::CopyWithin { src, len, shift: shift as isize - 300 }
        }),
        2 => (off, 0usize..600).prop_map(|(o, l)| Write::Same(o, l)),
        1 => Just(Write::Kind),
        1 => Just(Write::Clear),
    ]
}

fn apply(page: &mut PageMut<'_>, write: &Write) {
    let at = |off: usize, len: usize| off.min(PAGE_SIZE - len);
    match write {
        Write::U16(o, v) => page.write_u16(at(*o, 2), *v),
        Write::U32(o, v) => page.write_u32(at(*o, 4), *v),
        Write::U64(o, v) => page.write_u64(at(*o, 8), *v),
        Write::Bytes(o, v) => page.write_bytes(at(*o, v.len()), v),
        Write::CopyWithin { src, len, shift } => {
            let dst = src.saturating_add_signed(*shift).min(PAGE_SIZE);
            let len = (*len).min(PAGE_SIZE - src.max(&dst));
            page.copy_within(*src..src + len, dst);
        }
        Write::Same(o, len) => {
            let off = at(*o, *len);
            let held = page.read_bytes(off, *len).to_vec();
            page.write_bytes(off, &held);
        }
        Write::Kind => page.set_kind(PageKind::Heap),
        Write::Clear => page.clear_payload(),
    }
}

/// A page payload from `seed`: random bytes, with zero runs when `sparse`
/// (as a page with free space has), so both differ and agree in runs.
fn payload(seed: u64, sparse: bool) -> Vec<u8> {
    let mut x = seed | 1;
    (HEADER_SIZE..PAGE_SIZE)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if sparse && (i / 256) % 3 == 0 {
                0
            } else {
                x as u8
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever the writers do, diffing a page over the chunks its frame
    /// saved encodes exactly the ranges a diff of the whole page against
    /// its before-image does, and the saved chunks report the page
    /// unchanged exactly when it is.
    #[test]
    fn the_saved_chunk_diff_is_the_whole_page_diff(
        pages in ((any::<u64>(), any::<bool>()), (any::<u64>(), any::<bool>())),
        writes in proptest::collection::vec((0usize..2, arb_write()), 0..40),
    ) {
        let (mut pool, path) = fresh_pool("saved-chunks", 8);
        let ids = [pages.0, pages.1].map(|(seed, sparse)| {
            let (id, mut page) = pool.allocate().unwrap();
            page.write_bytes(HEADER_SIZE, &payload(seed, sparse));
            id
        });
        pool.flush_all().unwrap();
        let before = ids.map(|id| pool.page(id).unwrap().clone());
        for (which, write) in &writes {
            apply(&mut pool.page_mut(ids[*which]).unwrap(), write);
        }
        let mut visited = Vec::new();
        pool.for_each_dirty(|id, saved, page| {
            let i = ids.iter().position(|&x| x == id).unwrap();
            let saved = saved.expect("a page the file holds saves its chunks");
            let (mut got, mut want) = (Vec::new(), Vec::new());
            encode_ranges(&mut got, saved, page.bytes());
            encode_ranges(&mut want, SavedChunks::whole(before[i].bytes()), page.bytes());
            visited.push((i, got == want, saved.unchanged(page.bytes()), before[i].bytes() == page.bytes()));
            false
        });
        let written: BTreeSet<usize> = writes.iter().map(|(which, _)| *which).collect();
        prop_assert_eq!(visited.iter().map(|v| v.0).collect::<BTreeSet<_>>(), written);
        for (i, same_ranges, unchanged, equal) in visited {
            prop_assert!(same_ranges, "page {} encodes other ranges", i);
            prop_assert_eq!(unchanged, equal, "page {}", i);
        }
        let _ = std::fs::remove_file(&path);
    }
}
