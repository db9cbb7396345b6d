//! Disk-resident B+Tree mapping 16-byte keys to `u64` values.
//!
//! The HyperModel backends use B+Trees for every index the paper calls for:
//!
//! * `uniqueId → node` (name lookup, O1) with key `(uniqueId, 0)`,
//! * `hundred → node` and `million → node` (range lookups, O3/O4) with
//!   composite keys `(attributeValue, oid)` so duplicate attribute values
//!   coexist, and range scans over a value interval become prefix scans.
//!
//! A [`Key`] is a `u128`, stored on the page as its 16 big-endian bytes, so
//! byte order on the page equals numeric order; [`Key::from_pair`] packs
//! two `u64`s so that tuple order equals both. Searches read each key off
//! the page as one integer and compare integers.
//!
//! # Structure
//!
//! Classic B+Tree: interior nodes route, leaves hold entries and are chained
//! left-to-right for range scans. A full node splits in half, except in one
//! case: a key past the last entry of the tree's rightmost leaf leaves that
//! leaf full and starts a new rightmost leaf holding just the new key. Keys
//! that arrive in ascending order (six of the ten trees a load fills) thus
//! fill their leaves instead of leaving them half empty. Interior nodes
//! always split at the median.
//!
//! Every node but the root and the rightmost leaf holds at least half of
//! [`FANOUT`] entries; the rightmost leaf may hold fewer (down to one)
//! without any delete. Deletion rebalances: an underflowing node (below
//! half fill, which for the rightmost leaf may mean it was already below)
//! first borrows from a sibling and otherwise merges with one, returning
//! the emptied page to the engine's free list; an interior root left with
//! zero keys collapses into its single child, so the tree shrinks back as
//! it empties.

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, PageKind, PageMut, HEADER_SIZE};

/// Fixed-size 16-byte key: a `u128`, stored big-endian.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub u128);

impl Key {
    /// Smallest possible key.
    pub const MIN: Key = Key(0);
    /// Largest possible key.
    pub const MAX: Key = Key(u128::MAX);

    /// Pack `(hi, lo)` so that tuple order equals key order.
    pub fn from_pair(hi: u64, lo: u64) -> Key {
        Key(u128::from(hi) << 64 | u128::from(lo))
    }

    /// Unpack the `(hi, lo)` pair packed by [`Key::from_pair`].
    pub fn to_pair(self) -> (u64, u64) {
        ((self.0 >> 64) as u64, self.0 as u64)
    }
}

/// The key stored at byte `off` of `page`.
fn read_key(page: &Page, off: usize) -> Key {
    Key(u128::from_be_bytes(
        page.read_bytes(off, 16).try_into().expect("16"),
    ))
}

/// Store `key` at byte `off` of `page`.
fn write_key(page: &mut PageMut<'_>, off: usize, key: Key) {
    page.write_bytes(off, &key.0.to_be_bytes());
}

const COUNT: usize = HEADER_SIZE; // u16
const LEAF_NEXT: usize = HEADER_SIZE + 2; // u64
const LEAF_ENTRIES: usize = HEADER_SIZE + 10;
const INT_FIRST_CHILD: usize = HEADER_SIZE + 2; // u64
const INT_ENTRIES: usize = HEADER_SIZE + 10;
const ENTRY: usize = 24; // 16-byte key + 8-byte value/child

/// Maximum entries in a leaf (and keys in an interior node).
pub const FANOUT: usize = (crate::page::PAGE_SIZE - LEAF_ENTRIES) / ENTRY;

fn leaf_key(page: &Page, i: usize) -> Key {
    read_key(page, LEAF_ENTRIES + i * ENTRY)
}

fn leaf_value(page: &Page, i: usize) -> u64 {
    page.read_u64(LEAF_ENTRIES + i * ENTRY + 16)
}

fn leaf_set(page: &mut PageMut<'_>, i: usize, key: Key, value: u64) {
    let off = LEAF_ENTRIES + i * ENTRY;
    write_key(page, off, key);
    page.write_u64(off + 16, value);
}

fn int_key(page: &Page, i: usize) -> Key {
    read_key(page, INT_ENTRIES + i * ENTRY)
}

fn int_child(page: &Page, i: usize) -> u64 {
    if i == 0 {
        page.read_u64(INT_FIRST_CHILD)
    } else {
        page.read_u64(INT_ENTRIES + (i - 1) * ENTRY + 16)
    }
}

fn int_set_entry(page: &mut PageMut<'_>, i: usize, key: Key, child: u64) {
    let off = INT_ENTRIES + i * ENTRY;
    write_key(page, off, key);
    page.write_u64(off + 16, child);
}

/// Move entries within a page to open a hole at `idx` (leaf layout).
fn leaf_shift_right(page: &mut PageMut<'_>, idx: usize, count: usize) {
    let src = LEAF_ENTRIES + idx * ENTRY;
    let dst = src + ENTRY;
    let len = (count - idx) * ENTRY;
    page.copy_within(src..src + len, dst);
}

fn leaf_shift_left(page: &mut PageMut<'_>, idx: usize, count: usize) {
    let dst = LEAF_ENTRIES + idx * ENTRY;
    let src = dst + ENTRY;
    let len = (count - idx - 1) * ENTRY;
    page.copy_within(src..src + len, dst);
}

fn int_shift_right(page: &mut PageMut<'_>, idx: usize, count: usize) {
    let src = INT_ENTRIES + idx * ENTRY;
    let dst = src + ENTRY;
    let len = (count - idx) * ENTRY;
    page.copy_within(src..src + len, dst);
}

/// Remove interior entry `idx` (its key and the child to the key's right),
/// shifting later entries left. `count` is the key count before removal.
fn int_remove_entry(page: &mut PageMut<'_>, idx: usize, count: usize) {
    let dst = INT_ENTRIES + idx * ENTRY;
    let src = dst + ENTRY;
    let len = (count - idx - 1) * ENTRY;
    page.copy_within(src..src + len, dst);
}

/// Minimum fill of a node other than the root and the rightmost leaf: half
/// of [`FANOUT`]. A node below it merges only with a sibling at or below
/// it, which fits, with one pulled-down separator, without overflowing.
const MIN_FILL: usize = FANOUT / 2;

/// Binary search a leaf; `Ok(i)` exact hit, `Err(i)` insertion point.
fn leaf_search(page: &Page, key: Key) -> std::result::Result<usize, usize> {
    let n = page.read_u16(COUNT) as usize;
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        match leaf_key(page, mid).cmp(&key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Child index to follow for `key` in an interior node: the first child
/// whose separator is greater than `key`.
fn int_route(page: &Page, key: Key) -> usize {
    let n = page.read_u16(COUNT) as usize;
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if int_key(page, mid) <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A B+Tree rooted at [`BTree::root`]. The root id must be persisted (in
/// the engine catalog) and refreshed after operations that may split the
/// root — check [`BTree::root`] after inserts.
#[derive(Debug, Clone, Copy)]
pub struct BTree {
    root: PageId,
}

enum InsertResult {
    Done(Option<u64>),
    Split {
        old_value: Option<u64>,
        sep: Key,
        right: PageId,
    },
}

impl BTree {
    /// Create an empty tree (a single empty leaf).
    pub fn create(pool: &mut BufferPool) -> Result<BTree> {
        let (id, mut page) = pool.allocate()?;
        page.clear_payload();
        page.set_kind(PageKind::BTreeLeaf);
        page.write_u16(COUNT, 0);
        page.write_u64(LEAF_NEXT, 0);
        Ok(BTree { root: id })
    }

    /// Re-open a tree with a known root.
    pub fn open(root: PageId) -> BTree {
        BTree { root }
    }

    /// Current root page id (persist after mutations).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Insert `key → value`. Returns the previous value if the key existed
    /// (the entry is replaced).
    pub fn insert(&mut self, pool: &mut BufferPool, key: Key, value: u64) -> Result<Option<u64>> {
        match self.insert_rec(pool, self.root, key, value)? {
            InsertResult::Done(old) => Ok(old),
            InsertResult::Split {
                old_value,
                sep,
                right,
            } => {
                // Grow a new root.
                let (new_root, mut page) = pool.allocate()?;
                page.clear_payload();
                page.set_kind(PageKind::BTreeInternal);
                page.write_u16(COUNT, 1);
                page.write_u64(INT_FIRST_CHILD, self.root.0);
                int_set_entry(&mut page, 0, sep, right.0);
                self.root = new_root;
                Ok(old_value)
            }
        }
    }

    fn insert_rec(
        &mut self,
        pool: &mut BufferPool,
        node: PageId,
        key: Key,
        value: u64,
    ) -> Result<InsertResult> {
        let slot = pool.fetch(node)?;
        let page = pool.at(slot, node);
        match page.kind()? {
            PageKind::BTreeLeaf => self.leaf_insert(pool, slot, node, key, value),
            PageKind::BTreeInternal => {
                let route_idx = int_route(page, key);
                let child = PageId(int_child(page, route_idx));
                // The descent may evict this node, so `slot` dies here and
                // `int_insert` fetches the node again.
                match self.insert_rec(pool, child, key, value)? {
                    InsertResult::Done(old) => Ok(InsertResult::Done(old)),
                    InsertResult::Split {
                        old_value,
                        sep,
                        right,
                    } => self.int_insert(pool, node, route_idx, sep, right, old_value),
                }
            }
            other => Err(StorageError::Corruption {
                page: Some(node.0),
                detail: format!("expected btree node, found {other:?}"),
            }),
        }
    }

    /// Insert into leaf `node`, which `insert_rec` just fetched into `slot`.
    fn leaf_insert(
        &mut self,
        pool: &mut BufferPool,
        slot: usize,
        node: PageId,
        key: Key,
        value: u64,
    ) -> Result<InsertResult> {
        let mut page = pool.at_mut(slot, node);
        let n = page.read_u16(COUNT) as usize;
        match leaf_search(&page, key) {
            Ok(i) => {
                let old = leaf_value(&page, i);
                leaf_set(&mut page, i, key, value);
                Ok(InsertResult::Done(Some(old)))
            }
            Err(i) if n < FANOUT => {
                leaf_shift_right(&mut page, i, n);
                leaf_set(&mut page, i, key, value);
                page.write_u16(COUNT, (n + 1) as u16);
                Ok(InsertResult::Done(None))
            }
            Err(i) => {
                // Split. A key past the end of the rightmost leaf leaves
                // the leaf full and starts the new right leaf alone, so
                // keys that arrive in order fill their leaves; any other
                // split keeps the lower half left and moves the rest.
                let mid = if i == n && page.read_u64(LEAF_NEXT) == 0 {
                    n
                } else {
                    n / 2
                };
                let (right_id, _) = pool.allocate()?;
                let [mut page, mut right] = pool.dirty_mut([node, right_id])?;
                right.clear_payload();
                right.set_kind(PageKind::BTreeLeaf);
                let moved = n - mid;
                for j in 0..moved {
                    let k = leaf_key(&page, mid + j);
                    let v = leaf_value(&page, mid + j);
                    leaf_set(&mut right, j, k, v);
                }
                right.write_u16(COUNT, moved as u16);
                right.write_u64(LEAF_NEXT, page.read_u64(LEAF_NEXT));
                page.write_u16(COUNT, mid as u16);
                page.write_u64(LEAF_NEXT, right_id.0);
                // Insert the new entry into the proper half.
                if i <= mid && mid < n {
                    let cnt = mid;
                    leaf_shift_right(&mut page, i, cnt);
                    leaf_set(&mut page, i, key, value);
                    page.write_u16(COUNT, (cnt + 1) as u16);
                } else {
                    let cnt = moved;
                    let ri = i - mid;
                    leaf_shift_right(&mut right, ri, cnt);
                    leaf_set(&mut right, ri, key, value);
                    right.write_u16(COUNT, (cnt + 1) as u16);
                }
                let sep = leaf_key(&right, 0);
                Ok(InsertResult::Split {
                    old_value: None,
                    sep,
                    right: right_id,
                })
            }
        }
    }

    fn int_insert(
        &mut self,
        pool: &mut BufferPool,
        node: PageId,
        route_idx: usize,
        sep: Key,
        right_child: PageId,
        old_value: Option<u64>,
    ) -> Result<InsertResult> {
        let mut page = pool.page_mut(node)?;
        let n = page.read_u16(COUNT) as usize;
        if n < FANOUT {
            int_shift_right(&mut page, route_idx, n);
            int_set_entry(&mut page, route_idx, sep, right_child.0);
            page.write_u16(COUNT, (n + 1) as u16);
            return Ok(InsertResult::Done(old_value));
        }
        // Split the interior node. Gather all n+1 entries logically, then
        // redistribute around the median which moves up.
        let mut keys: Vec<Key> = (0..n).map(|i| int_key(&page, i)).collect();
        let mut children: Vec<u64> = (0..=n).map(|i| int_child(&page, i)).collect();
        keys.insert(route_idx, sep);
        children.insert(route_idx + 1, right_child.0);
        let mid = keys.len() / 2;
        let up_key = keys[mid];
        let (right_id, _) = pool.allocate()?;
        let [mut page, mut right] = pool.dirty_mut([node, right_id])?;
        right.clear_payload();
        right.set_kind(PageKind::BTreeInternal);
        // Left: keys[..mid], children[..=mid]
        page.write_u16(COUNT, mid as u16);
        page.write_u64(INT_FIRST_CHILD, children[0]);
        for (i, (&k, &c)) in keys[..mid].iter().zip(children[1..=mid].iter()).enumerate() {
            int_set_entry(&mut page, i, k, c);
        }
        // Right: keys[mid+1..], children[mid+1..]
        let rkeys = &keys[mid + 1..];
        let rchildren = &children[mid + 1..];
        right.write_u16(COUNT, rkeys.len() as u16);
        right.write_u64(INT_FIRST_CHILD, rchildren[0]);
        for (i, (&k, &c)) in rkeys.iter().zip(rchildren[1..].iter()).enumerate() {
            int_set_entry(&mut right, i, k, c);
        }
        Ok(InsertResult::Split {
            old_value,
            sep: up_key,
            right: right_id,
        })
    }

    /// The leaf whose key range holds `key`, fetched once per level.
    fn find_leaf<'p>(&self, pool: &'p mut BufferPool, key: Key) -> Result<&'p Page> {
        let mut node = self.root;
        let leaf = loop {
            let slot = pool.fetch(node)?;
            let page = pool.at(slot, node);
            match page.kind()? {
                PageKind::BTreeLeaf => break slot,
                PageKind::BTreeInternal => node = PageId(int_child(page, int_route(page, key))),
                other => {
                    return Err(StorageError::Corruption {
                        page: Some(node.0),
                        detail: format!("expected btree node, found {other:?}"),
                    })
                }
            }
        };
        Ok(pool.at(leaf, node))
    }

    /// Exact lookup.
    pub fn get(&self, pool: &mut BufferPool, key: Key) -> Result<Option<u64>> {
        let page = self.find_leaf(pool, key)?;
        Ok(leaf_search(page, key).ok().map(|i| leaf_value(page, i)))
    }

    /// Remove `key`, returning its value if present. Underflowing nodes
    /// borrow from or merge with siblings; emptied pages return to the
    /// free list, and a key-less interior root collapses into its child.
    pub fn delete(&mut self, pool: &mut BufferPool, key: Key) -> Result<Option<u64>> {
        let Some((old, root_count)) = self.delete_rec(pool, self.root, key)? else {
            return Ok(None);
        };
        if root_count == 0 {
            // Collapse the root while it is an interior node with no keys.
            loop {
                let page = pool.page(self.root)?;
                if page.kind()? != PageKind::BTreeInternal || page.read_u16(COUNT) != 0 {
                    break;
                }
                let old_root = self.root;
                self.root = PageId(int_child(page, 0));
                pool.free_page(old_root)?;
            }
        }
        Ok(Some(old))
    }

    /// Remove `key` from the subtree at `node`, fetching each level once.
    /// Returns the removed value and `node`'s count (entries of a leaf,
    /// keys of an interior node) afterwards, so the caller tests for
    /// underflow without fetching `node` again.
    fn delete_rec(
        &mut self,
        pool: &mut BufferPool,
        node: PageId,
        key: Key,
    ) -> Result<Option<(u64, usize)>> {
        let slot = pool.fetch(node)?;
        let page = pool.at(slot, node);
        let n = page.read_u16(COUNT) as usize;
        match page.kind()? {
            PageKind::BTreeLeaf => {
                let Ok(i) = leaf_search(page, key) else {
                    return Ok(None);
                };
                let mut page = pool.at_mut(slot, node);
                let old = leaf_value(&page, i);
                leaf_shift_left(&mut page, i, n);
                page.write_u16(COUNT, (n - 1) as u16);
                Ok(Some((old, n - 1)))
            }
            PageKind::BTreeInternal => {
                let idx = int_route(page, key);
                let child = PageId(int_child(page, idx));
                let Some((old, child_count)) = self.delete_rec(pool, child, key)? else {
                    return Ok(None);
                };
                let n = if child_count < MIN_FILL {
                    self.fix_underflow(pool, node, idx)?
                } else {
                    n
                };
                Ok(Some((old, n)))
            }
            other => Err(StorageError::Corruption {
                page: Some(node.0),
                detail: format!("expected btree node, found {other:?}"),
            }),
        }
    }

    /// Restore the fill invariant of `parent`'s child at `idx` by
    /// borrowing from a sibling or merging with one. Returns `parent`'s
    /// key count afterwards.
    fn fix_underflow(
        &mut self,
        pool: &mut BufferPool,
        parent: PageId,
        idx: usize,
    ) -> Result<usize> {
        let page = pool.page(parent)?;
        let n = page.read_u16(COUNT) as usize;
        let cur_id = PageId(int_child(page, idx));
        let left_id = (idx > 0).then(|| PageId(int_child(page, idx - 1)));
        let right_id = (idx < n).then(|| PageId(int_child(page, idx + 1)));
        let count_of = |pool: &mut BufferPool, id: PageId| -> Result<usize> {
            Ok(pool.page(id)?.read_u16(COUNT) as usize)
        };
        if let Some(left) = left_id {
            if count_of(pool, left)? > MIN_FILL {
                self.borrow_from_left(pool, parent, idx, left, cur_id)?;
                return Ok(n);
            }
        }
        if let Some(right) = right_id {
            if count_of(pool, right)? > MIN_FILL {
                self.borrow_from_right(pool, parent, idx, cur_id, right)?;
                return Ok(n);
            }
        }
        // No sibling can lend: merge. Prefer absorbing `cur` into its left
        // sibling; otherwise absorb the right sibling into `cur`.
        if let Some(left) = left_id {
            self.merge_children(pool, parent, idx - 1, left, cur_id)?;
        } else if let Some(right) = right_id {
            self.merge_children(pool, parent, idx, cur_id, right)?;
        } else {
            // Single-child parent only occurs transiently at the root,
            // which `delete` collapses; nothing to do here.
            return Ok(n);
        }
        Ok(n - 1)
    }

    fn borrow_from_left(
        &mut self,
        pool: &mut BufferPool,
        parent: PageId,
        idx: usize,
        left_id: PageId,
        cur_id: PageId,
    ) -> Result<()> {
        let [mut parent_pg, mut left, mut cur] = pool.pages_mut([parent, left_id, cur_id])?;
        let ln = left.read_u16(COUNT) as usize;
        let cn = cur.read_u16(COUNT) as usize;
        match cur.kind()? {
            PageKind::BTreeLeaf => {
                let (k, v) = (leaf_key(&left, ln - 1), leaf_value(&left, ln - 1));
                leaf_shift_right(&mut cur, 0, cn);
                leaf_set(&mut cur, 0, k, v);
                cur.write_u16(COUNT, (cn + 1) as u16);
                left.write_u16(COUNT, (ln - 1) as u16);
                // The separator left of `cur` becomes its new first key.
                write_key(&mut parent_pg, INT_ENTRIES + (idx - 1) * ENTRY, k);
            }
            _ => {
                let down = int_key(&parent_pg, idx - 1);
                let moved_child = int_child(&left, ln); // left's last child
                let up = int_key(&left, ln - 1);
                let old_first = int_child(&cur, 0);
                int_shift_right(&mut cur, 0, cn);
                int_set_entry(&mut cur, 0, down, old_first);
                cur.write_u64(INT_FIRST_CHILD, moved_child);
                cur.write_u16(COUNT, (cn + 1) as u16);
                left.write_u16(COUNT, (ln - 1) as u16);
                write_key(&mut parent_pg, INT_ENTRIES + (idx - 1) * ENTRY, up);
            }
        }
        Ok(())
    }

    fn borrow_from_right(
        &mut self,
        pool: &mut BufferPool,
        parent: PageId,
        idx: usize,
        cur_id: PageId,
        right_id: PageId,
    ) -> Result<()> {
        let [mut parent_pg, mut right, mut cur] = pool.pages_mut([parent, right_id, cur_id])?;
        let rn = right.read_u16(COUNT) as usize;
        let cn = cur.read_u16(COUNT) as usize;
        match cur.kind()? {
            PageKind::BTreeLeaf => {
                let (k, v) = (leaf_key(&right, 0), leaf_value(&right, 0));
                leaf_set(&mut cur, cn, k, v);
                cur.write_u16(COUNT, (cn + 1) as u16);
                leaf_shift_left(&mut right, 0, rn);
                right.write_u16(COUNT, (rn - 1) as u16);
                let first = leaf_key(&right, 0);
                write_key(&mut parent_pg, INT_ENTRIES + idx * ENTRY, first);
            }
            _ => {
                let down = int_key(&parent_pg, idx);
                let moved_child = int_child(&right, 0);
                let up = int_key(&right, 0);
                int_set_entry(&mut cur, cn, down, moved_child);
                cur.write_u16(COUNT, (cn + 1) as u16);
                // Drop right's first key and first child.
                let new_first = int_child(&right, 1);
                right.write_u64(INT_FIRST_CHILD, new_first);
                int_remove_entry(&mut right, 0, rn);
                right.write_u16(COUNT, (rn - 1) as u16);
                write_key(&mut parent_pg, INT_ENTRIES + idx * ENTRY, up);
            }
        }
        Ok(())
    }

    /// Merge `parent`'s child `sep_idx + 1` (right) into child `sep_idx`
    /// (left), removing separator `sep_idx` and freeing the right page.
    fn merge_children(
        &mut self,
        pool: &mut BufferPool,
        parent: PageId,
        sep_idx: usize,
        left_id: PageId,
        right_id: PageId,
    ) -> Result<()> {
        let [mut parent_pg, mut left, right] = pool.pages_mut([parent, left_id, right_id])?;
        let ln = left.read_u16(COUNT) as usize;
        let rn = right.read_u16(COUNT) as usize;
        match left.kind()? {
            PageKind::BTreeLeaf => {
                debug_assert!(ln + rn <= FANOUT, "merged leaf must fit");
                for j in 0..rn {
                    leaf_set(
                        &mut left,
                        ln + j,
                        leaf_key(&right, j),
                        leaf_value(&right, j),
                    );
                }
                left.write_u16(COUNT, (ln + rn) as u16);
                left.write_u64(LEAF_NEXT, right.read_u64(LEAF_NEXT));
            }
            _ => {
                debug_assert!(ln + rn < FANOUT, "merged interior must fit");
                let sep = int_key(&parent_pg, sep_idx);
                int_set_entry(&mut left, ln, sep, int_child(&right, 0));
                for j in 0..rn {
                    int_set_entry(
                        &mut left,
                        ln + 1 + j,
                        int_key(&right, j),
                        int_child(&right, j + 1),
                    );
                }
                left.write_u16(COUNT, (ln + rn + 1) as u16);
            }
        }
        let pn = parent_pg.read_u16(COUNT) as usize;
        int_remove_entry(&mut parent_pg, sep_idx, pn);
        parent_pg.write_u16(COUNT, (pn - 1) as u16);
        pool.free_page(right_id)
    }

    /// Visit all entries with `lo <= key <= hi` in key order. The callback
    /// returns `false` to stop early.
    pub fn range<F>(&self, pool: &mut BufferPool, lo: Key, hi: Key, mut f: F) -> Result<()>
    where
        F: FnMut(Key, u64) -> bool,
    {
        let mut page = self.find_leaf(pool, lo)?;
        let mut start = leaf_search(page, lo).unwrap_or_else(|i| i);
        loop {
            let n = page.read_u16(COUNT) as usize;
            for i in start..n {
                let k = leaf_key(page, i);
                if k > hi || !f(k, leaf_value(page, i)) {
                    return Ok(());
                }
            }
            let next = page.read_u64(LEAF_NEXT);
            if next == 0 {
                return Ok(());
            }
            // Every key of a later leaf is above `lo`.
            page = pool.page(PageId(next))?;
            start = 0;
        }
    }

    /// Collect all `(key, value)` pairs in `lo..=hi`.
    pub fn range_vec(&self, pool: &mut BufferPool, lo: Key, hi: Key) -> Result<Vec<(Key, u64)>> {
        let mut out = Vec::new();
        self.range(pool, lo, hi, |k, v| {
            out.push((k, v));
            true
        })?;
        Ok(out)
    }

    /// Number of entries (full scan; for tests and stats).
    pub fn len(&self, pool: &mut BufferPool) -> Result<usize> {
        let mut n = 0usize;
        self.range(pool, Key::MIN, Key::MAX, |_, _| {
            n += 1;
            true
        })?;
        Ok(n)
    }

    /// True if the tree has no entries.
    pub fn is_empty(&self, pool: &mut BufferPool) -> Result<bool> {
        let mut empty = true;
        self.range(pool, Key::MIN, Key::MAX, |_, _| {
            empty = false;
            false
        })?;
        Ok(empty)
    }

    /// Tree height (1 = just a leaf). For stats/ablation reporting.
    pub fn height(&self, pool: &mut BufferPool) -> Result<usize> {
        let mut h = 1;
        let mut node = self.root;
        loop {
            let page = pool.page(node)?;
            if page.kind()? == PageKind::BTreeLeaf {
                return Ok(h);
            }
            node = PageId(int_child(page, 0));
            h += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;
    use crate::vfs::OsFs;
    use std::path::PathBuf;

    fn setup(name: &str, frames: usize) -> (BufferPool, PathBuf) {
        let mut p = std::env::temp_dir();
        p.push(format!("hm-btree-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        let dm = DiskManager::create(&OsFs, &p).unwrap();
        (BufferPool::new(dm, frames), p)
    }

    #[test]
    fn key_pair_encoding_preserves_order() {
        let a = Key::from_pair(1, u64::MAX);
        let b = Key::from_pair(2, 0);
        assert!(a < b);
        assert_eq!(Key::from_pair(77, 88).to_pair(), (77, 88));
    }

    /// The pool fetches `f` counts, all of which must be hits.
    fn hits(pool: &mut BufferPool, f: impl FnOnce(&mut BufferPool)) -> u64 {
        let before = pool.stats();
        f(pool);
        let after = pool.stats();
        assert_eq!(after.misses, before.misses, "every page is resident");
        after.hits - before.hits
    }

    #[test]
    fn each_level_is_fetched_once() {
        let (mut pool, path) = setup("fetches", 4096);
        let mut t = BTree::create(&mut pool).unwrap();
        let mut next = 1u64;
        for h in 1..=3 {
            // Keys go in pairs, the higher first, so appends split the
            // rightmost leaf and the lower key then splits its full left
            // neighbour in half: leaves stay half full, and the first one
            // has room for the insert below.
            while t.height(&mut pool).unwrap() < h || next < 100 {
                for k in [next + 1, next] {
                    t.insert(&mut pool, Key::from_pair(k, 0), k).unwrap();
                }
                next += 2;
            }
            pool.flush_all().unwrap();
            let leaves = (1..pool.disk().page_count())
                .filter(|&id| pool.page(PageId(id)).unwrap().kind().unwrap() == PageKind::BTreeLeaf)
                .count() as u64;
            let h = h as u64;
            let (present, absent) = (Key::from_pair(next / 2, 0), Key::from_pair(next, 1));
            assert_eq!(
                hits(&mut pool, |p| assert!(t.get(p, present).unwrap().is_some())),
                h
            );
            assert_eq!(
                hits(&mut pool, |p| assert!(t.get(p, absent).unwrap().is_none())),
                h
            );
            // A range over one leaf, and over all of them.
            let one = Key::from_pair(0, 0);
            assert_eq!(
                hits(&mut pool, |p| t.range(p, one, one, |_, _| true).unwrap()),
                h
            );
            let all = |p: &mut BufferPool| assert_eq!(t.len(p).unwrap() as u64, next - 1);
            assert_eq!(hits(&mut pool, all), h + leaves - 1, "{leaves} leaves");
            // An insert into the first leaf, which has room, and a
            // replace: each fetches every level once and dirties the leaf.
            let root = t.root();
            for value in [7, 8] {
                let insert = |p: &mut BufferPool| {
                    t.insert(p, one, value).unwrap();
                };
                assert_eq!(hits(&mut pool, insert), h);
                assert_eq!((t.root(), pool.dirty_count()), (root, 1));
                pool.flush_all().unwrap();
            }
            // A delete that leaves the leaf at or above half fill.
            let delete = |p: &mut BufferPool| assert_eq!(t.delete(p, one).unwrap(), Some(8));
            assert_eq!(hits(&mut pool, delete), h);
            assert_eq!((t.root(), pool.dirty_count()), (root, 1));
            pool.flush_all().unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Entries per leaf, left to right along the leaf chain.
    fn leaf_fills(t: &BTree, pool: &mut BufferPool) -> Vec<usize> {
        let mut node = t.root();
        while pool.page(node).unwrap().kind().unwrap() == PageKind::BTreeInternal {
            node = PageId(int_child(pool.page(node).unwrap(), 0));
        }
        let mut fills = Vec::new();
        loop {
            let page = pool.page(node).unwrap();
            fills.push(page.read_u16(COUNT) as usize);
            match page.read_u64(LEAF_NEXT) {
                0 => return fills,
                next => node = PageId(next),
            }
        }
    }

    #[test]
    fn ascending_keys_fill_their_leaves() {
        let (mut pool, path) = setup("fill", 256);
        let n = 5 * FANOUT + 7;
        let ascending: Vec<usize> = (0..n).collect();
        let descending: Vec<usize> = (0..n).rev().collect();
        let shuffled: Vec<usize> = (0..n).map(|i| i * 7919 % n).collect();
        for (order, keys) in [
            ("ascending", ascending),
            ("descending", descending),
            ("shuffled", shuffled),
        ] {
            let mut t = BTree::create(&mut pool).unwrap();
            for &k in &keys {
                t.insert(&mut pool, Key::from_pair(k as u64, 0), k as u64)
                    .unwrap();
            }
            assert_eq!(t.len(&mut pool).unwrap(), n, "{order}");
            let fills = leaf_fills(&t, &mut pool);
            assert_eq!(fills.iter().sum::<usize>(), n, "{order}");
            let (last, rest) = fills.split_last().unwrap();
            assert!(*last >= 1, "{order}: {fills:?}");
            if order == "ascending" {
                assert_eq!(fills.len(), n.div_ceil(FANOUT), "{order}: {fills:?}");
                assert!(rest.iter().all(|&f| f == FANOUT), "{order}: {fills:?}");
            } else {
                assert!(rest.iter().all(|&f| f >= MIN_FILL), "{order}: {fills:?}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn insert_get_small() {
        let (mut pool, path) = setup("small", 64);
        let mut t = BTree::create(&mut pool).unwrap();
        for i in 0..100u64 {
            assert_eq!(
                t.insert(&mut pool, Key::from_pair(i, 0), i * 10).unwrap(),
                None
            );
        }
        for i in 0..100u64 {
            assert_eq!(
                t.get(&mut pool, Key::from_pair(i, 0)).unwrap(),
                Some(i * 10)
            );
        }
        assert_eq!(t.get(&mut pool, Key::from_pair(100, 0)).unwrap(), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replace_returns_old_value() {
        let (mut pool, path) = setup("replace", 64);
        let mut t = BTree::create(&mut pool).unwrap();
        let k = Key::from_pair(5, 5);
        assert_eq!(t.insert(&mut pool, k, 1).unwrap(), None);
        assert_eq!(t.insert(&mut pool, k, 2).unwrap(), Some(1));
        assert_eq!(t.get(&mut pool, k).unwrap(), Some(2));
        assert_eq!(t.len(&mut pool).unwrap(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let (mut pool, path) = setup("splits", 512);
        let mut t = BTree::create(&mut pool).unwrap();
        // Enough for multiple levels: FANOUT is ~340, so 20k entries gives
        // height >= 3 is false (340^2 = 115k); use interleaved order to
        // stress split paths.
        let n: u64 = 20_000;
        for i in 0..n {
            let k = (i * 7919) % n; // pseudo-random permutation
            t.insert(&mut pool, Key::from_pair(k, 0), k).unwrap();
        }
        assert_eq!(t.len(&mut pool).unwrap(), n as usize);
        assert!(t.height(&mut pool).unwrap() >= 2);
        let all = t.range_vec(&mut pool, Key::MIN, Key::MAX).unwrap();
        for (i, (k, v)) in all.iter().enumerate() {
            assert_eq!(k.to_pair().0, i as u64);
            assert_eq!(*v, i as u64);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn range_scan_bounds_are_inclusive() {
        let (mut pool, path) = setup("range", 64);
        let mut t = BTree::create(&mut pool).unwrap();
        for i in 0..50u64 {
            t.insert(&mut pool, Key::from_pair(i, 0), i).unwrap();
        }
        let hits = t
            .range_vec(
                &mut pool,
                Key::from_pair(10, 0),
                Key::from_pair(19, u64::MAX),
            )
            .unwrap();
        let values: Vec<u64> = hits.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, (10..20).collect::<Vec<u64>>());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_attribute_values_via_composite_keys() {
        let (mut pool, path) = setup("dups", 64);
        let mut t = BTree::create(&mut pool).unwrap();
        // Ten objects share attribute value 42.
        for oid in 0..10u64 {
            t.insert(&mut pool, Key::from_pair(42, oid), oid).unwrap();
        }
        t.insert(&mut pool, Key::from_pair(41, 99), 99).unwrap();
        t.insert(&mut pool, Key::from_pair(43, 99), 99).unwrap();
        let hits = t
            .range_vec(
                &mut pool,
                Key::from_pair(42, 0),
                Key::from_pair(42, u64::MAX),
            )
            .unwrap();
        assert_eq!(hits.len(), 10);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn delete_removes_and_reports() {
        let (mut pool, path) = setup("delete", 64);
        let mut t = BTree::create(&mut pool).unwrap();
        for i in 0..1000u64 {
            t.insert(&mut pool, Key::from_pair(i, 0), i).unwrap();
        }
        for i in (0..1000u64).step_by(2) {
            assert_eq!(t.delete(&mut pool, Key::from_pair(i, 0)).unwrap(), Some(i));
        }
        assert_eq!(t.delete(&mut pool, Key::from_pair(0, 0)).unwrap(), None);
        assert_eq!(t.len(&mut pool).unwrap(), 500);
        for i in 0..1000u64 {
            let got = t.get(&mut pool, Key::from_pair(i, 0)).unwrap();
            if i % 2 == 0 {
                assert_eq!(got, None);
            } else {
                assert_eq!(got, Some(i));
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn descending_insert_order() {
        let (mut pool, path) = setup("desc", 512);
        let mut t = BTree::create(&mut pool).unwrap();
        for i in (0..5000u64).rev() {
            t.insert(&mut pool, Key::from_pair(i, 0), i).unwrap();
        }
        let all = t.range_vec(&mut pool, Key::MIN, Key::MAX).unwrap();
        assert_eq!(all.len(), 5000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_tree_behaviour() {
        let (mut pool, path) = setup("empty", 16);
        let mut t = BTree::create(&mut pool).unwrap();
        assert!(t.is_empty(&mut pool).unwrap());
        assert_eq!(t.get(&mut pool, Key::MIN).unwrap(), None);
        assert_eq!(t.delete(&mut pool, Key::MAX).unwrap(), None);
        assert_eq!(t.range_vec(&mut pool, Key::MIN, Key::MAX).unwrap(), vec![]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn persists_across_reopen() {
        let mut p = std::env::temp_dir();
        p.push(format!("hm-btree-{}-reopen", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let root;
        {
            let dm = DiskManager::create(&OsFs, &p).unwrap();
            let mut pool = BufferPool::new(dm, 128);
            let mut t = BTree::create(&mut pool).unwrap();
            for i in 0..2000u64 {
                t.insert(&mut pool, Key::from_pair(i, i), i + 1).unwrap();
            }
            root = t.root();
            pool.flush_all().unwrap();
            pool.sync().unwrap();
        }
        {
            let dm = DiskManager::open(&OsFs, &p).unwrap();
            let mut pool = BufferPool::new(dm, 128);
            let t = BTree::open(root);
            for i in (0..2000u64).step_by(97) {
                assert_eq!(t.get(&mut pool, Key::from_pair(i, i)).unwrap(), Some(i + 1));
            }
            assert_eq!(t.len(&mut pool).unwrap(), 2000);
        }
        std::fs::remove_file(&p).unwrap();
    }
}
