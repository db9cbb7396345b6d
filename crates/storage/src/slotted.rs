//! Slotted-page layout for variable-size records.
//!
//! Payload layout (offsets relative to the page start; the first 16 bytes
//! are the common page header from [`crate::page`]):
//!
//! ```text
//! 16  u16  slot_count          number of slot directory entries
//! 18  u16  free_start          first free byte after the slot directory
//! 20  u16  free_end            first used byte of the record area
//! 22  u16  live_count          slots that currently hold a record
//! 24  u64  next_page           heap chain link (0 = end of chain)
//! 32  ...  slot directory      slot_count entries of {u16 offset, u16 len}
//! ...      free space
//! ...      record area         records grow downward from PAGE_SIZE
//! ```
//!
//! A slot with `offset == 0` is a tombstone; offset 0 can never hold a
//! record because the header lives there. Tombstoned slots are reused by
//! later inserts, so slot ids stay dense. Deleting and re-inserting records
//! fragments the record area; [`insert`] compacts automatically when the
//! bookkeeping says a record fits but the contiguous gap is too small.

use crate::page::{Page, PageKind, PageMut, HEADER_SIZE, PAGE_SIZE};

const SLOT_COUNT: usize = HEADER_SIZE;
const FREE_START: usize = HEADER_SIZE + 2;
const FREE_END: usize = HEADER_SIZE + 4;
const LIVE_COUNT: usize = HEADER_SIZE + 6;
const NEXT_PAGE: usize = HEADER_SIZE + 8;
const DIR_START: usize = HEADER_SIZE + 16;
const SLOT_ENTRY: usize = 4;

/// Largest record payload a slotted page can hold (one record, one slot).
pub const MAX_RECORD: usize = PAGE_SIZE - DIR_START - SLOT_ENTRY;

/// Initialize `page` as an empty slotted page of the given kind.
pub fn init(page: &mut PageMut<'_>, kind: PageKind) {
    page.clear_payload();
    page.set_kind(kind);
    page.write_u16(SLOT_COUNT, 0);
    page.write_u16(FREE_START, DIR_START as u16);
    page.write_u16(FREE_END, PAGE_SIZE as u16);
    page.write_u16(LIVE_COUNT, 0);
    page.write_u64(NEXT_PAGE, 0);
}

/// Number of slot directory entries (live + tombstoned).
pub fn slot_count(page: &Page) -> u16 {
    page.read_u16(SLOT_COUNT)
}

/// Number of live records on the page.
pub fn live_count(page: &Page) -> u16 {
    page.read_u16(LIVE_COUNT)
}

/// The heap chain link (0 means end of chain).
pub fn next_page(page: &Page) -> u64 {
    page.read_u64(NEXT_PAGE)
}

/// Set the heap chain link.
pub fn set_next_page(page: &mut PageMut<'_>, next: u64) {
    page.write_u64(NEXT_PAGE, next);
}

fn slot_entry(page: &Page, slot: u16) -> (u16, u16) {
    let off = DIR_START + slot as usize * SLOT_ENTRY;
    (page.read_u16(off), page.read_u16(off + 2))
}

fn set_slot_entry(page: &mut PageMut<'_>, slot: u16, offset: u16, len: u16) {
    let off = DIR_START + slot as usize * SLOT_ENTRY;
    page.write_u16(off, offset);
    page.write_u16(off + 2, len);
}

/// Total free bytes (contiguous gap plus reclaimable fragmentation),
/// assuming the insert can reuse a tombstoned slot. An insert of `n` bytes
/// succeeds iff `free_space(page) >= n + SLOT_ENTRY` (the entry cost is
/// waived when a tombstone exists, making this a safe lower bound).
pub fn free_space(page: &Page) -> usize {
    let live_bytes: usize = (0..slot_count(page))
        .map(|s| {
            let (off, len) = slot_entry(page, s);
            if off == 0 {
                0
            } else {
                len as usize
            }
        })
        .sum();
    // Everything between the directory end and PAGE_SIZE that is not a live
    // record is reclaimable by compaction.
    let dir_end = DIR_START + slot_count(page) as usize * SLOT_ENTRY;
    (PAGE_SIZE - dir_end) - live_bytes
}

/// True if a record of `len` bytes fits (possibly after compaction).
pub fn fits(page: &Page, len: usize) -> bool {
    let has_tombstone = (0..slot_count(page)).any(|s| slot_entry(page, s).0 == 0);
    let entry_cost = if has_tombstone { 0 } else { SLOT_ENTRY };
    free_space(page) >= len + entry_cost
}

/// Compact the record area, squeezing out holes left by deletes/updates.
/// Slot ids are preserved.
fn compact(page: &mut PageMut<'_>) {
    let n = slot_count(page);
    // Collect live records (slot, bytes), then rewrite them from the top.
    let mut live: Vec<(u16, Vec<u8>)> = Vec::with_capacity(n as usize);
    for s in 0..n {
        let (off, len) = slot_entry(page, s);
        if off != 0 {
            live.push((s, page.read_bytes(off as usize, len as usize).to_vec()));
        }
    }
    let mut write_pos = PAGE_SIZE;
    for (s, bytes) in live {
        write_pos -= bytes.len();
        page.write_bytes(write_pos, &bytes);
        set_slot_entry(page, s, write_pos as u16, bytes.len() as u16);
    }
    page.write_u16(FREE_END, write_pos as u16);
}

/// Insert `data`, returning the slot id, or `None` if it cannot fit even
/// after compaction.
pub fn insert(page: &mut PageMut<'_>, data: &[u8]) -> Option<u16> {
    if data.len() > MAX_RECORD || !fits(page, data.len()) {
        return None;
    }
    // Reuse a tombstoned slot if one exists, else append a new entry.
    let n = slot_count(page);
    let slot = (0..n).find(|&s| slot_entry(page, s).0 == 0).unwrap_or(n);
    let new_dir_end = DIR_START + (slot.max(n.saturating_sub(1)) as usize + 1) * SLOT_ENTRY;
    let needs_append = slot == n;

    let mut free_start = page.read_u16(FREE_START) as usize;
    let mut free_end = page.read_u16(FREE_END) as usize;
    let entry_growth = if needs_append { SLOT_ENTRY } else { 0 };
    if free_end - free_start < data.len() + entry_growth {
        compact(page);
        free_start = page.read_u16(FREE_START) as usize;
        free_end = page.read_u16(FREE_END) as usize;
        if free_end - free_start < data.len() + entry_growth {
            return None;
        }
    }
    let _ = new_dir_end;
    if needs_append {
        page.write_u16(SLOT_COUNT, n + 1);
        page.write_u16(FREE_START, (free_start + SLOT_ENTRY) as u16);
    }
    let off = free_end - data.len();
    page.write_bytes(off, data);
    page.write_u16(FREE_END, off as u16);
    set_slot_entry(page, slot, off as u16, data.len() as u16);
    page.write_u16(LIVE_COUNT, live_count(page) + 1);
    Some(slot)
}

/// Read the record in `slot`, or `None` if the slot is out of range or
/// tombstoned.
pub fn get(page: &Page, slot: u16) -> Option<&[u8]> {
    if slot >= slot_count(page) {
        return None;
    }
    let (off, len) = slot_entry(page, slot);
    if off == 0 {
        return None;
    }
    Some(page.read_bytes(off as usize, len as usize))
}

/// Delete the record in `slot`. Returns `true` if a live record was removed.
pub fn delete(page: &mut PageMut<'_>, slot: u16) -> bool {
    if slot >= slot_count(page) {
        return false;
    }
    let (off, _) = slot_entry(page, slot);
    if off == 0 {
        return false;
    }
    set_slot_entry(page, slot, 0, 0);
    page.write_u16(LIVE_COUNT, live_count(page) - 1);
    true
}

/// Replace the record in `slot` with `data` in place.
/// Returns `false` if the slot is dead or the new value does not fit on
/// this page (caller then relocates the record).
pub fn update(page: &mut PageMut<'_>, slot: u16, data: &[u8]) -> bool {
    if slot >= slot_count(page) {
        return false;
    }
    let (off, len) = slot_entry(page, slot);
    if off == 0 {
        return false;
    }
    if data.len() <= len as usize {
        // Shrink or same-size: overwrite in place, leaving a tail hole that
        // compaction reclaims later.
        page.write_bytes(off as usize, data);
        set_slot_entry(page, slot, off, data.len() as u16);
        return true;
    }
    // Grow: tombstone, then re-insert into the same slot if space allows.
    // The old bytes are copied out first because compaction discards
    // tombstoned records, so a failed grow can still restore them.
    let old_bytes = page.read_bytes(off as usize, len as usize).to_vec();
    set_slot_entry(page, slot, 0, 0);
    let free_needed = data.len();
    let mut free_start = page.read_u16(FREE_START) as usize;
    let mut free_end = page.read_u16(FREE_END) as usize;
    if free_end - free_start < free_needed {
        compact(page);
        free_start = page.read_u16(FREE_START) as usize;
        free_end = page.read_u16(FREE_END) as usize;
    }
    let payload: &[u8] = if free_end - free_start < free_needed {
        // Not enough room for the grown value: put the original back (it
        // always fits — tombstoning only freed space).
        &old_bytes
    } else {
        data
    };
    let new_off = free_end - payload.len();
    page.write_bytes(new_off, payload);
    page.write_u16(FREE_END, new_off as u16);
    set_slot_entry(page, slot, new_off as u16, payload.len() as u16);
    payload.len() == data.len() && payload == data
}

/// Iterate live slot ids in ascending order.
pub fn live_slots(page: &Page) -> impl Iterator<Item = u16> + '_ {
    (0..slot_count(page)).filter(move |&s| slot_entry(page, s).0 != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageId;

    /// `page` as an empty heap page, lent for writing.
    fn fresh(page: &mut Page) -> PageMut<'_> {
        let mut p = PageMut::from(page);
        init(&mut p, PageKind::Heap);
        p
    }

    #[test]
    fn insert_get_round_trip() {
        let mut page = Page::new(PageId(1));
        let mut p = fresh(&mut page);
        let s1 = insert(&mut p, b"hello").unwrap();
        let s2 = insert(&mut p, b"world!").unwrap();
        assert_ne!(s1, s2);
        assert_eq!(get(&p, s1).unwrap(), b"hello");
        assert_eq!(get(&p, s2).unwrap(), b"world!");
        assert_eq!(live_count(&p), 2);
    }

    #[test]
    fn delete_tombstones_and_slot_is_reused() {
        let mut page = Page::new(PageId(1));
        let mut p = fresh(&mut page);
        let s1 = insert(&mut p, b"aaaa").unwrap();
        let _s2 = insert(&mut p, b"bbbb").unwrap();
        assert!(delete(&mut p, s1));
        assert!(get(&p, s1).is_none());
        assert!(!delete(&mut p, s1), "double delete is a no-op");
        let s3 = insert(&mut p, b"cccc").unwrap();
        assert_eq!(s3, s1, "tombstoned slot is reused");
        assert_eq!(get(&p, s3).unwrap(), b"cccc");
    }

    #[test]
    fn update_in_place_shrink_and_grow() {
        let mut page = Page::new(PageId(1));
        let mut p = fresh(&mut page);
        let s = insert(&mut p, b"0123456789").unwrap();
        assert!(update(&mut p, s, b"abc"));
        assert_eq!(get(&p, s).unwrap(), b"abc");
        assert!(update(&mut p, s, b"a longer value than before"));
        assert_eq!(get(&p, s).unwrap(), b"a longer value than before");
    }

    #[test]
    fn fill_page_then_compaction_reclaims() {
        let mut page = Page::new(PageId(1));
        let mut p = fresh(&mut page);
        let rec = vec![7u8; 100];
        let mut slots = Vec::new();
        while let Some(s) = insert(&mut p, &rec) {
            slots.push(s);
        }
        let full_count = slots.len();
        assert!(full_count > 70, "8K page should hold >70 104-byte records");
        // Delete every other record, then insert larger ones: forces compaction.
        for (i, &s) in slots.iter().enumerate() {
            if i % 2 == 0 {
                assert!(delete(&mut p, s));
            }
        }
        let big = vec![9u8; 150];
        let mut inserted = 0;
        while insert(&mut p, &big).is_some() {
            inserted += 1;
        }
        assert!(inserted > 10, "compaction must reclaim deleted space");
        // All surviving originals are intact.
        for (i, &s) in slots.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(get(&p, s).unwrap(), &rec[..]);
            }
        }
    }

    #[test]
    fn update_grow_fails_when_page_full_and_preserves_record() {
        let mut page = Page::new(PageId(1));
        let mut p = fresh(&mut page);
        let s = insert(&mut p, b"target").unwrap();
        while insert(&mut p, &[1u8; 200]).is_some() {}
        let huge = vec![2u8; 4000];
        if !update(&mut p, s, &huge) {
            assert_eq!(
                get(&p, s).unwrap(),
                b"target",
                "failed grow must not lose data"
            );
        }
    }

    #[test]
    fn max_record_fits_exactly_once() {
        let mut page = Page::new(PageId(1));
        let mut p = fresh(&mut page);
        let rec = vec![1u8; MAX_RECORD];
        let s = insert(&mut p, &rec).unwrap();
        assert_eq!(get(&p, s).unwrap().len(), MAX_RECORD);
        assert!(insert(&mut p, b"x").is_none());
    }

    #[test]
    fn oversized_record_rejected() {
        let mut page = Page::new(PageId(1));
        let mut p = fresh(&mut page);
        assert!(insert(&mut p, &vec![0u8; MAX_RECORD + 1]).is_none());
    }

    #[test]
    fn live_slots_iterates_in_order() {
        let mut page = Page::new(PageId(1));
        let mut p = fresh(&mut page);
        let a = insert(&mut p, b"a").unwrap();
        let b = insert(&mut p, b"b").unwrap();
        let c = insert(&mut p, b"c").unwrap();
        delete(&mut p, b);
        let live: Vec<u16> = live_slots(&p).collect();
        assert_eq!(live, vec![a, c]);
    }

    #[test]
    fn next_page_link_round_trips() {
        let mut page = Page::new(PageId(1));
        let mut p = fresh(&mut page);
        assert_eq!(next_page(&p), 0);
        set_next_page(&mut p, 77);
        assert_eq!(next_page(&p), 77);
    }

    #[test]
    fn empty_record_is_allowed() {
        let mut page = Page::new(PageId(1));
        let mut p = fresh(&mut page);
        let s = insert(&mut p, b"").unwrap();
        assert_eq!(get(&p, s).unwrap(), b"");
        assert!(delete(&mut p, s));
    }
}
