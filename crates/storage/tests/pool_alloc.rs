//! What the buffer pool allocates: nothing on a warm hit, nothing on a
//! miss into a full pool of clean frames (the miss reads into the evicted
//! frame's buffer), and nothing to dirty and commit a write set of 128
//! whole pages once its arena of saved chunks is warm.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use storage::buffer::{BufferPool, RETAINED_BYTES};
use storage::disk::DiskManager;
use storage::page::{PageId, CHUNK, CHUNKS, PAGE_SIZE};
use storage::vfs::OsFs;
use storage::wal::encode_ranges;

/// The system allocator, counting the allocations each thread makes and
/// their bytes.
struct CountingAlloc;

thread_local! {
    static COUNT: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn note(size: usize) {
    // `try_with`: nothing to note once the thread's locals are gone.
    let _ = COUNT.try_with(|c| {
        let (n, bytes) = c.get();
        c.set((n + 1, bytes + size));
    });
}

// SAFETY: every method hands its arguments unchanged to `System`, so the
// caller gets exactly `System`'s guarantees; the bookkeeping sets a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded; the caller meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; `ptr` came from `System` through this type.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded; the caller meets `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The allocations `f` makes on this thread, and their bytes.
fn allocations(f: impl FnOnce()) -> (usize, usize) {
    COUNT.with(|c| c.set((0, 0)));
    f();
    COUNT.with(Cell::get)
}

/// A pool of 8 frames over a file of 16 written pages besides the meta
/// page, all clean; the meta page and the last 7 written are resident.
fn full_clean_pool(tag: &str) -> (BufferPool, PathBuf, Vec<PageId>) {
    let mut path = std::env::temp_dir();
    path.push(format!("hm-pool-alloc-{}-{tag}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut pool = BufferPool::new(DiskManager::create(&OsFs, &path).unwrap(), 8);
    let ids: Vec<PageId> = (0..16)
        .map(|_| {
            let (id, _) = pool.allocate().unwrap();
            pool.flush_all().unwrap();
            id
        })
        .collect();
    assert_eq!(pool.resident(), 8);
    (pool, path, ids)
}

#[test]
fn a_warm_hit_allocates_nothing() {
    let (mut pool, path, ids) = full_clean_pool("hit");
    let last = ids[15];
    let stats = pool.stats();
    let (n, _) = allocations(|| {
        for _ in 0..100 {
            pool.page(last).unwrap();
        }
    });
    assert_eq!(pool.stats().hits, stats.hits + 100);
    assert_eq!(n, 0, "a hit allocated");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_miss_into_a_full_pool_of_clean_frames_allocates_nothing() {
    let (mut pool, path, ids) = full_clean_pool("miss");
    let stats = pool.stats();
    let (n, bytes) = allocations(|| {
        for &id in &ids[..8] {
            pool.page(id).unwrap();
        }
    });
    assert_eq!(pool.stats().misses, stats.misses + 8);
    assert_eq!(pool.stats().evictions, stats.evictions + 8);
    assert_eq!((n, bytes), (0, 0), "a miss allocated");
    let _ = std::fs::remove_file(&path);
}

/// Change every chunk of each of `ids`, then commit as the engine does:
/// diff each page's saved chunks into `out`, and mark the frames
/// committed. Returns the bytes saved.
fn change_and_commit(
    pool: &mut BufferPool,
    ids: &[PageId],
    value: u64,
    out: &mut Vec<u8>,
) -> usize {
    for &id in ids {
        let mut page = pool.page_mut(id).unwrap();
        for c in 0..CHUNKS {
            page.write_u64(c * CHUNK + 64, value);
        }
    }
    let mut saved = 0;
    out.clear();
    pool.for_each_dirty(|_, before, page| {
        let before = before.expect("a page the file holds has a before-image");
        saved += before.len();
        encode_ranges(out, before, page.bytes());
        true
    });
    pool.mark_committed();
    saved
}

#[test]
fn a_warm_arena_dirties_and_commits_128_whole_pages_without_allocating() {
    let mut path = std::env::temp_dir();
    path.push(format!("hm-pool-alloc-{}-arena.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut pool = BufferPool::new(DiskManager::create(&OsFs, &path).unwrap(), 160);
    let ids: Vec<PageId> = (0..128).map(|_| pool.allocate().unwrap().0).collect();
    pool.flush_all().unwrap();
    let mut out = Vec::new();
    // The first write set warms the arena: exactly its retained capacity.
    let saved = change_and_commit(&mut pool, &ids, 1, &mut out);
    assert_eq!(saved, RETAINED_BYTES);
    assert_eq!(saved, ids.len() * PAGE_SIZE);
    for value in 2..4 {
        let (n, bytes) = allocations(|| {
            change_and_commit(&mut pool, &ids, value, &mut out);
        });
        assert_eq!((n, bytes), (0, 0), "write set {value} allocated");
    }
    // The last write set changed one byte per chunk (2 to 3): one range
    // of one byte each.
    assert_eq!(out.len(), ids.len() * CHUNKS * (4 + 1));
    let _ = std::fs::remove_file(&path);
}
