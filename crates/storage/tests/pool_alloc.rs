//! What the buffer pool allocates: nothing on a warm hit, nothing on a
//! miss into a full pool of clean frames (the miss reads into the evicted
//! frame's buffer), and one 8 KiB before-image when a frame goes from
//! clean to dirty.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use storage::buffer::BufferPool;
use storage::disk::DiskManager;
use storage::page::{PageId, PAGE_SIZE};
use storage::vfs::OsFs;

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

#[test]
fn a_clean_to_dirty_transition_allocates_one_before_image() {
    let (mut pool, path, ids) = full_clean_pool("dirty");
    let last = ids[15];
    let (n, bytes) = allocations(|| {
        pool.page_mut(last).unwrap();
    });
    assert_eq!((n, bytes), (1, PAGE_SIZE), "one 8 KiB before-image");
    // The frame is dirty now: borrowing it again copies nothing.
    let (n, _) = allocations(|| {
        pool.page_mut(last).unwrap();
    });
    assert_eq!(n, 0);
    let _ = std::fs::remove_file(&path);
}
