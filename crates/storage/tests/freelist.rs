//! Free-page list: reclamation of overflow pages and reuse through the
//! allocator, including persistence across commit/recovery.

use std::path::{Path, PathBuf};
use storage::buffer::BufferPool;
use storage::disk::DiskManager;
use storage::engine::Engine;
use storage::heap::HeapFile;
use storage::vfs::OsFs;
use storage::PageId;

fn fresh(tag: &str) -> (BufferPool, PathBuf) {
    let mut p = std::env::temp_dir();
    p.push(format!("hm-freelist-{}-{tag}.db", std::process::id()));
    let _ = std::fs::remove_file(&p);
    let dm = DiskManager::create(&OsFs, &p).unwrap();
    (BufferPool::new(dm, 512), p)
}

fn cleanup(p: &Path) {
    let _ = std::fs::remove_file(p);
    let mut w = p.to_path_buf().into_os_string();
    w.push(".wal");
    let _ = std::fs::remove_file(PathBuf::from(w));
}

#[test]
fn free_and_reallocate_round_trip() {
    let (mut pool, path) = fresh("roundtrip");
    let (a, _) = pool.allocate().unwrap();
    let (b, _) = pool.allocate().unwrap();
    let (c, _) = pool.allocate().unwrap();
    assert_eq!(pool.free_page_count().unwrap(), 0);
    pool.free_page(b).unwrap();
    pool.free_page(c).unwrap();
    assert_eq!(pool.free_page_count().unwrap(), 2);
    // LIFO reuse: c then b; the file does not grow.
    let pages_before = pool.disk().page_count();
    let (r1, _) = pool.allocate().unwrap();
    let (r2, _) = pool.allocate().unwrap();
    assert_eq!((r1, r2), (c, b));
    assert_eq!(pool.disk().page_count(), pages_before);
    assert_eq!(pool.free_page_count().unwrap(), 0);
    // Exhausted list falls back to extending the file.
    let (d, _) = pool.allocate().unwrap();
    assert!(d.0 > a.0);
    cleanup(&path);
}

#[test]
fn overflow_update_reclaims_pages_and_file_stops_growing() {
    let (mut pool, path) = fresh("ovf-update");
    let mut heap = HeapFile::create(&mut pool).unwrap();
    let big = vec![7u8; 20_000]; // 3 overflow pages per version
    let rid = heap.insert(&mut pool, &big).unwrap();
    // Let the steady state establish (first update allocates the new
    // chain before freeing the old one).
    heap.update(&mut pool, rid, &big).unwrap();
    let pages_after_first = pool.disk().page_count();
    for i in 0..20 {
        let data = vec![i as u8; 20_000 - (i as usize % 7) * 100];
        heap.update(&mut pool, rid, &data).unwrap();
    }
    let growth = pool.disk().page_count() - pages_after_first;
    assert!(
        growth <= 1,
        "20 overflow rewrites must recycle pages (grew by {growth})"
    );
    assert_eq!(
        heap.get(&mut pool, rid).unwrap().len(),
        20_000 - (19 % 7) * 100
    );
    cleanup(&path);
}

#[test]
fn overflow_delete_returns_chain_to_free_list() {
    let (mut pool, path) = fresh("ovf-delete");
    let mut heap = HeapFile::create(&mut pool).unwrap();
    let rid = heap.insert(&mut pool, &vec![1u8; 20_000]).unwrap();
    assert_eq!(pool.free_page_count().unwrap(), 0);
    heap.delete(&mut pool, rid).unwrap();
    assert_eq!(
        pool.free_page_count().unwrap(),
        3,
        "20 kB = 3 overflow pages"
    );
    // Inline records free nothing.
    let rid2 = heap.insert(&mut pool, b"small").unwrap();
    heap.delete(&mut pool, rid2).unwrap();
    assert_eq!(pool.free_page_count().unwrap(), 3);
    cleanup(&path);
}

#[test]
fn free_list_survives_commit_and_recovery() {
    let mut p = std::env::temp_dir();
    p.push(format!("hm-freelist-{}-recover.db", std::process::id()));
    cleanup(&p);
    {
        let mut engine = Engine::create(&p, 256).unwrap();
        let mut heap = HeapFile::create(engine.pool()).unwrap();
        engine
            .catalog_set("heap", heap.first_page().as_u64())
            .unwrap();
        let rid = heap.insert(engine.pool(), &vec![9u8; 20_000]).unwrap();
        engine.catalog_set("rid", rid.pack()).unwrap();
        engine.commit().unwrap();
        heap.delete(engine.pool(), rid).unwrap();
        engine.commit().unwrap();
        // Crash (no checkpoint): the freed pages live only in the WAL.
    }
    {
        let (mut engine, report) = Engine::open(&p, 256).unwrap();
        assert!(report.pages_redone > 0);
        assert_eq!(engine.pool().free_page_count().unwrap(), 3);
        // Reuse after recovery: allocations consume the recovered list.
        let before = engine.pool().disk().page_count();
        let mut heap = HeapFile::open(PageId(engine.catalog_get("heap").unwrap()));
        heap.insert(engine.pool(), &vec![3u8; 20_000]).unwrap();
        assert_eq!(engine.pool().disk().page_count(), before, "no growth");
        assert_eq!(engine.pool().free_page_count().unwrap(), 0);
    }
    cleanup(&p);
}

#[test]
fn freeing_meta_adjacent_pages_does_not_corrupt_catalog() {
    let mut p = std::env::temp_dir();
    p.push(format!("hm-freelist-{}-catalog.db", std::process::id()));
    cleanup(&p);
    let mut engine = Engine::create(&p, 256).unwrap();
    engine.catalog_set("marker", 42).unwrap();
    let (a, _) = engine.pool().allocate().unwrap();
    let (b, _) = engine.pool().allocate().unwrap();
    engine.pool().free_page(a).unwrap();
    engine.pool().free_page(b).unwrap();
    engine.commit().unwrap();
    assert_eq!(engine.catalog_get("marker").unwrap(), 42);
    assert_eq!(engine.pool().free_page_count().unwrap(), 2);
    cleanup(&p);
}
