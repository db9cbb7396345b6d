//! Deletion-rebalancing stress tests: with a fanout of ~340 the unit
//! tests rarely trigger borrow/merge, so these tests build multi-level
//! trees and drain them in adversarial orders, checking structure,
//! contents and page reclamation at every stage.

use std::collections::BTreeMap;
use std::path::PathBuf;
use storage::btree::{BTree, Key};
use storage::buffer::BufferPool;
use storage::disk::DiskManager;
use storage::vfs::OsFs;

fn fresh(tag: &str) -> (BufferPool, PathBuf) {
    fresh_with(tag, 4096)
}

fn fresh_with(tag: &str, frames: usize) -> (BufferPool, PathBuf) {
    let mut p = std::env::temp_dir();
    p.push(format!("hm-btdel-{}-{tag}.db", std::process::id()));
    let _ = std::fs::remove_file(&p);
    let dm = DiskManager::create(&OsFs, &p).unwrap();
    (BufferPool::new(dm, frames), p)
}

fn check_against_model(tree: &BTree, pool: &mut BufferPool, model: &BTreeMap<u64, u64>) {
    assert_eq!(tree.len(pool).unwrap(), model.len());
    let all = tree.range_vec(pool, Key::MIN, Key::MAX).unwrap();
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "sorted, no dups");
    for (&k, &v) in model.iter() {
        assert_eq!(
            tree.get(pool, Key::from_pair(k, 0)).unwrap(),
            Some(v),
            "key {k}"
        );
    }
    assert_eq!(all.len(), model.len());
}

#[test]
fn drain_ascending_shrinks_tree_and_frees_pages() {
    let (mut pool, path) = fresh("asc");
    let mut tree = BTree::create(&mut pool).unwrap();
    let n: u64 = 20_000;
    for i in 0..n {
        tree.insert(&mut pool, Key::from_pair(i, 0), i).unwrap();
    }
    assert!(tree.height(&mut pool).unwrap() >= 2);
    let pages_full = pool.disk().page_count();
    for i in 0..n {
        assert_eq!(
            tree.delete(&mut pool, Key::from_pair(i, 0)).unwrap(),
            Some(i)
        );
    }
    assert_eq!(tree.len(&mut pool).unwrap(), 0);
    assert_eq!(
        tree.height(&mut pool).unwrap(),
        1,
        "tree collapsed to a leaf"
    );
    // Every interior/leaf page except the root leaf is back on the free
    // list: refilling must not grow the file.
    let freed = pool.free_page_count().unwrap();
    assert!(
        freed > 50,
        "a 20k-entry tree spans >50 pages, freed {freed}"
    );
    for i in 0..n {
        tree.insert(&mut pool, Key::from_pair(i, 0), i).unwrap();
    }
    assert_eq!(
        pool.disk().page_count(),
        pages_full,
        "refill reuses reclaimed pages"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn drain_descending_and_verify_remainder_at_each_step() {
    let (mut pool, path) = fresh("desc");
    let mut tree = BTree::create(&mut pool).unwrap();
    let n: u64 = 5_000;
    let mut model = BTreeMap::new();
    for i in 0..n {
        tree.insert(&mut pool, Key::from_pair(i, 0), i * 3).unwrap();
        model.insert(i, i * 3);
    }
    // Delete from the top; verify at coarse checkpoints.
    for i in (0..n).rev() {
        tree.delete(&mut pool, Key::from_pair(i, 0)).unwrap();
        model.remove(&i);
        if i % 997 == 0 {
            check_against_model(&tree, &mut pool, &model);
        }
    }
    assert_eq!(tree.height(&mut pool).unwrap(), 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn interleaved_delete_insert_preserves_model() {
    // A deterministic pseudo-random walk mixing deletes and re-inserts,
    // long enough to force borrows and merges at interior levels. In an
    // 8-frame pool, smaller than the tree, borrows and merges re-read
    // evicted siblings; the pool is no-steal, so every step is flushed.
    for frames in [4096, 8] {
        let (mut pool, path) = fresh_with(&format!("mix{frames}"), frames);
        let mut tree = BTree::create(&mut pool).unwrap();
        let mut model = BTreeMap::new();
        let mut x: u64 = 0x1234_5678;
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        for i in 0..3_000u64 {
            tree.insert(&mut pool, Key::from_pair(i, 0), i).unwrap();
            model.insert(i, i);
            if frames < 4096 {
                pool.flush_all().unwrap();
            }
        }
        for round in 0..12_000u64 {
            let k = step() % 3_000;
            if step() % 3 == 0 {
                let got = tree.insert(&mut pool, Key::from_pair(k, 0), round).unwrap();
                assert_eq!(got, model.insert(k, round), "insert {k}");
            } else {
                let got = tree.delete(&mut pool, Key::from_pair(k, 0)).unwrap();
                assert_eq!(got, model.remove(&k), "delete {k}");
            }
            if frames < 4096 {
                pool.flush_all().unwrap();
            }
        }
        check_against_model(&tree, &mut pool, &model);
        if frames < 4096 {
            assert!(pool.stats().misses > 0, "the tree outgrew the pool");
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn middle_heavy_deletion_keeps_range_scans_correct() {
    let (mut pool, path) = fresh("middle");
    let mut tree = BTree::create(&mut pool).unwrap();
    let n: u64 = 10_000;
    for i in 0..n {
        tree.insert(&mut pool, Key::from_pair(i, 0), i).unwrap();
    }
    // Carve out the middle 80%, leaving two thin edges: exercises merges
    // that cascade up and leaf-chain repairs across freed pages.
    for i in 1_000..9_000u64 {
        tree.delete(&mut pool, Key::from_pair(i, 0)).unwrap();
    }
    let survivors = tree.range_vec(&mut pool, Key::MIN, Key::MAX).unwrap();
    assert_eq!(survivors.len(), 2_000);
    let keys: Vec<u64> = survivors.iter().map(|(k, _)| k.to_pair().0).collect();
    let expect: Vec<u64> = (0..1_000).chain(9_000..10_000).collect();
    assert_eq!(keys, expect);
    // Range scans that straddle the excised middle are seamless.
    let hits = tree
        .range_vec(&mut pool, Key::from_pair(900, 0), Key::from_pair(9_100, 0))
        .unwrap();
    assert_eq!(hits.len(), 100 + 101);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn persists_correctly_after_heavy_deletion_and_reopen() {
    let mut path = std::env::temp_dir();
    path.push(format!("hm-btdel-{}-reopen.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let root;
    {
        let dm = DiskManager::create(&OsFs, &path).unwrap();
        let mut pool = BufferPool::new(dm, 4096);
        let mut tree = BTree::create(&mut pool).unwrap();
        for i in 0..8_000u64 {
            tree.insert(&mut pool, Key::from_pair(i, 0), i).unwrap();
        }
        for i in (0..8_000u64).filter(|i| i % 3 != 0) {
            tree.delete(&mut pool, Key::from_pair(i, 0)).unwrap();
        }
        root = tree.root();
        pool.flush_all().unwrap();
        pool.sync().unwrap();
    }
    {
        let dm = DiskManager::open(&OsFs, &path).unwrap();
        let mut pool = BufferPool::new(dm, 4096);
        let tree = BTree::open(root);
        let all = tree.range_vec(&mut pool, Key::MIN, Key::MAX).unwrap();
        assert_eq!(all.len(), 8_000 / 3 + 1);
        for (k, v) in all {
            let kk = k.to_pair().0;
            assert_eq!(kk % 3, 0);
            assert_eq!(v, kk);
        }
    }
    let _ = std::fs::remove_file(&path);
}
