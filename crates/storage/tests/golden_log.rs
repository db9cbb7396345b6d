//! The log of one fixed seeded history, byte for byte.
//!
//! A history of heap and B+Tree edits — inserts that shift leaf entries,
//! splits, merges that free pages and reuse them from the free list,
//! records that grow, shrink and move — runs on files in memory
//! (`fake_fs`) and commits, prepares and commits, and prepares and
//! aborts. Its log must equal `golden_log.wal`, which an engine that
//! copied each page whole when it went dirty, and diffed all of it at
//! commit, wrote. So any change to what a commit diffs, or how, that
//! alters one logged byte shows up here.
//!
//! To rewrite the file after a deliberate change to the log format, run
//! this test with `GOLDEN_LOG_WRITE=1`.

mod fake_fs;

use fake_fs::FakeFs;
use std::path::{Path, PathBuf};
use storage::btree::{BTree, Key};
use storage::engine::{wal_path_for, Engine};
use storage::heap::{HeapFile, RecordId};
use storage::PageId;

const GOLDEN: &str = "tests/golden_log.wal";
const FRAMES: usize = 64;
const KEYS: u64 = 600;

/// xorshift64*: the history's only source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct Db {
    engine: Engine,
    heap: HeapFile,
    tree: BTree,
}

impl Db {
    fn put(&mut self, k: u64, data: &[u8]) {
        let key = Key::from_pair(k, 0);
        let pool = self.engine.pool();
        let rid = match self.tree.get(pool, key).unwrap() {
            Some(packed) => self
                .heap
                .update(pool, RecordId::unpack(packed), data)
                .unwrap(),
            None => self.heap.insert(pool, data).unwrap(),
        };
        self.tree.insert(pool, key, rid.pack()).unwrap();
        self.engine.catalog_set("tree", self.tree.root().0).unwrap();
    }

    fn delete(&mut self, k: u64) {
        let pool = self.engine.pool();
        if let Some(packed) = self.tree.delete(pool, Key::from_pair(k, 0)).unwrap() {
            self.heap.delete(pool, RecordId::unpack(packed)).unwrap();
        }
        self.engine.catalog_set("tree", self.tree.root().0).unwrap();
    }

    /// Up to `n` edits: puts of 1 to 300 bytes, and deletes.
    fn edits(&mut self, rng: &mut Rng, n: usize) {
        for _ in 0..n {
            let k = rng.below(KEYS);
            if rng.below(4) == 0 {
                self.delete(k);
            } else {
                let len = 1 + rng.below(300) as usize;
                let fill = rng.next() as u8;
                self.put(k, &vec![fill; len]);
            }
        }
    }
}

/// Run the history and return its log.
fn history_log() -> Vec<u8> {
    let fs = FakeFs::default();
    let path = PathBuf::from("golden.db");
    let mut engine = Engine::create_in(&fs, &path, FRAMES).unwrap();
    let heap = HeapFile::create(engine.pool()).unwrap();
    let tree = BTree::create(engine.pool()).unwrap();
    engine.catalog_set("heap", heap.first_page().0).unwrap();
    engine.catalog_set("tree", tree.root().0).unwrap();
    engine.commit().unwrap();
    let mut db = Db { engine, heap, tree };
    let mut rng = Rng(0x005E_ED0F_10C5);

    // A load in key order, then a checkpoint: every later first change
    // to a page logs its image, and every later one a delta.
    for k in 0..KEYS / 2 {
        db.put(k * 2, &[k as u8; 40]);
        if k % 60 == 59 {
            db.engine.commit().unwrap();
        }
    }
    db.engine.commit().unwrap();
    db.engine.checkpoint().unwrap();

    for txn in 0..12u64 {
        let n = 1 + rng.below(10) as usize;
        db.edits(&mut rng, n);
        match txn % 10 {
            3 => {
                db.engine.prepare(txn).unwrap();
                db.engine.commit_prepared(txn).unwrap();
            }
            7 => {
                db.engine.prepare(txn).unwrap();
                db.engine.abort_prepared(txn).unwrap();
                db.heap = HeapFile::open(db.heap.first_page());
                db.tree = BTree::open(PageId(db.engine.catalog_get("tree").unwrap()));
            }
            _ => {
                db.engine.commit().unwrap();
            }
        }
    }
    // Deletes of whole key runs: leaves underflow, borrow and merge.
    for k in 100..400 {
        db.delete(k);
        if k % 100 == 99 {
            db.engine.commit().unwrap();
        }
    }
    db.edits(&mut rng, 20);
    db.engine.commit().unwrap();
    fs.file(&wal_path_for(&path)).expect("the log exists")
}

#[test]
fn the_log_of_a_fixed_history_is_pinned() {
    let log = history_log();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("GOLDEN_LOG_WRITE").is_some() {
        std::fs::write(&golden, &log).unwrap();
    }
    let want = std::fs::read(&golden).unwrap();
    assert!(log.len() > 50_000, "the history logs {} bytes", log.len());
    if let Some(at) = log.iter().zip(&want).position(|(a, b)| a != b) {
        panic!("the log differs from {GOLDEN} first at byte {at}");
    }
    assert_eq!(log.len(), want.len(), "the log's length");
}
