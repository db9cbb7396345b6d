//! Model test of delta logging and recovery: random transactions over a
//! heap file and a B+Tree, ended in every way the engine can end one —
//! commit, two-phase commit and abort, checkpoint, a crash once the pages
//! new to the file are synced, a crash on either side of the commit
//! record, a crash while prepared, a log cut short, a page of the database
//! file torn after its commit — and after every reopen the file is
//! compared with a shadow of the committed state.
//!
//! What it is after: a page's log records are deltas against the page as
//! the *log* last saw it, so any path on which the engine's idea of that
//! state (before-images, the imaged set) and the log's contents drift
//! apart shows up here as a wrong byte after recovery.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use storage::btree::{BTree, Key};
use storage::engine::{wal_path_for, CrashPoint, Engine};
use storage::heap::{HeapFile, RecordId};
use storage::recovery::{in_doubt_txn, resolve_in_doubt};
use storage::wal::{WalReader, WalRecord};
use storage::{PageId, PAGE_SIZE};

const FRAMES: usize = 512;
const KEYS: u64 = 1200;

type Shadow = BTreeMap<u64, Vec<u8>>;

fn db_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hm-model-{}-{tag}.db", std::process::id()));
    remove(&p);
    p
}

fn remove(p: &Path) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(wal_path_for(p));
}

/// An engine with one heap file and one B+Tree (key → record id) on it.
struct Db {
    engine: Engine,
    heap: HeapFile,
    tree: BTree,
}

impl Db {
    fn create(path: &Path) -> Db {
        let mut engine = Engine::create(path, FRAMES).unwrap();
        let heap = HeapFile::create(engine.pool()).unwrap();
        let tree = BTree::create(engine.pool()).unwrap();
        engine.catalog_set("heap", heap.first_page().0).unwrap();
        engine.catalog_set("tree", tree.root().0).unwrap();
        engine.commit().unwrap();
        Db { engine, heap, tree }
    }

    /// Open after a close or a crash; recovery must leave nothing in doubt.
    fn open(path: &Path) -> Db {
        let (engine, report) = Engine::open(path, FRAMES).unwrap();
        assert_eq!(report.in_doubt, None);
        let mut db = Db {
            engine,
            heap: HeapFile::open(PageId(0)),
            tree: BTree::open(PageId(0)),
        };
        db.reload_roots();
        db
    }

    /// Handles cache roots and hints; after an abort they are stale.
    fn reload_roots(&mut self) {
        self.heap = HeapFile::open(PageId(self.engine.catalog_get("heap").unwrap()));
        self.tree = BTree::open(PageId(self.engine.catalog_get("tree").unwrap()));
    }

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

    fn apply(&mut self, edit: &Edit, shadow: &mut Shadow) {
        match edit {
            Edit::Put(k, data) => {
                self.put(*k, data);
                shadow.insert(*k, data.clone());
            }
            Edit::Delete(k) => {
                self.delete(*k);
                shadow.remove(k);
            }
            Edit::PutRun(start, n) => {
                for k in *start..(*start + *n).min(KEYS) {
                    let data = k.to_le_bytes().to_vec();
                    self.put(k, &data);
                    shadow.insert(k, data);
                }
            }
            Edit::DeleteRun(start, n) => {
                for k in *start..(*start + *n).min(KEYS) {
                    self.delete(k);
                    shadow.remove(&k);
                }
            }
        }
    }

    /// The whole key space answers as `shadow` says.
    fn check(&mut self, shadow: &Shadow, context: &str) {
        let pool = self.engine.pool();
        for k in 0..KEYS {
            let got = self
                .tree
                .get(pool, Key::from_pair(k, 0))
                .unwrap()
                .map(|packed| self.heap.get(pool, RecordId::unpack(packed)).unwrap());
            assert_eq!(got.as_ref(), shadow.get(&k), "{context}: key {k}");
        }
        assert_eq!(self.tree.len(pool).unwrap(), shadow.len(), "{context}");
        assert_eq!(self.heap.len(pool).unwrap(), shadow.len(), "{context}");
    }
}

#[derive(Debug, Clone)]
enum Edit {
    Put(u64, Vec<u8>),
    Delete(u64),
    /// Many small records in key order: enough to split B+Tree leaves.
    PutRun(u64, u64),
    /// Their removal: merges, borrows, pages back on the free list.
    DeleteRun(u64, u64),
}

/// How a transaction ends.
#[derive(Debug, Clone)]
enum End {
    Commit,
    TwoPhase {
        commit: bool,
    },
    CommitThenCheckpoint,
    Crash(CrashPoint),
    /// Crash while prepared; the coordinator decides afterwards.
    CrashPrepared {
        commit: bool,
    },
    /// Commit, then lose the process: the log alone must carry it.
    CommitThenCrash,
    /// The commit's log write stops `permille`/1000 of the way through.
    CutLog {
        permille: u64,
    },
    /// Commit, then half of one page the log mentions is overwritten in
    /// the database file before the process is lost.
    TornPage {
        pick: usize,
        second_half: bool,
    },
}

fn arb_data() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        8 => proptest::collection::vec(any::<u8>(), 0..120),
        // Overflow chains: pages allocated, and freed again on update.
        1 => proptest::collection::vec(any::<u8>(), 2500..6000),
    ]
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        8 => (0..KEYS, arb_data()).prop_map(|(k, d)| Edit::Put(k, d)),
        4 => (0..KEYS).prop_map(Edit::Delete),
        1 => (0..KEYS, 100u64..500).prop_map(|(s, n)| Edit::PutRun(s, n)),
        1 => (0..KEYS, 100u64..500).prop_map(|(s, n)| Edit::DeleteRun(s, n)),
    ]
}

fn arb_end() -> impl Strategy<Value = End> {
    prop_oneof![
        6 => Just(End::Commit),
        2 => any::<bool>().prop_map(|commit| End::TwoPhase { commit }),
        1 => Just(End::CommitThenCheckpoint),
        1 => Just(End::Crash(CrashPoint::AfterFreshPagesSynced)),
        1 => Just(End::Crash(CrashPoint::BeforeCommitRecord)),
        1 => Just(End::Crash(CrashPoint::AfterWalSync)),
        1 => any::<bool>().prop_map(|commit| End::CrashPrepared { commit }),
        1 => Just(End::CommitThenCrash),
        1 => (0u64..1000).prop_map(|permille| End::CutLog { permille }),
        2 => (any::<usize>(), any::<bool>())
            .prop_map(|(pick, second_half)| End::TornPage { pick, second_half }),
    ]
}

/// Pages of the last single-phase commit in the log at `wal`: pages the
/// engine has since written to the database file.
fn last_committed_pages(wal: &Path) -> Vec<u64> {
    let mut reader = WalReader::open(wal).unwrap();
    let (mut open, mut last) = (Vec::new(), Vec::new());
    while let Some(record) = reader.next_record().unwrap() {
        match record {
            WalRecord::PageDelta(delta) => open.push(delta.page_id.0),
            WalRecord::Commit { .. } if !open.is_empty() => last = std::mem::take(&mut open),
            WalRecord::Prepare { .. } => open.clear(),
            _ => {}
        }
    }
    last
}

fn tear_page(db: &Path, page: u64, second_half: bool) {
    let mut bytes = std::fs::read(db).unwrap();
    let at = page as usize * PAGE_SIZE + if second_half { PAGE_SIZE / 2 } else { 0 };
    bytes[at..at + PAGE_SIZE / 2].fill(0xA5);
    std::fs::write(db, bytes).unwrap();
}

/// Run `txns` against a fresh database; returns it with its shadow.
fn run(path: &Path, txns: &[(Vec<Edit>, End)]) -> (Db, Shadow) {
    let wal = wal_path_for(path);
    let mut db = Db::create(path);
    let mut committed = Shadow::new();
    for (n, (edits, end)) in txns.iter().enumerate() {
        let context = format!("txn {n} ended by {end:?}");
        let mut working = committed.clone();
        for edit in edits {
            db.apply(edit, &mut working);
        }
        let txid = 1000 + n as u64;
        // `Some` when the process was lost and the files must be reopened.
        let survivor = match end {
            End::Commit => {
                db.engine.commit().unwrap();
                committed = working;
                Some(db)
            }
            End::TwoPhase { commit } => {
                db.engine.prepare(txid).unwrap();
                if *commit {
                    db.engine.commit_prepared(txid).unwrap();
                    committed = working;
                } else {
                    db.engine.abort_prepared(txid).unwrap();
                    db.reload_roots();
                }
                Some(db)
            }
            End::CommitThenCheckpoint => {
                db.engine.commit().unwrap();
                db.engine.checkpoint().unwrap();
                committed = working;
                Some(db)
            }
            End::Crash(point) => {
                if *point == CrashPoint::AfterWalSync {
                    committed = working;
                }
                db.engine.commit_with_crash(*point).unwrap();
                None
            }
            End::CrashPrepared { commit } => {
                db.engine.prepare(txid).unwrap();
                drop(db);
                assert_eq!(in_doubt_txn(&wal).unwrap(), Some(txid), "{context}");
                resolve_in_doubt(path, &wal, txid, *commit).unwrap();
                if *commit {
                    committed = working;
                }
                None
            }
            End::CommitThenCrash => {
                db.engine.commit().unwrap();
                committed = working;
                None
            }
            End::CutLog { permille } => {
                // Before the log write a commit only adds pages to the end
                // of the database file. Putting the file back as it was
                // loses those too, which a crash inside the log write
                // cannot do, but must recover all the same: no record
                // short of the marker may name them.
                let file_before = std::fs::read(path).unwrap();
                let log_before = std::fs::metadata(&wal).unwrap().len();
                db.engine.commit().unwrap();
                drop(db);
                let log = std::fs::read(&wal).unwrap();
                let grown = log.len() as u64 - log_before;
                if grown == 0 {
                    committed = working; // nothing changed, nothing to lose
                } else {
                    let cut = log_before + grown * permille / 1000;
                    std::fs::write(&wal, &log[..cut as usize]).unwrap();
                    std::fs::write(path, file_before).unwrap();
                }
                None
            }
            End::TornPage { pick, second_half } => {
                db.engine.commit().unwrap();
                committed = working;
                drop(db);
                let pages = last_committed_pages(&wal);
                if !pages.is_empty() {
                    tear_page(path, pages[pick % pages.len()], *second_half);
                }
                None
            }
        };
        db = survivor.unwrap_or_else(|| Db::open(path));
        db.check(&committed, &context);
    }
    (db, committed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn reopened_file_equals_the_committed_shadow(
        txns in proptest::collection::vec(
            (proptest::collection::vec(arb_edit(), 0..12), arb_end()),
            1..24,
        ),
        last in proptest::collection::vec((0..KEYS, proptest::collection::vec(any::<u8>(), 40)), 1..4),
    ) {
        let path = db_path("prop");
        let wal = wal_path_for(&path);
        let (mut db, before) = run(&path, &txns);

        // One more transaction, its log write cut at every byte: all of
        // it or none of it, and the earlier transactions either way. Every
        // cut costs a recovery with its fsyncs, so the transaction is kept
        // to a few hundred bytes of log: it overwrites in place records
        // that the commit before it has just put in the log. (`CutLog`
        // above cuts transactions of every size, at one point each.)
        let mut before = before;
        for (k, _) in &last {
            db.apply(&Edit::Put(*k, vec![0xEE; 40]), &mut before);
        }
        db.engine.commit().unwrap();
        let mut after = before.clone();
        for (k, data) in &last {
            db.apply(&Edit::Put(*k, data.clone()), &mut after);
        }
        let file_before = std::fs::read(&path).unwrap();
        let log_before = std::fs::metadata(&wal).unwrap().len() as usize;
        db.engine.commit().unwrap();
        drop(db);
        let log = std::fs::read(&wal).unwrap();
        for cut in log_before..=log.len() {
            std::fs::write(&wal, &log[..cut]).unwrap();
            std::fs::write(&path, &file_before).unwrap();
            let expect = if cut == log.len() { &after } else { &before };
            Db::open(&path).check(expect, &format!("cut at {cut} of {}", log.len()));
        }
        remove(&path);
    }
}

/// A committed database with pages on its free list, then a transaction
/// that needs more pages than the list holds, lost by `lose` after its
/// new pages reached the file. Reopened, the database is the committed
/// one: same catalog, same free list, and once the list is used up the
/// next page allocated lies past the leaked ones.
fn lose_a_transaction_that_grows_the_file(tag: &str, lose: impl FnOnce(Db, &Path)) {
    let path = db_path(tag);
    let mut db = Db::create(&path);
    let mut committed = Shadow::new();
    for k in 0..20 {
        db.apply(&Edit::Put(k, vec![k as u8; 6000]), &mut committed);
    }
    db.apply(&Edit::PutRun(100, 300), &mut committed);
    db.engine.commit().unwrap();
    for k in 0..10 {
        db.apply(&Edit::Delete(k), &mut committed);
    }
    db.engine.commit().unwrap();
    let catalog = |db: &mut Db| {
        let e = &mut db.engine;
        (
            e.catalog_get("heap").unwrap(),
            e.catalog_get("tree").unwrap(),
        )
    };
    let roots = catalog(&mut db);
    let free = db.engine.pool().free_page_count().unwrap();
    assert!(free > 0, "the deletes freed overflow pages");
    let end = db.engine.pool_ref().disk().page_count();

    let mut working = committed.clone();
    for k in 500..540 {
        db.apply(&Edit::Put(k, vec![k as u8; 6000]), &mut working);
    }
    assert!(db.engine.pool_ref().disk().page_count() > end + 10);
    lose(db, &path);
    let file = std::fs::read(&path).unwrap();
    let leaked_end = (file.len() / PAGE_SIZE) as u64;
    assert!(leaked_end > end + 10, "{tag}");
    let leaked = &file[end as usize * PAGE_SIZE..];
    assert!(
        leaked.chunks(PAGE_SIZE).all(|p| p.iter().any(|&b| b != 0)),
        "{tag}: every new page reached the file"
    );

    let mut db = Db::open(&path);
    db.check(&committed, tag);
    assert_eq!(catalog(&mut db), roots, "{tag}");
    let pool = db.engine.pool();
    assert_eq!(pool.free_page_count().unwrap(), free, "{tag}");
    for _ in 0..free {
        assert!(
            pool.allocate().unwrap().0 .0 < end,
            "{tag}: from the free list"
        );
    }
    assert_eq!(pool.allocate().unwrap().0, PageId(leaked_end), "{tag}");
    drop(db);
    remove(&path);
}

#[test]
fn a_crash_once_the_new_pages_are_synced_leaves_the_committed_database() {
    lose_a_transaction_that_grows_the_file("fresh-synced", |db, _| {
        db.engine
            .commit_with_crash(CrashPoint::AfterFreshPagesSynced)
            .unwrap();
    });
}

#[test]
fn a_prepared_transaction_that_grew_the_file_aborts_after_a_crash() {
    lose_a_transaction_that_grows_the_file("fresh-prepared", |mut db, path| {
        db.engine.prepare(77).unwrap();
        drop(db);
        let wal = wal_path_for(path);
        assert_eq!(in_doubt_txn(&wal).unwrap(), Some(77));
        resolve_in_doubt(path, &wal, 77, false).unwrap();
    });
}
