//! The code `DiskStore` and `RelStore` share — `PagedStore<L>` — checked
//! once per behaviour and run over both node layouts.
//!
//! What only one mapping does (clustering, record relocation, subtype
//! tables, key-value oids, the filtered scan) is tested beside that
//! layout, in `disk-backend` and `rel-backend`.

use disk_backend::ObjectLayout;
use hypermodel::config::GenConfig;
use hypermodel::error::HmError;
use hypermodel::ext::{
    AccessControlledStore, AccessMode, DynamicSchemaStore, VersionNo, VersionedStore,
};
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::{Content, Oid};
use hypermodel::oracle::Oracle;
use hypermodel::store::HyperStore;
use hypermodel::text::{VERSION_1, VERSION_2};
use hypermodel::verify::verify_store;
use paged_store::{in_doubt_txn, resolve_in_doubt, NodeLayout, PagedStore};
use rel_backend::RelationalLayout;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use storage::vfs::OsFs;
use storage::wal::{Wal, WalReader, WalRecord};

/// A fresh database path per (layout, test), removed again on drop.
struct TempDb(PathBuf);

impl TempDb {
    fn new<L: NodeLayout>(test: &str) -> TempDb {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hm-paged-{}-{}-{test}.db",
            std::process::id(),
            L::NAME
        ));
        let db = TempDb(p);
        db.remove();
        db
    }

    fn remove(&self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_file(storage::engine::wal_path_for(&self.0));
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDb {
    fn drop(&mut self) {
        self.remove();
    }
}

/// `file` comes first so that it is dropped, and the files removed, last.
struct Loaded<L: NodeLayout> {
    file: TempDb,
    store: PagedStore<L>,
    db: TestDatabase,
    oids: Vec<Oid>,
}

fn loaded<L: NodeLayout>(test: &str, cfg: &GenConfig) -> Loaded<L> {
    let file = TempDb::new::<L>(test);
    let db = TestDatabase::generate(cfg);
    let mut store = PagedStore::<L>::create(file.path(), 2048).unwrap();
    let oids = load_database(&mut store, &db).unwrap().oids;
    Loaded {
        file,
        store,
        db,
        oids,
    }
}

/// Generator indices (`uniqueId - 1`) of `oids`.
fn to_indices(store: &mut impl HyperStore, oids: &[Oid]) -> Vec<u32> {
    oids.iter()
        .map(|&o| (store.unique_id_of(o).unwrap() - 1) as u32)
        .collect()
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

fn hundreds(store: &mut impl HyperStore, oids: &[Oid]) -> Vec<u32> {
    oids.iter().map(|&o| store.hundred_of(o).unwrap()).collect()
}

/// Run `check` once per layout.
macro_rules! both_layouts {
    ($($test:ident => $check:ident;)*) => {$(
        #[test]
        fn $test() {
            $check::<ObjectLayout>();
            $check::<RelationalLayout>();
        }
    )*};
}

both_layouts! {
    lookups_and_ranges_match_oracle => check_lookups_and_ranges;
    relationships_match_oracle => check_relationships;
    closures_match_oracle => check_closures;
    att_set_keeps_the_index_and_restores => check_att_set;
    persistence_across_reopen => check_persistence;
    cold_restart_resets_cache_and_warm_is_cheaper => check_cold_warm;
    dynamic_schema_persists_across_reopen => check_dynamic_schema;
    versions_r5 => check_versions;
    access_control_r11 => check_access_control;
    two_phase_commit_and_abort_on_store => check_two_phase;
    crash_between_prepare_and_decision_is_resolved_by_coordinator => check_in_doubt;
    crash_after_commit_preserves_edits => check_crash_after_commit;
    a_load_leaves_the_log_near_empty => check_load_log;
}

fn check_lookups_and_ranges<L: NodeLayout>() {
    let Loaded {
        file: _file,
        mut store,
        db,
        ..
    } = loaded::<L>("lookup", &GenConfig::level(3));
    let oracle = Oracle::new(&db);
    for uid in 1..=db.len() as u64 {
        let oid = store.lookup_unique(uid).unwrap();
        assert_eq!(
            store.hundred_of(oid).unwrap(),
            oracle.hundred(uid as u32 - 1)
        );
    }
    assert!(store.lookup_unique(db.len() as u64 + 999).is_err());
    for (lo, hi) in [(1u32, 10), (45, 54), (91, 100)] {
        let got = store.range_hundred(lo, hi).unwrap();
        let got = sorted(to_indices(&mut store, &got));
        assert_eq!(got, oracle.range_hundred(lo, hi));
    }
    for (lo, hi) in [(1u32, 250_000), (500_000, 1_000_000)] {
        let got = store.range_million(lo, hi).unwrap();
        let got = sorted(to_indices(&mut store, &got));
        assert_eq!(got, oracle.range_million(lo, hi));
    }
}

fn check_relationships<L: NodeLayout>() {
    let Loaded {
        file: _file,
        mut store,
        db,
        oids,
    } = loaded::<L>("rels", &GenConfig::tiny());
    let oracle = Oracle::new(&db);
    for idx in 0..db.len() as u32 {
        let oid = oids[idx as usize];
        let kids = store.children(oid).unwrap();
        assert_eq!(
            to_indices(&mut store, &kids),
            oracle.children(idx),
            "children of {idx}"
        );
        let parent = store.parent(oid).unwrap();
        assert_eq!(
            parent.map(|p| to_indices(&mut store, &[p])[0]),
            oracle.parent(idx)
        );
        let parts = store.parts(oid).unwrap();
        assert_eq!(
            to_indices(&mut store, &parts),
            oracle.parts(idx),
            "parts of {idx}"
        );
        let owners = store.part_of(oid).unwrap();
        assert_eq!(sorted(to_indices(&mut store, &owners)), oracle.part_of(idx));
        let rt = store.refs_to(oid).unwrap();
        assert_eq!(rt.len(), 1);
        let (t, f, o) = oracle.ref_to(idx)[0];
        assert_eq!(to_indices(&mut store, &[rt[0].target]), [t]);
        assert_eq!((rt[0].offset_from, rt[0].offset_to), (f, o));
        let mut rf: Vec<(u32, u8, u8)> = Vec::new();
        for e in store.refs_from(oid).unwrap() {
            let from = to_indices(&mut store, &[e.target])[0];
            rf.push((from, e.offset_from, e.offset_to));
        }
        rf.sort_unstable();
        assert_eq!(rf, oracle.ref_from(idx));
    }
}

fn check_closures<L: NodeLayout>() {
    let Loaded {
        file: _file,
        mut store,
        db,
        oids,
    } = loaded::<L>("closure", &GenConfig::level(4));
    let oracle = Oracle::new(&db);
    for idx in db.level_indices(3).take(5) {
        let start = oids[idx as usize];
        let got = store.closure_1n(start).unwrap();
        assert_eq!(to_indices(&mut store, &got), oracle.closure_1n(idx));
        let got = store.closure_mn(start).unwrap();
        assert_eq!(to_indices(&mut store, &got), oracle.closure_mn(idx));
        let got = store.closure_mnatt(start, 25).unwrap();
        assert_eq!(to_indices(&mut store, &got), oracle.closure_mnatt(idx, 25));
        let got = store.closure_1n_pred(start, 1, 500_000).unwrap();
        assert_eq!(
            to_indices(&mut store, &got),
            oracle.closure_1n_pred(idx, 1, 500_000)
        );
        let (sum, _) = store.closure_1n_att_sum(start).unwrap();
        assert_eq!(sum, oracle.closure_1n_att_sum(idx).0);
    }
}

fn check_att_set<L: NodeLayout>() {
    let Loaded {
        file: _file,
        mut store,
        db,
        oids,
    } = loaded::<L>("attset", &GenConfig::tiny());
    let oracle = Oracle::new(&db);
    let before = hundreds(&mut store, &oids);
    store.closure_1n_att_set(oids[0]).unwrap();
    store.commit().unwrap();
    store.closure_1n_att_set(oids[0]).unwrap();
    store.commit().unwrap();
    assert_eq!(hundreds(&mut store, &oids), before);
    for idx in 0..db.len() as u32 {
        assert_eq!(before[idx as usize], oracle.hundred(idx));
    }
    // The hundred index agrees with brute force after the round trip.
    assert_eq!(store.range_hundred(1, 100).unwrap().len(), db.len());
}

fn check_persistence<L: NodeLayout>() {
    let file = TempDb::new::<L>("reopen");
    let db = TestDatabase::generate(&GenConfig::tiny());
    let oids;
    {
        let mut store = PagedStore::<L>::create(file.path(), 1024).unwrap();
        oids = load_database(&mut store, &db).unwrap().oids;
        store.commit().unwrap();
        store.cold_restart().unwrap(); // checkpoint so reopen is clean
    }
    let mut store = PagedStore::<L>::open(file.path(), 1024).unwrap();
    let oracle = Oracle::new(&db);
    for idx in 0..db.len() as u32 {
        let oid = oids[idx as usize];
        assert_eq!(store.lookup_unique(idx as u64 + 1).unwrap(), oid);
        assert_eq!(store.hundred_of(oid).unwrap(), oracle.hundred(idx));
        let kids = store.children(oid).unwrap();
        assert_eq!(to_indices(&mut store, &kids), oracle.children(idx));
    }
    assert_eq!(store.seq_scan_ten().unwrap(), db.len() as u64);
}

fn check_cold_warm<L: NodeLayout>() {
    let Loaded {
        file: _file,
        mut store,
        oids,
        ..
    } = loaded::<L>("coldwarm", &GenConfig::level(3));
    store.commit().unwrap();
    store.cold_restart().unwrap();
    hundreds(&mut store, &oids[..50]);
    assert!(
        store.pool_stats().misses > 0,
        "cold run must read from disk"
    );
    let misses_before = store.pool_stats().misses;
    hundreds(&mut store, &oids[..50]);
    let warm_misses = store.pool_stats().misses - misses_before;
    assert_eq!(warm_misses, 0, "warm run is fully cached");
}

fn check_dynamic_schema<L: NodeLayout>() {
    let file = TempDb::new::<L>("schema");
    let db = TestDatabase::generate(&GenConfig::tiny());
    let oid0;
    let weight;
    {
        let mut store = PagedStore::<L>::create(file.path(), 1024).unwrap();
        oid0 = load_database(&mut store, &db).unwrap().oids[0];
        store.add_node_type("DrawNode", "Node").unwrap();
        weight = store.add_type_attribute("Node", "weight", 5).unwrap();
        store.set_dyn_attr(oid0, weight, 42).unwrap();
        store.commit().unwrap();
        store.cold_restart().unwrap();
    }
    let mut store = PagedStore::<L>::open(file.path(), 1024).unwrap();
    assert!(store.schema().type_by_name("DrawNode").is_some());
    assert_eq!(store.dyn_attr(oid0, weight).unwrap(), 42);
    // Default for a node never written.
    let other = store.lookup_unique(5).unwrap();
    assert_eq!(store.dyn_attr(other, weight).unwrap(), 5);
}

fn check_versions<L: NodeLayout>() {
    let Loaded {
        file: _file,
        mut store,
        db,
        oids,
    } = loaded::<L>("versions", &GenConfig::tiny());
    let oid = oids[db.text_indices()[0] as usize];
    assert_eq!(store.previous_version(oid).unwrap(), None);
    store.create_version(oid).unwrap();
    let original = store.text_of(oid).unwrap();
    store.text_node_edit(oid, VERSION_1, VERSION_2).unwrap();
    store.create_version(oid).unwrap();
    store.commit().unwrap();
    assert_eq!(store.version_count(oid).unwrap(), 2);
    // Version 0 is the whole node as it was, content included.
    match store.version(oid, VersionNo(0)).unwrap().content {
        Content::Text(s) => assert_eq!(s, original),
        other => panic!("{other:?}"),
    }
    match store.previous_version(oid).unwrap().unwrap().content {
        Content::Text(s) => assert!(s.contains(VERSION_2)),
        other => panic!("{other:?}"),
    }
    // A form node versions its bitmap too.
    let form_oid = oids[db.form_indices()[0] as usize];
    store.create_version(form_oid).unwrap();
    match store.version(form_oid, VersionNo(0)).unwrap().content {
        Content::Form(bm) => assert!(bm.is_all_white()),
        other => panic!("{other:?}"),
    }
    assert!(store.version(oid, VersionNo(5)).is_err());
}

fn check_access_control<L: NodeLayout>() {
    let Loaded {
        file: _file,
        mut store,
        db,
        oids,
    } = loaded::<L>("acl", &GenConfig::tiny());
    let doc_a = oids[db.children[0][0] as usize];
    let doc_b = oids[db.children[0][1] as usize];
    let n = store
        .set_structure_access(doc_a, AccessMode::PublicRead)
        .unwrap();
    assert_eq!(n, 6);
    assert!(store.hundred_checked(doc_a).is_ok());
    assert!(matches!(
        store.set_hundred_checked(doc_a, 5),
        Err(HmError::AccessDenied(_))
    ));
    // Untouched structures default to PublicWrite.
    assert_eq!(store.access_of(doc_b).unwrap(), AccessMode::PublicWrite);
    store.set_hundred_checked(doc_b, 5).unwrap();
    // Cross-structure links remain navigable (paper's R11 example).
    assert_eq!(store.refs_to(doc_a).unwrap().len(), 1);
}

fn check_two_phase<L: NodeLayout>() {
    let Loaded {
        file: _file,
        mut store,
        db,
        oids,
    } = loaded::<L>("twophase", &GenConfig::tiny());
    store.commit().unwrap();
    let root = oids[0];
    let before = hundreds(&mut store, &oids);
    let flipped: Vec<u32> = before.iter().map(|&h| 99u32.wrapping_sub(h)).collect();
    // Prepared + committed: the update (hundred := 99 - hundred)
    // survives.
    store.closure_1n_att_set(root).unwrap();
    store.prepare_commit(21).unwrap();
    store.commit_prepared(21).unwrap();
    assert_eq!(hundreds(&mut store, &oids), flipped);
    // Prepared + aborted: the second application rolls back, leaving
    // the committed (flipped) values, and the store stays usable.
    store.closure_1n_att_set(root).unwrap();
    store.prepare_commit(22).unwrap();
    store.abort_prepared(22).unwrap();
    assert_eq!(hundreds(&mut store, &oids), flipped, "abort rolled back");
    // Index stays consistent with the records after the abort: a
    // second (committed) application restores every original value.
    store.closure_1n_att_set(root).unwrap();
    store.commit().unwrap();
    assert_eq!(hundreds(&mut store, &oids), before);
    assert_eq!(store.range_hundred(1, 100).unwrap().len(), db.len());
}

fn check_in_doubt<L: NodeLayout>() {
    let file = TempDb::new::<L>("indoubt");
    let path = file.path();
    let db = TestDatabase::generate(&GenConfig::tiny());
    let oids;
    let before;
    {
        let mut store = PagedStore::<L>::create(path, 1024).unwrap();
        oids = load_database(&mut store, &db).unwrap().oids;
        store.commit().unwrap();
        before = hundreds(&mut store, &oids);
        store.closure_1n_att_set(oids[0]).unwrap();
        store.prepare_commit(33).unwrap();
        // Crash before the coordinator's decision arrives.
        std::mem::forget(store);
    }
    // The participant died inside its own phase-two write: half a commit
    // marker trails the prepare. The decision must still get through.
    let wal_path = storage::engine::wal_path_for(path);
    let marker_path = wal_path.with_extension("marker");
    {
        let mut marker = Wal::open(&OsFs, &marker_path).unwrap();
        marker.append_commit(33);
        marker.sync().unwrap();
    }
    let marker = std::fs::read(&marker_path).unwrap();
    std::fs::remove_file(&marker_path).unwrap();
    let mut log = OpenOptions::new().append(true).open(&wal_path).unwrap();
    log.write_all(&marker[..marker.len() / 2]).unwrap();
    drop(log);
    // Reopen is refused while the transaction is in doubt.
    assert_eq!(in_doubt_txn(path).unwrap(), Some(33));
    assert!(PagedStore::<L>::open(path, 1024).is_err());
    // Coordinator decided abort (presumed abort: no decision record).
    resolve_in_doubt(path, 33, false).unwrap();
    let mut store = PagedStore::<L>::open(path, 1024).unwrap();
    assert_eq!(hundreds(&mut store, &oids), before);
}

fn check_crash_after_commit<L: NodeLayout>() {
    let file = TempDb::new::<L>("crash");
    let db = TestDatabase::generate(&GenConfig::tiny());
    let text_oid;
    let edited;
    {
        let mut store = PagedStore::<L>::create(file.path(), 1024).unwrap();
        let oids = load_database(&mut store, &db).unwrap().oids;
        text_oid = oids[db.text_indices()[0] as usize];
        store
            .text_node_edit(text_oid, VERSION_1, VERSION_2)
            .unwrap();
        store.commit().unwrap();
        edited = store.text_of(text_oid).unwrap();
        // Simulated crash: drop without checkpoint; recovery replays WAL.
    }
    let mut store = PagedStore::<L>::open(file.path(), 1024).unwrap();
    assert_eq!(store.text_of(text_oid).unwrap(), edited);
}

/// `(page, zero_based)` of every delta record in the log at or past byte
/// `from`.
fn deltas_from(db_path: &Path, from: u64) -> Vec<(u64, bool)> {
    let mut reader = WalReader::open(&OsFs, &storage::engine::wal_path_for(db_path)).unwrap();
    let mut out = Vec::new();
    loop {
        let at = reader.offset();
        let Some(record) = reader.next_record().unwrap() else {
            return out;
        };
        if let (WalRecord::PageDelta(d), true) = (record, at >= from) {
            out.push((d.page_id.0, d.zero_based));
        }
    }
}

fn check_load_log<L: NodeLayout>() {
    let file = TempDb::new::<L>("loadlog");
    let path = file.path();
    let wal_len = || {
        std::fs::metadata(storage::engine::wal_path_for(path))
            .unwrap()
            .len()
    };
    let db = TestDatabase::generate(&GenConfig::level(4));
    let oids;
    {
        let mut store = PagedStore::<L>::create(path, 2048).unwrap();
        oids = load_database(&mut store, &db).unwrap().oids;
        // Pages the file had never held went to the file, not the log.
        // What is logged are pages one commit made and a later one
        // changed, here the heap and tree pages `create` commits empty:
        // 9-10 % of the file at this level, ~4 % at level 5.
        let file_len = store.file_size();
        assert!(wal_len() * 8 < file_len, "{} log bytes", wal_len());
        assert_eq!(store.stored_bytes(), file_len + wal_len());
        // Dropped without a close: the log replays on the next open.
    }
    let mut store = PagedStore::<L>::open(path, 2048).unwrap();
    let report = verify_store(&mut store, &db, &oids).unwrap();
    assert!(report.is_ok(), "{report}");

    // A loaded page's first change logs its image, once; the next change
    // to it logs a delta.
    let text = oids[db.text_indices()[0] as usize];
    let mut edit = |from: &str, to: &str| {
        let at = wal_len();
        store.text_node_edit(text, from, to).unwrap();
        store.commit().unwrap();
        deltas_from(path, at)
    };
    let first = edit(VERSION_1, VERSION_2);
    let second = edit(VERSION_2, VERSION_1);
    assert!(first.iter().any(|&(_, zero_based)| zero_based), "{first:?}");
    assert!(
        second.iter().all(|&(_, zero_based)| !zero_based),
        "{second:?}"
    );
    for (page, _) in first.iter().filter(|&&(_, zero_based)| zero_based) {
        assert!(second.contains(&(*page, false)), "{page}: {second:?}");
    }
}
