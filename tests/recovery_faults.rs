//! Crash recovery of the whole disk backend (requirement R10): a loaded
//! database, and one edited over several sessions, each dropped without a
//! checkpoint and reopened, answer as the generator's oracle says. Crashes
//! at every file operation of the engine are covered by the crash explorer
//! in `crates/storage/tests/model_delta_recovery.rs`.

use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::oracle::Oracle;
use hypermodel::store::HyperStore;
use std::path::{Path, PathBuf};

fn db_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hm-fault-{}-{tag}.db", std::process::id()));
    cleanup_files(&p);
    p
}

fn wal_of(p: &Path) -> PathBuf {
    let mut w = p.to_path_buf().into_os_string();
    w.push(".wal");
    PathBuf::from(w)
}

fn cleanup_files(p: &Path) {
    let _ = std::fs::remove_file(p);
    let _ = std::fs::remove_file(wal_of(p));
}

#[test]
fn full_database_survives_crash_after_load_commit() {
    // Load an entire HyperModel database, commit (no checkpoint), "crash"
    // by dropping the store, reopen, and verify every operation answer.
    let path = db_path("fullload");
    let db = TestDatabase::generate(&GenConfig::tiny());
    let oids;
    {
        let mut store = disk_backend::DiskStore::create(&path, 1024).unwrap();
        let report = load_database(&mut store, &db).unwrap();
        oids = report.oids;
        // load_database committed each phase; drop without checkpoint.
    }
    {
        let mut store = disk_backend::DiskStore::open(&path, 1024).unwrap();
        let oracle = Oracle::new(&db);
        for idx in 0..db.len() as u32 {
            let oid = oids[idx as usize];
            assert_eq!(store.hundred_of(oid).unwrap(), oracle.hundred(idx));
            let kids = store.children(oid).unwrap();
            let kid_uids: Vec<u32> = kids
                .iter()
                .map(|&k| (store.unique_id_of(k).unwrap() - 1) as u32)
                .collect();
            assert_eq!(kid_uids, oracle.children(idx));
        }
        assert_eq!(store.seq_scan_ten().unwrap(), db.len() as u64);
    }
    cleanup_files(&path);
}

#[test]
fn repeated_crash_recover_cycles_are_stable() {
    let path = db_path("cycles");
    let db = TestDatabase::generate(&GenConfig::tiny());
    let oids;
    {
        let mut store = disk_backend::DiskStore::create(&path, 1024).unwrap();
        let report = load_database(&mut store, &db).unwrap();
        oids = report.oids;
    }
    let oracle = Oracle::new(&db);
    // Crash/reopen five times, each cycle doing an update round trip.
    for cycle in 0..5 {
        let mut store = disk_backend::DiskStore::open(&path, 1024).unwrap();
        let start = oids[db.level_indices(1).start as usize];
        store.closure_1n_att_set(start).unwrap();
        store.commit().unwrap();
        store.closure_1n_att_set(start).unwrap();
        store.commit().unwrap();
        // Verify pristine values survived the toggles.
        for idx in db.level_indices(1) {
            let oid = oids[idx as usize];
            assert_eq!(
                store.hundred_of(oid).unwrap(),
                oracle.hundred(idx),
                "cycle {cycle}, node {idx}"
            );
        }
        // Drop without checkpoint = crash.
    }
    cleanup_files(&path);
}
