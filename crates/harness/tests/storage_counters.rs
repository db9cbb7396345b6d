//! The storage engine's counters for the paper's operation run, pinned.
//!
//! Deploys the level-4 database on `disk` with a 64-frame pool and on
//! `rel` with a 96-frame pool, runs all 20 operations as `hyperbench run
//! --level 4 --reps 5` does, and compares every `storage.*` count the
//! global registry holds afterwards with fixed figures. Misses,
//! evictions, write-backs, file fsyncs and log traffic say what the
//! engine read and wrote; a change to the read path must leave them
//! alone. Hits count page fetches, which such a change may lower. After
//! the counted runs, the same test loads level 4 once more into each
//! layout and pins how many pages the file holds: a change to how a
//! B+Tree or heap fills its pages shows there.
//!
//! The registry is process-global, so this file is its own test binary
//! and holds one test: nothing else in the process touches `storage`.

use disk_backend::DiskStore;
use harness::backend::{BackendSpec, DbFiles};
use harness::input::Workload;
use harness::protocol::{run_all_ops, RunOptions};
use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::store::HyperStore;
use rel_backend::RelStore;
use storage::page::PAGE_SIZE;

const NAMES: [&str; 8] = [
    "storage.buffer.hits",
    "storage.buffer.misses",
    "storage.buffer.evictions",
    "storage.buffer.writebacks",
    "storage.db.fsyncs",
    "storage.wal.appends",
    "storage.wal.bytes",
    "storage.wal.fsyncs",
];

/// The current value of each of [`NAMES`].
fn counters() -> [u64; 8] {
    let snap = obs::registry().snapshot();
    NAMES.map(|name| snap.counters.get(name).copied().unwrap_or(0))
}

/// What deploying `spec` at `pool` frames, running the 20 operations and
/// dropping the store adds to each of [`NAMES`].
fn run(db: &TestDatabase, spec: BackendSpec, pool: usize) -> [u64; 8] {
    let before = counters();
    {
        let mut dep = spec.deploy(db, &std::env::temp_dir(), pool, None).unwrap();
        let mut workload = Workload::new(db.clone(), dep.load.oids.clone(), 0xBEEF);
        let opts = RunOptions {
            reps: 5,
            input_seed: 0xBEEF,
        };
        run_all_ops(dep.store.as_mut(), &mut workload, opts).unwrap();
    }
    let after = counters();
    std::array::from_fn(|i| after[i] - before[i])
}

/// Pages in the file of `store` once `db` is loaded into it.
fn loaded_pages<S: HyperStore>(db: &TestDatabase, mut store: S, file_size: fn(&S) -> u64) -> u64 {
    load_database(&mut store, db).unwrap();
    file_size(&store) / PAGE_SIZE as u64
}

#[test]
fn level_4_operation_runs_keep_their_storage_counters() {
    let db = TestDatabase::generate(&GenConfig::level(4));
    let table = [
        ("disk --pool 64", run(&db, BackendSpec::Disk, 64)),
        ("rel --pool 96", run(&db, BackendSpec::Rel, 96)),
    ];
    // hits, misses, evictions, writebacks, db fsyncs, WAL appends, WAL bytes,
    // WAL fsyncs
    let want = [
        (
            "disk --pool 64",
            [34_943, 240, 32, 31, 47, 230, 228_795, 97],
        ),
        ("rel --pool 96", [34_122, 189, 0, 31, 47, 227, 204_762, 97]),
    ];
    assert_eq!(table, want, "{NAMES:?}");

    let dir = std::env::temp_dir();
    let (disk, rel) = (
        DbFiles::new(&dir, "pages-disk"),
        DbFiles::new(&dir, "pages-rel"),
    );
    let pages = [
        (
            "disk",
            loaded_pages(
                &db,
                DiskStore::create(disk.path(), 64).unwrap(),
                DiskStore::file_size,
            ),
        ),
        (
            "rel",
            loaded_pages(
                &db,
                RelStore::create(rel.path(), 96).unwrap(),
                RelStore::file_size,
            ),
        ),
    ];
    assert_eq!(
        pages,
        [("disk", 90), ("rel", 92)],
        "file pages after the load"
    );
}
