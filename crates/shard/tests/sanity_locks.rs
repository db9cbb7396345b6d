//! Lock-order regression gate for the sharded store. Compiled only
//! under `RUSTFLAGS="--cfg sanity_check"`: drives real workloads —
//! loading a generated database through `ShardedStore`, cross-shard
//! closure traversal, the full two-phase `commit` with a live
//! `CommitLog`, and range and scan fan-outs whose shares run on the
//! caller and on the workers at once — through the instrumented shims,
//! then asserts the detector recorded no lock-order cycle and no
//! blocking channel use under a lock.
//!
//! Every lock in this path flows through `sanity::sync` (the root
//! `clippy.toml` disallows the raw `std::sync` ones), so a clean run
//! here is evidence the shard/executor locking discipline holds on real
//! code, not just on the `dsched` models.
#![cfg(sanity_check)]

use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::store::HyperStore;
use mem_backend::MemStore;
use shard::{Placement, ShardedStore};
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hm-sanity-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Load, traverse across shards, and run four real multi-shard
/// two-phase transactions against `store`.
fn two_phase_workload<S: HyperStore + Send + 'static>(store: ShardedStore<S>, name: &str) {
    let dir = temp_dir(name);
    let mut store = store
        .with_commit_log(&dir.join("decisions.log"))
        .expect("commit log");

    let db = TestDatabase::generate(&GenConfig::level(3));
    let r = load_database(&mut store, &db).expect("load");

    // Cross-shard traversal exercises the executor fan-out paths.
    let start = r.oids[0];
    store.closure_1n(start).expect("closure");
    store.closure_mn(start).expect("closure");

    // Two-phase commits: prepare fan-out, decision log write, phase two.
    // O12 flips attributes across shards, so each round is a real
    // multi-shard transaction.
    for _round in 0..4u32 {
        store.closure_1n_att_set(start).expect("att_set");
        store.commit().expect("2pc commit");
    }

    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Load and run the fan-out reads against `store`: range lookups and a
/// sequential scan reach every shard, so the caller runs one shard's
/// share under its lock while the workers run the others.
fn scan_workload<S: HyperStore + Send + 'static>(mut store: ShardedStore<S>) {
    let db = TestDatabase::generate(&GenConfig::level(3));
    load_database(&mut store, &db).expect("load");
    let all = db.len();
    assert_eq!(store.seq_scan_ten().expect("scan"), all as u64);
    assert_eq!(store.range_hundred(1, 100).expect("range").len(), all);
    assert_eq!(store.range_million(1, 1_000_000).expect("range").len(), all);
}

#[test]
fn sharded_two_phase_commit_records_no_hazards() {
    sanity::order::reset();
    assert!(sanity::order::instrumented());

    let mem = |n: usize| (0..n).map(|_| MemStore::new()).collect();
    two_phase_workload(
        ShardedStore::new(mem(3), Placement::OidHash, "sanity-gate"),
        "2pc",
    );
    // sharded-mem:2:r2 — every shard a replica group, whose member
    // workers are driven while the outer shard lock is held.
    two_phase_workload(
        ShardedStore::new_replicated(mem(4), 2, Placement::OidHash, "sanity-gate"),
        "2pc-r2",
    );
    scan_workload(ShardedStore::new(mem(3), Placement::OidHash, "sanity-gate"));
    // The caller holds an outer shard mutex for its inline share while
    // that group fans out to its member workers.
    scan_workload(ShardedStore::new_replicated(
        mem(4),
        2,
        Placement::OidHash,
        "sanity-gate",
    ));
    sanity::order::assert_clean();
}
