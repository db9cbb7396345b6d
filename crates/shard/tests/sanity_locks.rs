//! Lock-order regression gate for the sharded store. Compiled only
//! under `RUSTFLAGS="--cfg sanity_check"`: drives a real workload —
//! loading a generated database through `ShardedStore`, cross-shard
//! closure traversal, and the full two-phase `commit` with a live
//! `CommitLog` — through the instrumented shims, then asserts the
//! detector recorded no lock-order cycle and no blocking channel use
//! under a lock.
//!
//! Every lock in this path flows through `sanity::sync` (enforced by
//! `hyperlint`'s direct-sync rule), so a clean run here is evidence the
//! shard/executor locking discipline holds on real code, not just on
//! the `dsched` models.
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

fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let manifest = dir.join("Cargo.toml");
        if std::fs::read_to_string(&manifest).is_ok_and(|t| t.contains("[workspace]")) {
            return dir;
        }
        assert!(dir.pop(), "no workspace root above CARGO_MANIFEST_DIR");
    }
}

/// `file:line:column` → `file:line` (static sites carry no column).
fn trim_col(site: &str) -> String {
    match site.rsplit_once(':') {
        Some((p, _)) => p.to_string(),
        None => site.to_string(),
    }
}

/// Every lock-order edge the instrumented run actually observed must
/// already be an edge of `hyperstatic`'s static lock graph: the static
/// analysis is an over-approximation, so a runtime edge it lacks means
/// the parser or call-graph linking lost a real acquisition path.
fn assert_static_graph_covers_runtime() {
    let static_pairs = sanity::static_graph::analyze(&workspace_root()).edge_site_pairs();
    assert!(
        !static_pairs.is_empty(),
        "static analysis found no lock edges at all — parser regression"
    );
    // With today's locking discipline the instrumented workloads never
    // nest shim locks, so this loop is usually empty; it bites the
    // moment a change introduces real nesting the parser cannot see.
    for (held, acq) in sanity::order::graph_edges() {
        let pair = (trim_col(&held), trim_col(&acq));
        assert!(
            static_pairs.contains(&pair),
            "runtime lock edge {held} -> {acq} missing from the static lock graph"
        );
    }
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
    sanity::order::assert_clean();

    // Observed graph: export when SANITY_GRAPH_OUT is set (CI archives
    // it), and cross-check the static over-approximation.
    sanity::order::export_graph();
    assert_static_graph_covers_runtime();
}
