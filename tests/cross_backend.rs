//! Cross-backend conformance: every operation must return semantically
//! identical results on every composition, pinned against the
//! independent oracle.
//!
//! This is the "transformation to different actual database management
//! systems" check: the HyperModel is one conceptual schema, and a correct
//! port answers every operation identically regardless of physical
//! design. The read-only operations are `verify_store`'s oracle sweep;
//! the mutating ones are compared via `uniqueId`s because `Oid`s are
//! backend-specific by design.

use harness::backend::{BackendSpec, DbFiles};
use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::Oid;
use hypermodel::oracle::Oracle;
use hypermodel::store::HyperStore;
use hypermodel::verify::verify_store;
use mem_backend::MemStore;
use proptest::prelude::*;
use shard::{Placement, ReplicaGroup, ShardedStore};

/// The compositions every test here runs, by spelling. Sharded
/// deployments must be indistinguishable from a single store under both
/// placement policies, in process and over TCP.
const SPECS: [&str; 6] = [
    "mem",
    "disk",
    "rel",
    "sharded-mem:3:hash",
    "sharded-mem:3",
    "sharded-tcp:4:hash",
];

/// Load `db` into each composition in turn and hand it to `check`, with
/// its oid map. Database files live in a directory of the test's own
/// (`tag`), removed at the end.
fn for_each_backend(
    db: &TestDatabase,
    tag: &str,
    mut check: impl FnMut(&mut dyn HyperStore, &[Oid]),
) {
    let dir = DbFiles::dir(&std::env::temp_dir(), &format!("xback-{tag}")).unwrap();
    for spec in SPECS {
        let spec: BackendSpec = spec.parse().unwrap();
        let mut dep = spec.deploy(db, dir.path(), 2048, None).unwrap();
        check(dep.store.as_mut(), &dep.load.oids);
    }
    // A replica group is a store in its own right: three mirrors, no
    // sharding, every operation forwarded as one read or one write. It has
    // no spelling, so it is built here.
    let mut group = ReplicaGroup::new((0..3).map(|_| MemStore::new()).collect());
    let r = load_database(&mut group, db).unwrap();
    check(&mut group, &r.oids);
}

fn uid_of(store: &mut dyn HyperStore, oid: Oid) -> u32 {
    (store.unique_id_of(oid).unwrap() - 1) as u32
}

fn sorted_uids(store: &mut dyn HyperStore, oids: &[Oid]) -> Vec<u32> {
    let mut v: Vec<u32> = oids.iter().map(|&o| uid_of(store, o)).collect();
    v.sort_unstable();
    v
}

#[test]
fn every_operation_agrees_across_backends() {
    let db = TestDatabase::generate(&GenConfig::level(3));
    let oracle = Oracle::new(&db);
    for_each_backend(&db, "every-op", |store, oids| {
        let name = store.backend_name();
        let report = verify_store(store, &db, oids).unwrap();
        assert!(report.is_ok(), "{name}: {report}");

        // O16/O17 round-trip on one text and one form node.
        let ti = db.text_indices()[0];
        let text_oid = oids[ti as usize];
        let before = store.text_of(text_oid).unwrap();
        assert_eq!(before, oracle.text(ti), "{name}: initial text");
        store
            .text_node_edit(text_oid, "version1", "version-2")
            .unwrap();
        store.commit().unwrap();
        store
            .text_node_edit(text_oid, "version-2", "version1")
            .unwrap();
        store.commit().unwrap();
        assert_eq!(
            store.text_of(text_oid).unwrap(),
            before,
            "{name}: O16 round trip"
        );

        let fi = db.form_indices()[0];
        let form_oid = oids[fi as usize];
        store.form_node_edit(form_oid, 25, 25, 50, 50).unwrap();
        store.form_node_edit(form_oid, 25, 25, 50, 50).unwrap();
        store.commit().unwrap();
        assert!(
            store.form_of(form_oid).unwrap().is_all_white(),
            "{name}: O17 round trip"
        );

        // Reference offsets are whole bytes (the generator only draws
        // 0..=9, so the loaded edges never show this).
        let (a, b) = (oids[1], oids[2]);
        store.add_ref(a, b, 255, 16).unwrap();
        store.commit().unwrap();
        let last = *store.refs_to(a).unwrap().last().unwrap();
        assert_eq!(
            (uid_of(store, last.target), last.offset_from, last.offset_to),
            (2, 255, 16),
            "{name}: refsTo with wide offsets"
        );
        let back: Vec<_> = store
            .refs_from(b)
            .unwrap()
            .iter()
            .map(|e| (uid_of(store, e.target), e.offset_from, e.offset_to))
            .collect();
        assert!(
            back.contains(&(1, 255, 16)),
            "{name}: refsFrom with wide offsets, got {back:?}"
        );
    });
}

#[test]
fn update_then_requery_agrees_across_backends() {
    // Apply the same closure1NAttSet to all backends, then compare the
    // resulting range-lookup answers pairwise (not against the oracle —
    // the database has legitimately changed).
    let db = TestDatabase::generate(&GenConfig::tiny());
    let start_idx = db.level_indices(1).start;
    let mut answers: Vec<(&'static str, Vec<u32>)> = Vec::new();
    for_each_backend(&db, "requery", |store, oids| {
        let start = oids[start_idx as usize];
        store.closure_1n_att_set(start).unwrap();
        store.commit().unwrap();
        let got = store.range_hundred(0, 99).unwrap();
        answers.push((store.backend_name(), sorted_uids(store, &got)));
    });
    for (name, answer) in &answers[1..] {
        assert_eq!(&answers[0].1, answer, "mem vs {name} after update");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharding invariants: every object id is owned by exactly one
    /// shard, and the per-shard sequential scans are a disjoint union of
    /// the full scan (ghost nodes never leak into either side).
    #[test]
    fn sharded_partition_is_exact(n in 1usize..=5, affinity in any::<bool>()) {
        let placement = if affinity {
            Placement::affinity()
        } else {
            Placement::OidHash
        };
        let db = TestDatabase::generate(&GenConfig::tiny());
        let shards: Vec<MemStore> = (0..n).map(|_| MemStore::new()).collect();
        let mut s = ShardedStore::new(shards, placement, "sharded-mem");
        let r = load_database(&mut s, &db).unwrap();

        let mut owned_per_shard = vec![0u64; n];
        for &oid in &r.oids {
            let owner = s.owner_of(oid);
            prop_assert!(owner.is_some(), "{oid} has no owner");
            let owner = owner.unwrap();
            prop_assert!(owner < n, "{oid} owned by out-of-range shard {owner}");
            owned_per_shard[owner] += 1;
        }

        let per_scan = s.per_shard_scan().unwrap();
        let full_scan = s.seq_scan_ten().unwrap();
        prop_assert_eq!(per_scan.iter().sum::<u64>(), full_scan);
        prop_assert_eq!(full_scan, db.len() as u64);

        let balance = s.shard_balance().unwrap();
        let placed: Vec<u64> = balance.iter().map(|b| b.nodes).collect();
        prop_assert_eq!(&owned_per_shard, &placed);
    }
}

#[test]
fn cold_restart_preserves_all_answers() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    for_each_backend(&db, "cold-restart", |store, oids| {
        let name = store.backend_name();
        store.commit().unwrap();
        store.cold_restart().unwrap();
        let report = verify_store(store, &db, oids).unwrap();
        assert!(report.is_ok(), "{name}: {report}");
    });
}
