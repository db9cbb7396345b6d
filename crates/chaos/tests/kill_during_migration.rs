//! The `kill-during-migration` plan: a migration destination dies
//! between `install_nodes` and `activate_nodes` — the window where
//! inert copies exist but ownership has not flipped. Presumed-old
//! semantics require the interrupted migration to leave every node
//! readable at exactly one placement (the old one), and a recovered
//! destination to simply retry.

use chaos::{ChaosStore, FaultPlan};
use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::Oid;
use hypermodel::oracle::Oracle;
use hypermodel::store::HyperStore;
use mem_backend::MemStore;
use shard::{Placement, ShardedStore};

const SEED: u64 = 42;

fn uids(store: &mut ShardedStore<ChaosStore<MemStore>>, oids: &[Oid]) -> Vec<u32> {
    oids.iter()
        .map(|&o| (store.unique_id_of(o).unwrap() - 1) as u32)
        .collect()
}

#[test]
fn a_destination_killed_between_install_and_activate_recovers_presumed_old() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let members: Vec<ChaosStore<MemStore>> = (0..3)
        .map(|_| ChaosStore::new(MemStore::new(), FaultPlan::none(SEED)))
        .collect();
    let mut s = ShardedStore::new(members, Placement::affinity(), "sharded-mem");
    let r = load_database(&mut s, &db).unwrap();
    let oracle = Oracle::new(&db);
    let idx = db.level_indices(oracle.closure_start_level()).start;
    let root = r.oids[idx as usize];
    let home = s.owner_of(root).unwrap();
    let dst = (home + 1) % 3;

    // The destination's durable state, as recovery would find it.
    let durable = s.with_shard(dst, |sh| sh.sync_export()).unwrap().unwrap();
    // Arm the kill: the destination dies on its first activate, i.e.
    // after the inert install and before the ownership flip.
    let plan = FaultPlan::named(SEED, "kill-during-migration").unwrap();
    s.with_shard(dst, |sh| sh.set_plan(plan)).unwrap();

    let err = s.migrate_subtree(root, dst).unwrap_err();
    assert!(
        err.is_transient(),
        "a killed destination is transient: {err}"
    );
    assert!(
        s.with_shard(dst, |sh| sh.is_crashed()).unwrap(),
        "the kill fired"
    );

    // Presumed-old: ownership untouched, the migration never counted.
    assert_eq!(s.owner_of(root), Some(home));
    assert_eq!(s.migrations(), 0);

    // The subtree reads correctly at its old placement even while the
    // would-be destination is still dead.
    let closure = s.closure_1n(root).unwrap();
    assert_eq!(uids(&mut s, &closure), oracle.closure_1n(idx));

    // Restart the killed member from its durable state and re-admit it.
    let mut restored = MemStore::new();
    restored.sync_import(&durable).unwrap();
    s.replace_shard(dst, ChaosStore::new(restored, FaultPlan::none(SEED)))
        .unwrap();

    // Every node is readable at exactly one placement.
    let per = s.per_shard_scan().unwrap();
    assert_eq!(per.iter().sum::<u64>(), db.len() as u64, "scan partition");
    let sweep = hypermodel::verify::verify_store(&mut s, &db, &r.oids).unwrap();
    assert!(sweep.is_ok(), "oracle sweep after recovery: {sweep}");

    // The interrupted migration is simply retried.
    assert!(s.migrate_subtree(root, dst).unwrap() > 0);
    assert_eq!(s.owner_of(root), Some(dst));
    assert_eq!(s.migrations(), 1);
    let sweep = hypermodel::verify::verify_store(&mut s, &db, &r.oids).unwrap();
    assert!(
        sweep.is_ok(),
        "oracle sweep after the retried move: {sweep}"
    );
}
