//! Every catalogue row through every middle layer. The script of the
//! `server` crate's remote conformance test runs against a `ChaosStore`
//! with no faults planned, a replica group of two `MemStore`s, and a
//! `ShardedStore` over two `MemStore`s and over two `RemoteStore`s, and
//! each row must answer what a `MemStore` loaded the same way answers.
//! The rows a layer refuses are listed with the layer, and must be
//! refused with the store's "does not support" error.

#[path = "../../server/tests/catalogue/mod.rs"]
mod catalogue;

use catalogue::{canonical, script, Inputs};
use chaos::{ChaosStore, FaultPlan};
use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::store::HyperStore;
use mem_backend::MemStore;
use shard::{connect_sharded, Placement, ReplicaGroup, ShardedStore};

/// Whole-store repair and the migration steps belong to a shard, not to
/// a sharded deployment: each row with the words of its refusal.
const SHARDED_REFUSES: [(&str, &str); 6] = [
    ("sync_export", "anti-entropy export"),
    ("sync_import", "anti-entropy import"),
    ("export_nodes", "node migration export"),
    ("install_nodes", "node migration install"),
    ("activate_nodes", "node migration activate"),
    ("retire_nodes", "node migration retire"),
];

/// Load `store` and a `MemStore` alike, run the script on both, and
/// compare each row's answer; a row in `refused` must fail with the
/// store's "does not support" error instead.
fn agrees_row_by_row(store: &mut dyn HyperStore, refused: &[(&str, &str)]) {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut local = MemStore::new();
    let local_oids = load_database(&mut local, &db).unwrap().oids;
    let oids = load_database(store, &db).unwrap().oids;
    // A sharded router mints global ids in creation order, as a
    // `MemStore` numbers its nodes, so the ids a shard answers with,
    // once translated, are the local store's: no answer needs mapping.
    assert_eq!(oids, local_oids);
    let inputs = Inputs::new(&db, &oids, &mut local);
    let name = store.backend_name();
    for (row, step) in script() {
        let got = canonical(row, step(store, &inputs));
        match refused.iter().find(|(r, _)| *r == row) {
            Some((_, what)) => {
                let refusal = format!("Err(Backend(\"{name} backend does not support {what}\"))");
                assert_eq!(got, refusal, "{name}: {row}");
            }
            None => {
                let want = canonical(row, step(&mut local, &inputs));
                assert_eq!(got, want, "{name}: {row}");
            }
        }
    }
}

#[test]
fn a_chaos_store_without_faults_answers_every_row_as_its_store() {
    let mut store = ChaosStore::new(MemStore::new(), FaultPlan::none(1));
    agrees_row_by_row(&mut store, &[]);
    assert!(!store.is_crashed());
}

#[test]
fn a_replica_group_answers_every_row_as_one_store() {
    let mut group = ReplicaGroup::new(vec![MemStore::new(), MemStore::new()]);
    agrees_row_by_row(&mut group, &[]);
    assert_eq!(group.member_health(), &[true, true]);
    assert_eq!(group.demotions(), 0);
}

#[test]
fn a_sharded_store_answers_every_row_it_serves_as_one_store() {
    let shards = vec![MemStore::new(), MemStore::new()];
    let mut store = ShardedStore::new(shards, Placement::OidHash, "sharded-mem");
    agrees_row_by_row(&mut store, &SHARDED_REFUSES);
    assert_eq!(store.health(), &[true, true]);
}

#[test]
fn a_sharded_store_over_the_wire_answers_every_row_it_serves_as_one_store() {
    let server = server::serve_multi(vec![MemStore::new(), MemStore::new()]).unwrap();
    let mut store = connect_sharded(&server.addr_strings(), Placement::OidHash).unwrap();
    agrees_row_by_row(&mut store, &SHARDED_REFUSES);
    assert_eq!(store.health(), &[true, true]);
    drop(store);
    let stats = server.stop().unwrap();
    assert_eq!(stats.errors, 0, "no shard answered an error");
}
