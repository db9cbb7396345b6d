//! Sharded-store conformance against the oracle, for in-process shards
//! and for the remote composition (N servers behind the router).

use std::time::Duration;

use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::{Oid, RefEdge};
use hypermodel::oracle::Oracle;
use hypermodel::store::{BatchWrite, HyperStore};
use hypermodel::text::{VERSION_1, VERSION_2};
use hypermodel::verify::verify_store;
use mem_backend::MemStore;
use server::{serve, ChannelTransport, RemoteStore};
use shard::{Placement, ShardedStore};

fn sharded_mem(n: usize, placement: Placement) -> ShardedStore<MemStore> {
    let shards = (0..n).map(|_| MemStore::new()).collect();
    ShardedStore::new(shards, placement, "sharded-mem")
}

#[test]
fn sharded_mem_matches_oracle_under_both_placements() {
    let db = TestDatabase::generate(&GenConfig::level(3));
    for placement in [Placement::OidHash, Placement::affinity()] {
        for n in [1usize, 3] {
            let mut s = sharded_mem(n, placement);
            let r = load_database(&mut s, &db).unwrap();
            let report = verify_store(&mut s, &db, &r.oids).unwrap();
            assert!(report.is_ok(), "{report}");
        }
    }
}

#[test]
fn att_set_applies_once_per_node_and_restores_on_second_pass() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let oracle = Oracle::new(&db);
    let mut s = sharded_mem(3, Placement::OidHash);
    let r = load_database(&mut s, &db).unwrap();
    let root = r.oids[0];

    let before: Vec<u32> = (0..db.len() as u32)
        .map(|i| s.hundred_of(r.oids[i as usize]).unwrap())
        .collect();
    let touched = s.closure_1n_att_set(root).unwrap();
    assert_eq!(touched, oracle.closure_1n(0).len(), "O12 node count");
    let after_one: Vec<u32> = (0..db.len() as u32)
        .map(|i| s.hundred_of(r.oids[i as usize]).unwrap())
        .collect();
    assert_ne!(before, after_one, "O12 must change attribute values");
    s.closure_1n_att_set(root).unwrap();
    let after_two: Vec<u32> = (0..db.len() as u32)
        .map(|i| s.hundred_of(r.oids[i as usize]).unwrap())
        .collect();
    assert_eq!(before, after_two, "O12 twice must restore");
}

/// A batch may name nodes it creates itself. The sharded store then sends
/// it in rounds, and reads back exactly as one store that applied the
/// writes in order.
#[test]
fn a_batch_linking_the_nodes_it_creates_reads_back_as_on_one_store() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let fresh = |unique_id: u64| {
        let mut value = db.nodes[3].value.clone();
        value.attrs.unique_id = unique_id;
        value
    };
    // Both stores number nodes 1, 2, ... in creation order.
    let (x, y) = (Oid(db.len() as u64 + 1), Oid(db.len() as u64 + 2));
    let answers = |store: &mut dyn HyperStore| {
        let root = load_database(store, &db).unwrap().oids[0];
        let edge = RefEdge {
            target: root,
            offset_from: 1,
            offset_to: 7,
        };
        let created = store.write_batch(&[
            BatchWrite::Create {
                value: fresh(901),
                near: Some(root),
            },
            BatchWrite::Create {
                value: fresh(902),
                near: Some(x),
            },
            BatchWrite::Child(x, y),
            BatchWrite::Part(root, y),
            BatchWrite::Ref(y, edge),
            BatchWrite::SetHundred(y, 42),
            BatchWrite::Extra(fresh(903)),
        ]);
        let mut owners = store.part_of(y).unwrap();
        owners.sort();
        format!(
            "{created:?} {:?} {:?} {owners:?} {:?} {:?} {:?} {:?}",
            store.children(x),
            store.parent(y),
            store.refs_to(y),
            store.hundred_of(y),
            store.lookup_unique(902),
            store.seq_scan_ten(),
        )
    };
    let single = answers(&mut MemStore::new());
    assert!(
        single.starts_with(&format!("Ok([{x:?}, {y:?}, ")),
        "{single}"
    );
    for placement in [Placement::OidHash, Placement::affinity()] {
        assert_eq!(
            answers(&mut sharded_mem(3, placement)),
            single,
            "{placement:?}"
        );
    }
}

#[test]
fn balance_counters_account_for_every_structure_node() {
    let db = TestDatabase::generate(&GenConfig::level(3));
    let mut s = sharded_mem(4, Placement::OidHash);
    load_database(&mut s, &db).unwrap();
    s.seq_scan_ten().unwrap();

    let balance = s.shard_balance().expect("sharded store reports balance");
    assert_eq!(balance.len(), 4);
    let total_nodes: u64 = balance.iter().map(|b| b.nodes).sum();
    assert_eq!(
        total_nodes,
        db.len() as u64,
        "every structure node placed once"
    );
    for b in &balance {
        assert!(b.requests > 0, "shard {} received no requests", b.shard);
    }
}

#[test]
fn per_shard_scans_partition_the_database() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    for placement in [Placement::OidHash, Placement::affinity()] {
        let mut s = sharded_mem(3, placement);
        load_database(&mut s, &db).unwrap();
        let per = s.per_shard_scan().unwrap();
        // Ghosts stay out of scans, so the shard-local scans partition the
        // structure: their sum is exactly the full logical scan.
        assert_eq!(per.iter().sum::<u64>(), db.len() as u64, "{placement:?}");
    }
}

/// The tentpole claim, measured where it is hardware-independent: the
/// level-batched frontier exchange issues at most one batched request
/// per involved shard per BFS level, so cross-shard round trips scale
/// with tree depth, not node count. A per-node protocol would pay one
/// round trip per visited node.
#[test]
fn cross_shard_closure_round_trips_scale_with_depth_not_nodes() {
    let db = TestDatabase::generate(&GenConfig::level(3));
    let mut remotes = Vec::new();
    let mut servers = Vec::new();
    for _ in 0..2 {
        let (client_end, mut server_end) = ChannelTransport::pair(Duration::ZERO);
        servers.push(std::thread::spawn(move || {
            let mut store = MemStore::new();
            serve(&mut store, &mut server_end).unwrap();
        }));
        remotes.push(RemoteStore::new(Box::new(client_end)));
    }
    // Hash placement is the adversarial case: nearly every frontier
    // level straddles both shards.
    let mut s = ShardedStore::new(remotes, Placement::OidHash, "sharded-remote");
    let r = load_database(&mut s, &db).unwrap();
    let root = r.oids[0];

    for shard in 0..s.shard_count() {
        s.with_shard(shard, |sh| sh.reset_round_trips()).unwrap();
    }
    let closure = s.closure_1n(root).unwrap();
    let trips: u64 = (0..s.shard_count())
        .map(|shard| s.with_shard(shard, |sh| sh.round_trips()).unwrap())
        .sum();

    let nodes = closure.len() as u64;
    assert_eq!(nodes, db.len() as u64, "root closure covers the structure");
    // Level-3 tree: 4 BFS levels, 2 shards -> at most 8 batched requests
    // (plus slack for the root fetch); a per-node protocol would need
    // `nodes` of them.
    assert!(
        trips <= 10,
        "expected depth-bounded round trips, got {trips}"
    );
    assert!(
        trips * 10 <= nodes,
        "round trips ({trips}) should be far below node count ({nodes})"
    );

    // O16 / O17 are conceptual operations too: each edit is one frame to
    // the shard that owns the node and nothing to the others.
    let text = r.oids[db.text_indices()[0] as usize];
    let form = r.oids[db.form_indices()[0] as usize];
    type Edit<'a> = &'a dyn Fn(&mut ShardedStore<RemoteStore>);
    let edits: [(Oid, Edit); 2] = [
        (text, &|s| {
            s.text_node_edit(text, VERSION_1, VERSION_2).unwrap();
        }),
        (form, &|s| s.form_node_edit(form, 25, 25, 50, 50).unwrap()),
    ];
    for (oid, edit) in edits {
        let owner = s.owner_of(oid).unwrap();
        for shard in 0..s.shard_count() {
            s.with_shard(shard, |sh| sh.reset_round_trips()).unwrap();
        }
        edit(&mut s);
        for shard in 0..s.shard_count() {
            assert_eq!(
                s.with_shard(shard, |sh| sh.round_trips()).unwrap(),
                u64::from(shard == owner),
                "edit of {oid:?} (owner {owner}), frames to shard {shard}"
            );
        }
    }

    drop(s);
    for h in servers {
        h.join().unwrap();
    }
}

#[test]
fn remote_sharded_deployment_matches_oracle() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut remotes = Vec::new();
    let mut servers = Vec::new();
    for _ in 0..2 {
        let (client_end, mut server_end) = ChannelTransport::pair(Duration::ZERO);
        servers.push(std::thread::spawn(move || {
            let mut store = MemStore::new();
            serve(&mut store, &mut server_end).unwrap();
        }));
        remotes.push(RemoteStore::new(Box::new(client_end)));
    }
    let mut s = ShardedStore::new(remotes, Placement::affinity(), "sharded-remote");
    let r = load_database(&mut s, &db).unwrap();
    let report = verify_store(&mut s, &db, &r.oids).unwrap();
    assert!(report.is_ok(), "{report}");
    drop(s);
    for h in servers {
        h.join().unwrap();
    }
}
