//! The loader sends each creation phase as batched writes. That must
//! build the same database as one scalar call per node and edge — the
//! same files on `disk` and `rel`, the same placement on sharded stores —
//! while a sharded load over TCP crosses the wire about a hundred times
//! at level 4 instead of thousands.

use std::path::Path;
use std::sync::Mutex;

use disk_backend::DiskStore;
use harness::backend::DbFiles;
use hypermodel::config::GenConfig;
use hypermodel::error::Result;
use hypermodel::generate::{TestDatabase, NO_PARENT};
use hypermodel::load::{load_database, LOAD_BATCH, LOAD_BATCH_BYTES};
use hypermodel::model::{Content, Oid};
use hypermodel::store::HyperStore;
use hypermodel::verify::verify_store;
use mem_backend::MemStore;
use rel_backend::RelStore;
use shard::{Placement, ShardedStore};

/// Tests that open wire clients take turns, so the process-wide
/// `client.round_trips` counter moves only for the test reading it.
static WIRE: Mutex<()> = Mutex::new(());

/// The loader as it was before batching: the same five phases and
/// commits, one scalar call per node and per edge.
fn scalar_load(store: &mut dyn HyperStore, db: &TestDatabase) -> Result<Vec<Oid>> {
    let mut oids: Vec<Oid> = Vec::with_capacity(db.len());
    let leaf_start = db.leaf_indices().start as usize;
    for phase in [0..leaf_start, leaf_start..db.len()] {
        for i in phase {
            let near = match db.parent[i] {
                NO_PARENT => None,
                p => Some(oids[p as usize]),
            };
            oids.push(store.create_node_clustered(&db.nodes[i].value, near)?);
        }
        store.commit()?;
    }
    for (i, kids) in db.children.iter().enumerate() {
        for &k in kids {
            store.add_child(oids[i], oids[k as usize])?;
        }
    }
    store.commit()?;
    for (i, parts) in db.parts.iter().enumerate() {
        for &p in parts {
            store.add_part(oids[i], oids[p as usize])?;
        }
    }
    store.commit()?;
    for (i, &(to, offset_from, offset_to)) in db.refs.iter().enumerate() {
        store.add_ref(oids[i], oids[to as usize], offset_from, offset_to)?;
    }
    store.commit()?;
    Ok(oids)
}

fn level_4() -> TestDatabase {
    TestDatabase::generate(&GenConfig::level(4))
}

/// The database file and its log, as bytes.
fn files(db_path: &Path) -> (Vec<u8>, Vec<u8>) {
    let wal = storage::engine::wal_path_for(db_path);
    (std::fs::read(db_path).unwrap(), std::fs::read(wal).unwrap())
}

#[test]
fn disk_and_rel_files_are_byte_identical_to_a_scalar_load() {
    let db = level_4();
    let dir = DbFiles::dir(&std::env::temp_dir(), "batched-load-files").unwrap();
    let create = |kind: &str, path: &Path| -> Box<dyn HyperStore> {
        match kind {
            "disk" => Box::new(DiskStore::create(path, 1024).unwrap()),
            _ => Box::new(RelStore::create(path, 1024).unwrap()),
        }
    };
    for kind in ["disk", "rel"] {
        let batched = dir.path().join(format!("{kind}-batched.db"));
        let scalar = dir.path().join(format!("{kind}-scalar.db"));
        let mut store = create(kind, &batched);
        let oids = load_database(store.as_mut(), &db).unwrap().oids;
        drop(store);
        let mut store = create(kind, &scalar);
        assert_eq!(scalar_load(store.as_mut(), &db).unwrap(), oids, "{kind}");
        drop(store);
        let (b, s) = (files(&batched), files(&scalar));
        assert!(b.0 == s.0, "{kind}: database files differ");
        assert!(b.1 == s.1, "{kind}: logs differ");
    }
}

/// `sharded-mem:2` or `sharded-tcp:2` under `placement`, loaded by
/// `load`: its oid map and per-shard node counts, after an oracle sweep.
fn sharded(
    db: &TestDatabase,
    tcp: bool,
    placement: Placement,
    load: fn(&mut dyn HyperStore, &TestDatabase) -> Result<Vec<Oid>>,
) -> (Vec<Oid>, Vec<u64>) {
    let check = |store: &mut dyn HyperStore| {
        let oids = load(store, db).unwrap();
        let report = verify_store(store, db, &oids).unwrap();
        assert!(report.is_ok(), "{report}");
        let nodes = store
            .shard_balance()
            .unwrap()
            .iter()
            .map(|l| l.nodes)
            .collect();
        (oids, nodes)
    };
    if !tcp {
        let shards = vec![MemStore::new(), MemStore::new()];
        return check(&mut ShardedStore::new(shards, placement, "sharded-mem"));
    }
    let server = server::serve_multi(vec![MemStore::new(), MemStore::new()]).unwrap();
    let mut store = shard::connect_sharded(&server.addr_strings(), placement).unwrap();
    let loaded = check(&mut store);
    drop(store);
    server.stop().unwrap();
    loaded
}

#[test]
fn sharded_loads_place_every_node_as_a_scalar_load_does() {
    let db = level_4();
    let batched = |s: &mut dyn HyperStore, db: &TestDatabase| Ok(load_database(s, db)?.oids);
    let _wire = WIRE.lock().unwrap_or_else(|e| e.into_inner());
    for tcp in [false, true] {
        for placement in [Placement::OidHash, Placement::affinity()] {
            let at = format!("tcp={tcp} {placement:?}");
            let (oids, nodes) = sharded(&db, tcp, placement, batched);
            let (scalar_oids, scalar_nodes) = sharded(&db, tcp, placement, scalar_load);
            assert_eq!(oids, scalar_oids, "{at}");
            assert_eq!(nodes, scalar_nodes, "{at}");
            assert_eq!(nodes.iter().sum::<u64>(), db.len() as u64, "{at}");
        }
    }
}

/// Frames a `sharded-tcp` load of `db` over `shards` shards may take.
/// Each batch costs at most one frame per shard, and an edge batch one
/// more per shard for the ghosts of its cross-shard edges; each of the
/// five commits is one frame per shard. Creates are cut at every level
/// boundary and by the content budget, where two batches in a row carry
/// more than `LOAD_BATCH_BYTES` together.
fn frame_bound(db: &TestDatabase, shards: usize) -> u64 {
    let batches = |writes: usize| writes.div_ceil(LOAD_BATCH);
    let levels = 0..=db.config.leaf_level;
    let content: usize = db
        .nodes
        .iter()
        .map(|n| match &n.value.content {
            Content::Text(text) => text.len(),
            Content::Form(bitmap) => bitmap.byte_size(),
            _ => 0,
        })
        .sum();
    let creates = levels
        .map(|l| batches(db.level_indices(l).len()))
        .sum::<usize>()
        + (2 * content).div_ceil(LOAD_BATCH_BYTES);
    let edges = batches(links(&db.children)) + batches(links(&db.parts)) + batches(db.refs.len());
    (shards * (creates + 2 * edges + 5)) as u64
}

fn links(lists: &[Vec<u32>]) -> usize {
    lists.iter().map(Vec::len).sum()
}

#[test]
fn a_level_4_sharded_tcp_load_takes_about_a_hundred_frames() {
    let db = level_4();
    let bound = frame_bound(&db, 2);
    let writes = db.len() + links(&db.children) + links(&db.parts) + db.refs.len();
    assert!(
        bound * 10 < writes as u64,
        "{bound} frames for {writes} writes"
    );
    let _wire = WIRE.lock().unwrap_or_else(|e| e.into_inner());
    let round_trips = obs::registry().counter("client.round_trips");
    for placement in [Placement::OidHash, Placement::affinity()] {
        let server = server::serve_multi(vec![MemStore::new(), MemStore::new()]).unwrap();
        let mut store = shard::connect_sharded(&server.addr_strings(), placement).unwrap();
        let before = round_trips.get();
        load_database(&mut store, &db).unwrap();
        let frames = round_trips.get() - before;
        // One frame per node and edge, as before batching, would be
        // thousands (4 486 under affinity, 5 042 under hash).
        assert!(frames <= bound, "{placement:?}: {frames} frames > {bound}");
        drop(store);
        server.stop().unwrap();
    }
}
