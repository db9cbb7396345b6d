//! Cross-backend conformance: every operation must return semantically
//! identical results on all three backends, pinned against the
//! independent oracle.
//!
//! This is the "transformation to different actual database management
//! systems" check: the HyperModel is one conceptual schema, and a correct
//! port answers every operation identically regardless of physical
//! design. Results are compared via `uniqueId`s because `Oid`s are
//! backend-specific by design.

use disk_backend::DiskStore;
use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::Oid;
use hypermodel::oracle::Oracle;
use hypermodel::store::HyperStore;
use mem_backend::MemStore;
use proptest::prelude::*;
use rel_backend::RelStore;
use shard::{Placement, ReplicaGroup, ShardedStore};
use std::path::PathBuf;

struct Loaded {
    store: Box<dyn HyperStore>,
    oids: Vec<Oid>,
    path: Option<PathBuf>,
}

fn db_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hm-xback-{}-{tag}.db", std::process::id()));
    let _ = std::fs::remove_file(&p);
    let mut w = p.clone().into_os_string();
    w.push(".wal");
    let _ = std::fs::remove_file(PathBuf::from(w));
    p
}

fn cleanup(l: Loaded) {
    drop(l.store);
    if let Some(p) = l.path {
        let _ = std::fs::remove_file(&p);
        let mut w = p.into_os_string();
        w.push(".wal");
        let _ = std::fs::remove_file(PathBuf::from(w));
    }
}

fn load_all(db: &TestDatabase) -> Vec<Loaded> {
    let mut out = Vec::new();
    {
        let mut s = MemStore::new();
        let r = load_database(&mut s, db).unwrap();
        out.push(Loaded {
            store: Box::new(s),
            oids: r.oids,
            path: None,
        });
    }
    {
        let p = db_path("disk");
        let mut s = DiskStore::create(&p, 2048).unwrap();
        let r = load_database(&mut s, db).unwrap();
        out.push(Loaded {
            store: Box::new(s),
            oids: r.oids,
            path: Some(p),
        });
    }
    {
        let p = db_path("rel");
        let mut s = RelStore::create(&p, 2048).unwrap();
        let r = load_database(&mut s, db).unwrap();
        out.push(Loaded {
            store: Box::new(s),
            oids: r.oids,
            path: Some(p),
        });
    }
    // Sharded deployments over mem shards must be indistinguishable from
    // a single store, under both placement policies.
    for placement in [Placement::OidHash, Placement::affinity()] {
        let shards: Vec<MemStore> = (0..3).map(|_| MemStore::new()).collect();
        let mut s = ShardedStore::new(shards, placement, "sharded-mem");
        let r = load_database(&mut s, db).unwrap();
        out.push(Loaded {
            store: Box::new(s),
            oids: r.oids,
            path: None,
        });
    }
    // A replica group is a store in its own right: three mirrors, no
    // sharding, every operation forwarded as one read or one write.
    {
        let mut s = ReplicaGroup::new((0..3).map(|_| MemStore::new()).collect());
        let r = load_database(&mut s, db).unwrap();
        out.push(Loaded {
            store: Box::new(s),
            oids: r.oids,
            path: None,
        });
    }
    out
}

fn uid_of(l: &mut Loaded, oid: Oid) -> u32 {
    (l.store.unique_id_of(oid).unwrap() - 1) as u32
}

fn uids(l: &mut Loaded, oids: &[Oid]) -> Vec<u32> {
    oids.iter()
        .map(|&o| (l.store.unique_id_of(o).unwrap() - 1) as u32)
        .collect()
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

#[test]
fn every_operation_agrees_across_backends() {
    let db = TestDatabase::generate(&GenConfig::level(3));
    let oracle = Oracle::new(&db);
    let mut backends = load_all(&db);
    let n = db.len() as u32;

    for l in &mut backends {
        let name = l.store.backend_name();

        // O1/O2: name lookups for every uid.
        for uid in 1..=n as u64 {
            let oid = l.store.lookup_unique(uid).unwrap();
            assert_eq!(
                l.store.hundred_of(oid).unwrap(),
                oracle.hundred(uid as u32 - 1),
                "{name}: hundred of uid {uid}"
            );
        }

        // O3/O4: range lookups at the paper's selectivities.
        for (lo, hi) in [(1u32, 10), (42, 51), (91, 100)] {
            let got = l.store.range_hundred(lo, hi).unwrap();
            assert_eq!(
                sorted(uids(l, &got)),
                oracle.range_hundred(lo, hi),
                "{name}: O3"
            );
        }
        for (lo, hi) in [(1u32, 10_000), (500_000, 509_999)] {
            let got = l.store.range_million(lo, hi).unwrap();
            assert_eq!(
                sorted(uids(l, &got)),
                oracle.range_million(lo, hi),
                "{name}: O4"
            );
        }

        // O5-O8 on every node.
        for idx in 0..n {
            let oid = l.oids[idx as usize];
            let kids = l.store.children(oid).unwrap();
            assert_eq!(
                uids(l, &kids),
                oracle.children(idx),
                "{name}: children of {idx}"
            );
            let parent = l.store.parent(oid).unwrap().map(|p| uid_of(l, p));
            assert_eq!(parent, oracle.parent(idx), "{name}: parent of {idx}");
            let parts = l.store.parts(oid).unwrap();
            assert_eq!(uids(l, &parts), oracle.parts(idx), "{name}: parts of {idx}");
            let owners = l.store.part_of(oid).unwrap();
            assert_eq!(
                sorted(uids(l, &owners)),
                oracle.part_of(idx),
                "{name}: partOf {idx}"
            );
            let rt = l.store.refs_to(oid).unwrap();
            let rt_u: Vec<(u32, u8, u8)> = rt
                .iter()
                .map(|e| (uid_of(l, e.target), e.offset_from, e.offset_to))
                .collect();
            assert_eq!(rt_u, oracle.ref_to(idx), "{name}: refsTo {idx}");
            let rf = l.store.refs_from(oid).unwrap();
            let mut rf_u: Vec<(u32, u8, u8)> = rf
                .iter()
                .map(|e| (uid_of(l, e.target), e.offset_from, e.offset_to))
                .collect();
            rf_u.sort_unstable();
            assert_eq!(rf_u, oracle.ref_from(idx), "{name}: refsFrom {idx}");
        }

        // O9.
        assert_eq!(
            l.store.seq_scan_ten().unwrap(),
            oracle.seq_scan_count(),
            "{name}: O9"
        );

        // O10-O15, O18 from every closure-start node.
        let start_level = oracle.closure_start_level();
        for idx in db.level_indices(start_level) {
            let start = l.oids[idx as usize];
            let c = l.store.closure_1n(start).unwrap();
            assert_eq!(
                uids(l, &c),
                oracle.closure_1n(idx),
                "{name}: O10 from {idx}"
            );
            let (sum, count) = l.store.closure_1n_att_sum(start).unwrap();
            assert_eq!((sum, count), oracle.closure_1n_att_sum(idx), "{name}: O11");
            let c = l.store.closure_1n_pred(start, 250_000, 750_000).unwrap();
            assert_eq!(
                uids(l, &c),
                oracle.closure_1n_pred(idx, 250_000, 750_000),
                "{name}: O13"
            );
            let c = l.store.closure_mn(start).unwrap();
            assert_eq!(uids(l, &c), oracle.closure_mn(idx), "{name}: O14");
            let c = l.store.closure_mnatt(start, 25).unwrap();
            assert_eq!(uids(l, &c), oracle.closure_mnatt(idx, 25), "{name}: O15");
            let pairs = l.store.closure_mnatt_linksum(start, 25).unwrap();
            let pairs_u: Vec<(u32, u64)> = pairs.iter().map(|&(o, d)| (uid_of(l, o), d)).collect();
            assert_eq!(
                pairs_u,
                oracle.closure_mnatt_linksum(idx, 25),
                "{name}: O18"
            );
        }

        // O16/O17 round-trip on one text and one form node.
        let ti = db.text_indices()[0];
        let text_oid = l.oids[ti as usize];
        let before = l.store.text_of(text_oid).unwrap();
        assert_eq!(before, oracle.text(ti), "{name}: initial text");
        l.store
            .text_node_edit(text_oid, "version1", "version-2")
            .unwrap();
        l.store.commit().unwrap();
        l.store
            .text_node_edit(text_oid, "version-2", "version1")
            .unwrap();
        l.store.commit().unwrap();
        assert_eq!(
            l.store.text_of(text_oid).unwrap(),
            before,
            "{name}: O16 round trip"
        );

        let fi = db.form_indices()[0];
        let form_oid = l.oids[fi as usize];
        l.store.form_node_edit(form_oid, 25, 25, 50, 50).unwrap();
        l.store.form_node_edit(form_oid, 25, 25, 50, 50).unwrap();
        l.store.commit().unwrap();
        assert!(
            l.store.form_of(form_oid).unwrap().is_all_white(),
            "{name}: O17 round trip"
        );

        // Reference offsets are whole bytes (the generator only draws
        // 0..=9, so the loaded edges never show this).
        let (a, b) = (l.oids[1], l.oids[2]);
        l.store.add_ref(a, b, 255, 16).unwrap();
        l.store.commit().unwrap();
        let last = *l.store.refs_to(a).unwrap().last().unwrap();
        assert_eq!(
            (uid_of(l, last.target), last.offset_from, last.offset_to),
            (2, 255, 16),
            "{name}: refsTo with wide offsets"
        );
        let back = l.store.refs_from(b).unwrap();
        let back: Vec<_> = back
            .iter()
            .map(|e| (uid_of(l, e.target), e.offset_from, e.offset_to))
            .collect();
        assert!(
            back.contains(&(1, 255, 16)),
            "{name}: refsFrom with wide offsets, got {back:?}"
        );
    }

    for l in backends {
        cleanup(l);
    }
}

#[test]
fn update_then_requery_agrees_across_backends() {
    // Apply the same closure1NAttSet to all backends, then compare the
    // resulting range-lookup answers pairwise (not against the oracle —
    // the database has legitimately changed).
    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut backends = load_all(&db);
    let start_idx = db.level_indices(1).start;

    let mut answers: Vec<Vec<u32>> = Vec::new();
    for l in &mut backends {
        let start = l.oids[start_idx as usize];
        l.store.closure_1n_att_set(start).unwrap();
        l.store.commit().unwrap();
        let got = l.store.range_hundred(0, 99).unwrap();
        answers.push(sorted(uids(l, &got)));
    }
    for (i, l) in backends.iter().enumerate().skip(1) {
        assert_eq!(
            answers[0],
            answers[i],
            "mem vs {} after update",
            l.store.backend_name()
        );
    }

    for l in backends {
        cleanup(l);
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
    let oracle = Oracle::new(&db);
    let mut backends = load_all(&db);
    for l in &mut backends {
        let name = l.store.backend_name();
        l.store.commit().unwrap();
        l.store.cold_restart().unwrap();
        for idx in 0..db.len() as u32 {
            let oid = l.oids[idx as usize];
            assert_eq!(
                l.store.hundred_of(oid).unwrap(),
                oracle.hundred(idx),
                "{name}"
            );
        }
        assert_eq!(l.store.seq_scan_ten().unwrap(), db.len() as u64, "{name}");
    }
    for l in backends {
        cleanup(l);
    }
}
