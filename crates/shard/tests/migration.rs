//! Online subtree migration: oracle conformance across moves (away and
//! back home), replicated and aborted migrations, and scan-extent
//! exactness at every step, also after a retire that fails.

use hypermodel::config::GenConfig;
use hypermodel::error::{HmError, Result};
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::Oid;
use hypermodel::oracle::Oracle;
use hypermodel::protocol::{Request, Response};
use hypermodel::rng::Rng;
use hypermodel::store::HyperStore;
use hypermodel::verify::verify_store;
use mem_backend::MemStore;
use server::serve_multi;
use shard::{connect_sharded, connect_sharded_replicated, Placement, ReplicaGroup, ShardedStore};

fn sharded_mem(n: usize, placement: Placement) -> ShardedStore<MemStore> {
    let shards = (0..n).map(|_| MemStore::new()).collect();
    ShardedStore::new(shards, placement, "sharded-mem")
}

fn replicated_mem(
    n: usize,
    k: usize,
    placement: Placement,
) -> ShardedStore<ReplicaGroup<MemStore>> {
    let members = (0..n * k).map(|_| MemStore::new()).collect();
    ShardedStore::new_replicated(members, k, placement, "sharded-mem")
}

fn uids(store: &mut dyn HyperStore, oids: &[Oid]) -> Vec<u32> {
    oids.iter()
        .map(|&o| (store.unique_id_of(o).unwrap() - 1) as u32)
        .collect()
}

/// Full-surface conformance sweep: scans, ranges, point navigation and
/// every closure — the state a migration must leave untouched.
fn assert_matches_oracle<S: HyperStore + Send + 'static>(
    store: &mut ShardedStore<S>,
    oids: &[Oid],
    db: &TestDatabase,
) {
    let oracle = Oracle::new(db);
    assert_eq!(store.seq_scan_ten().unwrap(), oracle.seq_scan_count(), "O9");
    for (lo, hi) in [(1u32, 10), (42, 51)] {
        let got = store.range_hundred(lo, hi).unwrap();
        let mut got = uids(store, &got);
        got.sort_unstable();
        assert_eq!(got, oracle.range_hundred(lo, hi), "O3");
    }
    for idx in 0..db.len() as u32 {
        let oid = oids[idx as usize];
        assert_eq!(
            store.unique_id_of(oid).unwrap(),
            idx as u64 + 1,
            "uid of {idx}"
        );
        assert_eq!(
            store.lookup_unique(idx as u64 + 1).unwrap(),
            oid,
            "lookup {idx}"
        );
        let kids = store.children(oid).unwrap();
        assert_eq!(uids(store, &kids), oracle.children(idx), "children {idx}");
        let parent = store.parent(oid).unwrap();
        assert_eq!(
            parent.map(|p| (store.unique_id_of(p).unwrap() - 1) as u32),
            oracle.parent(idx),
            "parent {idx}"
        );
    }
    let start_level = oracle.closure_start_level();
    for idx in db.level_indices(start_level) {
        let start = oids[idx as usize];
        let c = store.closure_1n(start).unwrap();
        assert_eq!(uids(store, &c), oracle.closure_1n(idx), "O10 from {idx}");
        let c = store.closure_mn(start).unwrap();
        assert_eq!(uids(store, &c), oracle.closure_mn(idx), "O14 from {idx}");
        let c = store.closure_mnatt(start, 25).unwrap();
        assert_eq!(uids(store, &c), oracle.closure_mnatt(idx, 25), "O15");
    }
    // Per-shard scans still partition the structure: no node reports
    // from two placements, none vanished.
    let per = store.per_shard_scan().unwrap();
    assert_eq!(per.iter().sum::<u64>(), db.len() as u64, "scan partition");
}

/// A closure-start subtree root and a shard it does not live on.
fn pick_subtree<S: HyperStore + Send + 'static>(
    store: &ShardedStore<S>,
    oids: &[Oid],
    db: &TestDatabase,
) -> (Oid, usize) {
    let oracle = Oracle::new(db);
    let idx = db.level_indices(oracle.closure_start_level()).start;
    let root = oids[idx as usize];
    let owner = store.owner_of(root).unwrap();
    (root, (owner + 1) % store.shard_count())
}

/// O10–O15 and O18 from `idx` answer what the oracle answers. O12 runs
/// twice, which restores every `hundred` it flipped.
fn assert_closures_exact<S: HyperStore + Send + 'static>(
    store: &mut ShardedStore<S>,
    oids: &[Oid],
    oracle: &Oracle,
    idx: u32,
) {
    let start = oids[idx as usize];
    let c = store.closure_1n(start).unwrap();
    let want = oracle.closure_1n(idx);
    assert_eq!(uids(store, &c), want, "O10 from {idx}");
    let sum = store.closure_1n_att_sum(start).unwrap();
    assert_eq!(sum, oracle.closure_1n_att_sum(idx), "O11 from {idx}");
    for _ in 0..2 {
        assert_eq!(store.closure_1n_att_set(start).unwrap(), want.len(), "O12");
    }
    let sum = store.closure_1n_att_sum(start).unwrap();
    assert_eq!(sum, oracle.closure_1n_att_sum(idx), "O12 twice from {idx}");
    // The first range holds a ghost stand-in's `million` (1), the second
    // does not: a stand-in is pruned on its shard, or walked through.
    for (lo, hi) in [(1, 300_000), (500_000, 999_999)] {
        let c = store.closure_1n_pred(start, lo, hi).unwrap();
        let want = oracle.closure_1n_pred(idx, lo, hi);
        assert_eq!(uids(store, &c), want, "O13 {lo}..={hi} from {idx}");
    }
    let c = store.closure_mn(start).unwrap();
    assert_eq!(uids(store, &c), oracle.closure_mn(idx), "O14 from {idx}");
    for depth in [3, 25] {
        let c = store.closure_mnatt(start, depth).unwrap();
        let want = oracle.closure_mnatt(idx, depth);
        assert_eq!(uids(store, &c), want, "O15/{depth} from {idx}");
        let pairs = store.closure_mnatt_linksum(start, depth).unwrap();
        let (nodes, dists): (Vec<Oid>, Vec<u64>) = pairs.into_iter().unzip();
        let got: Vec<(u32, u64)> = uids(store, &nodes).into_iter().zip(dists).collect();
        let want = oracle.closure_mnatt_linksum(idx, depth);
        assert_eq!(got, want, "O18/{depth} from {idx}");
    }
}

/// A closure walks a moved subtree's retired records and the ghosts the
/// move left behind: after moving a depth-2 node and then a child of the
/// root, every closure from the root, from the moved nodes and from 20
/// drawn level-3 nodes is the oracle's.
fn closures_stay_exact_across_migrations<S: HyperStore + Send + 'static>(
    mut store: ShardedStore<S>,
) {
    let db = TestDatabase::generate(&GenConfig::level(4));
    let oracle = Oracle::new(&db);
    let oids = load_database(&mut store, &db).unwrap().oids;
    let level3 = db.level_indices(oracle.closure_start_level());
    let mut rng = Rng::new(37);
    let drawn: Vec<u32> = (0..20)
        .map(|_| rng.range_u32(level3.start, level3.end - 1))
        .collect();
    let moves = [level3.start + 7, oracle.children(0)[1]];
    for idx in moves {
        let node = oids[idx as usize];
        let dst = (store.owner_of(node).unwrap() + 1) % store.shard_count();
        assert!(store.migrate_subtree(node, dst).unwrap() > 0, "move {idx}");
        for start in [0, idx]
            .into_iter()
            .chain(moves)
            .chain(drawn.iter().copied())
        {
            assert_closures_exact(&mut store, &oids, &oracle, start);
        }
    }
}

#[test]
fn closures_stay_exact_across_migrations_in_process() {
    for placement in [Placement::OidHash, Placement::affinity()] {
        closures_stay_exact_across_migrations(sharded_mem(3, placement));
    }
}

#[test]
fn closures_stay_exact_across_migrations_of_replicated_tcp_shards() {
    let ms = serve_multi((0..4).map(|_| MemStore::new()).collect::<Vec<_>>()).unwrap();
    let store = connect_sharded_replicated(&ms.addr_strings(), 2, Placement::affinity()).unwrap();
    closures_stay_exact_across_migrations(store);
    assert_eq!(ms.stop().unwrap().errors, 0);
}

#[test]
fn migrated_subtree_still_matches_the_oracle() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    for placement in [Placement::OidHash, Placement::affinity()] {
        let mut s = sharded_mem(3, placement);
        let r = load_database(&mut s, &db).unwrap();
        let (root, dst) = pick_subtree(&s, &r.oids, &db);

        let moved = s.migrate_subtree(root, dst).unwrap();
        assert!(moved > 0, "{placement:?}: nothing moved");
        assert_eq!(s.owner_of(root), Some(dst), "{placement:?}: root not moved");
        assert_eq!(s.migrations(), 1);
        assert_matches_oracle(&mut s, &r.oids, &db);

        // Balance accounting survives: every structure node still
        // placed exactly once, and the migration is attributed.
        let balance = s.shard_balance().unwrap();
        assert_eq!(
            balance.iter().map(|b| b.nodes).sum::<u64>(),
            db.len() as u64
        );
        assert!(balance.iter().any(|b| b.migrated > 0));
    }
}

#[test]
fn a_subtree_moves_away_and_back_home() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut s = sharded_mem(4, Placement::affinity());
    let r = load_database(&mut s, &db).unwrap();
    let (root, first) = pick_subtree(&s, &r.oids, &db);
    let home = s.owner_of(root).unwrap();

    // Two hops away, then back home (which promotes the retired records
    // rather than minting new ones); the oracle holds after every move.
    for dst in [first, (first + 1) % 4, home] {
        if s.owner_of(root) == Some(dst) {
            continue;
        }
        s.migrate_subtree(root, dst).unwrap();
        assert_eq!(s.owner_of(root), Some(dst));
        assert_matches_oracle(&mut s, &r.oids, &db);
    }
    assert_eq!(s.owner_of(root), Some(home), "round trip ends at home");
}

/// The same round trip on `ShardedStore<RemoteStore>`: three `MemStore`
/// shards behind one `serve_multi` process, every migration step one
/// frame on the wire.
#[test]
fn a_subtree_moves_away_and_back_home_over_the_wire() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let ms = serve_multi((0..3).map(|_| MemStore::new()).collect::<Vec<_>>()).unwrap();
    let mut s = connect_sharded(&ms.addr_strings(), Placement::affinity()).unwrap();
    let r = load_database(&mut s, &db).unwrap();
    let (root, away) = pick_subtree(&s, &r.oids, &db);
    let home = s.owner_of(root).unwrap();

    for dst in [away, home] {
        assert!(s.migrate_subtree(root, dst).unwrap() > 0);
        assert_eq!(s.owner_of(root), Some(dst));
        let sweep = verify_store(&mut s, &db, &r.oids).unwrap();
        assert!(
            sweep.is_ok(),
            "oracle sweep after the move to {dst}: {sweep}"
        );
    }
    assert_eq!(s.migrations(), 2);
    drop(s);
    let stats = ms.stop().unwrap();
    assert_eq!(stats.errors, 0, "no request failed on the wire");
}

#[test]
fn migration_to_the_current_owner_is_a_noop() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut s = sharded_mem(1, Placement::OidHash);
    let r = load_database(&mut s, &db).unwrap();
    assert_eq!(s.migrate_subtree(r.oids[0], 0).unwrap(), 0);
    assert_eq!(s.migrations(), 0);
    assert!(s.migrate_subtree(r.oids[0], 9).is_err(), "bad destination");
}

#[test]
fn replicated_groups_migrate_in_lockstep() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut s = replicated_mem(3, 2, Placement::affinity());
    let r = load_database(&mut s, &db).unwrap();
    let (root, dst) = pick_subtree(&s, &r.oids, &db);

    let moved = s.migrate_subtree(root, dst).unwrap();
    assert!(moved > 0);
    assert_eq!(s.owner_of(root), Some(dst));
    assert_matches_oracle(&mut s, &r.oids, &db);
    // Both mirrors of every group assigned identical locals: a commit
    // (which runs anti-entropy checks) and another full sweep agree.
    s.commit().unwrap();
    assert_matches_oracle(&mut s, &r.oids, &db);
    for shard in 0..s.shard_count() {
        assert!(
            s.with_shard(shard, |g| g.member_health().iter().all(|&h| h))
                .unwrap(),
            "no member was demoted"
        );
    }
}

#[test]
fn touch_counters_track_closure_traffic_and_reset() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut s = sharded_mem(2, Placement::affinity());
    let r = load_database(&mut s, &db).unwrap();
    let oracle = Oracle::new(&db);
    let starts: Vec<Oid> = db
        .level_indices(oracle.closure_start_level())
        .map(|i| r.oids[i as usize])
        .collect();

    for _ in 0..3 {
        s.closure_1n(starts[0]).unwrap();
    }
    s.closure_1n(starts[1]).unwrap();
    let counts = s.touch_counts();
    assert_eq!(counts[0], (starts[0], 3), "hottest first");
    assert!(counts.contains(&(starts[1], 1)));

    // The rebalancer's own closure (inside migrate_subtree) must not
    // count as traffic.
    let dst = (s.owner_of(starts[0]).unwrap() + 1) % 2;
    s.migrate_subtree(starts[0], dst).unwrap();
    assert_eq!(s.touch_counts()[0], (starts[0], 3));

    s.reset_touches();
    assert!(s.touch_counts().is_empty());
}

#[test]
fn a_dead_destination_aborts_presumed_old() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut s = sharded_mem(3, Placement::affinity());
    let r = load_database(&mut s, &db).unwrap();
    let (root, dst) = pick_subtree(&s, &r.oids, &db);
    let home = s.owner_of(root).unwrap();

    s.mark_shard_down(dst);
    assert!(s.migrate_subtree(root, dst).is_err());
    // Presumed old: ownership untouched, nothing half-moved.
    assert_eq!(s.owner_of(root), Some(home));
    assert_eq!(s.migrations(), 0);
    s.revive_shard(dst).unwrap();
    assert_matches_oracle(&mut s, &r.oids, &db);
}

/// How the next `retire_nodes` of a [`FailingRetire`] fails.
#[derive(Debug, Clone, Copy)]
enum RetireFault {
    /// Transiently, before it starts: nothing is retired.
    Transient,
    /// Deterministically, midway through the batch: the `MemStore`
    /// retires the first half and fails at a node it does not have.
    Midway,
}

/// A `MemStore` whose next `retire_nodes` fails as `fault` says.
struct FailingRetire {
    inner: MemStore,
    fault: Option<RetireFault>,
}

impl hypermodel::Service for FailingRetire {
    fn call(&mut self, req: Request) -> Result<Response> {
        match (req, self.fault.take()) {
            (Request::RetireNodes(_), Some(RetireFault::Transient)) => {
                Err(HmError::Timeout("injected retire timeout".into()))
            }
            (Request::RetireNodes(mut oids), Some(RetireFault::Midway)) => {
                oids.insert(oids.len() / 2, Oid(u64::MAX));
                self.inner.call(Request::RetireNodes(oids))
            }
            (req, fault) => {
                self.fault = fault;
                self.inner.call(req)
            }
        }
    }

    fn backend_name(&self) -> &'static str {
        "failing-retire"
    }
}

/// O9 and both range lookups over every node either refuse or count
/// each node once.
fn assert_scans_refuse_or_match(
    store: &mut ShardedStore<FailingRetire>,
    oracle: &Oracle,
    context: &str,
) {
    match store.seq_scan_ten() {
        Ok(n) => assert_eq!(n, oracle.seq_scan_count(), "{context}: O9"),
        Err(e) => assert!(
            matches!(e, HmError::ShardUnavailable { .. }),
            "{context}: O9 failed with {e}"
        ),
    }
    let ranges = [
        (store.range_hundred(0, 99), oracle.range_hundred(0, 99)),
        (
            store.range_million(0, u32::MAX),
            oracle.range_million(0, u32::MAX),
        ),
    ];
    for (got, want) in ranges {
        match got {
            Ok(oids) => assert_eq!(oids.len(), want.len(), "{context}: range"),
            Err(e) => assert!(
                matches!(e, HmError::ShardUnavailable { .. }),
                "{context}: range failed with {e}"
            ),
        }
    }
}

/// A retire that fails after the commit point leaves the moved records
/// active on the source. Until the source is revived, every scan refuses
/// or counts each node once, and the moved nodes answer from the
/// destination. The revival retries the retire, so afterwards O9, which
/// sums each shard's scan extent, counts every node once, and the range
/// lookups, which count a record only where the router places it, are
/// exact.
#[test]
fn a_failed_retire_never_lets_a_scan_count_a_node_twice() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let oracle = Oracle::new(&db);
    for fault in [RetireFault::Transient, RetireFault::Midway] {
        let shards = (0..2)
            .map(|_| FailingRetire {
                inner: MemStore::new(),
                fault: None,
            })
            .collect();
        let mut s = ShardedStore::new(shards, Placement::affinity(), "sharded-mem");
        let r = load_database(&mut s, &db).unwrap();
        let (root, dst) = pick_subtree(&s, &r.oids, &db);
        let src = s.owner_of(root).unwrap();
        let moved = s.closure_1n(root).unwrap();
        s.with_shard(src, |sh| sh.fault = Some(fault)).unwrap();

        let context = format!("{fault:?}");
        assert!(s.migrate_subtree(root, dst).is_err(), "{context}");
        assert!(!s.health()[src], "{context}: the source is marked down");
        assert_scans_refuse_or_match(&mut s, &oracle, &context);
        for &g in &moved {
            assert_eq!(s.owner_of(g), Some(dst), "{context}");
            let idx = s.unique_id_of(g).unwrap() as u32 - 1;
            assert_eq!(s.hundred_of(g).unwrap(), oracle.hundred(idx), "{context}");
        }

        s.revive_shard(src).unwrap();
        let context = format!("{fault:?}, revived");
        for (lo, hi) in [(0, 99), (1, 10), (42, 51)] {
            let got = s.range_hundred(lo, hi).unwrap();
            let mut got = uids(&mut s, &got);
            got.sort_unstable();
            assert_eq!(got, oracle.range_hundred(lo, hi), "{context}: O3");
        }
        let got = s.range_million(0, u32::MAX).unwrap();
        assert_eq!(got.len(), db.len(), "{context}: O4");
        assert_eq!(
            s.seq_scan_ten().unwrap(),
            oracle.seq_scan_count(),
            "{context}: O9"
        );
    }
}
