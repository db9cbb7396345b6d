//! K-way replication: failover reads, in-order writes, automatic repair.
//!
//! The acceptance property for the replicated deployment: with K = 2
//! and a replica killed mid-run, every benchmark operation completes
//! with oracle-correct output and no `ShardUnavailable` surfaces to the
//! client; by the end of the run the killed replica has been resynced
//! from its sibling and serves reads again.

use chaos::{ChaosStore, CrashPoint, CrashSpec, FaultPlan};
use hypermodel::config::GenConfig;
use hypermodel::error::{HmError, Result};
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::protocol::{Class, Request, Response};
use hypermodel::store::HyperStore;
use hypermodel::verify::verify_store;
use mem_backend::MemStore;
use proptest::prelude::*;
use shard::{Placement, ReplicaGroup, ShardedStore};

type Replicated<S> = ShardedStore<ReplicaGroup<S>>;

/// `n` logical shards, each mirrored `k` ways, all in-memory.
fn replicated_mem(n: usize, k: usize, placement: Placement) -> Replicated<MemStore> {
    let members = (0..n * k).map(|_| MemStore::new()).collect();
    ShardedStore::new_replicated(members, k, placement, "sharded-mem")
}

// The tests below number the deployment's members group-major (member
// `m` is mirror `m % K` of shard `m / K`, primary first) and reach each
// one through its shard's group.

fn replication_factor<S: HyperStore + Send + 'static>(s: &Replicated<S>) -> usize {
    s.with_shard(0, |g| g.member_count()).unwrap()
}

fn with_member<S: HyperStore + Send + 'static, R>(
    s: &Replicated<S>,
    m: usize,
    f: impl FnOnce(&mut S) -> R,
) -> R {
    let k = replication_factor(s);
    s.with_shard(m / k, |g| g.with_member(m % k, f))
        .unwrap()
        .unwrap()
}

fn mark_member_down<S: HyperStore + Send + 'static>(s: &Replicated<S>, m: usize) {
    let k = replication_factor(s);
    s.with_shard(m / k, |g| g.mark_member_down(m % k)).unwrap();
}

fn replace_member<S: HyperStore + Send + 'static>(s: &Replicated<S>, m: usize, store: S) -> S {
    let k = replication_factor(s);
    s.with_shard(m / k, |g| g.replace_member(m % k, store))
        .unwrap()
        .unwrap()
}

/// Health of every member, group-major.
fn member_health<S: HyperStore + Send + 'static>(s: &Replicated<S>) -> Vec<bool> {
    (0..s.shard_count())
        .flat_map(|shard| s.with_shard(shard, |g| g.member_health().to_vec()).unwrap())
        .collect()
}

/// A group counter summed over the deployment.
fn total<S: HyperStore + Send + 'static>(
    s: &Replicated<S>,
    counter: impl Fn(&ReplicaGroup<S>) -> u64,
) -> u64 {
    (0..s.shard_count())
        .map(|shard| s.with_shard(shard, |g| counter(g)).unwrap())
        .sum()
}

/// The acceptance test: K = 2, the primary of group 0 dies mid-run.
/// Reads fail over transparently, writes keep landing on the surviving
/// mirror, no error surfaces, and the next commit resyncs the dead
/// member — which then serves oracle-correct reads alone.
#[test]
fn replicated_run_survives_replica_kill_and_repairs_it() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    for placement in [Placement::OidHash, Placement::affinity()] {
        let mut s = replicated_mem(2, 2, placement);
        let r = load_database(&mut s, &db).unwrap();
        let root = r.oids[0];
        s.commit().unwrap();
        assert_eq!(member_health(&s).len(), 4);
        assert_eq!(replication_factor(&s), 2);

        // Healthy sweep first, then kill the primary of group 0 mid-run.
        let report = verify_store(&mut s, &db, &r.oids).unwrap();
        assert!(report.is_ok(), "{report}");
        mark_member_down(&s, 0);

        // Every op still completes: reads fail over to the sibling,
        // writes fan to the healthy members only.
        let report = verify_store(&mut s, &db, &r.oids).unwrap();
        assert!(report.is_ok(), "{report}");
        s.closure_1n_att_set(root).unwrap(); // O12 writes while degraded
        s.closure_1n_att_set(root).unwrap(); // involution: restores values
        assert!(
            total(&s, ReplicaGroup::failover_reads) > 0,
            "reads during the outage must be counted as failovers"
        );
        assert!(!member_health(&s)[0], "member 0 stays demoted until repair");

        // Commit triggers the anti-entropy pass: member 0 is resynced
        // from its sibling and re-admitted.
        s.commit().unwrap();
        assert_eq!(
            member_health(&s),
            &[true; 4],
            "all members healthy after repair"
        );
        assert!(
            total(&s, ReplicaGroup::repairs) >= 1,
            "repair must be counted"
        );

        // Prove the repaired member serves correct reads on its own:
        // take its sibling away so every group-0 read must land on it.
        mark_member_down(&s, 1);
        let report = verify_store(&mut s, &db, &r.oids).unwrap();
        assert!(report.is_ok(), "{report}");
        s.commit().unwrap();
        assert_eq!(member_health(&s), &[true; 4]);

        let summary = s.resilience_summary().unwrap();
        assert!(summary.contains("replicas=2"), "summary: {summary}");
    }
}

/// An acked write is never lost to a repair: a write accepted while one
/// mirror is down must be visible on that mirror after resync, even
/// when it is the only member left to serve the read.
#[test]
fn repair_carries_writes_acked_during_the_outage() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut s = replicated_mem(1, 2, Placement::OidHash);
    let r = load_database(&mut s, &db).unwrap();
    let target = r.oids[3];
    let before = s.hundred_of(target).unwrap();
    let after = (before + 7) % 100;

    mark_member_down(&s, 0);
    s.set_hundred(target, after).unwrap(); // acked by the sibling alone
    assert_eq!(s.hundred_of(target).unwrap(), after);

    s.commit().unwrap(); // repairs member 0 from member 1
    assert_eq!(member_health(&s), &[true, true]);

    mark_member_down(&s, 1); // force the read onto the repaired member
    assert_eq!(
        s.hundred_of(target).unwrap(),
        after,
        "repaired member must have the write acked during its outage"
    );
}

/// A mirror whose `fail_write`-th write (counted from construction)
/// fails transiently without being applied, as a member behind a
/// dropped connection would; every other call forwards to `inner`.
struct FailNth {
    inner: MemStore,
    writes: usize,
    fail_write: Option<usize>,
}

impl hypermodel::Service for FailNth {
    fn call(&mut self, req: Request) -> Result<Response> {
        if req.class() == Class::Write {
            self.writes += 1;
            if self.fail_write == Some(self.writes) {
                let msg = format!("injected failure of write {}", self.writes);
                return Err(HmError::Timeout(msg));
            }
        }
        self.inner.call(req)
    }

    fn backend_name(&self) -> &'static str {
        "fail-nth"
    }
}

/// The two properties replicated writes stake their correctness on, for
/// every (member, write) pair of a K ∈ {2, 3} × 3-write grid in which
/// that member's copy of that write fails transiently:
/// * after each acked write, every healthy member holds every acked
///   write, and no read returns a value from before one of them;
/// * after `commit` (whose repair resyncs the failed member), every
///   member holds every acked write.
#[test]
fn no_acked_write_is_lost_and_no_read_is_stale_when_one_member_write_fails() {
    const WRITES: usize = 3;
    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut scenarios = 0;
    for k in [2usize, 3] {
        for victim in 0..k {
            for failing in 1..=WRITES {
                let members = (0..k)
                    .map(|_| FailNth {
                        inner: MemStore::new(),
                        writes: 0,
                        fail_write: None,
                    })
                    .collect();
                let mut g = ReplicaGroup::new(members);
                let oids = load_database(&mut g, &db).unwrap().oids;
                let targets = [oids[1], oids[2], oids[3]];
                let values: Vec<u32> = targets
                    .iter()
                    .map(|&t| g.hundred_of(t).unwrap() % 100 + 1)
                    .collect();
                g.with_member(victim, |sh| sh.fail_write = Some(sh.writes + failing))
                    .unwrap();
                let scenario = format!("K={k}, member {victim} fails write {failing}");

                let holds_acked = |g: &mut ReplicaGroup<FailNth>, m: usize, acked: usize| {
                    (0..acked).all(|j| {
                        g.with_member(m, |sh| sh.hundred_of(targets[j]).unwrap())
                            .unwrap()
                            == values[j]
                    })
                };
                for i in 0..WRITES {
                    g.set_hundred(targets[i], values[i]).unwrap();
                    for m in 0..k {
                        if g.member_health()[m] {
                            assert!(
                                holds_acked(&mut g, m, i + 1),
                                "{scenario}: healthy member {m} misses an acked write after write {}",
                                i + 1
                            );
                        }
                    }
                    for j in 0..=i {
                        assert_eq!(
                            g.hundred_of(targets[j]).unwrap(),
                            values[j],
                            "{scenario}: stale read of write {} after write {}",
                            j + 1,
                            i + 1
                        );
                    }
                }
                assert_eq!(g.demotions(), 1, "{scenario}");

                g.commit().unwrap();
                assert!(g.member_health().iter().all(|&h| h), "{scenario}");
                for m in 0..k {
                    assert!(
                        holds_acked(&mut g, m, WRITES),
                        "{scenario}: member {m} lost an acked write to repair"
                    );
                }
                scenarios += 1;
            }
        }
    }
    assert_eq!(scenarios, (2 + 3) * WRITES);
}

/// A crashed mirror cannot be repaired in place (its backend is gone):
/// repair attempts back off, and swapping in a fresh empty backend via
/// `replace_member` lets the next commit resync it from scratch. The
/// empty replacement must never serve reads before that resync.
#[test]
fn crashed_replica_is_replaced_and_resynced_from_scratch() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let members: Vec<ChaosStore<MemStore>> = (0..4)
        .map(|i| ChaosStore::new(MemStore::new(), FaultPlan::none(i)))
        .collect();
    let mut s = ShardedStore::new_replicated(members, 2, Placement::OidHash, "sharded-chaos-mem");
    let r = load_database(&mut s, &db).unwrap();
    let root = r.oids[0];
    s.commit().unwrap();

    // Crash member 1 (the non-primary mirror of group 0) at the next
    // commit fan-out: the group's commit still succeeds on the primary.
    with_member(&s, 1, |sh| {
        let nth = sh.commits_seen() + 1;
        sh.set_plan(FaultPlan {
            crash: Some(CrashSpec {
                point: CrashPoint::BeforeCommit,
                nth,
            }),
            ..FaultPlan::none(9)
        });
    });
    s.closure_1n_att_set(root).unwrap();
    s.commit().unwrap();
    assert!(
        total(&s, ReplicaGroup::demotions) >= 1,
        "crashed mirror must be demoted"
    );
    assert!(!member_health(&s)[1]);

    // In-place repair can only fail against a crashed backend; the
    // member stays demoted while its siblings carry the load.
    s.commit().unwrap();
    assert!(!member_health(&s)[1], "no repair without a live backend");
    assert!(with_member(&s, 1, |sh| sh.is_crashed()));

    // Swap in an empty replacement. It must stay demoted (an empty
    // store serving reads would be a catastrophic correctness bug)
    // until the commit-triggered resync fills it.
    let old = replace_member(&s, 1, ChaosStore::new(MemStore::new(), FaultPlan::none(9)));
    assert!(old.is_crashed());
    assert!(!member_health(&s)[1], "fresh backend must not serve yet");
    let repairs_before = total(&s, ReplicaGroup::repairs);
    s.commit().unwrap();
    assert_eq!(member_health(&s), &[true; 4]);
    assert!(total(&s, ReplicaGroup::repairs) > repairs_before);

    // Restore the O12 involution, then verify the rebuilt mirror serves
    // the whole database correctly on its own.
    s.closure_1n_att_set(root).unwrap();
    mark_member_down(&s, 0);
    let report = verify_store(&mut s, &db, &r.oids).unwrap();
    assert!(report.is_ok(), "{report}");
}

/// A write accepted by the last healthy member of a group is repaired
/// onto the other two by the next commit, and a read from a repaired
/// member sees it.
#[test]
fn a_write_on_the_last_healthy_member_is_repaired_onto_the_others() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut s = replicated_mem(1, 3, Placement::OidHash);
    let r = load_database(&mut s, &db).unwrap();
    let target = r.oids[2];
    let after = (s.hundred_of(target).unwrap() + 4) % 100;

    mark_member_down(&s, 1);
    mark_member_down(&s, 2);
    s.set_hundred(target, after).unwrap();
    s.commit().unwrap();
    assert_eq!(member_health(&s), &[true, true, true]);
    assert_eq!(total(&s, ReplicaGroup::repairs), 2);
    for m in [0usize, 1] {
        mark_member_down(&s, m); // the read must come from repaired member 2
    }
    assert_eq!(s.hundred_of(target).unwrap(), after);
}

/// A fan-out read fails fast on a dead shard and names the logical shard,
/// both unreplicated and when a whole replica group is gone; one dead
/// mirror fails over inside its group and the scan stays complete.
#[test]
fn fan_outs_name_the_logical_shard_of_a_dead_group() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let unavailable_one = |err: HmError| {
        assert!(
            matches!(err, HmError::ShardUnavailable { shard: 1, .. }),
            "errors name the logical shard: {err}"
        );
    };

    // Unreplicated: member index == shard index.
    let mut s = replicated_mem(3, 1, Placement::OidHash);
    load_database(&mut s, &db).unwrap();
    mark_member_down(&s, 1);
    unavailable_one(s.seq_scan_ten().unwrap_err());

    // Replicated: one dead mirror is not a dead shard.
    let mut s = replicated_mem(2, 2, Placement::OidHash);
    let r = load_database(&mut s, &db).unwrap();
    mark_member_down(&s, 2);
    assert_eq!(s.seq_scan_ten().unwrap(), db.len() as u64);
    // One dead mirror of shard 1 is a dead *replica*; no shard is dead.
    assert_eq!(
        s.resilience_summary().unwrap(),
        "2pc=off commit-aborts=0 dead-shards=0/2 replicas=2 \
         dead-replicas=1/4 failover-reads=1 demotions=0 repairs=0"
    );
    mark_member_down(&s, 3);
    unavailable_one(s.seq_scan_ten().unwrap_err());
    unavailable_one(s.range_hundred(0, 99).unwrap_err());
    let on_one = *r.oids.iter().find(|&&o| s.owner_of(o) == Some(1)).unwrap();
    unavailable_one(s.hundred_of(on_one).unwrap_err());
    unavailable_one(s.commit().unwrap_err());
}

/// The CI soak: kill a different member every epoch, run reads and
/// writes through the outage, and let the commit-triggered repair
/// re-admit it. After the final epoch the deployment must be whole and
/// oracle-conformant.
#[test]
fn replication_soak_kill_and_repair_every_epoch() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut s = replicated_mem(2, 2, Placement::affinity());
    let r = load_database(&mut s, &db).unwrap();
    let root = r.oids[0];
    s.commit().unwrap();

    let epochs = 8;
    for epoch in 0..epochs {
        let victim = epoch % member_health(&s).len();
        mark_member_down(&s, victim);
        // One write epoch: O12 into the closure plus a point write.
        s.closure_1n_att_set(root).unwrap();
        let h = s.hundred_of(r.oids[1]).unwrap();
        s.set_hundred(r.oids[1], h).unwrap();
        s.seq_scan_ten().unwrap();
        s.commit().unwrap();
        assert_eq!(
            member_health(&s),
            &[true; 4],
            "epoch {epoch}: repair must re-admit member {victim}"
        );
    }
    assert_eq!(total(&s, ReplicaGroup::repairs), epochs as u64);
    assert!(
        total(&s, ReplicaGroup::failover_reads) > 0,
        "primary-kill epochs must have failed reads over"
    );

    // O12 ran once per epoch; an even epoch count restores the values,
    // so the full conformance sweep must pass bit-for-bit.
    assert_eq!(epochs % 2, 0);
    let report = verify_store(&mut s, &db, &r.oids).unwrap();
    assert!(report.is_ok(), "{report}");
    let summary = s.resilience_summary().unwrap();
    assert!(summary.contains(&format!("repairs={epochs}")), "{summary}");
}

/// One repair-during-commit crash scenario, fully parameterized: which
/// member crashes, at which commit-lifecycle point, and how many O12
/// transactions landed first. The group's commit must survive the
/// crash, and after replacement + resync the rebuilt mirror must hold
/// exactly the committed image.
fn run_repair_crash_scenario(victim: usize, point: CrashPoint, committed_first: usize) {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let members: Vec<ChaosStore<MemStore>> = (0..4)
        .map(|i| ChaosStore::new(MemStore::new(), FaultPlan::none(i)))
        .collect();
    let mut s = ShardedStore::new_replicated(members, 2, Placement::OidHash, "sharded-chaos-mem");
    let r = load_database(&mut s, &db).unwrap();
    let root = r.oids[0];
    s.commit().unwrap();

    for _ in 0..committed_first {
        s.closure_1n_att_set(root).unwrap();
        s.commit().unwrap();
    }
    let expected: Vec<u32> = (0..db.len())
        .map(|i| s.hundred_of(r.oids[i]).unwrap())
        .collect();

    // Arm the crash in the next commit fan-out, then commit through it.
    with_member(&s, victim, |sh| {
        let nth = sh.commits_seen() + 1;
        sh.set_plan(FaultPlan {
            crash: Some(CrashSpec { point, nth }),
            ..FaultPlan::none(7)
        });
    });
    s.commit()
        .expect("a single mirror crash must not fail the group commit");
    assert!(!member_health(&s)[victim], "victim {victim} demoted");

    // Replace the dead backend and let the next commit resync it.
    replace_member(
        &s,
        victim,
        ChaosStore::new(MemStore::new(), FaultPlan::none(7)),
    );
    s.commit().unwrap();
    assert_eq!(member_health(&s), &[true; 4]);

    // Read every value from the rebuilt mirror alone.
    let sibling = victim ^ 1;
    mark_member_down(&s, sibling);
    let after: Vec<u32> = (0..db.len())
        .map(|i| s.hundred_of(r.oids[i]).unwrap())
        .collect();
    assert_eq!(
        after, expected,
        "rebuilt mirror diverges (victim {victim}, {point:?}, {committed_first} committed first)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random sampling of the repair-during-commit crash space. The
    /// schedule inside each case is deterministic (seeded fault plans);
    /// proptest only picks which corner to visit.
    #[test]
    fn repair_after_commit_crash_restores_the_mirror(
        victim in 0usize..4,
        committed_first in 0usize..=1,
        point_pick in any::<bool>(),
    ) {
        let point = if point_pick { CrashPoint::BeforeCommit } else { CrashPoint::AfterCommit };
        run_repair_crash_scenario(victim, point, committed_first);
    }
}

/// Systematic companion: the full crash grid — every member, both
/// commit-side crash points, with and without a committed transaction
/// in front — enumerated deterministically on every run.
#[test]
fn repair_crash_grid_is_exhaustively_enumerated() {
    let mut scenarios = 0;
    for victim in 0..4 {
        for point in [CrashPoint::BeforeCommit, CrashPoint::AfterCommit] {
            for committed_first in 0..=1 {
                run_repair_crash_scenario(victim, point, committed_first);
                scenarios += 1;
            }
        }
    }
    assert_eq!(scenarios, 16);
}

/// A mirror that logs every request it is asked to serve.
struct Recorder {
    inner: MemStore,
    calls: Vec<Request>,
}

impl hypermodel::Service for Recorder {
    fn call(&mut self, req: Request) -> Result<Response> {
        self.calls.push(req.clone());
        self.inner.call(req)
    }

    fn backend_name(&self) -> &'static str {
        "recorder"
    }
}

/// One read pass: a point read of every node, a closure from the root
/// and a scan.
fn read_pass(g: &mut ReplicaGroup<Recorder>, oids: &[hypermodel::model::Oid]) {
    for &oid in oids {
        g.hundred_of(oid).unwrap();
    }
    g.closure_1n(oids[0]).unwrap();
    g.seq_scan_ten().unwrap();
}

/// The reads each member of `g` served since its log held `from[m]`
/// requests.
fn reads_since(g: &mut ReplicaGroup<Recorder>, from: &[usize]) -> Vec<usize> {
    (0..g.member_count())
        .map(|m| {
            g.with_member(m, |r| {
                let since = &r.calls[from[m]..];
                since
                    .iter()
                    .filter(|req| req.class() == Class::Read)
                    .count()
            })
            .unwrap()
        })
        .collect()
}

/// Loads a 3-mirror group, reads while it is healthy and again with
/// member 0 down; returns each member's request log.
fn routed_reads() -> Vec<Vec<Request>> {
    let members = (0..3)
        .map(|_| Recorder {
            inner: MemStore::new(),
            calls: Vec::new(),
        })
        .collect();
    let mut g = ReplicaGroup::new(members);
    let db = TestDatabase::generate(&GenConfig::tiny());
    let oids = load_database(&mut g, &db).unwrap().oids;
    let logs = |g: &mut ReplicaGroup<Recorder>| -> Vec<usize> {
        (0..3)
            .map(|m| g.with_member(m, |r| r.calls.len()).unwrap())
            .collect()
    };

    let healthy = logs(&mut g);
    read_pass(&mut g, &oids);
    let served = reads_since(&mut g, &healthy);
    assert!(served[0] > oids.len(), "{served:?}");
    assert_eq!(served[1..], [0, 0], "a healthy group reads member 0 only");
    assert_eq!(g.failover_reads(), 0);

    g.mark_member_down(0);
    let degraded = logs(&mut g);
    read_pass(&mut g, &oids);
    let after = reads_since(&mut g, &degraded);
    assert_eq!(after, [0, served[0], 0], "member 1 takes every read");
    assert_eq!(g.failover_reads(), served[0] as u64);

    (0..3)
        .map(|m| g.with_member(m, |r| r.calls.clone()).unwrap())
        .collect()
}

/// Which mirror serves a read depends on member health alone: member 0
/// while it is healthy, else the first healthy member — the same member
/// for the same history on every run.
#[test]
fn reads_go_to_the_first_healthy_member() {
    assert_eq!(routed_reads(), routed_reads());
}
