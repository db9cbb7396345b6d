//! K-way replication: failover reads, quorum writes, automatic repair.
//!
//! The acceptance property for the replicated deployment: with K = 2
//! and a replica killed mid-run, every benchmark operation completes
//! with oracle-correct output and no `ShardUnavailable` surfaces to the
//! client; by the end of the run the killed replica has been resynced
//! from its sibling and serves reads again.

use chaos::{ChaosStore, CrashPoint, CrashSpec, FaultPlan};
use hypermodel::config::GenConfig;
use hypermodel::error::HmError;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::store::HyperStore;
use hypermodel::verify::verify_store;
use mem_backend::MemStore;
use proptest::prelude::*;
use shard::{Placement, ReplicaGroup, ScanPolicy, ShardedStore, WriteAck};

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

fn set_write_ack<S: HyperStore + Send + 'static>(s: &Replicated<S>, ack: WriteAck) {
    for shard in 0..s.shard_count() {
        s.with_shard(shard, |g| g.set_write_ack(ack)).unwrap();
    }
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
        assert!(summary.contains("ack=primary"), "summary: {summary}");
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

/// Write acknowledgement policies: `Primary` needs one healthy member,
/// `Quorum` a majority of the replica set, `All` every healthy member.
/// A write refused for lack of quorum must not land anywhere.
#[test]
fn write_ack_policies_enforce_quorum() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut s = replicated_mem(1, 3, Placement::OidHash);
    let r = load_database(&mut s, &db).unwrap();
    let target = r.oids[2];
    let before = s.hundred_of(target).unwrap();
    assert_eq!(
        s.with_shard(0, |g| g.write_ack()).unwrap(),
        WriteAck::Primary
    );

    set_write_ack(&s, WriteAck::All);
    s.set_hundred(target, (before + 1) % 100).unwrap();

    // Quorum (2 of 3) holds with one member down...
    set_write_ack(&s, WriteAck::Quorum);
    mark_member_down(&s, 1);
    s.set_hundred(target, (before + 2) % 100).unwrap();

    // ...but not with two down: the write is refused up front and the
    // surviving member's state is untouched.
    mark_member_down(&s, 2);
    let err = s.set_hundred(target, (before + 3) % 100).unwrap_err();
    match &err {
        HmError::ShardUnavailable { msg, .. } => {
            assert!(msg.contains("quorum"), "unexpected message: {msg}")
        }
        other => panic!("expected ShardUnavailable, got {other}"),
    }
    assert_eq!(s.hundred_of(target).unwrap(), (before + 2) % 100);

    // Primary-ack still accepts writes on the last healthy member, and
    // the next commit repairs the other two from it.
    set_write_ack(&s, WriteAck::Primary);
    s.set_hundred(target, (before + 4) % 100).unwrap();
    s.commit().unwrap();
    assert_eq!(member_health(&s), &[true, true, true]);
    assert_eq!(total(&s, ReplicaGroup::repairs), 2);
    for dead in [0usize, 1] {
        mark_member_down(&s, dead); // read must come from a repaired member
    }
    assert_eq!(s.hundred_of(target).unwrap(), (before + 4) % 100);
}

/// Satellite fix: a partial fan-out read reports *which* logical shards
/// it skipped, both unreplicated and when a whole replica group is gone.
#[test]
fn partial_scans_surface_skipped_shard_ids() {
    let db = TestDatabase::generate(&GenConfig::tiny());

    // Unreplicated: member index == shard index.
    let mut s = replicated_mem(3, 1, Placement::OidHash);
    load_database(&mut s, &db).unwrap();
    s.set_scan_policy(ScanPolicy::Partial);
    mark_member_down(&s, 1);
    s.seq_scan_ten().unwrap();
    assert!(s.last_scan_was_partial());
    assert_eq!(s.last_scan_skipped(), &[1]);
    let summary = s.resilience_summary().unwrap();
    assert!(
        summary.contains("skipped-shards=[1]"),
        "summary must attribute the gap: {summary}"
    );

    // Replicated: only a fully-dead group is skipped — one dead mirror
    // fails over inside the group and the scan stays complete.
    let mut s = replicated_mem(2, 2, Placement::OidHash);
    let r = load_database(&mut s, &db).unwrap();
    s.set_scan_policy(ScanPolicy::Partial);
    mark_member_down(&s, 2);
    s.seq_scan_ten().unwrap();
    assert!(!s.last_scan_was_partial(), "one mirror down is not partial");
    // One dead mirror of shard 1 is a dead *replica*; no shard is dead.
    assert_eq!(
        s.resilience_summary().unwrap(),
        "2pc=off commit-aborts=0 dead-shards=0/2 replicas=2 ack=primary \
         dead-replicas=1/4 failover-reads=1 demotions=0 repairs=0"
    );
    mark_member_down(&s, 3);
    s.seq_scan_ten().unwrap();
    assert!(s.last_scan_was_partial());
    assert_eq!(s.last_scan_skipped(), &[1], "logical shard id, not member");
    let on_one = *r.oids.iter().find(|&&o| s.owner_of(o) == Some(1)).unwrap();
    for err in [s.hundred_of(on_one).unwrap_err(), s.commit().unwrap_err()] {
        assert!(
            matches!(err, HmError::ShardUnavailable { shard: 1, .. }),
            "errors name the logical shard, not member 2 or 3: {err}"
        );
    }
    let summary = s.resilience_summary().unwrap();
    assert!(summary.contains("skipped-shards=[1]"), "summary: {summary}");
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
