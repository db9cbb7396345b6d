//! Crash-safe cross-shard commit: the acceptance scenarios for the
//! two-phase protocol.
//!
//! The central claim: a crash anywhere between `prepare` and the final
//! `commit_prepared` leaves the deployment in one of exactly two states
//! after recovery — the transaction applied on *every* shard, or on
//! *none*. Router state is in-memory, so the post-crash assertions read
//! each reopened shard directly (by unique id), never through a router.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use chaos::{ChaosStore, CrashPoint, CrashSpec, FaultPlan};
use disk_backend::DiskStore;
use hypermodel::config::GenConfig;
use hypermodel::error::HmError;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::{Content, NodeAttrs, NodeKind, NodeValue};
use hypermodel::store::HyperStore;
use shard::{recover_sharded, CommitLog, Placement, ShardedStore};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hm-2pc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Read `hundred` for every real unique id, shard by shard, off freshly
/// reopened stores. This is the shard-local ground truth — no router.
fn hundreds_by_uid(paths: &[&Path], uid_count: u64) -> BTreeMap<u64, u32> {
    let mut stores: Vec<DiskStore> = paths
        .iter()
        .map(|p| DiskStore::open(p, 1024).unwrap())
        .collect();
    let mut out = BTreeMap::new();
    for uid in 1..=uid_count {
        let mut owners = 0;
        for store in &mut stores {
            if let Ok(local) = store.lookup_unique(uid) {
                out.insert(uid, store.hundred_of(local).unwrap());
                owners += 1;
            }
        }
        assert_eq!(owners, 1, "uid {uid} must live on exactly one shard");
    }
    out
}

/// The acceptance scenario: a shard crashes between `prepare` and the
/// commit decision while an O12 (`closure_1n_att_set`) transaction is in
/// flight. After recovery, no shard holds a partially-applied attribute
/// update: every `hundred` reads exactly as before the transaction.
#[test]
fn crash_between_prepare_and_commit_leaves_no_partial_o12() {
    let dir = temp_dir("o12-crash");
    let p0 = dir.join("shard0.db");
    let p1 = dir.join("shard1.db");
    let log = dir.join("decisions.log");

    let db = TestDatabase::generate(&GenConfig::tiny());
    let shards = vec![
        ChaosStore::new(DiskStore::create(&p0, 1024).unwrap(), FaultPlan::none(1)),
        ChaosStore::new(DiskStore::create(&p1, 1024).unwrap(), FaultPlan::none(2)),
    ];
    let mut s = ShardedStore::new(shards, Placement::OidHash, "sharded-chaos-disk")
        .with_commit_log(&log)
        .unwrap();
    let report = load_database(&mut s, &db).unwrap();
    s.commit().unwrap();

    let before: BTreeMap<u64, u32> = (0..db.len() as u64)
        .map(|i| (i + 1, s.hundred_of(report.oids[i as usize]).unwrap()))
        .collect();

    // Arm the crash: shard 1 dies right after it prepares the *next*
    // transaction, before the coordinator can decide.
    s.with_shard(1, |sh| {
        let nth = sh.prepares_seen() + 1;
        sh.set_plan(FaultPlan {
            crash: Some(CrashSpec {
                point: CrashPoint::AfterPrepare,
                nth,
            }),
            ..FaultPlan::none(2)
        });
    })
    .unwrap();

    // O12 mutates `hundred` across both shards, then the 2PC commit hits
    // the injected crash during phase one.
    let touched = s.closure_1n_att_set(report.oids[0]).unwrap();
    assert_eq!(touched, db.len(), "root closure covers the structure");
    let err = s.commit().unwrap_err();
    assert!(
        matches!(err, HmError::ShardUnavailable { shard: 1, .. }),
        "commit must surface the structured shard failure, got {err}"
    );
    assert_eq!(s.commit_aborts(), 1);
    assert_eq!(s.health(), &[true, false]);
    assert!(s.with_shard(1, |sh| sh.is_crashed()).unwrap());

    // Graceful degradation while shard 1 is down: point ops to it and
    // fan-outs fail fast.
    let on_dead = (0..db.len())
        .map(|i| report.oids[i])
        .find(|&o| s.owner_of(o) == Some(1))
        .expect("hash placement puts nodes on both shards");
    assert!(matches!(
        s.hundred_of(on_dead).unwrap_err(),
        HmError::ShardUnavailable { shard: 1, .. }
    ));
    assert!(matches!(
        s.seq_scan_ten().unwrap_err(),
        HmError::ShardUnavailable { .. }
    ));
    drop(s);

    // Recovery: shard 1 crashed prepared; the log holds no commit
    // decision for its transaction, so presumed abort discards it.
    let resolved = recover_sharded(&[&p0, &p1], &log).unwrap();
    assert_eq!(resolved.len(), 1, "only the crashed shard was in doubt");
    assert_eq!(resolved[0].shard, 1);
    assert!(!resolved[0].committed, "undecided transactions abort");

    let after = hundreds_by_uid(&[&p0, &p1], db.len() as u64);
    assert_eq!(
        after, before,
        "aborted O12 must leave every attribute untouched on every shard"
    );
}

/// The mirror image: the decision record said *commit* before a shard
/// died, so recovery must finish applying the transaction there.
#[test]
fn committed_decision_completes_on_the_crashed_shard() {
    let dir = temp_dir("commit-decision");
    let p0 = dir.join("shard0.db");
    let p1 = dir.join("shard1.db");
    let log_path = dir.join("decisions.log");

    let value = |uid: u64| NodeValue {
        kind: NodeKind::INTERNAL,
        attrs: NodeAttrs {
            unique_id: uid,
            ten: 1,
            hundred: 7,
            thousand: 1,
            million: 1,
        },
        content: Content::None,
    };
    let mut s0 = DiskStore::create(&p0, 1024).unwrap();
    let mut s1 = DiskStore::create(&p1, 1024).unwrap();
    let a = s0.insert_extra_node(&value(1)).unwrap();
    let b = s1.insert_extra_node(&value(2)).unwrap();
    s0.commit().unwrap();
    s1.commit().unwrap();

    // The cross-shard transaction: both shards mutate, both prepare, the
    // coordinator durably decides commit — then shard 1 dies before it
    // hears the decision.
    s0.set_hundred(a, 70).unwrap();
    s1.set_hundred(b, 70).unwrap();
    let mut log = CommitLog::open(&log_path).unwrap();
    let txid = log.next_txid();
    s0.prepare_commit(txid).unwrap();
    s1.prepare_commit(txid).unwrap();
    log.record(txid, true).unwrap();
    s0.commit_prepared(txid).unwrap();
    drop(s0);
    std::mem::forget(s1); // crash: no destructor, like a kill -9

    // Shard 1 is in doubt until recovery consults the log.
    assert_eq!(disk_backend::in_doubt_txn(&p1).unwrap(), Some(txid));
    let resolved = recover_sharded(&[&p0, &p1], &log_path).unwrap();
    assert_eq!(resolved.len(), 1);
    assert!(resolved[0].committed, "logged decision must win");

    let after = hundreds_by_uid(&[&p0, &p1], 2);
    assert_eq!(
        after,
        BTreeMap::from([(1, 70), (2, 70)]),
        "recovery must finish the commit everywhere"
    );
}

/// Happy path: with a commit log attached, a clean run persists exactly
/// the committed state and recovery has nothing to do.
#[test]
fn clean_two_phase_run_persists_and_needs_no_recovery() {
    let dir = temp_dir("clean");
    let p0 = dir.join("shard0.db");
    let p1 = dir.join("shard1.db");
    let log = dir.join("decisions.log");

    let db = TestDatabase::generate(&GenConfig::tiny());
    let shards = vec![
        DiskStore::create(&p0, 1024).unwrap(),
        DiskStore::create(&p1, 1024).unwrap(),
    ];
    let mut s = ShardedStore::new(shards, Placement::OidHash, "sharded-disk")
        .with_commit_log(&log)
        .unwrap();
    let report = load_database(&mut s, &db).unwrap();
    s.closure_1n_att_set(report.oids[0]).unwrap();
    s.commit().unwrap();
    assert_eq!(s.commit_aborts(), 0);
    let expected: BTreeMap<u64, u32> = (0..db.len() as u64)
        .map(|i| (i + 1, s.hundred_of(report.oids[i as usize]).unwrap()))
        .collect();
    drop(s);

    assert!(
        recover_sharded(&[&p0, &p1], &log).unwrap().is_empty(),
        "clean shutdown leaves nothing in doubt"
    );
    assert_eq!(hundreds_by_uid(&[&p0, &p1], db.len() as u64), expected);
}

/// Administrative health control over healthy in-memory shards: a shard
/// marked down fails point operations, fan-outs and commits fast.
#[test]
fn dead_shard_fails_fast() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let shards: Vec<mem_backend::MemStore> = (0..3).map(|_| mem_backend::MemStore::new()).collect();
    let mut s = ShardedStore::new(shards, Placement::OidHash, "sharded-mem");
    let report = load_database(&mut s, &db).unwrap();
    assert_eq!(s.seq_scan_ten().unwrap(), db.len() as u64);

    s.mark_shard_down(2);
    let on_dead = (0..db.len())
        .map(|i| report.oids[i])
        .find(|&o| s.owner_of(o) == Some(2))
        .unwrap();
    assert!(matches!(
        s.hundred_of(on_dead).unwrap_err(),
        HmError::ShardUnavailable { shard: 2, .. }
    ));
    assert!(matches!(
        s.seq_scan_ten().unwrap_err(),
        HmError::ShardUnavailable { shard: 2, .. }
    ));
    assert!(matches!(
        s.range_hundred(0, 99).unwrap_err(),
        HmError::ShardUnavailable { shard: 2, .. }
    ));
    assert!(matches!(
        s.commit().unwrap_err(),
        HmError::ShardUnavailable { shard: 2, .. }
    ));
}
