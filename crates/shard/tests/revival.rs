//! Shard revival and the 2PC ROADMAP follow-ups: re-admitting a shard
//! health tracking wrote off, a prepare that times out as a vote to
//! abort, and the commit log staying bounded under checkpointing.

use std::path::PathBuf;

use chaos::{ChaosStore, CrashPoint, CrashSpec, FaultPlan};
use disk_backend::DiskStore;
use hypermodel::config::GenConfig;
use hypermodel::error::{HmError, Result};
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::protocol::{Request, Response};
use hypermodel::store::HyperStore;
use mem_backend::MemStore;
use shard::{recover_sharded, CommitLog, Placement, ShardedStore};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hm-revival-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An administratively-downed shard comes back with `revive_shard`: the
/// probe succeeds against the intact backend and health flips to true.
#[test]
fn mark_down_then_revive_readmits_the_shard() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let shards = vec![MemStore::new(), MemStore::new()];
    let mut s = ShardedStore::new(shards, Placement::OidHash, "sharded-mem");
    let report = load_database(&mut s, &db).unwrap();
    let on_one = (0..db.len())
        .map(|i| report.oids[i])
        .find(|&o| s.owner_of(o) == Some(1))
        .expect("hash placement uses both shards");

    s.mark_shard_down(1);
    assert!(matches!(
        s.hundred_of(on_one).unwrap_err(),
        HmError::ShardUnavailable { shard: 1, .. }
    ));
    assert!(
        s.seq_scan_ten().is_err(),
        "fail-fast scan sees the dead shard"
    );

    s.revive_shard(1).unwrap();
    assert_eq!(s.health(), &[true, true]);
    assert!(s.hundred_of(on_one).is_ok());
    assert_eq!(s.seq_scan_ten().unwrap(), db.len() as u64);
}

/// A shard index the deployment does not have is an error, not a panic,
/// on both re-admission entry points, and leaves health untouched.
#[test]
fn out_of_range_shard_is_unavailable_not_a_panic() {
    let mut s = ShardedStore::new(
        vec![MemStore::new(), MemStore::new()],
        Placement::OidHash,
        "sharded-mem",
    );
    assert!(matches!(
        s.revive_shard(99).unwrap_err(),
        HmError::ShardUnavailable { shard: 99, .. }
    ));
    assert!(matches!(
        s.replace_shard(99, MemStore::new()).unwrap_err(),
        HmError::ShardUnavailable { shard: 99, .. }
    ));
    assert_eq!(s.health(), &[true, true]);
}

/// The full recovery arc: a shard crashes mid-2PC and is marked dead;
/// `revive_shard` refuses while the backend is still broken; after
/// `recover_sharded`, `replace_shard` swaps in the reopened store and
/// the deployment commits again — no restart of the coordinator.
#[test]
fn recovered_shard_is_readmitted_via_replace() {
    let dir = temp_dir("readmit");
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
    let root = report.oids[0];
    let on_one = (0..db.len())
        .map(|i| report.oids[i])
        .find(|&o| s.owner_of(o) == Some(1))
        .expect("hash placement uses both shards");
    let before = s.hundred_of(on_one).unwrap();

    // Crash shard 1 in the next transaction's prepare window.
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
    s.closure_1n_att_set(root).unwrap();
    s.commit().unwrap_err();
    assert_eq!(s.health(), &[true, false]);

    // The backend is still crashed: the revival probe fails and health
    // stays down.
    assert!(s.revive_shard(1).is_err());
    assert_eq!(s.health(), &[true, false]);

    // Resolve the in-doubt shard against the decision log, reopen it,
    // and swap it into the live deployment.
    recover_sharded(&[&p0, &p1], &log).unwrap();
    let reopened = ChaosStore::new(DiskStore::open(&p1, 1024).unwrap(), FaultPlan::none(3));
    drop(s.replace_shard(1, reopened).unwrap());
    assert_eq!(s.health(), &[true, true]);

    // The aborted transaction left no trace, point ops and fan-outs
    // reach the shard again, and a fresh 2PC commit goes through.
    assert_eq!(s.hundred_of(on_one).unwrap(), before);
    assert_eq!(s.seq_scan_ten().unwrap(), db.len() as u64);
    s.closure_1n_att_set(root).unwrap();
    s.commit().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `MemStore` that logs every request it serves, and whose next
/// `prepare_commit` fails with a timeout — what a remote shard's
/// transport reports when its request timeout runs out — while
/// `prepare_times_out` is set.
struct Recorder {
    inner: MemStore,
    calls: Vec<Request>,
    prepare_times_out: bool,
}

impl hypermodel::Service for Recorder {
    fn call(&mut self, req: Request) -> Result<Response> {
        self.calls.push(req.clone());
        if matches!(req, Request::PrepareCommit(_)) && std::mem::take(&mut self.prepare_times_out) {
            return Err(HmError::Timeout("injected prepare timeout".into()));
        }
        self.inner.call(req)
    }

    fn backend_name(&self) -> &'static str {
        "recorder"
    }
}

fn calls(store: &ShardedStore<Recorder>, shard: usize) -> Vec<Request> {
    store.with_shard(shard, |sh| sh.calls.clone()).unwrap()
}

/// A prepare that times out is a vote to abort: the transaction aborts,
/// the shard that timed out is marked dead, the yes-voter is rolled
/// back, and once `revive_shard` re-admits the shard the same
/// deployment commits.
#[test]
fn a_prepare_timeout_is_a_vote_to_abort_and_revival_commits_again() {
    let dir = temp_dir("prepare-timeout");
    let shards = (0..2)
        .map(|s| Recorder {
            inner: MemStore::new(),
            calls: Vec::new(),
            prepare_times_out: s == 1,
        })
        .collect();
    let mut s = ShardedStore::new(shards, Placement::OidHash, "sharded-recorder")
        .with_commit_log(&dir.join("decisions.log"))
        .unwrap();

    let err = s.commit().unwrap_err();
    assert!(
        matches!(err, HmError::ShardUnavailable { shard: 1, .. }),
        "the timeout surfaces as shard 1 being unavailable, got {err}"
    );
    assert_eq!(s.commit_aborts(), 1);
    assert_eq!(s.health(), &[true, false]);
    let (yes, timed_out) = (calls(&s, 0), calls(&s, 1));
    assert!(
        matches!(yes[..], [Request::PrepareCommit(t), Request::AbortPrepared(u)] if t == u),
        "the yes-voter rolled back: {yes:?}"
    );
    assert!(
        matches!(timed_out[..], [Request::PrepareCommit(_)]),
        "{timed_out:?}"
    );

    s.revive_shard(1).unwrap();
    assert_eq!(s.health(), &[true, true]);
    s.commit().unwrap();
    assert_eq!(s.commit_aborts(), 1, "no further aborts");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The decision log stops growing one record per transaction forever:
/// once every shard has acknowledged a txid, a checkpoint truncates the
/// records at or below it.
#[test]
fn commit_log_stays_bounded_under_checkpointing() {
    let dir = temp_dir("bounded-log");
    let log_path = dir.join("decisions.log");

    let shards = vec![MemStore::new(), MemStore::new()];
    let mut s = ShardedStore::new(shards, Placement::OidHash, "sharded-mem")
        .with_commit_log(&log_path)
        .unwrap();
    s.set_checkpoint_interval(8);

    let total = 40u64;
    for _ in 0..total {
        s.commit().unwrap();
    }
    let ckpt = s.commit_checkpoint().expect("2pc is on");
    assert!(
        ckpt >= total - 8,
        "log checkpointed through {ckpt}, expected near {total}"
    );
    drop(s);

    // The on-disk log holds only the post-checkpoint suffix, and txids
    // never rewind past the checkpoint on reopen.
    let log = CommitLog::open(&log_path).unwrap();
    assert!(
        log.len() <= 8,
        "expected a truncated log, found {} records",
        log.len()
    );
    assert_eq!(log.checkpointed_through(), ckpt);
    assert_eq!(log.next_txid(), total + 1);
    let _ = std::fs::remove_dir_all(&dir);
}
