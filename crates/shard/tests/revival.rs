//! Shard revival and the 2PC ROADMAP follow-ups: re-admitting a shard
//! health tracking wrote off, parallel prepare deadlines as abort
//! votes, and the commit log staying bounded under checkpointing.

use std::path::PathBuf;
use std::time::Duration;

use chaos::{ChaosStore, CrashPoint, CrashSpec, FaultPlan};
use disk_backend::DiskStore;
use hypermodel::config::GenConfig;
use hypermodel::error::HmError;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::store::HyperStore;
use mem_backend::MemStore;
use server::{serve, ChannelTransport, RemoteStore};
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
    let old = s.replace_shard(1, {
        recover_sharded(&[&p0, &p1], &log).unwrap();
        ChaosStore::new(DiskStore::open(&p1, 1024).unwrap(), FaultPlan::none(3))
    });
    drop(old);
    assert_eq!(s.health(), &[true, true]);

    // The aborted transaction left no trace, point ops and fan-outs
    // reach the shard again, and a fresh 2PC commit goes through.
    assert_eq!(s.hundred_of(on_one).unwrap(), before);
    assert_eq!(s.seq_scan_ten().unwrap(), db.len() as u64);
    s.closure_1n_att_set(root).unwrap();
    s.commit().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parallel prepare with a deadline: a shard behind a high-latency link
/// misses the prepare deadline, which counts as a vote to abort — the
/// transaction aborts, the slow shard is marked dead, and after raising
/// the deadline and reviving, the same deployment commits fine.
#[test]
fn prepare_deadline_miss_is_a_vote_to_abort() {
    let dir = temp_dir("slow-prepare");
    let log = dir.join("decisions.log");

    // Shard 0 answers instantly; shard 1 sits behind a 30 ms one-way
    // channel link.
    let mut remotes = Vec::new();
    for latency_ms in [0u64, 30] {
        let (client_end, mut server_end) =
            ChannelTransport::pair(Duration::from_millis(latency_ms));
        std::thread::spawn(move || {
            let mut store = MemStore::new();
            serve(&mut store, &mut server_end).unwrap();
        });
        remotes.push(RemoteStore::new(Box::new(client_end)));
    }
    let mut s = ShardedStore::new(remotes, Placement::OidHash, "sharded-remote")
        .with_commit_log(&log)
        .unwrap();

    // Tighter deadline than the link latency: shard 1 cannot answer the
    // prepare in time.
    s.set_prepare_timeout(Duration::from_millis(10));
    let err = s.commit().unwrap_err();
    assert!(
        matches!(err, HmError::ShardUnavailable { shard: 1, .. }),
        "deadline miss surfaces as the slow shard being unavailable, got {err}"
    );
    assert_eq!(s.commit_aborts(), 1);
    assert_eq!(s.health(), &[true, false]);

    // With a workable deadline the same deployment revives and commits.
    // (The revival probe also drains the queued-behind abort: per-shard
    // FIFO means it ran before the probe.)
    s.set_prepare_timeout(Duration::from_secs(5));
    s.revive_shard(1).unwrap();
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
