//! Property: cross-shard commit is all-or-nothing under crashes.
//!
//! Randomize the shard count (2–4), which shard crashes, how many O12
//! transactions commit before the crash, and the placement of the crash
//! (during phase one of the 2PC, the only window where shards can
//! disagree). After recovery the reopened shards must hold exactly the
//! all-committed or the all-aborted image — never a mix.

use std::collections::BTreeMap;
use std::path::PathBuf;

use chaos::{ChaosStore, CrashPoint, CrashSpec, FaultPlan};
use disk_backend::DiskStore;
use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::store::HyperStore;
use proptest::prelude::*;
use shard::{recover_sharded, Placement, ShardedStore};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hm-prop2pc-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `hundred` per unique id read off freshly reopened shards — the
/// shard-local ground truth, no router involved.
fn hundreds_by_uid(paths: &[PathBuf], uid_count: u64) -> BTreeMap<u64, u32> {
    let mut stores: Vec<DiskStore> = paths
        .iter()
        .map(|p| DiskStore::open(p, 1024).unwrap())
        .collect();
    let mut out = BTreeMap::new();
    for uid in 1..=uid_count {
        for store in &mut stores {
            if let Ok(local) = store.lookup_unique(uid) {
                assert!(
                    out.insert(uid, store.hundred_of(local).unwrap()).is_none(),
                    "uid {uid} on two shards"
                );
            }
        }
        assert!(out.contains_key(&uid), "uid {uid} lost");
    }
    out
}

/// One O12 pass maps every `hundred` through the involution `h -> 99-h`.
fn flipped(m: &BTreeMap<u64, u32>) -> BTreeMap<u64, u32> {
    m.iter()
        .map(|(&k, &h)| (k, 99u32.wrapping_sub(h)))
        .collect()
}

/// One crash scenario, fully parameterized: `n` shards, `committed_first`
/// O12 transactions landed before the crash, shard `crash_shard` dying
/// after its prepare of the next transaction. Plain asserts so both the
/// random sampler and the exhaustive grid below share it.
fn run_crash_scenario(n: usize, committed_first: usize, crash_shard: usize, tag: &str) {
    {
        let dir = temp_dir(&format!("{tag}-{n}-{committed_first}-{crash_shard}"));
        let paths: Vec<PathBuf> = (0..n).map(|s| dir.join(format!("shard{s}.db"))).collect();
        let log = dir.join("decisions.log");

        let db = TestDatabase::generate(&GenConfig::tiny());
        let shards: Vec<ChaosStore<DiskStore>> = paths
            .iter()
            .enumerate()
            .map(|(s, p)| {
                ChaosStore::new(
                    DiskStore::create(p, 1024).unwrap(),
                    FaultPlan::none(s as u64),
                )
            })
            .collect();
        let mut store = ShardedStore::new(shards, Placement::OidHash, "sharded-chaos-disk")
            .with_commit_log(&log)
            .unwrap();
        let report = load_database(&mut store, &db).unwrap();
        store.commit().unwrap();
        let root = report.oids[0];

        // O9 exercises the read path; `committed` tracks the last durable
        // image as O12 transactions land.
        assert_eq!(store.seq_scan_ten().unwrap(), db.len() as u64);
        let mut committed: BTreeMap<u64, u32> = (0..db.len() as u64)
            .map(|i| (i + 1, store.hundred_of(report.oids[i as usize]).unwrap()))
            .collect();
        for _ in 0..committed_first {
            store.closure_1n_att_set(root).unwrap();
            store.commit().unwrap();
            committed = flipped(&committed);
        }

        // Arm the crash on a random shard, in the prepare window of the
        // *next* transaction, then run the O12 mutation into it.
        store
            .with_shard(crash_shard, |sh| {
                let nth = sh.prepares_seen() + 1;
                sh.set_plan(FaultPlan {
                    crash: Some(CrashSpec {
                        point: CrashPoint::AfterPrepare,
                        nth,
                    }),
                    ..FaultPlan::none(99)
                });
            })
            .unwrap();
        store.closure_1n_att_set(root).unwrap();
        let err = store.commit().unwrap_err();
        assert!(
            err.is_transient(),
            "commit failure must be transient: {err}"
        );
        assert_eq!(store.commit_aborts(), 1);
        drop(store);

        let path_refs: Vec<&std::path::Path> = paths.iter().map(|p| p.as_path()).collect();
        recover_sharded(&path_refs, &log).unwrap();

        let after = hundreds_by_uid(&paths, db.len() as u64);
        let all_committed = flipped(&committed);
        assert!(
            after == committed || after == all_committed,
            "recovered image mixes committed and aborted state"
        );
        // A crash before any decision is presumed abort.
        assert_eq!(&after, &committed);
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random sampling: same property, arbitrary corner of the space.
    #[test]
    fn crashed_o12_commit_is_all_or_nothing(
        n in 2usize..=4,
        committed_first in 0usize..=1,
        pick in any::<u64>(),
    ) {
        run_crash_scenario(n, committed_first, (pick % n as u64) as usize, "rand");
    }
}

/// Systematic companion to the sampler: enumerate the whole parameter
/// grid — every shard count, every crashing shard, with and without a
/// committed transaction in front — so the prepare-window property is
/// checked on all 18 scenarios deterministically, every run. (Every
/// crash point of the same protocol, at every file call, crossed with
/// each vote, is explored on two shards in `crash_explorer.rs`.)
#[test]
fn crash_grid_is_exhaustively_enumerated() {
    let mut scenarios = 0;
    for n in 2usize..=4 {
        for committed_first in 0usize..=1 {
            for crash_shard in 0..n {
                run_crash_scenario(n, committed_first, crash_shard, "grid");
                scenarios += 1;
            }
        }
    }
    assert_eq!(scenarios, 18);
}
