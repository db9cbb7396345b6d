//! Crash explorer of the sharded deployment's two-phase commit, on files
//! in memory (`storage`'s `fake_fs`).
//!
//! One fixed history runs on a production two-shard
//! `ShardedStore<DiskStore>` with a decision log, and every file call it
//! makes is recorded. After a small database is loaded, transactions
//! that touch both shards commit; vote no on shard 1, and later on shard
//! 0 (a shard's log sync fails during its prepare); and lose phase two on
//! shard 1 in the commit that checkpoints the decision log, after which
//! shard 1 is revived and later commits go through.
//!
//! The explorer then rebuilds every set of files a crash could have left
//! at every point of that record after the load — the crash model of
//! `storage::vfs`: per file, its synced prefix and its unsynced calls
//! kept, dropped or with the last write torn (a log append at any byte,
//! the decision log's included) — runs `recover_sharded_in` on it and
//! reads every transaction's writes off the reopened shards. Each state
//! must hold:
//!
//! * every transaction on both shards or on neither;
//! * every transaction whose commit decision's sync returned on both;
//! * every transaction for which the state's decision log holds no
//!   commit decision, and no checkpoint past it, on neither.
//!
//! That covers each coordinator crash point — before the decision, after
//! it and before phase two, between the shards' phase two, during a
//! checkpoint — crossed with a yes vote and a no vote from each shard.
//!
//! The shards run phase one and phase two concurrently, so the calls of
//! one phase may be recorded in another order from run to run. Each
//! recorded trace is judged on its own, and a failure prints it.

#[path = "../../storage/tests/fake_fs/mod.rs"]
mod fake_fs;

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use disk_backend::DiskStore;
use fake_fs::{crash_states, FakeFs, FileState, Files, Op};
use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::Oid;
use hypermodel::store::HyperStore;
use shard::{recover_sharded_in, Placement, ShardedStore};
use storage::engine::wal_path_for;
use storage::vfs::Vfs;

/// Pool frames per shard: the tiny database fits.
const FRAMES: usize = 32;
const SHARD_FILES: [&str; 2] = ["shard0.db", "shard1.db"];
const LOG: &str = "decisions.log";
/// The decision byte of a commit record (`shard::coordinator`'s format:
/// an 8-byte little-endian txid, then the decision).
const COMMIT: u8 = 0xC1;
const CHECKPOINT: u8 = 0xCC;
const RECORD: usize = 9;

fn shard_paths() -> [PathBuf; 2] {
    SHARD_FILES.map(PathBuf::from)
}

/// How a transaction of the history ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Commit,
    /// The log sync of each shard marked `true` fails during its prepare:
    /// a no vote.
    NoVote([bool; 2]),
    /// Shard 1's log sync fails during its phase two, in the commit that
    /// checkpoints the decision log; shard 1 is revived afterwards.
    PhaseTwoFailsThenRevive,
}

const HISTORY: [End; 7] = [
    End::Commit,
    End::NoVote([false, true]),
    End::Commit,
    End::PhaseTwoFailsThenRevive,
    End::NoVote([true, false]),
    End::Commit,
    End::Commit,
];

/// One transaction: it sets `hundred` of one node on each shard to
/// `value`, which no loaded node holds.
#[derive(Debug)]
struct Txn {
    end: End,
    /// The unique id of the node it writes on each shard.
    uids: [u64; 2],
    value: u32,
    /// The coordinator's id for it, and whether it decided to commit it,
    /// read off the decision log.
    txid: u64,
    committed: bool,
}

/// The decision records `(txid, decision byte)` written to the log among
/// the calls from `since` on.
fn decisions_since(fs: &FakeFs, since: usize) -> Vec<(u64, u8)> {
    let log = Path::new(LOG);
    fs.trace_since(since)
        .iter()
        .filter_map(|op| match op {
            Op::Write { path, bytes, .. } if path == log && bytes.len() == RECORD => {
                Some((txid_of(bytes), bytes[8]))
            }
            _ => None,
        })
        .collect()
}

fn txid_of(record: &[u8]) -> u64 {
    let mut txid = [0; 8];
    txid.copy_from_slice(&record[..8]);
    u64::from_le_bytes(txid)
}

/// What a recorded run must leave after any crash.
struct History {
    /// Calls the load made: the states before it are not explored.
    start: usize,
    txns: Vec<Txn>,
}

/// Run [`HISTORY`] against a fresh deployment in `fs`. Returns what a
/// crash at any point must leave, and each live check that failed.
fn run(fs: &FakeFs) -> (History, Vec<String>) {
    let [p0, p1] = shard_paths();
    let shards = vec![
        DiskStore::create_in(fs, &p0, FRAMES).unwrap(),
        DiskStore::create_in(fs, &p1, FRAMES).unwrap(),
    ];
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let mut store = ShardedStore::new(shards, Placement::OidHash, "sharded-disk")
        .with_commit_log_in(vfs, Path::new(LOG))
        .unwrap();
    let db = TestDatabase::generate(&GenConfig::tiny());
    let report = load_database(&mut store, &db).unwrap();
    // A checkpoint of each shard, so that recovery of a crash state
    // redoes the history's transactions only.
    store.cold_restart().unwrap();
    let start = fs.trace_len();

    // Nodes by shard, in unique-id order: transaction n writes the n-th
    // of each.
    let mut on_shard: [Vec<(u64, Oid)>; 2] = [Vec::new(), Vec::new()];
    for (i, &oid) in report.oids.iter().enumerate() {
        on_shard[store.owner_of(oid).unwrap()].push((i as u64 + 1, oid));
    }
    let mut live = Vec::new();
    let mut txns: Vec<Txn> = Vec::new();
    let wals = [wal_path_for(&p0), wal_path_for(&p1)];
    for (n, &end) in HISTORY.iter().enumerate() {
        let value = 1000 + n as u32;
        let nodes = [on_shard[0][n], on_shard[1][n]];
        let before = nodes.map(|(_, oid)| store.hundred_of(oid).unwrap());
        for (_, oid) in nodes {
            store.set_hundred(oid, value).unwrap();
        }
        let since = fs.trace_len();
        let outcome = match end {
            End::Commit => store.commit(),
            End::NoVote(no) => {
                for (wal, _) in wals.iter().zip(no).filter(|(_, no)| *no) {
                    fs.fail_next_sync(wal);
                }
                store.commit()
            }
            End::PhaseTwoFailsThenRevive => {
                // The prepare's sync returns; phase two's fails. The
                // checkpoint runs in this commit, while shard 1 has not
                // acknowledged it.
                fs.fail_sync_after(&wals[1], 1);
                let records = fs.file(Path::new(LOG)).unwrap().len() / RECORD;
                store.set_checkpoint_interval(records + 1);
                store.commit()
            }
        };
        let decisions = decisions_since(fs, since);
        let context = format!("txn {n} ({end:?})");
        let [(txid, decision)] = decisions[..] else {
            panic!("{context}: decisions logged {decisions:?}");
        };
        let committed = decision == COMMIT;
        match (end, &outcome) {
            (End::NoVote(_), Err(_)) if !committed => {}
            (End::Commit | End::PhaseTwoFailsThenRevive, Ok(())) if committed => {}
            _ => live.push(format!("{context}: commit gave {outcome:?}")),
        }
        if end == End::PhaseTwoFailsThenRevive {
            if store.health() != [true, false] {
                live.push(format!("{context}: health {:?}", store.health()));
            }
            match store.commit_checkpoint() {
                Some(c) if c > 0 && c < txid => {}
                c => live.push(format!("{context}: log checkpointed through {c:?}")),
            }
            if let Err(e) = store.revive_shard(1) {
                live.push(format!("{context}: revive failed: {e}"));
            }
        }
        let want = if committed { [value; 2] } else { before };
        let got = nodes.map(|(_, oid)| store.hundred_of(oid).map_err(|e| e.to_string()));
        if got != want.map(Ok) {
            live.push(format!("{context}: hundred reads {got:?}, not {want:?}"));
        }
        txns.push(Txn {
            end,
            uids: nodes.map(|(uid, _)| uid),
            value,
            txid,
            committed,
        });
    }
    (History { start, txns }, live)
}

/// The transactions (bit `n` for transaction `n`) whose commit the
/// decision log's bytes `log` decide: a commit record, or, for one the
/// coordinator committed, a checkpoint at or past its id.
fn decided(log: &[u8], txns: &[Txn]) -> u64 {
    let mut commits = Vec::new();
    let mut checkpoint = 0;
    for record in log.chunks_exact(RECORD) {
        match record[8] {
            COMMIT => commits.push(txid_of(record)),
            CHECKPOINT => checkpoint = checkpoint.max(txid_of(record)),
            _ => {}
        }
    }
    let decides =
        |txn: &Txn| commits.contains(&txn.txid) || (txn.committed && txn.txid <= checkpoint);
    (txns.iter().enumerate())
        .filter(|(_, txn)| decides(txn))
        .fold(0, |mask, (n, _)| mask | 1 << n)
}

/// One shard's part of a crash state after recovery: the transactions the
/// shard holds, and those the part's decision log decides.
#[derive(Debug, Clone, Copy)]
struct Recovered {
    held: u64,
    decided: u64,
}

/// Whether `path` is one of shard `s`'s files or the decision log's.
fn in_part(s: usize, path: &Path) -> bool {
    let shard = Path::new(SHARD_FILES[s]);
    let log = Path::new(LOG);
    [shard, &wal_path_for(shard), log, &log.with_extension("tmp")].contains(&path)
}

/// Run `recover_sharded_in` on shard `s`'s part of a crash state, open
/// the shard and read what it holds of each transaction.
fn recover_shard(s: usize, files: Files, txns: &[Txn]) -> Result<Recovered, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let fs = FakeFs::with_files(files);
        let path = Path::new(SHARD_FILES[s]);
        let log = fs.file(Path::new(LOG)).unwrap_or_default();
        let recovered = recover_sharded_in(Arc::new(fs.clone()), &[path], Path::new(LOG));
        let mut shard = DiskStore::open_in(&fs, path, FRAMES)
            .map_err(|e| format!("shard {s} does not open ({e}); recovery gave {recovered:?}"))?;
        let mut held = 0;
        for (n, txn) in txns.iter().enumerate() {
            let read = shard
                .lookup_unique(txn.uids[s])
                .and_then(|oid| shard.hundred_of(oid))
                .map_err(|e| format!("shard {s}, txn {n}: {e}"))?;
            if read == txn.value {
                held |= 1 << n;
            }
        }
        Ok(Recovered {
            held,
            decided: decided(&log, txns),
        })
    }));
    outcome.unwrap_or_else(|_| Err(format!("shard {s}: panicked")))
}

/// How shard `s`'s recovered part differs from what its decision log
/// decides.
fn violations(s: usize, txns: &[Txn], part: Recovered) -> Vec<String> {
    let mut out = Vec::new();
    for (n, txn) in txns.iter().enumerate() {
        let what = format!("txn {n} ({:?}, txid {})", txn.end, txn.txid);
        match (part.held & 1 << n != 0, part.decided & 1 << n != 0) {
            (true, false) => out.push(format!(
                "{what} is on shard {s}, and the log holds no commit decision for it"
            )),
            (false, true) => out.push(format!(
                "{what} is not on shard {s}, and the log decides its commit"
            )),
            _ => {}
        }
    }
    out
}

/// Every crash state of one run of the history recovers to a state that
/// keeps every property. Returns the number of shard parts of crash
/// states judged, and of distinct ones recovered.
///
/// Recovery resolves each shard against the decision log alone, so what
/// a shard holds after it depends on the shard's own files and the log's
/// only. The explorer therefore rebuilds each shard's part of every crash
/// state — its files and the log's, from the calls on them — and requires
/// the shard to hold exactly the transactions that part's log decides to
/// commit. A crash state of the deployment is two such parts with the same
/// log, so every transaction is on both shards or on neither; one whose
/// decision's sync returned is decided in every variant of the log, so on
/// both; and one the log does not decide on neither.
fn explore() -> (usize, usize) {
    let fs = FakeFs::default();
    let (history, live) = run(&fs);
    let trace = fs.trace();
    let dump = || {
        trace[history.start..]
            .iter()
            .enumerate()
            .map(|(i, op)| format!("{:5} {}", history.start + i + 1, describe(op)))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(
        live.is_empty(),
        "the live deployment: {live:#?}\n{}",
        dump()
    );
    let (mut states, mut distinct) = (0, 0);
    for s in 0..2 {
        // The calls on the part's files, and where each is in the trace.
        let (calls, at): (Vec<Op>, Vec<usize>) = (trace.iter().enumerate())
            .filter(|(_, op)| in_part(s, op.path()))
            .map(|(i, op)| (op.clone(), i))
            .unzip();
        let start = at.iter().take_while(|&&i| i < history.start).count();
        let mut recovered: HashMap<Vec<FileState>, Result<Recovered, String>> = HashMap::new();
        crash_states(&calls, start, |prefix, state, build| {
            states += 1;
            let outcome = recovered
                .entry(state.to_vec())
                .or_insert_with(|| recover_shard(s, build(), &history.txns));
            let wrong = match outcome {
                Ok(part) => violations(s, &history.txns, *part),
                Err(e) => vec![e.clone()],
            };
            if !wrong.is_empty() {
                let files: Vec<String> = state
                    .iter()
                    .map(|f| format!("{}: {}", f.path.display(), f.variant))
                    .collect();
                panic!(
                    "prefix {} of {} calls ({}): {}\ntransactions: {:#?}\ntrace:\n{}",
                    at[prefix - 1] + 1,
                    trace.len(),
                    files.join(", "),
                    wrong.join("; "),
                    history.txns,
                    dump()
                );
            }
        });
        distinct += recovered.len();
    }
    (states, distinct)
}

/// One call of the trace, without the bytes it wrote.
fn describe(op: &Op) -> String {
    match op {
        Op::Write {
            path,
            offset,
            bytes,
        } => format!("write {} @{offset} +{}", path.display(), bytes.len()),
        Op::Read { path, offset, len } => format!("read {} @{offset} +{len}", path.display()),
        Op::SetLen { path, len } => format!("set_len {} {len}", path.display()),
        Op::Sync(p) => format!("sync {}", p.display()),
        Op::Create(p) => format!("create {}", p.display()),
        Op::Remove(p) => format!("remove {}", p.display()),
        Op::Rename { from, to } => format!("rename {} -> {}", from.display(), to.display()),
    }
}

#[test]
fn every_crash_state_recovers_each_transaction_on_both_shards_or_neither() {
    let t = Instant::now();
    let (states, distinct) = explore();
    eprintln!(
        "{states} shard parts of crash states, {distinct} distinct, {:?}",
        t.elapsed()
    );
}

/// Run `recover_sharded_in` on both shards of `files`, open them and read
/// `hundred` of the node with unique id `uids[s]` on shard `s`.
fn recovered_hundreds(files: Files, uids: [u64; 2]) -> [u32; 2] {
    let fs = FakeFs::with_files(files);
    let paths = shard_paths();
    let [p0, p1] = [paths[0].as_path(), paths[1].as_path()];
    recover_sharded_in(Arc::new(fs.clone()), &[p0, p1], Path::new(LOG)).unwrap();
    [(p0, uids[0]), (p1, uids[1])].map(|(path, uid)| {
        let mut shard = DiskStore::open_in(&fs, path, FRAMES).unwrap();
        let oid = shard.lookup_unique(uid).unwrap();
        shard.hundred_of(oid).unwrap()
    })
}

#[test]
fn a_failed_decision_record_leaves_every_shard_down_until_revived() {
    let fs = FakeFs::default();
    let [p0, p1] = shard_paths();
    let shards = vec![
        DiskStore::create_in(&fs, &p0, FRAMES).unwrap(),
        DiskStore::create_in(&fs, &p1, FRAMES).unwrap(),
    ];
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let mut store = ShardedStore::new(shards, Placement::OidHash, "sharded-disk")
        .with_commit_log_in(vfs, Path::new(LOG))
        .unwrap();
    let db = TestDatabase::generate(&GenConfig::tiny());
    let report = load_database(&mut store, &db).unwrap();
    store.cold_restart().unwrap();
    // The first node of each shard, with its unique id.
    let first_on = |s| {
        (report.oids.iter().enumerate())
            .find(|&(_, &oid)| store.owner_of(oid) == Some(s))
            .map(|(i, &oid)| (i as u64 + 1, oid))
            .unwrap()
    };
    let nodes = [first_on(0), first_on(1)];
    let uids = nodes.map(|(uid, _)| uid);

    for (_, oid) in nodes {
        store.set_hundred(oid, 4242).unwrap();
    }
    let log_len = || fs.file(Path::new(LOG)).unwrap().len();
    let before = log_len();
    fs.fail_next_sync(Path::new(LOG));
    assert!(store.commit().is_err(), "the decision was not made durable");
    assert_eq!(store.health(), [false, false], "every shard is prepared");
    let [a, b] = recovered_hundreds(fs.files(), uids);
    assert_eq!(
        a, b,
        "recovery puts the transaction on both shards or neither"
    );

    let since = fs.trace_len();
    for s in 0..2 {
        store.revive_shard(s).unwrap();
    }
    assert_eq!(store.health(), [true, true]);
    // The revival rewrites the decision and syncs it before either shard
    // writes its commit.
    let trace = fs.trace_since(since);
    let log_synced = trace
        .iter()
        .position(|op| matches!(op, Op::Sync(p) if p == Path::new(LOG)));
    let shard_wrote = (trace.iter())
        .position(|op| matches!(op, Op::Write { path, .. } if path != Path::new(LOG)));
    assert!(
        matches!((log_synced, shard_wrote), (Some(l), Some(w)) if l < w),
        "decision synced at {log_synced:?}, first shard write at {shard_wrote:?}"
    );
    for (_, oid) in nodes {
        assert_eq!(store.hundred_of(oid).unwrap(), 4242);
    }
    let log = fs.file(Path::new(LOG)).unwrap();
    assert_eq!(log.len(), before + RECORD, "one record, written in place");
    assert_eq!(log[before + 8], COMMIT);
    assert_eq!(recovered_hundreds(fs.files(), uids), [4242; 2]);

    // The shards left prepared no longer block a commit.
    for (_, oid) in nodes {
        store.set_hundred(oid, 4343).unwrap();
    }
    store.commit().unwrap();
    assert_eq!(log_len(), before + 2 * RECORD);
    assert_eq!(recovered_hundreds(fs.files(), uids), [4343; 2]);
}
