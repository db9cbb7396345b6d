//! Model test of delta logging and recovery, on files in memory
//! (`fake_fs`). Random transactions over a heap file and a B+Tree end in
//! a commit, a two-phase commit or abort, a checkpoint, a crash while
//! prepared, or a commit whose log sync fails and is retried, and after
//! each the database is compared with a shadow of the committed state.
//!
//! The crash explorer runs one seeded history of such transactions once
//! and records every file call it makes. It then rebuilds every set of
//! files a crash could have left at every point of that record — the
//! crash model of `storage::vfs`: per file, its synced prefix and its
//! unsynced calls kept, dropped or with the last write torn — opens each
//! with `Engine::open_in`, and requires the transactions whose marker's
//! sync returned, none whose marker was never written, and any of those
//! whose marker was written but not synced.
//!
//! Both run with a pool that holds the whole database and with one so
//! small that committed pages the file lacks are evicted, written and
//! read back. What they are after: a page's log records are deltas
//! against the page as the *log* last saw it, so any path on which the
//! engine's idea of that state (before-images, the imaged set) and the
//! log's contents drift apart shows up as a wrong byte after recovery.

mod fake_fs;

use fake_fs::{crash_states, FakeFs, FileState, Files, Op};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;
use storage::btree::{BTree, Key};
use storage::engine::{wal_path_for, Engine};
use storage::heap::{HeapFile, RecordId};
use storage::recovery::{resolve_in_doubt_in, RecoveryReport};
use storage::wal::{WalReader, WalRecord};
use storage::{PageId, Result, PAGE_SIZE};

const FRAMES: usize = 512;
/// A pool smaller than the database [`Db::add_ballast`] makes.
const SMALL_FRAMES: usize = 32;
/// Records of the ballast heap, 300 bytes each: about fifty pages.
const BALLAST: usize = 1200;
const KEYS: u64 = 1200;

type Shadow = BTreeMap<u64, Vec<u8>>;

/// Where the database lives in its [`FakeFs`].
fn db_path() -> PathBuf {
    PathBuf::from("model.db")
}

/// An engine with one heap file and one B+Tree (key → record id) on it,
/// and perhaps a ballast heap.
struct Db {
    engine: Engine,
    heap: HeapFile,
    tree: BTree,
    ballast: Option<HeapFile>,
}

/// What a database holds: every record by key, the heap's record count,
/// and whether the ballast, if there is one, is intact.
#[derive(Debug, PartialEq, Eq, Hash)]
struct Contents {
    records: Shadow,
    heap_len: usize,
    ballast: Option<bool>,
}

impl Contents {
    /// What a database whose committed state is `shadow` holds.
    fn of(shadow: &Shadow, ballast: bool) -> Contents {
        Contents {
            records: shadow.clone(),
            heap_len: shadow.len(),
            ballast: ballast.then_some(true),
        }
    }

    fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

impl Db {
    fn create(fs: &FakeFs, frames: usize) -> Db {
        let mut engine = Engine::create_in(fs, &db_path(), frames).unwrap();
        let heap = HeapFile::create(engine.pool()).unwrap();
        let tree = BTree::create(engine.pool()).unwrap();
        engine.catalog_set("heap", heap.first_page().0).unwrap();
        engine.catalog_set("tree", tree.root().0).unwrap();
        engine.commit().unwrap();
        Db {
            engine,
            heap,
            tree,
            ballast: None,
        }
    }

    /// Open after a close or a crash, and the recovery report.
    fn try_open(fs: &FakeFs, frames: usize) -> Result<(Db, RecoveryReport)> {
        let (engine, report) = Engine::open_in(fs, &db_path(), frames)?;
        let mut db = Db {
            engine,
            heap: HeapFile::open(PageId(0)),
            tree: BTree::open(PageId(0)),
            ballast: None,
        };
        db.reload_roots()?;
        Ok((db, report))
    }

    /// Open after a close or a crash; recovery must leave nothing in doubt.
    fn open(fs: &FakeFs, frames: usize) -> Db {
        let (db, report) = Db::try_open(fs, frames).unwrap();
        assert_eq!(report.in_doubt, None);
        db
    }

    /// Handles cache roots and hints; after an abort they are stale.
    fn reload_roots(&mut self) -> Result<()> {
        self.heap = HeapFile::open(PageId(self.engine.catalog_get("heap")?));
        self.tree = BTree::open(PageId(self.engine.catalog_get("tree")?));
        self.ballast = self
            .engine
            .catalog_try_get("ballast")?
            .map(|first| HeapFile::open(PageId(first)));
        Ok(())
    }

    /// A second heap of [`BALLAST`] records, a hundred per commit, that no
    /// edit writes and every [`Db::check`] reads: a pool smaller than the
    /// database then keeps evicting pages whose commits it has not
    /// written, while the edits' write sets stay as small as without it.
    fn add_ballast(&mut self) {
        let mut heap = HeapFile::create(self.engine.pool()).unwrap();
        self.engine
            .catalog_set("ballast", heap.first_page().0)
            .unwrap();
        for n in 0..BALLAST {
            heap.insert(self.engine.pool(), &ballast_record(n)).unwrap();
            if n % 100 == 99 {
                self.engine.commit().unwrap();
            }
        }
        self.engine.commit().unwrap();
        self.ballast = Some(heap);
    }

    fn put(&mut self, k: u64, data: &[u8]) {
        let key = Key::from_pair(k, 0);
        let pool = self.engine.pool();
        let rid = match self.tree.get(pool, key).unwrap() {
            Some(packed) => self
                .heap
                .update(pool, RecordId::unpack(packed), data)
                .unwrap(),
            None => self.heap.insert(pool, data).unwrap(),
        };
        self.tree.insert(pool, key, rid.pack()).unwrap();
        self.engine.catalog_set("tree", self.tree.root().0).unwrap();
    }

    fn delete(&mut self, k: u64) {
        let pool = self.engine.pool();
        if let Some(packed) = self.tree.delete(pool, Key::from_pair(k, 0)).unwrap() {
            self.heap.delete(pool, RecordId::unpack(packed)).unwrap();
        }
        self.engine.catalog_set("tree", self.tree.root().0).unwrap();
    }

    fn apply(&mut self, edit: &Edit, shadow: &mut Shadow) {
        match edit {
            Edit::Put(k, data) => {
                self.put(*k, data);
                shadow.insert(*k, data.clone());
            }
            Edit::Delete(k) => {
                self.delete(*k);
                shadow.remove(k);
            }
            Edit::PutRun(start, n) => {
                for k in *start..(*start + *n).min(KEYS) {
                    let data = k.to_le_bytes().to_vec();
                    self.put(k, &data);
                    shadow.insert(k, data);
                }
            }
            Edit::DeleteRun(start, n) => {
                for k in *start..(*start + *n).min(KEYS) {
                    self.delete(k);
                    shadow.remove(&k);
                }
            }
        }
    }

    /// Read the whole key space, the heap and the ballast.
    fn contents(&mut self) -> Result<Contents> {
        let pool = self.engine.pool();
        let mut records = Shadow::new();
        for (key, packed) in
            self.tree
                .range_vec(pool, Key::from_pair(0, 0), Key::from_pair(KEYS, 0))?
        {
            let data = self.heap.get(pool, RecordId::unpack(packed))?;
            records.insert(key.to_pair().0, data);
        }
        let heap_len = self.heap.len(pool)?;
        let ballast = match &self.ballast {
            None => None,
            Some(ballast) => {
                let mut n = 0;
                let mut intact = true;
                ballast.scan(pool, |_, data| {
                    intact &= data == ballast_record(n);
                    n += 1;
                    true
                })?;
                Some(intact && n == BALLAST)
            }
        };
        Ok(Contents {
            records,
            heap_len,
            ballast,
        })
    }

    /// The database holds `shadow`.
    fn check(&mut self, shadow: &Shadow, context: &str) {
        let want = Contents::of(shadow, self.ballast.is_some());
        let got = self.contents().unwrap();
        if got != want {
            panic!("{context}: {}", differences(&got, &want));
        }
    }
}

/// The first ways in which `got` is not `want`.
fn differences(got: &Contents, want: &Contents) -> String {
    let mut out = Vec::new();
    let keys = got.records.keys().chain(want.records.keys());
    for k in keys.collect::<std::collections::BTreeSet<_>>() {
        let (g, w) = (got.records.get(k), want.records.get(k));
        let record =
            |r: Option<&Vec<u8>>| r.map_or("nothing".into(), |r| format!("{} bytes", r.len()));
        if g != w && out.len() < 3 {
            out.push(format!("key {k} holds {}, not {}", record(g), record(w)));
        }
    }
    if got.heap_len != want.heap_len {
        out.push(format!(
            "{} heap records, not {}",
            got.heap_len, want.heap_len
        ));
    }
    if got.ballast != want.ballast {
        out.push(format!("ballast {:?}", got.ballast));
    }
    out.join("; ")
}

fn ballast_record(n: usize) -> Vec<u8> {
    vec![n as u8; 300]
}

#[derive(Debug, Clone)]
enum Edit {
    Put(u64, Vec<u8>),
    Delete(u64),
    /// Many small records in key order: enough to split B+Tree leaves.
    PutRun(u64, u64),
    /// Their removal: merges, borrows, pages back on the free list.
    DeleteRun(u64, u64),
}

/// How a transaction ends.
#[derive(Debug, Clone)]
enum End {
    Commit,
    TwoPhase {
        commit: bool,
    },
    CommitThenCheckpoint,
    /// Crash while prepared; the coordinator decides afterwards.
    CrashPrepared {
        commit: bool,
    },
    /// The commit's log sync fails, and the commit is retried.
    SyncFailsThenCommit,
}

fn arb_data() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        8 => proptest::collection::vec(any::<u8>(), 0..120),
        // Overflow chains: pages allocated, and freed again on update.
        1 => proptest::collection::vec(any::<u8>(), 2500..6000),
    ]
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        8 => (0..KEYS, arb_data()).prop_map(|(k, d)| Edit::Put(k, d)),
        4 => (0..KEYS).prop_map(Edit::Delete),
        1 => (0..KEYS, 100u64..500).prop_map(|(s, n)| Edit::PutRun(s, n)),
        1 => (0..KEYS, 100u64..500).prop_map(|(s, n)| Edit::DeleteRun(s, n)),
    ]
}

fn arb_end() -> impl Strategy<Value = End> {
    prop_oneof![
        6 => Just(End::Commit),
        2 => any::<bool>().prop_map(|commit| End::TwoPhase { commit }),
        1 => Just(End::CommitThenCheckpoint),
        1 => any::<bool>().prop_map(|commit| End::CrashPrepared { commit }),
        1 => Just(End::SyncFailsThenCommit),
    ]
}

/// A transaction the files may hold after a crash.
struct Candidate {
    /// The committed state with it, and its [`Contents`] digest.
    shadow: Shadow,
    digest: u64,
    /// The call that wrote its marker.
    written: usize,
    /// The call that synced its marker, if that returned.
    synced: Option<usize>,
}

/// What the crash states of a recorded run must hold.
struct History {
    /// Calls the set-up made: the states before it are not the database's.
    start: usize,
    ballast: bool,
    /// In the order their markers were written, after the committed state
    /// at `start`, which is durable from the first.
    candidates: Vec<Candidate>,
    /// The digest of the state each prepared transaction commits, by id.
    prepared: HashMap<u64, u64>,
}

impl History {
    fn digest(&self, shadow: &Shadow) -> u64 {
        Contents::of(shadow, self.ballast).digest()
    }

    fn prepare(&mut self, txid: u64, shadow: &Shadow) {
        self.prepared.insert(txid, self.digest(shadow));
    }

    /// Take the last write to the log among the calls from `since` on as
    /// the marker of a transaction whose committed state is `shadow` and,
    /// when `synced`, the log's next sync as the one that made it durable.
    fn marker(&mut self, fs: &FakeFs, since: usize, shadow: &Shadow, synced: bool) {
        let wal = wal_path_for(&db_path());
        let calls = fs.trace_since(since);
        let on_log = |op: &&Op| op.path() == wal;
        let Some(written) = calls
            .iter()
            .rposition(|op| on_log(&op) && matches!(op, Op::Write { .. }))
        else {
            return; // nothing was dirty: no marker
        };
        let synced = synced.then(|| {
            let after = calls[written..]
                .iter()
                .position(|op| on_log(&op) && matches!(op, Op::Sync(_)));
            since + written + after.expect("a commit that returned synced its marker")
        });
        self.candidates.push(Candidate {
            shadow: shadow.clone(),
            digest: self.digest(shadow),
            written: since + written,
            synced,
        });
    }

    /// The states the database may be in after the first `prefix` calls:
    /// the last durable one first, then any whose marker is written but
    /// not durable.
    fn allowed(&self, prefix: usize) -> Vec<&Candidate> {
        let mut out = Vec::new();
        for c in &self.candidates {
            if c.synced.is_some_and(|s| s < prefix) {
                out = vec![c];
            } else if c.written < prefix {
                out.push(c);
            }
        }
        out
    }
}

/// A run of `txns` against a fresh database in `fs` with a pool of
/// `frames`: the database, its committed shadow, what a crash at any point
/// of it must leave, and each transaction at which the database did not
/// hold its shadow.
fn run(
    fs: &FakeFs,
    frames: usize,
    txns: &[(Vec<Edit>, End)],
) -> (Db, Shadow, History, Vec<String>) {
    let path = db_path();
    let wal = wal_path_for(&path);
    let ballast = frames < FRAMES;
    let mut db = Db::create(fs, frames);
    if ballast {
        db.add_ballast();
    }
    let mut history = History {
        start: fs.trace_len(),
        ballast,
        candidates: vec![Candidate {
            shadow: Shadow::new(),
            digest: Contents::of(&Shadow::new(), ballast).digest(),
            written: 0,
            synced: Some(0),
        }],
        prepared: HashMap::new(),
    };
    let mut committed = Shadow::new();
    let mut live = Vec::new();
    for (n, (edits, end)) in txns.iter().enumerate() {
        let context = format!("{frames} frames, txn {n} ended by {end:?}");
        let mut working = committed.clone();
        for edit in edits {
            db.apply(edit, &mut working);
        }
        let txid = 1000 + n as u64;
        let since = fs.trace_len();
        match end {
            End::Commit | End::CommitThenCheckpoint => {
                db.engine.commit().unwrap();
                history.marker(fs, since, &working, true);
                if matches!(end, End::CommitThenCheckpoint) {
                    db.engine.checkpoint().unwrap();
                }
                committed = working;
            }
            End::TwoPhase { commit } => {
                db.engine.prepare(txid).unwrap();
                history.prepare(txid, &working);
                let since = fs.trace_len();
                if *commit {
                    db.engine.commit_prepared(txid).unwrap();
                    history.marker(fs, since, &working, true);
                    committed = working;
                } else {
                    db.engine.abort_prepared(txid).unwrap();
                    db.reload_roots().unwrap();
                }
            }
            End::CrashPrepared { commit } => {
                db.engine.prepare(txid).unwrap();
                history.prepare(txid, &working);
                drop(db);
                let (_, report) = Engine::open_in(fs, &path, frames).unwrap();
                assert_eq!(report.in_doubt, Some(txid), "{context}");
                let since = fs.trace_len();
                resolve_in_doubt_in(fs, &path, &wal, txid, *commit).unwrap();
                if *commit {
                    history.marker(fs, since, &working, true);
                    committed = working;
                }
                db = Db::open(fs, frames);
            }
            End::SyncFailsThenCommit => {
                // A changed page, so that the commit reaches the sync.
                db.engine.catalog_set("failed sync", txid).unwrap();
                fs.fail_next_sync(&wal);
                assert!(db.engine.commit().is_err(), "{context}");
                history.marker(fs, since, &working, false);
                let since = fs.trace_len();
                db.engine.commit().unwrap();
                history.marker(fs, since, &working, true);
                committed = working;
            }
        }
        let want = Contents::of(&committed, history.ballast);
        let got = db.contents().unwrap();
        if got != want {
            live.push(format!("{context}: {}", differences(&got, &want)));
        }
    }
    (db, committed, history, live)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn reopened_file_equals_the_committed_shadow(
        txns in proptest::collection::vec(
            (proptest::collection::vec(arb_edit(), 0..12), arb_end()),
            1..24,
        ),
    ) {
        for frames in [FRAMES, SMALL_FRAMES] {
            let fs = FakeFs::default();
            let (db, committed, _, live) = run(&fs, frames, &txns);
            assert_eq!(live, Vec::<String>::new());
            drop(db);
            Db::open(&fs, frames).check(&committed, &format!("{frames} frames, reopened"));
        }
    }
}

// ---- the crash explorer --------------------------------------------------

/// What opening one crash state gave: the digest of its [`Contents`]; for
/// a transaction left in doubt, that after committing it and after
/// aborting it; or why it failed.
#[derive(Debug, Clone)]
enum Outcome {
    Open(u64),
    InDoubt { txid: u64, commit: u64, abort: u64 },
    Failed(String),
}

/// Opens crash states and reads them.
#[derive(Default)]
struct Opener {
    /// The files recovery left last time, and the digest read from them:
    /// most states differ only in how much of an uncommitted tail the log
    /// holds, and recover to the same files.
    last: Option<(Files, u64)>,
}

impl Opener {
    /// Open the database in `fs` and digest what it holds; and the
    /// transaction recovery left in doubt, if any. Reading writes nothing,
    /// so the pool is the large one whatever pool the history ran with.
    fn read(&mut self, fs: &FakeFs) -> std::result::Result<(u64, Option<u64>), String> {
        let (mut db, report) = Db::try_open(fs, FRAMES).map_err(|e| e.to_string())?;
        let digest = match &self.last {
            Some((files, digest)) if fs.holds(files) => *digest,
            _ => {
                let digest = db.contents().map_err(|e| e.to_string())?.digest();
                self.last = Some((fs.files(), digest));
                digest
            }
        };
        Ok((digest, report.in_doubt))
    }

    /// Open the database in `files` and read it, resolving a transaction
    /// left in doubt both ways.
    fn open(&mut self, files: Files) -> Outcome {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let fs = FakeFs::with_files(files);
            let (digest, in_doubt) = self.read(&fs)?;
            let Some(txid) = in_doubt else {
                return Ok(Outcome::Open(digest));
            };
            // Recovery left the files as it found them but for redone
            // pages, and may run again: resolve from there.
            let recovered = fs.files();
            let mut decided = [0; 2];
            for (slot, commit) in decided.iter_mut().zip([true, false]) {
                let fs = FakeFs::with_files(recovered.clone());
                let (path, wal) = (db_path(), wal_path_for(&db_path()));
                resolve_in_doubt_in(&fs, &path, &wal, txid, commit).map_err(|e| e.to_string())?;
                *slot = self.read(&fs)?.0;
            }
            Ok(Outcome::InDoubt {
                txid,
                commit: decided[0],
                abort: decided[1],
            })
        }));
        match outcome {
            Ok(Ok(outcome)) => outcome,
            Ok(Err(e)) => Outcome::Failed(e),
            Err(_) => Outcome::Failed("panicked".into()),
        }
    }
}

/// The seeded history the explorer runs: random edits, and every way a
/// transaction can end.
fn explorer_history(seed: u64) -> Vec<(Vec<Edit>, End)> {
    let mut rng = TestRng::deterministic(&format!("crash explorer {seed}"));
    let edits = proptest::collection::vec(arb_edit(), 1..6);
    [
        End::Commit,
        End::TwoPhase { commit: true },
        End::Commit,
        End::TwoPhase { commit: false },
        End::CommitThenCheckpoint,
        End::CrashPrepared { commit: true },
        End::SyncFailsThenCommit,
        End::Commit,
        End::CrashPrepared { commit: false },
        End::Commit,
    ]
    .into_iter()
    .map(|end| (edits.sample(&mut rng), end))
    .collect()
}

/// Every crash state of the seeded history at `frames` opens to a state
/// [`History::allowed`] permits. Returns the number of states and of
/// distinct ones opened.
fn explore(seed: u64, frames: usize) -> (usize, usize) {
    let txns = explorer_history(seed);
    let fs = FakeFs::default();
    let (db, _, history, live) = run(&fs, frames, &txns);
    drop(db);
    let trace = fs.trace();
    let mut opener = Opener::default();
    let mut opened: HashMap<Vec<FileState>, Outcome> = HashMap::new();
    let mut states = 0;
    crash_states(&trace, history.start, |prefix, state, build| {
        states += 1;
        let outcome = opened
            .entry(state.to_vec())
            .or_insert_with(|| opener.open(build()));
        let allowed = history.allowed(prefix);
        let fine = match outcome {
            Outcome::Open(d) => allowed.iter().any(|c| c.digest == *d),
            // Committed, it is the prepared state; aborted, the durable one.
            Outcome::InDoubt {
                txid,
                commit,
                abort,
            } => history.prepared.get(txid) == Some(commit) && *abort == allowed[0].digest,
            Outcome::Failed(_) => false,
        };
        if !fine {
            let files: Vec<String> = state
                .iter()
                .map(|f| format!("{}: {}", f.path.display(), f.variant))
                .collect();
            let what = match outcome {
                Outcome::Failed(e) => format!("opening failed: {e}"),
                Outcome::InDoubt { txid, .. } => format!("transaction {txid} resolves wrongly"),
                Outcome::Open(_) => {
                    let (mut db, _) = Db::try_open(&FakeFs::with_files(build()), FRAMES).unwrap();
                    let durable = Contents::of(&allowed[0].shadow, history.ballast);
                    format!(
                        "none of {} allowed states; against the durable one, {}",
                        allowed.len(),
                        differences(&db.contents().unwrap(), &durable)
                    )
                }
            };
            panic!(
                "seed {seed}, {frames} frames, prefix {prefix} of {} calls ({}): {what}",
                trace.len(),
                files.join(", "),
            );
        }
    });
    assert_eq!(live, Vec::<String>::new(), "seed {seed}: the live database");
    (states, opened.len())
}

/// The seed of the explorer's history.
const SEED: u64 = 47;

fn explore_and_report(frames: usize) {
    let t = Instant::now();
    let (states, distinct) = explore(SEED, frames);
    eprintln!(
        "seed {SEED}, {frames} frames: {states} crash states, {distinct} distinct, {:?}",
        t.elapsed()
    );
}

#[test]
fn every_crash_state_opens_to_a_committed_prefix() {
    explore_and_report(FRAMES);
}

#[test]
fn every_crash_state_opens_to_a_committed_prefix_with_eviction() {
    explore_and_report(SMALL_FRAMES);
}

// ---- targeted cases --------------------------------------------------------

/// `(page, zero_based)` of every delta record in the log, in order.
fn logged_deltas(fs: &FakeFs) -> Vec<(u64, bool)> {
    let mut reader = WalReader::open(fs, &wal_path_for(&db_path())).unwrap();
    let mut out = Vec::new();
    while let Some(record) = reader.next_record().unwrap() {
        if let WalRecord::PageDelta(d) = record {
            out.push((d.page_id.0, d.zero_based));
        }
    }
    out
}

#[test]
fn a_failed_log_sync_fails_the_commit_and_the_retry_logs_whole_pages() {
    let fs = FakeFs::default();
    let wal = wal_path_for(&db_path());
    let mut db = Db::create(&fs, FRAMES);
    let mut shadow = Shadow::new();
    db.apply(&Edit::Put(1, vec![1; 40]), &mut shadow);
    db.engine.commit().unwrap();
    db.apply(&Edit::Put(1, vec![2; 40]), &mut shadow);
    db.engine.commit().unwrap();
    let logged = logged_deltas(&fs).len();
    // The page is imaged, so this change is a delta ... until the sync
    // fails.
    db.apply(&Edit::Put(1, vec![3; 40]), &mut shadow);
    fs.fail_next_sync(&wal);
    assert!(db.engine.commit().is_err());
    assert_eq!(
        logged_deltas(&fs).len(),
        logged,
        "cut back to the last sync"
    );
    db.engine.commit().unwrap();
    let retried = &logged_deltas(&fs)[logged..];
    assert!(!retried.is_empty());
    assert!(
        retried.iter().all(|&(_, zero_based)| zero_based),
        "{retried:?}"
    );
    // After the retry, each page is a delta again.
    db.apply(&Edit::Put(1, vec![4; 40]), &mut shadow);
    db.engine.commit().unwrap();
    let after = &logged_deltas(&fs)[logged + retried.len()..];
    assert!(
        after.iter().all(|&(_, zero_based)| !zero_based),
        "{after:?}"
    );
    drop(db);
    Db::open(&fs, FRAMES).check(&shadow, "reopened");
}

/// A committed database with pages on its free list, then a transaction
/// that needs more pages than the list holds, prepared after its new pages
/// reached the file and lost in a crash. Reopened and aborted by the
/// coordinator, the database is the committed one: same catalog, same free
/// list, and once the list is used up the next page allocated lies past
/// the leaked ones.
#[test]
fn a_prepared_transaction_that_grew_the_file_aborts_after_a_crash() {
    let fs = FakeFs::default();
    let path = db_path();
    let mut db = Db::create(&fs, FRAMES);
    let mut committed = Shadow::new();
    for k in 0..20 {
        db.apply(&Edit::Put(k, vec![k as u8; 6000]), &mut committed);
    }
    db.apply(&Edit::PutRun(100, 300), &mut committed);
    db.engine.commit().unwrap();
    for k in 0..10 {
        db.apply(&Edit::Delete(k), &mut committed);
    }
    db.engine.commit().unwrap();
    let catalog = |db: &mut Db| {
        let e = &mut db.engine;
        (
            e.catalog_get("heap").unwrap(),
            e.catalog_get("tree").unwrap(),
        )
    };
    let roots = catalog(&mut db);
    let free = db.engine.pool().free_page_count().unwrap();
    assert!(free > 0, "the deletes freed overflow pages");
    let end = db.engine.pool_ref().disk().page_count();

    let mut working = committed.clone();
    for k in 500..540 {
        db.apply(&Edit::Put(k, vec![k as u8; 6000]), &mut working);
    }
    assert!(db.engine.pool_ref().disk().page_count() > end + 10);
    db.engine.prepare(77).unwrap();
    drop(db);
    let wal = wal_path_for(&path);
    resolve_in_doubt_in(&fs, &path, &wal, 77, false).unwrap();
    let file = fs.file(&path).unwrap();
    let leaked_end = (file.len() / PAGE_SIZE) as u64;
    assert!(leaked_end > end + 10);
    let leaked = &file[end as usize * PAGE_SIZE..];
    assert!(
        leaked.chunks(PAGE_SIZE).all(|p| p.iter().any(|&b| b != 0)),
        "every new page reached the file"
    );

    let mut db = Db::open(&fs, FRAMES);
    db.check(&committed, "aborted");
    assert_eq!(catalog(&mut db), roots);
    let pool = db.engine.pool();
    assert_eq!(pool.free_page_count().unwrap(), free);
    for _ in 0..free {
        assert!(pool.allocate().unwrap().0 .0 < end, "from the free list");
    }
    assert_eq!(pool.allocate().unwrap().0, PageId(leaked_end));
}
