//! The commit coordinator: the two-phase protocol, its durable state
//! (the decision log), and recovery of a sharded deployment from disk
//! after a crash.
//!
//! `Coordinator` runs a sharded store's commit. With a decision log
//! attached it is two-phase: prepare everywhere through the ordinary
//! fan-out (`scatter`: the first shard on the caller, the others on
//! their workers, so disk shards overlap their fsyncs), durably record
//! the decision, then tell every shard to finish. Both rounds are
//! joined in full. The fsynced decision record is the commit point —
//! once it is on disk, recovery completes the transaction even if every
//! later message is lost. Without a log every shard commits
//! independently (not crash-atomic across shards).
//!
//! Two-phase commit needs exactly one durable bit per transaction — the
//! coordinator's decision. [`CommitLog`] stores it: an append-only file
//! of `(txid, decision)` records, fsynced before any participant is told
//! to commit. The protocol is **presumed abort**: a prepared participant
//! that finds *no* decision for its transaction aborts, so only commit
//! decisions are strictly required; abort decisions are logged too for
//! operator clarity.
//!
//! There is no prepare deadline. An in-process shard cannot hang short
//! of a bug, and a remote shard waits as long as its transport lets it
//! (`server::client::RetryPolicy::request_timeout`), the rule for every
//! other shard call too; a prepare that times out there is a transient
//! error, so a vote to abort.
//!
//! Without bound, the log grows one record per transaction forever.
//! [`CommitLog::checkpoint`] truncates it: once every shard has
//! acknowledged phase two for a txid, no participant can ever again be
//! in doubt about that txid or any earlier one, so those records are
//! replaced by a single checkpoint marker (write-new-then-rename, like
//! the storage layer's compaction).
//!
//! [`recover_sharded`] reopens a crashed deployment's shard files,
//! resolves every in-doubt participant against the log, and reports what
//! it decided — the sharded analogue of `storage::recovery::recover`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use exec::{ExecError, ShardExecutor};
use hypermodel::error::{HmError, Result};
use hypermodel::store::HyperStore;
use storage::vfs::{OpenMode, OsFs, Vfs, VfsFile};

use crate::store::{note_exec, scatter};

/// On-disk record size: 8-byte little-endian txid + 1 decision byte.
const RECORD: usize = 9;
const DECIDE_COMMIT: u8 = 0xC1;
const DECIDE_ABORT: u8 = 0xA0;
/// Checkpoint marker: every txid at or below this record's txid has been
/// acknowledged by all shards, and its decision records were dropped.
const DECIDE_CHECKPOINT: u8 = 0xCC;

fn encode(txid: u64, decision: u8) -> [u8; RECORD] {
    let mut rec = [0u8; RECORD];
    rec[..8].copy_from_slice(&txid.to_le_bytes());
    rec[8] = decision;
    rec
}

fn decision_byte(commit: bool) -> u8 {
    if commit {
        DECIDE_COMMIT
    } else {
        DECIDE_ABORT
    }
}

/// An I/O failure of the log, as the benchmark's error type.
fn log_error(what: &'static str) -> impl FnOnce(std::io::Error) -> HmError {
    move |e| HmError::Backend(format!("{what}: {e}"))
}

/// The coordinator's append-only decision log.
///
/// Every file operation goes through a [`Vfs`] ([`OsFs`] unless opened
/// with [`CommitLog::open_in`]), so the crash model of `storage::vfs`
/// holds for it as for a shard's own files. Records are fsynced on
/// append; a torn trailing record (crash mid-write) is ignored on open,
/// exactly like the WAL's torn-tail rule, and the next append overwrites
/// it.
pub struct CommitLog {
    fs: Arc<dyn Vfs>,
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Where the next record goes: the end of the last whole one.
    end: u64,
    decisions: Vec<(u64, bool)>,
    /// All decisions at or below this txid were checkpointed away.
    checkpoint: u64,
}

impl CommitLog {
    /// Open (or create) the decision log at `path`.
    pub fn open(path: &Path) -> Result<CommitLog> {
        CommitLog::open_in(Arc::new(OsFs), path)
    }

    /// [`CommitLog::open`] for a log in `fs`.
    pub fn open_in(fs: Arc<dyn Vfs>, path: &Path) -> Result<CommitLog> {
        let file = fs
            .open(path, OpenMode::Create)
            .map_err(|e| HmError::Backend(format!("open commit log {}: {e}", path.display())))?;
        let len = file.size().map_err(log_error("read commit log"))?;
        let mut bytes = vec![0; len as usize];
        file.read_exact_at(&mut bytes, 0)
            .map_err(log_error("read commit log"))?;
        let mut decisions = Vec::new();
        let mut checkpoint = 0u64;
        for rec in bytes.chunks_exact(RECORD) {
            let mut txid_bytes = [0u8; 8];
            txid_bytes.copy_from_slice(&rec[..8]);
            let txid = u64::from_le_bytes(txid_bytes);
            match rec[8] {
                DECIDE_COMMIT => decisions.push((txid, true)),
                DECIDE_ABORT => decisions.push((txid, false)),
                DECIDE_CHECKPOINT => checkpoint = checkpoint.max(txid),
                other => {
                    return Err(HmError::Backend(format!(
                        "commit log corrupt: decision byte {other:#x}"
                    )));
                }
            }
        }
        // chunks_exact drops a torn tail silently — that is the torn-tail
        // convention: a decision is only a decision once fully on disk.
        decisions.retain(|(t, _)| *t > checkpoint);
        Ok(CommitLog {
            fs,
            file,
            path: path.to_path_buf(),
            end: (bytes.len() - bytes.len() % RECORD) as u64,
            decisions,
            checkpoint,
        })
    }

    /// Durably record a decision for `txid`. Returns after fsync: once
    /// this returns, the decision survives any crash.
    pub fn record(&mut self, txid: u64, commit: bool) -> Result<()> {
        let rec = encode(txid, decision_byte(commit));
        self.file
            .write_all_at(&rec, self.end)
            .and_then(|_| self.file.sync_data())
            .map_err(log_error("append commit log"))?;
        self.end += RECORD as u64;
        self.decisions.push((txid, commit));
        Ok(())
    }

    /// The recorded decision for `txid`, if any. `None` means the
    /// coordinator never decided — presumed abort.
    ///
    /// Checkpointed transactions also answer `None`: by the checkpoint
    /// invariant every shard finished phase two for them, so no
    /// participant can ask about them again, and presumed abort never
    /// re-fires for a completed transaction.
    pub fn decision_for(&self, txid: u64) -> Option<bool> {
        self.decisions
            .iter()
            .rev()
            .find(|(t, _)| *t == txid)
            .map(|(_, d)| *d)
    }

    /// A transaction id strictly greater than every recorded one.
    pub fn next_txid(&self) -> u64 {
        self.decisions
            .iter()
            .map(|(t, _)| *t)
            .max()
            .unwrap_or(0)
            .max(self.checkpoint)
            + 1
    }

    /// Decision records currently held (excludes checkpointed ones).
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// True when no decision records are held.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// The highest txid truncated away by a checkpoint (0 = none yet).
    pub fn checkpointed_through(&self) -> u64 {
        self.checkpoint
    }

    /// Truncate the log through `up_to`: drop every decision record with
    /// `txid <= up_to`, keeping a single checkpoint marker in their
    /// place. **Caller contract**: every shard must have acknowledged
    /// phase two for every transaction at or below `up_to` — after that,
    /// no participant can be in doubt about those txids, so their
    /// records are dead weight.
    ///
    /// Crash-safe via write-new-then-rename: the log is rewritten to a
    /// temporary file (checkpoint marker first, surviving records
    /// after), fsynced, then renamed over the old file by [`Vfs::rename`],
    /// which is durable when it returns, before the log is reopened. A
    /// crash at any point leaves either the old complete log or the new
    /// complete log, and a decision recorded after this returns is never
    /// in a file the directory may not name.
    pub fn checkpoint(&mut self, up_to: u64) -> Result<()> {
        if up_to <= self.checkpoint {
            return Ok(());
        }
        let keep: Vec<(u64, bool)> = self
            .decisions
            .iter()
            .copied()
            .filter(|(t, _)| *t > up_to)
            .collect();
        let mut bytes = Vec::with_capacity((keep.len() + 1) * RECORD);
        bytes.extend_from_slice(&encode(up_to, DECIDE_CHECKPOINT));
        for &(txid, commit) in &keep {
            bytes.extend_from_slice(&encode(txid, decision_byte(commit)));
        }
        let tmp_path = self.path.with_extension("tmp");
        // A checkpoint a crash cut short may have left its file behind.
        let _ = self.fs.remove(&tmp_path);
        let tmp = self
            .fs
            .open(&tmp_path, OpenMode::CreateNew)
            .map_err(log_error("checkpoint commit log (tmp)"))?;
        tmp.write_all_at(&bytes, 0)
            .and_then(|_| tmp.sync_data())
            .map_err(log_error("checkpoint commit log (write)"))?;
        drop(tmp);
        self.fs
            .rename(&tmp_path, &self.path)
            .map_err(log_error("checkpoint commit log (rename)"))?;
        self.file = self
            .fs
            .open(&self.path, OpenMode::Write)
            .map_err(log_error("checkpoint commit log (reopen)"))?;
        self.end = bytes.len() as u64;
        self.decisions = keep;
        self.checkpoint = up_to;
        Ok(())
    }
}

impl std::fmt::Debug for CommitLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitLog")
            .field("path", &self.path)
            .field("decisions", &self.decisions.len())
            .field("checkpoint", &self.checkpoint)
            .finish()
    }
}

/// Checkpoint the commit log once it holds this many decision records.
const DEFAULT_CHECKPOINT_AFTER: usize = 64;

/// The commit protocol of one sharded deployment.
#[derive(Debug)]
pub(crate) struct Coordinator {
    /// `None` = single-phase: every shard commits independently.
    log: Option<CommitLog>,
    next_txid: u64,
    /// Cross-shard transactions aborted in phase one so far.
    pub(crate) aborts: u64,
    /// Checkpoint the log once it holds this many records.
    pub(crate) checkpoint_after: usize,
    /// Highest txid each shard acknowledged in phase two. The log may
    /// safely drop decisions at or below `min(acked)`: every shard is
    /// past them, so none can ever be in doubt about them again.
    acked: Vec<u64>,
    /// Per shard, the commit decision phase two failed to deliver: the
    /// shard is still prepared, and stays out until it is delivered.
    undelivered: Vec<Option<u64>>,
}

impl Coordinator {
    pub(crate) fn new(shards: usize) -> Coordinator {
        Coordinator {
            log: None,
            next_txid: 1,
            aborts: 0,
            checkpoint_after: DEFAULT_CHECKPOINT_AFTER,
            acked: vec![0; shards],
            undelivered: vec![None; shards],
        }
    }

    /// Make commits two-phase, decisions recorded in `log`.
    pub(crate) fn attach(&mut self, log: CommitLog) {
        self.next_txid = log.next_txid();
        self.log = Some(log);
    }

    pub(crate) fn log(&self) -> Option<&CommitLog> {
        self.log.as_ref()
    }

    /// Commit every shard of `exec` (the caller checked they are all
    /// alive), marking in `health` the ones that stop answering.
    pub(crate) fn commit<S: HyperStore + Send + 'static>(
        &mut self,
        exec: &ShardExecutor<S>,
        health: &mut [bool],
    ) -> Result<()> {
        let everyone = || vec![Some(()); exec.shard_count()];
        let Some(log) = self.log.as_mut() else {
            let done = scatter(exec, everyone(), |sh, ()| sh.commit());
            for (s, r) in done.into_iter().flatten().enumerate() {
                note_exec(health, s, r)?;
            }
            return Ok(());
        };
        let txid = self.next_txid;
        self.next_txid += 1;
        obs::incr("shard.2pc.prepared", 1);
        // Every shard is prepared even after a no vote: a shard never
        // prepared would keep its staged changes into the next commit.
        let prepared: Vec<_> = scatter(exec, everyone(), move |sh, ()| sh.prepare_commit(txid))
            .into_iter()
            .flatten()
            .collect();
        if !prepared.iter().all(|r| matches!(r, Ok(Ok(())))) {
            self.aborts += 1;
            obs::incr("shard.2pc.aborted", 1);
            // The abort record is best-effort: presumed abort means an
            // absent decision already reads as "abort" during recovery.
            let _ = log.record(txid, false);
            let mut first = None;
            for (s, r) in prepared.into_iter().enumerate() {
                if matches!(r, Ok(Ok(()))) {
                    // Voted yes: roll this shard back.
                    let _ = note_exec(health, s, exec.run_here(s, |sh| sh.abort_prepared(txid)));
                    continue;
                }
                if let Err(e) = note_exec(health, s, r) {
                    first.get_or_insert(e);
                }
            }
            return Err(first.unwrap_or_else(|| {
                HmError::Backend("prepare failed but no shard reported an error".into())
            }));
        }
        // A decision that is not known to be durable is a phase two that
        // failed on every shard: each stays prepared and down until
        // `deliver` records the decision again and finishes it there.
        if let Err(e) = log.record(txid, true) {
            health.fill(false);
            self.undelivered.fill(Some(txid));
            return Err(e);
        }
        obs::incr("shard.2pc.committed", 1);
        // Phase two: a failure here only marks the shard down, whatever
        // the error — the decision is durable, so the commit stands, and
        // the shard finishes it when it is revived (`deliver`) or
        // recovered from its files.
        let done = scatter(exec, everyone(), move |sh, ()| sh.commit_prepared(txid));
        for (s, r) in done.into_iter().flatten().enumerate() {
            if note_exec(health, s, r).is_ok() {
                self.acked[s] = txid;
            } else {
                health[s] = false;
                self.undelivered[s] = Some(txid);
            }
        }
        // Once the log has grown past the checkpoint interval, drop every
        // decision all shards have acknowledged. Best-effort: a failed
        // checkpoint leaves the old (longer, still correct) log in place.
        let min_acked = self.acked.iter().copied().min().unwrap_or(0);
        if min_acked > 0 && log.len() >= self.checkpoint_after {
            let _ = log.checkpoint(min_acked);
        }
        Ok(())
    }

    /// Finish phase two on `shard` for the decision it missed, if any:
    /// the step [`crate::ShardedStore::revive_shard`] takes before it
    /// re-admits the shard. A decision whose record failed is recorded
    /// first (at the offset the failed record was written to), so no
    /// shard commits before the decision is durable.
    pub(crate) fn deliver<S: HyperStore + Send + 'static>(
        &mut self,
        exec: &ShardExecutor<S>,
        shard: usize,
    ) -> Result<()> {
        let Some(txid) = self.undelivered.get(shard).copied().flatten() else {
            return Ok(());
        };
        if let Some(log) = self.log.as_mut() {
            if log.decision_for(txid) != Some(true) {
                log.record(txid, true)?;
            }
        }
        exec.run_here(shard, |sh| sh.commit_prepared(txid))
            .map_err(ExecError::into_hm)??;
        self.undelivered[shard] = None;
        self.acked[shard] = txid;
        Ok(())
    }
}

/// What [`recover_sharded`] did for one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardResolution {
    /// Which shard (index into the path slice).
    pub shard: usize,
    /// The in-doubt transaction that was resolved.
    pub txid: u64,
    /// The decision applied: `true` = committed, `false` = aborted.
    pub committed: bool,
}

/// Resolve every in-doubt shard of a crashed disk-backed deployment
/// against the coordinator's decision log at `log_path`.
///
/// For each shard database in `shard_paths` that crashed between
/// `prepare` and a decision, the coordinator log is consulted: a
/// recorded commit finishes the transaction, anything else aborts it
/// (presumed abort). Shards with no in-doubt transaction are untouched
/// — ordinary single-shard WAL recovery handles them at open. After
/// this returns, every shard opens normally and the deployment is in
/// one of exactly two states: the transaction applied everywhere, or
/// nowhere.
pub fn recover_sharded(shard_paths: &[&Path], log_path: &Path) -> Result<Vec<ShardResolution>> {
    recover_sharded_in(Arc::new(OsFs), shard_paths, log_path)
}

/// [`recover_sharded`] for shard files and a decision log in `fs`.
pub fn recover_sharded_in(
    fs: Arc<dyn Vfs>,
    shard_paths: &[&Path],
    log_path: &Path,
) -> Result<Vec<ShardResolution>> {
    let log = CommitLog::open_in(Arc::clone(&fs), log_path)?;
    let mut resolved = Vec::new();
    for (shard, path) in shard_paths.iter().enumerate() {
        if let Some(txid) = disk_backend::in_doubt_txn_in(&*fs, path)? {
            let committed = log.decision_for(txid).unwrap_or(false);
            disk_backend::resolve_in_doubt_in(&*fs, path, txid, committed)?;
            resolved.push(ShardResolution {
                shard,
                txid,
                committed,
            });
        }
    }
    Ok(resolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_survive_reopen_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!("hm-commitlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("decisions.log");
        let _ = std::fs::remove_file(&path);

        let mut log = CommitLog::open(&path).unwrap();
        assert_eq!(log.next_txid(), 1);
        log.record(1, true).unwrap();
        log.record(2, false).unwrap();
        drop(log);

        // Simulate a crash mid-append: a torn 4-byte tail.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[9, 9, 9, 9]).unwrap();
        }

        let mut log = CommitLog::open(&path).unwrap();
        assert_eq!(log.decision_for(1), Some(true));
        assert_eq!(log.decision_for(2), Some(false));
        assert_eq!(log.decision_for(3), None, "undecided = presumed abort");
        assert_eq!(log.next_txid(), 3);

        // The next decision overwrites the torn tail, so it reads back.
        log.record(3, true).unwrap();
        drop(log);
        let log = CommitLog::open(&path).unwrap();
        assert_eq!(log.decision_for(3), Some(true));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 3 * RECORD as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_truncates_and_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("hm-commitlog-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("decisions.log");
        let _ = std::fs::remove_file(&path);

        let mut log = CommitLog::open(&path).unwrap();
        for txid in 1..=10 {
            log.record(txid, txid % 3 != 0).unwrap();
        }
        assert_eq!(log.len(), 10);

        log.checkpoint(7).unwrap();
        assert_eq!(log.len(), 3, "only txids 8..=10 survive");
        assert_eq!(log.checkpointed_through(), 7);
        assert_eq!(log.decision_for(5), None, "checkpointed away");
        assert_eq!(log.decision_for(8), Some(true));
        assert_eq!(log.decision_for(9), Some(false));
        // txids never rewind past the checkpoint:
        assert_eq!(log.next_txid(), 11);

        // New decisions append after the checkpoint, and everything
        // survives a reopen.
        log.record(11, true).unwrap();
        drop(log);
        let log = CommitLog::open(&path).unwrap();
        assert_eq!(log.checkpointed_through(), 7);
        assert_eq!(log.decision_for(8), Some(true));
        assert_eq!(log.decision_for(11), Some(true));
        assert_eq!(log.next_txid(), 12);

        // The file really shrank: 4 decision records + 1 marker.
        let size = std::fs::metadata(&path).unwrap().len();
        assert_eq!(size, 5 * RECORD as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_of_empty_suffix_is_total_truncation() {
        let dir = std::env::temp_dir().join(format!("hm-commitlog-ckpt2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("decisions.log");
        let _ = std::fs::remove_file(&path);

        let mut log = CommitLog::open(&path).unwrap();
        for txid in 1..=5 {
            log.record(txid, true).unwrap();
        }
        log.checkpoint(5).unwrap();
        assert!(log.is_empty());
        assert_eq!(log.next_txid(), 6);
        // Re-checkpointing lower or equal is a no-op.
        log.checkpoint(3).unwrap();
        assert_eq!(log.checkpointed_through(), 5);
        std::fs::remove_file(&path).unwrap();
    }
}
