//! The commit coordinator: the two-phase protocol, its durable state
//! (the decision log), and recovery of a sharded deployment from disk
//! after a crash.
//!
//! `Coordinator` runs a sharded store's commit. With a decision log
//! attached it is two-phase: prepare everywhere in parallel under one
//! deadline, durably record the decision, then tell every shard to
//! finish. The fsynced decision record is the commit point — once it is
//! on disk, recovery completes the transaction even if every later
//! message is lost. Without a log every shard commits independently
//! (not crash-atomic across shards).
//!
//! Two-phase commit needs exactly one durable bit per transaction — the
//! coordinator's decision. [`CommitLog`] stores it: an append-only file
//! of `(txid, decision)` records, fsynced before any participant is told
//! to commit. The protocol is **presumed abort**: a prepared participant
//! that finds *no* decision for its transaction aborts, so only commit
//! decisions are strictly required; abort decisions are logged too for
//! operator clarity.
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

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use exec::{ExecError, ShardExecutor};
use hypermodel::error::{HmError, Result};
use hypermodel::store::HyperStore;

use crate::store::{note_exec, scatter, ExecResult};

/// On-disk record size: 8-byte little-endian txid + 1 decision byte.
const RECORD: usize = 9;
const DECIDE_COMMIT: u8 = 0xC1;
const DECIDE_ABORT: u8 = 0xA0;
/// Checkpoint marker: every txid at or below this record's txid has been
/// acknowledged by all shards, and its decision records were dropped.
const DECIDE_CHECKPOINT: u8 = 0xCC;

/// The coordinator's append-only decision log.
///
/// Records are fsynced on append; a torn trailing record (crash mid-
/// write) is ignored on open, exactly like the WAL's torn-tail rule.
#[derive(Debug)]
pub struct CommitLog {
    file: File,
    path: PathBuf,
    decisions: Vec<(u64, bool)>,
    /// All decisions at or below this txid were checkpointed away.
    checkpoint: u64,
}

impl CommitLog {
    /// Open (or create) the decision log at `path`.
    pub fn open(path: &Path) -> Result<CommitLog> {
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| HmError::Backend(format!("open commit log {}: {e}", path.display())))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| HmError::Backend(format!("read commit log: {e}")))?;
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
            file,
            path: path.to_path_buf(),
            decisions,
            checkpoint,
        })
    }

    /// Durably record a decision for `txid`. Returns after fsync: once
    /// this returns, the decision survives any crash.
    pub fn record(&mut self, txid: u64, commit: bool) -> Result<()> {
        let mut rec = [0u8; RECORD];
        rec[..8].copy_from_slice(&txid.to_le_bytes());
        rec[8] = if commit { DECIDE_COMMIT } else { DECIDE_ABORT };
        self.file
            .write_all(&rec)
            .and_then(|_| self.file.sync_all())
            .map_err(|e| HmError::Backend(format!("append commit log: {e}")))?;
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
    /// after), fsynced, then renamed over the old file. A crash at any
    /// point leaves either the old complete log or the new complete log.
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
        let tmp_path = self.path.with_extension("tmp");
        let mut bytes = Vec::with_capacity((keep.len() + 1) * RECORD);
        let mut rec = [0u8; RECORD];
        rec[..8].copy_from_slice(&up_to.to_le_bytes());
        rec[8] = DECIDE_CHECKPOINT;
        bytes.extend_from_slice(&rec);
        for &(txid, commit) in &keep {
            rec[..8].copy_from_slice(&txid.to_le_bytes());
            rec[8] = if commit { DECIDE_COMMIT } else { DECIDE_ABORT };
            bytes.extend_from_slice(&rec);
        }
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)
            .map_err(|e| HmError::Backend(format!("checkpoint commit log (tmp): {e}")))?;
        tmp.write_all(&bytes)
            .and_then(|_| tmp.sync_all())
            .map_err(|e| HmError::Backend(format!("checkpoint commit log (write): {e}")))?;
        drop(tmp);
        std::fs::rename(&tmp_path, &self.path)
            .map_err(|e| HmError::Backend(format!("checkpoint commit log (rename): {e}")))?;
        self.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| HmError::Backend(format!("checkpoint commit log (reopen): {e}")))?;
        self.decisions = keep;
        self.checkpoint = up_to;
        Ok(())
    }
}

/// Default deadline for the parallel 2PC prepare fan-out: generous
/// enough to never fire on a healthy local shard, tight enough that a
/// hung remote shard cannot stall the coordinator forever.
const DEFAULT_PREPARE_TIMEOUT: Duration = Duration::from_secs(10);

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
    /// Deadline for the parallel prepare fan-out; a miss is a vote to
    /// abort.
    pub(crate) prepare_timeout: Duration,
    /// Checkpoint the log once it holds this many records.
    pub(crate) checkpoint_after: usize,
    /// Highest txid each shard acknowledged in phase two. The log may
    /// safely drop decisions at or below `min(acked)`: every shard is
    /// past them, so none can ever be in doubt about them again.
    acked: Vec<u64>,
}

impl Coordinator {
    pub(crate) fn new(shards: usize) -> Coordinator {
        Coordinator {
            log: None,
            next_txid: 1,
            aborts: 0,
            prepare_timeout: DEFAULT_PREPARE_TIMEOUT,
            checkpoint_after: DEFAULT_CHECKPOINT_AFTER,
            acked: vec![0; shards],
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
            let done = scatter(exec, health, everyone(), |sh, ()| sh.commit());
            for (s, r) in done.into_iter().flatten().enumerate() {
                note_exec(health, s, r)?;
            }
            return Ok(());
        };
        let txid = self.next_txid;
        self.next_txid += 1;
        obs::incr("shard.2pc.prepared", 1);
        let prepared = prepare(exec, txid, self.prepare_timeout);
        if !prepared.iter().all(|(_, r)| matches!(r, Ok(Ok(())))) {
            self.aborts += 1;
            obs::incr("shard.2pc.aborted", 1);
            // The abort record is best-effort: presumed abort means an
            // absent decision already reads as "abort" during recovery.
            let _ = log.record(txid, false);
            let mut first = None;
            for (s, r) in prepared {
                if matches!(r, Ok(Ok(()))) {
                    // Voted yes: roll this shard back.
                    let _ = note_exec(health, s, exec.run_here(s, |sh| sh.abort_prepared(txid)));
                    continue;
                }
                if matches!(r, Err(ExecError::TimedOut(_))) {
                    // The prepare is still running on the shard's worker;
                    // queue the abort behind it (FIFO) without waiting —
                    // the deadline was already missed.
                    let _ = exec.submit(s, move |sh| {
                        let _ = sh.abort_prepared(txid);
                    });
                }
                if let Err(e) = note_exec(health, s, r) {
                    first.get_or_insert(e);
                }
            }
            return Err(first.unwrap_or_else(|| {
                HmError::Backend("prepare failed but no shard reported an error".into())
            }));
        }
        log.record(txid, true)?;
        obs::incr("shard.2pc.committed", 1);
        // Phase two: failures here only mark health — the decision is
        // durable, so recovery finishes the commit on the failed shard.
        let done = scatter(exec, health, everyone(), move |sh, ()| {
            sh.commit_prepared(txid)
        });
        for (s, r) in done.into_iter().flatten().enumerate() {
            if note_exec(health, s, r).is_ok() {
                self.acked[s] = txid;
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
}

/// Phase one: fan `prepare_commit` out to every shard in parallel under
/// one shared deadline. A shard that misses the deadline is a vote to
/// abort — its prepare keeps running on its worker and the abort is
/// queued behind it (per-shard FIFO), so no reordering is possible.
///
/// Unlike [`scatter`], no share runs on the calling thread: an inline
/// prepare could not miss the deadline, and a shard that hangs would
/// hang the coordinator with it. A one-shard deployment has no deadline
/// to share and runs on the calling thread.
fn prepare<S: HyperStore + Send + 'static>(
    exec: &ShardExecutor<S>,
    txid: u64,
    timeout: Duration,
) -> Vec<(usize, ExecResult<()>)> {
    if exec.shard_count() == 1 {
        return vec![(0, exec.run_here(0, |sh| sh.prepare_commit(txid)))];
    }
    let mut batch = exec.batch();
    for s in 0..exec.shard_count() {
        batch.spawn(s, move |sh| sh.prepare_commit(txid));
    }
    batch.join_within(timeout)
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
    let log = CommitLog::open(log_path)?;
    let mut resolved = Vec::new();
    for (shard, path) in shard_paths.iter().enumerate() {
        if let Some(txid) = disk_backend::in_doubt_txn(path)? {
            let committed = log.decision_for(txid).unwrap_or(false);
            disk_backend::resolve_in_doubt(path, txid, committed)?;
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
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[9, 9, 9, 9]).unwrap();
        }

        let log = CommitLog::open(&path).unwrap();
        assert_eq!(log.decision_for(1), Some(true));
        assert_eq!(log.decision_for(2), Some(false));
        assert_eq!(log.decision_for(3), None, "undecided = presumed abort");
        assert_eq!(log.next_txid(), 3);
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
