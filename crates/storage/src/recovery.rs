//! Crash recovery: fold committed page deltas from the write-ahead log.
//!
//! Because the buffer pool is no-steal (uncommitted pages never reach the
//! database file) recovery is redo-only. The log is a sequence of page
//! deltas punctuated by transaction boundaries:
//!
//! * [`WalRecord::Commit`] — the deltas since the previous boundary (or the
//!   matching prepared set, see below) are committed and must be redone.
//! * [`WalRecord::Prepare`] — the deltas since the previous boundary are
//!   durably *staged* under a coordinator-assigned `txid` (two-phase
//!   commit, phase one). They are neither redone nor discarded until a
//!   decision record with the same `txid` appears.
//! * [`WalRecord::Abort`] — the prepared set with this `txid` is dropped.
//!
//! Recovery therefore:
//!
//! 1. Streams the log one record at a time; a torn tail ends the scan.
//! 2. Folds each transaction's deltas into that transaction's own copy of
//!    the pages it touches — started from zeros by a zero-based delta,
//!    from the committed copy otherwise — and on its commit makes those
//!    copies the committed ones. What is held is one image per page the
//!    log mentions, never the log.
//! 3. Drops the copies of aborted and never-terminated transactions.
//! 4. If a prepared transaction has **no** decision record, it is
//!    **in-doubt**: the log is *not* truncated, and the report names the
//!    `txid`. The caller must resolve it against the transaction
//!    coordinator's decision log — see [`resolve_in_doubt`] — before
//!    using the database.
//! 5. Writes each committed page once, fsyncs the database file and
//!    (unless in doubt) truncates the log.
//!
//! # Why torn pages are safe
//!
//! After its marker, a commit writes the pages it logged to the database
//! file without an fsync, so a crash can leave any of them half old, half
//! new. Recovery never reads such a page: the writer guarantees
//! ([`crate::wal`], the base rule) that a page's first record in the log
//! is zero-based, so every page a logged transaction touched is rebuilt
//! from the log alone and written over whatever the file holds. A delta
//! whose page has no zero-based record before it cannot come from the
//! writer and is reported as [`StorageError::WalCorrupt`] rather than
//! applied to the file's copy. Pages the log does not mention were last
//! written either before a checkpoint's fsync or, as pages the file had
//! never held, before the fsync that precedes their transaction's marker
//! (see [`crate::engine`]), and are intact.
//!
//! That fsync also covers the file's length, so every page a committed
//! record names lies inside the file. Recovery never grows it: a page past
//! the end is reported as [`StorageError::Corruption`] before anything is
//! written.
//!
//! Recovery is idempotent: crashing during recovery and re-running it
//! reaches the same state.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::path::Path;

use crate::disk::DiskManager;
use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::wal::{PageDelta, Wal, WalReader, WalRecord};

/// Outcome of a recovery pass, for logging/inspection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Total records scanned in the log.
    pub records_scanned: usize,
    /// Pages rebuilt from committed records and written to the database
    /// file (each once, however many records touched it).
    pub pages_redone: usize,
    /// Pages touched by aborted or never-committed transactions, counted
    /// per transaction, whose records were dropped.
    pub pages_discarded: usize,
    /// Number of commit markers seen.
    pub commits: usize,
    /// A prepared transaction with no commit/abort decision in the log.
    /// Its records are retained in the log awaiting [`resolve_in_doubt`].
    pub in_doubt: Option<u64>,
}

/// Page images by page id.
type Pages = HashMap<u64, Box<[u8; PAGE_SIZE]>>;

/// The state of a log scan: what is committed, what is still open.
#[derive(Default)]
struct Fold {
    /// Every page a committed transaction touched, as the last one left it.
    committed: Pages,
    /// The pages of the transaction being read, as it leaves them.
    pending: Pages,
    /// The engine is single-writer, so at most one transaction is prepared
    /// at a time; a second `Prepare` implies the first was decided.
    prepared: Option<(u64, Pages)>,
    discarded: usize,
    commits: usize,
    records: usize,
}

impl Fold {
    /// Apply `delta` to the open transaction's copy of its page.
    fn stage(&mut self, delta: PageDelta<'_>) -> std::result::Result<(), String> {
        let page = match self.pending.entry(delta.page_id.0) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let base = if delta.zero_based {
                    Box::new([0u8; PAGE_SIZE])
                } else {
                    // Only a committed copy may serve as a base: the
                    // writer images a page anew after an abort.
                    self.committed.get(v.key()).cloned().ok_or_else(|| {
                        format!(
                            "delta for {} has no zero-based record before it",
                            delta.page_id
                        )
                    })?
                };
                v.insert(base)
            }
        };
        delta.apply(page);
        Ok(())
    }

    fn record(&mut self, record: WalRecord<'_>) -> std::result::Result<(), String> {
        self.records += 1;
        match record {
            WalRecord::PageDelta(delta) => self.stage(delta)?,
            WalRecord::Commit { txn } => {
                self.commits += 1;
                // A commit for a different transaction decides nothing
                // about the prepared one; keep it staged.
                if let Some((_, staged)) = self.prepared.take_if(|(ptx, _)| *ptx == txn) {
                    self.committed.extend(staged);
                }
                self.committed.extend(self.pending.drain());
            }
            WalRecord::Prepare { txid } => {
                if let Some((_, stale)) = self.prepared.take() {
                    // Overwritten prepare: only reachable through log
                    // corruption in a single-writer engine; drop the
                    // stale set rather than guessing its fate.
                    self.discarded += stale.len();
                }
                self.prepared = Some((txid, std::mem::take(&mut self.pending)));
            }
            WalRecord::Abort { txid } => {
                if let Some((_, staged)) = self.prepared.take_if(|(ptx, _)| *ptx == txid) {
                    self.discarded += staged.len();
                }
            }
            WalRecord::Checkpoint => {}
        }
        Ok(())
    }
}

/// Scan `wal_path` (read-only) for a prepared-but-undecided transaction.
///
/// Used by transaction coordinators to find in-doubt participants before
/// deciding their fate via [`resolve_in_doubt`].
pub fn in_doubt_txn(wal_path: &Path) -> Result<Option<u64>> {
    Ok(scan_in_doubt(wal_path)?.0)
}

/// The prepared-but-undecided transaction in the log, if any, and the
/// offset at which the log's last whole record ends.
fn scan_in_doubt(wal_path: &Path) -> Result<(Option<u64>, u64)> {
    let mut reader = WalReader::open(wal_path)?;
    let mut prepared = None;
    let mut end = 0;
    while let Some(record) = reader.next_record()? {
        match record {
            WalRecord::Prepare { txid } => prepared = Some(txid),
            WalRecord::Commit { txn: t } | WalRecord::Abort { txid: t } if prepared == Some(t) => {
                prepared = None
            }
            _ => {}
        }
        end = reader.offset();
    }
    Ok((prepared, end))
}

/// Run recovery for the database at `db_path` with log `wal_path`.
///
/// Safe to call when no log exists or the log is empty (returns a zero
/// report). Must be called *before* opening a buffer pool on the file.
pub fn recover(db_path: &Path, wal_path: &Path) -> Result<RecoveryReport> {
    let mut reader = WalReader::open(wal_path)?;
    if reader.file_len() == 0 {
        return Ok(RecoveryReport::default());
    }
    let mut fold = Fold::default();
    loop {
        let offset = reader.offset();
        let Some(record) = reader.next_record()? else {
            break;
        };
        fold.record(record)
            .map_err(|detail| StorageError::WalCorrupt { offset, detail })?;
    }
    // Records after the last boundary belong to a transaction that never
    // reached prepare or commit.
    let mut report = RecoveryReport {
        records_scanned: fold.records,
        pages_discarded: fold.discarded + fold.pending.len(),
        commits: fold.commits,
        in_doubt: fold.prepared.as_ref().map(|(txid, _)| *txid),
        ..RecoveryReport::default()
    };
    let mut redo: Vec<_> = fold.committed.into_iter().collect();
    redo.sort_unstable_by_key(|(id, _)| *id);
    let mut disk = DiskManager::open(db_path)?;
    if let Some(&(id, _)) = redo.last() {
        if id >= disk.page_count() {
            return Err(StorageError::Corruption {
                page: Some(id),
                detail: format!(
                    "the log rebuilds a page past the file's {} pages",
                    disk.page_count()
                ),
            });
        }
    }
    for (id, image) in redo {
        let mut page = Page::from_bytes(image);
        if page.id() != PageId(id) {
            return Err(StorageError::Corruption {
                page: Some(id),
                detail: format!("the log rebuilds this page as {}", page.id()),
            });
        }
        disk.write_page(&mut page)?;
        report.pages_redone += 1;
    }
    disk.sync()?;
    if report.in_doubt.is_none() {
        // Also when nothing in it was readable: the engine appends behind
        // whatever the file holds, and nothing may follow a torn record.
        Wal::open(wal_path)?.truncate()?;
    }
    // else: keep the log — it holds the in-doubt transaction's records
    // until the coordinator's decision arrives via `resolve_in_doubt`.
    Ok(report)
}

/// Decide an in-doubt transaction and finish recovery.
///
/// Appends the coordinator's decision (`commit` true → commit marker,
/// false → abort marker) for `txid` to the log, fsyncs it, and re-runs
/// [`recover`], which now either redoes or discards the staged records and
/// truncates the log. Idempotent: resolving an already-resolved log is a
/// plain recovery pass.
///
/// The decision goes directly behind the last whole record: a crash
/// inside the participant's own phase-two write leaves part of a marker
/// behind the `Prepare`, and a decision appended behind those bytes would
/// never be read.
pub fn resolve_in_doubt(
    db_path: &Path,
    wal_path: &Path,
    txid: u64,
    commit: bool,
) -> Result<RecoveryReport> {
    let (in_doubt, end) = scan_in_doubt(wal_path)?;
    if in_doubt == Some(txid) {
        OpenOptions::new()
            .write(true)
            .open(wal_path)?
            .set_len(end)?;
        let mut wal = Wal::open(wal_path)?;
        if commit {
            wal.append_commit(txid);
        } else {
            wal.append_abort(txid);
        }
        wal.sync()?;
    }
    recover(db_path, wal_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{PageId, PageKind};
    use std::path::PathBuf;

    fn paths(name: &str) -> (PathBuf, PathBuf) {
        let mut db = std::env::temp_dir();
        db.push(format!("hm-rec-{}-{}.db", std::process::id(), name));
        let mut wal = db.clone();
        wal.set_extension("wal");
        let _ = std::fs::remove_file(&db);
        let _ = std::fs::remove_file(&wal);
        (db, wal)
    }

    fn page_with(id: u64, marker: u64) -> Page {
        let mut p = Page::new(PageId(id));
        p.set_kind(PageKind::Heap);
        p.write_u64(100, marker);
        p.seal();
        p
    }

    /// Log the whole of `page_with(id, marker)`: a zero-based delta.
    fn log_image(wal: &mut Wal, id: u64, marker: u64) {
        wal.append_page_delta(PageId(id), None, page_with(id, marker).bytes());
    }

    fn log_is_empty(walp: &Path) -> bool {
        std::fs::metadata(walp).unwrap().len() == 0
    }

    #[test]
    fn committed_images_are_redone() {
        let (db, walp) = paths("redo");
        {
            let mut dm = DiskManager::create(&db).unwrap();
            dm.allocate().unwrap();
            dm.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&walp).unwrap();
            log_image(&mut wal, 1, 777);
            wal.append_commit(1);
            wal.sync().unwrap();
        }
        let report = recover(&db, &walp).unwrap();
        assert_eq!(report.pages_redone, 1);
        assert_eq!(report.commits, 1);
        let mut dm = DiskManager::open(&db).unwrap();
        assert_eq!(dm.read_page(PageId(1)).unwrap().read_u64(100), 777);
        // The log is truncated after recovery.
        assert!(log_is_empty(&walp));
        std::fs::remove_file(&db).unwrap();
        std::fs::remove_file(&walp).unwrap();
    }

    #[test]
    fn uncommitted_images_are_discarded() {
        let (db, walp) = paths("discard");
        {
            let mut dm = DiskManager::create(&db).unwrap();
            let id = dm.allocate().unwrap();
            let mut p = Page::new(id);
            p.set_kind(PageKind::Heap);
            p.write_u64(100, 1);
            dm.write_page(&mut p).unwrap();
            dm.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&walp).unwrap();
            // A transaction that never committed.
            log_image(&mut wal, 1, 999);
            wal.sync().unwrap();
        }
        let report = recover(&db, &walp).unwrap();
        assert_eq!(report.pages_redone, 0);
        assert_eq!(report.pages_discarded, 1);
        let mut dm = DiskManager::open(&db).unwrap();
        assert_eq!(
            dm.read_page(PageId(1)).unwrap().read_u64(100),
            1,
            "old value survives"
        );
        std::fs::remove_file(&db).unwrap();
        std::fs::remove_file(&walp).unwrap();
    }

    #[test]
    fn committed_prefix_applies_uncommitted_suffix_does_not() {
        let (db, walp) = paths("prefix");
        {
            let mut dm = DiskManager::create(&db).unwrap();
            dm.allocate().unwrap();
            dm.allocate().unwrap();
            dm.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&walp).unwrap();
            log_image(&mut wal, 1, 11);
            wal.append_commit(1);
            log_image(&mut wal, 2, 22); // never committed
            wal.sync().unwrap();
        }
        let report = recover(&db, &walp).unwrap();
        assert_eq!(report.pages_redone, 1);
        assert_eq!(report.pages_discarded, 1);
        let mut dm = DiskManager::open(&db).unwrap();
        assert_eq!(dm.read_page(PageId(1)).unwrap().read_u64(100), 11);
        assert_ne!(dm.read_page(PageId(2)).unwrap().read_u64(100), 22);
        std::fs::remove_file(&db).unwrap();
        std::fs::remove_file(&walp).unwrap();
    }

    #[test]
    fn recovery_extends_short_file() {
        // A committed page past the end of the file cannot come from the
        // writer, which syncs every extension before a marker can name it:
        // recovery refuses the log rather than growing the file.
        let (db, walp) = paths("extend");
        db_with_decoys(&db, 1);
        let len = std::fs::metadata(&db).unwrap().len();
        let far = u64::MAX - 1;
        {
            let mut wal = Wal::open(&walp).unwrap();
            log_image(&mut wal, 1, 11);
            wal.append_page_delta(PageId(far), None, page_with(far, 33).bytes());
            wal.append_commit(1);
            wal.sync().unwrap();
        }
        let err = recover(&db, &walp).unwrap_err();
        assert!(
            matches!(err, StorageError::Corruption { page: Some(p), ref detail }
                if p == far && detail.contains("2 pages")),
            "{err}"
        );
        // Nothing was written, the file kept its length, and the log is
        // kept for inspection.
        assert_eq!(std::fs::metadata(&db).unwrap().len(), len);
        let mut dm = DiskManager::open(&db).unwrap();
        assert_eq!(dm.read_page(PageId(1)).unwrap().read_u64(100), 0xDEC0);
        assert!(!log_is_empty(&walp));
        std::fs::remove_file(&db).unwrap();
        std::fs::remove_file(&walp).unwrap();
    }

    #[test]
    fn recovery_is_idempotent() {
        let (db, walp) = paths("idem");
        {
            let mut dm = DiskManager::create(&db).unwrap();
            dm.allocate().unwrap();
            dm.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&walp).unwrap();
            log_image(&mut wal, 1, 5);
            wal.append_commit(1);
            wal.sync().unwrap();
        }
        recover(&db, &walp).unwrap();
        let report2 = recover(&db, &walp).unwrap();
        assert_eq!(report2, RecoveryReport::default());
        let mut dm = DiskManager::open(&db).unwrap();
        assert_eq!(dm.read_page(PageId(1)).unwrap().read_u64(100), 5);
        std::fs::remove_file(&db).unwrap();
        std::fs::remove_file(&walp).unwrap();
    }

    #[test]
    fn prepared_without_decision_is_in_doubt_and_kept() {
        let (db, walp) = paths("indoubt");
        {
            let mut dm = DiskManager::create(&db).unwrap();
            let id = dm.allocate().unwrap();
            let mut p = Page::new(id);
            p.set_kind(PageKind::Heap);
            p.write_u64(100, 1);
            dm.write_page(&mut p).unwrap();
            dm.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&walp).unwrap();
            log_image(&mut wal, 1, 999);
            wal.append_prepare(7);
            wal.sync().unwrap();
        }
        assert_eq!(in_doubt_txn(&walp).unwrap(), Some(7));
        let report = recover(&db, &walp).unwrap();
        assert_eq!(report.in_doubt, Some(7));
        assert_eq!(report.pages_redone, 0);
        assert_eq!(report.pages_discarded, 0, "staged images are kept");
        // The database file is untouched and the log survives recovery.
        let mut dm = DiskManager::open(&db).unwrap();
        assert_eq!(dm.read_page(PageId(1)).unwrap().read_u64(100), 1);
        assert!(!log_is_empty(&walp));
        // Recovery without a decision is stable.
        assert_eq!(recover(&db, &walp).unwrap().in_doubt, Some(7));
        std::fs::remove_file(&db).unwrap();
        std::fs::remove_file(&walp).unwrap();
    }

    #[test]
    fn resolve_in_doubt_commit_applies_staged_images() {
        let (db, walp) = paths("resolve-commit");
        {
            let mut dm = DiskManager::create(&db).unwrap();
            dm.allocate().unwrap();
            dm.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&walp).unwrap();
            log_image(&mut wal, 1, 42);
            wal.append_prepare(9);
            wal.sync().unwrap();
        }
        let report = resolve_in_doubt(&db, &walp, 9, true).unwrap();
        assert_eq!(report.in_doubt, None);
        assert_eq!(report.pages_redone, 1);
        let mut dm = DiskManager::open(&db).unwrap();
        assert_eq!(dm.read_page(PageId(1)).unwrap().read_u64(100), 42);
        assert!(log_is_empty(&walp));
        // Idempotent: a second resolution is a clean no-op recovery.
        let again = resolve_in_doubt(&db, &walp, 9, true).unwrap();
        assert_eq!(again, RecoveryReport::default());
        std::fs::remove_file(&db).unwrap();
        std::fs::remove_file(&walp).unwrap();
    }

    #[test]
    fn resolve_in_doubt_abort_discards_staged_images() {
        let (db, walp) = paths("resolve-abort");
        {
            let mut dm = DiskManager::create(&db).unwrap();
            let id = dm.allocate().unwrap();
            let mut p = Page::new(id);
            p.set_kind(PageKind::Heap);
            p.write_u64(100, 5);
            dm.write_page(&mut p).unwrap();
            dm.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&walp).unwrap();
            log_image(&mut wal, 1, 666);
            wal.append_prepare(9);
            wal.sync().unwrap();
        }
        let report = resolve_in_doubt(&db, &walp, 9, false).unwrap();
        assert_eq!(report.in_doubt, None);
        assert_eq!(report.pages_redone, 0);
        assert_eq!(report.pages_discarded, 1);
        let mut dm = DiskManager::open(&db).unwrap();
        assert_eq!(dm.read_page(PageId(1)).unwrap().read_u64(100), 5);
        assert!(log_is_empty(&walp));
        std::fs::remove_file(&db).unwrap();
        std::fs::remove_file(&walp).unwrap();
    }

    #[test]
    fn a_torn_decision_marker_does_not_hide_the_coordinators_decision() {
        // A crash inside `commit_prepared`'s own marker write: the log ends
        // in 1..N-1 bytes of a commit record behind the prepare.
        let (_, marker_path) = paths("marker");
        {
            let mut wal = Wal::open(&marker_path).unwrap();
            wal.append_commit(9);
            wal.sync().unwrap();
        }
        let marker = std::fs::read(&marker_path).unwrap();
        std::fs::remove_file(&marker_path).unwrap();
        for commit in [true, false] {
            for torn in 1..marker.len() {
                let (db, walp) = paths(&format!("torn-marker-{commit}-{torn}"));
                {
                    let mut dm = DiskManager::create(&db).unwrap();
                    let id = dm.allocate().unwrap();
                    let mut p = page_with(id.0, 5);
                    dm.write_page(&mut p).unwrap();
                    dm.sync().unwrap();
                }
                {
                    let mut wal = Wal::open(&walp).unwrap();
                    log_image(&mut wal, 1, 42);
                    wal.append_prepare(9);
                    wal.sync().unwrap();
                }
                let mut log = std::fs::read(&walp).unwrap();
                log.extend_from_slice(&marker[..torn]);
                std::fs::write(&walp, &log).unwrap();
                assert_eq!(in_doubt_txn(&walp).unwrap(), Some(9), "torn at {torn}");
                assert_eq!(recover(&db, &walp).unwrap().in_doubt, Some(9));

                let report = resolve_in_doubt(&db, &walp, 9, commit).unwrap();
                assert_eq!(report.in_doubt, None, "torn at {torn}, commit {commit}");
                assert_eq!(
                    (report.pages_redone, report.pages_discarded),
                    if commit { (1, 0) } else { (0, 1) }
                );
                assert!(log_is_empty(&walp), "torn at {torn}: log truncated");
                let mut dm = DiskManager::open(&db).unwrap();
                let expect = if commit { 42 } else { 5 };
                assert_eq!(dm.read_page(PageId(1)).unwrap().read_u64(100), expect);
                assert_eq!(recover(&db, &walp).unwrap(), RecoveryReport::default());
                std::fs::remove_file(&db).unwrap();
                std::fs::remove_file(&walp).unwrap();
            }
        }
    }

    #[test]
    fn commit_after_prepare_in_log_is_decided() {
        let (db, walp) = paths("decided");
        {
            let mut dm = DiskManager::create(&db).unwrap();
            dm.allocate().unwrap();
            dm.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&walp).unwrap();
            log_image(&mut wal, 1, 88);
            wal.append_prepare(3);
            wal.append_commit(3);
            wal.sync().unwrap();
        }
        let report = recover(&db, &walp).unwrap();
        assert_eq!(report.in_doubt, None);
        assert_eq!(report.pages_redone, 1);
        let mut dm = DiskManager::open(&db).unwrap();
        assert_eq!(dm.read_page(PageId(1)).unwrap().read_u64(100), 88);
        std::fs::remove_file(&db).unwrap();
        std::fs::remove_file(&walp).unwrap();
    }

    /// A database file whose pages 1..=`pages` hold garbage recovery must
    /// never read: sealed, but not what the log says.
    fn db_with_decoys(db: &Path, pages: u64) {
        let mut dm = DiskManager::create(db).unwrap();
        for _ in 0..pages {
            let id = dm.allocate().unwrap();
            let mut p = page_with(id.0, 0xDEC0);
            p.write_u64(200, 0xDEC0);
            dm.write_page(&mut p).unwrap();
        }
        dm.sync().unwrap();
    }

    #[test]
    fn deltas_fold_onto_the_zero_based_record_and_each_page_is_written_once() {
        let (db, walp) = paths("fold");
        db_with_decoys(&db, 2);
        {
            let mut wal = Wal::open(&walp).unwrap();
            let v1 = page_with(1, 10);
            log_image(&mut wal, 1, 10);
            log_image(&mut wal, 2, 20);
            wal.append_commit(1);
            let mut v2 = v1.clone();
            v2.write_u64(300, 11);
            wal.stage_delta(PageId(1), Some(v1.bytes()), v2.bytes());
            wal.append_commit(2);
            // A third, uncommitted change must not show.
            let mut v3 = v2.clone();
            v3.write_u64(100, 12);
            wal.stage_delta(PageId(1), Some(v2.bytes()), v3.bytes());
            wal.sync().unwrap();
        }
        let report = recover(&db, &walp).unwrap();
        assert_eq!(report.records_scanned, 6);
        assert_eq!(report.commits, 2);
        assert_eq!(report.pages_redone, 2, "three committed records, two pages");
        assert_eq!(report.pages_discarded, 1);
        let mut dm = DiskManager::open(&db).unwrap();
        let p1 = dm.read_page(PageId(1)).unwrap();
        assert_eq!((p1.read_u64(100), p1.read_u64(300)), (10, 11));
        assert_eq!(p1.read_u64(200), 0, "nothing of the file's copy survives");
        assert_eq!(dm.read_page(PageId(2)).unwrap().read_u64(100), 20);
        std::fs::remove_file(&db).unwrap();
        std::fs::remove_file(&walp).unwrap();
    }

    #[test]
    fn a_first_record_that_is_not_zero_based_is_corruption() {
        let (db, walp) = paths("nobase");
        db_with_decoys(&db, 1);
        let v1 = page_with(1, 10);
        let mut v2 = v1.clone();
        v2.write_u64(300, 11);
        {
            let mut wal = Wal::open(&walp).unwrap();
            wal.append_commit(1);
            wal.stage_delta(PageId(1), Some(v1.bytes()), v2.bytes());
            wal.append_commit(2);
            wal.sync().unwrap();
        }
        let err = recover(&db, &walp).unwrap_err();
        assert!(
            matches!(err, StorageError::WalCorrupt { offset: 17, .. }),
            "{err}"
        );
        // Nothing was applied and the log is kept for inspection.
        let mut dm = DiskManager::open(&db).unwrap();
        assert_eq!(dm.read_page(PageId(1)).unwrap().read_u64(100), 0xDEC0);
        assert!(!log_is_empty(&walp));
        std::fs::remove_file(&db).unwrap();
        std::fs::remove_file(&walp).unwrap();
    }

    #[test]
    fn an_aborted_transactions_image_is_not_a_base() {
        let (db, walp) = paths("abortbase");
        db_with_decoys(&db, 1);
        let v1 = page_with(1, 10);
        let mut v2 = v1.clone();
        v2.write_u64(300, 11);
        {
            let mut wal = Wal::open(&walp).unwrap();
            log_image(&mut wal, 1, 10);
            wal.append_prepare(5);
            wal.append_abort(5);
            wal.stage_delta(PageId(1), Some(v1.bytes()), v2.bytes());
            wal.append_commit(1);
            wal.sync().unwrap();
        }
        assert!(matches!(
            recover(&db, &walp),
            Err(StorageError::WalCorrupt { .. })
        ));
        std::fs::remove_file(&db).unwrap();
        std::fs::remove_file(&walp).unwrap();
    }

    #[test]
    fn a_page_rebuilt_under_the_wrong_id_is_refused() {
        let (db, walp) = paths("misdirected");
        db_with_decoys(&db, 2);
        {
            let mut wal = Wal::open(&walp).unwrap();
            wal.append_page_delta(PageId(2), None, page_with(1, 10).bytes());
            wal.append_commit(1);
            wal.sync().unwrap();
        }
        assert!(matches!(
            recover(&db, &walp),
            Err(StorageError::Corruption { page: Some(2), .. })
        ));
        std::fs::remove_file(&db).unwrap();
        std::fs::remove_file(&walp).unwrap();
    }

    #[test]
    fn a_log_of_nothing_but_a_torn_record_is_cleared() {
        let (db, walp) = paths("torn-only");
        db_with_decoys(&db, 1);
        {
            let mut wal = Wal::open(&walp).unwrap();
            log_image(&mut wal, 1, 10);
            wal.sync().unwrap();
        }
        let len = std::fs::metadata(&walp).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&walp).unwrap();
        f.set_len(len - 3).unwrap();
        assert_eq!(recover(&db, &walp).unwrap(), RecoveryReport::default());
        assert!(
            log_is_empty(&walp),
            "the engine appends behind what is left"
        );
        std::fs::remove_file(&db).unwrap();
        std::fs::remove_file(&walp).unwrap();
    }
}
