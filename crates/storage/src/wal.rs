//! Write-ahead log with physical page-delta redo records.
//!
//! The engine uses a **no-steal / redo-only** protocol (see
//! [`crate::buffer`]): no page that committed state can reach is written
//! before its transaction commits, so the log never needs undo
//! information. Commit stages one [`WalRecord::PageDelta`] per *changed*
//! dirty page the database file already holds (a page past its end goes
//! to the file instead, see [`crate::engine`]), then a
//! [`WalRecord::Commit`], in one buffer, hands the buffer to the kernel
//! with a single `write`, and `fdatasync`s — so what a commit costs follows
//! the bytes it changed, not the pages it touched. Recovery folds the
//! deltas of every *committed* transaction per page in log order; records
//! after the last commit marker belong to a transaction that never
//! committed and are ignored.
//!
//! # Record framing
//!
//! ```text
//! u32 len      length of type+payload
//! u8  type     2 = Commit, 3 = Checkpoint, 4 = Prepare (2PC),
//!              5 = Abort (2PC), 6 = PageDelta
//! ..  payload
//! u32 crc32    over type+payload
//! ```
//!
//! | type | payload |
//! |---|---|
//! | `Commit` | `u64 txn` |
//! | `Checkpoint` | empty |
//! | `Prepare`, `Abort` | `u64 txid` |
//! | `PageDelta` | `u64 page_id`, `u8 base` (0 = the all-zero page, 1 = the page as the log's earlier records left it), then ranges `u16 off, u16 len, len bytes` until the payload ends |
//!
//! Type 1 was the whole-page image of the first log format. It is retired
//! rather than reused, so a log from that format is rejected as an unknown
//! record type instead of being misread.
//!
//! # The base rule
//!
//! A delta is only as good as the state it is applied to, and the database
//! file cannot be that state: commit writes the pages it logged to it
//! without an fsync, so after a crash any of them may be torn. Therefore a
//! page's **first** record since the log was last truncated is its delta
//! against the all-zero page — a full image minus its zero runs — and
//! every later record is a delta against the page as the previous record
//! left it. Recovery rebuilds each page from its zero-based record onward
//! and never reads the file. A page the file has never held is not logged
//! at all: the engine writes it to the file and fsyncs before the
//! transaction's marker (see [`crate::engine`]), so its first record —
//! zero-based — comes with the first later change, as after a checkpoint.
//! The rule lives in [`Wal::append_page_delta`]: the writer
//! keeps the set of pages with a committed zero-based record in the log as
//! it stands and diffs a page against the before-image it is handed only
//! when the page is in that set. A page joins the set when the commit
//! marker of the transaction carrying its zero-based record is appended,
//! so the image of a transaction that aborts (or is never decided) is never
//! used as a base; [`Wal::truncate`] empties the set, and so does a failed
//! [`Wal::sync`], after which the log may have lost any of those records.
//! Forgetting a page is always safe — it is logged whole once more.
//!
//! Ranges ascend and never overlap. The differ compares 64-bit words and
//! trims each run of differing words to bytes at both ends, so two ranges
//! of one record are always at least one equal word apart — further than
//! the 4-byte range header, i.e. no two ranges would be cheaper merged —
//! and a record is never larger than one whole-page range.
//!
//! A torn or half-written record at the tail is treated as the end of the
//! log (the standard crash-tail convention); a bad CRC anywhere *before*
//! the tail, and any malformed payload, is reported as corruption.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};

use crate::checksum::crc32;
use crate::error::{Result, StorageError};
use crate::page::{PageId, PAGE_SIZE};

const TYPE_COMMIT: u8 = 2;
const TYPE_CHECKPOINT: u8 = 3;
const TYPE_PREPARE: u8 = 4;
const TYPE_ABORT: u8 = 5;
const TYPE_PAGE_DELTA: u8 = 6;

const BASE_ZERO: u8 = 0;
const BASE_PREVIOUS: u8 = 1;

/// `u64 page_id` + `u8 base` in front of a delta's ranges.
const DELTA_HEADER: usize = 9;
/// `u16 off` + `u16 len` in front of each range's bytes.
const RANGE_HEADER: usize = 4;
/// Width of the differ's comparison step.
const WORD: usize = 8;
/// Largest type+payload a well-formed record has: a delta of one
/// whole-page range. Bounds what the reader will buffer for one record.
const MAX_RECORD_LEN: usize = 1 + DELTA_HEADER + RANGE_HEADER + PAGE_SIZE;
/// Staged bytes at which the writer hands them to the kernel without
/// waiting for [`Wal::sync`]. An ordinary commit stays far below it and is
/// one `write`; a bulk load's commit (every page of the database, imaged)
/// goes out in pieces this size instead of being held in memory whole.
const SPILL_BYTES: usize = 1 << 20;

/// The base of every zero-based delta.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// A parsed log record, borrowing from the reader that produced it.
#[derive(Debug, Clone, Copy)]
pub enum WalRecord<'a> {
    /// The bytes of one page that a transaction changed.
    PageDelta(PageDelta<'a>),
    /// Transaction commit marker.
    Commit {
        /// Monotonic transaction number (informational).
        txn: u64,
    },
    /// All prior records have been applied to the database file.
    Checkpoint,
    /// Two-phase-commit prepare marker: the deltas since the previous
    /// transaction boundary are durably staged under `txid`, awaiting a
    /// coordinator decision ([`WalRecord::Commit`] or [`WalRecord::Abort`]
    /// with the same id).
    Prepare {
        /// Coordinator-assigned transaction id.
        txid: u64,
    },
    /// Two-phase-commit abort decision for a previously prepared `txid`.
    Abort {
        /// Coordinator-assigned transaction id.
        txid: u64,
    },
}

/// The changed byte ranges of one page, validated when the record was
/// read: every range lies inside the page and starts at or after the end
/// of the one before it.
#[derive(Debug, Clone, Copy)]
pub struct PageDelta<'a> {
    /// The page the ranges belong to.
    pub page_id: PageId,
    /// Whether the ranges are relative to the all-zero page (the page's
    /// torn-page guard) rather than to the page as earlier records left it.
    pub zero_based: bool,
    ranges: &'a [u8],
}

impl<'a> PageDelta<'a> {
    /// Check `payload` (a `PageDelta` record's payload) and borrow it.
    fn parse(payload: &'a [u8]) -> std::result::Result<PageDelta<'a>, String> {
        let (header, ranges) = payload
            .split_at_checked(DELTA_HEADER)
            .ok_or("page delta payload shorter than its header")?;
        let (id, base) = header.split_at(8);
        let page_id = PageId(u64::from_le_bytes(id.try_into().expect("8 bytes")));
        let zero_based = match base[0] {
            BASE_ZERO => true,
            BASE_PREVIOUS => false,
            other => return Err(format!("page delta base tag {other}")),
        };
        let mut rest = ranges;
        let mut prev_end = 0usize;
        while !rest.is_empty() {
            let (off, bytes, tail) = split_range(rest).ok_or("page delta range cut short")?;
            let len = bytes.len();
            if len == 0 || off < prev_end {
                return Err(format!(
                    "page delta range at {off} (+{len}) overlaps or precedes the one ending at {prev_end}"
                ));
            }
            if off + len > PAGE_SIZE {
                return Err(format!("page delta range {off}+{len} exceeds the page"));
            }
            rest = tail;
            prev_end = off + len;
        }
        Ok(PageDelta {
            page_id,
            zero_based,
            ranges,
        })
    }

    /// The ranges as `(offset, bytes)`, ascending.
    pub fn ranges(&self) -> impl Iterator<Item = (usize, &'a [u8])> {
        let mut rest = self.ranges;
        std::iter::from_fn(move || {
            let (off, bytes, tail) = split_range(rest)?;
            rest = tail;
            Some((off, bytes))
        })
    }

    /// Bring `page` to the state this record logged. A zero-based delta
    /// needs nothing of `page`; any other needs it to hold the page as the
    /// log's earlier records left it.
    pub fn apply(&self, page: &mut [u8; PAGE_SIZE]) {
        if self.zero_based {
            page.fill(0);
        }
        for (off, bytes) in self.ranges() {
            // In bounds: `parse` checked every range against PAGE_SIZE.
            page[off..off + bytes.len()].copy_from_slice(bytes);
        }
    }
}

/// Split the first encoded range off `rest`: its offset, its bytes, and
/// what follows. `None` when `rest` is empty or ends inside the range.
fn split_range(rest: &[u8]) -> Option<(usize, &[u8], &[u8])> {
    let (header, tail) = rest.split_at_checked(RANGE_HEADER)?;
    let off = u16::from_le_bytes([header[0], header[1]]) as usize;
    let len = u16::from_le_bytes([header[2], header[3]]) as usize;
    let (bytes, tail) = tail.split_at_checked(len)?;
    Some((off, bytes, tail))
}

/// Append to `out` the ranges in which `after` differs from `base`.
fn encode_ranges(out: &mut Vec<u8>, base: &[u8; PAGE_SIZE], after: &[u8; PAGE_SIZE]) {
    let mut emit = |first_word: usize, end_word: usize| {
        // Trim the run of differing words to bytes; both loops stop inside
        // the run because its first and last words each hold a difference.
        let mut lo = first_word * WORD;
        while base[lo] == after[lo] {
            lo += 1;
        }
        let mut hi = end_word * WORD;
        while base[hi - 1] == after[hi - 1] {
            hi -= 1;
        }
        out.extend_from_slice(&(lo as u16).to_le_bytes());
        out.extend_from_slice(&((hi - lo) as u16).to_le_bytes());
        out.extend_from_slice(&after[lo..hi]);
    };
    let mut run_start = None;
    let words = base.chunks_exact(WORD).zip(after.chunks_exact(WORD));
    for (w, (b, a)) in words.enumerate() {
        match (b != a, run_start) {
            (true, None) => run_start = Some(w),
            (false, Some(first)) => {
                emit(first, w);
                run_start = None;
            }
            _ => {}
        }
    }
    if let Some(first) = run_start {
        emit(first, PAGE_SIZE / WORD);
    }
}

/// Append-only writer over a single log file.
///
/// `append_*` stage records in memory; [`Wal::sync`] writes everything
/// staged with one `write` and makes it durable. Appends cannot fail: an
/// error from the early write of an oversized transaction is held and
/// reported by the `sync` that would have made it durable.
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Records staged and not yet handed to the kernel; reused across
    /// commits.
    buf: Vec<u8>,
    /// Records and bytes appended since the last [`Wal::sync`].
    unsynced_records: u64,
    unsynced_bytes: u64,
    /// The first write error since the last [`Wal::sync`].
    failed: Option<std::io::Error>,
    /// Length of the file as the last successful sync or truncate left it.
    durable_len: u64,
    /// Bytes appended since open/truncate (for size reporting).
    appended: u64,
    /// Number of fsyncs issued.
    syncs: u64,
    /// Pages with a committed zero-based record in the log as it stands.
    imaged: HashSet<u64>,
    /// Pages whose zero-based record belongs to the transaction still
    /// open: no commit or abort marker has followed it yet.
    imaged_undecided: Vec<u64>,
}

impl Wal {
    /// Open (creating if missing) the log at `path`. Appends go to the end.
    pub fn open(path: &Path) -> Result<Wal> {
        let file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)?;
        let durable_len = file.metadata()?.len();
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            buf: Vec::new(),
            unsynced_records: 0,
            unsynced_bytes: 0,
            failed: None,
            durable_len,
            appended: 0,
            syncs: 0,
            imaged: HashSet::new(),
            imaged_undecided: Vec::new(),
        })
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes appended since this handle was opened or last truncated.
    pub fn appended_bytes(&self) -> u64 {
        self.appended
    }

    /// Length of the log file as the last successful sync or truncate
    /// left it.
    pub fn durable_len(&self) -> u64 {
        self.durable_len
    }

    /// Number of fsyncs issued through this handle.
    pub fn sync_count(&self) -> u64 {
        self.syncs
    }

    /// Stage a record: `payload` writes its payload into the buffer.
    fn append(&mut self, typ: u8, payload: impl FnOnce(&mut Vec<u8>)) {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 4]);
        self.buf.push(typ);
        payload(&mut self.buf);
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        let sum = crc32(&self.buf[at + 4..]);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        let bytes = (self.buf.len() - at) as u64;
        self.appended += bytes;
        self.unsynced_bytes += bytes;
        self.unsynced_records += 1;
        if self.buf.len() >= SPILL_BYTES {
            self.write_staged();
        }
    }

    /// Hand the staged bytes to the kernel. After a failure nothing more is
    /// written until [`Wal::sync`] has reported it.
    fn write_staged(&mut self) {
        if self.failed.is_none() {
            self.failed = self.file.write_all(&self.buf).err();
        }
        self.buf.clear();
    }

    /// Stage the change a transaction made to page `id`: `after` is the
    /// page now, `before` the page as the log last saw it (the pool's
    /// before-image), if there is one. The base rule is applied here: the
    /// record is a delta against `before` only when the log already holds
    /// a committed zero-based record of the page, and otherwise against the
    /// all-zero page. Returns the record's size in bytes.
    pub fn append_page_delta(
        &mut self,
        id: PageId,
        before: Option<&[u8; PAGE_SIZE]>,
        after: &[u8; PAGE_SIZE],
    ) -> u64 {
        let base = before.filter(|_| self.imaged.contains(&id.0));
        if base.is_none() {
            self.imaged_undecided.push(id.0);
        }
        self.stage_delta(id, base, after)
    }

    /// Stage the delta that takes page `id` from `base` to `after`, whatever
    /// the base rule says; no `base` means the all-zero page.
    pub(crate) fn stage_delta(
        &mut self,
        id: PageId,
        base: Option<&[u8; PAGE_SIZE]>,
        after: &[u8; PAGE_SIZE],
    ) -> u64 {
        let before = self.appended;
        self.append(TYPE_PAGE_DELTA, |buf| {
            buf.extend_from_slice(&id.0.to_le_bytes());
            buf.push(if base.is_some() {
                BASE_PREVIOUS
            } else {
                BASE_ZERO
            });
            encode_ranges(buf, base.unwrap_or(&ZERO_PAGE), after);
        });
        self.appended - before
    }

    /// Stage a marker record whose payload is one transaction id.
    fn append_marker(&mut self, typ: u8, id: u64) {
        self.append(typ, |buf| buf.extend_from_slice(&id.to_le_bytes()));
    }

    /// Stage a commit marker for transaction `txn`. The pages the
    /// transaction logged zero-based count as imaged from here on.
    pub fn append_commit(&mut self, txn: u64) {
        self.append_marker(TYPE_COMMIT, txn);
        self.imaged.extend(self.imaged_undecided.drain(..));
    }

    /// Stage a checkpoint marker.
    pub fn append_checkpoint(&mut self) {
        self.append(TYPE_CHECKPOINT, |_| {});
    }

    /// Stage a two-phase-commit prepare marker for transaction `txid`.
    pub fn append_prepare(&mut self, txid: u64) {
        self.append_marker(TYPE_PREPARE, txid);
    }

    /// Stage a two-phase-commit abort decision for transaction `txid`.
    /// The zero-based records the transaction logged are forgotten.
    pub fn append_abort(&mut self, txid: u64) {
        self.append_marker(TYPE_ABORT, txid);
        self.imaged_undecided.clear();
    }

    /// Write the staged records with one `write` and fsync them to stable
    /// storage. A commit is durable only after this returns. On failure
    /// nothing appended since the last sync is kept — the file is cut back
    /// to its last durable length so a retry cannot land behind a
    /// half-written record — and no page counts as imaged any more.
    pub fn sync(&mut self) -> Result<()> {
        self.write_staged();
        let synced = match self.failed.take() {
            Some(e) => Err(e),
            None => self.file.sync_data(),
        };
        let bytes = std::mem::take(&mut self.unsynced_bytes);
        let records = std::mem::take(&mut self.unsynced_records);
        if let Err(e) = synced {
            // Best effort: the error being returned is the write's.
            let _ = self.file.set_len(self.durable_len);
            self.appended -= bytes;
            self.imaged.clear();
            self.imaged_undecided.clear();
            return Err(e.into());
        }
        self.durable_len += bytes;
        self.syncs += 1;
        obs::incr("storage.wal.appends", records);
        obs::incr("storage.wal.bytes", bytes);
        obs::incr("storage.wal.fsyncs", 1);
        Ok(())
    }

    /// Discard the entire log (after a checkpoint has made it redundant),
    /// and with it every page's zero-based record.
    pub fn truncate(&mut self) -> Result<()> {
        self.buf.clear();
        self.failed = None;
        self.unsynced_records = 0;
        self.unsynced_bytes = 0;
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.durable_len = 0;
        self.appended = 0;
        self.imaged.clear();
        self.imaged_undecided.clear();
        Ok(())
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("appended", &self.appended)
            .finish()
    }
}

/// Streaming reader: yields the log's well-formed records one at a time
/// from one reused buffer, so reading a log costs one record of memory.
pub struct WalReader {
    /// `None` when there is no log file, which reads as an empty log.
    file: Option<BufReader<File>>,
    file_len: u64,
    /// Offset of the next record.
    offset: u64,
    /// Type, payload and CRC of the record last read.
    body: Vec<u8>,
}

impl WalReader {
    /// Open the log at `path` for reading from its start.
    pub fn open(path: &Path) -> Result<WalReader> {
        let file = match File::open(path) {
            Ok(f) => Some(f),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let file_len = match &file {
            Some(f) => f.metadata()?.len(),
            None => 0,
        };
        Ok(WalReader {
            file: file.map(|f| BufReader::with_capacity(1 << 16, f)),
            file_len,
            offset: 0,
            body: Vec::new(),
        })
    }

    /// Size of the log file in bytes when it was opened.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Offset of the record [`WalReader::next_record`] will read next (after
    /// a call, the end of the record it returned).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The next record, or `None` at the end of the log.
    ///
    /// A truncated tail ends the log silently (crash convention); a CRC
    /// mismatch on a complete record, an impossible length or a malformed
    /// payload is an error.
    pub fn next_record(&mut self) -> Result<Option<WalRecord<'_>>> {
        let start = self.offset;
        let corrupt = |detail: String| StorageError::WalCorrupt {
            offset: start,
            detail,
        };
        let remaining = self.file_len - start;
        let Some(file) = self.file.as_mut().filter(|_| remaining >= 4) else {
            return Ok(None);
        };
        // Whatever ends the log ends it for good.
        self.offset = self.file_len;
        let mut len = [0u8; 4];
        file.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        let total = 4 + len as u64 + 4;
        if len == 0 || total > remaining {
            return Ok(None); // torn tail
        }
        if len > MAX_RECORD_LEN {
            return Err(corrupt(format!("record length {len}")));
        }
        self.body.resize(len + 4, 0);
        file.read_exact(&mut self.body)?;
        let (body, stored_crc) = self.body.split_at(len);
        let stored_crc = u32::from_le_bytes(stored_crc.try_into().expect("4 bytes"));
        if crc32(body) != stored_crc {
            // A bad CRC at the very tail is a torn write; earlier it is
            // corruption. Either way nothing after it is trustworthy.
            if total == remaining {
                return Ok(None);
            }
            return Err(corrupt("crc mismatch".into()));
        }
        let (typ, payload) = (body[0], &body[1..]);
        let txid = || -> Result<u64> {
            let bytes = payload
                .try_into()
                .map_err(|_| corrupt(format!("marker payload {} bytes", payload.len())))?;
            Ok(u64::from_le_bytes(bytes))
        };
        let record = match typ {
            TYPE_PAGE_DELTA => WalRecord::PageDelta(PageDelta::parse(payload).map_err(corrupt)?),
            TYPE_COMMIT => WalRecord::Commit { txn: txid()? },
            TYPE_CHECKPOINT => WalRecord::Checkpoint,
            TYPE_PREPARE => WalRecord::Prepare { txid: txid()? },
            TYPE_ABORT => WalRecord::Abort { txid: txid()? },
            other => return Err(corrupt(format!("unknown record type {other}"))),
        };
        self.offset = start + total;
        Ok(Some(record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{Page, PageKind};
    use proptest::prelude::*;

    fn tmppath(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hm-wal-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_page(id: u64, fill: u8) -> Page {
        let mut p = Page::new(PageId(id));
        p.set_kind(PageKind::Heap);
        p.write_bytes(100, &[fill; 32]);
        p
    }

    /// An owned copy of a record, for comparing whole logs.
    #[derive(Debug, PartialEq)]
    enum Rec {
        Delta {
            page: u64,
            zero_based: bool,
            ranges: Vec<(usize, Vec<u8>)>,
        },
        Commit(u64),
        Checkpoint,
        Prepare(u64),
        Abort(u64),
    }

    fn read_all(path: &Path) -> Result<Vec<Rec>> {
        let mut reader = WalReader::open(path)?;
        let mut out = Vec::new();
        while let Some(record) = reader.next_record()? {
            out.push(match record {
                WalRecord::PageDelta(d) => Rec::Delta {
                    page: d.page_id.0,
                    zero_based: d.zero_based,
                    ranges: d.ranges().map(|(off, b)| (off, b.to_vec())).collect(),
                },
                WalRecord::Commit { txn } => Rec::Commit(txn),
                WalRecord::Checkpoint => Rec::Checkpoint,
                WalRecord::Prepare { txid } => Rec::Prepare(txid),
                WalRecord::Abort { txid } => Rec::Abort(txid),
            });
        }
        Ok(out)
    }

    /// Frame `payload` as a well-formed record of type `typ`, so a test can
    /// put a payload the writer would never produce behind a good CRC.
    fn raw_record(typ: u8, payload: &[u8]) -> Vec<u8> {
        let mut body = vec![typ];
        body.extend_from_slice(payload);
        let mut out = (body.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    fn delta_payload(page: u64, base: u8, ranges: &[(u16, u16, &[u8])]) -> Vec<u8> {
        let mut p = page.to_le_bytes().to_vec();
        p.push(base);
        for (off, len, bytes) in ranges {
            p.extend_from_slice(&off.to_le_bytes());
            p.extend_from_slice(&len.to_le_bytes());
            p.extend_from_slice(bytes);
        }
        p
    }

    /// The ranges `encode_ranges` produces, as `(offset, len)`, and the
    /// encoded size.
    fn diff(base: &[u8; PAGE_SIZE], after: &[u8; PAGE_SIZE]) -> (Vec<(usize, usize)>, usize) {
        let mut payload = delta_payload(1, BASE_PREVIOUS, &[]);
        encode_ranges(&mut payload, base, after);
        let delta = PageDelta::parse(&payload).unwrap();
        (
            delta.ranges().map(|(off, b)| (off, b.len())).collect(),
            payload.len() - DELTA_HEADER,
        )
    }

    #[test]
    fn append_read_round_trip() {
        let path = tmppath("rt");
        let page = sample_page(3, 0xAB);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_page_delta(PageId(3), None, page.bytes());
            wal.append_commit(1);
            wal.append_checkpoint();
            assert_eq!(std::fs::metadata(&path).unwrap().len(), 0, "staged only");
            wal.sync().unwrap();
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                wal.appended_bytes()
            );
            assert_eq!(wal.sync_count(), 1);
        }
        let mut reader = WalReader::open(&path).unwrap();
        match reader.next_record().unwrap().unwrap() {
            WalRecord::PageDelta(delta) => {
                assert_eq!(delta.page_id, PageId(3));
                assert!(delta.zero_based);
                let mut rebuilt = [0xFFu8; PAGE_SIZE];
                delta.apply(&mut rebuilt);
                assert_eq!(&rebuilt, page.bytes());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            reader.next_record().unwrap(),
            Some(WalRecord::Commit { txn: 1 })
        ));
        assert!(matches!(
            reader.next_record().unwrap(),
            Some(WalRecord::Checkpoint)
        ));
        assert!(reader.next_record().unwrap().is_none());
        assert_eq!(reader.offset(), reader.file_len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn zero_based_delta_skips_zero_runs_and_later_deltas_log_only_changes() {
        let path = tmppath("sizes");
        let mut wal = Wal::open(&path).unwrap();
        let before = sample_page(3, 0xAB);
        let image = wal.append_page_delta(PageId(3), None, before.bytes());
        assert!(image < 100, "a nearly empty page logs {image} bytes");
        let mut after = before.clone();
        after.write_u32(104, 7);
        wal.append_commit(1);
        let delta = wal.append_page_delta(PageId(3), Some(before.bytes()), after.bytes());
        // Frame (4 + 1 + 4) + delta header + one range of four bytes.
        assert_eq!(delta as usize, 9 + DELTA_HEADER + RANGE_HEADER + 4);
        wal.sync().unwrap();
        assert_eq!(
            read_all(&path).unwrap()[2],
            Rec::Delta {
                page: 3,
                zero_based: false,
                ranges: vec![(104, vec![7, 0, 0, 0])],
            }
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ranges_closer_than_a_range_header_are_one_range() {
        let base = [0x11u8; PAGE_SIZE];
        // Two changes three equal bytes apart: cheaper as one range.
        let mut after = base;
        after[1000] = 0;
        after[1004] = 0;
        assert_eq!(diff(&base, &after).0, vec![(1000, 5)]);
        // Every gap the differ leaves is wider than a range header.
        after[1030] = 0;
        after[5000..5100].fill(0);
        let (ranges, _) = diff(&base, &after);
        assert_eq!(ranges, vec![(1000, 5), (1030, 1), (5000, 100)]);
        for pair in ranges.windows(2) {
            assert!(pair[1].0 - (pair[0].0 + pair[0].1) > RANGE_HEADER);
        }
        // No change, no ranges.
        assert_eq!(diff(&base, &base), (vec![], 0));
    }

    #[test]
    fn a_delta_is_never_larger_than_one_whole_page_range() {
        let base = [0u8; PAGE_SIZE];
        let whole = RANGE_HEADER + PAGE_SIZE;
        // Every byte changed: exactly the whole-page range.
        assert_eq!(
            diff(&base, &[0xEE; PAGE_SIZE]),
            (vec![(0, PAGE_SIZE)], whole)
        );
        // The patterns that maximise header overhead: every other byte,
        // every other word, one byte in every other word.
        let mut bytes = base;
        let mut words = base;
        let mut sparse = base;
        for i in (0..PAGE_SIZE).step_by(2) {
            bytes[i] = 1;
        }
        for w in (0..PAGE_SIZE).step_by(2 * WORD) {
            words[w..w + WORD].fill(1);
            sparse[w] = 1;
        }
        for after in [bytes, words, sparse] {
            let (ranges, encoded) = diff(&base, &after);
            assert!(encoded <= whole, "{} ranges, {encoded} bytes", ranges.len());
        }
    }

    #[test]
    fn an_oversized_transaction_is_written_in_pieces_and_reads_back_whole() {
        let path = tmppath("spill");
        let mut wal = Wal::open(&path).unwrap();
        let dense = [0xD5u8; PAGE_SIZE];
        let pages = 2 * SPILL_BYTES / PAGE_SIZE + 3;
        for id in 0..pages as u64 {
            wal.append_page_delta(PageId(id), None, &dense);
        }
        let spilled = std::fs::metadata(&path).unwrap().len();
        assert!(spilled >= SPILL_BYTES as u64, "held back {spilled} bytes");
        assert!(spilled < wal.appended_bytes());
        wal.append_commit(1);
        wal.sync().unwrap();
        assert_eq!(wal.sync_count(), 1);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            wal.appended_bytes()
        );
        let records = read_all(&path).unwrap();
        assert_eq!(records.len(), pages + 1);
        assert_eq!(records[pages], Rec::Commit(1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failed_write_is_reported_by_sync_and_nothing_is_kept() {
        // Every write to /dev/full fails with ENOSPC.
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let mut wal = Wal::open(full).unwrap();
        wal.append_commit(1);
        assert!(matches!(wal.sync(), Err(StorageError::Io(_))));
        // Also when the failure is an early write's: the appends after it
        // go nowhere and the sync still reports it.
        for id in 0..(2 * SPILL_BYTES / PAGE_SIZE) as u64 {
            wal.append_page_delta(PageId(id), None, &[0xD5; PAGE_SIZE]);
        }
        wal.append_commit(2);
        assert!(matches!(wal.sync(), Err(StorageError::Io(_))));
        assert_eq!((wal.appended_bytes(), wal.sync_count()), (0, 0));
    }

    #[test]
    fn prepare_abort_round_trip() {
        let path = tmppath("2pc");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_prepare(41);
            wal.append_abort(41);
            wal.append_prepare(42);
            wal.append_commit(42);
            wal.sync().unwrap();
        }
        assert_eq!(
            read_all(&path).unwrap(),
            vec![
                Rec::Prepare(41),
                Rec::Abort(41),
                Rec::Prepare(42),
                Rec::Commit(42)
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_silently_dropped() {
        let path = tmppath("torn");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_commit(1);
            wal.append_commit(2);
            wal.sync().unwrap();
        }
        // Chop off the last 5 bytes to simulate a crash mid-write.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        assert_eq!(read_all(&path).unwrap(), vec![Rec::Commit(1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let path = tmppath("midcorrupt");
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append_commit(1);
            wal.append_commit(2);
            wal.sync().unwrap();
        }
        // Flip a byte inside the first record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[5] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_all(&path),
            Err(StorageError::WalCorrupt { offset: 0, .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hostile_records_are_corruption_not_panics() {
        let path = tmppath("hostile");
        let good = raw_record(TYPE_COMMIT, &1u64.to_le_bytes());
        let bad_payloads: Vec<(u8, Vec<u8>)> = vec![
            // off + len past the end of the page
            (
                TYPE_PAGE_DELTA,
                delta_payload(1, BASE_ZERO, &[(8190, 4, &[1, 2, 3, 4])]),
            ),
            // second range starts inside the first
            (
                TYPE_PAGE_DELTA,
                delta_payload(1, BASE_ZERO, &[(100, 4, &[1; 4]), (102, 2, &[2; 2])]),
            ),
            // second range starts before the first
            (
                TYPE_PAGE_DELTA,
                delta_payload(1, BASE_ZERO, &[(100, 4, &[1; 4]), (10, 2, &[2; 2])]),
            ),
            // empty range
            (
                TYPE_PAGE_DELTA,
                delta_payload(1, BASE_ZERO, &[(100, 0, &[])]),
            ),
            // range claims more bytes than the payload holds
            (
                TYPE_PAGE_DELTA,
                delta_payload(1, BASE_ZERO, &[(100, 9, &[1; 4])]),
            ),
            // range header cut short
            (TYPE_PAGE_DELTA, {
                let mut p = delta_payload(1, BASE_ZERO, &[]);
                p.extend_from_slice(&[1, 0]);
                p
            }),
            // unknown base tag, no header at all
            (TYPE_PAGE_DELTA, delta_payload(1, 7, &[])),
            (TYPE_PAGE_DELTA, vec![1, 2, 3]),
            // the retired whole-page image type, a marker of the wrong size
            (1, vec![0; 8 + PAGE_SIZE]),
            (TYPE_COMMIT, vec![0; 7]),
            (TYPE_PREPARE, vec![]),
        ];
        for (typ, payload) in bad_payloads {
            // Mid-log and at the tail: a well-formed frame with a payload
            // that cannot be is never mistaken for a torn write.
            for tail in [&good[..], &[]] {
                let mut log = good.clone();
                log.extend_from_slice(&raw_record(typ, &payload));
                log.extend_from_slice(tail);
                std::fs::write(&path, &log).unwrap();
                let err = read_all(&path).unwrap_err();
                assert!(
                    matches!(err, StorageError::WalCorrupt { offset, .. } if offset == good.len() as u64),
                    "type {typ}: {err}"
                );
            }
        }
        // A length no record can have, with bytes behind it to back it up.
        let mut log = good.clone();
        log.extend_from_slice(&((MAX_RECORD_LEN + 1) as u32).to_le_bytes());
        log.extend_from_slice(&vec![0u8; MAX_RECORD_LEN + 64]);
        std::fs::write(&path, &log).unwrap();
        assert!(matches!(
            read_all(&path),
            Err(StorageError::WalCorrupt { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    /// Log a one-word change to page `id` with a before-image on offer and
    /// say whether the record came out zero-based: such a record carries
    /// the page's 32 filled bytes and its header, a delta four bytes.
    fn logs_zero_based(wal: &mut Wal, id: u64) -> bool {
        let before = sample_page(id, 0xAB);
        let mut after = before.clone();
        after.write_u32(104, 7);
        let size = wal.append_page_delta(PageId(id), Some(before.bytes()), after.bytes());
        size > 40
    }

    #[test]
    fn a_page_is_diffed_against_its_before_image_only_once_its_image_is_committed() {
        let path = tmppath("base-rule");
        let mut wal = Wal::open(&path).unwrap();
        // First record of the page: zero-based whatever is on offer, and
        // still so while the transaction carrying it is open or prepared.
        assert!(logs_zero_based(&mut wal, 4));
        assert!(logs_zero_based(&mut wal, 4));
        wal.append_prepare(1);
        wal.sync().unwrap();
        assert!(logs_zero_based(&mut wal, 4));
        // An abort forgets the image ...
        wal.append_abort(1);
        wal.sync().unwrap();
        assert!(logs_zero_based(&mut wal, 4));
        // ... a commit makes it the base of what follows, for that page.
        wal.append_commit(2);
        wal.sync().unwrap();
        assert!(!logs_zero_based(&mut wal, 4));
        assert!(logs_zero_based(&mut wal, 5));
        // No before-image (a fresh frame, a retried commit): zero-based.
        let size = wal.append_page_delta(PageId(4), None, sample_page(4, 1).bytes());
        assert!(size > 40);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failed_sync_forgets_every_imaged_page() {
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let mut wal = Wal::open(full).unwrap();
        assert!(logs_zero_based(&mut wal, 4));
        wal.append_commit(1);
        assert!(!logs_zero_based(&mut wal, 4));
        assert!(wal.sync().is_err());
        assert!(logs_zero_based(&mut wal, 4));
    }

    #[test]
    fn truncate_empties_log_and_forgets_imaged_pages() {
        let path = tmppath("trunc");
        let mut wal = Wal::open(&path).unwrap();
        assert!(logs_zero_based(&mut wal, 4));
        wal.append_commit(9);
        wal.sync().unwrap();
        assert!(!logs_zero_based(&mut wal, 4));
        assert!(!read_all(&path).unwrap().is_empty());
        wal.append_commit(99); // staged, never synced: dropped too
        wal.truncate().unwrap();
        assert!(read_all(&path).unwrap().is_empty());
        assert!(logs_zero_based(&mut wal, 4));
        // Appends after truncate still work.
        wal.append_commit(10);
        wal.sync().unwrap();
        assert_eq!(read_all(&path).unwrap().last(), Some(&Rec::Commit(10)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_log_reads_as_empty() {
        let path = tmppath("missing");
        assert!(read_all(&path).unwrap().is_empty());
    }

    fn page_strategy() -> impl Strategy<Value = Box<[u8; PAGE_SIZE]>> {
        // Sparse pages (mostly zero, like a fresh heap page), dense pages,
        // and everything between: a fill byte plus random splats.
        (
            prop_oneof![Just(0u8), any::<u8>()],
            proptest::collection::vec((0..PAGE_SIZE, 1usize..400, any::<u8>()), 0..12),
        )
            .prop_map(|(fill, splats)| {
                let mut page = Box::new([fill; PAGE_SIZE]);
                for (at, len, byte) in splats {
                    let end = (at + len).min(PAGE_SIZE);
                    for (i, b) in page[at..end].iter_mut().enumerate() {
                        *b = byte.wrapping_add(i as u8);
                    }
                }
                page
            })
    }

    proptest! {
        #[test]
        fn applying_the_diff_to_the_base_gives_the_after_image(
            before in page_strategy(),
            edits in proptest::collection::vec((0..PAGE_SIZE, 1usize..64, any::<u8>()), 0..8),
            rewrite in any::<bool>(),
            after_fresh in page_strategy(),
        ) {
            // `after` is `before` with a few small edits, or an unrelated
            // page (a whole-page rewrite).
            let mut after = if rewrite { after_fresh } else { before.clone() };
            for (at, len, byte) in edits {
                let end = (at + len).min(PAGE_SIZE);
                after[at..end].fill(byte);
            }
            for base in [Some(&*before), None] {
                let path = tmppath(&format!("prop-{}", base.is_some()));
                let mut wal = Wal::open(&path).unwrap();
                let size = wal.stage_delta(PageId(8), base, &after);
                prop_assert!(size as usize <= 8 + MAX_RECORD_LEN);
                wal.sync().unwrap();
                let mut reader = WalReader::open(&path).unwrap();
                let Some(WalRecord::PageDelta(delta)) = reader.next_record().unwrap() else {
                    panic!("not a delta");
                };
                prop_assert_eq!(delta.zero_based, base.is_none());
                // A zero-based delta must not depend on what it lands on.
                let mut page = match base {
                    Some(b) => Box::new(*b),
                    None => Box::new([0x5A; PAGE_SIZE]),
                };
                delta.apply(&mut page);
                prop_assert!(page == after);
                std::fs::remove_file(&path).unwrap();
            }
        }
    }
}
