//! The log writer when its file fails: a write or an fsync that returns an
//! error, on files in memory that fail on demand (`fake_fs`).

mod fake_fs;

use fake_fs::FakeFs;
use std::path::Path;
use storage::page::{Page, PageKind, SavedChunks};
use storage::wal::Wal;
use storage::{PageId, StorageError, PAGE_SIZE};

const LOG: &str = "faults.wal";

/// The two ways the log's file can fail a sync.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Write,
    Sync,
}

fn arm(fs: &FakeFs, fault: Fault) {
    match fault {
        Fault::Write => fs.fail_next_write(Path::new(LOG)),
        Fault::Sync => fs.fail_next_sync(Path::new(LOG)),
    }
}

fn sample_page(id: u64) -> Page {
    let mut p = Page::new(PageId(id));
    p.set_kind(PageKind::Heap);
    p.write_bytes(100, &[0xAB; 32]);
    p
}

/// Log a one-word change to page `id` with a before-image on offer and
/// say whether the record came out zero-based: such a record carries the
/// page's 32 filled bytes and its header, a delta four bytes.
fn logs_zero_based(wal: &mut Wal, id: u64) -> bool {
    let before = sample_page(id);
    let mut after = before.clone();
    after.write_u32(104, 7);
    let before = SavedChunks::whole(before.bytes());
    let size = wal.append_page_delta(PageId(id), Some(before), after.bytes());
    size > 40
}

#[test]
fn a_failed_write_or_sync_is_reported_and_nothing_is_kept() {
    for fault in [Fault::Write, Fault::Sync] {
        let fs = FakeFs::default();
        let mut wal = Wal::open(&fs, Path::new(LOG)).unwrap();
        wal.append_commit(1);
        wal.sync().unwrap();
        let durable = fs.file(Path::new(LOG)).unwrap();
        arm(&fs, fault);
        wal.append_commit(2);
        assert!(matches!(wal.sync(), Err(StorageError::Io(_))), "{fault:?}");
        assert_eq!(fs.file(Path::new(LOG)).unwrap(), durable, "{fault:?}");
        assert_eq!(
            (wal.appended_bytes(), wal.durable_len(), wal.sync_count()),
            (durable.len() as u64, durable.len() as u64, 1),
            "{fault:?}"
        );
        // The log goes on from where the last sync left it.
        wal.append_commit(3);
        wal.sync().unwrap();
        assert_eq!(fs.file(Path::new(LOG)).unwrap().len(), 2 * durable.len());
    }
}

#[test]
fn a_failed_early_write_is_reported_by_the_sync() {
    // The first piece of an oversized transaction fails: the appends after
    // it go nowhere, and the sync that would have made them durable
    // reports it.
    let fs = FakeFs::default();
    let mut wal = Wal::open(&fs, Path::new(LOG)).unwrap();
    arm(&fs, Fault::Write);
    for id in 0..(2 << 20) / PAGE_SIZE as u64 {
        wal.append_page_delta(PageId(id), None, &[0xD5; PAGE_SIZE]);
    }
    wal.append_commit(2);
    assert!(matches!(wal.sync(), Err(StorageError::Io(_))));
    assert_eq!((wal.appended_bytes(), wal.sync_count()), (0, 0));
    assert_eq!(fs.file(Path::new(LOG)).unwrap(), Vec::<u8>::new());
}

#[test]
fn a_failed_write_or_sync_forgets_every_imaged_page() {
    for fault in [Fault::Write, Fault::Sync] {
        let fs = FakeFs::default();
        let mut wal = Wal::open(&fs, Path::new(LOG)).unwrap();
        assert!(logs_zero_based(&mut wal, 4));
        wal.append_commit(1);
        wal.sync().unwrap();
        assert!(!logs_zero_based(&mut wal, 4), "{fault:?}");
        wal.append_commit(2);
        arm(&fs, fault);
        assert!(wal.sync().is_err());
        assert!(logs_zero_based(&mut wal, 4), "{fault:?}");
    }
}
