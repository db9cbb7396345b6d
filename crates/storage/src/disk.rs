//! Disk manager: page-granular file I/O with checksum verification.
//!
//! One [`DiskManager`] owns one database file. It hands out new page ids,
//! reads pages (verifying checksum + self-identification), and writes pages
//! (sealing the checksum). Page 0 is reserved for the catalog and allocated
//! on creation.
//!
//! Freed pages are tracked in an in-memory free list that is persisted via
//! the catalog by higher layers; the disk manager itself only grows the file.

use std::path::{Path, PathBuf};

use crate::error::{Result, StorageError};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::vfs::{OpenMode, Vfs, VfsFile};

/// Counters describing physical I/O, used by the benchmark harness to report
/// cold/warm behaviour and by tests to assert caching works.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Number of pages read from the file.
    pub reads: u64,
    /// Number of pages written to the file.
    pub writes: u64,
    /// Number of fsync calls.
    pub syncs: u64,
}

/// Page-granular access to a single database file.
pub struct DiskManager {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    page_count: u64,
    stats: IoStats,
}

impl DiskManager {
    /// Create a new database file at `path` in `fs`, failing if it already
    /// exists. The file starts with a single sealed meta page (page 0).
    pub fn create(fs: &dyn Vfs, path: &Path) -> Result<DiskManager> {
        let file = fs.open(path, OpenMode::CreateNew)?;
        let mut dm = DiskManager {
            file,
            path: path.to_path_buf(),
            page_count: 0,
            stats: IoStats::default(),
        };
        let meta = dm.allocate()?;
        debug_assert_eq!(meta, PageId::META);
        let mut page = Page::new(PageId::META);
        page.set_kind(crate::page::PageKind::Meta);
        dm.write_page(&mut page)?;
        Ok(dm)
    }

    /// Open the existing database file at `path` in `fs`.
    ///
    /// A part of a page at the end of the file is left out: only the write
    /// of a page the file did not hold yet makes one, and a crash that
    /// tore that write lost nothing committed, because the engine syncs
    /// such a page before any commit marker can name it. The next page
    /// allocated overwrites it.
    pub fn open(fs: &dyn Vfs, path: &Path) -> Result<DiskManager> {
        let file = fs.open(path, OpenMode::Write)?;
        let len = file.size()?;
        if len < PAGE_SIZE as u64 {
            return Err(StorageError::Corruption {
                page: None,
                detail: "file has no meta page".into(),
            });
        }
        Ok(DiskManager {
            file,
            path: path.to_path_buf(),
            page_count: len / PAGE_SIZE as u64,
            stats: IoStats::default(),
        })
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of pages currently allocated (including page 0).
    pub fn page_count(&self) -> u64 {
        self.page_count
    }

    /// Physical size of the database file in bytes.
    pub fn file_size(&self) -> u64 {
        self.page_count * PAGE_SIZE as u64
    }

    /// Snapshot of the I/O counters.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Reset the I/O counters (e.g. between cold and warm benchmark runs).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    /// Add one page at the end and return its id. Nothing is written: the
    /// file grows when the caller writes the page (the engine does so
    /// before any commit marker can name it), and until then reading the
    /// page fails.
    pub fn allocate(&mut self) -> Result<PageId> {
        let id = PageId(self.page_count);
        self.page_count += 1;
        Ok(id)
    }

    /// Read and verify page `id`.
    pub fn read_page(&mut self, id: PageId) -> Result<Page> {
        let mut page = Page::new(id);
        self.read_page_into(id, &mut page)?;
        Ok(page)
    }

    /// Read and verify page `id` into `page`'s buffer, whatever it held.
    pub fn read_page_into(&mut self, id: PageId, page: &mut Page) -> Result<()> {
        if id.0 >= self.page_count {
            return Err(StorageError::PageOutOfBounds {
                page: id.0,
                page_count: self.page_count,
            });
        }
        self.file
            .read_exact_at(page.bytes_mut(), id.0 * PAGE_SIZE as u64)?;
        self.stats.reads += 1;
        // A page the file skipped (a hole: a later page was written
        // first) is legitimately all zeros. A written page's first bytes
        // are its checksum, so the scan rarely passes them.
        if page.bytes().iter().all(|&b| b == 0) {
            page.write_u64(crate::page::PAGE_ID_OFFSET, id.0);
            page.seal();
            return Ok(());
        }
        page.verify(id)
    }

    /// Seal (checksum) and write page to its slot in the file.
    pub fn write_page(&mut self, page: &mut Page) -> Result<()> {
        let id = page.id();
        if id.0 >= self.page_count {
            return Err(StorageError::PageOutOfBounds {
                page: id.0,
                page_count: self.page_count,
            });
        }
        page.seal();
        self.file
            .write_all_at(page.bytes().as_slice(), id.0 * PAGE_SIZE as u64)?;
        self.stats.writes += 1;
        Ok(())
    }

    /// Flush file contents and metadata to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.stats.syncs += 1;
        obs::incr("storage.db.fsyncs", 1);
        Ok(())
    }
}

impl std::fmt::Debug for DiskManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskManager")
            .field("path", &self.path)
            .field("page_count", &self.page_count)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;
    use crate::vfs::OsFs;
    use std::fs::OpenOptions;
    use std::io::{Read, Seek, SeekFrom, Write};

    fn tmpfile(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hm-disk-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn create_open_round_trip() {
        let path = tmpfile("roundtrip");
        {
            let mut dm = DiskManager::create(&OsFs, &path).unwrap();
            let id = dm.allocate().unwrap();
            let mut page = Page::new(id);
            page.set_kind(PageKind::Heap);
            page.write_u64(100, 4242);
            dm.write_page(&mut page).unwrap();
            dm.sync().unwrap();
        }
        {
            let mut dm = DiskManager::open(&OsFs, &path).unwrap();
            assert_eq!(dm.page_count(), 2);
            let page = dm.read_page(PageId(1)).unwrap();
            assert_eq!(page.read_u64(100), 4242);
            assert_eq!(page.kind().unwrap(), PageKind::Heap);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_refuses_existing_file() {
        let path = tmpfile("existing");
        DiskManager::create(&OsFs, &path).unwrap();
        assert!(DiskManager::create(&OsFs, &path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_bounds_read_is_reported() {
        let path = tmpfile("oob");
        let mut dm = DiskManager::create(&OsFs, &path).unwrap();
        let err = dm.read_page(PageId(99)).unwrap_err();
        assert!(matches!(
            err,
            StorageError::PageOutOfBounds { page: 99, .. }
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_page_the_file_skipped_reads_as_zeroed() {
        let path = tmpfile("fresh");
        let mut dm = DiskManager::create(&OsFs, &path).unwrap();
        let id = dm.allocate().unwrap();
        assert!(dm.read_page(id).is_err(), "not written, not in the file");
        let mut next = Page::new(dm.allocate().unwrap());
        dm.write_page(&mut next).unwrap();
        let page = dm.read_page(id).unwrap();
        assert_eq!(page.id(), id);
        assert_eq!(page.kind().unwrap(), PageKind::Free);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_on_disk_is_detected() {
        let path = tmpfile("corrupt");
        {
            let mut dm = DiskManager::create(&OsFs, &path).unwrap();
            let id = dm.allocate().unwrap();
            let mut page = Page::new(id);
            page.set_kind(PageKind::Heap);
            page.write_u64(64, 1);
            dm.write_page(&mut page).unwrap();
        }
        // Flip a byte in page 1 directly in the file.
        {
            let mut f = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            f.seek(SeekFrom::Start(PAGE_SIZE as u64 + 300)).unwrap();
            let mut b = [0u8; 1];
            f.read_exact(&mut b).unwrap();
            b[0] ^= 0xFF;
            f.seek(SeekFrom::Start(PAGE_SIZE as u64 + 300)).unwrap();
            f.write_all(&b).unwrap();
        }
        let mut dm = DiskManager::open(&OsFs, &path).unwrap();
        assert!(dm.read_page(PageId(1)).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    /// Each fault `Page::verify` catches on a page in memory, `read_page`
    /// catches on the same page in the file.
    #[test]
    fn read_page_detects_every_flipped_bit_and_torn_half() {
        let path = tmpfile("faults");
        let mut dm = DiskManager::create(&OsFs, &path).unwrap();
        let mut page = crate::page::tests::patterned_page();
        while dm.page_count() <= page.id().0 {
            dm.allocate().unwrap();
        }
        dm.write_page(&mut page).unwrap();
        dm.read_page(page.id()).unwrap();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        let at = page.id().0 * PAGE_SIZE as u64;
        for (fault, bad) in crate::page::tests::corruptions(&page) {
            file.write_all_at(bad.bytes(), at).unwrap();
            assert!(
                matches!(
                    dm.read_page(page.id()),
                    Err(StorageError::Corruption { .. })
                ),
                "{fault} passed read_page"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stats_count_io() {
        let path = tmpfile("stats");
        let mut dm = DiskManager::create(&OsFs, &path).unwrap();
        let id = dm.allocate().unwrap();
        let mut page = Page::new(id);
        dm.write_page(&mut page).unwrap();
        dm.read_page(id).unwrap();
        dm.sync().unwrap();
        let s = dm.stats();
        assert!(s.writes >= 2); // meta page + data page
        assert_eq!(s.reads, 1);
        assert_eq!(s.syncs, 1);
        dm.reset_stats();
        assert_eq!(dm.stats(), IoStats::default());
        std::fs::remove_file(&path).unwrap();
    }
}
