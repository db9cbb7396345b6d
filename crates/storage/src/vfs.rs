//! The file seam: every file operation of the engine — [`crate::disk`],
//! [`crate::wal`], [`crate::recovery`] and [`crate::engine`] — and of the
//! sharded deployment's decision log (`shard::coordinator::CommitLog`)
//! goes through a [`Vfs`] and the [`VfsFile`]s it opens.
//!
//! The only implementation here is the operating system's ([`OsFs`], and
//! [`std::fs::File`] for its files); the path-taking entry points
//! ([`crate::engine::Engine::create`], [`crate::engine::Engine::open`],
//! [`crate::recovery::resolve_in_doubt`]) use it. The `_in` variants of
//! those entry points take any other, which is how the crate's tests run
//! the engine, and the `shard` crate's tests a whole two-shard
//! deployment, on files in memory that record each call and fail on
//! demand.
//!
//! # Crash model
//!
//! What a crash may leave of the files, and so what recovery must accept,
//! is stated once, here, in terms of the operations of this module:
//!
//! * **Per-file prefix.** Each file is judged on its own. Everything up to
//!   its last [`VfsFile::sync_data`] that returned is on disk, in order.
//! * **Unsynced operations kept, dropped or torn.** The writes and length
//!   changes issued to a file after its last sync are all kept, or all
//!   dropped, or all kept with the last write torn: part of its bytes new
//!   and the rest as they were. A page write tears at its 4 KiB boundary,
//!   either half new; an append to a log (the write-ahead log, or the
//!   decision log of `shard::coordinator`) tears at any byte, the rest of
//!   it missing.
//! * **Name operations are durable at once.** Creating, renaming and
//!   removing a file take effect when [`Vfs::open`], [`Vfs::rename`] or
//!   [`Vfs::remove`] returns. For a rename [`OsFs`] makes that so by
//!   syncing the directory; creating and removing are assumed durable
//!   without one.
//!
//! Recovery must open every state this allows and find in it exactly the
//! transactions whose marker's sync returned, none whose marker was never
//! written, and any of those whose marker was written but not synced.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// How [`Vfs::open`] treats the file at the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// An existing file, for reading only.
    Read,
    /// An existing file, for reading and writing.
    Write,
    /// For reading and writing, created empty if missing.
    Create,
    /// A new empty file, for reading and writing; an error if one exists.
    CreateNew,
}

/// Opens, renames and removes files by path.
pub trait Vfs: Send + Sync {
    /// Open the file at `path` as `mode` says.
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>>;
    /// Give the file at `from` the name `to`, replacing any file there,
    /// durably: a crash after this returns finds the file under `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove the file at `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// One open file: positional reads and writes, a data sync, and its
/// length.
pub trait VfsFile: Send + Sync {
    /// Fill `buf` from the bytes at `offset`; fails if the file ends first.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
    /// Write all of `buf` at `offset`, growing the file if it ends first.
    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()>;
    /// Make the file's bytes and length durable (`fdatasync`).
    fn sync_data(&self) -> io::Result<()>;
    /// Cut the file to `len` bytes or extend it with zeros.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// The file's length in bytes.
    fn size(&self) -> io::Result<u64>;
}

/// The operating system's file system.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsFs;

impl Vfs for OsFs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>> {
        let mut options = OpenOptions::new();
        options.read(true).write(mode != OpenMode::Read);
        match mode {
            OpenMode::Read | OpenMode::Write => {}
            OpenMode::Create => {
                options.create(true);
            }
            OpenMode::CreateNew => {
                options.create_new(true);
            }
        }
        Ok(Box::new(options.open(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)?;
        let dir = match to.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
}

impl VfsFile for File {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        FileExt::read_exact_at(self, buf, offset)
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        FileExt::write_all_at(self, buf, offset)
    }

    fn sync_data(&self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }

    fn size(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }
}
