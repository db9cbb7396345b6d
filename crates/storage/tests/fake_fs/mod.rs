//! Files in memory for the engine's tests: a [`Vfs`] that records every
//! call, fails a write or a sync on demand, and rebuilds from what it
//! recorded every set of files a crash could have left behind, as the
//! crash model of `storage::vfs` states it.

// Each test binary that includes this module uses a part of it.
#![allow(dead_code)]

use sanity::sync::{Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use storage::vfs::{OpenMode, Vfs, VfsFile};

/// Files by path, with their bytes.
pub type Files = Vec<(PathBuf, Vec<u8>)>;

/// One recorded call.
#[derive(Debug, Clone)]
pub enum Op {
    /// A file was created (empty).
    Create(PathBuf),
    /// The file at `from` was renamed to `to`, replacing any file there.
    Rename {
        from: PathBuf,
        to: PathBuf,
    },
    Remove(PathBuf),
    Read {
        path: PathBuf,
        offset: u64,
        len: usize,
    },
    Write {
        path: PathBuf,
        offset: u64,
        bytes: Vec<u8>,
    },
    SetLen {
        path: PathBuf,
        len: u64,
    },
    /// A sync that returned `Ok`.
    Sync(PathBuf),
}

impl Op {
    /// The file the call was made on (a rename's new name).
    pub fn path(&self) -> &Path {
        match self {
            Op::Create(p) | Op::Remove(p) | Op::Sync(p) | Op::Rename { to: p, .. } => p,
            Op::Read { path, .. } | Op::Write { path, .. } | Op::SetLen { path, .. } => path,
        }
    }
}

#[derive(Default)]
struct Inner {
    files: BTreeMap<PathBuf, Vec<u8>>,
    trace: Vec<Op>,
    fail_write: HashSet<PathBuf>,
    /// Per path, how many more syncs return before one fails.
    fail_sync: HashMap<PathBuf, usize>,
}

/// A file system in memory; clones share it.
#[derive(Clone, Default)]
pub struct FakeFs(Arc<Mutex<Inner>>);

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected {what} failure"))
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display()))
}

impl FakeFs {
    /// A file system holding `files` and nothing recorded yet.
    pub fn with_files(files: impl IntoIterator<Item = (PathBuf, Vec<u8>)>) -> FakeFs {
        let fs = FakeFs::default();
        fs.lock().files = files.into_iter().collect();
        fs
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.0.lock()
    }

    /// The file's bytes as reads see them now.
    pub fn file(&self, path: &Path) -> Option<Vec<u8>> {
        self.lock().files.get(path).cloned()
    }

    /// Replace the file's bytes, unrecorded.
    pub fn put_file(&self, path: &Path, bytes: Vec<u8>) {
        self.lock().files.insert(path.to_path_buf(), bytes);
    }

    /// Every file and its bytes.
    pub fn files(&self) -> Files {
        self.lock().files.clone().into_iter().collect()
    }

    /// Whether the files and their bytes are `files`.
    pub fn holds(&self, files: &[(PathBuf, Vec<u8>)]) -> bool {
        self.lock()
            .files
            .iter()
            .eq(files.iter().map(|(p, b)| (p, b)))
    }

    /// A copy of everything recorded so far.
    pub fn trace(&self) -> Vec<Op> {
        self.lock().trace.clone()
    }

    /// A copy of the calls recorded from index `from` on.
    pub fn trace_since(&self, from: usize) -> Vec<Op> {
        self.lock().trace[from..].to_vec()
    }

    /// Number of calls recorded so far.
    pub fn trace_len(&self) -> usize {
        self.lock().trace.len()
    }

    /// The next write to `path` fails and writes nothing.
    pub fn fail_next_write(&self, path: &Path) {
        self.lock().fail_write.insert(path.to_path_buf());
    }

    /// The next sync of `path` fails and makes nothing durable.
    pub fn fail_next_sync(&self, path: &Path) {
        self.fail_sync_after(path, 0);
    }

    /// The sync of `path` after the next `syncs` fails and makes nothing
    /// durable.
    pub fn fail_sync_after(&self, path: &Path, syncs: usize) {
        self.lock().fail_sync.insert(path.to_path_buf(), syncs);
    }
}

impl Vfs for FakeFs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn VfsFile>> {
        let mut inner = self.lock();
        let exists = inner.files.contains_key(path);
        match mode {
            OpenMode::Read | OpenMode::Write if !exists => return Err(not_found(path)),
            OpenMode::CreateNew if exists => {
                return Err(io::Error::new(io::ErrorKind::AlreadyExists, "exists"))
            }
            OpenMode::Create | OpenMode::CreateNew if !exists => {
                inner.files.insert(path.to_path_buf(), Vec::new());
                inner.trace.push(Op::Create(path.to_path_buf()));
            }
            _ => {}
        }
        Ok(Box::new(FakeFile {
            fs: self.clone(),
            path: path.to_path_buf(),
            writable: mode != OpenMode::Read,
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        let bytes = inner.files.remove(from).ok_or_else(|| not_found(from))?;
        inner.files.insert(to.to_path_buf(), bytes);
        inner.trace.push(Op::Rename {
            from: from.to_path_buf(),
            to: to.to_path_buf(),
        });
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut inner = self.lock();
        inner.files.remove(path).ok_or_else(|| not_found(path))?;
        inner.trace.push(Op::Remove(path.to_path_buf()));
        Ok(())
    }
}

struct FakeFile {
    fs: FakeFs,
    path: PathBuf,
    writable: bool,
}

impl FakeFile {
    /// Run `f` on the file's bytes and record what it returns.
    fn with(&self, f: impl FnOnce(&mut Vec<u8>) -> io::Result<Option<Op>>) -> io::Result<()> {
        let mut inner = self.fs.lock();
        let bytes = inner
            .files
            .get_mut(&self.path)
            .ok_or_else(|| not_found(&self.path))?;
        if let Some(op) = f(bytes)? {
            inner.trace.push(op);
        }
        Ok(())
    }

    fn writable(&self) -> io::Result<()> {
        match self.writable {
            true => Ok(()),
            false => Err(io::Error::new(io::ErrorKind::PermissionDenied, "read only")),
        }
    }
}

impl VfsFile for FakeFile {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.with(|bytes| {
            let at = offset as usize;
            let src = bytes
                .get(at..at + buf.len())
                .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
            buf.copy_from_slice(src);
            Ok(Some(Op::Read {
                path: self.path.clone(),
                offset,
                len: buf.len(),
            }))
        })
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.writable()?;
        if self.fs.lock().fail_write.remove(&self.path) {
            return Err(injected("write"));
        }
        self.with(|bytes| {
            write_at(bytes, offset, buf);
            Ok(Some(Op::Write {
                path: self.path.clone(),
                offset,
                bytes: buf.to_vec(),
            }))
        })
    }

    fn sync_data(&self) -> io::Result<()> {
        {
            let mut inner = self.fs.lock();
            match inner.fail_sync.get_mut(&self.path) {
                Some(0) => {
                    inner.fail_sync.remove(&self.path);
                    return Err(injected("sync"));
                }
                Some(n) => *n -= 1,
                None => {}
            }
        }
        self.with(|_| Ok(Some(Op::Sync(self.path.clone()))))
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.writable()?;
        self.with(|bytes| {
            bytes.resize(len as usize, 0);
            Ok(Some(Op::SetLen {
                path: self.path.clone(),
                len,
            }))
        })
    }

    fn size(&self) -> io::Result<u64> {
        let mut len = 0;
        self.with(|bytes| {
            len = bytes.len() as u64;
            Ok(None)
        })?;
        Ok(len)
    }
}

fn write_at(bytes: &mut Vec<u8>, offset: u64, buf: &[u8]) {
    let (at, end) = (offset as usize, offset as usize + buf.len());
    if bytes.len() < end {
        bytes.resize(end, 0);
    }
    bytes[at..end].copy_from_slice(buf);
}

// ---- crash states -------------------------------------------------------

/// What a crash leaves of one file's calls since its last sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// All of them kept (also when there are none).
    Kept,
    /// None of them kept.
    Dropped,
    /// All kept, but of the last write only bytes `from..to` are new: the
    /// rest of a page write is as it was, and a log write cut short is
    /// missing the rest.
    Torn { from: usize, to: usize },
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant::Kept => write!(f, "unsynced kept"),
            Variant::Dropped => write!(f, "unsynced dropped"),
            Variant::Torn { from, to } => write!(f, "last write torn, bytes {from}..{to} new"),
        }
    }
}

/// One file as the trace has built it so far.
#[derive(Debug, Clone, Default)]
struct FileHistory {
    /// The bytes as of the last sync (or creation).
    synced: Vec<u8>,
    /// The bytes with every call applied.
    current: Vec<u8>,
    /// Trace indices of the writes and length changes since the last sync.
    unsynced: Vec<usize>,
    /// Trace index of the last call that changed `current`: with the
    /// variant, it names the bytes of every crash state of the file.
    version: usize,
}

/// Whether the file at `path` is a log — a write-ahead log (`.wal`) or a
/// coordinator's decision log (`.log`) — whose appends tear at any byte
/// rather than at a 4 KiB boundary.
fn is_log(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "wal" || e == "log")
}

/// The byte ranges a torn write of `len` bytes to a log (`log`) or a
/// database file leaves new: a log write cut at every byte of its first
/// KiB and at each 4 KiB boundary after that, a page write's either half
/// on each side of each 4 KiB boundary.
fn tears(len: usize, log: bool) -> Vec<(usize, usize)> {
    const SECTOR: usize = 4096;
    let boundaries = (SECTOR..len).step_by(SECTOR);
    if log {
        (1..len.min(1025))
            .chain(boundaries.filter(|&b| b > 1024))
            .map(|cut| (0, cut))
            .collect()
    } else {
        boundaries.flat_map(|b| [(0, b), (b, len)]).collect()
    }
}

impl FileHistory {
    fn variants(&self, path: &Path, trace: &[Op]) -> Vec<Variant> {
        if self.unsynced.is_empty() {
            return vec![Variant::Kept];
        }
        let mut out = vec![Variant::Kept, Variant::Dropped];
        let last_write = self.unsynced.iter().rev().find_map(|&i| match &trace[i] {
            Op::Write { bytes, .. } => Some(bytes.len()),
            _ => None,
        });
        if let Some(len) = last_write {
            let torn = tears(len, is_log(path));
            out.extend(
                torn.into_iter()
                    .map(|(from, to)| Variant::Torn { from, to }),
            );
        }
        out
    }

    fn image(&self, variant: Variant, trace: &[Op]) -> Vec<u8> {
        match variant {
            Variant::Kept => self.current.clone(),
            Variant::Dropped => self.synced.clone(),
            Variant::Torn { from, to } => {
                let last_write = self
                    .unsynced
                    .iter()
                    .rposition(|&i| matches!(trace[i], Op::Write { .. }))
                    .expect("a torn variant has a write");
                let mut bytes = self.synced.clone();
                for (n, &i) in self.unsynced.iter().enumerate() {
                    match &trace[i] {
                        Op::Write {
                            offset, bytes: buf, ..
                        } if n == last_write => {
                            write_at(&mut bytes, offset + from as u64, &buf[from..to])
                        }
                        Op::Write {
                            offset, bytes: buf, ..
                        } => write_at(&mut bytes, *offset, buf),
                        Op::SetLen { len, .. } => bytes.resize(*len as usize, 0),
                        _ => unreachable!("only writes and length changes are unsynced"),
                    }
                }
                bytes
            }
        }
    }
}

/// One file of a crash state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FileState {
    pub path: PathBuf,
    pub variant: Variant,
    /// With `variant`, names the bytes: the trace index of the last call
    /// that changed the file.
    pub version: usize,
}

/// Every crash state of `trace`: after each of its calls from `start` on
/// that changed a file, every combination of one [`Variant`] per file.
/// `visit` gets the prefix (the number of calls the state is after), the
/// state, and a function that builds its files' bytes.
pub fn crash_states(
    trace: &[Op],
    start: usize,
    mut visit: impl FnMut(usize, &[FileState], &dyn Fn() -> Files),
) {
    let mut files: BTreeMap<PathBuf, FileHistory> = BTreeMap::new();
    for (i, op) in trace.iter().enumerate() {
        let path = op.path().to_path_buf();
        match op {
            Op::Read { .. } => {}
            Op::Create(_) => {
                files.insert(
                    path,
                    FileHistory {
                        version: i,
                        ..FileHistory::default()
                    },
                );
            }
            Op::Rename { from, .. } => {
                let file = files.remove(from).expect("renamed file exists");
                files.insert(path, file);
            }
            Op::Remove(_) => {
                files.remove(&path);
            }
            Op::Write { offset, bytes, .. } => {
                let file = files.get_mut(&path).expect("written file exists");
                write_at(&mut file.current, *offset, bytes);
                file.unsynced.push(i);
                file.version = i;
            }
            Op::SetLen { len, .. } => {
                let file = files.get_mut(&path).expect("resized file exists");
                file.current.resize(*len as usize, 0);
                file.unsynced.push(i);
                file.version = i;
            }
            Op::Sync(_) => {
                let file = files.get_mut(&path).expect("synced file exists");
                if !file.unsynced.is_empty() {
                    file.synced = file.current.clone();
                    file.unsynced.clear();
                }
            }
        }
        // A read changes no state; a sync offers none that is new, but
        // what the states must hold changes with it.
        if i + 1 < start || (matches!(op, Op::Read { .. }) && i + 1 > start) {
            continue;
        }
        let per_file: Vec<(&PathBuf, &FileHistory, Vec<Variant>)> = files
            .iter()
            .map(|(p, f)| (p, f, f.variants(p, trace)))
            .collect();
        let mut pick = vec![0; per_file.len()];
        loop {
            let state: Vec<FileState> = per_file
                .iter()
                .zip(&pick)
                .map(|((path, file, variants), &n)| FileState {
                    path: (*path).clone(),
                    variant: variants[n],
                    version: file.version,
                })
                .collect();
            let build = || {
                per_file
                    .iter()
                    .zip(&pick)
                    .map(|((path, file, variants), &n)| {
                        ((*path).clone(), file.image(variants[n], trace))
                    })
                    .collect()
            };
            visit(i + 1, &state, &build);
            // Next combination, the last file's variant varying fastest.
            let Some(f) = (0..pick.len())
                .rev()
                .find(|&f| pick[f] + 1 < per_file[f].2.len())
            else {
                break;
            };
            pick[f] += 1;
            pick[f + 1..].fill(0);
        }
    }
}
