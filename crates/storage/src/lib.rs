//! # `storage` — the disk substrate for the HyperModel benchmark
//!
//! A from-scratch, single-file storage engine providing everything the
//! HyperModel backends need, in the style of the object servers the paper
//! benchmarked (GemStone, Vbase):
//!
//! * [`page`] — fixed 8 KiB pages with checksums and self-identification,
//! * [`disk`] — page-granular file I/O ([`disk::DiskManager`]),
//! * [`buffer`] — an LRU page cache that lends `&Page` borrows, and
//!   [`page::PageMut`]s that save what they overwrite, and finds a
//!   resident page by indexing a table with its id
//!   ([`buffer::BufferPool`]); the cold/warm benchmark distinction lives
//!   here,
//! * [`slotted`] — variable-size records on a page,
//! * [`heap`] — record files with overflow chains and clustered placement
//!   ([`heap::HeapFile`]),
//! * [`btree`] — a disk-resident B+Tree over 16-byte integer keys for the
//!   paper's index requirements ([`btree::BTree`]),
//! * [`wal`] / [`recovery`] — redo-only write-ahead logging and crash
//!   recovery (requirement R10),
//! * [`engine`] — the facade tying it together with a named-root catalog
//!   and commit/checkpoint protocol ([`engine::Engine`]),
//! * [`vfs`] — the file seam every file operation goes through, and the
//!   crash model recovery is held to.
//!
//! ## Example
//!
//! ```
//! use storage::engine::Engine;
//! use storage::heap::HeapFile;
//!
//! let path = std::env::temp_dir().join(format!("storage-doc-{}.db", std::process::id()));
//! let _ = std::fs::remove_file(&path);
//! let mut engine = Engine::create(&path, 128).unwrap();
//! let mut heap = HeapFile::create(engine.pool()).unwrap();
//! let rid = heap.insert(engine.pool(), b"a node record").unwrap();
//! engine.catalog_set("nodes", heap.first_page().as_u64()).unwrap();
//! engine.commit().unwrap();
//! assert_eq!(heap.get(engine.pool(), rid).unwrap(), b"a node record");
//! # let wal = engine.wal_path().to_path_buf();
//! # drop(engine);
//! # std::fs::remove_file(&path).unwrap();
//! # let _ = std::fs::remove_file(&wal);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod btree;
pub mod buffer;
pub mod checksum;
pub mod disk;
pub mod engine;
pub mod error;
pub mod heap;
pub mod page;
pub mod recovery;
pub mod slotted;
pub mod vfs;
pub mod wal;

pub use btree::{BTree, Key};
pub use buffer::{BufferPool, PoolStats};
pub use disk::{DiskManager, IoStats};
pub use engine::{CommitStats, Engine};
pub use error::{Result, StorageError};
pub use heap::{HeapFile, RecordId};
pub use page::{Page, PageId, PageKind, PAGE_SIZE};
