//! Error types for the storage engine.

use std::fmt;

/// Errors produced by the storage layer.
///
/// Every fallible storage operation returns [`Result`]. The storage layer
/// never panics on I/O problems or corrupt data; corruption is reported as
/// [`StorageError::Corruption`] with enough context to locate the damage.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O operation failed.
    Io(std::io::Error),
    /// A page failed its checksum or structural validation.
    Corruption {
        /// Page where the corruption was detected, if known.
        page: Option<u64>,
        /// Human-readable description of what failed to validate.
        detail: String,
    },
    /// A requested page does not exist in the file.
    PageOutOfBounds {
        /// The requested page id.
        page: u64,
        /// Number of pages currently allocated.
        page_count: u64,
    },
    /// A record id referred to a slot that does not exist or was deleted.
    RecordNotFound {
        /// Page of the dangling record id.
        page: u64,
        /// Slot of the dangling record id.
        slot: u16,
    },
    /// A value was too large to store even via overflow chains.
    ValueTooLarge(usize),
    /// The buffer pool could not find an evictable frame: every frame is
    /// dirty (no-steal keeps an open transaction's pages resident) or
    /// pinned. Dirty and pinned frames may overlap.
    PoolExhausted {
        /// Frames in the pool.
        capacity: usize,
        /// Frames the open transaction has dirtied.
        dirty: usize,
        /// Pinned frames: 1 while a heap scan holds its page resident to
        /// read an overflow chain, else 0.
        pinned: usize,
    },
    /// A named catalog entry was not found.
    CatalogMissing(String),
    /// A named catalog entry already exists.
    CatalogExists(String),
    /// The write-ahead log contained an unparseable record.
    WalCorrupt {
        /// Byte offset of the bad record within the log.
        offset: u64,
        /// Description of the parse failure.
        detail: String,
    },
    /// A key being inserted into a unique index already exists.
    DuplicateKey,
    /// The storage engine was used in an unsupported way.
    InvalidArgument(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Corruption { page, detail } => match page {
                Some(p) => write!(f, "corruption on page {p}: {detail}"),
                None => write!(f, "corruption: {detail}"),
            },
            StorageError::PageOutOfBounds { page, page_count } => {
                write!(f, "page {page} out of bounds (page count {page_count})")
            }
            StorageError::RecordNotFound { page, slot } => {
                write!(f, "record not found at page {page} slot {slot}")
            }
            StorageError::ValueTooLarge(n) => write!(f, "value of {n} bytes is too large"),
            StorageError::PoolExhausted {
                capacity,
                dirty,
                pinned,
            } => write!(
                f,
                "buffer pool exhausted: of {capacity} frames, {dirty} are dirty and {pinned} \
                 pinned; commit more often or enlarge the pool"
            ),
            StorageError::CatalogMissing(name) => write!(f, "catalog entry `{name}` not found"),
            StorageError::CatalogExists(name) => write!(f, "catalog entry `{name}` already exists"),
            StorageError::WalCorrupt { offset, detail } => {
                write!(f, "wal corrupt at offset {offset}: {detail}")
            }
            StorageError::DuplicateKey => write!(f, "duplicate key in unique index"),
            StorageError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Convenience alias used throughout the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let e = StorageError::Corruption {
            page: Some(7),
            detail: "bad magic".into(),
        };
        assert_eq!(e.to_string(), "corruption on page 7: bad magic");
        let e = StorageError::PageOutOfBounds {
            page: 9,
            page_count: 3,
        };
        assert_eq!(e.to_string(), "page 9 out of bounds (page count 3)");
        let e = StorageError::RecordNotFound { page: 1, slot: 2 };
        assert_eq!(e.to_string(), "record not found at page 1 slot 2");
        let e = StorageError::PoolExhausted {
            capacity: 64,
            dirty: 63,
            pinned: 1,
        };
        assert_eq!(
            e.to_string(),
            "buffer pool exhausted: of 64 frames, 63 are dirty and 1 pinned; \
             commit more often or enlarge the pool"
        );
    }

    #[test]
    fn io_error_converts_and_sources() {
        let io = std::io::Error::other("boom");
        let e: StorageError = io.into();
        assert!(matches!(e, StorageError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn corruption_without_page_formats() {
        let e = StorageError::Corruption {
            page: None,
            detail: "truncated".into(),
        };
        assert_eq!(e.to_string(), "corruption: truncated");
    }
}
