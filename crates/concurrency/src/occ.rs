//! Optimistic concurrency control with backward validation.
//!
//! The paper's systems "support optimistic concurrency control", and its
//! §7 multi-user experiment observes that concurrent update operations
//! conflict under OCC. This module reproduces that mechanism: transactions
//! read and write freely against their private state, recording a
//! read-set (object → version seen) and a write-set; at commit, the
//! validator checks that every read version is still current and, if so,
//! atomically bumps the versions of the write-set.
//!
//! Objects are abstract `u64` ids (node oids in the benchmark).

use std::collections::{HashMap, HashSet};

use parking_lot::Mutex;

/// Commit outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OccError {
    /// An object in the read set was modified by a committed transaction
    /// after it was read. Contains the first conflicting object id.
    Stale(u64),
}

impl std::fmt::Display for OccError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OccError::Stale(obj) => write!(f, "validation failed: object {obj} was modified"),
        }
    }
}

impl std::error::Error for OccError {}

/// Per-transaction read/write tracking.
#[derive(Debug, Default, Clone)]
pub struct OccTxn {
    reads: HashMap<u64, u64>,
    writes: HashSet<u64>,
}

impl OccTxn {
    /// A fresh transaction with empty read/write sets.
    pub fn new() -> OccTxn {
        OccTxn::default()
    }
}

/// The shared validator: current committed version of every object.
#[derive(Debug, Default)]
pub struct OccManager {
    versions: Mutex<HashMap<u64, u64>>,
    commits: Mutex<u64>,
    aborts: Mutex<u64>,
}

impl OccManager {
    /// A fresh manager (all objects implicitly at version 0).
    pub fn new() -> OccManager {
        OccManager::default()
    }

    /// Record that `txn` read `object`, capturing its current version.
    pub fn record_read(&self, txn: &mut OccTxn, object: u64) {
        let versions = self.versions.lock();
        let v = versions.get(&object).copied().unwrap_or(0);
        // First read wins: re-reading later must not refresh the version,
        // otherwise a concurrent commit between the two reads goes
        // unnoticed.
        txn.reads.entry(object).or_insert(v);
    }

    /// Record that `txn` intends to write `object`. Writes imply reads
    /// for validation purposes (no blind-write anomaly).
    pub fn record_write(&self, txn: &mut OccTxn, object: u64) {
        self.record_read(txn, object);
        txn.writes.insert(object);
    }

    /// Validate and commit: every read version must still be current.
    /// On success the write-set versions are bumped atomically.
    pub fn validate_and_commit(&self, txn: OccTxn) -> Result<u64, OccError> {
        let mut versions = self.versions.lock();
        for (&obj, &seen) in &txn.reads {
            let current = versions.get(&obj).copied().unwrap_or(0);
            if current != seen {
                drop(versions);
                *self.aborts.lock() += 1;
                return Err(OccError::Stale(obj));
            }
        }
        for &obj in &txn.writes {
            *versions.entry(obj).or_insert(0) += 1;
        }
        let mut commits = self.commits.lock();
        *commits += 1;
        Ok(*commits)
    }

    /// Committed transaction count.
    pub fn commit_count(&self) -> u64 {
        *self.commits.lock()
    }

    /// Aborted (validation-failed) transaction count.
    pub fn abort_count(&self) -> u64 {
        *self.aborts.lock()
    }

    /// Current version of an object (0 if never written).
    pub fn version_of(&self, object: u64) -> u64 {
        self.versions.lock().get(&object).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_only_transactions_always_commit() {
        let mgr = OccManager::new();
        let mut t = OccTxn::new();
        mgr.record_read(&mut t, 1);
        mgr.record_read(&mut t, 2);
        assert!(mgr.validate_and_commit(t).is_ok());
        assert_eq!(mgr.commit_count(), 1);
        assert_eq!(mgr.version_of(1), 0, "reads don't bump versions");
    }

    #[test]
    fn disjoint_writers_both_commit() {
        let mgr = OccManager::new();
        let mut a = OccTxn::new();
        let mut b = OccTxn::new();
        mgr.record_write(&mut a, 1);
        mgr.record_write(&mut b, 2);
        assert!(mgr.validate_and_commit(a).is_ok());
        assert!(mgr.validate_and_commit(b).is_ok());
        assert_eq!(mgr.version_of(1), 1);
        assert_eq!(mgr.version_of(2), 1);
    }

    #[test]
    fn write_write_conflict_aborts_second() {
        let mgr = OccManager::new();
        let mut a = OccTxn::new();
        let mut b = OccTxn::new();
        mgr.record_write(&mut a, 7);
        mgr.record_write(&mut b, 7); // b read version 0 too
        assert!(mgr.validate_and_commit(a).is_ok());
        assert_eq!(mgr.validate_and_commit(b), Err(OccError::Stale(7)));
        assert_eq!(mgr.abort_count(), 1);
    }

    #[test]
    fn read_write_conflict_aborts_reader() {
        let mgr = OccManager::new();
        let mut reader = OccTxn::new();
        mgr.record_read(&mut reader, 9);
        let mut writer = OccTxn::new();
        mgr.record_write(&mut writer, 9);
        mgr.validate_and_commit(writer).unwrap();
        assert_eq!(mgr.validate_and_commit(reader), Err(OccError::Stale(9)));
    }

    #[test]
    fn first_read_version_sticks() {
        let mgr = OccManager::new();
        let mut t = OccTxn::new();
        mgr.record_read(&mut t, 3);
        // A concurrent committed write.
        let mut w = OccTxn::new();
        mgr.record_write(&mut w, 3);
        mgr.validate_and_commit(w).unwrap();
        // Re-reading must not mask the conflict.
        mgr.record_read(&mut t, 3);
        assert!(mgr.validate_and_commit(t).is_err());
    }

    #[test]
    fn retry_after_abort_succeeds() {
        let mgr = OccManager::new();
        let mut a = OccTxn::new();
        mgr.record_write(&mut a, 4);
        let mut b = OccTxn::new();
        mgr.record_write(&mut b, 4);
        mgr.validate_and_commit(a).unwrap();
        assert!(mgr.validate_and_commit(b).is_err());
        // Retry with a fresh read of the new version.
        let mut b2 = OccTxn::new();
        mgr.record_write(&mut b2, 4);
        assert!(mgr.validate_and_commit(b2).is_ok());
        assert_eq!(mgr.version_of(4), 2);
    }

    #[test]
    fn concurrent_counter_increments_are_serializable() {
        // N threads increment a shared logical counter via OCC retry
        // loops; the number of successful commits must equal the final
        // version (each commit bumped it exactly once).
        let mgr = Arc::new(OccManager::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let mgr = Arc::clone(&mgr);
            handles.push(std::thread::spawn(move || {
                let mut done = 0;
                while done < 50 {
                    let mut t = OccTxn::new();
                    mgr.record_write(&mut t, 42);
                    if mgr.validate_and_commit(t).is_ok() {
                        done += 1;
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mgr.version_of(42), 400);
        assert_eq!(mgr.commit_count(), 400);
    }
}
