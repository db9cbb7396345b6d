//! Extension operations (paper §6.8) and the capability traits behind
//! them: dynamic schema (R4), versions (R5), access control (R11).
//!
//! The paper lists three optional operations "that might prove useful in
//! assessing support for the listed requirements":
//!
//! 1. add a new type / attribute (R4) — see [`DynamicSchemaStore`] and
//!    [`crate::schema`],
//! 2. create a new version and retrieve the previous or a specific version
//!    of a node (R5) — see [`VersionedStore`],
//! 3. set public read / no access on a document structure while keeping
//!    cross-structure links intact (R11) — see [`AccessControlledStore`].
//!
//! Backends implement these on top of [`crate::store::HyperStore`]; the
//! benchmark's `ext` phase exercises all three.

use crate::error::{HmError, Result};
use crate::model::{NodeValue, Oid};
use crate::schema::{AttrId, Schema};
use crate::store::HyperStore;

/// A monotonically growing version number per node; version 0 is the
/// value at creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionNo(pub u32);

/// Access mode of a node (R11). Document structures get a mode applied to
/// every node in their 1-N closure; links *between* structures with
/// different modes remain valid — only dereferencing is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessMode {
    /// Anyone may read and write (the default).
    #[default]
    PublicWrite,
    /// Anyone may read; writes are denied.
    PublicRead,
    /// All public access is denied.
    NoAccess,
}

impl AccessMode {
    /// May a public caller read under this mode?
    pub fn allows_read(self) -> bool {
        !matches!(self, AccessMode::NoAccess)
    }

    /// May a public caller write under this mode?
    pub fn allows_write(self) -> bool {
        matches!(self, AccessMode::PublicWrite)
    }
}

/// R4: run-time schema modification.
pub trait DynamicSchemaStore: HyperStore {
    /// The current schema registry.
    fn schema(&self) -> &Schema;

    /// Add a new node type (e.g. `DrawNode`) as a subtype of `parent`.
    fn add_node_type(&mut self, name: &str, parent: &str) -> Result<crate::model::NodeKind>;

    /// Add an attribute to an existing type with a default value for
    /// pre-existing nodes.
    fn add_type_attribute(&mut self, owner: &str, name: &str, default: i64) -> Result<AttrId>;

    /// Read a dynamic attribute of a node (the default if never written).
    fn dyn_attr(&mut self, oid: Oid, attr: AttrId) -> Result<i64>;

    /// Write a dynamic attribute of a node.
    fn set_dyn_attr(&mut self, oid: Oid, attr: AttrId, value: i64) -> Result<()>;
}

/// R5: version handling. Every node has a linear version history;
/// creating a version snapshots the current value.
pub trait VersionedStore: HyperStore {
    /// Snapshot the node's current value as a new version and return its
    /// number.
    fn create_version(&mut self, oid: Oid) -> Result<VersionNo>;

    /// Number of stored versions (0 if never versioned).
    fn version_count(&mut self, oid: Oid) -> Result<u32>;

    /// The value as of the snapshot `version`.
    fn version(&mut self, oid: Oid, version: VersionNo) -> Result<NodeValue>;

    /// The most recent snapshot — "retrieve the previous version of a
    /// node" (§6.8(2)). `None` if the node was never versioned.
    fn previous_version(&mut self, oid: Oid) -> Result<Option<NodeValue>> {
        match self.version_count(oid)? {
            0 => Ok(None),
            n => Ok(Some(self.version(oid, VersionNo(n - 1))?)),
        }
    }
}

/// R11: access control over document structures.
pub trait AccessControlledStore: HyperStore {
    /// Apply `mode` to every node in the 1-N closure of `root` (a
    /// "document-structure" in the paper's phrasing). Returns the number
    /// of nodes affected.
    fn set_structure_access(&mut self, root: Oid, mode: AccessMode) -> Result<usize>;

    /// The access mode of one node.
    fn access_of(&mut self, oid: Oid) -> Result<AccessMode>;

    /// Read the `hundred` attribute, enforcing read access.
    fn hundred_checked(&mut self, oid: Oid) -> Result<u32> {
        if !self.access_of(oid)?.allows_read() {
            return Err(HmError::AccessDenied(format!("read of {oid}")));
        }
        self.hundred_of(oid)
    }

    /// Write the `hundred` attribute, enforcing write access.
    fn set_hundred_checked(&mut self, oid: Oid, value: u32) -> Result<()> {
        if !self.access_of(oid)?.allows_write() {
            return Err(HmError::AccessDenied(format!("write of {oid}")));
        }
        self.set_hundred(oid, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_mode_semantics() {
        assert!(AccessMode::PublicWrite.allows_read());
        assert!(AccessMode::PublicWrite.allows_write());
        assert!(AccessMode::PublicRead.allows_read());
        assert!(!AccessMode::PublicRead.allows_write());
        assert!(!AccessMode::NoAccess.allows_read());
        assert!(!AccessMode::NoAccess.allows_write());
        assert_eq!(AccessMode::default(), AccessMode::PublicWrite);
    }

    #[test]
    fn version_numbers_order() {
        assert!(VersionNo(0) < VersionNo(1));
    }
}
