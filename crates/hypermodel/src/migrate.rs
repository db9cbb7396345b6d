//! Node-migration primitives: the portable record format and slot-ref
//! encoding used to move a batch of nodes between two stores.
//!
//! A sharded deployment rebalances by *migrating a subtree*: the owning
//! shard exports the full relationship state of every moved node
//! ([`NodeExport`]), the driver rewrites each edge endpoint into the
//! destination shard's id space, and the destination installs the batch
//! in two steps — an **inert install** (records exist but are invisible
//! to scans and index lookups) followed by an **activate** (the commit
//! point of the migration). Edges *between* two nodes of the same batch
//! cannot be rewritten to destination locals before those locals exist,
//! so they are encoded as **slot references**: `Oid(MIGRATE_SLOT_BASE +
//! i)` names the `i`-th record of the batch, and the installer resolves
//! slots after assigning all locals.
//!
//! A batch crosses the wire as a `Vec<NodeExport>` through the shared
//! [`Wire`] codec; each value is the canonical [`NodeValue`] record, so
//! the format stays backend-agnostic.

use crate::codec::{Reader, Wire, Writer};
use crate::error::Result;
use crate::model::{NodeValue, Oid, RefEdge};

/// Oid values at or above this base are slot references into the
/// migration batch being installed: `Oid(MIGRATE_SLOT_BASE + i)` means
/// "the local id assigned to batch element `i`". Far above both real
/// backend locals and the ghost uid space.
pub const MIGRATE_SLOT_BASE: u64 = 1 << 56;

/// Whether an oid is a batch slot reference.
pub fn is_slot_ref(oid: Oid) -> bool {
    oid.0 >= MIGRATE_SLOT_BASE
}

/// The complete portable state of one migrating node: its value plus
/// every relationship endpoint, already translated into the destination
/// shard's id space (real locals, ghost locals, or slot references).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeExport {
    /// Attributes and content.
    pub value: NodeValue,
    /// Whether the node belongs to the test structure (sequential-scan
    /// extent) at its new home.
    pub in_structure: bool,
    /// 1-N parent, if any.
    pub parent: Option<Oid>,
    /// Ordered 1-N children.
    pub children: Vec<Oid>,
    /// M-N parts.
    pub parts: Vec<Oid>,
    /// Inverse M-N owners.
    pub part_of: Vec<Oid>,
    /// Outgoing attributed references.
    pub refs_to: Vec<RefEdge>,
    /// Incoming attributed references (`target` = the referencing node).
    pub refs_from: Vec<RefEdge>,
    /// Promote this existing local record (the destination's ghost
    /// stand-in for the migrating node) instead of creating a new one,
    /// so edges already pointing at the ghost stay valid.
    pub reuse: Option<Oid>,
}

/// The value, the structure flag, the parent (oid 0 for none), the four
/// edge lists, then the promoted ghost (oid 0 for none).
impl Wire for NodeExport {
    fn put(&self, w: &mut Writer) {
        self.value.put(w);
        self.in_structure.put(w);
        self.parent.map_or(0, |p| p.0).put(w);
        self.children.put(w);
        self.parts.put(w);
        self.part_of.put(w);
        self.refs_to.put(w);
        self.refs_from.put(w);
        self.reuse.map_or(0, |l| l.0).put(w);
    }
    fn get(r: &mut Reader) -> Result<Self> {
        // Fields in encoding order: a struct literal evaluates in the
        // order it is written.
        Ok(NodeExport {
            value: NodeValue::get(r)?,
            in_structure: bool::get(r)?,
            parent: Some(Oid::get(r)?).filter(|p| p.0 != 0),
            children: Vec::get(r)?,
            parts: Vec::get(r)?,
            part_of: Vec::get(r)?,
            refs_to: Vec::get(r)?,
            refs_from: Vec::get(r)?,
            reuse: Some(Oid::get(r)?).filter(|l| l.0 != 0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{from_bytes, to_bytes};
    use crate::model::{Content, NodeAttrs, NodeKind};

    fn export(uid: u64) -> NodeExport {
        NodeExport {
            value: NodeValue {
                kind: NodeKind::INTERNAL,
                attrs: NodeAttrs {
                    unique_id: uid,
                    ten: 1,
                    hundred: 2,
                    thousand: 3,
                    million: 4,
                },
                content: Content::None,
            },
            in_structure: true,
            parent: Some(Oid(9)),
            children: vec![Oid(MIGRATE_SLOT_BASE + 1), Oid(12)],
            parts: vec![Oid(3)],
            part_of: vec![],
            refs_to: vec![RefEdge {
                target: Oid(MIGRATE_SLOT_BASE),
                offset_from: 1,
                offset_to: 2,
            }],
            refs_from: vec![],
            reuse: Some(Oid(77)),
        }
    }

    #[test]
    fn batch_round_trips() {
        let batch = vec![export(1), export(2)];
        let bytes = to_bytes(&batch);
        assert_eq!(from_bytes::<Vec<NodeExport>>(&bytes).unwrap(), batch);
        let empty: Vec<NodeExport> = vec![];
        assert_eq!(
            from_bytes::<Vec<NodeExport>>(&to_bytes(&empty)).unwrap(),
            empty
        );
    }

    #[test]
    fn slot_refs_are_recognized() {
        assert!(is_slot_ref(Oid(MIGRATE_SLOT_BASE)));
        assert!(is_slot_ref(Oid(MIGRATE_SLOT_BASE + 500)));
        assert!(!is_slot_ref(Oid(1)));
        assert!(!is_slot_ref(Oid(1 << 48))); // ghost uid space stays below
    }

    #[test]
    fn corrupt_batches_are_rejected() {
        let decode = from_bytes::<Vec<NodeExport>>;
        let bytes = to_bytes(&vec![export(1)]);
        assert!(decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode(&[]).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_err());
        // The structure flag is a bool: 0 or 1.
        let mut flag = bytes;
        flag[4 + 4 + export(1).value.encode().len()] = 2;
        assert!(decode(&flag).is_err());
    }
}
