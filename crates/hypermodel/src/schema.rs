//! Dynamic schema support (requirement R4, extension operation §6.8(1)).
//!
//! The paper requires that *"it should be possible to dynamically add new
//! types, and specialize existing ones by adding new attributes"*, with the
//! worked example of adding a `DrawNode` consisting of circles, rectangles
//! and ellipses. [`Schema`] is a small runtime type registry:
//!
//! * the built-in generalization hierarchy `Node ⟵ TextNode, FormNode` is
//!   pre-registered,
//! * new types are subtypes of an existing type and get a fresh
//!   [`NodeKind`] code (≥ [`NodeKind::FIRST_DYNAMIC`]),
//! * attributes can be added to any type at run time; nodes that predate
//!   the attribute read its default value.
//!
//! Backends embed a `Schema` and persist it (the disk backends serialize
//! it through the catalog); the core provides the registry logic and its
//! serialization so all backends behave identically.

use crate::codec::{self, Reader, Wire, Writer};
use crate::error::{HmError, Result};
use crate::model::NodeKind;

/// Identifier of a dynamically added attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u32);

/// A type in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeDef {
    /// The kind code nodes of this type carry.
    pub kind: NodeKind,
    /// Type name (`"Node"`, `"TextNode"`, `"DrawNode"`, …).
    pub name: String,
    /// Supertype, `None` only for the root type `Node`.
    pub parent: Option<NodeKind>,
}

/// A dynamically added attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDef {
    /// Attribute id.
    pub id: AttrId,
    /// Attribute name.
    pub name: String,
    /// The type it was added to (inherited by subtypes).
    pub owner: NodeKind,
    /// Value for nodes that predate the attribute.
    pub default: i64,
}

/// A runtime type/attribute registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    types: Vec<TypeDef>,
    attrs: Vec<AttrDef>,
    next_kind: u16,
}

impl Schema {
    /// The registry with the paper's built-in hierarchy.
    pub fn builtin() -> Schema {
        Schema {
            types: vec![
                TypeDef {
                    kind: NodeKind::INTERNAL,
                    name: "Node".into(),
                    parent: None,
                },
                TypeDef {
                    kind: NodeKind::TEXT,
                    name: "TextNode".into(),
                    parent: Some(NodeKind::INTERNAL),
                },
                TypeDef {
                    kind: NodeKind::FORM,
                    name: "FormNode".into(),
                    parent: Some(NodeKind::INTERNAL),
                },
            ],
            attrs: Vec::new(),
            next_kind: NodeKind::FIRST_DYNAMIC,
        }
    }

    /// All registered types.
    pub fn types(&self) -> &[TypeDef] {
        &self.types
    }

    /// All dynamically added attributes.
    pub fn attrs(&self) -> &[AttrDef] {
        &self.attrs
    }

    /// Look up a type by name.
    pub fn type_by_name(&self, name: &str) -> Option<&TypeDef> {
        self.types.iter().find(|t| t.name == name)
    }

    /// Look up a type by kind code.
    pub fn type_by_kind(&self, kind: NodeKind) -> Option<&TypeDef> {
        self.types.iter().find(|t| t.kind == kind)
    }

    /// R4: register a new subtype of `parent`, returning its kind code.
    pub fn add_type(&mut self, name: &str, parent: &str) -> Result<NodeKind> {
        if self.type_by_name(name).is_some() {
            return Err(HmError::Schema(format!("type `{name}` already exists")));
        }
        let parent_kind = self
            .type_by_name(parent)
            .ok_or_else(|| HmError::Schema(format!("unknown supertype `{parent}`")))?
            .kind;
        let kind = NodeKind(self.next_kind);
        self.next_kind = self
            .next_kind
            .checked_add(1)
            .ok_or_else(|| HmError::Schema("type code space exhausted".into()))?;
        self.types.push(TypeDef {
            kind,
            name: name.into(),
            parent: Some(parent_kind),
        });
        Ok(kind)
    }

    /// R4: add an attribute to type `owner` with a default for existing
    /// nodes. Returns the attribute id.
    pub fn add_attribute(&mut self, owner: &str, name: &str, default: i64) -> Result<AttrId> {
        let owner_kind = self
            .type_by_name(owner)
            .ok_or_else(|| HmError::Schema(format!("unknown type `{owner}`")))?
            .kind;
        if self
            .attrs
            .iter()
            .any(|a| a.name == name && a.owner == owner_kind)
        {
            return Err(HmError::Schema(format!(
                "attribute `{name}` already exists on `{owner}`"
            )));
        }
        let id = AttrId(self.attrs.len() as u32);
        self.attrs.push(AttrDef {
            id,
            name: name.into(),
            owner: owner_kind,
            default,
        });
        Ok(id)
    }

    /// Look up an attribute by owner type name and attribute name,
    /// searching the supertype chain (attributes are inherited).
    pub fn attr_for(&self, kind: NodeKind, name: &str) -> Option<&AttrDef> {
        let mut current = Some(kind);
        while let Some(k) = current {
            if let Some(a) = self.attrs.iter().find(|a| a.owner == k && a.name == name) {
                return Some(a);
            }
            current = self.type_by_kind(k).and_then(|t| t.parent);
        }
        None
    }

    /// True if `kind` is `ancestor` or a (transitive) subtype of it.
    pub fn is_subtype(&self, kind: NodeKind, ancestor: NodeKind) -> bool {
        let mut current = Some(kind);
        while let Some(k) = current {
            if k == ancestor {
                return true;
            }
            current = self.type_by_kind(k).and_then(|t| t.parent);
        }
        false
    }

    // ---- serialization (for persistent backends) ----------------------

    /// Serialize to the catalogue record (little-endian, counted lists,
    /// length-prefixed strings).
    pub fn encode(&self) -> Vec<u8> {
        codec::to_bytes(self)
    }

    /// Deserialize a buffer produced by [`Schema::encode`].
    pub fn decode(buf: &[u8]) -> Result<Schema> {
        codec::from_bytes(buf)
    }
}

/// `next_kind`, then the types, then the attributes.
impl Wire for Schema {
    fn put(&self, w: &mut Writer) {
        w.u16(self.next_kind);
        self.types.put(w);
        self.attrs.put(w);
    }
    fn get(r: &mut Reader) -> Result<Self> {
        Ok(Schema {
            next_kind: r.u16()?,
            types: Vec::get(r)?,
            attrs: Vec::get(r)?,
        })
    }
}

/// Kind, supertype (`u16::MAX` for none), name.
impl Wire for TypeDef {
    fn put(&self, w: &mut Writer) {
        w.u16(self.kind.0);
        w.u16(self.parent.map_or(u16::MAX, |p| p.0));
        self.name.put(w);
    }
    fn get(r: &mut Reader) -> Result<Self> {
        let kind = NodeKind(r.u16()?);
        let parent = Some(NodeKind(r.u16()?)).filter(|p| p.0 != u16::MAX);
        Ok(TypeDef {
            kind,
            name: String::get(r)?,
            parent,
        })
    }
}

/// Id, owner, default, name.
impl Wire for AttrDef {
    fn put(&self, w: &mut Writer) {
        w.u32(self.id.0);
        w.u16(self.owner.0);
        self.default.put(w);
        self.name.put(w);
    }
    fn get(r: &mut Reader) -> Result<Self> {
        Ok(AttrDef {
            id: AttrId(r.u32()?),
            owner: NodeKind(r.u16()?),
            default: i64::get(r)?,
            name: String::get(r)?,
        })
    }
}

impl Default for Schema {
    fn default() -> Self {
        Schema::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_hierarchy_matches_figure_1() {
        let s = Schema::builtin();
        assert_eq!(s.types().len(), 3);
        let text = s.type_by_name("TextNode").unwrap();
        assert_eq!(text.parent, Some(NodeKind::INTERNAL));
        assert!(s.is_subtype(NodeKind::TEXT, NodeKind::INTERNAL));
        assert!(s.is_subtype(NodeKind::FORM, NodeKind::INTERNAL));
        assert!(!s.is_subtype(NodeKind::INTERNAL, NodeKind::TEXT));
    }

    #[test]
    fn add_draw_node_type_per_r4() {
        let mut s = Schema::builtin();
        let draw = s.add_type("DrawNode", "Node").unwrap();
        assert!(draw.0 >= NodeKind::FIRST_DYNAMIC);
        assert!(s.is_subtype(draw, NodeKind::INTERNAL));
        // "consisting of circles, rectangles and ellipses"
        let circles = s.add_attribute("DrawNode", "circles", 0).unwrap();
        let rects = s.add_attribute("DrawNode", "rectangles", 0).unwrap();
        assert_ne!(circles, rects);
        assert!(s.attr_for(draw, "circles").is_some());
    }

    #[test]
    fn duplicate_type_and_attribute_are_rejected() {
        let mut s = Schema::builtin();
        s.add_type("DrawNode", "Node").unwrap();
        assert!(s.add_type("DrawNode", "Node").is_err());
        assert!(s.add_type("X", "NoSuchParent").is_err());
        s.add_attribute("Node", "color", 7).unwrap();
        assert!(s.add_attribute("Node", "color", 7).is_err());
        assert!(s.add_attribute("Nope", "color", 7).is_err());
    }

    #[test]
    fn attributes_are_inherited_by_subtypes() {
        let mut s = Schema::builtin();
        s.add_attribute("Node", "weight", 42).unwrap();
        let a = s.attr_for(NodeKind::TEXT, "weight").unwrap();
        assert_eq!(a.default, 42);
        let draw = s.add_type("DrawNode", "TextNode").unwrap();
        assert!(
            s.attr_for(draw, "weight").is_some(),
            "two levels of inheritance"
        );
        assert!(s.attr_for(draw, "missing").is_none());
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut s = Schema::builtin();
        s.add_type("DrawNode", "Node").unwrap();
        s.add_attribute("DrawNode", "circles", 3).unwrap();
        s.add_attribute("Node", "weight", -5).unwrap();
        let decoded = Schema::decode(&s.encode()).unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn decode_rejects_truncation() {
        let s = Schema::builtin();
        let bytes = s.encode();
        assert!(Schema::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(Schema::decode(&[]).is_err());
    }

    #[test]
    fn lying_type_count_is_refused_without_reserving_it() {
        // Four billion types announced, none present: before the shared
        // codec this reserved 128 GiB and aborted the process.
        assert!(Schema::decode(&[0, 0, 0xff, 0xff, 0xff, 0xff]).is_err());
    }

    /// The catalogue record the hand-written encoder before the shared
    /// codec produced: what every `disk` and `rel` database holds.
    #[test]
    fn catalogue_record_matches_its_on_disk_golden() {
        let mut s = Schema::builtin();
        s.add_type("DrawNode", "Node").unwrap();
        s.add_attribute("DrawNode", "circles", -5).unwrap();
        let hex: String = s.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "1100",
                "04000000",
                "0000ffff040000004e6f6465",
                "0100000008000000546578744e6f6465",
                "0200000008000000466f726d4e6f6465",
                "1000000008000000447261774e6f6465",
                "01000000",
                "000000001000fbffffffffffffff07000000636972636c6573",
            )
        );
    }

    #[test]
    fn new_kinds_are_sequential() {
        let mut s = Schema::builtin();
        let a = s.add_type("A", "Node").unwrap();
        let b = s.add_type("B", "Node").unwrap();
        assert_eq!(b.0, a.0 + 1);
    }
}
