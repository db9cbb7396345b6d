//! The HyperModel conceptual schema (paper §5.1, Figure 1).
//!
//! A `Node` carries five integer attributes (`uniqueId`, `ten`, `hundred`,
//! `thousand`, `million`) and participates in three relationship types:
//!
//! * `parent/children` — ordered 1-N aggregation (a strict tree),
//! * `partOf/parts`   — M-N aggregation (shared sub-parts),
//! * `refTo/refFrom`  — M-N association with `offsetFrom`/`offsetTo`
//!   attributes (a directed weighted graph).
//!
//! `TextNode` and `FormNode` specialize `Node` (generalization triangle in
//! Figure 1); the R4 extension adds further kinds dynamically (see
//! [`crate::schema`]). This module defines the value types and a canonical
//! binary record encoding shared by all disk backends, so that databases
//! generated from the same seed are byte-comparable.

use crate::bitmap::Bitmap;
use crate::codec::{Reader, Wire, Writer};
use crate::error::{HmError, Result};

/// A backend-assigned object identifier.
///
/// The paper (§6 preamble) requires operations to exchange *references* to
/// nodes — "in an object-oriented system it would be an object identifier
/// maintained by the system" — never copies. `Oid` is that reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(pub u64);

impl std::fmt::Display for Oid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The kind of a node. Built-in kinds mirror the paper's generalization
/// hierarchy; values ≥ [`NodeKind::FIRST_DYNAMIC`] are user-defined types
/// added at run time (requirement R4, e.g. `DrawNode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeKind(pub u16);

impl NodeKind {
    /// An interior node with no content.
    pub const INTERNAL: NodeKind = NodeKind(0);
    /// A node whose content is a text string.
    pub const TEXT: NodeKind = NodeKind(1);
    /// A node whose content is a bitmap.
    pub const FORM: NodeKind = NodeKind(2);
    /// First code available for dynamically added types.
    pub const FIRST_DYNAMIC: u16 = 16;
}

/// The five integer attributes every node carries (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeAttrs {
    /// Unique per node; "for instance numbering the nodes".
    pub unique_id: u64,
    /// Uniform in `1..=10`.
    pub ten: u32,
    /// Uniform in `1..=100`.
    pub hundred: u32,
    /// Uniform in `1..=1000`.
    pub thousand: u32,
    /// Uniform in `1..=1_000_000`.
    pub million: u32,
}

/// Node content, by kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Content {
    /// Interior nodes have no content.
    None,
    /// Text node: 10–100 random words with `version1` sentinels.
    Text(String),
    /// Form node: an initially white bitmap, 100×100 to 400×400.
    Form(Bitmap),
    /// Content of a dynamically added node type (R4), opaque bytes.
    Dynamic(Vec<u8>),
}

/// A complete node value: attributes plus content.
///
/// Relationship state (children/parts/refs) is *not* part of the node
/// value; each backend represents relationships in its own native way —
/// that representational freedom is the point of the benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeValue {
    /// Node kind (drives content interpretation).
    pub kind: NodeKind,
    /// The five integer attributes.
    pub attrs: NodeAttrs,
    /// Kind-specific content.
    pub content: Content,
}

/// A directed reference with its two offset attributes (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefEdge {
    /// The node on the other end.
    pub target: Oid,
    /// `offsetFrom`, uniform in `0..=9`.
    pub offset_from: u8,
    /// `offsetTo`, uniform in `0..=9`.
    pub offset_to: u8,
}

// ---------------------------------------------------------------------
// Canonical record encoding (shared by the disk backends).
// ---------------------------------------------------------------------

const TAG_NONE: u8 = 0;
const TAG_TEXT: u8 = 1;
const TAG_FORM: u8 = 2;
const TAG_DYNAMIC: u8 = 3;

impl NodeValue {
    /// Serialize to the canonical little-endian record format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40);
        self.put_record(&mut Writer::over(&mut out));
        out
    }

    /// Append the record: the attribute header, a content tag, then the
    /// content (a form's bits unprefixed — its size follows from the
    /// dimensions).
    pub(crate) fn put_record(&self, w: &mut Writer) {
        w.u16(self.kind.0);
        w.u64(self.attrs.unique_id);
        w.u32(self.attrs.ten);
        w.u32(self.attrs.hundred);
        w.u32(self.attrs.thousand);
        w.u32(self.attrs.million);
        match &self.content {
            Content::None => w.u8(TAG_NONE),
            Content::Text(s) => {
                w.u8(TAG_TEXT);
                s.put(w);
            }
            Content::Form(bm) => {
                w.u8(TAG_FORM);
                w.u16(bm.width());
                w.u16(bm.height());
                w.raw(bm.bits());
            }
            Content::Dynamic(bytes) => {
                w.u8(TAG_DYNAMIC);
                bytes.put(w);
            }
        }
    }

    /// Deserialize from the canonical record format.
    pub fn decode(buf: &[u8]) -> Result<NodeValue> {
        let mut r = Reader::new(buf);
        let (kind, attrs) = Self::get_header(&mut r)?;
        let content = match r.u8()? {
            TAG_NONE => Content::None,
            TAG_TEXT => Content::Text(String::get(&mut r)?),
            TAG_FORM => {
                let (w, h) = (r.u16()?, r.u16()?);
                let bits = r.take(Bitmap::byte_len(w, h))?.to_vec();
                Content::Form(Bitmap::from_bits(w, h, bits).map_err(HmError::Backend)?)
            }
            TAG_DYNAMIC => Content::Dynamic(Vec::get(&mut r)?),
            other => {
                return Err(HmError::Backend(format!("unknown content tag {other}")));
            }
        };
        Ok(NodeValue {
            kind,
            attrs,
            content,
        })
    }

    /// Decode only the fixed attribute header — cheap when an operation
    /// needs an attribute but not the (possibly large) content, e.g. the
    /// sequential scan touching `ten`. Inlined into the backends' scan
    /// loops, where it runs once per record.
    #[inline]
    pub fn decode_attrs(buf: &[u8]) -> Result<(NodeKind, NodeAttrs)> {
        Self::get_header(&mut Reader::new(buf))
    }

    #[inline]
    fn get_header(r: &mut Reader) -> Result<(NodeKind, NodeAttrs)> {
        let kind = NodeKind(r.u16()?);
        let attrs = NodeAttrs {
            unique_id: r.u64()?,
            ten: r.u32()?,
            hundred: r.u32()?,
            thousand: r.u32()?,
            million: r.u32()?,
        };
        Ok((kind, attrs))
    }

    /// Byte offset of the `hundred` attribute within an encoded record —
    /// backends use this for in-place attribute pokes (closure1NAttSet).
    pub const HUNDRED_OFFSET: usize = 2 + 8 + 4;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(uid: u64) -> NodeAttrs {
        NodeAttrs {
            unique_id: uid,
            ten: 3,
            hundred: 42,
            thousand: 765,
            million: 123_456,
        }
    }

    #[test]
    fn encode_decode_internal() {
        let v = NodeValue {
            kind: NodeKind::INTERNAL,
            attrs: attrs(7),
            content: Content::None,
        };
        assert_eq!(NodeValue::decode(&v.encode()).unwrap(), v);
    }

    #[test]
    fn encode_decode_text() {
        let v = NodeValue {
            kind: NodeKind::TEXT,
            attrs: attrs(8),
            content: Content::Text("version1 hello world version1 bye version1".into()),
        };
        assert_eq!(NodeValue::decode(&v.encode()).unwrap(), v);
    }

    #[test]
    fn encode_decode_form() {
        let mut bm = Bitmap::white(100, 100);
        bm.set(10, 20, true);
        let v = NodeValue {
            kind: NodeKind::FORM,
            attrs: attrs(9),
            content: Content::Form(bm),
        };
        let decoded = NodeValue::decode(&v.encode()).unwrap();
        assert_eq!(decoded, v);
    }

    #[test]
    fn encode_decode_dynamic() {
        let v = NodeValue {
            kind: NodeKind(20),
            attrs: attrs(10),
            content: Content::Dynamic(vec![1, 2, 3, 4, 5]),
        };
        assert_eq!(NodeValue::decode(&v.encode()).unwrap(), v);
    }

    #[test]
    fn decode_attrs_matches_full_decode() {
        let v = NodeValue {
            kind: NodeKind::TEXT,
            attrs: attrs(11),
            content: Content::Text("words and words".into()),
        };
        let bytes = v.encode();
        let (kind, a) = NodeValue::decode_attrs(&bytes).unwrap();
        assert_eq!(kind, v.kind);
        assert_eq!(a, v.attrs);
    }

    #[test]
    fn hundred_offset_is_correct() {
        let v = NodeValue {
            kind: NodeKind::INTERNAL,
            attrs: attrs(12),
            content: Content::None,
        };
        let bytes = v.encode();
        let h = u32::from_le_bytes(
            bytes[NodeValue::HUNDRED_OFFSET..NodeValue::HUNDRED_OFFSET + 4]
                .try_into()
                .unwrap(),
        );
        assert_eq!(h, 42);
    }

    #[test]
    fn truncated_record_is_an_error() {
        let v = NodeValue {
            kind: NodeKind::TEXT,
            attrs: attrs(13),
            content: Content::Text("0123456789".into()),
        };
        let bytes = v.encode();
        assert!(NodeValue::decode(&bytes[..bytes.len() - 3]).is_err());
        assert!(NodeValue::decode(&bytes[..5]).is_err());
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let v = NodeValue {
            kind: NodeKind::INTERNAL,
            attrs: attrs(14),
            content: Content::None,
        };
        let mut bytes = v.encode();
        let last = bytes.len() - 1;
        bytes[last] = 200;
        assert!(NodeValue::decode(&bytes).is_err());
    }

    /// One record of each content kind with the bytes the hand-written
    /// encoder before the shared codec produced: what every `disk` and
    /// `rel` database holds, so these may never change.
    #[test]
    fn records_match_their_on_disk_goldens() {
        let attrs = |unique_id| NodeAttrs {
            unique_id,
            ten: 4,
            hundred: 5,
            thousand: 6,
            million: 7,
        };
        let mut bm = Bitmap::white(9, 2);
        bm.set(8, 1, true);
        let goldens = [
            (
                NodeKind::INTERNAL,
                1,
                Content::None,
                "000001000000000000000400000005000000060000000700000000",
            ),
            (
                NodeKind::TEXT,
                3,
                Content::Text("version1 tail".into()),
                "0100030000000000000004000000050000000600000007000000010d00000076657273696f6e31207461696c",
            ),
            (
                NodeKind::FORM,
                8,
                Content::Form(bm),
                "02000800000000000000040000000500000006000000070000000209000200000002",
            ),
            (
                NodeKind(16),
                20,
                Content::Dynamic(vec![1, 2, 3]),
                "10001400000000000000040000000500000006000000070000000303000000010203",
            ),
        ];
        for (kind, uid, content, golden) in goldens {
            let v = NodeValue {
                kind,
                attrs: attrs(uid),
                content,
            };
            let bytes = v.encode();
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, golden, "{v:?}");
            assert_eq!(NodeValue::decode(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn internal_record_is_about_80_bytes_with_overhead() {
        // Paper §5.2 assumes ~80 bytes per node; our fixed header is 27
        // bytes, leaving room for backend relationship bookkeeping.
        let v = NodeValue {
            kind: NodeKind::INTERNAL,
            attrs: attrs(1),
            content: Content::None,
        };
        assert_eq!(v.encode().len(), 27);
    }
}
