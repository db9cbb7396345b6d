//! # `rel-backend` — the HyperModel mapped to a relational system
//!
//! The paper reports that the HyperModel was "currently being implemented
//! on a relational system following the methodology outlined in /BLAH88/"
//! (Blaha, Premerlani & Rumbaugh, *Relational Database Design using an
//! Object-Oriented Methodology*). This backend is that implementation, on
//! the same `storage` substrate as the object store so that differences
//! in the results come from the *mapping*, not the engine:
//!
//! | OMT construct                   | Relational mapping                        |
//! |---------------------------------|-------------------------------------------|
//! | `Node` class                    | `NODE(uid PK, kind, struct, ten, hundred, thousand, million)` |
//! | `TextNode` subtype              | `TEXTNODE(uid PK, text)` (vertical partition) |
//! | `FormNode` subtype              | `FORMNODE(uid PK, width, height, bits)`    |
//! | ordered 1-N `parent/children`   | `CHILD(parent, seq → child)` index-organized, plus `PARENT(child → parent)` |
//! | M-N `partOf/parts`              | `PART(owner, seq → part)` + inverse        |
//! | attributed M-N `refTo/refFrom`  | `REF(from, seq → to+offsets)` + inverse    |
//! | key access                      | B+Tree PK index `uid → row id`            |
//! | `hundred`/`million` predicates  | secondary B+Tree indexes `(value, uid)`   |
//!
//! The architectural signature of the mapping, which the benchmark is
//! designed to surface:
//!
//! * **Object references are key values** — the paper §6: "In a relational
//!   system it would typically be the value of a key attribute". Here
//!   [`Oid`]`(x)` *is* `uniqueId = x`; every dereference is a PK index
//!   probe rather than an object-table hop.
//! * **No clustering along the aggregation hierarchy** — rows land in the
//!   `NODE` table in insertion order; `create_node_clustered` ignores its
//!   hint. 1-N closures therefore gain nothing over M-N closures cold,
//!   unlike the clustered object store.
//! * **Vertical partitioning** — text/form content live in subtype
//!   tables, so `textNodeEdit` pays two probes (supertype + subtype).
//! * **Scans are filtered table scans** — the `structure` column plays the
//!   role §6.4.1 requires: extra `Node` rows share the table and are
//!   filtered out, rather than living in a separate extent.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::Path;

use hypermodel::error::{HmError, Result};
use hypermodel::ext::{
    AccessControlledStore, AccessMode, DynamicSchemaStore, VersionNo, VersionedStore,
};
use hypermodel::model::{Content, NodeAttrs, NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::schema::{AttrId, Schema};
use hypermodel::store::HyperStore;
use hypermodel::Bitmap;
use storage::btree::{BTree, Key};
use storage::engine::Engine;
use storage::heap::{HeapFile, RecordId};
use storage::{PageId, StorageError};

fn se(e: StorageError) -> HmError {
    HmError::Backend(e.to_string())
}

const STRUCT_TEST: u8 = 0;
const STRUCT_EXTRA: u8 = 1;

/// Fixed-width `NODE` row: uid, kind, structure, ten, hundred, thousand,
/// million.
fn encode_node_row(uid: u64, kind: NodeKind, structure: u8, a: &NodeAttrs) -> Vec<u8> {
    let mut out = Vec::with_capacity(27);
    out.extend_from_slice(&uid.to_le_bytes());
    out.extend_from_slice(&kind.0.to_le_bytes());
    out.push(structure);
    out.extend_from_slice(&a.ten.to_le_bytes());
    out.extend_from_slice(&a.hundred.to_le_bytes());
    out.extend_from_slice(&a.thousand.to_le_bytes());
    out.extend_from_slice(&a.million.to_le_bytes());
    out
}

/// Byte offset of `hundred` within a `NODE` row.
const ROW_HUNDRED: usize = 8 + 2 + 1 + 4;

fn decode_node_row(bytes: &[u8]) -> Result<(NodeKind, u8, NodeAttrs)> {
    if bytes.len() < 27 {
        return Err(HmError::Backend("short NODE row".into()));
    }
    let uid = u64::from_le_bytes(bytes[0..8].try_into().expect("8"));
    let kind = NodeKind(u16::from_le_bytes(bytes[8..10].try_into().expect("2")));
    let structure = bytes[10];
    let rd = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4"));
    Ok((
        kind,
        structure,
        NodeAttrs {
            unique_id: uid,
            ten: rd(11),
            hundred: rd(15),
            thousand: rd(19),
            million: rd(23),
        },
    ))
}

fn pack_edge(target: u64, off_from: u8, off_to: u8) -> u64 {
    (target << 8) | ((off_from as u64) << 4) | off_to as u64
}

fn unpack_edge(v: u64) -> RefEdge {
    RefEdge {
        target: Oid(v >> 8),
        offset_from: ((v >> 4) & 0xF) as u8,
        offset_to: (v & 0xF) as u8,
    }
}

/// The relationally mapped HyperModel store.
pub struct RelStore {
    engine: Engine,
    node_table: HeapFile,
    text_table: HeapFile,
    form_table: HeapFile,
    pk_idx: BTree,      // uid -> node row id
    text_pk: BTree,     // uid -> text row id
    form_pk: BTree,     // uid -> form row id
    hundred_idx: BTree, // (hundred, uid) -> uid
    million_idx: BTree, // (million, uid) -> uid
    child_tab: BTree,   // (parent, seq) -> child
    parent_tab: BTree,  // (child, 0) -> parent
    part_tab: BTree,    // (owner, seq) -> part
    partof_tab: BTree,  // (part, seq) -> owner
    ref_tab: BTree,     // (from, seq) -> packed(to, offs)
    reffrom_tab: BTree, // (to, seq) -> packed(from, offs)
    // Extension tables (§6.8): the relational answer to R4/R5/R11.
    version_table: HeapFile, // VERSION rows: encoded NodeValue snapshots
    version_pk: BTree,       // (uid, version_no) -> version row id
    attr_tab: BTree,         // (uid, attr_id) -> value (ALTER TABLE column)
    access_tab: BTree,       // (uid, 0) -> access mode
    schema_table: HeapFile,  // single-row serialized schema registry
    schema_rid: RecordId,
    schema: Schema,
    schema_dirty: bool,
    seq_counter: u64,
}

const TREES: usize = 14;

impl RelStore {
    /// Create a new database file at `path`.
    pub fn create(path: &Path, pool_frames: usize) -> Result<RelStore> {
        let mut engine = Engine::create(path, pool_frames).map_err(se)?;
        let node_table = HeapFile::create(engine.pool()).map_err(se)?;
        let text_table = HeapFile::create(engine.pool()).map_err(se)?;
        let form_table = HeapFile::create(engine.pool()).map_err(se)?;
        let version_table = HeapFile::create(engine.pool()).map_err(se)?;
        let mut schema_table = HeapFile::create(engine.pool()).map_err(se)?;
        let mut trees = Vec::with_capacity(TREES);
        for _ in 0..TREES {
            trees.push(BTree::create(engine.pool()).map_err(se)?);
        }
        let schema = Schema::builtin();
        let schema_rid = schema_table
            .insert(engine.pool(), &schema.encode())
            .map_err(se)?;
        let mut store = RelStore {
            engine,
            node_table,
            text_table,
            form_table,
            pk_idx: trees[0],
            text_pk: trees[1],
            form_pk: trees[2],
            hundred_idx: trees[3],
            million_idx: trees[4],
            child_tab: trees[5],
            parent_tab: trees[6],
            part_tab: trees[7],
            partof_tab: trees[8],
            ref_tab: trees[9],
            reffrom_tab: trees[10],
            version_pk: trees[11],
            attr_tab: trees[12],
            access_tab: trees[13],
            version_table,
            schema_table,
            schema_rid,
            schema,
            schema_dirty: false,
            seq_counter: 1,
        };
        store.save_catalog()?;
        store.engine.commit().map_err(se)?;
        Ok(store)
    }

    /// Open an existing database (with crash recovery).
    pub fn open(path: &Path, pool_frames: usize) -> Result<RelStore> {
        let (mut engine, _) = Engine::open(path, pool_frames).map_err(se)?;
        let get = |e: &mut Engine, name: &str| e.catalog_get(name).map_err(se);
        let node_table = HeapFile::open(PageId(get(&mut engine, "node_table")?));
        let text_table = HeapFile::open(PageId(get(&mut engine, "text_table")?));
        let form_table = HeapFile::open(PageId(get(&mut engine, "form_table")?));
        let version_table = HeapFile::open(PageId(get(&mut engine, "version_table")?));
        let schema_table = HeapFile::open(PageId(get(&mut engine, "schema_table")?));
        let names = [
            "pk",
            "text_pk",
            "form_pk",
            "hundred",
            "million",
            "child",
            "parent",
            "part",
            "partof",
            "ref",
            "reffrom",
            "version_pk",
            "attr_tab",
            "access_tab",
        ];
        let mut trees = Vec::with_capacity(TREES);
        for n in names {
            trees.push(BTree::open(PageId(get(&mut engine, n)?)));
        }
        let seq_counter = get(&mut engine, "seq_counter")?;
        let schema_rid = RecordId::unpack(get(&mut engine, "schema_rid")?);
        let schema_bytes = schema_table.get(engine.pool(), schema_rid).map_err(se)?;
        let schema = Schema::decode(&schema_bytes)?;
        Ok(RelStore {
            engine,
            node_table,
            text_table,
            form_table,
            pk_idx: trees[0],
            text_pk: trees[1],
            form_pk: trees[2],
            hundred_idx: trees[3],
            million_idx: trees[4],
            child_tab: trees[5],
            parent_tab: trees[6],
            part_tab: trees[7],
            partof_tab: trees[8],
            ref_tab: trees[9],
            reffrom_tab: trees[10],
            version_pk: trees[11],
            attr_tab: trees[12],
            access_tab: trees[13],
            version_table,
            schema_table,
            schema_rid,
            schema,
            schema_dirty: false,
            seq_counter,
        })
    }

    fn save_catalog(&mut self) -> Result<()> {
        let pairs = [
            ("node_table", self.node_table.first_page().0),
            ("text_table", self.text_table.first_page().0),
            ("form_table", self.form_table.first_page().0),
            ("pk", self.pk_idx.root().0),
            ("text_pk", self.text_pk.root().0),
            ("form_pk", self.form_pk.root().0),
            ("hundred", self.hundred_idx.root().0),
            ("million", self.million_idx.root().0),
            ("child", self.child_tab.root().0),
            ("parent", self.parent_tab.root().0),
            ("part", self.part_tab.root().0),
            ("partof", self.partof_tab.root().0),
            ("ref", self.ref_tab.root().0),
            ("reffrom", self.reffrom_tab.root().0),
            ("version_pk", self.version_pk.root().0),
            ("attr_tab", self.attr_tab.root().0),
            ("access_tab", self.access_tab.root().0),
            ("version_table", self.version_table.first_page().0),
            ("schema_table", self.schema_table.first_page().0),
            ("schema_rid", self.schema_rid.pack()),
            ("seq_counter", self.seq_counter),
        ];
        for (name, value) in pairs {
            self.engine.catalog_set(name, value).map_err(se)?;
        }
        Ok(())
    }

    /// The storage engine (for size and I/O statistics).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Buffer pool statistics, for cold/warm verification.
    pub fn pool_stats(&self) -> storage::PoolStats {
        self.engine.pool_ref().stats()
    }

    /// On-disk size in bytes.
    pub fn file_size(&self) -> u64 {
        self.engine.file_size()
    }

    fn row_rid(&mut self, oid: Oid) -> Result<RecordId> {
        self.pk_idx
            .get(self.engine.pool(), Key::from_pair(oid.0, 0))
            .map_err(se)?
            .map(RecordId::unpack)
            .ok_or(HmError::NodeNotFound(oid))
    }

    fn row(&mut self, oid: Oid) -> Result<(NodeKind, u8, NodeAttrs)> {
        let rid = self.row_rid(oid)?;
        let bytes = self.node_table.get(self.engine.pool(), rid).map_err(se)?;
        decode_node_row(&bytes)
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq_counter;
        self.seq_counter += 1;
        s
    }

    fn scan_rel(&mut self, tree: BTree, node: Oid) -> Result<Vec<u64>> {
        tree.range_vec(
            self.engine.pool(),
            Key::from_pair(node.0, 0),
            Key::from_pair(node.0, u64::MAX),
        )
        .map_err(se)
        .map(|v| v.into_iter().map(|(_, val)| val).collect())
    }

    fn insert_row(&mut self, value: &NodeValue, structure: u8) -> Result<Oid> {
        let uid = value.attrs.unique_id;
        if self
            .pk_idx
            .get(self.engine.pool(), Key::from_pair(uid, 0))
            .map_err(se)?
            .is_some()
        {
            return Err(HmError::InvalidArgument(format!(
                "primary key violation: uniqueId {uid}"
            )));
        }
        let row = encode_node_row(uid, value.kind, structure, &value.attrs);
        let rid = self
            .node_table
            .insert(self.engine.pool(), &row)
            .map_err(se)?;
        let pool = self.engine.pool();
        self.pk_idx
            .insert(pool, Key::from_pair(uid, 0), rid.pack())
            .map_err(se)?;
        self.hundred_idx
            .insert(pool, Key::from_pair(value.attrs.hundred as u64, uid), uid)
            .map_err(se)?;
        self.million_idx
            .insert(pool, Key::from_pair(value.attrs.million as u64, uid), uid)
            .map_err(se)?;
        // Subtype tables (vertical partitioning per /BLAH88/).
        match &value.content {
            Content::None | Content::Dynamic(_) => {}
            Content::Text(s) => {
                let mut rec = Vec::with_capacity(8 + s.len());
                rec.extend_from_slice(&uid.to_le_bytes());
                rec.extend_from_slice(s.as_bytes());
                let trid = self
                    .text_table
                    .insert(self.engine.pool(), &rec)
                    .map_err(se)?;
                self.text_pk
                    .insert(self.engine.pool(), Key::from_pair(uid, 0), trid.pack())
                    .map_err(se)?;
            }
            Content::Form(bm) => {
                let mut rec = Vec::with_capacity(12 + bm.bits().len());
                rec.extend_from_slice(&uid.to_le_bytes());
                rec.extend_from_slice(&bm.width().to_le_bytes());
                rec.extend_from_slice(&bm.height().to_le_bytes());
                rec.extend_from_slice(bm.bits());
                let frid = self
                    .form_table
                    .insert(self.engine.pool(), &rec)
                    .map_err(se)?;
                self.form_pk
                    .insert(self.engine.pool(), Key::from_pair(uid, 0), frid.pack())
                    .map_err(se)?;
            }
        }
        Ok(Oid(uid))
    }
}

impl HyperStore for RelStore {
    fn lookup_unique(&mut self, unique_id: u64) -> Result<Oid> {
        // In the relational mapping the reference IS the key value; the
        // lookup still probes the PK index to verify existence, which is
        // what a `SELECT hundred FROM node WHERE uid = ?` plan does.
        self.pk_idx
            .get(self.engine.pool(), Key::from_pair(unique_id, 0))
            .map_err(se)?
            .map(|_| Oid(unique_id))
            .ok_or(HmError::UniqueIdNotFound(unique_id))
    }

    fn unique_id_of(&mut self, oid: Oid) -> Result<u64> {
        self.row_rid(oid)?; // verify the row exists
        Ok(oid.0)
    }

    fn kind_of(&mut self, oid: Oid) -> Result<NodeKind> {
        Ok(self.row(oid)?.0)
    }

    fn ten_of(&mut self, oid: Oid) -> Result<u32> {
        Ok(self.row(oid)?.2.ten)
    }

    fn hundred_of(&mut self, oid: Oid) -> Result<u32> {
        Ok(self.row(oid)?.2.hundred)
    }

    fn million_of(&mut self, oid: Oid) -> Result<u32> {
        Ok(self.row(oid)?.2.million)
    }

    fn set_hundred(&mut self, oid: Oid, value: u32) -> Result<()> {
        let rid = self.row_rid(oid)?;
        let mut bytes = self.node_table.get(self.engine.pool(), rid).map_err(se)?;
        let old = u32::from_le_bytes(bytes[ROW_HUNDRED..ROW_HUNDRED + 4].try_into().expect("4"));
        if old == value {
            return Ok(());
        }
        bytes[ROW_HUNDRED..ROW_HUNDRED + 4].copy_from_slice(&value.to_le_bytes());
        let new_rid = self
            .node_table
            .update(self.engine.pool(), rid, &bytes)
            .map_err(se)?;
        debug_assert_eq!(new_rid, rid);
        let pool = self.engine.pool();
        self.hundred_idx
            .delete(pool, Key::from_pair(old as u64, oid.0))
            .map_err(se)?;
        self.hundred_idx
            .insert(pool, Key::from_pair(value as u64, oid.0), oid.0)
            .map_err(se)?;
        Ok(())
    }

    fn range_hundred(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>> {
        self.hundred_idx
            .range_vec(
                self.engine.pool(),
                Key::from_pair(lo as u64, 0),
                Key::from_pair(hi as u64, u64::MAX),
            )
            .map_err(se)
            .map(|v| v.into_iter().map(|(_, uid)| Oid(uid)).collect())
    }

    fn range_million(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>> {
        self.million_idx
            .range_vec(
                self.engine.pool(),
                Key::from_pair(lo as u64, 0),
                Key::from_pair(hi as u64, u64::MAX),
            )
            .map_err(se)
            .map(|v| v.into_iter().map(|(_, uid)| Oid(uid)).collect())
    }

    fn children(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        self.row_rid(oid)?;
        Ok(self
            .scan_rel(self.child_tab, oid)?
            .into_iter()
            .map(Oid)
            .collect())
    }

    fn parent(&mut self, oid: Oid) -> Result<Option<Oid>> {
        self.row_rid(oid)?;
        Ok(self
            .parent_tab
            .get(self.engine.pool(), Key::from_pair(oid.0, 0))
            .map_err(se)?
            .map(Oid))
    }

    fn parts(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        self.row_rid(oid)?;
        Ok(self
            .scan_rel(self.part_tab, oid)?
            .into_iter()
            .map(Oid)
            .collect())
    }

    fn part_of(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        self.row_rid(oid)?;
        Ok(self
            .scan_rel(self.partof_tab, oid)?
            .into_iter()
            .map(Oid)
            .collect())
    }

    fn refs_to(&mut self, oid: Oid) -> Result<Vec<RefEdge>> {
        self.row_rid(oid)?;
        Ok(self
            .scan_rel(self.ref_tab, oid)?
            .into_iter()
            .map(unpack_edge)
            .collect())
    }

    fn refs_from(&mut self, oid: Oid) -> Result<Vec<RefEdge>> {
        self.row_rid(oid)?;
        Ok(self
            .scan_rel(self.reffrom_tab, oid)?
            .into_iter()
            .map(unpack_edge)
            .collect())
    }

    fn seq_scan_ten(&mut self) -> Result<u64> {
        // Filtered full table scan: `SELECT ten FROM node WHERE struct = 0`.
        let mut visited = 0u64;
        let table = self.node_table;
        table
            .scan(self.engine.pool(), |_, bytes| {
                if let Ok((_, structure, attrs)) = decode_node_row(bytes) {
                    if structure == STRUCT_TEST {
                        std::hint::black_box(attrs.ten);
                        visited += 1;
                    }
                }
                true
            })
            .map_err(se)?;
        Ok(visited)
    }

    fn text_of(&mut self, oid: Oid) -> Result<String> {
        self.row_rid(oid)?;
        let trid = self
            .text_pk
            .get(self.engine.pool(), Key::from_pair(oid.0, 0))
            .map_err(se)?
            .map(RecordId::unpack)
            .ok_or(HmError::WrongKind {
                oid,
                expected: "TextNode",
            })?;
        let bytes = self.text_table.get(self.engine.pool(), trid).map_err(se)?;
        String::from_utf8(bytes[8..].to_vec())
            .map_err(|_| HmError::Backend("text row is not utf-8".into()))
    }

    fn set_text(&mut self, oid: Oid, text: &str) -> Result<()> {
        let trid = self
            .text_pk
            .get(self.engine.pool(), Key::from_pair(oid.0, 0))
            .map_err(se)?
            .map(RecordId::unpack)
            .ok_or(HmError::WrongKind {
                oid,
                expected: "TextNode",
            })?;
        let mut rec = Vec::with_capacity(8 + text.len());
        rec.extend_from_slice(&oid.0.to_le_bytes());
        rec.extend_from_slice(text.as_bytes());
        let new_rid = self
            .text_table
            .update(self.engine.pool(), trid, &rec)
            .map_err(se)?;
        if new_rid != trid {
            self.text_pk
                .insert(self.engine.pool(), Key::from_pair(oid.0, 0), new_rid.pack())
                .map_err(se)?;
        }
        Ok(())
    }

    fn form_of(&mut self, oid: Oid) -> Result<Bitmap> {
        self.row_rid(oid)?;
        let frid = self
            .form_pk
            .get(self.engine.pool(), Key::from_pair(oid.0, 0))
            .map_err(se)?
            .map(RecordId::unpack)
            .ok_or(HmError::WrongKind {
                oid,
                expected: "FormNode",
            })?;
        let bytes = self.form_table.get(self.engine.pool(), frid).map_err(se)?;
        let w = u16::from_le_bytes(bytes[8..10].try_into().expect("2"));
        let h = u16::from_le_bytes(bytes[10..12].try_into().expect("2"));
        Bitmap::from_bits(w, h, bytes[12..].to_vec()).map_err(HmError::Backend)
    }

    fn set_form(&mut self, oid: Oid, bitmap: &Bitmap) -> Result<()> {
        let frid = self
            .form_pk
            .get(self.engine.pool(), Key::from_pair(oid.0, 0))
            .map_err(se)?
            .map(RecordId::unpack)
            .ok_or(HmError::WrongKind {
                oid,
                expected: "FormNode",
            })?;
        let mut rec = Vec::with_capacity(12 + bitmap.bits().len());
        rec.extend_from_slice(&oid.0.to_le_bytes());
        rec.extend_from_slice(&bitmap.width().to_le_bytes());
        rec.extend_from_slice(&bitmap.height().to_le_bytes());
        rec.extend_from_slice(bitmap.bits());
        let new_rid = self
            .form_table
            .update(self.engine.pool(), frid, &rec)
            .map_err(se)?;
        if new_rid != frid {
            self.form_pk
                .insert(self.engine.pool(), Key::from_pair(oid.0, 0), new_rid.pack())
                .map_err(se)?;
        }
        Ok(())
    }

    fn create_node(&mut self, value: &NodeValue) -> Result<Oid> {
        self.insert_row(value, STRUCT_TEST)
    }

    // No create_node_clustered override: rows are placed in insertion
    // order, the relational mapping has no hierarchy clustering.

    fn add_child(&mut self, parent: Oid, child: Oid) -> Result<()> {
        self.row_rid(parent)?;
        self.row_rid(child)?;
        let seq = self.next_seq();
        let pool = self.engine.pool();
        self.child_tab
            .insert(pool, Key::from_pair(parent.0, seq), child.0)
            .map_err(se)?;
        self.parent_tab
            .insert(pool, Key::from_pair(child.0, 0), parent.0)
            .map_err(se)?;
        Ok(())
    }

    fn add_part(&mut self, owner: Oid, part: Oid) -> Result<()> {
        self.row_rid(owner)?;
        self.row_rid(part)?;
        let seq = self.next_seq();
        let pool = self.engine.pool();
        self.part_tab
            .insert(pool, Key::from_pair(owner.0, seq), part.0)
            .map_err(se)?;
        self.partof_tab
            .insert(pool, Key::from_pair(part.0, seq), owner.0)
            .map_err(se)?;
        Ok(())
    }

    fn add_ref(&mut self, from: Oid, to: Oid, offset_from: u8, offset_to: u8) -> Result<()> {
        self.row_rid(from)?;
        self.row_rid(to)?;
        let seq = self.next_seq();
        let pool = self.engine.pool();
        self.ref_tab
            .insert(
                pool,
                Key::from_pair(from.0, seq),
                pack_edge(to.0, offset_from, offset_to),
            )
            .map_err(se)?;
        self.reffrom_tab
            .insert(
                pool,
                Key::from_pair(to.0, seq),
                pack_edge(from.0, offset_from, offset_to),
            )
            .map_err(se)?;
        Ok(())
    }

    fn insert_extra_node(&mut self, value: &NodeValue) -> Result<Oid> {
        self.insert_row(value, STRUCT_EXTRA)
    }

    fn commit(&mut self) -> Result<()> {
        if self.schema_dirty {
            let encoded = self.schema.encode();
            self.schema_rid = self
                .schema_table
                .update(self.engine.pool(), self.schema_rid, &encoded)
                .map_err(se)?;
            self.schema_dirty = false;
        }
        self.save_catalog()?;
        self.engine.commit().map_err(se)?;
        Ok(())
    }

    fn cold_restart(&mut self) -> Result<()> {
        self.engine.close_for_cold_run().map_err(se)
    }

    fn backend_name(&self) -> &'static str {
        "rel"
    }
}

impl RelStore {
    /// Reassemble the full [`NodeValue`] of a row by joining the NODE row
    /// with its subtype table — the relational flavour of "fetch object".
    fn materialize(&mut self, oid: Oid) -> Result<NodeValue> {
        let (kind, _, attrs) = self.row(oid)?;
        let content = match kind {
            NodeKind::TEXT => Content::Text(self.text_of(oid)?),
            NodeKind::FORM => Content::Form(self.form_of(oid)?),
            _ => Content::None,
        };
        Ok(NodeValue {
            kind,
            attrs,
            content,
        })
    }
}

impl DynamicSchemaStore for RelStore {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn add_node_type(&mut self, name: &str, parent: &str) -> Result<NodeKind> {
        // The relational analogue of CREATE TABLE <subtype>.
        let kind = self.schema.add_type(name, parent)?;
        self.schema_dirty = true;
        Ok(kind)
    }

    fn add_type_attribute(&mut self, owner: &str, name: &str, default: i64) -> Result<AttrId> {
        // ALTER TABLE ADD COLUMN ... DEFAULT: existing rows read the
        // default until written (the ATTR table stores only overrides).
        let id = self.schema.add_attribute(owner, name, default)?;
        self.schema_dirty = true;
        Ok(id)
    }

    fn dyn_attr(&mut self, oid: Oid, attr: AttrId) -> Result<i64> {
        self.row_rid(oid)?;
        if let Some(v) = self
            .attr_tab
            .get(self.engine.pool(), Key::from_pair(oid.0, attr.0 as u64))
            .map_err(se)?
        {
            return Ok(v as i64);
        }
        self.schema
            .attrs()
            .iter()
            .find(|a| a.id == attr)
            .map(|a| a.default)
            .ok_or_else(|| HmError::Schema(format!("unknown attribute id {}", attr.0)))
    }

    fn set_dyn_attr(&mut self, oid: Oid, attr: AttrId, value: i64) -> Result<()> {
        self.row_rid(oid)?;
        if !self.schema.attrs().iter().any(|a| a.id == attr) {
            return Err(HmError::Schema(format!("unknown attribute id {}", attr.0)));
        }
        self.attr_tab
            .insert(
                self.engine.pool(),
                Key::from_pair(oid.0, attr.0 as u64),
                value as u64,
            )
            .map_err(se)?;
        Ok(())
    }
}

impl VersionedStore for RelStore {
    fn create_version(&mut self, oid: Oid) -> Result<VersionNo> {
        let value = self.materialize(oid)?;
        let n = self.version_count(oid)?;
        let rid = self
            .version_table
            .insert(self.engine.pool(), &value.encode())
            .map_err(se)?;
        self.version_pk
            .insert(
                self.engine.pool(),
                Key::from_pair(oid.0, n as u64),
                rid.pack(),
            )
            .map_err(se)?;
        Ok(VersionNo(n))
    }

    fn version_count(&mut self, oid: Oid) -> Result<u32> {
        self.row_rid(oid)?;
        let entries = self
            .version_pk
            .range_vec(
                self.engine.pool(),
                Key::from_pair(oid.0, 0),
                Key::from_pair(oid.0, u64::MAX),
            )
            .map_err(se)?;
        Ok(entries.len() as u32)
    }

    fn version(&mut self, oid: Oid, version: VersionNo) -> Result<NodeValue> {
        self.row_rid(oid)?;
        let packed = self
            .version_pk
            .get(self.engine.pool(), Key::from_pair(oid.0, version.0 as u64))
            .map_err(se)?
            .ok_or_else(|| HmError::Version(format!("node {oid} has no version {}", version.0)))?;
        let bytes = self
            .version_table
            .get(self.engine.pool(), RecordId::unpack(packed))
            .map_err(se)?;
        NodeValue::decode(&bytes)
    }

    fn previous_version(&mut self, oid: Oid) -> Result<Option<NodeValue>> {
        let n = self.version_count(oid)?;
        if n == 0 {
            return Ok(None);
        }
        Ok(Some(self.version(oid, VersionNo(n - 1))?))
    }
}

impl AccessControlledStore for RelStore {
    fn set_structure_access(&mut self, root: Oid, mode: AccessMode) -> Result<usize> {
        let closure = self.closure_1n(root)?;
        let encoded = match mode {
            AccessMode::PublicWrite => 0u64,
            AccessMode::PublicRead => 1,
            AccessMode::NoAccess => 2,
        };
        for &oid in &closure {
            self.access_tab
                .insert(self.engine.pool(), Key::from_pair(oid.0, 0), encoded)
                .map_err(se)?;
        }
        Ok(closure.len())
    }

    fn access_of(&mut self, oid: Oid) -> Result<AccessMode> {
        self.row_rid(oid)?;
        Ok(
            match self
                .access_tab
                .get(self.engine.pool(), Key::from_pair(oid.0, 0))
                .map_err(se)?
            {
                None | Some(0) => AccessMode::PublicWrite,
                Some(1) => AccessMode::PublicRead,
                _ => AccessMode::NoAccess,
            },
        )
    }

    fn hundred_checked(&mut self, oid: Oid) -> Result<u32> {
        if !self.access_of(oid)?.allows_read() {
            return Err(HmError::AccessDenied(format!("read of {oid}")));
        }
        self.hundred_of(oid)
    }

    fn set_hundred_checked(&mut self, oid: Oid, value: u32) -> Result<()> {
        if !self.access_of(oid)?.allows_write() {
            return Err(HmError::AccessDenied(format!("write of {oid}")));
        }
        self.set_hundred(oid, value)
    }
}

impl std::fmt::Debug for RelStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelStore")
            .field("file_size", &self.file_size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypermodel::config::GenConfig;
    use hypermodel::generate::TestDatabase;
    use hypermodel::load::load_database;
    use hypermodel::oracle::Oracle;
    use hypermodel::text::{VERSION_1, VERSION_2};
    use std::path::PathBuf;

    fn dbpath(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hm-relstore-{}-{}.db", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        let mut w = p.clone().into_os_string();
        w.push(".wal");
        let _ = std::fs::remove_file(PathBuf::from(w));
        p
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_file(p);
        let mut w = p.to_path_buf().into_os_string();
        w.push(".wal");
        let _ = std::fs::remove_file(PathBuf::from(w));
    }

    fn loaded(name: &str, cfg: &GenConfig) -> (RelStore, TestDatabase, Vec<Oid>, PathBuf) {
        let path = dbpath(name);
        let db = TestDatabase::generate(cfg);
        let mut store = RelStore::create(&path, 2048).unwrap();
        let report = load_database(&mut store, &db).unwrap();
        (store, db, report.oids, path)
    }

    #[test]
    fn oids_are_key_values() {
        let (mut store, db, oids, path) = loaded("keys", &GenConfig::tiny());
        for (i, &oid) in oids.iter().enumerate() {
            assert_eq!(oid.0, i as u64 + 1, "relational Oid is the uniqueId");
            assert_eq!(store.unique_id_of(oid).unwrap(), oid.0);
        }
        let _ = db;
        cleanup(&path);
    }

    #[test]
    fn lookups_and_ranges_match_oracle() {
        let (mut store, db, _, path) = loaded("lookups", &GenConfig::level(3));
        let oracle = Oracle::new(&db);
        for uid in 1..=db.len() as u64 {
            let oid = store.lookup_unique(uid).unwrap();
            assert_eq!(
                store.hundred_of(oid).unwrap(),
                oracle.hundred(uid as u32 - 1)
            );
        }
        for (lo, hi) in [(1u32, 10), (45, 54)] {
            let mut got: Vec<u32> = store
                .range_hundred(lo, hi)
                .unwrap()
                .iter()
                .map(|o| o.0 as u32 - 1)
                .collect();
            got.sort_unstable();
            assert_eq!(got, oracle.range_hundred(lo, hi));
        }
        let mut got: Vec<u32> = store
            .range_million(1, 250_000)
            .unwrap()
            .iter()
            .map(|o| o.0 as u32 - 1)
            .collect();
        got.sort_unstable();
        assert_eq!(got, oracle.range_million(1, 250_000));
        cleanup(&path);
    }

    #[test]
    fn relationships_match_oracle() {
        let (mut store, db, oids, path) = loaded("rels", &GenConfig::tiny());
        let oracle = Oracle::new(&db);
        for idx in 0..db.len() as u32 {
            let oid = oids[idx as usize];
            let kids: Vec<u32> = store
                .children(oid)
                .unwrap()
                .iter()
                .map(|o| o.0 as u32 - 1)
                .collect();
            assert_eq!(kids, oracle.children(idx));
            assert_eq!(
                store.parent(oid).unwrap().map(|p| p.0 as u32 - 1),
                oracle.parent(idx)
            );
            let parts: Vec<u32> = store
                .parts(oid)
                .unwrap()
                .iter()
                .map(|o| o.0 as u32 - 1)
                .collect();
            assert_eq!(parts, oracle.parts(idx));
            let mut owners: Vec<u32> = store
                .part_of(oid)
                .unwrap()
                .iter()
                .map(|o| o.0 as u32 - 1)
                .collect();
            owners.sort_unstable();
            assert_eq!(owners, oracle.part_of(idx));
            let rt = store.refs_to(oid).unwrap();
            let (t, f, o) = oracle.ref_to(idx)[0];
            assert_eq!(rt[0].target.0 as u32 - 1, t);
            assert_eq!((rt[0].offset_from, rt[0].offset_to), (f, o));
        }
        cleanup(&path);
    }

    #[test]
    fn closures_match_oracle() {
        let (mut store, db, oids, path) = loaded("closures", &GenConfig::level(4));
        let oracle = Oracle::new(&db);
        for idx in db.level_indices(3).take(5) {
            let got: Vec<u32> = store
                .closure_1n(oids[idx as usize])
                .unwrap()
                .iter()
                .map(|o| o.0 as u32 - 1)
                .collect();
            assert_eq!(got, oracle.closure_1n(idx));
            let got: Vec<u32> = store
                .closure_mn(oids[idx as usize])
                .unwrap()
                .iter()
                .map(|o| o.0 as u32 - 1)
                .collect();
            assert_eq!(got, oracle.closure_mn(idx));
            let got: Vec<u32> = store
                .closure_mnatt(oids[idx as usize], 25)
                .unwrap()
                .iter()
                .map(|o| o.0 as u32 - 1)
                .collect();
            assert_eq!(got, oracle.closure_mnatt(idx, 25));
        }
        cleanup(&path);
    }

    #[test]
    fn text_edit_via_subtype_table() {
        let (mut store, db, oids, path) = loaded("textedit", &GenConfig::tiny());
        let oid = oids[db.text_indices()[0] as usize];
        let before = store.text_of(oid).unwrap();
        store.text_node_edit(oid, VERSION_1, VERSION_2).unwrap();
        store.commit().unwrap();
        store.text_node_edit(oid, VERSION_2, VERSION_1).unwrap();
        store.commit().unwrap();
        assert_eq!(store.text_of(oid).unwrap(), before);
        // An internal node has no TEXTNODE row.
        assert!(matches!(
            store.text_of(oids[0]),
            Err(HmError::WrongKind { .. })
        ));
        cleanup(&path);
    }

    #[test]
    fn form_edit_via_subtype_table() {
        let (mut store, db, oids, path) = loaded("formedit", &GenConfig::tiny());
        let oid = oids[db.form_indices()[0] as usize];
        store.form_node_edit(oid, 25, 25, 50, 50).unwrap();
        assert!(!store.form_of(oid).unwrap().is_all_white());
        store.form_node_edit(oid, 25, 25, 50, 50).unwrap();
        assert!(store.form_of(oid).unwrap().is_all_white());
        cleanup(&path);
    }

    #[test]
    fn filtered_scan_skips_extra_rows() {
        let (mut store, db, _, path) = loaded("scan", &GenConfig::tiny());
        assert_eq!(store.seq_scan_ten().unwrap(), db.len() as u64);
        let extra = NodeValue {
            kind: NodeKind::INTERNAL,
            attrs: NodeAttrs {
                unique_id: 90_000,
                ten: 2,
                hundred: 2,
                thousand: 2,
                million: 2,
            },
            content: Content::None,
        };
        store.insert_extra_node(&extra).unwrap();
        assert_eq!(store.seq_scan_ten().unwrap(), db.len() as u64);
        assert!(store.lookup_unique(90_000).is_ok());
        cleanup(&path);
    }

    #[test]
    fn att_set_round_trip_keeps_index() {
        let (mut store, db, oids, path) = loaded("attset", &GenConfig::tiny());
        store.closure_1n_att_set(oids[0]).unwrap();
        store.closure_1n_att_set(oids[0]).unwrap();
        let oracle = Oracle::new(&db);
        for idx in 0..db.len() as u32 {
            assert_eq!(
                store.hundred_of(oids[idx as usize]).unwrap(),
                oracle.hundred(idx)
            );
        }
        assert_eq!(store.range_hundred(1, 100).unwrap().len(), db.len());
        cleanup(&path);
    }

    #[test]
    fn persistence_across_reopen() {
        let path = dbpath("reopen");
        let db = TestDatabase::generate(&GenConfig::tiny());
        {
            let mut store = RelStore::create(&path, 1024).unwrap();
            load_database(&mut store, &db).unwrap();
            store.cold_restart().unwrap();
        }
        {
            let mut store = RelStore::open(&path, 1024).unwrap();
            let oracle = Oracle::new(&db);
            assert_eq!(store.seq_scan_ten().unwrap(), db.len() as u64);
            for uid in [1u64, 7, 31] {
                let oid = store.lookup_unique(uid).unwrap();
                assert_eq!(
                    store.hundred_of(oid).unwrap(),
                    oracle.hundred(uid as u32 - 1)
                );
            }
        }
        cleanup(&path);
    }

    #[test]
    fn no_clustering_means_1n_gains_nothing_cold() {
        // Architectural check: in the relational mapping the cold page
        // fault count of closure1N is not materially below closureMN
        // (both are unclustered). We only assert it is not dramatically
        // *better*, which would indicate accidental clustering.
        let (mut store, db, oids, path) = loaded("nocluster", &GenConfig::level(4));
        store.commit().unwrap();
        let start = oids[db.level_indices(3).start as usize];
        store.cold_restart().unwrap();
        store.closure_1n(start).unwrap();
        let miss_1n = store.pool_stats().misses;
        store.cold_restart().unwrap();
        store.closure_mn(start).unwrap();
        let miss_mn = store.pool_stats().misses;
        assert!(
            miss_1n * 2 >= miss_mn,
            "rel backend should not show strong 1-N clustering ({miss_1n} vs {miss_mn})"
        );
        cleanup(&path);
    }
}

#[cfg(test)]
mod ext_tests {
    use super::*;
    use hypermodel::config::GenConfig;
    use hypermodel::generate::TestDatabase;
    use hypermodel::load::load_database;
    use hypermodel::text::{VERSION_1, VERSION_2};
    use std::path::PathBuf;

    fn dbpath(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hm-relext-{}-{}.db", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        let mut w = p.clone().into_os_string();
        w.push(".wal");
        let _ = std::fs::remove_file(PathBuf::from(w));
        p
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_file(p);
        let mut w = p.to_path_buf().into_os_string();
        w.push(".wal");
        let _ = std::fs::remove_file(PathBuf::from(w));
    }

    #[test]
    fn dynamic_schema_alter_table_persists() {
        let path = dbpath("schema");
        let db = TestDatabase::generate(&GenConfig::tiny());
        let weight;
        {
            let mut store = RelStore::create(&path, 1024).unwrap();
            let report = load_database(&mut store, &db).unwrap();
            store.add_node_type("DrawNode", "Node").unwrap();
            weight = store.add_type_attribute("Node", "weight", 11).unwrap();
            store.set_dyn_attr(report.oids[0], weight, 77).unwrap();
            store.commit().unwrap();
            store.cold_restart().unwrap();
        }
        {
            let mut store = RelStore::open(&path, 1024).unwrap();
            assert!(store.schema().type_by_name("DrawNode").is_some());
            assert_eq!(store.dyn_attr(Oid(1), weight).unwrap(), 77);
            assert_eq!(
                store.dyn_attr(Oid(2), weight).unwrap(),
                11,
                "DEFAULT applies"
            );
        }
        cleanup(&path);
    }

    #[test]
    fn version_table_snapshots_joined_rows() {
        let path = dbpath("versions");
        let db = TestDatabase::generate(&GenConfig::tiny());
        let mut store = RelStore::create(&path, 1024).unwrap();
        let report = load_database(&mut store, &db).unwrap();
        let oid = report.oids[db.text_indices()[0] as usize];
        assert_eq!(store.previous_version(oid).unwrap(), None);
        store.create_version(oid).unwrap();
        let original = store.text_of(oid).unwrap();
        store.text_node_edit(oid, VERSION_1, VERSION_2).unwrap();
        store.create_version(oid).unwrap();
        store.commit().unwrap();
        assert_eq!(store.version_count(oid).unwrap(), 2);
        // Version 0 materialized the joined NODE + TEXTNODE state.
        match store.version(oid, VersionNo(0)).unwrap().content {
            Content::Text(s) => assert_eq!(s, original),
            other => panic!("{other:?}"),
        }
        // A form node versions its bitmap too.
        let form_oid = report.oids[db.form_indices()[0] as usize];
        store.create_version(form_oid).unwrap();
        match store.version(form_oid, VersionNo(0)).unwrap().content {
            Content::Form(bm) => assert!(bm.is_all_white()),
            other => panic!("{other:?}"),
        }
        assert!(store.version(oid, VersionNo(5)).is_err());
        cleanup(&path);
    }

    #[test]
    fn access_table_r11_scenario() {
        let path = dbpath("acl");
        let db = TestDatabase::generate(&GenConfig::tiny());
        let mut store = RelStore::create(&path, 1024).unwrap();
        let report = load_database(&mut store, &db).unwrap();
        let doc_a = report.oids[db.children[0][0] as usize];
        let doc_b = report.oids[db.children[0][1] as usize];
        let n = store
            .set_structure_access(doc_a, AccessMode::PublicRead)
            .unwrap();
        assert_eq!(n, 6);
        assert!(store.hundred_checked(doc_a).is_ok());
        assert!(matches!(
            store.set_hundred_checked(doc_a, 5),
            Err(HmError::AccessDenied(_))
        ));
        store.set_hundred_checked(doc_b, 5).unwrap();
        // Cross-structure links remain navigable (paper's R11 example).
        assert_eq!(store.refs_to(doc_a).unwrap().len(), 1);
        cleanup(&path);
    }
}
