//! # `rel-backend` — the HyperModel mapped to a relational system
//!
//! The paper reports that the HyperModel was "currently being implemented
//! on a relational system following the methodology outlined in /BLAH88/"
//! (Blaha, Premerlani & Rumbaugh, *Relational Database Design using an
//! Object-Oriented Methodology*). This backend is that implementation.
//! [`RelStore`] is [`PagedStore`] with the node mapping
//! [`RelationalLayout`]: the same store as the object store, on the same
//! `storage` substrate, so that differences in the results come from the
//! *mapping*, not the engine:
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
//! The first three rows and the PK indexes are this crate's; the
//! relationship tables, the secondary indexes and the §6.8 extension
//! tables (`ALTER TABLE` overrides, `VERSION` rows, access modes) are the
//! trees `paged-store` keeps for every mapping.
//!
//! The architectural signature of the mapping, which the benchmark is
//! designed to surface:
//!
//! * **Object references are key values** — the paper §6: "In a relational
//!   system it would typically be the value of a key attribute". Here
//!   [`Oid`]`(x)` *is* `uniqueId = x`; every dereference is a PK index
//!   probe rather than an object-table hop.
//! * **No clustering along the aggregation hierarchy** — rows land in the
//!   `NODE` table in insertion order; the placement hint of
//!   `create_node_clustered` is ignored. 1-N closures therefore gain
//!   nothing over M-N closures cold, unlike the clustered object store.
//! * **Vertical partitioning** — text/form content live in subtype
//!   tables, so `textNodeEdit` pays two probes (supertype + subtype).
//! * **Scans are filtered table scans** — the `structure` column plays the
//!   role §6.4.1 requires: extra `Node` rows share the table and are
//!   filtered out, rather than living in a separate extent.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use hypermodel::codec::{Reader, Writer};
use hypermodel::error::{HmError, Result};
use hypermodel::model::{Content, NodeAttrs, NodeKind, NodeValue, Oid};
use hypermodel::Bitmap;
use paged_store::{se, NodeLayout, PagedStore};
use storage::btree::{BTree, Key};
use storage::heap::{HeapFile, RecordId};
use storage::{BufferPool, PageId};

/// The relationally mapped HyperModel store.
pub type RelStore = PagedStore<RelationalLayout>;

const STRUCT_TEST: u8 = 0;
const STRUCT_EXTRA: u8 = 1;

/// Bytes in a `NODE` row.
const NODE_ROW_LEN: usize = 27;

/// Fixed-width `NODE` row: uid, kind, structure, ten, hundred, thousand,
/// million.
fn encode_node_row(kind: NodeKind, structure: u8, a: &NodeAttrs) -> Vec<u8> {
    let mut out = Vec::with_capacity(NODE_ROW_LEN);
    let w = &mut Writer::over(&mut out);
    w.u64(a.unique_id);
    w.u16(kind.0);
    w.u8(structure);
    for v in [a.ten, a.hundred, a.thousand, a.million] {
        w.u32(v);
    }
    out
}

fn decode_node_row(bytes: &[u8]) -> Result<(NodeKind, u8, NodeAttrs)> {
    // One length check up front lets the compiler drop the reader's
    // per-field checks: a scan decodes every row of the table.
    if bytes.len() < NODE_ROW_LEN {
        return Err(HmError::Backend("short NODE row".into()));
    }
    let r = &mut Reader::new(bytes);
    // Fields in row order: a struct literal evaluates in the order it is
    // written.
    let unique_id = r.u64()?;
    let kind = NodeKind(r.u16()?);
    let structure = r.u8()?;
    let attrs = NodeAttrs {
        unique_id,
        ten: r.u32()?,
        hundred: r.u32()?,
        thousand: r.u32()?,
        million: r.u32()?,
    };
    Ok((kind, structure, attrs))
}

/// `TEXTNODE` row: uid, text.
fn encode_text_row(uid: u64, text: &str) -> Vec<u8> {
    let mut rec = Vec::with_capacity(8 + text.len());
    let w = &mut Writer::over(&mut rec);
    w.u64(uid);
    w.raw(text.as_bytes());
    rec
}

fn decode_text_row(row: &[u8]) -> Result<String> {
    let r = &mut Reader::new(row);
    r.u64()?;
    String::from_utf8(r.rest().to_vec())
        .map_err(|_| HmError::Backend("text row is not utf-8".into()))
}

/// `FORMNODE` row: uid, width, height, bits.
fn encode_form_row(uid: u64, bitmap: &Bitmap) -> Vec<u8> {
    let mut rec = Vec::with_capacity(12 + bitmap.bits().len());
    let w = &mut Writer::over(&mut rec);
    w.u64(uid);
    w.u16(bitmap.width());
    w.u16(bitmap.height());
    w.raw(bitmap.bits());
    rec
}

fn decode_form_row(row: &[u8]) -> Result<Bitmap> {
    let r = &mut Reader::new(row);
    r.u64()?;
    let (w, h) = (r.u16()?, r.u16()?);
    Bitmap::from_bits(w, h, r.rest().to_vec()).map_err(HmError::Backend)
}

/// One table: a heap of rows and its primary-key index `uid → row id`.
#[derive(Clone, Copy)]
struct Table {
    rows: HeapFile,
    pk: BTree,
}

impl Table {
    fn create(pool: &mut BufferPool) -> Result<Table> {
        Ok(Table {
            rows: HeapFile::create(pool).map_err(se)?,
            pk: BTree::create(pool).map_err(se)?,
        })
    }

    fn row_id(&self, pool: &mut BufferPool, uid: u64) -> Result<Option<RecordId>> {
        let hit = self.pk.get(pool, Key::from_pair(uid, 0)).map_err(se)?;
        Ok(hit.map(RecordId::unpack))
    }

    fn row(&self, pool: &mut BufferPool, rid: RecordId) -> Result<Vec<u8>> {
        self.rows.get(pool, rid).map_err(se)
    }

    fn set_row_id(&mut self, pool: &mut BufferPool, uid: u64, rid: RecordId) -> Result<()> {
        self.pk
            .insert(pool, Key::from_pair(uid, 0), rid.pack())
            .map_err(se)?;
        Ok(())
    }

    fn insert(&mut self, pool: &mut BufferPool, uid: u64, row: &[u8]) -> Result<()> {
        let rid = self.rows.insert(pool, row).map_err(se)?;
        self.set_row_id(pool, uid, rid)
    }

    /// Overwrite the row at `rid`; a row that outgrew its page moves, and
    /// the key index follows it.
    fn update(&mut self, pool: &mut BufferPool, uid: u64, rid: RecordId, row: &[u8]) -> Result<()> {
        let new_rid = self.rows.update(pool, rid, row).map_err(se)?;
        if new_rid != rid {
            self.set_row_id(pool, uid, new_rid)?;
        }
        Ok(())
    }
}

/// The /BLAH88/ node mapping: a `NODE` table with `TEXTNODE` and
/// `FORMNODE` subtype tables, each behind a primary-key index, in
/// insertion order.
pub struct RelationalLayout {
    node: Table,
    text: Table,
    form: Table,
}

impl RelationalLayout {
    fn node_row_id(&self, pool: &mut BufferPool, oid: Oid) -> Result<RecordId> {
        self.node
            .row_id(pool, oid.0)?
            .ok_or(HmError::NodeNotFound(oid))
    }
}

/// The id of `oid`'s row in a subtype table; a node of another kind has none.
fn subtype_row_id(
    table: &Table,
    pool: &mut BufferPool,
    oid: Oid,
    expected: &'static str,
) -> Result<RecordId> {
    table
        .row_id(pool, oid.0)?
        .ok_or(HmError::WrongKind { oid, expected })
}

impl NodeLayout for RelationalLayout {
    const NAME: &'static str = "rel";

    const ROOTS: &'static [&'static str] = &[
        "node_table",
        "pk",
        "text_table",
        "text_pk",
        "form_table",
        "form_pk",
    ];

    fn create(pool: &mut BufferPool) -> Result<Self> {
        Ok(RelationalLayout {
            node: Table::create(pool)?,
            text: Table::create(pool)?,
            form: Table::create(pool)?,
        })
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`PagedStore` passes one catalogue value per `ROOTS` name"
    )]
    fn from_roots(roots: &[u64]) -> Self {
        let table = |at: usize| Table {
            rows: HeapFile::open(PageId(roots[at])),
            pk: BTree::open(PageId(roots[at + 1])),
        };
        RelationalLayout {
            node: table(0),
            text: table(2),
            form: table(4),
        }
    }

    fn roots(&self) -> Vec<u64> {
        [self.node, self.text, self.form]
            .iter()
            .flat_map(|t| [t.rows.first_page().0, t.pk.root().0])
            .collect()
    }

    fn exists(&self, pool: &mut BufferPool, oid: Oid) -> Result<()> {
        self.node_row_id(pool, oid).map(|_| ())
    }

    fn lookup_unique(&self, pool: &mut BufferPool, unique_id: u64) -> Result<Option<Oid>> {
        // The reference IS the key value; the lookup still probes the PK
        // index to verify existence, which is what a
        // `SELECT hundred FROM node WHERE uid = ?` plan does.
        Ok(self.node.row_id(pool, unique_id)?.map(|_| Oid(unique_id)))
    }

    fn unique_id_of(&self, pool: &mut BufferPool, oid: Oid) -> Result<u64> {
        self.exists(pool, oid)?;
        Ok(oid.0)
    }

    fn attrs(&self, pool: &mut BufferPool, oid: Oid) -> Result<(NodeKind, NodeAttrs)> {
        let rid = self.node_row_id(pool, oid)?;
        let (kind, _, attrs) = decode_node_row(&self.node.row(pool, rid)?)?;
        Ok((kind, attrs))
    }

    fn patch_hundred(&mut self, pool: &mut BufferPool, oid: Oid, value: u32) -> Result<u32> {
        let rid = self.node_row_id(pool, oid)?;
        let (kind, structure, mut attrs) = decode_node_row(&self.node.row(pool, rid)?)?;
        let old = attrs.hundred;
        if old != value {
            attrs.hundred = value;
            let row = encode_node_row(kind, structure, &attrs);
            self.node.update(pool, oid.0, rid, &row)?;
        }
        Ok(old)
    }

    fn insert(
        &mut self,
        pool: &mut BufferPool,
        value: &NodeValue,
        _near: Option<Oid>,
        extra: bool,
    ) -> Result<Oid> {
        // No clustering: rows land in insertion order, whatever the hint.
        let uid = value.attrs.unique_id;
        let structure = if extra { STRUCT_EXTRA } else { STRUCT_TEST };
        let row = encode_node_row(value.kind, structure, &value.attrs);
        self.node.insert(pool, uid, &row)?;
        // Subtype tables (vertical partitioning per /BLAH88/).
        match &value.content {
            Content::None | Content::Dynamic(_) => {}
            Content::Text(s) => self.text.insert(pool, uid, &encode_text_row(uid, s))?,
            Content::Form(bm) => self.form.insert(pool, uid, &encode_form_row(uid, bm))?,
        }
        Ok(Oid(uid))
    }

    fn text(&self, pool: &mut BufferPool, oid: Oid) -> Result<String> {
        self.exists(pool, oid)?;
        let rid = subtype_row_id(&self.text, pool, oid, "TextNode")?;
        decode_text_row(&self.text.row(pool, rid)?)
    }

    fn set_text(&mut self, pool: &mut BufferPool, oid: Oid, text: &str) -> Result<()> {
        let rid = subtype_row_id(&self.text, pool, oid, "TextNode")?;
        self.text
            .update(pool, oid.0, rid, &encode_text_row(oid.0, text))
    }

    fn form(&self, pool: &mut BufferPool, oid: Oid) -> Result<Bitmap> {
        self.exists(pool, oid)?;
        let rid = subtype_row_id(&self.form, pool, oid, "FormNode")?;
        decode_form_row(&self.form.row(pool, rid)?)
    }

    fn set_form(&mut self, pool: &mut BufferPool, oid: Oid, bitmap: &Bitmap) -> Result<()> {
        let rid = subtype_row_id(&self.form, pool, oid, "FormNode")?;
        self.form
            .update(pool, oid.0, rid, &encode_form_row(oid.0, bitmap))
    }

    /// Reassemble the full [`NodeValue`] of a row by joining the NODE row
    /// with its subtype table — the relational flavour of "fetch object".
    fn materialize(&self, pool: &mut BufferPool, oid: Oid) -> Result<NodeValue> {
        let (kind, attrs) = self.attrs(pool, oid)?;
        let content = match kind {
            NodeKind::TEXT => Content::Text(self.text(pool, oid)?),
            NodeKind::FORM => Content::Form(self.form(pool, oid)?),
            _ => Content::None,
        };
        Ok(NodeValue {
            kind,
            attrs,
            content,
        })
    }

    fn scan_structure(
        &self,
        pool: &mut BufferPool,
        mut visit: impl FnMut(&NodeAttrs),
    ) -> Result<()> {
        // Filtered full table scan: `SELECT ten FROM node WHERE struct = 0`.
        self.node
            .rows
            .scan(pool, |_, bytes| {
                if let Ok((_, STRUCT_TEST, attrs)) = decode_node_row(bytes) {
                    visit(&attrs);
                }
                true
            })
            .map_err(se)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypermodel::config::GenConfig;
    use hypermodel::generate::TestDatabase;
    use hypermodel::load::load_database;
    use hypermodel::store::HyperStore;
    use hypermodel::text::{VERSION_1, VERSION_2};
    use std::path::{Path, PathBuf};

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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rows_keep_their_byte_layout() {
        let attrs = NodeAttrs {
            unique_id: 7,
            ten: 3,
            hundred: 45,
            thousand: 678,
            million: 910_111,
        };
        let node = encode_node_row(NodeKind::TEXT, STRUCT_EXTRA, &attrs);
        assert_eq!(
            hex(&node),
            "0700000000000000010001030000002d000000a60200001fe30d00"
        );
        assert_eq!(
            decode_node_row(&node).unwrap(),
            (NodeKind::TEXT, STRUCT_EXTRA, attrs)
        );

        let text = encode_text_row(7, "version1 tail");
        assert_eq!(hex(&text), "070000000000000076657273696f6e31207461696c");
        assert_eq!(decode_text_row(&text).unwrap(), "version1 tail");

        let mut bm = Bitmap::white(10, 2);
        bm.set(1, 0, true);
        bm.set(9, 1, true);
        let form = encode_form_row(7, &bm);
        assert_eq!(hex(&form), "07000000000000000a000200020008");
        assert_eq!(decode_form_row(&form).unwrap(), bm);
    }

    #[test]
    fn subtype_rows_shorter_than_their_header_are_errors() {
        let path = dbpath("short-rows");
        let mut engine = storage::engine::Engine::create(&path, 64).unwrap();
        let pool = engine.pool();
        let mut layout = RelationalLayout::create(pool).unwrap();
        let node = |uid, kind, content| NodeValue {
            kind,
            attrs: NodeAttrs {
                unique_id: uid,
                ten: 0,
                hundred: 0,
                thousand: 0,
                million: 0,
            },
            content,
        };
        let text = layout
            .insert(
                pool,
                &node(1, NodeKind::TEXT, Content::Text("abc".into())),
                None,
                false,
            )
            .unwrap();
        let form = layout
            .insert(
                pool,
                &node(2, NodeKind::FORM, Content::Form(Bitmap::white(8, 1))),
                None,
                false,
            )
            .unwrap();
        for (mut table, oid) in [(layout.text, text), (layout.form, form)] {
            let rid = table.row_id(pool, oid.0).unwrap().unwrap();
            table.update(pool, oid.0, rid, &[1, 2, 3]).unwrap();
        }
        assert!(layout.text(pool, text).is_err());
        assert!(layout.form(pool, form).is_err());
        drop(engine);
        cleanup(&path);
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

    #[test]
    fn a_key_value_too_wide_for_an_edge_is_refused() {
        // The oid is the caller's uniqueId, so a wide one can reach
        // `add_ref`; it must be refused, not shifted out of the edge value.
        let (mut store, _, oids, path) = loaded("widekey", &GenConfig::tiny());
        let wide = NodeValue {
            kind: NodeKind::INTERNAL,
            attrs: NodeAttrs {
                unique_id: 1 << 48,
                ten: 2,
                hundred: 2,
                thousand: 2,
                million: 2,
            },
            content: Content::None,
        };
        let far = store.create_node(&wide).unwrap();
        for (from, to) in [(oids[0], far), (far, oids[0])] {
            assert!(matches!(
                store.add_ref(from, to, 1, 2),
                Err(HmError::InvalidArgument(_))
            ));
        }
        assert_eq!(store.refs_to(oids[0]).unwrap().len(), 1);
        assert!(store.refs_from(far).unwrap().is_empty());
        cleanup(&path);
    }
}
