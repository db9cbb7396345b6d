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
            hundred: rd(ROW_HUNDRED),
            thousand: rd(19),
            million: rd(23),
        },
    ))
}

/// `TEXTNODE` row: uid, text.
fn encode_text_row(uid: u64, text: &str) -> Vec<u8> {
    let mut rec = Vec::with_capacity(8 + text.len());
    rec.extend_from_slice(&uid.to_le_bytes());
    rec.extend_from_slice(text.as_bytes());
    rec
}

/// `FORMNODE` row: uid, width, height, bits.
fn encode_form_row(uid: u64, bitmap: &Bitmap) -> Vec<u8> {
    let mut rec = Vec::with_capacity(12 + bitmap.bits().len());
    rec.extend_from_slice(&uid.to_le_bytes());
    rec.extend_from_slice(&bitmap.width().to_le_bytes());
    rec.extend_from_slice(&bitmap.height().to_le_bytes());
    rec.extend_from_slice(bitmap.bits());
    rec
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
        let mut row = self.node.row(pool, rid)?;
        let old = decode_node_row(&row)?.2.hundred;
        if old != value {
            row[ROW_HUNDRED..ROW_HUNDRED + 4].copy_from_slice(&value.to_le_bytes());
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
        let row = encode_node_row(uid, value.kind, structure, &value.attrs);
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
        let row = self.text.row(pool, rid)?;
        String::from_utf8(row[8..].to_vec())
            .map_err(|_| HmError::Backend("text row is not utf-8".into()))
    }

    fn set_text(&mut self, pool: &mut BufferPool, oid: Oid, text: &str) -> Result<()> {
        let rid = subtype_row_id(&self.text, pool, oid, "TextNode")?;
        self.text
            .update(pool, oid.0, rid, &encode_text_row(oid.0, text))
    }

    fn form(&self, pool: &mut BufferPool, oid: Oid) -> Result<Bitmap> {
        self.exists(pool, oid)?;
        let rid = subtype_row_id(&self.form, pool, oid, "FormNode")?;
        let row = self.form.row(pool, rid)?;
        let w = u16::from_le_bytes(row[8..10].try_into().expect("2"));
        let h = u16::from_le_bytes(row[10..12].try_into().expect("2"));
        Bitmap::from_bits(w, h, row[12..].to_vec()).map_err(HmError::Backend)
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
