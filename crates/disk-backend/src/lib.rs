//! # `disk-backend` — the clustered disk object store
//!
//! The workstation/server OODB architecture of the paper (GemStone/Vbase
//! analogue): objects live on disk pages behind a buffer pool, all access
//! is by object id through an object table, and commits are redo-logged.
//!
//! [`DiskStore`] is [`PagedStore`] with the node mapping [`ObjectLayout`].
//! The relationship trees, the attribute indexes, the §6.8 extension
//! tables, the catalog and the transaction boundary are `paged-store`'s
//! and are the same for the relational mapping; what this crate decides is
//! how a node is stored:
//!
//! * **Node records** — canonical [`NodeValue`] encoding in a heap file.
//!   Clustering follows the paper's rule ("clustering should be done along
//!   the 1-N relationship-hierarchy"): `create_node_clustered` places a
//!   node on its parent's page when space allows, so 1-N closures touch
//!   few pages cold while M-N closures (random next-level nodes) scatter —
//!   exactly the asymmetry §6.5 predicts.
//! * **Object table** — B+Tree `oid → record id`, GemStone-style, so
//!   records may relocate (growing text edits) without invalidating oids.
//!   Oids come from a counter; `uniqueId` has its own B+Tree index.
//! * **Extent** — nodes outside the test structure go to a second heap
//!   (marked by a bit in the object table), so the sequential scan of
//!   §6.4.1 reads the structure's heap and nothing else.
//! * **Cold/warm** — `cold_restart` checkpoints and drops the buffer pool,
//!   the single-machine equivalent of re-fetching from a server (§6: "the
//!   cold run would require fetching of nodes from the server").

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use hypermodel::error::{HmError, Result};
use hypermodel::model::{Content, NodeAttrs, NodeKind, NodeValue, Oid};
use hypermodel::Bitmap;
use paged_store::{se, NodeLayout, PagedStore};
use storage::btree::{BTree, Key};
use storage::heap::{HeapFile, RecordId};
use storage::{BufferPool, PageId};

pub use paged_store::{in_doubt_txn, in_doubt_txn_in, resolve_in_doubt, resolve_in_doubt_in};

/// The disk-based HyperModel object store.
pub type DiskStore = PagedStore<ObjectLayout>;

/// Marks a value in the object table as living in the extras heap.
const EXTRA_BIT: u64 = 1 << 63;

/// Where a record lives: in the extras heap or the structure's, and at
/// which record id.
type Place = (bool, RecordId);

/// The object-store node mapping: whole records in two heaps behind an
/// object table, clustered along the 1-N hierarchy.
pub struct ObjectLayout {
    nodes: HeapFile,
    extras: HeapFile,
    objtab: BTree,
    uid_idx: BTree,
    next_oid: u64,
}

impl ObjectLayout {
    fn heap(&mut self, extra: bool) -> &mut HeapFile {
        if extra {
            &mut self.extras
        } else {
            &mut self.nodes
        }
    }

    fn locate(&self, pool: &mut BufferPool, oid: Oid) -> Result<Place> {
        let v = self
            .objtab
            .get(pool, Key::from_pair(oid.0, 0))
            .map_err(se)?
            .ok_or(HmError::NodeNotFound(oid))?;
        Ok((v & EXTRA_BIT != 0, RecordId::unpack(v & !EXTRA_BIT)))
    }

    fn record_at(&self, pool: &mut BufferPool, (extra, rid): Place) -> Result<Vec<u8>> {
        let heap = if extra { self.extras } else { self.nodes };
        heap.get(pool, rid).map_err(se)
    }

    fn record(&self, pool: &mut BufferPool, oid: Oid) -> Result<Vec<u8>> {
        let place = self.locate(pool, oid)?;
        self.record_at(pool, place)
    }

    fn set_place(&mut self, pool: &mut BufferPool, oid: Oid, (extra, rid): Place) -> Result<()> {
        let packed = rid.pack() | if extra { EXTRA_BIT } else { 0 };
        self.objtab
            .insert(pool, Key::from_pair(oid.0, 0), packed)
            .map_err(se)?;
        Ok(())
    }

    /// Overwrite the record at `place`; a record that outgrew its page
    /// moves, and the object table follows it.
    fn rewrite(
        &mut self,
        pool: &mut BufferPool,
        oid: Oid,
        (extra, rid): Place,
        bytes: &[u8],
    ) -> Result<()> {
        let new_rid = self.heap(extra).update(pool, rid, bytes).map_err(se)?;
        if new_rid != rid {
            self.set_place(pool, oid, (extra, new_rid))?;
        }
        Ok(())
    }

    /// Decode the node, let `edit` change its content, store it back.
    fn edit_content(
        &mut self,
        pool: &mut BufferPool,
        oid: Oid,
        edit: impl FnOnce(&mut Content) -> Result<()>,
    ) -> Result<()> {
        let place = self.locate(pool, oid)?;
        let mut value = NodeValue::decode(&self.record_at(pool, place)?)?;
        edit(&mut value.content)?;
        self.rewrite(pool, oid, place, &value.encode())
    }
}

impl NodeLayout for ObjectLayout {
    const NAME: &'static str = "disk";

    const ROOTS: &'static [&'static str] = &["nodes", "extras", "objtab", "uid", "next_oid"];

    fn create(pool: &mut BufferPool) -> Result<Self> {
        Ok(ObjectLayout {
            nodes: HeapFile::create(pool).map_err(se)?,
            extras: HeapFile::create(pool).map_err(se)?,
            objtab: BTree::create(pool).map_err(se)?,
            uid_idx: BTree::create(pool).map_err(se)?,
            next_oid: 1,
        })
    }

    fn from_roots(roots: &[u64]) -> Self {
        ObjectLayout {
            nodes: HeapFile::open(PageId(roots[0])),
            extras: HeapFile::open(PageId(roots[1])),
            objtab: BTree::open(PageId(roots[2])),
            uid_idx: BTree::open(PageId(roots[3])),
            next_oid: roots[4],
        }
    }

    fn roots(&self) -> Vec<u64> {
        vec![
            self.nodes.first_page().0,
            self.extras.first_page().0,
            self.objtab.root().0,
            self.uid_idx.root().0,
            self.next_oid,
        ]
    }

    fn exists(&self, pool: &mut BufferPool, oid: Oid) -> Result<()> {
        self.locate(pool, oid).map(|_| ())
    }

    fn lookup_unique(&self, pool: &mut BufferPool, unique_id: u64) -> Result<Option<Oid>> {
        let hit = self.uid_idx.get(pool, Key::from_pair(unique_id, 0));
        Ok(hit.map_err(se)?.map(Oid))
    }

    fn unique_id_of(&self, pool: &mut BufferPool, oid: Oid) -> Result<u64> {
        Ok(self.attrs(pool, oid)?.1.unique_id)
    }

    fn attrs(&self, pool: &mut BufferPool, oid: Oid) -> Result<(NodeKind, NodeAttrs)> {
        NodeValue::decode_attrs(&self.record(pool, oid)?)
    }

    fn patch_hundred(&mut self, pool: &mut BufferPool, oid: Oid, value: u32) -> Result<u32> {
        let place = self.locate(pool, oid)?;
        let mut bytes = self.record_at(pool, place)?;
        let old = NodeValue::decode_attrs(&bytes)?.1.hundred;
        if old != value {
            // A fixed-width attribute: the record keeps its size and its place.
            bytes[NodeValue::HUNDRED_OFFSET..NodeValue::HUNDRED_OFFSET + 4]
                .copy_from_slice(&value.to_le_bytes());
            self.rewrite(pool, oid, place, &bytes)?;
        }
        Ok(old)
    }

    fn insert(
        &mut self,
        pool: &mut BufferPool,
        value: &NodeValue,
        near: Option<Oid>,
        extra: bool,
    ) -> Result<Oid> {
        let oid = Oid(self.next_oid);
        self.next_oid += 1;
        let encoded = value.encode();
        // Clustering: onto the page of the future 1-N parent, if it has room.
        let rid = match near {
            Some(parent) if !extra => {
                let (_, near_rid) = self.locate(pool, parent)?;
                self.nodes.insert_near(pool, &encoded, near_rid)
            }
            _ => self.heap(extra).insert(pool, &encoded),
        }
        .map_err(se)?;
        self.set_place(pool, oid, (extra, rid))?;
        self.uid_idx
            .insert(pool, Key::from_pair(value.attrs.unique_id, 0), oid.0)
            .map_err(se)?;
        Ok(oid)
    }

    fn text(&self, pool: &mut BufferPool, oid: Oid) -> Result<String> {
        match self.materialize(pool, oid)?.content {
            Content::Text(s) => Ok(s),
            _ => Err(wrong_kind(oid, "TextNode")),
        }
    }

    fn set_text(&mut self, pool: &mut BufferPool, oid: Oid, text: &str) -> Result<()> {
        self.edit_content(pool, oid, |content| match content {
            Content::Text(s) => {
                *s = text.to_string();
                Ok(())
            }
            _ => Err(wrong_kind(oid, "TextNode")),
        })
    }

    fn form(&self, pool: &mut BufferPool, oid: Oid) -> Result<Bitmap> {
        match self.materialize(pool, oid)?.content {
            Content::Form(bm) => Ok(bm),
            _ => Err(wrong_kind(oid, "FormNode")),
        }
    }

    fn set_form(&mut self, pool: &mut BufferPool, oid: Oid, bitmap: &Bitmap) -> Result<()> {
        self.edit_content(pool, oid, |content| match content {
            Content::Form(bm) => {
                *bm = bitmap.clone();
                Ok(())
            }
            _ => Err(wrong_kind(oid, "FormNode")),
        })
    }

    fn materialize(&self, pool: &mut BufferPool, oid: Oid) -> Result<NodeValue> {
        NodeValue::decode(&self.record(pool, oid)?)
    }

    fn scan_structure(
        &self,
        pool: &mut BufferPool,
        mut visit: impl FnMut(&NodeAttrs),
    ) -> Result<()> {
        // The structure's heap only — the extras heap holds the "other
        // instances of class Node" that §6.4.1 says must not be visited.
        self.nodes
            .scan(pool, |_, bytes| {
                if let Ok((_, attrs)) = NodeValue::decode_attrs(bytes) {
                    visit(&attrs);
                }
                true
            })
            .map_err(se)
    }
}

fn wrong_kind(oid: Oid, expected: &'static str) -> HmError {
    HmError::WrongKind { oid, expected }
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
        p.push(format!("hm-diskstore-{}-{}.db", std::process::id(), name));
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

    fn loaded(name: &str, cfg: &GenConfig) -> (DiskStore, TestDatabase, Vec<Oid>, PathBuf) {
        let path = dbpath(name);
        let db = TestDatabase::generate(cfg);
        let mut store = DiskStore::create(&path, 2048).unwrap();
        let report = load_database(&mut store, &db).unwrap();
        (store, db, report.oids, path)
    }

    #[test]
    fn text_edit_grows_and_relocates_safely() {
        let (mut store, db, oids, path) = loaded("textedit", &GenConfig::tiny());
        for &ti in db.text_indices().iter().take(8) {
            let oid = oids[ti as usize];
            let before = store.text_of(oid).unwrap();
            store.text_node_edit(oid, VERSION_1, VERSION_2).unwrap();
            store.commit().unwrap();
            assert!(store.text_of(oid).unwrap().contains(VERSION_2));
            store.text_node_edit(oid, VERSION_2, VERSION_1).unwrap();
            store.commit().unwrap();
            assert_eq!(store.text_of(oid).unwrap(), before);
        }
        cleanup(&path);
    }

    #[test]
    fn form_edit_round_trip_through_overflow_pages() {
        let (mut store, db, oids, path) = loaded("formedit", &GenConfig::tiny());
        let oid = oids[db.form_indices()[0] as usize];
        let bm = store.form_of(oid).unwrap();
        assert!(bm.is_all_white());
        store.form_node_edit(oid, 25, 25, 50, 50).unwrap();
        store.commit().unwrap();
        assert!(!store.form_of(oid).unwrap().is_all_white());
        store.form_node_edit(oid, 25, 25, 50, 50).unwrap();
        store.commit().unwrap();
        assert!(store.form_of(oid).unwrap().is_all_white());
        cleanup(&path);
    }

    #[test]
    fn seq_scan_ignores_extras() {
        let (mut store, db, _, path) = loaded("extras", &GenConfig::tiny());
        assert_eq!(store.seq_scan_ten().unwrap(), db.len() as u64);
        let extra = NodeValue {
            kind: NodeKind::INTERNAL,
            attrs: hypermodel::model::NodeAttrs {
                unique_id: 77_777,
                ten: 1,
                hundred: 1,
                thousand: 1,
                million: 1,
            },
            content: Content::None,
        };
        store.insert_extra_node(&extra).unwrap();
        store.commit().unwrap();
        assert_eq!(store.seq_scan_ten().unwrap(), db.len() as u64);
        assert!(store.lookup_unique(77_777).is_ok());
        cleanup(&path);
    }

    #[test]
    fn clustering_packs_1n_closures_onto_few_pages() {
        let (mut store, db, oids, path) = loaded("cluster", &GenConfig::level(4));
        store.commit().unwrap();
        // Measure pages touched by a cold 1-N closure vs a cold M-N closure
        // from the same start node.
        let start = oids[db.level_indices(3).start as usize];
        store.cold_restart().unwrap();
        store.closure_1n(start).unwrap();
        let miss_1n = store.pool_stats().misses;
        store.cold_restart().unwrap();
        store.closure_mn(start).unwrap();
        let miss_mn = store.pool_stats().misses;
        assert!(
            miss_1n <= miss_mn,
            "clustered 1-N closure ({miss_1n} misses) must not out-fault the random M-N closure ({miss_mn})"
        );

        // The §5.2 clustering rule as an ablation: the same nodes and 1-N
        // hierarchy (all a 1-N closure reads) created through `create_node`
        // in shuffled order, so that neither placement nor oid order follows
        // the tree, fault strictly more pages on the same cold closure.
        let shuffled_path = dbpath("cluster-shuffled");
        let mut shuffled = DiskStore::create(&shuffled_path, 2048).unwrap();
        let mut order: Vec<usize> = (0..db.len()).collect();
        let mut rng = hypermodel::rng::Rng::new(0xDEAD);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range_usize(0, i));
        }
        let mut shuffled_oids = vec![Oid(0); db.len()];
        for i in order {
            shuffled_oids[i] = shuffled.create_node(&db.nodes[i].value).unwrap();
        }
        for (i, kids) in db.children.iter().enumerate() {
            for &k in kids {
                shuffled
                    .add_child(shuffled_oids[i], shuffled_oids[k as usize])
                    .unwrap();
            }
        }
        shuffled.commit().unwrap();
        shuffled.cold_restart().unwrap();
        shuffled
            .closure_1n(shuffled_oids[db.level_indices(3).start as usize])
            .unwrap();
        let miss_shuffled = shuffled.pool_stats().misses;
        assert!(
            miss_1n < miss_shuffled,
            "clustered load ({miss_1n} misses) must fault fewer pages than the shuffled one ({miss_shuffled})"
        );
        cleanup(&shuffled_path);
        cleanup(&path);
    }
}
