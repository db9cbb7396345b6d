//! # `paged-store` — one paged HyperModel store, the node mapping as a parameter
//!
//! The paper's central comparison is a clustered object store against the
//! /BLAH88/ relational mapping. Both sit on the same `storage` engine, and
//! everything that is *not* the question "how is a node laid out in heaps
//! and key indexes" is the same in both. [`PagedStore`] is that common
//! part, written once; a [`NodeLayout`] answers the one question, so that a
//! difference between `disk` and `rel` in the results comes from the
//! mapping and from nothing else.
//!
//! What [`PagedStore`] owns:
//!
//! * the [`Engine`] (buffer pool, redo log, catalog);
//! * **relationships** — six B+Trees keyed `(node, edge#)`, two per
//!   relationship (children/parent, parts/partOf, refTo/refFrom). Edge
//!   numbers come from one monotonic counter, so a range scan returns
//!   children in insertion order (the paper's ordered 1-N requirement);
//! * **attribute indexes** on `hundred` and `million`, keyed
//!   `(value, oid)`, and both range scans;
//! * the §6.8 extension tables — dynamic attributes (R4), version chain
//!   heap + index (R5), access modes (R11) — and the schema record;
//! * the catalog of roots: one name list ([`NodeLayout::ROOTS`] for the
//!   layout, one for the shared part), written at every commit and read by
//!   one routine at `create`, `open` and after an aborted prepare;
//! * the transaction boundary: `commit`, the two-phase
//!   `prepare_commit` / `commit_prepared` / `abort_prepared`, the refusal
//!   to open a database whose log holds an undecided prepare
//!   ([`in_doubt_txn`], [`resolve_in_doubt`]), and `cold_restart`.
//!
//! It is also the only `impl` of [`HyperStore`] and of the three extension
//! traits for paged stores.
//!
//! # Edge values
//!
//! A `refTo`/`refFrom` tree value packs `target << 16 | offsetFrom << 8 |
//! offsetTo`: both offsets are full bytes, and a target of 2^48 or more is
//! refused before either tree is written.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::Path;

use hypermodel::error::{HmError, Result};
use hypermodel::ext::{
    AccessControlledStore, AccessMode, DynamicSchemaStore, VersionNo, VersionedStore,
};
use hypermodel::model::{NodeAttrs, NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::schema::{AttrId, Schema};
use hypermodel::store::HyperStore;
use hypermodel::Bitmap;
use storage::btree::{BTree, Key};
use storage::engine::{wal_path_for, Engine};
use storage::heap::{HeapFile, RecordId};
use storage::vfs::{OsFs, Vfs};
use storage::{BufferPool, PageId, StorageError};

/// A storage failure as the benchmark's error type.
pub fn se(e: StorageError) -> HmError {
    HmError::Backend(e.to_string())
}

/// Scan the write-ahead log of the (closed) database at `path` for a
/// prepared-but-undecided two-phase-commit transaction. Returns its id,
/// or `None` when the database is clean.
pub fn in_doubt_txn(path: &Path) -> Result<Option<u64>> {
    in_doubt_txn_in(&OsFs, path)
}

/// [`in_doubt_txn`] for a database in `fs`.
pub fn in_doubt_txn_in(fs: &dyn Vfs, path: &Path) -> Result<Option<u64>> {
    storage::recovery::in_doubt_txn_in(fs, &wal_path_for(path)).map_err(se)
}

/// Decide the fate of an in-doubt transaction on the (closed) database at
/// `path` — `commit` true applies its staged pages, false discards them —
/// and finish recovery. Idempotent. After this, [`PagedStore::open`]
/// succeeds.
pub fn resolve_in_doubt(path: &Path, txid: u64, commit: bool) -> Result<()> {
    resolve_in_doubt_in(&OsFs, path, txid, commit)
}

/// [`resolve_in_doubt`] for a database in `fs`.
pub fn resolve_in_doubt_in(fs: &dyn Vfs, path: &Path, txid: u64, commit: bool) -> Result<()> {
    storage::recovery::resolve_in_doubt_in(fs, path, &wal_path_for(path), txid, commit)
        .map_err(se)?;
    Ok(())
}

/// How a node is laid out in heaps and key indexes — the one decision a
/// paged backend makes. Everything else is [`PagedStore`].
///
/// A layout owns its heaps, trees and counters and reaches pages only
/// through the pool it is handed. Its roots live in the catalog under
/// [`NodeLayout::ROOTS`]; [`PagedStore`] does the reading and writing.
pub trait NodeLayout: Sized {
    /// The backend name reports show ("disk", "rel").
    const NAME: &'static str;

    /// Catalog names of this layout's roots and counters, in the order
    /// [`NodeLayout::roots`] returns and [`NodeLayout::from_roots`] takes
    /// their values.
    const ROOTS: &'static [&'static str];

    /// Allocate the layout's empty heaps and trees.
    fn create(pool: &mut BufferPool) -> Result<Self>;

    /// Rebuild the handles from catalog values.
    fn from_roots(roots: &[u64]) -> Self;

    /// Current root pages and counters.
    fn roots(&self) -> Vec<u64>;

    /// `Ok` when `oid` names a stored node, `NodeNotFound` otherwise.
    fn exists(&self, pool: &mut BufferPool, oid: Oid) -> Result<()>;

    /// The node whose `uniqueId` is `unique_id`, if there is one.
    fn lookup_unique(&self, pool: &mut BufferPool, unique_id: u64) -> Result<Option<Oid>>;

    /// The `uniqueId` of a node.
    fn unique_id_of(&self, pool: &mut BufferPool, oid: Oid) -> Result<u64>;

    /// Kind and fixed attributes of a node.
    fn attrs(&self, pool: &mut BufferPool, oid: Oid) -> Result<(NodeKind, NodeAttrs)>;

    /// Overwrite `hundred` in the node's record and return the old value.
    /// The index on `hundred` is the caller's.
    fn patch_hundred(&mut self, pool: &mut BufferPool, oid: Oid, value: u32) -> Result<u32>;

    /// Store a new node and return its id. `near` is a placement hint (the
    /// future 1-N parent); `extra` marks a node outside the test structure,
    /// which [`NodeLayout::scan_structure`] must not visit. The caller has
    /// checked that the `uniqueId` is free.
    fn insert(
        &mut self,
        pool: &mut BufferPool,
        value: &NodeValue,
        near: Option<Oid>,
        extra: bool,
    ) -> Result<Oid>;

    /// Text content of a text node.
    fn text(&self, pool: &mut BufferPool, oid: Oid) -> Result<String>;

    /// Replace the text content of a text node.
    fn set_text(&mut self, pool: &mut BufferPool, oid: Oid, text: &str) -> Result<()>;

    /// Bitmap content of a form node.
    fn form(&self, pool: &mut BufferPool, oid: Oid) -> Result<Bitmap>;

    /// Replace the bitmap content of a form node.
    fn set_form(&mut self, pool: &mut BufferPool, oid: Oid, bitmap: &Bitmap) -> Result<()>;

    /// The whole node: kind, attributes and content.
    fn materialize(&self, pool: &mut BufferPool, oid: Oid) -> Result<NodeValue>;

    /// Visit the attributes of every node of the test structure (§6.4.1:
    /// and of no other node).
    fn scan_structure(&self, pool: &mut BufferPool, visit: impl FnMut(&NodeAttrs)) -> Result<()>;
}

/// The shared B+Trees, by position in [`Shared::trees`] and in
/// [`SHARED_ROOTS`].
#[derive(Clone, Copy)]
enum Tree {
    Hundred,
    Million,
    Children,
    Parent,
    Parts,
    PartOf,
    RefTo,
    RefFrom,
    DynAttr,
    Version,
    Access,
}

const TREES: usize = Tree::Access as usize + 1;

/// Catalog names of the shared roots: the trees in [`Tree`] order, then
/// the two heaps, the edge counter and the schema record's id.
const SHARED_ROOTS: [&str; TREES + 4] = [
    "hundred",
    "million",
    "children",
    "parent",
    "parts",
    "partof",
    "refto",
    "reffrom",
    "dynattr",
    "version",
    "access",
    "meta_heap",
    "version_heap",
    "edge_counter",
    "schema_rid",
];

/// Every root and counter that is not the layout's.
struct Shared {
    trees: [BTree; TREES],
    meta_heap: HeapFile,
    version_heap: HeapFile,
    edge_counter: u64,
    schema_rid: RecordId,
}

impl Shared {
    fn from_roots(roots: &[u64]) -> Shared {
        Shared {
            trees: std::array::from_fn(|i| BTree::open(PageId(roots[i]))),
            meta_heap: HeapFile::open(PageId(roots[TREES])),
            version_heap: HeapFile::open(PageId(roots[TREES + 1])),
            edge_counter: roots[TREES + 2],
            schema_rid: RecordId::unpack(roots[TREES + 3]),
        }
    }

    fn roots(&self) -> Vec<u64> {
        let mut roots: Vec<u64> = self.trees.iter().map(|t| t.root().0).collect();
        roots.extend([
            self.meta_heap.first_page().0,
            self.version_heap.first_page().0,
            self.edge_counter,
            self.schema_rid.pack(),
        ]);
        roots
    }
}

/// Read the catalog entries `names`, in order.
fn read_roots(engine: &mut Engine, names: &[&str]) -> Result<Vec<u64>> {
    names
        .iter()
        .map(|name| engine.catalog_get(name).map_err(se))
        .collect()
}

/// Every root, counter and the schema, as the catalog holds them: what
/// `create` and `open` build a store from, and what an aborted prepare
/// falls back to.
fn load_roots<L: NodeLayout>(engine: &mut Engine) -> Result<(L, Shared, Schema)> {
    let layout = L::from_roots(&read_roots(engine, L::ROOTS)?);
    let shared = Shared::from_roots(&read_roots(engine, &SHARED_ROOTS)?);
    let schema_bytes = shared
        .meta_heap
        .get(engine.pool(), shared.schema_rid)
        .map_err(se)?;
    Ok((layout, shared, Schema::decode(&schema_bytes)?))
}

/// Put every root and counter into the catalog; durable at the next
/// engine commit or prepare.
fn write_roots<L: NodeLayout>(engine: &mut Engine, layout: &L, shared: &Shared) -> Result<()> {
    let layout_roots = L::ROOTS.iter().zip(layout.roots());
    let shared_roots = SHARED_ROOTS.iter().zip(shared.roots());
    for (name, value) in layout_roots.chain(shared_roots) {
        engine.catalog_set(name, value).map_err(se)?;
    }
    Ok(())
}

/// Pack `(target, offset_from, offset_to)` into a relationship-tree value.
fn pack_edge(target: Oid, offset_from: u8, offset_to: u8) -> Result<u64> {
    if target.0 >> 48 != 0 {
        return Err(HmError::InvalidArgument(format!(
            "node id {target} does not fit the 48 bits of an edge value"
        )));
    }
    Ok((target.0 << 16) | ((offset_from as u64) << 8) | offset_to as u64)
}

fn unpack_edge(v: u64) -> RefEdge {
    RefEdge {
        target: Oid(v >> 16),
        offset_from: (v >> 8) as u8,
        offset_to: v as u8,
    }
}

/// A HyperModel store on the paged `storage` engine, with the node
/// mapping `L`.
pub struct PagedStore<L: NodeLayout> {
    engine: Engine,
    layout: L,
    shared: Shared,
    schema: Schema,
    schema_dirty: bool,
}

impl<L: NodeLayout> PagedStore<L> {
    /// Create a new database file at `path` with a pool of `pool_frames`
    /// 8 KiB frames.
    pub fn create(path: &Path, pool_frames: usize) -> Result<Self> {
        Self::create_in(&OsFs, path, pool_frames)
    }

    /// [`PagedStore::create`] with the database and its log in `fs`.
    pub fn create_in(fs: &dyn Vfs, path: &Path, pool_frames: usize) -> Result<Self> {
        let mut engine = Engine::create_in(fs, path, pool_frames).map_err(se)?;
        let pool = engine.pool();
        let layout = L::create(pool)?;
        let mut meta_heap = HeapFile::create(pool).map_err(se)?;
        let version_heap = HeapFile::create(pool).map_err(se)?;
        let mut trees = [BTree::open(PageId(0)); TREES];
        for tree in &mut trees {
            *tree = BTree::create(pool).map_err(se)?;
        }
        let schema_rid = meta_heap
            .insert(pool, &Schema::builtin().encode())
            .map_err(se)?;
        let shared = Shared {
            trees,
            meta_heap,
            version_heap,
            edge_counter: 1,
            schema_rid,
        };
        write_roots(&mut engine, &layout, &shared)?;
        engine.commit().map_err(se)?;
        Self::load(engine)
    }

    /// Open an existing database (running crash recovery if needed).
    ///
    /// Refuses to open a database whose log holds a prepared-but-undecided
    /// two-phase-commit transaction: its fate belongs to the transaction
    /// coordinator. Call [`resolve_in_doubt`] with the coordinator's
    /// decision first (see [`in_doubt_txn`] to discover the id).
    pub fn open(path: &Path, pool_frames: usize) -> Result<Self> {
        Self::open_in(&OsFs, path, pool_frames)
    }

    /// [`PagedStore::open`] with the database and its log in `fs`.
    pub fn open_in(fs: &dyn Vfs, path: &Path, pool_frames: usize) -> Result<Self> {
        let (engine, report) = Engine::open_in(fs, path, pool_frames).map_err(se)?;
        if let Some(txid) = report.in_doubt {
            return Err(HmError::Conflict(format!(
                "database {} has in-doubt transaction {txid}; resolve it \
                 against the coordinator log before opening",
                path.display()
            )));
        }
        Self::load(engine)
    }

    fn load(mut engine: Engine) -> Result<Self> {
        let (layout, shared, schema) = load_roots(&mut engine)?;
        Ok(PagedStore {
            engine,
            layout,
            shared,
            schema,
            schema_dirty: false,
        })
    }

    /// Write the schema (if dirty) and every root and counter to the
    /// catalog so the next engine commit or prepare captures them.
    fn flush_metadata(&mut self) -> Result<()> {
        if self.schema_dirty {
            self.shared.schema_rid = self
                .shared
                .meta_heap
                .update(
                    self.engine.pool(),
                    self.shared.schema_rid,
                    &self.schema.encode(),
                )
                .map_err(se)?;
            self.schema_dirty = false;
        }
        write_roots(&mut self.engine, &self.layout, &self.shared)
    }

    /// After an abort has dropped every cached page, any root that moved
    /// during the aborted transaction is dangling: rebuild them from the
    /// last committed catalog.
    fn reload_roots(&mut self) -> Result<()> {
        (self.layout, self.shared, self.schema) = load_roots(&mut self.engine)?;
        self.schema_dirty = false;
        Ok(())
    }

    /// The storage engine (for size and I/O statistics).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Buffer pool statistics (hits/misses), exposed to the harness for
    /// cold/warm verification.
    pub fn pool_stats(&self) -> storage::PoolStats {
        self.engine.pool_ref().stats()
    }

    /// On-disk size of the database file in bytes.
    pub fn file_size(&self) -> u64 {
        self.engine.file_size()
    }

    /// Bytes stored for the database: its file plus its write-ahead log.
    pub fn stored_bytes(&self) -> u64 {
        self.engine.stored_bytes()
    }

    fn exists(&mut self, oid: Oid) -> Result<()> {
        self.layout.exists(self.engine.pool(), oid)
    }

    fn attrs(&mut self, oid: Oid) -> Result<(NodeKind, NodeAttrs)> {
        self.layout.attrs(self.engine.pool(), oid)
    }

    fn get(&mut self, tree: Tree, hi: u64, lo: u64) -> Result<Option<u64>> {
        self.shared.trees[tree as usize]
            .get(self.engine.pool(), Key::from_pair(hi, lo))
            .map_err(se)
    }

    fn put(&mut self, tree: Tree, hi: u64, lo: u64, value: u64) -> Result<()> {
        self.shared.trees[tree as usize]
            .insert(self.engine.pool(), Key::from_pair(hi, lo), value)
            .map_err(se)?;
        Ok(())
    }

    /// The values under every key from `(lo, 0)` to `(hi, u64::MAX)`.
    fn scan(&mut self, tree: Tree, lo: u64, hi: u64) -> Result<Vec<u64>> {
        let mut values = Vec::new();
        self.shared.trees[tree as usize]
            .range(
                self.engine.pool(),
                Key::from_pair(lo, 0),
                Key::from_pair(hi, u64::MAX),
                |_, value| {
                    values.push(value);
                    true
                },
            )
            .map_err(se)?;
        Ok(values)
    }

    /// The values `tree` holds for the (existing) node `oid`, by edge number.
    fn edges(&mut self, tree: Tree, oid: Oid) -> Result<Vec<u64>> {
        self.exists(oid)?;
        self.scan(tree, oid.0, oid.0)
    }

    /// The number of a new edge between two existing nodes.
    fn next_edge(&mut self, a: Oid, b: Oid) -> Result<u64> {
        self.exists(a)?;
        self.exists(b)?;
        let edge = self.shared.edge_counter;
        self.shared.edge_counter += 1;
        Ok(edge)
    }

    fn create_record(&mut self, value: &NodeValue, near: Option<Oid>, extra: bool) -> Result<Oid> {
        let NodeAttrs {
            unique_id,
            hundred,
            million,
            ..
        } = value.attrs;
        let pool = self.engine.pool();
        if self.layout.lookup_unique(pool, unique_id)?.is_some() {
            return Err(HmError::InvalidArgument(format!(
                "uniqueId {unique_id} already exists"
            )));
        }
        let oid = self.layout.insert(pool, value, near, extra)?;
        self.put(Tree::Hundred, hundred as u64, oid.0, oid.0)?;
        self.put(Tree::Million, million as u64, oid.0, oid.0)?;
        Ok(oid)
    }
}

impl<L: NodeLayout> HyperStore for PagedStore<L> {
    fn lookup_unique(&mut self, unique_id: u64) -> Result<Oid> {
        self.layout
            .lookup_unique(self.engine.pool(), unique_id)?
            .ok_or(HmError::UniqueIdNotFound(unique_id))
    }

    fn unique_id_of(&mut self, oid: Oid) -> Result<u64> {
        self.layout.unique_id_of(self.engine.pool(), oid)
    }

    fn kind_of(&mut self, oid: Oid) -> Result<NodeKind> {
        Ok(self.attrs(oid)?.0)
    }

    fn ten_of(&mut self, oid: Oid) -> Result<u32> {
        Ok(self.attrs(oid)?.1.ten)
    }

    fn hundred_of(&mut self, oid: Oid) -> Result<u32> {
        Ok(self.attrs(oid)?.1.hundred)
    }

    fn million_of(&mut self, oid: Oid) -> Result<u32> {
        Ok(self.attrs(oid)?.1.million)
    }

    fn set_hundred(&mut self, oid: Oid, value: u32) -> Result<()> {
        let old = self.layout.patch_hundred(self.engine.pool(), oid, value)?;
        if old != value {
            self.shared.trees[Tree::Hundred as usize]
                .delete(self.engine.pool(), Key::from_pair(old as u64, oid.0))
                .map_err(se)?;
            self.put(Tree::Hundred, value as u64, oid.0, oid.0)?;
        }
        Ok(())
    }

    fn range_hundred(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>> {
        let hits = self.scan(Tree::Hundred, lo as u64, hi as u64)?;
        Ok(hits.into_iter().map(Oid).collect())
    }

    fn range_million(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>> {
        let hits = self.scan(Tree::Million, lo as u64, hi as u64)?;
        Ok(hits.into_iter().map(Oid).collect())
    }

    fn children(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        Ok(self
            .edges(Tree::Children, oid)?
            .into_iter()
            .map(Oid)
            .collect())
    }

    fn parent(&mut self, oid: Oid) -> Result<Option<Oid>> {
        self.exists(oid)?;
        Ok(self.get(Tree::Parent, oid.0, 0)?.map(Oid))
    }

    fn parts(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        Ok(self.edges(Tree::Parts, oid)?.into_iter().map(Oid).collect())
    }

    fn part_of(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        Ok(self
            .edges(Tree::PartOf, oid)?
            .into_iter()
            .map(Oid)
            .collect())
    }

    fn refs_to(&mut self, oid: Oid) -> Result<Vec<RefEdge>> {
        let edges = self.edges(Tree::RefTo, oid)?;
        Ok(edges.into_iter().map(unpack_edge).collect())
    }

    fn refs_from(&mut self, oid: Oid) -> Result<Vec<RefEdge>> {
        let edges = self.edges(Tree::RefFrom, oid)?;
        Ok(edges.into_iter().map(unpack_edge).collect())
    }

    fn seq_scan_ten(&mut self) -> Result<u64> {
        let mut visited = 0u64;
        self.layout.scan_structure(self.engine.pool(), |attrs| {
            std::hint::black_box(attrs.ten);
            visited += 1;
        })?;
        Ok(visited)
    }

    fn text_of(&mut self, oid: Oid) -> Result<String> {
        self.layout.text(self.engine.pool(), oid)
    }

    fn set_text(&mut self, oid: Oid, text: &str) -> Result<()> {
        self.layout.set_text(self.engine.pool(), oid, text)
    }

    fn form_of(&mut self, oid: Oid) -> Result<Bitmap> {
        self.layout.form(self.engine.pool(), oid)
    }

    fn set_form(&mut self, oid: Oid, bitmap: &Bitmap) -> Result<()> {
        self.layout.set_form(self.engine.pool(), oid, bitmap)
    }

    fn create_node(&mut self, value: &NodeValue) -> Result<Oid> {
        self.create_record(value, None, false)
    }

    fn create_node_clustered(&mut self, value: &NodeValue, near: Option<Oid>) -> Result<Oid> {
        self.create_record(value, near, false)
    }

    fn add_child(&mut self, parent: Oid, child: Oid) -> Result<()> {
        let edge = self.next_edge(parent, child)?;
        self.put(Tree::Children, parent.0, edge, child.0)?;
        self.put(Tree::Parent, child.0, 0, parent.0)
    }

    fn add_part(&mut self, owner: Oid, part: Oid) -> Result<()> {
        let edge = self.next_edge(owner, part)?;
        self.put(Tree::Parts, owner.0, edge, part.0)?;
        self.put(Tree::PartOf, part.0, edge, owner.0)
    }

    fn add_ref(&mut self, from: Oid, to: Oid, offset_from: u8, offset_to: u8) -> Result<()> {
        let forward = pack_edge(to, offset_from, offset_to)?;
        let backward = pack_edge(from, offset_from, offset_to)?;
        let edge = self.next_edge(from, to)?;
        self.put(Tree::RefTo, from.0, edge, forward)?;
        self.put(Tree::RefFrom, to.0, edge, backward)
    }

    fn insert_extra_node(&mut self, value: &NodeValue) -> Result<Oid> {
        self.create_record(value, None, true)
    }

    fn commit(&mut self) -> Result<()> {
        self.flush_metadata()?;
        self.engine.commit().map_err(se)?;
        Ok(())
    }

    fn prepare_commit(&mut self, txid: u64) -> Result<()> {
        self.flush_metadata()?;
        if let Err(e) = self.engine.prepare(txid) {
            // A no vote: the engine rolled the transaction back (or, if
            // it failed before it could, kept it whole).
            self.reload_roots()?;
            return Err(se(e));
        }
        Ok(())
    }

    fn commit_prepared(&mut self, txid: u64) -> Result<()> {
        self.engine.commit_prepared(txid).map_err(se)
    }

    fn abort_prepared(&mut self, txid: u64) -> Result<()> {
        let was_prepared = self.engine.prepared_txid() == Some(txid);
        self.engine.abort_prepared(txid).map_err(se)?;
        if was_prepared {
            self.reload_roots()?;
        }
        Ok(())
    }

    fn cold_restart(&mut self) -> Result<()> {
        self.engine.close_for_cold_run().map_err(se)
    }

    fn backend_name(&self) -> &'static str {
        L::NAME
    }
}

impl<L: NodeLayout> DynamicSchemaStore for PagedStore<L> {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn add_node_type(&mut self, name: &str, parent: &str) -> Result<NodeKind> {
        let kind = self.schema.add_type(name, parent)?;
        self.schema_dirty = true;
        Ok(kind)
    }

    fn add_type_attribute(&mut self, owner: &str, name: &str, default: i64) -> Result<AttrId> {
        // Existing nodes read the default until written: the attribute
        // tree stores only overrides.
        let id = self.schema.add_attribute(owner, name, default)?;
        self.schema_dirty = true;
        Ok(id)
    }

    fn dyn_attr(&mut self, oid: Oid, attr: AttrId) -> Result<i64> {
        self.exists(oid)?;
        if let Some(v) = self.get(Tree::DynAttr, oid.0, attr.0 as u64)? {
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
        self.exists(oid)?;
        if !self.schema.attrs().iter().any(|a| a.id == attr) {
            return Err(HmError::Schema(format!("unknown attribute id {}", attr.0)));
        }
        self.put(Tree::DynAttr, oid.0, attr.0 as u64, value as u64)
    }
}

impl<L: NodeLayout> VersionedStore for PagedStore<L> {
    fn create_version(&mut self, oid: Oid) -> Result<VersionNo> {
        let value = self.layout.materialize(self.engine.pool(), oid)?;
        let n = self.version_count(oid)?;
        let rid = self
            .shared
            .version_heap
            .insert(self.engine.pool(), &value.encode())
            .map_err(se)?;
        self.put(Tree::Version, oid.0, n as u64, rid.pack())?;
        Ok(VersionNo(n))
    }

    fn version_count(&mut self, oid: Oid) -> Result<u32> {
        Ok(self.edges(Tree::Version, oid)?.len() as u32)
    }

    fn version(&mut self, oid: Oid, version: VersionNo) -> Result<NodeValue> {
        self.exists(oid)?;
        let packed = self
            .get(Tree::Version, oid.0, version.0 as u64)?
            .ok_or_else(|| HmError::Version(format!("node {oid} has no version {}", version.0)))?;
        let bytes = self
            .shared
            .version_heap
            .get(self.engine.pool(), RecordId::unpack(packed))
            .map_err(se)?;
        NodeValue::decode(&bytes)
    }
}

impl<L: NodeLayout> AccessControlledStore for PagedStore<L> {
    fn set_structure_access(&mut self, root: Oid, mode: AccessMode) -> Result<usize> {
        let closure = self.closure_1n(root)?;
        let encoded = match mode {
            AccessMode::PublicWrite => 0u64,
            AccessMode::PublicRead => 1,
            AccessMode::NoAccess => 2,
        };
        for &oid in &closure {
            self.put(Tree::Access, oid.0, 0, encoded)?;
        }
        Ok(closure.len())
    }

    fn access_of(&mut self, oid: Oid) -> Result<AccessMode> {
        self.exists(oid)?;
        Ok(match self.get(Tree::Access, oid.0, 0)? {
            None | Some(0) => AccessMode::PublicWrite,
            Some(1) => AccessMode::PublicRead,
            _ => AccessMode::NoAccess,
        })
    }
}

impl<L: NodeLayout> std::fmt::Debug for PagedStore<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedStore")
            .field("layout", &L::NAME)
            .field("file_size", &self.file_size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_values_hold_full_byte_offsets_and_refuse_wide_targets() {
        let edge = unpack_edge(pack_edge(Oid((1 << 48) - 1), 255, 16).unwrap());
        assert_eq!(edge.target, Oid((1 << 48) - 1));
        assert_eq!((edge.offset_from, edge.offset_to), (255, 16));
        assert!(matches!(
            pack_edge(Oid(1 << 48), 0, 0),
            Err(HmError::InvalidArgument(_))
        ));
    }
}
