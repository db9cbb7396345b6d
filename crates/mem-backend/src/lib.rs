//! # `mem-backend` — the in-memory HyperModel object store
//!
//! The single-user, memory-image architecture of paper §3.2/R6: the
//! database lives "partly integrated into the same virtual memory space as
//! the application" (the Smalltalk-80 configuration of the original
//! study). Commit and cold-restart are (almost) free; there is no cold/warm
//! distinction — *that asymmetry with the disk backends is a benchmark
//! result, not an accident*.
//!
//! Besides being a measurement subject, [`MemStore`] doubles as the
//! semantic baseline: it implements every operation with plain Rust
//! collections, so the oracle/cross-backend tests can pin the disk and
//! relational backends against it.
//!
//! All three §6.8 extension capabilities are implemented: dynamic schema
//! (R4), linear version chains (R5) and structure-level access control
//! (R11).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::collections::BTreeMap;

use hypermodel::codec::{Reader, Wire, Writer};
use hypermodel::error::{HmError, Result};
use hypermodel::ext::{
    AccessControlledStore, AccessMode, DynamicSchemaStore, VersionNo, VersionedStore,
};
use hypermodel::migrate::{self, NodeExport};
use hypermodel::model::{Content, NodeAttrs, NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::schema::{AttrId, Schema};
use hypermodel::store::HyperStore;
use hypermodel::Bitmap;

/// One in-memory node with its relationship state.
#[derive(Debug, Clone)]
struct NodeRecord {
    value: NodeValue,
    children: Vec<Oid>,
    parent: Option<Oid>,
    parts: Vec<Oid>,
    part_of: Vec<Oid>,
    refs_to: Vec<RefEdge>,
    refs_from: Vec<RefEdge>,
    access: AccessMode,
    /// True if the node belongs to the test structure (seq-scan extent).
    in_structure: bool,
    /// True if the node's attributes are in the uid/hundred/million
    /// indexes. False for migration records between install and
    /// activation, and for records retired by a migration away.
    indexed: bool,
}

/// The in-memory HyperModel store.
#[derive(Debug, Default)]
pub struct MemStore {
    /// `nodes[oid - 1]`; tombstones are not needed (the benchmark never
    /// deletes nodes).
    nodes: Vec<NodeRecord>,
    uid_index: BTreeMap<u64, Oid>,
    hundred_index: BTreeMap<(u32, u64), ()>,
    million_index: BTreeMap<(u32, u64), ()>,
    /// Structure membership in creation order, drives the sequential scan.
    structure: Vec<Oid>,
    schema: Schema,
    versions: Vec<Vec<NodeValue>>,
    dyn_attrs: BTreeMap<(u64, u32), i64>,
    commits: u64,
}

impl MemStore {
    /// An empty store with the built-in schema.
    pub fn new() -> MemStore {
        MemStore {
            schema: Schema::builtin(),
            ..MemStore::default()
        }
    }

    /// Number of commits performed (commit is a no-op but counted, so the
    /// harness can report it).
    pub fn commit_count(&self) -> u64 {
        self.commits
    }

    /// Total number of node objects (structure + extras).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn record(&self, oid: Oid) -> Result<&NodeRecord> {
        self.nodes
            .get((oid.0 as usize).wrapping_sub(1))
            .ok_or(HmError::NodeNotFound(oid))
    }

    fn record_mut(&mut self, oid: Oid) -> Result<&mut NodeRecord> {
        self.nodes
            .get_mut((oid.0 as usize).wrapping_sub(1))
            .ok_or(HmError::NodeNotFound(oid))
    }

    fn versions_of(&mut self, oid: Oid) -> Result<&mut Vec<NodeValue>> {
        self.versions
            .get_mut((oid.0 as usize).wrapping_sub(1))
            .ok_or(HmError::NodeNotFound(oid))
    }

    fn snap_err(what: &str) -> HmError {
        HmError::Backend(format!("mem snapshot: {what}"))
    }

    /// Append a record with no relationships and an empty version chain.
    fn push_record(&mut self, value: NodeValue, in_structure: bool, indexed: bool) -> Oid {
        self.nodes.push(NodeRecord {
            value,
            children: Vec::new(),
            parent: None,
            parts: Vec::new(),
            part_of: Vec::new(),
            refs_to: Vec::new(),
            refs_from: Vec::new(),
            access: AccessMode::default(),
            in_structure,
            indexed,
        });
        self.versions.push(Vec::new());
        Oid(self.nodes.len() as u64)
    }

    /// Enter `oid` in the uid/hundred/million indexes.
    fn index(&mut self, oid: Oid, a: NodeAttrs) {
        self.uid_index.insert(a.unique_id, oid);
        self.hundred_index.insert((a.hundred, oid.0), ());
        self.million_index.insert((a.million, oid.0), ());
    }

    /// Take `oid` out of the attribute indexes (its uid entry only if the
    /// uid still names it).
    fn deindex(&mut self, oid: Oid) -> Result<()> {
        let a = self.record(oid)?.value.attrs;
        if self.uid_index.get(&a.unique_id) == Some(&oid) {
            self.uid_index.remove(&a.unique_id);
        }
        self.hundred_index.remove(&(a.hundred, oid.0));
        self.million_index.remove(&(a.million, oid.0));
        Ok(())
    }

    fn create(&mut self, value: &NodeValue, in_structure: bool) -> Result<Oid> {
        if self.uid_index.contains_key(&value.attrs.unique_id) {
            return Err(HmError::InvalidArgument(format!(
                "uniqueId {} already exists",
                value.attrs.unique_id
            )));
        }
        let oid = self.push_record(value.clone(), in_structure, true);
        self.index(oid, value.attrs);
        if in_structure {
            self.structure.push(oid);
        }
        Ok(oid)
    }
}

impl HyperStore for MemStore {
    fn lookup_unique(&mut self, unique_id: u64) -> Result<Oid> {
        self.uid_index
            .get(&unique_id)
            .copied()
            .ok_or(HmError::UniqueIdNotFound(unique_id))
    }

    fn unique_id_of(&mut self, oid: Oid) -> Result<u64> {
        Ok(self.record(oid)?.value.attrs.unique_id)
    }

    fn kind_of(&mut self, oid: Oid) -> Result<NodeKind> {
        Ok(self.record(oid)?.value.kind)
    }

    fn ten_of(&mut self, oid: Oid) -> Result<u32> {
        Ok(self.record(oid)?.value.attrs.ten)
    }

    fn hundred_of(&mut self, oid: Oid) -> Result<u32> {
        Ok(self.record(oid)?.value.attrs.hundred)
    }

    fn million_of(&mut self, oid: Oid) -> Result<u32> {
        Ok(self.record(oid)?.value.attrs.million)
    }

    fn set_hundred(&mut self, oid: Oid, value: u32) -> Result<()> {
        let old = {
            let rec = self.record_mut(oid)?;
            let old = rec.value.attrs.hundred;
            rec.value.attrs.hundred = value;
            old
        };
        self.hundred_index.remove(&(old, oid.0));
        self.hundred_index.insert((value, oid.0), ());
        Ok(())
    }

    fn range_hundred(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>> {
        Ok(self
            .hundred_index
            .range((lo, 0)..=(hi, u64::MAX))
            .map(|(&(_, oid), _)| Oid(oid))
            .collect())
    }

    fn range_million(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>> {
        Ok(self
            .million_index
            .range((lo, 0)..=(hi, u64::MAX))
            .map(|(&(_, oid), _)| Oid(oid))
            .collect())
    }

    fn children(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        Ok(self.record(oid)?.children.clone())
    }

    fn parent(&mut self, oid: Oid) -> Result<Option<Oid>> {
        Ok(self.record(oid)?.parent)
    }

    fn parts(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        Ok(self.record(oid)?.parts.clone())
    }

    fn part_of(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        Ok(self.record(oid)?.part_of.clone())
    }

    fn refs_to(&mut self, oid: Oid) -> Result<Vec<RefEdge>> {
        Ok(self.record(oid)?.refs_to.clone())
    }

    fn refs_from(&mut self, oid: Oid) -> Result<Vec<RefEdge>> {
        Ok(self.record(oid)?.refs_from.clone())
    }

    fn seq_scan_ten(&mut self) -> Result<u64> {
        let mut visited = 0u64;
        // Access the `ten` attribute of each structure member without
        // returning it (§6.4.1). `std::hint::black_box` keeps the access
        // from being optimized away.
        for &oid in &self.structure {
            let rec = self.record(oid)?;
            debug_assert!(rec.in_structure, "structure list must only hold members");
            std::hint::black_box(rec.value.attrs.ten);
            visited += 1;
        }
        Ok(visited)
    }

    fn text_of(&mut self, oid: Oid) -> Result<String> {
        match &self.record(oid)?.value.content {
            Content::Text(s) => Ok(s.clone()),
            _ => Err(HmError::WrongKind {
                oid,
                expected: "TextNode",
            }),
        }
    }

    fn set_text(&mut self, oid: Oid, text: &str) -> Result<()> {
        let rec = self.record_mut(oid)?;
        match &mut rec.value.content {
            Content::Text(s) => {
                *s = text.to_string();
                Ok(())
            }
            _ => Err(HmError::WrongKind {
                oid,
                expected: "TextNode",
            }),
        }
    }

    fn form_of(&mut self, oid: Oid) -> Result<Bitmap> {
        match &self.record(oid)?.value.content {
            Content::Form(bm) => Ok(bm.clone()),
            _ => Err(HmError::WrongKind {
                oid,
                expected: "FormNode",
            }),
        }
    }

    fn set_form(&mut self, oid: Oid, bitmap: &Bitmap) -> Result<()> {
        let rec = self.record_mut(oid)?;
        match &mut rec.value.content {
            Content::Form(bm) => {
                *bm = bitmap.clone();
                Ok(())
            }
            _ => Err(HmError::WrongKind {
                oid,
                expected: "FormNode",
            }),
        }
    }

    fn create_node(&mut self, value: &NodeValue) -> Result<Oid> {
        self.create(value, true)
    }

    fn add_child(&mut self, parent: Oid, child: Oid) -> Result<()> {
        self.record(child)?; // existence check before mutating the parent
        self.record_mut(parent)?.children.push(child);
        self.record_mut(child)?.parent = Some(parent);
        Ok(())
    }

    fn add_part(&mut self, owner: Oid, part: Oid) -> Result<()> {
        self.record(part)?;
        self.record_mut(owner)?.parts.push(part);
        self.record_mut(part)?.part_of.push(owner);
        Ok(())
    }

    fn add_ref(&mut self, from: Oid, to: Oid, offset_from: u8, offset_to: u8) -> Result<()> {
        self.record(to)?;
        self.record_mut(from)?.refs_to.push(RefEdge {
            target: to,
            offset_from,
            offset_to,
        });
        self.record_mut(to)?.refs_from.push(RefEdge {
            target: from,
            offset_from,
            offset_to,
        });
        Ok(())
    }

    fn insert_extra_node(&mut self, value: &NodeValue) -> Result<Oid> {
        self.create(value, false)
    }

    fn commit(&mut self) -> Result<()> {
        // The memory image has no durability boundary; commit is a counted
        // no-op, mirroring a Smalltalk image between snapshots.
        self.commits += 1;
        Ok(())
    }

    fn cold_restart(&mut self) -> Result<()> {
        // Nothing to invalidate: the "cache" *is* the database. The
        // benchmark reports cold == warm for this architecture.
        Ok(())
    }

    fn backend_name(&self) -> &'static str {
        "mem"
    }

    fn sync_export(&mut self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(64 * self.nodes.len() + 64);
        let w = &mut Writer::over(&mut out);
        w.u32(SNAPSHOT_VERSION);
        self.schema.put(w);
        w.u64(self.commits);
        self.nodes.put(w);
        self.versions.put(w);
        // Structure order is load order, not oid order — ship it explicitly.
        self.structure.put(w);
        self.dyn_attrs.put(w);
        Ok(out)
    }

    fn sync_import(&mut self, snapshot: &[u8]) -> Result<()> {
        let r = &mut Reader::new(snapshot);
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(Self::snap_err(&format!(
                "unsupported snapshot version {version}"
            )));
        }
        let schema = Schema::get(r)?;
        let commits = r.u64()?;
        let nodes = Vec::<NodeRecord>::get(r)?;
        let versions = Vec::<Vec<NodeValue>>::get(r)?;
        let structure = Vec::get(r)?;
        let dyn_attrs = Wire::get(r)?;
        if !r.is_exhausted() {
            return Err(Self::snap_err("trailing bytes after snapshot"));
        }
        if versions.len() != nodes.len() {
            return Err(Self::snap_err(
                "version chain count differs from node count",
            ));
        }

        // Only replace state once the whole snapshot decoded cleanly.
        // Inert and retired records (indexed = false) stay out of the
        // attribute indexes, matching the exporter's live state.
        let mut store = MemStore {
            structure,
            schema,
            versions,
            dyn_attrs,
            commits,
            ..MemStore::default()
        };
        for (oid, rec) in (1..).zip(&nodes).filter(|(_, rec)| rec.indexed) {
            store.index(Oid(oid), rec.value.attrs);
        }
        *self = MemStore { nodes, ..store };
        Ok(())
    }

    fn export_nodes(&mut self, oids: &[Oid]) -> Result<Vec<NodeExport>> {
        oids.iter()
            .map(|&o| {
                let rec = self.record(o)?;
                Ok(NodeExport {
                    value: rec.value.clone(),
                    in_structure: rec.in_structure,
                    parent: rec.parent,
                    children: rec.children.clone(),
                    parts: rec.parts.clone(),
                    part_of: rec.part_of.clone(),
                    refs_to: rec.refs_to.clone(),
                    refs_from: rec.refs_from.clone(),
                    reuse: None,
                })
            })
            .collect()
    }

    fn install_nodes(&mut self, batch: &[NodeExport]) -> Result<Vec<Oid>> {
        // Pass 1: assign a local to every batch slot — promote the ghost
        // stand-in where one exists (edges already pointing at it stay
        // valid), otherwise append a fresh record. Locals depend only on
        // the batch and prior store state, so replicated mirrors
        // installing the same batch assign identical ids.
        let mut locals = Vec::with_capacity(batch.len());
        for n in batch {
            let local = match n.reuse {
                Some(l) => {
                    // Deindex the ghost being promoted; the record is
                    // overwritten below and reindexed at activation.
                    self.deindex(l)?;
                    l
                }
                None => self.push_record(n.value.clone(), n.in_structure, false),
            };
            locals.push(local);
        }
        // Pass 2: resolve intra-batch slot references now that every
        // slot has a local, then write each record's full state. The
        // records stay inert (indexed = false, absent from `structure`)
        // until `activate_nodes` commits the migration.
        let resolve = |o: Oid| -> Result<Oid> {
            if migrate::is_slot_ref(o) {
                let i = (o.0 - migrate::MIGRATE_SLOT_BASE) as usize;
                locals.get(i).copied().ok_or_else(|| {
                    HmError::InvalidArgument(format!("slot ref {i} out of batch range"))
                })
            } else {
                Ok(o)
            }
        };
        for (n, &l) in batch.iter().zip(&locals) {
            let parent = n.parent.map(resolve).transpose()?;
            let map_oids = |oids: &[Oid]| oids.iter().map(|&o| resolve(o)).collect::<Result<_>>();
            let children = map_oids(&n.children)?;
            let parts = map_oids(&n.parts)?;
            let part_of = map_oids(&n.part_of)?;
            let map_edges = |edges: &[RefEdge]| -> Result<Vec<RefEdge>> {
                edges
                    .iter()
                    .map(|e| {
                        Ok(RefEdge {
                            target: resolve(e.target)?,
                            offset_from: e.offset_from,
                            offset_to: e.offset_to,
                        })
                    })
                    .collect()
            };
            let refs_to = map_edges(&n.refs_to)?;
            let refs_from = map_edges(&n.refs_from)?;
            let rec = self.record_mut(l)?;
            rec.value = n.value.clone();
            rec.parent = parent;
            rec.children = children;
            rec.parts = parts;
            rec.part_of = part_of;
            rec.refs_to = refs_to;
            rec.refs_from = refs_from;
            rec.in_structure = n.in_structure;
            rec.indexed = false;
        }
        Ok(locals)
    }

    fn activate_nodes(&mut self, oids: &[Oid]) -> Result<()> {
        for &o in oids {
            let rec = self.record(o)?;
            let (attrs, in_structure) = (rec.value.attrs, rec.in_structure);
            if rec.indexed {
                continue; // idempotent re-activation
            }
            if let Some(&other) = self.uid_index.get(&attrs.unique_id) {
                if other != o {
                    return Err(HmError::InvalidArgument(format!(
                        "uniqueId {} already exists at {other}",
                        attrs.unique_id
                    )));
                }
            }
            self.index(o, attrs);
            self.record_mut(o)?.indexed = true;
            if in_structure {
                self.structure.push(o);
            }
        }
        Ok(())
    }

    fn retire_nodes(&mut self, oids: &[Oid]) -> Result<()> {
        // The scan extent loses exactly the nodes retired, also when one
        // fails midway.
        let mut gone = std::collections::BTreeSet::new();
        let retired = oids.iter().try_for_each(|&o| {
            self.deindex(o)?;
            let rec = self.record_mut(o)?;
            rec.in_structure = false;
            rec.indexed = false;
            gone.insert(o.0);
            Ok(())
        });
        self.structure.retain(|o| !gone.contains(&o.0));
        retired
    }
}

/// Snapshot format version for [`MemStore::sync_export`], which writes
/// every field in its [`Wire`] encoding. Version 3 moved the snapshot onto
/// the shared codec (counted lists throughout, no prefix on the schema);
/// version 4 dropped the trailing table of migration tombstones.
const SNAPSHOT_VERSION: u32 = 4;

/// The value, the parent (oid 0 for none), the four edge lists, then the
/// access mode and the two flags.
impl Wire for NodeRecord {
    fn put(&self, w: &mut Writer) {
        self.value.put(w);
        self.parent.map_or(0, |p| p.0).put(w);
        self.children.put(w);
        self.parts.put(w);
        self.part_of.put(w);
        self.refs_to.put(w);
        self.refs_from.put(w);
        self.access.put(w);
        self.in_structure.put(w);
        self.indexed.put(w);
    }
    fn get(r: &mut Reader) -> Result<Self> {
        // Fields in encoding order: a struct literal evaluates in the
        // order it is written.
        Ok(NodeRecord {
            value: NodeValue::get(r)?,
            parent: Some(Oid::get(r)?).filter(|p| p.0 != 0),
            children: Vec::get(r)?,
            parts: Vec::get(r)?,
            part_of: Vec::get(r)?,
            refs_to: Vec::get(r)?,
            refs_from: Vec::get(r)?,
            access: AccessMode::get(r)?,
            in_structure: bool::get(r)?,
            indexed: bool::get(r)?,
        })
    }
}

impl DynamicSchemaStore for MemStore {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn add_node_type(&mut self, name: &str, parent: &str) -> Result<NodeKind> {
        self.schema.add_type(name, parent)
    }

    fn add_type_attribute(&mut self, owner: &str, name: &str, default: i64) -> Result<AttrId> {
        self.schema.add_attribute(owner, name, default)
    }

    fn dyn_attr(&mut self, oid: Oid, attr: AttrId) -> Result<i64> {
        self.record(oid)?;
        if let Some(&v) = self.dyn_attrs.get(&(oid.0, attr.0)) {
            return Ok(v);
        }
        let def = self
            .schema
            .attrs()
            .iter()
            .find(|a| a.id == attr)
            .ok_or_else(|| HmError::Schema(format!("unknown attribute id {}", attr.0)))?;
        Ok(def.default)
    }

    fn set_dyn_attr(&mut self, oid: Oid, attr: AttrId, value: i64) -> Result<()> {
        self.record(oid)?;
        if !self.schema.attrs().iter().any(|a| a.id == attr) {
            return Err(HmError::Schema(format!("unknown attribute id {}", attr.0)));
        }
        self.dyn_attrs.insert((oid.0, attr.0), value);
        Ok(())
    }
}

impl VersionedStore for MemStore {
    fn create_version(&mut self, oid: Oid) -> Result<VersionNo> {
        let value = self.record(oid)?.value.clone();
        let chain = self.versions_of(oid)?;
        chain.push(value);
        Ok(VersionNo(chain.len() as u32 - 1))
    }

    fn version_count(&mut self, oid: Oid) -> Result<u32> {
        Ok(self.versions_of(oid)?.len() as u32)
    }

    fn version(&mut self, oid: Oid, version: VersionNo) -> Result<NodeValue> {
        self.versions_of(oid)?
            .get(version.0 as usize)
            .cloned()
            .ok_or_else(|| HmError::Version(format!("node {oid} has no version {}", version.0)))
    }
}

impl AccessControlledStore for MemStore {
    fn set_structure_access(&mut self, root: Oid, mode: AccessMode) -> Result<usize> {
        let closure = self.closure_1n(root)?;
        for &oid in &closure {
            self.record_mut(oid)?.access = mode;
        }
        Ok(closure.len())
    }

    fn access_of(&mut self, oid: Oid) -> Result<AccessMode> {
        Ok(self.record(oid)?.access)
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

    fn loaded(cfg: &GenConfig) -> (MemStore, TestDatabase, Vec<Oid>) {
        let db = TestDatabase::generate(cfg);
        let mut store = MemStore::new();
        let report = load_database(&mut store, &db).unwrap();
        (store, db, report.oids)
    }

    fn to_indices(store: &mut MemStore, oids: &[Oid]) -> Vec<u32> {
        oids.iter()
            .map(|&o| (store.unique_id_of(o).unwrap() - 1) as u32)
            .collect()
    }

    #[test]
    fn load_creates_all_nodes_and_relationships() {
        let (mut store, db, oids) = loaded(&GenConfig::tiny());
        assert_eq!(oids.len(), db.len());
        assert_eq!(store.seq_scan_ten().unwrap(), 31);
        assert!(store.commit_count() >= 5, "one commit per load phase");
    }

    #[test]
    fn name_lookup_matches_oracle() {
        let (mut store, db, _) = loaded(&GenConfig::tiny());
        let oracle = Oracle::new(&db);
        for uid in 1..=31u64 {
            let oid = store.lookup_unique(uid).unwrap();
            assert_eq!(
                store.hundred_of(oid).unwrap(),
                oracle.hundred(uid as u32 - 1)
            );
        }
        assert!(store.lookup_unique(999).is_err());
    }

    #[test]
    fn range_lookups_match_oracle() {
        let (mut store, db, _) = loaded(&GenConfig::level(3));
        let oracle = Oracle::new(&db);
        for (lo, hi) in [(1u32, 10), (45, 54), (91, 100)] {
            let got = store.range_hundred(lo, hi).unwrap();
            let mut got_idx = to_indices(&mut store, &got);
            got_idx.sort_unstable();
            assert_eq!(got_idx, oracle.range_hundred(lo, hi), "range {lo}..={hi}");
        }
        let got = store.range_million(1, 100_000).unwrap();
        let mut got_idx = to_indices(&mut store, &got);
        got_idx.sort_unstable();
        assert_eq!(got_idx, oracle.range_million(1, 100_000));
    }

    #[test]
    fn relationships_match_oracle() {
        let (mut store, db, oids) = loaded(&GenConfig::tiny());
        let oracle = Oracle::new(&db);
        for idx in 0..db.len() as u32 {
            let oid = oids[idx as usize];
            // Ordered children.
            let kids = store.children(oid).unwrap();
            assert_eq!(to_indices(&mut store, &kids), oracle.children(idx));
            // Parent.
            let parent = store.parent(oid).unwrap();
            assert_eq!(
                parent.map(|p| (store.unique_id_of(p).unwrap() - 1) as u32),
                oracle.parent(idx)
            );
            // Parts (order preserved by generation).
            let parts = store.parts(oid).unwrap();
            assert_eq!(to_indices(&mut store, &parts), oracle.parts(idx));
            // part_of as a set.
            let owners = store.part_of(oid).unwrap();
            let mut got = to_indices(&mut store, &owners);
            got.sort_unstable();
            assert_eq!(got, oracle.part_of(idx));
            // refs.
            let rt = store.refs_to(oid).unwrap();
            assert_eq!(rt.len(), 1);
            let (t, f, o) = oracle.ref_to(idx)[0];
            assert_eq!((store.unique_id_of(rt[0].target).unwrap() - 1) as u32, t);
            assert_eq!((rt[0].offset_from, rt[0].offset_to), (f, o));
        }
    }

    #[test]
    fn closure_1n_matches_oracle_preorder() {
        let (mut store, db, oids) = loaded(&GenConfig::level(4));
        let oracle = Oracle::new(&db);
        for idx in db.level_indices(3).take(10) {
            let got = store.closure_1n(oids[idx as usize]).unwrap();
            assert_eq!(to_indices(&mut store, &got), oracle.closure_1n(idx));
            assert_eq!(got.len() as u64, oracle.expected_closure_size());
        }
    }

    #[test]
    fn closure_mn_matches_oracle() {
        let (mut store, db, oids) = loaded(&GenConfig::level(4));
        let oracle = Oracle::new(&db);
        for idx in db.level_indices(3).take(10) {
            let got = store.closure_mn(oids[idx as usize]).unwrap();
            assert_eq!(to_indices(&mut store, &got), oracle.closure_mn(idx));
        }
    }

    #[test]
    fn closure_mnatt_and_linksum_match_oracle() {
        let (mut store, db, oids) = loaded(&GenConfig::level(4));
        let oracle = Oracle::new(&db);
        for idx in db.level_indices(3).take(5) {
            let got = store.closure_mnatt(oids[idx as usize], 25).unwrap();
            assert_eq!(to_indices(&mut store, &got), oracle.closure_mnatt(idx, 25));
            let got = store.closure_mnatt_linksum(oids[idx as usize], 25).unwrap();
            let got_pairs: Vec<(u32, u64)> = got
                .iter()
                .map(|&(o, d)| ((store.unique_id_of(o).unwrap() - 1) as u32, d))
                .collect();
            assert_eq!(got_pairs, oracle.closure_mnatt_linksum(idx, 25));
        }
    }

    #[test]
    fn closure_att_set_twice_restores_and_sum_matches() {
        let (mut store, db, oids) = loaded(&GenConfig::tiny());
        let oracle = Oracle::new(&db);
        let root = oids[0];
        let (sum_before, count) = store.closure_1n_att_sum(root).unwrap();
        assert_eq!(count, 31);
        assert_eq!(sum_before, oracle.closure_1n_att_sum(0).0);
        store.closure_1n_att_set(root).unwrap();
        let (sum_mid, _) = store.closure_1n_att_sum(root).unwrap();
        assert_ne!(sum_mid, sum_before);
        store.closure_1n_att_set(root).unwrap();
        let (sum_after, _) = store.closure_1n_att_sum(root).unwrap();
        assert_eq!(sum_after, sum_before, "double application restores");
        // Index stayed consistent through the updates.
        let all = store.range_hundred(0, u32::MAX).unwrap();
        assert_eq!(all.len(), 31);
        let _ = db;
    }

    #[test]
    fn closure_pred_matches_oracle() {
        let (mut store, db, oids) = loaded(&GenConfig::level(4));
        let oracle = Oracle::new(&db);
        for idx in db.level_indices(3).take(5) {
            let got = store
                .closure_1n_pred(oids[idx as usize], 1, 500_000)
                .unwrap();
            assert_eq!(
                to_indices(&mut store, &got),
                oracle.closure_1n_pred(idx, 1, 500_000)
            );
        }
    }

    #[test]
    fn text_edit_round_trip() {
        let (mut store, db, oids) = loaded(&GenConfig::tiny());
        let text_idx = db.text_indices()[0];
        let oid = oids[text_idx as usize];
        let before = store.text_of(oid).unwrap();
        let n = store.text_node_edit(oid, VERSION_1, VERSION_2).unwrap();
        assert_eq!(n, 3);
        assert!(store.text_of(oid).unwrap().contains(VERSION_2));
        store.text_node_edit(oid, VERSION_2, VERSION_1).unwrap();
        assert_eq!(store.text_of(oid).unwrap(), before);
        // Editing a form node as text fails cleanly.
        let form_oid = oids[db.form_indices()[0] as usize];
        assert!(matches!(
            store.text_node_edit(form_oid, VERSION_1, VERSION_2),
            Err(HmError::WrongKind { .. })
        ));
    }

    #[test]
    fn form_edit_round_trip() {
        let (mut store, db, oids) = loaded(&GenConfig::tiny());
        let oid = oids[db.form_indices()[0] as usize];
        assert!(store.form_of(oid).unwrap().is_all_white());
        store.form_node_edit(oid, 25, 25, 50, 50).unwrap();
        assert!(!store.form_of(oid).unwrap().is_all_white());
        store.form_node_edit(oid, 25, 25, 50, 50).unwrap();
        assert!(store.form_of(oid).unwrap().is_all_white());
    }

    #[test]
    fn extra_nodes_do_not_affect_seq_scan() {
        let (mut store, db, _) = loaded(&GenConfig::tiny());
        let before = store.seq_scan_ten().unwrap();
        let extra = NodeValue {
            kind: NodeKind::INTERNAL,
            attrs: hypermodel::model::NodeAttrs {
                unique_id: 100_000,
                ten: 1,
                hundred: 1,
                thousand: 1,
                million: 1,
            },
            content: Content::None,
        };
        store.insert_extra_node(&extra).unwrap();
        assert_eq!(store.seq_scan_ten().unwrap(), before);
        assert_eq!(store.node_count(), db.len() + 1);
        // But the extra node is findable by key.
        assert!(store.lookup_unique(100_000).is_ok());
    }

    #[test]
    fn dynamic_schema_r4() {
        let (mut store, _, oids) = loaded(&GenConfig::tiny());
        let draw = store.add_node_type("DrawNode", "Node").unwrap();
        let circles = store.add_type_attribute("DrawNode", "circles", 0).unwrap();
        // Existing nodes read the default for inherited attrs on Node.
        let weight = store.add_type_attribute("Node", "weight", 7).unwrap();
        assert_eq!(store.dyn_attr(oids[0], weight).unwrap(), 7);
        store.set_dyn_attr(oids[0], weight, 99).unwrap();
        assert_eq!(store.dyn_attr(oids[0], weight).unwrap(), 99);
        // A new DrawNode instance.
        let dn = store
            .create_node(&NodeValue {
                kind: draw,
                attrs: hypermodel::model::NodeAttrs {
                    unique_id: 50_000,
                    ten: 1,
                    hundred: 1,
                    thousand: 1,
                    million: 1,
                },
                content: Content::Dynamic(vec![1, 2, 3]),
            })
            .unwrap();
        store.set_dyn_attr(dn, circles, 3).unwrap();
        assert_eq!(store.dyn_attr(dn, circles).unwrap(), 3);
        assert_eq!(store.kind_of(dn).unwrap(), draw);
    }

    #[test]
    fn versions_r5() {
        let (mut store, db, oids) = loaded(&GenConfig::tiny());
        let oid = oids[db.text_indices()[0] as usize];
        assert_eq!(store.previous_version(oid).unwrap(), None);
        let v0 = store.create_version(oid).unwrap();
        assert_eq!(v0, VersionNo(0));
        let original = store.text_of(oid).unwrap();
        store.text_node_edit(oid, VERSION_1, VERSION_2).unwrap();
        let v1 = store.create_version(oid).unwrap();
        assert_eq!(v1, VersionNo(1));
        assert_eq!(store.version_count(oid).unwrap(), 2);
        // Version 0 is the original; the previous (latest) is the edit.
        match store.version(oid, v0).unwrap().content {
            Content::Text(s) => assert_eq!(s, original),
            other => panic!("{other:?}"),
        }
        match store.previous_version(oid).unwrap().unwrap().content {
            Content::Text(s) => assert!(s.contains(VERSION_2)),
            other => panic!("{other:?}"),
        }
        assert!(store.version(oid, VersionNo(9)).is_err());
    }

    #[test]
    fn access_control_r11() {
        let (mut store, db, oids) = loaded(&GenConfig::tiny());
        // Two sibling structures under the root: children[0] and [1].
        let doc_a = oids[db.children[0][0] as usize];
        let doc_b = oids[db.children[0][1] as usize];
        let n = store
            .set_structure_access(doc_a, AccessMode::PublicRead)
            .unwrap();
        assert_eq!(n, 6, "doc structure = node + 5 leaves");
        store
            .set_structure_access(doc_b, AccessMode::PublicWrite)
            .unwrap();
        // Reads allowed on A, writes denied.
        assert!(store.hundred_checked(doc_a).is_ok());
        assert!(matches!(
            store.set_hundred_checked(doc_a, 5),
            Err(HmError::AccessDenied(_))
        ));
        // B is writable.
        store.set_hundred_checked(doc_b, 5).unwrap();
        // Links across structures stay intact: A's nodes keep refs.
        assert_eq!(store.refs_to(doc_a).unwrap().len(), 1);
        // NoAccess denies reads too.
        store
            .set_structure_access(doc_a, AccessMode::NoAccess)
            .unwrap();
        assert!(matches!(
            store.hundred_checked(doc_a),
            Err(HmError::AccessDenied(_))
        ));
    }

    #[test]
    fn cold_restart_is_noop_for_memory_image() {
        let (mut store, _, oids) = loaded(&GenConfig::tiny());
        let before = store.hundred_of(oids[3]).unwrap();
        store.cold_restart().unwrap();
        assert_eq!(store.hundred_of(oids[3]).unwrap(), before);
    }

    #[test]
    fn sync_snapshot_round_trips_full_state() {
        let (mut store, db, oids) = loaded(&GenConfig::tiny());
        // Dirty every state dimension before exporting.
        let text_oid = oids[db.text_indices()[0] as usize];
        store.create_version(text_oid).unwrap();
        store
            .text_node_edit(text_oid, VERSION_1, VERSION_2)
            .unwrap();
        let weight = store.add_type_attribute("Node", "weight", 7).unwrap();
        store.set_dyn_attr(oids[0], weight, 99).unwrap();
        let doc_a = oids[db.children[0][0] as usize];
        store
            .set_structure_access(doc_a, AccessMode::PublicRead)
            .unwrap();

        let snap = store.sync_export().unwrap();
        let mut copy = MemStore::new();
        // Pre-pollute the copy to prove import replaces, not merges.
        copy.create_node(&NodeValue {
            kind: NodeKind::INTERNAL,
            attrs: hypermodel::model::NodeAttrs {
                unique_id: 424242,
                ten: 1,
                hundred: 1,
                thousand: 1,
                million: 1,
            },
            content: Content::None,
        })
        .unwrap();
        copy.sync_import(&snap).unwrap();

        assert_eq!(copy.node_count(), store.node_count());
        assert_eq!(copy.commit_count(), store.commit_count());
        assert_eq!(copy.seq_scan_ten().unwrap(), store.seq_scan_ten().unwrap());
        assert!(copy.lookup_unique(424242).is_err());
        assert_eq!(
            copy.text_of(text_oid).unwrap(),
            store.text_of(text_oid).unwrap()
        );
        assert_eq!(copy.version_count(text_oid).unwrap(), 1);
        assert_eq!(copy.dyn_attr(oids[0], weight).unwrap(), 99);
        assert_eq!(copy.access_of(doc_a).unwrap(), AccessMode::PublicRead);
        for &oid in oids.iter().take(8) {
            assert_eq!(copy.children(oid).unwrap(), store.children(oid).unwrap());
            assert_eq!(copy.refs_to(oid).unwrap(), store.refs_to(oid).unwrap());
        }
        assert_eq!(
            copy.range_hundred(0, u32::MAX).unwrap(),
            store.range_hundred(0, u32::MAX).unwrap()
        );
        // A second export of the copy is byte-identical — anti-entropy
        // convergence in one round.
        assert_eq!(copy.sync_export().unwrap(), snap);

        // Corrupt snapshots are rejected without replacing state.
        let before = copy.node_count();
        assert!(copy.sync_import(&snap[..snap.len() - 1]).is_err());
        assert!(copy.sync_import(&[]).is_err());
        assert_eq!(copy.node_count(), before);
    }

    #[test]
    fn hostile_snapshots_are_refused_without_reserving_their_counts() {
        let (mut store, ..) = loaded(&GenConfig::tiny());
        let before = store.node_count();
        // Four billion schema types (in the version-2 layout, which once
        // aborted the process, and in today's), then four billion records
        // behind a valid schema: each is refused on the missing bytes.
        let mut lying_records = SNAPSHOT_VERSION.to_le_bytes().to_vec();
        lying_records.extend(Schema::builtin().encode());
        lying_records.extend(0u64.to_le_bytes());
        lying_records.extend(u32::MAX.to_le_bytes());
        for snapshot in [
            &[2, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff][..],
            &[4, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff][..],
            &lying_records[..],
        ] {
            assert!(store.sync_import(snapshot).is_err(), "{snapshot:?}");
        }
        assert_eq!(store.node_count(), before);
    }

    #[test]
    fn duplicate_unique_id_rejected() {
        let mut store = MemStore::new();
        let v = NodeValue {
            kind: NodeKind::INTERNAL,
            attrs: hypermodel::model::NodeAttrs {
                unique_id: 1,
                ten: 1,
                hundred: 1,
                thousand: 1,
                million: 1,
            },
            content: Content::None,
        };
        store.create_node(&v).unwrap();
        assert!(store.create_node(&v).is_err());
    }

    #[test]
    fn migration_install_activate_retire_lifecycle() {
        let (mut store, _, oids) = loaded(&GenConfig::tiny());
        let (a, b) = (oids[5], oids[6]);
        let uid_a = store.unique_id_of(a).unwrap();
        let uid_b = store.unique_id_of(b).unwrap();

        // The destination holds a ghost stand-in for node `a`.
        let mut dst = MemStore::new();
        let ghost_uid = (1u64 << 48) + 123;
        let ghost = dst
            .insert_extra_node(&NodeValue {
                kind: NodeKind::INTERNAL,
                attrs: hypermodel::model::NodeAttrs {
                    unique_id: ghost_uid,
                    ten: 1,
                    hundred: 1,
                    thousand: 1,
                    million: 1,
                },
                content: Content::None,
            })
            .unwrap();

        // Export, then rewrite edges to intra-batch slot refs (the
        // migration driver's job): a is b's parent, nothing else.
        let mut batch = store.export_nodes(&[a, b]).unwrap();
        for n in batch.iter_mut() {
            n.parent = None;
            n.children.clear();
            n.parts.clear();
            n.part_of.clear();
            n.refs_to.clear();
            n.refs_from.clear();
        }
        batch[0].children = vec![Oid(migrate::MIGRATE_SLOT_BASE + 1)];
        batch[0].reuse = Some(ghost);
        batch[1].parent = Some(Oid(migrate::MIGRATE_SLOT_BASE));

        let locals = dst.install_nodes(&batch).unwrap();
        assert_eq!(locals[0], ghost, "ghost stand-in is promoted in place");
        // Inert: no index entry, no scan visibility, ghost uid gone.
        assert!(dst.lookup_unique(uid_a).is_err());
        assert!(dst.lookup_unique(ghost_uid).is_err());
        assert_eq!(dst.seq_scan_ten().unwrap(), 0);
        assert!(dst.range_hundred(0, u32::MAX).unwrap().is_empty());
        // But slot refs already resolve to assigned locals.
        assert_eq!(dst.children(locals[0]).unwrap(), vec![locals[1]]);

        dst.activate_nodes(&locals).unwrap();
        assert_eq!(dst.lookup_unique(uid_a).unwrap(), locals[0]);
        assert_eq!(dst.lookup_unique(uid_b).unwrap(), locals[1]);
        assert_eq!(dst.parent(locals[1]).unwrap(), Some(locals[0]));
        assert_eq!(dst.seq_scan_ten().unwrap(), 2);
        assert_eq!(dst.range_hundred(0, u32::MAX).unwrap().len(), 2);
        // Re-activation is idempotent.
        dst.activate_nodes(&locals).unwrap();
        assert_eq!(dst.seq_scan_ten().unwrap(), 2);

        // Retire the source copies: demoted to stand-ins.
        store.retire_nodes(&[a, b]).unwrap();
        assert!(store.lookup_unique(uid_a).is_err());
        assert_eq!(store.seq_scan_ten().unwrap(), 29);
        // The record survives as a stand-in: edges through it resolve.
        assert!(store.children(a).is_ok());

        // Retired/index state round-trips through the repair snapshot.
        let snap = store.sync_export().unwrap();
        let mut copy = MemStore::new();
        copy.sync_import(&snap).unwrap();
        assert!(copy.lookup_unique(uid_a).is_err());
        assert_eq!(copy.seq_scan_ten().unwrap(), 29);
        assert_eq!(
            copy.range_hundred(0, u32::MAX).unwrap().len(),
            store.range_hundred(0, u32::MAX).unwrap().len()
        );
    }
}
