//! The `HyperStore` trait: the porting interface of the benchmark.
//!
//! The paper describes the HyperModel "at a conceptual level, suitable for
//! transformation to different actual database management systems". This
//! trait is that transformation boundary: each backend (in-memory object
//! store, clustered disk object store, relational mapping) implements the
//! *primitive* accessors, and the closure/editing operations (§6.5–§6.7)
//! are provided as default methods in terms of those primitives.
//!
//! Backends may override the default closure implementations when their
//! architecture supports the conceptual operation natively — exactly the
//! effect the paper wants to surface: *"many database-system will be able
//! to support some higher level conceptual operations more efficiently
//! than others"* (§4).
//!
//! Beside the trait sits the operation catalogue, [`store_ops!`](crate::store_ops):
//! one row per operation, from which [`crate::protocol`] generates the
//! [`Request`] type and [`crate::service`] the dispatcher and the typed
//! facade. A layer that forwards every operation alike (the wire client,
//! a replica group, a sharded router, a fault injector) implements
//! [`Service`](crate::service::Service) and handles requests, not
//! methods.
//!
//! # Conventions
//!
//! * Node references are [`Oid`]s, never copies (paper §6 preamble).
//! * Ordered results (1-N children, pre-order closures) come back in
//!   order; set results come back in backend order and are compared
//!   order-insensitively by tests.
//! * Mutating operations do **not** commit; the caller (the harness run
//!   protocol) commits, because the paper measures commit time as part of
//!   the operation.

use std::collections::{BinaryHeap, HashSet};

use crate::bitmap::Bitmap;
use crate::error::{HmError, Result};
use crate::model::{NodeKind, NodeValue, Oid, RefEdge};
use crate::protocol::{Request, Response};
use crate::text;

/// The error a store answers for a catalogue operation it does not
/// support, e.g. `unsupported("disk", "anti-entropy export")`.
pub fn unsupported(backend: &str, what: &str) -> HmError {
    HmError::Backend(format!("{backend} backend does not support {what}"))
}

/// Load counters for one shard of a sharded deployment.
///
/// `nodes` counts structure nodes placed on the shard; `requests` counts
/// primitive requests the router issued to it. Their spread across shards
/// is the balance/skew a placement policy is judged by. `queued` and
/// `busy_us` describe the shard's executor at snapshot time: jobs waiting
/// in its queue and an exponentially-weighted moving average of per-call
/// busy time in microseconds. A replica group calls its members on the
/// caller's thread: its `queued` is always 0, and its `busy_us` is the
/// busiest member's EWMA, measured on the caller around each member
/// call. Backends without a per-shard executor leave both at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoad {
    /// Shard index, `0..shard_count`.
    pub shard: usize,
    /// Structure nodes owned by this shard.
    pub nodes: u64,
    /// Primitive requests routed to this shard so far.
    pub requests: u64,
    /// Jobs waiting in the shard's executor queue right now.
    pub queued: u64,
    /// EWMA of per-job busy time on this shard's worker, in microseconds.
    pub busy_us: u64,
    /// Nodes migrated onto or off this shard by the rebalancer.
    pub migrated: u64,
}

/// One write of a [`HyperStore::write_batch`]: the creation and linking
/// primitives of §5.3 and `set_hundred`, as data.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchWrite {
    /// [`create_node_clustered(value, near)`](HyperStore::create_node_clustered).
    Create {
        /// The node to create.
        value: NodeValue,
        /// The placement hint.
        near: Option<Oid>,
    },
    /// [`insert_extra_node`](HyperStore::insert_extra_node).
    Extra(NodeValue),
    /// [`add_child(parent, child)`](HyperStore::add_child).
    Child(Oid, Oid),
    /// [`add_part(owner, part)`](HyperStore::add_part).
    Part(Oid, Oid),
    /// [`add_ref(from, ..)`](HyperStore::add_ref), the edge's `target`
    /// being the reference's `to`.
    Ref(Oid, RefEdge),
    /// [`set_hundred(oid, value)`](HyperStore::set_hundred).
    SetHundred(Oid, u32),
}

/// The relationship an [`expand`](HyperStore::expand) follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// The 1-N `children` (O10–O13, a migration's subtree).
    Children,
    /// The M-N `parts` (O14).
    Parts,
    /// The attributed `refsTo` (O15, O18).
    RefsTo,
}

/// One record an [`expand`](HyperStore::expand) reached.
#[derive(Debug, Clone, PartialEq)]
pub struct Reached {
    /// The record.
    pub node: Oid,
    /// The largest remaining depth it was reached with.
    pub depth: u32,
    /// Its list along the relationship, in order — `children` and
    /// `parts` as edges with zero offsets — or `None` when it was not
    /// expanded: pruned, or at depth 0.
    pub list: Option<Vec<RefEdge>>,
}

/// Primitive and derived HyperModel operations over one test database.
pub trait HyperStore {
    // ---- identity and lookup (O1/O2) --------------------------------

    /// Resolve a `uniqueId` attribute value to an object id (key lookup).
    fn lookup_unique(&mut self, unique_id: u64) -> Result<Oid>;

    /// The `uniqueId` attribute of a node.
    fn unique_id_of(&mut self, oid: Oid) -> Result<u64>;

    /// The node's kind.
    fn kind_of(&mut self, oid: Oid) -> Result<NodeKind>;

    // ---- attribute access --------------------------------------------

    /// The `ten` attribute.
    fn ten_of(&mut self, oid: Oid) -> Result<u32>;

    /// The `hundred` attribute.
    fn hundred_of(&mut self, oid: Oid) -> Result<u32>;

    /// The `million` attribute.
    fn million_of(&mut self, oid: Oid) -> Result<u32>;

    /// Overwrite the `hundred` attribute (maintaining any index on it).
    fn set_hundred(&mut self, oid: Oid, value: u32) -> Result<()>;

    // ---- range lookup (O3/O4) ----------------------------------------

    /// All nodes with `lo <= hundred <= hi`.
    fn range_hundred(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>>;

    /// All nodes with `lo <= million <= hi`.
    fn range_million(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>>;

    // ---- relationships (O5–O8) ----------------------------------------

    /// Ordered children via the 1-N aggregation (Figure 2).
    fn children(&mut self, oid: Oid) -> Result<Vec<Oid>>;

    /// Parent via the 1-N aggregation; `None` for the root.
    fn parent(&mut self, oid: Oid) -> Result<Option<Oid>>;

    /// Parts via the M-N aggregation (Figure 3).
    fn parts(&mut self, oid: Oid) -> Result<Vec<Oid>>;

    /// Owners via the inverse M-N aggregation.
    fn part_of(&mut self, oid: Oid) -> Result<Vec<Oid>>;

    /// Outgoing attributed references (Figure 4), `refsTo`.
    fn refs_to(&mut self, oid: Oid) -> Result<Vec<RefEdge>>;

    /// Incoming attributed references, `refsFrom`; each edge's `target`
    /// is the *referencing* node.
    fn refs_from(&mut self, oid: Oid) -> Result<Vec<RefEdge>>;

    // ---- scans (O9) ----------------------------------------------------

    /// Visit every node of the test structure, reading its `ten`
    /// attribute; returns the number of nodes visited. Must not rely on a
    /// global "all instances of Node" extent (§6.4.1): the store may hold
    /// unrelated node objects that are not part of the structure.
    fn seq_scan_ten(&mut self) -> Result<u64>;

    // ---- content (O16/O17) ---------------------------------------------

    /// Text content of a text node.
    fn text_of(&mut self, oid: Oid) -> Result<String>;

    /// Replace the text content of a text node.
    fn set_text(&mut self, oid: Oid, text: &str) -> Result<()>;

    /// Bitmap content of a form node.
    fn form_of(&mut self, oid: Oid) -> Result<Bitmap>;

    /// Replace the bitmap content of a form node.
    fn set_form(&mut self, oid: Oid, bitmap: &Bitmap) -> Result<()>;

    // ---- creation (§5.3) -----------------------------------------------

    /// Create a node, returning its object id. Used by the loader; the
    /// paper times node creation per phase.
    fn create_node(&mut self, value: &NodeValue) -> Result<Oid>;

    /// Create a node with a placement hint: `near` names a node the new
    /// one should be stored close to (its future 1-N parent). Backends
    /// with physical clustering override this; the default ignores the
    /// hint.
    fn create_node_clustered(&mut self, value: &NodeValue, near: Option<Oid>) -> Result<Oid> {
        let _ = near;
        self.create_node(value)
    }

    /// Append `child` to `parent`'s ordered child list.
    fn add_child(&mut self, parent: Oid, child: Oid) -> Result<()>;

    /// Add `part` to `owner`'s part set.
    fn add_part(&mut self, owner: Oid, part: Oid) -> Result<()>;

    /// Create an attributed reference `from → to`.
    fn add_ref(&mut self, from: Oid, to: Oid, offset_from: u8, offset_to: u8) -> Result<()>;

    /// Create a node *outside* the test structure (same class, not a
    /// member) — §6.4.1 requires such objects to be able to coexist
    /// without affecting `seq_scan_ten`.
    fn insert_extra_node(&mut self, value: &NodeValue) -> Result<Oid>;

    // ---- transaction boundary -------------------------------------------

    /// Make all changes since the last commit durable.
    fn commit(&mut self) -> Result<()>;

    /// Invalidate all caches, simulating close/reopen between operation
    /// sequences (§6 step (e)). In-memory backends may be a no-op — that
    /// architectural difference is a benchmark result, not a bug.
    fn cold_restart(&mut self) -> Result<()>;

    // ---- two-phase commit (participant side) ----------------------------
    //
    // A sharded deployment's presumed-abort coordinator calls
    // `prepare_commit(txid)` everywhere, logs its decision, then
    // `commit_prepared` or `abort_prepared`. The defaults make any store a
    // correct participant whose prepare is a full commit; only stores with
    // a real prepare/decide split (WAL-backed) override them.

    /// Phase one: durably stage all changes since the last commit under
    /// transaction id `txid`, such that a subsequent `commit_prepared` or
    /// `abort_prepared` (possibly after a crash and recovery) can finish
    /// either way. The default simply commits — correct for stores whose
    /// commit is atomic and instantaneous (in-memory backends).
    fn prepare_commit(&mut self, txid: u64) -> Result<()> {
        let _ = txid;
        self.commit()
    }

    /// Phase two, commit side: make the changes staged by
    /// `prepare_commit(txid)` visible and durable. Must be idempotent.
    fn commit_prepared(&mut self, txid: u64) -> Result<()> {
        let _ = txid;
        Ok(())
    }

    /// Phase two, abort side: discard the changes staged by
    /// `prepare_commit(txid)`. Must be idempotent. Stores whose default
    /// `prepare_commit` already committed cannot un-commit; the sharded
    /// coordinator only pairs real prepare implementations with abort.
    fn abort_prepared(&mut self, txid: u64) -> Result<()> {
        let _ = txid;
        Ok(())
    }

    // ---- anti-entropy (replica repair) ----------------------------------
    //
    // A replica group resyncs a demoted mirror wholesale from a healthy
    // one, in a backend-private format (both ends are the same backend).
    // A store that cannot be a mirror keeps the defaults: unsupported.

    /// Serialize this store's entire logical state into an opaque,
    /// backend-private snapshot that [`sync_import`](HyperStore::sync_import)
    /// on another instance of the *same* backend can install.
    fn sync_export(&mut self) -> Result<Vec<u8>> {
        Err(unsupported(self.backend_name(), "anti-entropy export"))
    }

    /// Replace this store's entire logical state with the snapshot
    /// produced by [`sync_export`](HyperStore::sync_export) on a healthy
    /// replica of the same backend type.
    fn sync_import(&mut self, snapshot: &[u8]) -> Result<()> {
        let _ = snapshot;
        Err(unsupported(self.backend_name(), "anti-entropy import"))
    }

    // ---- node migration (shard rebalancing) ------------------------------
    //
    // A batch of nodes moves to another shard in two steps on the
    // destination — an *inert* install, then an *activate* (the commit
    // point; a crash before it leaves the batch at its old placement,
    // "presumed old") — after which the source *retires* its copies into
    // ghost stand-ins. The defaults report the backend unsupported.

    /// Export the full relationship state of each of `oids` (edges in
    /// this store's local id space; the migration driver rewrites them).
    fn export_nodes(&mut self, oids: &[Oid]) -> Result<Vec<crate::migrate::NodeExport>> {
        let _ = oids;
        Err(unsupported(self.backend_name(), "node migration export"))
    }

    /// Install a migration batch *inert*: create (or, for
    /// [`reuse`](crate::migrate::NodeExport::reuse) entries, promote) the
    /// records and resolve slot references, but add nothing to any index
    /// or the scan extent. Returns the assigned local ids in batch order.
    /// Must be deterministic: replicated mirrors install the same batch
    /// independently and must assign identical locals.
    fn install_nodes(&mut self, batch: &[crate::migrate::NodeExport]) -> Result<Vec<Oid>> {
        let _ = batch;
        Err(unsupported(self.backend_name(), "node migration install"))
    }

    /// Make inert-installed records live: index their attributes and add
    /// structure members to the scan extent. This is the migration's
    /// commit point on the destination.
    fn activate_nodes(&mut self, oids: &[Oid]) -> Result<()> {
        let _ = oids;
        Err(unsupported(self.backend_name(), "node migration activate"))
    }

    /// Demote migrated-away records to ghost stand-ins: remove them from
    /// every index and the scan extent but keep the records and their
    /// edges, so edges on this store that point at a moved node keep
    /// resolving through its stand-in. Where the node now lives is the
    /// sharded router's business, not this store's.
    fn retire_nodes(&mut self, oids: &[Oid]) -> Result<()> {
        let _ = oids;
        Err(unsupported(self.backend_name(), "node migration retire"))
    }

    /// A short backend name for reports ("mem", "disk", "rel").
    fn backend_name(&self) -> &'static str;

    /// Per-shard load counters; `None` for unsharded stores. Sharded
    /// deployments override this so the harness can report placement
    /// balance and request skew.
    fn shard_balance(&self) -> Option<Vec<ShardLoad>> {
        None
    }

    /// Resilience counters accumulated so far (request retries, commit
    /// aborts, injected faults), rendered for a report; `None` for plain
    /// stores. Instrumented deployments (retrying remote clients, 2PC
    /// coordinators, chaos wrappers) override this so the harness can
    /// report what the run survived.
    fn resilience_summary(&self) -> Option<String> {
        None
    }

    /// Run one catalogue operation given as a [`Request`]: the call a
    /// layer forwards with, whatever the store behind it. A store runs the
    /// request's typed method ([`dispatch`](crate::service::dispatch)).
    fn call(&mut self, req: Request) -> Result<Response> {
        crate::service::dispatch(self, req)
    }

    // =====================================================================
    // Batched primitives.
    //
    // Stores with per-request overhead (a network round trip, a shard
    // fan-out) answer these in one request where the scalar forms would
    // cost one per node: the sharded closures send each shard one
    // `expand` per round, then one `hundred_batch`.
    // =====================================================================

    /// The part of a closure this store can walk alone: breadth-first
    /// along `rel` from each of `starts`, a node with its remaining depth
    /// (`u32::MAX` is no bound; a node's neighbours get one less). Each
    /// record is expanded once, at the largest remaining depth it is
    /// reached with; with `prune`, a node whose `million` lies in
    /// `lo..=hi` is reported but not expanded. Answers every record
    /// reached, in [`expand_with`]'s order. The walk goes through every
    /// record alike — a sharded store's ghost stand-ins and retired
    /// records too: telling them apart is its router's business.
    fn expand(
        &mut self,
        rel: Rel,
        starts: &[(Oid, u32)],
        prune: Option<(u32, u32)>,
    ) -> Result<Vec<Reached>> {
        let plain = |oids: Vec<Oid>| {
            let edge = |target| RefEdge {
                target,
                offset_from: 0,
                offset_to: 0,
            };
            oids.into_iter().map(edge).collect()
        };
        expand_with(starts, |node| {
            if let Some((lo, hi)) = prune {
                if (lo..=hi).contains(&self.million_of(node)?) {
                    return Ok(None);
                }
            }
            let list = match rel {
                Rel::Children => plain(self.children(node)?),
                Rel::Parts => plain(self.parts(node)?),
                Rel::RefsTo => self.refs_to(node)?,
            };
            Ok(Some(list))
        })
    }

    /// [`hundred_of`](HyperStore::hundred_of) for each of `oids`, in order.
    fn hundred_batch(&mut self, oids: &[Oid]) -> Result<Vec<u32>> {
        oids.iter().map(|&o| self.hundred_of(o)).collect()
    }

    /// Apply `writes` in order, as the scalar method each item names;
    /// returns the id of each `Create` and `Extra` item, in order. The
    /// loader sends a creation phase as a few of these instead of one
    /// request per node or edge. On failure, the items before the failing
    /// one stay applied, as they would after the same scalar calls.
    fn write_batch(&mut self, writes: &[BatchWrite]) -> Result<Vec<Oid>> {
        let mut created = Vec::new();
        for w in writes {
            match w {
                BatchWrite::Create { value, near } => {
                    created.push(self.create_node_clustered(value, *near)?)
                }
                BatchWrite::Extra(value) => created.push(self.insert_extra_node(value)?),
                BatchWrite::Child(parent, child) => self.add_child(*parent, *child)?,
                BatchWrite::Part(owner, part) => self.add_part(*owner, *part)?,
                BatchWrite::Ref(from, e) => {
                    self.add_ref(*from, e.target, e.offset_from, e.offset_to)?
                }
                BatchWrite::SetHundred(oid, value) => self.set_hundred(*oid, *value)?,
            }
        }
        Ok(created)
    }

    // =====================================================================
    // Derived operations. The defaults are the free functions of the same
    // name below: a traversal on the caller's side, one primitive call per
    // relationship access.
    // =====================================================================

    /// O10 `closure1N`: all nodes reachable from `start` via the 1-N
    /// relationship, as a pre-order list (children in order).
    fn closure_1n(&mut self, start: Oid) -> Result<Vec<Oid>> {
        closure_1n(self, start)
    }

    /// O11 `closure1NAttSum`: sum of `hundred` over the 1-N closure.
    fn closure_1n_att_sum(&mut self, start: Oid) -> Result<(u64, usize)> {
        closure_1n_att_sum(self, start)
    }

    /// O12 `closure1NAttSet`: set `hundred := 99 - hundred` over the 1-N
    /// closure. Arithmetic wraps (the paper's `hundred` is 1..=100, so
    /// `99 - 100` underflows once; applying the operation twice restores
    /// the original value either way, which is what the benchmark needs).
    /// Returns the number of nodes updated.
    fn closure_1n_att_set(&mut self, start: Oid) -> Result<usize> {
        closure_1n_att_set(self, start)
    }

    /// O13 `closure1NPred`: the 1-N closure, excluding (and pruning the
    /// subtree below) nodes whose `million` lies in `lo..=hi`.
    fn closure_1n_pred(&mut self, start: Oid, lo: u32, hi: u32) -> Result<Vec<Oid>> {
        closure_1n_pred(self, start, lo, hi)
    }

    /// O14 `closureMN`: all nodes reachable from `start` via the M-N
    /// parts relationship, pre-order. Shared sub-parts are reported once
    /// per path (no deduplication), matching the paper's per-level node
    /// counts n = 6/31/156.
    fn closure_mn(&mut self, start: Oid) -> Result<Vec<Oid>> {
        closure_mn(self, start)
    }

    /// O15 `closureMNATT`: nodes reachable via the attributed M-N
    /// relationship to `depth` hops (the relationship has no terminating
    /// condition, §6.5). The start node is not included; nodes are
    /// reported once per visit.
    fn closure_mnatt(&mut self, start: Oid, depth: u32) -> Result<Vec<Oid>> {
        closure_mnatt(self, start, depth)
    }

    /// O18 `closureMNATTLinkSum`: like O15 but accumulating the distance
    /// (sum of `offsetTo` along the path) and returning `(node, distance)`
    /// pairs.
    fn closure_mnatt_linksum(&mut self, start: Oid, depth: u32) -> Result<Vec<(Oid, u64)>> {
        closure_mnatt_linksum(self, start, depth)
    }

    /// O16 `textNodeEdit`: substitute `from` → `to` in a text node and
    /// store the result. Returns the number of substitutions.
    fn text_node_edit(&mut self, oid: Oid, from: &str, to: &str) -> Result<usize> {
        text_node_edit(self, oid, from, to)
    }

    /// O17 `formNodeEdit`: invert the sub-rectangle `(25,25)-(50,50)` of a
    /// form node and store the result.
    fn form_node_edit(&mut self, oid: Oid, x0: u16, y0: u16, x1: u16, y1: u16) -> Result<()> {
        form_node_edit(self, oid, x0, y0, x1, y1)
    }
}

// =========================================================================
// The derived operations as traversals over the primitives: the trait's
// defaults, and R6's navigational client when called on a remote store
// (one round trip per primitive). Generic (not `dyn`) so each backend's
// default closure is monomorphised over its own accessors.
// =========================================================================

/// [`HyperStore::expand`] over any source of lists: `list(node)` is the
/// node's list, or `None` if it is pruned. Records come out largest
/// remaining depth first, then highest id first; a record at depth 0 is
/// reported without calling `list`. A sharded store answers `expand` by
/// running this over the lists its shards' homes sent, so it answers
/// exactly as one store would.
pub fn expand_with(
    starts: &[(Oid, u32)],
    mut list: impl FnMut(Oid) -> Result<Option<Vec<RefEdge>>>,
) -> Result<Vec<Reached>> {
    let mut heap: BinaryHeap<(u32, Oid)> = starts.iter().map(|&(o, d)| (d, o)).collect();
    let mut done = HashSet::new();
    let mut out = Vec::new();
    // Every edge takes one level off the depth, so no record is pushed
    // deeper than what is left in the heap: the first pop is the largest.
    while let Some((depth, node)) = heap.pop() {
        if !done.insert(node) {
            continue;
        }
        let list = if depth == 0 { None } else { list(node)? };
        let next = if depth == u32::MAX {
            depth
        } else {
            depth.saturating_sub(1)
        };
        for e in list.iter().flatten() {
            if !done.contains(&e.target) {
                heap.push((next, e.target));
            }
        }
        out.push(Reached { node, depth, list });
    }
    Ok(out)
}

/// [`HyperStore::closure_1n`] by one `children` call per node.
pub fn closure_1n<S: HyperStore + ?Sized>(store: &mut S, start: Oid) -> Result<Vec<Oid>> {
    let mut out = Vec::new();
    let mut stack = vec![start];
    while let Some(oid) = stack.pop() {
        out.push(oid);
        let kids = store.children(oid)?;
        // Push in reverse so the first child is popped first.
        for &k in kids.iter().rev() {
            stack.push(k);
        }
    }
    Ok(out)
}

/// [`HyperStore::closure_1n_att_sum`] by `hundred_of` + `children` per node.
pub fn closure_1n_att_sum<S: HyperStore + ?Sized>(
    store: &mut S,
    start: Oid,
) -> Result<(u64, usize)> {
    let mut sum = 0u64;
    let mut count = 0usize;
    let mut stack = vec![start];
    while let Some(oid) = stack.pop() {
        sum += store.hundred_of(oid)? as u64;
        count += 1;
        let kids = store.children(oid)?;
        for &k in kids.iter().rev() {
            stack.push(k);
        }
    }
    Ok((sum, count))
}

/// [`HyperStore::closure_1n_att_set`] by `hundred_of` + `set_hundred` +
/// `children` per node.
pub fn closure_1n_att_set<S: HyperStore + ?Sized>(store: &mut S, start: Oid) -> Result<usize> {
    let mut count = 0usize;
    let mut stack = vec![start];
    while let Some(oid) = stack.pop() {
        let current = store.hundred_of(oid)?;
        store.set_hundred(oid, 99u32.wrapping_sub(current))?;
        count += 1;
        let kids = store.children(oid)?;
        for &k in kids.iter().rev() {
            stack.push(k);
        }
    }
    Ok(count)
}

/// [`HyperStore::closure_1n_pred`] by `million_of` + `children` per node.
pub fn closure_1n_pred<S: HyperStore + ?Sized>(
    store: &mut S,
    start: Oid,
    lo: u32,
    hi: u32,
) -> Result<Vec<Oid>> {
    let mut out = Vec::new();
    let mut stack = vec![start];
    while let Some(oid) = stack.pop() {
        let m = store.million_of(oid)?;
        if (lo..=hi).contains(&m) {
            continue; // excluded, recursion terminated here
        }
        out.push(oid);
        let kids = store.children(oid)?;
        for &k in kids.iter().rev() {
            stack.push(k);
        }
    }
    Ok(out)
}

/// [`HyperStore::closure_mn`] by one `parts` call per visit.
pub fn closure_mn<S: HyperStore + ?Sized>(store: &mut S, start: Oid) -> Result<Vec<Oid>> {
    let mut out = Vec::new();
    let mut stack = vec![start];
    while let Some(oid) = stack.pop() {
        out.push(oid);
        let ps = store.parts(oid)?;
        for &p in ps.iter().rev() {
            stack.push(p);
        }
    }
    Ok(out)
}

/// [`HyperStore::closure_mnatt`] by one `refs_to` call per visit.
pub fn closure_mnatt<S: HyperStore + ?Sized>(
    store: &mut S,
    start: Oid,
    depth: u32,
) -> Result<Vec<Oid>> {
    let mut out = Vec::new();
    // (oid, remaining depth)
    let mut stack = vec![(start, depth)];
    while let Some((oid, d)) = stack.pop() {
        if d == 0 {
            continue;
        }
        let edges = store.refs_to(oid)?;
        for e in edges.iter().rev() {
            out.push(e.target);
            stack.push((e.target, d - 1));
        }
    }
    Ok(out)
}

/// [`HyperStore::closure_mnatt_linksum`] by one `refs_to` call per visit.
pub fn closure_mnatt_linksum<S: HyperStore + ?Sized>(
    store: &mut S,
    start: Oid,
    depth: u32,
) -> Result<Vec<(Oid, u64)>> {
    let mut out = Vec::new();
    let mut stack = vec![(start, depth, 0u64)];
    while let Some((oid, d, dist)) = stack.pop() {
        if d == 0 {
            continue;
        }
        let edges = store.refs_to(oid)?;
        for e in edges.iter().rev() {
            let total = dist + e.offset_to as u64;
            out.push((e.target, total));
            stack.push((e.target, d - 1, total));
        }
    }
    Ok(out)
}

/// [`HyperStore::text_node_edit`]: fetch the text, substitute here,
/// store it back.
pub fn text_node_edit<S: HyperStore + ?Sized>(
    store: &mut S,
    oid: Oid,
    from: &str,
    to: &str,
) -> Result<usize> {
    if store.kind_of(oid)? != NodeKind::TEXT {
        return Err(HmError::WrongKind {
            oid,
            expected: "TextNode",
        });
    }
    let current = store.text_of(oid)?;
    let (edited, n) = text::substitute(&current, from, to);
    store.set_text(oid, &edited)?;
    Ok(n)
}

/// [`HyperStore::form_node_edit`]: fetch the bitmap, invert here, store
/// it back.
pub fn form_node_edit<S: HyperStore + ?Sized>(
    store: &mut S,
    oid: Oid,
    x0: u16,
    y0: u16,
    x1: u16,
    y1: u16,
) -> Result<()> {
    if store.kind_of(oid)? != NodeKind::FORM {
        return Err(HmError::WrongKind {
            oid,
            expected: "FormNode",
        });
    }
    let mut bm = store.form_of(oid)?;
    bm.invert_rect(x0, y0, x1, y1);
    store.set_form(oid, &bm)
}

// =========================================================================
// The operation catalogue.
// =========================================================================

/// Every store operation that can cross a process or thread boundary,
/// declared once: `store_ops!(consumer)` expands to `consumer! { rows }`.
/// Its consumers, all in this crate, generate everything that is one arm
/// per operation: the [`Request`] type and its codec, the dispatcher and
/// the typed facade over a [`Service`](crate::service::Service). An
/// operation is thus spelled in two places: its [`HyperStore`] method and
/// its row here (DESIGN.md "One operation catalogue"). A row reads
///
/// ```text
/// Class tag Variant fn method[(arg: [Type], ...)] -> Ret [, about arg];
/// ```
///
/// * `Class` — the [`Class`](crate::protocol::Class) variant: how a
///   layer holding several copies treats the operation.
/// * `tag`, `Variant` — the operation's byte on the wire and its
///   [`Request`] variant. Tags are never reused; 37 and 48 are the
///   session messages', 43 is retired (now [`BatchWrite::SetHundred`]),
///   38–40 and 42 are retired (the per-level `children`, `parts`,
///   `refsTo` and `million` batches, now [`Expand`](Request::Expand)),
///   and 47 is retired (a retry-id envelope, now the sequence number
///   every frame starts with).
/// * the method's signature as in the trait, each argument type in
///   brackets so a consumer can tell a borrowed argument (the request
///   carries its owned form) from a by-value one. A method without
///   arguments drops its parentheses, so `Variant $(( ... ))?` is a unit
///   variant.
/// * `about arg` — the one node the operation addresses
///   ([`Request::about_mut`]): a sharded store routes the operation to
///   that node's shard and translates the ids in the answer back.
///
/// The rows name `Oid`, `NodeKind`, `NodeValue`, `RefEdge`, `Bitmap`,
/// `NodeExport`, `BatchWrite`, `Rel` and `Reached` unqualified; a
/// consumer imports them.
#[macro_export]
macro_rules! store_ops {
    ($consumer:ident) => {
        $consumer! {
            Read     0 LookupUnique        fn lookup_unique(unique_id: [u64]) -> Oid;
            Read     1 UniqueIdOf          fn unique_id_of(oid: [Oid]) -> u64, about oid;
            Read     2 KindOf              fn kind_of(oid: [Oid]) -> NodeKind, about oid;
            Read     3 TenOf               fn ten_of(oid: [Oid]) -> u32, about oid;
            Read     4 HundredOf           fn hundred_of(oid: [Oid]) -> u32, about oid;
            Read     5 MillionOf           fn million_of(oid: [Oid]) -> u32, about oid;
            Write    6 SetHundred          fn set_hundred(oid: [Oid], value: [u32]) -> (), about oid;
            Read     7 RangeHundred        fn range_hundred(lo: [u32], hi: [u32]) -> Vec<Oid>;
            Read     8 RangeMillion        fn range_million(lo: [u32], hi: [u32]) -> Vec<Oid>;
            Read     9 Children            fn children(oid: [Oid]) -> Vec<Oid>, about oid;
            Read    10 Parent              fn parent(oid: [Oid]) -> Option<Oid>, about oid;
            Read    11 Parts               fn parts(oid: [Oid]) -> Vec<Oid>, about oid;
            Read    12 PartOf              fn part_of(oid: [Oid]) -> Vec<Oid>, about oid;
            Read    13 RefsTo              fn refs_to(oid: [Oid]) -> Vec<RefEdge>, about oid;
            Read    14 RefsFrom            fn refs_from(oid: [Oid]) -> Vec<RefEdge>, about oid;
            Read    15 SeqScanTen          fn seq_scan_ten -> u64;
            Read    16 TextOf              fn text_of(oid: [Oid]) -> String, about oid;
            Write   17 SetText             fn set_text(oid: [Oid], text: [&str]) -> (), about oid;
            Read    18 FormOf              fn form_of(oid: [Oid]) -> Bitmap, about oid;
            Write   19 SetForm             fn set_form(oid: [Oid], bitmap: [&Bitmap]) -> (), about oid;
            // Each copy runs the identical create / install, so the local
            // ids handed back match on every copy.
            Write   20 CreateNode          fn create_node(value: [&NodeValue]) -> Oid;
            Write   21 CreateNodeClustered fn create_node_clustered(value: [&NodeValue], near: [Option<Oid>]) -> Oid;
            Write   22 AddChild            fn add_child(parent: [Oid], child: [Oid]) -> ();
            Write   23 AddPart             fn add_part(owner: [Oid], part: [Oid]) -> ();
            Write   24 AddRef              fn add_ref(from: [Oid], to: [Oid], offset_from: [u8], offset_to: [u8]) -> ();
            Write   25 InsertExtraNode     fn insert_extra_node(value: [&NodeValue]) -> Oid;
            Barrier 26 Commit              fn commit -> ();
            Barrier 27 ColdRestart         fn cold_restart -> ();
            Read    28 Closure1N           fn closure_1n(start: [Oid]) -> Vec<Oid>, about start;
            Read    29 Closure1NAttSum     fn closure_1n_att_sum(start: [Oid]) -> (u64, usize), about start;
            Write   30 Closure1NAttSet     fn closure_1n_att_set(start: [Oid]) -> usize, about start;
            Read    31 Closure1NPred       fn closure_1n_pred(start: [Oid], lo: [u32], hi: [u32]) -> Vec<Oid>, about start;
            Read    32 ClosureMN           fn closure_mn(start: [Oid]) -> Vec<Oid>, about start;
            Read    33 ClosureMNAtt        fn closure_mnatt(start: [Oid], depth: [u32]) -> Vec<Oid>, about start;
            Read    34 ClosureMNAttLinkSum fn closure_mnatt_linksum(start: [Oid], depth: [u32]) -> Vec<(Oid, u64)>, about start;
            Write   35 TextNodeEdit        fn text_node_edit(oid: [Oid], from: [&str], to: [&str]) -> usize, about oid;
            Write   36 FormNodeEdit        fn form_node_edit(oid: [Oid], x0: [u16], y0: [u16], x1: [u16], y1: [u16]) -> (), about oid;
            Read    41 HundredBatch        fn hundred_batch(oids: [&[Oid]]) -> Vec<u32>;
            Barrier 44 PrepareCommit       fn prepare_commit(txid: [u64]) -> ();
            Barrier 45 CommitPrepared      fn commit_prepared(txid: [u64]) -> ();
            Barrier 46 AbortPrepared       fn abort_prepared(txid: [u64]) -> ();
            Read    49 SyncSubtree         fn sync_export -> Vec<u8>;
            Write   50 InstallSubtree      fn sync_import(snapshot: [&[u8]]) -> ();
            Read    51 ExportNodes         fn export_nodes(oids: [&[Oid]]) -> Vec<NodeExport>;
            Write   52 InstallNodes        fn install_nodes(batch: [&[NodeExport]]) -> Vec<Oid>;
            Write   53 ActivateNodes       fn activate_nodes(oids: [&[Oid]]) -> ();
            Write   54 RetireNodes         fn retire_nodes(oids: [&[Oid]]) -> ();
            Write   55 WriteBatch          fn write_batch(writes: [&[BatchWrite]]) -> Vec<Oid>;
            Read    56 Expand              fn expand(rel: [Rel], starts: [&[(Oid, u32)]], prune: [Option<(u32, u32)>]) -> Vec<Reached>;
        }
    };
}

#[cfg(test)]
mod tests {
    // The default methods are exercised against real backends in the
    // backend crates and in the workspace integration tests; here we only
    // check trait-object safety and the tiny pure helpers.
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_s: &mut dyn HyperStore) {}
    }

    #[test]
    fn wrapping_att_set_restores_after_two_applications() {
        for x in [1u32, 50, 99, 100] {
            let once = 99u32.wrapping_sub(x);
            let twice = 99u32.wrapping_sub(once);
            assert_eq!(twice, x);
        }
    }
}
