//! Loading a generated [`TestDatabase`] into a backend, with the paper's
//! creation-time measurements (§5.3).
//!
//! The paper splits creation time into: internal node creation, leaf node
//! creation, and creation of each relationship type, *each including the
//! corresponding commit* and index maintenance. [`load_database`] performs
//! exactly those five phases, committing after each, and reports wall time
//! and element counts per phase.
//!
//! Each phase reaches the store as [`HyperStore::write_batch`] calls of at
//! most [`LOAD_BATCH`] writes (and [`LOAD_BATCH_BYTES`] of node content):
//! a store behind a wire pays one round trip per batch instead of one per
//! node or edge (the paper's R6 argument), while a local store applies
//! the items through its scalar methods in the same order as one call
//! each would.

use std::ops::Range;
use std::time::{Duration, Instant};

use crate::error::{HmError, Result};
use crate::generate::TestDatabase;
use crate::model::{Content, Oid, RefEdge};
use crate::store::{BatchWrite, HyperStore};

/// Most writes one [`HyperStore::write_batch`] call of the loader carries.
pub const LOAD_BATCH: usize = 128;

/// Most node content (text or bitmap bytes) one batch of creates carries,
/// unless a single node has more. With the fixed part of its creates
/// (under 50 bytes each) a batch's frame stays under 20 KB: no larger
/// than the create of one of the level's largest bitmaps (400 × 400 bits),
/// so no connection buffer grows past what one request per node needed.
/// (At 48 KiB a level-6 load took 15 % fewer frames, but the larger
/// buffers and per-batch copies left ~0.25 MiB more resident.)
pub const LOAD_BATCH_BYTES: usize = 16 << 10;

/// Wall time and element count of one creation phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    /// Total wall time including the phase's commit.
    pub elapsed: Duration,
    /// Number of nodes or relationships created.
    pub count: u64,
}

impl Phase {
    /// Milliseconds per created element — the paper's reporting unit.
    pub fn ms_per_element(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.elapsed.as_secs_f64() * 1e3 / self.count as f64
        }
    }
}

/// Per-phase creation timings (§5.3 operations (a)–(e)).
#[derive(Debug, Clone, Copy, Default)]
pub struct CreationTimings {
    /// (a) Create internal nodes (with commit).
    pub internal_nodes: Phase,
    /// (b) Create leaf nodes (with commit).
    pub leaf_nodes: Phase,
    /// (c) Create the 1-N child relationships (with commit).
    pub children_rels: Phase,
    /// (d) Create the M-N part relationships (with commit).
    pub parts_rels: Phase,
    /// (e) Create the attributed M-N references (with commit).
    pub refs_rels: Phase,
}

impl CreationTimings {
    /// Total load wall time.
    pub fn total(&self) -> Duration {
        self.internal_nodes.elapsed
            + self.leaf_nodes.elapsed
            + self.children_rels.elapsed
            + self.parts_rels.elapsed
            + self.refs_rels.elapsed
    }
}

/// Result of loading: the index → [`Oid`] map plus timings.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// `oids[i]` is the object id of `db.nodes[i]`.
    pub oids: Vec<Oid>,
    /// Per-phase wall times.
    pub timings: CreationTimings,
}

/// Load `db` into `store`, committing after each creation phase.
///
/// Nodes are created in breadth-first order with a parent placement hint,
/// so backends that support clustering place children near their parents
/// (the paper: clustering "should be done along the 1-N
/// relationship-hierarchy"). Internal nodes go level by level, so the
/// node every hint names was created by an earlier batch.
pub fn load_database<S: HyperStore + ?Sized>(
    store: &mut S,
    db: &TestDatabase,
) -> Result<LoadReport> {
    let mut oids: Vec<Oid> = Vec::with_capacity(db.len());
    let mut timings = CreationTimings::default();

    // Phase 1: internal nodes (BFS order; parents exist before children).
    let t = Instant::now();
    for level in 0..db.config.leaf_level {
        create_nodes(store, db, db.level_indices(level), &mut oids)?;
    }
    store.commit()?;
    timings.internal_nodes = Phase {
        elapsed: t.elapsed(),
        count: oids.len() as u64,
    };

    // Phase 2: leaf nodes.
    let t = Instant::now();
    let leaves = db.leaf_indices();
    create_nodes(store, db, leaves.clone(), &mut oids)?;
    store.commit()?;
    timings.leaf_nodes = Phase {
        elapsed: t.elapsed(),
        count: leaves.len() as u64,
    };

    // Phase 3: 1-N child relationships (ordered).
    let t = Instant::now();
    let count = link(store, edges(&db.children, &oids, BatchWrite::Child))?;
    store.commit()?;
    timings.children_rels = Phase {
        elapsed: t.elapsed(),
        count,
    };

    // Phase 4: M-N part relationships.
    let t = Instant::now();
    let count = link(store, edges(&db.parts, &oids, BatchWrite::Part))?;
    store.commit()?;
    timings.parts_rels = Phase {
        elapsed: t.elapsed(),
        count,
    };

    // Phase 5: attributed M-N references.
    let t = Instant::now();
    let refs = db
        .refs
        .iter()
        .zip(&oids)
        .map(|(&(to, offset_from, offset_to), &from)| {
            let edge = RefEdge {
                target: oids[to as usize],
                offset_from,
                offset_to,
            };
            BatchWrite::Ref(from, edge)
        });
    let count = link(store, refs)?;
    store.commit()?;
    timings.refs_rels = Phase {
        elapsed: t.elapsed(),
        count,
    };

    Ok(LoadReport { oids, timings })
}

/// Create the nodes `range` indexes, in order, in batches of at most
/// [`LOAD_BATCH`] nodes and [`LOAD_BATCH_BYTES`] of content (at least one
/// node), appending their ids to `oids`; every node's parent must
/// already be in `oids`.
fn create_nodes<S: HyperStore + ?Sized>(
    store: &mut S,
    db: &TestDatabase,
    range: Range<u32>,
    oids: &mut Vec<Oid>,
) -> Result<()> {
    let (mut at, end) = (range.start as usize, range.end as usize);
    while at < end {
        let mut bytes = 0;
        let fits = db.nodes[at..end]
            .iter()
            .take(LOAD_BATCH)
            .take_while(|n| {
                bytes += content_bytes(&n.value.content);
                bytes <= LOAD_BATCH_BYTES
            })
            .count()
            .max(1);
        let batch: Vec<BatchWrite> = (at..at + fits)
            .map(|i| BatchWrite::Create {
                value: db.nodes[i].value.clone(),
                near: parent_hint(db, i, oids),
            })
            .collect();
        let created = store.write_batch(&batch)?;
        if created.len() != fits {
            return Err(HmError::Backend(format!(
                "{} returned {} ids for {fits} created nodes",
                store.backend_name(),
                created.len()
            )));
        }
        oids.extend(created);
        at += fits;
    }
    Ok(())
}

/// One `edge(from, to)` write per entry of `lists`, where `lists[i]`
/// holds the generator indices node `i` points to, in order.
fn edges<'a>(
    lists: &'a [Vec<u32>],
    oids: &'a [Oid],
    edge: fn(Oid, Oid) -> BatchWrite,
) -> impl Iterator<Item = BatchWrite> + 'a {
    lists
        .iter()
        .zip(oids)
        .flat_map(move |(ends, &from)| ends.iter().map(move |&to| edge(from, oids[to as usize])))
}

/// Send the edge writes `edges` to `store` in batches of [`LOAD_BATCH`];
/// returns how many were sent.
fn link<S: HyperStore + ?Sized>(
    store: &mut S,
    mut edges: impl Iterator<Item = BatchWrite>,
) -> Result<u64> {
    let mut sent = 0u64;
    let mut batch = Vec::with_capacity(LOAD_BATCH);
    loop {
        batch.clear();
        batch.extend(edges.by_ref().take(LOAD_BATCH));
        if batch.is_empty() {
            return Ok(sent);
        }
        store.write_batch(&batch)?;
        sent += batch.len() as u64;
    }
}

/// Bytes of node content: what makes one batch of creates larger than
/// another of the same length.
fn content_bytes(content: &Content) -> usize {
    match content {
        Content::None => 0,
        Content::Text(text) => text.len(),
        Content::Form(bitmap) => bitmap.byte_size(),
        Content::Dynamic(bytes) => bytes.len(),
    }
}

fn parent_hint(db: &TestDatabase, i: usize, oids: &[Oid]) -> Option<Oid> {
    let p = db.parent[i];
    if p == crate::generate::NO_PARENT {
        None
    } else {
        Some(oids[p as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_ms_per_element() {
        let p = Phase {
            elapsed: Duration::from_millis(500),
            count: 100,
        };
        assert!((p.ms_per_element() - 5.0).abs() < 1e-9);
        let empty = Phase::default();
        assert_eq!(empty.ms_per_element(), 0.0);
    }

    #[test]
    fn timings_total_sums_phases() {
        let mut t = CreationTimings::default();
        t.internal_nodes.elapsed = Duration::from_millis(1);
        t.leaf_nodes.elapsed = Duration::from_millis(2);
        t.children_rels.elapsed = Duration::from_millis(3);
        t.parts_rels.elapsed = Duration::from_millis(4);
        t.refs_rels.elapsed = Duration::from_millis(5);
        assert_eq!(t.total(), Duration::from_millis(15));
    }
}
