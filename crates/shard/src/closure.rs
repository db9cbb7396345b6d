//! The sharded closures (O10–O15, O18) and the one traversal behind them
//! and [`ShardedStore::migrate_subtree`]: a level collector and two
//! replays.
//!
//! The collector walks breadth-first. Per level it groups the frontier by
//! owning shard and sends one batched request to each shard with work, so
//! cross-shard round trips scale with traversal *depth*, not node count.
//! The adjacency it gathers is then replayed depth-first on the calling
//! thread — as nodes in pre-order (O10, O13, O14 and the migration's
//! subtree) or as attributed edges (O18, with O15 its projection) — in
//! exactly the order of the trait's default implementations, with no
//! further requests.

use std::collections::{HashMap, HashSet};
use std::ops::RangeInclusive;

use hypermodel::error::Result;
use hypermodel::model::{Oid, RefEdge};
use hypermodel::store::{BatchWrite, HyperStore};

use crate::store::ShardedStore;

/// One entry of a node's fetched list: a node id, or an attributed edge
/// to one.
trait Adjacent {
    /// The node the entry leads to.
    fn target(&self) -> Oid;
}

impl Adjacent for Oid {
    fn target(&self) -> Oid {
        *self
    }
}

impl Adjacent for RefEdge {
    fn target(&self) -> Oid {
        self.target
    }
}

impl<S: HyperStore + Send + 'static> ShardedStore<S> {
    /// Breadth-first from `start`: each level's lists come from `fetch`,
    /// one batched request per shard holding part of the frontier, and
    /// each node enters a frontier once. Stops after `depth` levels if
    /// given. With `prune`, each level first fetches its frontier's
    /// `million` the same way and drops the nodes inside the range: they
    /// are not expanded and, having no list, not replayed.
    fn levels<E: Adjacent>(
        &mut self,
        start: Oid,
        fetch: impl Fn(&mut Self, &[Oid]) -> Result<Vec<Vec<E>>>,
        depth: Option<u32>,
        prune: Option<RangeInclusive<u32>>,
    ) -> Result<HashMap<Oid, Vec<E>>> {
        let mut adj = HashMap::new();
        let mut seen = HashSet::from([start]);
        let mut frontier = vec![start];
        let mut level = 0;
        while !frontier.is_empty() && depth.is_none_or(|d| level < d) {
            if let Some(range) = &prune {
                let millions = self.million_batch(&frontier)?;
                frontier = frontier
                    .into_iter()
                    .zip(millions)
                    .filter(|(_, m)| !range.contains(m))
                    .map(|(o, _)| o)
                    .collect();
                if frontier.is_empty() {
                    break;
                }
            }
            let lists = fetch(self, &frontier)?;
            let mut next = Vec::new();
            for (node, list) in frontier.into_iter().zip(lists) {
                next.extend(list.iter().map(E::target).filter(|&t| seen.insert(t)));
                adj.insert(node, list);
            }
            frontier = next;
            level += 1;
        }
        Ok(adj)
    }

    /// The 1-N subtree under `root` in pre-order, not counted as a touch:
    /// the node list of a migration.
    pub(crate) fn subtree(&mut self, root: Oid) -> Result<Vec<Oid>> {
        let adj = self.levels(root, Self::children_batch, None, None)?;
        Ok(preorder(root, &adj))
    }

    /// O10 and O14 (`fetch` = children or parts), and O13 with `prune`:
    /// the nodes reached from `start` in pre-order.
    pub(crate) fn node_closure(
        &mut self,
        start: Oid,
        fetch: impl Fn(&mut Self, &[Oid]) -> Result<Vec<Vec<Oid>>>,
        prune: Option<RangeInclusive<u32>>,
    ) -> Result<Vec<Oid>> {
        self.touch(start);
        let adj = self.levels(start, fetch, None, prune)?;
        Ok(preorder(start, &adj))
    }

    /// O11: the 1-N closure, then one `hundred` batch per shard.
    pub(crate) fn att_sum(&mut self, start: Oid) -> Result<(u64, usize)> {
        let closure = self.closure_1n(start)?;
        let hundreds = self.hundred_batch(&closure)?;
        let sum = hundreds.iter().map(|&h| u64::from(h)).sum();
        Ok((sum, closure.len()))
    }

    /// O12: the 1-N closure, its `hundred` values, then one write batch.
    pub(crate) fn att_set(&mut self, start: Oid) -> Result<usize> {
        let closure = self.closure_1n(start)?;
        let hundreds = self.hundred_batch(&closure)?;
        let updates: Vec<BatchWrite> = closure
            .iter()
            .zip(hundreds)
            .map(|(&o, h)| BatchWrite::SetHundred(o, 99u32.wrapping_sub(h)))
            .collect();
        self.write_batch(&updates)?;
        Ok(updates.len())
    }

    /// O18, and O15 as its projection: attributed references to `depth`
    /// levels, the deepest any depth-first path can need.
    pub(crate) fn ref_closure(&mut self, start: Oid, depth: u32) -> Result<Vec<(Oid, u64)>> {
        self.touch(start);
        let adj = self.levels(start, Self::refs_to_batch, Some(depth), None)?;
        Ok(edge_walk(start, depth, &adj))
    }
}

/// Depth-first pre-order over `adj` from `start`, each list in order: the
/// trait default's stack order. A node without a list (pruned) is skipped
/// with its subtree.
fn preorder(start: Oid, adj: &HashMap<Oid, Vec<Oid>>) -> Vec<Oid> {
    let mut out = Vec::new();
    let mut stack = vec![start];
    while let Some(node) = stack.pop() {
        if let Some(list) = adj.get(&node) {
            out.push(node);
            stack.extend(list.iter().rev());
        }
    }
    out
}

/// Depth-first walk over the attributed edges in `adj` to `depth` levels:
/// each edge's target with the `offset_to` summed along its path, in the
/// trait default's order.
fn edge_walk(start: Oid, depth: u32, adj: &HashMap<Oid, Vec<RefEdge>>) -> Vec<(Oid, u64)> {
    let mut out = Vec::new();
    let mut stack = vec![(start, depth, 0u64)];
    while let Some((node, d, dist)) = stack.pop() {
        let Some(edges) = adj.get(&node).filter(|_| d > 0) else {
            continue;
        };
        for e in edges.iter().rev() {
            let total = dist + u64::from(e.offset_to);
            out.push((e.target, total));
            stack.push((e.target, d - 1, total));
        }
    }
    out
}
