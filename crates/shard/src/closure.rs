//! The sharded closures (O10–O15, O18), a migration's subtree and an
//! `Expand` request: rounds of [`HyperStore::expand`], then a replay.
//!
//! Each round sends every shard with work one `expand`, which walks the
//! closure as far as the shard's records reach, its ghost stand-ins and
//! retired records included. `crate::write` links both ends of every
//! cross-shard edge, so a stand-in's edges are a subset of its node's:
//! what it reaches is truly reachable, but its own list may be partial.
//! Only home lists are kept, and a stand-in reached at depth d > 0 goes
//! home next round unless home already expanded it at depth ≥ d. Round
//! trips thus count shard crossings, not levels. The home lists are
//! replayed from the start alone, in the trait defaults' order: nodes in
//! pre-order (O10, O13, O14, the subtree) or attributed edges (O18, O15).

use std::collections::HashMap;

use hypermodel::error::{HmError, Result};
use hypermodel::model::Oid;
use hypermodel::protocol::{Reply, Request};
use hypermodel::store::{expand_with, BatchWrite, HyperStore, Reached, Rel};

use crate::store::ShardedStore;

/// Per node, in global ids: its home shard's expansion at the largest
/// remaining depth home was asked for.
type Home = HashMap<Oid, Reached>;

impl<S: HyperStore + Send + 'static> ShardedStore<S> {
    /// The home expansion of every node reachable from `starts` along
    /// `rel`, in rounds of one `expand` per shard with work.
    fn rounds(
        &mut self,
        rel: Rel,
        starts: &[(Oid, u32)],
        prune: Option<(u32, u32)>,
    ) -> Result<Home> {
        let n = self.router.shard_count();
        let mut home = Home::new();
        let mut work: HashMap<Oid, u32> = starts.iter().copied().collect();
        while !work.is_empty() {
            let mut per: Vec<Option<Vec<(Oid, u32)>>> = vec![None; n];
            for (g, depth) in work.drain() {
                let (s, l) = self.router.to_local(g)?;
                per[s].get_or_insert_with(Vec::new).push((l, depth));
            }
            let requests = per
                .into_iter()
                .map(|w| w.map(|starts| Request::Expand(rel, starts, prune)));
            let mut stand_ins = Vec::new();
            for (s, answer) in self.each_shard(requests.collect())?.into_iter().enumerate() {
                let Some(answer) = answer else { continue };
                for r in Vec::<Reached>::from_response(answer)? {
                    let own = self.router.is_owned_local(s, r.node)?;
                    let r = self.router.globals(s, r)?;
                    if !own {
                        stand_ins.push((r.node, r.depth));
                    } else if home.get(&r.node).is_none_or(|h| h.depth < r.depth) {
                        home.insert(r.node, r);
                    }
                }
            }
            // Only now: another shard's answer may have been home's.
            for (g, depth) in stand_ins {
                if depth > 0 && home.get(&g).is_none_or(|h| h.depth < depth) {
                    let at = work.entry(g).or_insert(depth);
                    *at = (*at).max(depth);
                }
            }
        }
        Ok(home)
    }

    /// An `Expand` request: the home expansions, walked from `starts` as
    /// one store's default would walk its own records.
    pub(crate) fn expand_all(
        &mut self,
        rel: Rel,
        starts: &[(Oid, u32)],
        prune: Option<(u32, u32)>,
    ) -> Result<Vec<Reached>> {
        let home = self.rounds(rel, starts, prune)?;
        expand_with(starts, |node| {
            let h = home.get(&node);
            h.map(|h| h.list.clone())
                .ok_or_else(|| HmError::Backend(format!("no home expansion of {node}")))
        })
    }

    /// The 1-N subtree under `root` in pre-order, not counted as a touch:
    /// the node list of a migration.
    pub(crate) fn subtree(&mut self, root: Oid) -> Result<Vec<Oid>> {
        let home = self.rounds(Rel::Children, &[(root, u32::MAX)], None)?;
        Ok(preorder(root, &home))
    }

    /// O10 and O14 (`rel` = children or parts), and O13 with `prune`:
    /// the nodes reached from `start` in pre-order.
    pub(crate) fn node_closure(
        &mut self,
        start: Oid,
        rel: Rel,
        prune: Option<(u32, u32)>,
    ) -> Result<Vec<Oid>> {
        self.touch(start);
        let home = self.rounds(rel, &[(start, u32::MAX)], prune)?;
        Ok(preorder(start, &home))
    }

    /// O11: the 1-N closure, then one `hundred` batch per shard.
    pub(crate) fn att_sum(&mut self, start: Oid) -> Result<(u64, usize)> {
        let closure = self.node_closure(start, Rel::Children, None)?;
        let hundreds = self.hundreds(&closure)?;
        let sum = hundreds.iter().map(|&h| u64::from(h)).sum();
        Ok((sum, closure.len()))
    }

    /// O12: the 1-N closure, its `hundred` values, then one write batch.
    pub(crate) fn att_set(&mut self, start: Oid) -> Result<usize> {
        let closure = self.node_closure(start, Rel::Children, None)?;
        let hundreds = self.hundreds(&closure)?;
        let updates: Vec<BatchWrite> = closure
            .iter()
            .zip(hundreds)
            .map(|(&o, h)| BatchWrite::SetHundred(o, 99u32.wrapping_sub(h)))
            .collect();
        let n = updates.len();
        self.write_rounds(updates)?;
        Ok(n)
    }

    /// O18, and O15 as its projection: attributed references to `depth`
    /// levels.
    pub(crate) fn ref_closure(&mut self, start: Oid, depth: u32) -> Result<Vec<(Oid, u64)>> {
        self.touch(start);
        let home = self.rounds(Rel::RefsTo, &[(start, depth)], None)?;
        Ok(edge_walk(start, depth, &home))
    }
}

/// Depth-first pre-order over the home lists from `start`, each list in
/// order: the trait default's stack order. A node without a list
/// (pruned) is skipped with its subtree.
fn preorder(start: Oid, home: &Home) -> Vec<Oid> {
    let mut out = Vec::new();
    let mut stack = vec![start];
    while let Some(node) = stack.pop() {
        if let Some(list) = home.get(&node).and_then(|h| h.list.as_ref()) {
            out.push(node);
            stack.extend(list.iter().rev().map(|e| e.target));
        }
    }
    out
}

/// Depth-first walk over the attributed edges of the home lists to
/// `depth` levels: each edge's target with the `offset_to` summed along
/// its path, in the trait default's order.
fn edge_walk(start: Oid, depth: u32, home: &Home) -> Vec<(Oid, u64)> {
    let mut out = Vec::new();
    let mut stack = vec![(start, depth, 0u64)];
    while let Some((node, d, dist)) = stack.pop() {
        let edges = home.get(&node).and_then(|h| h.list.as_deref());
        for e in edges.filter(|_| d > 0).into_iter().flatten().rev() {
            let total = dist + u64::from(e.offset_to);
            out.push((e.target, total));
            stack.push((e.target, d - 1, total));
        }
    }
    out
}
