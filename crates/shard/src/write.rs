//! Writes: [`ShardedStore`]'s `write_batch`, which every creation and
//! edge write goes through — placement of new nodes and the ghost
//! stand-ins that let a shard hold an edge whose other end lives on
//! another shard.
//!
//! A batch is sent in two passes, each at most one request per shard:
//! first the ghosts its cross-shard edges still lack, then the writes
//! themselves, translated to shard-local ids. Each shard's part keeps
//! the input order, so child lists keep their order and the store reads
//! back exactly as one applying the writes one by one.

use std::collections::HashSet;

use hypermodel::error::{HmError, Result};
use hypermodel::model::{Content, NodeAttrs, NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::protocol::{Reply, Request};
use hypermodel::store::{BatchWrite, HyperStore};

use crate::router::GHOST_UID_BASE;
use crate::store::ShardedStore;

/// The stand-in for `global` on a shard that holds edges to it.
pub(crate) fn ghost_value(global: Oid) -> NodeValue {
    NodeValue {
        kind: NodeKind::INTERNAL,
        attrs: NodeAttrs {
            unique_id: GHOST_UID_BASE + global.0,
            ten: 1,
            hundred: 1,
            thousand: 1,
            million: 1,
        },
        content: Content::None,
    }
}

/// The ids a write names (not the one it creates).
fn named(w: &BatchWrite) -> [Option<Oid>; 2] {
    match *w {
        BatchWrite::Create { near, .. } => [near, None],
        BatchWrite::Extra(_) => [None, None],
        BatchWrite::Child(a, b) | BatchWrite::Part(a, b) => [Some(a), Some(b)],
        BatchWrite::Ref(a, e) => [Some(a), Some(e.target)],
        BatchWrite::SetHundred(o, _) => [Some(o), None],
    }
}

/// The two ends of an edge write; `None` for the other writes.
fn edge_ends(w: &BatchWrite) -> Option<(Oid, Oid)> {
    match *w {
        BatchWrite::Child(a, b) | BatchWrite::Part(a, b) => Some((a, b)),
        BatchWrite::Ref(a, e) => Some((a, e.target)),
        _ => None,
    }
}

/// The edge write `w` between `a` and `b` instead of its own ends (a
/// write that is no edge has none to replace).
fn relink(w: &BatchWrite, a: Oid, b: Oid) -> BatchWrite {
    match *w {
        BatchWrite::Child(..) => BatchWrite::Child(a, b),
        BatchWrite::Part(..) => BatchWrite::Part(a, b),
        BatchWrite::Ref(_, e) => BatchWrite::Ref(a, RefEdge { target: b, ..e }),
        ref other => other.clone(),
    }
}

impl<S: HyperStore + Send + 'static> ShardedStore<S> {
    /// [`HyperStore::write_batch`], sent in rounds: a round ends before
    /// the first write that names a node created earlier in it, whose
    /// local id is only known once the round has been applied (the loader
    /// never sends such a batch). The writes are taken by value: each
    /// moves into the request for its shard, uncopied.
    pub(crate) fn write_rounds(&mut self, mut writes: Vec<BatchWrite>) -> Result<Vec<Oid>> {
        let mut created = Vec::new();
        while !writes.is_empty() {
            // Ids from `base` on are created by this round (or unknown).
            let base = self.router.mint().0;
            let len = writes
                .iter()
                .skip(1)
                .position(|w| named(w).iter().flatten().any(|g| g.0 >= base))
                .map_or(writes.len(), |at| at + 1);
            let later = writes.split_off(len);
            created.extend(self.write_round(writes)?);
            writes = later;
        }
        Ok(created)
    }

    /// One `write_batch` per shard with work, in shard order, each on the
    /// calling thread like a point operation (fanned out to the shard
    /// workers, a level-6 load over TCP was no faster and kept ~0.5 MiB
    /// more resident); every shard with work is checked alive before any
    /// is sent, and none is sent to after one fails. Returns each shard's
    /// answer (empty without work or when not reached), so the caller can
    /// record what the shards that answered did, and how the sends ended.
    fn send_writes(&mut self, per: Vec<Vec<BatchWrite>>) -> (Vec<Vec<Oid>>, Result<()>) {
        let mut answers = vec![Vec::new(); per.len()];
        let mut busy = (0..per.len()).filter(|&s| !per[s].is_empty());
        if let Err(e) = busy.try_for_each(|s| self.check(s)) {
            return (answers, Err(e));
        }
        for (s, writes) in per.into_iter().enumerate() {
            if writes.is_empty() {
                continue;
            }
            let sent = self.on_shard(s, |sh| sh.call(Request::WriteBatch(writes)));
            match sent.and_then(Vec::<Oid>::from_response) {
                Ok(ids) => answers[s] = ids,
                Err(e) => return (answers, Err(e)),
            }
        }
        (answers, Ok(()))
    }

    /// One round of [`Self::write_rounds`]: writes that name no node
    /// created among them, so every local id they need is known before
    /// they are sent. Pass 1 sends the ghosts the cross-shard edges lack,
    /// pass 2 the writes — an edge between shards on both sides, against
    /// the ghosts. Creates are placed as they come, exactly as
    /// [`HyperStore::create_node_clustered`] alone would place them.
    fn write_round(&mut self, writes: Vec<BatchWrite>) -> Result<Vec<Oid>> {
        let n = self.router.shard_count();

        // Pass 1: ghosts, per shard in first-use order.
        let mut ghosts: Vec<Vec<Oid>> = vec![Vec::new(); n];
        let mut planned = HashSet::new();
        for (a, b) in writes.iter().filter_map(edge_ends) {
            let (sa, sb) = (self.router.to_local(a)?.0, self.router.to_local(b)?.0);
            if sa == sb {
                continue;
            }
            for (g, s) in [(b, sa), (a, sb)] {
                if self.router.ghost_of(g, s).is_none() && planned.insert((g, s)) {
                    ghosts[s].push(g);
                }
            }
        }
        let extras = ghosts
            .iter()
            .map(|gs| {
                gs.iter()
                    .map(|&g| BatchWrite::Extra(ghost_value(g)))
                    .collect()
            })
            .collect();
        let (locals, sent) = self.send_writes(extras);
        for (s, (gs, ls)) in ghosts.iter().zip(locals).enumerate() {
            for (&g, l) in gs.iter().zip(ls) {
                self.router.register_ghost(g, s, l);
            }
        }
        sent?;

        // Pass 2: the writes, translated to shard-local ids.
        let base = self.router.mint().0;
        let mut per: Vec<Vec<BatchWrite>> = vec![Vec::new(); n];
        // Per create, in input order: shard, 1-N depth, uid, structure node.
        let mut placed: Vec<(usize, u32, u64, bool)> = Vec::new();
        for w in writes {
            match w {
                BatchWrite::Create { value, near } => {
                    let (s, depth) = self.router.place(base + placed.len() as u64, near);
                    // Forward the hint only where it resolves on this
                    // shard (the real node or an existing ghost of it).
                    let near = near.and_then(|p| match self.router.to_local(p) {
                        Ok((ps, pl)) if ps == s => Some(pl),
                        _ => self.router.ghost_of(p, s),
                    });
                    placed.push((s, depth, value.attrs.unique_id, true));
                    per[s].push(BatchWrite::Create { value, near });
                }
                BatchWrite::Extra(value) => {
                    let (s, depth) = self.router.place(base + placed.len() as u64, None);
                    placed.push((s, depth, value.attrs.unique_id, false));
                    per[s].push(BatchWrite::Extra(value));
                }
                BatchWrite::SetHundred(oid, value) => {
                    let (s, l) = self.router.to_local(oid)?;
                    per[s].push(BatchWrite::SetHundred(l, value));
                }
                edge @ (BatchWrite::Child(a, b)
                | BatchWrite::Part(a, b)
                | BatchWrite::Ref(a, RefEdge { target: b, .. })) => {
                    let (sa, la) = self.router.to_local(a)?;
                    let (sb, lb) = self.router.to_local(b)?;
                    if sa == sb {
                        per[sa].push(relink(&edge, la, lb));
                    } else {
                        let ghost = |g: Oid, s: usize| {
                            self.router.ghost_of(g, s).ok_or_else(|| {
                                HmError::Backend(format!("no ghost of {g} on shard {s}"))
                            })
                        };
                        let (ghost_b, ghost_a) = (ghost(b, sa)?, ghost(a, sb)?);
                        per[sa].push(relink(&edge, la, ghost_b));
                        per[sb].push(relink(&edge, ghost_a, lb));
                    }
                }
            }
        }
        let (locals, sent) = self.send_writes(per);

        // Register the creates in id order, up to the first one a failed
        // shard leaves without a local id.
        let mut next = vec![0usize; n];
        let mut created = Vec::with_capacity(placed.len());
        for &(s, depth, uid, structure) in &placed {
            let Some(&local) = locals[s].get(next[s]) else {
                break;
            };
            next[s] += 1;
            let g = self.router.mint();
            self.router.register(g, s, local, depth, uid);
            self.router.nodes[s] += u64::from(structure);
            created.push(g);
        }
        sent?;
        if created.len() < placed.len() {
            return Err(HmError::Backend(format!(
                "shards returned {} ids for {} created nodes",
                created.len(),
                placed.len()
            )));
        }
        Ok(created)
    }
}
