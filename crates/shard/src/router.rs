//! Deterministic placement and the global ↔ local object-id directory.
//!
//! The router owns the **global** object-id space. Every node created
//! through a [`crate::ShardedStore`] gets a sequential global id, is
//! placed on exactly one shard by the [`Placement`] policy, and has its
//! backend-assigned local id recorded here. All results returned from a
//! shard are translated back to global ids before the caller sees them,
//! so the sharded deployment presents one uniform id space.
//!
//! Cross-shard relationship endpoints are represented by **ghost nodes**:
//! when an edge's two ends live on different shards, each shard stores a
//! lightweight stand-in node for the remote end (created via
//! `insert_extra_node`, so ghosts never appear in sequential scans). The
//! directory maps ghost locals back to the real global id, and ownership
//! (`owner_of`) distinguishes a shard's real nodes from its ghosts when
//! fan-out results are merged.
//!
//! A migration ([`ShardRouter::move_node`]) rewrites the node's directory
//! entry to name its new shard and local id, and registers the retired
//! source record as the node's ghost there. The entry is the only record
//! of where a node lives: every [`crate::ShardedStore`] call takes
//! `&mut self`, so no request can still hold the placement a migration
//! replaced, and nothing has to redirect one.

use std::collections::HashMap;

use hypermodel::error::{HmError, Result};
use hypermodel::model::{Oid, RefEdge};
use hypermodel::protocol::Response;
use hypermodel::store::Reached;

/// Ghost nodes get `uniqueId = GHOST_UID_BASE + global`, far above any
/// benchmark uid, so they never collide with real nodes inside a shard's
/// uid index.
pub const GHOST_UID_BASE: u64 = 1 << 48;

/// The deepest 1-N level [`Placement::SubtreeAffinity`] still hashes
/// (the root is depth 0): the benchmark starts closures at level 3
/// (depth 2), so cutting at depth 2 keeps every closure start's subtree
/// on a single shard.
pub const CUT_DEPTH: u32 = 2;

/// How global ids map to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// `splitmix64(global) % n`: uniform, ignores structure. Best balance,
    /// but every 1-N subtree is scattered across all shards.
    OidHash,
    /// Subtree affinity: nodes at 1-N depth ≤ [`CUT_DEPTH`] are hashed
    /// individually; deeper nodes inherit their parent's shard. Subtrees
    /// rooted at [`CUT_DEPTH`] therefore stay whole on one shard — the
    /// sharded analogue of the paper's §5.2 physical clustering, sized so
    /// the benchmark's level-3 closure starts land on subtree roots.
    SubtreeAffinity,
}

impl Placement {
    /// The affinity policy, [`Placement::SubtreeAffinity`].
    pub fn affinity() -> Placement {
        Placement::SubtreeAffinity
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A shard's answer whose node ids can be rewritten one by one: back to
/// global ids ([`ShardRouter::globals`]), or into the destination's id
/// space when a subtree migrates. Scalars, text and bitmaps name no node
/// and pass through unchanged.
pub(crate) trait MapIds: Sized {
    /// `self` with every node id `o` in it replaced by `f(o)`, in order.
    fn map_ids(self, f: &mut impl FnMut(Oid) -> Result<Oid>) -> Result<Self>;
}

impl MapIds for Oid {
    fn map_ids(self, f: &mut impl FnMut(Oid) -> Result<Oid>) -> Result<Oid> {
        f(self)
    }
}

impl MapIds for RefEdge {
    fn map_ids(self, f: &mut impl FnMut(Oid) -> Result<Oid>) -> Result<RefEdge> {
        Ok(RefEdge {
            target: f(self.target)?,
            ..self
        })
    }
}

impl MapIds for Reached {
    fn map_ids(self, f: &mut impl FnMut(Oid) -> Result<Oid>) -> Result<Reached> {
        Ok(Reached {
            node: f(self.node)?,
            list: self.list.map_ids(f)?,
            ..self
        })
    }
}

impl<T: MapIds> MapIds for Option<T> {
    fn map_ids(self, f: &mut impl FnMut(Oid) -> Result<Oid>) -> Result<Option<T>> {
        self.map(|v| v.map_ids(f)).transpose()
    }
}

impl<T: MapIds> MapIds for Vec<T> {
    fn map_ids(self, f: &mut impl FnMut(Oid) -> Result<Oid>) -> Result<Vec<T>> {
        self.into_iter().map(|v| v.map_ids(f)).collect()
    }
}

/// Every answer a shard gives over the one call boundary: each variant
/// that carries node ids has them rewritten, the others pass through.
impl MapIds for Response {
    fn map_ids(self, f: &mut impl FnMut(Oid) -> Result<Oid>) -> Result<Response> {
        Ok(match self {
            Response::Oid(o) => Response::Oid(f(o)?),
            Response::OptOid(o) => Response::OptOid(o.map_ids(f)?),
            Response::Oids(v) => Response::Oids(v.map_ids(f)?),
            Response::Edges(v) => Response::Edges(v.map_ids(f)?),
            Response::Reached(v) => Response::Reached(v.map_ids(f)?),
            Response::Pairs(v) => Response::Pairs(
                v.into_iter()
                    .map(|(o, d)| Ok((f(o)?, d)))
                    .collect::<Result<_>>()?,
            ),
            other => other,
        })
    }
}

/// Per-global-id record: owning shard, local id there, and 1-N depth.
#[derive(Debug, Clone, Copy)]
struct Entry {
    shard: usize,
    local: Oid,
    depth: u32,
}

/// The placement policy plus every translation table of a sharded store.
#[derive(Debug)]
pub struct ShardRouter {
    n: usize,
    placement: Placement,
    /// Global ids are minted sequentially from 1; `entries[g - 1]`.
    entries: Vec<Entry>,
    /// Per shard: backend-local id → global id. Ghost locals map to the
    /// *real* node's global id (whose owner is a different shard).
    global_of: Vec<HashMap<u64, Oid>>,
    /// Per shard: global id → ghost local id, for nodes ghosted there.
    ghosts: Vec<HashMap<u64, Oid>>,
    /// `uniqueId` → global id, for routing `lookup_unique`.
    uid_to_global: HashMap<u64, Oid>,
    /// Structure nodes placed per shard (balance statistic).
    pub nodes: Vec<u64>,
    /// Primitive requests issued per shard (skew statistic).
    pub requests: Vec<u64>,
}

impl ShardRouter {
    /// A router over `n` shards with the given placement policy.
    pub fn new(n: usize, placement: Placement) -> ShardRouter {
        assert!(n > 0, "at least one shard required");
        ShardRouter {
            n,
            placement,
            entries: Vec::new(),
            global_of: vec![HashMap::new(); n],
            ghosts: vec![HashMap::new(); n],
            uid_to_global: HashMap::new(),
            nodes: vec![0; n],
            requests: vec![0; n],
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.n
    }

    /// Choose a shard for the next node: `parent` is the placement hint
    /// (the future 1-N parent), already placed. Returns the shard and the
    /// node's 1-N depth.
    pub fn place(&self, global: u64, parent: Option<Oid>) -> (usize, u32) {
        let hashed = (splitmix64(global) % self.n as u64) as usize;
        match self.placement {
            Placement::OidHash => {
                let depth = parent.map_or(0, |p| self.depth_of(p).map_or(0, |d| d + 1));
                (hashed, depth)
            }
            Placement::SubtreeAffinity => match parent {
                None => (hashed, 0),
                Some(p) => match self.lookup(p) {
                    None => (hashed, 0),
                    Some(e) => {
                        let depth = e.depth + 1;
                        if depth <= CUT_DEPTH {
                            (hashed, depth)
                        } else {
                            // Inherit the parent's *current* shard: a
                            // migrated subtree keeps growing at its new
                            // home, not its birthplace.
                            (e.shard, depth)
                        }
                    }
                },
            },
        }
    }

    /// Mint the next global id (sequential from 1).
    pub fn mint(&mut self) -> Oid {
        Oid(self.entries.len() as u64 + 1)
    }

    /// Record a newly created node. `global` must be the id just minted.
    pub fn register(&mut self, global: Oid, shard: usize, local: Oid, depth: u32, uid: u64) {
        debug_assert_eq!(global.0, self.entries.len() as u64 + 1);
        self.entries.push(Entry {
            shard,
            local,
            depth,
        });
        self.global_of[shard].insert(local.0, global);
        self.uid_to_global.insert(uid, global);
    }

    /// Record a ghost of `global` on `shard` with backend-local id
    /// `local`. The ghost's local id translates back to the real node.
    pub fn register_ghost(&mut self, global: Oid, shard: usize, local: Oid) {
        self.ghosts[shard].insert(global.0, local);
        self.global_of[shard].insert(local.0, global);
    }

    /// The ghost of `global` on `shard`, if one was created.
    pub fn ghost_of(&self, global: Oid, shard: usize) -> Option<Oid> {
        self.ghosts[shard].get(&global.0).copied()
    }

    /// Every global with a ghost stand-in on `shard` — abort
    /// bookkeeping for [`ShardedStore::migrate_subtree`], which must
    /// forget the stand-ins a failed migration minted.
    ///
    /// [`ShardedStore::migrate_subtree`]: crate::ShardedStore::migrate_subtree
    pub fn ghost_globals(&self, shard: usize) -> Vec<u64> {
        self.ghosts[shard].keys().copied().collect()
    }

    /// Drop the ghost registration of `global` on `shard`. Used when a
    /// migration aborts: stand-ins minted for the failed batch were
    /// never referenced by anything live (the inert install is retired)
    /// and, if the destination died, never existed durably — a retry
    /// must recreate them rather than wire edges to phantom locals.
    /// Returns the dropped local, if a ghost was registered.
    pub fn unregister_ghost(&mut self, global: Oid, shard: usize) -> Option<Oid> {
        let local = self.ghosts[shard].remove(&global.0)?;
        self.global_of[shard].remove(&local.0);
        Some(local)
    }

    fn lookup(&self, global: Oid) -> Option<Entry> {
        let idx = global.0.checked_sub(1)? as usize;
        self.entries.get(idx).copied()
    }

    /// The shard owning `global` (its real placement, never a ghost).
    pub fn owner_of(&self, global: Oid) -> Option<usize> {
        self.lookup(global).map(|e| e.shard)
    }

    /// The node's 1-N depth as tracked from placement hints.
    pub fn depth_of(&self, global: Oid) -> Option<u32> {
        self.lookup(global).map(|e| e.depth)
    }

    /// Translate a global id to `(owning shard, local id)`.
    pub fn to_local(&self, global: Oid) -> Result<(usize, Oid)> {
        let e = self.lookup(global).ok_or(HmError::NodeNotFound(global))?;
        Ok((e.shard, e.local))
    }

    /// Translate a shard's local id (real or ghost) back to global.
    pub fn to_global(&self, shard: usize, local: Oid) -> Result<Oid> {
        self.global_of[shard].get(&local.0).copied().ok_or_else(|| {
            HmError::Backend(format!("shard {shard} returned unknown local id {local}"))
        })
    }

    /// `answer` from `shard` with each of its local ids (real or ghost)
    /// translated back to global.
    pub(crate) fn globals<T: MapIds>(&self, shard: usize, answer: T) -> Result<T> {
        answer.map_ids(&mut |local| self.to_global(shard, local))
    }

    /// Whether `local` on `shard` is that shard's *own* node under its
    /// **canonical** placement — not a ghost of a node owned elsewhere,
    /// and not a record retired by a migration away. Used to filter
    /// fan-out results so no node reports from two placements.
    pub fn is_owned_local(&self, shard: usize, local: Oid) -> Result<bool> {
        let global = self.to_global(shard, local)?;
        Ok(self.to_local(global)? == (shard, local))
    }

    /// Route `uniqueId` to the owning global id.
    pub fn global_for_uid(&self, uid: u64) -> Result<Oid> {
        self.uid_to_global
            .get(&uid)
            .copied()
            .ok_or(HmError::UniqueIdNotFound(uid))
    }

    // ---- migration -----------------------------------------------------

    /// Re-home `global` at `(dst_shard, dst_local)`: its directory entry
    /// now names the destination, the promoted destination record stops
    /// being a ghost there, and the superseded source record becomes the
    /// node's ghost stand-in on its former shard.
    pub fn move_node(&mut self, global: Oid, dst_shard: usize, dst_local: Oid) -> Result<()> {
        let (src_shard, src_local) = self.to_local(global)?;
        if src_shard == dst_shard {
            return Err(HmError::InvalidArgument(format!(
                "{global} already lives on shard {dst_shard}"
            )));
        }
        let idx = (global.0 - 1) as usize;
        if let Some(e) = self.entries.get_mut(idx) {
            e.shard = dst_shard;
            e.local = dst_local;
        }
        self.global_of[dst_shard].insert(dst_local.0, global);
        self.ghosts[dst_shard].remove(&global.0);
        self.ghosts[src_shard].insert(global.0, src_local);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oid_hash_spreads_and_is_deterministic() {
        let mut r = ShardRouter::new(4, Placement::OidHash);
        let mut counts = [0usize; 4];
        for i in 0..1000 {
            let g = r.mint();
            let (s, d) = r.place(g.0, None);
            assert_eq!(d, 0);
            counts[s] += 1;
            r.register(g, s, Oid(i + 1), d, i + 1);
        }
        // splitmix64 spreads ~uniformly; allow generous slack.
        for c in counts {
            assert!((150..=350).contains(&c), "skewed: {counts:?}");
        }
        let r2 = ShardRouter::new(4, Placement::OidHash);
        assert_eq!(
            r2.place(17, None).0,
            ShardRouter::new(4, Placement::OidHash).place(17, None).0
        );
    }

    #[test]
    fn affinity_keeps_deep_nodes_with_parent() {
        let mut r = ShardRouter::new(4, Placement::affinity());
        // Chain: depth 0,1,2 hashed; depth 3+ inherit.
        let mut parent: Option<Oid> = None;
        let mut shard_at_depth = Vec::new();
        for uid in 1..=6u64 {
            let g = r.mint();
            let (s, d) = r.place(g.0, parent);
            r.register(g, s, Oid(uid), d, uid);
            shard_at_depth.push((d, s));
            parent = Some(g);
        }
        assert_eq!(
            shard_at_depth.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 5]
        );
        let anchor = shard_at_depth[2].1; // depth-2 subtree root
        for &(d, s) in &shard_at_depth[3..] {
            assert_eq!(s, anchor, "depth {d} escaped its subtree shard");
        }
    }

    #[test]
    fn translation_round_trips_and_ghosts_are_not_owned() {
        let mut r = ShardRouter::new(2, Placement::OidHash);
        let g1 = r.mint();
        let (s1, _) = r.place(g1.0, None);
        r.register(g1, s1, Oid(100), 0, 1);
        assert_eq!(r.to_local(g1).unwrap(), (s1, Oid(100)));
        assert_eq!(r.to_global(s1, Oid(100)).unwrap(), g1);
        assert!(r.is_owned_local(s1, Oid(100)).unwrap());

        let other = 1 - s1;
        r.register_ghost(g1, other, Oid(7));
        assert_eq!(r.ghost_of(g1, other), Some(Oid(7)));
        assert_eq!(r.to_global(other, Oid(7)).unwrap(), g1);
        assert!(!r.is_owned_local(other, Oid(7)).unwrap());

        assert!(r.to_local(Oid(999)).is_err());
        assert!(r.global_for_uid(42).is_err());
        assert_eq!(r.global_for_uid(1).unwrap(), g1);
    }

    #[test]
    fn a_move_rewrites_the_directory_entry_and_ghosts_the_source() {
        let mut r = ShardRouter::new(3, Placement::OidHash);
        let g = r.mint();
        let (s0, _) = r.place(g.0, None);
        r.register(g, s0, Oid(10), 0, 1);

        let d1 = (s0 + 1) % 3;
        r.move_node(g, d1, Oid(20)).unwrap();
        // Current placement is the destination; the node is no longer
        // "owned" at its old local (retired record = ghost stand-in).
        assert_eq!(r.to_local(g).unwrap(), (d1, Oid(20)));
        assert_eq!(r.owner_of(g), Some(d1));
        assert!(!r.is_owned_local(s0, Oid(10)).unwrap());
        assert!(r.is_owned_local(d1, Oid(20)).unwrap());
        // The old local still translates back and the ghost map knows
        // the stand-in.
        assert_eq!(r.to_global(s0, Oid(10)).unwrap(), g);
        assert_eq!(r.ghost_of(g, s0), Some(Oid(10)));

        let d2 = (s0 + 2) % 3;
        r.move_node(g, d2, Oid(30)).unwrap();
        assert_eq!(r.to_local(g).unwrap(), (d2, Oid(30)));
        assert!(!r.is_owned_local(d1, Oid(20)).unwrap());

        // Moving to the current shard is rejected.
        assert!(r.move_node(g, d2, Oid(31)).is_err());
    }

    #[test]
    fn moving_back_home_reuses_the_ghost() {
        let mut r = ShardRouter::new(2, Placement::OidHash);
        let g = r.mint();
        let (s0, _) = r.place(g.0, None);
        r.register(g, s0, Oid(10), 0, 1);
        let other = 1 - s0;
        r.move_node(g, other, Oid(20)).unwrap();
        // Back home, promoting the retired record (same local id).
        r.move_node(g, s0, Oid(10)).unwrap();
        assert_eq!(r.to_local(g).unwrap(), (s0, Oid(10)));
        assert!(r.is_owned_local(s0, Oid(10)).unwrap());
        assert!(!r.is_owned_local(other, Oid(20)).unwrap());
        assert_eq!(r.ghost_of(g, s0), None, "promoted record is not a ghost");
        assert_eq!(r.ghost_of(g, other), Some(Oid(20)));
    }
}
