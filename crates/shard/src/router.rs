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

use std::collections::HashMap;

use hypermodel::error::{HmError, Result};
use hypermodel::model::Oid;

/// Ghost nodes get `uniqueId = GHOST_UID_BASE + global`, far above any
/// benchmark uid, so they never collide with real nodes inside a shard's
/// uid index.
pub const GHOST_UID_BASE: u64 = 1 << 48;

/// Longest forwarding chain a single directory entry may accumulate.
/// When a node's chain would exceed this, [`ShardRouter::move_node`]
/// path-compresses that entry in place (safe at any time: the chain
/// itself stays resolvable); full compaction that drops the chains is
/// [`ShardRouter::compact_forwards`], legal only after a quiesce.
pub const MAX_FORWARD_HOPS: u32 = 8;

/// One forwarding-table entry: where a superseded placement moved to,
/// stamped with the router epoch of the move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Forward {
    /// The shard the node now lives on (or the next hop of the chain).
    pub to_shard: usize,
    /// The node's local id there.
    pub to_local: Oid,
    /// Router epoch at which this hop was created (monotone).
    pub epoch: u64,
}

/// How global ids map to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// `splitmix64(global) % n`: uniform, ignores structure. Best balance,
    /// but every 1-N subtree is scattered across all shards.
    OidHash,
    /// Subtree affinity: nodes at 1-N depth ≤ `cut_depth` are hashed
    /// individually; deeper nodes inherit their parent's shard. Subtrees
    /// rooted at `cut_depth` therefore stay whole on one shard — the
    /// sharded analogue of the paper's §5.2 physical clustering, sized so
    /// the benchmark's level-3 closure starts land on subtree roots.
    SubtreeAffinity {
        /// Deepest 1-N level that is still hashed (root is depth 0).
        cut_depth: u32,
    },
}

impl Placement {
    /// The default affinity policy: the benchmark starts closures at
    /// level 3 (depth 2), so cutting at depth 2 keeps every closure
    /// start's subtree on a single shard.
    pub fn affinity() -> Placement {
        Placement::SubtreeAffinity { cut_depth: 2 }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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
    /// Forwarding table: a placement superseded by a migration, keyed by
    /// `(shard, local)`, pointing at where the node went. Entries chain
    /// when a node moves repeatedly without compaction.
    forwards: HashMap<(usize, u64), Forward>,
    /// Monotone version of the placement map, bumped by every
    /// [`move_node`](ShardRouter::move_node). Remote clients compare
    /// epochs carried in `Moved` responses to discard stale hints.
    epoch: u64,
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
            forwards: HashMap::new(),
            epoch: 0,
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
            Placement::SubtreeAffinity { cut_depth } => match parent {
                None => (hashed, 0),
                Some(p) => match self.lookup(p) {
                    None => (hashed, 0),
                    Some(e) => {
                        let depth = e.depth + 1;
                        if depth <= cut_depth {
                            (hashed, depth)
                        } else {
                            // Inherit the parent's *current* shard: a
                            // migrated subtree keeps growing at its new
                            // home, not its birthplace.
                            let (shard, _, _) = self.chase(e.shard, e.local);
                            (shard, depth)
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

    /// Follow the forwarding chain from a (possibly superseded)
    /// placement to the current one. Chains are acyclic by construction
    /// ([`move_node`](ShardRouter::move_node) deletes the back edge when
    /// a node returns to a former home), so the walk terminates; the
    /// guard only caps a corrupted table. Returns the final placement
    /// and the hop count.
    fn chase(&self, mut shard: usize, mut local: Oid) -> (usize, Oid, u32) {
        let mut hops = 0u32;
        while let Some(f) = self.forwards.get(&(shard, local.0)) {
            hops += 1;
            debug_assert!(
                hops as usize <= self.forwards.len(),
                "forwarding cycle at shard {shard} local {local}"
            );
            if hops as usize > self.forwards.len() {
                break;
            }
            shard = f.to_shard;
            local = f.to_local;
        }
        if hops > 0 {
            obs::incr("shard.rebalance.forward_hits", hops as u64);
        }
        (shard, local, hops)
    }

    /// The shard owning `global` (its real placement, never a ghost).
    pub fn owner_of(&self, global: Oid) -> Option<usize> {
        self.lookup(global).map(|e| {
            if self.forwards.is_empty() {
                e.shard
            } else {
                self.chase(e.shard, e.local).0
            }
        })
    }

    /// The node's 1-N depth as tracked from placement hints.
    pub fn depth_of(&self, global: Oid) -> Option<u32> {
        self.lookup(global).map(|e| e.depth)
    }

    /// Translate a global id to `(owning shard, local id)`, transparently
    /// redirecting through the forwarding table when the directory entry
    /// was superseded by a migration.
    pub fn to_local(&self, global: Oid) -> Result<(usize, Oid)> {
        let e = self.lookup(global).ok_or(HmError::NodeNotFound(global))?;
        if self.forwards.is_empty() {
            return Ok((e.shard, e.local));
        }
        let (shard, local, _) = self.chase(e.shard, e.local);
        Ok((shard, local))
    }

    /// Translate a shard's local id (real or ghost) back to global.
    pub fn to_global(&self, shard: usize, local: Oid) -> Result<Oid> {
        self.global_of[shard].get(&local.0).copied().ok_or_else(|| {
            HmError::Backend(format!("shard {shard} returned unknown local id {local}"))
        })
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

    // ---- migration / forwarding ---------------------------------------

    /// The placement-map version: bumped once per migrated node, never
    /// reset. Stale placement hints carry the epoch they were learned
    /// at, so holders can discard them on sight of a newer one.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of live forwarding-table entries (0 after compaction).
    pub fn forward_len(&self) -> usize {
        self.forwards.len()
    }

    /// Re-home `global` at `(dst_shard, dst_local)`. The superseded
    /// placement becomes a forwarding-table entry (so anything still
    /// holding it redirects transparently), the old record is recorded
    /// as the node's ghost stand-in on its former shard, and the router
    /// epoch advances. If the accumulated chain behind the node's
    /// directory entry exceeds [`MAX_FORWARD_HOPS`], the entry is
    /// path-compressed in place (always safe: the chain itself stays
    /// resolvable). Returns the new epoch.
    pub fn move_node(&mut self, global: Oid, dst_shard: usize, dst_local: Oid) -> Result<u64> {
        let (src_shard, src_local) = self.to_local(global)?;
        if src_shard == dst_shard {
            return Err(HmError::InvalidArgument(format!(
                "{global} already lives on shard {dst_shard}"
            )));
        }
        self.epoch += 1;
        self.forwards.insert(
            (src_shard, src_local.0),
            Forward {
                to_shard: dst_shard,
                to_local: dst_local,
                epoch: self.epoch,
            },
        );
        // A node returning to a former home would close a cycle through
        // its own old forward; the new placement is current again.
        self.forwards.remove(&(dst_shard, dst_local.0));
        self.global_of[dst_shard].insert(dst_local.0, global);
        // The promoted destination record is no longer a ghost there;
        // the superseded source record becomes one.
        self.ghosts[dst_shard].remove(&global.0);
        self.ghosts[src_shard].insert(global.0, src_local);

        let idx = (global.0 - 1) as usize;
        let e = self.entries[idx];
        let (s, l, hops) = self.chase(e.shard, e.local);
        if hops > MAX_FORWARD_HOPS {
            self.entries[idx].shard = s;
            self.entries[idx].local = l;
        }
        Ok(self.epoch)
    }

    /// Path-compress every directory entry to its final placement and
    /// drop the forwarding chains. Only legal after a quiesce point — no
    /// request in flight may still hold a pre-compaction placement.
    /// Returns the number of chain entries dropped.
    pub fn compact_forwards(&mut self) -> usize {
        if self.forwards.is_empty() {
            return 0;
        }
        for i in 0..self.entries.len() {
            let e = self.entries[i];
            let (s, l, hops) = self.chase(e.shard, e.local);
            if hops > 0 {
                self.entries[i].shard = s;
                self.entries[i].local = l;
            }
        }
        let dropped = self.forwards.len();
        self.forwards.clear();
        dropped
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
    fn moves_redirect_stale_placements_and_bump_the_epoch() {
        let mut r = ShardRouter::new(3, Placement::OidHash);
        let g = r.mint();
        let (s0, _) = r.place(g.0, None);
        r.register(g, s0, Oid(10), 0, 1);
        assert_eq!(r.epoch(), 0);

        let d1 = (s0 + 1) % 3;
        let e1 = r.move_node(g, d1, Oid(20)).unwrap();
        assert_eq!(e1, 1);
        // Current placement is the destination; the node is no longer
        // "owned" at its old local (retired record = ghost stand-in).
        assert_eq!(r.to_local(g).unwrap(), (d1, Oid(20)));
        assert_eq!(r.owner_of(g), Some(d1));
        assert!(!r.is_owned_local(s0, Oid(10)).unwrap());
        assert!(r.is_owned_local(d1, Oid(20)).unwrap());
        // The stale local still translates back and the ghost map knows
        // the stand-in.
        assert_eq!(r.to_global(s0, Oid(10)).unwrap(), g);
        assert_eq!(r.ghost_of(g, s0), Some(Oid(10)));

        // A second hop chains; epochs stay strictly monotone.
        let d2 = (s0 + 2) % 3;
        let e2 = r.move_node(g, d2, Oid(30)).unwrap();
        assert!(e2 > e1);
        assert_eq!(r.to_local(g).unwrap(), (d2, Oid(30)));
        assert_eq!(r.forward_len(), 2);

        // Moving to the current shard is rejected.
        assert!(r.move_node(g, d2, Oid(31)).is_err());
    }

    #[test]
    fn compaction_drops_chains_without_changing_resolution() {
        let mut r = ShardRouter::new(4, Placement::OidHash);
        let g = r.mint();
        let (s0, _) = r.place(g.0, None);
        r.register(g, s0, Oid(10), 0, 1);
        let mut local = 10u64;
        let mut shard = s0;
        for _ in 0..3 {
            shard = (shard + 1) % 4;
            local += 10;
            r.move_node(g, shard, Oid(local)).unwrap();
        }
        assert_eq!(r.forward_len(), 3);
        let before = r.to_local(g).unwrap();
        let epoch_before = r.epoch();
        assert_eq!(r.compact_forwards(), 3);
        assert_eq!(r.forward_len(), 0);
        assert_eq!(r.to_local(g).unwrap(), before);
        assert_eq!(r.epoch(), epoch_before, "compaction is not a move");
        assert_eq!(r.compact_forwards(), 0);
    }

    #[test]
    fn moving_back_home_reuses_the_ghost_and_breaks_the_cycle() {
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
        // The old outgoing forward was deleted, not chained into a loop.
        assert_eq!(r.forward_len(), 1);
        assert_eq!(r.ghost_of(g, s0), None, "promoted record is not a ghost");
        assert_eq!(r.ghost_of(g, other), Some(Oid(20)));
    }

    #[test]
    fn long_chains_are_path_compressed_at_the_bound() {
        let mut r = ShardRouter::new(2, Placement::OidHash);
        let g = r.mint();
        let (s0, _) = r.place(g.0, None);
        r.register(g, s0, Oid(1), 0, 1);
        // Bounce the node back and forth with fresh locals each time so
        // the chain grows past MAX_FORWARD_HOPS.
        let mut shard = s0;
        for i in 0..(MAX_FORWARD_HOPS + 4) as u64 {
            shard = 1 - shard;
            r.move_node(g, shard, Oid(100 + i)).unwrap();
        }
        // Resolution stays correct and the per-entry chain was clamped.
        let (s, l) = r.to_local(g).unwrap();
        assert_eq!(s, shard);
        assert_eq!(l, Oid(100 + (MAX_FORWARD_HOPS + 3) as u64));
        let e = r.lookup(g).unwrap();
        let (_, _, hops) = r.chase(e.shard, e.local);
        assert!(
            hops <= MAX_FORWARD_HOPS,
            "entry chain {hops} exceeds the bound"
        );
    }
}
