//! Online subtree migration (shard rebalancing): an operation over the
//! router's placement map plus one request to a shard for each step.
//!
//! The protocol is two-step on the destination — an *inert* install
//! followed by an *activate*, the commit point — then an ownership flip
//! in the router and a retire on the sources. What a shard does with
//! each step (apply it once, or mirror it across a replica group) is the
//! shard's business.

use std::collections::{HashMap, HashSet};

use hypermodel::error::{HmError, Result};
use hypermodel::migrate::{NodeExport, MIGRATE_SLOT_BASE};
use hypermodel::model::Oid;
use hypermodel::store::HyperStore;

use crate::router::MapIds;
use crate::store::ShardedStore;
use crate::write::ghost_value;

impl<S: HyperStore + Send + 'static> ShardedStore<S> {
    /// Subtree migrations completed (ownership flipped) so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Create (once) a ghost stand-in for `global` on `shard`, so the
    /// shard can hold edges whose other end lives elsewhere.
    fn ensure_ghost(&mut self, global: Oid, shard: usize) -> Result<Oid> {
        if let Some(l) = self.router.ghost_of(global, shard) {
            return Ok(l);
        }
        self.router.to_local(global)?; // the real node must exist
        let value = ghost_value(global);
        let local = self.on_shard(shard, |sh| sh.insert_extra_node(&value))?;
        self.router.register_ghost(global, shard, local);
        Ok(local)
    }

    /// Map one source-shard-local endpoint of a migrating edge into the
    /// destination's id space: another node of the same batch becomes a
    /// slot reference, a node already living on the destination its
    /// real local there, anything else a ghost stand-in (created on
    /// demand).
    fn migrate_endpoint(
        &mut self,
        src: usize,
        l: Oid,
        slot_of: &HashMap<u64, usize>,
        dst: usize,
    ) -> Result<Oid> {
        let g = self.router.to_global(src, l)?;
        if let Some(&i) = slot_of.get(&g.0) {
            return Ok(Oid(MIGRATE_SLOT_BASE + i as u64));
        }
        let (os, ol) = self.router.to_local(g)?;
        if os == dst {
            return Ok(ol);
        }
        self.ensure_ghost(g, dst)
    }

    /// Migrate the 1-N subtree rooted at `root` onto shard `dst`,
    /// online: reads and writes against the old placement stay correct
    /// throughout. The batch is installed **inert** on the destination
    /// (invisible to scans and index lookups), activated in one step —
    /// the commit point — and only then does the router flip ownership
    /// (each node's directory entry names the destination) and retire
    /// the source records into ghost stand-ins.
    ///
    /// **Presumed old**: a failure or crash before activation aborts
    /// with ownership untouched — there is no durable mid-flight
    /// intent, so recovery has nothing to do and the subtree stays
    /// readable at its old placement (the migration analogue of 2PC's
    /// presumed abort). A failure *after* activation is reported, but
    /// the migration itself has committed: each source shard whose retire
    /// failed is marked down, whatever the error, and scans refuse until
    /// it is replaced or revived, which retries the retire first.
    ///
    /// Returns the number of nodes moved (0 when the subtree already
    /// lives wholly on `dst`).
    pub fn migrate_subtree(&mut self, root: Oid, dst: usize) -> Result<usize> {
        if dst >= self.router.shard_count() {
            return Err(HmError::InvalidArgument(format!(
                "destination shard {dst} out of range (have {})",
                self.router.shard_count()
            )));
        }
        self.check(dst)?;
        // The full 1-N closure, not counted as a touch (the rebalancer's
        // own bookkeeping must not inflate its traffic signal).
        let moved: Vec<Oid> = (self.subtree(root)?.into_iter())
            .filter(|&g| self.router.owner_of(g) != Some(dst))
            .collect();
        if moved.is_empty() {
            return Ok(0);
        }
        let slot_of: HashMap<u64, usize> =
            moved.iter().enumerate().map(|(i, &g)| (g.0, i)).collect();

        // Export every moved node from its current owner: one batched
        // request per source shard.
        let mut by_src: HashMap<usize, Vec<(usize, Oid)>> = HashMap::new();
        for (i, &g) in moved.iter().enumerate() {
            let (s, l) = self.router.to_local(g)?;
            by_src.entry(s).or_default().push((i, l));
        }
        let mut exports: Vec<Option<(usize, NodeExport)>> =
            (0..moved.len()).map(|_| None).collect();
        for (&src, items) in &by_src {
            let locals: Vec<Oid> = items.iter().map(|&(_, l)| l).collect();
            let batch = self.on_shard(src, |sh| sh.export_nodes(&locals))?;
            for (&(i, _), n) in items.iter().zip(batch) {
                exports[i] = Some((src, n));
            }
        }

        // Rewrite every edge endpoint into the destination's id space.
        // Remember which stand-ins already existed: ghosts minted below
        // belong to this migration and must be forgotten on abort.
        let ghosts_before: HashSet<u64> = self.router.ghost_globals(dst).into_iter().collect();
        let mut batch: Vec<NodeExport> = Vec::with_capacity(moved.len());
        for (i, e) in exports.into_iter().enumerate() {
            let Some((src, n)) = e else {
                return Err(HmError::Backend(
                    "migration export batch is missing a node".into(),
                ));
            };
            let reuse = self.router.ghost_of(moved[i], dst);
            let mut to_dst = |l| self.migrate_endpoint(src, l, &slot_of, dst);
            batch.push(NodeExport {
                value: n.value,
                in_structure: n.in_structure,
                parent: n.parent.map_ids(&mut to_dst)?,
                children: n.children.map_ids(&mut to_dst)?,
                parts: n.parts.map_ids(&mut to_dst)?,
                part_of: n.part_of.map_ids(&mut to_dst)?,
                refs_to: n.refs_to.map_ids(&mut to_dst)?,
                refs_from: n.refs_from.map_ids(&mut to_dst)?,
                reuse,
            });
        }
        let structural: Vec<bool> = batch.iter().map(|n| n.in_structure).collect();

        // Inert install: the records exist on the destination but stay
        // invisible to scans and index lookups.
        let locals = self.on_shard(dst, |sh| sh.install_nodes(&batch))?;

        // Activate: the commit point. Failure here aborts presumed-old.
        if let Err(e) = self.on_shard(dst, |sh| sh.activate_nodes(&locals)) {
            // Best-effort undo: retire the orphaned destination records,
            // so a partially-activated batch cannot double-report in
            // scans. Errors are swallowed — the destination may be the
            // very shard that just died, and its inert records are
            // invisible anyway.
            let _ = self.exec.run_here(dst, |sh| sh.retire_nodes(&locals));
            // Ghosts minted for this batch are referenced only by the
            // just-retired install — and if the destination died they
            // never existed durably. Forget them so a retry recreates
            // them instead of wiring edges to phantom locals.
            for g in self.router.ghost_globals(dst) {
                if !ghosts_before.contains(&g) {
                    self.router.unregister_ghost(Oid(g), dst);
                }
            }
            obs::incr("shard.rebalance.aborts", 1);
            return Err(e);
        }

        // Ownership flip: each directory entry now names the destination;
        // the promoted destination records stop being ghosts and the
        // superseded source records become them.
        for (i, (&g, &l)) in moved.iter().zip(&locals).enumerate() {
            let (src, _) = self.router.to_local(g)?;
            self.router.move_node(g, dst, l)?;
            if structural[i] {
                self.router.nodes[src] -= 1;
                self.router.nodes[dst] += 1;
            }
            self.migrated[src] += 1;
            self.migrated[dst] += 1;
        }
        self.migrations += 1;
        obs::incr("shard.rebalance.migrations", 1);
        obs::incr("shard.rebalance.moved_nodes", moved.len() as u64);

        // Retire the source records: deindexed and out of the scan
        // extent, they stay as the stand-ins other edges point at. A
        // source whose retire fails, however, still counts the moved
        // records in its scans: it is marked down, so that fan-outs
        // refuse instead of counting them twice, and keeps the ids for
        // the revival to retire.
        let mut failed = None;
        for (&src, items) in &by_src {
            let ls: Vec<Oid> = items.iter().map(|&(_, l)| l).collect();
            if let Err(e) = self.on_shard(src, |sh| sh.retire_nodes(&ls)) {
                self.mark_shard_down(src);
                self.unretired[src].extend(ls);
                failed.get_or_insert(e);
            }
        }
        failed.map_or(Ok(moved.len()), Err)
    }
}
