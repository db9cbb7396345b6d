//! [`ShardedStore`]: one `HyperStore` over N shard backends — health,
//! routing and fan-out.
//!
//! Every catalogue operation that addresses one node (a `store_ops!` row
//! with an `about` column, closures aside) is generated as a *point
//! route*: it runs on the owning shard on the calling thread — no
//! executor hop — and its answer and errors are mapped back to global
//! ids. Range lookups and sequential scans fan out to every shard and
//! merge. A fan-out (`scatter`) runs the first involved shard's share
//! on the calling thread and the others in parallel on their persistent
//! workers ([`exec::ShardExecutor`], one bounded-channel round trip
//! each), so a fan-out with one involved shard makes no hop at all. The
//! closures are level-batched in `crate::closure`, writes are
//! `crate::write`.
//!
//! **Invariant: a healthy shard has no queued job between
//! `ShardedStore` calls.** Every call joins every job it queued before
//! returning. The one exception is a 2PC prepare that missed its
//! deadline: its shard is marked dead, and the abort queued behind it
//! drains before [`ShardedStore::revive_shard`] — whose probe goes
//! through the same queue — can re-admit the shard. Work on the calling
//! thread (the point path, a fan-out's inline share) serializes with a
//! running job through the shard mutex but cannot wait for a queued
//! one. It only ever runs on healthy shards, and the invariant is why
//! it never has to wait.
//!
//! The store knows nothing about what a shard *is*. Replication is a
//! shard that happens to be a [`ReplicaGroup`]
//! ([`ShardedStore::new_replicated`]); the commit protocol lives in
//! [`crate::coordinator`], subtree migration in [`crate::migrate`].

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use hypermodel::error::{HmError, Result};
use hypermodel::model::{NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::store::{BatchWrite, HyperStore, ShardLoad};
use hypermodel::Bitmap;

use exec::{ExecError, JobHandle, ShardExecutor};

use crate::coordinator::{CommitLog, Coordinator};
use crate::replica::{self, ReplicaGroup};
use crate::router::{MapIds, Placement, ShardRouter};

/// What the executor hands back for one shard job: the shard's own
/// answer, or the reason the job produced none.
pub(crate) type ExecResult<T> = std::result::Result<Result<T>, ExecError>;

/// How fan-out reads (range lookups, sequential scans) behave when a
/// shard is unavailable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanPolicy {
    /// Fail atomically: any dead shard makes the whole scan return
    /// [`HmError::ShardUnavailable`]. The default.
    #[default]
    FailFast,
    /// Complete over the healthy shards and mark the result partial —
    /// check [`ShardedStore::last_scan_was_partial`] and
    /// [`ShardedStore::last_scan_skipped`] for which shards were left out.
    Partial,
}

/// A sharded `HyperStore` over `S` backends.
pub struct ShardedStore<S> {
    /// Owns the shard backends; one persistent worker thread each.
    pub(crate) exec: ShardExecutor<S>,
    pub(crate) router: ShardRouter,
    name: &'static str,
    /// `health[s]` is false once shard `s` stopped answering (crash,
    /// timeout, lost connection, poisoned worker): point operations
    /// routed there fail fast and fan-outs consult the [`ScanPolicy`]
    /// until [`ShardedStore::revive_shard`] or
    /// [`ShardedStore::replace_shard`] re-admits it.
    health: Vec<bool>,
    scan_policy: ScanPolicy,
    last_scan_partial: bool,
    /// Shards skipped by the most recent fan-out read under
    /// [`ScanPolicy::Partial`].
    last_scan_skipped: Vec<usize>,
    /// The commit protocol: single-phase until a log is attached.
    coordinator: Coordinator,
    /// Renders what the shards themselves survived, summed over all of
    /// them, for the resilience line; set by the constructor that knows
    /// the shard type ([`ShardedStore::new_replicated`]).
    shard_summary: Option<fn(&ShardExecutor<S>) -> String>,
    /// Per shard: nodes migrated onto or off it by
    /// [`ShardedStore::migrate_subtree`].
    pub(crate) migrated: Vec<u64>,
    /// Subtree migrations completed (ownership flipped).
    pub(crate) migrations: u64,
    /// Closure executions per start node since the last
    /// [`ShardedStore::reset_touches`] — the traffic signal the
    /// rebalancer uses to pick a hot subtree.
    touches: HashMap<u64, u64>,
}

fn unavailable(shard: usize, msg: String) -> HmError {
    HmError::ShardUnavailable { shard, msg }
}

fn marked_down(shard: usize) -> HmError {
    unavailable(shard, "shard marked unavailable".into())
}

/// Classify what shard `s` answered to one job. A job that produced no
/// answer (missed deadline, poisoned or lost worker) or failed
/// transiently means the shard stopped answering: it is marked dead and
/// the error rewrapped as the structured [`HmError::ShardUnavailable`].
/// A `ShardUnavailable` of the shard's *own* is the verdict of a
/// deployment that tracks its own health and already fails fast (a
/// replica group with no mirror left, or refusing one quorum write): it
/// is relabelled with the logical shard index and passed on without
/// writing the whole shard off.
pub(crate) fn note_exec<T>(health: &mut [bool], s: usize, r: ExecResult<T>) -> Result<T> {
    let msg = match r {
        Ok(Ok(answer)) => return Ok(answer),
        Ok(Err(HmError::ShardUnavailable { msg, .. })) => return Err(unavailable(s, msg)),
        Ok(Err(e)) if !e.is_transient() => return Err(e),
        Err(ExecError::Shutdown) => return Err(ExecError::Shutdown.into_hm()),
        Ok(Err(e)) => e.to_string(),
        Err(e) => e.to_string(),
    };
    health[s] = false;
    Err(unavailable(s, msg))
}

/// Run `f` on each shard that has work (`Some`); `out[s]` is `None` for
/// shards without. The first healthy shard with work runs on the calling
/// thread ([`ShardExecutor::run_here`], with a worker job's panic
/// isolation) after the others are queued on their workers, so the
/// caller works instead of idling in the join, and a fan-out with one
/// involved shard makes no queue hop at all. A shard marked dead in
/// `health` may still have a job queued (the abort behind a missed
/// prepare), so its share always keeps FIFO order on its worker.
pub(crate) fn scatter<S, W, T, F>(
    exec: &ShardExecutor<S>,
    health: &[bool],
    work: Vec<Option<W>>,
    f: F,
) -> Vec<Option<ExecResult<T>>>
where
    W: Send + 'static,
    T: Send + 'static,
    F: Fn(&mut S, W) -> Result<T> + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut here = None;
    let mut batch = exec.batch();
    for (s, w) in work.into_iter().enumerate() {
        let Some(w) = w else { continue };
        if here.is_none() && health[s] {
            here = Some((s, w));
        } else {
            let f = Arc::clone(&f);
            batch.spawn(s, move |sh| f(sh, w));
        }
    }
    let mut out: Vec<Option<ExecResult<T>>> = (0..exec.shard_count()).map(|_| None).collect();
    if let Some((s, w)) = here {
        out[s] = Some(exec.run_here(s, |sh| f(sh, w)));
    }
    for (s, r) in batch.join() {
        out[s] = Some(r);
    }
    out
}

impl<S: HyperStore + Send + 'static> ShardedStore<S> {
    /// Shard across `shards` with the given placement policy. `name` is
    /// the backend name reported to the harness (e.g. `"sharded-mem"`).
    pub fn new(shards: Vec<S>, placement: Placement, name: &'static str) -> ShardedStore<S> {
        let n = shards.len();
        // Pre-register the 2PC and rebalancing outcome counters so a
        // metrics scrape of a deployment that never aborted (or never
        // migrated) still exports them at zero instead of omitting the
        // keys.
        if obs::enabled() {
            let reg = obs::registry();
            reg.counter("shard.2pc.prepared");
            reg.counter("shard.2pc.committed");
            reg.counter("shard.2pc.aborted");
            reg.counter("shard.rebalance.migrations");
            reg.counter("shard.rebalance.moved_nodes");
            reg.counter("shard.rebalance.aborts");
            reg.gauge("shard.load.imbalance");
        }
        ShardedStore {
            exec: ShardExecutor::new(shards),
            router: ShardRouter::new(n, placement),
            name,
            health: vec![true; n],
            scan_policy: ScanPolicy::default(),
            last_scan_partial: false,
            last_scan_skipped: Vec::new(),
            coordinator: Coordinator::new(n),
            shard_summary: None,
            migrated: vec![0; n],
            migrations: 0,
            touches: HashMap::new(),
        }
    }

    /// Enable crash-safe cross-shard commit: [`HyperStore::commit`]
    /// becomes two-phase, with the decision record durably logged at
    /// `path` before any shard is told to commit. After a crash,
    /// [`crate::coordinator::recover_sharded`] resolves in-doubt shards
    /// against this log.
    pub fn with_commit_log(mut self, path: &Path) -> Result<ShardedStore<S>> {
        self.coordinator.attach(CommitLog::open(path)?);
        Ok(self)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.router.shard_count()
    }

    /// Per-shard health: `false` once a shard stopped answering.
    pub fn health(&self) -> &[bool] {
        &self.health
    }

    /// Administratively mark a shard unavailable (tests, drain).
    pub fn mark_shard_down(&mut self, shard: usize) {
        self.health[shard] = false;
    }

    /// Re-admit a shard previously marked dead, e.g. after
    /// [`crate::coordinator::recover_sharded`] repaired its backend:
    /// probes it with a cheap scan before flipping health back. Refuses
    /// while the executor still flags the shard poisoned by a panic
    /// (swap the backend with [`ShardedStore::replace_shard`] first).
    ///
    /// The probe goes through the shard's worker queue, so it runs after
    /// every job still queued there — the abort behind a prepare that
    /// missed its deadline — and the shard is healthy again only once
    /// its queue is empty, as the module invariant requires.
    pub fn revive_shard(&mut self, shard: usize) -> Result<()> {
        if self.exec.is_poisoned(shard).map_err(ExecError::into_hm)? {
            let msg = "shard worker poisoned by a panic; replace the backend first";
            return Err(unavailable(shard, msg.into()));
        }
        self.exec
            .submit(shard, |sh| sh.seq_scan_ten())
            .and_then(JobHandle::wait)
            .map_err(ExecError::into_hm)??;
        self.health[shard] = true;
        Ok(())
    }

    /// Swap in a replacement backend for `shard` (e.g. a store reopened
    /// by recovery), clearing the executor's poison flag and re-admitting
    /// the shard. Returns the previous backend.
    pub fn replace_shard(&mut self, shard: usize, store: S) -> Result<S> {
        let old = self
            .exec
            .replace_shard(shard, store)
            .map_err(ExecError::into_hm)?;
        self.health[shard] = true;
        Ok(old)
    }

    /// Choose how fan-out reads treat dead shards.
    pub fn set_scan_policy(&mut self, policy: ScanPolicy) {
        self.scan_policy = policy;
    }

    /// The current fan-out degradation policy.
    pub fn scan_policy(&self) -> ScanPolicy {
        self.scan_policy
    }

    /// True when the most recent fan-out read skipped a dead shard
    /// under [`ScanPolicy::Partial`].
    pub fn last_scan_was_partial(&self) -> bool {
        self.last_scan_partial
    }

    /// Shard ids skipped by the most recent fan-out read under
    /// [`ScanPolicy::Partial`] — which parts of a partial result are
    /// missing, for attribution in degraded-mode reports.
    pub fn last_scan_skipped(&self) -> &[usize] {
        &self.last_scan_skipped
    }

    /// Cross-shard transactions aborted in phase one so far.
    pub fn commit_aborts(&self) -> u64 {
        self.coordinator.aborts
    }

    /// Deadline for the parallel 2PC prepare fan-out. A shard that
    /// misses it counts as a vote to abort (its prepare keeps running
    /// on its worker; the abort is queued behind it in FIFO order).
    pub fn set_prepare_timeout(&mut self, timeout: Duration) {
        self.coordinator.prepare_timeout = timeout;
    }

    /// Checkpoint the commit log once it holds `every` decision records
    /// (the log drops decisions every shard has acknowledged).
    pub fn set_checkpoint_interval(&mut self, every: usize) {
        self.coordinator.checkpoint_after = every.max(1);
    }

    /// The txid the commit log has been truncated through, if 2PC is on.
    pub fn commit_checkpoint(&self) -> Option<u64> {
        self.coordinator.log().map(CommitLog::checkpointed_through)
    }

    pub(crate) fn check(&self, s: usize) -> Result<()> {
        if self.health[s] {
            Ok(())
        } else {
            Err(marked_down(s))
        }
    }

    /// One request to shard `s`: fail fast if it is marked dead, count
    /// it, run `f` under the shard's lock on the calling thread — the
    /// point path, no executor hop, a panic poisons the shard like a
    /// worker job's — and track health on the way out.
    pub(crate) fn call<T>(&mut self, s: usize, f: impl FnOnce(&mut S) -> Result<T>) -> Result<T> {
        self.check(s)?;
        self.router.requests[s] += 1;
        note_exec(&mut self.health, s, self.exec.run_here(s, f))
    }

    /// Every point operation: route to the shard owning `oid`, run `f`
    /// there on the local id, map the ids in the answer back to global,
    /// and name `oid` — not the shard-local id — in a missing-node or
    /// wrong-kind error.
    fn point<T: MapIds>(
        &mut self,
        oid: Oid,
        f: impl FnOnce(&mut S, Oid) -> Result<T>,
    ) -> Result<T> {
        let (s, l) = self.router.to_local(oid)?;
        match self.call(s, |sh| f(sh, l)) {
            Ok(answer) => self.router.globals(s, answer),
            Err(HmError::NodeNotFound(named)) if named == l => Err(HmError::NodeNotFound(oid)),
            Err(HmError::WrongKind {
                oid: named,
                expected,
            }) if named == l => Err(HmError::WrongKind { oid, expected }),
            Err(e) => Err(e),
        }
    }

    /// Run `f` against shard `shard`'s backend directly, whatever its
    /// health or poison state — for instrumentation (round-trip
    /// counters, fault plans) and reaching into a shard that is itself a
    /// deployment
    /// (`|group| group.mark_member_down(1)`). Mutating the *data*
    /// through this bypasses the router and breaks the deployment.
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&mut S) -> R) -> Result<R> {
        self.exec.with_shard(shard, f).map_err(ExecError::into_hm)
    }

    /// [`scatter`] with health tracking: one `T` per shard
    /// (`T::default()` for shards without work), first failure wins.
    fn gather<W, T, F>(&mut self, work: Vec<Option<W>>, f: F) -> Result<Vec<T>>
    where
        W: Send + 'static,
        T: Send + Default + 'static,
        F: Fn(&mut S, W) -> Result<T> + Send + Sync + 'static,
    {
        let mut out = Vec::with_capacity(work.len());
        for (s, r) in scatter(&self.exec, &self.health, work, f)
            .into_iter()
            .enumerate()
        {
            out.push(match r {
                Some(r) => note_exec(&mut self.health, s, r)?,
                None => T::default(),
            });
        }
        Ok(out)
    }

    /// The shard owning `global`, if the id exists.
    pub fn owner_of(&self, global: Oid) -> Option<usize> {
        self.router.owner_of(global)
    }

    /// Sequential-scan count per shard (no merging): the per-shard node
    /// visibility the union/disjointness properties are stated over.
    pub fn per_shard_scan(&mut self) -> Result<Vec<u64>> {
        let n = self.router.shard_count();
        for s in 0..n {
            self.router.requests[s] += 1;
        }
        self.gather(vec![Some(()); n], |shard, ()| shard.seq_scan_ten())
    }

    /// One batched read per shard with work, in parallel: `fetch` answers
    /// a shard's locals in order, the ids in each answer are mapped back
    /// to global, and the results scatter to the callers' order. A shard
    /// with work must be alive (batched reads feed closures, whose results
    /// are meaningless when incomplete) and counts one request — the unit
    /// the skew statistics measure.
    fn batch_read<T>(
        &mut self,
        oids: &[Oid],
        fetch: impl Fn(&mut S, Vec<Oid>) -> Result<Vec<T>> + Send + Sync + 'static,
    ) -> Result<Vec<T>>
    where
        T: MapIds + Send + Default + Clone + 'static,
    {
        let n = self.router.shard_count();
        let mut work: Vec<Option<Vec<Oid>>> = vec![None; n];
        let mut pos: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, &g) in oids.iter().enumerate() {
            let (s, l) = self.router.to_local(g)?;
            work[s].get_or_insert_with(Vec::new).push(l);
            pos[s].push(i);
        }
        for s in (0..n).filter(|&s| work[s].is_some()) {
            self.check(s)?;
            self.router.requests[s] += 1;
        }
        let results = self.gather(work, fetch)?;
        let mut out = vec![T::default(); oids.len()];
        for (s, items) in results.into_iter().enumerate() {
            for (j, item) in items.into_iter().enumerate() {
                out[pos[s][j]] = self.router.globals(s, item)?;
            }
        }
        Ok(out)
    }

    /// Closure executions per start node since the last
    /// [`ShardedStore::reset_touches`], hottest first — the traffic
    /// signal the rebalancer uses to pick which subtree to move.
    pub fn touch_counts(&self) -> Vec<(Oid, u64)> {
        let mut v: Vec<(Oid, u64)> = self.touches.iter().map(|(&g, &c)| (Oid(g), c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
        v
    }

    /// Forget the touch counters (start a fresh observation window).
    pub fn reset_touches(&mut self) {
        self.touches.clear();
    }

    /// Count one closure execution from `start`.
    pub(crate) fn touch(&mut self, start: Oid) {
        *self.touches.entry(start.0).or_insert(0) += 1;
    }

    /// Fan `f` out to every *healthy* shard at once ([`scatter`]),
    /// applying the [`ScanPolicy`] to dead shards and to shards
    /// that fail transiently mid-scan. Returns `(shard, value)` pairs in
    /// shard order for the shards that answered.
    fn fan_out_policy<T: Send + 'static>(
        &mut self,
        f: impl Fn(&mut S) -> Result<T> + Send + Sync + 'static,
    ) -> Result<Vec<(usize, T)>> {
        self.last_scan_partial = false;
        self.last_scan_skipped.clear();
        let policy = self.scan_policy;
        if let Some(dead) = self.health.iter().position(|h| !*h) {
            match policy {
                ScanPolicy::FailFast => return Err(marked_down(dead)),
                ScanPolicy::Partial => self.last_scan_partial = true,
            }
        }
        let work: Vec<Option<()>> = self.health.iter().map(|up| up.then_some(())).collect();
        for (req, w) in self.router.requests.iter_mut().zip(&work) {
            *req += w.is_some() as u64;
        }
        let mut out = Vec::new();
        for (s, r) in scatter(&self.exec, &self.health, work, move |sh, ()| f(sh))
            .into_iter()
            .enumerate()
        {
            // A shard without work was dead on entry: counted as partial
            // above; record which one.
            let Some(r) = r else {
                self.last_scan_skipped.push(s);
                continue;
            };
            match note_exec(&mut self.health, s, r) {
                Ok(v) => out.push((s, v)),
                Err(e) if e.is_transient() && policy == ScanPolicy::Partial => {
                    self.last_scan_partial = true;
                    self.last_scan_skipped.push(s);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Fan a read out across the shards (per the scan policy), translate
    /// each shard's results to global ids and drop ghosts (results whose
    /// owner is a different shard). Results come back in shard order — a
    /// deterministic set order, per the trait's set-result convention.
    fn fan_out_owned(
        &mut self,
        f: impl Fn(&mut S) -> Result<Vec<Oid>> + Send + Sync + 'static,
    ) -> Result<Vec<Oid>> {
        let per_shard = self.fan_out_policy(f)?;
        let mut out = Vec::new();
        for (s, locals) in per_shard {
            for l in locals {
                // Canonical ownership: the node's current placement must
                // be exactly this (shard, local) — ghosts and records
                // retired by a migration away never double-report.
                if self.router.is_owned_local(s, l)? {
                    out.push(self.router.to_global(s, l)?);
                }
            }
        }
        Ok(out)
    }
}

impl<S: HyperStore + Send + 'static> ShardedStore<ReplicaGroup<S>> {
    /// Shard with `K`-way replication: `members.len()` must be a
    /// multiple of `k`; each consecutive run of `k` backends becomes one
    /// shard's [`ReplicaGroup`] (primary first).
    pub fn new_replicated(
        members: Vec<S>,
        k: usize,
        placement: Placement,
        name: &'static str,
    ) -> ShardedStore<ReplicaGroup<S>> {
        assert!(
            k > 0 && !members.is_empty() && members.len().is_multiple_of(k),
            "member count {} is not a positive multiple of k = {k}",
            members.len()
        );
        let mut members = members.into_iter();
        let mut groups = Vec::new();
        while members.len() > 0 {
            groups.push(ReplicaGroup::new(members.by_ref().take(k).collect()));
        }
        let mut store = ShardedStore::new(groups, placement, name);
        store.shard_summary = Some(replica::summarize::<S>);
        store
    }
}

/// Route each catalogue operation that addresses one node (`about`)
/// through [`ShardedStore::point`].
macro_rules! point_routes {
    ($(
        $class:ident $tag:literal $variant:ident
        fn $name:ident $(( $($arg:ident: [$($ty:tt)+]),+ ))? -> $ret:ty $(, about $subject:ident)?;
    )*) => {$(
        point_route! { fn $name($($($arg: [$($ty)+]),+)?) -> $ret $(, about $subject)? }
    )*};
}
macro_rules! point_route {
    // The closures, level-batched in `crate::closure`: written out in the
    // impl.
    (fn closure_1n $($rest:tt)*) => {};
    (fn closure_1n_att_sum $($rest:tt)*) => {};
    (fn closure_1n_att_set $($rest:tt)*) => {};
    (fn closure_1n_pred $($rest:tt)*) => {};
    (fn closure_mn $($rest:tt)*) => {};
    (fn closure_mnatt $($rest:tt)*) => {};
    (fn closure_mnatt_linksum $($rest:tt)*) => {};
    (fn $name:ident($($arg:ident: [$($ty:tt)+]),*) -> $ret:ty, about $subject:ident) => {
        fn $name(&mut self $(, $arg: $($ty)+)*) -> Result<$ret> {
            self.point($subject, |sh, $subject| sh.$name($($arg),*))
        }
    };
    // Rows that address no single node: written out in the impl.
    (fn $name:ident($($arg:ident: [$($ty:tt)+]),*) -> $ret:ty) => {};
}

impl<S: HyperStore + Send + 'static> HyperStore for ShardedStore<S> {
    hypermodel::store_ops!(point_routes);

    fn lookup_unique(&mut self, unique_id: u64) -> Result<Oid> {
        let g = self.router.global_for_uid(unique_id)?;
        let (s, l) = self.router.to_local(g)?;
        let local = self.call(s, |sh| sh.lookup_unique(unique_id))?;
        debug_assert_eq!(local, l, "shard uid index disagrees with router");
        Ok(g)
    }

    fn range_hundred(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>> {
        self.fan_out_owned(move |shard| shard.range_hundred(lo, hi))
    }

    fn range_million(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>> {
        self.fan_out_owned(move |shard| shard.range_million(lo, hi))
    }

    fn seq_scan_ten(&mut self) -> Result<u64> {
        Ok(self
            .fan_out_policy(|shard| shard.seq_scan_ten())?
            .into_iter()
            .map(|(_, v)| v)
            .sum())
    }

    fn create_node(&mut self, value: &NodeValue) -> Result<Oid> {
        self.create_node_clustered(value, None)
    }

    // ---- writes: every creation and edge is a batch (`crate::write`) --

    fn create_node_clustered(&mut self, value: &NodeValue, near: Option<Oid>) -> Result<Oid> {
        let value = value.clone();
        self.write_one(BatchWrite::Create { value, near })?
            .ok_or_else(|| HmError::Backend("create returned no id".into()))
    }

    fn add_child(&mut self, parent: Oid, child: Oid) -> Result<()> {
        self.write_one(BatchWrite::Child(parent, child)).map(drop)
    }

    fn add_part(&mut self, owner: Oid, part: Oid) -> Result<()> {
        self.write_one(BatchWrite::Part(owner, part)).map(drop)
    }

    fn add_ref(&mut self, from: Oid, to: Oid, offset_from: u8, offset_to: u8) -> Result<()> {
        let edge = RefEdge {
            target: to,
            offset_from,
            offset_to,
        };
        self.write_one(BatchWrite::Ref(from, edge)).map(drop)
    }

    fn insert_extra_node(&mut self, value: &NodeValue) -> Result<Oid> {
        self.write_one(BatchWrite::Extra(value.clone()))?
            .ok_or_else(|| HmError::Backend("insert returned no id".into()))
    }

    fn write_batch(&mut self, writes: &[BatchWrite]) -> Result<Vec<Oid>> {
        self.write_rounds(writes)
    }

    fn commit(&mut self) -> Result<()> {
        // A commit must touch every shard: fail fast on a known-dead one.
        if let Some(dead) = self.health.iter().position(|h| !*h) {
            return Err(marked_down(dead));
        }
        self.coordinator.commit(&self.exec, &mut self.health)
    }

    fn cold_restart(&mut self) -> Result<()> {
        let n = self.router.shard_count();
        self.gather(vec![Some(()); n], |shard, ()| shard.cold_restart())?;
        Ok(())
    }

    fn backend_name(&self) -> &'static str {
        self.name
    }

    fn shard_balance(&self) -> Option<Vec<ShardLoad>> {
        Some(
            (0..self.router.shard_count())
                .map(|s| {
                    // A shard that is itself a deployment (a replica
                    // group) reports the load of what is behind it.
                    let behind = self
                        .exec
                        .with_shard(s, |sh| sh.shard_balance())
                        .ok()
                        .flatten()
                        .unwrap_or_default();
                    ShardLoad {
                        shard: s,
                        nodes: self.router.nodes[s],
                        requests: self.router.requests[s],
                        queued: behind.iter().map(|l| l.queued).sum::<u64>()
                            + self.exec.queue_depth(s).unwrap_or(0) as u64,
                        busy_us: behind
                            .iter()
                            .map(|l| l.busy_us)
                            .fold(self.exec.busy_ewma_us(s).unwrap_or(0), u64::max),
                        migrated: self.migrated[s],
                    }
                })
                .collect(),
        )
    }

    fn resilience_summary(&self) -> Option<String> {
        let two_phase = self.coordinator.log().is_some();
        let dead = self.health.iter().filter(|h| !**h).count();
        if !two_phase
            && self.coordinator.aborts == 0
            && dead == 0
            && self.last_scan_skipped.is_empty()
            && self.migrations == 0
            && self.shard_summary.is_none()
        {
            return None;
        }
        let mut out = format!(
            "2pc={} commit-aborts={} dead-shards={}/{}",
            if two_phase { "on" } else { "off" },
            self.coordinator.aborts,
            dead,
            self.health.len()
        );
        if let Some(summarize) = self.shard_summary {
            out.push(' ');
            out.push_str(&summarize(&self.exec));
        }
        if self.migrations > 0 {
            out.push_str(&format!(" migrations={}", self.migrations));
        }
        if !self.last_scan_skipped.is_empty() {
            out.push_str(&format!(" skipped-shards={:?}", self.last_scan_skipped));
        }
        Some(out)
    }

    // ---- batched primitives: one request per shard with work ----------

    fn children_batch(&mut self, oids: &[Oid]) -> Result<Vec<Vec<Oid>>> {
        self.batch_read(oids, |shard, ls| shard.children_batch(&ls))
    }

    fn parts_batch(&mut self, oids: &[Oid]) -> Result<Vec<Vec<Oid>>> {
        self.batch_read(oids, |shard, ls| shard.parts_batch(&ls))
    }

    fn refs_to_batch(&mut self, oids: &[Oid]) -> Result<Vec<Vec<RefEdge>>> {
        self.batch_read(oids, |shard, ls| shard.refs_to_batch(&ls))
    }

    fn hundred_batch(&mut self, oids: &[Oid]) -> Result<Vec<u32>> {
        self.batch_read(oids, |shard, ls| shard.hundred_batch(&ls))
    }

    fn million_batch(&mut self, oids: &[Oid]) -> Result<Vec<u32>> {
        self.batch_read(oids, |shard, ls| shard.million_batch(&ls))
    }

    // ---- closures: level-batched (`crate::closure`) -------------------

    fn closure_1n(&mut self, start: Oid) -> Result<Vec<Oid>> {
        self.node_closure(start, Self::children_batch, None)
    }

    fn closure_1n_att_sum(&mut self, start: Oid) -> Result<(u64, usize)> {
        self.att_sum(start)
    }

    fn closure_1n_att_set(&mut self, start: Oid) -> Result<usize> {
        self.att_set(start)
    }

    fn closure_1n_pred(&mut self, start: Oid, lo: u32, hi: u32) -> Result<Vec<Oid>> {
        self.node_closure(start, Self::children_batch, Some(lo..=hi))
    }

    fn closure_mn(&mut self, start: Oid) -> Result<Vec<Oid>> {
        self.node_closure(start, Self::parts_batch, None)
    }

    fn closure_mnatt(&mut self, start: Oid, depth: u32) -> Result<Vec<Oid>> {
        let pairs = self.ref_closure(start, depth)?;
        Ok(pairs.into_iter().map(|(o, _)| o).collect())
    }

    fn closure_mnatt_linksum(&mut self, start: Oid, depth: u32) -> Result<Vec<(Oid, u64)>> {
        self.ref_closure(start, depth)
    }
}

impl<S> std::fmt::Debug for ShardedStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("name", &self.name)
            .field("shards", &self.router.shard_count())
            .finish()
    }
}
