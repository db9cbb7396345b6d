//! [`ShardedStore`]: one `HyperStore` over N shard backends — health,
//! routing and fan-out.
//!
//! The store is a [`Service`](hypermodel::Service). A request that
//! addresses one node ([`Request::about_mut`], closures aside) is a
//! *point route*: its subject is rewritten to the owning shard's local
//! id, the request runs there on the calling thread, and the ids in its
//! answer and errors are mapped back to global ids. The other rows are
//! match arms; range lookups and scans fan out to every shard (`scatter`:
//! the first involved shard's share on the calling thread, the others on
//! their [`exec::ShardExecutor`] workers). The closures are rounds of one
//! `expand` per shard with work, in `crate::closure`; writes are
//! `crate::write`.
//!
//! **Invariant: no shard has a queued job between `ShardedStore`
//! calls.** Every call — the 2PC prepare round included — joins every
//! job it queued before returning. Work on the calling thread (the
//! point path, a fan-out's inline share, the probe of
//! [`ShardedStore::revive_shard`]) serializes with a running job through
//! the shard mutex but cannot wait for a queued one; the invariant is
//! why it never has to.
//!
//! The store knows nothing about what a shard *is*. Replication is a
//! shard that happens to be a [`ReplicaGroup`]
//! ([`ShardedStore::new_replicated`]); the commit protocol lives in
//! [`crate::coordinator`], subtree migration in [`crate::migrate`].

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use hypermodel::error::{HmError, Result};
use hypermodel::model::{Oid, RefEdge};
use hypermodel::protocol::{Reply, Request, Response};
use hypermodel::service::not_an_operation;
use hypermodel::store::{unsupported, BatchWrite, HyperStore, Rel, ShardLoad};

use exec::{ExecError, ShardExecutor};
use storage::vfs::{OsFs, Vfs};

use crate::coordinator::{CommitLog, Coordinator};
use crate::replica::{self, ReplicaGroup};
use crate::router::{Placement, ShardRouter};

/// What the executor hands back for one shard job: the shard's own
/// answer, or the reason the job produced none.
pub(crate) type ExecResult<T> = std::result::Result<Result<T>, ExecError>;

/// A sharded `HyperStore` over `S` backends.
pub struct ShardedStore<S> {
    /// Owns the shard backends; one persistent worker thread each.
    pub(crate) exec: ShardExecutor<S>,
    pub(crate) router: ShardRouter,
    name: &'static str,
    /// `health[s]` is false once shard `s` stopped answering (crash,
    /// timeout, lost connection, poisoned worker): point operations
    /// routed there and every fan-out fail fast until
    /// [`ShardedStore::revive_shard`] or [`ShardedStore::replace_shard`]
    /// re-admits it.
    health: Vec<bool>,
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
    /// Per shard: the local ids of records a migration moved away whose
    /// retire failed there, so they still count in its scans. The shard
    /// stays down until a retire of them succeeds (see
    /// [`ShardedStore::revive_shard`]).
    pub(crate) unretired: Vec<Vec<Oid>>,
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
/// answer (poisoned shard, lost worker) or failed transiently means the
/// shard stopped answering: it is marked dead and the error rewrapped as
/// the structured [`HmError::ShardUnavailable`]. A `ShardUnavailable` of
/// the shard's *own* is the verdict of a deployment that tracks its own
/// health and already fails fast (a replica group with no mirror left):
/// it is relabelled with the logical shard index and passed on without
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
/// shards without. The first shard with work runs on the calling thread
/// ([`ShardExecutor::run_here`], with a worker job's panic isolation)
/// after the others are queued on their workers, so the caller works
/// instead of idling in the join, and a fan-out with one involved shard
/// makes no queue hop at all. Every queued job is joined before this
/// returns.
pub(crate) fn scatter<S, W, T, F>(
    exec: &ShardExecutor<S>,
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
        if here.is_none() {
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
        let reg = obs::registry();
        reg.counter("shard.2pc.prepared");
        reg.counter("shard.2pc.committed");
        reg.counter("shard.2pc.aborted");
        reg.counter("shard.rebalance.migrations");
        reg.counter("shard.rebalance.moved_nodes");
        reg.counter("shard.rebalance.aborts");
        reg.gauge("shard.load.imbalance");
        ShardedStore {
            exec: ShardExecutor::new(shards),
            router: ShardRouter::new(n, placement),
            name,
            health: vec![true; n],
            coordinator: Coordinator::new(n),
            shard_summary: None,
            migrated: vec![0; n],
            migrations: 0,
            unretired: vec![Vec::new(); n],
            touches: HashMap::new(),
        }
    }

    /// Enable crash-safe cross-shard commit: [`HyperStore::commit`]
    /// becomes two-phase, with the decision record durably logged at
    /// `path` before any shard is told to commit. After a crash,
    /// [`crate::coordinator::recover_sharded`] resolves in-doubt shards
    /// against this log.
    pub fn with_commit_log(self, path: &Path) -> Result<ShardedStore<S>> {
        self.with_commit_log_in(Arc::new(OsFs), path)
    }

    /// [`ShardedStore::with_commit_log`] with the log in `fs`.
    pub fn with_commit_log_in(mut self, fs: Arc<dyn Vfs>, path: &Path) -> Result<ShardedStore<S>> {
        self.coordinator.attach(CommitLog::open_in(fs, path)?);
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
    /// probes it with a cheap scan on the calling thread, delivers the
    /// commit decision a failed phase two left it prepared for, and
    /// retries the retire a failed migration left it, before flipping
    /// health back. Refuses, without running the probe, while the shard
    /// is poisoned by a panic (swap the backend with
    /// [`ShardedStore::replace_shard`] first).
    pub fn revive_shard(&mut self, shard: usize) -> Result<()> {
        self.exec
            .run_here(shard, |sh| sh.seq_scan_ten())
            .map_err(ExecError::into_hm)??;
        self.coordinator.deliver(&self.exec, shard)?;
        self.readmit(shard)
    }

    /// Swap in a replacement backend for `shard` (e.g. a store reopened
    /// by recovery), clearing the executor's poison flag, and re-admit
    /// the shard once the retire a failed migration left it succeeds on
    /// the replacement. Returns the previous backend; if that retire
    /// fails, the error instead, with the replacement in place and the
    /// shard still down.
    pub fn replace_shard(&mut self, shard: usize, store: S) -> Result<S> {
        let old = self
            .exec
            .replace_shard(shard, store)
            .map_err(ExecError::into_hm)?;
        self.readmit(shard)?;
        Ok(old)
    }

    /// Retire the records a failed migration retire left active on
    /// `shard` — as [`crate::coordinator::Coordinator::deliver`]
    /// redelivers a missed decision — then mark the shard healthy. On a
    /// failure the shard stays down and keeps the ids for the next try.
    fn readmit(&mut self, shard: usize) -> Result<()> {
        let locals = std::mem::take(&mut self.unretired[shard]);
        if !locals.is_empty() {
            let retired = self
                .exec
                .run_here(shard, |sh| sh.retire_nodes(&locals))
                .map_err(ExecError::into_hm);
            if let Err(e) = retired.and_then(|r| r) {
                self.unretired[shard] = locals;
                return Err(e);
            }
        }
        self.health[shard] = true;
        Ok(())
    }

    /// Cross-shard transactions aborted in phase one so far.
    pub fn commit_aborts(&self) -> u64 {
        self.coordinator.aborts
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
    pub(crate) fn on_shard<T>(
        &mut self,
        s: usize,
        f: impl FnOnce(&mut S) -> Result<T>,
    ) -> Result<T> {
        self.check(s)?;
        self.router.requests[s] += 1;
        note_exec(&mut self.health, s, self.exec.run_here(s, f))
    }

    /// Every point operation: rewrite the request's subject to its local
    /// id on the owning shard, run the request there, map the ids in the
    /// answer back to global, and name the subject — not the shard-local
    /// id — in a missing-node or wrong-kind error.
    fn point(&mut self, mut req: Request) -> Result<Response> {
        let Some(subject) = req.about_mut() else {
            return Err(not_an_operation(&req));
        };
        let oid = *subject;
        let (s, l) = self.router.to_local(oid)?;
        *subject = l;
        match self.on_shard(s, |sh| sh.call(req)) {
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
        for (s, r) in scatter(&self.exec, work, f).into_iter().enumerate() {
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

    /// One request per shard with work, in parallel ([`scatter`]). A shard
    /// with work must be alive (the answers feed closures, whose results
    /// are meaningless when incomplete) and counts one request — the unit
    /// the skew statistics measure. Answers are in each shard's own ids.
    pub(crate) fn each_shard(
        &mut self,
        requests: Vec<Option<Request>>,
    ) -> Result<Vec<Option<Response>>> {
        for s in (0..requests.len()).filter(|&s| requests[s].is_some()) {
            self.check(s)?;
            self.router.requests[s] += 1;
        }
        self.gather(requests, |shard, req| shard.call(req).map(Some))
    }

    /// `hundred` of each of `oids`, in order: one `hundred_batch` per
    /// shard with work.
    pub(crate) fn hundreds(&mut self, oids: &[Oid]) -> Result<Vec<u32>> {
        let n = self.router.shard_count();
        let mut work: Vec<Option<Vec<Oid>>> = vec![None; n];
        let mut pos: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, &g) in oids.iter().enumerate() {
            let (s, l) = self.router.to_local(g)?;
            work[s].get_or_insert_with(Vec::new).push(l);
            pos[s].push(i);
        }
        let requests = work.into_iter().map(|w| w.map(Request::HundredBatch));
        let mut out = vec![0; oids.len()];
        for (s, answer) in self.each_shard(requests.collect())?.into_iter().enumerate() {
            let Some(answer) = answer else { continue };
            for (&i, h) in pos[s].iter().zip(Vec::<u32>::from_response(answer)?) {
                out[i] = h;
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

    /// Fan `f` out to every shard at once ([`scatter`]), one answer per
    /// shard in shard order. Fails fast: a shard marked down fails the
    /// whole read, and so does one that fails during it.
    fn fan_out<T: Send + Default + 'static>(
        &mut self,
        f: impl Fn(&mut S) -> Result<T> + Send + Sync + 'static,
    ) -> Result<Vec<T>> {
        if let Some(dead) = self.health.iter().position(|h| !*h) {
            return Err(marked_down(dead));
        }
        for req in &mut self.router.requests {
            *req += 1;
        }
        let n = self.router.shard_count();
        self.gather(vec![Some(()); n], move |sh, ()| f(sh))
    }

    /// Fan a read out across the shards, translate each shard's results
    /// to global ids and drop ghosts (results whose owner is a different
    /// shard). Results come back in shard order — a deterministic set
    /// order, per the trait's set-result convention — as the one answer
    /// of a range lookup.
    fn fan_out_owned(
        &mut self,
        f: impl Fn(&mut S) -> Result<Vec<Oid>> + Send + Sync + 'static,
    ) -> Result<Response> {
        let per_shard = self.fan_out(f)?;
        let mut out = Vec::new();
        for (s, locals) in per_shard.into_iter().enumerate() {
            for l in locals {
                // Canonical ownership: the node's current placement must
                // be exactly this (shard, local) — ghosts and records
                // retired by a migration away never double-report.
                if self.router.is_owned_local(s, l)? {
                    out.push(self.router.to_global(s, l)?);
                }
            }
        }
        Ok(Response::Oids(out))
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

impl<S: HyperStore + Send + 'static> ShardedStore<S> {
    /// `lookup_unique`: the router knows the uid's global id; the owning
    /// shard resolves it too, so a missing node fails there.
    fn lookup(&mut self, unique_id: u64) -> Result<Oid> {
        let g = self.router.global_for_uid(unique_id)?;
        let (s, l) = self.router.to_local(g)?;
        let local = self.on_shard(s, |sh| sh.lookup_unique(unique_id))?;
        debug_assert_eq!(local, l, "shard uid index disagrees with router");
        Ok(g)
    }

    /// A creation or an edge, as a batch of one write; answers the new
    /// global id of a creation.
    fn write_one(&mut self, w: BatchWrite) -> Result<Response> {
        let creates = matches!(w, BatchWrite::Create { .. } | BatchWrite::Extra(_));
        let created = self.write_rounds(vec![w])?.pop();
        match (creates, created) {
            (false, _) => Ok(Response::Unit),
            (true, Some(g)) => Ok(Response::Oid(g)),
            (true, None) => Err(HmError::Backend("create returned no id".into())),
        }
    }

    /// A commit must touch every shard: fail fast on a known-dead one.
    fn commit_all(&mut self) -> Result<()> {
        if let Some(dead) = self.health.iter().position(|h| !*h) {
            return Err(marked_down(dead));
        }
        self.coordinator.commit(&self.exec, &mut self.health)
    }
}

impl<S: HyperStore + Send + 'static> hypermodel::Service for ShardedStore<S> {
    fn call(&mut self, req: Request) -> Result<Response> {
        use Request as R;
        fn ok<T: Reply>(answer: T) -> Response {
            answer.into_response()
        }
        let name = self.name;
        let refuse = |what| Err(unsupported(name, what));
        let create = |value, near| BatchWrite::Create { value, near };
        let answer = match req {
            R::LookupUnique(uid) => ok(self.lookup(uid)?),
            R::RangeHundred(lo, hi) => self.fan_out_owned(move |sh| sh.range_hundred(lo, hi))?,
            R::RangeMillion(lo, hi) => self.fan_out_owned(move |sh| sh.range_million(lo, hi))?,
            R::SeqScanTen => ok(self.fan_out(|sh| sh.seq_scan_ten())?.iter().sum::<u64>()),

            // ---- writes: every creation and edge is a batch (`crate::write`)
            R::CreateNode(value) => self.write_one(create(value, None))?,
            R::CreateNodeClustered(value, near) => self.write_one(create(value, near))?,
            R::InsertExtraNode(value) => self.write_one(BatchWrite::Extra(value))?,
            R::AddChild(parent, child) => self.write_one(BatchWrite::Child(parent, child))?,
            R::AddPart(owner, part) => self.write_one(BatchWrite::Part(owner, part))?,
            R::AddRef(from, target, offset_from, offset_to) => {
                let edge = RefEdge {
                    target,
                    offset_from,
                    offset_to,
                };
                self.write_one(BatchWrite::Ref(from, edge))?
            }
            R::WriteBatch(writes) => ok(self.write_rounds(writes)?),

            // ---- the commit family: the store commits through its own
            // coordinator (`crate::coordinator`), so to a coordinator
            // above it it is a participant whose prepare is a full commit.
            R::Commit | R::PrepareCommit(_) => ok(self.commit_all()?),
            R::CommitPrepared(_) | R::AbortPrepared(_) => Response::Unit,
            R::ColdRestart => {
                let n = self.router.shard_count();
                self.gather(vec![Some(()); n], |sh, ()| sh.cold_restart())?;
                Response::Unit
            }

            // ---- batched primitives: one request per shard with work
            R::HundredBatch(o) => ok(self.hundreds(&o)?),
            R::Expand(rel, starts, prune) => ok(self.expand_all(rel, &starts, prune)?),

            // ---- closures: rounds of `expand` (`crate::closure`)
            R::Closure1N(start) => ok(self.node_closure(start, Rel::Children, None)?),
            R::Closure1NAttSum(start) => ok(self.att_sum(start)?),
            R::Closure1NAttSet(start) => ok(self.att_set(start)?),
            R::Closure1NPred(start, lo, hi) => {
                ok(self.node_closure(start, Rel::Children, Some((lo, hi)))?)
            }
            R::ClosureMN(start) => ok(self.node_closure(start, Rel::Parts, None)?),
            R::ClosureMNAtt(start, depth) => {
                let pairs = self.ref_closure(start, depth)?;
                ok(pairs.into_iter().map(|(o, _)| o).collect::<Vec<_>>())
            }
            R::ClosureMNAttLinkSum(start, depth) => ok(self.ref_closure(start, depth)?),

            // ---- whole-store repair and migration steps are a shard's
            // own business (`ReplicaGroup`, `migrate_subtree`), not the
            // deployment's.
            R::SyncSubtree => return refuse("anti-entropy export"),
            R::InstallSubtree(_) => return refuse("anti-entropy import"),
            R::ExportNodes(_) => return refuse("node migration export"),
            R::InstallNodes(_) => return refuse("node migration install"),
            R::ActivateNodes(_) => return refuse("node migration activate"),
            R::RetireNodes(_) => return refuse("node migration retire"),

            // Every other row addresses one node; `point` refuses a
            // session message.
            point => self.point(point)?,
        };
        Ok(answer)
    }

    fn backend_name(&self) -> &'static str {
        self.name
    }

    fn shard_balance(&self) -> Option<Vec<ShardLoad>> {
        Some(
            (0..self.router.shard_count())
                .map(|s| ShardLoad {
                    shard: s,
                    nodes: self.router.nodes[s],
                    requests: self.router.requests[s],
                    migrated: self.migrated[s],
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
        Some(out)
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
