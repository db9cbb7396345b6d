//! [`ReplicaGroup`]: K mirrors of one backend behind a single
//! `HyperStore`.
//!
//! Every mirror receives the identical deterministic operation sequence,
//! so backend-local ids match across copies and whatever sits above the
//! group — a [`crate::ShardedStore`] shard slot, a conformance test,
//! nothing at all — sees one ordinary store. The group owns one
//! executor worker per mirror and is the only code that knows about
//! write acknowledgement, the per-member lag flag, read routing with
//! failover, demotion, and anti-entropy repair.
//!
//! Each operation's route is its class in the operation catalogue
//! (`hypermodel::store_ops!`): a *read* (served by one healthy member,
//! failing over on transient errors), a *write* (sent to every healthy
//! member, joined per the [`WriteAck`] policy) or a *barrier* (sent to
//! every healthy member and joined in full: commit, restart). All three
//! go through the members' FIFO queues, so a read that follows an acked
//! write can never observe the pre-write state of a mirror that is still
//! applying it.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hypermodel::error::{HmError, Result};
use hypermodel::migrate::NodeExport;
use hypermodel::model::{NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::store::{BatchWrite, HyperStore, ShardLoad};
use hypermodel::Bitmap;

use exec::{ExecError, ShardExecutor};

/// How many replicas must acknowledge a write before it returns. Every
/// healthy replica is *sent* the write regardless — the policy only
/// decides how many the caller waits for; stragglers apply it in FIFO
/// order on their workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteAck {
    /// Return once the acting primary (the first healthy replica of the
    /// group) applied the write. Lowest latency; a replica that later
    /// turns out to have missed the write is flagged lagging and
    /// demoted before any read can observe its stale state. The default.
    #[default]
    Primary,
    /// Return once a majority (`⌊K/2⌋ + 1`) of the group applied the
    /// write. Fails fast if fewer than a majority are healthy.
    Quorum,
    /// Return only after every currently-healthy replica applied it.
    All,
}

impl fmt::Display for WriteAck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WriteAck::Primary => "primary",
            WriteAck::Quorum => "quorum",
            WriteAck::All => "all",
        })
    }
}

/// A member operation shared across the fan-out: cloned once per member
/// so every mirror runs the identical closure.
type SharedOp<S, T> = Arc<dyn Fn(&mut S) -> Result<T> + Send + Sync>;

/// What one group — or, summed by [`summarize`], every group of a
/// replicated deployment — reports on the resilience line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupStats {
    k: usize,
    ack: WriteAck,
    dead: usize,
    members: usize,
    failovers: u64,
    demotions: u64,
    repairs: u64,
}

impl fmt::Display for GroupStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replicas={} ack={} dead-replicas={}/{} failover-reads={} demotions={} repairs={}",
            self.k, self.ack, self.dead, self.members, self.failovers, self.demotions, self.repairs
        )
    }
}

/// The replication part of a sharded deployment's resilience line: the
/// groups' counters summed over every shard slot of `exec`.
pub(crate) fn summarize<S: HyperStore + Send + 'static>(
    exec: &ShardExecutor<ReplicaGroup<S>>,
) -> String {
    let mut groups = (0..exec.shard_count()).filter_map(|s| exec.with_shard(s, |g| g.stats()).ok());
    let Some(mut total) = groups.next() else {
        return String::new();
    };
    for g in groups {
        total.dead += g.dead;
        total.members += g.members;
        total.failovers += g.failovers;
        total.demotions += g.demotions;
        total.repairs += g.repairs;
    }
    total.to_string()
}

/// K mirror backends presenting one `HyperStore` (member 0 is the
/// designated primary).
///
/// Reads route to the least-loaded healthy member; writes fan out to
/// every healthy member and wait per the [`WriteAck`] policy; a member
/// that fails transiently is demoted and later resynced wholesale from
/// a healthy sibling ([`ReplicaGroup::repair_replicas`], run at every
/// `commit` / `prepare_commit`).
pub struct ReplicaGroup<S> {
    /// Owns the mirrors; one persistent worker thread each.
    exec: ShardExecutor<S>,
    name: &'static str,
    write_ack: WriteAck,
    /// `health[m]` is false once member `m` failed transiently or was
    /// taken down; it is skipped until repair re-admits it.
    health: Vec<bool>,
    /// `lag[m]` is set — by the member's own worker — when a write
    /// failed transiently there while the caller may already have been
    /// acked by a sibling. Every job checks it before touching the
    /// backend, so no read lands on state behind an acked write.
    lag: Vec<Arc<AtomicBool>>,
    /// Reads served while the designated primary was down.
    failovers: u64,
    demotions: u64,
    repairs: u64,
    /// Repair passes to skip before retrying member `m`: a member that
    /// is down for good must not cost a full snapshot export on every
    /// commit. Doubles per consecutive failure, capped.
    repair_defer: Vec<u32>,
    /// Consecutive failed repairs of member `m`; reset on success.
    repair_fails: Vec<u32>,
}

/// An error for a request the group as a whole cannot serve. The group
/// does not know which shard slot it occupies (it may occupy none), so
/// it names shard 0; a sharded store above relabels it.
fn unavailable(msg: String) -> HmError {
    HmError::ShardUnavailable { shard: 0, msg }
}

fn no_replica() -> HmError {
    unavailable("no healthy replica".into())
}

impl<S: HyperStore + Send + 'static> ReplicaGroup<S> {
    /// Mirror across `members` (primary first). Every member must start
    /// in the same state.
    pub fn new(members: Vec<S>) -> ReplicaGroup<S> {
        assert!(
            !members.is_empty(),
            "a replica group needs at least one member"
        );
        // Pre-register the outcome counters so a scrape of a deployment
        // that never failed over still exports them at zero.
        if obs::enabled() {
            let reg = obs::registry();
            reg.counter("shard.replica.failover_reads");
            reg.counter("shard.replica.demotions");
            reg.counter("shard.replica.repairs");
        }
        let k = members.len();
        ReplicaGroup {
            name: members[0].backend_name(),
            exec: ShardExecutor::new(members),
            write_ack: WriteAck::default(),
            health: vec![true; k],
            lag: (0..k).map(|_| Arc::new(AtomicBool::new(false))).collect(),
            failovers: 0,
            demotions: 0,
            repairs: 0,
            repair_defer: vec![0; k],
            repair_fails: vec![0; k],
        }
    }

    /// Replication factor K.
    pub fn member_count(&self) -> usize {
        self.health.len()
    }

    /// Choose how many replicas must acknowledge a write.
    pub fn set_write_ack(&mut self, ack: WriteAck) {
        self.write_ack = ack;
    }

    /// The current write acknowledgement policy.
    pub fn write_ack(&self) -> WriteAck {
        self.write_ack
    }

    /// Per-member health: `false` while a member is demoted.
    pub fn member_health(&self) -> &[bool] {
        &self.health
    }

    /// Reads served by a non-primary replica while the primary was down.
    pub fn failover_reads(&self) -> u64 {
        self.failovers
    }

    /// Members demoted after a transient failure or a lag flag.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Members resynced and re-admitted by anti-entropy repair.
    pub fn repairs(&self) -> u64 {
        self.repairs
    }

    /// Administratively take member `m` out of service (tests, drain).
    pub fn mark_member_down(&mut self, m: usize) {
        self.health[m] = false;
    }

    /// Swap in a replacement backend for member `m` (e.g. a store
    /// reopened by recovery), clearing its worker's poison flag. The
    /// fresh backend stays demoted until [`ReplicaGroup::repair_replicas`]
    /// (or the next commit) has resynced it from a healthy sibling — an
    /// empty replacement must never serve reads. Returns the previous
    /// backend.
    pub fn replace_member(&mut self, m: usize, store: S) -> Result<S> {
        let old = self
            .exec
            .replace_shard(m, store)
            .map_err(ExecError::into_hm)?;
        self.health[m] = false;
        self.lag[m].store(true, Ordering::Release);
        // A fresh backend deserves a prompt repair attempt.
        self.repair_defer[m] = 0;
        self.repair_fails[m] = 0;
        Ok(old)
    }

    /// Run `f` against member `m`'s backend directly — for
    /// instrumentation (fault plans, crash probes). Mutating the *data*
    /// through this makes the mirrors diverge.
    pub fn with_member<R>(&self, m: usize, f: impl FnOnce(&mut S) -> R) -> Result<R> {
        self.exec.with_shard(m, f).map_err(ExecError::into_hm)
    }

    fn stats(&self) -> GroupStats {
        GroupStats {
            k: self.health.len(),
            ack: self.write_ack,
            dead: self.health.iter().filter(|h| !**h).count(),
            members: self.health.len(),
            failovers: self.failovers,
            demotions: self.demotions,
            repairs: self.repairs,
        }
    }

    fn healthy(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.health.len()).filter(|&m| self.health[m])
    }

    /// Demote member `m`: no reads or writes land there until repair
    /// resyncs and re-admits it.
    fn demote(&mut self, m: usize) {
        if self.health[m] {
            self.health[m] = false;
            self.demotions += 1;
            obs::incr("shard.replica.demotions", 1);
        }
        // Whatever demoted it, assume the state is behind: repair does a
        // full resync anyway, and the flag keeps a queued job honest.
        self.lag[m].store(true, Ordering::Release);
    }

    /// Demote every member a straggling write flagged since last look.
    fn demote_lagging(&mut self) {
        for m in 0..self.health.len() {
            if self.health[m] && self.lag[m].load(Ordering::Acquire) {
                self.demote(m);
            }
        }
    }

    /// Queue `f` on each of `members` and wait, in member order, until
    /// `wait` of them succeeded (all of them if fewer do). Members not
    /// waited for keep running detached, in FIFO order. The one place
    /// the group blocks on its workers.
    fn fan<T: Send + 'static>(
        &self,
        members: &[usize],
        wait: usize,
        f: SharedOp<S, T>,
    ) -> Vec<(usize, Result<T>)> {
        // A group inside a `ShardedStore` runs with that store's shard
        // mutex held (by the caller on the point path and in a fan-out's
        // inline share, by an outer worker in the other shares), which
        // the instrumented build reports as send/recv under a lock. It cannot cycle: the member workers
        // woken here only ever take their own member mutex.
        let _reviewed =
            sanity::order::allow("member workers never take the lock the group is called under");
        let mut batch = self.exec.batch();
        for &m in members {
            let f = Arc::clone(&f);
            let lag = Arc::clone(&self.lag[m]);
            batch.spawn(m, move |sh| {
                if lag.load(Ordering::Acquire) {
                    // A write failed here after this job was routed: the
                    // state may predate an acked write.
                    return Err(HmError::Timeout(format!(
                        "replica member {m} lagging behind an acked write"
                    )));
                }
                let r = f(sh);
                if matches!(&r, Err(e) if e.is_transient()) {
                    lag.store(true, Ordering::Release);
                }
                r
            });
        }
        batch
            .join_quorum(wait, |r: &Result<T>| r.is_ok())
            .into_iter()
            .map(|(m, r)| (m, r.unwrap_or_else(|e| Err(e.into_hm()))))
            .collect()
    }

    /// [`Self::fan`] to the single member `m`.
    fn ask<T: Send + 'static>(&self, m: usize, f: SharedOp<S, T>) -> Result<T> {
        let answer = self.fan(&[m], 1, f).pop();
        answer.map_or_else(|| Err(no_replica()), |(_, r)| r)
    }

    /// [`Self::fan`] to every healthy member, then settle the outcome:
    /// members that failed transiently are demoted, a deterministic
    /// error (wrong kind, unknown node — identical on every mirror) is
    /// returned without demoting anyone, and otherwise the call
    /// succeeds once `need` members applied it.
    fn apply<T: Send + 'static>(
        &mut self,
        wait: usize,
        need: usize,
        f: SharedOp<S, T>,
    ) -> Result<T> {
        let mut value = None;
        let mut acks = 0usize;
        let mut failed = None;
        let mut lost = None;
        let healthy: Vec<usize> = self.healthy().collect();
        for (m, r) in self.fan(&healthy, wait, f) {
            match r {
                Ok(v) => {
                    acks += 1;
                    value.get_or_insert(v);
                }
                Err(e) if e.is_transient() => {
                    self.demote(m);
                    lost.get_or_insert(unavailable(e.to_string()));
                }
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        match (failed, value) {
            (Some(e), _) => Err(e),
            (None, Some(v)) if acks >= need => Ok(v),
            _ => Err(lost.unwrap_or_else(no_replica)),
        }
    }

    /// A read: served by the least-loaded healthy member (executor queue
    /// depth, ties broken on the `busy_us` EWMA), failing over — and
    /// demoting — on transient errors until the group is exhausted.
    fn read_one<T, F>(&mut self, f: F) -> Result<T>
    where
        T: Send + 'static,
        F: Fn(&mut S) -> Result<T> + Send + Sync + 'static,
    {
        let f: SharedOp<S, T> = Arc::new(f);
        loop {
            self.demote_lagging();
            let m = self
                .healthy()
                .min_by_key(|&m| {
                    (
                        self.exec.queue_depth(m).unwrap_or(usize::MAX),
                        self.exec.busy_ewma_us(m).unwrap_or(u64::MAX),
                        m,
                    )
                })
                .ok_or_else(no_replica)?;
            if !self.health[0] {
                self.failovers += 1;
                obs::incr("shard.replica.failover_reads", 1);
            }
            match self.ask(m, Arc::clone(&f)) {
                Err(e) if e.is_transient() => self.demote(m),
                r => return r,
            }
        }
    }

    /// A write: sent to every healthy member, acknowledged per the
    /// [`WriteAck`] policy. A member the caller does not wait for and
    /// that then fails flags itself lagging from its own worker.
    fn write_each<T, F>(&mut self, f: F) -> Result<T>
    where
        T: Send + 'static,
        F: Fn(&mut S) -> Result<T> + Send + Sync + 'static,
    {
        self.demote_lagging();
        let (k, healthy) = (self.health.len(), self.healthy().count());
        let need = match self.write_ack {
            WriteAck::Primary => 1,
            WriteAck::Quorum if healthy < k / 2 + 1 => {
                return Err(unavailable(format!(
                    "quorum write needs {} of {k} replicas, only {healthy} healthy",
                    k / 2 + 1
                )));
            }
            WriteAck::Quorum => k / 2 + 1,
            WriteAck::All => healthy.max(1),
        };
        self.apply(need, need, Arc::new(f))
    }

    /// A barrier (commit, restart): every healthy member runs it and the
    /// group waits for all of them. A mirror that fails transiently is
    /// demoted while its siblings carry the group; the barrier fails
    /// only on a deterministic error or when no member is left.
    fn barrier<F>(&mut self, f: F) -> Result<()>
    where
        F: Fn(&mut S) -> Result<()> + Send + Sync + 'static,
    {
        self.demote_lagging();
        self.apply(usize::MAX, 1, Arc::new(f))
    }

    /// Resync every demoted, unpoisoned member from a healthy sibling
    /// and re-admit it. Best-effort: a member whose repair fails stays
    /// demoted and a later pass (exponentially backed off: 1, 2, 4, …
    /// 64 passes) tries again. Run by every `commit` / `prepare_commit`,
    /// the natural anti-entropy point: the whole group takes the commit
    /// together when possible.
    pub fn repair_replicas(&mut self) {
        self.demote_lagging();
        for m in 0..self.health.len() {
            if self.health[m] || self.exec.is_poisoned(m).unwrap_or(true) {
                continue;
            }
            if self.repair_defer[m] > 0 {
                self.repair_defer[m] -= 1;
            } else if self.revive_member(m).is_ok() {
                self.repair_defer[m] = 0;
                self.repair_fails[m] = 0;
            } else {
                self.repair_defer[m] = 1u32 << self.repair_fails[m].min(6);
                self.repair_fails[m] = self.repair_fails[m].saturating_add(1);
            }
        }
    }

    /// Anti-entropy resync of member `m` from a healthy sibling: export
    /// the sibling's full state through its FIFO queue (so every
    /// in-flight write is included), install it on `m` — behind
    /// whatever `m` still has queued — probe, and re-admit. Refuses
    /// while `m`'s worker is poisoned by a panic
    /// ([`ReplicaGroup::replace_member`] first).
    pub fn revive_member(&mut self, m: usize) -> Result<()> {
        if self.exec.is_poisoned(m).map_err(ExecError::into_hm)? {
            return Err(unavailable(format!(
                "member {m} poisoned by a panic; replace the backend first"
            )));
        }
        let src = (0..self.health.len())
            .find(|&o| o != m && self.health[o])
            .ok_or_else(no_replica)?;
        let snapshot = match self.ask(src, Arc::new(|sh: &mut S| sh.sync_export())) {
            Ok(bytes) => bytes,
            Err(e) if e.is_transient() => {
                self.demote(src);
                return Err(unavailable(e.to_string()));
            }
            Err(e) => return Err(e),
        };
        // The import is the one job allowed onto a demoted member.
        self.lag[m].store(false, Ordering::Release);
        let installed = self.ask(
            m,
            Arc::new(move |sh: &mut S| {
                sh.sync_import(&snapshot)?;
                sh.seq_scan_ten() // probe before re-admission
            }),
        );
        if let Err(e) = installed {
            self.lag[m].store(true, Ordering::Release);
            return Err(e);
        }
        self.health[m] = true;
        self.repairs += 1;
        obs::incr("shard.replica.repairs", 1);
        Ok(())
    }
}

/// Forward each catalogue operation to the members by its class. Borrowed
/// arguments are cloned into the job — it may outlive the call: a
/// straggler keeps applying a write the caller was already acked for —
/// and lent back to the member's method; the rest are `Copy`.
macro_rules! replicate {
    ($(
        $class:ident $tag:literal $variant:ident
        fn $name:ident $(( $($arg:ident: [$($ty:tt)+]),+ ))? -> $ret:ty $(, about $subject:ident)?;
    )*) => {$(
        replicate_one! { $class fn $name($($($arg: [$($ty)+]),+)?) -> $ret }
    )*};
}
macro_rules! replicate_one {
    // Barriers that run anti-entropy repair first, written out in the impl.
    (barrier fn commit $($rest:tt)*) => {};
    (barrier fn prepare_commit $($rest:tt)*) => {};
    ($class:ident fn $name:ident($($arg:ident: [$($ty:tt)+]),*) -> $ret:ty) => {
        fn $name(&mut self $(, $arg: $($ty)+)*) -> Result<$ret> {
            $(let $arg = hypermodel::own!($arg: $($ty)+);)*
            route!($class, self, move |sh: &mut S| sh.$name($(hypermodel::lend!($arg: $($ty)+)),*))
        }
    };
}
macro_rules! route {
    (read, $group:ident, $op:expr) => {
        $group.read_one($op)
    };
    (write, $group:ident, $op:expr) => {
        $group.write_each($op)
    };
    (barrier, $group:ident, $op:expr) => {
        $group.barrier($op)
    };
}

impl<S: HyperStore + Send + 'static> HyperStore for ReplicaGroup<S> {
    hypermodel::store_ops!(replicate);

    fn commit(&mut self) -> Result<()> {
        self.repair_replicas();
        self.barrier(|sh| sh.commit())
    }

    /// A mirror whose prepare fails transiently is demoted and the group
    /// still votes yes on the strength of its siblings: the demoted
    /// mirror is never asked about `txid` again — its only way back is a
    /// wholesale resync from a sibling that took the decision.
    fn prepare_commit(&mut self, txid: u64) -> Result<()> {
        self.repair_replicas();
        self.barrier(move |sh| sh.prepare_commit(txid))
    }

    fn backend_name(&self) -> &'static str {
        self.name
    }

    /// One entry, the group's own executor load: queue depth summed over
    /// the members (total backlog), busy time of the hottest member (the
    /// group is as slow as its busiest mirror).
    fn shard_balance(&self) -> Option<Vec<ShardLoad>> {
        let members = 0..self.health.len();
        Some(vec![ShardLoad {
            shard: 0,
            nodes: 0,
            requests: 0,
            queued: members
                .clone()
                .map(|m| self.exec.queue_depth(m).unwrap_or(0) as u64)
                .sum(),
            busy_us: members
                .map(|m| self.exec.busy_ewma_us(m).unwrap_or(0))
                .max()
                .unwrap_or(0),
            migrated: 0,
        }])
    }

    fn resilience_summary(&self) -> Option<String> {
        Some(self.stats().to_string())
    }
}
