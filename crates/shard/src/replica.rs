//! [`ReplicaGroup`]: K mirrors of one backend behind a single
//! `HyperStore`.
//!
//! Every mirror receives the identical deterministic operation sequence,
//! so backend-local ids match across copies and whatever sits above the
//! group sees one ordinary store. The group calls its mirrors one after
//! another on the calling thread. It is a [`Service`](hypermodel::Service):
//! each operation arrives as one request, routed by its catalogue class
//! ([`Request::class`]):
//!
//! * a **read** goes to the healthy member with the lowest busy EWMA
//!   (the time of its recent calls, measured here on the caller). A
//!   transient failure demotes the member and the read fails over to
//!   the next. A read served while member 0 is down is a failover read.
//! * a **write** goes to every healthy member in member order, and goes
//!   on past a deterministic error on an earlier member, because a
//!   partly applied `write_batch` must leave every mirror the same. A
//!   member that fails transiently is demoted before the call returns.
//!   The write succeeds if at least one member applied it and none
//!   failed deterministically; on return it is on every healthy member.
//!   Every member but the last gets its own copy of the request.
//! * a **barrier** (the commit family, restart) goes to every healthy
//!   member the same way. `commit` and `prepare_commit` run
//!   anti-entropy repair first.
//!
//! Every member call runs under `catch_unwind` ([`exec::Isolated`]): a
//! member that panics is poisoned and demoted, its siblings carry the
//! group, and repair skips it until [`ReplicaGroup::replace_member`].

use std::fmt;

use hypermodel::error::{HmError, Result};
use hypermodel::protocol::{Class, Request, Response};
use hypermodel::store::{HyperStore, ShardLoad};

use exec::{Isolated, ShardExecutor};

/// What one group — or, summed by [`summarize`], every group of a
/// replicated deployment — reports on the resilience line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupStats {
    k: usize,
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
            "replicas={} dead-replicas={}/{} failover-reads={} demotions={} repairs={}",
            self.k, self.dead, self.members, self.failovers, self.demotions, self.repairs
        )
    }
}

/// The replication part of a sharded deployment's resilience line: the
/// groups' counters summed over every shard slot of `exec`.
pub(crate) fn summarize<S: HyperStore>(exec: &ShardExecutor<ReplicaGroup<S>>) -> String {
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
/// designated primary), routed as the module describes.
pub struct ReplicaGroup<S> {
    /// The mirrors, each panic-isolated, called on the caller's thread.
    members: Vec<Isolated<S>>,
    name: &'static str,
    /// `health[m]` is false once member `m` failed transiently, panicked
    /// or was taken down; it is skipped until repair re-admits it.
    health: Vec<bool>,
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

fn poisoned(m: usize) -> HmError {
    unavailable(format!(
        "member {m} poisoned by a panic; replace the backend first"
    ))
}

impl<S: HyperStore> ReplicaGroup<S> {
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
            members: members.into_iter().map(Isolated::new).collect(),
            health: vec![true; k],
            failovers: 0,
            demotions: 0,
            repairs: 0,
            repair_defer: vec![0; k],
            repair_fails: vec![0; k],
        }
    }

    /// Replication factor K.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Per-member health: `false` while a member is demoted.
    pub fn member_health(&self) -> &[bool] {
        &self.health
    }

    /// Reads served by a non-primary replica while the primary was down.
    pub fn failover_reads(&self) -> u64 {
        self.failovers
    }

    /// Members demoted after a transient failure or a panic.
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

    fn member(&mut self, m: usize) -> Result<&mut Isolated<S>> {
        self.members
            .get_mut(m)
            .ok_or_else(|| unavailable(format!("no member {m} in this group")))
    }

    /// Swap in a replacement backend for member `m` (e.g. a store
    /// reopened by recovery), clearing its poison flag. The fresh
    /// backend stays demoted until [`ReplicaGroup::repair_replicas`] (or
    /// the next commit) has resynced it from a healthy sibling — an
    /// empty replacement must never serve reads. Returns the previous
    /// backend.
    pub fn replace_member(&mut self, m: usize, store: S) -> Result<S> {
        let old = self.member(m)?.replace(store);
        self.health[m] = false;
        // A fresh backend deserves a prompt repair attempt.
        self.repair_defer[m] = 0;
        self.repair_fails[m] = 0;
        Ok(old)
    }

    /// Run `f` against member `m`'s backend directly, whatever its
    /// health or poison state — for instrumentation (fault plans, crash
    /// probes). Mutating the *data* through this makes the mirrors
    /// diverge.
    pub fn with_member<R>(&mut self, m: usize, f: impl FnOnce(&mut S) -> R) -> Result<R> {
        Ok(f(self.member(m)?.get_mut()))
    }

    fn stats(&self) -> GroupStats {
        GroupStats {
            k: self.members.len(),
            dead: self.health.iter().filter(|h| !**h).count(),
            members: self.members.len(),
            failovers: self.failovers,
            demotions: self.demotions,
            repairs: self.repairs,
        }
    }

    /// Demote member `m`: no reads or writes land there until repair
    /// resyncs and re-admits it.
    fn demote(&mut self, m: usize) {
        if self.health[m] {
            self.health[m] = false;
            self.demotions += 1;
            obs::incr("shard.replica.demotions", 1);
        }
    }

    /// Run `f` on member `m`, panic-isolated. A panic poisons and
    /// demotes the member and reads as a transient failure.
    fn run_member<T>(&mut self, m: usize, f: impl FnOnce(&mut S) -> Result<T>) -> Result<T> {
        let answer = self.members[m].run(f);
        answer.unwrap_or_else(|| {
            self.demote(m);
            Err(poisoned(m))
        })
    }

    /// A read: served by the least-busy healthy member, failing over —
    /// and demoting — on transient errors until the group is exhausted.
    /// The request is copied only while a sibling could still take it
    /// over.
    fn read_one(&mut self, req: Request) -> Result<Response> {
        let mut req = Some(req);
        loop {
            let m = (0..self.members.len())
                .filter(|&m| self.health[m])
                .min_by_key(|&m| (self.members[m].busy_ewma_us(), m))
                .ok_or_else(no_replica)?;
            if !self.health[0] {
                self.failovers += 1;
                obs::incr("shard.replica.failover_reads", 1);
            }
            let spare = self.health.iter().filter(|h| **h).count() > 1;
            let this = if spare { req.clone() } else { req.take() };
            let this = this.ok_or_else(no_replica)?;
            match self.run_member(m, |sh| sh.call(this)) {
                Err(e) if e.is_transient() => self.demote(m),
                r => return r,
            }
        }
    }

    /// A write or a barrier: every healthy member runs `req`, in member
    /// order, each but the last on its own copy. A member that fails
    /// transiently is demoted while its siblings carry the group. A
    /// deterministic error (wrong kind, unknown node — identical on every
    /// mirror) demotes no one and is returned once every member has run
    /// `req`; otherwise the call fails only when no member applied it.
    fn apply_all(&mut self, req: Request) -> Result<Response> {
        let last = self.health.iter().rposition(|h| *h);
        let mut req = Some(req);
        let mut value = None;
        let mut failed = None;
        let mut lost = None;
        for m in 0..self.members.len() {
            let this = match (self.health[m], Some(m) == last) {
                (false, _) => continue,
                (true, false) => req.clone(),
                (true, true) => req.take(),
            };
            let Some(this) = this else { break };
            match self.run_member(m, |sh| sh.call(this)) {
                Ok(v) => {
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
            (None, Some(v)) => Ok(v),
            (None, None) => Err(lost.unwrap_or_else(no_replica)),
        }
    }

    /// Resync every demoted, unpoisoned member from a healthy sibling
    /// and re-admit it. Best-effort: a member whose repair fails stays
    /// demoted and a later pass (exponentially backed off: 1, 2, 4, …
    /// 64 passes) tries again. Run by every `commit` / `prepare_commit`,
    /// the natural anti-entropy point: the whole group takes the commit
    /// together when possible.
    pub fn repair_replicas(&mut self) {
        for m in 0..self.members.len() {
            if self.health[m] || self.members[m].is_poisoned() {
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
    /// the sibling's full state, install it on `m`, probe, and re-admit.
    /// Refuses while `m` is poisoned by a panic
    /// ([`ReplicaGroup::replace_member`] first).
    pub fn revive_member(&mut self, m: usize) -> Result<()> {
        if self.member(m)?.is_poisoned() {
            return Err(poisoned(m));
        }
        let src = (0..self.members.len())
            .find(|&o| o != m && self.health[o])
            .ok_or_else(no_replica)?;
        let snapshot = match self.run_member(src, |sh| sh.sync_export()) {
            Ok(bytes) => bytes,
            Err(e) if e.is_transient() => {
                self.demote(src);
                return Err(unavailable(e.to_string()));
            }
            Err(e) => return Err(e),
        };
        self.run_member(m, |sh| {
            sh.sync_import(&snapshot)?;
            sh.seq_scan_ten() // probe before re-admission
        })?;
        self.health[m] = true;
        self.repairs += 1;
        obs::incr("shard.replica.repairs", 1);
        Ok(())
    }
}

/// Route each request by its class. `commit` and `prepare_commit` run
/// anti-entropy repair first. A mirror whose prepare fails transiently is
/// demoted and the group still votes yes on the strength of its
/// siblings: the demoted mirror is never asked about the txid again —
/// its only way back is a wholesale resync from a sibling that took the
/// decision.
impl<S: HyperStore> hypermodel::Service for ReplicaGroup<S> {
    fn call(&mut self, req: Request) -> Result<Response> {
        match req.class() {
            Class::Read => self.read_one(req),
            Class::Write => self.apply_all(req),
            Class::Barrier => {
                if matches!(req, Request::Commit | Request::PrepareCommit(_)) {
                    self.repair_replicas();
                }
                self.apply_all(req)
            }
        }
    }

    fn backend_name(&self) -> &'static str {
        self.name
    }

    /// One entry, the group's own load: nothing is ever queued (members
    /// are called on the caller), and the busy time is the busiest
    /// member's EWMA (the group is as slow as its slowest mirror).
    fn shard_balance(&self) -> Option<Vec<ShardLoad>> {
        Some(vec![ShardLoad {
            shard: 0,
            nodes: 0,
            requests: 0,
            queued: 0,
            busy_us: self
                .members
                .iter()
                .map(Isolated::busy_ewma_us)
                .max()
                .unwrap_or(0),
            migrated: 0,
        }])
    }

    fn resilience_summary(&self) -> Option<String> {
        Some(self.stats().to_string())
    }
}
