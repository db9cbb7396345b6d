//! A [`HyperStore`] wrapper that kills its inner store at a planned
//! crash point, simulating a process death for recovery testing. It is a
//! [`Service`](hypermodel::Service): the requests with a crash point are
//! match arms, and every other request goes to the inner store as it is.

use hypermodel::error::{HmError, Result};
use hypermodel::protocol::{Request, Response};
use hypermodel::store::{HyperStore, ShardLoad};

use crate::plan::{CrashPoint, FaultPlan};

/// Wraps a store and crashes it at the [`FaultPlan`]'s crash point.
///
/// "Crashing" means the inner store is leaked with [`std::mem::forget`]
/// — destructors do not run, exactly as when the process is killed, so
/// a disk-backed store's recovery path is exercised for real. After the
/// crash every operation fails with a *transient* [`HmError::Timeout`],
/// which is what health tracking and retry policies key on.
pub struct ChaosStore<S: HyperStore> {
    inner: Option<S>,
    plan: FaultPlan,
    commits_seen: u64,
    prepares_seen: u64,
    activates_seen: u64,
    crashed: bool,
}

impl<S: HyperStore> ChaosStore<S> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> ChaosStore<S> {
        ChaosStore {
            inner: Some(inner),
            plan,
            commits_seen: 0,
            prepares_seen: 0,
            activates_seen: 0,
            crashed: false,
        }
    }

    /// True once the planned crash has fired.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Replace the fault plan. Lets a test load data fault-free and only
    /// then arm a crash point for the operation under test.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
    }

    /// How many [`HyperStore::prepare_commit`] requests this store has seen
    /// — the occurrence counter crash points are matched against.
    pub fn prepares_seen(&self) -> u64 {
        self.prepares_seen
    }

    /// How many [`HyperStore::commit`] requests this store has seen.
    pub fn commits_seen(&self) -> u64 {
        self.commits_seen
    }

    /// Unwrap the inner store, if it has not crashed.
    pub fn into_inner(self) -> Option<S> {
        let mut this = self;
        this.inner.take()
    }

    /// Model the killed process restarting: hand the wrapper the store
    /// a recovery path rebuilt from durable state. Clears the crashed
    /// flag so operations flow again; the planned crash stays consumed.
    pub fn recover(&mut self, inner: S) {
        if let Some(old) = self.inner.take() {
            std::mem::forget(old);
        }
        self.inner = Some(inner);
        self.crashed = false;
    }

    fn live(&mut self) -> Result<&mut S> {
        self.inner
            .as_mut()
            .ok_or_else(|| HmError::Timeout("store crashed (injected fault)".into()))
    }

    /// Kill the inner store without running its destructor.
    fn crash(&mut self) {
        if let Some(inner) = self.inner.take() {
            std::mem::forget(inner);
        }
        self.crashed = true;
    }

    /// Crash here if the plan's crash point is `point` at its `nth`
    /// occurrence, failing the call transiently.
    fn crash_at(&mut self, point: CrashPoint, nth: u64, when: &str) -> Result<()> {
        if self.plan.crash == Some(crate::plan::CrashSpec { point, nth }) {
            self.crash();
            return Err(HmError::Timeout(format!("crashed {when} (injected)")));
        }
        Ok(())
    }
}

/// Forward each request to the live inner store, failing transiently once
/// the store has crashed, and fire the planned crash points.
impl<S: HyperStore> hypermodel::Service for ChaosStore<S> {
    fn call(&mut self, req: Request) -> Result<Response> {
        match req {
            Request::ActivateNodes(_) => {
                self.activates_seen += 1;
                // The kill lands *between* install and activate: the inert
                // copies exist, ownership never flips.
                let n = self.activates_seen;
                self.crash_at(
                    CrashPoint::DuringMigration,
                    n,
                    "between install and activate",
                )?;
                self.live()?.call(req)
            }
            Request::Commit => {
                self.commits_seen += 1;
                let n = self.commits_seen;
                self.crash_at(CrashPoint::BeforeCommit, n, "before commit")?;
                let resp = self.live()?.call(req)?;
                self.crash_at(CrashPoint::AfterCommit, n, "after commit")?;
                Ok(resp)
            }
            Request::PrepareCommit(_) => {
                self.prepares_seen += 1;
                let resp = self.live()?.call(req)?;
                let n = self.prepares_seen;
                self.crash_at(
                    CrashPoint::AfterPrepare,
                    n,
                    "after prepare, before decision",
                )?;
                Ok(resp)
            }
            _ => self.live()?.call(req),
        }
    }

    fn backend_name(&self) -> &'static str {
        match &self.inner {
            Some(inner) => inner.backend_name(),
            None => "chaos-crashed",
        }
    }

    fn shard_balance(&self) -> Option<Vec<ShardLoad>> {
        self.inner.as_ref().and_then(|s| s.shard_balance())
    }

    fn resilience_summary(&self) -> Option<String> {
        let own = format!(
            "faults={} commits-seen={} crashed={}",
            self.plan.name, self.commits_seen, self.crashed
        );
        match self.inner.as_ref().and_then(|s| s.resilience_summary()) {
            Some(inner) => Some(format!("{own}; {inner}")),
            None => Some(own),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypermodel::config::GenConfig;
    use hypermodel::generate::TestDatabase;
    use hypermodel::load::load_database;
    use mem_backend::MemStore;

    #[test]
    fn crash_before_commit_makes_all_later_ops_transient() {
        let db = TestDatabase::generate(&GenConfig::tiny());
        let mut inner = MemStore::new();
        let report = load_database(&mut inner, &db).unwrap();
        let mut store = ChaosStore::new(inner, FaultPlan::named(9, "crash-before-commit").unwrap());
        let root = report.oids[0];
        assert!(store.hundred_of(root).is_ok());

        let err = store.commit().unwrap_err();
        assert!(err.is_transient());
        assert!(store.is_crashed());
        let err = store.hundred_of(root).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(store.backend_name(), "chaos-crashed");
    }

    #[test]
    fn crash_after_commit_fires_once_on_the_right_occurrence() {
        let mut store = ChaosStore::new(MemStore::new(), FaultPlan::none(1));
        store.commit().unwrap();
        store.commit().unwrap();
        assert!(!store.is_crashed());

        let plan = FaultPlan {
            crash: Some(crate::plan::CrashSpec {
                point: CrashPoint::AfterCommit,
                nth: 2,
            }),
            ..FaultPlan::none(1)
        };
        let mut store = ChaosStore::new(MemStore::new(), plan);
        store.commit().unwrap();
        assert!(store.commit().unwrap_err().is_transient());
        assert!(store.is_crashed());
    }
}
