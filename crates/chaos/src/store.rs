//! A [`HyperStore`] wrapper that kills its inner store at a planned
//! crash point, simulating a process death for recovery testing.

use hypermodel::error::{HmError, Result};
use hypermodel::model::{NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::store::{HyperStore, ShardLoad};
use hypermodel::{BatchWrite, Bitmap, NodeExport};

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

    /// How many [`HyperStore::prepare_commit`] calls this store has seen
    /// — the occurrence counter crash points are matched against.
    pub fn prepares_seen(&self) -> u64 {
        self.prepares_seen
    }

    /// How many [`HyperStore::commit`] calls this store has seen.
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

    fn crash_due(&self, point: CrashPoint, occurrence: u64) -> bool {
        self.plan.crash
            == Some(crate::plan::CrashSpec {
                point,
                nth: occurrence,
            })
    }
}

/// Forward every catalogue operation to the live inner store, failing
/// transiently once the store has crashed.
macro_rules! forward {
    ($(
        $class:ident $tag:literal $variant:ident
        fn $name:ident $(( $($arg:ident: [$($ty:tt)+]),+ ))? -> $ret:ty $(, about $subject:ident)?;
    )*) => {$(
        forward_one! { fn $name($($($arg: [$($ty)+]),+)?) -> $ret }
    )*};
}
macro_rules! forward_one {
    // The planned crash points, written out in the impl.
    (fn commit $($rest:tt)*) => {};
    (fn prepare_commit $($rest:tt)*) => {};
    (fn activate_nodes $($rest:tt)*) => {};
    (fn $name:ident($($arg:ident: [$($ty:tt)+]),*) -> $ret:ty) => {
        fn $name(&mut self $(, $arg: $($ty)+)*) -> Result<$ret> {
            self.live()?.$name($($arg),*)
        }
    };
}

impl<S: HyperStore> HyperStore for ChaosStore<S> {
    hypermodel::store_ops!(forward);

    fn activate_nodes(&mut self, oids: &[Oid]) -> Result<()> {
        self.activates_seen += 1;
        let n = self.activates_seen;
        if self.crash_due(CrashPoint::DuringMigration, n) {
            // The kill lands *between* install and activate: the inert
            // copies exist, ownership never flips.
            self.crash();
            return Err(HmError::Timeout(
                "crashed between install and activate (injected)".into(),
            ));
        }
        self.live()?.activate_nodes(oids)
    }

    fn commit(&mut self) -> Result<()> {
        self.commits_seen += 1;
        let n = self.commits_seen;
        if self.crash_due(CrashPoint::BeforeCommit, n) {
            self.crash();
            return Err(HmError::Timeout("crashed before commit (injected)".into()));
        }
        self.live()?.commit()?;
        if self.crash_due(CrashPoint::AfterCommit, n) {
            self.crash();
            return Err(HmError::Timeout("crashed after commit (injected)".into()));
        }
        Ok(())
    }

    fn prepare_commit(&mut self, txid: u64) -> Result<()> {
        self.prepares_seen += 1;
        let n = self.prepares_seen;
        self.live()?.prepare_commit(txid)?;
        if self.crash_due(CrashPoint::AfterPrepare, n) {
            self.crash();
            return Err(HmError::Timeout(
                "crashed after prepare, before decision (injected)".into(),
            ));
        }
        Ok(())
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
