//! A panicking in-process shard behind a `ShardedStore` follows one rule
//! on every path — a point operation, the share of a fan-out the caller
//! runs itself, and a share queued on a shard worker: the panic poisons
//! that shard only and surfaces as `ShardUnavailable`, never as an
//! unwind through the caller. The poisoned shard refuses `revive_shard`
//! until `replace_shard` swaps in a sound backend. A replica group's
//! member follows the same rule inside its group: the panic poisons and
//! demotes that member only, and it stays out until `replace_member`.

use hypermodel::config::GenConfig;
use hypermodel::error::{HmError, Result};
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::Oid;
use hypermodel::protocol::{Request, Response};
use hypermodel::store::{HyperStore, Rel};
use hypermodel::verify::verify_store;
use mem_backend::MemStore;
use shard::{Placement, ReplicaGroup, ShardedStore};

/// A store that panics on the requests `panic_on` picks and otherwise
/// passes them to `inner`. Before panicking it notes the thread it runs
/// on, so a test can tell the caller's share from a worker's.
struct PanicOn {
    inner: MemStore,
    panic_on: fn(&Request) -> bool,
    panicked_on: Option<String>,
}

impl PanicOn {
    fn new(inner: MemStore) -> PanicOn {
        PanicOn {
            inner,
            panic_on: |_| false,
            panicked_on: None,
        }
    }
}

impl hypermodel::Service for PanicOn {
    fn call(&mut self, req: Request) -> Result<Response> {
        if (self.panic_on)(&req) {
            self.panicked_on = std::thread::current().name().map(String::from);
            panic!("injected panic in {req:?}");
        }
        self.inner.call(req)
    }

    fn backend_name(&self) -> &'static str {
        "panic-on"
    }
}

/// A loaded two-shard deployment, the database's global ids, and the
/// whole database's O10 closure from the root as the healthy answer.
struct Fixture {
    store: ShardedStore<PanicOn>,
    oids: Vec<Oid>,
    closure: Vec<Oid>,
}

impl Fixture {
    fn new() -> Fixture {
        let db = TestDatabase::generate(&GenConfig::tiny());
        let shards = vec![PanicOn::new(MemStore::new()), PanicOn::new(MemStore::new())];
        let mut store = ShardedStore::new(shards, Placement::OidHash, "sharded-panic-on");
        let oids = load_database(&mut store, &db).unwrap().oids;
        let closure = store.closure_1n(oids[0]).unwrap();
        assert_eq!(closure.len(), db.len(), "the root reaches every node");
        Fixture {
            store,
            oids,
            closure,
        }
    }

    /// A node owned by `shard`.
    fn on(&self, shard: usize) -> Oid {
        *self
            .oids
            .iter()
            .find(|&&o| self.store.owner_of(o) == Some(shard))
            .expect("hash placement uses both shards")
    }

    /// Make `shard` panic on the requests `panic_on` picks.
    fn arm(&mut self, shard: usize, panic_on: fn(&Request) -> bool) {
        self.store
            .with_shard(shard, |sh| sh.panic_on = panic_on)
            .unwrap();
    }

    /// `err` is `shard` reporting unavailable, the shard is marked dead
    /// and poisoned, and the injected panic fired on the thread `on`.
    fn assert_poisoned(&mut self, shard: usize, err: HmError, on: Option<&str>) {
        assert!(
            matches!(err, HmError::ShardUnavailable { shard: s, .. } if s == shard),
            "expected shard {shard} unavailable, got {err}"
        );
        assert!(!self.store.health()[shard], "shard {shard} marked dead");
        let seen = self.store.with_shard(shard, |sh| sh.panicked_on.take());
        assert_eq!(seen.unwrap().as_deref(), on, "thread the panic fired on");
        // Poisoned: the revival probe is refused, not run.
        let refused = self.store.revive_shard(shard).unwrap_err();
        assert!(
            matches!(refused, HmError::ShardUnavailable { shard: s, .. } if s == shard),
            "{refused}"
        );
        assert!(!self.store.health()[shard]);
    }

    /// Swap in a backend that does not panic, revive, and check the
    /// deployment answers like it did before the panic. The injected
    /// panic fires before `inner` is touched, so the poisoned backend's
    /// data is sound and moves into the replacement.
    fn restore(&mut self, shard: usize) {
        let data = self
            .store
            .with_shard(shard, |sh| std::mem::take(&mut sh.inner));
        drop(
            self.store
                .replace_shard(shard, PanicOn::new(data.unwrap()))
                .unwrap(),
        );
        self.store.revive_shard(shard).unwrap();
        assert_eq!(self.store.health(), &[true, true]);
        assert_eq!(self.store.seq_scan_ten().unwrap(), self.oids.len() as u64);
        assert_eq!(self.store.closure_1n(self.oids[0]).unwrap(), self.closure);
    }
}

#[test]
fn a_panic_in_a_point_operation_poisons_the_shard() {
    let mut f = Fixture::new();
    let (doomed, healthy) = (f.on(1), f.on(0));
    f.arm(1, |req| matches!(req, Request::HundredOf(_)));
    let err = f.store.hundred_of(doomed).unwrap_err();
    f.assert_poisoned(1, err, std::thread::current().name());
    // The other shard keeps answering point operations.
    assert!(f.store.hundred_of(healthy).is_ok());
    f.restore(1);
    assert!(f.store.hundred_of(doomed).is_ok());
}

#[test]
fn a_panic_in_the_inline_share_of_a_closure_round_poisons_the_shard() {
    let mut f = Fixture::new();
    // The first round's only work is on the start node's shard, which
    // the caller runs itself.
    let start = f.on(1);
    f.arm(1, |req| matches!(req, Request::Expand(..)));
    let err = f.store.closure_1n(start).unwrap_err();
    f.assert_poisoned(1, err, std::thread::current().name());
    f.restore(1);
}

#[test]
fn a_panic_in_a_worker_share_of_a_closure_round_poisons_the_shard() {
    let mut f = Fixture::new();
    // Starts on both shards: the first round runs shard 0's share on the
    // caller and queues shard 1's.
    let starts = [(f.on(0), u32::MAX), (f.on(1), u32::MAX)];
    f.arm(1, |req| matches!(req, Request::Expand(..)));
    let err = f.store.expand(Rel::Children, &starts, None).unwrap_err();
    f.assert_poisoned(1, err, Some("shard-exec-1"));
    f.restore(1);
}

#[test]
fn a_panicking_member_is_poisoned_and_demoted_and_its_sibling_carries_the_group() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let members = (0..2).map(|_| PanicOn::new(MemStore::new())).collect();
    let mut g = ReplicaGroup::new(members);
    let oids = load_database(&mut g, &db).unwrap().oids;
    let target = oids[1];
    let before = g.hundred_of(target).unwrap();
    let after = before % 100 + 1;

    // Member 0 panics in the next write: the write still lands on its
    // sibling, and the panic does not unwind through the caller.
    g.with_member(0, |sh| {
        sh.panic_on = |req| matches!(req, Request::SetHundred(..))
    })
    .unwrap();
    g.set_hundred(target, after).unwrap();
    assert_eq!(g.member_health(), &[false, true], "member 0 demoted");
    assert_eq!(g.demotions(), 1);
    let seen = g.with_member(0, |sh| sh.panicked_on.take()).unwrap();
    assert_eq!(seen.as_deref(), std::thread::current().name());

    // Reads and writes go on through member 1.
    assert_eq!(g.hundred_of(target).unwrap(), after);
    g.set_hundred(target, before).unwrap();
    assert_eq!(g.hundred_of(target).unwrap(), before);

    // Repair skips the poisoned member, and reviving it is refused.
    g.with_member(0, |sh| sh.panic_on = |_| false).unwrap();
    g.commit().unwrap();
    assert_eq!(g.member_health(), &[false, true]);
    assert_eq!(g.repairs(), 0);
    let refused = g.revive_member(0).unwrap_err();
    assert!(
        matches!(refused, HmError::ShardUnavailable { .. }),
        "{refused}"
    );

    // A fresh backend stays demoted until the commit resyncs it; then it
    // gives oracle answers on its own.
    drop(g.replace_member(0, PanicOn::new(MemStore::new())).unwrap());
    assert_eq!(g.member_health(), &[false, true]);
    g.commit().unwrap();
    assert_eq!(g.member_health(), &[true, true]);
    assert_eq!(g.repairs(), 1);
    g.mark_member_down(1);
    let report = verify_store(&mut g, &db, &oids).unwrap();
    assert!(report.is_ok(), "{report}");
}
