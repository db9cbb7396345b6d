//! A panicking in-process shard behind a `ShardedStore` follows one rule
//! on every path — a point operation, the share of a fan-out the caller
//! runs itself, and a share queued on a shard worker: the panic poisons
//! that shard only and surfaces as `ShardUnavailable`, never as an
//! unwind through the caller. The poisoned shard refuses `revive_shard`
//! until `replace_shard` swaps in a sound backend.

use hypermodel::config::GenConfig;
use hypermodel::error::{HmError, Result};
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::{NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::store::HyperStore;
use hypermodel::{BatchWrite, Bitmap, NodeExport};
use mem_backend::MemStore;
use shard::{Placement, ShardedStore};

/// A store that panics when `panic_on` names the method called and
/// otherwise forwards to `inner`. Before panicking it notes the thread it
/// runs on, so a test can tell the caller's share from a worker's.
struct PanicOn {
    inner: MemStore,
    panic_on: &'static str,
    panicked_on: Option<String>,
}

impl PanicOn {
    fn new(inner: MemStore) -> PanicOn {
        PanicOn {
            inner,
            panic_on: "",
            panicked_on: None,
        }
    }
}

macro_rules! forward {
    ($(
        $class:ident $tag:literal $variant:ident
        fn $name:ident $(( $($arg:ident: [$($ty:tt)+]),+ ))? -> $ret:ty $(, about $subject:ident)?;
    )*) => {$(
        fn $name(&mut self $($(, $arg: $($ty)+)+)?) -> Result<$ret> {
            if self.panic_on == stringify!($name) {
                self.panicked_on = std::thread::current().name().map(String::from);
                panic!("injected panic in {}", stringify!($name));
            }
            self.inner.$name($($($arg),+)?)
        }
    )*};
}

impl HyperStore for PanicOn {
    hypermodel::store_ops!(forward);

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

    /// Make `shard` panic in `method`.
    fn arm(&mut self, shard: usize, method: &'static str) {
        self.store
            .with_shard(shard, |sh| sh.panic_on = method)
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
    f.arm(1, "hundred_of");
    let err = f.store.hundred_of(doomed).unwrap_err();
    f.assert_poisoned(1, err, std::thread::current().name());
    // The other shard keeps answering point operations.
    assert!(f.store.hundred_of(healthy).is_ok());
    f.restore(1);
    assert!(f.store.hundred_of(doomed).is_ok());
}

#[test]
fn a_panic_in_the_inline_share_of_a_closure_level_poisons_the_shard() {
    let mut f = Fixture::new();
    // The first level's only work is on the start node's shard, which
    // the caller runs itself.
    let start = f.on(1);
    f.arm(1, "children_batch");
    let err = f.store.closure_1n(start).unwrap_err();
    f.assert_poisoned(1, err, std::thread::current().name());
    f.restore(1);
}

#[test]
fn a_panic_in_a_worker_share_of_a_closure_level_poisons_the_shard() {
    let mut f = Fixture::new();
    // A start node on shard 0 with children on both shards: the second
    // level runs shard 0's share on the caller and queues shard 1's.
    let start = f
        .oids
        .iter()
        .copied()
        .find(|&o| {
            let kids = f.store.children(o).unwrap();
            f.store.owner_of(o) == Some(0)
                && [0, 1]
                    .iter()
                    .all(|&s| kids.iter().any(|&k| f.store.owner_of(k) == Some(s)))
        })
        .expect("a shard-0 node with children on both shards");
    f.arm(1, "children_batch");
    let err = f.store.closure_1n(start).unwrap_err();
    f.assert_poisoned(1, err, Some("shard-exec-1"));
    f.restore(1);
}
