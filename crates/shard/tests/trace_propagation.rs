//! End-to-end trace propagation: one trace id minted on the client
//! thread must reappear on every hop of a cross-shard operation —
//! the client's executor worker, its call site, and the server event
//! loop's frame dispatch — stitched together by the executor's job
//! capture and the 8-byte trace field in the wire frame header. A
//! fan-out with one involved shard has no executor hop at all.

#![allow(
    clippy::disallowed_types,
    reason = "serializes tests on a process-wide switch, outside the code the lock detector watches"
)]

use std::collections::BTreeSet;

use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::store::HyperStore;
use mem_backend::MemStore;

/// Span recording is one process-wide switch: the tests take turns.
static RECORDING: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Requests each shard of `store` has been sent so far.
fn requests<S: HyperStore>(store: &S) -> Vec<u64> {
    let loads = store.shard_balance().expect("a sharded store");
    loads.iter().map(|l| l.requests).collect()
}

/// The span names recorded under `trace`.
fn hops(trace: u64) -> BTreeSet<&'static str> {
    obs::registry()
        .spans()
        .iter()
        .filter(|s| s.trace == trace)
        .map(|s| s.name)
        .collect()
}

/// A fan-out to both shards is one trace: the caller runs shard 0's
/// share itself and queues shard 1's on its worker, and both reach the
/// server.
#[test]
fn one_trace_spans_client_loop_and_executor() {
    let _turn = RECORDING.lock().unwrap_or_else(|p| p.into_inner());
    let shards: Vec<MemStore> = (0..2).map(|_| MemStore::new()).collect();
    let srv = server::serve_multi(shards).expect("serve_multi");
    let mut store = shard::connect_sharded(&srv.addr_strings(), shard::Placement::affinity())
        .expect("connect_sharded");

    let db = TestDatabase::generate(&GenConfig::tiny());
    load_database(&mut store, &db).expect("load");

    // Record spans only for the operation under test, not the bulk load.
    let reg = obs::registry();
    reg.set_record_spans(true);

    let before = requests(&store);
    let trace = obs::trace::mint();
    {
        let _scope = obs::trace::scope(trace);
        let scanned = store.seq_scan_ten().expect("scan");
        assert_eq!(scanned, db.len() as u64);
    }
    let after = requests(&store);
    assert_eq!(
        after,
        before.iter().map(|r| r + 1).collect::<Vec<_>>(),
        "the scan fanned out to both shards"
    );

    // Workers record their span after handing the result back. A commit
    // runs shard 1's share on its worker, queued behind the scan's, so
    // once it returns the scan job's span is in the log.
    store.commit().expect("commit");
    reg.set_record_spans(false);

    let names = hops(trace);
    for hop in ["client.call", "loop.frame", "exec.job"] {
        assert!(
            names.contains(hop),
            "trace {trace:#x} never reached `{hop}`; hops seen: {names:?}"
        );
    }
}

/// A closure whose every level has work on one shard only runs on the
/// calling thread: the trace reaches the server but no executor worker.
#[test]
fn a_single_shard_closure_makes_no_executor_hop() {
    let _turn = RECORDING.lock().unwrap_or_else(|p| p.into_inner());
    let shards: Vec<MemStore> = (0..2).map(|_| MemStore::new()).collect();
    let srv = server::serve_multi(shards).expect("serve_multi");
    let mut store = shard::connect_sharded(&srv.addr_strings(), shard::Placement::affinity())
        .expect("connect_sharded");

    let db = TestDatabase::generate(&GenConfig::tiny());
    let report = load_database(&mut store, &db).expect("load");
    // Affinity placement keeps a subtree below the cut on its root's
    // shard: take the largest closure that stays on one shard.
    let start = report
        .oids
        .iter()
        .copied()
        .filter_map(|o| {
            let nodes = store.closure_1n(o).ok()?;
            let owner = store.owner_of(o);
            let local = nodes.iter().all(|&n| store.owner_of(n) == owner);
            local.then_some((nodes.len(), o))
        })
        .max()
        .map(|(_, o)| o)
        .expect("some closure stays on one shard");
    assert!(
        !store.children(start).expect("children").is_empty(),
        "the closure has more than one level"
    );

    let reg = obs::registry();
    reg.set_record_spans(true);
    let before = requests(&store);
    let trace = obs::trace::mint();
    {
        let _scope = obs::trace::scope(trace);
        store.closure_1n(start).expect("closure");
    }
    let after = requests(&store);
    let reached = (0..2).filter(|&s| after[s] > before[s]).count();
    assert_eq!(reached, 1, "the closure stayed on one shard");

    // `revive_shard` probes through the shard's worker queue: once it
    // returns for both shards, any job the closure had queued has
    // recorded its span.
    for s in 0..2 {
        store.revive_shard(s).expect("probe");
    }
    reg.set_record_spans(false);

    let names = hops(trace);
    for hop in ["client.call", "loop.frame"] {
        assert!(
            names.contains(hop),
            "trace {trace:#x} never reached `{hop}`; hops seen: {names:?}"
        );
    }
    assert!(
        !names.contains("exec.job"),
        "a single-shard closure queued a worker job: {names:?}"
    );
}

/// Replication adds a hop (the group's member worker) but not a trace:
/// a point read against a replicated TCP deployment is one causal
/// chain — the member worker's `exec.job` around the client call,
/// around the server's `loop.frame`, which executes the request inline —
/// under the one id minted here.
#[test]
fn a_replicated_point_read_is_one_trace_of_three_nested_hops() {
    let _turn = RECORDING.lock().unwrap_or_else(|p| p.into_inner());
    let shards: Vec<MemStore> = (0..4).map(|_| MemStore::new()).collect();
    let srv = server::serve_multi(shards).expect("serve_multi");
    let mut store =
        shard::connect_sharded_replicated(&srv.addr_strings(), 2, shard::Placement::affinity())
            .expect("connect_sharded_replicated");

    let db = TestDatabase::generate(&GenConfig::tiny());
    let report = load_database(&mut store, &db).expect("load");

    let reg = obs::registry();
    reg.set_record_spans(true);
    let trace = obs::trace::mint();
    {
        let _scope = obs::trace::scope(trace);
        store.hundred_of(report.oids[0]).expect("point read");
    }
    // Workers record their span after handing the result back. A commit
    // is a barrier through every member worker, so once it returns the
    // spans of the read above are in the log.
    store.commit().expect("commit");
    reg.set_record_spans(false);

    let mut spans: Vec<_> = reg
        .spans()
        .into_iter()
        .filter(|s| s.trace == trace)
        .collect();
    spans.sort_by_key(|s| s.seq);
    let names: Vec<_> = spans.iter().map(|s| s.name).collect();
    // Innermost first: each hop's span closes before the one around it.
    assert_eq!(
        names,
        ["loop.frame", "client.call", "exec.job"],
        "{spans:?}"
    );
    assert!(
        spans.windows(2).all(|w| w[0].dur_us <= w[1].dur_us),
        "each hop lasts at least as long as the one inside it: {spans:?}"
    );
}
