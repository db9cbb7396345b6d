//! End-to-end trace propagation: one trace id minted on the client
//! thread must reappear on every hop of a cross-shard operation —
//! the client call site, the server event loop's frame dispatch, and
//! the shard executor's worker — stitched together by the 8-byte trace
//! field in the wire frame header and the executor's job capture.

use std::collections::BTreeSet;

use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::store::HyperStore;
use mem_backend::MemStore;

/// Span recording is one process-wide switch: the tests take turns.
static RECORDING: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn one_trace_spans_client_loop_and_executor() {
    let _turn = RECORDING.lock().unwrap_or_else(|p| p.into_inner());
    let shards: Vec<MemStore> = (0..2).map(|_| MemStore::new()).collect();
    let srv = server::serve_multi(shards).expect("serve_multi");
    let mut store = shard::connect_sharded(&srv.addr_strings(), shard::Placement::affinity())
        .expect("connect_sharded");

    let db = TestDatabase::generate(&GenConfig::tiny());
    let report = load_database(&mut store, &db).expect("load");

    // Record spans only for the operation under test, not the bulk load.
    let reg = obs::registry();
    reg.set_record_spans(true);

    let trace = obs::trace::mint();
    {
        let _scope = obs::trace::scope(trace);
        let root = report.oids[0];
        let nodes = store.closure_1n(root).expect("closure");
        assert!(!nodes.is_empty(), "closure must traverse something");
    }

    reg.set_record_spans(false);

    // Workers record their span on job completion; one more round trip
    // through the same server guarantees the earlier completions have
    // been processed before we read the log.
    store.commit().expect("commit");

    let names: BTreeSet<&'static str> = reg
        .spans()
        .iter()
        .filter(|s| s.trace == trace)
        .map(|s| s.name)
        .collect();
    for hop in ["client.call", "loop.frame", "exec.job"] {
        assert!(
            names.contains(hop),
            "trace {trace:#x} never reached `{hop}`; hops seen: {names:?}"
        );
    }
}

/// Replication adds a hop (the group's member worker) but not a trace:
/// a point read against a replicated TCP deployment is still one causal
/// chain — the member worker's `exec.job` around the client call, the
/// server's `exec.job` inside it — under the one id minted here.
#[test]
fn a_replicated_point_read_is_one_trace_with_two_nested_jobs() {
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
    // is a barrier through every member worker and every server worker,
    // so once it returns the spans of the read above are in the log.
    store.commit().expect("commit");
    reg.set_record_spans(false);

    let spans: Vec<_> = reg
        .spans()
        .into_iter()
        .filter(|s| s.trace == trace)
        .collect();
    let jobs: Vec<_> = spans.iter().filter(|s| s.name == "exec.job").collect();
    assert_eq!(jobs.len(), 2, "member worker + server worker: {spans:?}");
    // Nested: the server's job finishes first, inside the member's.
    assert!(jobs[0].seq < jobs[1].seq && jobs[0].dur_us <= jobs[1].dur_us);
    for hop in ["client.call", "loop.frame"] {
        assert_eq!(
            spans.iter().filter(|s| s.name == hop).count(),
            1,
            "one `{hop}` between the two jobs: {spans:?}"
        );
    }
}
