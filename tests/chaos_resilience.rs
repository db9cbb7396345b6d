//! End-to-end resilience: the full 20-operation benchmark protocol over
//! a transport that drops 10% of frames, survived by the client's
//! retry policy and the server's idempotent request handling; and the
//! `remote` deployment under the fault plans the CI chaos matrix runs.

use std::time::Duration;

use chaos::{FaultPlan, FaultyTransport};
use harness::backend::BackendSpec;
use harness::protocol::{run_all_ops, OpMeasurement, RunOptions};
use harness::Workload;
use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::store::{closure_1n_att_set, HyperStore};
use mem_backend::MemStore;
use server::client::RetryPolicy;
use server::{serve, ChannelTransport, RemoteStore};

/// Acceptance: with a `RetryPolicy`, a `RemoteStore` completes all 20
/// operations *correctly* — node counts identical to a fault-free local
/// run — even though every tenth frame (requests and responses alike)
/// vanishes in flight.
#[test]
fn retry_policy_completes_all_20_ops_over_a_lossy_transport() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let opts = RunOptions {
        reps: 2,
        input_seed: 7,
    };

    // Fault-free local baseline: the measurements' node counts are the
    // correctness yardstick (they count what each operation returned).
    let mut local = MemStore::new();
    let local_report = load_database(&mut local, &db).unwrap();
    let mut workload = Workload::new(db.clone(), local_report.oids, 7);
    let baseline = run_all_ops(&mut local, &mut workload, opts).unwrap();

    // Lossy deployment: both directions drop 10% of frames, seeded and
    // reproducible. The server keeps running (it replays the reply of a
    // resent mutation); the client retries on timeout.
    let lossy = |seed| FaultPlan {
        drop_per_mille: 100,
        ..FaultPlan::none(seed)
    };
    let (client_end, server_end) = ChannelTransport::pair(Duration::ZERO);
    let mut server_end = FaultyTransport::new(server_end, lossy(11));
    let server = std::thread::spawn(move || serve(MemStore::new(), &mut server_end).unwrap());

    let client_end = FaultyTransport::new(client_end, lossy(12));
    let mut remote = RemoteStore::new(Box::new(client_end)).with_retry(RetryPolicy {
        request_timeout: Duration::from_millis(10),
        max_retries: 12,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(8),
    });
    let report = load_database(&mut remote, &db).unwrap();
    let mut workload = Workload::new(db, report.oids, 7);
    let measured = run_all_ops(&mut remote, &mut workload, opts).unwrap();

    assert_eq!(measured.len(), 20, "all 20 operations must complete");
    for (m, b) in measured.iter().zip(&baseline) {
        assert_eq!(m.op, b.op);
        assert_eq!(
            (m.cold_nodes, m.warm_nodes),
            (b.cold_nodes, b.warm_nodes),
            "{}: lossy run returned different nodes than the clean run",
            m.op
        );
    }
    // The navigational client — three small frames per node, one of them
    // a mutation — survives the same loss (a level-1 subtree).
    let start = |s: &mut dyn HyperStore| s.lookup_unique(2).unwrap();
    let (l_start, r_start) = (start(&mut local), start(&mut remote));
    assert_eq!(
        closure_1n_att_set(&mut remote, r_start).unwrap(),
        closure_1n_att_set(&mut local, l_start).unwrap()
    );
    assert_eq!(
        remote.closure_1n_att_sum(r_start).unwrap(),
        local.closure_1n_att_sum(l_start).unwrap()
    );
    assert!(
        remote.retries() > 0,
        "a 10% drop rate must actually trigger retries"
    );
    assert_eq!(remote.gave_up(), 0, "no request may exhaust its retries");

    drop(remote);
    let stats = server.join().unwrap();
    assert!(
        stats.replayed > 0,
        "some retried mutations must have been answered with their first reply"
    );
}

/// `hyperbench run --level 3 --reps 5 --backend remote --faults <plan>`
/// for the plans the CI chaos matrix runs against `remote`: every
/// operation returns the nodes a fault-free run returns, and no call
/// exhausts its retries. Under `flaky` a reply can arrive after its
/// call's deadline, and under `dupes` every tenth frame arrives twice;
/// neither may answer the call after it.
#[test]
fn remote_under_the_ci_fault_plans_returns_what_a_fault_free_run_does() {
    let db = TestDatabase::generate(&GenConfig::level(3));
    let run = |faults: Option<&FaultPlan>| -> (Vec<OpMeasurement>, Option<String>) {
        let mut dep = BackendSpec::Remote
            .deploy(&db, &std::env::temp_dir(), 8192, faults)
            .unwrap();
        let mut workload = Workload::new(db.clone(), dep.load.oids.clone(), 0xBEEF);
        let opts = RunOptions {
            reps: 5,
            input_seed: 0xBEEF,
        };
        let measured = run_all_ops(dep.store.as_mut(), &mut workload, opts).unwrap();
        (measured, dep.store.resilience_summary())
    };
    let (baseline, _) = run(None);
    for spec in ["7:flaky", "1234:dupes"] {
        let (measured, summary) = run(Some(&FaultPlan::parse(spec).unwrap()));
        assert_eq!(measured.len(), 20, "{spec}");
        for (m, b) in measured.iter().zip(&baseline) {
            assert_eq!(
                (m.op, m.cold_nodes, m.warm_nodes),
                (b.op, b.cold_nodes, b.warm_nodes),
                "{spec}"
            );
        }
        let summary = summary.expect("a fault plan reports resilience");
        assert!(summary.contains(" gave-up=0 "), "{spec}: {summary}");
    }
}
