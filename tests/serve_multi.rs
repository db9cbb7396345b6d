//! One process, N shard servers: conformance and concurrency tests for
//! `server::serve_multi`, the nonblocking event-loop deployment.
//!
//! The first test is the acceptance bar for the executor/event-loop
//! subsystem: a *single* `serve_multi` process hosting four shards, with
//! a `connect_sharded` router in front, must answer every operation
//! identically to the oracle — same bar the in-process backends clear in
//! `cross_backend.rs`. The second drives two concurrent clients (one
//! behind a deliberately slow transport) through all 20 operations
//! against one process, proving the loop never blocks on a slow reader.
//! The third pins at-most-once execution of a tagged request retried on
//! a second connection while its first copy is still executing.

use std::time::Duration;

use harness::protocol::{run_all_ops, RunOptions};
use harness::Workload;
use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::Oid;
use hypermodel::oracle::Oracle;
use hypermodel::store::HyperStore;
use mem_backend::MemStore;
use server::protocol::{Request, Response};
use server::{serve, serve_multi, ChannelTransport, RemoteStore, TcpTransport, Transport};
use shard::{connect_sharded, Placement};

fn uid_of(store: &mut dyn HyperStore, oid: Oid) -> u32 {
    (store.unique_id_of(oid).unwrap() - 1) as u32
}

fn uids(store: &mut dyn HyperStore, oids: &[Oid]) -> Vec<u32> {
    oids.iter().map(|&o| uid_of(store, o)).collect()
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

/// The full `cross_backend.rs` assertion set, pinned against the oracle,
/// for one store.
fn check_conformance(store: &mut dyn HyperStore, oids: &[Oid], db: &TestDatabase) {
    let oracle = Oracle::new(db);
    let name = store.backend_name();
    let n = db.len() as u32;

    // O1/O2: name lookups for every uid.
    for uid in 1..=n as u64 {
        let oid = store.lookup_unique(uid).unwrap();
        assert_eq!(
            store.hundred_of(oid).unwrap(),
            oracle.hundred(uid as u32 - 1),
            "{name}: hundred of uid {uid}"
        );
    }

    // O3/O4: range lookups at the paper's selectivities.
    for (lo, hi) in [(1u32, 10), (42, 51), (91, 100)] {
        let got = store.range_hundred(lo, hi).unwrap();
        assert_eq!(
            sorted(uids(store, &got)),
            oracle.range_hundred(lo, hi),
            "{name}: O3"
        );
    }
    for (lo, hi) in [(1u32, 10_000), (500_000, 509_999)] {
        let got = store.range_million(lo, hi).unwrap();
        assert_eq!(
            sorted(uids(store, &got)),
            oracle.range_million(lo, hi),
            "{name}: O4"
        );
    }

    // O5-O8 on every node.
    for idx in 0..n {
        let oid = oids[idx as usize];
        let kids = store.children(oid).unwrap();
        assert_eq!(
            uids(store, &kids),
            oracle.children(idx),
            "{name}: children of {idx}"
        );
        let parent = store.parent(oid).unwrap().map(|p| uid_of(store, p));
        assert_eq!(parent, oracle.parent(idx), "{name}: parent of {idx}");
        let parts = store.parts(oid).unwrap();
        assert_eq!(
            uids(store, &parts),
            oracle.parts(idx),
            "{name}: parts of {idx}"
        );
        let owners = store.part_of(oid).unwrap();
        assert_eq!(
            sorted(uids(store, &owners)),
            oracle.part_of(idx),
            "{name}: partOf {idx}"
        );
        let rt = store.refs_to(oid).unwrap();
        let rt_u: Vec<(u32, u8, u8)> = rt
            .iter()
            .map(|e| (uid_of(store, e.target), e.offset_from, e.offset_to))
            .collect();
        assert_eq!(rt_u, oracle.ref_to(idx), "{name}: refsTo {idx}");
        let rf = store.refs_from(oid).unwrap();
        let mut rf_u: Vec<(u32, u8, u8)> = rf
            .iter()
            .map(|e| (uid_of(store, e.target), e.offset_from, e.offset_to))
            .collect();
        rf_u.sort_unstable();
        assert_eq!(rf_u, oracle.ref_from(idx), "{name}: refsFrom {idx}");
    }

    // O9.
    assert_eq!(
        store.seq_scan_ten().unwrap(),
        oracle.seq_scan_count(),
        "{name}: O9"
    );

    // O10-O15, O18 from every closure-start node.
    let start_level = oracle.closure_start_level();
    for idx in db.level_indices(start_level) {
        let start = oids[idx as usize];
        let c = store.closure_1n(start).unwrap();
        assert_eq!(
            uids(store, &c),
            oracle.closure_1n(idx),
            "{name}: O10 from {idx}"
        );
        let (sum, count) = store.closure_1n_att_sum(start).unwrap();
        assert_eq!((sum, count), oracle.closure_1n_att_sum(idx), "{name}: O11");
        let c = store.closure_1n_pred(start, 250_000, 750_000).unwrap();
        assert_eq!(
            uids(store, &c),
            oracle.closure_1n_pred(idx, 250_000, 750_000),
            "{name}: O13"
        );
        let c = store.closure_mn(start).unwrap();
        assert_eq!(uids(store, &c), oracle.closure_mn(idx), "{name}: O14");
        let c = store.closure_mnatt(start, 25).unwrap();
        assert_eq!(
            uids(store, &c),
            oracle.closure_mnatt(idx, 25),
            "{name}: O15"
        );
        let pairs = store.closure_mnatt_linksum(start, 25).unwrap();
        let pairs_u: Vec<(u32, u64)> = pairs.iter().map(|&(o, d)| (uid_of(store, o), d)).collect();
        assert_eq!(
            pairs_u,
            oracle.closure_mnatt_linksum(idx, 25),
            "{name}: O18"
        );
    }

    // O16/O17 round-trip on one text and one form node.
    let ti = db.text_indices()[0];
    let text_oid = oids[ti as usize];
    let before = store.text_of(text_oid).unwrap();
    assert_eq!(before, oracle.text(ti), "{name}: initial text");
    store
        .text_node_edit(text_oid, "version1", "version-2")
        .unwrap();
    store.commit().unwrap();
    store
        .text_node_edit(text_oid, "version-2", "version1")
        .unwrap();
    store.commit().unwrap();
    assert_eq!(
        store.text_of(text_oid).unwrap(),
        before,
        "{name}: O16 round trip"
    );

    let fi = db.form_indices()[0];
    let form_oid = oids[fi as usize];
    store.form_node_edit(form_oid, 25, 25, 50, 50).unwrap();
    store.form_node_edit(form_oid, 25, 25, 50, 50).unwrap();
    store.commit().unwrap();
    assert!(
        store.form_of(form_oid).unwrap().is_all_white(),
        "{name}: O17 round trip"
    );
}

/// Acceptance: one `serve_multi` process hosting four mem shards, fronted
/// by `connect_sharded`, passes the cross-backend conformance suite end
/// to end over real TCP.
#[test]
fn one_process_four_shards_matches_oracle() {
    let db = TestDatabase::generate(&GenConfig::level(3));
    let shards: Vec<MemStore> = (0..4).map(|_| MemStore::new()).collect();
    let ms = serve_multi(shards).unwrap();
    assert_eq!(ms.addrs().len(), 4);

    let mut s = connect_sharded(&ms.addr_strings(), Placement::OidHash).unwrap();
    let r = load_database(&mut s, &db).unwrap();
    check_conformance(&mut s, &r.oids, &db);
    drop(s);

    let stats = ms.stop().unwrap();
    assert_eq!(stats.loop_stats.accepted, 4, "one connection per shard");
    assert!(stats.requests > 0);
    assert_eq!(stats.errors, 0, "conformance run must be error-free");
    assert_eq!(
        stats.loop_stats.frames, stats.loop_stats.replies,
        "every frame answered"
    );
}

/// A transport that dawdles before reading each response, simulating a
/// slow reader. Correctness-neutral; only pacing changes.
struct SlowTransport {
    inner: TcpTransport,
    delay: Duration,
}

impl Transport for SlowTransport {
    fn send(&mut self, frame: &[u8]) -> hypermodel::error::Result<()> {
        self.inner.send(frame)
    }
    fn recv_into(
        &mut self,
        out: &mut Vec<u8>,
        timeout: Option<Duration>,
    ) -> hypermodel::error::Result<bool> {
        std::thread::sleep(self.delay);
        self.inner.recv_into(out, timeout)
    }
}

/// Two concurrent clients against one two-shard `serve_multi` process,
/// each driving the full 20-operation benchmark protocol on its own
/// shard. One client reads its responses slowly: the event loop must
/// keep serving the fast client at full speed regardless (a blocking
/// thread-per-connection server would too — the point is the *single*
/// loop thread may not stall on the laggard's socket).
#[test]
fn two_concurrent_clients_one_slow_run_all_20_ops() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let opts = RunOptions {
        reps: 2,
        input_seed: 7,
    };

    // Local baseline: node counts are the correctness yardstick.
    let mut local = MemStore::new();
    let local_report = load_database(&mut local, &db).unwrap();
    let mut workload = Workload::new(db.clone(), local_report.oids, 7);
    let baseline = run_all_ops(&mut local, &mut workload, opts).unwrap();

    let ms = serve_multi(vec![MemStore::new(), MemStore::new()]).unwrap();
    let addrs = ms.addrs().to_vec();

    let clients: Vec<_> = [false, true]
        .into_iter()
        .zip(addrs)
        .map(|(slow, addr)| {
            let db = db.clone();
            std::thread::spawn(move || {
                let stream = std::net::TcpStream::connect(addr).unwrap();
                let tcp = TcpTransport::new(stream).unwrap();
                let transport: Box<dyn Transport> = if slow {
                    Box::new(SlowTransport {
                        inner: tcp,
                        delay: Duration::from_millis(1),
                    })
                } else {
                    Box::new(tcp)
                };
                let mut remote = RemoteStore::new(transport);
                let report = load_database(&mut remote, &db).unwrap();
                let mut workload = Workload::new(db, report.oids, 7);
                let measured = run_all_ops(&mut remote, &mut workload, opts).unwrap();
                remote.shutdown().unwrap();
                measured
            })
        })
        .collect();

    for handle in clients {
        let measured = handle.join().unwrap();
        assert_eq!(measured.len(), 20, "all 20 operations must complete");
        for (m, b) in measured.iter().zip(&baseline) {
            assert_eq!(m.op, b.op);
            assert_eq!(
                (m.cold_nodes, m.warm_nodes),
                (b.cold_nodes, b.warm_nodes),
                "{}: serve_multi run returned different nodes than local",
                m.op
            );
        }
    }

    let stats = ms.stop().unwrap();
    assert_eq!(stats.loop_stats.accepted, 2);
    assert!(stats.requests > 0);
    assert_eq!(stats.errors, 0);
}

/// A transport whose first `send` parks until the test releases it.
struct GatedTransport {
    inner: ChannelTransport,
    gate: Option<(std::sync::mpsc::Sender<()>, std::sync::mpsc::Receiver<()>)>,
}

impl Transport for GatedTransport {
    fn send(&mut self, frame: &[u8]) -> hypermodel::error::Result<()> {
        if let Some((entered, release)) = self.gate.take() {
            entered.send(()).unwrap();
            release.recv().unwrap();
        }
        self.inner.send(frame)
    }
    fn recv_into(
        &mut self,
        out: &mut Vec<u8>,
        timeout: Option<Duration>,
    ) -> hypermodel::error::Result<bool> {
        self.inner.recv_into(out, timeout)
    }
}

fn recv(t: &mut TcpTransport) -> Vec<u8> {
    let mut out = Vec::new();
    assert!(t.recv_into(&mut out, None).unwrap(), "server hung up");
    out
}

/// A tagged mutation retried on a second connection *while the first
/// copy is still executing* must not run twice: the dedup decision is
/// taken on the shard's worker, in execution order, not on the loop
/// thread when the frame arrives.
#[test]
fn tagged_retry_racing_its_first_copy_executes_once() {
    // The shard `serve_multi` hosts is a remote store whose first
    // request parks inside `send`, so the test decides how long the
    // first copy of the mutation stays "executing".
    let (client_end, mut server_end) = ChannelTransport::pair(Duration::ZERO);
    let backing = std::thread::spawn(move || {
        let mut store = MemStore::new();
        serve(&mut store, &mut server_end).unwrap();
        store
    });
    let (entered_tx, entered) = std::sync::mpsc::channel();
    let (release, release_rx) = std::sync::mpsc::channel();
    let gated = GatedTransport {
        inner: client_end,
        gate: Some((entered_tx, release_rx)),
    };
    let shard = RemoteStore::new(Box::new(gated));
    let ms = serve_multi(vec![shard]).unwrap();
    let connect =
        || TcpTransport::new(std::net::TcpStream::connect(ms.addrs()[0]).unwrap()).unwrap();
    let (mut a, mut b, mut c) = (connect(), connect(), connect());

    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut create = Vec::new();
    Request::Tagged(7, Box::new(Request::CreateNode(db.nodes[0].value.clone())))
        .encode_into(&mut create);

    a.send(&create).unwrap();
    entered.recv().unwrap(); // A's copy is now executing, parked in the store
    b.send(&create).unwrap(); // the retry, on a second connection
                              // Barrier: the loop answers malformed frames itself, one connection
                              // step per tick, so the third reply on C is written at least two
                              // ticks after B's bytes (sent before C's first) were in B's socket —
                              // B's frame has been admitted by then.
    for _ in 0..3 {
        c.send(&[255]).unwrap();
        recv(&mut c);
    }
    release.send(()).unwrap();

    let (reply_a, reply_b) = (recv(&mut a), recv(&mut b));
    assert_eq!(reply_a, reply_b, "the retry gets the first copy's bytes");
    assert!(matches!(
        Response::decode(&reply_a).unwrap(),
        Response::Oid(_)
    ));
    drop((a, b, c));
    let stats = ms.stop().unwrap();
    assert_eq!((stats.requests, stats.replayed), (1, 1));
    assert_eq!(backing.join().unwrap().node_count(), 1, "one node created");
}
