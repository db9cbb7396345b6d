//! One process, N shard servers: conformance and concurrency tests for
//! `server::serve_multi`, the nonblocking event-loop deployment.
//!
//! The first test is the acceptance bar for the event-loop
//! subsystem: a *single* `serve_multi` process hosting four shards, with
//! a `connect_sharded` router in front, must pass the oracle sweep — same
//! bar the in-process backends clear in `cross_backend.rs`. The second drives two concurrent clients (one
//! behind a deliberately slow transport) through all 20 operations
//! against one process, proving the loop never blocks on a slow reader.
//! The next two pin at-most-once execution of a tagged request retried on
//! a second connection while its first copy is still executing: a single
//! create, and a batch of them. The last sends a hostile repair snapshot.

#![allow(
    clippy::disallowed_methods,
    reason = "the test's own gate channels, outside the code the lock detector watches"
)]

use std::time::Duration;

use harness::backend::BackendSpec;
use harness::protocol::{run_all_ops, RunOptions};
use harness::Workload;
use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::store::BatchWrite;
use hypermodel::verify::verify_store;
use mem_backend::MemStore;
use server::protocol::{Request, Response};
use server::{
    serve, serve_multi, ChannelTransport, MultiStats, RemoteStore, TcpTransport, Transport,
};

/// Acceptance: one `serve_multi` process hosting four mem shards, fronted
/// by a hash-placed router, passes the oracle sweep end to end over real
/// TCP — the `sharded-tcp:4:hash` row, whose mutating operations
/// `cross_backend.rs` runs.
#[test]
fn one_process_four_shards_matches_oracle() {
    let db = TestDatabase::generate(&GenConfig::level(3));
    let spec: BackendSpec = "sharded-tcp:4:hash".parse().unwrap();
    let mut dep = spec.deploy(&db, &std::env::temp_dir(), 64, None).unwrap();
    assert_eq!(dep.server().unwrap().addrs().len(), 4);

    let report = verify_store(dep.store.as_mut(), &db, &dep.load.oids).unwrap();
    assert!(report.is_ok(), "{report}");

    let stats = dep.stop().unwrap().expect("sharded-tcp runs a server");
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

/// Send `request` tagged on one connection and, while that copy is
/// parked executing inside the store, again on a second connection; then
/// let it finish. Returns both replies, what the server counted, and the
/// store the requests reached.
fn race_tagged_retry(request: Request) -> (Vec<u8>, Vec<u8>, MultiStats, MemStore) {
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
    let (mut a, mut b) = (connect(), connect());

    let mut frame = Vec::new();
    Request::Tagged(7, Box::new(request)).encode_into(&mut frame);

    a.send(&frame).unwrap();
    entered.recv().unwrap(); // A's copy is now executing, parked in the store
    b.send(&frame).unwrap(); // the retry, on a second connection
                             // The loop thread is the one parked inside A's copy, so B's frame
                             // waits in its socket until that copy has returned.
    release.send(()).unwrap();

    let (reply_a, reply_b) = (recv(&mut a), recv(&mut b));
    drop((a, b));
    let stats = ms.stop().unwrap();
    (reply_a, reply_b, stats, backing.join().unwrap())
}

/// A tagged mutation retried on a second connection *while the first
/// copy is still executing* must not run twice: the dedup decision is
/// taken in the shard's execution order, not when the frame arrives.
#[test]
fn tagged_retry_racing_its_first_copy_executes_once() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let create = Request::CreateNode(db.nodes[0].value.clone());
    let (reply_a, reply_b, stats, store) = race_tagged_retry(create);
    assert_eq!(reply_a, reply_b, "the retry gets the first copy's bytes");
    assert!(matches!(
        Response::decode(&reply_a).unwrap(),
        Response::Oid(_)
    ));
    assert_eq!((stats.requests, stats.replayed), (1, 1));
    assert_eq!(store.node_count(), 1, "one node created");
}

/// The same race for a batch of creates: each node is created once and
/// the retry replays the first copy's id list.
#[test]
fn tagged_write_batch_retry_creates_each_node_once() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let creates = db.nodes[..3]
        .iter()
        .map(|n| BatchWrite::Create {
            value: n.value.clone(),
            near: None,
        })
        .collect();
    let (reply_a, reply_b, stats, store) = race_tagged_retry(Request::WriteBatch(creates));
    assert_eq!(reply_a, reply_b, "the retry gets the first copy's bytes");
    let Response::Oids(ids) = Response::decode(&reply_a).unwrap() else {
        panic!("a batch answers with its ids");
    };
    assert_eq!(ids.len(), 3);
    assert_eq!((stats.requests, stats.replayed), (1, 1));
    assert_eq!(store.node_count(), 3, "each node created once");
}

/// A repair snapshot announcing four billion schema types, sent to a
/// `MemStore` shard as a 19-byte `InstallSubtree` request, is refused and
/// the connection keeps serving from the untouched store. (It used to
/// make `sync_import` reserve 128 GiB and abort the whole server.) The
/// second snapshot is the same schema in the current snapshot layout.
#[test]
fn hostile_install_subtree_is_refused_and_the_connection_keeps_serving() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut shard = MemStore::new();
    load_database(&mut shard, &db).unwrap();
    let ms = serve_multi(vec![shard]).unwrap();
    let mut conn = TcpTransport::new(std::net::TcpStream::connect(ms.addrs()[0]).unwrap()).unwrap();
    let mut call = |req: Request| {
        let mut frame = Vec::new();
        req.encode_into(&mut frame);
        conn.send(&frame).unwrap();
        Response::decode(&recv(&mut conn)).unwrap()
    };
    for snapshot in [
        vec![2, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff],
        vec![3, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff],
    ] {
        let reply = call(Request::InstallSubtree(snapshot));
        assert!(matches!(reply, Response::Err(_)), "{reply:?}");
        let reply = call(Request::LookupUnique(1));
        assert!(matches!(reply, Response::Oid(_)), "{reply:?}");
    }
    drop(conn);
    let stats = ms.stop().unwrap();
    assert_eq!(stats.errors, 2);
}
