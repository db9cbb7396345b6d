//! End-to-end tests of the workstation/server architecture: a remote
//! client must be indistinguishable from a local store over both
//! transports, every catalogued operation must be one frame — and the
//! round-trip economics must match the paper's §4 claim about conceptual
//! operations.

mod catalogue;

use hypermodel::config::GenConfig;
use hypermodel::error::Result;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::Oid;
use hypermodel::oracle::Oracle;
use hypermodel::store::{self, HyperStore};
use hypermodel::text::{VERSION_1, VERSION_2};
use mem_backend::MemStore;
use server::client::RemoteStore;
use server::protocol::{Request, Response};
use server::server::serve;
use server::transport::{ChannelTransport, TcpTransport};
use std::collections::HashMap;
use std::convert::identity as same;
use std::time::Duration;

/// Spin up a server thread over a loaded MemStore; returns the connected
/// remote client and the oid map.
fn remote_over_channel(
    cfg: &GenConfig,
    latency: Duration,
) -> (
    RemoteStore,
    TestDatabase,
    Vec<Oid>,
    std::thread::JoinHandle<()>,
) {
    let db = TestDatabase::generate(cfg);
    let mut store = MemStore::new();
    let report = load_database(&mut store, &db).unwrap();
    let (client_end, mut server_end) = ChannelTransport::pair(latency);
    let handle = std::thread::spawn(move || {
        serve(store, &mut server_end).unwrap();
    });
    (
        RemoteStore::new(Box::new(client_end)),
        db,
        report.oids,
        handle,
    )
}

#[test]
fn remote_matches_oracle() {
    let (mut remote, db, oids, handle) = remote_over_channel(&GenConfig::tiny(), Duration::ZERO);
    let oracle = Oracle::new(&db);

    for uid in 1..=db.len() as u64 {
        let oid = remote.lookup_unique(uid).unwrap();
        assert_eq!(
            remote.hundred_of(oid).unwrap(),
            oracle.hundred(uid as u32 - 1)
        );
    }
    // Edits round-trip remotely.
    let text_oid = oids[db.text_indices()[0] as usize];
    let before = remote.text_of(text_oid).unwrap();
    let n = remote
        .text_node_edit(text_oid, "version1", "version-2")
        .unwrap();
    assert_eq!(n, 3);
    remote.commit().unwrap();
    remote
        .text_node_edit(text_oid, "version-2", "version1")
        .unwrap();
    remote.commit().unwrap();
    assert_eq!(remote.text_of(text_oid).unwrap(), before);

    let form_oid = oids[db.form_indices()[0] as usize];
    remote.form_node_edit(form_oid, 25, 25, 50, 50).unwrap();
    remote.form_node_edit(form_oid, 25, 25, 50, 50).unwrap();
    assert!(remote.form_of(form_oid).unwrap().is_all_white());
    remote.shutdown().unwrap();
    handle.join().unwrap();
}

/// Each of the nine traversals in `hypermodel::store`, run from the
/// workstation over primitive round trips, gives the oracle's answer; so
/// does the conceptual operation of the same name, in exactly one frame.
#[test]
fn each_traversal_agrees_with_its_conceptual_operation_which_is_one_frame() {
    let (mut remote, db, oids, handle) = remote_over_channel(&GenConfig::tiny(), Duration::ZERO);
    let oracle = Oracle::new(&db);
    let start_idx = db.level_indices(1).start;
    let start = oids[start_idx as usize];
    let (text_idx, form_idx) = (db.text_indices()[0], db.form_indices()[0]);
    let (text, form) = (oids[text_idx as usize], oids[form_idx as usize]);
    // Answers in the oracle's terms: a node is its generator index.
    let idx = |o: Oid| oids.iter().position(|&x| x == o).unwrap() as u32;
    let ids = |v: Vec<Oid>| v.into_iter().map(idx).collect::<Vec<_>>();

    // `name(args)` is called as the free function, then as the method;
    // `then (args)` gives the method other arguments (an edit's inverse).
    macro_rules! agree {
        ($name:ident($($arg:expr),*), $canon:expr, $want:expr) => {
            agree!($name($($arg),*) then ($($arg),*), $canon, $want)
        };
        ($name:ident($($arg:expr),*) then ($($again:expr),*), $canon:expr, $want:expr) => {{
            let want = $want;
            let before = remote.round_trips();
            let walked = store::$name(&mut remote, $($arg),*).unwrap();
            let walk_trips = remote.round_trips() - before;
            assert!(walk_trips > 1, "{}: {walk_trips}", stringify!($name));
            let shipped = remote.$name($($again),*).unwrap();
            let name = stringify!($name);
            assert_eq!(remote.round_trips() - before - walk_trips, 1, "{name}");
            assert_eq!($canon(walked), want, "{name}, navigational");
            assert_eq!($canon(shipped), want, "{name}, conceptual");
        }};
    }
    agree!(closure_1n(start), ids, oracle.closure_1n(start_idx));
    agree!(
        closure_1n_att_sum(start),
        same,
        oracle.closure_1n_att_sum(start_idx)
    );
    agree!(
        closure_1n_att_set(start),
        same,
        oracle.closure_1n(start_idx).len()
    );
    agree!(
        closure_1n_pred(start, 1, 500_000),
        ids,
        oracle.closure_1n_pred(start_idx, 1, 500_000)
    );
    agree!(closure_mn(start), ids, oracle.closure_mn(start_idx));
    agree!(
        closure_mnatt(start, 25),
        ids,
        oracle.closure_mnatt(start_idx, 25)
    );
    agree!(
        closure_mnatt_linksum(start, 10),
        |v: Vec<(Oid, u64)>| v.into_iter().map(|(o, d)| (idx(o), d)).collect::<Vec<_>>(),
        oracle.closure_mnatt_linksum(start_idx, 10)
    );
    agree!(
        text_node_edit(text, VERSION_1, VERSION_2) then (text, VERSION_2, VERSION_1),
        same,
        3
    );
    agree!(form_node_edit(form, 25, 25, 50, 50), same, ());

    // Each write ran twice, once per side, and is its own inverse.
    for i in 0..db.len() as u32 {
        assert_eq!(
            remote.hundred_of(oids[i as usize]).unwrap(),
            oracle.hundred(i)
        );
    }
    assert_eq!(remote.text_of(text).unwrap(), oracle.text(text_idx));
    assert!(remote.form_of(form).unwrap().is_all_white());

    remote.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn server_side_closures_save_round_trips() {
    // Paper §4: conceptual operations beat navigational round trips.
    let (mut remote, db, oids, handle) = remote_over_channel(&GenConfig::tiny(), Duration::ZERO);
    let root = oids[0];

    remote.reset_round_trips();
    let walked = store::closure_1n(&mut remote, root).unwrap();
    let naive_trips = remote.round_trips();

    remote.reset_round_trips();
    let shipped = remote.closure_1n(root).unwrap();
    let smart_trips = remote.round_trips();

    assert_eq!(walked, shipped, "same answer either way");
    assert_eq!(smart_trips, 1, "conceptual op = one round trip");
    assert_eq!(
        naive_trips,
        db.len() as u64,
        "navigational closure = one children() call per node"
    );

    remote.shutdown().unwrap();
    handle.join().unwrap();
}

/// The trait method and the request variant of every catalogue row.
macro_rules! catalogued_methods {
    ($(
        $class:ident $tag:literal $variant:ident
        fn $name:ident $(( $($arg:ident: [$($ty:tt)+]),+ ))? -> $ret:ty $(, about $subject:ident)?;
    )*) => {
        [$((stringify!($name), stringify!($variant))),*]
    };
}

#[test]
fn every_catalogued_operation_is_one_round_trip_and_agrees_with_the_store_behind_it() {
    // The same script runs against a remote and against a
    // local store loaded identically to the one behind the server. A
    // row the facade lost would no longer compile; a request the server
    // answered differently shows up here as more than one round trip or
    // a different answer.
    let (mut remote, db, oids, handle) = remote_over_channel(&GenConfig::tiny(), Duration::ZERO);
    let mut local = MemStore::new();
    load_database(&mut local, &db).unwrap();
    let inputs = catalogue::Inputs::new(&db, &oids, &mut local);
    let script = catalogue::script();

    let mut scripted: Vec<&str> = script.iter().map(|(name, _)| *name).collect();
    let mut catalogued = hypermodel::store_ops!(catalogued_methods).map(|(name, _)| name);
    scripted.sort_unstable();
    catalogued.sort_unstable();
    assert_eq!(scripted, catalogued, "one step per catalogue row");
    for (name, step) in &script {
        let before = remote.round_trips();
        let over_the_wire = format!("{:?}", step(&mut remote, &inputs));
        assert_eq!(remote.round_trips() - before, 1, "{name}");
        assert!(over_the_wire.starts_with("Ok("), "{name}: {over_the_wire}");
        assert_eq!(
            over_the_wire,
            format!("{:?}", step(&mut local, &inputs)),
            "{name}"
        );
    }

    remote.shutdown().unwrap();
    handle.join().unwrap();
}

/// A service that records every request it is handed, then runs it on
/// `inner`.
struct Recording {
    inner: MemStore,
    seen: Vec<Request>,
}

impl hypermodel::Service for Recording {
    fn call(&mut self, req: Request) -> Result<Response> {
        self.seen.push(req.clone());
        self.inner.call(req)
    }

    fn backend_name(&self) -> &'static str {
        "recording"
    }
}

#[test]
fn every_typed_call_on_a_service_is_one_request_of_its_rows_variant() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let (mut local, mut inner) = (MemStore::new(), MemStore::new());
    let oids = load_database(&mut local, &db).unwrap().oids;
    load_database(&mut inner, &db).unwrap();
    let inputs = catalogue::Inputs::new(&db, &oids, &mut local);
    let variant: HashMap<&str, &str> = hypermodel::store_ops!(catalogued_methods).into();
    let mut service = Recording {
        inner,
        seen: Vec::new(),
    };
    for (name, step) in catalogue::script() {
        let answer = format!("{:?}", step(&mut service, &inputs));
        let seen = std::mem::take(&mut service.seen);
        let [req] = &seen[..] else {
            panic!("{name}: {} requests, {seen:?}", seen.len());
        };
        let debug = format!("{req:?}");
        assert_eq!(debug.split('(').next(), Some(variant[name]), "{name}");
        assert_eq!(answer, format!("{:?}", step(&mut local, &inputs)), "{name}");
    }
}

#[test]
fn latency_dominates_client_side_traversal() {
    // With 1 ms one-way latency, a 31-node client-side closure costs
    // >= 62 ms while the server-side one costs ~2 ms: the R7 performance
    // requirement is unreachable without conceptual operations or
    // caching, which is the paper's architectural argument.
    let (mut remote, _, oids, handle) =
        remote_over_channel(&GenConfig::tiny(), Duration::from_millis(1));
    let root = oids[0];

    let t = std::time::Instant::now();
    store::closure_1n(&mut remote, root).unwrap();
    let naive_time = t.elapsed();
    let t = std::time::Instant::now();
    remote.closure_1n(root).unwrap();
    let smart_time = t.elapsed();

    assert!(
        naive_time >= Duration::from_millis(50),
        "31 round trips at 2 ms each, got {naive_time:?}"
    );
    assert!(
        smart_time < naive_time / 5,
        "server-side must be far faster ({smart_time:?} vs {naive_time:?})"
    );
    remote.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn tcp_end_to_end_with_disk_backend() {
    // Full stack: generated db → disk backend → TCP server → remote
    // client runs operations and matches the oracle.
    let mut path = std::env::temp_dir();
    path.push(format!("hm-tcp-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let wal = {
        let mut w = path.clone().into_os_string();
        w.push(".wal");
        std::path::PathBuf::from(w)
    };
    let _ = std::fs::remove_file(&wal);

    let db = TestDatabase::generate(&GenConfig::tiny());
    let mut store = disk_backend::DiskStore::create(&path, 1024).unwrap();
    let report = load_database(&mut store, &db).unwrap();
    let oids = report.oids;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut transport = TcpTransport::new(stream).unwrap();
        serve(store, &mut transport).unwrap();
    });

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let transport = TcpTransport::new(stream).unwrap();
    let mut remote = RemoteStore::new(Box::new(transport));

    let oracle = Oracle::new(&db);
    assert_eq!(remote.seq_scan_ten().unwrap(), db.len() as u64);
    for uid in [1u64, 7, 31] {
        let oid = remote.lookup_unique(uid).unwrap();
        assert_eq!(
            remote.hundred_of(oid).unwrap(),
            oracle.hundred(uid as u32 - 1)
        );
    }
    // A bitmap crosses the wire intact (overflow pages on the server).
    let form_oid = oids[db.form_indices()[0] as usize];
    let bm = remote.form_of(form_oid).unwrap();
    assert!(bm.is_all_white());
    // Cold restart through the protocol.
    remote.commit().unwrap();
    remote.cold_restart().unwrap();
    assert_eq!(remote.seq_scan_ten().unwrap(), db.len() as u64);

    remote.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn errors_cross_the_wire_without_killing_the_session() {
    let (mut remote, _, _, handle) = remote_over_channel(&GenConfig::tiny(), Duration::ZERO);
    let err = remote.hundred_of(Oid(123_456)).unwrap_err();
    assert!(err.to_string().contains("not found"), "{err}");
    // The session is still usable.
    assert_eq!(remote.seq_scan_ten().unwrap(), 31);
    remote.shutdown().unwrap();
    handle.join().unwrap();
}
