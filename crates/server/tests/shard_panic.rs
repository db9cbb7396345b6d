//! A request that panics inside a `serve_multi` shard is answered: it
//! and every later request to that shard get the `ShardUnavailable`
//! text a poisoned executor shard reports, on the same connection and
//! on new ones, while the other shards keep serving. The `serve` pump
//! runs the same handler, so over a channel the same holds and the
//! session outlives the panic.

use std::net::TcpStream;
use std::time::Duration;

use exec::ExecError;
use hypermodel::config::GenConfig;
use hypermodel::error::Result;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::Oid;
use hypermodel::store::HyperStore;
use mem_backend::MemStore;
use server::protocol::{Request, Response};
use server::{
    put_seq, serve, serve_multi, split_seq, ChannelTransport, RemoteStore, TcpTransport, Transport,
};

/// Longer than any answer takes; a request the server never answers
/// fails the test instead of hanging it.
const DEADLINE: Duration = Duration::from_secs(10);

/// A store that panics on the requests `panic_on` picks and otherwise
/// passes them to `inner`.
struct PanicOn {
    inner: MemStore,
    panic_on: fn(&Request) -> bool,
}

impl hypermodel::Service for PanicOn {
    fn call(&mut self, req: Request) -> Result<Response> {
        if (self.panic_on)(&req) {
            panic!("injected panic in {req:?}");
        }
        self.inner.call(req)
    }

    fn backend_name(&self) -> &'static str {
        "panic-on"
    }
}

fn connect(addr: std::net::SocketAddr) -> TcpTransport {
    TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap()
}

/// One read, numbered 1 each time: only a mutation's number is
/// remembered for replay.
fn call(conn: &mut dyn Transport, req: Request) -> Response {
    let mut frame = Vec::new();
    put_seq(&mut frame, 1);
    req.encode_into(&mut frame);
    conn.send(&frame).unwrap();
    let mut reply = Vec::new();
    assert!(
        conn.recv_into(&mut reply, Some(DEADLINE)).unwrap(),
        "server hung up"
    );
    let (seq, body) = split_seq(&reply).unwrap();
    assert_eq!(seq, 1);
    Response::decode(body).unwrap()
}

/// A loaded tiny database that panics on the requests `panic_on` picks,
/// and its oids.
fn loaded(db: &TestDatabase, panic_on: fn(&Request) -> bool) -> (PanicOn, Vec<Oid>) {
    let mut inner = MemStore::new();
    let oids = load_database(&mut inner, db).unwrap().oids;
    (PanicOn { inner, panic_on }, oids)
}

fn refused() -> Response {
    Response::Err(ExecError::Poisoned(0).into_hm().to_string())
}

#[test]
fn a_panicking_request_poisons_its_shard_and_is_answered() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let (doomed, oids) = loaded(&db, |req| matches!(req, Request::HundredOf(_)));
    let (healthy, _) = loaded(&db, |_| false);
    let mut local = MemStore::new();
    load_database(&mut local, &db).unwrap();
    let srv = serve_multi(vec![doomed, healthy]).unwrap();
    let addrs = srv.addrs().to_vec();
    let refused = refused();

    // The panicking request is answered with the poisoned-shard error,
    // and so is the next one on the same connection.
    let mut conn = connect(addrs[0]);
    assert_eq!(call(&mut conn, Request::HundredOf(oids[0])), refused);
    assert_eq!(call(&mut conn, Request::LookupUnique(1)), refused);

    // The other shard, in the same process, answers normally.
    let mut other = RemoteStore::new(Box::new(connect(addrs[1])));
    for &oid in &oids[..5] {
        assert_eq!(
            other.hundred_of(oid).unwrap(),
            local.hundred_of(oid).unwrap()
        );
    }

    // A new connection to the poisoned shard is refused the same way.
    let mut fresh = connect(addrs[0]);
    assert_eq!(call(&mut fresh, Request::TenOf(oids[0])), refused);

    drop((conn, other, fresh));
    let stats = srv.stop().unwrap();
    assert_eq!(stats.errors, 3, "the three refusals");
    assert_eq!(stats.requests, 5, "the healthy shard's reads");
}

#[test]
fn a_panicking_request_over_a_channel_is_answered_and_the_session_goes_on() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let (doomed, oids) = loaded(&db, |req| matches!(req, Request::HundredOf(_)));
    let (mut client, mut server_end) = ChannelTransport::pair(Duration::ZERO);
    let session = std::thread::spawn(move || serve(doomed, &mut server_end));

    assert_eq!(call(&mut client, Request::HundredOf(oids[0])), refused());
    assert_eq!(call(&mut client, Request::LookupUnique(1)), refused());

    drop(client);
    let stats = session.join().unwrap().unwrap();
    assert_eq!((stats.requests, stats.errors), (0, 2), "the two refusals");
}
