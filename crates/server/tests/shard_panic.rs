//! A request that panics inside a `serve_multi` shard is answered: it
//! and every later request to that shard get the `ShardUnavailable`
//! text a poisoned executor shard reports, on the same connection and
//! on new ones, while the other shards keep serving.

use std::net::TcpStream;
use std::time::Duration;

use exec::ExecError;
use hypermodel::config::GenConfig;
use hypermodel::error::Result;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::{NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::store::HyperStore;
use hypermodel::{BatchWrite, Bitmap, NodeExport};
use mem_backend::MemStore;
use server::protocol::{Request, Response};
use server::{serve_multi, RemoteStore, TcpTransport, Transport};

/// Longer than any answer takes; a request the server never answers
/// fails the test instead of hanging it.
const DEADLINE: Duration = Duration::from_secs(10);

/// A store that panics when `panic_on` names the method called and
/// otherwise forwards to `inner`.
struct PanicOn {
    inner: MemStore,
    panic_on: &'static str,
}

macro_rules! forward {
    ($(
        $class:ident $tag:literal $variant:ident
        fn $name:ident $(( $($arg:ident: [$($ty:tt)+]),+ ))? -> $ret:ty $(, about $subject:ident)?;
    )*) => {$(
        fn $name(&mut self $($(, $arg: $($ty)+)+)?) -> Result<$ret> {
            if self.panic_on == stringify!($name) {
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

fn connect(addr: std::net::SocketAddr) -> TcpTransport {
    TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap()
}

fn call(conn: &mut TcpTransport, req: Request) -> Response {
    let mut frame = Vec::new();
    req.encode_into(&mut frame);
    conn.send(&frame).unwrap();
    let mut reply = Vec::new();
    assert!(
        conn.recv_into(&mut reply, Some(DEADLINE)).unwrap(),
        "server hung up"
    );
    Response::decode(&reply).unwrap()
}

#[test]
fn a_panicking_request_poisons_its_shard_and_is_answered() {
    let db = TestDatabase::generate(&GenConfig::tiny());
    let loaded = |panic_on| {
        let mut inner = MemStore::new();
        let oids = load_database(&mut inner, &db).unwrap().oids;
        (PanicOn { inner, panic_on }, oids)
    };
    let (doomed, oids) = loaded("hundred_of");
    let (healthy, _) = loaded("");
    let mut local = MemStore::new();
    load_database(&mut local, &db).unwrap();
    let srv = serve_multi(vec![doomed, healthy]).unwrap();
    let addrs = srv.addrs().to_vec();
    let refused = Response::Err(ExecError::Poisoned(0).into_hm().to_string());

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
