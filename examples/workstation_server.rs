//! The workstation/server architecture over real TCP (requirement R6).
//!
//! Starts a server thread owning a persistent disk-backend database,
//! connects a "workstation" client over loopback TCP, and compares the
//! navigational (client-side) and conceptual (server-side) execution of
//! the same closure operation — the trade-off paper §3.2/§4 describes.
//!
//! ```sh
//! cargo run --release --example workstation_server
//! ```

use disk_backend::DiskStore;
use hypermodel::config::GenConfig;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::Oid;
use hypermodel::store::HyperStore;
use server::client::RemoteStore;
use server::server::serve;
use server::transport::TcpTransport;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

fn main() -> hypermodel::Result<()> {
    let path = std::env::temp_dir().join(format!("hm-ws-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let wal = {
        let mut w = path.clone().into_os_string();
        w.push(".wal");
        std::path::PathBuf::from(w)
    };
    let _ = std::fs::remove_file(&wal);

    // --- Server machine: load the database, listen on loopback -------
    let db = TestDatabase::generate(&GenConfig::level(4));
    let mut store = DiskStore::create(&path, 4096)?;
    let report = load_database(&mut store, &db)?;
    let oids = report.oids.clone();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    println!("server: {} nodes on disk, listening on {addr}", db.len());

    let server_thread = std::thread::spawn(move || {
        let (stream, peer) = listener.accept().expect("accept");
        eprintln!("server: session from {peer}");
        let mut transport = TcpTransport::new(stream).expect("transport");
        serve(store, &mut transport).expect("serve");
    });

    // --- Workstation: the same closure, shipped whole or walked from here --
    let level3: Vec<Oid> = db.level_indices(3).map(|i| oids[i as usize]).collect();
    let stream = TcpStream::connect(addr).expect("connect");
    let mut remote = RemoteStore::new(Box::new(TcpTransport::new(stream)?));

    // A key lookup is one round trip either way.
    let oid = remote.lookup_unique(42)?;
    let hundred = remote.hundred_of(oid)?;
    println!("lookup(42).hundred = {hundred}");

    type Closure = fn(&mut RemoteStore, Oid) -> hypermodel::Result<Vec<Oid>>;
    let sides: [(&str, Closure); 2] = [
        ("conceptual", |remote, start| remote.closure_1n(start)),
        ("navigational", |remote, start| {
            hypermodel::store::closure_1n(remote, start)
        }),
    ];
    for (side, closure) in sides {
        remote.reset_round_trips();
        let t = Instant::now();
        let mut visited = 0usize;
        for &start in level3.iter().take(25) {
            visited += closure(&mut remote, start)?.len();
        }
        let elapsed = t.elapsed();
        println!(
            "{side:<12} 25 closures ({visited} nodes): {elapsed:?} in {} round trips",
            remote.round_trips()
        );
    }
    remote.shutdown()?;
    server_thread.join().expect("server thread");

    println!("\nEven on loopback TCP the conceptual operation wins; on the 1988 LANs the");
    println!("paper targets (~1 ms/message), the gap is the difference between an");
    println!("interactive editor and an unusable one (requirement R7).");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&wal);
    Ok(())
}
