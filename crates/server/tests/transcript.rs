//! One scripted conversation covering every decision of the one frame
//! handler — malformed frames (one too short to hold its number) and the
//! hangup streak, the replay of a resent mutation, a store error,
//! `Shutdown` — must produce the right replies, echoed numbers,
//! connection-closed points and counters whichever driver feeds it: the
//! `serve` pump over a channel, or a one-shard `serve_multi` event loop
//! over TCP.

use std::time::Duration;

use hypermodel::config::GenConfig;
use hypermodel::error::HmError;
use hypermodel::generate::TestDatabase;
use hypermodel::load::load_database;
use hypermodel::model::{Content, NodeAttrs, NodeKind, NodeValue, Oid};
use mem_backend::MemStore;
use server::protocol::{Request, Response};
use server::{put_seq, serve, serve_multi, split_seq, ChannelTransport, TcpTransport, Transport};

/// What the client saw for one connection: the reply to each frame it
/// sent (`None` = the server hung up instead of replying, which ends
/// the script), then whether the connection was closed afterwards.
type Transcript = (Vec<Option<Vec<u8>>>, bool);

/// `req` as a frame numbered `seq`.
fn bytes(seq: u64, req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    put_seq(&mut out, seq);
    req.encode_into(&mut out);
    out
}

/// A numbered frame whose message has an unknown tag.
fn malformed() -> Vec<u8> {
    let mut out = Vec::new();
    put_seq(&mut out, 90);
    out.extend([255, 0, 1]);
    out
}

/// A frame too short to hold a number: answered under number 0.
fn too_short() -> Vec<u8> {
    vec![255, 0, 1]
}

/// Two connections' worth of frames, covering every decision the handler
/// takes.
fn scripts() -> Vec<Vec<Vec<u8>>> {
    let create = bytes(
        2,
        &Request::CreateNode(NodeValue {
            kind: NodeKind::TEXT,
            attrs: NodeAttrs {
                unique_id: 1_000_001,
                ten: 1,
                hundred: 1,
                thousand: 1,
                million: 1,
            },
            content: Content::Text("retry me".into()),
        }),
    );
    // One short of the limit: 7 error replies.
    let mut first = vec![malformed(); 6];
    first.extend([
        too_short(),
        bytes(1, &Request::LookupUnique(1)), // a good frame resets the streak
        create.clone(),
        create,                                      // the retry is replayed, not re-executed
        bytes(3, &Request::SeqScanTen),              // ... so exactly one node was added
        bytes(4, &Request::HundredOf(Oid(999_999))), // unknown oid: error, session lives
        malformed(),                                 // streak restarted from zero
        bytes(5, &Request::Shutdown),                // Unit, then the server closes
    ]);
    // Eight malformed frames in a row: seven error replies, then a hangup.
    vec![first, vec![malformed(); 8]]
}

fn drive(t: &mut dyn Transport, script: &[Vec<u8>]) -> Transcript {
    let mut replies = Vec::new();
    let mut reply = Vec::new();
    for frame in script {
        t.send(frame).unwrap();
        let got = t.recv_into(&mut reply, None).unwrap();
        replies.push(got.then(|| reply.clone()));
        if !got {
            return (replies, true);
        }
    }
    let closed = match t.recv_into(&mut reply, Some(Duration::from_secs(2))) {
        Ok(got) => !got,
        Err(HmError::Timeout(_)) => false,
        Err(e) => panic!("probe: {e}"),
    };
    (replies, closed)
}

fn loaded_store() -> MemStore {
    let mut store = MemStore::new();
    load_database(&mut store, &TestDatabase::generate(&GenConfig::tiny())).unwrap();
    store
}

/// (requests, errors, replayed) summed over the conversation.
type Counters = (u64, u64, u64);

/// Every transcript and counter the script must produce.
fn check((transcripts, counters): (Vec<Transcript>, Counters)) {
    // 4 executed (lookup, create, scan, unknown oid); 16 malformed
    // frames + 1 error response; 1 replay.
    assert_eq!(counters, (4, 17, 1));

    let (replies, closed) = &transcripts[0];
    let (seqs, decoded): (Vec<u64>, Vec<Response>) = replies
        .iter()
        .map(|r| {
            let (seq, body) = split_seq(r.as_ref().expect("no hangup mid-script")).unwrap();
            (seq, Response::decode(body).unwrap())
        })
        .unzip();
    assert_eq!(
        seqs,
        [90, 90, 90, 90, 90, 90, 0, 1, 2, 2, 3, 4, 90, 5],
        "each reply echoes its frame's number"
    );
    assert!(decoded[..7].iter().all(|r| matches!(r, Response::Err(_))));
    assert!(matches!(decoded[7], Response::Oid(_)));
    assert!(matches!(decoded[8], Response::Oid(_)));
    assert_eq!(replies[8], replies[9], "replay returns the stored bytes");
    assert_eq!(decoded[10], Response::U64(32), "31 loaded + 1 created once");
    assert!(matches!(decoded[11], Response::Err(_)));
    assert!(matches!(decoded[12], Response::Err(_)));
    assert_eq!(decoded[13], Response::Unit);
    assert!(closed, "Shutdown closes the connection");

    let (replies, closed) = &transcripts[1];
    assert_eq!(replies.len(), 8);
    assert!(replies[..7].iter().all(Option::is_some));
    assert_eq!(replies[7], None, "the eighth malformed frame gets a hangup");
    assert!(closed);
}

#[test]
fn the_transport_pump_answers_the_script() {
    let mut transcripts = Vec::new();
    let mut total = (0, 0, 0);
    for script in scripts() {
        let (mut client, mut server_end) = ChannelTransport::pair(Duration::ZERO);
        let session = std::thread::spawn(move || serve(loaded_store(), &mut server_end).unwrap());
        transcripts.push(drive(&mut client, &script));
        let stats = session.join().unwrap();
        total.0 += stats.requests;
        total.1 += stats.errors;
        total.2 += stats.replayed;
    }
    check((transcripts, total));
}

#[test]
fn the_event_loop_answers_the_script() {
    let server = serve_multi(vec![loaded_store()]).unwrap();
    let transcripts = scripts()
        .iter()
        .map(|script| {
            let stream = std::net::TcpStream::connect(server.addrs()[0]).unwrap();
            drive(&mut TcpTransport::new(stream).unwrap(), script)
        })
        .collect();
    let stats = server.stop().unwrap();
    check((transcripts, (stats.requests, stats.errors, stats.replayed)));
}
