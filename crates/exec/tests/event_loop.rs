//! Event-loop behavior on raw sockets: inline replies, multiple
//! listeners, close-on-reply, fairness between connections and
//! half-closed peers.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

use exec::frame::{write_frame, FrameBuf};
use exec::{ConnId, EventLoop, FrameHandler, FrameOutcome, LoopStats};

const TEST_TRACE: u64 = 0xABCD;

/// Reply to the frame `b"big"`: larger than any loopback socket buffer,
/// so the loop is left holding a write backlog.
const BIG_REPLY: usize = 32 << 20;

/// A raw-socket client speaking the workspace's frame format.
struct Client {
    stream: TcpStream,
    inbound: FrameBuf,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        Client {
            stream: TcpStream::connect(addr).unwrap(),
            inbound: FrameBuf::new(),
        }
    }

    fn send(&mut self, payload: &[u8]) {
        let mut wire = Vec::new();
        write_frame(&mut wire, TEST_TRACE, payload);
        self.stream.write_all(&wire).unwrap();
    }

    /// The next reply's payload, `None` once the server closed.
    fn recv(&mut self) -> Option<Vec<u8>> {
        loop {
            if let Some((trace, payload)) = self.inbound.next_frame().unwrap() {
                assert_eq!(trace, TEST_TRACE, "reply echoes the request's trace id");
                return Some(payload.to_vec());
            }
            if self.inbound.fill(&mut self.stream).unwrap() == 0 {
                assert!(self.inbound.is_empty(), "server closed mid-frame");
                return None;
            }
        }
    }
}

/// Prefixes each frame with the listener index and echoes it. b"bye"
/// closes after replying; b"big" gets a [`BIG_REPLY`]-byte reply;
/// b"count" is answered with the number of frames handled before it;
/// frames starting with b'S' take a millisecond to answer.
#[derive(Default)]
struct Echo {
    handled: u64,
}

impl FrameHandler for Echo {
    fn on_frame(&mut self, conn: ConnId, frame: &[u8], reply: &mut Vec<u8>) -> FrameOutcome {
        let before = self.handled;
        self.handled += 1;
        match frame {
            b"bye" => {
                reply.extend_from_slice(b"goodbye");
                return FrameOutcome::ReplyClose;
            }
            b"big" => reply.resize(BIG_REPLY, b'z'),
            b"count" => reply.extend_from_slice(before.to_string().as_bytes()),
            _ => {
                if frame.starts_with(b"S") {
                    std::thread::sleep(Duration::from_millis(1));
                }
                reply.push(b'0' + conn.listener as u8);
                reply.extend_from_slice(frame);
            }
        }
        FrameOutcome::Reply
    }
}

/// Run an [`Echo`] loop on `listeners` fresh ports until the returned
/// closure is called, which stops it and hands back its counters.
fn spawn_echo(listeners: usize) -> (Vec<SocketAddr>, impl FnOnce() -> LoopStats) {
    let el = EventLoop::bind(&vec!["127.0.0.1:0".to_string(); listeners]).unwrap();
    let addrs = el.local_addrs().to_vec();
    let stop = el.stop_handle();
    let loop_thread = std::thread::spawn(move || el.run(&mut Echo::default()).unwrap());
    (addrs, move || {
        stop.store(true, Ordering::SeqCst);
        loop_thread.join().unwrap()
    })
}

#[test]
fn event_loop_serves_inline_replies_on_two_listeners() {
    let (addrs, stop) = spawn_echo(2);
    let mut c0 = Client::connect(addrs[0]);
    let mut c1 = Client::connect(addrs[1]);

    // Tagged per listener.
    c0.send(b"hello");
    c1.send(b"hello");
    assert_eq!(c0.recv().unwrap(), b"0hello");
    assert_eq!(c1.recv().unwrap(), b"1hello");

    // Pipelining: several frames at once, answered in order.
    c0.send(b"one");
    c0.send(b"two");
    c0.send(b"three");
    assert_eq!(c0.recv().unwrap(), b"0one");
    assert_eq!(c0.recv().unwrap(), b"0two");
    assert_eq!(c0.recv().unwrap(), b"0three");

    // The loop reuses one reply buffer: a short reply after a long one
    // carries none of the long one's tail.
    c0.send(b"big");
    c0.send(b"hi");
    assert_eq!(c0.recv().map(|r| r.len()), Some(BIG_REPLY));
    assert_eq!(c0.recv().unwrap(), b"0hi");

    // ReplyClose flushes the farewell, then the server closes.
    c1.send(b"bye");
    assert_eq!(c1.recv().unwrap(), b"goodbye");
    assert_eq!(c1.recv(), None, "server closed c1");

    drop(c0);
    // Let the loop observe the disconnects before stopping.
    std::thread::sleep(Duration::from_millis(50));
    let stats = stop();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.frames, 8);
    assert_eq!(stats.replies, 8);
    assert_eq!(stats.disconnects, 2);
}

/// One frame per connection per tick: a client with a deep pipeline
/// does not hold a second client's single request behind its backlog.
#[test]
fn a_pipelining_client_does_not_starve_another_connection() {
    const PIPELINE: u64 = 64;
    let (addrs, stop) = spawn_echo(1);
    let mut a = Client::connect(addrs[0]);
    let mut b = Client::connect(addrs[0]);
    // Both connections accepted and settled before the race.
    for c in [&mut a, &mut b] {
        c.send(b"hello");
        assert_eq!(c.recv().unwrap(), b"0hello");
    }

    let mut backlog = Vec::new();
    for i in 0..PIPELINE {
        write_frame(&mut backlog, TEST_TRACE, format!("S{i}").as_bytes());
    }
    a.stream.write_all(&backlog).unwrap();
    b.send(b"count");
    // Each of A's frames takes a millisecond, so without per-tick
    // fairness B's frame is handled after all 64 of them.
    let before_b: u64 = String::from_utf8(b.recv().unwrap())
        .unwrap()
        .parse()
        .unwrap();
    let a_answered = before_b - 2;
    assert!(
        a_answered < PIPELINE / 4,
        "B waited for {a_answered} of A's {PIPELINE} pipelined frames"
    );
    for i in 0..PIPELINE {
        assert_eq!(
            a.recv().unwrap(),
            format!("0S{i}").as_bytes(),
            "A's replies stay in order"
        );
    }

    drop((a, b));
    let stats = stop();
    assert_eq!(stats.frames, PIPELINE + 3);
}

/// A peer that pipelines requests and then closes its sending side
/// still gets every reply before the server hangs up.
#[test]
fn frames_pipelined_before_a_half_close_are_all_answered() {
    let (addrs, stop) = spawn_echo(1);
    let mut c = Client::connect(addrs[0]);
    c.send(b"one");
    c.send(b"two");
    c.send(b"three");
    c.stream.shutdown(Shutdown::Write).unwrap();
    assert_eq!(c.recv().unwrap(), b"0one");
    assert_eq!(c.recv().unwrap(), b"0two");
    assert_eq!(c.recv().unwrap(), b"0three");
    assert_eq!(c.recv(), None, "then the server drops the connection");
    let stats = stop();
    assert_eq!((stats.frames, stats.replies, stats.disconnects), (3, 3, 1));
}

#[test]
fn oversized_frame_drops_the_connection() {
    let (addrs, stop) = spawn_echo(1);

    let mut c = TcpStream::connect(addrs[0]).unwrap();
    // A length prefix claiming 1 GiB: unframeable, connection dropped.
    c.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
    c.write_all(b"junk").unwrap();
    let mut probe = [0u8; 1];
    assert_eq!(c.read(&mut probe).unwrap(), 0, "server hung up");

    let stats = stop();
    assert_eq!(stats.frames, 0);
    assert_eq!(stats.disconnects, 1);
}

#[test]
fn peer_half_close_still_flushes_the_enqueued_reply() {
    let (addrs, stop) = spawn_echo(1);

    let mut c = Client::connect(addrs[0]);
    c.send(b"big");
    // The first reply bytes prove the request was dispatched and its
    // reply enqueued; the rest cannot fit the socket buffers, so the
    // loop still holds a backlog when it sees this side close.
    let mut first = [0u8; 1];
    c.stream.peek(&mut first).unwrap();
    c.stream.shutdown(Shutdown::Write).unwrap();
    assert_eq!(c.recv().map(|r| r.len()), Some(BIG_REPLY));
    assert_eq!(c.recv(), None, "then the server drops the connection");

    let stats = stop();
    assert_eq!((stats.frames, stats.replies), (1, 1));
}
