//! Event-loop behavior on raw sockets: immediate replies, deferred
//! (executor-completed) replies, multiple listeners, and close-on-reply.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

use exec::frame::{write_frame, FrameBuf};
use exec::{Completions, ConnId, EventLoop, FrameHandler, FrameOutcome, ShardExecutor};

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

/// Prefixes each frame with the listener index and echoes it. Frames
/// starting with b'X' are answered via the executor (deferred path);
/// b"bye" closes after replying; b"big" gets a [`BIG_REPLY`]-byte reply.
struct Echo {
    exec: ShardExecutor<()>,
}

impl FrameHandler for Echo {
    fn on_frame(&mut self, conn: ConnId, frame: &[u8], done: &Completions) -> FrameOutcome {
        if frame == b"bye" {
            return FrameOutcome::ReplyClose(b"goodbye".to_vec());
        }
        if frame == b"big" {
            return FrameOutcome::Reply(vec![b'z'; BIG_REPLY]);
        }
        let mut reply = vec![b'0' + conn.listener as u8];
        reply.extend_from_slice(frame);
        if frame.first() == Some(&b'X') {
            let done = done.clone();
            self.exec
                .submit(0, move |_| done.send(conn, reply))
                .unwrap();
            return FrameOutcome::Pending;
        }
        FrameOutcome::Reply(reply)
    }
}

#[test]
fn event_loop_serves_immediate_and_deferred_replies_on_two_listeners() {
    let el = EventLoop::bind(&["127.0.0.1:0".into(), "127.0.0.1:0".into()]).unwrap();
    let addrs = el.local_addrs().to_vec();
    let stop = el.stop_handle();
    let loop_thread = std::thread::spawn(move || {
        el.run(Echo {
            exec: ShardExecutor::new(vec![()]),
        })
        .unwrap()
    });

    let mut c0 = Client::connect(addrs[0]);
    let mut c1 = Client::connect(addrs[1]);

    // Immediate path, tagged per listener.
    c0.send(b"hello");
    c1.send(b"hello");
    assert_eq!(c0.recv().unwrap(), b"0hello");
    assert_eq!(c1.recv().unwrap(), b"1hello");

    // Deferred path: the reply is produced on the executor worker and
    // re-enters the loop through Completions.
    c0.send(b"Xdeferred");
    assert_eq!(c0.recv().unwrap(), b"0Xdeferred");

    // Pipelining: several frames at once, answered in order, with the
    // deferred one gating the frames behind it.
    c0.send(b"Xone");
    c0.send(b"two");
    c0.send(b"three");
    assert_eq!(c0.recv().unwrap(), b"0Xone");
    assert_eq!(c0.recv().unwrap(), b"0two");
    assert_eq!(c0.recv().unwrap(), b"0three");

    // ReplyClose flushes the farewell, then the server closes.
    c1.send(b"bye");
    assert_eq!(c1.recv().unwrap(), b"goodbye");
    assert_eq!(c1.recv(), None, "server closed c1");

    drop(c0);
    // Let the loop observe the disconnects before stopping.
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::SeqCst);
    let stats = loop_thread.join().unwrap();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.frames, 7);
    assert_eq!(stats.replies, 7);
    assert_eq!(stats.disconnects, 2);
}

#[test]
fn oversized_frame_drops_the_connection() {
    let el = EventLoop::bind(&["127.0.0.1:0".into()]).unwrap();
    let addr = el.local_addrs()[0];
    let stop = el.stop_handle();
    let loop_thread = std::thread::spawn(move || {
        el.run(Echo {
            exec: ShardExecutor::new(vec![()]),
        })
        .unwrap()
    });

    let mut c = TcpStream::connect(addr).unwrap();
    // A length prefix claiming 1 GiB: unframeable, connection dropped.
    c.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
    c.write_all(b"junk").unwrap();
    let mut probe = [0u8; 1];
    assert_eq!(c.read(&mut probe).unwrap(), 0, "server hung up");

    stop.store(true, Ordering::SeqCst);
    let stats = loop_thread.join().unwrap();
    assert_eq!(stats.frames, 0);
    assert_eq!(stats.disconnects, 1);
}

#[test]
fn peer_half_close_still_flushes_the_enqueued_reply() {
    let el = EventLoop::bind(&["127.0.0.1:0".into()]).unwrap();
    let addr = el.local_addrs()[0];
    let stop = el.stop_handle();
    let loop_thread = std::thread::spawn(move || {
        el.run(Echo {
            exec: ShardExecutor::new(vec![()]),
        })
        .unwrap()
    });

    let mut c = Client::connect(addr);
    c.send(b"big");
    // The first reply bytes prove the request was dispatched and its
    // reply enqueued; the rest cannot fit the socket buffers, so the
    // loop still holds a backlog when it sees this side close.
    let mut first = [0u8; 1];
    c.stream.peek(&mut first).unwrap();
    c.stream.shutdown(Shutdown::Write).unwrap();
    assert_eq!(c.recv().map(|r| r.len()), Some(BIG_REPLY));
    assert_eq!(c.recv(), None, "then the server drops the connection");

    stop.store(true, Ordering::SeqCst);
    let stats = loop_thread.join().unwrap();
    assert_eq!((stats.frames, stats.replies), (1, 1));
}
