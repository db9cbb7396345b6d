//! [`EventLoop`]: a nonblocking, single-threaded socket loop over raw
//! `std::net` — no new dependencies.
//!
//! One thread owns N listening sockets and every accepted connection,
//! all in nonblocking mode. Each tick the loop accepts new connections,
//! reads whatever bytes arrived into each connection's [`FrameBuf`],
//! hands at most one complete frame per connection to a
//! [`FrameHandler`], and flushes pending writes.
//!
//! Wire framing is [`crate::frame`]'s. The loop installs the frame's
//! trace id as the thread's current trace (`obs::trace`) while the
//! handler runs, and every reply frame echoes it — so one trace id
//! follows a request from the client through the loop and back.
//!
//! The handler answers every frame before it returns: the request runs
//! on the loop thread, so responses leave in request order and nothing
//! is ever admitted but unanswered. One frame per connection per tick
//! keeps a pipelining client from running its whole backlog before
//! another connection gets a turn; the frames behind it wait, unparsed,
//! in the connection's buffer. Writes never block: partial writes park
//! in a per-connection buffer and resume next tick, so one slow reader
//! cannot stall the other connections.
//!
//! `std` exposes no `epoll`/`kqueue`, so readiness is cooperative
//! polling: the loop spins (yielding) while work flows and sleeps for a
//! short interval when idle, picking up new socket bytes on the next
//! tick.

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hypermodel::error::{HmError, Result};

use crate::frame::{write_frame, FrameBuf, NetCounters, READ_CHUNK};

/// How long an idle loop sleeps per tick.
const IDLE_PARK: Duration = Duration::from_micros(500);

/// Ticks of busy-spinning (with yields) before parking when idle.
const SPIN_TICKS: u32 = 64;

/// One connection, identified by its listener index and an id unique
/// for the lifetime of the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId {
    /// Index of the listener (= shard, under `serve_multi`) that
    /// accepted this connection.
    pub listener: usize,
    /// Per-loop unique connection number.
    pub conn: u64,
}

/// What the handler wants done with the frame it was given. The reply
/// payload itself is in the buffer the handler wrote it into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameOutcome {
    /// Send the reply back (the loop adds the length prefix).
    Reply,
    /// Send the reply, then close the connection once it is flushed.
    ReplyClose,
    /// Drop the connection without a response.
    Close,
}

/// Receives framed requests from the loop (or from any other driver
/// that owns a connection, such as `server::serve`'s transport pump).
pub trait FrameHandler {
    /// One complete frame arrived on `conn`; `frame` borrows the
    /// connection's read buffer. The answer is due on return: the reply
    /// payload goes into `reply`, which arrives empty and belongs to
    /// the caller, so one buffer serves every frame.
    fn on_frame(&mut self, conn: ConnId, frame: &[u8], reply: &mut Vec<u8>) -> FrameOutcome;

    /// `conn` disconnected (or was closed by an outcome).
    fn on_disconnect(&mut self, conn: ConnId) {
        let _ = conn;
    }
}

/// Counters returned when the loop stops.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoopStats {
    /// Connections accepted over the loop's lifetime.
    pub accepted: u64,
    /// Complete frames delivered to the handler.
    pub frames: u64,
    /// Responses written.
    pub replies: u64,
    /// Connections that ended (either side).
    pub disconnects: u64,
    /// Times the idle strategy slept.
    pub parks: u64,
}

struct Conn {
    stream: TcpStream,
    /// Inbound bytes. One frame is parsed out per tick, so pipelined
    /// requests wait here in arrival order.
    inbound: FrameBuf,
    /// Encoded responses not yet fully written; `wpos` marks progress.
    /// Both buffers keep their capacity across frames, so a settled
    /// connection does no allocation at all.
    wbuf: Vec<u8>,
    wpos: usize,
    /// The peer closed its side: nothing more will arrive, but frames
    /// already buffered are still answered.
    eof: bool,
    close_after_flush: bool,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }

    fn enqueue_reply(&mut self, trace: u64, payload: &[u8]) {
        if self.flushed() {
            // Everything before the cursor is written: rewind, keeping
            // the allocation.
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos >= READ_CHUNK {
            // A large written prefix under unwritten bytes: compact
            // occasionally rather than per reply.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        write_frame(&mut self.wbuf, trace, payload);
    }
}

/// The nonblocking multi-listener socket loop. See the module docs.
pub struct EventLoop {
    listeners: Vec<TcpListener>,
    addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
}

impl EventLoop {
    /// Bind one nonblocking listener per address (`"127.0.0.1:0"` picks
    /// a free port; read the result back via [`EventLoop::local_addrs`]).
    pub fn bind(addrs: &[String]) -> Result<EventLoop> {
        if addrs.is_empty() {
            return Err(HmError::InvalidArgument(
                "event loop needs at least one listen address".into(),
            ));
        }
        let mut listeners = Vec::with_capacity(addrs.len());
        let mut bound = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let l = TcpListener::bind(addr)
                .map_err(|e| HmError::Backend(format!("bind {addr}: {e}")))?;
            l.set_nonblocking(true)
                .map_err(|e| HmError::Backend(format!("set_nonblocking {addr}: {e}")))?;
            bound.push(
                l.local_addr()
                    .map_err(|e| HmError::Backend(format!("local_addr {addr}: {e}")))?,
            );
            listeners.push(l);
        }
        Ok(EventLoop {
            listeners,
            addrs: bound,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound addresses, in listener order.
    pub fn local_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// A flag that stops the loop (within one poll interval) when set.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Run until the stop flag is set. Consumes the loop; the handler
    /// stays the caller's. Returns lifetime counters.
    pub fn run<H: FrameHandler>(self, handler: &mut H) -> Result<LoopStats> {
        let mut conns: HashMap<ConnId, Conn> = HashMap::new();
        let mut next_conn = 0u64;
        let mut stats = LoopStats::default();
        let mut idle_ticks = 0u32;
        let mut dead: Vec<ConnId> = Vec::new();
        // One reply scratch for the whole loop: it is copied into the
        // connection's write buffer before the next frame is handled.
        let mut reply = Vec::new();
        // Registry handles resolved once per loop, bumped alongside the
        // local counters so a live scrape sees the loop's state.
        let net = NetCounters::new();
        let obs_frames = obs::registry().counter("loop.frames");
        let obs_parks = obs::registry().counter("loop.parks");
        let obs_accepted = obs::registry().counter("loop.accepted");

        while !self.stop.load(Ordering::SeqCst) {
            let mut progress = false;

            // 1. Accept.
            for (li, listener) in self.listeners.iter().enumerate() {
                loop {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            let id = ConnId {
                                listener: li,
                                conn: next_conn,
                            };
                            next_conn += 1;
                            conns.insert(
                                id,
                                Conn {
                                    stream,
                                    inbound: FrameBuf::new(),
                                    wbuf: Vec::new(),
                                    wpos: 0,
                                    eof: false,
                                    close_after_flush: false,
                                },
                            );
                            stats.accepted += 1;
                            obs_accepted.incr();
                            progress = true;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
            }

            // 2. Per-connection I/O: read, answer one frame, and one
            // coalesced flush of everything enqueued.
            for (&id, conn) in conns.iter_mut() {
                match Self::step_conn(id, conn, handler, &mut reply, &mut stats, &net, &obs_frames)
                {
                    Ok(stepped) => progress |= stepped,
                    Err(()) => dead.push(id),
                }
            }
            for id in dead.drain(..) {
                if conns.remove(&id).is_some() {
                    handler.on_disconnect(id);
                    stats.disconnects += 1;
                }
            }

            // 3. Idle strategy: yield for a while (cheap on a busy host),
            // then sleep so an idle server does not burn a core.
            if progress {
                idle_ticks = 0;
            } else {
                idle_ticks += 1;
                if idle_ticks < SPIN_TICKS {
                    std::thread::yield_now();
                } else {
                    stats.parks += 1;
                    obs_parks.incr();
                    std::thread::sleep(IDLE_PARK);
                }
            }
        }
        stats.disconnects += conns.len() as u64;
        Ok(stats)
    }

    /// One tick of a single connection. `Ok(true)` = made progress,
    /// `Err(())` = connection is finished and must be removed.
    fn step_conn<H: FrameHandler>(
        id: ConnId,
        conn: &mut Conn,
        handler: &mut H,
        reply: &mut Vec<u8>,
        stats: &mut LoopStats,
        net: &NetCounters,
        obs_frames: &obs::Counter,
    ) -> std::result::Result<bool, ()> {
        let mut progress = false;

        // Read whatever arrived, straight into the frame buffer.
        while !conn.eof && !conn.close_after_flush {
            match conn.inbound.fill(&mut conn.stream) {
                Ok(0) => {
                    conn.eof = true;
                    progress = true;
                }
                Ok(n) => {
                    net.read(n);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Socket error or an unframeable length prefix.
                Err(_) => return Err(()),
            }
        }

        // Answer one frame, inside its trace (so the reply and anything
        // the handler submits inherit the client's trace id).
        if !conn.close_after_flush {
            if let Some((trace, frame)) = conn.inbound.next_frame().map_err(|_| ())? {
                stats.frames += 1;
                obs_frames.incr();
                progress = true;
                let _trace = obs::trace::scope(trace);
                let _span = obs::trace::span("loop.frame");
                reply.clear();
                let close = match handler.on_frame(id, frame, reply) {
                    FrameOutcome::Reply => false,
                    FrameOutcome::ReplyClose => true,
                    FrameOutcome::Close => return Err(()),
                };
                conn.enqueue_reply(trace, reply);
                stats.replies += 1;
                conn.close_after_flush = close;
            }
        }

        // The tick's one flush point: backlog from earlier ticks and the
        // reply produced above leave in as few write syscalls as the
        // socket accepts (never blocking).
        while !conn.flushed() {
            match conn
                .stream
                .write(conn.wbuf.get(conn.wpos..).unwrap_or_default())
            {
                Ok(0) => return Err(()),
                Ok(n) => {
                    conn.wpos += n;
                    net.wrote(n);
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        // Finished once everything owed is written: after a closing
        // reply, or when the peer is gone and no buffered frame is left.
        let done = conn.close_after_flush || (conn.eof && !conn.inbound.has_frame());
        if done && conn.flushed() {
            return Err(());
        }
        Ok(progress)
    }
}
