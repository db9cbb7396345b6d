//! [`EventLoop`]: a nonblocking, single-threaded socket loop over raw
//! `std::net` — no new dependencies.
//!
//! One thread owns N listening sockets and every accepted connection,
//! all in nonblocking mode. Each tick the loop accepts new connections,
//! drains completed request executions, reads whatever bytes arrived
//! into each connection's [`FrameBuf`], hands complete frames to a
//! [`FrameHandler`], and flushes pending writes.
//!
//! Wire framing is [`crate::frame`]'s. The loop installs the frame's
//! trace id as the thread's current trace (`obs::trace`) while the
//! handler runs, and every reply frame echoes the trace id that was
//! current when it was produced — so one trace id follows a request
//! from the client through the loop, across executor job dispatch, and
//! back.
//!
//! The handler answers immediately ([`FrameOutcome::Reply`]) or defers
//! ([`FrameOutcome::Pending`]) after dispatching the work elsewhere —
//! typically onto a [`crate::ShardExecutor`] worker — and later pushes
//! the encoded response through [`Completions`], which wakes the loop.
//! At most one frame per connection is dispatched at a time, so
//! responses leave in request order; further frames wait, unparsed, in
//! the connection's buffer. Writes never block: partial writes park in
//! a per-connection buffer and resume next tick, so one slow reader
//! cannot stall the other connections.
//!
//! `std` exposes no `epoll`/`kqueue`, so readiness is cooperative
//! polling: the loop spins (yielding) while work flows and parks on the
//! completion channel with a short timeout when idle — completions wake
//! it immediately, new socket bytes within the poll interval.

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hypermodel::error::{HmError, Result};
use sanity::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};

use crate::frame::{write_frame, FrameBuf, NetCounters, READ_CHUNK};

/// How long an idle loop parks on the completion channel per tick.
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

/// What the handler wants done with the frame it was given.
pub enum FrameOutcome {
    /// The work was dispatched elsewhere; the response will arrive via
    /// [`Completions`]. No further frame from this connection is
    /// delivered until it does.
    Pending,
    /// Send this payload back (the loop adds the length prefix).
    Reply(Vec<u8>),
    /// Send this payload, then close the connection once it is flushed.
    ReplyClose(Vec<u8>),
    /// Drop the connection without a response.
    Close,
}

/// Receives framed requests from the loop.
pub trait FrameHandler {
    /// One complete frame arrived on `conn`; `frame` borrows the
    /// connection's read buffer, so a handler that defers copies what it
    /// needs. `done` is the completion handle for deferred
    /// ([`FrameOutcome::Pending`]) responses — clone it into the
    /// dispatched job.
    fn on_frame(&mut self, conn: ConnId, frame: &[u8], done: &Completions) -> FrameOutcome;

    /// `conn` disconnected (or was closed by an outcome).
    fn on_disconnect(&mut self, conn: ConnId) {
        let _ = conn;
    }
}

/// Completion handle: pushes a deferred response payload back into the
/// loop from any thread, waking it if it was parked.
#[derive(Clone)]
pub struct Completions {
    tx: Sender<(ConnId, u64, Vec<u8>)>,
}

impl Completions {
    /// Deliver the response payload for the pending frame on `conn`,
    /// tagged with the sending thread's current trace id (executor
    /// workers run completions inside the submitting frame's trace, so
    /// the reply echoes the request's id). Delivery after the connection
    /// (or the loop) is gone is silently dropped — the client is no
    /// longer there to read it.
    pub fn send(&self, conn: ConnId, reply: Vec<u8>) {
        let _ = self.tx.send((conn, obs::trace::current(), reply));
    }
}

/// Counters returned when the loop stops.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LoopStats {
    /// Connections accepted over the loop's lifetime.
    pub accepted: u64,
    /// Complete frames delivered to the handler.
    pub frames: u64,
    /// Responses written (immediate and deferred).
    pub replies: u64,
    /// Connections that ended (either side).
    pub disconnects: u64,
    /// Times the idle strategy parked on the completion channel.
    pub parks: u64,
    /// Parks cut short by a completion arriving (the cooperative-polling
    /// cost the ROADMAP flags: wakeups without socket readiness).
    pub idle_wakeups: u64,
}

struct Conn {
    stream: TcpStream,
    /// Inbound bytes. The next frame is parsed out only when none is in
    /// flight, so pipelined requests wait here in arrival order.
    inbound: FrameBuf,
    /// Encoded responses not yet fully written; `wpos` marks progress.
    /// Both buffers keep their capacity across frames, so a settled
    /// connection does no allocation at all.
    wbuf: Vec<u8>,
    wpos: usize,
    inflight: bool,
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
    tx: Sender<(ConnId, u64, Vec<u8>)>,
    rx: Receiver<(ConnId, u64, Vec<u8>)>,
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
        let (tx, rx) = channel();
        Ok(EventLoop {
            listeners,
            addrs: bound,
            stop: Arc::new(AtomicBool::new(false)),
            tx,
            rx,
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

    /// A completion handle usable before the loop runs (the same one is
    /// passed to every [`FrameHandler::on_frame`] call).
    pub fn completions(&self) -> Completions {
        Completions {
            tx: self.tx.clone(),
        }
    }

    /// Run until the stop flag is set. Consumes the loop and the
    /// handler; returns lifetime counters.
    pub fn run<H: FrameHandler>(self, mut handler: H) -> Result<LoopStats> {
        let done = self.completions();
        let mut conns: HashMap<ConnId, Conn> = HashMap::new();
        let mut next_conn = 0u64;
        let mut stats = LoopStats::default();
        let mut idle_ticks = 0u32;
        let mut dead: Vec<ConnId> = Vec::new();
        // Registry handles resolved once per loop, bumped alongside the
        // local counters so a live scrape sees the loop's state.
        let net = NetCounters::new();
        let obs_frames = obs::registry().counter("loop.frames");
        let obs_parks = obs::registry().counter("loop.parks");
        let obs_wakeups = obs::registry().counter("loop.idle_wakeups");
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
                                    inflight: false,
                                    close_after_flush: false,
                                },
                            );
                            stats.accepted += 1;
                            if obs::enabled() {
                                obs_accepted.incr();
                            }
                            progress = true;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
            }

            // 2. Deferred responses from executor workers.
            while let Ok((id, trace, reply)) = self.rx.try_recv() {
                progress = true;
                if let Some(conn) = conns.get_mut(&id) {
                    conn.inflight = false;
                    conn.enqueue_reply(trace, &reply);
                    stats.replies += 1;
                }
            }

            // 3. Per-connection I/O: read, dispatch frames, and one
            // coalesced flush of everything enqueued this tick.
            for (&id, conn) in conns.iter_mut() {
                let stepped =
                    Self::step_conn(id, conn, &mut handler, &done, &mut stats, &net, &obs_frames);
                match stepped {
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

            // 4. Idle strategy: yield for a while (cheap on a busy host),
            // then park on the completion channel so deferred responses
            // wake the loop immediately.
            if progress {
                idle_ticks = 0;
            } else {
                idle_ticks += 1;
                if idle_ticks < SPIN_TICKS {
                    std::thread::yield_now();
                } else {
                    stats.parks += 1;
                    if obs::enabled() {
                        obs_parks.incr();
                    }
                    match self.rx.recv_timeout(IDLE_PARK) {
                        Ok((id, trace, reply)) => {
                            stats.idle_wakeups += 1;
                            if obs::enabled() {
                                obs_wakeups.incr();
                            }
                            if let Some(conn) = conns.get_mut(&id) {
                                conn.inflight = false;
                                conn.enqueue_reply(trace, &reply);
                                stats.replies += 1;
                            }
                            idle_ticks = 0;
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        // We hold a sender ourselves, so this is unreachable;
                        // treat it as a stop request rather than panic.
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
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
        done: &Completions,
        stats: &mut LoopStats,
        net: &NetCounters,
        obs_frames: &obs::Counter,
    ) -> std::result::Result<bool, ()> {
        let mut progress = false;
        // Grace flag: the tick that sees the peer close still flushes
        // but defers the drop one tick, so a completion already in the
        // channel gets its reply written.
        let mut peer_closed_now = false;

        if !conn.close_after_flush {
            // Read whatever arrived, straight into the frame buffer.
            loop {
                match conn.inbound.fill(&mut conn.stream) {
                    Ok(0) => {
                        // Peer closed: nothing more will arrive and no
                        // further frame is dispatched. Finish what is
                        // queued for write (below), then drop.
                        conn.close_after_flush = true;
                        progress = true;
                        peer_closed_now = true;
                        break;
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

            // Dispatch, one frame in flight at a time, inside the frame's
            // trace (so immediate replies and executor submissions inherit
            // the client's trace id).
            while !conn.inflight && !conn.close_after_flush {
                let Some((trace, frame)) = conn.inbound.next_frame().map_err(|_| ())? else {
                    break;
                };
                stats.frames += 1;
                if obs::enabled() {
                    obs_frames.incr();
                }
                progress = true;
                let _trace = obs::trace::scope(trace);
                let _span = obs::trace::span("loop.frame");
                let (payload, close) = match handler.on_frame(id, frame, done) {
                    FrameOutcome::Pending => {
                        conn.inflight = true;
                        continue;
                    }
                    FrameOutcome::Reply(payload) => (payload, false),
                    FrameOutcome::ReplyClose(payload) => (payload, true),
                    FrameOutcome::Close => return Err(()),
                };
                conn.enqueue_reply(trace, &payload);
                stats.replies += 1;
                conn.close_after_flush = close;
            }
        }

        // The tick's one flush point: backlog from earlier ticks,
        // deferred completions drained before stepping, and immediate
        // replies produced above all leave in as few write syscalls as
        // the socket accepts (never blocking).
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
        if conn.close_after_flush && conn.flushed() && !peer_closed_now {
            return Err(());
        }
        Ok(progress)
    }
}
