//! Serving requests against local stores: the one frame handler every
//! server runs (`Handler`, an [`exec::FrameHandler`]) and its two
//! drivers — [`crate::serve_multi`]'s event loop over TCP, and the
//! transport pump [`serve`] over any one [`Transport`].
//!
//! Every frame in either direction starts with the request's sequence
//! number ([`put_seq`], [`split_seq`]): the client numbers its calls,
//! resends a number only to retry it, and drops a reply that carries
//! another; the handler echoes the number on its reply. Per connection
//! the handler keeps the number and reply of the last mutation it ran,
//! and answers that number's next arrival with the same bytes, so a
//! retried mutation runs at most once. That needs the transport to
//! deliver in order on each connection, which TCP, the channel and
//! `chaos::FaultyTransport` all do: a retry never overtakes a later
//! call. A request that panics poisons its store only: it and every
//! later request to that store are answered with `ShardUnavailable`.

use std::collections::HashMap;

use exec::{ConnId, ExecError, FrameHandler, FrameOutcome, Isolated, LoopStats};
use hypermodel::error::{HmError, Result};
use hypermodel::store::HyperStore;

use crate::protocol::{Request, Response};
use crate::transport::Transport;

/// What a server served, returned when it stops.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MultiStats {
    /// Requests executed across all shards (excluding shutdowns and
    /// replays).
    pub requests: u64,
    /// Error responses sent (malformed frames, store errors and
    /// requests refused by a poisoned shard).
    pub errors: u64,
    /// Retried mutations answered with their connection's last reply
    /// instead of running again.
    pub replayed: u64,
    /// The event loop's connection/frame counters (zero from [`serve`],
    /// which runs no event loop).
    pub loop_stats: LoopStats,
}

/// Consecutive malformed frames tolerated before the server drops the
/// connection. A client with a framing bug gets a few error responses
/// to diagnose with; a firehose of garbage gets disconnected.
const MAX_GARBAGE_STREAK: u32 = 8;

/// Bytes of the sequence number that starts every frame.
const SEQ_LEN: usize = 8;

/// Append `seq`, the sequence number a frame starts with, to `out`.
pub fn put_seq(out: &mut Vec<u8>, seq: u64) {
    out.extend_from_slice(&seq.to_le_bytes());
}

/// Split a frame into its sequence number and the message behind it.
pub fn split_seq(frame: &[u8]) -> Result<(u64, &[u8])> {
    match frame.split_first_chunk::<SEQ_LEN>() {
        Some((seq, body)) => Ok((u64::from_le_bytes(*seq), body)),
        None => Err(HmError::Backend(format!(
            "frame of {} bytes holds no sequence number",
            frame.len()
        ))),
    }
}

/// What the handler keeps per connection.
#[derive(Default)]
struct Session {
    /// Malformed frames in a row.
    garbage: u32,
    /// The number and reply frame of the last mutation run here.
    last_mutation: Option<(u64, Vec<u8>)>,
}

/// Runs frames from listener `i` against store `i`.
pub(crate) struct Handler<S> {
    stores: Vec<Isolated<S>>,
    pub(crate) stats: MultiStats,
    sessions: HashMap<ConnId, Session>,
}

impl<S> Handler<S> {
    pub(crate) fn new(stores: Vec<S>) -> Handler<S> {
        Handler {
            stores: stores.into_iter().map(Isolated::new).collect(),
            stats: MultiStats::default(),
            sessions: HashMap::new(),
        }
    }
}

impl<S: HyperStore> FrameHandler for Handler<S> {
    /// Split off the number and echo it; decode, keeping the
    /// connection's malformed-frame streak (a bad frame is answered with
    /// an error until [`MAX_GARBAGE_STREAK`] in a row, then the
    /// connection goes); answer `Shutdown` and close; replay the
    /// connection's last mutation if this is its number; otherwise run
    /// the request inside the store's isolation with
    /// [`HyperStore::call`] (`Stats` is answered here), encode the
    /// answer and, for a mutation, remember it.
    fn on_frame(&mut self, conn: ConnId, frame: &[u8], out: &mut Vec<u8>) -> FrameOutcome {
        let session = self.sessions.entry(conn).or_default();
        // A frame too short to hold a number is answered under 0, which
        // no client uses.
        let (seq, decoded) = match split_seq(frame) {
            Ok((seq, body)) => (seq, Request::decode(body)),
            Err(e) => (0, Err(e)),
        };
        put_seq(out, seq);
        let req = match decoded {
            // Closes this client's connection; the server keeps running.
            Ok(Request::Shutdown) => {
                Response::Unit.encode_into(out);
                return FrameOutcome::ReplyClose;
            }
            Ok(req) => {
                session.garbage = 0;
                req
            }
            Err(e) => {
                self.stats.errors += 1;
                session.garbage += 1;
                if session.garbage >= MAX_GARBAGE_STREAK {
                    // One bad client must not kill the server, but it
                    // need not be humoured forever either.
                    eprintln!(
                        "server: dropping connection after {} \
                         consecutive malformed frames (last: {e})",
                        session.garbage
                    );
                    return FrameOutcome::Close;
                }
                Response::Err(e.to_string()).encode_into(out);
                return FrameOutcome::Reply;
            }
        };
        if let Some((_, reply)) = session.last_mutation.as_ref().filter(|(n, _)| *n == seq) {
            self.stats.replayed += 1;
            out.clear();
            out.extend_from_slice(reply);
            return FrameOutcome::Reply;
        }
        let mutates = req.mutates();
        let stats = &mut self.stats;
        let ran = self.stores.get_mut(conn.listener).and_then(|store| {
            store.run(|store| {
                let resp = match req {
                    // Answered from the process-global metrics registry.
                    Request::Stats => Response::Stats(obs::registry().snapshot().export_json()),
                    op => store
                        .call(op)
                        .unwrap_or_else(|e| Response::Err(e.to_string())),
                };
                if matches!(resp, Response::Err(_)) {
                    stats.errors += 1;
                }
                stats.requests += 1;
                resp.encode_into(out);
            })
        });
        if ran.is_none() {
            // The store panicked now or earlier: refuse with the error an
            // executor reports for a poisoned shard.
            out.truncate(SEQ_LEN);
            self.stats.errors += 1;
            Response::Err(ExecError::Poisoned(conn.listener).into_hm().to_string())
                .encode_into(out);
        }
        if mutates {
            let (last, reply) = session.last_mutation.get_or_insert_default();
            *last = seq;
            reply.clear();
            reply.extend_from_slice(out);
        }
        FrameOutcome::Reply
    }

    fn on_disconnect(&mut self, conn: ConnId) {
        self.sessions.remove(&conn);
    }
}

/// Serve requests from `transport` against `store` until the client sends
/// [`Request::Shutdown`], sends too many malformed frames in a row, or
/// disconnects: a pump on the calling thread that hands each frame to
/// the same frame handler [`crate::serve_multi`] runs, as shard 0. This is
/// the server for any transport that is not the event loop's TCP — a
/// channel with simulated latency, or server-side fault injection.
pub fn serve<S: HyperStore>(store: S, transport: &mut dyn Transport) -> Result<MultiStats> {
    let mut handler = Handler::new(vec![store]);
    let conn = ConnId {
        listener: 0,
        conn: 0,
    };
    // One receive buffer and one reply scratch for the whole session.
    let (mut frame, mut reply) = (Vec::new(), Vec::new());
    while transport.recv_into(&mut frame, None)? {
        reply.clear();
        match handler.on_frame(conn, &frame, &mut reply) {
            FrameOutcome::Reply => transport.send(&reply)?,
            FrameOutcome::ReplyClose => {
                transport.send(&reply)?;
                break;
            }
            FrameOutcome::Close => break,
        }
    }
    Ok(handler.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use mem_backend::MemStore;
    use std::time::Duration;

    #[test]
    fn client_disconnect_ends_serve_cleanly() {
        let (client, mut server_end) = ChannelTransport::pair(Duration::ZERO);
        let handle = std::thread::spawn(move || serve(MemStore::new(), &mut server_end).unwrap());
        drop(client);
        let stats = handle.join().unwrap();
        assert_eq!(stats, MultiStats::default());
    }
}
