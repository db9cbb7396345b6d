//! Serving requests against local stores: the one frame handler every
//! server runs (`Handler`, an [`exec::FrameHandler`]) and its two
//! drivers — [`crate::serve_multi`]'s event loop over TCP, and the
//! transport pump [`serve`] over any one [`Transport`].
//!
//! Each hosted store sits in an [`Isolated`] beside its dedup cache, and
//! one request runs at a time, so the at-most-once decision for a tagged
//! request is taken in the store's execution order and is shared by
//! every connection to it — a retry arriving on a second connection is
//! replayed, not run twice, and retries survive reconnects. A request
//! that panics poisons its store only: it and every later request to
//! that store are answered with `ShardUnavailable`.

use std::collections::HashMap;

use exec::{ConnId, ExecError, FrameHandler, FrameOutcome, Isolated, LoopStats};
use hypermodel::error::Result;
use hypermodel::store::HyperStore;

use crate::protocol::{Request, Response};
use crate::transport::Transport;

/// What a server served, returned when it stops.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MultiStats {
    /// Requests executed across all shards (excluding shutdowns and
    /// dedup replays).
    pub requests: u64,
    /// Error responses sent (malformed frames, store errors and
    /// requests refused by a poisoned shard).
    pub errors: u64,
    /// Tagged requests answered from a dedup cache without re-executing.
    pub replayed: u64,
    /// The event loop's connection/frame counters (zero from [`serve`],
    /// which runs no event loop).
    pub loop_stats: LoopStats,
}

/// Consecutive malformed frames tolerated before the server drops the
/// connection. A client with a framing bug gets a few error responses
/// to diagnose with; a firehose of garbage gets disconnected.
const MAX_GARBAGE_STREAK: u32 = 8;

/// Tagged responses remembered per store. Retries arrive promptly
/// (bounded backoff), so a small window suffices.
const DEDUP_WINDOW: usize = 64;

/// Remembers the responses of recently-executed [`Request::Tagged`]
/// requests so a retried mutation applies **at most once**: when the
/// client resends an id it already sent (because the response was lost
/// in flight), the server replays the stored response instead of
/// executing the request again. Bounded FIFO — old entries are evicted.
#[derive(Debug, Default)]
struct DedupCache {
    entries: std::collections::VecDeque<(u64, Vec<u8>)>,
}

impl DedupCache {
    fn lookup(&self, id: u64) -> Option<&[u8]> {
        self.entries
            .iter()
            .find(|(k, _)| *k == id)
            .map(|(_, v)| v.as_slice())
    }

    fn remember(&mut self, id: u64, resp: Vec<u8>) {
        if self.entries.len() == DEDUP_WINDOW {
            self.entries.pop_front();
        }
        self.entries.push_back((id, resp));
    }
}

/// One hosted shard: its store, poisoned by a request that panics inside
/// it, and the at-most-once memory of what ran against it.
struct Shard<S> {
    store: Isolated<S>,
    cache: DedupCache,
}

/// Runs frames from listener `i` against shard `i`.
pub(crate) struct Handler<S> {
    shards: Vec<Shard<S>>,
    pub(crate) stats: MultiStats,
    /// Malformed-frame streak per connection.
    garbage: HashMap<ConnId, u32>,
}

impl<S> Handler<S> {
    pub(crate) fn new(stores: Vec<S>) -> Handler<S> {
        Handler {
            shards: stores
                .into_iter()
                .map(|store| Shard {
                    store: Isolated::new(store),
                    cache: DedupCache::default(),
                })
                .collect(),
            stats: MultiStats::default(),
            garbage: HashMap::new(),
        }
    }
}

impl<S: HyperStore> FrameHandler for Handler<S> {
    /// Decode the frame; keep the connection's malformed-frame streak (a
    /// bad frame is answered with an error until [`MAX_GARBAGE_STREAK`]
    /// in a row, then the connection goes); answer a top-level
    /// `Shutdown` and close; otherwise, inside the shard's isolation,
    /// replay a remembered tagged request or run it with the store's
    /// [`HyperStore::call`], encode the answer and remember it if
    /// tagged.
    fn on_frame(&mut self, conn: ConnId, frame: &[u8], out: &mut Vec<u8>) -> FrameOutcome {
        let streak = self.garbage.entry(conn).or_insert(0);
        let req = match Request::decode(frame) {
            // Closes this client's connection; the server keeps running.
            Ok(Request::Shutdown) => {
                Response::Unit.encode_into(out);
                return FrameOutcome::ReplyClose;
            }
            Ok(req) => {
                *streak = 0;
                req
            }
            Err(e) => {
                self.stats.errors += 1;
                *streak += 1;
                if *streak >= MAX_GARBAGE_STREAK {
                    // One bad client must not kill the server, but it
                    // need not be humoured forever either.
                    eprintln!(
                        "server: dropping connection after {streak} \
                         consecutive malformed frames (last: {e})"
                    );
                    return FrameOutcome::Close;
                }
                Response::Err(e.to_string()).encode_into(out);
                return FrameOutcome::Reply;
            }
        };
        let stats = &mut self.stats;
        let ran = self.shards.get_mut(conn.listener).and_then(|shard| {
            let cache = &mut shard.cache;
            shard.store.run(|store| {
                let tag = match &req {
                    Request::Tagged(id, _) => Some(*id),
                    _ => None,
                };
                if let Some(bytes) = tag.and_then(|id| cache.lookup(id)) {
                    stats.replayed += 1;
                    out.extend_from_slice(bytes);
                    return;
                }
                let resp = answer(store, req);
                if matches!(resp, Response::Err(_)) {
                    stats.errors += 1;
                }
                stats.requests += 1;
                resp.encode_into(out);
                if let Some(id) = tag {
                    cache.remember(id, out.clone());
                }
            })
        });
        if ran.is_none() {
            // The shard panicked now or earlier: refuse with the error an
            // executor reports for a poisoned shard.
            out.clear();
            self.stats.errors += 1;
            Response::Err(ExecError::Poisoned(conn.listener).into_hm().to_string())
                .encode_into(out);
        }
        FrameOutcome::Reply
    }

    fn on_disconnect(&mut self, conn: ConnId) {
        self.garbage.remove(&conn);
    }
}

/// Run one request against the store and say what to answer: a store
/// operation is the store's [`HyperStore::call`], and its error becomes
/// the [`Response::Err`] text; the session messages are answered here.
fn answer<S: HyperStore + ?Sized>(store: &mut S, req: Request) -> Response {
    let result = match req {
        // Dedup is the handler's job; decode rejects a nested Tagged.
        Request::Tagged(_, inner) => return answer(store, *inner),
        // The handler answers a top-level Shutdown; one inside a Tagged
        // envelope cannot be honoured.
        Request::Shutdown => return Response::Err("shutdown must be a top-level request".into()),
        // Answered from the process-global metrics registry.
        Request::Stats => return Response::Stats(obs::registry().snapshot().export_json()),
        op => store.call(op),
    };
    result.unwrap_or_else(|e| Response::Err(e.to_string()))
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
