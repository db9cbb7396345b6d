//! Serving requests against a local store: the one admission path both
//! servers run every inbound frame through (`admit` then
//! `execute`), the session messages no store answers, and the blocking
//! per-connection loop ([`serve`]).

use hypermodel::error::Result;
use hypermodel::store::HyperStore;

use crate::protocol::{Request, Response};
use crate::transport::Transport;

/// Per-session statistics, returned when the loop ends.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests served (excluding the shutdown message).
    pub requests: u64,
    /// Requests that returned an error response.
    pub errors: u64,
    /// Tagged requests answered from the dedup cache without
    /// re-executing (retries whose first response was lost).
    pub replayed: u64,
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
pub(crate) struct DedupCache {
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

/// What [`admit`] decided for one inbound frame.
pub(crate) enum Admission {
    /// The reply is already encoded in `out`; send it and carry on.
    Reply,
    /// The reply is in `out`; send it, then close this connection
    /// (a top-level [`Request::Shutdown`]).
    ReplyClose,
    /// Too many malformed frames in a row: drop the connection without
    /// replying.
    Close,
    /// A well-formed request for [`execute`].
    Execute(Request),
}

/// First half of admission, run where the frame arrives: decode it,
/// keep the connection's malformed-frame `streak` (a bad frame is
/// answered with an error until [`MAX_GARBAGE_STREAK`] in a row, then
/// the connection goes), and answer a top-level `Shutdown`. `out`
/// arrives empty and leaves holding the reply, if there is one.
pub(crate) fn admit(
    frame: &[u8],
    streak: &mut u32,
    stats: &mut SessionStats,
    out: &mut Vec<u8>,
) -> Admission {
    match Request::decode(frame) {
        Ok(Request::Shutdown) => {
            Response::Unit.encode_into(out);
            Admission::ReplyClose
        }
        Ok(req) => {
            *streak = 0;
            Admission::Execute(req)
        }
        Err(e) => {
            stats.errors += 1;
            *streak += 1;
            if *streak >= MAX_GARBAGE_STREAK {
                // One bad client must not kill the server, but it need
                // not be humoured forever either.
                eprintln!(
                    "server: dropping connection after {streak} \
                     consecutive malformed frames (last: {e})"
                );
                return Admission::Close;
            }
            Response::Err(e.to_string()).encode_into(out);
            Admission::Reply
        }
    }
}

/// Second half of admission, run where the store is — and, for a
/// store several connections share, in that store's execution order,
/// which is what makes the dedup decision race-free: a tagged request
/// whose id `cache` remembers is answered with the stored bytes,
/// anything else is answered, encoded and (if tagged) remembered.
/// `out` arrives empty and leaves holding the reply.
pub(crate) fn execute<S: HyperStore + ?Sized>(
    store: &mut S,
    cache: &mut DedupCache,
    req: Request,
    stats: &mut SessionStats,
    out: &mut Vec<u8>,
) {
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
}

/// Run one request against the store and say what to answer: a store
/// operation is the store's [`HyperStore::call`], and its error becomes
/// the [`Response::Err`] text; the session messages are answered here.
pub(crate) fn answer<S: HyperStore + ?Sized>(store: &mut S, req: Request) -> Response {
    let result = match req {
        // Dedup is `execute`'s job; decode rejects a nested Tagged.
        Request::Tagged(_, inner) => return answer(store, *inner),
        // `admit` answers a top-level Shutdown; one inside a Tagged
        // envelope cannot be honoured.
        Request::Shutdown => return Response::Err("shutdown must be a top-level request".into()),
        // Answered from the process-global metrics registry.
        Request::Stats => return Response::Stats(obs::registry().snapshot().export_json()),
        op => store.call(op),
    };
    result.unwrap_or_else(|e| Response::Err(e.to_string()))
}

/// Serve requests from `transport` against `store` until the client sends
/// [`Request::Shutdown`] or disconnects: one blocking loop on the
/// calling thread. This is the server for everything the event loop of
/// [`crate::serve_multi`] cannot host — a non-TCP transport (simulated
/// latency, fault injection on the server side) or a borrowed store.
/// At-most-once memory for tagged requests lasts for the session.
pub fn serve<S: HyperStore + ?Sized>(
    store: &mut S,
    transport: &mut dyn Transport,
) -> Result<SessionStats> {
    let mut stats = SessionStats::default();
    let mut cache = DedupCache::default();
    let mut streak = 0u32;
    // One receive buffer and one encode scratch for the whole session:
    // the steady-state loop allocates only inside the store's call.
    let mut frame = Vec::new();
    let mut out = Vec::new();
    while transport.recv_into(&mut frame, None)? {
        out.clear();
        let close = match admit(&frame, &mut streak, &mut stats, &mut out) {
            Admission::Reply => false,
            Admission::ReplyClose => true,
            Admission::Close => break,
            Admission::Execute(req) => {
                execute(store, &mut cache, req, &mut stats, &mut out);
                false
            }
        };
        transport.send(&out)?;
        if close {
            break;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use mem_backend::MemStore;
    use std::time::Duration;

    #[test]
    fn client_disconnect_ends_serve_cleanly() {
        let mut store = MemStore::new();
        let (client, mut server_end) = ChannelTransport::pair(Duration::ZERO);
        let handle = std::thread::spawn(move || serve(&mut store, &mut server_end).unwrap());
        drop(client);
        let stats = handle.join().unwrap();
        assert_eq!(stats, SessionStats::default());
    }
}
