//! Serving requests against a local store: the one admission path both
//! servers run every inbound frame through (`admit` then
//! `execute`), the dispatcher, and the blocking per-connection loop
//! ([`serve`]).

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
/// anything else is dispatched, encoded and (if tagged) remembered.
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
    let resp = dispatch(store, req);
    if matches!(resp, Response::Err(_)) {
        stats.errors += 1;
    }
    stats.requests += 1;
    resp.encode_into(out);
    if let Some(id) = tag {
        cache.remember(id, out.clone());
    }
}

pub(crate) fn dispatch<S: HyperStore + ?Sized>(store: &mut S, req: Request) -> Response {
    fn ok_or_err<T>(r: Result<T>, f: impl FnOnce(T) -> Response) -> Response {
        match r {
            Ok(v) => f(v),
            Err(e) => Response::Err(e.to_string()),
        }
    }
    // A request about a node this server migrated away is answered with
    // its new placement, not served from the retired ghost stand-in.
    if let Some(o) = crate::protocol::redirect_subject(&req) {
        if let Some((to, epoch)) = store.moved_hint(o) {
            return Response::Moved(to, epoch);
        }
    }
    match req {
        Request::LookupUnique(uid) => ok_or_err(store.lookup_unique(uid), Response::Oid),
        Request::UniqueIdOf(o) => ok_or_err(store.unique_id_of(o), Response::U64),
        Request::KindOf(o) => ok_or_err(store.kind_of(o), |k| Response::U16(k.0)),
        Request::TenOf(o) => ok_or_err(store.ten_of(o), Response::U32),
        Request::HundredOf(o) => ok_or_err(store.hundred_of(o), Response::U32),
        Request::MillionOf(o) => ok_or_err(store.million_of(o), Response::U32),
        Request::SetHundred(o, v) => ok_or_err(store.set_hundred(o, v), |_| Response::Unit),
        Request::RangeHundred(lo, hi) => ok_or_err(store.range_hundred(lo, hi), Response::Oids),
        Request::RangeMillion(lo, hi) => ok_or_err(store.range_million(lo, hi), Response::Oids),
        Request::Children(o) => ok_or_err(store.children(o), Response::Oids),
        Request::Parent(o) => ok_or_err(store.parent(o), Response::OptOid),
        Request::Parts(o) => ok_or_err(store.parts(o), Response::Oids),
        Request::PartOf(o) => ok_or_err(store.part_of(o), Response::Oids),
        Request::RefsTo(o) => ok_or_err(store.refs_to(o), Response::Edges),
        Request::RefsFrom(o) => ok_or_err(store.refs_from(o), Response::Edges),
        Request::SeqScanTen => ok_or_err(store.seq_scan_ten(), Response::U64),
        Request::TextOf(o) => ok_or_err(store.text_of(o), Response::Text),
        Request::SetText(o, s) => ok_or_err(store.set_text(o, &s), |_| Response::Unit),
        Request::FormOf(o) => ok_or_err(store.form_of(o), Response::Form),
        Request::SetForm(o, bm) => ok_or_err(store.set_form(o, &bm), |_| Response::Unit),
        Request::CreateNode(v) => ok_or_err(store.create_node(&v), Response::Oid),
        Request::CreateNodeClustered(v, near) => {
            ok_or_err(store.create_node_clustered(&v, near), Response::Oid)
        }
        Request::AddChild(a, b) => ok_or_err(store.add_child(a, b), |_| Response::Unit),
        Request::AddPart(a, b) => ok_or_err(store.add_part(a, b), |_| Response::Unit),
        Request::AddRef(a, b, f, t) => ok_or_err(store.add_ref(a, b, f, t), |_| Response::Unit),
        Request::InsertExtraNode(v) => ok_or_err(store.insert_extra_node(&v), Response::Oid),
        Request::Commit => ok_or_err(store.commit(), |_| Response::Unit),
        Request::ColdRestart => ok_or_err(store.cold_restart(), |_| Response::Unit),
        // Server-side conceptual operations: one round trip each.
        Request::Closure1N(o) => ok_or_err(store.closure_1n(o), Response::Oids),
        Request::Closure1NAttSum(o) => ok_or_err(store.closure_1n_att_sum(o), |(s, c)| {
            Response::SumCount(s, c as u64)
        }),
        Request::Closure1NAttSet(o) => {
            ok_or_err(store.closure_1n_att_set(o), |n| Response::U64(n as u64))
        }
        Request::Closure1NPred(o, lo, hi) => {
            ok_or_err(store.closure_1n_pred(o, lo, hi), Response::Oids)
        }
        Request::ClosureMN(o) => ok_or_err(store.closure_mn(o), Response::Oids),
        Request::ClosureMNAtt(o, d) => ok_or_err(store.closure_mnatt(o, d), Response::Oids),
        Request::ClosureMNAttLinkSum(o, d) => {
            ok_or_err(store.closure_mnatt_linksum(o, d), Response::Pairs)
        }
        Request::TextNodeEdit(o, from, to) => ok_or_err(store.text_node_edit(o, &from, &to), |n| {
            Response::U64(n as u64)
        }),
        Request::FormNodeEdit(o, x0, y0, x1, y1) => {
            ok_or_err(store.form_node_edit(o, x0, y0, x1, y1), |_| Response::Unit)
        }
        // Batched primitives: one round trip for a whole frontier level.
        Request::ChildrenBatch(oids) => ok_or_err(store.children_batch(&oids), Response::OidLists),
        Request::PartsBatch(oids) => ok_or_err(store.parts_batch(&oids), Response::OidLists),
        Request::RefsToBatch(oids) => ok_or_err(store.refs_to_batch(&oids), Response::EdgeLists),
        Request::HundredBatch(oids) => ok_or_err(store.hundred_batch(&oids), Response::U32s),
        Request::MillionBatch(oids) => ok_or_err(store.million_batch(&oids), Response::U32s),
        Request::SetHundredBatch(updates) => {
            ok_or_err(store.set_hundred_batch(&updates), |_| Response::Unit)
        }
        // Two-phase commit: the store is a participant, the caller is
        // the coordinator.
        Request::PrepareCommit(txid) => ok_or_err(store.prepare_commit(txid), |_| Response::Unit),
        Request::CommitPrepared(txid) => ok_or_err(store.commit_prepared(txid), |_| Response::Unit),
        Request::AbortPrepared(txid) => ok_or_err(store.abort_prepared(txid), |_| Response::Unit),
        // Anti-entropy: replica repair pulls a snapshot from a healthy
        // server and installs it on a lagging one.
        Request::SyncSubtree => ok_or_err(store.sync_export(), Response::Subtree),
        Request::InstallSubtree(snap) => ok_or_err(store.sync_import(&snap), |_| Response::Unit),
        // Online migration: export/install/activate/retire driven by a
        // remote migration coordinator.
        Request::ExportNodes(oids) => ok_or_err(store.export_nodes(&oids), |batch| {
            Response::Subtree(hypermodel::migrate::encode_batch(&batch))
        }),
        Request::InstallNodes(bytes) => {
            match hypermodel::migrate::decode_batch(&bytes)
                .and_then(|batch| store.install_nodes(&batch))
            {
                Ok(locals) => Response::Oids(locals),
                Err(e) => Response::Err(e.to_string()),
            }
        }
        Request::ActivateNodes(oids) => ok_or_err(store.activate_nodes(&oids), |_| Response::Unit),
        Request::RetireNodes(oids, to, epoch) => {
            ok_or_err(store.retire_nodes(&oids, to, epoch), |_| Response::Unit)
        }
        // Dedup is `execute`'s job; a direct dispatch just unwraps.
        // (decode rejects nested Tagged, so this recurses at most once.)
        Request::Tagged(_, inner) => dispatch(store, *inner),
        // `admit` intercepts Shutdown before dispatch; reaching
        // here means it arrived somewhere it cannot be honoured (e.g.
        // inside a Tagged envelope) — refuse rather than panic.
        Request::Shutdown => Response::Err("shutdown must be a top-level request".into()),
        // A stats scrape is answered from the process-global metrics
        // registry; the store itself plays no part.
        Request::Stats => Response::Stats(obs::registry().snapshot().export_json()),
    }
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
    // the steady-state loop allocates only inside dispatch itself.
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
