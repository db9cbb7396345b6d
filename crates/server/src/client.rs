//! The remote client: a full [`HyperStore`] over a [`Transport`].
//!
//! [`RemoteStore`] is the "workstation" half of the paper's R6
//! architecture. Two execution modes reproduce the §4 trade-off:
//!
//! * [`ClosureMode::ClientSide`] — only the primitive accessors cross the
//!   wire; closure operations run on the workstation and pay **one round
//!   trip per relationship access** (the naive navigational interface);
//! * [`ClosureMode::ServerSide`] — the conceptual operations are shipped
//!   to the server and each costs **one round trip** total ("some systems
//!   support higher level conceptual operations more efficiently").
//!
//! The difference dominates as soon as any real latency exists — shown by
//! the tests here and the `remote` harness experiment.

use hypermodel::error::{HmError, Result};
use hypermodel::model::{NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::store::HyperStore;
use hypermodel::Bitmap;

use crate::protocol::{Request, Response};
use crate::transport::Transport;

/// Where closure/editing operations execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosureMode {
    /// Traverse on the client via primitive round trips.
    ClientSide,
    /// Ship the conceptual operation to the server.
    ServerSide,
}

/// How a [`RemoteStore`] survives a lossy or slow transport.
///
/// Each request waits at most `request_timeout` for its response; a
/// timeout (or lost connection) is retried up to `max_retries` times
/// with bounded exponential backoff. Mutating requests are wrapped in
/// [`Request::Tagged`] with a fresh id so the server applies a retried
/// mutation **at most once** — the dangerous case is a mutation whose
/// *response* was lost after the server already executed it.
///
/// Server-reported errors (a [`Response::Err`] that made it back) are
/// permanent and never retried.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Per-request response deadline.
    pub request_timeout: std::time::Duration,
    /// Retries after the first attempt (0 = fail on first timeout).
    pub max_retries: u32,
    /// First backoff; doubles per retry.
    pub backoff_base: std::time::Duration,
    /// Backoff ceiling.
    pub backoff_max: std::time::Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            request_timeout: std::time::Duration::from_secs(2),
            max_retries: 5,
            backoff_base: std::time::Duration::from_millis(10),
            backoff_max: std::time::Duration::from_millis(500),
        }
    }
}

impl RetryPolicy {
    fn backoff(&self, retry: u32) -> std::time::Duration {
        let doubled = self
            .backoff_base
            .saturating_mul(1u32 << retry.min(16))
            .min(self.backoff_max);
        doubled.max(self.backoff_base)
    }
}

/// Builds a replacement connection after the current one turns suspect.
pub type ReconnectFn = Box<dyn FnMut() -> Result<Box<dyn Transport>> + Send>;

/// A `HyperStore` backed by a remote server.
pub struct RemoteStore {
    transport: Box<dyn Transport>,
    mode: ClosureMode,
    round_trips: u64,
    policy: Option<RetryPolicy>,
    reconnect: Option<ReconnectFn>,
    next_request_id: u64,
    retries: u64,
    gave_up: u64,
    /// Placement hints learned from [`Response::Moved`] redirects:
    /// node → `(destination shard, forwarding epoch)`. Only the highest
    /// epoch seen per node is kept.
    moved: std::collections::HashMap<Oid, (u16, u64)>,
    /// Request-encode scratch, reused across calls so the steady-state
    /// wire path allocates nothing on the send side.
    scratch: Vec<u8>,
    /// Response-frame buffer, reused across calls (receive side).
    rframe: Vec<u8>,
}

impl RemoteStore {
    /// Connect over `transport` with the given closure execution mode.
    pub fn new(transport: Box<dyn Transport>, mode: ClosureMode) -> RemoteStore {
        RemoteStore {
            transport,
            mode,
            round_trips: 0,
            policy: None,
            reconnect: None,
            next_request_id: 1,
            retries: 0,
            gave_up: 0,
            moved: std::collections::HashMap::new(),
            scratch: Vec::new(),
            rframe: Vec::new(),
        }
    }

    /// Enable timeout-and-retry handling for every call.
    pub fn with_retry(mut self, policy: RetryPolicy) -> RemoteStore {
        self.policy = Some(policy);
        self
    }

    /// Install a factory that replaces the connection when a retry finds
    /// the current one suspect (after a timeout a stream transport may
    /// hold a half-read frame). Without one, retries reuse the transport
    /// — fine for message-framed transports like channels.
    pub fn with_reconnect(mut self, f: ReconnectFn) -> RemoteStore {
        self.reconnect = Some(f);
        self
    }

    /// Number of request/response round trips performed.
    pub fn round_trips(&self) -> u64 {
        self.round_trips
    }

    /// Reset the round-trip counter (between measurement phases).
    pub fn reset_round_trips(&mut self) {
        self.round_trips = 0;
    }

    /// Attempts beyond the first, across all calls so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Calls abandoned after exhausting the retry budget.
    pub fn gave_up(&self) -> u64 {
        self.gave_up
    }

    /// The closure execution mode.
    pub fn mode(&self) -> ClosureMode {
        self.mode
    }

    /// Ask the server to stop serving this session.
    pub fn shutdown(mut self) -> Result<()> {
        let _ = self.call(Request::Shutdown)?;
        Ok(())
    }

    /// Scrape the server's metrics registry: one [`Request::Stats`]
    /// round trip returning the registry's JSON export.
    pub fn fetch_stats(&mut self) -> Result<String> {
        match self.call(Request::Stats)? {
            Response::Stats(json) => Ok(json),
            other => Err(unexpected(other)),
        }
    }

    fn call(&mut self, req: Request) -> Result<Response> {
        // Each call runs inside a trace: the caller's, or a fresh one
        // minted (and uninstalled again) for this round trip.
        let _trace = match obs::trace::current() {
            0 => Some(obs::trace::scope(obs::trace::mint())),
            _ => None,
        };
        let _span = obs::trace::span("client.call");
        let subject = crate::protocol::redirect_subject(&req);
        let resp = match self.policy.clone() {
            None => {
                self.scratch.clear();
                req.encode_into(&mut self.scratch);
                self.round_trip(None)
            }
            Some(policy) => self.call_with_retry(req, &policy),
        };
        match resp? {
            // A server-reported error is permanent (never retried).
            Response::Err(msg) => Err(HmError::Backend(format!("remote: {msg}"))),
            Response::Moved(to, epoch) => {
                // The node migrated away: remember where it went (newest
                // epoch wins) and surface the redirect as an error the
                // caller can act on via `moved_hint`.
                if let Some(o) = subject {
                    let slot = self.moved.entry(o).or_insert((to, epoch));
                    if epoch >= slot.1 {
                        *slot = (to, epoch);
                    }
                }
                Err(HmError::Backend(format!(
                    "remote: node moved to shard {to} (epoch {epoch})"
                )))
            }
            other => Ok(other),
        }
    }

    fn call_with_retry(&mut self, req: Request, policy: &RetryPolicy) -> Result<Response> {
        // Tag mutations so the server can deduplicate a retry whose
        // original was executed but whose response was lost. Reads are
        // naturally idempotent and go untagged.
        let req = if is_mutation(&req) {
            let id = self.next_request_id;
            self.next_request_id += 1;
            Request::Tagged(id, Box::new(req))
        } else {
            req
        };
        self.scratch.clear();
        req.encode_into(&mut self.scratch);
        let mut retry = 0u32;
        loop {
            match self.round_trip(Some(policy.request_timeout)) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    if retry >= policy.max_retries {
                        self.gave_up += 1;
                        obs::incr("client.gave_up", 1);
                        return Err(e);
                    }
                    retry += 1;
                    self.retries += 1;
                    obs::incr("client.retries", 1);
                    std::thread::sleep(policy.backoff(retry - 1));
                    if let Some(factory) = &mut self.reconnect {
                        // Swap in a fresh connection; if that fails too,
                        // keep the old one and let the next attempt's
                        // timeout decide.
                        if let Ok(t) = factory() {
                            self.transport = t;
                        }
                    }
                }
            }
        }
    }

    /// Send the request held in `self.scratch`, receive one frame
    /// (waiting at most `timeout`, if given) and decode it — the one
    /// place a request crosses the wire. Any `Err` is a transport-level
    /// failure (send error, deadline expiry, lost connection, garbled
    /// frame) and thus a candidate for retry; what the server answered,
    /// including [`Response::Err`], is `Ok`.
    fn round_trip(&mut self, timeout: Option<std::time::Duration>) -> Result<Response> {
        self.transport.send(&self.scratch)?;
        self.round_trips += 1;
        obs::incr("client.round_trips", 1);
        if !self.transport.recv_into(&mut self.rframe, timeout)? {
            // Under a retry policy a close is transient: the next
            // attempt reconnects.
            return Err(match timeout {
                Some(_) => HmError::Timeout("connection closed mid-request".into()),
                None => HmError::Backend("server disconnected".into()),
            });
        }
        Response::decode(&self.rframe)
    }

    fn expect_oid(&mut self, req: Request) -> Result<Oid> {
        match self.call(req)? {
            Response::Oid(o) => Ok(o),
            other => Err(unexpected(other)),
        }
    }

    fn expect_oids(&mut self, req: Request) -> Result<Vec<Oid>> {
        match self.call(req)? {
            Response::Oids(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    fn expect_u32(&mut self, req: Request) -> Result<u32> {
        match self.call(req)? {
            Response::U32(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    fn expect_u64(&mut self, req: Request) -> Result<u64> {
        match self.call(req)? {
            Response::U64(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    fn expect_unit(&mut self, req: Request) -> Result<()> {
        match self.call(req)? {
            Response::Unit => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    fn expect_edges(&mut self, req: Request) -> Result<Vec<RefEdge>> {
        match self.call(req)? {
            Response::Edges(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    /// Client-side pre-order traversal over a relationship accessor.
    fn client_side_preorder<F>(&mut self, start: Oid, mut next: F) -> Result<Vec<Oid>>
    where
        F: FnMut(&mut Self, Oid) -> Result<Vec<Oid>>,
    {
        let mut out = Vec::new();
        let mut stack = vec![start];
        while let Some(oid) = stack.pop() {
            out.push(oid);
            let succ = next(self, oid)?;
            for &s in succ.iter().rev() {
                stack.push(s);
            }
        }
        Ok(out)
    }
}

fn unexpected(resp: Response) -> HmError {
    HmError::Backend(format!("unexpected response {resp:?}"))
}

/// True when a blind re-execution of `req` could change state twice.
fn is_mutation(req: &Request) -> bool {
    matches!(
        req,
        Request::SetHundred(..)
            | Request::SetText(..)
            | Request::SetForm(..)
            | Request::CreateNode(_)
            | Request::CreateNodeClustered(..)
            | Request::AddChild(..)
            | Request::AddPart(..)
            | Request::AddRef(..)
            | Request::InsertExtraNode(_)
            | Request::Commit
            | Request::ColdRestart
            | Request::SetHundredBatch(_)
            | Request::Closure1NAttSet(_)
            | Request::TextNodeEdit(..)
            | Request::FormNodeEdit(..)
            | Request::PrepareCommit(_)
            | Request::CommitPrepared(_)
            | Request::AbortPrepared(_)
            | Request::InstallSubtree(_)
            | Request::InstallNodes(_)
            | Request::ActivateNodes(_)
            | Request::RetireNodes(..)
    )
}

impl HyperStore for RemoteStore {
    fn lookup_unique(&mut self, unique_id: u64) -> Result<Oid> {
        self.expect_oid(Request::LookupUnique(unique_id))
    }

    fn unique_id_of(&mut self, oid: Oid) -> Result<u64> {
        self.expect_u64(Request::UniqueIdOf(oid))
    }

    fn kind_of(&mut self, oid: Oid) -> Result<NodeKind> {
        match self.call(Request::KindOf(oid))? {
            Response::U16(k) => Ok(NodeKind(k)),
            other => Err(unexpected(other)),
        }
    }

    fn ten_of(&mut self, oid: Oid) -> Result<u32> {
        self.expect_u32(Request::TenOf(oid))
    }

    fn hundred_of(&mut self, oid: Oid) -> Result<u32> {
        self.expect_u32(Request::HundredOf(oid))
    }

    fn million_of(&mut self, oid: Oid) -> Result<u32> {
        self.expect_u32(Request::MillionOf(oid))
    }

    fn set_hundred(&mut self, oid: Oid, value: u32) -> Result<()> {
        self.expect_unit(Request::SetHundred(oid, value))
    }

    fn range_hundred(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>> {
        self.expect_oids(Request::RangeHundred(lo, hi))
    }

    fn range_million(&mut self, lo: u32, hi: u32) -> Result<Vec<Oid>> {
        self.expect_oids(Request::RangeMillion(lo, hi))
    }

    fn children(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        self.expect_oids(Request::Children(oid))
    }

    fn parent(&mut self, oid: Oid) -> Result<Option<Oid>> {
        match self.call(Request::Parent(oid))? {
            Response::OptOid(o) => Ok(o),
            other => Err(unexpected(other)),
        }
    }

    fn parts(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        self.expect_oids(Request::Parts(oid))
    }

    fn part_of(&mut self, oid: Oid) -> Result<Vec<Oid>> {
        self.expect_oids(Request::PartOf(oid))
    }

    fn refs_to(&mut self, oid: Oid) -> Result<Vec<RefEdge>> {
        self.expect_edges(Request::RefsTo(oid))
    }

    fn refs_from(&mut self, oid: Oid) -> Result<Vec<RefEdge>> {
        self.expect_edges(Request::RefsFrom(oid))
    }

    fn seq_scan_ten(&mut self) -> Result<u64> {
        self.expect_u64(Request::SeqScanTen)
    }

    fn text_of(&mut self, oid: Oid) -> Result<String> {
        match self.call(Request::TextOf(oid))? {
            Response::Text(s) => Ok(s),
            other => Err(unexpected(other)),
        }
    }

    fn set_text(&mut self, oid: Oid, text: &str) -> Result<()> {
        self.expect_unit(Request::SetText(oid, text.to_string()))
    }

    fn form_of(&mut self, oid: Oid) -> Result<Bitmap> {
        match self.call(Request::FormOf(oid))? {
            Response::Form(bm) => Ok(bm),
            other => Err(unexpected(other)),
        }
    }

    fn set_form(&mut self, oid: Oid, bitmap: &Bitmap) -> Result<()> {
        self.expect_unit(Request::SetForm(oid, bitmap.clone()))
    }

    fn create_node(&mut self, value: &NodeValue) -> Result<Oid> {
        self.expect_oid(Request::CreateNode(value.clone()))
    }

    fn create_node_clustered(&mut self, value: &NodeValue, near: Option<Oid>) -> Result<Oid> {
        self.expect_oid(Request::CreateNodeClustered(value.clone(), near))
    }

    fn add_child(&mut self, parent: Oid, child: Oid) -> Result<()> {
        self.expect_unit(Request::AddChild(parent, child))
    }

    fn add_part(&mut self, owner: Oid, part: Oid) -> Result<()> {
        self.expect_unit(Request::AddPart(owner, part))
    }

    fn add_ref(&mut self, from: Oid, to: Oid, offset_from: u8, offset_to: u8) -> Result<()> {
        self.expect_unit(Request::AddRef(from, to, offset_from, offset_to))
    }

    fn insert_extra_node(&mut self, value: &NodeValue) -> Result<Oid> {
        self.expect_oid(Request::InsertExtraNode(value.clone()))
    }

    fn commit(&mut self) -> Result<()> {
        self.expect_unit(Request::Commit)
    }

    fn cold_restart(&mut self) -> Result<()> {
        self.expect_unit(Request::ColdRestart)
    }

    fn prepare_commit(&mut self, txid: u64) -> Result<()> {
        self.expect_unit(Request::PrepareCommit(txid))
    }

    fn commit_prepared(&mut self, txid: u64) -> Result<()> {
        self.expect_unit(Request::CommitPrepared(txid))
    }

    fn abort_prepared(&mut self, txid: u64) -> Result<()> {
        self.expect_unit(Request::AbortPrepared(txid))
    }

    fn backend_name(&self) -> &'static str {
        match self.mode {
            ClosureMode::ClientSide => "remote-naive",
            ClosureMode::ServerSide => "remote",
        }
    }

    fn resilience_summary(&self) -> Option<String> {
        self.policy.as_ref().map(|p| {
            format!(
                "retries={} gave-up={} (timeout {:?}, max {} retries)",
                self.retries, self.gave_up, p.request_timeout, p.max_retries
            )
        })
    }

    // ---- batched primitives: always one round trip --------------------
    //
    // Batch calls carry a whole traversal frontier, so shipping them as a
    // single message is the point regardless of the closure mode.

    fn children_batch(&mut self, oids: &[Oid]) -> Result<Vec<Vec<Oid>>> {
        match self.call(Request::ChildrenBatch(oids.to_vec()))? {
            Response::OidLists(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    fn parts_batch(&mut self, oids: &[Oid]) -> Result<Vec<Vec<Oid>>> {
        match self.call(Request::PartsBatch(oids.to_vec()))? {
            Response::OidLists(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    fn refs_to_batch(&mut self, oids: &[Oid]) -> Result<Vec<Vec<RefEdge>>> {
        match self.call(Request::RefsToBatch(oids.to_vec()))? {
            Response::EdgeLists(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    fn hundred_batch(&mut self, oids: &[Oid]) -> Result<Vec<u32>> {
        match self.call(Request::HundredBatch(oids.to_vec()))? {
            Response::U32s(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    fn million_batch(&mut self, oids: &[Oid]) -> Result<Vec<u32>> {
        match self.call(Request::MillionBatch(oids.to_vec()))? {
            Response::U32s(v) => Ok(v),
            other => Err(unexpected(other)),
        }
    }

    fn set_hundred_batch(&mut self, updates: &[(Oid, u32)]) -> Result<()> {
        self.expect_unit(Request::SetHundredBatch(updates.to_vec()))
    }

    // ---- conceptual operations: mode-dependent ------------------------

    fn closure_1n(&mut self, start: Oid) -> Result<Vec<Oid>> {
        match self.mode {
            ClosureMode::ServerSide => self.expect_oids(Request::Closure1N(start)),
            ClosureMode::ClientSide => self.client_side_preorder(start, |s, o| s.children(o)),
        }
    }

    fn closure_1n_att_sum(&mut self, start: Oid) -> Result<(u64, usize)> {
        match self.mode {
            ClosureMode::ServerSide => match self.call(Request::Closure1NAttSum(start))? {
                Response::SumCount(s, c) => Ok((s, c as usize)),
                other => Err(unexpected(other)),
            },
            ClosureMode::ClientSide => {
                let closure = self.closure_1n(start)?;
                let mut sum = 0u64;
                for &o in &closure {
                    sum += self.hundred_of(o)? as u64;
                }
                Ok((sum, closure.len()))
            }
        }
    }

    fn closure_1n_att_set(&mut self, start: Oid) -> Result<usize> {
        match self.mode {
            ClosureMode::ServerSide => {
                Ok(self.expect_u64(Request::Closure1NAttSet(start))? as usize)
            }
            ClosureMode::ClientSide => {
                let closure = self.closure_1n(start)?;
                for &o in &closure {
                    let current = self.hundred_of(o)?;
                    self.set_hundred(o, 99u32.wrapping_sub(current))?;
                }
                Ok(closure.len())
            }
        }
    }

    fn closure_1n_pred(&mut self, start: Oid, lo: u32, hi: u32) -> Result<Vec<Oid>> {
        match self.mode {
            ClosureMode::ServerSide => self.expect_oids(Request::Closure1NPred(start, lo, hi)),
            ClosureMode::ClientSide => {
                let mut out = Vec::new();
                let mut stack = vec![start];
                while let Some(oid) = stack.pop() {
                    let m = self.million_of(oid)?;
                    if (lo..=hi).contains(&m) {
                        continue;
                    }
                    out.push(oid);
                    let kids = self.children(oid)?;
                    for &k in kids.iter().rev() {
                        stack.push(k);
                    }
                }
                Ok(out)
            }
        }
    }

    fn closure_mn(&mut self, start: Oid) -> Result<Vec<Oid>> {
        match self.mode {
            ClosureMode::ServerSide => self.expect_oids(Request::ClosureMN(start)),
            ClosureMode::ClientSide => self.client_side_preorder(start, |s, o| s.parts(o)),
        }
    }

    fn closure_mnatt(&mut self, start: Oid, depth: u32) -> Result<Vec<Oid>> {
        match self.mode {
            ClosureMode::ServerSide => self.expect_oids(Request::ClosureMNAtt(start, depth)),
            ClosureMode::ClientSide => {
                let mut out = Vec::new();
                let mut stack = vec![(start, depth)];
                while let Some((oid, d)) = stack.pop() {
                    if d == 0 {
                        continue;
                    }
                    let edges = self.refs_to(oid)?;
                    for e in edges.iter().rev() {
                        out.push(e.target);
                        stack.push((e.target, d - 1));
                    }
                }
                Ok(out)
            }
        }
    }

    fn closure_mnatt_linksum(&mut self, start: Oid, depth: u32) -> Result<Vec<(Oid, u64)>> {
        match self.mode {
            ClosureMode::ServerSide => {
                match self.call(Request::ClosureMNAttLinkSum(start, depth))? {
                    Response::Pairs(v) => Ok(v),
                    other => Err(unexpected(other)),
                }
            }
            ClosureMode::ClientSide => {
                let mut out = Vec::new();
                let mut stack = vec![(start, depth, 0u64)];
                while let Some((oid, d, dist)) = stack.pop() {
                    if d == 0 {
                        continue;
                    }
                    let edges = self.refs_to(oid)?;
                    for e in edges.iter().rev() {
                        let total = dist + e.offset_to as u64;
                        out.push((e.target, total));
                        stack.push((e.target, d - 1, total));
                    }
                }
                Ok(out)
            }
        }
    }

    fn text_node_edit(&mut self, oid: Oid, from: &str, to: &str) -> Result<usize> {
        match self.mode {
            ClosureMode::ServerSide => Ok(self.expect_u64(Request::TextNodeEdit(
                oid,
                from.to_string(),
                to.to_string(),
            ))? as usize),
            ClosureMode::ClientSide => {
                // Fetch, edit on the workstation, store back.
                if self.kind_of(oid)? != NodeKind::TEXT {
                    return Err(HmError::WrongKind {
                        oid,
                        expected: "TextNode",
                    });
                }
                let current = self.text_of(oid)?;
                let (edited, n) = hypermodel::text::substitute(&current, from, to);
                self.set_text(oid, &edited)?;
                Ok(n)
            }
        }
    }

    fn form_node_edit(&mut self, oid: Oid, x0: u16, y0: u16, x1: u16, y1: u16) -> Result<()> {
        match self.mode {
            ClosureMode::ServerSide => self.expect_unit(Request::FormNodeEdit(oid, x0, y0, x1, y1)),
            ClosureMode::ClientSide => {
                if self.kind_of(oid)? != NodeKind::FORM {
                    return Err(HmError::WrongKind {
                        oid,
                        expected: "FormNode",
                    });
                }
                let mut bm = self.form_of(oid)?;
                bm.invert_rect(x0, y0, x1, y1);
                self.set_form(oid, &bm)
            }
        }
    }

    fn sync_export(&mut self) -> Result<Vec<u8>> {
        match self.call(Request::SyncSubtree)? {
            Response::Subtree(b) => Ok(b),
            other => Err(unexpected(other)),
        }
    }

    fn sync_import(&mut self, snapshot: &[u8]) -> Result<()> {
        self.expect_unit(Request::InstallSubtree(snapshot.to_vec()))
    }

    // ---- online migration: the remote server is a migration endpoint --

    fn export_nodes(&mut self, oids: &[Oid]) -> Result<Vec<hypermodel::migrate::NodeExport>> {
        match self.call(Request::ExportNodes(oids.to_vec()))? {
            Response::Subtree(b) => hypermodel::migrate::decode_batch(&b),
            other => Err(unexpected(other)),
        }
    }

    fn install_nodes(&mut self, batch: &[hypermodel::migrate::NodeExport]) -> Result<Vec<Oid>> {
        let bytes = hypermodel::migrate::encode_batch(batch);
        self.expect_oids(Request::InstallNodes(bytes))
    }

    fn activate_nodes(&mut self, oids: &[Oid]) -> Result<()> {
        self.expect_unit(Request::ActivateNodes(oids.to_vec()))
    }

    fn retire_nodes(&mut self, oids: &[Oid], moved_to: u16, epoch: u64) -> Result<()> {
        self.expect_unit(Request::RetireNodes(oids.to_vec(), moved_to, epoch))
    }

    /// Placement hints learned from [`Response::Moved`] redirects on
    /// earlier calls; no extra round trip is made here.
    fn moved_hint(&mut self, oid: Oid) -> Option<(u16, u64)> {
        self.moved.get(&oid).copied()
    }
}

impl std::fmt::Debug for RemoteStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteStore")
            .field("mode", &self.mode)
            .field("round_trips", &self.round_trips)
            .field("policy", &self.policy)
            .field("retries", &self.retries)
            .field("gave_up", &self.gave_up)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::serve;
    use crate::transport::ChannelTransport;
    use hypermodel::config::GenConfig;
    use hypermodel::generate::TestDatabase;
    use hypermodel::load::load_database;
    use mem_backend::MemStore;
    use std::time::Duration;

    /// A transport that silently loses every `n`-th outgoing frame, as a
    /// lossy network would: the send "succeeds" but nothing arrives.
    struct DropEveryNth {
        inner: ChannelTransport,
        n: u64,
        sent: u64,
    }

    impl Transport for DropEveryNth {
        fn send(&mut self, frame: &[u8]) -> Result<()> {
            self.sent += 1;
            if self.sent.is_multiple_of(self.n) {
                return Ok(()); // lost in flight
            }
            self.inner.send(frame)
        }
        fn recv_into(&mut self, out: &mut Vec<u8>, timeout: Option<Duration>) -> Result<bool> {
            self.inner.recv_into(out, timeout)
        }
    }

    #[test]
    fn retry_policy_survives_lost_requests() {
        let db = TestDatabase::generate(&GenConfig::tiny());
        let mut store = MemStore::new();
        let report = load_database(&mut store, &db).unwrap();
        let target = report.oids[3];
        let (client_end, mut server_end) = ChannelTransport::pair(Duration::ZERO);
        let handle = std::thread::spawn(move || serve(&mut store, &mut server_end).unwrap());

        let lossy = DropEveryNth {
            inner: client_end,
            n: 3,
            sent: 0,
        };
        let mut remote =
            RemoteStore::new(Box::new(lossy), ClosureMode::ServerSide).with_retry(RetryPolicy {
                request_timeout: Duration::from_millis(50),
                max_retries: 5,
                backoff_base: Duration::from_millis(1),
                backoff_max: Duration::from_millis(5),
            });

        // A mix of reads and (tagged) mutations, each of which must come
        // back correct despite every third frame vanishing.
        let before = remote.hundred_of(target).unwrap();
        remote.set_hundred(target, before + 7).unwrap();
        assert_eq!(remote.hundred_of(target).unwrap(), before + 7);
        remote.set_hundred(target, before).unwrap();
        assert_eq!(remote.hundred_of(target).unwrap(), before);
        assert_eq!(remote.lookup_unique(1).unwrap(), report.oids[0]);

        assert!(remote.retries() > 0, "losses must have forced retries");
        assert_eq!(remote.gave_up(), 0);
        remote.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn moved_redirects_surface_and_teach_the_client_placement() {
        let db = TestDatabase::generate(&GenConfig::tiny());
        let mut store = MemStore::new();
        let report = load_database(&mut store, &db).unwrap();
        // Retire a node exactly as a finished migration would: the
        // server then answers direct requests about it with a redirect.
        let gone = *report.oids.last().unwrap();
        store.retire_nodes(&[gone], 2, 9).unwrap();
        let (client_end, mut server_end) = ChannelTransport::pair(Duration::ZERO);
        let handle = std::thread::spawn(move || serve(&mut store, &mut server_end).unwrap());
        let mut remote = RemoteStore::new(Box::new(client_end), ClosureMode::ServerSide);

        assert_eq!(remote.moved_hint(gone), None);
        let err = remote.hundred_of(gone).unwrap_err();
        assert!(err.to_string().contains("moved to shard 2"), "{err}");
        // The redirect taught the client the new placement and epoch.
        assert_eq!(remote.moved_hint(gone), Some((2, 9)));
        // Nodes that never moved are served normally.
        assert!(remote.hundred_of(report.oids[0]).is_ok());
        remote.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn server_error_is_not_retried() {
        let mut store = MemStore::new();
        let (client_end, mut server_end) = ChannelTransport::pair(Duration::ZERO);
        let handle = std::thread::spawn(move || serve(&mut store, &mut server_end).unwrap());
        let mut remote = RemoteStore::new(Box::new(client_end), ClosureMode::ServerSide)
            .with_retry(RetryPolicy::default());
        // Unknown oid: the server answers with an error; the client must
        // surface it immediately instead of retrying a permanent failure.
        let err = remote
            .hundred_of(hypermodel::model::Oid(424242))
            .unwrap_err();
        assert!(!err.is_transient());
        assert_eq!(remote.retries(), 0);
        remote.shutdown().unwrap();
        handle.join().unwrap();
    }
}
