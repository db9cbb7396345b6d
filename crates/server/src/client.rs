//! The remote client: a full [`HyperStore`] over a [`Transport`].
//!
//! [`RemoteStore`] is the "workstation" half of the paper's R6
//! architecture. Every method is **one round trip**: a conceptual
//! operation (`remote.closure_1n(start)`) is shipped to the server whole
//! ("some systems support higher level conceptual operations more
//! efficiently"). The §4 trade-off's other side, the naive navigational
//! interface, is the same traversal run on the workstation —
//! `hypermodel::store::closure_1n(&mut remote, start)` — which pays **one
//! round trip per relationship access**.
//!
//! The difference dominates as soon as any real latency exists — shown by
//! `tests/remote_conformance.rs` and the `remote` harness experiment.

use hypermodel::error::{HmError, Result};
use hypermodel::model::{NodeKind, NodeValue, Oid, RefEdge};
use hypermodel::store::HyperStore;
use hypermodel::{BatchWrite, Bitmap, NodeExport};

use crate::protocol::{unexpected, Reply, Request, Response};
use crate::transport::Transport;

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

/// A `HyperStore` backed by a remote server.
pub struct RemoteStore {
    transport: Box<dyn Transport>,
    round_trips: u64,
    policy: Option<RetryPolicy>,
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
    /// Connect over `transport`.
    pub fn new(transport: Box<dyn Transport>) -> RemoteStore {
        RemoteStore {
            transport,
            round_trips: 0,
            policy: None,
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
        let req = if req.mutates() {
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
            // Under a retry policy a close is transient: the policy
            // resends on the same transport until its budget runs out.
            return Err(match timeout {
                Some(_) => HmError::Timeout("connection closed mid-request".into()),
                None => HmError::Backend("server disconnected".into()),
            });
        }
        Response::decode(&self.rframe)
    }

    /// One round trip: send `req`, read the answer as the type the
    /// calling method returns.
    fn rpc<T: Reply>(&mut self, req: Request) -> Result<T> {
        T::from_response(self.call(req)?)
    }
}

/// One method per catalogue row, each a single round trip.
macro_rules! remote_methods {
    ($(
        $class:ident $tag:literal $variant:ident
        fn $name:ident $(( $($arg:ident: [$($ty:tt)+]),+ ))? -> $ret:ty $(, about $subject:ident)?;
    )*) => {$(
        fn $name(&mut self $($(, $arg: $($ty)+)+)?) -> Result<$ret> {
            self.rpc(Request::$variant $(( $(hypermodel::own!($arg: $($ty)+)),+ ))?)
        }
    )*};
}

impl HyperStore for RemoteStore {
    hypermodel::store_ops!(remote_methods);

    fn backend_name(&self) -> &'static str {
        "remote"
    }

    fn resilience_summary(&self) -> Option<String> {
        self.policy.as_ref().map(|p| {
            format!(
                "retries={} gave-up={} (timeout {:?}, max {} retries)",
                self.retries, self.gave_up, p.request_timeout, p.max_retries
            )
        })
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
        let mut remote = RemoteStore::new(Box::new(lossy)).with_retry(RetryPolicy {
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
        let mut remote = RemoteStore::new(Box::new(client_end));

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
        let mut remote = RemoteStore::new(Box::new(client_end)).with_retry(RetryPolicy::default());
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
