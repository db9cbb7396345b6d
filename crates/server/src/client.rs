//! The remote client: a [`Service`] over a [`Transport`], and so a full
//! `HyperStore`.
//!
//! [`RemoteStore`] is the "workstation" half of the paper's R6
//! architecture. Its `call` encodes the request it is given, so every
//! typed method — and every request a layer above forwards — is **one
//! round trip**: a conceptual operation (`remote.closure_1n(start)`) is
//! shipped to the server whole. The §4 trade-off's other side is the same
//! traversal run on the workstation,
//! `hypermodel::store::closure_1n(&mut remote, start)`, at **one round
//! trip per relationship access** (`tests/remote_conformance.rs`).

use hypermodel::error::{HmError, Result};
use hypermodel::protocol::unexpected;
use hypermodel::service::Service;

use crate::protocol::{Request, Response};
use crate::server::{put_seq, split_seq};
use crate::transport::Transport;

/// How a [`RemoteStore`] survives a lossy or slow transport.
///
/// Each request waits at most `request_timeout` for its response; a
/// timeout (or lost connection) is retried up to `max_retries` times
/// with bounded exponential backoff, on the same transport. A retry
/// resends the call's sequence number, so the server applies a retried
/// mutation **at most once** — the dangerous case is a mutation whose
/// *response* was lost after the server already executed it — and a
/// late answer to an earlier attempt still answers this call.
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
    /// The number of the call in flight (or of the last one): calls
    /// are numbered from 1, and a reply carrying another number is
    /// dropped.
    seq: u64,
    retries: u64,
    gave_up: u64,
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
            seq: 0,
            retries: 0,
            gave_up: 0,
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
        let _ = Service::call(&mut self, Request::Shutdown)?;
        Ok(())
    }

    /// Scrape the server's metrics registry: one [`Request::Stats`]
    /// round trip returning the registry's JSON export.
    pub fn fetch_stats(&mut self) -> Result<String> {
        match Service::call(self, Request::Stats)? {
            Response::Stats(json) => Ok(json),
            other => Err(unexpected(other)),
        }
    }

    /// Send the request held in `self.scratch`, then receive frames
    /// (for at most `timeout` in all, if given) until one carries this
    /// call's number, and decode it — the one place a request crosses
    /// the wire. A reply with another number (a duplicate, or the late
    /// answer to an earlier call) is dropped. Any `Err` is a
    /// transport-level failure (send error, deadline expiry, lost
    /// connection, garbled frame) and thus a candidate for retry; what
    /// the server answered, including [`Response::Err`], is `Ok`.
    fn round_trip(&mut self, timeout: Option<std::time::Duration>) -> Result<Response> {
        self.transport.send(&self.scratch)?;
        self.round_trips += 1;
        obs::incr("client.round_trips", 1);
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        loop {
            let wait = deadline.map(|d| d.saturating_duration_since(std::time::Instant::now()));
            if !self.transport.recv_into(&mut self.rframe, wait)? {
                // Under a retry policy a close is transient: the policy
                // resends on the same transport until its budget runs out.
                return Err(match timeout {
                    Some(_) => HmError::Timeout("connection closed mid-request".into()),
                    None => HmError::Backend("server disconnected".into()),
                });
            }
            let (seq, body) = split_seq(&self.rframe)?;
            if seq == self.seq {
                return Response::decode(body);
            }
        }
    }
}

/// A request is one round trip: encoded as it is, answered by the
/// server's store.
impl Service for RemoteStore {
    fn call(&mut self, req: Request) -> Result<Response> {
        // Each call runs inside a trace: the caller's, or a fresh one
        // minted (and uninstalled again) for this round trip.
        let _trace = match obs::trace::current() {
            0 => Some(obs::trace::scope(obs::trace::mint())),
            _ => None,
        };
        let _span = obs::trace::span("client.call");
        let policy = self.policy.clone();
        // Encoded once: every attempt resends the same number.
        self.seq += 1;
        self.scratch.clear();
        put_seq(&mut self.scratch, self.seq);
        req.encode_into(&mut self.scratch);
        let mut retry = 0u32;
        let resp = loop {
            let timeout = policy.as_ref().map(|p| p.request_timeout);
            match (self.round_trip(timeout), &policy) {
                (Ok(resp), _) => break resp,
                (Err(e), None) => return Err(e),
                (Err(e), Some(p)) if retry >= p.max_retries => {
                    self.gave_up += 1;
                    obs::incr("client.gave_up", 1);
                    return Err(e);
                }
                (Err(_), Some(p)) => {
                    retry += 1;
                    self.retries += 1;
                    obs::incr("client.retries", 1);
                    std::thread::sleep(p.backoff(retry - 1));
                }
            }
        };
        match resp {
            // A server-reported error is permanent (never retried).
            Response::Err(msg) => Err(HmError::Backend(format!("remote: {msg}"))),
            other => Ok(other),
        }
    }

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
    use hypermodel::store::HyperStore;
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
        let handle = std::thread::spawn(move || serve(store, &mut server_end).unwrap());

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

        // A mix of reads and mutations, each of which must come
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

    /// A server-side transport that sends every reply twice.
    struct EveryReplyTwice(ChannelTransport);

    impl Transport for EveryReplyTwice {
        fn send(&mut self, frame: &[u8]) -> Result<()> {
            self.0.send(frame)?;
            // The copy of the shutdown reply may find the client gone.
            let _ = self.0.send(frame);
            Ok(())
        }
        fn recv_into(&mut self, out: &mut Vec<u8>, timeout: Option<Duration>) -> Result<bool> {
            self.0.recv_into(out, timeout)
        }
    }

    /// A server-side transport that holds its first reply for `delay`.
    struct LateFirstReply {
        inner: ChannelTransport,
        delay: Option<Duration>,
    }

    impl Transport for LateFirstReply {
        fn send(&mut self, frame: &[u8]) -> Result<()> {
            if let Some(delay) = self.delay.take() {
                std::thread::sleep(delay);
            }
            self.inner.send(frame)
        }
        fn recv_into(&mut self, out: &mut Vec<u8>, timeout: Option<Duration>) -> Result<bool> {
            self.inner.recv_into(out, timeout)
        }
    }

    /// Serve a loaded tiny database over a channel whose server end
    /// `wrap` wraps; returns the client end, the server thread and an
    /// oid to edit.
    fn serve_tiny<T: Transport + 'static>(
        wrap: impl FnOnce(ChannelTransport) -> T,
    ) -> (
        ChannelTransport,
        std::thread::JoinHandle<crate::server::MultiStats>,
        hypermodel::model::Oid,
    ) {
        let db = TestDatabase::generate(&GenConfig::tiny());
        let mut store = MemStore::new();
        let target = load_database(&mut store, &db).unwrap().oids[3];
        let (client_end, server_end) = ChannelTransport::pair(Duration::ZERO);
        let mut server_end = wrap(server_end);
        let handle = std::thread::spawn(move || serve(store, &mut server_end).unwrap());
        (client_end, handle, target)
    }

    /// Four calls whose answers differ in kind, so a reply taken by the
    /// wrong call fails it: a mutation, then three reads.
    fn edit_then_read(remote: &mut RemoteStore, target: hypermodel::model::Oid) {
        remote.set_hundred(target, 1000).unwrap();
        assert_eq!(remote.hundred_of(target).unwrap(), 1000);
        let root = remote.lookup_unique(1).unwrap();
        assert_eq!(remote.closure_1n(root).unwrap().len(), 31);
    }

    #[test]
    fn each_call_takes_its_own_reply_when_every_reply_comes_twice() {
        let (client_end, handle, target) = serve_tiny(EveryReplyTwice);
        let mut remote = RemoteStore::new(Box::new(client_end));
        edit_then_read(&mut remote, target);
        edit_then_read(&mut remote, target);
        remote.shutdown().unwrap();
        let stats = handle.join().unwrap();
        assert_eq!(
            (stats.requests, stats.replayed),
            (8, 0),
            "each call ran once"
        );
    }

    #[test]
    fn a_reply_after_the_timeout_answers_its_own_call_and_the_mutation_runs_once() {
        let timeout = Duration::from_millis(50);
        // The first reply is the mutation's, held past its deadline: the
        // client resends, and the late original answers the call.
        let (client_end, handle, target) = serve_tiny(|inner| LateFirstReply {
            inner,
            delay: Some(timeout * 3),
        });
        let mut remote = RemoteStore::new(Box::new(client_end)).with_retry(RetryPolicy {
            request_timeout: timeout,
            max_retries: 20,
            backoff_base: Duration::from_millis(1),
            backoff_max: Duration::from_millis(1),
        });
        edit_then_read(&mut remote, target);
        let retries = remote.retries();
        assert!(retries > 0, "the late reply forced a retry");
        assert_eq!(remote.gave_up(), 0);
        remote.shutdown().unwrap();
        let stats = handle.join().unwrap();
        assert_eq!(stats.requests, 4, "the mutation ran once");
        assert_eq!(stats.replayed, retries, "each resend was replayed");
    }

    #[test]
    fn server_error_is_not_retried() {
        let (client_end, mut server_end) = ChannelTransport::pair(Duration::ZERO);
        let handle = std::thread::spawn(move || serve(MemStore::new(), &mut server_end).unwrap());
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
