//! # `server` — the workstation/server architecture (requirement R6)
//!
//! "Typically, most engineering applications are intended for a
//! workstation environment. … There is a tradeoff between letting the
//! database do work remotely, and the need for having fast access to data
//! from an application on the workstation." (paper §3.2, R6/R7)
//!
//! This crate supplies the pieces to run the benchmark in exactly that
//! architecture:
//!
//! * [`protocol`] — the binary request/response protocol: every
//!   `HyperStore` primitive **and** conceptual operation as one message
//!   (re-exported from `hypermodel`, where it is also the in-process call
//!   boundary);
//! * [`transport`] — the two-method [`Transport`] trait and its framed
//!   implementations: in-process channels (with simulated one-way
//!   latency, for controlled experiments) and real TCP, which frames
//!   through `exec::frame` exactly as the event-loop server does;
//! * [`server`] — the sequence number every frame starts with, and the
//!   one frame handler every server runs (decode, the session messages,
//!   a retried mutation's replay, the store's `call` under panic
//!   isolation, encode), and [`serve`], a pump that drives it over any
//!   one transport — the server for simulated latency and server-side
//!   fault injection;
//! * [`multi`] — [`serve_multi`]: one process hosting N shard servers on
//!   N TCP ports on one thread: a single nonblocking event loop
//!   (`exec::EventLoop`) owns every connection and drives the same
//!   handler — no thread per connection;
//! * [`client`] — [`client::RemoteStore`], a `hypermodel::Service`: every
//!   `HyperStore` method, conceptual operations included, is one request.
//!
//! Running a traversal on the workstation instead
//! (`hypermodel::store::closure_1n(&mut remote, start)`, one round trip
//! per relationship access) quantifies the paper's §4 claim that systems
//! supporting "higher level conceptual operations" win on traversals —
//! with per-message latency λ, a level-3 `closure1N` costs ≈ 2·n·λ
//! navigationally but ≈ λ as one operation.
//!
//! ## Example
//!
//! ```
//! use hypermodel::config::GenConfig;
//! use hypermodel::generate::TestDatabase;
//! use hypermodel::load::load_database;
//! use hypermodel::store::HyperStore;
//! use server::client::RemoteStore;
//! use server::server::serve;
//! use server::transport::ChannelTransport;
//! use std::time::Duration;
//!
//! // Server side: a loaded in-memory store behind a channel.
//! let db = TestDatabase::generate(&GenConfig::tiny());
//! let mut store = mem_backend::MemStore::new();
//! let report = load_database(&mut store, &db).unwrap();
//! let (client_end, mut server_end) = ChannelTransport::pair(Duration::ZERO);
//! let server_thread = std::thread::spawn(move || serve(store, &mut server_end).unwrap());
//!
//! // Workstation side: the same HyperStore API, remotely.
//! let mut remote = RemoteStore::new(Box::new(client_end));
//! let root = report.oids[0];
//! assert_eq!(remote.closure_1n(root).unwrap().len(), db.len());
//! assert_eq!(remote.round_trips(), 1);
//! // The navigational client: the same traversal, one `children` call per node.
//! let walked = hypermodel::store::closure_1n(&mut remote, root).unwrap();
//! assert_eq!(remote.round_trips(), 1 + walked.len() as u64);
//! remote.shutdown().unwrap();
//! server_thread.join().unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

pub mod client;
pub mod multi;
pub mod server;
pub mod transport;

pub use hypermodel::protocol;

pub use client::RemoteStore;
pub use multi::{serve_multi, serve_multi_on, MultiServer};
pub use server::{put_seq, serve, split_seq, MultiStats};
pub use transport::{ChannelTransport, TcpTransport, Transport};
