//! # `hypermodel` — the HyperModel Benchmark core
//!
//! A faithful Rust implementation of the conceptual layer of *The
//! HyperModel Benchmark* (Berre, Anderson & Mallison, EDBT 1990 / OGC TR
//! CS/E-88-031):
//!
//! * [`model`] — the schema of Figure 1: `Node`/`TextNode`/`FormNode`,
//!   five integer attributes, three relationship types;
//! * [`config`] / [`generate`] — test-database generation per §5.2 and
//!   Figures 2–4, fully deterministic from a seed;
//! * [`ops`] — the 20-operation catalog of §6;
//! * [`store`] — the [`store::HyperStore`] trait every backend implements;
//!   closure and editing operations ship as default methods over the
//!   primitives; beside it the operation catalogue, `store_ops!`;
//! * [`protocol`] / [`service`] — one request per catalogue row, and the
//!   one call boundary every forwarding layer implements;
//! * [`load`] — database creation with the §5.3 per-phase timings;
//! * [`oracle`] — an independent reference implementation of every
//!   operation for correctness checking;
//! * [`schema`] / [`ext`] — the §6.8 extension operations (dynamic schema
//!   R4, versions R5, access control R11);
//! * [`codec`] — the one byte codec behind the node record, the schema
//!   catalogue, the wire protocol, migration batches and repair snapshots;
//! * [`rng`], [`text`], [`bitmap`] — deterministic generation primitives.
//!
//! ## Quick example
//!
//! ```
//! use hypermodel::config::GenConfig;
//! use hypermodel::generate::TestDatabase;
//! use hypermodel::oracle::Oracle;
//!
//! let db = TestDatabase::generate(&GenConfig::level(4));
//! assert_eq!(db.len(), 781); // paper §5.2
//! let oracle = Oracle::new(&db);
//! // A closure from a level-3 node reaches 6 nodes (paper §6.5).
//! let start = db.level_indices(3).start;
//! assert_eq!(oracle.closure_1n(start).len(), 6);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitmap;
pub mod codec;
pub mod config;
pub mod error;
pub mod ext;
pub mod generate;
pub mod load;
pub mod migrate;
pub mod model;
pub mod ops;
pub mod oracle;
pub mod protocol;
pub mod rng;
pub mod schema;
pub mod service;
pub mod store;
pub mod text;
pub mod verify;

pub use bitmap::Bitmap;
pub use config::{GenConfig, SizeEstimate};
pub use error::{HmError, Result};
pub use generate::TestDatabase;
pub use load::{load_database, CreationTimings, LoadReport};
pub use migrate::{NodeExport, MIGRATE_SLOT_BASE};
pub use model::{Content, NodeAttrs, NodeKind, NodeValue, Oid, RefEdge};
pub use ops::{InputKind, OpCategory, OpId};
pub use oracle::Oracle;
pub use rng::Rng;
pub use schema::Schema;
pub use service::Service;
pub use store::{BatchWrite, HyperStore, Reached, Rel, ShardLoad};
pub use verify::{verify_store, VerifyReport};
