//! # `chaos` — seeded fault injection for robustness testing
//!
//! The benchmark's distributed pieces (the remote client, the sharded
//! store, two-phase commit) only earn their keep if they survive the
//! failures they claim to handle. This crate supplies the failures, on
//! a **reproducible schedule**:
//!
//! * [`FaultPlan`] — a named, seeded fault configuration, parseable
//!   from `seed:plan` strings (`hyperbench --faults 42:flaky`);
//! * [`FaultyTransport`] — wraps any [`server::transport::Transport`]
//!   and drops, duplicates, delays frames or tears the connection down
//!   mid-write, per the plan's rates;
//! * [`ChaosStore`] — wraps any [`hypermodel::store::HyperStore`] as a
//!   [`hypermodel::Service`] and kills it (destructors skipped, as in a
//!   process crash) before or after a chosen commit, between prepare and
//!   decision, or between a migration's install and activate.
//!
//! Everything is driven by [`hypermodel::rng::Rng`] (SplitMix64) from
//! the plan's seed: the same `seed:plan` injects the same faults at the
//! same points, so chaos-found failures replay deterministically.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod plan;
pub mod store;
pub mod transport;

pub use plan::{CrashPoint, CrashSpec, FaultPlan};
pub use store::ChaosStore;
pub use transport::{FaultCounters, FaultyTransport};
