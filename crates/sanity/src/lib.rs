//! Correctness tooling for the sharded HyperStore.
//!
//! Three parts, all free of external dependencies:
//!
//! * [`sync`] — drop-in `Mutex` / `RwLock` / `Condvar` / `mpsc` shims.
//!   By default they are zero-cost re-exports of `parking_lot` / `std`;
//!   compiled with `RUSTFLAGS="--cfg sanity_check"` every acquisition is
//!   recorded into a per-thread lock stack plus a global lock-order
//!   graph.
//! * [`order`] — the runtime detector those shims feed. It reports three
//!   hazard classes with both source sites: lock-order cycles (potential
//!   ABBA deadlocks), channel sends performed while a lock is held, and
//!   blocking receives (condvar waits included) while a lock is held.
//! * [`dsched`] — a deterministic, preemption-bounded scheduler for
//!   model tests: run a small concurrent model under *every* (bounded)
//!   interleaving, or under a seeded random sample, and assert
//!   invariants at each one. Used by the executor-dispatch and 2PC
//!   model tests.
//!
//! Source rules (no raw `std::sync` locks or channels outside the shims,
//! no `unwrap`/`expect`/`panic!` on request paths) are not checked here:
//! the root `clippy.toml` and each library crate's `#![deny(clippy::…)]`
//! hold them, so `cargo clippy` enforces them after macro expansion.

pub mod dsched;
pub mod order;
pub mod sync;
