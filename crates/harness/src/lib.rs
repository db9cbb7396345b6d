//! # `harness` — the HyperModel measurement protocol
//!
//! Implements §6's run protocol exactly:
//!
//! > (a) pick 50 random inputs, (b) run the operation 50 times — the
//! > *cold* run, (c) commit, (d) repeat with the *same* 50 inputs — the
//! > *warm* run, (e) close the database so caching does not leak into the
//! > next operation sequence.
//!
//! plus the §5.3 creation measurements, the §6.8 extension operations, the
//! §7 multi-user experiment, and the §4 simple-operations baseline. The
//! [`backend`] module names and builds every store composition a run can
//! target, the [`report`] module renders the paper-style tables, and the
//! `hyperbench` binary drives everything.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod input;
pub mod multiuser;
pub mod protocol;
pub mod report;
pub mod skew;

pub use input::{OpInput, Workload};
pub use protocol::{run_all_ops, run_op, OpMeasurement, PhaseStats, RunOptions};
pub use skew::rebalance_pass;
