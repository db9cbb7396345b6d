//! # `hyperperf` — the repository's benchmark
//!
//! Six named workloads, seven end-to-end metrics, and per-layer
//! attribution measured from outside the program: everything here calls
//! the workspace crates through their public surface and changes none of
//! them. `README.md` beside this crate has the tables; `BENCHMARK.json`
//! at the repository root has the contract.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod compare;
pub mod envinfo;
pub mod json;
pub mod layers;
pub mod measure;
pub mod runner;
pub mod spans;
pub mod stack;
pub mod stats;
pub mod workloads;
