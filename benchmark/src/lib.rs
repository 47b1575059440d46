//! `fdbench` — the repository's benchmark.
//!
//! Five workloads drive the client → server → store → tap → attack path
//! through public functions only, in one process, as a closed loop. A run
//! prints every metric by name and ends with a one-line JSON result; a traced
//! run adds per-layer numbers and a span trace that `fdbench report`
//! attributes to layers; `fdbench compare` judges two result sets against the
//! bounds of `BENCHMARK.json`. See `README.md` beside this crate.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod compare;
pub mod golden;
pub mod json;
pub mod micro;
pub mod report;
pub mod round;
pub mod run;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod sys;
pub mod workloads;
