//! The Felix reproduction's performance ledger: four workloads, end-to-end
//! and per-layer metrics, a traced run, and `compare`. Everything is
//! measured from outside, through the crates' public functions; see
//! `README.md` beside this crate for the tables and how to read them.

pub mod compare;
pub mod gen;
pub mod harness;
pub mod probes;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
