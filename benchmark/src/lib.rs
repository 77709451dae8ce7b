//! The PI2 repository benchmark: four workloads driven against the real
//! system, and a traced run that splits each workload's time across the
//! crates. See `NOTES.md` beside this package for why each workload
//! exists, what it loads and what it bypasses.

pub mod generate;
pub mod host;
pub mod openloop;
pub mod plan;
pub mod report;
pub mod serving;
pub mod setup;
pub mod stats;
pub mod stream;
