//! The repo benchmark: four trace-replay workloads, eight end-to-end metrics,
//! and an outside-in per-layer span replay. See README.md.

#![warn(missing_docs)]

pub mod compare;
pub mod fields;
pub mod metrics;
pub mod outcome;
pub mod pass;
pub mod replay;
pub mod report;
pub mod spans;
pub mod stats;
pub mod steady;
pub mod workloads;
