//! # aequus
//!
//! Facade crate re-exporting the full Aequus reproduction stack:
//!
//! * [`aequus_core`] — policies, usage, the fairshare algorithm, vectors,
//!   projections (the paper's contribution).
//! * [`aequus_services`] — the PDS/USS/UMS/FCS/IRS services and libaequus.
//! * [`aequus_rms`] — SLURM-like and Maui-like local resource managers.
//! * [`aequus_sim`] — the discrete-event grid simulator (test bed).
//! * [`aequus_workload`] — the Table II/III statistical models and
//!   synthetic trace generation.
//! * [`aequus_stats`] — the statistics substrate (18 distributions, BIC,
//!   KS, ACF).
//! * [`aequus_store`] — the durable per-site state store (CRC-framed WAL
//!   + checkpoints with crash-consistent replay).
//! * [`aequus_telemetry`] — metric registry, stage spans, and the
//!   empirical pipeline-delay tracer (see DESIGN.md, Observability).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![warn(missing_docs)]

pub use aequus_core as core;
pub use aequus_rms as rms;
pub use aequus_services as services;
pub use aequus_sim as sim;
pub use aequus_stats as stats;
pub use aequus_store as store;
pub use aequus_telemetry as telemetry;
pub use aequus_workload as workload;
