//! # aequus-sim
//!
//! Discrete-event simulation of the fully integrated Aequus deployment —
//! the in-silico counterpart of the paper's test bed (§IV-A): a submission
//! host dispatching synthetic workloads (stochastically or round-robin)
//! onto a fleet of simulated clusters, each running a SLURM- or Maui-like
//! RMS wired to its own Aequus installation, with USS↔USS usage exchange as
//! the only cross-site channel.
//!
//! * [`event`] — the deterministic time-ordered per-shard event queue.
//! * [`dispatch`] — stochastic / round-robin grid-level routing.
//! * [`cluster`] — one cluster: RMS + per-site Aequus stack.
//! * [`scenario`] — fleet/policy/delay configuration, including the paper's
//!   six-cluster national test bed and the HPC2N production shape.
//! * [`metrics`] — the figures' time series (per-user priority and usage
//!   share), utilization, throughput, and convergence detection.
//! * [`faults`] — message drops, site partitions, per-shard fault streams.
//! * [`shard`] — one independently steppable site (queue + stack + RNG).
//! * [`barrier`] — the epoch schedule and the scoped-thread worker pool.
//! * [`engine`] — the thin coordinator tying it together.

#![warn(missing_docs)]

pub mod barrier;
pub mod cluster;
pub mod dispatch;
pub mod engine;
pub mod event;
pub mod faults;
pub mod metrics;
pub mod scenario;
pub mod shard;

pub use dispatch::RoutingPolicy;
pub use engine::{GridSimulation, SimResult};
pub use event::{Event, EventQueue};
pub use faults::{FaultPlan, Outage};
pub use metrics::{MetricsLog, Sample, ShardSample, UserSample};
pub use scenario::{synthetic_users, ClusterSpec, GridScenario, RmsKind};
pub use shard::{Shard, ShardStats};
