//! # aequus-rms
//!
//! Local resource-manager substrate: the system Aequus integrates *into*
//! (§III). The paper integrates two — SLURM through priority and
//! job-completion plug-ins, Maui through patched call sites — and both
//! reduce to the same three `libaequus` calls, so one
//! [`scheduler::SchedulerCore`] serves both; they differ only in *when*
//! priorities are recomputed ([`scheduler::ReprioritizePolicy`]: SLURM's
//! periodic `PriorityCalcPeriod` vs. Maui's every scheduling iteration).
//!
//! The scheduler prioritizes with a [`multifactor`] linear combination of
//! `[0, 1]` factors (fairshare, age, QoS, size) and dispatches onto a
//! virtual [`nodes::NodePool`] in a [`dispatch::DispatchOrder`] (FIFO,
//! EASY, Conservative, or SAF backfill) fed by the [`predict`] runtime
//! estimators. The fairshare factor itself comes through the
//! [`plugin::FairshareSource`] seam, queried by interned user id — either
//! the full Aequus stack (global fairshare) or the classic
//! [`plugin::LocalFairshare`] baseline it replaces.
//!
//! A cycle costs what can start, not what is queued: jobs wait in
//! per-(user, width) FIFO lanes, a sweep asks the source once per user, and
//! a dispatch order pulls the lane heads through a [`dispatch::QueueWalk`].

#![warn(missing_docs)]

pub mod dispatch;
pub mod job;
pub mod multifactor;
pub mod nodes;
pub mod plugin;
pub mod predict;
pub mod scheduler;

pub use dispatch::{
    Admission, DispatchConfig, DispatchOrder, DispatchPlan, PlannedStart, QueueWalk, QueuedJob,
    RunningSlice, SliceWalk,
};
pub use job::{Job, JobState};
pub use multifactor::{
    explain_combined, FactorConfig, FactorTerm, PriorityBreakdown, PriorityWeights,
};
pub use nodes::NodePool;
pub use plugin::{FairshareSource, LocalFairshare};
pub use predict::{MispredictPolicy, PredictionStats, PredictorKind, RuntimePredictor};
pub use scheduler::{ReprioritizePolicy, SchedulerCore, SchedulerStats, SLOWDOWN_TAU_S};
