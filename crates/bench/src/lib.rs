//! # aequus-bench
//!
//! The experiment harness reproducing every table and figure of the paper's
//! evaluation (§IV). One executable, `aequus-bench`, runs any entry of the
//! registry ([`exp::EXPERIMENTS`]) and prints the same rows/series the paper
//! reports:
//!
//! ```text
//! aequus-bench <experiment> [--check] [positionals]
//! aequus-bench list     # every experiment, its usage and artifact
//! aequus-bench check    # every CI gate in order, one gate table
//! ```
//!
//! The registry row of each experiment names the paper artifact it
//! reproduces — Tables I–III, Figs. 4–7 and 10–13, the §IV-A delay,
//! participation, bursty and throughput tests, the §IV production shape —
//! followed by the design-choice ablations, the sweeps past the paper's test
//! bed (reliability, crash recovery, engine scaling, gossip overlays,
//! backfill dispatch) and the CI gates; DESIGN.md §3 has the same listing
//! with each artifact's shape target.

#![warn(missing_docs)]

pub mod backfill;
pub mod cli;
pub mod exp;
pub mod experiments;
pub mod gossip;
pub mod report;
pub mod sweep;

pub use backfill::{
    bursty_mixed_trace, run_hotpath_bench, run_matrix, run_prediction_comparison,
    run_singlecore_equivalence, EquivalenceReport, HotPathReport, MatrixCell, PredictionReport,
};
pub use experiments::*;
pub use gossip::{run_gossip_sweep, GossipPoint, GossipSweep};
pub use sweep::{cycle_trace, parallel_sweep, uniform_trace, SWEEP_USERS};
