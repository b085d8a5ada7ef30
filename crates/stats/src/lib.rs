//! # aequus-stats
//!
//! Statistical substrate for the Aequus reproduction: the machinery the
//! paper's workload-modeling section (§IV) relies on, implemented from
//! scratch.
//!
//! * 18 continuous distribution families with PDF/CDF/ICDF/sampling and
//!   per-family fitting ([`dist`]) — the candidate set searched when
//!   re-deriving Tables II and III. A family is read through its quantile
//!   and its likelihood; none reports its moments.
//! * Finite mixtures for the Eq. (1) four-phase composite model of U65.
//! * BIC model selection ([`select`]), Kolmogorov–Smirnov goodness-of-fit
//!   ([`ks`]), the Anderson–Darling statistic ([`gof`]), autocorrelation ([`acf`]), histograms ([`histogram`]),
//!   empirical CDFs ([`ecdf`]), medians and quantiles ([`summary`]),
//!   and range-rescaled ICDF sampling ([`truncated`]).
//!
//! Everything is deterministic given an RNG seed; no global state.

#![warn(missing_docs)]

pub mod acf;
pub mod dist;
pub mod distribution;
pub mod ecdf;
pub mod gof;
pub mod histogram;
pub mod ks;
pub mod optim;
pub mod select;
pub mod special;
pub mod summary;
pub mod truncated;

pub use distribution::{sample_n, ContinuousDistribution, Support};
pub use ecdf::Ecdf;
pub use histogram::Histogram;
pub use select::{select_best, FitResult};
pub use truncated::RangeRescaled;
