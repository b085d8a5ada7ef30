//! The distribution zoo: the 18 continuous families used in the paper's
//! model-selection step (§IV-2: "modeling each data set using a set of 18
//! different distributions, and choosing the best fit based on the Bayesian
//! information criterion"), plus finite mixtures for the Eq. (1) composite.

pub mod bs;
pub mod exponential;
pub mod extreme;
pub mod heavy;
pub mod mixture;
pub mod normal;
pub mod uniform;

pub use bs::BirnbaumSaunders;
pub use exponential::{Exponential, Gamma, InverseGaussian, Nakagami, Rayleigh};
pub use extreme::{Gev, Gumbel, Weibull};
pub use heavy::{Burr, LogLogistic, Logistic, Pareto, TLocationScale};
pub use mixture::Mixture;
pub use normal::{HalfNormal, LogNormal, Normal};
pub use uniform::Uniform;

use crate::distribution::{ContinuousDistribution, Support};

/// A closed enum over every distribution family in the crate.
///
/// `AnyDist` lets fitted models be stored uniformly (e.g. in model-selection
/// results or mixture components) while remaining `Clone` and concrete —
/// no trait objects, no allocation per distribution.
#[derive(Debug, Clone)]
pub enum AnyDist {
    /// Normal (Gaussian).
    Normal(Normal),
    /// Half-normal.
    HalfNormal(HalfNormal),
    /// Log-normal.
    LogNormal(LogNormal),
    /// Exponential.
    Exponential(Exponential),
    /// Rayleigh.
    Rayleigh(Rayleigh),
    /// Gamma.
    Gamma(Gamma),
    /// Inverse Gaussian (Wald).
    InverseGaussian(InverseGaussian),
    /// Nakagami.
    Nakagami(Nakagami),
    /// Generalized Extreme Value.
    Gev(Gev),
    /// Gumbel (type-I extreme value).
    Gumbel(Gumbel),
    /// Weibull.
    Weibull(Weibull),
    /// Pareto type I.
    Pareto(Pareto),
    /// Burr type XII.
    Burr(Burr),
    /// Logistic.
    Logistic(Logistic),
    /// Log-logistic (Fisk).
    LogLogistic(LogLogistic),
    /// Student-t location-scale.
    TLocationScale(TLocationScale),
    /// Birnbaum–Saunders.
    BirnbaumSaunders(BirnbaumSaunders),
    /// Continuous uniform.
    Uniform(Uniform),
    /// Finite mixture of other distributions.
    Mixture(Box<Mixture>),
}

macro_rules! dispatch {
    ($self:expr, $d:ident => $body:expr) => {
        match $self {
            AnyDist::Normal($d) => $body,
            AnyDist::HalfNormal($d) => $body,
            AnyDist::LogNormal($d) => $body,
            AnyDist::Exponential($d) => $body,
            AnyDist::Rayleigh($d) => $body,
            AnyDist::Gamma($d) => $body,
            AnyDist::InverseGaussian($d) => $body,
            AnyDist::Nakagami($d) => $body,
            AnyDist::Gev($d) => $body,
            AnyDist::Gumbel($d) => $body,
            AnyDist::Weibull($d) => $body,
            AnyDist::Pareto($d) => $body,
            AnyDist::Burr($d) => $body,
            AnyDist::Logistic($d) => $body,
            AnyDist::LogLogistic($d) => $body,
            AnyDist::TLocationScale($d) => $body,
            AnyDist::BirnbaumSaunders($d) => $body,
            AnyDist::Uniform($d) => $body,
            AnyDist::Mixture($d) => $body,
        }
    };
}

impl ContinuousDistribution for AnyDist {
    fn name(&self) -> &'static str {
        dispatch!(self, d => d.name())
    }
    fn param_count(&self) -> usize {
        dispatch!(self, d => d.param_count())
    }
    fn params(&self) -> Vec<(&'static str, f64)> {
        dispatch!(self, d => d.params())
    }
    fn support(&self) -> Support {
        dispatch!(self, d => d.support())
    }
    fn pdf(&self, x: f64) -> f64 {
        dispatch!(self, d => d.pdf(x))
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        dispatch!(self, d => d.ln_pdf(x))
    }
    fn cdf(&self, x: f64) -> f64 {
        dispatch!(self, d => d.cdf(x))
    }
    fn icdf(&self, p: f64) -> f64 {
        dispatch!(self, d => d.icdf(p))
    }
}

macro_rules! any_from {
    ($($variant:ident : $ty:ty),* $(,)?) => {
        $(impl From<$ty> for AnyDist {
            fn from(d: $ty) -> Self {
                AnyDist::$variant(d)
            }
        })*
    };
}

any_from!(
    Normal: Normal,
    HalfNormal: HalfNormal,
    LogNormal: LogNormal,
    Exponential: Exponential,
    Rayleigh: Rayleigh,
    Gamma: Gamma,
    InverseGaussian: InverseGaussian,
    Nakagami: Nakagami,
    Gev: Gev,
    Gumbel: Gumbel,
    Weibull: Weibull,
    Pareto: Pareto,
    Burr: Burr,
    Logistic: Logistic,
    LogLogistic: LogLogistic,
    TLocationScale: TLocationScale,
    BirnbaumSaunders: BirnbaumSaunders,
    Uniform: Uniform,
);

impl From<Mixture> for AnyDist {
    fn from(d: Mixture) -> Self {
        AnyDist::Mixture(Box::new(d))
    }
}

/// A one-line human-readable description of a distribution with parameters,
/// e.g. `GEV(k = -0.386, sigma = 19.5, mu = 73500)` — the formatting used in
/// the Table II / Table III reproductions.
pub fn describe<D: ContinuousDistribution>(d: &D) -> String {
    let params: Vec<String> = d
        .params()
        .iter()
        .map(|(n, v)| format!("{n} = {}", fmt_sig(*v, 4)))
        .collect();
    format!("{}({})", d.name(), params.join(", "))
}

/// Format `v` with `sig` significant digits, switching to scientific notation
/// for very large/small magnitudes (a `%g`-style formatter).
fn fmt_sig(v: f64, sig: usize) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    if !v.is_finite() {
        return format!("{v}");
    }
    let mag = v.abs().log10().floor() as i32;
    if !(-4..6).contains(&mag) {
        format!("{v:.*e}", sig.saturating_sub(1))
    } else {
        let decimals = (sig as i32 - 1 - mag).max(0) as usize;
        let s = format!("{v:.decimals$}");
        // Trim trailing zeros after a decimal point.
        if s.contains('.') {
            s.trim_end_matches('0').trim_end_matches('.').to_string()
        } else {
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anydist_delegates() {
        let d = AnyDist::from(Normal::new(0.0, 1.0).unwrap());
        assert_eq!(d.name(), "Normal");
        assert_eq!(d.param_count(), 2);
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((d.icdf(0.5)).abs() < 1e-9);
    }

    #[test]
    fn describe_formats() {
        let s = describe(&Gev::new(-0.386, 19.5, 7.35e4).unwrap());
        assert!(s.starts_with("GEV("), "{s}");
        assert!(s.contains("k = -0.386"), "{s}");
    }

    #[test]
    fn eighteen_families() {
        // The "set of 18 different distributions" of §IV-2: each enum variant
        // except Mixture is a fit candidate.
        let families = [
            "Normal",
            "HalfNormal",
            "LogNormal",
            "Exponential",
            "Rayleigh",
            "Gamma",
            "InverseGaussian",
            "Nakagami",
            "GEV",
            "Gumbel",
            "Weibull",
            "Pareto",
            "Burr",
            "Logistic",
            "LogLogistic",
            "TLocationScale",
            "BirnbaumSaunders",
            "Uniform",
        ];
        assert_eq!(families.len(), 18);
    }
}
