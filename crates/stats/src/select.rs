//! Model fitting and selection: fit all 18 candidate families to a data set
//! and pick the best by the Bayesian information criterion (BIC), exactly as
//! the paper does for the job arrival and duration models (§IV-2: "the best
//! fit was found by modeling each data set using a set of 18 different
//! distributions, and choosing the best fit based on the Bayesian
//! information criterion").

use crate::dist::{
    AnyDist, BirnbaumSaunders, Burr, Exponential, Gamma, Gev, Gumbel, HalfNormal, InverseGaussian,
    LogLogistic, LogNormal, Logistic, Nakagami, Normal, Pareto, Rayleigh, TLocationScale, Uniform,
    Weibull,
};
use crate::distribution::ContinuousDistribution;
use crate::ks::ks_statistic;

/// The result of fitting one candidate family to a data set.
#[derive(Debug, Clone)]
pub struct FitResult {
    /// The fitted distribution.
    pub dist: AnyDist,
    /// Total log-likelihood of the data under the fit.
    pub log_likelihood: f64,
    /// Bayesian information criterion: `k·ln n − 2·lnL` (lower is better).
    pub bic: f64,
    /// Kolmogorov–Smirnov statistic of the fit against the data.
    pub ks: f64,
}

/// The BIC of a fit with `params` parameters and log-likelihood `ll` on `n`
/// observations: `k·ln n − 2·lnL`.
fn bic(params: usize, n: usize, ll: f64) -> f64 {
    params as f64 * (n as f64).ln() - 2.0 * ll
}

/// Fit every candidate family that accepts the data and evaluate each fit.
///
/// Families whose support or estimators are incompatible with the data (e.g.
/// log-domain families on data containing zeros) are skipped. Fits with
/// non-finite likelihood are discarded. Results are sorted by ascending BIC.
fn fit_all(data: &[f64]) -> Vec<FitResult> {
    let mut candidates: Vec<AnyDist> = Vec::with_capacity(18);
    macro_rules! try_fit {
        ($ty:ident) => {
            if let Some(d) = $ty::fit(data) {
                candidates.push(AnyDist::from(d));
            }
        };
    }
    try_fit!(Normal);
    try_fit!(HalfNormal);
    try_fit!(LogNormal);
    try_fit!(Exponential);
    try_fit!(Rayleigh);
    try_fit!(Gamma);
    try_fit!(InverseGaussian);
    try_fit!(Nakagami);
    try_fit!(Gev);
    try_fit!(Gumbel);
    try_fit!(Weibull);
    try_fit!(Pareto);
    try_fit!(Burr);
    try_fit!(Logistic);
    try_fit!(LogLogistic);
    try_fit!(TLocationScale);
    try_fit!(BirnbaumSaunders);
    try_fit!(Uniform);

    let mut results: Vec<FitResult> = candidates
        .into_iter()
        .filter_map(|dist| {
            let ll = dist.log_likelihood(data);
            if !ll.is_finite() {
                return None;
            }
            let ks = ks_statistic(data, |x| dist.cdf(x));
            Some(FitResult {
                bic: bic(dist.param_count(), data.len(), ll),
                dist,
                log_likelihood: ll,
                ks,
            })
        })
        .collect();
    results.sort_by(|a, b| a.bic.total_cmp(&b.bic));
    results
}

/// Fit all families and return the best fit by BIC, if any family succeeded.
pub fn select_best(data: &[f64]) -> Option<FitResult> {
    fit_all(data).into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::sample_n;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn selects_normal_for_normal_data() {
        let d = Normal::new(10.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let xs = sample_n(&d, 5000, &mut rng);
        let best = select_best(&xs).unwrap();
        // Normal data can also be matched by TLocationScale (ν→∞) or GEV-ish
        // shapes, but BIC's parameter penalty should favour the 2-param family.
        assert!(
            matches!(best.dist, AnyDist::Normal(_)),
            "got {}",
            best.dist.name()
        );
        assert!(best.ks < 0.02, "ks={}", best.ks);
    }

    #[test]
    fn selects_heavy_tail_family_for_lognormal_data() {
        let d = LogNormal::new(2.0, 1.5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let xs = sample_n(&d, 4000, &mut rng);
        let best = select_best(&xs).unwrap();
        assert!(
            matches!(best.dist, AnyDist::LogNormal(_)),
            "got {}",
            best.dist.name()
        );
    }

    #[test]
    fn gev_data_prefers_gev() {
        let d = Gev::new(-0.35, 25.0, 100.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let xs = sample_n(&d, 5000, &mut rng);
        let best = select_best(&xs).unwrap();
        assert_eq!(best.dist.name(), "GEV", "got {}", best.dist.name());
        assert!(best.ks < 0.03, "ks={}", best.ks);
    }

    #[test]
    fn results_sorted_by_bic() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = Weibull::new(100.0, 0.8).unwrap();
        let xs = sample_n(&d, 2000, &mut rng);
        let all = fit_all(&xs);
        assert!(all.len() >= 8, "only {} fits", all.len());
        for w in all.windows(2) {
            assert!(w[0].bic <= w[1].bic);
        }
    }

    #[test]
    fn bic_penalizes_parameters() {
        // For the same likelihood, more parameters → higher BIC.
        let xs: Vec<f64> = (1..100).map(|i| i as f64).collect();
        let n2 = Normal::fit(&xs).unwrap();
        let ll = n2.log_likelihood(&xs);
        let bic2 = 2.0 * (xs.len() as f64).ln() - 2.0 * ll;
        assert!((bic(n2.param_count(), xs.len(), ll) - bic2).abs() < 1e-9);
    }

    #[test]
    fn empty_data_yields_nothing() {
        assert!(select_best(&[]).is_none());
    }
}
