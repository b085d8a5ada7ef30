//! Normal-family distributions: [`Normal`], [`HalfNormal`], [`LogNormal`].

use crate::distribution::{ContinuousDistribution, Support};
use crate::special::{std_normal_cdf, std_normal_pdf, std_normal_quantile};

/// Normal (Gaussian) distribution N(μ, σ²).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    /// Location (mean).
    pub mu: f64,
    /// Scale (standard deviation), > 0.
    pub sigma: f64,
}

impl Normal {
    /// Create a normal distribution; returns `None` if `sigma <= 0` or
    /// parameters are non-finite.
    pub fn new(mu: f64, sigma: f64) -> Option<Self> {
        (sigma > 0.0 && mu.is_finite() && sigma.is_finite()).then_some(Self { mu, sigma })
    }

    /// Maximum-likelihood fit (sample mean / uncorrected std deviation).
    pub fn fit(data: &[f64]) -> Option<Self> {
        if data.len() < 2 {
            return None;
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        Self::new(mean, var.sqrt())
    }
}

impl ContinuousDistribution for Normal {
    fn name(&self) -> &'static str {
        "Normal"
    }
    fn param_count(&self) -> usize {
        2
    }
    fn params(&self) -> Vec<(&'static str, f64)> {
        vec![("mu", self.mu), ("sigma", self.sigma)]
    }
    fn support(&self) -> Support {
        Support::REAL
    }
    fn pdf(&self, x: f64) -> f64 {
        std_normal_pdf((x - self.mu) / self.sigma) / self.sigma
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        -0.5 * z * z - self.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }
    fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mu) / self.sigma)
    }
    fn icdf(&self, p: f64) -> f64 {
        self.mu + self.sigma * std_normal_quantile(p)
    }
}

/// Half-normal distribution: |Z|·σ for Z standard normal. Support x ≥ 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HalfNormal {
    /// Scale σ > 0 of the underlying normal.
    pub sigma: f64,
}

impl HalfNormal {
    /// Create a half-normal distribution; `None` if `sigma <= 0`.
    pub fn new(sigma: f64) -> Option<Self> {
        (sigma > 0.0 && sigma.is_finite()).then_some(Self { sigma })
    }

    /// MLE: σ² = mean of squares.
    pub fn fit(data: &[f64]) -> Option<Self> {
        if data.is_empty() || data.iter().any(|&x| x < 0.0) {
            return None;
        }
        let ms = data.iter().map(|x| x * x).sum::<f64>() / data.len() as f64;
        Self::new(ms.sqrt())
    }
}

impl ContinuousDistribution for HalfNormal {
    fn name(&self) -> &'static str {
        "HalfNormal"
    }
    fn param_count(&self) -> usize {
        1
    }
    fn params(&self) -> Vec<(&'static str, f64)> {
        vec![("sigma", self.sigma)]
    }
    fn support(&self) -> Support {
        Support::POSITIVE
    }
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            2.0 * std_normal_pdf(x / self.sigma) / self.sigma
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            2.0 * std_normal_cdf(x / self.sigma) - 1.0
        }
    }
    fn icdf(&self, p: f64) -> f64 {
        self.sigma * std_normal_quantile(0.5 * (p + 1.0))
    }
}

/// Log-normal distribution: exp(N(μ, σ²)). Support x > 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Location of ln X.
    pub mu: f64,
    /// Scale of ln X, > 0.
    pub sigma: f64,
}

impl LogNormal {
    /// Create a log-normal distribution; `None` if `sigma <= 0`.
    pub fn new(mu: f64, sigma: f64) -> Option<Self> {
        (sigma > 0.0 && mu.is_finite() && sigma.is_finite()).then_some(Self { mu, sigma })
    }

    /// MLE on log-transformed data; requires strictly positive samples.
    pub fn fit(data: &[f64]) -> Option<Self> {
        if data.len() < 2 || data.iter().any(|&x| x <= 0.0) {
            return None;
        }
        let logs: Vec<f64> = data.iter().map(|x| x.ln()).collect();
        let n = logs.len() as f64;
        let mean = logs.iter().sum::<f64>() / n;
        let var = logs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        Self::new(mean, var.sqrt())
    }
}

impl ContinuousDistribution for LogNormal {
    fn name(&self) -> &'static str {
        "LogNormal"
    }
    fn param_count(&self) -> usize {
        2
    }
    fn params(&self) -> Vec<(&'static str, f64)> {
        vec![("mu", self.mu), ("sigma", self.sigma)]
    }
    fn support(&self) -> Support {
        Support::POSITIVE
    }
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_pdf((x.ln() - self.mu) / self.sigma) / (x * self.sigma)
        }
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        -0.5 * z * z - x.ln() - self.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }
    fn icdf(&self, p: f64) -> f64 {
        (self.mu + self.sigma * std_normal_quantile(p)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::sample_n;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_pdf_integrates_via_cdf() {
        let d = Normal::new(2.0, 3.0).unwrap();
        assert!((d.cdf(2.0) - 0.5).abs() < 1e-12);
        assert!((d.cdf(5.0) - 0.841_344_746).abs() < 1e-6);
    }

    #[test]
    fn normal_fit_recovers_params() {
        let d = Normal::new(-1.0, 2.5).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let xs = sample_n(&d, 20_000, &mut rng);
        let f = Normal::fit(&xs).unwrap();
        assert!((f.mu + 1.0).abs() < 0.08, "{f:?}");
        assert!((f.sigma - 2.5).abs() < 0.08, "{f:?}");
    }

    #[test]
    fn normal_rejects_bad_params() {
        assert!(Normal::new(0.0, 0.0).is_none());
        assert!(Normal::new(0.0, -1.0).is_none());
        assert!(Normal::new(f64::NAN, 1.0).is_none());
    }

    #[test]
    fn halfnormal_icdf_roundtrip() {
        let d = HalfNormal::new(1.7).unwrap();
        for &p in &[0.05, 0.3, 0.5, 0.9, 0.999] {
            let x = d.icdf(p);
            assert!((d.cdf(x) - p).abs() < 1e-10);
        }
    }

    #[test]
    fn halfnormal_fit_recovers_scale() {
        let d = HalfNormal::new(0.8).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let xs = sample_n(&d, 20_000, &mut rng);
        let f = HalfNormal::fit(&xs).unwrap();
        assert!((f.sigma - 0.8).abs() < 0.03, "{f:?}");
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let d = LogNormal::new(1.2, 0.9).unwrap();
        assert!((d.icdf(0.5) - 1.2f64.exp()).abs() < 1e-8);
    }

    #[test]
    fn lognormal_fit_recovers_params() {
        let d = LogNormal::new(0.5, 1.1).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let xs = sample_n(&d, 20_000, &mut rng);
        let f = LogNormal::fit(&xs).unwrap();
        assert!((f.mu - 0.5).abs() < 0.05, "{f:?}");
        assert!((f.sigma - 1.1).abs() < 0.05, "{f:?}");
    }

    #[test]
    fn lognormal_zero_density_outside_support() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        assert_eq!(d.pdf(-1.0), 0.0);
        assert_eq!(d.cdf(-1.0), 0.0);
        assert_eq!(d.ln_pdf(0.0), f64::NEG_INFINITY);
    }
}
