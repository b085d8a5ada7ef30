//! Exponential-family positive distributions: [`Exponential`], [`Rayleigh`],
//! [`Gamma`], [`InverseGaussian`], [`Nakagami`].

use crate::distribution::{icdf_numeric, ContinuousDistribution, Support};
use crate::optim::nelder_mead;
use crate::special::{gamma_p, gamma_p_inv, ln_gamma, std_normal_cdf};

/// Exponential distribution with rate λ (mean 1/λ). Support x ≥ 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    /// Rate λ > 0.
    pub lambda: f64,
}

impl Exponential {
    /// Create an exponential distribution; `None` if `lambda <= 0`.
    pub fn new(lambda: f64) -> Option<Self> {
        (lambda > 0.0 && lambda.is_finite()).then_some(Self { lambda })
    }

    /// MLE: λ = 1/mean. Requires non-negative data with positive mean.
    pub fn fit(data: &[f64]) -> Option<Self> {
        if data.is_empty() || data.iter().any(|&x| x < 0.0) {
            return None;
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        (mean > 0.0).then(|| Self { lambda: 1.0 / mean })
    }
}

impl ContinuousDistribution for Exponential {
    fn name(&self) -> &'static str {
        "Exponential"
    }
    fn param_count(&self) -> usize {
        1
    }
    fn params(&self) -> Vec<(&'static str, f64)> {
        vec![("lambda", self.lambda)]
    }
    fn support(&self) -> Support {
        Support::POSITIVE
    }
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.lambda * (-self.lambda * x).exp()
        }
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            f64::NEG_INFINITY
        } else {
            self.lambda.ln() - self.lambda * x
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-self.lambda * x).exp_m1()
        }
    }
    fn icdf(&self, p: f64) -> f64 {
        -(-p).ln_1p() / self.lambda
    }
}

/// Rayleigh distribution with scale σ. Support x ≥ 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rayleigh {
    /// Scale σ > 0.
    pub sigma: f64,
}

impl Rayleigh {
    /// Create a Rayleigh distribution; `None` if `sigma <= 0`.
    pub fn new(sigma: f64) -> Option<Self> {
        (sigma > 0.0 && sigma.is_finite()).then_some(Self { sigma })
    }

    /// MLE: σ² = Σx²/(2n).
    pub fn fit(data: &[f64]) -> Option<Self> {
        if data.is_empty() || data.iter().any(|&x| x < 0.0) {
            return None;
        }
        let s2 = data.iter().map(|x| x * x).sum::<f64>() / (2.0 * data.len() as f64);
        Self::new(s2.sqrt())
    }
}

impl ContinuousDistribution for Rayleigh {
    fn name(&self) -> &'static str {
        "Rayleigh"
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
            return 0.0;
        }
        let s2 = self.sigma * self.sigma;
        x / s2 * (-x * x / (2.0 * s2)).exp()
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-x * x / (2.0 * self.sigma * self.sigma)).exp_m1()
        }
    }
    fn icdf(&self, p: f64) -> f64 {
        self.sigma * (-2.0 * (-p).ln_1p()).sqrt()
    }
}

/// Gamma distribution with shape k and scale θ. Support x > 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    /// Shape k > 0.
    pub shape: f64,
    /// Scale θ > 0.
    pub scale: f64,
}

impl Gamma {
    /// Create a gamma distribution; `None` unless both parameters are > 0.
    pub fn new(shape: f64, scale: f64) -> Option<Self> {
        (shape > 0.0 && scale > 0.0 && shape.is_finite() && scale.is_finite())
            .then_some(Self { shape, scale })
    }

    /// MLE via Nelder–Mead, initialized from method-of-moments.
    pub fn fit(data: &[f64]) -> Option<Self> {
        if data.len() < 2 || data.iter().any(|&x| x <= 0.0) {
            return None;
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        if var <= 0.0 {
            return None;
        }
        let k0 = (mean * mean / var).max(1e-3);
        let th0 = var / mean;
        let m = nelder_mead(
            |p| {
                let (k, th) = (p[0].exp(), p[1].exp());
                match Gamma::new(k, th) {
                    Some(d) => -d.log_likelihood(data),
                    None => f64::INFINITY,
                }
            },
            &[k0.ln(), th0.ln()],
            &[0.2, 0.2],
            4000,
        );
        Gamma::new(m.x[0].exp(), m.x[1].exp())
    }
}

impl ContinuousDistribution for Gamma {
    fn name(&self) -> &'static str {
        "Gamma"
    }
    fn param_count(&self) -> usize {
        2
    }
    fn params(&self) -> Vec<(&'static str, f64)> {
        vec![("shape", self.shape), ("scale", self.scale)]
    }
    fn support(&self) -> Support {
        Support::POSITIVE
    }
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let (k, th) = (self.shape, self.scale);
        (k - 1.0) * x.ln() - x / th - ln_gamma(k) - k * th.ln()
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            gamma_p(self.shape, x / self.scale)
        }
    }
    fn icdf(&self, p: f64) -> f64 {
        gamma_p_inv(self.shape, p) * self.scale
    }
}

/// Inverse Gaussian (Wald) distribution with mean μ and shape λ. Support x > 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InverseGaussian {
    /// Mean μ > 0.
    pub mu: f64,
    /// Shape λ > 0.
    pub lambda: f64,
}

impl InverseGaussian {
    /// Create an inverse-Gaussian distribution; `None` unless μ, λ > 0.
    pub fn new(mu: f64, lambda: f64) -> Option<Self> {
        (mu > 0.0 && lambda > 0.0 && mu.is_finite() && lambda.is_finite())
            .then_some(Self { mu, lambda })
    }

    /// Closed-form MLE: μ = mean, 1/λ = mean(1/x − 1/μ).
    pub fn fit(data: &[f64]) -> Option<Self> {
        if data.len() < 2 || data.iter().any(|&x| x <= 0.0) {
            return None;
        }
        let n = data.len() as f64;
        let mu = data.iter().sum::<f64>() / n;
        let inv_lambda = data.iter().map(|&x| 1.0 / x - 1.0 / mu).sum::<f64>() / n;
        if inv_lambda <= 0.0 {
            return None;
        }
        Self::new(mu, 1.0 / inv_lambda)
    }
}

impl ContinuousDistribution for InverseGaussian {
    fn name(&self) -> &'static str {
        "InverseGaussian"
    }
    fn param_count(&self) -> usize {
        2
    }
    fn params(&self) -> Vec<(&'static str, f64)> {
        vec![("mu", self.mu), ("lambda", self.lambda)]
    }
    fn support(&self) -> Support {
        Support::POSITIVE
    }
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let (mu, l) = (self.mu, self.lambda);
        0.5 * (l / (2.0 * std::f64::consts::PI * x.powi(3))).ln()
            - l * (x - mu).powi(2) / (2.0 * mu * mu * x)
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let (mu, l) = (self.mu, self.lambda);
        let s = (l / x).sqrt();
        let a = std_normal_cdf(s * (x / mu - 1.0));
        let b = (2.0 * l / mu).exp() * std_normal_cdf(-s * (x / mu + 1.0));
        (a + b).clamp(0.0, 1.0)
    }
}

/// Nakagami distribution with shape m ≥ 0.5 and spread Ω. Support x > 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nakagami {
    /// Shape m ≥ 0.5.
    pub m: f64,
    /// Spread Ω > 0 (mean of x²).
    pub omega: f64,
}

impl Nakagami {
    /// Create a Nakagami distribution; `None` unless m ≥ 0.5 and Ω > 0.
    pub fn new(m: f64, omega: f64) -> Option<Self> {
        (m >= 0.5 && omega > 0.0 && m.is_finite() && omega.is_finite()).then_some(Self { m, omega })
    }

    /// Inverse-normalized-variance estimator: Ω = E\[x²\], m = Ω²/Var(x²).
    pub fn fit(data: &[f64]) -> Option<Self> {
        if data.len() < 2 || data.iter().any(|&x| x <= 0.0) {
            return None;
        }
        let n = data.len() as f64;
        let x2: Vec<f64> = data.iter().map(|x| x * x).collect();
        let omega = x2.iter().sum::<f64>() / n;
        let var2 = x2.iter().map(|v| (v - omega).powi(2)).sum::<f64>() / n;
        if var2 <= 0.0 {
            return None;
        }
        Self::new((omega * omega / var2).max(0.5), omega)
    }
}

impl ContinuousDistribution for Nakagami {
    fn name(&self) -> &'static str {
        "Nakagami"
    }
    fn param_count(&self) -> usize {
        2
    }
    fn params(&self) -> Vec<(&'static str, f64)> {
        vec![("m", self.m), ("omega", self.omega)]
    }
    fn support(&self) -> Support {
        Support::POSITIVE
    }
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let (m, w) = (self.m, self.omega);
        (2.0f64).ln() + m * (m / w).ln() - ln_gamma(m) + (2.0 * m - 1.0) * x.ln() - m * x * x / w
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            gamma_p(self.m, self.m * x * x / self.omega)
        }
    }
    fn icdf(&self, p: f64) -> f64 {
        (gamma_p_inv(self.m, p) * self.omega / self.m).sqrt()
    }
}

/// Expose the generic numeric ICDF for distributions lacking a closed form.
impl InverseGaussian {
    /// Quantile by numeric inversion of the closed-form CDF.
    pub fn quantile(&self, p: f64) -> f64 {
        icdf_numeric(self, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::sample_n;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_icdf_roundtrip() {
        let d = Exponential::new(0.37).unwrap();
        for &p in &[0.01, 0.5, 0.99] {
            assert!((d.cdf(d.icdf(p)) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn exponential_fit() {
        let d = Exponential::new(2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let xs = sample_n(&d, 30_000, &mut rng);
        let f = Exponential::fit(&xs).unwrap();
        assert!((f.lambda - 2.0).abs() < 0.05, "{f:?}");
    }

    #[test]
    fn rayleigh_median() {
        // median = σ√(2 ln 2)
        let d = Rayleigh::new(3.0).unwrap();
        assert!((d.icdf(0.5) - 3.0 * (2.0 * 2.0f64.ln()).sqrt()).abs() < 1e-10);
    }

    #[test]
    fn gamma_exponential_special_case() {
        // Gamma(1, θ) == Exponential(1/θ)
        let g = Gamma::new(1.0, 2.0).unwrap();
        let e = Exponential::new(0.5).unwrap();
        for &x in &[0.1, 1.0, 4.0] {
            assert!((g.pdf(x) - e.pdf(x)).abs() < 1e-12);
            assert!((g.cdf(x) - e.cdf(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn gamma_fit_recovers() {
        let d = Gamma::new(3.0, 1.5).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let xs = sample_n(&d, 10_000, &mut rng);
        let f = Gamma::fit(&xs).unwrap();
        assert!((f.shape - 3.0).abs() < 0.25, "{f:?}");
        assert!((f.scale - 1.5).abs() < 0.15, "{f:?}");
    }

    #[test]
    fn inverse_gaussian_cdf_at_mean_below_one() {
        let d = InverseGaussian::new(2.0, 4.0).unwrap();
        let c = d.cdf(2.0);
        assert!(c > 0.4 && c < 0.8, "{c}");
        // CDF monotone
        assert!(d.cdf(1.0) < d.cdf(2.0));
        assert!(d.cdf(2.0) < d.cdf(5.0));
    }

    #[test]
    fn inverse_gaussian_fit() {
        let d = InverseGaussian::new(1.5, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let xs = sample_n(&d, 10_000, &mut rng);
        let f = InverseGaussian::fit(&xs).unwrap();
        assert!((f.mu - 1.5).abs() < 0.1, "{f:?}");
        assert!((f.lambda - 3.0).abs() < 0.4, "{f:?}");
    }

    #[test]
    fn nakagami_half_is_halfnormal_shape() {
        // m = 0.5 reduces to half-normal with σ² = Ω.
        let d = Nakagami::new(0.5, 1.0).unwrap();
        let hn = crate::dist::normal::HalfNormal::new(1.0).unwrap();
        for &x in &[0.2, 1.0, 2.0] {
            assert!((d.pdf(x) - hn.pdf(x)).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn nakagami_icdf_roundtrip() {
        let d = Nakagami::new(2.0, 3.0).unwrap();
        for &p in &[0.05, 0.5, 0.95] {
            assert!((d.cdf(d.icdf(p)) - p).abs() < 1e-8);
        }
    }

    #[test]
    fn nakagami_fit() {
        let d = Nakagami::new(1.8, 2.5).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let xs = sample_n(&d, 20_000, &mut rng);
        let f = Nakagami::fit(&xs).unwrap();
        assert!((f.m - 1.8).abs() < 0.2, "{f:?}");
        assert!((f.omega - 2.5).abs() < 0.1, "{f:?}");
    }
}
