//! Extreme-value distributions: [`Gev`], [`Gumbel`], [`Weibull`].
//!
//! The paper's Table II fits most job inter-arrival data sets with the
//! Generalized Extreme Value (GEV) distribution, so the GEV implementation
//! follows the Matlab parameterization used there: shape `k`, scale `σ`,
//! location `μ`, with CDF `exp(−(1 + k·(x−μ)/σ)^(−1/k))`.

use crate::distribution::{ContinuousDistribution, Support};
use crate::optim::nelder_mead;
use crate::special::EULER_GAMMA;

/// Generalized Extreme Value distribution (Matlab `gev` parameterization).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gev {
    /// Shape k (any finite real; k = 0 degenerates to Gumbel and is handled).
    pub k: f64,
    /// Scale σ > 0.
    pub sigma: f64,
    /// Location μ.
    pub mu: f64,
}

impl Gev {
    /// Create a GEV distribution; `None` if `sigma <= 0` or non-finite params.
    pub fn new(k: f64, sigma: f64, mu: f64) -> Option<Self> {
        (sigma > 0.0 && k.is_finite() && sigma.is_finite() && mu.is_finite()).then_some(Self {
            k,
            sigma,
            mu,
        })
    }

    /// Standardized variable t(x) = 1 + k (x − μ)/σ; support requires t > 0.
    #[inline]
    pub(crate) fn t(&self, x: f64) -> f64 {
        1.0 + self.k * (x - self.mu) / self.sigma
    }

    /// MLE via Nelder–Mead with a Gumbel-moments initialization.
    pub fn fit(data: &[f64]) -> Option<Self> {
        if data.len() < 3 {
            return None;
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let s0 = (var.sqrt() * 6.0f64.sqrt() / std::f64::consts::PI).max(1e-9);
        let m0 = mean - EULER_GAMMA * s0;
        // Try several shape starts; GEV likelihood surfaces are multimodal.
        let mut best: Option<(f64, Gev)> = None;
        for &k0 in &[-0.3, -0.1, 0.0, 0.1, 0.3] {
            let m = nelder_mead(
                |p| {
                    let (k, s, mu) = (p[0], p[1].exp(), p[2]);
                    match Gev::new(k, s, mu) {
                        Some(d) => -d.log_likelihood(data),
                        None => f64::INFINITY,
                    }
                },
                &[k0, s0.ln(), m0],
                &[0.1, 0.2, 0.5 * s0.max(1e-6)],
                6000,
            );
            if let Some(d) = Gev::new(m.x[0], m.x[1].exp(), m.x[2]) {
                let nll = m.fx;
                if nll.is_finite() && best.as_ref().is_none_or(|(b, _)| nll < *b) {
                    best = Some((nll, d));
                }
            }
        }
        best.map(|(_, d)| d)
    }
}

impl ContinuousDistribution for Gev {
    fn name(&self) -> &'static str {
        "GEV"
    }
    fn param_count(&self) -> usize {
        3
    }
    fn params(&self) -> Vec<(&'static str, f64)> {
        vec![("k", self.k), ("sigma", self.sigma), ("mu", self.mu)]
    }
    fn support(&self) -> Support {
        if self.k > 0.0 {
            Support {
                lo: self.mu - self.sigma / self.k,
                hi: f64::INFINITY,
            }
        } else if self.k < 0.0 {
            Support {
                lo: f64::NEG_INFINITY,
                hi: self.mu - self.sigma / self.k,
            }
        } else {
            Support::REAL
        }
    }
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        if self.k.abs() < 1e-12 {
            // Gumbel limit.
            let z = (x - self.mu) / self.sigma;
            return -z - (-z).exp() - self.sigma.ln();
        }
        let t = self.t(x);
        if t <= 0.0 {
            return f64::NEG_INFINITY;
        }
        -(1.0 + 1.0 / self.k) * t.ln() - t.powf(-1.0 / self.k) - self.sigma.ln()
    }
    fn cdf(&self, x: f64) -> f64 {
        if self.k.abs() < 1e-12 {
            let z = (x - self.mu) / self.sigma;
            return (-(-z).exp()).exp();
        }
        let t = self.t(x);
        if t <= 0.0 {
            return if self.k > 0.0 { 0.0 } else { 1.0 };
        }
        (-t.powf(-1.0 / self.k)).exp()
    }
    fn icdf(&self, p: f64) -> f64 {
        if self.k.abs() < 1e-12 {
            return self.mu - self.sigma * (-p.ln()).ln();
        }
        self.mu + self.sigma * ((-p.ln()).powf(-self.k) - 1.0) / self.k
    }
}

/// Gumbel (type-I extreme value, maximum convention) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gumbel {
    /// Location μ.
    pub mu: f64,
    /// Scale β > 0.
    pub beta: f64,
}

impl Gumbel {
    /// Create a Gumbel distribution; `None` if `beta <= 0`.
    pub fn new(mu: f64, beta: f64) -> Option<Self> {
        (beta > 0.0 && mu.is_finite() && beta.is_finite()).then_some(Self { mu, beta })
    }

    /// MLE via Nelder–Mead from moments initialization.
    pub fn fit(data: &[f64]) -> Option<Self> {
        if data.len() < 2 {
            return None;
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let b0 = (var.sqrt() * 6.0f64.sqrt() / std::f64::consts::PI).max(1e-9);
        let m0 = mean - EULER_GAMMA * b0;
        let m = nelder_mead(
            |p| match Gumbel::new(p[0], p[1].exp()) {
                Some(d) => -d.log_likelihood(data),
                None => f64::INFINITY,
            },
            &[m0, b0.ln()],
            &[0.5 * b0.max(1e-6), 0.2],
            4000,
        );
        Gumbel::new(m.x[0], m.x[1].exp())
    }
}

impl ContinuousDistribution for Gumbel {
    fn name(&self) -> &'static str {
        "Gumbel"
    }
    fn param_count(&self) -> usize {
        2
    }
    fn params(&self) -> Vec<(&'static str, f64)> {
        vec![("mu", self.mu), ("beta", self.beta)]
    }
    fn support(&self) -> Support {
        Support::REAL
    }
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.beta;
        -z - (-z).exp() - self.beta.ln()
    }
    fn cdf(&self, x: f64) -> f64 {
        (-(-(x - self.mu) / self.beta).exp()).exp()
    }
    fn icdf(&self, p: f64) -> f64 {
        self.mu - self.beta * (-p.ln()).ln()
    }
}

/// Weibull distribution with scale λ and shape k. Support x ≥ 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    /// Scale λ > 0.
    pub lambda: f64,
    /// Shape k > 0.
    pub k: f64,
}

impl Weibull {
    /// Create a Weibull distribution; `None` unless both parameters > 0.
    pub fn new(lambda: f64, k: f64) -> Option<Self> {
        (lambda > 0.0 && k > 0.0 && lambda.is_finite() && k.is_finite())
            .then_some(Self { lambda, k })
    }

    /// MLE via Nelder–Mead; shape initialized from the CV heuristic
    /// `k ≈ CV^(−1.086)`, scale from mean / Γ(1 + 1/k).
    pub fn fit(data: &[f64]) -> Option<Self> {
        if data.len() < 2 || data.iter().any(|&x| x <= 0.0) {
            return None;
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let cv = (var.sqrt() / mean).max(1e-6);
        let k0 = cv.powf(-1.086).clamp(0.05, 50.0);
        let l0 = mean / crate::special::gamma(1.0 + 1.0 / k0);
        let m = nelder_mead(
            |p| match Weibull::new(p[0].exp(), p[1].exp()) {
                Some(d) => -d.log_likelihood(data),
                None => f64::INFINITY,
            },
            &[l0.ln(), k0.ln()],
            &[0.2, 0.2],
            4000,
        );
        Weibull::new(m.x[0].exp(), m.x[1].exp())
    }
}

impl ContinuousDistribution for Weibull {
    fn name(&self) -> &'static str {
        "Weibull"
    }
    fn param_count(&self) -> usize {
        2
    }
    fn params(&self) -> Vec<(&'static str, f64)> {
        vec![("lambda", self.lambda), ("k", self.k)]
    }
    fn support(&self) -> Support {
        Support::POSITIVE
    }
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 || (x == 0.0 && self.k < 1.0) {
            return f64::NEG_INFINITY;
        }
        if x == 0.0 {
            return if self.k == 1.0 {
                -self.lambda.ln()
            } else {
                f64::NEG_INFINITY
            };
        }
        let z = x / self.lambda;
        self.k.ln() - self.lambda.ln() + (self.k - 1.0) * z.ln() - z.powf(self.k)
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-(x / self.lambda).powf(self.k)).exp_m1()
        }
    }
    fn icdf(&self, p: f64) -> f64 {
        self.lambda * (-(-p).ln_1p()).powf(1.0 / self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::sample_n;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gev_zero_shape_matches_gumbel() {
        let g = Gev::new(0.0, 2.0, 1.0).unwrap();
        let gu = Gumbel::new(1.0, 2.0).unwrap();
        for &x in &[-3.0, 0.0, 1.0, 5.0] {
            assert!((g.pdf(x) - gu.pdf(x)).abs() < 1e-12);
            assert!((g.cdf(x) - gu.cdf(x)).abs() < 1e-12);
        }
    }

    #[test]
    fn gev_icdf_roundtrip_negative_shape() {
        // Paper's U65 fits have k ≈ −0.3..−0.46.
        let d = Gev::new(-0.386, 19.5, 100.0).unwrap();
        for &p in &[0.01, 0.25, 0.5, 0.75, 0.99] {
            let x = d.icdf(p);
            assert!((d.cdf(x) - p).abs() < 1e-10, "p={p}");
        }
    }

    #[test]
    fn gev_support_bounded_above_for_negative_shape() {
        let d = Gev::new(-0.4, 10.0, 0.0).unwrap();
        let sup = d.support();
        assert!(sup.hi.is_finite());
        assert!((sup.hi - 25.0).abs() < 1e-9); // μ − σ/k = 0 + 10/0.4
        assert_eq!(d.cdf(sup.hi + 1.0), 1.0);
        assert_eq!(d.pdf(sup.hi + 1.0), 0.0);
    }

    #[test]
    fn gev_fit_recovers_params() {
        let d = Gev::new(-0.3, 20.0, 50.0).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let xs = sample_n(&d, 8000, &mut rng);
        let f = Gev::fit(&xs).unwrap();
        assert!((f.k + 0.3).abs() < 0.08, "{f:?}");
        assert!((f.sigma - 20.0).abs() < 1.5, "{f:?}");
        assert!((f.mu - 50.0).abs() < 1.5, "{f:?}");
    }

    #[test]
    fn gumbel_icdf_roundtrip() {
        let d = Gumbel::new(-2.0, 0.7).unwrap();
        for &p in &[0.001, 0.5, 0.999] {
            assert!((d.cdf(d.icdf(p)) - p).abs() < 1e-11);
        }
    }

    #[test]
    fn gumbel_fit() {
        let d = Gumbel::new(3.0, 1.2).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let xs = sample_n(&d, 10_000, &mut rng);
        let f = Gumbel::fit(&xs).unwrap();
        assert!((f.mu - 3.0).abs() < 0.08, "{f:?}");
        assert!((f.beta - 1.2).abs() < 0.06, "{f:?}");
    }

    #[test]
    fn weibull_exponential_special_case() {
        // Weibull(λ, 1) == Exponential(1/λ)
        let w = Weibull::new(2.0, 1.0).unwrap();
        for &x in &[0.1, 1.0, 3.0] {
            let expected = 0.5 * (-x / 2.0f64).exp();
            assert!((w.pdf(x) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn weibull_fit_paper_duration_params() {
        // Table III: U30 duration Weibull(λ=5.49e4, k=0.637).
        let d = Weibull::new(5.49e4, 0.637).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let xs = sample_n(&d, 10_000, &mut rng);
        let f = Weibull::fit(&xs).unwrap();
        assert!((f.k - 0.637).abs() < 0.03, "{f:?}");
        assert!((f.lambda / 5.49e4 - 1.0).abs() < 0.08, "{f:?}");
    }

    #[test]
    fn weibull_median() {
        let d = Weibull::new(1.0, 2.0).unwrap();
        assert!((d.icdf(0.5) - 2.0f64.ln().sqrt()).abs() < 1e-12);
    }
}
