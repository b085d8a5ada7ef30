//! Birnbaum–Saunders (fatigue-life) distribution.
//!
//! Table III of the paper fits the job durations of U65 and U_oth with
//! Birnbaum–Saunders distributions (`BS(β, γ)`), following the Matlab
//! parameterization: scale β (the median) and shape γ.

use crate::distribution::{ContinuousDistribution, Support};
use crate::optim::nelder_mead;
use crate::special::{std_normal_cdf, std_normal_pdf, std_normal_quantile};

/// Birnbaum–Saunders distribution with scale β and shape γ. Support x > 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BirnbaumSaunders {
    /// Scale β > 0 (equals the distribution median).
    pub beta: f64,
    /// Shape γ > 0.
    pub gamma: f64,
}

impl BirnbaumSaunders {
    /// Create a BS distribution; `None` unless both parameters > 0.
    pub fn new(beta: f64, gamma: f64) -> Option<Self> {
        (beta > 0.0 && gamma > 0.0 && beta.is_finite() && gamma.is_finite())
            .then_some(Self { beta, gamma })
    }

    /// Standardizing transform ξ(x) = (√(x/β) − √(β/x)) / γ.
    #[inline]
    fn xi(&self, x: f64) -> f64 {
        ((x / self.beta).sqrt() - (self.beta / x).sqrt()) / self.gamma
    }

    /// Modified-moment initialization refined by Nelder–Mead MLE.
    ///
    /// Initialization: with arithmetic mean `s` and harmonic mean `r`,
    /// `β₀ = √(s·r)` and `γ₀ = √(2(√(s/r) − 1))`.
    pub fn fit(data: &[f64]) -> Option<Self> {
        if data.len() < 2 || data.iter().any(|&x| x <= 0.0) {
            return None;
        }
        let n = data.len() as f64;
        let s = data.iter().sum::<f64>() / n;
        let r = n / data.iter().map(|&x| 1.0 / x).sum::<f64>();
        let beta0 = (s * r).sqrt();
        let gamma0 = (2.0 * ((s / r).sqrt() - 1.0)).max(1e-6).sqrt();
        let m = nelder_mead(
            |p| match BirnbaumSaunders::new(p[0].exp(), p[1].exp()) {
                Some(d) => -d.log_likelihood(data),
                None => f64::INFINITY,
            },
            &[beta0.ln(), gamma0.ln()],
            &[0.2, 0.2],
            5000,
        );
        BirnbaumSaunders::new(m.x[0].exp(), m.x[1].exp())
    }
}

impl ContinuousDistribution for BirnbaumSaunders {
    fn name(&self) -> &'static str {
        "BirnbaumSaunders"
    }
    fn param_count(&self) -> usize {
        2
    }
    fn params(&self) -> Vec<(&'static str, f64)> {
        vec![("beta", self.beta), ("gamma", self.gamma)]
    }
    fn support(&self) -> Support {
        Support::POSITIVE
    }
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        // d/dx ξ(x) = (1/(2γ)) (1/√(xβ) + √β / x^{3/2})
        let dxi =
            (1.0 / (x * self.beta).sqrt() + self.beta.sqrt() / x.powf(1.5)) / (2.0 * self.gamma);
        std_normal_pdf(self.xi(x)) * dxi
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf(self.xi(x))
        }
    }
    fn icdf(&self, p: f64) -> f64 {
        // Invert: ξ = Φ⁻¹(p); x = β (γξ/2 + √((γξ/2)² + 1))².
        let t = self.gamma * std_normal_quantile(p) / 2.0;
        self.beta * (t + (t * t + 1.0).sqrt()).powi(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::sample_n;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn median_equals_beta() {
        let d = BirnbaumSaunders::new(1.76e4, 3.53).unwrap(); // paper's U65 fit
        assert!((d.icdf(0.5) / 1.76e4 - 1.0).abs() < 1e-10);
    }

    #[test]
    fn icdf_roundtrip() {
        let d = BirnbaumSaunders::new(2.0, 1.5).unwrap();
        for &p in &[0.01, 0.2, 0.5, 0.8, 0.99] {
            assert!((d.cdf(d.icdf(p)) - p).abs() < 1e-10, "p={p}");
        }
    }

    #[test]
    fn pdf_is_cdf_derivative_numerically() {
        let d = BirnbaumSaunders::new(3.0, 0.8).unwrap();
        for &x in &[0.5, 1.0, 3.0, 10.0] {
            let h = 1e-6 * x;
            let num = (d.cdf(x + h) - d.cdf(x - h)) / (2.0 * h);
            assert!(
                (d.pdf(x) - num).abs() < 1e-6 * (1.0 + num.abs()),
                "x={x}: {} vs {num}",
                d.pdf(x)
            );
        }
    }

    #[test]
    fn fit_recovers_params() {
        let d = BirnbaumSaunders::new(5.0, 1.2).unwrap();
        let mut rng = StdRng::seed_from_u64(55);
        let xs = sample_n(&d, 10_000, &mut rng);
        let f = BirnbaumSaunders::fit(&xs).unwrap();
        assert!((f.beta - 5.0).abs() < 0.3, "{f:?}");
        assert!((f.gamma - 1.2).abs() < 0.08, "{f:?}");
    }

    #[test]
    fn fit_extreme_shape_like_paper() {
        // U_oth durations: BS(β=3.02e4, γ=7.91) — very heavy shape.
        let d = BirnbaumSaunders::new(3.02e4, 7.91).unwrap();
        let mut rng = StdRng::seed_from_u64(56);
        let xs = sample_n(&d, 8000, &mut rng);
        let f = BirnbaumSaunders::fit(&xs).unwrap();
        assert!((f.gamma / 7.91 - 1.0).abs() < 0.15, "{f:?}");
    }

    #[test]
    fn zero_outside_support() {
        let d = BirnbaumSaunders::new(1.0, 1.0).unwrap();
        assert_eq!(d.pdf(0.0), 0.0);
        assert_eq!(d.cdf(-1.0), 0.0);
    }
}
