//! Continuous uniform distribution on `[a, b]`.

use crate::distribution::{ContinuousDistribution, Support};

/// Uniform distribution on the interval `[a, b]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    /// Lower bound.
    pub a: f64,
    /// Upper bound (> a).
    pub b: f64,
}

impl Uniform {
    /// Create a uniform distribution; `None` unless `a < b` and both finite.
    pub fn new(a: f64, b: f64) -> Option<Self> {
        (a < b && a.is_finite() && b.is_finite()).then_some(Self { a, b })
    }

    /// MLE: a = min, b = max (slightly widened to keep all samples interior).
    pub fn fit(data: &[f64]) -> Option<Self> {
        if data.len() < 2 {
            return None;
        }
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let pad = 1e-12 * (hi - lo).abs().max(1.0);
        Self::new(lo - pad, hi + pad)
    }
}

impl ContinuousDistribution for Uniform {
    fn name(&self) -> &'static str {
        "Uniform"
    }
    fn param_count(&self) -> usize {
        2
    }
    fn params(&self) -> Vec<(&'static str, f64)> {
        vec![("a", self.a), ("b", self.b)]
    }
    fn support(&self) -> Support {
        Support {
            lo: self.a,
            hi: self.b,
        }
    }
    fn pdf(&self, x: f64) -> f64 {
        if x < self.a || x > self.b {
            0.0
        } else {
            1.0 / (self.b - self.a)
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= self.a {
            0.0
        } else if x >= self.b {
            1.0
        } else {
            (x - self.a) / (self.b - self.a)
        }
    }
    fn icdf(&self, p: f64) -> f64 {
        self.a + p * (self.b - self.a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_properties() {
        let d = Uniform::new(-1.0, 3.0).unwrap();
        assert_eq!(d.pdf(0.0), 0.25);
        assert_eq!(d.pdf(5.0), 0.0);
        assert_eq!(d.cdf(1.0), 0.5);
        assert_eq!(d.icdf(0.5), 1.0);
    }

    #[test]
    fn rejects_degenerate() {
        assert!(Uniform::new(1.0, 1.0).is_none());
        assert!(Uniform::new(2.0, 1.0).is_none());
    }

    #[test]
    fn fit_covers_data() {
        let data = [0.5, 0.9, 0.1, 0.7];
        let d = Uniform::fit(&data).unwrap();
        assert!(d.a <= 0.1 && d.b >= 0.9);
        for &x in &data {
            assert!(d.pdf(x) > 0.0);
        }
    }
}
