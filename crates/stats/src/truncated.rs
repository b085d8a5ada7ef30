//! Range-restricted ICDF sampling.
//!
//! §IV-2: "To ensure that all samples are within the intended range, the
//! distribution of random values \[0,1\] is therefore re-scaled to fit within
//! the desired time frame. For example, in the case of U65, the effective
//! range [7.451e−3, 9.946e−1] is used to ensure all generated values are
//! within the same calendar year."
//!
//! [`RangeRescaled`] implements exactly this: instead of truncating the
//! *distribution*, the *uniform input* to the ICDF is affinely re-scaled to a
//! sub-interval `[u_lo, u_hi] ⊂ [0, 1]`, guaranteeing every sample lies in
//! `[icdf(u_lo), icdf(u_hi)]`.

use crate::distribution::ContinuousDistribution;
use rand::Rng;

/// A sampler that re-scales uniform draws into `[u_lo, u_hi]` before applying
/// a distribution's ICDF, bounding all samples to the corresponding x-range.
#[derive(Debug, Clone)]
pub struct RangeRescaled<D> {
    dist: D,
    u_lo: f64,
    u_hi: f64,
}

impl<D: ContinuousDistribution> RangeRescaled<D> {
    /// Restrict sampling to the probability sub-range `[u_lo, u_hi]`.
    ///
    /// Returns `None` unless `0 ≤ u_lo < u_hi ≤ 1` (degenerate or inverted
    /// ranges are rejected).
    pub fn new(dist: D, u_lo: f64, u_hi: f64) -> Option<Self> {
        (0.0..1.0).contains(&u_lo).then_some(())?;
        (u_hi > u_lo && u_hi <= 1.0).then_some(())?;
        Some(Self { dist, u_lo, u_hi })
    }

    /// Restrict sampling so every sample lies in `[x_lo, x_hi]` by mapping
    /// the bounds through the CDF.
    pub fn for_x_range(dist: D, x_lo: f64, x_hi: f64) -> Option<Self> {
        let u_lo = dist.cdf(x_lo).clamp(0.0, 1.0 - 1e-12);
        let u_hi = dist.cdf(x_hi).clamp(u_lo + 1e-12, 1.0);
        Self::new(dist, u_lo, u_hi)
    }

    /// The underlying distribution.
    pub fn dist(&self) -> &D {
        &self.dist
    }

    /// The probability sub-range.
    pub fn u_range(&self) -> (f64, f64) {
        (self.u_lo, self.u_hi)
    }

    /// The x-range all samples fall into.
    pub fn x_range(&self) -> (f64, f64) {
        (
            self.dist.icdf(self.u_lo.max(1e-15)),
            self.dist.icdf(self.u_hi.min(1.0 - 1e-15)),
        )
    }

    /// Map a uniform value `u ∈ [0,1]` to a sample (deterministic transform).
    pub fn transform(&self, u: f64) -> f64 {
        let v = self.u_lo + u.clamp(0.0, 1.0) * (self.u_hi - self.u_lo);
        self.dist.icdf(v.clamp(1e-15, 1.0 - 1e-15))
    }

    /// Draw one bounded sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.transform(rng.gen::<f64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Gev, Normal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_u65_range_bounds_samples() {
        // The exact effective range quoted in the paper for U65.
        let d = Gev::new(-0.386, 19.5, 73.5).unwrap();
        let r = RangeRescaled::new(d, 7.451e-3, 9.946e-1).unwrap();
        let (x_lo, x_hi) = r.x_range();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5000 {
            let x = r.sample(&mut rng);
            assert!(
                x >= x_lo - 1e-9 && x <= x_hi + 1e-9,
                "{x} not in [{x_lo},{x_hi}]"
            );
        }
    }

    #[test]
    fn transform_monotone() {
        let d = Normal::new(0.0, 1.0).unwrap();
        let r = RangeRescaled::new(d, 0.1, 0.9).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let x = r.transform(i as f64 / 20.0);
            assert!(x >= prev);
            prev = x;
        }
    }

    #[test]
    fn x_range_constructor() {
        let d = Normal::new(0.0, 1.0).unwrap();
        let r = RangeRescaled::for_x_range(d, -1.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..2000 {
            let x = r.sample(&mut rng);
            assert!((-1.0001..=1.0001).contains(&x), "{x}");
        }
    }

    #[test]
    fn rejects_bad_ranges() {
        let d = Normal::new(0.0, 1.0).unwrap();
        assert!(RangeRescaled::new(d, 0.5, 0.5).is_none());
        assert!(RangeRescaled::new(d, 0.9, 0.1).is_none());
        assert!(RangeRescaled::new(d, -0.1, 0.5).is_none());
        assert!(RangeRescaled::new(d, 0.5, 1.1).is_none());
    }
}
