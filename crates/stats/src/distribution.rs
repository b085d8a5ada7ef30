//! The [`ContinuousDistribution`] trait: the common interface all fitted
//! distributions implement (PDF, CDF, quantile/ICDF, sampling, likelihood).

use rand::Rng;

/// Support of a continuous distribution on the real line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Support {
    /// Inclusive-ish lower bound (may be -inf).
    pub lo: f64,
    /// Inclusive-ish upper bound (may be +inf).
    pub hi: f64,
}

impl Support {
    /// Support over the whole real line.
    pub const REAL: Support = Support {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };
    /// Support on the positive half-line.
    pub const POSITIVE: Support = Support {
        lo: 0.0,
        hi: f64::INFINITY,
    };

    /// Whether `x` lies within the support.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }
}

/// A univariate continuous probability distribution.
///
/// Implementors must provide `pdf` and `cdf`; `icdf` defaults to a robust
/// numeric inversion of `cdf` but should be overridden where a closed form
/// exists (every sampling-heavy distribution in this crate does so).
pub trait ContinuousDistribution: Send + Sync + std::fmt::Debug {
    /// Human-readable distribution family name, e.g. `"GEV"`.
    fn name(&self) -> &'static str;

    /// Number of free parameters (used by BIC model selection).
    fn param_count(&self) -> usize;

    /// The distribution's parameters, for display and comparison.
    fn params(&self) -> Vec<(&'static str, f64)>;

    /// Support of the distribution.
    fn support(&self) -> Support;

    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Natural log of the density at `x`; `-inf` where the density is zero.
    fn ln_pdf(&self, x: f64) -> f64 {
        let p = self.pdf(x);
        if p > 0.0 {
            p.ln()
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Cumulative distribution function at `x`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile function (inverse CDF) for `p ∈ (0, 1)`.
    fn icdf(&self, p: f64) -> f64 {
        icdf_numeric(self, p)
    }

    /// Draw one sample using inverse-transform sampling.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64
    where
        Self: Sized,
    {
        // Open interval avoids icdf(0)/icdf(1) infinities.
        let u: f64 = rng.gen_range(f64::EPSILON..(1.0 - f64::EPSILON));
        self.icdf(u)
    }

    /// Total log-likelihood of an i.i.d. data set under this distribution.
    fn log_likelihood(&self, data: &[f64]) -> f64 {
        data.iter().map(|&x| self.ln_pdf(x)).sum()
    }
}

/// Numeric quantile via bracketing + bisection on the CDF.
///
/// Works for any monotone CDF; expands the bracket geometrically from an
/// interior point until it contains `p`, then bisects to ~1e-12 relative
/// precision. `Mixture::icdf` replays this bisection bit for bit.
pub fn icdf_numeric<D: ContinuousDistribution + ?Sized>(dist: &D, p: f64) -> f64 {
    bisect_quantile(dist.support(), p, |x| dist.cdf(x))
}

/// [`icdf_numeric`] over a CDF closure, read only as `cdf(x) > p` or
/// `cdf(x) < p`: a caller may answer `-inf`/`+inf` where it knows which.
pub(crate) fn bisect_quantile(sup: Support, p: f64, mut cdf: impl FnMut(f64) -> f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "icdf requires p in (0,1), got {p}");
    // Establish finite bracket [lo, hi] with cdf(lo) <= p <= cdf(hi).
    let mut lo = if sup.lo.is_finite() { sup.lo } else { -1.0 };
    let mut hi = if sup.hi.is_finite() { sup.hi } else { 1.0 };
    if !sup.lo.is_finite() {
        let mut step = 1.0;
        while cdf(lo) > p {
            lo -= step;
            step *= 2.0;
            if step > 1e300 {
                break;
            }
        }
    }
    if !sup.hi.is_finite() {
        let mut step = 1.0;
        while cdf(hi) < p {
            hi += step;
            step *= 2.0;
            if step > 1e300 {
                break;
            }
        }
    }
    // Bisect.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if !mid.is_finite() || mid == lo || mid == hi {
            break;
        }
        if cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo).abs() <= 1e-12 * (1.0 + mid.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Draw `n` samples into a vector.
pub fn sample_n<D: ContinuousDistribution, R: Rng + ?Sized>(
    dist: &D,
    n: usize,
    rng: &mut R,
) -> Vec<f64> {
    (0..n).map(|_| dist.sample(rng)).collect()
}
