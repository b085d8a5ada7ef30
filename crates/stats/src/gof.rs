//! A goodness-of-fit diagnostic beyond Kolmogorov–Smirnov: the
//! Anderson–Darling statistic, more sensitive in the tails, where the
//! duration models' heavy tails live.

/// Anderson–Darling statistic `A²` of a sample against a theoretical CDF.
///
/// `A² = −n − (1/n) Σ_{i=1..n} (2i−1)[ln F(x_(i)) + ln(1 − F(x_(n+1−i)))]`.
///
/// Larger values indicate worse fits; as a rule of thumb `A² ≳ 2.5`
/// rejects at the 5% level for a fully specified distribution. CDF values
/// are clamped away from {0, 1} so samples at the support boundary don't
/// produce infinities.
pub fn anderson_darling<F: Fn(f64) -> f64>(data: &[f64], cdf: F) -> f64 {
    let n = data.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let nf = n as f64;
    let eps = 1e-12;
    let mut sum = 0.0;
    for i in 0..n {
        let fi = cdf(sorted[i]).clamp(eps, 1.0 - eps);
        let fni = cdf(sorted[n - 1 - i]).clamp(eps, 1.0 - eps);
        sum += (2.0 * i as f64 + 1.0) * (fi.ln() + (1.0 - fni).ln());
    }
    -nf - sum / nf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Gev, Normal, Weibull};
    use crate::distribution::ContinuousDistribution;
    use crate::sample_n;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ad_small_for_correct_model() {
        let d = Normal::new(3.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let xs = sample_n(&d, 3000, &mut rng);
        let a2 = anderson_darling(&xs, |x| d.cdf(x));
        assert!(a2 < 2.5, "A² = {a2}");
    }

    #[test]
    fn ad_large_for_wrong_model() {
        let d = Normal::new(0.0, 1.0).unwrap();
        let wrong = Normal::new(1.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let xs = sample_n(&d, 3000, &mut rng);
        let right = anderson_darling(&xs, |x| d.cdf(x));
        let shifted = anderson_darling(&xs, |x| wrong.cdf(x));
        assert!(shifted > 10.0 * right.max(0.1), "{shifted} vs {right}");
    }

    #[test]
    fn ad_sensitive_to_tail_mismatch() {
        // Same median, different tail: Weibull k=0.6 data vs k=1.2 model.
        let heavy = Weibull::new(100.0, 0.6).unwrap();
        let light = Weibull::new(100.0 * (2.0f64.ln()).powf(1.0 / 0.6 - 1.0 / 1.2), 1.2).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let xs = sample_n(&heavy, 2000, &mut rng);
        let own = anderson_darling(&xs, |x| heavy.cdf(x));
        let other = anderson_darling(&xs, |x| light.cdf(x));
        assert!(other > own * 5.0, "{other} vs {own}");
    }

    #[test]
    fn ad_handles_boundary_samples() {
        let d = Gev::new(-0.4, 10.0, 0.0).unwrap();
        // Samples at/near the bounded upper support must not blow up.
        let xs = vec![24.9, 25.0, 10.0, -5.0, 0.0];
        let a2 = anderson_darling(&xs, |x| d.cdf(x));
        assert!(a2.is_finite());
    }

    #[test]
    fn ad_empty_is_zero() {
        assert_eq!(anderson_darling(&[], |x| x), 0.0);
    }
}
