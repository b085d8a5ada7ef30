//! Kolmogorov–Smirnov goodness-of-fit test (§IV-2 of the paper reports KS
//! statistics for every fitted distribution in Tables II and III).

/// One-sample Kolmogorov–Smirnov statistic: `D = sup_x |F_n(x) − F(x)|`.
///
/// `cdf` is the theoretical CDF under test. Handles the standard two-sided
/// empirical-step comparison (checks both `i/n − F(x_i)` and `F(x_i) − (i−1)/n`).
pub fn ks_statistic<F: Fn(f64) -> f64>(data: &[f64], cdf: F) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let f = cdf(x).clamp(0.0, 1.0);
        let hi = (i as f64 + 1.0) / n - f;
        let lo = f - i as f64 / n;
        d = d.max(hi).max(lo);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_fit_small_statistic() {
        // Uniform grid against uniform CDF: D = 1/(2n) by construction... here
        // grid midpoints give D = 1/(2n).
        let n = 100;
        let data: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let d = ks_statistic(&data, |x| x.clamp(0.0, 1.0));
        assert!((d - 0.005).abs() < 1e-12, "d={d}");
    }

    #[test]
    fn bad_fit_large_statistic() {
        let data: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        // CDF of a point mass far away: everything at F=0.
        let d = ks_statistic(&data, |_| 0.0);
        assert!(d >= 0.99);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(ks_statistic(&[], |x| x), 0.0);
    }
}
