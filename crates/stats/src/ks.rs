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

/// Asymptotic p-value for a one-sample KS statistic `d` with sample size `n`.
///
/// Uses the Kolmogorov distribution tail
/// `Q(λ) = 2 Σ_{j≥1} (−1)^{j−1} exp(−2 j² λ²)` with the standard
/// finite-sample correction `λ = (√n + 0.12 + 0.11/√n)·d`.
pub fn ks_p_value(d: f64, n: usize) -> f64 {
    if d <= 0.0 {
        return 1.0;
    }
    let sqrt_n = (n as f64).sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    let mut sum = 0.0;
    let mut sign = 1.0;
    for j in 1..=100 {
        let term = (-2.0 * (j as f64).powi(2) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// Two-sample KS statistic between two empirical samples.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut xa: Vec<f64> = a.to_vec();
    let mut xb: Vec<f64> = b.to_vec();
    xa.sort_by(f64::total_cmp);
    xb.sort_by(f64::total_cmp);
    let (na, nb) = (xa.len() as f64, xb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d = 0.0f64;
    while i < xa.len() && j < xb.len() {
        let x = xa[i].min(xb[j]);
        while i < xa.len() && xa[i] <= x {
            i += 1;
        }
        while j < xb.len() && xb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
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
    fn p_value_monotone_in_d() {
        let p1 = ks_p_value(0.02, 1000);
        let p2 = ks_p_value(0.05, 1000);
        let p3 = ks_p_value(0.15, 1000);
        assert!(p1 > p2 && p2 > p3, "{p1} {p2} {p3}");
        assert!(p1 <= 1.0 && p3 >= 0.0);
    }

    #[test]
    fn p_value_extremes() {
        assert_eq!(ks_p_value(0.0, 100), 1.0);
        assert!(ks_p_value(0.9, 100) < 1e-10);
    }

    #[test]
    fn two_sample_identical_is_zero() {
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        assert_eq!(ks_two_sample(&a, &a), 0.0);
    }

    #[test]
    fn two_sample_disjoint_is_one() {
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let b: Vec<f64> = (100..150).map(|i| i as f64).collect();
        assert!((ks_two_sample(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(ks_statistic(&[], |x| x), 0.0);
        assert_eq!(ks_two_sample(&[], &[1.0]), 0.0);
    }
}
