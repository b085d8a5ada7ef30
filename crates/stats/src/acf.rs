//! Autocorrelation analysis (§IV-2: "The trace has been analyzed for
//! periodicity using auto correlation functions, searching for daily, weekly,
//! and monthly patterns for each user").

/// Sample autocorrelation function at lags `0..=max_lag`.
///
/// Uses the standard biased estimator
/// `r_k = Σ_{t} (x_t − x̄)(x_{t+k} − x̄) / Σ_t (x_t − x̄)²`, which guarantees
/// `|r_k| ≤ 1` and `r_0 = 1`.
pub fn acf(series: &[f64], max_lag: usize) -> Vec<f64> {
    let n = series.len();
    if n == 0 {
        return vec![];
    }
    let mean = series.iter().sum::<f64>() / n as f64;
    let denom: f64 = series.iter().map(|x| (x - mean).powi(2)).sum();
    let max_lag = max_lag.min(n.saturating_sub(1));
    if denom == 0.0 {
        // Constant series: define r_0 = 1, the rest 0.
        let mut out = vec![0.0; max_lag + 1];
        out[0] = 1.0;
        return out;
    }
    (0..=max_lag)
        .map(|k| {
            let num: f64 = (0..n - k)
                .map(|t| (series[t] - mean) * (series[t + k] - mean))
                .sum();
            num / denom
        })
        .collect()
}

/// Detect periodicity: return the lag in `1..=max_lag` with the highest
/// autocorrelation, together with that correlation, if it exceeds the 95%
/// white-noise significance band `±1.96/√n`.
pub fn dominant_period(series: &[f64], max_lag: usize) -> Option<(usize, f64)> {
    let r = acf(series, max_lag);
    if r.len() < 2 {
        return None;
    }
    let threshold = 1.96 / (series.len() as f64).sqrt();
    r.iter()
        .enumerate()
        .skip(1)
        .max_by(|a, b| a.1.total_cmp(b.1))
        .filter(|(_, &v)| v > threshold)
        .map(|(k, &v)| (k, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_zero_is_one() {
        let xs = [1.0, 3.0, 2.0, 5.0, 4.0];
        let r = acf(&xs, 3);
        assert!((r[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn acf_bounded() {
        let xs: Vec<f64> = (0..200).map(|i| ((i * 7919) % 101) as f64).collect();
        for &v in &acf(&xs, 50) {
            assert!(v.abs() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn periodic_series_detected() {
        // Strong period-7 signal ("weekly pattern").
        let xs: Vec<f64> = (0..700)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 7.0).sin())
            .collect();
        let (lag, r) = dominant_period(&xs, 30).unwrap();
        assert_eq!(lag, 7, "r={r}");
        assert!(r > 0.9);
    }

    #[test]
    fn white_noise_has_no_dominant_period() {
        // Deterministic pseudo-noise that decorrelates quickly.
        let xs: Vec<f64> = (0..2000)
            .map(|i| {
                // splitmix64 finalizer: full avalanche, decorrelated output.
                let mut h = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
                h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                h ^= h >> 31;
                (h >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        // May occasionally squeak over the band; require no strong period.
        if let Some((_, r)) = dominant_period(&xs, 50) {
            assert!(r < 0.15, "spurious correlation {r}");
        }
    }

    #[test]
    fn constant_series() {
        let xs = [2.0; 10];
        let r = acf(&xs, 4);
        assert_eq!(r[0], 1.0);
        assert!(r[1..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_series() {
        assert!(acf(&[], 5).is_empty());
        assert!(dominant_period(&[], 5).is_none());
    }
}
