//! Robust summary statistics. Following Downey & Feitelson (cited in §IV-2),
//! the paper prefers **medians** over means/CV because medians are resilient
//! to the arbitrary outlier-removal decisions that plague trace data.

/// Median of a data set (average of the two central order statistics for an
/// even count). Returns `None` on empty input.
pub fn median(data: &[f64]) -> Option<f64> {
    quantile(data, 0.5)
}

/// Empirical quantile using linear interpolation between order statistics
/// (type-7, the Matlab/NumPy default). Returns `None` on empty input.
pub fn quantile(data: &[f64], q: f64) -> Option<f64> {
    if data.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    })
}

/// Arithmetic mean. Returns `None` on empty input.
pub fn mean(data: &[f64]) -> Option<f64> {
    if data.is_empty() {
        None
    } else {
        Some(data.iter().sum::<f64>() / data.len() as f64)
    }
}

/// Population variance (divides by n). Returns `None` if fewer than 2 points.
pub fn variance(data: &[f64]) -> Option<f64> {
    if data.len() < 2 {
        return None;
    }
    let m = mean(data)?;
    Some(data.iter().map(|x| (x - m).powi(2)).sum::<f64>() / data.len() as f64)
}

/// Round to whole seconds as the paper does for median inter-arrival and
/// duration values ("the time stamps from the original trace are limited to
/// second accuracy").
pub fn to_whole_seconds(x: f64) -> u64 {
    x.round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&xs, 0.0), Some(10.0));
        assert_eq!(quantile(&xs, 1.0), Some(40.0));
        assert!((quantile(&xs, 0.5).unwrap() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn median_robust_to_outlier() {
        let clean = [1.0, 2.0, 3.0, 4.0, 5.0];
        let dirty = [1.0, 2.0, 3.0, 4.0, 1e9];
        assert_eq!(median(&clean), Some(3.0));
        assert_eq!(median(&dirty), Some(3.0));
        // Mean is destroyed by the same outlier — the paper's argument.
        assert!(mean(&dirty).unwrap() > 1e8);
    }

    #[test]
    fn population_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&xs).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn whole_seconds_rounding() {
        assert_eq!(to_whole_seconds(2.4), 2);
        assert_eq!(to_whole_seconds(2.5), 3);
        assert_eq!(to_whole_seconds(-1.0), 0);
    }
}
