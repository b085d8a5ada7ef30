//! Robust summary statistics. Following Downey & Feitelson (cited in §IV-2),
//! the paper prefers **medians** over means/CV because medians are resilient
//! to the arbitrary outlier-removal decisions that plague trace data — so
//! this module has medians and quantiles, and no mean.

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
    }

    #[test]
    fn whole_seconds_rounding() {
        assert_eq!(to_whole_seconds(2.4), 2);
        assert_eq!(to_whole_seconds(2.5), 3);
        assert_eq!(to_whole_seconds(-1.0), 0);
    }
}
