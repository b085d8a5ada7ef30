//! Order statistics of repeated measurements.

/// Quartiles of a sample, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) — the same
/// rule the acceptance driver applies, so spreads computed here and there
/// agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `values` (any order). A single value is its own
    /// quartiles.
    ///
    /// # Panics
    /// On an empty sample.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut x = values.to_vec();
        x.sort_by(f64::total_cmp);
        let n = x.len();
        if n == 1 {
            return Self {
                q1: x[0],
                median: x[0],
                q3: x[0],
                n,
            };
        }
        let cut = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
        };
        Self {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            n,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&ten);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert_eq!(Quartiles::of(&[4.0]).spread(), 0.0);
    }
}
