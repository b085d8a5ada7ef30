//! Empirical cumulative distribution functions (used to reproduce Figures 6
//! and 7: empirical vs fitted CDFs for job arrival and job size).

/// An empirical CDF built from a sample.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build an ECDF; non-finite values are dropped.
    pub fn new(data: &[f64]) -> Self {
        let mut sorted: Vec<f64> = data.iter().cloned().filter(|x| x.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        Self { sorted }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F_n(x)`: fraction of samples ≤ x.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point returns the count of elements <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile: smallest sample x with F_n(x) ≥ p.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() || !(0.0..=1.0).contains(&p) {
            return None;
        }
        let n = self.sorted.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        Some(self.sorted[idx])
    }

    /// Evaluate the ECDF on a uniform grid of `points` x-values spanning the
    /// data — the series used when printing figure data.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        let (Some(&lo), Some(&hi)) = (self.sorted.first(), self.sorted.last()) else {
            return vec![];
        };
        if points == 0 {
            return vec![];
        }
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        (0..points)
            .map(|i| {
                let x = lo + span * i as f64 / (points.max(2) - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }

    /// The sorted sample values.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_values() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(e.quantile(0.25), Some(10.0));
        assert_eq!(e.quantile(0.5), Some(20.0));
        assert_eq!(e.quantile(1.0), Some(40.0));
        assert_eq!(e.quantile(1.5), None);
    }

    #[test]
    fn drops_non_finite() {
        let e = Ecdf::new(&[1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn monotone_series() {
        let e = Ecdf::new(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        let s = e.series(50);
        assert_eq!(s.len(), 50);
        for w in s.windows(2) {
            assert!(w[0].1 <= w[1].1);
            assert!(w[0].0 <= w[1].0);
        }
        assert!((s.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_is_safe() {
        let e = Ecdf::new(&[]);
        assert!(e.is_empty());
        assert_eq!(e.eval(1.0), 0.0);
        assert!(e.quantile(0.5).is_none());
        assert!(e.series(10).is_empty());
    }
}
