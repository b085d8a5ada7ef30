//! Fixed-width histograms (the paper's Figures 4 and 5 bin job arrivals with
//! a bin size of one day; the USS service produces per-user usage histograms
//! over configurable intervals).

/// A fixed-bin-width histogram over `[lo, hi)`.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    /// Samples below `lo` or at/above `hi`.
    outliers: u64,
    total: u64,
}

impl Histogram {
    /// Create a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            outliers: 0,
            total: 0,
        }
    }

    /// Record one observation.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo || x >= self.hi || !x.is_finite() {
            self.outliers += 1;
            return;
        }
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = ((x - self.lo) / w) as usize;
        let idx = idx.min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Total observations added (including outliers).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observations outside the range.
    pub fn outliers(&self) -> u64 {
        self.outliers
    }

    /// Probability-density estimate per bin: count / (total · width), so the
    /// histogram integrates to (1 − outlier fraction).
    pub fn density(&self) -> Vec<f64> {
        let norm = self.total.max(1) as f64 * self.bin_width();
        self.counts.iter().map(|&c| c as f64 / norm).collect()
    }

    /// Fraction of in-range observations per bin.
    pub fn fractions(&self) -> Vec<f64> {
        let t = self.total.max(1) as f64;
        self.counts.iter().map(|&c| c as f64 / t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_correctly() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(0.5);
        h.add(1.5);
        h.add(1.7);
        h.add(9.99);
        assert_eq!(h.counts(), &[1, 2, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.outliers(), 0);
    }

    #[test]
    fn outliers_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-0.1);
        h.add(1.0); // hi is exclusive
        h.add(f64::NAN);
        assert_eq!(h.outliers(), 3);
        assert_eq!(h.counts().iter().sum::<u64>(), 0);
    }

    #[test]
    fn density_integrates_to_one() {
        let mut h = Histogram::new(0.0, 10.0, 20);
        for i in 0..1000 {
            h.add(i as f64 / 100.0);
        }
        let integral: f64 = h.density().iter().sum::<f64>() * h.bin_width();
        assert!((integral - 1.0).abs() < 1e-9, "{integral}");
    }

    #[test]
    fn bin_centers() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.bin_center(0), 1.0);
        assert_eq!(h.bin_center(4), 9.0);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        Histogram::new(0.0, 1.0, 0);
    }
}
