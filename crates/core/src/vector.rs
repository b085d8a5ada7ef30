//! Fairshare vectors (§III-C, Figure 3): the per-user priority
//! representation extracted from the fairshare tree.
//!
//! A vector holds one element per hierarchy level along the path from the
//! root to the user's leaf. Elements live in a configurable value range (the
//! paper's example uses 0–9999) but are stored as `f64`: "the precision of
//! the values are limited only by the numerical resolution of floating point
//! representation" — quantization only happens inside projections that need
//! it (bitwise). Paths shorter than the tree depth are padded with the
//! *balance point*, the center of the value range.

use std::cmp::Ordering;

/// The element value range: distances are mapped onto `0.0..=max_value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resolution {
    /// Largest element value (e.g. 9999.0).
    pub max_value: f64,
}

impl Resolution {
    /// The paper's example resolution: elements in 0–9999.
    pub const PAPER: Resolution = Resolution { max_value: 9999.0 };

    /// Map a signed distance `d ∈ [−1, 1]` onto the value range:
    /// d = −1 ↦ 0, d = 0 ↦ balance point (center), d = +1 ↦ max_value.
    /// Full floating-point precision is retained.
    pub fn scale(&self, d: f64) -> f64 {
        (d.clamp(-1.0, 1.0) + 1.0) / 2.0 * self.max_value
    }

    /// The balance-point element: the center of the value range, used to pad
    /// short paths (like `/LQ` in Figure 3).
    pub fn balance(&self) -> f64 {
        self.max_value / 2.0
    }
}

impl Default for Resolution {
    fn default() -> Self {
        Resolution::PAPER
    }
}

/// A fairshare vector: one element per hierarchy level, most significant
/// (closest to the root) first.
#[derive(Debug, Clone, PartialEq)]
pub struct FairshareVector {
    elements: Vec<f64>,
    resolution: Resolution,
}

impl FairshareVector {
    /// Build from raw element values (already in the resolution range).
    pub fn from_elements(elements: Vec<f64>, resolution: Resolution) -> Self {
        debug_assert!(elements
            .iter()
            .all(|&e| (0.0..=resolution.max_value).contains(&e)));
        Self {
            elements,
            resolution,
        }
    }

    /// The element values, root level first.
    pub fn elements(&self) -> &[f64] {
        &self.elements
    }

    /// Number of levels this vector carries (before padding).
    pub fn depth(&self) -> usize {
        self.elements.len()
    }

    /// The resolution the elements are scaled with.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// A copy padded with balance-point elements up to `depth` levels —
    /// how short paths (like `/LQ` in Figure 3) are extended before
    /// comparison or projection. The vector representation "supports an
    /// arbitrary depth in the hierarchy, since the number of elements is
    /// unlimited".
    pub fn padded(&self, depth: usize) -> FairshareVector {
        let mut elements = self.elements.clone();
        while elements.len() < depth {
            elements.push(self.resolution.balance());
        }
        FairshareVector {
            elements,
            resolution: self.resolution,
        }
    }

    /// Compare two vectors element-wise from the most significant (root)
    /// level, padding the shorter with balance points. Greater = higher
    /// priority (more under-served). This is the "descending sort" order of
    /// the dictionary projection.
    pub fn compare(&self, other: &FairshareVector) -> Ordering {
        let depth = self.depth().max(other.depth());
        let bal_a = self.resolution.balance();
        let bal_b = other.resolution.balance();
        for i in 0..depth {
            let a = self.elements.get(i).copied().unwrap_or(bal_a);
            let b = other.elements.get(i).copied().unwrap_or(bal_b);
            match a.total_cmp(&b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for FairshareVector {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.compare(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_endpoints_and_balance() {
        let r = Resolution::PAPER;
        assert_eq!(r.scale(-1.0), 0.0);
        assert_eq!(r.scale(1.0), 9999.0);
        assert_eq!(r.balance(), 4999.5);
        assert_eq!(r.scale(-2.0), 0.0); // clamped
        assert_eq!(r.scale(2.0), 9999.0);
    }

    #[test]
    fn precision_unlimited_by_resolution() {
        // Two distances closer than any integer quantum stay distinguishable.
        let r = Resolution::PAPER;
        let a = FairshareVector::from_elements(vec![r.scale(1e-12)], r);
        let b = FairshareVector::from_elements(vec![r.scale(2e-12)], r);
        assert_eq!(b.compare(&a), Ordering::Greater);
    }

    #[test]
    fn ordering_is_lexicographic_from_root() {
        let r = Resolution::PAPER;
        let a = FairshareVector::from_elements(vec![6000.0, 1000.0], r);
        let b = FairshareVector::from_elements(vec![5000.0, 9999.0], r);
        assert_eq!(a.compare(&b), Ordering::Greater); // root level dominates
    }

    #[test]
    fn padding_with_balance_point() {
        let r = Resolution::PAPER;
        // Figure 3: /LQ path ends early, padded with balance elements.
        let lq = FairshareVector::from_elements(vec![7000.0], r);
        let padded = lq.padded(3);
        assert_eq!(padded.elements(), &[7000.0, 4999.5, 4999.5]);
    }

    #[test]
    fn compare_pads_shorter_vector() {
        let r = Resolution::PAPER;
        let short = FairshareVector::from_elements(vec![6000.0], r);
        let long_low = FairshareVector::from_elements(vec![6000.0, 4000.0], r);
        let long_high = FairshareVector::from_elements(vec![6000.0, 6000.0], r);
        assert_eq!(short.compare(&long_low), Ordering::Greater);
        assert_eq!(short.compare(&long_high), Ordering::Less);
        assert_eq!(
            short.compare(&FairshareVector::from_elements(vec![6000.0, 4999.5], r)),
            Ordering::Equal
        );
    }

    #[test]
    fn arbitrary_depth_supported() {
        let r = Resolution::PAPER;
        let deep = FairshareVector::from_elements(vec![4999.5; 64], r);
        assert_eq!(deep.depth(), 64);
        let mut deeper = vec![4999.5; 64];
        deeper.push(5000.0);
        let deeper = FairshareVector::from_elements(deeper, r);
        assert_eq!(deeper.compare(&deep), Ordering::Greater);
    }
}
