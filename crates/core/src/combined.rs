//! Combining fairshare vectors with other priority factors **in vector
//! space** — the research direction §III-C flags as future work: "one
//! interesting alternative is to reverse the problem and instead investigate
//! modeling other factors, such as job age, using a representation
//! combinable with the fairshare vectors."
//!
//! Instead of projecting the fairshare vector down to a scalar (losing one
//! of Table I's properties), every other factor is *lifted* into the vector
//! representation and blended element-wise:
//!
//! * scalar factors (age, QoS, size ∈ [0, 1]) become *uniform vectors* — the
//!   same element at every level, centered so factor 0.5 is the balance
//!   point;
//! * the combined vector is the weight-normalized affine blend per level,
//!   which stays inside the resolution range;
//! * jobs are compared lexicographically on the combined vector.
//!
//! What survives (unlike any scalar projection): infinite depth and
//! precision (elements stay `f64` per level), subgroup isolation (level
//! elements only blend with *uniform* offsets, so within-group order at
//! every level is preserved whenever the scalar factors tie), and
//! proportionality (the blend is affine). The price is that the result is a
//! vector — it cannot feed a stock RMS's scalar factor machinery, which is
//! why it is future work in the paper and an optional mode here.

use crate::vector::{FairshareVector, Resolution};
use std::cmp::Ordering;

/// Weights of the vector-space priority blend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorWeights {
    /// Weight of the fairshare vector.
    pub fairshare: f64,
    /// Weight of the (lifted) job-age factor.
    pub age: f64,
    /// Weight of the (lifted) QoS factor.
    pub qos: f64,
    /// Weight of the (lifted) size factor.
    pub size: f64,
}

impl VectorWeights {
    /// Fairshare only — reduces exactly to fairshare-vector ordering.
    pub fn fairshare_only() -> Self {
        Self {
            fairshare: 1.0,
            age: 0.0,
            qos: 0.0,
            size: 0.0,
        }
    }

    fn total(&self) -> f64 {
        self.fairshare + self.age + self.qos + self.size
    }
}

impl Default for VectorWeights {
    fn default() -> Self {
        Self::fairshare_only()
    }
}

/// A job's combined priority vector: fairshare structure per level plus
/// uniform lifts of the scalar factors.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedVector {
    elements: Vec<f64>,
    resolution: Resolution,
}

impl CombinedVector {
    /// Blend a fairshare vector with scalar factors (each in `[0, 1]`,
    /// where 0.5 is neutral) under the given weights.
    ///
    /// Per level `l`:
    /// `combined[l] = (w_fs·fs[l] + Σ_f w_f·lift(factor_f)) / Σ w`
    /// with `lift(x) = x·max_value` (so 0.5 lifts to the balance point).
    pub fn blend(
        fairshare: &FairshareVector,
        age: f64,
        qos: f64,
        size: f64,
        weights: &VectorWeights,
    ) -> Self {
        let resolution = fairshare.resolution();
        let total = weights.total().max(f64::MIN_POSITIVE);
        let lift = |x: f64| x.clamp(0.0, 1.0) * resolution.max_value;
        let uniform =
            (weights.age * lift(age) + weights.qos * lift(qos) + weights.size * lift(size)) / total;
        let scale = weights.fairshare / total;
        let elements = fairshare
            .elements()
            .iter()
            .map(|&e| scale * e + uniform)
            .collect();
        Self {
            elements,
            resolution,
        }
    }

    /// The blended element values, root level first.
    pub fn elements(&self) -> &[f64] {
        &self.elements
    }

    /// Lexicographic comparison from the root level (higher = runs first),
    /// padding the shorter vector with the blend of the balance point.
    pub fn compare(&self, other: &CombinedVector) -> Ordering {
        let depth = self.elements.len().max(other.elements.len());
        for i in 0..depth {
            let a = self
                .elements
                .get(i)
                .copied()
                .unwrap_or(self.resolution.balance());
            let b = other
                .elements
                .get(i)
                .copied()
                .unwrap_or(other.resolution.balance());
            match a.partial_cmp(&b).expect("blend of finite elements") {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// A scalar view for display/compatibility: the mean element rescaled to
    /// `[0, 1]`. (Ordering by this scalar is lossy; use [`compare`] to rank.)
    ///
    /// [`compare`]: CombinedVector::compare
    pub fn scalar_view(&self) -> f64 {
        if self.elements.is_empty() {
            return 0.5;
        }
        let mean: f64 = self.elements.iter().sum::<f64>() / self.elements.len() as f64;
        mean / self.resolution.max_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs(elements: Vec<f64>) -> FairshareVector {
        FairshareVector::from_elements(elements, Resolution::PAPER)
    }

    #[test]
    fn fairshare_only_preserves_vector_order() {
        let w = VectorWeights::fairshare_only();
        let a = fs(vec![6000.0, 1000.0]);
        let b = fs(vec![5000.0, 9000.0]);
        let ca = CombinedVector::blend(&a, 0.9, 0.9, 0.9, &w);
        let cb = CombinedVector::blend(&b, 0.1, 0.1, 0.1, &w);
        // Zero-weight factors have no influence.
        assert_eq!(ca.compare(&cb), a.compare(&b));
    }

    #[test]
    fn age_breaks_fairshare_ties() {
        let w = VectorWeights {
            fairshare: 0.8,
            age: 0.2,
            qos: 0.0,
            size: 0.0,
        };
        let v = fs(vec![5000.0, 5000.0]);
        let young = CombinedVector::blend(&v, 0.1, 0.5, 0.5, &w);
        let old = CombinedVector::blend(&v, 0.9, 0.5, 0.5, &w);
        assert_eq!(old.compare(&young), Ordering::Greater);
    }

    #[test]
    fn subgroup_isolation_survives_blending() {
        // Same scalar factors: within-level order identical to fairshare
        // order at every level — no cross-level leakage (what the percental
        // projection loses).
        let w = VectorWeights {
            fairshare: 0.5,
            age: 0.3,
            qos: 0.1,
            size: 0.1,
        };
        let a = fs(vec![5000.0, 7000.0]);
        let b = fs(vec![5000.0, 3000.0]);
        let ca = CombinedVector::blend(&a, 0.4, 0.5, 0.6, &w);
        let cb = CombinedVector::blend(&b, 0.4, 0.5, 0.6, &w);
        assert_eq!(ca.compare(&cb), Ordering::Greater);
        assert_eq!(ca.elements()[0], cb.elements()[0], "level 0 untouched");
    }

    #[test]
    fn proportionality_of_blend() {
        // Element differences scale linearly with the fairshare weight.
        let w = VectorWeights {
            fairshare: 0.5,
            age: 0.5,
            qos: 0.0,
            size: 0.0,
        };
        let a = fs(vec![6000.0]);
        let b = fs(vec![4000.0]);
        let ca = CombinedVector::blend(&a, 0.5, 0.5, 0.5, &w);
        let cb = CombinedVector::blend(&b, 0.5, 0.5, 0.5, &w);
        let diff = ca.elements()[0] - cb.elements()[0];
        assert!((diff - 0.5 * 2000.0).abs() < 1e-9, "{diff}");
    }

    #[test]
    fn blend_stays_in_range() {
        let w = VectorWeights {
            fairshare: 0.25,
            age: 0.25,
            qos: 0.25,
            size: 0.25,
        };
        for fs_e in [0.0, 4999.5, 9999.0] {
            for f in [0.0, 0.5, 1.0] {
                let c = CombinedVector::blend(&fs(vec![fs_e]), f, f, f, &w);
                let e = c.elements()[0];
                assert!((0.0..=9999.0).contains(&e), "{e}");
            }
        }
    }

    #[test]
    fn neutral_factors_map_to_balance() {
        let w = VectorWeights {
            fairshare: 0.5,
            age: 0.5,
            qos: 0.0,
            size: 0.0,
        };
        let balanced = fs(vec![4999.5]);
        let c = CombinedVector::blend(&balanced, 0.5, 0.5, 0.5, &w);
        assert!((c.elements()[0] - 4999.5).abs() < 1e-9);
        assert!((c.scalar_view() - 0.5).abs() < 1e-4);
    }

    #[test]
    fn depth_and_precision_retained() {
        // Differences at depth 20 and at 1e-9 granularity both survive.
        let w = VectorWeights {
            fairshare: 0.9,
            age: 0.1,
            qos: 0.0,
            size: 0.0,
        };
        let mut deep_a = vec![4999.5; 20];
        let mut deep_b = vec![4999.5; 20];
        deep_a[19] = 4999.5 + 1e-9;
        deep_b[19] = 4999.5;
        let ca = CombinedVector::blend(&fs(deep_a), 0.5, 0.5, 0.5, &w);
        let cb = CombinedVector::blend(&fs(deep_b), 0.5, 0.5, 0.5, &w);
        assert_eq!(ca.compare(&cb), Ordering::Greater);
    }
}
