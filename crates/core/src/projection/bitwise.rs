//! Bitwise-vector projection (§III-C): each vector element is awarded N bits
//! of entropy; level values are bitwise-merged with the root level at the
//! most significant end, and the result is rescaled to `[0, 1]`.
//!
//! Trade-off: a double's 52-bit mantissa bounds `N · depth`, so both depth
//! and precision are finite — the ✗ entries of Table I.

use super::Projection;
use crate::arena::NodeId;
use crate::fairshare::FairshareTree;

/// Bit-merging projection with `bits_per_level` bits of entropy per level.
#[derive(Debug, Clone, Copy)]
pub struct BitwiseVector {
    /// Bits of entropy awarded to each hierarchy level (1..=52).
    pub bits_per_level: u32,
}

impl BitwiseVector {
    /// Maximum usable mantissa bits of an f64.
    pub const MANTISSA_BITS: u32 = 52;

    /// Create with the given per-level bit budget, clamped to 1..=52.
    pub fn new(bits_per_level: u32) -> Self {
        Self {
            bits_per_level: bits_per_level.clamp(1, Self::MANTISSA_BITS),
        }
    }

    /// How many levels fit in the mantissa before deeper levels are dropped.
    pub fn max_levels(&self) -> usize {
        (Self::MANTISSA_BITS / self.bits_per_level) as usize
    }

    /// Usable levels for a tree of the given depth. Public so provenance
    /// capture (the explain layer) can record the exact level count used.
    pub fn levels_for(&self, tree: &FairshareTree) -> usize {
        tree.depth().min(self.max_levels()).max(1)
    }

    /// Bit-merge one user's vector into a `[0, 1]` scalar. Public so a
    /// captured [`Explanation`](crate::explain::Explanation) can replay the
    /// projection bit-for-bit from its recorded vector and level count.
    pub fn merge_vector(&self, vec: &crate::vector::FairshareVector, levels: usize) -> f64 {
        let n = self.bits_per_level;
        let buckets = 1u64 << n;
        let max_merged = (1u64 << (n as u64 * levels as u64)) - 1;
        let res_max = vec.resolution().max_value;
        let mut acc: u64 = 0;
        let padded = vec.padded(levels);
        for (i, &e) in padded.elements().iter().take(levels).enumerate() {
            // Quantize the element into 2^N buckets — this is where the
            // N bits of entropy per level are awarded.
            let q = (e / res_max * (buckets - 1) as f64).round() as u64;
            acc |= q.min(buckets - 1) << ((levels - 1 - i) as u64 * n as u64);
        }
        acc as f64 / max_merged as f64
    }
}

impl Default for BitwiseVector {
    /// 8 bits per level: 6 usable levels, 256 priority steps per level.
    fn default() -> Self {
        Self::new(8)
    }
}

impl Projection for BitwiseVector {
    fn name(&self) -> &'static str {
        "bitwise"
    }

    fn project(&self, tree: &FairshareTree) -> Vec<f64> {
        let levels = self.levels_for(tree);
        let vectors = tree.all_vectors().into_iter();
        vectors
            .map(|(_, vec)| self.merge_vector(&vec, levels))
            .collect()
    }

    fn project_leaf(&self, tree: &FairshareTree, leaf: NodeId) -> Option<f64> {
        Some(self.merge_vector(&tree.vector_of_id(leaf), self.levels_for(tree)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GridUser;
    use crate::projection::test_util::{flat_tree, nested_tree};

    #[test]
    fn root_level_dominates() {
        let (_, tree) = nested_tree(&[
            ("g1", 0.5, &[("a", 1.0, 900.0)]),
            ("g2", 0.5, &[("b", 1.0, 100.0)]),
        ]);
        let v = tree.by_user(&BitwiseVector::default().project(&tree));
        // g2/b is under-served at the root level → strictly higher value.
        assert!(v[&GridUser::new("b")] > v[&GridUser::new("a")]);
    }

    #[test]
    fn values_in_unit_range() {
        let tree = flat_tree(&[("a", 0.6, 0.0), ("b", 0.4, 1000.0)]);
        for v in BitwiseVector::default().project(&tree).iter() {
            assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn depth_limited_by_mantissa() {
        let p = BitwiseVector::new(8);
        assert_eq!(p.max_levels(), 6);
        let p = BitwiseVector::new(13);
        assert_eq!(p.max_levels(), 4);
        let p = BitwiseVector::new(52);
        assert_eq!(p.max_levels(), 1);
    }

    #[test]
    fn precision_limited_by_buckets() {
        // Two users whose elements differ by less than one bucket width
        // (and sit away from a bucket boundary) collapse to the same
        // projected value — the ∞-precision ✗.
        let tree = flat_tree(&[("a", 0.3, 100.000), ("b", 0.3, 100.001), ("c", 0.4, 800.0)]);
        let v = tree.by_user(&BitwiseVector::new(4).project(&tree));
        assert_eq!(v[&GridUser::new("a")], v[&GridUser::new("b")]);
    }

    #[test]
    fn proportionality_within_quantization() {
        // Flat tree: projected value is affine in the element value, so value
        // gaps mirror element gaps (up to one quantization step).
        let tree = flat_tree(&[
            ("a", 0.25, 0.0),
            ("b", 0.25, 250.0),
            ("c", 0.25, 500.0),
            ("d", 0.25, 250.0),
        ]);
        let proj = BitwiseVector::new(16);
        let v = tree.by_user(&proj.project(&tree));
        let elem = |name: &str| {
            tree.vector_for_user(&GridUser::new(name))
                .unwrap()
                .elements()[0]
        };
        let val_ratio = (v[&GridUser::new("a")] - v[&GridUser::new("b")])
            / (v[&GridUser::new("b")] - v[&GridUser::new("c")]);
        let elem_ratio = (elem("a") - elem("b")) / (elem("b") - elem("c"));
        assert!(
            (val_ratio - elem_ratio).abs() < 0.01,
            "{val_ratio} vs {elem_ratio}"
        );
    }

    #[test]
    fn bits_clamped() {
        assert_eq!(BitwiseVector::new(0).bits_per_level, 1);
        assert_eq!(BitwiseVector::new(99).bits_per_level, 52);
    }
}
