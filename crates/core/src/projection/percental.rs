//! Percental projection (§III-C): a user's total target share is the product
//! of normalized shares along its path ("a project share of 0.20 and a user
//! share of 0.25 result in a share of 0.05"); total usage is the product of
//! usage shares; the fairshare value is `target − usage` rescaled to
//! `[0, 1]`. "A similar approach is used in SLURM prior to version 2.5."
//!
//! Trade-off: products across levels destroy subgroup isolation — usage
//! shifts inside one subtree can reorder users in a sibling subtree (the
//! ✗ of Table I). This is the algorithm used in the paper's production
//! deployment and throughout §IV ("the percental projection approach is used
//! during testing").

use super::Projection;
use crate::arena::NodeId;
use crate::fairshare::FairshareTree;

/// Product-of-shares difference projection.
#[derive(Debug, Clone, Copy, Default)]
pub struct Percental;

impl Percental {
    /// Total (absolute) target and usage shares of the entity at arena node
    /// `id`: products of the per-level normalized shares, multiplied root
    /// first (the recursion unwinds root→leaf, so the products keep the
    /// bits of a top-down walk). `O(depth)`.
    pub fn total_shares(tree: &FairshareTree, id: NodeId) -> (f64, f64) {
        match tree.layout().parent(id) {
            None => (1.0, 1.0),
            Some(parent) => {
                let (target, usage) = Self::total_shares(tree, parent);
                let node = tree.share_of(id);
                (target * node.policy_share, usage * node.usage_share)
            }
        }
    }

    /// `target − usage ∈ [−1, 1]`, rescaled to `[0, 1]`.
    fn factor(tree: &FairshareTree, leaf: NodeId) -> f64 {
        let (target, usage) = Self::total_shares(tree, leaf);
        ((target - usage) + 1.0) / 2.0
    }
}

impl Projection for Percental {
    fn name(&self) -> &'static str {
        "percental"
    }

    fn project_leaf(&self, tree: &FairshareTree, leaf: NodeId) -> Option<f64> {
        Some(Self::factor(tree, leaf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GridUser;
    use crate::projection::test_util::{flat_tree, nested_tree};

    #[test]
    fn paper_share_product_example() {
        // "A project share of 0.20 and a user share of 0.25 result in 0.05."
        let (_, tree) = nested_tree(&[
            ("proj", 0.20, &[("u", 0.25, 10.0), ("v", 0.75, 10.0)]),
            ("rest", 0.80, &[("w", 1.0, 80.0)]),
        ]);
        let leaf = tree.user_node(&GridUser::new("u")).unwrap();
        let (target, _) = Percental::total_shares(&tree, leaf);
        assert!((target - 0.05).abs() < 1e-12);
    }

    #[test]
    fn balance_maps_to_half() {
        let tree = flat_tree(&[("a", 0.5, 500.0), ("b", 0.5, 500.0)]);
        let v = tree.by_user(&Percental.project(&tree));
        assert!((v[&GridUser::new("a")] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn under_served_above_half() {
        let tree = flat_tree(&[("a", 0.5, 900.0), ("b", 0.5, 100.0)]);
        let v = tree.by_user(&Percental.project(&tree));
        assert!(v[&GridUser::new("b")] > 0.5);
        assert!(v[&GridUser::new("a")] < 0.5);
        // Proportional: symmetric displacements around 0.5.
        let d = (v[&GridUser::new("b")] - 0.5) - (0.5 - v[&GridUser::new("a")]);
        assert!(d.abs() < 1e-12);
    }

    type GroupSpec<'a> = &'a [(&'a str, f64, &'a [(&'a str, f64, f64)])];

    #[test]
    fn isolation_violated_across_subtrees() {
        // Two users in group g2 with opposing target/usage differences; the
        // usage level of sibling group g1 flips their *projected* order even
        // though nothing inside g2 changed — the Table I ✗.
        // u1: high target (0.8) and high usage (900); u2: low target, low
        // usage. The sign of (target gap) − C·(usage gap) depends on C, the
        // usage share of g2 at the root — controlled entirely by g1.
        let base: GroupSpec = &[
            ("g1", 0.5, &[("x", 1.0, 100.0)]),
            ("g2", 0.5, &[("u1", 0.8, 900.0), ("u2", 0.2, 100.0)]),
        ];
        let heavy: GroupSpec = &[
            ("g1", 0.5, &[("x", 1.0, 100_000.0)]),
            ("g2", 0.5, &[("u1", 0.8, 900.0), ("u2", 0.2, 100.0)]),
        ];
        let (_, t1) = nested_tree(base);
        let (_, t2) = nested_tree(heavy);
        let v1 = t1.by_user(&Percental.project(&t1));
        let v2 = t2.by_user(&Percental.project(&t2));
        let order1 = v1[&GridUser::new("u1")] > v1[&GridUser::new("u2")];
        let order2 = v2[&GridUser::new("u1")] > v2[&GridUser::new("u2")];
        assert_ne!(order1, order2, "order must flip: {v1:?} vs {v2:?}");
    }

    #[test]
    fn values_in_unit_range() {
        let tree = flat_tree(&[("a", 1.0, 0.0), ("b", 0.0, 1000.0)]);
        for v in Percental.project(&tree).iter() {
            assert!((0.0..=1.0).contains(v));
        }
    }
}
