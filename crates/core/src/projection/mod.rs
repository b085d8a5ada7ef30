//! Projections from fairshare vectors to single numerical values (§III-C).
//!
//! SLURM and Maui combine priority *factors* — each a float in `[0, 1]` —
//! with configurable weights. To feed globally computed fairshare into that
//! machinery, the fairshare vector must be projected to a `[0, 1]` scalar.
//! "A projection of the vector into a floating point number can in practice
//! not be done while still retaining all properties of the fairshare
//! vectors" — each algorithm trades something away (Table I):
//!
//! | | ∞ Depth | ∞ Precision | Subgroup isolation | Proportional | Combinable |
//! |---|---|---|---|---|---|
//! | Fairshare vectors | ✓ | ✓ | ✓ | ✓ | ✗ |
//! | Dictionary ordering | ✓ | ✓ | ✓ | ✗ | ✓ |
//! | Bitwise vector | ✗ | ✗ | ✓ | ✓ | ✓ |
//! | Percental | ✓ | ✓ | ✗ | ✓ | ✓ |

mod bitwise;
mod dictionary;
mod percental;
pub mod properties;

pub use bitwise::BitwiseVector;
pub use dictionary::{rank_value, DictionaryOrdering};
pub use percental::Percental;

use crate::arena::NodeId;
use crate::fairshare::FairshareTree;

/// A projection algorithm mapping every user's fairshare state to a scalar
/// priority factor in `[0, 1]`.
pub trait Projection: Send + Sync + std::fmt::Debug {
    /// Algorithm name for display/config.
    fn name(&self) -> &'static str;

    /// Project every user in the tree to a `[0, 1]` factor: one row over
    /// the [`UserId`](crate::arena::UserId)s of the tree's layout. A user
    /// under several leaves is projected from the last one
    /// ([`FairshareTree::leaf_of`]).
    fn project(&self, tree: &FairshareTree) -> Vec<f64>;

    /// Project the single user at arena leaf `leaf`, for *path-local*
    /// algorithms whose per-user value depends only on the nodes along that
    /// user's root→leaf path (Bitwise, Percental) — `O(depth)` flops, no
    /// name lookups. This is what the FCS serves a query from, so the
    /// contract is: pure in the tree (same tree state, same bits — nothing
    /// cached, nothing to invalidate) and bit-identical to the entry of
    /// [`project`](Self::project) for the leaf's user. Returns `None` for
    /// global algorithms (Dictionary ordering ranks users against each
    /// other: its holder stores one `project` row and re-ranks it whole on
    /// any change).
    fn project_leaf(&self, _tree: &FairshareTree, _leaf: NodeId) -> Option<f64> {
        None
    }
}

/// Which projection algorithm to use; "the approach to use is configurable
/// and can be changed during run-time".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProjectionKind {
    /// Rank-based dictionary (lexicographic) ordering.
    Dictionary,
    /// Bitwise merge of quantized vector elements.
    Bitwise,
    /// Product-of-shares difference ("a similar approach is used in SLURM
    /// prior to version 2.5"). The configuration used in the paper's
    /// production deployment and all §IV tests.
    #[default]
    Percental,
}

impl ProjectionKind {
    /// Instantiate the algorithm with its default parameters.
    pub fn build(self) -> Box<dyn Projection> {
        match self {
            ProjectionKind::Dictionary => Box::new(DictionaryOrdering),
            ProjectionKind::Bitwise => Box::new(BitwiseVector::default()),
            ProjectionKind::Percental => Box::new(Percental),
        }
    }

    /// All selectable algorithms.
    pub const ALL: [ProjectionKind; 3] = [
        ProjectionKind::Dictionary,
        ProjectionKind::Bitwise,
        ProjectionKind::Percental,
    ];
}

#[cfg(test)]
pub(crate) mod test_util {
    use crate::fairshare::{FairshareConfig, FairshareTree};
    use crate::ids::GridUser;
    use crate::policy::PolicyTree;
    use std::collections::BTreeMap;

    /// Compute a fairshare tree from (user, share, usage) triples on a flat
    /// policy.
    pub fn flat_tree(entries: &[(&str, f64, f64)]) -> FairshareTree {
        let policy = crate::policy::flat_policy(
            &entries.iter().map(|(n, s, _)| (*n, *s)).collect::<Vec<_>>(),
        )
        .unwrap();
        let usage: BTreeMap<GridUser, f64> = entries
            .iter()
            .map(|(n, _, u)| (GridUser::new(*n), *u))
            .collect();
        FairshareTree::compute(&policy, &usage, &FairshareConfig::default(), 0.0)
    }

    /// Group spec for nested test trees: (group, share, [(user, share, usage)]).
    pub type GroupSpec<'a> = &'a [(&'a str, f64, &'a [(&'a str, f64, f64)])];

    /// A two-level tree for isolation tests.
    pub fn nested_tree(groups: GroupSpec) -> (PolicyTree, FairshareTree) {
        use crate::policy::PolicyNode;
        let children: Vec<PolicyNode> = groups
            .iter()
            .map(|(g, gs, users)| {
                PolicyNode::group(
                    *g,
                    *gs,
                    users
                        .iter()
                        .map(|(n, s, _)| PolicyNode::user(*n, *s))
                        .collect(),
                )
            })
            .collect();
        let policy = PolicyTree::new(PolicyNode::group("root", 1.0, children)).unwrap();
        let usage: BTreeMap<GridUser, f64> = groups
            .iter()
            .flat_map(|(_, _, users)| users.iter())
            .map(|(n, _, u)| (GridUser::new(*n), *u))
            .collect();
        let tree = FairshareTree::compute(&policy, &usage, &FairshareConfig::default(), 0.0);
        (policy, tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GridUser;
    use test_util::flat_tree;

    #[test]
    fn all_projections_produce_unit_range() {
        let tree = flat_tree(&[("a", 0.5, 900.0), ("b", 0.3, 50.0), ("c", 0.2, 50.0)]);
        for kind in ProjectionKind::ALL {
            let proj = kind.build();
            let values = tree.by_user(&proj.project(&tree));
            assert_eq!(values.len(), 3, "{}", proj.name());
            for (u, v) in &values {
                assert!((0.0..=1.0).contains(v), "{} {u}: {v}", proj.name());
            }
        }
    }

    #[test]
    fn all_projections_agree_on_order() {
        // b is most under-served, then c, then a.
        let tree = flat_tree(&[("a", 0.5, 900.0), ("b", 0.3, 10.0), ("c", 0.2, 90.0)]);
        for kind in ProjectionKind::ALL {
            let values = tree.by_user(&kind.build().project(&tree));
            let a = values[&GridUser::new("a")];
            let b = values[&GridUser::new("b")];
            let c = values[&GridUser::new("c")];
            assert!(b > c && c > a, "{kind:?}: a={a} b={b} c={c}");
        }
    }

    #[test]
    fn default_is_percental_like_production() {
        assert_eq!(ProjectionKind::default(), ProjectionKind::Percental);
    }
}
