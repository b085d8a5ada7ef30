//! Empirical property checkers regenerating Table I of the paper: for each
//! representation (raw fairshare vectors plus the three projections), decide
//! whether it retains infinite depth, infinite precision, subgroup isolation,
//! and proportionality, and whether it is combinable with other priority
//! factors.
//!
//! Each property is decided by running the algorithm on adversarial
//! scenarios built from real [`FairshareTree`]s, not by hard-coding the
//! expected matrix — the table is *measured*.

use super::{Projection, ProjectionKind};
use crate::fairshare::{FairshareConfig, FairshareTree};
use crate::ids::GridUser;
use crate::policy::{PolicyNode, PolicyTree};
use std::collections::BTreeMap;

/// The property columns of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionProperties {
    /// Distinguishes differences at arbitrary hierarchy depth.
    pub infinite_depth: bool,
    /// Distinguishes arbitrarily small element differences.
    pub infinite_precision: bool,
    /// Order within a subgroup unaffected by sibling-subtree usage.
    pub subgroup_isolation: bool,
    /// Value differences reflect distance differences proportionally.
    pub proportional: bool,
    /// Output is a `[0, 1]` scalar combinable with other priority factors.
    pub combinable: bool,
}

impl ProjectionProperties {
    /// The properties of the raw fairshare-vector representation itself:
    /// everything except combinability (a vector is not a scalar factor).
    fn fairshare_vectors() -> Self {
        Self {
            infinite_depth: true,
            infinite_precision: true,
            subgroup_isolation: true,
            proportional: true,
            combinable: false,
        }
    }

    /// Render as a Table I row of ✓/✗ marks.
    pub fn row(&self) -> [bool; 5] {
        [
            self.infinite_depth,
            self.infinite_precision,
            self.subgroup_isolation,
            self.proportional,
            self.combinable,
        ]
    }
}

/// Build a deep chain-of-groups tree, `depth` levels, with a two-user fork at
/// the bottom whose usage difference is the only signal.
fn deep_tree(depth: usize, bottom_usage: (f64, f64)) -> FairshareTree {
    fn chain(level: usize, depth: usize) -> PolicyNode {
        if level == depth {
            PolicyNode::group(
                "fork",
                1.0,
                vec![PolicyNode::user("da", 0.5), PolicyNode::user("db", 0.5)],
            )
        } else {
            PolicyNode::group(format!("g{level}"), 1.0, vec![chain(level + 1, depth)])
        }
    }
    let policy = PolicyTree::new(PolicyNode::group("root", 1.0, vec![chain(0, depth)])).unwrap();
    let usage: BTreeMap<GridUser, f64> = [
        (GridUser::new("da"), bottom_usage.0),
        (GridUser::new("db"), bottom_usage.1),
    ]
    .into_iter()
    .collect();
    FairshareTree::compute(&policy, &usage, &FairshareConfig::default(), 0.0)
}

/// Flat tree helper: (user, share, usage) triples.
fn flat(entries: &[(&str, f64, f64)]) -> FairshareTree {
    let policy =
        crate::policy::flat_policy(&entries.iter().map(|(n, s, _)| (*n, *s)).collect::<Vec<_>>())
            .unwrap();
    let usage: BTreeMap<GridUser, f64> = entries
        .iter()
        .map(|(n, _, u)| (GridUser::new(*n), *u))
        .collect();
    FairshareTree::compute(&policy, &usage, &FairshareConfig::default(), 0.0)
}

/// Two-group tree for the isolation probe; `g1_usage` is the lever.
fn isolation_tree(g1_usage: f64) -> FairshareTree {
    let policy = PolicyTree::new(PolicyNode::group(
        "root",
        1.0,
        vec![
            PolicyNode::group("g1", 0.5, vec![PolicyNode::user("x", 1.0)]),
            PolicyNode::group(
                "g2",
                0.5,
                vec![PolicyNode::user("u1", 0.8), PolicyNode::user("u2", 0.2)],
            ),
        ],
    ))
    .unwrap();
    let usage: BTreeMap<GridUser, f64> = [
        (GridUser::new("x"), g1_usage),
        (GridUser::new("u1"), 900.0),
        (GridUser::new("u2"), 100.0),
    ]
    .into_iter()
    .collect();
    FairshareTree::compute(&policy, &usage, &FairshareConfig::default(), 0.0)
}

/// Probe: does the projection still see a difference buried `depth` levels
/// down?
fn probe_depth(proj: &dyn Projection, depth: usize) -> bool {
    let tree = deep_tree(depth, (900.0, 100.0));
    let v = tree.by_user(&proj.project(&tree));
    v[&GridUser::new("db")] > v[&GridUser::new("da")]
}

/// Probe: does the projection distinguish a tiny usage difference?
fn probe_precision(proj: &dyn Projection) -> bool {
    // Distances differ by ~1e-8, both well inside the same quantization
    // bucket (away from any bucket boundary) — representable by f64 and by
    // rank ordering, but invisible to few-bit quantization.
    let tree = flat(&[
        ("pa", 0.3, 100.0),
        ("pb", 0.3, 100.000_03),
        ("pc", 0.4, 800.0),
    ]);
    let v = tree.by_user(&proj.project(&tree));
    v[&GridUser::new("pa")] > v[&GridUser::new("pb")]
}

/// Probe: does sibling-subtree usage flip order inside a group?
fn probe_isolation(proj: &dyn Projection) -> bool {
    let order = |g1_usage: f64| {
        let tree = isolation_tree(g1_usage);
        let v = tree.by_user(&proj.project(&tree));
        v[&GridUser::new("u1")] > v[&GridUser::new("u2")]
    };
    order(100.0) == order(100_000.0)
}

/// Probe: do value differences carry *magnitude* information?
///
/// "If non-proportional, the resulting fairshare number correctly indicates
/// the sorting order, but the relative difference is lost." Three users are
/// arranged so one pairwise imbalance gap is many times larger than the
/// other; a proportional projection produces a clearly larger value gap for
/// the larger imbalance, while a rank-based one spaces values uniformly
/// (ratio exactly 1).
fn probe_proportional(proj: &dyn Projection) -> bool {
    let tree = flat(&[
        ("qa", 1.0 / 3.0, 0.0),
        ("qb", 1.0 / 3.0, 4500.0),
        ("qc", 1.0 / 3.0, 5000.0),
    ]);
    let v = tree.by_user(&proj.project(&tree));
    let val = |n: &str| v[&GridUser::new(n)];
    let big = val("qa") - val("qb");
    let small = val("qb") - val("qc");
    big > 3.0 * small && small > 0.0
}

/// Probe: output is a scalar in `[0, 1]` for every user.
fn probe_combinable(proj: &dyn Projection) -> bool {
    let tree = flat(&[("ca", 0.9, 0.0), ("cb", 0.1, 1000.0)]);
    proj.project(&tree).iter().all(|v| (0.0..=1.0).contains(v))
}

/// Measure all Table I properties of one projection algorithm.
pub fn measure(proj: &dyn Projection) -> ProjectionProperties {
    ProjectionProperties {
        // "Infinite" depth/precision are probed at adversarial-but-finite
        // scales: 12 levels deep (vs the 6-level f64-mantissa budget of the
        // default bitwise config) and ~1e-7 distance gaps.
        infinite_depth: probe_depth(proj, 12),
        infinite_precision: probe_precision(proj),
        subgroup_isolation: probe_isolation(proj),
        proportional: probe_proportional(proj),
        combinable: probe_combinable(proj),
    }
}

/// Regenerate the full Table I matrix: (row label, properties) for the raw
/// vectors and each projection algorithm.
pub fn table1() -> Vec<(String, ProjectionProperties)> {
    let mut rows = vec![(
        "Fairshare vectors".to_string(),
        ProjectionProperties::fairshare_vectors(),
    )];
    for kind in ProjectionKind::ALL {
        let proj = kind.build();
        rows.push((format!("{:?}", kind), measure(proj.as_ref())));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dictionary_matches_paper_row() {
        let p = measure(&super::super::DictionaryOrdering);
        assert!(p.infinite_depth);
        assert!(p.infinite_precision);
        assert!(p.subgroup_isolation);
        assert!(!p.proportional, "rank spacing cannot be proportional");
        assert!(p.combinable);
    }

    #[test]
    fn bitwise_matches_paper_row() {
        let p = measure(&super::super::BitwiseVector::default());
        assert!(!p.infinite_depth, "mantissa bounds depth");
        assert!(!p.infinite_precision, "buckets bound precision");
        assert!(p.subgroup_isolation);
        assert!(p.proportional);
        assert!(p.combinable);
    }

    #[test]
    fn percental_matches_paper_row() {
        let p = measure(&super::super::Percental);
        assert!(p.infinite_depth);
        assert!(p.infinite_precision);
        assert!(!p.subgroup_isolation, "share products leak across subtrees");
        assert!(p.proportional);
        assert!(p.combinable);
    }

    #[test]
    fn table_has_four_rows() {
        let t = table1();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0].0, "Fairshare vectors");
        assert!(!t[0].1.combinable);
    }
}
