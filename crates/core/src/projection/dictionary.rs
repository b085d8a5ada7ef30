//! Dictionary-ordering projection (§III-C): vectors are sorted
//! lexicographically (descending) and assigned evenly spaced values by rank —
//! "three vectors would result in the numerical values 0.75, 0.50, and 0.25,
//! according to sorting order". Retains depth, precision, and isolation but
//! discards proportionality: only the *order* survives.

use super::Projection;
use crate::arena::UserId;
use crate::fairshare::FairshareTree;

/// Rank-based projection with evenly spaced values.
#[derive(Debug, Clone, Copy, Default)]
pub struct DictionaryOrdering;

/// Value assigned to the tie span `[i, j)` in a population of `n` ranked
/// vectors: the average of `(n − r) / (n + 1)` over the span. Shared between
/// [`DictionaryOrdering::project`] and the explain layer so a captured rank
/// replays to the identical factor.
pub fn rank_value(i: usize, j: usize, n: usize) -> f64 {
    (i..j)
        .map(|r| (n - r) as f64 / (n as f64 + 1.0))
        .sum::<f64>()
        / (j - i) as f64
}

impl DictionaryOrdering {
    /// The rank span of `user` under the projection's descending sort:
    /// `(rank_start, tie_count, population)`. `rank_start` is the 0-based
    /// index of the first vector tied with the user's; the projected factor
    /// is [`rank_value`]`(rank_start, rank_start + tie_count, population)`.
    pub fn rank_of(&self, tree: &FairshareTree, user: UserId) -> Option<(usize, usize, usize)> {
        let mut entries = tree.all_vectors();
        entries.sort_by(|a, b| b.1.compare(&a.1).then_with(|| a.0.cmp(&b.0)));
        let n = entries.len();
        let pos = entries.iter().position(|(u, _)| *u == user)?;
        let mut i = pos;
        while i > 0 && entries[i - 1].1.compare(&entries[pos].1).is_eq() {
            i -= 1;
        }
        let mut j = pos + 1;
        while j < n && entries[j].1.compare(&entries[pos].1).is_eq() {
            j += 1;
        }
        Some((i, j - i, n))
    }
}

impl Projection for DictionaryOrdering {
    fn name(&self) -> &'static str {
        "dictionary"
    }

    fn project(&self, tree: &FairshareTree) -> Vec<f64> {
        let mut entries = tree.all_vectors();
        // Descending sort: highest vector (most under-served) first.
        entries.sort_by(|a, b| b.1.compare(&a.1).then_with(|| a.0.cmp(&b.0)));
        let n = entries.len();
        // Rank r (0-based, 0 = best) gets (n − r) / (n + 1). Ties share the
        // average value of their rank span, so equal vectors map to equal
        // factors.
        let mut out = vec![f64::NAN; n];
        let mut i = 0usize;
        while i < n {
            let mut j = i + 1;
            while j < n && entries[j].1.compare(&entries[i].1).is_eq() {
                j += 1;
            }
            let avg = rank_value(i, j, n);
            for (user, _) in &entries[i..j] {
                out[user.index()] = avg;
            }
            i = j;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::GridUser;
    use crate::projection::test_util::flat_tree;

    #[test]
    fn paper_example_three_vectors() {
        // Distinct priorities → 0.75 / 0.50 / 0.25 by sorting order.
        let tree = flat_tree(&[("high", 0.4, 0.0), ("mid", 0.3, 300.0), ("low", 0.3, 700.0)]);
        let v = tree.by_user(&DictionaryOrdering.project(&tree));
        assert!((v[&GridUser::new("high")] - 0.75).abs() < 1e-12);
        assert!((v[&GridUser::new("mid")] - 0.50).abs() < 1e-12);
        assert!((v[&GridUser::new("low")] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ties_share_average_value() {
        // Two users with identical share and usage → identical vectors.
        let tree = flat_tree(&[("a", 0.25, 100.0), ("b", 0.25, 100.0), ("c", 0.5, 800.0)]);
        let v = tree.by_user(&DictionaryOrdering.project(&tree));
        assert_eq!(v[&GridUser::new("a")], v[&GridUser::new("b")]);
        assert!(v[&GridUser::new("a")] > v[&GridUser::new("c")]);
    }

    #[test]
    fn not_proportional_by_construction() {
        // Distances 0.9 vs 0.1 apart still produce evenly spaced outputs.
        let tree = flat_tree(&[
            ("far", 0.6, 0.0),
            ("near1", 0.2, 210.0),
            ("near2", 0.2, 190.0),
        ]);
        let v = tree.by_user(&DictionaryOrdering.project(&tree));
        let gap1 = v[&GridUser::new("far")] - v[&GridUser::new("near2")];
        let gap2 = v[&GridUser::new("near2")] - v[&GridUser::new("near1")];
        assert!((gap1 - gap2).abs() < 1e-12, "rank spacing is uniform");
    }

    #[test]
    fn empty_tree() {
        let tree = flat_tree(&[]);
        assert!(DictionaryOrdering.project(&tree).is_empty());
    }

    #[test]
    fn rank_of_reproduces_projected_value() {
        let tree = flat_tree(&[
            ("a", 0.25, 100.0),
            ("b", 0.25, 100.0),
            ("c", 0.3, 800.0),
            ("d", 0.2, 50.0),
        ]);
        let proj = DictionaryOrdering;
        let v = tree.by_user(&proj.project(&tree));
        for name in ["a", "b", "c", "d"] {
            let user = GridUser::new(name);
            let id = tree.layout().user_id(&user).unwrap();
            let (i, ties, n) = proj.rank_of(&tree, id).unwrap();
            let replayed = rank_value(i, i + ties, n);
            assert_eq!(replayed.to_bits(), v[&user].to_bits(), "{name}");
        }
        assert!(proj.rank_of(&tree, UserId(9)).is_none());
    }

    #[test]
    fn single_user_gets_half() {
        let tree = flat_tree(&[("only", 1.0, 10.0)]);
        let v = tree.by_user(&DictionaryOrdering.project(&tree));
        assert!((v[&GridUser::new("only")] - 0.5).abs() < 1e-12);
    }
}
