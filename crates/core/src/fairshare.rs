//! The fairshare calculation algorithm (§II-A constituent 3).
//!
//! Given a policy tree and grid-wide per-user usage, the algorithm computes
//! a *fairshare tree*: for every node, the signed distance between its
//! target share and its actual usage share **relative to its siblings**.
//! Distances combine an absolute component (`policy − usage`) and a relative
//! component (normalized ratio distance) under a configurable weight `k`
//! (§IV-A-5: "the fairshare algorithm uses a configurable weight (k) between
//! absolute and relative distance calculations", with k = 0.5 in all of the
//! paper's tests).
//!
//! Per-user fairshare *vectors* (one element per level, root first) are then
//! extracted as in Figure 3.
//!
//! ## Incremental engine
//!
//! The tree is stored as an arena of [`NodeId`]-indexed nodes (plus a
//! [`PathInterner`] for the path-based API) rather than path-keyed maps, so
//! [`FairshareTree::recompute_dirty`] can re-derive state for *only the
//! subtrees named by a [`DirtySet`]*: a usage change for one user re-
//! aggregates exactly that user's root→leaf path and refreshes the sibling
//! groups along it. After any mutation sequence, the incremental state is
//! bit-identical to a from-scratch [`FairshareTree::compute`] on the same
//! inputs — enforced by a debug-build assertion inside `recompute_dirty`
//! and by property tests.

use crate::arena::{DirtySet, NodeId, PathInterner, RecomputeStats};
use crate::decay::DecayPolicy;
use crate::ids::{EntityPath, GridUser};
use crate::policy::{PolicyNode, PolicyNodeKind, PolicyTree};
use crate::vector::{FairshareVector, Resolution};
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of the fairshare calculation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairshareConfig {
    /// Weight of the relative distance component; the absolute component
    /// gets `1 − k`. The paper's tests use `k = 0.5`.
    pub k_weight: f64,
    /// Quantization resolution of vector elements.
    pub resolution: Resolution,
    /// How historical usage decays.
    pub decay: DecayPolicy,
}

impl Default for FairshareConfig {
    fn default() -> Self {
        Self {
            k_weight: 0.5,
            resolution: Resolution::PAPER,
            decay: DecayPolicy::default(),
        }
    }
}

impl FairshareConfig {
    /// Combined signed distance for a node with normalized policy share `p`
    /// and normalized usage share `u` (both within the sibling group).
    ///
    /// * relative component ∈ [−1, 1]: `(p − u) / max(p, u)` (0 when both 0);
    /// * absolute component ∈ [−1, 1]: `p − u` (≤ `p` on the positive side,
    ///   giving the paper's documented per-user bound
    ///   `max priority = k·1 + (1−k)·share`, e.g. `0.5·(1 + 0.12) = 0.56`
    ///   for a 12%-share user at k = 0.5).
    pub fn distance(&self, p: f64, u: f64) -> f64 {
        let rel = if p == u {
            0.0
        } else {
            (p - u) / p.max(u).max(f64::MIN_POSITIVE)
        };
        let abs = p - u;
        self.k_weight * rel + (1.0 - self.k_weight) * abs
    }

    /// Upper bound of a user's combined distance given its policy share:
    /// reached when the user has zero usage.
    pub fn max_priority(&self, share: f64) -> f64 {
        self.k_weight + (1.0 - self.k_weight) * share
    }
}

/// Fairshare state computed for one tree node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeShare {
    /// Normalized policy share within the sibling group.
    pub policy_share: f64,
    /// Normalized usage share within the sibling group.
    pub usage_share: f64,
    /// Combined signed distance (the "priority" plotted in the paper's
    /// figures for flat hierarchies).
    pub distance: f64,
    /// Quantized vector element for this level.
    pub element: f64,
}

impl NodeShare {
    fn neutral() -> Self {
        NodeShare {
            policy_share: 1.0,
            usage_share: 1.0,
            distance: 0.0,
            element: 0.0,
        }
    }

    fn bits_eq(&self, other: &NodeShare) -> bool {
        self.policy_share.to_bits() == other.policy_share.to_bits()
            && self.usage_share.to_bits() == other.usage_share.to_bits()
            && self.distance.to_bits() == other.distance.to_bits()
            && self.element.to_bits() == other.element.to_bits()
    }
}

/// One arena slot of the computed fairshare tree.
#[derive(Debug, Clone)]
struct ArenaNode {
    /// Node name (unique among siblings; mirrors the policy node).
    name: String,
    /// Parent slot; `None` for the root.
    parent: Option<NodeId>,
    /// Child slots in policy order.
    children: Vec<NodeId>,
    /// Hierarchy level (root = 0).
    level: u32,
    /// Grid identity for user leaves.
    user: Option<GridUser>,
    /// Raw (un-normalized) policy share.
    share: f64,
    /// Usage attributed directly to this node (non-zero only for users).
    own_usage: f64,
    /// Aggregated usage of this node's subtree.
    subtree_usage: f64,
    /// Derived shares/distance/element within the parent's sibling group.
    state: NodeShare,
}

/// A computed fairshare tree: arena-indexed per-node shares plus extracted
/// user vectors, supporting both full computation and dirty-subtree
/// incremental recomputation.
#[derive(Debug, Clone)]
pub struct FairshareTree {
    arena: Vec<ArenaNode>,
    interner: PathInterner,
    user_leaf: BTreeMap<GridUser, NodeId>,
    user_paths: BTreeMap<GridUser, EntityPath>,
    depth: usize,
    config: FairshareConfig,
    /// Time the tree was computed, seconds (for staleness checks).
    pub computed_at_s: f64,
}

impl FairshareTree {
    /// Compute the fairshare tree from a policy and per-user (already
    /// decayed) usage totals.
    pub fn compute(
        policy: &PolicyTree,
        usage_by_user: &BTreeMap<GridUser, f64>,
        config: &FairshareConfig,
        now_s: f64,
    ) -> Self {
        let mut tree = Self {
            arena: Vec::with_capacity(policy.node_count()),
            interner: PathInterner::new(),
            user_leaf: BTreeMap::new(),
            user_paths: BTreeMap::new(),
            depth: policy.depth(),
            config: *config,
            computed_at_s: now_s,
        };
        tree.add_policy_node(policy.root(), None, &EntityPath::root(), 0);
        tree.aggregate_usage(NodeId(0), usage_by_user);
        tree.derive_group(NodeId(0), true);
        tree
    }

    /// Recursively append `node` (and its subtree) to the arena.
    fn add_policy_node(
        &mut self,
        node: &PolicyNode,
        parent: Option<NodeId>,
        path: &EntityPath,
        level: u32,
    ) -> NodeId {
        let id = NodeId(self.arena.len() as u32);
        let user = match &node.kind {
            PolicyNodeKind::User(u) => Some(u.clone()),
            _ => None,
        };
        self.arena.push(ArenaNode {
            name: node.name.clone(),
            parent,
            children: Vec::with_capacity(node.children.len()),
            level,
            user: user.clone(),
            share: node.share,
            own_usage: 0.0,
            subtree_usage: 0.0,
            state: NodeShare::neutral(),
        });
        self.interner.insert(path.clone(), id);
        if let Some(u) = user {
            self.user_leaf.insert(u.clone(), id);
            self.user_paths.insert(u, path.clone());
        }
        for child in &node.children {
            let child_path = path.child(&child.name);
            let cid = self.add_policy_node(child, Some(id), &child_path, level + 1);
            self.arena[id.index()].children.push(cid);
        }
        id
    }

    /// Bottom-up usage aggregation: `subtree = own + Σ children` with the
    /// exact summation order of the from-scratch algorithm.
    fn aggregate_usage(&mut self, id: NodeId, usage_by_user: &BTreeMap<GridUser, f64>) -> f64 {
        let own = self.arena[id.index()]
            .user
            .as_ref()
            .and_then(|u| usage_by_user.get(u))
            .copied()
            .unwrap_or(0.0);
        let children = self.arena[id.index()].children.clone();
        let children_sum: f64 = children
            .into_iter()
            .map(|c| self.aggregate_usage(c, usage_by_user))
            .sum();
        let total = own + children_sum;
        let node = &mut self.arena[id.index()];
        node.own_usage = own;
        node.subtree_usage = total;
        total
    }

    /// Refresh the derived state of `id`'s children (one sibling group),
    /// optionally recursing over the whole subtree. Returns the children
    /// whose derived state changed in any component (shares, distance, or
    /// element) — the roots of the subtrees whose users need re-projection.
    fn derive_group(&mut self, id: NodeId, recurse: bool) -> Vec<NodeId> {
        let children = self.arena[id.index()].children.clone();
        let policy_total: f64 = children.iter().map(|&c| self.arena[c.index()].share).sum();
        let usage_total: f64 = children
            .iter()
            .map(|&c| self.arena[c.index()].subtree_usage)
            .sum();
        let mut changed = Vec::new();
        for &cid in &children {
            let child = &self.arena[cid.index()];
            let p = if policy_total > 0.0 {
                child.share / policy_total
            } else {
                0.0
            };
            let u = if usage_total > 0.0 {
                child.subtree_usage / usage_total
            } else {
                0.0
            };
            let d = self.config.distance(p, u);
            let state = NodeShare {
                policy_share: p,
                usage_share: u,
                distance: d,
                element: self.config.resolution.scale(d),
            };
            let node = &mut self.arena[cid.index()];
            if !node.state.bits_eq(&state) {
                changed.push(cid);
            }
            node.state = state;
            if recurse {
                self.derive_group(cid, true);
            }
        }
        changed
    }

    /// Incrementally re-derive fairshare state for the subtrees whose usage
    /// or policy changed, per `dirty`.
    ///
    /// `usage_by_user` is the complete usage snapshot the tree should
    /// reflect (only entries for dirty users are read); `policy` is
    /// consulted for edited shares and as the fallback for a full rebuild
    /// when the dirty set demands one (`mark_all`, or a structural mismatch
    /// between the dirty set and the arena).
    ///
    /// **Equivalence invariant:** afterwards, the tree state is bit-identical
    /// to `FairshareTree::compute(policy, usage_by_user, config, now_s)` —
    /// asserted here in debug builds.
    pub fn recompute_dirty(
        &mut self,
        policy: &PolicyTree,
        usage_by_user: &BTreeMap<GridUser, f64>,
        dirty: &DirtySet,
        now_s: f64,
    ) -> RecomputeStats {
        let stats = self.recompute_dirty_inner(policy, usage_by_user, dirty, now_s);
        #[cfg(debug_assertions)]
        {
            let fresh = Self::compute(policy, usage_by_user, &self.config, now_s);
            debug_assert!(
                self.state_equals(&fresh),
                "incremental fairshare state diverged from full recompute"
            );
        }
        stats
    }

    fn recompute_dirty_inner(
        &mut self,
        policy: &PolicyTree,
        usage_by_user: &BTreeMap<GridUser, f64>,
        dirty: &DirtySet,
        now_s: f64,
    ) -> RecomputeStats {
        if dirty.is_empty() {
            self.computed_at_s = now_s;
            return RecomputeStats::default();
        }
        if dirty.is_all() {
            return self.rebuild_full(policy, usage_by_user, now_s);
        }

        // Nodes whose subtree aggregate must be re-summed (dirty leaves plus
        // their ancestors) and sibling groups needing a derived refresh.
        let mut agg: BTreeSet<NodeId> = BTreeSet::new();
        let mut groups: BTreeSet<NodeId> = BTreeSet::new();
        for user in dirty.users() {
            match self.user_leaf.get(user).copied() {
                Some(leaf) => {
                    let value = usage_by_user.get(user).copied().unwrap_or(0.0);
                    self.arena[leaf.index()].own_usage = value;
                    let mut cur = leaf;
                    agg.insert(cur);
                    while let Some(parent) = self.arena[cur.index()].parent {
                        agg.insert(parent);
                        groups.insert(parent);
                        cur = parent;
                    }
                }
                None => {
                    // Usage from users outside the policy is ignored by the
                    // full algorithm too; but a user the *policy* knows and
                    // the arena doesn't means the structure changed under us.
                    if policy.path_of_user(user).is_some() {
                        return self.rebuild_full(policy, usage_by_user, now_s);
                    }
                }
            }
        }
        for path in dirty.paths() {
            let resolved = self
                .interner
                .get(path)
                .and_then(|id| policy.node_at(path).map(|n| (id, n.share)));
            match resolved {
                Some((id, share)) => {
                    self.arena[id.index()].share = share;
                    match self.arena[id.index()].parent {
                        Some(parent) => {
                            groups.insert(parent);
                        }
                        None => {
                            // Root share participates in no sibling group.
                        }
                    }
                }
                None => return self.rebuild_full(policy, usage_by_user, now_s),
            }
        }

        // Re-aggregate bottom-up (deepest first) so each parent re-sums
        // already-updated children, in the same order as a full pass.
        let mut by_depth: Vec<NodeId> = agg.iter().copied().collect();
        by_depth.sort_by_key(|id| std::cmp::Reverse(self.arena[id.index()].level));
        for id in &by_depth {
            let node = &self.arena[id.index()];
            let own = node.own_usage;
            let children = node.children.clone();
            let children_sum: f64 = children
                .into_iter()
                .map(|c| self.arena[c.index()].subtree_usage)
                .sum();
            self.arena[id.index()].subtree_usage = own + children_sum;
        }

        // Refresh derived shares of every affected sibling group.
        let mut shares_refreshed = 0u64;
        let mut changed_elements = Vec::new();
        for g in &groups {
            shares_refreshed += self.arena[g.index()].children.len() as u64;
            changed_elements.extend(self.derive_group(*g, false));
        }
        self.computed_at_s = now_s;
        RecomputeStats {
            full: false,
            nodes_recomputed: by_depth.len() as u64,
            shares_refreshed,
            changed_elements,
        }
    }

    fn rebuild_full(
        &mut self,
        policy: &PolicyTree,
        usage_by_user: &BTreeMap<GridUser, f64>,
        now_s: f64,
    ) -> RecomputeStats {
        *self = Self::compute(policy, usage_by_user, &self.config, now_s);
        RecomputeStats {
            full: true,
            nodes_recomputed: self.arena.len() as u64,
            shares_refreshed: self.arena.len() as u64,
            changed_elements: (0..self.arena.len() as u32).map(NodeId).collect(),
        }
    }

    /// Bit-exact state comparison against another tree (same policy shape,
    /// aggregates, and derived shares). The equivalence oracle for the
    /// incremental engine.
    pub fn state_equals(&self, other: &FairshareTree) -> bool {
        self.arena.len() == other.arena.len()
            && self.depth == other.depth
            && self.user_paths == other.user_paths
            && self.arena.iter().zip(&other.arena).all(|(a, b)| {
                a.name == b.name
                    && a.parent == b.parent
                    && a.children == b.children
                    && a.user == b.user
                    && a.share.to_bits() == b.share.to_bits()
                    && a.own_usage.to_bits() == b.own_usage.to_bits()
                    && a.subtree_usage.to_bits() == b.subtree_usage.to_bits()
                    && a.state.bits_eq(&b.state)
            })
    }

    /// Per-node share state at `path` (the root has no sibling group and
    /// reports `None`, as in the original path-keyed representation).
    pub fn node(&self, path: &EntityPath) -> Option<&NodeShare> {
        if path.is_root() {
            return None;
        }
        self.interner
            .get(path)
            .map(|id| &self.arena[id.index()].state)
    }

    /// Resolve a grid user to its leaf arena id.
    pub fn user_node(&self, user: &GridUser) -> Option<NodeId> {
        self.user_leaf.get(user).copied()
    }

    /// Derived share state of an arena node.
    pub fn share_of(&self, id: NodeId) -> &NodeShare {
        &self.arena[id.index()].state
    }

    /// Leaf distance ("priority") of an arena node.
    pub fn priority_of_id(&self, id: NodeId) -> f64 {
        self.arena[id.index()].state.distance
    }

    /// Fairshare vector of the entity at an arena id, padded to tree depth.
    pub fn vector_of_id(&self, id: NodeId) -> FairshareVector {
        let mut elements = Vec::with_capacity(self.depth);
        let mut cur = Some(id);
        while let Some(c) = cur {
            let node = &self.arena[c.index()];
            if node.parent.is_some() {
                elements.push(node.state.element);
            }
            cur = node.parent;
        }
        elements.reverse();
        FairshareVector::from_elements(elements, self.config.resolution).padded(self.depth)
    }

    /// Parent of an arena node; `None` for the root.
    pub fn parent_of(&self, id: NodeId) -> Option<NodeId> {
        self.arena[id.index()].parent
    }

    /// Append the user leaves of the subtree rooted at `id` (dirty-subtree
    /// re-projection support) — `O(subtree)`, no allocation per leaf.
    pub fn leaves_under(&self, id: NodeId, out: &mut Vec<NodeId>) {
        let node = &self.arena[id.index()];
        if node.user.is_some() {
            out.push(id);
        }
        for &c in &node.children {
            self.leaves_under(c, out);
        }
    }

    /// Every user with its leaf id, in user order.
    pub fn user_leaves(&self) -> impl Iterator<Item = (&GridUser, NodeId)> {
        self.user_leaf.iter().map(|(u, &id)| (u, id))
    }

    /// The fairshare vector of a grid user (by leaf identity).
    pub fn vector_for_user(&self, user: &GridUser) -> Option<FairshareVector> {
        self.user_leaf.get(user).map(|&id| self.vector_of_id(id))
    }

    /// The leaf distance ("priority") of a grid user.
    pub fn user_priority(&self, user: &GridUser) -> Option<f64> {
        self.user_leaf
            .get(user)
            .map(|&id| self.arena[id.index()].state.distance)
    }

    /// The path of one user's leaf (indexed lookup, unlike the `O(n)` policy
    /// scan in [`PolicyTree::path_of_user`]).
    pub fn path_of_user(&self, user: &GridUser) -> Option<&EntityPath> {
        self.user_paths.get(user)
    }

    /// Fairshare vectors for every user, in stable (user-sorted) order.
    pub fn all_vectors(&self) -> Vec<(GridUser, FairshareVector)> {
        self.user_leaf
            .iter()
            .map(|(u, &id)| (u.clone(), self.vector_of_id(id)))
            .collect()
    }

    /// Maximum hierarchy depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total number of arena nodes (policy nodes incl. root).
    pub fn node_count(&self) -> usize {
        self.arena.len()
    }

    /// The configuration this tree was computed with (provenance capture
    /// records it so explanations can replay the distance formula exactly).
    pub fn config(&self) -> &FairshareConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{flat_policy, PolicyNode, PolicyTree};

    fn usage(pairs: &[(&str, f64)]) -> BTreeMap<GridUser, f64> {
        pairs.iter().map(|(n, v)| (GridUser::new(*n), *v)).collect()
    }

    fn paper_flat_policy() -> PolicyTree {
        flat_policy(&[
            ("U65", 0.6525),
            ("U30", 0.3049),
            ("U3", 0.0286),
            ("Uoth", 0.0140),
        ])
        .unwrap()
    }

    #[test]
    fn balanced_usage_gives_zero_distance() {
        let policy = paper_flat_policy();
        let cfg = FairshareConfig::default();
        let total = 1000.0;
        let u = usage(&[
            ("U65", 0.6525 * total),
            ("U30", 0.3049 * total),
            ("U3", 0.0286 * total),
            ("Uoth", 0.0140 * total),
        ]);
        let t = FairshareTree::compute(&policy, &u, &cfg, 0.0);
        for user in ["U65", "U30", "U3", "Uoth"] {
            let d = t.user_priority(&GridUser::new(user)).unwrap();
            assert!(d.abs() < 1e-9, "{user}: {d}");
            let v = t.vector_for_user(&GridUser::new(user)).unwrap();
            assert!((v.elements()[0] - cfg.resolution.balance()).abs() < 1e-5);
        }
    }

    #[test]
    fn paper_bursty_test_priority_bound() {
        // §IV-A-5: a 12%-share user with zero usage peaks at 0.5·(1+0.12)=0.56.
        let policy =
            flat_policy(&[("U65", 0.47), ("U30", 0.385), ("U3", 0.12), ("Uoth", 0.025)]).unwrap();
        let cfg = FairshareConfig::default();
        let u = usage(&[("U65", 500.0), ("U30", 400.0), ("Uoth", 30.0)]); // U3 idle
        let t = FairshareTree::compute(&policy, &u, &cfg, 0.0);
        let d = t.user_priority(&GridUser::new("U3")).unwrap();
        assert!((d - 0.56).abs() < 1e-9, "priority {d}");
        assert!((cfg.max_priority(0.12) - 0.56).abs() < 1e-12);
    }

    #[test]
    fn overuse_gives_negative_distance() {
        let policy = flat_policy(&[("a", 0.5), ("b", 0.5)]).unwrap();
        let cfg = FairshareConfig::default();
        let t = FairshareTree::compute(&policy, &usage(&[("a", 900.0), ("b", 100.0)]), &cfg, 0.0);
        assert!(t.user_priority(&GridUser::new("a")).unwrap() < 0.0);
        assert!(t.user_priority(&GridUser::new("b")).unwrap() > 0.0);
    }

    #[test]
    fn under_served_user_ranks_first() {
        let policy = paper_flat_policy();
        let cfg = FairshareConfig::default();
        // U30 has consumed nothing; everyone else over-consumed.
        let u = usage(&[("U65", 800.0), ("U3", 150.0), ("Uoth", 50.0)]);
        let t = FairshareTree::compute(&policy, &u, &cfg, 0.0);
        let v30 = t.vector_for_user(&GridUser::new("U30")).unwrap();
        for other in ["U65", "U3", "Uoth"] {
            let vo = t.vector_for_user(&GridUser::new(other)).unwrap();
            assert_eq!(v30.compare(&vo), std::cmp::Ordering::Greater, "vs {other}");
        }
    }

    #[test]
    fn subgroup_isolation_in_tree() {
        // Figure 3 shape: usage changes inside /HP must not move /LQ's element.
        let policy = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![
                PolicyNode::group(
                    "HP",
                    0.7,
                    vec![PolicyNode::user("u1", 0.5), PolicyNode::user("u2", 0.5)],
                ),
                PolicyNode::user("LQ", 0.3),
            ],
        ))
        .unwrap();
        let cfg = FairshareConfig::default();
        let t1 = FairshareTree::compute(
            &policy,
            &usage(&[("u1", 700.0), ("u2", 0.0), ("LQ", 300.0)]),
            &cfg,
            0.0,
        );
        let t2 = FairshareTree::compute(
            &policy,
            &usage(&[("u1", 0.0), ("u2", 700.0), ("LQ", 300.0)]),
            &cfg,
            0.0,
        );
        // /HP's aggregate usage is the same, so /LQ's and /HP's first-level
        // elements are unchanged; only the intra-HP level flips.
        let lq = EntityPath::parse("/LQ");
        let hp = EntityPath::parse("/HP");
        assert_eq!(t1.node(&lq).unwrap().element, t2.node(&lq).unwrap().element);
        assert_eq!(t1.node(&hp).unwrap().element, t2.node(&hp).unwrap().element);
        let u1 = EntityPath::parse("/HP/u1");
        assert!(t1.node(&u1).unwrap().distance < 0.0);
        assert!(t2.node(&u1).unwrap().distance > 0.0);
    }

    #[test]
    fn short_path_padded_with_balance() {
        let policy = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![
                PolicyNode::group("HP", 0.7, vec![PolicyNode::user("u1", 1.0)]),
                PolicyNode::user("LQ", 0.3),
            ],
        ))
        .unwrap();
        let cfg = FairshareConfig::default();
        let t = FairshareTree::compute(&policy, &usage(&[("u1", 10.0)]), &cfg, 0.0);
        let v = t.vector_for_user(&GridUser::new("LQ")).unwrap();
        assert_eq!(v.depth(), 2);
        assert_eq!(v.elements()[1], cfg.resolution.balance());
    }

    #[test]
    fn zero_usage_distance_is_max_priority() {
        let policy = flat_policy(&[("a", 0.25), ("b", 0.75)]).unwrap();
        let cfg = FairshareConfig::default();
        let t = FairshareTree::compute(&policy, &BTreeMap::new(), &cfg, 0.0);
        // No usage anywhere: every user sits at its own maximum priority.
        let da = t.user_priority(&GridUser::new("a")).unwrap();
        assert!((da - cfg.max_priority(0.25)).abs() < 1e-12, "{da}");
    }

    #[test]
    fn k_weight_extremes() {
        // k = 1: purely relative; k = 0: purely absolute.
        let rel_only = FairshareConfig {
            k_weight: 1.0,
            ..Default::default()
        };
        let abs_only = FairshareConfig {
            k_weight: 0.0,
            ..Default::default()
        };
        assert!((rel_only.distance(0.1, 0.0) - 1.0).abs() < 1e-12);
        assert!((abs_only.distance(0.1, 0.0) - 0.1).abs() < 1e-12);
        assert!((rel_only.distance(0.1, 0.2) + 0.5).abs() < 1e-12);
        assert!((abs_only.distance(0.1, 0.2) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn unknown_user_has_no_priority() {
        let policy = flat_policy(&[("a", 1.0)]).unwrap();
        let t = FairshareTree::compute(&policy, &BTreeMap::new(), &FairshareConfig::default(), 0.0);
        assert!(t.user_priority(&GridUser::new("ghost")).is_none());
        assert!(t.vector_for_user(&GridUser::new("ghost")).is_none());
    }

    // ---- incremental engine ----

    fn deep_policy() -> PolicyTree {
        // root → g0..g3 → 4 users each (depth 2, 21 nodes).
        PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            (0..4)
                .map(|g| {
                    PolicyNode::group(
                        format!("g{g}"),
                        1.0 + g as f64,
                        (0..4)
                            .map(|u| PolicyNode::user(format!("g{g}u{u}"), 1.0 + u as f64))
                            .collect(),
                    )
                })
                .collect(),
        ))
        .unwrap()
    }

    #[test]
    fn single_user_update_recomputes_only_the_path() {
        let policy = deep_policy();
        let cfg = FairshareConfig::default();
        let mut u = usage(&[("g0u0", 10.0), ("g1u2", 40.0), ("g3u3", 25.0)]);
        let mut t = FairshareTree::compute(&policy, &u, &cfg, 0.0);
        u.insert(GridUser::new("g1u2"), 90.0);
        let mut dirty = DirtySet::new();
        dirty.mark_user(GridUser::new("g1u2"));
        let stats = t.recompute_dirty(&policy, &u, &dirty, 1.0);
        assert!(!stats.full);
        // Exactly the root→leaf path: leaf, its group, the root.
        assert_eq!(stats.nodes_recomputed, 3);
        // Sibling groups refreshed: root's 4 groups + g1's 4 users.
        assert_eq!(stats.shares_refreshed, 8);
        // Equivalence (also enforced by the debug assertion inside).
        let fresh = FairshareTree::compute(&policy, &u, &cfg, 1.0);
        assert!(t.state_equals(&fresh));
    }

    #[test]
    fn empty_dirty_set_is_a_noop() {
        let policy = deep_policy();
        let cfg = FairshareConfig::default();
        let u = usage(&[("g0u0", 10.0)]);
        let mut t = FairshareTree::compute(&policy, &u, &cfg, 0.0);
        let stats = t.recompute_dirty(&policy, &u, &DirtySet::new(), 5.0);
        assert_eq!(stats.nodes_recomputed, 0);
        assert_eq!(stats.shares_refreshed, 0);
        assert_eq!(t.computed_at_s, 5.0);
    }

    #[test]
    fn share_edit_refreshes_one_sibling_group() {
        let mut policy = deep_policy();
        let cfg = FairshareConfig::default();
        let u = usage(&[("g0u0", 10.0), ("g2u1", 30.0)]);
        let mut t = FairshareTree::compute(&policy, &u, &cfg, 0.0);
        let path = EntityPath::parse("/g2/g2u1");
        policy.set_share(&path, 9.0).unwrap();
        let mut dirty = DirtySet::new();
        dirty.mark_path(path);
        let stats = t.recompute_dirty(&policy, &u, &dirty, 1.0);
        assert!(!stats.full);
        assert_eq!(stats.nodes_recomputed, 0);
        assert_eq!(stats.shares_refreshed, 4); // g2's sibling group only
        assert!(t.state_equals(&FairshareTree::compute(&policy, &u, &cfg, 1.0)));
    }

    #[test]
    fn mark_all_falls_back_to_full_rebuild() {
        let policy = deep_policy();
        let cfg = FairshareConfig::default();
        let u = usage(&[("g0u0", 10.0)]);
        let mut t = FairshareTree::compute(&policy, &u, &cfg, 0.0);
        let mut dirty = DirtySet::new();
        dirty.mark_all();
        let stats = t.recompute_dirty(&policy, &u, &dirty, 2.0);
        assert!(stats.full);
        assert_eq!(stats.nodes_recomputed, t.node_count() as u64);
    }

    #[test]
    fn structural_mismatch_triggers_full_rebuild() {
        // A user the policy knows but the arena doesn't: rebuild.
        let policy_v1 = flat_policy(&[("a", 0.5), ("b", 0.5)]).unwrap();
        let policy_v2 = flat_policy(&[("a", 0.5), ("b", 0.3), ("c", 0.2)]).unwrap();
        let cfg = FairshareConfig::default();
        let mut u = usage(&[("a", 5.0)]);
        let mut t = FairshareTree::compute(&policy_v1, &u, &cfg, 0.0);
        u.insert(GridUser::new("c"), 7.0);
        let mut dirty = DirtySet::new();
        dirty.mark_user(GridUser::new("c"));
        let stats = t.recompute_dirty(&policy_v2, &u, &dirty, 1.0);
        assert!(stats.full);
        assert!(t.user_priority(&GridUser::new("c")).is_some());
    }

    #[test]
    fn changed_elements_name_exactly_the_moved_nodes() {
        let policy = deep_policy();
        let cfg = FairshareConfig::default();
        let mut u = usage(&[("g0u0", 10.0), ("g1u2", 40.0)]);
        let mut t = FairshareTree::compute(&policy, &u, &cfg, 0.0);
        u.insert(GridUser::new("g1u2"), 41.0);
        let mut dirty = DirtySet::new();
        dirty.mark_user(GridUser::new("g1u2"));
        let stats = t.recompute_dirty(&policy, &u, &dirty, 1.0);
        // Every changed node's derived state really differs from a tree
        // computed on the old usage. Ids are stable across recompute (same
        // policy), so compare by id.
        u.insert(GridUser::new("g1u2"), 40.0);
        let old = FairshareTree::compute(&policy, &u, &cfg, 0.0);
        assert!(!stats.changed_elements.is_empty());
        for id in &stats.changed_elements {
            assert!(!t.share_of(*id).bits_eq(old.share_of(*id)));
        }
        // And every unchanged node's state is bit-identical to the old tree.
        let changed: BTreeSet<NodeId> = stats.changed_elements.iter().copied().collect();
        for i in 0..t.node_count() as u32 {
            if !changed.contains(&NodeId(i)) {
                assert!(t.share_of(NodeId(i)).bits_eq(old.share_of(NodeId(i))));
            }
        }
    }

    #[test]
    fn vectors_via_ids_match_paths() {
        let policy = deep_policy();
        let cfg = FairshareConfig::default();
        let u = usage(&[("g0u0", 10.0), ("g1u2", 40.0)]);
        let t = FairshareTree::compute(&policy, &u, &cfg, 0.0);
        for (_, user) in policy.users() {
            let id = t.user_node(&user).unwrap();
            assert_eq!(
                t.vector_of_id(id).elements(),
                t.vector_for_user(&user).unwrap().elements()
            );
            assert_eq!(t.priority_of_id(id), t.user_priority(&user).unwrap());
        }
        let mut leaves = Vec::new();
        t.leaves_under(NodeId(0), &mut leaves);
        assert_eq!(leaves.len(), 16);
        assert!(leaves.iter().all(|&l| t.parent_of(l).is_some()));
        assert_eq!(t.user_leaves().count(), 16);
    }
}
