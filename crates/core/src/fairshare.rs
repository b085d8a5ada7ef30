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
//! A tree is the policy's shared [`PolicyLayout`] — topology, names, which
//! leaf accounts for whom; built once per policy structure — plus one flat
//! [`NodeId`]-indexed row of per-node state, so a full rebuild is a float
//! pass over a `&[f64]` usage row and
//! [`FairshareTree::recompute_dirty`] can re-derive state for *only the
//! subtrees named by a [`DirtySet`]*: a usage change for one user re-
//! aggregates exactly the root→leaf paths of that user's leaves and
//! refreshes the sibling groups along them. After any mutation sequence,
//! the incremental state is bit-identical to a from-scratch
//! [`FairshareTree::compute_row`] on the same inputs — enforced by a
//! debug-build assertion inside `recompute_dirty` and by property tests.
//!
//! A tree speaks the [`UserId`]s of its layout: ranks in
//! [`PolicyLayout::users`]. A holder whose
//! [`UserTable`](crate::arena::UserTable) is built over that base passes
//! its rows and dirty sets through as they are.

use crate::arena::{DirtySet, NodeId, RecomputeStats, UserId};
use crate::decay::DecayPolicy;
use crate::ids::{EntityPath, GridUser};
use crate::policy::{PolicyLayout, PolicyNode, PolicyTree};
use crate::vector::{FairshareVector, Resolution};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

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

/// One slot of the per-node state row.
#[derive(Debug, Clone)]
struct NodeState {
    /// Raw (un-normalized) policy share.
    share: f64,
    /// Usage attributed directly to this node (non-zero only for users).
    own_usage: f64,
    /// Aggregated usage of this node's subtree.
    subtree_usage: f64,
    /// Derived shares/distance/element within the parent's sibling group.
    state: NodeShare,
}

/// A computed fairshare tree: the policy's shared layout plus per-node
/// shares, supporting both full computation and dirty-subtree incremental
/// recomputation.
#[derive(Debug, Clone)]
pub struct FairshareTree {
    layout: Arc<PolicyLayout>,
    /// State of each layout node, by [`NodeId`].
    nodes: Vec<NodeState>,
    config: FairshareConfig,
    /// Time the tree was computed, seconds (for staleness checks).
    pub computed_at_s: f64,
}

impl FairshareTree {
    /// Compute the fairshare tree from a policy and name-keyed per-user
    /// (already decayed) usage totals: the names are ranked against the
    /// layout's user base, then [`compute_row`](Self::compute_row).
    pub fn compute(
        policy: &PolicyTree,
        usage_by_user: &BTreeMap<GridUser, f64>,
        config: &FairshareConfig,
        now_s: f64,
    ) -> Self {
        let layout = policy.layout();
        let mut row = vec![0.0; layout.users().len()];
        for (user, value) in usage_by_user {
            if let Some(id) = layout.user_id(user) {
                row[id.index()] = *value;
            }
        }
        Self::compute_row(policy, &row, config, now_s)
    }

    /// Compute the fairshare tree from a policy and a usage row indexed by
    /// the [`UserId`]s of the policy's layout (a user it has no entry for
    /// — [`UserId::read`] — has no usage). `O(nodes)` float work and one
    /// allocation: no name, path or map is touched (the layout is shared,
    /// and built on the first call per policy structure).
    pub fn compute_row(
        policy: &PolicyTree,
        usage: &[f64],
        config: &FairshareConfig,
        now_s: f64,
    ) -> Self {
        fn shares(node: &PolicyNode, out: &mut Vec<NodeState>) {
            out.push(NodeState {
                share: node.share,
                own_usage: 0.0,
                subtree_usage: 0.0,
                state: NodeShare::neutral(),
            });
            for child in &node.children {
                shares(child, out);
            }
        }
        let layout = Arc::clone(policy.layout());
        let mut nodes = Vec::with_capacity(layout.node_count());
        shares(policy.root(), &mut nodes);
        let mut tree = Self {
            layout,
            nodes,
            config: *config,
            computed_at_s: now_s,
        };
        // Bottom-up: ids are depth-first, so children sit after their parent.
        for id in (0..tree.nodes.len() as u32).rev().map(NodeId) {
            let own = tree.layout[id].user;
            tree.nodes[id.index()].own_usage = own.and_then(|user| user.read(usage)).unwrap_or(0.0);
            tree.resum(id);
        }
        for id in (0..tree.nodes.len() as u32).map(NodeId) {
            tree.derive_group(id, |_| {});
        }
        tree
    }

    /// `subtree = own + Σ children`, children summed in policy order — the
    /// one summation order of full and incremental passes.
    fn resum(&mut self, id: NodeId) {
        let children = self.layout[id].children.iter();
        let children_sum: f64 = children.map(|c| self.nodes[c.index()].subtree_usage).sum();
        let node = &mut self.nodes[id.index()];
        node.subtree_usage = node.own_usage + children_sum;
    }

    /// Refresh the derived state of `id`'s children (one sibling group),
    /// handing `changed` every child whose derived state changed in any
    /// component (shares, distance, or element) — the roots of the subtrees
    /// whose users need re-projection.
    fn derive_group(&mut self, id: NodeId, mut changed: impl FnMut(NodeId)) {
        let Self {
            layout,
            nodes,
            config,
            ..
        } = self;
        let children = &layout[id].children;
        let policy_total: f64 = children.iter().map(|c| nodes[c.index()].share).sum();
        let usage_total: f64 = children
            .iter()
            .map(|c| nodes[c.index()].subtree_usage)
            .sum();
        for &cid in children {
            let child = &mut nodes[cid.index()];
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
            let d = config.distance(p, u);
            let state = NodeShare {
                policy_share: p,
                usage_share: u,
                distance: d,
                element: config.resolution.scale(d),
            };
            if !child.state.bits_eq(&state) {
                changed(cid);
            }
            child.state = state;
        }
    }

    /// Incrementally re-derive fairshare state for the subtrees whose usage
    /// or policy changed, per `dirty`.
    ///
    /// `usage` is the complete usage row the tree should reflect (only the
    /// dirty users' entries are read; a dirty user re-aggregates *every*
    /// leaf accounting for it); `policy` is consulted for edited shares.
    /// `None` when the change cannot be served incrementally — `dirty` says
    /// "all", `policy` has another structure than the tree was computed for,
    /// or an edited path names no node: the tree may then be half-updated
    /// and the caller recomputes it with [`compute_row`](Self::compute_row).
    ///
    /// **Equivalence invariant:** after `Some(_)`, the tree state is
    /// bit-identical to `FairshareTree::compute_row(policy, usage, config,
    /// now_s)` — asserted here in debug builds.
    pub fn recompute_dirty(
        &mut self,
        policy: &PolicyTree,
        usage: &[f64],
        dirty: &DirtySet,
        now_s: f64,
    ) -> Option<RecomputeStats> {
        let stats = self.recompute_dirty_inner(policy, usage, dirty, now_s)?;
        #[cfg(debug_assertions)]
        {
            let fresh = Self::compute_row(policy, usage, &self.config, now_s);
            debug_assert!(
                self.state_equals(&fresh),
                "incremental fairshare state diverged from full recompute"
            );
        }
        Some(stats)
    }

    fn recompute_dirty_inner(
        &mut self,
        policy: &PolicyTree,
        usage: &[f64],
        dirty: &DirtySet,
        now_s: f64,
    ) -> Option<RecomputeStats> {
        if dirty.is_all() || !Arc::ptr_eq(&self.layout, policy.layout()) {
            return None;
        }
        self.computed_at_s = now_s;
        if dirty.is_empty() {
            return Some(RecomputeStats::default());
        }
        let layout = Arc::clone(&self.layout);

        // Nodes whose subtree aggregate must be re-summed (dirty leaves plus
        // their ancestors) and sibling groups needing a derived refresh.
        // Usage of users outside the policy is ignored, as by a full pass.
        let mut agg: BTreeSet<NodeId> = BTreeSet::new();
        let mut groups: BTreeSet<NodeId> = BTreeSet::new();
        for user in dirty.users() {
            for &leaf in layout.leaves_of(user) {
                self.nodes[leaf.index()].own_usage = user.read(usage).unwrap_or(0.0);
                let mut cur = leaf;
                agg.insert(cur);
                while let Some(parent) = layout[cur].parent {
                    agg.insert(parent);
                    groups.insert(parent);
                    cur = parent;
                }
            }
        }
        for path in dirty.paths() {
            let id = layout.node_at(path)?;
            self.nodes[id.index()].share = policy.node_at(path)?.share;
            // The root's share participates in no sibling group.
            groups.extend(layout[id].parent);
        }

        // Re-aggregate bottom-up (deepest first) so each parent re-sums
        // already-updated children, in the same order as a full pass.
        let mut by_depth: Vec<NodeId> = agg.into_iter().collect();
        by_depth.sort_by_key(|id| std::cmp::Reverse(layout[*id].level));
        for &id in &by_depth {
            self.resum(id);
        }

        // Refresh derived shares of every affected sibling group.
        let mut shares_refreshed = 0u64;
        let mut changed_elements = Vec::new();
        for &g in &groups {
            shares_refreshed += layout[g].children.len() as u64;
            self.derive_group(g, |child| changed_elements.push(child));
        }
        Some(RecomputeStats {
            full: false,
            nodes_recomputed: by_depth.len() as u64,
            shares_refreshed,
            changed_elements,
        })
    }

    /// Bit-exact state comparison against another tree (same policy shape,
    /// aggregates, and derived shares). The equivalence oracle for the
    /// incremental engine.
    pub fn state_equals(&self, other: &FairshareTree) -> bool {
        (Arc::ptr_eq(&self.layout, &other.layout) || self.layout == other.layout)
            && self.nodes.iter().zip(&other.nodes).all(|(a, b)| {
                a.share.to_bits() == b.share.to_bits()
                    && a.own_usage.to_bits() == b.own_usage.to_bits()
                    && a.subtree_usage.to_bits() == b.subtree_usage.to_bits()
                    && a.state.bits_eq(&b.state)
            })
    }

    /// The policy layout this tree's state row is laid out over.
    pub fn layout(&self) -> &Arc<PolicyLayout> {
        &self.layout
    }

    /// Per-node share state at `path` (the root has no sibling group and
    /// reports `None`).
    pub fn node(&self, path: &EntityPath) -> Option<&NodeShare> {
        if path.is_root() {
            return None;
        }
        let id = self.layout.node_at(path)?;
        Some(&self.nodes[id.index()].state)
    }

    /// The leaf a user's vector and factor are read from: the last one
    /// accounting for it, in policy order.
    pub fn leaf_of(&self, user: UserId) -> Option<NodeId> {
        self.layout.leaves_of(user).last().copied()
    }

    /// Resolve a grid user to its serving leaf ([`leaf_of`](Self::leaf_of))
    /// by name.
    pub fn user_node(&self, user: &GridUser) -> Option<NodeId> {
        self.leaf_of(self.layout.user_id(user)?)
    }

    /// Derived share state of an arena node.
    pub fn share_of(&self, id: NodeId) -> &NodeShare {
        &self.nodes[id.index()].state
    }

    /// Leaf distance ("priority") of an arena node.
    pub fn priority_of_id(&self, id: NodeId) -> f64 {
        self.nodes[id.index()].state.distance
    }

    /// Fairshare vector of the entity at an arena id, padded to tree depth.
    pub fn vector_of_id(&self, id: NodeId) -> FairshareVector {
        let mut elements = Vec::with_capacity(self.depth());
        let mut cur = id;
        while let Some(parent) = self.layout[cur].parent {
            elements.push(self.nodes[cur.index()].state.element);
            cur = parent;
        }
        elements.reverse();
        FairshareVector::from_elements(elements, self.config.resolution).padded(self.depth())
    }

    /// Append the user leaves of the subtree rooted at `id` (dirty-subtree
    /// re-projection support) — one pass over the subtree's id range.
    pub fn leaves_under(&self, id: NodeId, out: &mut Vec<NodeId>) {
        let subtree = (id.0..self.layout[id].end).map(NodeId);
        out.extend(subtree.filter(|&node| self.layout[node].user.is_some()));
    }

    /// Every user with its serving leaf, in id order.
    pub fn user_leaves(&self) -> impl Iterator<Item = (UserId, NodeId)> + '_ {
        let users = (0..self.layout.users().len() as u32).map(UserId);
        users.filter_map(|user| Some((user, self.leaf_of(user)?)))
    }

    /// The fairshare vector of a grid user (by leaf identity).
    pub fn vector_for_user(&self, user: &GridUser) -> Option<FairshareVector> {
        self.user_node(user).map(|id| self.vector_of_id(id))
    }

    /// The leaf distance ("priority") of a grid user.
    pub fn user_priority(&self, user: &GridUser) -> Option<f64> {
        self.user_node(user).map(|id| self.priority_of_id(id))
    }

    /// Fairshare vectors for every user, in id (= name) order.
    pub fn all_vectors(&self) -> Vec<(UserId, FairshareVector)> {
        self.user_leaves()
            .map(|(user, leaf)| (user, self.vector_of_id(leaf)))
            .collect()
    }

    /// A per-user row of this tree (a projection's output) as a report:
    /// every user of the policy by name.
    pub fn by_user(&self, row: &[f64]) -> BTreeMap<GridUser, f64> {
        let users = self.layout.users().iter().cloned();
        users.zip(row.iter().copied()).collect()
    }

    /// Maximum hierarchy depth.
    pub fn depth(&self) -> usize {
        self.layout.depth()
    }

    /// Total number of arena nodes (policy nodes incl. root).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
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

    fn id(policy: &PolicyTree, user: &str) -> UserId {
        policy.layout().user_id(&GridUser::new(user)).unwrap()
    }

    /// A usage row over `policy`'s user base.
    fn row(policy: &PolicyTree, pairs: &[(&str, f64)]) -> Vec<f64> {
        let mut row = vec![0.0; policy.layout().users().len()];
        for (user, value) in pairs {
            row[id(policy, user).index()] = *value;
        }
        row
    }

    fn dirty_users(policy: &PolicyTree, users: &[&str]) -> DirtySet {
        let mut dirty = DirtySet::new();
        for user in users {
            dirty.mark_user(id(policy, user));
        }
        dirty
    }

    #[test]
    fn single_user_update_recomputes_only_the_path() {
        let policy = deep_policy();
        let cfg = FairshareConfig::default();
        let mut u = row(&policy, &[("g0u0", 10.0), ("g1u2", 40.0), ("g3u3", 25.0)]);
        let mut t = FairshareTree::compute_row(&policy, &u, &cfg, 0.0);
        u[id(&policy, "g1u2").index()] = 90.0;
        let dirty = dirty_users(&policy, &["g1u2"]);
        let stats = t.recompute_dirty(&policy, &u, &dirty, 1.0).unwrap();
        assert!(!stats.full);
        // Exactly the root→leaf path: leaf, its group, the root.
        assert_eq!(stats.nodes_recomputed, 3);
        // Sibling groups refreshed: root's 4 groups + g1's 4 users.
        assert_eq!(stats.shares_refreshed, 8);
        // Equivalence (also enforced by the debug assertion inside).
        let fresh = FairshareTree::compute_row(&policy, &u, &cfg, 1.0);
        assert!(t.state_equals(&fresh));
    }

    /// One identity under two projects — ordinary in a VO tree. A full pass
    /// charges its usage to every leaf carrying it; the incremental pass
    /// must re-aggregate them all, not the last one only.
    #[test]
    fn an_identity_under_two_leaves_stays_equal_to_the_full_tree() {
        let alice = || GridUser::new("CN=alice");
        let project = |name: &str, member: &str| {
            PolicyNode::group(
                name,
                1.0,
                vec![
                    PolicyNode::user_with_identity("alice", 1.0, alice()),
                    PolicyNode::user(member, 1.0),
                ],
            )
        };
        let policy = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![project("p0", "bob"), project("p1", "carol")],
        ))
        .unwrap();
        let cfg = FairshareConfig::default();
        let mut u = row(&policy, &[("bob", 30.0), ("carol", 5.0)]);
        let mut t = FairshareTree::compute_row(&policy, &u, &cfg, 0.0);
        u[id(&policy, "CN=alice").index()] = 40.0;
        let dirty = dirty_users(&policy, &["CN=alice"]);
        let stats = t.recompute_dirty_inner(&policy, &u, &dirty, 1.0).unwrap();
        // Both leaves, both projects, the root.
        assert_eq!(stats.nodes_recomputed, 5);
        assert!(t.state_equals(&FairshareTree::compute_row(&policy, &u, &cfg, 1.0)));
        // The served leaf is the last in policy order, by id and by name.
        let served = t.user_node(&alice()).unwrap();
        assert_eq!(t.layout().path_of(served), EntityPath::parse("/p1/alice"));
        assert_eq!(t.layout().leaves_of(id(&policy, "CN=alice")).len(), 2);
        let by_name: BTreeMap<GridUser, f64> = [(alice(), 40.0)].into();
        let named = FairshareTree::compute(&policy, &by_name, &cfg, 1.0);
        assert_eq!(
            named
                .node(&EntityPath::parse("/p0/alice"))
                .unwrap()
                .usage_share,
            1.0
        );
        assert_eq!(
            named
                .node(&EntityPath::parse("/p1/alice"))
                .unwrap()
                .usage_share,
            1.0
        );
    }

    #[test]
    fn empty_dirty_set_is_a_noop() {
        let policy = deep_policy();
        let cfg = FairshareConfig::default();
        let u = row(&policy, &[("g0u0", 10.0)]);
        let mut t = FairshareTree::compute_row(&policy, &u, &cfg, 0.0);
        let stats = t
            .recompute_dirty(&policy, &u, &DirtySet::new(), 5.0)
            .unwrap();
        assert_eq!(stats.nodes_recomputed, 0);
        assert_eq!(stats.shares_refreshed, 0);
        assert_eq!(t.computed_at_s, 5.0);
    }

    #[test]
    fn share_edit_refreshes_one_sibling_group() {
        let mut policy = deep_policy();
        let cfg = FairshareConfig::default();
        let u = row(&policy, &[("g0u0", 10.0), ("g2u1", 30.0)]);
        let mut t = FairshareTree::compute_row(&policy, &u, &cfg, 0.0);
        let path = EntityPath::parse("/g2/g2u1");
        policy.set_share(&path, 9.0).unwrap();
        let mut dirty = DirtySet::new();
        dirty.mark_path(path);
        let stats = t.recompute_dirty(&policy, &u, &dirty, 1.0).unwrap();
        assert!(!stats.full);
        assert_eq!(stats.nodes_recomputed, 0);
        assert_eq!(stats.shares_refreshed, 4); // g2's sibling group only
        assert!(t.state_equals(&FairshareTree::compute_row(&policy, &u, &cfg, 1.0)));
    }

    #[test]
    fn mark_all_and_another_structure_are_left_to_a_full_rebuild() {
        let policy = deep_policy();
        let cfg = FairshareConfig::default();
        let u = row(&policy, &[("g0u0", 10.0)]);
        let mut t = FairshareTree::compute_row(&policy, &u, &cfg, 0.0);
        let mut all = DirtySet::new();
        all.mark_all();
        assert!(t.recompute_dirty(&policy, &u, &all, 2.0).is_none());
        // A policy of another structure — even an equal one built apart —
        // has another layout: the tree's ids mean nothing in it.
        let rebuilt = deep_policy();
        assert!(t
            .recompute_dirty(&rebuilt, &u, &DirtySet::new(), 2.0)
            .is_none());
        // A share edit keeps the layout, and so do clones.
        let mut edited = policy.clone();
        edited.set_share(&EntityPath::parse("/g1"), 5.0).unwrap();
        assert!(Arc::ptr_eq(edited.layout(), policy.layout()));
    }

    #[test]
    fn changed_elements_name_exactly_the_moved_nodes() {
        let policy = deep_policy();
        let cfg = FairshareConfig::default();
        let mut u = row(&policy, &[("g0u0", 10.0), ("g1u2", 40.0)]);
        let old = FairshareTree::compute_row(&policy, &u, &cfg, 0.0);
        let mut t = old.clone();
        u[id(&policy, "g1u2").index()] = 41.0;
        let dirty = dirty_users(&policy, &["g1u2"]);
        let stats = t.recompute_dirty(&policy, &u, &dirty, 1.0).unwrap();
        // Every changed node's derived state really differs from the tree
        // computed on the old usage. Ids are stable across recompute (same
        // layout), so compare by id.
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
            assert_eq!(Some(t.layout().path_of(id)), policy.path_of_user(&user));
        }
        let mut leaves = Vec::new();
        t.leaves_under(NodeId(0), &mut leaves);
        assert_eq!(leaves.len(), 16);
        assert!(leaves.iter().all(|&l| t.layout()[l].parent.is_some()));
        assert_eq!(t.user_leaves().count(), 16);
    }
}
