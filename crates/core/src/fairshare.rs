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
//! [`NodeId`]-indexed row holding only what needs the population: a node's
//! raw share, its own and subtree usage, and on each parent the two totals
//! of its sibling group (Σ children's shares, Σ children's subtree usage,
//! each summed left to right in policy order). A node's normalized shares,
//! distance and element ([`NodeShare`]) are a pure function of its own
//! slot, its parent's totals and the config, so they are computed when
//! read ([`FairshareTree::share_of`]) and never stored: nothing has to be
//! re-derived when a sibling moves.
//!
//! A full rebuild is one float pass over a `&[f64]` usage row;
//! [`FairshareTree::recompute_dirty`] re-sums *only the root→leaf paths
//! named by a [`DirtySet`]* — one add pass per touched sibling group — and
//! re-totals shares only in the groups a share edit touched. After any
//! mutation sequence, the incremental state is bit-identical to a
//! from-scratch [`FairshareTree::compute_row`] on the same inputs —
//! enforced by a debug-build assertion inside `recompute_dirty` and by
//! property tests — and so is every value read off it.
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
use std::collections::BTreeMap;
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

/// Fairshare state of one tree node within its sibling group, computed on
/// read by [`FairshareTree::share_of`].
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// One slot of the per-node state row.
#[derive(Debug, Clone)]
struct NodeState {
    /// Raw (un-normalized) policy share.
    share: f64,
    /// Usage attributed directly to this node (non-zero only for users).
    own_usage: f64,
    /// Aggregated usage of this node's subtree.
    subtree_usage: f64,
    /// Σ children's raw shares — moves only on a share edit.
    share_total: f64,
    /// Σ children's subtree usage: the sum [`FairshareTree::resum`] forms.
    usage_total: f64,
}

/// A computed fairshare tree: the policy's shared layout plus per-node
/// sums, supporting both full computation and dirty-path incremental
/// recomputation.
#[derive(Debug, Clone)]
pub struct FairshareTree {
    layout: Arc<PolicyLayout>,
    /// State of each layout node, by [`NodeId`].
    nodes: Vec<NodeState>,
    config: FairshareConfig,
    /// Time the tree was computed, seconds (for staleness checks).
    pub computed_at_s: f64,
    /// Scratch of [`recompute_dirty`](Self::recompute_dirty), kept for its
    /// capacity and clean between calls: whether an ancestor is on a dirty
    /// path, and those ancestors by level.
    on_path: Vec<bool>,
    by_level: Vec<Vec<NodeId>>,
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
    /// — [`UserId::read`] — has no usage). `O(nodes)` float work: no name,
    /// path or map is touched (the layout is shared, and built on the first
    /// call per policy structure).
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
                share_total: 0.0,
                usage_total: 0.0,
            });
            for child in &node.children {
                shares(child, out);
            }
        }
        let layout = Arc::clone(policy.layout());
        let mut nodes = Vec::with_capacity(layout.node_count());
        shares(policy.root(), &mut nodes);
        let mut tree = Self {
            on_path: vec![false; nodes.len()],
            by_level: vec![Vec::new(); layout.depth() + 1],
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
            tree.retotal(id);
        }
        tree
    }

    /// Σ `of(child)` over `id`'s children, left to right in policy order —
    /// the one summation of full and incremental passes.
    fn sum_children(&self, id: NodeId, of: impl Fn(&NodeState) -> f64) -> f64 {
        let children = self.layout[id].children.iter();
        children.map(|c| of(&self.nodes[c.index()])).sum()
    }

    /// `subtree = own + Σ children`, the sum kept as the group's usage total.
    fn resum(&mut self, id: NodeId) {
        let total = self.sum_children(id, |child| child.subtree_usage);
        let node = &mut self.nodes[id.index()];
        node.usage_total = total;
        node.subtree_usage = node.own_usage + total;
    }

    /// Re-total the raw shares of `id`'s children.
    fn retotal(&mut self, id: NodeId) {
        self.nodes[id.index()].share_total = self.sum_children(id, |child| child.share);
    }

    /// Incrementally bring the tree up to date for the users whose usage
    /// and the paths whose share changed, per `dirty`: one add pass per
    /// sibling group on a dirty root→leaf path, one per group holding an
    /// edited share — `O(dirty·depth + Σ touched group widths)`.
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
        let layout = Arc::clone(&self.layout);
        for path in dirty.paths() {
            let id = layout.node_at(path)?;
            self.nodes[id.index()].share = policy.node_at(path)?.share;
            // The root's share participates in no sibling group.
            if let Some(group) = layout[id].parent {
                self.retotal(group);
            }
        }
        // A dirty leaf is re-summed where it is met (each is met once); its
        // ancestors are collected, each once, and re-summed deepest level
        // first, so every parent re-sums already-updated children, as in a
        // full pass. Usage of users outside the policy is ignored, as there.
        let mut nodes_recomputed = 0;
        for user in dirty.users() {
            for &leaf in layout.leaves_of(user) {
                self.nodes[leaf.index()].own_usage = user.read(usage).unwrap_or(0.0);
                self.resum(leaf);
                nodes_recomputed += 1;
                // An ancestor already on a path has brought its own.
                let mut next = layout[leaf].parent;
                while let Some(id) = next.filter(|id| !self.on_path[id.index()]) {
                    let at = &layout[id];
                    self.on_path[id.index()] = true;
                    self.by_level[at.level as usize].push(id);
                    next = at.parent;
                }
            }
        }
        for level in (0..self.by_level.len()).rev() {
            let mut on_level = std::mem::take(&mut self.by_level[level]);
            for id in on_level.drain(..) {
                self.resum(id);
                self.on_path[id.index()] = false;
                nodes_recomputed += 1;
            }
            self.by_level[level] = on_level;
        }
        Some(RecomputeStats {
            full: false,
            nodes_recomputed,
        })
    }

    /// Bit-exact state comparison against another tree (same policy shape,
    /// shares, aggregates and group totals — all a read depends on). The
    /// equivalence oracle for the incremental engine.
    pub fn state_equals(&self, other: &FairshareTree) -> bool {
        let bits = |n: &NodeState| {
            [
                n.share,
                n.own_usage,
                n.subtree_usage,
                n.share_total,
                n.usage_total,
            ]
            .map(f64::to_bits)
        };
        (Arc::ptr_eq(&self.layout, &other.layout) || self.layout == other.layout)
            && self.config == other.config
            && (self.nodes.iter().map(bits)).eq(other.nodes.iter().map(bits))
    }

    /// The policy layout this tree's state row is laid out over.
    pub fn layout(&self) -> &Arc<PolicyLayout> {
        &self.layout
    }

    /// Per-node share state at `path` (the root has no sibling group and
    /// reports `None`).
    pub fn node(&self, path: &EntityPath) -> Option<NodeShare> {
        let id = self.layout.node_at(path)?;
        self.layout[id].parent.map(|_| self.share_of(id))
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

    /// Share state of an arena node within its sibling group: its own share
    /// and subtree usage over its parent's two totals, then
    /// [`FairshareConfig::distance`] and [`Resolution::scale`] — a handful
    /// of flops, pure in the state row. The root has no sibling group and
    /// reads neutral.
    pub fn share_of(&self, id: NodeId) -> NodeShare {
        let Some(parent) = self.layout[id].parent else {
            return NodeShare {
                policy_share: 1.0,
                usage_share: 1.0,
                distance: 0.0,
                element: 0.0,
            };
        };
        let (node, group) = (&self.nodes[id.index()], &self.nodes[parent.index()]);
        let p = if group.share_total > 0.0 {
            node.share / group.share_total
        } else {
            0.0
        };
        let u = if group.usage_total > 0.0 {
            node.subtree_usage / group.usage_total
        } else {
            0.0
        };
        let d = self.config.distance(p, u);
        NodeShare {
            policy_share: p,
            usage_share: u,
            distance: d,
            element: self.config.resolution.scale(d),
        }
    }

    /// Leaf distance ("priority") of an arena node.
    pub fn priority_of_id(&self, id: NodeId) -> f64 {
        self.share_of(id).distance
    }

    /// Fairshare vector of the entity at an arena id, padded to tree depth.
    pub fn vector_of_id(&self, id: NodeId) -> FairshareVector {
        let mut elements = Vec::with_capacity(self.depth());
        let mut cur = id;
        while let Some(parent) = self.layout[cur].parent {
            elements.push(self.share_of(cur).element);
            cur = parent;
        }
        elements.reverse();
        FairshareVector::from_elements(elements, self.config.resolution).padded(self.depth())
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

    /// What `share_of` reads for every node, as bits, by node id.
    fn share_bits(tree: &FairshareTree) -> Vec<[u64; 4]> {
        let ids = (0..tree.node_count() as u32).map(NodeId);
        ids.map(|id| {
            let s = tree.share_of(id);
            [s.policy_share, s.usage_share, s.distance, s.element].map(f64::to_bits)
        })
        .collect()
    }

    /// The nodes whose `share_of` differs between two trees of one layout.
    fn moved(old: &FairshareTree, new: &FairshareTree) -> Vec<String> {
        let pairs = share_bits(old).into_iter().zip(share_bits(new));
        let moved = pairs.enumerate().filter(|(_, (a, b))| a != b);
        moved
            .map(|(i, _)| format!("{}", new.layout().path_of(NodeId(i as u32))))
            .collect()
    }

    #[test]
    fn single_user_update_recomputes_only_the_path() {
        let policy = deep_policy();
        let cfg = FairshareConfig::default();
        let mut u = row(&policy, &[("g0u0", 10.0), ("g1u2", 40.0), ("g3u3", 25.0)]);
        let old = FairshareTree::compute_row(&policy, &u, &cfg, 0.0);
        let mut t = old.clone();
        u[id(&policy, "g1u2").index()] = 90.0;
        let dirty = dirty_users(&policy, &["g1u2"]);
        let stats = t.recompute_dirty(&policy, &u, &dirty, 1.0).unwrap();
        assert!(!stats.full);
        // Exactly the root→leaf path: leaf, its group, the root.
        assert_eq!(stats.nodes_recomputed, 3);
        // Only the two sibling groups along it read differently: the root's
        // four groups and g1's four users.
        let touched = ["/g0", "/g1", "/g2", "/g3"].into_iter();
        let touched: Vec<String> = touched
            .chain(["/g1/g1u0", "/g1/g1u1", "/g1/g1u2", "/g1/g1u3"])
            .map(String::from)
            .collect();
        assert!(moved(&old, &t).iter().all(|path| touched.contains(path)));
        assert!(moved(&old, &t).contains(&"/g1".to_string()));
        // Equivalence (also enforced by the debug assertion inside).
        let fresh = FairshareTree::compute_row(&policy, &u, &cfg, 1.0);
        assert!(t.state_equals(&fresh));
        assert_eq!(share_bits(&t), share_bits(&fresh));
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
        assert_eq!(t.computed_at_s, 5.0);
    }

    #[test]
    fn share_edit_refreshes_one_sibling_group() {
        let mut policy = deep_policy();
        let cfg = FairshareConfig::default();
        let u = row(&policy, &[("g0u0", 10.0), ("g2u1", 30.0)]);
        let old = FairshareTree::compute_row(&policy, &u, &cfg, 0.0);
        let mut t = old.clone();
        let path = EntityPath::parse("/g2/g2u1");
        policy.set_share(&path, 9.0).unwrap();
        let mut dirty = DirtySet::new();
        dirty.mark_path(path);
        let stats = t.recompute_dirty(&policy, &u, &dirty, 1.0).unwrap();
        assert!(!stats.full);
        assert_eq!(stats.nodes_recomputed, 0);
        // One group re-totalled — g2's — and exactly its members moved.
        let group = ["/g2/g2u0", "/g2/g2u1", "/g2/g2u2", "/g2/g2u3"];
        assert_eq!(moved(&old, &t), group);
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

    /// With nothing derived there is no list of changed nodes to hand out:
    /// what holds is that a usage update moves reads only inside the groups
    /// its path crosses.
    #[test]
    fn a_usage_update_leaves_every_node_outside_the_touched_groups_bit_equal() {
        let policy = deep_policy();
        let cfg = FairshareConfig::default();
        let mut u = row(&policy, &[("g0u0", 10.0), ("g1u2", 40.0)]);
        let old = FairshareTree::compute_row(&policy, &u, &cfg, 0.0);
        let mut t = old.clone();
        u[id(&policy, "g1u2").index()] = 41.0;
        let dirty = dirty_users(&policy, &["g1u2"]);
        t.recompute_dirty(&policy, &u, &dirty, 1.0).unwrap();
        // Ids are stable across recompute (same layout), so compare by id:
        // a node reads differently only as a child of the root or of /g1.
        let (before, after) = (share_bits(&old), share_bits(&t));
        let g1 = t.layout().node_at(&EntityPath::parse("/g1"));
        let mut moved = 0;
        for i in 0..t.node_count() {
            let parent = t.layout()[NodeId(i as u32)].parent;
            if before[i] != after[i] {
                assert!(parent == Some(NodeId(0)) || parent == g1, "node {i}");
                moved += 1;
            }
        }
        // At the root /g0 and /g1 trade usage share; inside /g1, g1u2 held
        // all of the group's usage before and after, so nobody moved.
        assert_eq!(moved, 2, "/g0 and /g1");
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
        assert_eq!(t.user_leaves().count(), 16);
    }
}
