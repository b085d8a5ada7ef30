//! Hierarchical, tree-based usage share policies (§II-A constituent 1).
//!
//! A policy tree assigns each user, project, or VO a *target usage share*,
//! recursively subdividable into subgroups. Globally managed sub-policies can
//! be **mounted** into a locally administered root: a site admin assigns,
//! say, 30% of the cluster to a grid, and the grid's own PDS supplies how
//! that 30% subdivides — without the site admin managing grid-internal
//! shares.

use crate::ids::{EntityPath, GridUser};
use std::collections::BTreeMap;

/// Errors raised by policy construction and mounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// A node share was non-finite or negative.
    InvalidShare(String),
    /// Duplicate child name under one parent.
    DuplicateChild(String),
    /// Mount target path does not exist or is not a mount point.
    NoSuchMountPoint(String),
    /// The path names no node in the tree.
    NoSuchPath(String),
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::InvalidShare(n) => write!(f, "invalid share on node {n}"),
            PolicyError::DuplicateChild(n) => write!(f, "duplicate child name {n}"),
            PolicyError::NoSuchMountPoint(p) => write!(f, "no mount point at {p}"),
            PolicyError::NoSuchPath(p) => write!(f, "no policy node at {p}"),
        }
    }
}

impl std::error::Error for PolicyError {}

/// What a policy node represents.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyNodeKind {
    /// An interior grouping (VO, project, research group).
    Group,
    /// A leaf user entity, carrying the grid identity it accounts for.
    User(GridUser),
    /// A mount point: a slot for a remotely managed sub-policy. Until
    /// resolved, it behaves as an empty group.
    MountPoint {
        /// Identifies the remote PDS / policy source expected here.
        source: String,
    },
}

/// One node of a policy tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyNode {
    /// Node name; unique among siblings.
    pub name: String,
    /// Raw (un-normalized) target share weight; ≥ 0.
    pub share: f64,
    /// Node semantics.
    pub kind: PolicyNodeKind,
    /// Child nodes (empty for users and unresolved mount points).
    pub children: Vec<PolicyNode>,
}

impl PolicyNode {
    /// A group node.
    pub fn group(name: impl Into<String>, share: f64, children: Vec<PolicyNode>) -> Self {
        Self {
            name: name.into(),
            share,
            kind: PolicyNodeKind::Group,
            children,
        }
    }

    /// A user leaf whose name doubles as its grid identity.
    pub fn user(name: impl Into<String>, share: f64) -> Self {
        let name = name.into();
        Self {
            share,
            kind: PolicyNodeKind::User(GridUser::new(name.clone())),
            children: Vec::new(),
            name,
        }
    }

    /// A user leaf with an explicit grid identity.
    pub fn user_with_identity(name: impl Into<String>, share: f64, identity: GridUser) -> Self {
        Self {
            name: name.into(),
            share,
            kind: PolicyNodeKind::User(identity),
            children: Vec::new(),
        }
    }

    /// A mount point for a remotely supplied sub-policy.
    pub fn mount_point(name: impl Into<String>, share: f64, source: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            share,
            kind: PolicyNodeKind::MountPoint {
                source: source.into(),
            },
            children: Vec::new(),
        }
    }
}

/// A complete share policy: a named tree with validation and mounting.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyTree {
    root: PolicyNode,
    /// Monotonically increasing version, bumped on every mutation; lets
    /// downstream services (UMS/FCS) detect policy changes cheaply.
    version: u64,
}

impl PolicyTree {
    /// Build a policy tree from a root node, validating shares and name
    /// uniqueness throughout.
    pub fn new(root: PolicyNode) -> Result<Self, PolicyError> {
        validate(&root)?;
        Ok(Self { root, version: 1 })
    }

    /// The root node.
    pub fn root(&self) -> &PolicyNode {
        &self.root
    }

    /// Current policy version (bumped on mount/update).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Find a node by path (root = empty path).
    pub fn node_at(&self, path: &EntityPath) -> Option<&PolicyNode> {
        let mut node = &self.root;
        for comp in path.components() {
            node = node.children.iter().find(|c| &c.name == comp)?;
        }
        Some(node)
    }

    /// Mount a sub-policy at the named mount point. The mounted tree's root
    /// children become the mount node's children; the mount node keeps its
    /// locally assigned share ("local administrations retain control").
    pub fn mount(&mut self, at: &EntityPath, subtree: &PolicyTree) -> Result<(), PolicyError> {
        let node = node_at_mut(&mut self.root, at)
            .ok_or_else(|| PolicyError::NoSuchMountPoint(at.to_string()))?;
        if !matches!(node.kind, PolicyNodeKind::MountPoint { .. }) {
            return Err(PolicyError::NoSuchMountPoint(at.to_string()));
        }
        node.children = subtree.root.children.clone();
        validate(&self.root)?;
        self.version += 1;
        Ok(())
    }

    /// Replace the share of the node at `path` (run-time policy change, as
    /// exercised by the paper's non-optimal policy test).
    pub fn set_share(&mut self, path: &EntityPath, share: f64) -> Result<(), PolicyError> {
        if !(share.is_finite() && share >= 0.0) {
            return Err(PolicyError::InvalidShare(path.to_string()));
        }
        let node = node_at_mut(&mut self.root, path)
            .ok_or_else(|| PolicyError::NoSuchPath(path.to_string()))?;
        node.share = share;
        self.version += 1;
        Ok(())
    }

    /// Normalized target share of each child of `path` (shares of siblings
    /// sum to 1; returns an empty map for leaves and zero-weight groups).
    pub fn normalized_children(&self, path: &EntityPath) -> BTreeMap<String, f64> {
        let Some(node) = self.node_at(path) else {
            return BTreeMap::new();
        };
        let total: f64 = node.children.iter().map(|c| c.share).sum();
        if total <= 0.0 {
            return BTreeMap::new();
        }
        node.children
            .iter()
            .map(|c| (c.name.clone(), c.share / total))
            .collect()
    }

    /// The *absolute* target share of the entity at `path`: the product of
    /// normalized shares along the path (the "total target share" of the
    /// percental projection, §III-C).
    pub fn absolute_share(&self, path: &EntityPath) -> Option<f64> {
        let mut node = &self.root;
        let mut share = 1.0;
        for comp in path.components() {
            let total: f64 = node.children.iter().map(|c| c.share).sum();
            let child = node.children.iter().find(|c| &c.name == comp)?;
            if total <= 0.0 {
                return Some(0.0);
            }
            share *= child.share / total;
            node = child;
        }
        Some(share)
    }

    /// Paths of all user leaves with their grid identities.
    pub fn users(&self) -> Vec<(EntityPath, GridUser)> {
        let mut out = Vec::new();
        collect_users(&self.root, &EntityPath::root(), &mut out);
        out
    }

    /// Every user leaf with its absolute share, in [`users`](Self::users)
    /// order: one `O(nodes)` walk yielding what
    /// [`absolute_share`](Self::absolute_share) would per leaf, bit for bit
    /// (the same `share * (child.share / total)` at every level; a sibling
    /// group without a positive total zeroes its subtree).
    pub fn user_shares(&self) -> Vec<(GridUser, f64)> {
        fn walk(node: &PolicyNode, share: f64, out: &mut Vec<(GridUser, f64)>) {
            if let PolicyNodeKind::User(u) = &node.kind {
                out.push((u.clone(), share));
            }
            let total: f64 = node.children.iter().map(|c| c.share).sum();
            for c in &node.children {
                let below = share * (c.share / total);
                walk(c, if total <= 0.0 { 0.0 } else { below }, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, 1.0, &mut out);
        out
    }

    /// Locate the path of the leaf accounting for the given grid user: a
    /// pre-order walk that stops at the first hit and builds only its path.
    pub fn path_of_user(&self, user: &GridUser) -> Option<EntityPath> {
        fn find(node: &PolicyNode, user: &GridUser) -> Option<Vec<String>> {
            if matches!(&node.kind, PolicyNodeKind::User(u) if u == user) {
                return Some(Vec::new());
            }
            node.children.iter().find_map(|c| {
                let mut reversed = find(c, user)?;
                reversed.push(c.name.clone());
                Some(reversed)
            })
        }
        let mut path = find(&self.root, user)?;
        path.reverse();
        Some(EntityPath(path))
    }

    /// Maximum leaf depth of the tree.
    pub fn depth(&self) -> usize {
        fn depth_of(n: &PolicyNode) -> usize {
            1 + n.children.iter().map(depth_of).max().unwrap_or(0)
        }
        depth_of(&self.root) - 1
    }

    /// Total number of nodes.
    pub fn node_count(&self) -> usize {
        fn count(n: &PolicyNode) -> usize {
            1 + n.children.iter().map(count).sum::<usize>()
        }
        count(&self.root)
    }
}

fn node_at_mut<'a>(root: &'a mut PolicyNode, path: &EntityPath) -> Option<&'a mut PolicyNode> {
    let mut node = root;
    for comp in path.components() {
        node = node.children.iter_mut().find(|c| &c.name == comp)?;
    }
    Some(node)
}

fn validate(node: &PolicyNode) -> Result<(), PolicyError> {
    if !(node.share.is_finite() && node.share >= 0.0) {
        return Err(PolicyError::InvalidShare(node.name.clone()));
    }
    let mut seen = std::collections::BTreeSet::new();
    for c in &node.children {
        if !seen.insert(&c.name) {
            return Err(PolicyError::DuplicateChild(c.name.clone()));
        }
        validate(c)?;
    }
    Ok(())
}

fn collect_users(node: &PolicyNode, path: &EntityPath, out: &mut Vec<(EntityPath, GridUser)>) {
    if let PolicyNodeKind::User(u) = &node.kind {
        out.push((path.clone(), u.clone()));
    }
    for c in &node.children {
        collect_users(c, &path.child(&c.name), out);
    }
}

/// Convenience: a flat single-level policy over plain users with the given
/// (name, share) pairs — the shape used in the paper's evaluation where the
/// four model users U65/U30/U3/Uoth sit directly under the root.
pub fn flat_policy(users: &[(&str, f64)]) -> Result<PolicyTree, PolicyError> {
    PolicyTree::new(PolicyNode::group(
        "root",
        1.0,
        users
            .iter()
            .map(|(n, s)| PolicyNode::user(*n, *s))
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure3_tree() -> PolicyTree {
        // Figure 3's shape: root → {HP → {u1, u2}, LQ}.
        PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![
                PolicyNode::group(
                    "HP",
                    0.7,
                    vec![PolicyNode::user("u1", 0.6), PolicyNode::user("u2", 0.4)],
                ),
                PolicyNode::user("LQ", 0.3),
            ],
        ))
        .unwrap()
    }

    #[test]
    fn normalization_sums_to_one() {
        let t = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![PolicyNode::user("a", 2.0), PolicyNode::user("b", 6.0)],
        ))
        .unwrap();
        let n = t.normalized_children(&EntityPath::root());
        assert!((n["a"] - 0.25).abs() < 1e-12);
        assert!((n["b"] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn absolute_share_is_product() {
        let t = figure3_tree();
        let u1 = t.absolute_share(&EntityPath::parse("/HP/u1")).unwrap();
        assert!((u1 - 0.7 * 0.6).abs() < 1e-12);
        let lq = t.absolute_share(&EntityPath::parse("/LQ")).unwrap();
        assert!((lq - 0.3).abs() < 1e-12);
    }

    #[test]
    fn users_enumerated_with_paths() {
        let t = figure3_tree();
        let users = t.users();
        assert_eq!(users.len(), 3);
        assert!(users
            .iter()
            .any(|(p, u)| p.to_string() == "/HP/u1" && u.as_str() == "u1"));
        assert_eq!(
            t.path_of_user(&GridUser::new("LQ")),
            Some(EntityPath::parse("/LQ"))
        );
    }

    #[test]
    fn mounting_inserts_remote_subtree() {
        // Site assigns 30% to the grid; the grid PDS supplies the subdivision.
        let mut site = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![
                PolicyNode::user("local", 0.7),
                PolicyNode::mount_point("grid", 0.3, "national-pds"),
            ],
        ))
        .unwrap();
        let grid_policy = PolicyTree::new(PolicyNode::group(
            "grid",
            1.0,
            vec![PolicyNode::user("vo-a", 0.5), PolicyNode::user("vo-b", 0.5)],
        ))
        .unwrap();
        let v0 = site.version();
        site.mount(&EntityPath::parse("/grid"), &grid_policy)
            .unwrap();
        assert!(site.version() > v0);
        let voa = site
            .absolute_share(&EntityPath::parse("/grid/vo-a"))
            .unwrap();
        assert!((voa - 0.15).abs() < 1e-12);
        // Local share of the mount stays under site control.
        assert!((site.absolute_share(&EntityPath::parse("/local")).unwrap() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn mount_rejects_non_mount_target() {
        let mut t = figure3_tree();
        let sub = flat_policy(&[("x", 1.0)]).unwrap();
        assert!(matches!(
            t.mount(&EntityPath::parse("/HP"), &sub),
            Err(PolicyError::NoSuchMountPoint(_))
        ));
    }

    #[test]
    fn duplicate_children_rejected() {
        let r = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![PolicyNode::user("a", 0.5), PolicyNode::user("a", 0.5)],
        ));
        assert!(matches!(r, Err(PolicyError::DuplicateChild(_))));
    }

    #[test]
    fn negative_share_rejected() {
        let r = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![PolicyNode::user("a", -0.1)],
        ));
        assert!(matches!(r, Err(PolicyError::InvalidShare(_))));
    }

    #[test]
    fn set_share_changes_normalization() {
        let mut t = figure3_tree();
        t.set_share(&EntityPath::parse("/LQ"), 0.7).unwrap();
        let n = t.normalized_children(&EntityPath::root());
        assert!((n["LQ"] - 0.5).abs() < 1e-12);
        assert!((n["HP"] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn depth_and_count() {
        let t = figure3_tree();
        assert_eq!(t.depth(), 2);
        assert_eq!(t.node_count(), 5);
    }

    #[test]
    fn flat_policy_for_paper_users() {
        // The paper's baseline: actual usage shares as targets.
        let t = flat_policy(&[
            ("U65", 0.6525),
            ("U30", 0.3049),
            ("U3", 0.0286),
            ("Uoth", 0.0140),
        ])
        .unwrap();
        let n = t.normalized_children(&EntityPath::root());
        assert_eq!(n.len(), 4);
        let sum: f64 = n.values().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
