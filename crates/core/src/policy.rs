//! Hierarchical, tree-based usage share policies (§II-A constituent 1).
//!
//! A policy tree assigns each user, project, or VO a *target usage share*,
//! recursively subdividable into subgroups. Globally managed sub-policies can
//! be **mounted** into a locally administered root: a site admin assigns,
//! say, 30% of the cluster to a grid, and the grid's own PDS supplies how
//! that 30% subdivides — without the site admin managing grid-internal
//! shares.

use crate::arena::{NodeId, UserId, UserTable};
use crate::ids::{EntityPath, GridUser};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Errors raised by policy construction and mounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// A node share was non-finite or negative, or its children's shares
    /// sum past `f64::MAX` (each would normalize to 0).
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

/// A complete share policy: a named tree with validation and mounting. A
/// clone shares the nodes until an edit copies them for the edited clone.
#[derive(Clone)]
pub struct PolicyTree {
    root: Arc<PolicyNode>,
    /// Monotonically increasing version, bumped on every mutation; lets
    /// downstream services (UMS/FCS) detect policy changes cheaply.
    version: u64,
    /// The [`PolicyLayout`] of this tree's *structure*, built on first use
    /// and shared by every clone (the sites of a grid pay for one between
    /// them). Share edits keep it; [`mount`](Self::mount) starts afresh.
    layout: Arc<OnceLock<Arc<PolicyLayout>>>,
}

/// As derived, without the layout: whether one has been built yet is not
/// part of a policy's printed form (or of its equality).
impl std::fmt::Debug for PolicyTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyTree")
            .field("root", &self.root)
            .field("version", &self.version)
            .finish()
    }
}

impl PartialEq for PolicyTree {
    fn eq(&self, other: &Self) -> bool {
        self.root == other.root && self.version == other.version
    }
}

impl PolicyTree {
    /// Build a policy tree from a root node, validating shares and name
    /// uniqueness throughout.
    pub fn new(root: PolicyNode) -> Result<Self, PolicyError> {
        validate(&root)?;
        Ok(Self {
            root: Arc::new(root),
            version: 1,
            layout: Arc::default(),
        })
    }

    /// The layout of this tree's structure — built once (one walk plus the
    /// name sort that ranks the user base) for this tree and all its clones
    /// — or the one [`key_by`](Self::key_by) gave it.
    pub fn layout(&self) -> &Arc<PolicyLayout> {
        let build = || Arc::new(PolicyLayout::build(&self.root));
        self.layout.get_or_init(build)
    }

    /// Give this tree (and its later clones, not its earlier ones) its
    /// layout keyed by a site's `users`, which share edits keep: the
    /// layout's users named by `users`' ids, those it lacks interned there.
    pub fn key_by(&mut self, users: &mut UserTable) {
        let keyed = Arc::new(self.layout().keyed_by(users));
        self.layout = Arc::new(OnceLock::from(keyed));
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
        let mut node: &PolicyNode = &self.root;
        for comp in path.components() {
            node = node.children.iter().find(|c| &c.name == comp)?;
        }
        Some(node)
    }

    /// Mount a sub-policy at the named mount point. The mounted tree's root
    /// children become the mount node's children; the mount node keeps its
    /// locally assigned share ("local administrations retain control").
    pub fn mount(&mut self, at: &EntityPath, subtree: &PolicyTree) -> Result<(), PolicyError> {
        let node = node_at_mut(Arc::make_mut(&mut self.root), at)
            .ok_or_else(|| PolicyError::NoSuchMountPoint(at.to_string()))?;
        if !matches!(node.kind, PolicyNodeKind::MountPoint { .. }) {
            return Err(PolicyError::NoSuchMountPoint(at.to_string()));
        }
        node.children = subtree.root.children.clone();
        self.layout = Arc::default();
        validate(&self.root)?;
        self.version += 1;
        Ok(())
    }

    /// Replace the share of the node at `path` (run-time policy change, as
    /// exercised by the paper's non-optimal policy test). A share that is
    /// not finite and non-negative, or that would make its sibling group
    /// sum past `f64::MAX` (the test [`PolicyTree::new`] applies), is
    /// refused before anything is written.
    pub fn set_share(&mut self, path: &EntityPath, share: f64) -> Result<(), PolicyError> {
        if !(share.is_finite() && share >= 0.0) {
            return Err(PolicyError::InvalidShare(path.to_string()));
        }
        let overflowing = path.components().split_last().and_then(|(name, up)| {
            let group = self.node_at(&EntityPath(up.to_vec()))?;
            let share_of = |c: &PolicyNode| if &c.name == name { share } else { c.share };
            let total: f64 = group.children.iter().map(share_of).sum();
            (!total.is_finite()).then_some(group)
        });
        if let Some(group) = overflowing {
            return Err(PolicyError::InvalidShare(group.name.clone()));
        }
        let node = node_at_mut(Arc::make_mut(&mut self.root), path)
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
        let mut node: &PolicyNode = &self.root;
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

    /// Paths of all user leaves with their grid identities, in policy order.
    pub fn users(&self) -> Vec<(EntityPath, GridUser)> {
        let layout = self.layout();
        let leaf = |id| {
            let user = layout.users.name(layout[id].user?);
            Some((layout.path_of(id), user.clone()))
        };
        (0..layout.nodes.len() as u32)
            .map(NodeId)
            .filter_map(leaf)
            .collect()
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

    /// The path of the first leaf (in policy order) accounting for `user`.
    pub fn path_of_user(&self, user: &GridUser) -> Option<EntityPath> {
        let layout = self.layout();
        let first = layout.leaves_of(layout.user_id(user)?).first()?;
        Some(layout.path_of(*first))
    }
}

/// One node of a [`PolicyLayout`] (`layout[id]`); slots are in depth-first
/// policy order.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutNode {
    /// Node name (unique among siblings).
    pub name: String,
    /// Parent slot; `None` for the root.
    pub parent: Option<NodeId>,
    /// Child slots, in policy order.
    pub children: Vec<NodeId>,
    /// Hierarchy level (root = 0).
    pub level: u32,
    /// The identity a user leaf accounts for; `None` for interior nodes.
    pub user: Option<UserId>,
}

/// What only a policy's *structure* determines — arena topology, node
/// names, which leaf accounts for which identity — built once per structure
/// ([`PolicyTree::layout`]) and shared by every fairshare tree computed from
/// a clone of that policy. Shares are not in it: a share edit keeps the
/// layout, a mount or a replaced policy starts a new one.
///
/// Its users are named by the ids of a [`UserTable`]: a built layout's own,
/// over the leaves' identities ranked in name order — the base of the sites
/// built from the policy, so there a layout id *is* a site id — or, once
/// keyed by a site's table ([`PolicyTree::key_by`]), that table's. One identity
/// may sit under several leaves (a user in two projects of a VO).
#[derive(Debug, PartialEq)]
pub struct PolicyLayout {
    nodes: Vec<LayoutNode>,
    /// Who an id is: the table the leaves' users are named in.
    users: UserTable,
    /// `leaves[starts[u]..starts[u + 1]]`: the leaves of user `u`, in
    /// policy order (none for an id no leaf accounts for).
    starts: Vec<u32>,
    leaves: Vec<NodeId>,
    depth: usize,
}

impl PolicyLayout {
    fn build(root: &PolicyNode) -> Self {
        fn add<'a>(
            node: &'a PolicyNode,
            parent: Option<NodeId>,
            nodes: &mut Vec<LayoutNode>,
            leaf_users: &mut Vec<(&'a GridUser, NodeId)>,
        ) {
            let id = NodeId(nodes.len() as u32);
            if let Some(parent) = parent {
                nodes[parent.index()].children.push(id);
            }
            nodes.push(LayoutNode {
                name: node.name.clone(),
                parent,
                children: Vec::with_capacity(node.children.len()),
                level: parent.map_or(0, |p| nodes[p.index()].level + 1),
                user: None,
            });
            if let PolicyNodeKind::User(user) = &node.kind {
                leaf_users.push((user, id));
            }
            for child in &node.children {
                add(child, Some(id), nodes, leaf_users);
            }
        }
        let (mut nodes, mut leaf_users) = (Vec::new(), Vec::new());
        add(root, None, &mut nodes, &mut leaf_users);
        // Stable: an identity's leaves stay in policy order.
        leaf_users.sort_by(|a, b| a.0.cmp(b.0));
        let mut ranked: Vec<GridUser> = leaf_users.iter().map(|(u, _)| (*u).clone()).collect();
        ranked.dedup();
        Self::keyed(nodes, leaf_users, &mut UserTable::new(ranked.into()))
    }

    /// This layout with its users named by `table`'s ids, interning there
    /// those it lacks, in this layout's id order — `O(users·log users)`.
    /// Valid at a holder whose table [`extends`](UserTable::extends) it.
    fn keyed_by(&self, table: &mut UserTable) -> Self {
        let named = |&leaf: &NodeId| Some((self.users.name(self[leaf].user?), leaf));
        let leaf_users = self.leaves.iter().filter_map(named).collect();
        Self::keyed(self.nodes.clone(), leaf_users, table)
    }

    /// `nodes` with each leaf of `leaf_users` accounting for its identity's
    /// id in `table`.
    fn keyed(
        mut nodes: Vec<LayoutNode>,
        leaf_users: Vec<(&GridUser, NodeId)>,
        table: &mut UserTable,
    ) -> Self {
        let ids = leaf_users
            .into_iter()
            .map(|(user, leaf)| (table.intern(user), leaf));
        let mut by_id: Vec<_> = ids.collect();
        // Stable: an identity's leaves stay in policy order.
        by_id.sort_by_key(|&(id, _)| id);
        let (mut starts, mut leaves) = (Vec::new(), Vec::with_capacity(by_id.len()));
        for (user, leaf) in by_id {
            // An id no leaf accounts for gets an empty run.
            starts.resize(user.index() + 1, leaves.len() as u32);
            nodes[leaf.index()].user = Some(user);
            leaves.push(leaf);
        }
        starts.push(leaves.len() as u32);
        Self {
            depth: nodes.iter().map(|n| n.level).max().unwrap_or(0) as usize,
            nodes,
            users: table.clone(),
            starts,
            leaves,
        }
    }

    /// The base of [`table`](Self::table); a built layout's is the policy's
    /// identities, ranked in name order.
    pub fn users(&self) -> &Arc<[GridUser]> {
        self.users.base()
    }

    /// The table the layout's ids come from: a row over them is its
    /// [`len`](UserTable::len) long.
    pub fn table(&self) -> &UserTable {
        &self.users
    }

    /// The id of `user`, if a leaf accounts for it — `O(log users)`.
    pub fn user_id(&self, user: &GridUser) -> Option<UserId> {
        (self.users.id_of(user)).filter(|&id| !self.leaves_of(id).is_empty())
    }

    /// The identity `user` names, if a leaf accounts for it.
    pub fn name(&self, user: UserId) -> Option<&GridUser> {
        (!self.leaves_of(user).is_empty()).then(|| self.users.name(user))
    }

    /// Every id a leaf accounts for, in id order.
    pub fn user_ids(&self) -> impl Iterator<Item = UserId> + '_ {
        let ids = (0..self.users.len() as u32).map(UserId);
        ids.filter(|&id| !self.leaves_of(id).is_empty())
    }

    /// The leaves accounting for `user`, in policy order; none for an id
    /// no leaf accounts for (an identity outside the policy).
    pub fn leaves_of(&self, user: UserId) -> &[NodeId] {
        match self.starts.get(user.index()..user.index() + 2) {
            Some(&[from, to]) => &self.leaves[from as usize..to as usize],
            _ => &[],
        }
    }

    /// Total number of nodes (root included).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum leaf depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Resolve a path to its node — one scan of a sibling group per
    /// component.
    pub fn node_at(&self, path: &EntityPath) -> Option<NodeId> {
        let mut id = NodeId(0);
        for comp in path.components() {
            id = *self[id].children.iter().find(|c| &self[**c].name == comp)?;
        }
        Some(id)
    }

    /// The path of a node, root first.
    pub fn path_of(&self, id: NodeId) -> EntityPath {
        let mut names = Vec::with_capacity(self[id].level as usize);
        let mut cur = id;
        while let Some(parent) = self[cur].parent {
            names.push(self[cur].name.clone());
            cur = parent;
        }
        names.reverse();
        EntityPath(names)
    }
}

impl std::ops::Index<NodeId> for PolicyLayout {
    type Output = LayoutNode;
    fn index(&self, id: NodeId) -> &LayoutNode {
        &self.nodes[id.index()]
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
    let (mut seen, mut total) = (std::collections::BTreeSet::new(), 0.0);
    for c in &node.children {
        if !seen.insert(&c.name) {
            return Err(PolicyError::DuplicateChild(c.name.clone()));
        }
        validate(c)?;
        total += c.share;
    }
    if !total.is_finite() {
        return Err(PolicyError::InvalidShare(node.name.clone()));
    }
    Ok(())
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
        let unmounted = site.clone();
        site.mount(&EntityPath::parse("/grid"), &grid_policy)
            .unwrap();
        assert!(site.version() > v0);
        assert_eq!(site.users().len(), 3);
        // The clone taken before the mount still sees the empty mount point.
        let users: Vec<_> = unmounted.users().into_iter().map(|(_, u)| u).collect();
        assert_eq!(users, [GridUser::new("local")]);
        assert_eq!(unmounted.version(), v0);
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
        // Finite shares whose sum overflows would all normalize to 0.
        let huge = vec![
            PolicyNode::user("a", f64::MAX),
            PolicyNode::user("b", 1e308),
        ];
        let r = PolicyTree::new(PolicyNode::group("root", 1.0, huge));
        assert_eq!(r, Err(PolicyError::InvalidShare("root".into())));
        // An edit is held to the same sum, and a refused one changes
        // nothing: shares, version and layout stay.
        let mut t = flat_policy(&[("a", 0.5), ("b", 0.5)]).unwrap();
        t.set_share(&EntityPath::parse("/a"), f64::MAX).unwrap();
        let (version, layout) = (t.version(), Arc::clone(t.layout()));
        let r = t.set_share(&EntityPath::parse("/b"), 1e308);
        assert_eq!(r, Err(PolicyError::InvalidShare("root".into())));
        assert_eq!(t.version(), version);
        assert!(Arc::ptr_eq(t.layout(), &layout));
        let n = t.normalized_children(&EntityPath::root());
        assert_eq!((n["a"], n["b"]), (1.0, 0.5 / f64::MAX));
        assert_eq!(t.set_share(&EntityPath::parse("/b"), 1.0), Ok(()));
    }

    #[test]
    fn set_share_changes_normalization() {
        let mut t = figure3_tree();
        let other = t.clone();
        let layout = Arc::clone(other.layout());
        t.set_share(&EntityPath::parse("/LQ"), 0.7).unwrap();
        let n = t.normalized_children(&EntityPath::root());
        assert!((n["LQ"] - 0.5).abs() < 1e-12);
        assert!((n["HP"] - 0.5).abs() < 1e-12);
        // The edit copied the nodes: the clone it was shared with keeps
        // its share, version and layout.
        let lq = other.absolute_share(&EntityPath::parse("/LQ")).unwrap();
        assert!((lq - 0.3).abs() < 1e-12);
        assert_eq!(other.version(), 1);
        assert!(Arc::ptr_eq(other.layout(), &layout));
        assert!(
            Arc::ptr_eq(t.layout(), &layout),
            "a share edit keeps the layout"
        );

        // A clone taken after `key_by` keeps the keyed layout.
        let mut table = UserTable::new(Arc::from([GridUser::new("zz")]));
        t.key_by(&mut table);
        let keyed = t.clone();
        assert!(Arc::ptr_eq(keyed.layout(), t.layout()));
        assert_eq!(keyed.layout().table(), &table);
        assert!(!Arc::ptr_eq(keyed.layout(), &layout));
    }

    #[test]
    fn depth_and_count() {
        let t = figure3_tree();
        assert_eq!(t.layout().depth(), 2);
        assert_eq!(t.layout().node_count(), 5);
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
