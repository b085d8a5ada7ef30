//! Hierarchical, tree-based usage share policies (§II-A constituent 1).
//!
//! A policy tree assigns each user, project, or VO a *target usage share*,
//! recursively subdividable into subgroups. Globally managed sub-policies can
//! be **mounted** into a locally administered root: a site admin assigns,
//! say, 30% of the cluster to a grid, and the grid's own PDS supplies how
//! that 30% subdivides — without the site admin managing grid-internal
//! shares.
//!
//! A policy is built from (and exported as) a recursive [`PolicyNode`] tree,
//! and stored once, flat: a [`PolicyTree`] is its shared [`PolicyLayout`]
//! plus one share per node, indexed by [`NodeId`].

use crate::arena::{NodeId, UserId, UserTable};
use crate::ids::{EntityPath, GridUser};
use std::collections::BTreeMap;
use std::sync::Arc;

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
    fn new(name: impl Into<String>, share: f64, kind: PolicyNodeKind, children: Vec<Self>) -> Self {
        Self {
            name: name.into(),
            share,
            kind,
            children,
        }
    }

    /// A group node.
    pub fn group(name: impl Into<String>, share: f64, children: Vec<PolicyNode>) -> Self {
        Self::new(name, share, PolicyNodeKind::Group, children)
    }

    /// A user leaf whose name doubles as its grid identity.
    pub fn user(name: impl Into<String>, share: f64) -> Self {
        let name = name.into();
        Self::user_with_identity(name.clone(), share, GridUser::new(name))
    }

    /// A user leaf with an explicit grid identity.
    pub fn user_with_identity(name: impl Into<String>, share: f64, identity: GridUser) -> Self {
        Self::new(name, share, PolicyNodeKind::User(identity), Vec::new())
    }

    /// A mount point for a remotely supplied sub-policy.
    pub fn mount_point(name: impl Into<String>, share: f64, source: impl Into<String>) -> Self {
        let source = source.into();
        Self::new(
            name,
            share,
            PolicyNodeKind::MountPoint { source },
            Vec::new(),
        )
    }
}

/// A complete share policy: its [`PolicyLayout`] and one raw share per
/// node, by [`NodeId`], both shared by its clones. A share edit copies the
/// share column (8 bytes a node) for the edited clone; a mount builds a new
/// layout. A [`PolicyNode`] tree is what a policy is built from and
/// exported as ([`to_node`](Self::to_node)).
#[derive(Debug, Clone)]
pub struct PolicyTree {
    layout: Arc<PolicyLayout>,
    /// Each node's raw (un-normalized) share, by [`NodeId`].
    shares: Arc<[f64]>,
    /// Monotonically increasing version, bumped on every mutation; lets
    /// downstream services (UMS/FCS) detect policy changes cheaply.
    version: u64,
}

/// The same layout and shares: the version counts edits, not the policy.
impl PartialEq for PolicyTree {
    fn eq(&self, other: &Self) -> bool {
        self.layout == other.layout && self.shares == other.shares
    }
}

impl PolicyTree {
    /// Build a policy tree from a root node, validating shares and name
    /// uniqueness throughout, and lay it out (one walk plus the name sort
    /// that ranks the user base).
    pub fn new(root: PolicyNode) -> Result<Self, PolicyError> {
        validate(&root)?;
        let (layout, shares) = PolicyLayout::build(root);
        Ok(Self {
            layout: Arc::new(layout),
            shares: shares.into(),
            version: 1,
        })
    }

    /// The layout of this tree's structure, shared with its clones — or the
    /// one [`key_by`](Self::key_by) gave it.
    pub fn layout(&self) -> &Arc<PolicyLayout> {
        &self.layout
    }

    /// Each node's raw share, by [`NodeId`]; fairshare trees read it.
    pub fn shares(&self) -> &Arc<[f64]> {
        &self.shares
    }

    /// Give this tree (and its later clones, not its earlier ones) its
    /// layout keyed by a site's `users`, which share edits keep: the
    /// layout's users named by `users`' ids, those it lacks interned there.
    pub fn key_by(&mut self, users: &mut UserTable) {
        self.layout = Arc::new(self.layout.keyed_by(users));
    }

    /// Current policy version (bumped on mount/update).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The policy as a node tree, the form it is built from (and which
    /// [`PolicyTree::new`] lays out into an equal tree); every name copied.
    pub fn to_node(&self) -> PolicyNode {
        self.node(NodeId(0), None)
    }

    /// The node tree under `id`, with the root children of `graft`'s tree
    /// in place of the children of the node it names.
    fn node(&self, id: NodeId, graft: Option<(NodeId, &PolicyTree)>) -> PolicyNode {
        let at = &self.layout[id];
        let children = match graft {
            Some((to, subtree)) if to == id => subtree.to_node().children,
            _ => at.children.iter().map(|&c| self.node(c, graft)).collect(),
        };
        PolicyNode {
            name: at.name.clone(),
            share: self.shares[id.index()],
            kind: self.layout.kind_of(id),
            children,
        }
    }

    /// Mount a sub-policy at the named mount point. The mounted tree's root
    /// children become the mount node's children; the mount node keeps its
    /// locally assigned share ("local administrations retain control").
    /// The policy is laid out afresh; a refused mount changes nothing.
    pub fn mount(&mut self, at: &EntityPath, subtree: &PolicyTree) -> Result<(), PolicyError> {
        let mount =
            |&id: &NodeId| matches!(self.layout.kind_of(id), PolicyNodeKind::MountPoint { .. });
        let id = (self.layout.node_at(at).filter(mount))
            .ok_or_else(|| PolicyError::NoSuchMountPoint(at.to_string()))?;
        let version = self.version + 1;
        *self = Self {
            version,
            ..Self::new(self.node(NodeId(0), Some((id, subtree))))?
        };
        Ok(())
    }

    /// Replace the share of the node at `path` (run-time policy change, as
    /// exercised by the paper's non-optimal policy test): one slot of the
    /// share column. A share that is not finite and non-negative, or that
    /// would make its sibling group sum past `f64::MAX` (the test
    /// [`PolicyTree::new`] applies), is refused before anything is written.
    pub fn set_share(&mut self, path: &EntityPath, share: f64) -> Result<(), PolicyError> {
        if !(share.is_finite() && share >= 0.0) {
            return Err(PolicyError::InvalidShare(path.to_string()));
        }
        let id =
            (self.layout.node_at(path)).ok_or_else(|| PolicyError::NoSuchPath(path.to_string()))?;
        if let Some(group) = self.layout[id].parent {
            let shares = &self.shares;
            let share_of = |&c: &NodeId| if c == id { share } else { shares[c.index()] };
            let total: f64 = self.layout[group].children.iter().map(share_of).sum();
            if !total.is_finite() {
                return Err(PolicyError::InvalidShare(self.layout[group].name.clone()));
            }
        }
        Arc::make_mut(&mut self.shares)[id.index()] = share;
        self.version += 1;
        Ok(())
    }

    /// Σ the raw shares of `id`'s children, left to right in policy order.
    pub(crate) fn share_total(&self, id: NodeId) -> f64 {
        let children = self.layout[id].children.iter();
        children.map(|c| self.shares[c.index()]).sum()
    }

    /// `id`'s absolute share from its parent's, `above`, and its group's
    /// share `total` (0 in a group without a positive one): the formula of
    /// every share read below, applied root first.
    fn below(&self, above: f64, id: NodeId, total: f64) -> f64 {
        if total <= 0.0 {
            0.0
        } else {
            above * (self.shares[id.index()] / total)
        }
    }

    /// Normalized target share of each child of `path` (shares of siblings
    /// sum to 1; returns an empty map for leaves and zero-weight groups).
    pub fn normalized_children(&self, path: &EntityPath) -> BTreeMap<String, f64> {
        let Some(id) = self.layout.node_at(path) else {
            return BTreeMap::new();
        };
        let total = self.share_total(id);
        if total <= 0.0 {
            return BTreeMap::new();
        }
        let children = self.layout[id].children.iter();
        let normalized = |&c: &NodeId| (self.layout[c].name.clone(), self.below(1.0, c, total));
        children.map(normalized).collect()
    }

    /// The *absolute* target share of the entity at `path`: the product of
    /// normalized shares along the path (the "total target share" of the
    /// percental projection, §III-C).
    pub fn absolute_share(&self, path: &EntityPath) -> Option<f64> {
        fn absolute(tree: &PolicyTree, id: NodeId) -> f64 {
            match tree.layout[id].parent {
                None => 1.0,
                Some(up) => tree.below(absolute(tree, up), id, tree.share_total(up)),
            }
        }
        Some(absolute(self, self.layout.node_at(path)?))
    }

    /// Paths of all user leaves with their grid identities, in policy order.
    pub fn users(&self) -> Vec<(EntityPath, GridUser)> {
        let layout = &self.layout;
        let leaf = |id| {
            let user = layout.users.name(layout[id].user?);
            Some((layout.path_of(id), user.clone()))
        };
        let ids = (0..layout.node_count() as u32).map(NodeId);
        ids.filter_map(leaf).collect()
    }

    /// Every user leaf with its absolute share, in [`users`](Self::users)
    /// order: one `O(nodes)` pass yielding what
    /// [`absolute_share`](Self::absolute_share) would per leaf, bit for bit
    /// (ids are depth first, so a node's absolute share is final before its
    /// children's are formed from it).
    pub fn user_shares(&self) -> Vec<(GridUser, f64)> {
        let layout = &self.layout;
        let mut absolute = vec![1.0; layout.node_count()];
        let mut out = Vec::new();
        for id in (0..layout.node_count() as u32).map(NodeId) {
            let above = absolute[id.index()];
            if let Some(user) = layout[id].user {
                out.push((layout.users.name(user).clone(), above));
            }
            let total = self.share_total(id);
            for &c in &layout[id].children {
                absolute[c.index()] = self.below(above, c, total);
            }
        }
        out
    }

    /// The path of the first leaf (in policy order) accounting for `user`.
    pub fn path_of_user(&self, user: &GridUser) -> Option<EntityPath> {
        let first = self.layout.leaves_of(self.layout.user_id(user)?).first()?;
        Some(self.layout.path_of(*first))
    }
}

/// One node of a [`PolicyLayout`] (`layout[id]`); slots are in depth-first
/// policy order.
#[derive(Debug, Clone, PartialEq, Eq)]
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
/// names, which leaf accounts for which identity, which node is a mount
/// point — built once per structure (by [`PolicyTree::new`]) and shared by
/// every clone of that policy and every fairshare tree computed from one.
/// Shares are not in it: a share edit keeps the layout, a mount or a
/// replaced policy starts a new one.
///
/// Its users are named by the ids of a [`UserTable`]: a built layout's own,
/// over the leaves' identities ranked in name order — the base of the sites
/// built from the policy, so there a layout id *is* a site id — or, once
/// keyed by a site's table ([`PolicyTree::key_by`]), that table's. One identity
/// may sit under several leaves (a user in two projects of a VO).
#[derive(Debug, PartialEq, Eq)]
pub struct PolicyLayout {
    nodes: Vec<LayoutNode>,
    /// The mount points with their sources, in id order: beside the nodes,
    /// so that a [`LayoutNode`] carries no kind.
    mounts: Vec<(NodeId, String)>,
    /// Who an id is: the table the leaves' users are named in.
    users: UserTable,
    /// `leaves[starts[u]..starts[u + 1]]`: the leaves of user `u`, in
    /// policy order (none for an id no leaf accounts for).
    starts: Vec<u32>,
    leaves: Vec<NodeId>,
    depth: usize,
}

impl PolicyLayout {
    /// The layout of `root` and its shares, both by [`NodeId`]: one
    /// depth-first walk, moving the names out of the nodes.
    fn build(root: PolicyNode) -> (Self, Vec<f64>) {
        let (mut nodes, mut shares) = (Vec::<LayoutNode>::new(), Vec::new());
        let (mut mounts, mut leaf_users) = (Vec::new(), Vec::new());
        let mut stack = vec![(root, None::<NodeId>)];
        while let Some((node, parent)) = stack.pop() {
            let id = NodeId(nodes.len() as u32);
            if let Some(parent) = parent {
                nodes[parent.index()].children.push(id);
            }
            nodes.push(LayoutNode {
                name: node.name,
                parent,
                children: Vec::with_capacity(node.children.len()),
                level: parent.map_or(0, |p| nodes[p.index()].level + 1),
                user: None,
            });
            shares.push(node.share);
            match node.kind {
                PolicyNodeKind::User(user) => leaf_users.push((user, id)),
                PolicyNodeKind::MountPoint { source } => mounts.push((id, source)),
                PolicyNodeKind::Group => {}
            }
            // Reversed, so the first child is popped (and numbered) first.
            stack.extend(
                node.children
                    .into_iter()
                    .rev()
                    .map(|child| (child, Some(id))),
            );
        }
        // Stable: an identity's leaves stay in policy order.
        leaf_users.sort_by(|a, b| a.0.cmp(&b.0));
        let mut ranked: Vec<GridUser> = leaf_users.iter().map(|(u, _)| u.clone()).collect();
        ranked.dedup();
        let table = &mut UserTable::new(ranked.into());
        let leaf_users = leaf_users.iter().map(|(u, leaf)| (u, *leaf)).collect();
        (Self::keyed(nodes, mounts, leaf_users, table), shares)
    }

    /// This layout with its users named by `table`'s ids, interning there
    /// those it lacks, in this layout's id order — `O(users·log users)`.
    /// Valid at a holder whose table [`extends`](UserTable::extends) it.
    fn keyed_by(&self, table: &mut UserTable) -> Self {
        let named = |&leaf: &NodeId| Some((self.users.name(self[leaf].user?), leaf));
        let leaf_users = self.leaves.iter().filter_map(named).collect();
        Self::keyed(self.nodes.clone(), self.mounts.clone(), leaf_users, table)
    }

    /// `nodes` with each leaf of `leaf_users` accounting for its identity's
    /// id in `table`.
    fn keyed(
        mut nodes: Vec<LayoutNode>,
        mounts: Vec<(NodeId, String)>,
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
            mounts,
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

    /// What the node at `id` is: a user leaf, a mount point or a group.
    fn kind_of(&self, id: NodeId) -> PolicyNodeKind {
        let mount = self.mounts.binary_search_by_key(&id, |(at, _)| *at).ok();
        match (self[id].user, mount) {
            (Some(user), _) => PolicyNodeKind::User(self.users.name(user).clone()),
            (None, Some(i)) => PolicyNodeKind::MountPoint {
                source: self.mounts[i].1.clone(),
            },
            (None, None) => PolicyNodeKind::Group,
        }
    }
}

impl std::ops::Index<NodeId> for PolicyLayout {
    type Output = LayoutNode;
    fn index(&self, id: NodeId) -> &LayoutNode {
        &self.nodes[id.index()]
    }
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
        // The mount point keeps its source through the splice and the export.
        let exported = site.to_node();
        let source = PolicyNodeKind::MountPoint {
            source: "national-pds".into(),
        };
        assert_eq!(exported.children[1].kind, source);
        assert_eq!(PolicyTree::new(exported), Ok(site));
    }

    #[test]
    fn mount_rejects_non_mount_target() {
        let mut t = figure3_tree();
        let sub = flat_policy(&[("x", 1.0)]).unwrap();
        let layout = Arc::clone(t.layout());
        assert!(matches!(
            t.mount(&EntityPath::parse("/HP"), &sub),
            Err(PolicyError::NoSuchMountPoint(_))
        ));
        // A refused mount changes nothing.
        assert_eq!((t.version(), t.users().len()), (1, 3));
        assert!(Arc::ptr_eq(t.layout(), &layout));
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
        // The edit copied the share column: the clone it was shared with
        // keeps its share, version and layout.
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
