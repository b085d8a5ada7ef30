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
//! and stored once, as columns by [`NodeId`]: a [`PolicyTree`] is its shared
//! [`PolicyLayout`] (parents, levels, children, names) plus one share a node.

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
        let size = validate(&root)?;
        let (layout, shares) = PolicyLayout::build(root, size);
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
        let node = |&c: &NodeId| self.node(c, graft);
        let children = match graft {
            Some((to, subtree)) if to == id => subtree.to_node().children,
            _ => self.layout.children(id).iter().map(node).collect(),
        };
        PolicyNode {
            name: self.layout.node_name(id).to_string(),
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
        if let Some(group) = self.layout.parent(id) {
            let shares = &self.shares;
            let share_of = |&c: &NodeId| if c == id { share } else { shares[c.index()] };
            let total: f64 = self.layout.children(group).iter().map(share_of).sum();
            if !total.is_finite() {
                let group = self.layout.node_name(group).into();
                return Err(PolicyError::InvalidShare(group));
            }
        }
        Arc::make_mut(&mut self.shares)[id.index()] = share;
        self.version += 1;
        Ok(())
    }

    /// Σ the raw shares of `id`'s children, left to right in policy order.
    pub(crate) fn share_total(&self, id: NodeId) -> f64 {
        let children = self.layout.children(id).iter();
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
        let normalized = |&c: &NodeId| (self.layout.node_name(c).into(), self.below(1.0, c, total));
        self.layout.children(id).iter().map(normalized).collect()
    }

    /// The *absolute* target share of the entity at `path`: the product of
    /// normalized shares along the path (the "total target share" of the
    /// percental projection, §III-C).
    pub fn absolute_share(&self, path: &EntityPath) -> Option<f64> {
        fn absolute(tree: &PolicyTree, id: NodeId) -> f64 {
            match tree.layout.parent(id) {
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
            let user = layout.users.name(layout.user_of(id)?);
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
            if let Some(user) = layout.user_of(id) {
                out.push((layout.users.name(user).clone(), above));
            }
            let total = self.share_total(id);
            for &c in layout.children(id) {
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

/// A column entry naming nothing: the root's parent, a non-leaf's user.
const NONE: u32 = u32::MAX;

/// What only a policy's *structure* determines — arena topology, node
/// names, which leaf accounts for which identity, which node is a mount
/// point — built once per structure (by [`PolicyTree::new`]) and shared by
/// every clone of that policy and every fairshare tree computed from one.
/// Shares are not in it: a share edit keeps the layout, a mount or a
/// replaced policy starts a new one. It is columns by [`NodeId`], in
/// depth-first policy order: a root → leaf walk reads 8 bytes a level.
///
/// Its users are named by the ids of a [`UserTable`]: a built layout's own,
/// over the leaves' identities ranked in name order — the base of the sites
/// built from the policy, so there a layout id *is* a site id — or, once
/// keyed by a site's table ([`PolicyTree::key_by`]), that table's. One identity
/// may sit under several leaves (a user in two projects of a VO).
#[derive(Debug, PartialEq, Eq)]
pub struct PolicyLayout {
    tree: Topology,
    /// Each node's user id; [`NONE`] for a node that is no user leaf.
    user: Vec<u32>,
    /// Who an id is: the table the leaves' users are named in.
    users: UserTable,
    /// `leaves[starts[u]..starts[u + 1]]`: the leaves of user `u`, in
    /// policy order (none for an id no leaf accounts for).
    starts: Vec<u32>,
    leaves: Vec<NodeId>,
}

/// The columns of a [`PolicyLayout`] that do not depend on how its users
/// are keyed: a layout keyed by another table copies them unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Topology {
    /// Each node's parent ([`NONE`] for the root) and level (root = 0).
    parent: Vec<u32>,
    level: Vec<u32>,
    /// `child_ids[child_starts[id]..child_starts[id + 1]]`, in policy order.
    child_starts: Vec<u32>,
    child_ids: Vec<NodeId>,
    /// `names[name_starts[id]..name_starts[id + 1]]`: one byte arena, each
    /// name ending where the next begins.
    names: String,
    name_starts: Vec<u32>,
    /// The mount points with their sources, in id order.
    mounts: Vec<(NodeId, String)>,
    depth: usize,
}

impl PolicyLayout {
    /// The layout of `root` (sized by [`validate`]: no column grows) and its
    /// shares, by [`NodeId`]: one depth-first walk, each identity moved once.
    fn build(root: PolicyNode, (count, bytes): (usize, usize)) -> (Self, Vec<f64>) {
        let mut tree = Topology {
            parent: Vec::with_capacity(count),
            level: Vec::with_capacity(count),
            child_starts: Vec::with_capacity(count + 1),
            child_ids: Vec::with_capacity(count - 1),
            names: String::with_capacity(bytes),
            name_starts: Vec::with_capacity(count + 1),
            mounts: Vec::new(),
            depth: 0,
        };
        let (mut shares, mut leaf_users) = (Vec::with_capacity(count), Vec::new());
        // A node with its parent, its level and the child slot it fills.
        let mut stack = vec![(root, NONE, 0, None)];
        while let Some((node, parent, level, slot)) = stack.pop() {
            let id = NodeId(tree.parent.len() as u32);
            if let Some(slot) = slot {
                tree.child_ids[slot] = id;
            }
            tree.depth = tree.depth.max(level as usize);
            tree.parent.push(parent);
            tree.level.push(level);
            tree.name_starts.push(tree.names.len() as u32);
            tree.names.push_str(&node.name);
            let first = tree.child_ids.len();
            tree.child_starts.push(first as u32);
            tree.child_ids.resize(first + node.children.len(), id);
            shares.push(node.share);
            match node.kind {
                PolicyNodeKind::User(user) => leaf_users.push((user, id)),
                PolicyNodeKind::MountPoint { source } => tree.mounts.push((id, source)),
                PolicyNodeKind::Group => {}
            }
            // Reversed, so the first child is popped (and numbered) first.
            let children = node.children.into_iter().enumerate().rev();
            stack.extend(children.map(|(i, child)| (child, id.0, level + 1, Some(first + i))));
        }
        tree.child_starts.push(tree.child_ids.len() as u32);
        tree.name_starts.push(tree.names.len() as u32);
        // Stable: an identity's leaves stay in policy order, and take the
        // rank of the identity, which moves into the base once.
        leaf_users.sort_by(|a, b| a.0.cmp(&b.0));
        let (mut ranked, mut ids) = (Vec::new(), Vec::with_capacity(leaf_users.len()));
        for (user, leaf) in leaf_users {
            if ranked.last() != Some(&user) {
                ranked.push(user);
            }
            ids.push((UserId(ranked.len() as u32 - 1), leaf));
        }
        let table = UserTable::new(ranked.into());
        (Self::keyed(tree, ids, table), shares)
    }

    /// This layout with its users named by `table`'s ids, interning there
    /// those it lacks, in this layout's id order — `O(users·log users)`.
    /// Valid at a holder whose table [`extends`](UserTable::extends) it.
    fn keyed_by(&self, table: &mut UserTable) -> Self {
        let name = |leaf: NodeId| self.users.name(UserId(self.user[leaf.index()]));
        let intern = |&leaf: &NodeId| (table.intern(name(leaf)), leaf);
        let ids = self.leaves.iter().map(intern).collect();
        Self::keyed(self.tree.clone(), ids, table.clone())
    }

    /// `tree` with each leaf of `ids` accounting for its id in `users`.
    fn keyed(tree: Topology, mut ids: Vec<(UserId, NodeId)>, users: UserTable) -> Self {
        // Stable: an identity's leaves stay in policy order.
        ids.sort_by_key(|&(id, _)| id);
        let mut user = vec![NONE; tree.parent.len()];
        let mut starts = Vec::with_capacity(users.len() + 1);
        let mut leaves = Vec::with_capacity(ids.len());
        for (id, leaf) in ids {
            // An id no leaf accounts for gets an empty run.
            starts.resize(id.index() + 1, leaves.len() as u32);
            user[leaf.index()] = id.0;
            leaves.push(leaf);
        }
        starts.push(leaves.len() as u32);
        Self {
            tree,
            user,
            users,
            starts,
            leaves,
        }
    }

    /// The heap bytes the layout owns, counted from its columns'
    /// capacities: all of it but the shared base of its user table.
    pub fn heap_bytes(&self) -> usize {
        let t = &self.tree;
        let u32s = [
            &t.parent,
            &t.level,
            &t.child_starts,
            &t.name_starts,
            &self.user,
        ];
        let u32s: usize = u32s.iter().map(|v| v.capacity()).sum::<usize>() + self.starts.capacity();
        let ids = t.child_ids.capacity() + self.leaves.capacity();
        let sources: usize = t.mounts.iter().map(|(_, source)| source.capacity()).sum();
        (u32s + ids) * 4
            + t.names.capacity()
            + t.mounts.capacity() * std::mem::size_of::<(NodeId, String)>()
            + sources
            + self.users.heap_bytes()
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
        self.tree.parent.len()
    }

    /// Maximum leaf depth.
    pub fn depth(&self) -> usize {
        self.tree.depth
    }

    /// The parent of `id`; `None` for the root.
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        Some(NodeId(self.tree.parent[id.index()])).filter(|p| p.0 < NONE)
    }

    /// The hierarchy level of `id` (root = 0).
    pub fn level(&self, id: NodeId) -> usize {
        self.tree.level[id.index()] as usize
    }

    /// The children of `id`, in policy order (ascending ids).
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let run = &self.tree.child_starts[id.index()..id.index() + 2];
        &self.tree.child_ids[run[0] as usize..run[1] as usize]
    }

    /// The name of the node at `id`, unique among its siblings.
    pub fn node_name(&self, id: NodeId) -> &str {
        let run = &self.tree.name_starts[id.index()..id.index() + 2];
        &self.tree.names[run[0] as usize..run[1] as usize]
    }

    /// The identity the user leaf at `id` accounts for; `None` for others.
    pub fn user_of(&self, id: NodeId) -> Option<UserId> {
        Some(UserId(self.user[id.index()])).filter(|u| u.0 < NONE)
    }

    /// Resolve a path to its node — one scan of a sibling group per
    /// component.
    pub fn node_at(&self, path: &EntityPath) -> Option<NodeId> {
        let mut id = NodeId(0);
        for comp in path.components() {
            let mut children = self.children(id).iter();
            id = *children.find(|&&c| self.node_name(c) == comp)?;
        }
        Some(id)
    }

    /// The path of a node, root first.
    pub fn path_of(&self, id: NodeId) -> EntityPath {
        let mut names = Vec::with_capacity(self.level(id));
        let mut cur = id;
        while let Some(parent) = self.parent(cur) {
            names.push(self.node_name(cur).to_string());
            cur = parent;
        }
        names.reverse();
        EntityPath(names)
    }

    /// What the node at `id` is: a user leaf, a mount point or a group.
    fn kind_of(&self, id: NodeId) -> PolicyNodeKind {
        let mounts = &self.tree.mounts;
        let mount = mounts.binary_search_by_key(&id, |(at, _)| *at).ok();
        match (self.user_of(id), mount) {
            (Some(user), _) => PolicyNodeKind::User(self.users.name(user).clone()),
            (None, Some(i)) => PolicyNodeKind::MountPoint {
                source: mounts[i].1.clone(),
            },
            (None, None) => PolicyNodeKind::Group,
        }
    }
}

/// Check shares and sibling names throughout; count nodes and name bytes.
fn validate(node: &PolicyNode) -> Result<(usize, usize), PolicyError> {
    if !(node.share.is_finite() && node.share >= 0.0) {
        return Err(PolicyError::InvalidShare(node.name.clone()));
    }
    let (mut seen, mut total) = (std::collections::BTreeSet::new(), 0.0);
    let mut size = (1, node.name.len());
    for c in &node.children {
        if !seen.insert(&c.name) {
            return Err(PolicyError::DuplicateChild(c.name.clone()));
        }
        let (count, bytes) = validate(c)?;
        (size, total) = ((size.0 + count, size.1 + bytes), total + c.share);
    }
    if !total.is_finite() {
        return Err(PolicyError::InvalidShare(node.name.clone()));
    }
    Ok(size)
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
