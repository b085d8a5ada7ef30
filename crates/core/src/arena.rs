//! Arena plumbing for the incremental fairshare engine: dense node ids, a
//! path interner, and the dirty-set protocol that carries "what changed"
//! from the usage/policy services down to
//! [`FairshareTree::recompute_dirty`](crate::fairshare::FairshareTree::recompute_dirty).
//!
//! The seed implementation kept every traversal keyed by cloned
//! [`EntityPath`]s in `BTreeMap`s; the arena replaces that with `u32`
//! indices into a flat node vector, so the recompute hot path never
//! allocates and only touches the subtrees named by the [`DirtySet`].

use crate::ids::{EntityPath, GridUser};
use std::collections::{BTreeMap, BTreeSet};

/// Dense index of a node in the fairshare arena.
///
/// Ids are assigned in depth-first policy order, are stable across
/// incremental recomputes, and are only reassigned by a full rebuild
/// (policy structure change).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena slot this id names.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Stable dense index of a grid user in a factor table.
///
/// Unlike [`NodeId`], user ids survive full rebuilds: the FCS assigns them
/// on first sight and never reuses them, so RMS-side callers can hold a
/// `UserId` across refreshes and query priorities without cloning or
/// re-hashing `GridUser` keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

impl UserId {
    /// The factor-table slot this id names.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional `EntityPath` ↔ [`NodeId`] mapping for one arena.
///
/// Forward lookups serve the path-based public API; the reverse direction
/// is stored on the arena nodes themselves (parent links), so the interner
/// only keeps the forward map.
#[derive(Debug, Clone, Default)]
pub struct PathInterner {
    map: BTreeMap<EntityPath, NodeId>,
}

impl PathInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `path` as `id`. Re-interning an existing path overwrites.
    pub fn insert(&mut self, path: EntityPath, id: NodeId) {
        self.map.insert(path, id);
    }

    /// Resolve a path to its node id.
    pub fn get(&self, path: &EntityPath) -> Option<NodeId> {
        self.map.get(path).copied()
    }

    /// Number of interned paths.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no paths are interned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate interned `(path, id)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&EntityPath, NodeId)> {
        self.map.iter().map(|(p, id)| (p, *id))
    }
}

/// Accumulates which parts of the fairshare state changed since the last
/// refresh: usage changes per user, policy share edits per path, or "all"
/// (structural change / non-separable decay fallback).
///
/// Produced by `Ums`/`Uss` (usage ingestion and summary merges) and `Pds`
/// (policy edits); consumed by `Fcs::refresh`, which forwards it to
/// [`FairshareTree::recompute_dirty`](crate::fairshare::FairshareTree::recompute_dirty).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    users: BTreeSet<GridUser>,
    paths: BTreeSet<EntityPath>,
    all: bool,
}

impl DirtySet {
    /// An empty (clean) set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark one user's usage as changed.
    pub fn mark_user(&mut self, user: GridUser) {
        if !self.all {
            self.users.insert(user);
        }
    }

    /// Mark the policy share at `path` as changed.
    pub fn mark_path(&mut self, path: EntityPath) {
        if !self.all {
            self.paths.insert(path);
        }
    }

    /// Mark everything as changed (forces a full recompute downstream).
    pub fn mark_all(&mut self) {
        self.all = true;
        self.users.clear();
        self.paths.clear();
    }

    /// Whether nothing is marked.
    pub fn is_empty(&self) -> bool {
        !self.all && self.users.is_empty() && self.paths.is_empty()
    }

    /// Whether a full recompute is required.
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// Users with changed usage.
    pub fn users(&self) -> impl Iterator<Item = &GridUser> {
        self.users.iter()
    }

    /// Paths with changed policy shares.
    pub fn paths(&self) -> impl Iterator<Item = &EntityPath> {
        self.paths.iter()
    }

    /// Absorb another dirty set.
    pub fn merge(&mut self, other: &DirtySet) {
        if other.all {
            self.mark_all();
            return;
        }
        if self.all {
            return;
        }
        self.users.extend(other.users.iter().cloned());
        self.paths.extend(other.paths.iter().cloned());
    }

    /// Drain this set, returning its contents and leaving it clean.
    pub fn take(&mut self) -> DirtySet {
        std::mem::take(self)
    }
}

/// What one [`recompute_dirty`](crate::fairshare::FairshareTree::recompute_dirty)
/// call did.
#[derive(Debug, Clone, Default)]
pub struct RecomputeStats {
    /// True when the call fell back to a full from-scratch recompute.
    pub full: bool,
    /// Nodes whose subtree-usage aggregate was recomputed — for a single
    /// dirty user this is exactly the user's root→leaf path.
    pub nodes_recomputed: u64,
    /// Nodes whose derived shares (normalized policy/usage share, distance,
    /// element) were refreshed: every member of a sibling group containing a
    /// recomputed node.
    pub shares_refreshed: u64,
    /// Arena nodes whose derived state changed in any component — the roots
    /// of the subtrees whose users need re-projection.
    pub changed_elements: Vec<NodeId>,
}

impl RecomputeStats {
    /// Total per-node work performed (aggregates + derived refreshes).
    pub fn total_work(&self) -> u64 {
        self.nodes_recomputed + self.shares_refreshed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_set_collapses_into_all() {
        let mut d = DirtySet::new();
        d.mark_user(GridUser::new("a"));
        d.mark_path(EntityPath::parse("/g/a"));
        assert!(!d.is_empty());
        assert!(!d.is_all());
        d.mark_all();
        assert!(d.is_all());
        assert_eq!(d.users().count(), 0);
        assert_eq!(d.paths().count(), 0);
        // Further marks are absorbed.
        d.mark_user(GridUser::new("b"));
        assert_eq!(d.users().count(), 0);
    }

    #[test]
    fn merge_and_take() {
        let mut a = DirtySet::new();
        a.mark_user(GridUser::new("x"));
        let mut b = DirtySet::new();
        b.mark_user(GridUser::new("y"));
        b.mark_path(EntityPath::parse("/y"));
        a.merge(&b);
        assert_eq!(a.users().count(), 2);
        assert_eq!(a.paths().count(), 1);
        let taken = a.take();
        assert!(a.is_empty());
        assert_eq!(taken.users().count(), 2);

        let mut c = DirtySet::new();
        c.mark_all();
        let mut d = DirtySet::new();
        d.mark_user(GridUser::new("z"));
        d.merge(&c);
        assert!(d.is_all());
    }

    #[test]
    fn interner_roundtrip() {
        let mut i = PathInterner::new();
        let p = EntityPath::parse("/g/u");
        i.insert(EntityPath::root(), NodeId(0));
        i.insert(p.clone(), NodeId(3));
        assert_eq!(i.get(&p), Some(NodeId(3)));
        assert_eq!(i.get(&EntityPath::parse("/missing")), None);
        assert_eq!(i.len(), 2);
        assert_eq!(NodeId(3).index(), 3);
    }
}
