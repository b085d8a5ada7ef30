//! Arena plumbing for the incremental fairshare engine: dense node and user
//! ids, the [`UserTable`] that assigns the user ids, and the dirty-set
//! protocol that carries "what changed" from the usage/policy services down
//! to
//! [`FairshareTree::recompute_dirty`](crate::fairshare::FairshareTree::recompute_dirty).
//!
//! Names are strings and every name-keyed map pays for comparing them on
//! each descent; everything between the wire and the served factor is
//! therefore keyed by [`UserId`], and a name is looked up once, where it
//! enters a site (DESIGN.md, "The id contract").

use crate::ids::{EntityPath, GridUser};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Dense index of a node in the fairshare arena.
///
/// Ids are assigned in depth-first policy order by the
/// [`PolicyLayout`](crate::policy::PolicyLayout), are stable across
/// incremental recomputes and share edits, and are only reassigned when the
/// policy *structure* changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena slot this id names.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Stable dense index of a grid user in one holder's [`UserTable`] — the
/// key of every per-user row and cell between the wire and the factor.
///
/// Ids are never reused and survive crashes, FCS resets and policy
/// replacements, so RMS-side callers can hold a `UserId` for the life of a
/// job and query priorities without cloning or comparing `GridUser` keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

impl UserId {
    /// The row slot this id names.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// What a per-user `row` holds for this id: nothing past its end, or
    /// where it marks "no entry" with `NaN`.
    pub fn read(self, row: &[f64]) -> Option<f64> {
        row.get(self.index())
            .copied()
            .filter(|value| !value.is_nan())
    }
}

/// Who a [`UserId`] is: an immutable, name-sorted **base** of identities
/// (a policy's leaves — [`PolicyLayout::users`](crate::policy::PolicyLayout::users))
/// shared by `Arc` between every holder built from clones of one policy,
/// plus this holder's own append-only **overflow** for identities outside
/// it.
///
/// * A base user's id is its rank in name order, so over the base `UserId`
///   order *is* `BTreeMap<GridUser, _>` iteration order — the order every
///   codec, checkpoint and float sum depends on — and two holders of one
///   base agree on those ids without talking.
/// * An overflow user's id is `base.len() + k` for the `k`-th identity this
///   holder met outside the base; it means nothing to another holder.
///   [`iter`](Self::iter) still yields the whole table in name order, for
///   the edges where names leave.
///
/// Nothing is ever removed: an id handed out stays valid and keeps its
/// name for as long as the table lives.
#[derive(Debug, Clone, Default, Hash, PartialEq, Eq)]
pub struct UserTable {
    base: Arc<[GridUser]>,
    /// Identities outside the base, by id: slot `i` is `UserId(base.len() + i)`.
    overflow: Vec<GridUser>,
    /// Slots of `overflow`, in name order.
    by_name: Vec<u32>,
}

impl UserTable {
    /// A table over `base`, which must be sorted and free of duplicates
    /// ([`PolicyLayout::users`](crate::policy::PolicyLayout::users) is).
    pub fn new(base: Arc<[GridUser]>) -> Self {
        debug_assert!(base.windows(2).all(|w| w[0] < w[1]), "base is ranked");
        Self {
            base,
            ..Self::default()
        }
    }

    /// The shared base.
    pub fn base(&self) -> &Arc<[GridUser]> {
        &self.base
    }

    /// Whether every id `earlier` handed out names the same identity here:
    /// one base, and `earlier`'s overflow a prefix of this one's.
    pub fn extends(&self, earlier: &UserTable) -> bool {
        Arc::ptr_eq(&self.base, &earlier.base) && self.overflow.starts_with(&earlier.overflow)
    }

    /// Number of ids handed out: every row indexed by this table's ids is
    /// at most this long.
    pub fn len(&self) -> usize {
        self.base.len() + self.overflow.len()
    }

    /// Whether the table names nobody.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The id of `user`, or where it would sit among the overflow names —
    /// `O(log users)` name comparisons, the only ones the id-keyed path pays.
    fn find(&self, user: &GridUser) -> Result<UserId, usize> {
        if let Ok(rank) = self.base.binary_search(user) {
            return Ok(UserId(rank as u32));
        }
        let by_name = |&slot: &u32| self.overflow[slot as usize].cmp(user);
        let at = self.by_name.binary_search_by(by_name)?;
        Ok(UserId(self.base.len() as u32 + self.by_name[at]))
    }

    /// The id of `user`, if it has one.
    pub fn id_of(&self, user: &GridUser) -> Option<UserId> {
        self.find(user).ok()
    }

    /// The id of `user`, appending it to the overflow when it is new.
    pub fn intern(&mut self, user: &GridUser) -> UserId {
        self.find(user).unwrap_or_else(|at| {
            self.by_name.insert(at, self.overflow.len() as u32);
            self.overflow.push(user.clone());
            UserId(self.len() as u32 - 1)
        })
    }

    /// The identity behind an id this table handed out.
    ///
    /// # Panics
    /// On an id from another table that is past this one's end.
    pub fn name(&self, id: UserId) -> &GridUser {
        match id.index().checked_sub(self.base.len()) {
            None => &self.base[id.index()],
            Some(slot) => &self.overflow[slot],
        }
    }

    /// Every identity with its id, in name order (`BTreeMap<GridUser, _>`
    /// key order), overflow merged in.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &GridUser)> {
        let mut base = (0u32..).map(UserId).zip(self.base.iter()).peekable();
        let (slots, past) = (self.by_name.iter(), self.base.len() as u32);
        let over = slots.map(move |&slot| (UserId(past + slot), &self.overflow[slot as usize]));
        let mut over = over.peekable();
        std::iter::from_fn(move || match (base.peek(), over.peek()) {
            (Some((_, b)), Some((_, o))) if o < b => over.next(),
            (Some(_), _) => base.next(),
            (None, _) => over.next(),
        })
    }
}

/// Accumulates which parts of the fairshare state changed since the last
/// refresh: usage changes per user, policy share edits per path, or "all"
/// (structural change / non-separable decay fallback).
///
/// Produced by `Ums` (the users whose weight it re-read) and `Pds` (policy
/// edits); consumed by `Fcs::refresh`, which forwards it to
/// [`FairshareTree::recompute_dirty`](crate::fairshare::FairshareTree::recompute_dirty).
/// Users are named by the [`UserId`]s of the site's [`UserTable`]: a mark
/// is one integer insert, and the set iterates in id order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct DirtySet {
    users: BTreeSet<UserId>,
    paths: BTreeSet<EntityPath>,
    all: bool,
}

impl DirtySet {
    /// An empty (clean) set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark one user's usage as changed.
    pub fn mark_user(&mut self, user: UserId) {
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

    /// Users with changed usage, in id order.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.users.iter().copied()
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
        self.users.extend(other.users.iter().copied());
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn dirty_set_collapses_into_all() {
        let mut d = DirtySet::new();
        d.mark_user(UserId(0));
        d.mark_path(EntityPath::parse("/g/a"));
        assert!(!d.is_empty());
        assert!(!d.is_all());
        d.mark_all();
        assert!(d.is_all());
        assert_eq!(d.users().count(), 0);
        assert_eq!(d.paths().count(), 0);
        // Further marks are absorbed.
        d.mark_user(UserId(1));
        assert_eq!(d.users().count(), 0);
    }

    #[test]
    fn merge_and_take() {
        let mut a = DirtySet::new();
        a.mark_user(UserId(7));
        let mut b = DirtySet::new();
        b.mark_user(UserId(3));
        b.mark_path(EntityPath::parse("/y"));
        a.merge(&b);
        assert_eq!(a.users().collect::<Vec<_>>(), [UserId(3), UserId(7)]);
        assert_eq!(a.paths().count(), 1);
        let taken = a.take();
        assert!(a.is_empty());
        assert_eq!(taken.users().count(), 2);

        let mut c = DirtySet::new();
        c.mark_all();
        let mut d = DirtySet::new();
        d.mark_user(UserId(9));
        d.merge(&c);
        assert!(d.is_all());
    }

    fn names(names: &[&str]) -> Arc<[GridUser]> {
        names.iter().copied().map(GridUser::new).collect()
    }

    #[test]
    fn base_ids_are_name_ranks_and_overflow_ids_append() {
        let mut t = UserTable::new(names(&["b", "d", "f"]));
        assert_eq!(t.id_of(&GridUser::new("d")), Some(UserId(1)));
        assert_eq!(t.id_of(&GridUser::new("c")), None);
        // First sight appends, whatever the name's rank; a second sight
        // (and a base user) interns nothing.
        assert_eq!(t.intern(&GridUser::new("z")), UserId(3));
        assert_eq!(t.intern(&GridUser::new("a")), UserId(4));
        assert_eq!(t.intern(&GridUser::new("z")), UserId(3));
        assert_eq!(t.intern(&GridUser::new("f")), UserId(2));
        assert_eq!(t.len(), 5);
        assert_eq!(t.name(UserId(4)), &GridUser::new("a"));
        assert_eq!(t.name(UserId(0)), &GridUser::new("b"));
        assert_eq!(NodeId(3).index(), 3);
    }

    #[test]
    fn name_order_iteration_with_overflow_is_btreemap_key_order() {
        let mut t = UserTable::new(names(&["b", "d", "f"]));
        let mut oracle: BTreeMap<GridUser, UserId> =
            t.iter().map(|(id, user)| (user.clone(), id)).collect();
        for name in ["e", "a", "zz", "c", "e"] {
            let user = GridUser::new(name);
            oracle.insert(user.clone(), t.intern(&user));
        }
        let walked: Vec<(GridUser, UserId)> =
            t.iter().map(|(id, user)| (user.clone(), id)).collect();
        assert_eq!(walked, oracle.into_iter().collect::<Vec<_>>());
        // An empty base is all overflow.
        let mut bare = UserTable::default();
        assert!(bare.is_empty());
        for name in ["m", "k", "x"] {
            bare.intern(&GridUser::new(name));
        }
        let order: Vec<&str> = bare.iter().map(|(_, u)| u.as_str()).collect();
        assert_eq!(order, ["k", "m", "x"]);
    }
}
