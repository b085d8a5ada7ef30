//! Fairshare Calculation Service (FCS): "fetches usage trees from the UMS
//! and policy trees from the PDS periodically, and pre-calculates fairshare
//! trees with the current fairshare values for all users. This way, no
//! real-time calculations need to take place when new jobs arrive" (§II-A).
//!
//! ## Incremental refresh
//!
//! The FCS is the consumer end of the dirty-set flow USS → UMS → FCS: each
//! refresh drains the [`DirtySet`]s accumulated by the PDS (policy edits)
//! and UMS (usage changes) and hands them to
//! [`FairshareTree::recompute_dirty`], which re-derives only the affected
//! subtrees. A full from-scratch rebuild happens only on the first refresh,
//! after a crash, or when the dirty set says "all" (structural policy
//! change, non-separable decay). After the tree update, only the
//! leaves under changed nodes are re-projected, by arena id, straight into
//! their factor slots — except under projections without a per-leaf entry
//! point (Dictionary re-ranks globally).
//!
//! The projected factors live in one row indexed by the [`UserId`]s of the
//! site's [`UserTable`] — the only stored copy — and [`Fcs::query`] is by id
//! only: the RMS interns a job's user once at submit and every later
//! priority query is an index load. The tree itself speaks the ids of the
//! policy's layout; when the table is built over that layout's user base
//! (every site built from the policy it enforces) the two are the same
//! numbers and nothing is translated.

use crate::pds::Pds;
use crate::ums::Ums;
use aequus_core::arena::{DirtySet, NodeId, RecomputeStats, UserId, UserTable};
use aequus_core::fairshare::{FairshareConfig, FairshareTree};
use aequus_core::policy::PolicyLayout;
use aequus_core::projection::{Projection, ProjectionKind};
use aequus_core::GridUser;
use aequus_telemetry::{Counter, Histogram, Telemetry};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Pre-registered FCS metric handles (no-ops until wired).
#[derive(Debug, Clone, Default)]
struct FcsMetrics {
    telemetry: Telemetry,
    refreshes: Counter,
    full_refreshes: Counter,
    queries: Counter,
    h_refresh_full: Histogram,
    h_refresh_incr: Histogram,
    h_query: Histogram,
}

impl FcsMetrics {
    fn wire(t: &Telemetry) -> Self {
        Self {
            telemetry: t.clone(),
            refreshes: t.counter("aequus_fcs_refreshes_total"),
            full_refreshes: t.counter("aequus_fcs_full_refreshes_total"),
            queries: t.counter("aequus_fcs_queries_total"),
            h_refresh_full: t.histogram("aequus_fcs_refresh_full_s"),
            h_refresh_incr: t.histogram("aequus_fcs_refresh_incremental_s"),
            h_query: t.histogram("aequus_fcs_query_s"),
        }
    }
}

/// Per-site fairshare calculation service.
pub struct Fcs {
    config: FairshareConfig,
    projection_kind: ProjectionKind,
    projection: Box<dyn Projection>,
    refresh_interval_s: f64,
    tree: Option<FairshareTree>,
    /// The site's id of each user of the tree's layout, by layout id —
    /// resolved once per rebuilt tree, and `None` when the site's table is
    /// built over the layout's own user base: layout id *is* site id.
    site_ids: Option<Vec<UserId>>,
    /// Factor row indexed by site [`UserId`]; `NaN` marks "no precomputed
    /// factor" (the user is absent from the tree).
    factor_slots: Vec<f64>,
    last_refresh_s: Option<f64>,
    last_policy_version: u64,
    /// Next refresh must rebuild from scratch (crash). Tracked separately
    /// from `last_refresh_s` so cadence statistics stay truthful.
    force_full: bool,
    refreshes: u64,
    full_refreshes: u64,
    incremental_refreshes: u64,
    nodes_recomputed_total: u64,
    last_recompute: RecomputeStats,
    /// Telemetry handles (no-ops until wired).
    metrics: FcsMetrics,
}

impl std::fmt::Debug for Fcs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fcs")
            .field("projection", &self.projection_kind)
            .field("refresh_interval_s", &self.refresh_interval_s)
            .field("last_refresh_s", &self.last_refresh_s)
            .field("refreshes", &self.refreshes)
            .field("full_refreshes", &self.full_refreshes)
            .field("incremental_refreshes", &self.incremental_refreshes)
            .finish()
    }
}

impl Fcs {
    /// Create an FCS with the given algorithm configuration, projection
    /// choice, and refresh (cache) interval.
    pub fn new(
        config: FairshareConfig,
        projection: ProjectionKind,
        refresh_interval_s: f64,
    ) -> Self {
        Self {
            config,
            projection_kind: projection,
            projection: projection.build(),
            refresh_interval_s,
            tree: None,
            site_ids: None,
            factor_slots: Vec::new(),
            last_refresh_s: None,
            last_policy_version: 0,
            force_full: false,
            refreshes: 0,
            full_refreshes: 0,
            incremental_refreshes: 0,
            nodes_recomputed_total: 0,
            last_recompute: RecomputeStats::default(),
            metrics: FcsMetrics::default(),
        }
    }

    /// Wire this service into a telemetry registry; pass
    /// [`Telemetry::disabled`] to detach.
    pub fn set_telemetry(&mut self, t: &Telemetry) {
        self.metrics = FcsMetrics::wire(t);
    }

    /// Site crash: drop the volatile fairshare state — the precomputed tree
    /// and every projected factor. The ids the factors are served under are
    /// the site table's and outlive this (they are handed out to the RMS),
    /// as do the monotone refresh counters. The next refresh rebuilds from
    /// scratch.
    pub fn reset(&mut self) {
        self.tree = None;
        self.factor_slots.fill(f64::NAN);
        self.last_refresh_s = None;
        self.force_full = true;
    }

    /// The active projection algorithm.
    pub fn projection_kind(&self) -> ProjectionKind {
        self.projection_kind
    }

    /// The algorithm configuration.
    pub fn config(&self) -> &FairshareConfig {
        &self.config
    }

    /// Whether the precomputed values are stale at `now_s` (interval
    /// elapsed, the policy version moved, or a crash pends a rebuild).
    pub fn is_stale(&self, pds: &Pds, now_s: f64) -> bool {
        if self.force_full || pds.version() != self.last_policy_version {
            return true;
        }
        match self.last_refresh_s {
            None => true,
            Some(t) => now_s - t >= self.refresh_interval_s,
        }
    }

    /// Recompute the fairshare tree and projected factors if stale, draining
    /// the PDS and UMS dirty sets; `users` is the site's table, whose ids
    /// the UMS row, the dirty sets and the served factors are keyed by.
    /// Returns whether a refresh happened.
    ///
    /// Cost of an incremental refresh: `O(d·depth)` to re-aggregate the `d`
    /// dirty users' paths, `O(siblings)` flat float work per touched
    /// sibling group (one dirty user moves every sibling's usage share), and
    /// `O(depth)` per leaf under a changed node to re-project it by id. A
    /// full rebuild is `O(nodes)` float work over the UMS row plus one
    /// projection of every user (Dictionary: a sort; it also re-ranks all
    /// users on any change). Neither looks a user up by name, clones one or
    /// touches a map — except at a site whose table is not built over the
    /// policy's user base (a replaced policy, a service driven alone), which
    /// pays `O(users·log users)` name lookups per rebuild to translate.
    pub fn refresh(
        &mut self,
        pds: &mut Pds,
        ums: &mut Ums,
        users: &mut UserTable,
        now_s: f64,
    ) -> bool {
        if !self.is_stale(pds, now_s) {
            return false;
        }
        let mut dirty = pds.take_dirty();
        dirty.merge(&ums.take_dirty());
        let policy = pds.policy();
        // A version bump the dirty set cannot explain (no edited path, no
        // mark-all) means the policy changed behind our back: rebuild.
        let unexplained_version = pds.version() != self.last_policy_version
            && !dirty.is_all()
            && dirty.paths().next().is_none();
        let restructured =
            (self.tree.as_ref()).is_some_and(|tree| !Arc::ptr_eq(tree.layout(), policy.layout()));
        let need_full = self.tree.is_none()
            || self.force_full
            || dirty.is_all()
            || unexplained_version
            || restructured;

        let mut incremental = None;
        if !need_full && dirty.is_empty() {
            // Interval elapsed but nothing changed upstream: the refresh
            // happened (cadence-wise) and did zero recompute work.
            self.metrics.h_refresh_incr.record(0.0);
            incremental = Some(RecomputeStats::default());
        } else if let Some(mut tree) = self.tree.take().filter(|_| !need_full) {
            let _span = self.metrics.h_refresh_incr.start_timer();
            let usage = self.by_layout_id(ums.usage());
            let dirty = self.marked_by_layout_id(tree.layout(), users, &dirty);
            incremental = tree.recompute_dirty(policy, &usage, &dirty, now_s);
            if let Some(stats) = &incremental {
                // Re-project only the leaves under nodes whose state
                // changed. A leaf under two changed nodes is projected
                // twice — idempotent, and cheaper than deduplicating.
                let mut affected: Vec<NodeId> = Vec::new();
                for id in &stats.changed_elements {
                    tree.leaves_under(*id, &mut affected);
                }
                for &leaf in &affected {
                    let Some(factor) = self.projection.project_leaf(&tree, leaf) else {
                        // No per-leaf entry point (Dictionary): any change
                        // can shift every rank — re-rank all.
                        self.project_all(&tree);
                        break;
                    };
                    // A user under several leaves is served from the last.
                    let user = tree.layout()[leaf].user;
                    if let Some(user) = user.filter(|&u| tree.leaf_of(u) == Some(leaf)) {
                        let slot = self.site_id(user).index();
                        self.factor_slots[slot] = factor;
                    }
                }
                self.tree = Some(tree);
            }
        }
        match incremental {
            Some(stats) => {
                self.incremental_refreshes += 1;
                self.last_recompute = stats;
            }
            None => {
                let _span = self.metrics.h_refresh_full.start_timer();
                self.metrics.full_refreshes.inc();
                self.metrics.telemetry.event(now_s, "fcs.full_rebuild", || {
                    if unexplained_version {
                        "unexplained policy version bump".to_string()
                    } else if dirty.is_all() {
                        "dirty set marked all".to_string()
                    } else if restructured {
                        "policy structure replaced".to_string()
                    } else {
                        "first refresh or restart".to_string()
                    }
                });
                let layout = policy.layout();
                // Ids are the layout's own unless the table has another base.
                self.site_ids = (!Arc::ptr_eq(layout.users(), users.base()))
                    .then(|| layout.users().iter().map(|u| users.intern(u)).collect());
                self.factor_slots.resize(users.len(), f64::NAN);
                let usage = self.by_layout_id(ums.usage());
                let tree = FairshareTree::compute_row(policy, &usage, &self.config, now_s);
                self.project_all(&tree);
                self.last_recompute = RecomputeStats {
                    full: true,
                    nodes_recomputed: tree.node_count() as u64,
                    shares_refreshed: tree.node_count() as u64,
                    changed_elements: Vec::new(),
                };
                self.tree = Some(tree);
                self.full_refreshes += 1;
                self.force_full = false;
            }
        }

        self.nodes_recomputed_total += self.last_recompute.nodes_recomputed;
        self.last_refresh_s = Some(now_s);
        self.last_policy_version = pds.version();
        self.refreshes += 1;
        self.metrics.refreshes.inc();
        true
    }

    /// The site's id of a user of the tree's layout.
    fn site_id(&self, user: UserId) -> UserId {
        (self.site_ids.as_ref()).map_or(user, |ids| ids[user.index()])
    }

    /// The UMS row as the tree reads it: borrowed as it is when layout ids
    /// are site ids, else gathered under the layout's ids.
    fn by_layout_id<'a>(&self, usage: &'a [f64]) -> Cow<'a, [f64]> {
        let held = |id: &UserId| usage.get(id.index()).copied().unwrap_or(f64::NAN);
        match &self.site_ids {
            None => Cow::Borrowed(usage),
            Some(ids) => ids.iter().map(held).collect(),
        }
    }

    /// A dirty set as the tree reads it: borrowed as it is when layout ids
    /// are site ids, else its users re-marked under the layout's ids, by
    /// name.
    fn marked_by_layout_id<'a>(
        &self,
        layout: &PolicyLayout,
        users: &UserTable,
        dirty: &'a DirtySet,
    ) -> Cow<'a, DirtySet> {
        if self.site_ids.is_none() {
            return Cow::Borrowed(dirty);
        }
        let mut marked = DirtySet::new();
        dirty
            .paths()
            .for_each(|path| marked.mark_path(path.clone()));
        let ranked = dirty
            .users()
            .filter_map(|id| layout.user_id(users.name(id)));
        ranked.for_each(|user| marked.mark_user(user));
        Cow::Owned(marked)
    }

    /// Re-project every user of the tree into the factor row; users the
    /// tree no longer holds lose their factor. `O(users)` past the
    /// projection itself.
    fn project_all(&mut self, tree: &FairshareTree) {
        self.factor_slots.fill(f64::NAN);
        for (user, factor) in self.projection.project(tree).into_iter().enumerate() {
            let slot = self.site_id(UserId(user as u32)).index();
            self.factor_slots[slot] = factor;
        }
    }

    /// The site's id of a user of the current tree's policy, by name
    /// (inspection; the RMS interns through the site's table).
    pub fn id_of(&self, user: &GridUser) -> Option<UserId> {
        let user = self.tree.as_ref()?.layout().user_id(user)?;
        Some(self.site_id(user))
    }

    /// The policy user a site id names, while a tree holds it (trace notes).
    pub fn user_of(&self, id: UserId) -> Option<&GridUser> {
        let rank = match &self.site_ids {
            None => id.index(),
            Some(ids) => ids.iter().position(|held| *held == id)?,
        };
        self.tree.as_ref()?.layout().users().get(rank)
    }

    /// Query the precomputed fairshare factor of an interned user — an
    /// index load, no calculation ("pre-calculated values already exist and
    /// can be assigned to the job based on the associated user identity").
    /// `None` for users absent from the tree. This is the served query:
    /// counted and timed, reached once per `libaequus` cache miss.
    pub fn query(&self, id: UserId) -> Option<f64> {
        let _span = self.metrics.h_query.start_timer();
        self.metrics.queries.inc();
        self.factor_of(id)
    }

    /// [`query`](Self::query) without the telemetry — for the site's own
    /// bookkeeping and the metrics sampler, which must not count as served
    /// queries.
    pub fn factor_of(&self, id: UserId) -> Option<f64> {
        id.read(&self.factor_slots)
    }

    /// How many users hold a precomputed factor — one pass over the row.
    pub fn factor_count(&self) -> usize {
        self.factor_slots.iter().filter(|f| !f.is_nan()).count()
    }

    /// The precomputed factors of all users as a report, names written back
    /// from the policy layout — `O(users·log users)`; not for hot paths.
    pub fn factors(&self) -> BTreeMap<GridUser, f64> {
        let users = self
            .tree
            .iter()
            .flat_map(|tree| tree.layout().users().iter());
        let factor = |(user, name): (usize, &GridUser)| {
            Some((
                name.clone(),
                self.factor_of(self.site_id(UserId(user as u32)))?,
            ))
        };
        users.enumerate().filter_map(factor).collect()
    }

    /// The last computed fairshare tree (for metrics and vector extraction).
    pub fn tree(&self) -> Option<&FairshareTree> {
        self.tree.as_ref()
    }

    /// Capture the full decision provenance of `user`'s current factor under
    /// the active projection (see [`aequus_core::explain`]): policy path with
    /// per-level shares, distance decomposition, fairshare vector, and the
    /// projection inputs, replayable bit-for-bit. `None` before the first
    /// refresh or for users absent from the tree.
    pub fn explain(&self, user: &GridUser) -> Option<aequus_core::Explanation> {
        aequus_core::Explanation::capture(self.tree.as_ref()?, user, self.projection_kind)
    }

    /// Number of precomputations performed (full + incremental).
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Refreshes that rebuilt the tree from scratch.
    pub fn full_refreshes(&self) -> u64 {
        self.full_refreshes
    }

    /// Refreshes served by the incremental engine (including zero-work
    /// refreshes where nothing was dirty).
    pub fn incremental_refreshes(&self) -> u64 {
        self.incremental_refreshes
    }

    /// Total subtree-aggregate recomputations across all refreshes — the
    /// work metric the incremental engine minimizes.
    pub fn nodes_recomputed(&self) -> u64 {
        self.nodes_recomputed_total
    }

    /// What the most recent refresh did.
    pub fn last_recompute(&self) -> &RecomputeStats {
        &self.last_recompute
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participation::ParticipationMode;
    use crate::uss::Uss;
    use aequus_core::ids::{JobId, SiteId};
    use aequus_core::policy::{flat_policy, PolicyNode, PolicyTree};
    use aequus_core::usage::UsageRecord;
    use aequus_core::DecayPolicy;

    fn record(user: &str, start: f64, end: f64) -> UsageRecord {
        UsageRecord {
            job: JobId(1),
            user: GridUser::new(user),
            site: SiteId(0),
            cores: 1,
            start_s: start,
            end_s: end,
        }
    }

    /// A user's current factor by name, as a site operator would ask.
    fn factor(fcs: &Fcs, user: &str) -> Option<f64> {
        fcs.id_of(&GridUser::new(user))
            .and_then(|id| fcs.factor_of(id))
    }

    fn setup() -> (Pds, Ums, Uss) {
        let pds = Pds::new(flat_policy(&[("a", 0.5), ("b", 0.5)]).unwrap());
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 60.0);
        uss.ingest(&record("a", 0.0, 100.0));
        let mut ums = Ums::new(0.0, DecayPolicy::None);
        ums.refresh(&mut uss, 0.0);
        (pds, ums, uss)
    }

    #[test]
    fn precomputes_factors_for_all_users() {
        let (mut pds, mut ums, mut uss) = setup();
        let mut fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 30.0);
        assert!(factor(&fcs, "a").is_none(), "nothing before refresh");
        assert!(fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 0.0));
        let fa = factor(&fcs, "a").unwrap();
        let fb = factor(&fcs, "b").unwrap();
        assert!(fb > fa, "b has no usage → higher factor");
    }

    #[test]
    fn query_is_cached_between_refreshes() {
        let (mut pds, mut ums, mut uss) = setup();
        let mut fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 30.0);
        fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 0.0);
        assert!(!fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 10.0));
        assert!(fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 31.0));
        assert_eq!(fcs.refreshes(), 2);
        // Nothing was dirty at t=31: the refresh did zero tree work.
        assert_eq!(fcs.full_refreshes(), 1);
        assert_eq!(fcs.incremental_refreshes(), 1);
        assert_eq!(fcs.last_recompute().nodes_recomputed, 0);
    }

    #[test]
    fn policy_change_invalidates_cache() {
        let (mut pds, mut ums, mut uss) = setup();
        let mut fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 1e9);
        fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 0.0);
        pds.set_share(&aequus_core::EntityPath::parse("/a"), 0.9)
            .unwrap();
        assert!(
            fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 1.0),
            "version bump forces recompute"
        );
        // A share edit is served incrementally, not by a rebuild.
        assert_eq!(fcs.full_refreshes(), 1);
        assert_eq!(fcs.incremental_refreshes(), 1);
    }

    #[test]
    fn unknown_user_unprioritized() {
        let (mut pds, mut ums, mut uss) = setup();
        let mut fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 30.0);
        fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 0.0);
        assert!(factor(&fcs, "ghost").is_none());
    }

    #[test]
    fn single_user_update_recomputes_only_the_path() {
        // Acceptance criterion: one user's usage update touches exactly that
        // user's root→leaf path, observable through the FCS work counter.
        let policy = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![
                PolicyNode::group(
                    "g0",
                    0.5,
                    vec![PolicyNode::user("u0", 0.5), PolicyNode::user("u1", 0.5)],
                ),
                PolicyNode::group(
                    "g1",
                    0.5,
                    vec![PolicyNode::user("u2", 0.5), PolicyNode::user("u3", 0.5)],
                ),
            ],
        ))
        .unwrap();
        let mut pds = Pds::new(policy);
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 60.0);
        uss.ingest(&record("u0", 0.0, 100.0));
        uss.ingest(&record("u2", 0.0, 50.0));
        let mut ums = Ums::new(0.0, DecayPolicy::None);
        ums.refresh(&mut uss, 0.0);
        let mut fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 0.0);
        fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 0.0);
        assert_eq!(fcs.full_refreshes(), 1);
        let full_work = fcs.nodes_recomputed();

        // New usage for u2 only.
        uss.ingest(&record("u2", 100.0, 200.0));
        ums.refresh(&mut uss, 10.0);
        assert!(fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 10.0));
        assert_eq!(fcs.incremental_refreshes(), 1);
        // Exactly the path u2 → g1 → root.
        assert_eq!(fcs.last_recompute().nodes_recomputed, 3);
        assert_eq!(fcs.nodes_recomputed(), full_work + 3);
        // And the factors track the new usage: u2 fell behind u3.
        assert!(factor(&fcs, "u2").unwrap() < factor(&fcs, "u3").unwrap());
    }

    #[test]
    fn incremental_factors_match_full_recompute() {
        // The projected factors after an incremental refresh are bit-equal
        // to a from-scratch FCS over the same state, for each projection.
        for kind in [
            ProjectionKind::Dictionary,
            ProjectionKind::Bitwise,
            ProjectionKind::Percental,
        ] {
            let (mut pds, mut ums, mut uss) = setup();
            let mut fcs = Fcs::new(FairshareConfig::default(), kind, 0.0);
            fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 0.0);
            uss.ingest(&record("b", 0.0, 400.0));
            ums.refresh(&mut uss, 1.0);
            pds.set_share(&aequus_core::EntityPath::parse("/a"), 0.7)
                .unwrap();
            fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 1.0);

            let mut fresh = Fcs::new(FairshareConfig::default(), kind, 0.0);
            fresh.refresh(&mut pds, &mut ums, uss.users_mut(), 1.0);
            let (inc, full) = (fcs.factors(), fresh.factors());
            assert_eq!(inc.len(), full.len());
            for (user, f) in &inc {
                assert_eq!(
                    f.to_bits(),
                    full[user].to_bits(),
                    "{kind:?} factor mismatch for {user:?}"
                );
            }
        }
    }

    #[test]
    fn user_ids_stable_across_rebuilds() {
        let (mut pds, mut ums, mut uss) = setup();
        let mut fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 0.0);
        fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 0.0);
        let id_a = fcs.id_of(&GridUser::new("a")).unwrap();
        let id_b = fcs.id_of(&GridUser::new("b")).unwrap();
        assert_ne!(id_a, id_b);
        assert_eq!(fcs.query(id_a), factor(&fcs, "a"));
        // The ids are the site table's: the ones the RMS interns to.
        assert_eq!(uss.users().id_of(&GridUser::new("a")), Some(id_a));

        // Structural policy change forces a full rebuild; ids survive.
        pds.set_policy(flat_policy(&[("b", 0.4), ("c", 0.6)]).unwrap());
        fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 1.0);
        assert_eq!(fcs.id_of(&GridUser::new("b")), Some(id_b));
        assert_eq!(fcs.query(id_b), factor(&fcs, "b"));
        // "a" left the policy: its id persists but no factor is published.
        assert_eq!(uss.users().id_of(&GridUser::new("a")), Some(id_a));
        assert_eq!(fcs.id_of(&GridUser::new("a")), None);
        assert_eq!(fcs.query(id_a), None);
        // "c" is new and got a fresh id, not a's.
        let id_c = fcs.id_of(&GridUser::new("c")).unwrap();
        assert_ne!(id_c, id_a);
        assert_eq!(fcs.user_of(id_c), Some(&GridUser::new("c")));
        assert_eq!(uss.users().name(id_c), &GridUser::new("c"));

        // A crash drops every factor and no id.
        fcs.reset();
        assert_eq!(fcs.query(id_b), None);
        fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 2.0);
        assert_eq!(fcs.id_of(&GridUser::new("b")), Some(id_b));
        assert!(fcs.query(id_c).is_some());
    }

    /// A site whose table is built over the base of the policy it enforces
    /// translates nothing — layout id is site id — and serves the factors a
    /// site that met every name on its own serves.
    #[test]
    fn shared_base_and_private_table_serve_the_same_factors() {
        let policy = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![
                PolicyNode::group(
                    "g0",
                    0.6,
                    vec![PolicyNode::user("zoe", 0.5), PolicyNode::user("bo", 0.5)],
                ),
                PolicyNode::user("ann", 0.4),
            ],
        ))
        .unwrap();
        let shared = UserTable::new(policy.layout().users().clone());
        let mut factors = Vec::new();
        for table in [shared, UserTable::default()] {
            let mut pds = Pds::new(policy.clone());
            let mut uss = Uss::with_users(SiteId(0), ParticipationMode::Full, 60.0, table);
            let mut ums = Ums::new(0.0, DecayPolicy::None);
            let mut fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 0.0);
            // First sight in no name order, and one name outside the policy.
            for (user, end) in [("zoe", 80.0), ("ghost", 40.0), ("ann", 10.0)] {
                uss.ingest(&record(user, 0.0, end));
            }
            ums.refresh(&mut uss, 0.0);
            fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 0.0);
            uss.ingest(&record("bo", 0.0, 500.0));
            ums.refresh(&mut uss, 1.0);
            fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 1.0);
            assert_eq!(fcs.incremental_refreshes(), 1);
            assert_eq!(fcs.factor_count(), 3);
            let ghost = uss.users().id_of(&GridUser::new("ghost")).unwrap();
            assert_eq!(fcs.query(ghost), None);
            factors.push(fcs.factors());
        }
        let bits =
            |f: &BTreeMap<GridUser, f64>| -> Vec<u64> { f.values().map(|v| v.to_bits()).collect() };
        assert_eq!(factors[0].len(), 3);
        assert_eq!(bits(&factors[0]), bits(&factors[1]));
    }
}
