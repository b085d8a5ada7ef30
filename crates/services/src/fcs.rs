//! Fairshare Calculation Service (FCS): "fetches usage trees from the UMS
//! and policy trees from the PDS periodically, and pre-calculates fairshare
//! trees with the current fairshare values for all users. This way, no
//! real-time calculations need to take place when new jobs arrive" (§II-A).
//!
//! ## Incremental refresh
//!
//! The FCS is the consumer end of the dirty-set flow USS → UMS → FCS: each
//! refresh drains the [`DirtySet`](aequus_core::arena::DirtySet)s
//! accumulated by the PDS (policy edits)
//! and UMS (usage changes) and hands them to
//! [`FairshareTree::recompute_dirty`], which re-derives only the affected
//! subtrees. A full from-scratch rebuild happens only on the first refresh,
//! after a projection switch, or when the dirty set says "all" (structural
//! policy change, non-separable decay). After the tree update, only the
//! leaves under changed nodes are re-projected, by arena id, straight into
//! their factor slots — except under projections without a per-leaf entry
//! point (Dictionary re-ranks globally).
//!
//! The FCS interns users into dense [`UserId`]s and keeps the projected
//! factors in one `UserId`-indexed table — the only stored copy — and
//! [`Fcs::query`] is by id only: the RMS interns a job's user once at
//! submit and every later priority query is an index load. Ids are assigned
//! on first sight, never reused, and survive full rebuilds.

use crate::pds::Pds;
use crate::ums::Ums;
use aequus_core::arena::{NodeId, RecomputeStats, UserId};
use aequus_core::fairshare::{FairshareConfig, FairshareTree};
use aequus_core::projection::{Projection, ProjectionKind};
use aequus_core::GridUser;
use aequus_telemetry::{Counter, Histogram, Telemetry};
use std::collections::BTreeMap;

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
    /// Stable user interner: `GridUser` → dense id, assigned on first sight.
    user_ids: BTreeMap<GridUser, UserId>,
    users_by_id: Vec<GridUser>,
    /// Factor table indexed by [`UserId`]; `NaN` marks "no precomputed
    /// factor" (the id is interned but the user is absent from the tree).
    factor_slots: Vec<f64>,
    /// Factor slot of each user leaf of the current tree, indexed by arena
    /// [`NodeId`] (`None` for interior nodes). Resolved once per (re)built
    /// tree, so incremental refreshes never look a user up by name.
    leaf_slots: Vec<Option<UserId>>,
    last_refresh_s: Option<f64>,
    last_policy_version: u64,
    /// Next refresh must rebuild from scratch (projection switch). Tracked
    /// separately from `last_refresh_s` so cadence statistics stay truthful.
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
            user_ids: BTreeMap::new(),
            users_by_id: Vec::new(),
            factor_slots: Vec::new(),
            leaf_slots: Vec::new(),
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
    /// and every projected factor. The user interner survives (ids are
    /// handed out to the RMS and must stay stable across restarts; on a real
    /// deployment it would be persisted alongside the accounting database),
    /// as do the monotone refresh counters. The next refresh rebuilds from
    /// scratch.
    pub fn reset(&mut self) {
        self.tree = None;
        self.factor_slots.fill(f64::NAN);
        self.leaf_slots.clear();
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
    /// elapsed, the policy version moved, or a projection switch pends).
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
    /// the PDS and UMS dirty sets. Returns whether a refresh happened.
    ///
    /// Cost of an incremental refresh: `O(d·depth·log users)` to re-aggregate
    /// the `d` dirty users' paths, `O(siblings)` flat float work per touched
    /// sibling group (one dirty user moves every sibling's usage share), and
    /// `O(depth)` per leaf under a changed node to re-project it by id — no
    /// per-user name lookup, clone or map insert. A full rebuild is
    /// `O(users·log users)`; Dictionary re-ranks all users on any change.
    pub fn refresh(&mut self, pds: &mut Pds, ums: &mut Ums, now_s: f64) -> bool {
        if !self.is_stale(pds, now_s) {
            return false;
        }
        let mut dirty = pds.take_dirty();
        dirty.merge(&ums.take_dirty());
        // A version bump the dirty set cannot explain (no edited path, no
        // mark-all) means the policy changed behind our back: rebuild.
        let unexplained_version = pds.version() != self.last_policy_version
            && !dirty.is_all()
            && dirty.paths().next().is_none();
        let need_full =
            self.tree.is_none() || self.force_full || dirty.is_all() || unexplained_version;

        if need_full {
            let _span = self.metrics.h_refresh_full.start_timer();
            self.metrics.full_refreshes.inc();
            self.metrics.telemetry.event(now_s, "fcs.full_rebuild", || {
                if unexplained_version {
                    "unexplained policy version bump".to_string()
                } else if dirty.is_all() {
                    "dirty set marked all".to_string()
                } else {
                    "first refresh or projection switch".to_string()
                }
            });
            let tree = FairshareTree::compute(pds.policy(), ums.usage(), &self.config, now_s);
            self.index_leaves(&tree);
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
        } else if dirty.is_empty() {
            // Interval elapsed but nothing changed upstream: the refresh
            // happened (cadence-wise) and did zero recompute work.
            self.incremental_refreshes += 1;
            self.last_recompute = RecomputeStats::default();
            self.metrics.h_refresh_incr.record(0.0);
        } else if let Some(mut tree) = self.tree.take() {
            let _span = self.metrics.h_refresh_incr.start_timer();
            let stats = tree.recompute_dirty(pds.policy(), ums.usage(), &dirty, now_s);
            if stats.full {
                // The tree detected a structural mismatch and rebuilt.
                self.index_leaves(&tree);
                self.project_all(&tree);
                self.full_refreshes += 1;
                self.metrics.full_refreshes.inc();
                self.metrics.telemetry.event(now_s, "fcs.full_rebuild", || {
                    "structural mismatch during incremental recompute".to_string()
                });
            } else {
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
                    if let Some(id) = self.leaf_slots[leaf.index()] {
                        self.factor_slots[id.index()] = factor;
                    }
                }
                self.incremental_refreshes += 1;
            }
            self.tree = Some(tree);
            self.last_recompute = stats;
        } else {
            // `need_full` concluded a tree exists, but it does not (a state
            // a recovering site could conceivably reach). A serving site
            // must not panic: do no work now and schedule a full rebuild.
            self.force_full = true;
            self.last_recompute = RecomputeStats::default();
        }

        self.nodes_recomputed_total += self.last_recompute.nodes_recomputed;
        self.last_refresh_s = Some(now_s);
        self.last_policy_version = pds.version();
        self.refreshes += 1;
        self.metrics.refreshes.inc();
        true
    }

    /// Resolve every user leaf of a (re)built tree to its factor slot,
    /// interning users seen for the first time (in user order).
    /// `O(users·log users)`, once per tree.
    fn index_leaves(&mut self, tree: &FairshareTree) {
        self.leaf_slots.clear();
        self.leaf_slots.resize(tree.node_count(), None);
        for (user, leaf) in tree.user_leaves() {
            self.leaf_slots[leaf.index()] = Some(self.intern_user(user));
        }
    }

    /// Re-project every user of the tree into the factor table; users the
    /// tree no longer holds lose their factor. `O(users·log users)`.
    fn project_all(&mut self, tree: &FairshareTree) {
        self.factor_slots.fill(f64::NAN);
        for (user, factor) in self.projection.project(tree) {
            let id = self.intern_user(&user);
            self.factor_slots[id.index()] = factor;
        }
    }

    /// Intern a user, returning its stable dense id. Ids survive full
    /// rebuilds and are never reused.
    pub fn intern_user(&mut self, user: &GridUser) -> UserId {
        if let Some(id) = self.user_ids.get(user) {
            return *id;
        }
        let id = UserId(self.users_by_id.len() as u32);
        self.user_ids.insert(user.clone(), id);
        self.users_by_id.push(user.clone());
        self.factor_slots.push(f64::NAN);
        id
    }

    /// Resolve an already-interned user's id without interning.
    pub fn id_of(&self, user: &GridUser) -> Option<UserId> {
        self.user_ids.get(user).copied()
    }

    /// The user an id was assigned to.
    pub fn user_of(&self, id: UserId) -> Option<&GridUser> {
        self.users_by_id.get(id.index())
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
        self.factor_slots
            .get(id.index())
            .copied()
            .filter(|f| !f.is_nan())
    }

    /// The precomputed factors of all users, materialised from the factor
    /// table — `O(users·log users)`; for reports and tests, not hot paths.
    pub fn factors(&self) -> BTreeMap<GridUser, f64> {
        self.users_by_id
            .iter()
            .zip(&self.factor_slots)
            .filter(|(_, f)| !f.is_nan())
            .map(|(user, f)| (user.clone(), *f))
            .collect()
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
        let (mut pds, mut ums, _) = setup();
        let mut fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 30.0);
        assert!(factor(&fcs, "a").is_none(), "nothing before refresh");
        assert!(fcs.refresh(&mut pds, &mut ums, 0.0));
        let fa = factor(&fcs, "a").unwrap();
        let fb = factor(&fcs, "b").unwrap();
        assert!(fb > fa, "b has no usage → higher factor");
    }

    #[test]
    fn query_is_cached_between_refreshes() {
        let (mut pds, mut ums, _) = setup();
        let mut fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 30.0);
        fcs.refresh(&mut pds, &mut ums, 0.0);
        assert!(!fcs.refresh(&mut pds, &mut ums, 10.0));
        assert!(fcs.refresh(&mut pds, &mut ums, 31.0));
        assert_eq!(fcs.refreshes(), 2);
        // Nothing was dirty at t=31: the refresh did zero tree work.
        assert_eq!(fcs.full_refreshes(), 1);
        assert_eq!(fcs.incremental_refreshes(), 1);
        assert_eq!(fcs.last_recompute().nodes_recomputed, 0);
    }

    #[test]
    fn policy_change_invalidates_cache() {
        let (mut pds, mut ums, _) = setup();
        let mut fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 1e9);
        fcs.refresh(&mut pds, &mut ums, 0.0);
        pds.set_share(&aequus_core::EntityPath::parse("/a"), 0.9)
            .unwrap();
        assert!(
            fcs.refresh(&mut pds, &mut ums, 1.0),
            "version bump forces recompute"
        );
        // A share edit is served incrementally, not by a rebuild.
        assert_eq!(fcs.full_refreshes(), 1);
        assert_eq!(fcs.incremental_refreshes(), 1);
    }

    #[test]
    fn unknown_user_unprioritized() {
        let (mut pds, mut ums, _) = setup();
        let mut fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 30.0);
        fcs.refresh(&mut pds, &mut ums, 0.0);
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
        fcs.refresh(&mut pds, &mut ums, 0.0);
        assert_eq!(fcs.full_refreshes(), 1);
        let full_work = fcs.nodes_recomputed();

        // New usage for u2 only.
        uss.ingest(&record("u2", 100.0, 200.0));
        ums.refresh(&mut uss, 10.0);
        assert!(fcs.refresh(&mut pds, &mut ums, 10.0));
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
            fcs.refresh(&mut pds, &mut ums, 0.0);
            uss.ingest(&record("b", 0.0, 400.0));
            ums.refresh(&mut uss, 1.0);
            pds.set_share(&aequus_core::EntityPath::parse("/a"), 0.7)
                .unwrap();
            fcs.refresh(&mut pds, &mut ums, 1.0);

            let mut fresh = Fcs::new(FairshareConfig::default(), kind, 0.0);
            fresh.refresh(&mut pds, &mut ums, 1.0);
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
        let (mut pds, mut ums, _) = setup();
        let mut fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 0.0);
        fcs.refresh(&mut pds, &mut ums, 0.0);
        let id_a = fcs.id_of(&GridUser::new("a")).unwrap();
        let id_b = fcs.id_of(&GridUser::new("b")).unwrap();
        assert_ne!(id_a, id_b);
        assert_eq!(fcs.query(id_a), factor(&fcs, "a"));

        // Structural policy change forces a full rebuild; ids survive.
        pds.set_policy(flat_policy(&[("b", 0.4), ("c", 0.6)]).unwrap());
        fcs.refresh(&mut pds, &mut ums, 1.0);
        assert_eq!(fcs.id_of(&GridUser::new("b")), Some(id_b));
        assert_eq!(fcs.query(id_b), factor(&fcs, "b"));
        // "a" left the policy: its id persists but no factor is published.
        assert_eq!(fcs.id_of(&GridUser::new("a")), Some(id_a));
        assert_eq!(fcs.query(id_a), None);
        // "c" is new and got a fresh id, not a's.
        let id_c = fcs.id_of(&GridUser::new("c")).unwrap();
        assert_ne!(id_c, id_a);
        assert_eq!(fcs.user_of(id_c), Some(&GridUser::new("c")));
    }
}
