//! Fairshare Calculation Service (FCS): "fetches usage trees from the UMS
//! and policy trees from the PDS periodically, and pre-calculates fairshare
//! trees with the current fairshare values for all users. This way, no
//! real-time calculations need to take place when new jobs arrive" (§II-A).
//!
//! ## Incremental refresh
//!
//! The FCS is the consumer end of the dirty-set flow USS → UMS → FCS: each
//! refresh drains the [`DirtySet`](aequus_core::arena::DirtySet)s
//! accumulated by the PDS (policy edits) and UMS (usage changes) and hands
//! them to [`FairshareTree::recompute_dirty`], which re-sums only the dirty
//! root→leaf paths. A full from-scratch rebuild happens only on the first
//! refresh, after a crash, or when the dirty set says "all" (structural
//! policy change, non-separable decay). What a refresh pre-calculates is
//! the tree's sums and group totals — all of a factor that needs the
//! population.
//!
//! [`Fcs::query`] is by the [`UserId`]s of the site's [`UserTable`] only
//! (the RMS interns a job's user once at submit) and, for the path-local
//! projections (Percental, Bitwise), reads the factor off the user's own
//! root→leaf path of that tree ([`Projection::project_leaf`]): `O(depth)`
//! flops, no lookup by name, no stored factor, nothing to invalidate.
//! Dictionary's ranks are global, so its one `project` row is stored and
//! re-ranked whole by every refresh that had anything dirty.
//!
//! A site has one id space, its table's. The tree speaks the ids of the
//! policy's layout, which are the site's: a site built from the policy it
//! enforces shares the layout's base, and a replaced or mounted policy gets
//! its layout keyed by the site's table ([`Pds::key_by`]) at its first
//! rebuild. Rows, dirty sets and queries pass through as they are.

use crate::pds::Pds;
use crate::ums::Ums;
use aequus_core::arena::{RecomputeStats, UserId, UserTable};
use aequus_core::fairshare::{FairshareConfig, FairshareTree};
use aequus_core::projection::{Projection, ProjectionKind};
use aequus_core::GridUser;
use aequus_telemetry::{Histogram, Snapshot, Telemetry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Pre-registered FCS metric handles (no-ops until wired).
#[derive(Debug, Clone, Default)]
struct FcsMetrics {
    h_refresh_full: Histogram,
    h_refresh_incr: Histogram,
    h_query: Histogram,
}

impl FcsMetrics {
    fn wire(t: &Telemetry) -> Self {
        Self {
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
    /// The `project` row of a projection without a per-leaf read
    /// (Dictionary), by [`UserId`]; empty under the others.
    ranked: Vec<f64>,
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
            ranked: Vec::new(),
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

    /// Site crash: drop the volatile fairshare state — the precomputed tree,
    /// and with it every factor. The ids the factors are served under are
    /// the site table's and outlive this (they are handed out to the RMS),
    /// as do the monotone refresh counters. The next refresh rebuilds from
    /// scratch.
    pub fn reset(&mut self) {
        self.tree = None;
        self.last_refresh_s = None;
        self.force_full = true;
    }

    /// The algorithm configuration.
    pub fn config(&self) -> &FairshareConfig {
        &self.config
    }

    /// Whether the precomputed values are stale at `now_s` (interval
    /// elapsed, the policy version moved, or a crash pends a rebuild).
    fn is_stale(&self, pds: &Pds, now_s: f64) -> bool {
        if self.force_full || pds.version() != self.last_policy_version {
            return true;
        }
        match self.last_refresh_s {
            None => true,
            Some(t) => now_s - t >= self.refresh_interval_s,
        }
    }

    /// Bring the fairshare tree up to date if stale, draining the PDS and
    /// UMS dirty sets; `users` is the site's table, whose ids the UMS row,
    /// the dirty sets, the tree and the served factors are keyed by. Returns
    /// whether a refresh happened.
    ///
    /// Cost of an incremental refresh: `O(dirty·depth + Σ touched group
    /// widths)` adds — each dirty user's path is walked once and each
    /// sibling group on it re-summed in one pass; nothing is derived or
    /// projected per sibling (a read is `O(depth)` flops, paid by the
    /// reader). A full rebuild is `O(nodes)` adds over the UMS row.
    /// Dictionary also re-ranks all users (a sort) on either, if anything
    /// was dirty. Neither looks a user up by name, clones one or touches a
    /// map — except the first rebuild over a layout whose ids are not the
    /// table's (a replaced or mounted policy), which keys it by the table:
    /// `O(users·log users)` name lookups, once per policy structure.
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
        // The usage side carries the many marks: policy edits merge into it.
        let mut dirty = ums.take_dirty();
        dirty.merge(&pds.take_dirty());
        // A version bump the dirty set cannot explain (no edited path, no
        // mark-all) means the policy changed behind our back: rebuild.
        let unexplained_version = pds.version() != self.last_policy_version
            && !dirty.is_all()
            && dirty.paths().next().is_none();
        let restructured = (self.tree.as_ref())
            .is_some_and(|tree| !Arc::ptr_eq(tree.layout(), pds.policy().layout()));
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
            incremental = tree.recompute_dirty(pds.policy(), ums.usage(), &dirty, now_s);
            if incremental.is_some() {
                self.rerank(&tree);
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
                // One id space: a layout whose ids are not the table's (a
                // replaced or mounted policy) is keyed by it, once.
                if !users.extends(pds.policy().layout().table()) {
                    pds.key_by(users);
                }
                let tree =
                    FairshareTree::compute_row(pds.policy(), ums.usage(), &self.config, now_s);
                self.rerank(&tree);
                self.last_recompute = RecomputeStats {
                    full: true,
                    nodes_recomputed: tree.node_count() as u64,
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
        true
    }

    /// Store the whole `project` row of a projection that cannot read one
    /// leaf on its own (its ranks can all shift on any change); a path-local
    /// projection stores nothing.
    fn rerank(&mut self, tree: &FairshareTree) {
        let read = |(_, leaf)| self.projection.project_leaf(tree, leaf);
        let path_local = tree.user_leaves().next().and_then(read).is_some();
        if !path_local {
            self.ranked = self.projection.project(tree);
        }
    }

    /// The site's id of a user of the current tree's policy, by name
    /// (inspection; the RMS interns through the site's table).
    pub fn id_of(&self, user: &GridUser) -> Option<UserId> {
        self.tree.as_ref()?.layout().user_id(user)
    }

    /// The policy user a site id names, while a tree holds it (trace notes).
    pub fn user_of(&self, id: UserId) -> Option<&GridUser> {
        self.tree.as_ref()?.layout().name(id)
    }

    /// Query the fairshare factor of an interned user: everything that
    /// needs the population was pre-calculated by the last refresh ("pre-
    /// calculated values already exist and can be assigned to the job based
    /// on the associated user identity"), what is left is the user's own
    /// path — `O(depth)` flops, or an index load of the stored rank row.
    /// `None` for users absent from the tree. This is the served query:
    /// timed (the timer's count is the query count), reached once per
    /// `libaequus` cache miss.
    pub fn query(&self, id: UserId) -> Option<f64> {
        let _span = self.metrics.h_query.start_timer();
        self.factor_of(id)
    }

    /// [`query`](Self::query) without the timer — for the site's own
    /// bookkeeping and the metrics sampler, which must not count as served
    /// queries. It reads the user's own path, or — a projection without a
    /// per-leaf read — the stored row.
    pub fn factor_of(&self, id: UserId) -> Option<f64> {
        let tree = self.tree.as_ref()?;
        let on_path = self.projection.project_leaf(tree, tree.leaf_of(id)?);
        on_path.or_else(|| id.read(&self.ranked))
    }

    /// How many users the tree serves a factor for.
    pub fn factor_count(&self) -> usize {
        (self.tree.as_ref()).map_or(0, |tree| tree.user_leaves().count())
    }

    /// The factors of all users as a report, names written back from the
    /// policy layout — `O(users·(depth + log users))`; not for hot paths.
    pub fn factors(&self) -> BTreeMap<GridUser, f64> {
        let Some(layout) = self.tree.as_ref().map(FairshareTree::layout) else {
            return BTreeMap::new();
        };
        let factor = |user| Some((layout.name(user)?.clone(), self.factor_of(user)?));
        layout.user_ids().filter_map(factor).collect()
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

    /// Write the refresh counts into `snap`.
    pub fn counts_into(&self, snap: &mut Snapshot) {
        snap.add_counts([
            ("aequus_fcs_refreshes_total", self.refreshes),
            ("aequus_fcs_full_refreshes_total", self.full_refreshes),
        ]);
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
        for kind in [
            ProjectionKind::Dictionary,
            ProjectionKind::Bitwise,
            ProjectionKind::Percental,
        ] {
            let (mut pds, mut ums, mut uss) = setup();
            let mut fcs = Fcs::new(FairshareConfig::default(), kind, 0.0);
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

            // A share edit and new usage after the replacement are served
            // incrementally, by the site's ids, with the factors a
            // name-keyed computation of the edited policy gives.
            let full = fcs.full_refreshes();
            pds.set_share(&aequus_core::EntityPath::parse("/c"), 0.1)
                .unwrap();
            uss.ingest(&record("b", 0.0, 30.0));
            ums.refresh(&mut uss, 1.5);
            assert!(fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 1.5));
            assert_eq!(fcs.full_refreshes(), full, "{kind:?}");
            let edited = flat_policy(&[("b", 0.4), ("c", 0.1)]).unwrap();
            let by_name = [(GridUser::new("b"), ums.usage()[id_b.index()])].into();
            let tree = FairshareTree::compute(&edited, &by_name, fcs.config(), 1.5);
            let want = tree.by_user(&kind.build().project(&tree));
            let bits = |f: Option<f64>| f.map(f64::to_bits);
            for (id, user) in [(id_b, "b"), (id_c, "c")] {
                let want = want.get(&GridUser::new(user)).copied();
                assert!(want.is_some());
                assert_eq!(bits(fcs.query(id)), bits(want), "{kind:?} {user}");
            }
            assert_eq!(fcs.factors().len(), 2);
            assert_eq!(fcs.query(id_a), None);

            // A crash drops every factor and no id.
            fcs.reset();
            assert_eq!(fcs.query(id_b), None);
            fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 2.0);
            assert_eq!(fcs.id_of(&GridUser::new("b")), Some(id_b));
            assert!(fcs.query(id_c).is_some());
        }
    }

    /// A replaced policy is served at the next refresh, however long the
    /// refresh interval: the PDS version moves on across a replacement even
    /// where the new tree's own version is the old one's.
    #[test]
    fn a_replaced_policy_is_served_at_once() {
        let (mut pds, mut ums, mut uss) = setup();
        let mut fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 1e9);
        fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 0.0);
        let before = factor(&fcs, "b").unwrap();
        pds.set_policy(flat_policy(&[("a", 0.1), ("b", 0.9)]).unwrap());
        assert!(fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 1.0));
        let mut fresh = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 1e9);
        fresh.refresh(&mut pds, &mut ums, uss.users_mut(), 1.0);
        assert_eq!(fcs.factors(), fresh.factors());
        assert!(factor(&fcs, "b").unwrap() > before, "b's share grew");
    }

    /// A policy keyed by one site's table and handed to another site of the
    /// same base is keyed again there: the two tables met other names first.
    #[test]
    fn a_policy_keyed_at_one_site_is_keyed_again_at_another() {
        let grid = flat_policy(&[("a", 0.5), ("b", 0.5)]).unwrap();
        let mut sites = ["x", "d"].map(|first| {
            let table = UserTable::new(grid.layout().users().clone());
            let mut uss = Uss::with_users(SiteId(0), ParticipationMode::Full, 60.0, table);
            uss.ingest(&record(first, 0.0, 100.0));
            let mut ums = Ums::new(0.0, DecayPolicy::None);
            ums.refresh(&mut uss, 0.0);
            let pds = Pds::new(flat_policy(&[("c", 0.2), ("d", 0.8)]).unwrap());
            let fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 0.0);
            (pds, ums, uss, fcs)
        });
        let (pds, ums, uss, fcs) = &mut sites[0];
        fcs.refresh(pds, ums, uss.users_mut(), 0.0);
        let keyed = pds.policy().clone();
        let (pds, ums, uss, fcs) = &mut sites[1];
        pds.set_policy(keyed);
        fcs.refresh(pds, ums, uss.users_mut(), 0.0);
        for (_, _, uss, fcs) in &sites {
            for user in ["c", "d"].map(GridUser::new) {
                let id = uss.users().id_of(&user);
                assert_eq!(fcs.id_of(&user), id);
                assert_eq!(fcs.user_of(id.unwrap()), Some(&user));
            }
        }
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
