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
//! [`FairshareTree::recompute_dirty`], which re-sums only the dirty
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
//! re-ranked whole by every refresh that had anything dirty. The tree
//! speaks the ids of the policy's layout; when the table is built over that
//! layout's user base (every site built from the policy it enforces) the
//! two are the same numbers and nothing is translated.

use crate::pds::Pds;
use crate::ums::Ums;
use aequus_core::arena::{DirtySet, RecomputeStats, UserId, UserTable};
use aequus_core::fairshare::{FairshareConfig, FairshareTree};
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
    /// Site id ↔ layout id, resolved once per rebuilt tree; `None` when the
    /// site's table is built over the layout's own user base: layout id
    /// *is* site id.
    translation: Option<Translation>,
    /// The `project` row of a projection without a per-leaf read
    /// (Dictionary), by layout [`UserId`]; empty under the others.
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

/// The two id spaces of a site whose table is not built over its policy's
/// base (a replaced policy, a service driven alone), each row the other's
/// inverse.
struct Translation {
    /// The site's id of each layout user, by layout id.
    site_of: Vec<UserId>,
    /// The layout id of each site user the tree holds, by site id.
    layout_of: Vec<Option<UserId>>,
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
            translation: None,
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

    /// Bring the fairshare tree up to date if stale, draining the PDS and
    /// UMS dirty sets; `users` is the site's table, whose ids the UMS row,
    /// the dirty sets and the served factors are keyed by. Returns whether a
    /// refresh happened.
    ///
    /// Cost of an incremental refresh: `O(dirty·depth + Σ touched group
    /// widths)` adds — each dirty user's path is walked once and each
    /// sibling group on it re-summed in one pass; nothing is derived or
    /// projected per sibling (a read is `O(depth)` flops, paid by the
    /// reader). A full rebuild is `O(nodes)` adds over the UMS row.
    /// Dictionary also re-ranks all users (a sort) on either, if anything
    /// was dirty. Neither looks a user up by name, clones one or touches a
    /// map — except that a rebuild at a site whose table is not built over
    /// the policy's user base pays `O(users·log users)` name lookups to
    /// translate, once.
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
            let dirty = self.marked_by_layout_id(&dirty);
            incremental = tree.recompute_dirty(policy, &usage, &dirty, now_s);
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
                self.translation = (!Arc::ptr_eq(layout.users(), users.base())).then(|| {
                    let site_of: Vec<UserId> =
                        layout.users().iter().map(|u| users.intern(u)).collect();
                    let mut layout_of = vec![None; users.len()];
                    for (user, site) in site_of.iter().enumerate() {
                        layout_of[site.index()] = Some(UserId(user as u32));
                    }
                    Translation { site_of, layout_of }
                });
                let usage = self.by_layout_id(ums.usage());
                let tree = FairshareTree::compute_row(policy, &usage, &self.config, now_s);
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
        self.metrics.refreshes.inc();
        true
    }

    /// The site's id of a user of the tree's layout.
    fn site_id(&self, user: UserId) -> UserId {
        (self.translation.as_ref()).map_or(user, |ids| ids.site_of[user.index()])
    }

    /// The tree's id of a site user, if its layout holds them.
    fn layout_id(&self, id: UserId) -> Option<UserId> {
        match &self.translation {
            None => Some(id),
            Some(ids) => *ids.layout_of.get(id.index())?,
        }
    }

    /// The UMS row as the tree reads it: borrowed as it is when layout ids
    /// are site ids, else gathered under the layout's ids.
    fn by_layout_id<'a>(&self, usage: &'a [f64]) -> Cow<'a, [f64]> {
        let held = |id: &UserId| usage.get(id.index()).copied().unwrap_or(f64::NAN);
        match &self.translation {
            None => Cow::Borrowed(usage),
            Some(ids) => ids.site_of.iter().map(held).collect(),
        }
    }

    /// A dirty set as the tree reads it: borrowed as it is when layout ids
    /// are site ids, else its users re-marked under the layout's ids.
    fn marked_by_layout_id<'a>(&self, dirty: &'a DirtySet) -> Cow<'a, DirtySet> {
        if self.translation.is_none() {
            return Cow::Borrowed(dirty);
        }
        let mut marked = DirtySet::new();
        dirty
            .paths()
            .for_each(|path| marked.mark_path(path.clone()));
        let ranked = dirty.users().filter_map(|id| self.layout_id(id));
        ranked.for_each(|user| marked.mark_user(user));
        Cow::Owned(marked)
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
        let user = self.tree.as_ref()?.layout().user_id(user)?;
        Some(self.site_id(user))
    }

    /// The policy user a site id names, while a tree holds it (trace notes).
    pub fn user_of(&self, id: UserId) -> Option<&GridUser> {
        let users = self.tree.as_ref()?.layout().users();
        users.get(self.layout_id(id)?.index())
    }

    /// Query the fairshare factor of an interned user: everything that
    /// needs the population was pre-calculated by the last refresh ("pre-
    /// calculated values already exist and can be assigned to the job based
    /// on the associated user identity"), what is left is the user's own
    /// path — `O(depth)` flops, or an index load of the stored rank row.
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
        self.read(self.tree.as_ref()?, self.layout_id(id)?)
    }

    /// The factor of a user of `tree`'s layout: read off the user's own
    /// path, or — a projection without a per-leaf read — off the stored row.
    fn read(&self, tree: &FairshareTree, user: UserId) -> Option<f64> {
        let on_path = self.projection.project_leaf(tree, tree.leaf_of(user)?);
        on_path.or_else(|| user.read(&self.ranked))
    }

    /// How many users the tree serves a factor for.
    pub fn factor_count(&self) -> usize {
        (self.tree.as_ref()).map_or(0, |tree| tree.layout().users().len())
    }

    /// The factors of all users as a report, names written back from the
    /// policy layout — `O(users·(depth + log users))`; not for hot paths.
    pub fn factors(&self) -> BTreeMap<GridUser, f64> {
        let Some(tree) = &self.tree else {
            return BTreeMap::new();
        };
        let factor = |(user, name): (usize, &GridUser)| {
            Some((name.clone(), self.read(tree, UserId(user as u32))?))
        };
        let users = tree.layout().users().iter().enumerate();
        users.filter_map(factor).collect()
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
