//! Usage Monitoring Service (UMS): "gathers usage histograms from one or
//! more USSs and pre-computes usage trees based on the site-specific
//! policies" (§II-A). The UMS refresh interval is one of the cache times in
//! the §IV-A-2 delay chain.
//!
//! ## Incremental usage cache
//!
//! For *separable* decay policies ([`DecayPolicy::separable`]: none and
//! exponential), the UMS caches each user's usage weighted to a fixed
//! reference **epoch** instead of re-decaying the full histogram to `now` on
//! every refresh. Advancing time rescales every user's true decayed usage by
//! the same factor, which cancels in the fairshare tree's sibling-group
//! normalization — so cached values change *only when new usage arrives*,
//! and each refresh recomputes exactly the users the USSs marked dirty.
//! The accumulated [`DirtySet`] is drained by `Fcs::refresh`, which forwards
//! it to the incremental fairshare recompute.
//!
//! Non-separable decays (window, linear) shift the *relative* weights of
//! history slots as time passes, so every refresh re-decays everything and
//! marks the whole set dirty — correct, but never incremental.

use crate::uss::Uss;
use aequus_core::arena::DirtySet;
use aequus_core::{DecayPolicy, GridUser};
use aequus_telemetry::{Counter, Histogram, Telemetry};
use std::collections::BTreeMap;

/// Pre-registered UMS metric handles (no-ops until wired).
#[derive(Debug, Clone, Default)]
struct UmsMetrics {
    telemetry: Telemetry,
    refreshes: Counter,
    full_rebuilds: Counter,
    h_refresh: Histogram,
}

impl UmsMetrics {
    fn wire(t: &Telemetry) -> Self {
        Self {
            telemetry: t.clone(),
            refreshes: t.counter("aequus_ums_refreshes_total"),
            full_rebuilds: t.counter("aequus_ums_full_rebuilds_total"),
            h_refresh: t.histogram("aequus_ums_refresh_s"),
        }
    }
}

/// How many exponential half-lives the reference epoch may lag behind `now`
/// before it is rebased. Epoch weights of fresh usage grow as
/// `2^(lag / half_life)`; rebasing at 64 half-lives keeps them far away from
/// overflow (charges would need to exceed ~1e280) while making rebases —
/// each of which dirties every user once — essentially free in practice.
const REBASE_HALF_LIVES: f64 = 64.0;

/// Per-site usage monitoring service with a periodic refresh cache.
#[derive(Debug, Clone)]
pub struct Ums {
    refresh_interval_s: f64,
    decay: DecayPolicy,
    /// Per-user usage weights. For separable decays these are relative to
    /// [`epoch_s`](Self::epoch_s) (uniformly scaled, not absolute, values);
    /// otherwise they are the decayed usage as of the last refresh.
    cached: BTreeMap<GridUser, f64>,
    /// Reference epoch of the cached weights (separable decays only).
    epoch_s: Option<f64>,
    /// Users whose cached value changed since the last [`take_dirty`](Self::take_dirty).
    dirty: DirtySet,
    last_refresh_s: Option<f64>,
    refreshes: u64,
    full_rebuilds: u64,
    /// Telemetry handles (no-ops until wired).
    metrics: UmsMetrics,
}

impl Ums {
    /// Create a UMS that refreshes its usage tree every `refresh_interval_s`
    /// and ages usage with `decay`.
    pub fn new(refresh_interval_s: f64, decay: DecayPolicy) -> Self {
        Self {
            refresh_interval_s,
            decay,
            cached: BTreeMap::new(),
            epoch_s: None,
            dirty: DirtySet::new(),
            last_refresh_s: None,
            refreshes: 0,
            full_rebuilds: 0,
            metrics: UmsMetrics::default(),
        }
    }

    /// Wire this service into a telemetry registry; pass
    /// [`Telemetry::disabled`] to detach.
    pub fn set_telemetry(&mut self, t: &Telemetry) {
        self.metrics = UmsMetrics::wire(t);
    }

    /// Whether the cache is stale at `now_s`.
    pub fn is_stale(&self, now_s: f64) -> bool {
        match self.last_refresh_s {
            None => true,
            Some(t) => now_s - t >= self.refresh_interval_s,
        }
    }

    /// Refresh the pre-computed per-user usage from the USS if the cache is
    /// stale, draining the USS's dirty-user set. Returns whether a refresh
    /// happened.
    pub fn refresh(&mut self, uss: &mut Uss, now_s: f64) -> bool {
        self.refresh_many(&mut [uss], now_s)
    }

    /// Refresh from several USS instances at once — "the UMS of each site
    /// gathers usage histograms from **one or more USSs**" (§II-A), e.g.
    /// a site fronting multiple clusters, each with its own statistics
    /// service. Per-user usage is summed across sources.
    pub fn refresh_many(&mut self, usses: &mut [&mut Uss], now_s: f64) -> bool {
        if !self.is_stale(now_s) {
            return false;
        }
        let _span = self.metrics.h_refresh.start_timer();
        if self.decay.separable() {
            self.refresh_separable(usses, now_s);
        } else {
            // Non-separable: relative slot weights move with time, so the
            // whole cache is re-decayed and everything is dirty.
            let mut combined: BTreeMap<GridUser, f64> = BTreeMap::new();
            for uss in usses.iter() {
                for (user, value) in uss.decayed_usage(now_s, self.decay) {
                    *combined.entry(user).or_insert(0.0) += value;
                }
            }
            self.cached = combined;
            self.dirty.mark_all();
            self.full_rebuilds += 1;
            self.metrics.full_rebuilds.inc();
            self.metrics.telemetry.event(now_s, "ums.full_rebuild", || {
                "non-separable decay: whole cache re-decayed".to_string()
            });
        }
        self.last_refresh_s = Some(now_s);
        self.refreshes += 1;
        self.metrics.refreshes.inc();
        true
    }

    fn refresh_separable(&mut self, usses: &mut [&mut Uss], now_s: f64) {
        let needs_rebase = match (self.epoch_s, self.decay) {
            (None, _) => true,
            (Some(epoch), DecayPolicy::Exponential { half_life_s }) => {
                now_s - epoch >= REBASE_HALF_LIVES * half_life_s
            }
            _ => false,
        };
        if needs_rebase {
            // Full rebuild at a fresh epoch: every weight changes at once.
            self.epoch_s = Some(now_s);
            let epoch = now_s;
            let mut combined: BTreeMap<GridUser, f64> = BTreeMap::new();
            for uss in usses.iter_mut() {
                uss.take_dirty(); // absorbed by the rebuild
                for user in uss.known_users() {
                    let value = uss.epoch_usage_of(&user, epoch, self.decay);
                    *combined.entry(user).or_insert(0.0) += value;
                }
            }
            self.cached = combined;
            self.dirty.mark_all();
            self.full_rebuilds += 1;
            self.metrics.full_rebuilds.inc();
            self.metrics.telemetry.event(now_s, "ums.full_rebuild", || {
                format!("epoch rebased to {epoch}")
            });
            return;
        }
        let epoch = self.epoch_s.expect("epoch set by rebase");
        // Incremental: only users the USSs marked dirty get re-summed.
        let mut touched: std::collections::BTreeSet<GridUser> = std::collections::BTreeSet::new();
        for uss in usses.iter_mut() {
            let drained = uss.take_dirty();
            debug_assert!(!drained.is_all(), "USS dirty sets are per-user");
            touched.extend(drained.users().cloned());
        }
        for user in touched {
            let value: f64 = usses
                .iter()
                .map(|uss| uss.epoch_usage_of(&user, epoch, self.decay))
                .sum();
            self.cached.insert(user.clone(), value);
            self.dirty.mark_user(user);
        }
    }

    /// Site crash: drop the volatile usage cache. The next refresh is a full
    /// rebuild at a fresh epoch, repopulated from the (durable) USS local
    /// histogram plus whatever remote state catch-up restores. Refresh
    /// counters survive — they are monotone sampled series, and a reset
    /// would read as telemetry going backwards.
    pub fn reset(&mut self) {
        self.cached.clear();
        self.epoch_s = None;
        self.dirty = DirtySet::new();
        self.last_refresh_s = None;
    }

    /// The cache as a durable-store checkpoint records it, in place: the
    /// reference epoch and the per-user weights. Refresh counters are *not*
    /// exported — they are monotone telemetry series, not recoverable state.
    pub fn export_state(&self) -> (Option<f64>, &BTreeMap<GridUser, f64>) {
        (self.epoch_s, &self.cached)
    }

    /// Install a checkpointed cache during store recovery. The whole cache
    /// is marked dirty (the FCS tree was reset by the crash and rebuilds
    /// fully anyway) and the staleness clock is cleared so the next tick
    /// refreshes immediately.
    ///
    /// Callers must only install an epoch when the feeding USS dirty set is
    /// per-user (checkpoint `dirty_users: Some(..)`): an installed epoch
    /// routes the next refresh down the incremental path, which requires
    /// per-user dirt. With an all-dirty USS, skip the install and let the
    /// first refresh rebase from scratch instead.
    pub fn install_state(&mut self, epoch_s: Option<f64>, cached: BTreeMap<GridUser, f64>) {
        self.epoch_s = epoch_s;
        self.cached = cached;
        self.dirty.mark_all();
        self.last_refresh_s = None;
    }

    /// The pre-computed per-user usage weights. For separable decays these
    /// are relative to a fixed reference epoch — uniformly scaled across
    /// users, which is all the (normalizing) fairshare algorithm observes;
    /// otherwise they are absolute decayed totals as of the last refresh.
    pub fn usage(&self) -> &BTreeMap<GridUser, f64> {
        &self.cached
    }

    /// Users whose cached usage changed since the last drain (plus a
    /// mark-all after rebuilds), for the FCS's incremental recompute.
    pub fn take_dirty(&mut self) -> DirtySet {
        self.dirty.take()
    }

    /// The pending dirty set (inspection).
    pub fn dirty(&self) -> &DirtySet {
        &self.dirty
    }

    /// Number of refreshes performed (incremental or full).
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Number of refreshes that re-decayed the whole cache (first refresh,
    /// epoch rebases, and every refresh under non-separable decay).
    pub fn full_rebuilds(&self) -> u64 {
        self.full_rebuilds
    }

    /// The reference epoch of the cached weights, when separable decay is
    /// active and at least one refresh has run.
    pub fn epoch(&self) -> Option<f64> {
        self.epoch_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participation::ParticipationMode;
    use aequus_core::ids::{JobId, SiteId};
    use aequus_core::usage::UsageRecord;

    fn uss_with_usage() -> Uss {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 60.0);
        uss.ingest(&UsageRecord {
            job: JobId(1),
            user: GridUser::new("a"),
            site: SiteId(0),
            cores: 2,
            start_s: 0.0,
            end_s: 30.0,
        });
        uss
    }

    #[test]
    fn caches_until_interval_elapses() {
        let mut uss = uss_with_usage();
        let mut ums = Ums::new(30.0, DecayPolicy::None);
        assert!(ums.refresh(&mut uss, 0.0));
        assert!(!ums.refresh(&mut uss, 10.0), "within cache time");
        assert!(!ums.refresh(&mut uss, 29.9));
        assert!(ums.refresh(&mut uss, 30.0), "cache expired");
        assert_eq!(ums.refreshes(), 2);
        assert_eq!(ums.full_rebuilds(), 1, "only the first refresh rebuilds");
    }

    #[test]
    fn usage_visible_after_refresh() {
        let mut uss = uss_with_usage();
        let mut ums = Ums::new(30.0, DecayPolicy::None);
        assert!(ums.usage().is_empty());
        ums.refresh(&mut uss, 0.0);
        assert!((ums.usage()[&GridUser::new("a")] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn stale_cache_serves_old_data() {
        // The cache-time delay of §IV-A-2: new usage is invisible until the
        // next refresh tick.
        let mut uss = uss_with_usage();
        let mut ums = Ums::new(100.0, DecayPolicy::None);
        ums.refresh(&mut uss, 0.0);
        uss.ingest(&UsageRecord {
            job: JobId(2),
            user: GridUser::new("a"),
            site: SiteId(0),
            cores: 1,
            start_s: 10.0,
            end_s: 20.0,
        });
        ums.refresh(&mut uss, 50.0); // no-op: cache still valid
        assert!((ums.usage()[&GridUser::new("a")] - 60.0).abs() < 1e-9);
        ums.refresh(&mut uss, 100.0);
        assert!((ums.usage()[&GridUser::new("a")] - 70.0).abs() < 1e-9);
    }

    #[test]
    fn multi_uss_aggregation() {
        // A site with two cluster-level USSs: the UMS sums per-user usage.
        let mut uss1 = Uss::new(SiteId(0), ParticipationMode::Full, 60.0);
        let mut uss2 = Uss::new(SiteId(0), ParticipationMode::Full, 60.0);
        uss1.ingest(&UsageRecord {
            job: JobId(1),
            user: GridUser::new("a"),
            site: SiteId(0),
            cores: 1,
            start_s: 0.0,
            end_s: 40.0,
        });
        uss2.ingest(&UsageRecord {
            job: JobId(2),
            user: GridUser::new("a"),
            site: SiteId(0),
            cores: 2,
            start_s: 0.0,
            end_s: 10.0,
        });
        let mut ums = Ums::new(30.0, DecayPolicy::None);
        assert!(ums.refresh_many(&mut [&mut uss1, &mut uss2], 0.0));
        assert!((ums.usage()[&GridUser::new("a")] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_refresh_marks_only_changed_users() {
        let mut uss = uss_with_usage(); // user a
        uss.ingest(&UsageRecord {
            job: JobId(3),
            user: GridUser::new("b"),
            site: SiteId(0),
            cores: 1,
            start_s: 0.0,
            end_s: 10.0,
        });
        let mut ums = Ums::new(10.0, DecayPolicy::default());
        ums.refresh(&mut uss, 0.0);
        assert!(ums.take_dirty().is_all(), "first refresh rebuilds");
        // Only b gets new usage: the next refresh touches exactly b.
        uss.ingest(&UsageRecord {
            job: JobId(4),
            user: GridUser::new("b"),
            site: SiteId(0),
            cores: 1,
            start_s: 10.0,
            end_s: 30.0,
        });
        let a_before = ums.usage()[&GridUser::new("a")];
        ums.refresh(&mut uss, 10.0);
        let dirty = ums.take_dirty();
        assert!(!dirty.is_all());
        assert_eq!(
            dirty.users().cloned().collect::<Vec<_>>(),
            vec![GridUser::new("b")]
        );
        // a's cached weight is untouched — time passing does not dirty it.
        assert_eq!(
            a_before.to_bits(),
            ums.usage()[&GridUser::new("a")].to_bits()
        );
        assert_eq!(ums.full_rebuilds(), 1);
    }

    #[test]
    fn epoch_weights_preserve_usage_ratios() {
        // Exponential decay with an epoch cache: ratios between users match
        // the truly-decayed ratios (the uniform factor cancels).
        let decay = DecayPolicy::Exponential { half_life_s: 100.0 };
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 10.0);
        for (user, start, end) in [("a", 0.0, 10.0), ("b", 200.0, 210.0)] {
            uss.ingest(&UsageRecord {
                job: JobId(0),
                user: GridUser::new(user),
                site: SiteId(0),
                cores: 1,
                start_s: start,
                end_s: end,
            });
        }
        let mut ums = Ums::new(0.0, decay);
        ums.refresh(&mut uss, 300.0);
        let cached_ratio = ums.usage()[&GridUser::new("a")] / ums.usage()[&GridUser::new("b")];
        let true_ratio = uss.decayed_usage(300.0, decay)[&GridUser::new("a")]
            / uss.decayed_usage(300.0, decay)[&GridUser::new("b")];
        assert!((cached_ratio - true_ratio).abs() < 1e-12);
    }

    #[test]
    fn epoch_rebases_after_many_half_lives() {
        let decay = DecayPolicy::Exponential { half_life_s: 1.0 };
        let mut uss = uss_with_usage();
        let mut ums = Ums::new(0.0, decay);
        ums.refresh(&mut uss, 0.0);
        assert_eq!(ums.epoch(), Some(0.0));
        ums.refresh(&mut uss, 10.0);
        assert_eq!(ums.epoch(), Some(0.0), "within rebase horizon");
        ums.refresh(&mut uss, 100.0); // 100 half-lives: rebase
        assert_eq!(ums.epoch(), Some(100.0));
        assert!(ums.take_dirty().is_all(), "rebase dirties everything");
        assert_eq!(ums.full_rebuilds(), 2);
    }

    #[test]
    fn non_separable_decay_marks_all_every_refresh() {
        let mut uss = uss_with_usage();
        let mut ums = Ums::new(0.0, DecayPolicy::Window { window_s: 1000.0 });
        ums.refresh(&mut uss, 0.0);
        assert!(ums.take_dirty().is_all());
        ums.refresh(&mut uss, 10.0);
        assert!(ums.take_dirty().is_all());
        assert_eq!(ums.full_rebuilds(), 2);
        assert!(ums.epoch().is_none());
    }
}
