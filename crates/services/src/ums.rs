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
use aequus_core::arena::{DirtySet, UserId};
use aequus_core::DecayPolicy;
use aequus_telemetry::{Counter, Histogram, Telemetry};

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
    /// Per-user usage weights, one row over the ids of the (first) USS's
    /// user table; see [`usage`](Self::usage).
    cached: Vec<f64>,
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

/// The id `user` of `from`'s table has in `home`'s, interned there by name:
/// a site fronting several USSs keeps its rows under the first one's ids.
fn rehome(home: &mut Uss, from: &Uss, user: UserId) -> UserId {
    home.users_mut().intern(from.users().name(user))
}

impl Ums {
    /// Create a UMS that refreshes its usage tree every `refresh_interval_s`
    /// and ages usage with `decay`.
    pub fn new(refresh_interval_s: f64, decay: DecayPolicy) -> Self {
        Self {
            refresh_interval_s,
            decay,
            cached: Vec::new(),
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
    /// service. Per-user usage is summed across sources, under the ids of
    /// the first one's user table (the others' users are found in it by
    /// name).
    pub fn refresh_many(&mut self, usses: &mut [&mut Uss], now_s: f64) -> bool {
        let Some((home, more)) = usses.split_first_mut() else {
            return false;
        };
        if !self.is_stale(now_s) {
            return false;
        }
        let _span = self.metrics.h_refresh.start_timer();
        let decay = self.decay;
        // The epoch an incremental refresh keeps: none before the first
        // rebuild, once the reference has aged out, or when relative slot
        // weights move with time (non-separable decay).
        let epoch = match (self.epoch_s, decay) {
            _ if !decay.separable() => None,
            (Some(epoch), DecayPolicy::Exponential { half_life_s })
                if now_s - epoch >= REBASE_HALF_LIVES * half_life_s =>
            {
                None
            }
            (epoch, _) => epoch,
        };
        // Incremental: only the users the USSs marked dirty get re-summed.
        let mut touched = home.take_dirty();
        debug_assert!(epoch.is_none() || !touched.is_all(), "USS dirt is per-user");
        for uss in more.iter_mut() {
            for user in uss.take_dirty().users() {
                touched.mark_user(rehome(home, uss, user));
            }
        }
        let mut touched: Vec<UserId> = touched.users().collect();
        if epoch.is_none() {
            // Full rebuild — at a fresh epoch when the decay has one: every
            // weight changes at once, everything is dirty, and every user
            // any of the USSs knows (nobody else) gets an entry.
            touched = home.known_users();
            for uss in more.iter() {
                let known = uss.known_users().into_iter();
                touched.extend(known.map(|user| rehome(home, uss, user)));
            }
            self.cached.clear();
            self.epoch_s = decay.separable().then_some(now_s);
            self.dirty.mark_all();
            self.full_rebuilds += 1;
            self.metrics.full_rebuilds.inc();
            self.metrics.telemetry.event(now_s, "ums.full_rebuild", || {
                if decay.separable() {
                    format!("epoch rebased to {now_s}")
                } else {
                    "non-separable decay: whole cache re-decayed".to_string()
                }
            });
        }
        // A non-separable decay's epoch weight is its plain weight.
        let reference = epoch.unwrap_or(now_s);
        let read =
            |uss: &Uss, user| uss.usage_of(user, |centre| decay.epoch_weight(reference - centre));
        for user in touched {
            // Summed across the USSs; `0.0` where one never met the name.
            let name = home.users().name(user);
            let abroad = more.iter().map(|uss| {
                let id = uss.users().id_of(name);
                id.map_or(0.0, |id| read(uss, id))
            });
            let value: f64 = std::iter::once(read(home, user)).chain(abroad).sum();
            if self.cached.len() <= user.index() {
                self.cached.resize(user.index() + 1, f64::NAN);
            }
            self.cached[user.index()] = value;
            self.dirty.mark_user(user);
        }
        self.last_refresh_s = Some(now_s);
        self.refreshes += 1;
        self.metrics.refreshes.inc();
        true
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
    pub fn export_state(&self) -> (Option<f64>, &[f64]) {
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
    pub fn install_state(&mut self, epoch_s: Option<f64>, cached: Vec<f64>) {
        self.epoch_s = epoch_s;
        self.cached = cached;
        self.dirty.mark_all();
        self.last_refresh_s = None;
    }

    /// The pre-computed per-user usage weights: one row over the
    /// [`UserId`]s of the USS's user table. For separable decays the values
    /// are relative to a fixed reference epoch — uniformly scaled across
    /// users, which is all the (normalizing) fairshare algorithm observes;
    /// otherwise they are absolute decayed totals as of the last refresh.
    ///
    /// A user the USS had never heard of when its weight was last computed
    /// has no entry: the row ends before its id, or holds `NaN` there
    /// (which is what a checkpoint leaves out). Both read as no usage.
    pub fn usage(&self) -> &[f64] {
        &self.cached
    }

    /// Users whose cached usage changed since the last drain (plus a
    /// mark-all after rebuilds), for the FCS's incremental recompute.
    pub fn take_dirty(&mut self) -> DirtySet {
        self.dirty.take()
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
    use aequus_core::GridUser;

    /// The cached weight of a user, by name.
    fn weight(ums: &Ums, uss: &Uss, user: &str) -> f64 {
        let id = uss.users().id_of(&GridUser::new(user)).expect("a met user");
        ums.usage()[id.index()]
    }

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
        assert!((weight(&ums, &uss, "a") - 60.0).abs() < 1e-9);
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
        assert!((weight(&ums, &uss, "a") - 60.0).abs() < 1e-9);
        ums.refresh(&mut uss, 100.0);
        assert!((weight(&ums, &uss, "a") - 70.0).abs() < 1e-9);
    }

    #[test]
    fn multi_uss_aggregation() {
        // A site with two cluster-level USSs: the UMS sums per-user usage
        // under the first one's ids — the second met the names in another
        // order, so its ids for them differ.
        let rec = |user: &str, cores, end_s| UsageRecord {
            job: JobId(1),
            user: GridUser::new(user),
            site: SiteId(0),
            cores,
            start_s: 0.0,
            end_s,
        };
        let mut uss1 = Uss::new(SiteId(0), ParticipationMode::Full, 60.0);
        let mut uss2 = Uss::new(SiteId(0), ParticipationMode::Full, 60.0);
        uss1.ingest(&rec("a", 1, 40.0));
        uss2.ingest(&rec("b", 1, 5.0));
        uss2.ingest(&rec("a", 2, 10.0));
        let mut ums = Ums::new(0.0, DecayPolicy::None);
        assert!(ums.refresh_many(&mut [&mut uss1, &mut uss2], 0.0));
        assert!((weight(&ums, &uss1, "a") - 60.0).abs() < 1e-9);
        assert!((weight(&ums, &uss1, "b") - 5.0).abs() < 1e-9);
        // And incrementally: the second USS's dirty mark finds its user in
        // the first one's table.
        ums.take_dirty();
        uss2.ingest(&rec("b", 1, 7.0));
        assert!(ums.refresh_many(&mut [&mut uss1, &mut uss2], 1.0));
        assert!((weight(&ums, &uss1, "b") - 12.0).abs() < 1e-9);
        let b = uss1.users().id_of(&GridUser::new("b")).unwrap();
        assert_eq!(ums.take_dirty().users().collect::<Vec<_>>(), [b]);
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
        let a_before = weight(&ums, &uss, "a");
        ums.refresh(&mut uss, 10.0);
        let dirty = ums.take_dirty();
        assert!(!dirty.is_all());
        let b = uss.users().id_of(&GridUser::new("b")).unwrap();
        assert_eq!(dirty.users().collect::<Vec<_>>(), [b]);
        // a's cached weight is untouched — time passing does not dirty it.
        assert_eq!(a_before.to_bits(), weight(&ums, &uss, "a").to_bits());
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
        let cached_ratio = weight(&ums, &uss, "a") / weight(&ums, &uss, "b");
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
