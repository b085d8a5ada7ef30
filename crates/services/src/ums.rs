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
//! A refresh reads a dirty user's cells from the lowest slot that changed
//! (the USS's mark), not their whole history: a weight is one slot-order
//! fold, so the UMS keeps its prefixes at a mark with `RESUME_MIN_CELLS`
//! cells below, and a later read resumes there if its mark is not lower.
//!
//! Non-separable decays (window, linear) shift the *relative* weights of
//! history slots as time passes, so every refresh re-decays everything and
//! marks the whole set dirty — correct, but never incremental.

use crate::uss::Uss;
use aequus_core::arena::{DirtySet, UserId};
use aequus_core::usage::Prefix;
use aequus_core::DecayPolicy;
use aequus_telemetry::{Histogram, Snapshot, Telemetry};
use std::collections::BTreeMap;

/// How many exponential half-lives the reference epoch may lag behind `now`
/// before it is rebased. Epoch weights of fresh usage grow as
/// `2^(lag / half_life)`; rebasing at 64 half-lives keeps them far away from
/// overflow (charges would need to exceed ~1e280) while making rebases —
/// each of which dirties every user once — essentially free in practice.
const REBASE_HALF_LIVES: f64 = 64.0;

/// Fewer cells below a mark than this refold for less than an entry costs.
const RESUME_MIN_CELLS: usize = 8;

/// Per-site usage monitoring service with a periodic refresh cache.
#[derive(Debug, Clone)]
pub struct Ums {
    refresh_interval_s: f64,
    decay: DecayPolicy,
    /// Per-user usage weights, one row over the ids of the USS's user
    /// table; see [`usage`](Self::usage).
    cached: Vec<f64>,
    /// Per user, the prefixes their last read left at its mark (cleared with `cached`).
    resume: BTreeMap<UserId, [Prefix; 2]>,
    resumed_reads: u64,
    /// Reference epoch of the cached weights (separable decays only).
    epoch_s: Option<f64>,
    /// Users whose cached value changed since the last [`take_dirty`](Self::take_dirty).
    dirty: DirtySet,
    last_refresh_s: Option<f64>,
    refreshes: u64,
    full_rebuilds: u64,
    /// Wall seconds per refresh (a no-op until wired).
    h_refresh: Histogram,
}

impl Ums {
    /// Create a UMS that refreshes its usage tree every `refresh_interval_s`
    /// and ages usage with `decay`.
    pub fn new(refresh_interval_s: f64, decay: DecayPolicy) -> Self {
        Self {
            refresh_interval_s,
            decay,
            cached: Vec::new(),
            resume: BTreeMap::new(),
            resumed_reads: 0,
            epoch_s: None,
            dirty: DirtySet::new(),
            last_refresh_s: None,
            refreshes: 0,
            full_rebuilds: 0,
            h_refresh: Histogram::default(),
        }
    }

    /// Wire this service into a telemetry registry; pass
    /// [`Telemetry::disabled`] to detach.
    pub fn set_telemetry(&mut self, t: &Telemetry) {
        self.h_refresh = t.histogram("aequus_ums_refresh_s");
    }

    /// Whether the cache is stale at `now_s`.
    fn is_stale(&self, now_s: f64) -> bool {
        match self.last_refresh_s {
            None => true,
            Some(t) => now_s - t >= self.refresh_interval_s,
        }
    }

    /// Refresh the pre-computed per-user usage from the USS if the cache is
    /// stale, draining the USS's dirty-user set. Returns whether a refresh
    /// happened.
    pub fn refresh(&mut self, uss: &mut Uss, now_s: f64) -> bool {
        if !self.is_stale(now_s) {
            return false;
        }
        let _span = self.h_refresh.start_timer();
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
        // Incremental: only the users the USS marked dirty get re-summed.
        let mut marks = uss.take_dirty();
        if epoch.is_none() {
            // Full rebuild — at a fresh epoch when the decay has one: every
            // weight changes at once, everything is dirty, and every user
            // the USS knows (nobody else) gets an entry.
            let known = uss.known_users().into_iter();
            marks = known.map(|user| (user, 0)).collect();
            self.cached.clear();
            self.resume.clear();
            self.epoch_s = decay.separable().then_some(now_s);
            self.dirty.mark_all();
            self.full_rebuilds += 1;
        }
        // A non-separable decay's epoch weight is its plain weight.
        let reference = epoch.unwrap_or(now_s);
        let weigh = |centre| decay.epoch_weight(reference - centre);
        for (user, mark) in marks {
            let kept = self.resume.get(&user).copied();
            let kept = kept.filter(|[at, _]| at.slot <= mark);
            let (value, below, passed) = uss.usage_of(user, weigh, kept.unwrap_or_default(), mark);
            // A resumed read keeps its entry: an earlier read passed the rest.
            match kept.is_some() || passed >= RESUME_MIN_CELLS {
                true => self.resume.insert(user, below),
                false => self.resume.remove(&user),
            };
            self.resumed_reads += u64::from(kept.is_some());
            if self.cached.len() <= user.index() {
                self.cached.resize(user.index() + 1, f64::NAN);
            }
            self.cached[user.index()] = value;
            self.dirty.mark_user(user);
        }
        self.last_refresh_s = Some(now_s);
        self.refreshes += 1;
        true
    }

    /// Site crash: drop the usage cache — it is derived, and never durable.
    /// The next refresh is a full rebuild at a fresh epoch over whatever the
    /// USS holds by then: the surviving (or checkpoint- and WAL-restored)
    /// local histogram plus the remote state recovery and catch-up restore.
    /// Refresh counters survive — they are monotone sampled series, and a
    /// reset would read as telemetry going backwards.
    pub fn reset(&mut self) {
        self.cached.clear();
        self.resume.clear();
        self.epoch_s = None;
        self.dirty = DirtySet::new();
        self.last_refresh_s = None;
    }

    /// The pre-computed per-user usage weights: one row over the
    /// [`UserId`]s of the USS's user table. For separable decays the values
    /// are relative to a fixed reference epoch — uniformly scaled across
    /// users, which is all the (normalizing) fairshare algorithm observes;
    /// otherwise they are absolute decayed totals as of the last refresh.
    ///
    /// A user the USS had never heard of when its weight was last computed
    /// has no entry: the row ends before its id, or holds `NaN` there (a
    /// gap below a later user's id). Both read as no usage.
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

    /// Write the refresh counts into `snap`.
    pub fn counts_into(&self, snap: &mut Snapshot) {
        snap.add_counts([
            ("aequus_ums_refreshes_total", self.refreshes),
            ("aequus_ums_full_rebuilds_total", self.full_rebuilds),
        ]);
    }

    /// Number of user reads that resumed from kept prefixes, not slot 0.
    pub fn resumed_reads(&self) -> u64 {
        self.resumed_reads
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
    fn a_long_history_resumes_at_its_mark_and_a_refused_read_drops_it() {
        let decay = DecayPolicy::Exponential { half_life_s: 600.0 };
        let job = |start_s: f64, end_s: f64| UsageRecord {
            job: JobId(0),
            user: GridUser::new("a"),
            site: SiteId(0),
            cores: 3,
            start_s,
            end_s,
        };
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 60.0);
        let mut ums = Ums::new(0.0, decay);
        let a = uss.users_mut().intern(&GridUser::new("a"));
        // Each step: ingest, refresh, and the weight a fresh UMS computes.
        let step = |uss: &mut Uss, ums: &mut Ums, rec: UsageRecord, now_s: f64| {
            uss.ingest(&rec);
            ums.refresh(uss, now_s);
            let mut fresh = Ums::new(0.0, decay);
            fresh.refresh(uss, ums.epoch().expect("separable"));
            assert_eq!(
                ums.usage()[a.index()].to_bits(),
                fresh.usage()[a.index()].to_bits()
            );
            (
                ums.resumed_reads(),
                ums.resume.get(&a).map(|[local, _]| local.slot),
            )
        };
        assert_eq!(step(&mut uss, &mut ums, job(0.0, 700.0), 700.0), (0, None));
        // 12 cells below slot 20: kept there.
        assert_eq!(
            step(&mut uss, &mut ums, job(1200.0, 1250.0), 1300.0),
            (0, Some(20))
        );
        assert_eq!(
            step(&mut uss, &mut ums, job(1500.0, 1550.0), 1600.0),
            (1, Some(25))
        );
        // From slot 5, under 8 cells below it: read from slot 0, and the
        // kept sums — stale below 25 now — go.
        assert_eq!(
            step(&mut uss, &mut ums, job(300.0, 1700.0), 1800.0),
            (1, None)
        );
        assert_eq!(
            step(&mut uss, &mut ums, job(1900.0, 1950.0), 2000.0),
            (1, Some(31))
        );
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
