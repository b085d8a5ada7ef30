//! The `libaequus` unified system library (§III-A): the integration seam
//! linked into local resource-management systems. It wraps the Aequus
//! service clients behind three calls — fetch fairshare values, resolve
//! identity mappings, store usage records — and caches resolved values "for
//! a configurable amount of time, which considerably reduces the amount of
//! network traffic and computations required when batches of jobs are
//! submitted and processed at the same time".

use crate::fcs::Fcs;
use crate::irs::Irs;
use aequus_core::{GridUser, SystemUser, UserId};
use aequus_telemetry::Snapshot;
use std::collections::BTreeMap;

/// Per-cache statistics, for the throughput evaluation. The fairshare-value
/// and identity-resolution caches each keep their own instance — their
/// workloads differ (every dispatch pass vs. job submission), so blending
/// them would hide a cold identity cache behind a hot fairshare cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the client-side cache.
    pub hits: u64,
    /// Queries that had to call out to the service.
    pub misses: u64,
    /// Cached entries discarded: TTL-stale entries replaced on re-fetch,
    /// plus everything dropped by [`LibAequus::flush`].
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`, or `None` when no queries were made — a cache
    /// that was never consulted has no ratio, and reporting `0.0` would
    /// read as "every query missed".
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

/// Client-side library state: TTL caches over the FCS and IRS services.
#[derive(Debug)]
pub struct LibAequus {
    fairshare_ttl_s: f64,
    identity_ttl_s: f64,
    /// Fairshare cache indexed by [`UserId`]: a vector lookup on the
    /// scheduler hot path. Slots are `(value, fetched_at)`.
    fairshare_cache: Vec<Option<(f64, f64)>>,
    identity_cache: BTreeMap<SystemUser, (Option<GridUser>, f64)>,
    /// Degraded mode (backing services crashed or unreachable): cached
    /// values are served past their TTL instead of querying out. This is the
    /// client library's graceful-degradation half of the stale-data policy —
    /// the library lives inside the RMS process and keeps answering from
    /// whatever it has.
    degraded: bool,
    /// Fairshare query cache statistics.
    pub fairshare_stats: CacheStats,
    /// Identity resolution cache statistics.
    pub identity_stats: CacheStats,
}

impl LibAequus {
    /// Create a library instance with the given cache TTLs (seconds).
    pub fn new(fairshare_ttl_s: f64, identity_ttl_s: f64) -> Self {
        Self {
            fairshare_ttl_s,
            identity_ttl_s,
            fairshare_cache: Vec::new(),
            identity_cache: BTreeMap::new(),
            degraded: false,
            fairshare_stats: CacheStats::default(),
            identity_stats: CacheStats::default(),
        }
    }

    /// Write both caches' statistics into `snap`.
    pub fn counts_into(&self, snap: &mut Snapshot) {
        let (fs, id) = (self.fairshare_stats, self.identity_stats);
        snap.add_counts([
            ("aequus_lib_fairshare_hits_total", fs.hits),
            ("aequus_lib_fairshare_misses_total", fs.misses),
            ("aequus_lib_fairshare_evictions_total", fs.evictions),
            ("aequus_lib_identity_hits_total", id.hits),
            ("aequus_lib_identity_misses_total", id.misses),
            ("aequus_lib_identity_evictions_total", id.evictions),
        ]);
    }

    /// Enter or leave degraded mode. While degraded, fairshare and identity
    /// queries serve cached entries regardless of TTL (stale answers beat no
    /// answers during a site crash); cold misses still fall through to the
    /// (possibly reset) services.
    pub fn set_degraded(&mut self, degraded: bool) {
        self.degraded = degraded;
    }

    /// Whether degraded (serve-past-TTL) mode is active.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Fetch the global fairshare factor of the user interned as `id` (in
    /// the site's user table), serving from the cache when fresh. Users
    /// unknown to the policy get the neutral factor 0.5 (the balance point)
    /// so other priority factors still apply.
    pub fn get_fairshare(&mut self, fcs: &Fcs, id: UserId, now_s: f64) -> f64 {
        if let Some(&Some((value, at))) = self.fairshare_cache.get(id.index()) {
            if self.degraded || now_s - at < self.fairshare_ttl_s {
                self.fairshare_stats.hits += 1;
                return value;
            }
        }
        self.fairshare_stats.misses += 1;
        let value = fcs.query(id).unwrap_or(0.5);
        if self.fairshare_cache.len() <= id.index() {
            self.fairshare_cache.resize(id.index() + 1, None);
        }
        if self.fairshare_cache[id.index()]
            .replace((value, now_s))
            .is_some()
        {
            // The replaced entry was TTL-stale (a fresh one would have hit).
            self.fairshare_stats.evictions += 1;
        }
        value
    }

    /// When the cached fairshare value of `id` was fetched from the FCS —
    /// after [`get_fairshare`](Self::get_fairshare), the fetch the value it
    /// served came from.
    pub fn fetched_at(&self, id: UserId) -> Option<f64> {
        let entry = self.fairshare_cache.get(id.index()).copied().flatten();
        entry.map(|(_, at)| at)
    }

    /// Resolve a system account to its grid identity via the IRS, with
    /// client-side caching (negative results are cached too).
    pub fn resolve_identity(
        &mut self,
        irs: &mut Irs,
        system: &SystemUser,
        now_s: f64,
    ) -> Option<GridUser> {
        if let Some((cached, at)) = self.identity_cache.get(system) {
            if self.degraded || now_s - at < self.identity_ttl_s {
                self.identity_stats.hits += 1;
                return cached.clone();
            }
        }
        self.identity_stats.misses += 1;
        let resolved = irs.resolve(system);
        if self
            .identity_cache
            .insert(system.clone(), (resolved.clone(), now_s))
            .is_some()
        {
            self.identity_stats.evictions += 1;
        }
        resolved
    }

    /// Drop all cached entries (e.g. on reconfiguration). Every dropped
    /// entry counts as an eviction of its cache.
    pub fn flush(&mut self) {
        let fs_dropped = self.fairshare_cache_len() as u64;
        let id_dropped = self.identity_cache.len() as u64;
        self.fairshare_stats.evictions += fs_dropped;
        self.identity_stats.evictions += id_dropped;
        self.fairshare_cache.clear();
        self.identity_cache.clear();
    }

    /// Number of live fairshare cache entries.
    fn fairshare_cache_len(&self) -> usize {
        self.fairshare_cache.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participation::ParticipationMode;
    use crate::pds::Pds;
    use crate::ums::Ums;
    use crate::uss::Uss;
    use aequus_core::fairshare::FairshareConfig;
    use aequus_core::ids::{JobId, SiteId};
    use aequus_core::policy::flat_policy;
    use aequus_core::projection::ProjectionKind;
    use aequus_core::usage::UsageRecord;
    use aequus_core::DecayPolicy;

    fn fcs_fixture() -> Fcs {
        let mut pds = Pds::new(flat_policy(&[("a", 0.5), ("b", 0.5)]).unwrap());
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 60.0);
        uss.ingest(&UsageRecord {
            job: JobId(1),
            user: GridUser::new("a"),
            site: SiteId(0),
            cores: 1,
            start_s: 0.0,
            end_s: 50.0,
        });
        let mut ums = Ums::new(0.0, DecayPolicy::None);
        ums.refresh(&mut uss, 0.0);
        let mut fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 30.0);
        fcs.refresh(&mut pds, &mut ums, uss.users_mut(), 0.0);
        fcs
    }

    /// The id a site's table would hand a user outside the fixture's policy
    /// ("a" and "b" hold 0 and 1).
    const GHOST: UserId = UserId(2);

    fn id(fcs: &Fcs, user: &str) -> UserId {
        fcs.id_of(&GridUser::new(user)).expect("policy user")
    }

    #[test]
    fn cache_hit_within_ttl() {
        let fcs = fcs_fixture();
        let mut lib = LibAequus::new(10.0, 60.0);
        let v1 = lib.get_fairshare(&fcs, id(&fcs, "b"), 0.0);
        let v2 = lib.get_fairshare(&fcs, id(&fcs, "b"), 5.0);
        assert_eq!(v1, v2);
        assert_eq!(lib.fairshare_stats.hits, 1);
        assert_eq!(lib.fairshare_stats.misses, 1);
        // TTL expiry forces a re-fetch.
        lib.get_fairshare(&fcs, id(&fcs, "b"), 10.0);
        assert_eq!(lib.fairshare_stats.misses, 2);
    }

    #[test]
    fn batch_submission_mostly_hits_cache() {
        // The paper's rationale: batches of jobs from the same user resolve
        // against one cached value.
        let fcs = fcs_fixture();
        let mut lib = LibAequus::new(15.0, 60.0);
        for i in 0..100 {
            lib.get_fairshare(&fcs, id(&fcs, "a"), i as f64 * 0.1);
        }
        assert_eq!(lib.fairshare_stats.misses, 1);
        assert_eq!(lib.fairshare_stats.hits, 99);
        assert!(lib.fairshare_stats.hit_ratio().unwrap() > 0.98);
    }

    #[test]
    fn hit_ratio_is_none_before_any_query() {
        let lib = LibAequus::new(10.0, 60.0);
        assert_eq!(lib.fairshare_stats.hit_ratio(), None);
        assert_eq!(lib.identity_stats.hit_ratio(), None);
        let all_misses = CacheStats {
            hits: 0,
            misses: 4,
            evictions: 0,
        };
        assert_eq!(all_misses.hit_ratio(), Some(0.0), "a real 0.0 still shows");
    }

    #[test]
    fn stale_replacement_and_flush_count_as_evictions() {
        let fcs = fcs_fixture();
        let mut lib = LibAequus::new(10.0, 60.0);
        lib.get_fairshare(&fcs, id(&fcs, "a"), 0.0);
        assert_eq!(lib.fairshare_stats.evictions, 0);
        // TTL expired: the re-fetch replaces (evicts) the stale entry.
        lib.get_fairshare(&fcs, id(&fcs, "a"), 20.0);
        assert_eq!(lib.fairshare_stats.evictions, 1);
        lib.get_fairshare(&fcs, id(&fcs, "a"), 40.0);
        assert_eq!(lib.fairshare_stats.evictions, 2);
        // Flush evicts every live entry.
        lib.get_fairshare(&fcs, id(&fcs, "b"), 40.0);
        assert_eq!(lib.fairshare_cache_len(), 2);
        lib.flush();
        assert_eq!(lib.fairshare_stats.evictions, 4);
        // Identity evictions are tracked independently.
        assert_eq!(lib.identity_stats.evictions, 0);
        let mut irs = Irs::new();
        irs.store_mapping(SystemUser::new("s"), GridUser::new("g"));
        lib.resolve_identity(&mut irs, &SystemUser::new("s"), 0.0);
        lib.resolve_identity(&mut irs, &SystemUser::new("s"), 100.0);
        assert_eq!(lib.identity_stats.evictions, 1);
        assert_eq!(lib.fairshare_stats.evictions, 4, "fairshare side untouched");
    }

    #[test]
    fn a_snapshot_reports_both_caches_independently() {
        let fcs = fcs_fixture();
        let mut lib = LibAequus::new(10.0, 60.0);
        lib.get_fairshare(&fcs, id(&fcs, "a"), 0.0);
        lib.get_fairshare(&fcs, id(&fcs, "a"), 1.0);
        let mut irs = Irs::new();
        lib.resolve_identity(&mut irs, &SystemUser::new("x"), 0.0);
        let mut snap = Snapshot::default();
        lib.counts_into(&mut snap);
        assert_eq!(snap.counters["aequus_lib_fairshare_hits_total"], 1);
        assert_eq!(snap.counters["aequus_lib_fairshare_misses_total"], 1);
        assert_eq!(snap.counters["aequus_lib_identity_misses_total"], 1);
        assert_eq!(snap.counters["aequus_lib_identity_hits_total"], 0);
        assert_eq!(snap.counters["aequus_lib_fairshare_evictions_total"], 0);
    }

    #[test]
    fn degraded_mode_serves_expired_entries() {
        let fcs = fcs_fixture();
        let mut lib = LibAequus::new(10.0, 60.0);
        let v = lib.get_fairshare(&fcs, id(&fcs, "a"), 0.0);
        // Far past the TTL, a healthy library re-fetches — a degraded one
        // keeps serving the stale value without touching the FCS.
        lib.set_degraded(true);
        assert_eq!(lib.get_fairshare(&fcs, id(&fcs, "a"), 1e6), v);
        assert_eq!(lib.fairshare_stats.hits, 1, "served from stale cache");
        // Leaving degraded mode restores normal TTL behavior.
        lib.set_degraded(false);
        lib.get_fairshare(&fcs, id(&fcs, "a"), 1e6);
        assert_eq!(lib.fairshare_stats.misses, 2);
    }

    #[test]
    fn unknown_user_gets_neutral_factor() {
        // Interned (a job was submitted under it) but absent from the policy.
        let fcs = fcs_fixture();
        let mut lib = LibAequus::new(10.0, 60.0);
        assert_eq!(lib.get_fairshare(&fcs, GHOST, 0.0), 0.5);
    }

    #[test]
    fn identity_cached_including_negatives() {
        let mut irs = Irs::new();
        irs.store_mapping(SystemUser::new("grid1"), GridUser::new("CN=a"));
        let mut lib = LibAequus::new(10.0, 100.0);
        assert!(lib
            .resolve_identity(&mut irs, &SystemUser::new("grid1"), 0.0)
            .is_some());
        assert!(lib
            .resolve_identity(&mut irs, &SystemUser::new("nope"), 0.0)
            .is_none());
        // Both answers cached: IRS sees exactly 2 lookups total.
        lib.resolve_identity(&mut irs, &SystemUser::new("grid1"), 1.0);
        lib.resolve_identity(&mut irs, &SystemUser::new("nope"), 1.0);
        assert_eq!(irs.lookups(), 2);
        assert_eq!(lib.identity_stats.hits, 2);
    }

    #[test]
    fn cache_len_counts_live_entries_not_table_slots() {
        // The id-indexed table grows to the highest id queried; only filled
        // slots are entries.
        let fcs = fcs_fixture();
        let mut lib = LibAequus::new(1e9, 1e9);
        assert_eq!(lib.fairshare_cache_len(), 0);
        lib.get_fairshare(&fcs, GHOST, 0.0);
        assert_eq!(lib.fairshare_cache_len(), 1);
        lib.get_fairshare(&fcs, id(&fcs, "a"), 0.0);
        lib.get_fairshare(&fcs, id(&fcs, "a"), 1.0);
        assert_eq!(lib.fairshare_cache_len(), 2, "a hit adds nothing");
    }

    #[test]
    fn flush_clears_caches() {
        let fcs = fcs_fixture();
        let mut lib = LibAequus::new(1e9, 1e9);
        lib.get_fairshare(&fcs, id(&fcs, "a"), 0.0);
        assert_eq!(lib.fairshare_cache_len(), 1);
        lib.flush();
        assert_eq!(lib.fairshare_cache_len(), 0);
        lib.get_fairshare(&fcs, id(&fcs, "a"), 1.0);
        assert_eq!(lib.fairshare_stats.misses, 2);
    }
}
