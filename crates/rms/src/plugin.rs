//! The integration seam between a local resource manager and a fairshare
//! provider (§III-A).
//!
//! In SLURM the seam is a *priority plugin* plus a *job completion plugin*;
//! in Maui it is a pair of patched call sites. Both reduce to the same three
//! calls into `libaequus`, captured by [`FairshareSource`]:
//! fetch a fairshare factor, report completed usage, resolve identity.
//! Factors are fetched by interned [`UserId`] — the scheduler interns a
//! job's grid user once at submit.
//!
//! `AequusSite` implements the trait for the full per-site Aequus stack. The
//! classic site-local fairshare it replaces is that stack in
//! [`ParticipationMode::Disjunct`](aequus_services::ParticipationMode::Disjunct):
//! the same algorithm over local history only.

use aequus_core::usage::UsageRecord;
use aequus_core::{GridUser, SystemUser, UserId};
use aequus_services::AequusSite;

/// What the RMS-side plugins need from a fairshare system.
pub trait FairshareSource {
    /// Intern a grid user into the stable dense id every later
    /// [`fairshare_factor`](Self::fairshare_factor) query for that user
    /// goes by — done once per submitted job, so re-prioritization sweeps
    /// never look a user up by name. Ids are never reused.
    fn intern_user(&mut self, user: &GridUser) -> UserId;

    /// The fairshare priority factor (in `[0, 1]`) of an interned grid
    /// user; users the policy does not know get the neutral 0.5. Replaces
    /// "the normal fairshare priority calculation code". Only called with
    /// ids this source returned from [`intern_user`](Self::intern_user).
    fn fairshare_factor(&mut self, id: UserId, now_s: f64) -> f64;

    /// Supply usage information for a completed job (the SLURM job
    /// completion plugin / the Maui completion call site).
    fn report_usage(&mut self, record: UsageRecord, now_s: f64);

    /// Map a local system account to its grid identity.
    fn resolve_identity(&mut self, system: &SystemUser, now_s: f64) -> Option<GridUser>;
}

impl FairshareSource for AequusSite {
    fn intern_user(&mut self, user: &GridUser) -> UserId {
        AequusSite::intern_user(self, user)
    }

    fn fairshare_factor(&mut self, id: UserId, now_s: f64) -> f64 {
        AequusSite::fairshare_factor(self, id, now_s)
    }

    fn report_usage(&mut self, record: UsageRecord, now_s: f64) {
        self.report_completion(record, now_s);
    }

    fn resolve_identity(&mut self, system: &SystemUser, now_s: f64) -> Option<GridUser> {
        AequusSite::resolve_identity(self, system, now_s)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aequus_core::fairshare::FairshareConfig;
    use aequus_core::ids::{JobId, SiteId};
    use aequus_core::policy::flat_policy;
    use aequus_core::projection::ProjectionKind;
    use aequus_services::{ParticipationMode, ServiceTimings};
    use std::collections::BTreeMap;

    /// The local-only fairshare baseline: an Aequus site that reads no
    /// other site's usage (`Disjunct`), with every stage of its pipeline
    /// at zero delay and ticked after each report, so a report is served
    /// at once. `sys<user>` maps to each policy user.
    #[derive(Debug)]
    pub(crate) struct LocalSite(pub(crate) AequusSite);

    impl LocalSite {
        pub(crate) fn new(shares: &[(&str, f64)]) -> Self {
            let zero = ServiceTimings {
                report_delay_s: 0.0,
                uss_publish_interval_s: 0.0,
                ums_refresh_interval_s: 0.0,
                fcs_refresh_interval_s: 0.0,
                lib_cache_ttl_s: 0.0,
                lib_identity_ttl_s: 0.0,
                exchange_latency_s: 0.0,
            };
            let mut site = AequusSite::new(
                SiteId(0),
                flat_policy(shares).expect("a flat policy"),
                FairshareConfig::default(),
                ProjectionKind::Percental,
                zero,
                ParticipationMode::Disjunct,
                60.0,
            );
            for (user, _) in shares {
                let system = SystemUser::new(format!("sys{user}"));
                site.irs.store_mapping(system, GridUser::new(*user));
            }
            site.tick(0.0);
            Self(site)
        }
    }

    impl FairshareSource for LocalSite {
        fn intern_user(&mut self, user: &GridUser) -> UserId {
            self.0.intern_user(user)
        }

        fn fairshare_factor(&mut self, id: UserId, now_s: f64) -> f64 {
            self.0.fairshare_factor(id, now_s)
        }

        fn report_usage(&mut self, record: UsageRecord, now_s: f64) {
            self.0.report_completion(record, now_s);
            self.0.tick(now_s);
        }

        fn resolve_identity(&mut self, system: &SystemUser, now_s: f64) -> Option<GridUser> {
            self.0.resolve_identity(system, now_s)
        }
    }

    /// A scripted source for tests of scheduling alone: a user's factor is
    /// what the test set in `factors`, else 0.5, whatever the usage; `sysa`
    /// and `sysb` map to `a` and `b`; every usage report is logged.
    #[derive(Debug, Default)]
    pub(crate) struct Scripted {
        users: Vec<GridUser>,
        pub(crate) factors: BTreeMap<UserId, f64>,
        pub(crate) reports: Vec<UsageRecord>,
    }

    impl FairshareSource for Scripted {
        fn intern_user(&mut self, user: &GridUser) -> UserId {
            let known = self.users.iter().position(|u| u == user);
            let index = known.unwrap_or_else(|| {
                self.users.push(user.clone());
                self.users.len() - 1
            });
            UserId(index as u32)
        }

        fn fairshare_factor(&mut self, id: UserId, _now_s: f64) -> f64 {
            self.factors.get(&id).copied().unwrap_or(0.5)
        }

        fn report_usage(&mut self, record: UsageRecord, _now_s: f64) {
            self.reports.push(record);
        }

        fn resolve_identity(&mut self, system: &SystemUser, _now_s: f64) -> Option<GridUser> {
            let name = system.as_str().strip_prefix("sys")?;
            ["a", "b"].contains(&name).then(|| GridUser::new(name))
        }
    }

    pub(crate) fn record(user: &str, start_s: f64, end_s: f64) -> UsageRecord {
        UsageRecord {
            job: JobId(0),
            user: GridUser::new(user),
            site: SiteId(0),
            cores: 1,
            start_s,
            end_s,
        }
    }

    #[test]
    fn a_local_site_serves_its_own_reports_at_once_and_no_one_elses() {
        let shares = [("a", 0.5), ("b", 0.5)];
        let (mut site1, mut site2) = (LocalSite::new(&shares), LocalSite::new(&shares));
        let a = site1
            .resolve_identity(&SystemUser::new("sysa"), 0.0)
            .expect("mapped");
        assert_eq!(a, GridUser::new("a"));
        assert_eq!(site1.resolve_identity(&SystemUser::new("sysz"), 0.0), None);
        let factor = |site: &mut LocalSite, now_s: f64| {
            let id = site.intern_user(&a);
            site.fairshare_factor(id, now_s)
        };
        let before = factor(&mut site1, 0.0);
        site1.report_usage(record("a", 0.0, 900.0), 900.0);
        // No pipeline delay locally, and no exchange between the sites.
        assert!(factor(&mut site1, 900.0) < before);
        assert_eq!(factor(&mut site2, 900.0), before);
    }
}
