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
//! `AequusSite` implements the trait for the full per-site Aequus stack;
//! [`LocalFairshare`] is the baseline it replaces — the classic site-local
//! fairshare calculation that only sees local history.

use aequus_core::fairshare::{FairshareConfig, FairshareTree};
use aequus_core::policy::PolicyTree;
use aequus_core::projection::{Projection, ProjectionKind};
use aequus_core::usage::{Prefix, UsageHistogram, UsageRecord};
use aequus_core::{GridUser, SystemUser, UserId, UserTable};
use aequus_services::AequusSite;
use std::collections::BTreeMap;

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

    /// Capture the full decision provenance behind
    /// [`fairshare_factor`](Self::fairshare_factor) for a user: policy path,
    /// decayed usage, distance terms, fairshare vector, and projection, such
    /// that replaying the capture reproduces the factor bit-for-bit. Sources
    /// that cannot explain themselves return `None` (the default).
    fn explain(&self, _user: &GridUser) -> Option<aequus_core::Explanation> {
        None
    }

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

    fn explain(&self, user: &GridUser) -> Option<aequus_core::Explanation> {
        self.fcs.explain(user)
    }

    fn report_usage(&mut self, record: UsageRecord, now_s: f64) {
        self.report_completion(record, now_s);
    }

    fn resolve_identity(&mut self, system: &SystemUser, now_s: f64) -> Option<GridUser> {
        AequusSite::resolve_identity(self, system, now_s)
    }
}

/// The pre-Aequus baseline: fairshare computed from local usage only, with
/// the same algorithm and projection but no cross-site exchange and no
/// service pipeline (values recomputed on demand).
pub struct LocalFairshare {
    policy: PolicyTree,
    config: FairshareConfig,
    projection: Box<dyn Projection>,
    usage: UsageHistogram,
    identity_map: BTreeMap<SystemUser, GridUser>,
    /// Who the ids of `usage` and of the RMS's queries are: a table over
    /// the policy's own user base, so they are the fairshare tree's ids too.
    users: UserTable,
}

impl std::fmt::Debug for LocalFairshare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalFairshare")
            .field("users", &self.users.len())
            .finish()
    }
}

impl LocalFairshare {
    /// Create a local-only fairshare calculator.
    pub fn new(
        policy: PolicyTree,
        config: FairshareConfig,
        projection: ProjectionKind,
        usage_slot_s: f64,
    ) -> Self {
        let users = UserTable::new(policy.layout().users().clone());
        Self {
            usage: UsageHistogram::with_users(usage_slot_s, &users),
            users,
            policy,
            config,
            projection: projection.build(),
            identity_map: BTreeMap::new(),
        }
    }

    /// Register a system-user → grid-user mapping (local configuration).
    pub fn map_identity(&mut self, system: SystemUser, grid: GridUser) {
        self.identity_map.insert(system, grid);
    }

    /// Direct access to the accumulated local usage.
    pub fn usage(&self) -> &UsageHistogram {
        &self.usage
    }
}

impl FairshareSource for LocalFairshare {
    fn intern_user(&mut self, user: &GridUser) -> UserId {
        self.users.intern(user)
    }

    fn fairshare_factor(&mut self, id: UserId, now_s: f64) -> f64 {
        // One row over the policy's users; what users outside it consumed
        // competes for no share.
        let aged = |centre| self.config.decay.weight(now_s - centre);
        let decayed = |user| self.usage.usage(user, aged, Prefix::default(), 0).0;
        let policy_users = 0..self.users.base().len() as u32;
        let usage: Vec<f64> = policy_users.map(|user| decayed(UserId(user))).collect();
        let tree = FairshareTree::compute_row(&self.policy, &usage, &self.config, now_s);
        let Some(leaf) = tree.leaf_of(id) else {
            return 0.5;
        };
        // Dictionary has no per-leaf read: rank everyone, index one.
        let read = self.projection.project_leaf(&tree, leaf);
        read.unwrap_or_else(|| self.projection.project(&tree)[id.index()])
    }

    fn report_usage(&mut self, record: UsageRecord, _now_s: f64) {
        let user = self.users.intern(&record.user);
        self.usage.record(user, &record);
    }

    fn resolve_identity(&mut self, system: &SystemUser, _now_s: f64) -> Option<GridUser> {
        self.identity_map.get(system).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_core::ids::{JobId, SiteId};
    use aequus_core::policy::flat_policy;

    fn factor(lf: &mut LocalFairshare, user: &str, now_s: f64) -> f64 {
        let id = lf.intern_user(&GridUser::new(user));
        lf.fairshare_factor(id, now_s)
    }

    fn record(user: &str, start: f64, end: f64) -> UsageRecord {
        UsageRecord {
            job: JobId(0),
            user: GridUser::new(user),
            site: SiteId(0),
            cores: 1,
            start_s: start,
            end_s: end,
        }
    }

    #[test]
    fn local_fairshare_reacts_immediately() {
        let mut lf = LocalFairshare::new(
            flat_policy(&[("a", 0.5), ("b", 0.5)]).unwrap(),
            FairshareConfig::default(),
            ProjectionKind::Percental,
            60.0,
        );
        let before = factor(&mut lf, "a", 0.0);
        lf.report_usage(record("a", 0.0, 500.0), 500.0);
        let after = factor(&mut lf, "a", 500.0);
        assert!(after < before, "no pipeline delay locally");
    }

    #[test]
    fn local_identity_mapping() {
        let mut lf = LocalFairshare::new(
            flat_policy(&[("a", 1.0)]).unwrap(),
            FairshareConfig::default(),
            ProjectionKind::Percental,
            60.0,
        );
        lf.map_identity(SystemUser::new("sys1"), GridUser::new("a"));
        assert_eq!(
            lf.resolve_identity(&SystemUser::new("sys1"), 0.0),
            Some(GridUser::new("a"))
        );
        assert_eq!(lf.resolve_identity(&SystemUser::new("sys2"), 0.0), None);
    }

    #[test]
    fn local_sees_only_local_history() {
        // Two independent LocalFairshare instances never influence each
        // other — the problem Aequus solves.
        let policy = flat_policy(&[("a", 0.5), ("b", 0.5)]).unwrap();
        let mut site1 = LocalFairshare::new(
            policy.clone(),
            FairshareConfig::default(),
            ProjectionKind::Percental,
            60.0,
        );
        let mut site2 = LocalFairshare::new(
            policy,
            FairshareConfig::default(),
            ProjectionKind::Percental,
            60.0,
        );
        site1.report_usage(record("a", 0.0, 900.0), 900.0);
        let f1 = factor(&mut site1, "a", 900.0);
        let f2 = factor(&mut site2, "a", 900.0);
        assert!(f1 < f2, "site2 is oblivious to a's usage on site1");
    }
}
