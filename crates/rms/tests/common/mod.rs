//! The scripted fairshare source the scheduling property tests share.

use aequus_core::usage::UsageRecord;
use aequus_core::{GridUser, SystemUser, UserId};
use aequus_rms::FairshareSource;

/// A source for tests of scheduling alone: every user's factor is 0.5,
/// whatever the usage; `sys-<user>` maps to `<user>`; every usage report
/// is logged.
#[derive(Debug, Default)]
pub struct Scripted {
    users: Vec<GridUser>,
    pub reports: Vec<UsageRecord>,
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

    fn fairshare_factor(&mut self, _id: UserId, _now_s: f64) -> f64 {
        0.5
    }

    fn report_usage(&mut self, record: UsageRecord, _now_s: f64) {
        self.reports.push(record);
    }

    fn resolve_identity(&mut self, system: &SystemUser, _now_s: f64) -> Option<GridUser> {
        system.as_str().strip_prefix("sys-").map(GridUser::new)
    }
}
