//! The global-sum oracle: what every site of a fully-participating grid
//! must end up believing, computed from the trace alone — no number here
//! passed through the USS.

use aequus::core::GridUser;
use aequus::sim::SimResult;
use aequus::workload::Trace;
use std::collections::BTreeMap;

/// Assert that every site's final usage view equals `Σ duration_s × cores`
/// per user over `trace`, to 1e-6 relative (the repo benchmark's
/// usage-conservation bound). Only meaningful for a run that completed
/// every job of the trace and drained its gossip, which is asserted first.
pub fn assert_views_match_trace(result: &SimResult, trace: &Trace, label: &str) {
    assert_eq!(
        result.total_completed(),
        trace.len() as u64,
        "{label}: the oracle needs every job completed"
    );
    let mut charged: BTreeMap<GridUser, f64> = BTreeMap::new();
    for job in trace.jobs() {
        *charged.entry(GridUser::new(job.user.clone())).or_default() +=
            job.duration_s * f64::from(job.cores);
    }
    for (site, view) in result.site_usage_views.iter().enumerate() {
        let users: std::collections::BTreeSet<&GridUser> =
            charged.keys().chain(view.keys()).collect();
        for user in users {
            let want = charged.get(user).copied().unwrap_or(0.0);
            let got = view.get(user).copied().unwrap_or(0.0);
            assert!(
                (got - want).abs() <= 1e-6 * want.max(1.0),
                "{label}: site {site} believes {got} for {user:?}, the trace charged {want}"
            );
        }
    }
}
