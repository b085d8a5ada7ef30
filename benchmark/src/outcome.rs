//! What a run produced, reduced to the parts the benchmark judges: the
//! simulated system's results (sim-time metrics), their digest, and the
//! output checks every pass must clear.
//!
//! Both the engine (`GridSimulation::run`) and the traced replay end in an
//! [`Outcome`]; equal digests are the proof that the replay measured the
//! same program.

use crate::workloads::Workload;
use aequus_core::GridUser;
use aequus_rms::SchedulerStats;
use aequus_sim::{MetricsLog, SimResult};
use std::collections::BTreeMap;

/// The judged parts of a finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Simulated horizon, seconds.
    pub end_s: f64,
    /// Events popped plus samples taken.
    pub events_processed: u64,
    /// Final scheduler statistics per cluster.
    pub cluster_stats: Vec<SchedulerStats>,
    /// The sampled time series.
    pub metrics: MetricsLog,
    /// Every site's final raw per-user usage view.
    pub site_usage_views: Vec<BTreeMap<GridUser, f64>>,
}

impl From<SimResult> for Outcome {
    fn from(r: SimResult) -> Self {
        Self {
            end_s: r.end_s,
            events_processed: r.events_processed,
            cluster_stats: r.cluster_stats,
            metrics: r.metrics,
            site_usage_views: r.site_usage_views,
        }
    }
}

/// 64-bit FNV-1a, the digest both fingerprints use: tiny, dependency-free,
/// and sensitive to every byte in order.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fold `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one integer (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold one float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Outcome {
    /// Jobs completed across clusters.
    pub fn completed(&self) -> u64 {
        self.cluster_stats.iter().map(|s| s.completed).sum()
    }

    /// Digest of the simulated results: event count, per-cluster job
    /// counters, gossip bytes, every site's final usage view and the tracked
    /// users' priority series. Moves iff the modelled system's results move.
    pub fn sim_digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.u64(self.events_processed);
        for s in &self.cluster_stats {
            h.u64(s.submitted);
            h.u64(s.completed);
            h.u64(s.backfilled);
        }
        h.u64(self.metrics.total_gossip_bytes());
        for view in &self.site_usage_views {
            h.u64(view.len() as u64);
            for (user, usage) in view {
                h.bytes(user.as_str().as_bytes());
                h.f64(*usage);
            }
        }
        for sample in self.metrics.samples() {
            h.f64(sample.t_s);
            for (user, state) in &sample.users {
                h.bytes(user.as_bytes());
                h.f64(state.priority);
            }
        }
        h.finish()
    }

    /// Mean, over the second half of the samples, of the largest
    /// `|usage share − policy share|` among the policy's users — the
    /// product's `MetricsLog::final_deviation` quantity, averaged instead of
    /// read once. The first half is left out because the first few
    /// completions swing the shares; one sample at the horizon is decided by
    /// whichever job finished last.
    pub fn fairness_late_dev(&self) -> f64 {
        let samples = self.metrics.samples();
        let late = &samples[samples.len() / 2..];
        if late.is_empty() {
            return 0.0;
        }
        let deviation = |s: &aequus_sim::Sample| {
            self.metrics
                .policy
                .iter()
                .map(|(user, target)| {
                    (s.users.get(user).map_or(0.0, |u| u.usage_share) - target).abs()
                })
                .fold(0.0, f64::max)
        };
        late.iter().map(deviation).sum::<f64>() / late.len() as f64
    }

    /// Sim time from which every site's usage view agrees to 1e-6 through
    /// the horizon, censored at the horizon when they never do; the flag
    /// says whether they did.
    pub fn view_convergence_s(&self) -> (f64, bool) {
        match self.metrics.view_convergence_time(1e-6) {
            Some(t) => (t, true),
            None => (self.end_s, false),
        }
    }

    /// Gossip bytes put on the wire per completed job.
    pub fn gossip_bytes_per_job(&self) -> f64 {
        self.metrics.total_gossip_bytes() as f64 / self.completed().max(1) as f64
    }

    /// Mean bounded slowdown over every completed job of every cluster.
    pub fn mean_bounded_slowdown(&self) -> f64 {
        let sum: f64 = self.cluster_stats.iter().map(|s| s.slowdown_sum).sum();
        sum / self.completed().max(1) as f64
    }

    /// Completed usage per user, summed over clusters.
    pub fn usage_by_user(&self) -> BTreeMap<GridUser, f64> {
        let mut out = BTreeMap::new();
        for s in &self.cluster_stats {
            for (user, usage) in &s.usage_by_user {
                *out.entry(user.clone()).or_insert(0.0) += usage;
            }
        }
        out
    }

    /// Usage conservation: once the views have converged, every site's final
    /// view must equal the per-user charges of the completed jobs within
    /// 1e-6 relative — faults, crashes and recovery included. Returns the
    /// first discrepancy.
    pub fn check_conservation(&self) -> Result<(), String> {
        if !self.view_convergence_s().1 {
            return Ok(()); // views still diverge at the horizon: not comparable
        }
        let truth = self.usage_by_user();
        for (site, view) in self.site_usage_views.iter().enumerate() {
            let users: std::collections::BTreeSet<&GridUser> =
                truth.keys().chain(view.keys()).collect();
            for user in users {
                let charged = truth.get(user).copied().unwrap_or(0.0);
                let believed = view.get(user).copied().unwrap_or(0.0);
                if (charged - believed).abs() > 1e-6 * charged.abs().max(1.0) {
                    return Err(format!(
                        "usage not conserved: site {site} believes {believed} for {}, jobs charged {charged}",
                        user.as_str()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Every output check of one pass; `jobs` is the trace length.
    pub fn check(&self, jobs: usize) -> Result<(), String> {
        self.check_conservation()?;
        let completed = self.completed();
        if (completed as f64) < 0.999 * jobs as f64 {
            return Err(format!("only {completed} of {jobs} jobs completed"));
        }
        Ok(())
    }
}

/// Digest of the generated inputs: every trace job and the scenario's debug
/// rendering. Two result files with different fingerprints measured
/// different work and may not be compared.
pub fn input_fingerprint(w: &Workload) -> u64 {
    let mut h = Fnv1a::default();
    h.bytes(w.name.as_bytes());
    h.f64(w.drain_s);
    for job in w.trace.jobs() {
        h.bytes(job.user.as_bytes());
        h.f64(job.submit_s);
        h.f64(job.duration_s);
        h.u64(u64::from(job.cores));
    }
    h.bytes(format!("{:?}", w.scenario).as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        let mut h = Fnv1a::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
