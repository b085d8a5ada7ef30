//! Job traces: the input format of the simulated test bed.

/// One job of a workload trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceJob {
    /// Submitting user (grid identity name; the paper's U65/U30/U3/Uoth).
    pub user: String,
    /// Submission time, seconds from trace start.
    pub submit_s: f64,
    /// Wall-clock duration, seconds.
    pub duration_s: f64,
    /// Processors used — "the trace is comprised exclusively of bag-of-task
    /// jobs using a single processor per job" (§IV-3).
    pub cores: u32,
}

/// A complete workload trace, kept sorted by submission time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    jobs: Vec<TraceJob>,
}

impl Trace {
    /// Build a trace, sorting jobs by submission time.
    pub fn new(mut jobs: Vec<TraceJob>) -> Self {
        jobs.sort_by(|a, b| a.submit_s.partial_cmp(&b.submit_s).unwrap());
        Self { jobs }
    }

    /// The jobs, ascending by submission time.
    pub fn jobs(&self) -> &[TraceJob] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total core·seconds of work in the trace.
    pub fn total_work(&self) -> f64 {
        self.jobs
            .iter()
            .map(|j| j.cores as f64 * j.duration_s)
            .sum()
    }

    /// Trace makespan upper bound: last submission time.
    pub fn last_submit(&self) -> f64 {
        self.jobs.last().map(|j| j.submit_s).unwrap_or(0.0)
    }

    /// Fraction of jobs per user, in descending order of count.
    pub fn job_share_by_user(&self) -> Vec<(String, f64)> {
        let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
        for j in &self.jobs {
            *counts.entry(&j.user).or_default() += 1;
        }
        let total = self.jobs.len().max(1) as f64;
        let mut out: Vec<(String, f64)> = counts
            .into_iter()
            .map(|(u, c)| (u.to_string(), c as f64 / total))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        out
    }

    /// Fraction of total wall-clock·core usage per user, descending.
    pub fn usage_share_by_user(&self) -> Vec<(String, f64)> {
        let mut usage: std::collections::BTreeMap<&str, f64> = Default::default();
        for j in &self.jobs {
            *usage.entry(&j.user).or_default() += j.cores as f64 * j.duration_s;
        }
        let total: f64 = usage.values().sum();
        let total = if total > 0.0 { total } else { 1.0 };
        let mut out: Vec<(String, f64)> = usage
            .into_iter()
            .map(|(u, v)| (u.to_string(), v / total))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        out
    }

    /// Durations of one user's jobs (or all jobs).
    pub fn durations(&self, user: Option<&str>) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| user.is_none_or(|u| j.user == u))
            .map(|j| j.duration_s)
            .collect()
    }

    /// Submission times of one user's jobs (or all jobs).
    pub fn submits(&self, user: Option<&str>) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| user.is_none_or(|u| j.user == u))
            .map(|j| j.submit_s)
            .collect()
    }

    /// Scale the time axis by `factor` (arrival times **and** durations), as
    /// in the update-delay experiment: "we scaled the baseline test case up
    /// ten times, adjusting the arrival times and job durations while
    /// keeping the same number of jobs and same internal relations"
    /// (§IV-A-2).
    pub fn time_scaled(&self, factor: f64) -> Trace {
        Trace {
            jobs: self
                .jobs
                .iter()
                .map(|j| TraceJob {
                    user: j.user.clone(),
                    submit_s: j.submit_s * factor,
                    duration_s: j.duration_s * factor,
                    cores: j.cores,
                })
                .collect(),
        }
    }

    /// Merge with another trace (re-sorts).
    pub fn merged(&self, other: &Trace) -> Trace {
        let mut jobs = self.jobs.clone();
        jobs.extend(other.jobs.iter().cloned());
        Trace::new(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tj(user: &str, submit: f64, dur: f64) -> TraceJob {
        TraceJob {
            user: user.to_string(),
            submit_s: submit,
            duration_s: dur,
            cores: 1,
        }
    }

    #[test]
    fn sorted_on_construction() {
        let t = Trace::new(vec![tj("a", 10.0, 1.0), tj("b", 5.0, 1.0)]);
        assert_eq!(t.jobs()[0].user, "b");
    }

    #[test]
    fn shares_sum_to_one() {
        let t = Trace::new(vec![
            tj("a", 0.0, 100.0),
            tj("a", 1.0, 100.0),
            tj("b", 2.0, 200.0),
        ]);
        let job_shares = t.job_share_by_user();
        let usage_shares = t.usage_share_by_user();
        assert!((job_shares.iter().map(|(_, s)| s).sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((usage_shares.iter().map(|(_, s)| s).sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(job_shares[0].0, "a"); // 2/3 of jobs
        assert_eq!(usage_shares[0].0, "a"); // 200 of 400 core-s ties... a=200, b=200
    }

    #[test]
    fn time_scaling_preserves_structure() {
        let t = Trace::new(vec![tj("a", 10.0, 100.0), tj("b", 20.0, 50.0)]);
        let s = t.time_scaled(10.0);
        assert_eq!(s.len(), t.len());
        assert_eq!(s.jobs()[0].submit_s, 100.0);
        assert_eq!(s.jobs()[0].duration_s, 1000.0);
        // Internal relations preserved: ratios unchanged.
        let r0 = t.jobs()[1].submit_s / t.jobs()[0].submit_s;
        let r1 = s.jobs()[1].submit_s / s.jobs()[0].submit_s;
        assert!((r0 - r1).abs() < 1e-12);
        assert!((s.total_work() - 10.0 * t.total_work()).abs() < 1e-9);
    }

    #[test]
    fn merged_traces_sorted() {
        let a = Trace::new(vec![tj("a", 0.0, 1.0), tj("a", 100.0, 1.0)]);
        let b = Trace::new(vec![tj("b", 50.0, 1.0)]);
        let m = a.merged(&b);
        assert_eq!(m.len(), 3);
        assert_eq!(m.jobs()[1].user, "b");
    }

    #[test]
    fn empty_trace_safe() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.total_work(), 0.0);
        assert_eq!(t.last_submit(), 0.0);
        assert!(t.job_share_by_user().is_empty());
    }
}
