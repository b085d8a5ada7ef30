//! Parallel parameter sweeps and the shared scenario/trace builders.
//!
//! Two kinds of parallelism live here. [`parallel_sweep`] runs many
//! *independent* simulations concurrently (ablations, seed matrices); a
//! single run's internal parallelism is the sharded engine's job
//! (`GridScenario::with_threads`), and any combination of the two is
//! deterministic. [`ScenarioBuilder`] and the trace helpers dedup the
//! scenario-construction boilerplate the experiments share:
//! the compressed 3-site chaos grid, the tight retry policy, the cycling
//! four-user traces.

use aequus_services::{RetryPolicy, ServiceTimings};
use aequus_sim::{GridScenario, Outage};
use aequus_workload::{Trace, TraceJob};
use std::sync::Mutex;

/// The four model users every synthetic sweep trace cycles through — the
/// paper's usage-share quartet.
pub const SWEEP_USERS: [&str; 4] = ["U65", "U30", "U3", "Uoth"];

/// `n` synthetic equal-standing user names (`u000000`…), for scale runs
/// where the paper's four-user policy would be unrealistically small.
pub fn synthetic_users(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("u{i:06}")).collect()
}

/// A trace cycling jobs over `users` with caller-supplied submit/duration
/// schedules (all single-core, the test bed's virtual-host shape).
pub fn cycle_trace<S: AsRef<str>>(
    users: &[S],
    jobs: usize,
    submit_s: impl Fn(usize) -> f64,
    duration_s: impl Fn(usize) -> f64,
) -> Trace {
    Trace::new(
        (0..jobs)
            .map(|i| TraceJob {
                user: users[i % users.len()].as_ref().to_string(),
                submit_s: submit_s(i),
                duration_s: duration_s(i),
                cores: 1,
            })
            .collect(),
    )
}

/// The fixed-cadence sweep workload: one `duration_s` single-core job every
/// `interval_s`, users cycling through [`SWEEP_USERS`]. Bounded on purpose —
/// convergence sweeps need the grid to quiesce.
pub fn uniform_trace(jobs: usize, interval_s: f64, duration_s: f64) -> Trace {
    cycle_trace(
        &SWEEP_USERS,
        jobs,
        |i| i as f64 * interval_s,
        |_| duration_s,
    )
}

/// Fluent construction of the recurring bench scenarios on top of
/// [`GridScenario::national_testbed`]. Every method is a value the bench
/// experiments would otherwise set by hand; `build` hands back the plain scenario.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    sc: GridScenario,
}

impl ScenarioBuilder {
    /// Start from the paper's six-cluster national test bed.
    pub fn testbed(policy_shares: &[(&str, f64)], seed: u64) -> Self {
        Self {
            sc: GridScenario::national_testbed(policy_shares, seed),
        }
    }

    /// Start from a test bed whose policy is `users` synthetic equal-share
    /// leaves (see [`synthetic_users`]) — the nation-scale shape.
    pub fn equal_share_users(users: usize, seed: u64) -> Self {
        let names = synthetic_users(users);
        let share = 1.0 / users.max(1) as f64;
        let shares: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), share)).collect();
        Self::testbed(&shares, seed)
    }

    /// Resize the fleet to exactly `n` sites: truncate, or extend by cloning
    /// the last cluster spec (homogeneous growth).
    pub fn sites(mut self, n: usize) -> Self {
        let template = self.sc.clusters.last().cloned().expect("non-empty fleet");
        self.sc.clusters.truncate(n);
        while self.sc.clusters.len() < n {
            self.sc.clusters.push(template.clone());
        }
        self
    }

    /// Set every cluster's host count.
    pub fn nodes_per_site(mut self, nodes: u32) -> Self {
        for c in &mut self.sc.clusters {
            c.nodes = nodes;
        }
        self
    }

    /// The chaos/recovery suites' compressed timing profile: fast service
    /// delays (5 s exchange latency), 30 s publish/refresh cadence, 60 s
    /// usage slots, 5 s ticks — the whole delay chain squeezed so faults and
    /// recovery play out inside a sub-hour run.
    pub fn compressed(mut self) -> Self {
        self.sc.timings = ServiceTimings {
            report_delay_s: 5.0,
            uss_publish_interval_s: 30.0,
            ums_refresh_interval_s: 30.0,
            fcs_refresh_interval_s: 30.0,
            lib_cache_ttl_s: 10.0,
            lib_identity_ttl_s: 60.0,
            exchange_latency_s: 5.0,
        };
        self.sc.usage_slot_s = 60.0;
        self.sc.tick_interval_s = 5.0;
        self
    }

    /// The tight reliability-layer configuration the fault suites use
    /// (15 s ack timeout, 60 s backoff ceiling, 20% jitter) with explicit
    /// retention caps.
    pub fn tight_retry(mut self, history_cap: usize, outbox_cap: usize) -> Self {
        self.sc.retry = RetryPolicy {
            ack_timeout_s: 15.0,
            max_backoff_s: 60.0,
            jitter_frac: 0.2,
            history_cap,
            outbox_cap,
        };
        self
    }

    /// Per-delivery exchange drop probability.
    pub fn drops(mut self, probability: f64) -> Self {
        self.sc.faults.drop_probability = probability;
        self
    }

    /// Add a network partition of `cluster` over `[from_s, to_s)`.
    pub fn outage(mut self, cluster: usize, from_s: f64, to_s: f64) -> Self {
        self.sc.faults.outages.push(Outage {
            cluster,
            from_s,
            to_s,
        });
        self
    }

    /// Add a crash-recovery cycle of `cluster` over `[from_s, to_s)`.
    pub fn crash(mut self, cluster: usize, from_s: f64, to_s: f64) -> Self {
        self.sc.faults.crashes.push(Outage {
            cluster,
            from_s,
            to_s,
        });
        self
    }

    /// Enable per-site telemetry.
    pub fn telemetry(mut self) -> Self {
        self.sc = self.sc.with_telemetry();
        self
    }

    /// Surcharge snapshot catch-up transfers by `seconds`.
    pub fn snapshot_transfer(mut self, seconds: f64) -> Self {
        self.sc = self.sc.with_snapshot_transfer(seconds);
        self
    }

    /// Attach (or not) the durable per-site store — conditional so the
    /// recovery comparison can run the same plan both ways.
    pub fn durable(mut self, on: bool) -> Self {
        if on {
            self.sc = self.sc.with_durable_store();
        }
        self
    }

    /// Shard-worker threads for the parallel engine (1 = serial).
    pub fn threads(mut self, n: usize) -> Self {
        self.sc = self.sc.with_threads(n);
        self
    }

    /// Enable the continuous profiler (implies telemetry when not `Off`).
    pub fn profiling(mut self, mode: aequus_telemetry::ProfileMode) -> Self {
        self.sc = self.sc.with_profiling(mode);
        self
    }

    /// Cap the per-sample fairshare readout to the first `cap` policy users.
    pub fn metrics_user_cap(mut self, cap: usize) -> Self {
        self.sc = self.sc.with_metrics_user_cap(cap);
        self
    }

    /// Finish: the configured scenario.
    pub fn build(self) -> GridScenario {
        self.sc
    }
}

/// Run `f` over every parameter in parallel (one thread per parameter, which
/// is the right shape for a handful of multi-second simulation runs) and
/// return the results in input order.
pub fn parallel_sweep<P, R, F>(params: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..params.len()).map(|_| None).collect());
    let panicked = std::thread::scope(|scope| {
        let handles: Vec<_> = params
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let results = &results;
                let f = &f;
                scope.spawn(move || {
                    let r = f(p);
                    results.lock().expect("sweep mutex poisoned")[i] = Some(r);
                })
            })
            .collect();
        handles.into_iter().any(|h| h.join().is_err())
    });
    assert!(!panicked, "sweep worker panicked");
    results
        .into_inner()
        .expect("sweep mutex poisoned")
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order() {
        let params: Vec<u64> = (0..16).collect();
        let out = parallel_sweep(&params, |&p| p * p);
        assert_eq!(out, params.iter().map(|p| p * p).collect::<Vec<_>>());
    }

    #[test]
    fn borrows_shared_context() {
        let shared = vec![1.0f64; 1000];
        let params = [2.0f64, 3.0, 4.0];
        let out = parallel_sweep(&params, |&p| shared.iter().sum::<f64>() * p);
        assert_eq!(out, vec![2000.0, 3000.0, 4000.0]);
    }

    #[test]
    fn empty_params() {
        let out: Vec<u32> = parallel_sweep::<u32, u32, _>(&[], |&p| p);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn worker_panic_propagates() {
        parallel_sweep(&[1], |_| -> u32 { panic!("boom") });
    }

    #[test]
    fn builder_grows_and_shrinks_fleet() {
        let sc = ScenarioBuilder::testbed(&[("U65", 1.0)], 1)
            .sites(32)
            .nodes_per_site(8)
            .build();
        assert_eq!(sc.clusters.len(), 32);
        assert_eq!(sc.total_cores(), 32 * 8);
        let sc = ScenarioBuilder::testbed(&[("U65", 1.0)], 1)
            .sites(3)
            .build();
        assert_eq!(sc.clusters.len(), 3);
    }

    #[test]
    fn builder_replicates_recovery_shape() {
        let sc = ScenarioBuilder::testbed(&[("U65", 1.0)], 7)
            .sites(3)
            .nodes_per_site(4)
            .compressed()
            .tight_retry(12, 16)
            .crash(2, 400.0, 700.0)
            .telemetry()
            .snapshot_transfer(240.0)
            .durable(true)
            .build();
        assert_eq!(sc.timings.exchange_latency_s, 5.0);
        assert_eq!(sc.tick_interval_s, 5.0);
        assert_eq!(sc.retry.history_cap, 12);
        assert_eq!(sc.faults.crashes.len(), 1);
        assert!(sc.telemetry);
        assert!(sc.store.is_some());
        assert_eq!(sc.snapshot_transfer_s, 240.0);
    }

    #[test]
    fn uniform_trace_cycles_users_on_cadence() {
        let t = uniform_trace(8, 15.0, 40.0);
        assert_eq!(t.jobs().len(), 8);
        assert_eq!(t.jobs()[0].user, "U65");
        assert_eq!(t.jobs()[4].user, "U65");
        assert_eq!(t.jobs()[5].submit_s, 75.0);
        assert!(t
            .jobs()
            .iter()
            .all(|j| j.duration_s == 40.0 && j.cores == 1));
    }

    #[test]
    fn synthetic_users_are_unique_and_ordered() {
        let users = synthetic_users(1000);
        assert_eq!(users.len(), 1000);
        assert!(users.windows(2).all(|w| w[0] < w[1]));
    }
}
