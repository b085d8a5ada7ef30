//! One simulated cluster: a local RMS (with a SLURM- or Maui-like
//! re-prioritization cadence) wired to its own Aequus installation, exactly
//! the per-site stack of Figure 2.

use crate::scenario::{ClusterSpec, GridScenario, RmsKind};
use aequus_core::usage::UsageSummary;
use aequus_core::{JobId, SiteId, SystemUser};
use aequus_rms::{FactorConfig, Job, NodePool, ReprioritizePolicy, SchedulerCore};
use aequus_services::{AequusSite, UssMessage};
use aequus_telemetry::Telemetry;
use aequus_workload::TraceJob;

/// A cluster of the simulated grid: RMS + Aequus site.
#[derive(Debug)]
pub struct SimCluster {
    /// The local resource manager.
    pub rms: SchedulerCore,
    /// The local Aequus installation.
    pub site: AequusSite,
    /// Per-site telemetry domain: every service of this cluster's stack
    /// plus its RMS report into it (disabled unless the scenario opts in).
    pub telemetry: Telemetry,
    next_job: u64,
    /// Walltime-request padding factor applied to trace jobs (scenario
    /// [`GridScenario::request_factor`]).
    request_factor: f64,
}

impl SimCluster {
    /// Build a cluster from its spec within a scenario. Identity mappings
    /// for every policy user are installed in the site's IRS (the unified
    /// name-resolution service of the test bed).
    pub fn new(index: usize, spec: &ClusterSpec, scenario: &GridScenario) -> Self {
        let policy = spec
            .policy_override
            .clone()
            .unwrap_or_else(|| scenario.policy.clone());
        let mut site = AequusSite::new(
            SiteId(index as u32),
            policy.clone(),
            scenario.fairshare,
            scenario.projection,
            scenario.timings,
            spec.participation,
            scenario.usage_slot_s,
        );
        // The test bed's unified name-resolution endpoint: system user
        // "sys-<grid user>" maps back to the grid identity. Register the
        // site's identities and — where the site overrides the policy —
        // the grid-wide ones it does not name.
        let grid = spec.policy_override.as_ref().map(|_| &scenario.policy);
        let users = [Some(&policy), grid].into_iter().flatten();
        for user in users.flat_map(|p| p.layout().users().iter()) {
            let system = SystemUser::new(format!("sys-{}", user.as_str()));
            site.irs.store_mapping(system, user.clone());
        }
        let nodes = NodePool::new(spec.nodes, spec.cores_per_node);
        let site_id = SiteId(index as u32);
        let telemetry = match (scenario.telemetry, scenario.tracing) {
            (false, _) => Telemetry::disabled(),
            (true, false) => Telemetry::enabled(),
            (true, true) => Telemetry::traced(index as u32),
        };
        site.set_telemetry(&telemetry);
        if let Some(cfg) = scenario.store {
            // Seed the torn-write junk stream per scenario; the site mixes
            // its id in, so sites stay decorrelated within a run.
            site.enable_store(cfg, scenario.seed);
        }
        let reprio = match spec.rms {
            RmsKind::Slurm => ReprioritizePolicy::Interval(scenario.tick_interval_s.max(5.0)),
            RmsKind::Maui => ReprioritizePolicy::EveryCycle,
        };
        let mut rms = SchedulerCore::with_dispatch(
            site_id,
            nodes,
            scenario.weights,
            FactorConfig::default(),
            reprio,
            scenario.dispatch,
        );
        rms.set_telemetry(&telemetry);
        Self {
            rms,
            site,
            telemetry,
            next_job: (index as u64) << 40, // disjoint id spaces per cluster
            request_factor: scenario.request_factor,
        }
    }

    /// Submit a trace job to this cluster at `now_s`. The walltime request
    /// is the true duration scaled by the scenario's `request_factor`.
    pub fn submit(&mut self, job: &TraceJob, now_s: f64) {
        let id = JobId(self.next_job);
        self.next_job += 1;
        let rms_job = Job::new(
            id,
            SystemUser::new(format!("sys-{}", job.user)),
            job.cores,
            now_s,
            job.duration_s,
        )
        .with_request(job.duration_s * self.request_factor);
        self.rms.submit(rms_job, &mut self.site, now_s);
    }

    /// Advance the cluster: Aequus services first (so freshly expired caches
    /// recompute), then the RMS iteration.
    pub fn step(&mut self, now_s: f64) {
        self.site.tick(now_s);
        self.rms.advance(&mut self.site, now_s);
    }

    /// Advance only the RMS while the Aequus stack is crashed: jobs keep
    /// running and completing (their usage reports spool in the site's
    /// pending queue), scheduling continues on the library's degraded
    /// stale-cache priorities.
    pub fn step_rms_only(&mut self, now_s: f64) {
        self.rms.advance(&mut self.site, now_s);
    }

    /// Always empty. The broadcast outbox this drained is gone — every
    /// summary travels through [`SimCluster::poll_messages`] — and the name
    /// survives only because `benchmark/src/replay.rs` (which a product PR
    /// may not edit) still calls it once per tick.
    pub fn take_outbox(&mut self) -> Vec<UsageSummary> {
        Vec::new()
    }

    /// Drain every reliable-exchange message the site owes its peers.
    pub fn poll_messages(&mut self, now_s: f64) -> Vec<(SiteId, UssMessage)> {
        self.site.poll_messages(now_s)
    }

    /// Deliver one reliable-exchange message; returns response messages.
    pub fn deliver_msg(&mut self, msg: &UssMessage, now_s: f64) -> Vec<(SiteId, UssMessage)> {
        self.site.deliver_message(msg, now_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_core::GridUser;
    use aequus_services::ParticipationMode;

    fn scenario() -> GridScenario {
        GridScenario::national_testbed(
            &[
                ("U65", 0.6525),
                ("U30", 0.3049),
                ("U3", 0.0286),
                ("Uoth", 0.0140),
            ],
            1,
        )
    }

    #[test]
    fn cluster_runs_a_job_end_to_end() {
        let sc = scenario();
        let spec = ClusterSpec {
            nodes: 2,
            cores_per_node: 1,
            participation: ParticipationMode::Full,
            rms: RmsKind::Slurm,
            policy_override: None,
        };
        let mut c = SimCluster::new(0, &spec, &sc);
        c.submit(
            &TraceJob {
                user: "U65".to_string(),
                submit_s: 0.0,
                duration_s: 30.0,
                cores: 1,
            },
            0.0,
        );
        c.step(0.0);
        assert_eq!(c.rms.running(), 1);
        // Identity was resolved through the IRS.
        c.step(30.0);
        assert_eq!(c.rms.stats().completed, 1);
        let usage = c.rms.stats().usage_by_user.clone();
        assert!((usage[&GridUser::new("U65")] - 30.0).abs() < 1e-9);
        // After reporting delay + publish interval, a summary goes out.
        for t in [40.0, 80.0, 140.0, 200.0] {
            c.step(t);
        }
        assert!(c.site.uss.next_seq() > 1, "usage summary published");
    }

    #[test]
    fn job_ids_disjoint_between_clusters() {
        let sc = scenario();
        let spec = &sc.clusters[0];
        let mut a = SimCluster::new(0, spec, &sc);
        let mut b = SimCluster::new(1, spec, &sc);
        let job = TraceJob {
            user: "U65".to_string(),
            submit_s: 0.0,
            duration_s: 10.0,
            cores: 1,
        };
        a.submit(&job, 0.0);
        b.submit(&job, 0.0);
        a.step(0.0);
        b.step(0.0);
        let ida = a.rms.stats().submitted;
        let idb = b.rms.stats().submitted;
        assert_eq!((ida, idb), (1, 1));
    }
}

#[cfg(test)]
mod policy_override_tests {
    use super::*;
    use crate::scenario::GridScenario;
    use aequus_core::policy::{PolicyNode, PolicyTree};
    use aequus_core::EntityPath;

    #[test]
    fn site_policy_override_is_enforced_locally() {
        // The grid default splits 50/50 between U65 and U30; one site's
        // local administration instead reserves 80% for a local user and
        // mounts the grid users under the remaining 20%.
        let sc = GridScenario::national_testbed(&[("U65", 0.5), ("U30", 0.5)], 1);
        let local_policy = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![
                PolicyNode::user("local-hpc", 0.8),
                PolicyNode::group(
                    "grid",
                    0.2,
                    vec![PolicyNode::user("U65", 0.5), PolicyNode::user("U30", 0.5)],
                ),
            ],
        ))
        .unwrap();
        let mut spec = sc.clusters[0].clone();
        spec.policy_override = Some(local_policy);
        let c = SimCluster::new(0, &spec, &sc);
        let site_policy = c.site.pds.policy();
        assert!(
            (site_policy
                .absolute_share(&EntityPath::parse("/local-hpc"))
                .unwrap()
                - 0.8)
                .abs()
                < 1e-12
        );
        assert!(
            (site_policy
                .absolute_share(&EntityPath::parse("/grid/U65"))
                .unwrap()
                - 0.1)
                .abs()
                < 1e-12
        );
        // The default-policy site keeps the grid-wide 50/50.
        let default_site = SimCluster::new(1, &sc.clusters[1], &sc);
        assert!(
            (default_site
                .site
                .pds
                .policy()
                .absolute_share(&EntityPath::parse("/U65"))
                .unwrap()
                - 0.5)
                .abs()
                < 1e-12
        );
    }
}
