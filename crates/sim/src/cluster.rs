//! One simulated cluster: a local RMS (with a SLURM- or Maui-like
//! re-prioritization cadence) wired to its own Aequus installation, exactly
//! the per-site stack of Figure 2.

use crate::scenario::{ClusterSpec, GridScenario, RmsKind};
use aequus_core::usage::UsageSummary;
use aequus_core::{GridUser, JobId, SiteId, SystemUser};
use aequus_rms::{FactorConfig, Job, NodePool, ReprioritizePolicy, SchedulerCore};
use aequus_services::{AequusSite, UssMessage};
use aequus_telemetry::{Snapshot, Telemetry};
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
    /// Build a cluster from its spec within a scenario. Its IRS maps
    /// `sys-<user>` back through an endpoint memoized on use (§III-B's second
    /// way): the site policy's users and, where it overrides, the grid's.
    pub fn new(index: usize, spec: &ClusterSpec, scenario: &GridScenario) -> Self {
        let (policy, grid) = match &spec.policy_override {
            Some(local) => (local.clone(), Some(scenario.policy.layout().clone())),
            None => (scenario.policy.clone(), None),
        };
        let known = [Some(policy.layout().clone()), grid];
        let mut site = AequusSite::new(
            SiteId(index as u32),
            policy,
            scenario.fairshare,
            scenario.projection,
            scenario.timings,
            spec.participation,
            scenario.usage_slot_s,
        );
        site.irs.set_endpoint(Box::new(move |system: &SystemUser| {
            let user = GridUser::new(system.as_str().strip_prefix("sys-")?);
            let known = known.iter().flatten().any(|l| l.user_id(&user).is_some());
            known.then_some(user)
        }));
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

    /// One RMS iteration, without the site's tick: a tick calls it after
    /// `AequusSite::tick`, or alone while the Aequus stack is crashed —
    /// jobs keep running and completing (their usage reports spool in the
    /// site's pending queue), scheduling continues on the library's
    /// degraded stale-cache priorities.
    pub fn step_rms_only(&mut self, now_s: f64) {
        self.rms.advance(&mut self.site, now_s);
    }

    /// The cluster's snapshot, `None` while its telemetry is off: the
    /// site's (see [`AequusSite::snapshot`]) and the RMS's counts.
    pub fn snapshot(&self) -> Option<Snapshot> {
        let mut snap = self.site.snapshot()?;
        self.rms.counts_into(&mut snap);
        Some(snap)
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
    use aequus_services::ParticipationMode;

    /// A shard's tick, services first, without the exchange traffic.
    fn step(c: &mut SimCluster, now_s: f64) {
        c.site.tick(now_s);
        c.step_rms_only(now_s);
    }

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
        step(&mut c, 0.0);
        assert_eq!(c.rms.running(), 1);
        // Identity was resolved through the IRS.
        step(&mut c, 30.0);
        assert_eq!(c.rms.stats().completed, 1);
        let usage = c.rms.stats().usage_by_user.clone();
        assert!((usage[&GridUser::new("U65")] - 30.0).abs() < 1e-9);
        // After reporting delay + publish interval, a summary goes out.
        for t in [40.0, 80.0, 140.0, 200.0] {
            step(&mut c, t);
        }
        assert!(c.site.uss.next_seq() > 1, "usage summary published");
    }

    #[test]
    fn a_site_resolves_only_the_identities_that_submit_there() {
        let sc = scenario();
        let mut c = SimCluster::new(0, &sc.clusters[0], &sc);
        assert_eq!((c.site.irs.endpoint_calls(), c.site.irs.lookups()), (0, 0));
        for i in 0..40 {
            let job = TraceJob {
                user: ["U65", "U30"][i % 2].to_string(),
                submit_s: 0.0,
                duration_s: 10.0,
                cores: 1,
            };
            c.submit(&job, 20.0 * i as f64);
            step(&mut c, 20.0 * i as f64);
        }
        assert!(c.rms.stats().completed > 30);
        assert_eq!(c.site.irs.endpoint_calls(), 2, "one memo miss per identity");
        assert!(c.site.irs.lookups() >= 2);
        for unknown in ["sys-ghost", "ghost", "U65"] {
            assert_eq!(c.site.irs.resolve(&SystemUser::new(unknown)), None);
        }
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
        step(&mut a, 0.0);
        step(&mut b, 0.0);
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
    fn an_overriding_site_also_resolves_the_grid_users_it_does_not_name() {
        let sc = GridScenario::national_testbed(&[("U65", 0.5), ("U30", 0.5)], 1);
        let local_policy = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![
                PolicyNode::user("local-hpc", 0.8),
                PolicyNode::user("U65", 0.2),
            ],
        ))
        .unwrap();
        let mut spec = sc.clusters[0].clone();
        spec.policy_override = Some(local_policy);
        let mut overriding = SimCluster::new(0, &spec, &sc);
        let mut plain = SimCluster::new(1, &sc.clusters[1], &sc);
        let resolve = |c: &mut SimCluster, name: &str| c.site.irs.resolve(&SystemUser::new(name));
        for name in ["local-hpc", "U65", "U30"] {
            let found = resolve(&mut overriding, &format!("sys-{name}"));
            assert_eq!(
                found,
                Some(GridUser::new(name)),
                "{name} at the overriding site"
            );
        }
        assert_eq!(resolve(&mut plain, "sys-local-hpc"), None);
        for c in [&mut overriding, &mut plain] {
            for unknown in ["sys-ghost", "ghost", "U65"] {
                assert_eq!(resolve(c, unknown), None, "{unknown}");
            }
        }
    }

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
