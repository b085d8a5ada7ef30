//! The grid simulation coordinator: builds one shard per site, pre-routes
//! the workload trace, drives the shards through the epoch-barrier schedule
//! (contiguous runs of sites, all but the first on per-epoch scoped
//! threads), and assembles the results — the in-silico equivalent of the
//! paper's 7-machine test bed, scaled out.
//!
//! All simulation mechanics live in [`crate::shard`] (per-site event
//! processing) and [`crate::barrier`] (epoch schedule + epoch loop); this
//! module only wires them together. The worker count never changes results:
//! see DESIGN.md §4h for the determinism argument.

use crate::barrier::{drive, EpochSchedule};
use crate::cluster::SimCluster;
use crate::dispatch::Dispatcher;
use crate::event::Event;
use crate::metrics::{MetricsLog, Sample, ShardSample};
use crate::scenario::GridScenario;
use crate::shard::{SampleSpec, Shard};
use aequus_core::{GridUser, SiteId};
use aequus_rms::SchedulerStats;
use aequus_services::{HealthMap, HealthReport, LinkSide, StoreStats};
use aequus_telemetry::flight::{dump_jsonl, FlightRecorder};
use aequus_telemetry::provenance::ProvenanceRecord;
use aequus_telemetry::slo::StarvationClock;
use aequus_telemetry::stage::STAGES;
use aequus_telemetry::{
    AlertEvent, RunProfile, ShardProfile, ShardProfiler, SloEngine, SloRule, Snapshot, SpanRecord,
    Telemetry,
};
use aequus_workload::Trace;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The outcome of a simulation run.
#[derive(Debug)]
pub struct SimResult {
    /// Time-series metrics.
    pub metrics: MetricsLog,
    /// Final per-cluster scheduler statistics.
    pub cluster_stats: Vec<SchedulerStats>,
    /// Final mean utilization per cluster over the whole run.
    pub cluster_utilization: Vec<f64>,
    /// Core capacity per cluster (weights for grid-wide utilization).
    pub cluster_capacities: Vec<u32>,
    /// Simulated end time, seconds.
    pub end_s: f64,
    /// Events processed (engine observability).
    pub events_processed: u64,
    /// Final telemetry snapshot of each site's registry, in cluster order.
    /// Empty when the scenario ran without telemetry.
    pub site_telemetry: Vec<Snapshot>,
    /// Final snapshot of the engine's own registry: its `stage::STAGES`
    /// wall timers, nothing else. `None` when the scenario ran without
    /// telemetry.
    pub engine_telemetry: Option<Snapshot>,
    /// Each site's final raw per-user view of grid usage (local + merged
    /// remote), in cluster order — what the chaos suite's convergence
    /// invariant compares against a fault-free run.
    pub site_usage_views: Vec<BTreeMap<GridUser, f64>>,
    /// Each site's bounded span store at the end of the run, in cluster
    /// order. `SpanTree::assemble` merges them into end-to-end causal trees.
    /// Empty per site unless the scenario enabled tracing.
    pub site_spans: Vec<Vec<SpanRecord>>,
    /// Each site's captured decision provenance, in cluster order. Empty
    /// per site unless the scenario enabled tracing.
    pub site_provenance: Vec<Vec<ProvenanceRecord>>,
    /// JSONL flight records, one per SLO alert transition that survived the
    /// recorder's dedup window, in emission order. Empty without a
    /// configured flight recorder.
    pub flight_records: Vec<String>,
    /// Each site's durable-store health counters (cumulative across crash
    /// incarnations), in cluster order. `None` per site unless the scenario
    /// attached a store.
    pub site_store_stats: Vec<Option<StoreStats>>,
    /// The continuous-profiling artifact: per-shard stage accounting,
    /// barrier-wait attribution, queue high-water marks, gossip bytes on
    /// the wire, and every `stage::STAGES` wall histogram summed over the
    /// sites' and the engine's registries. `None` unless the scenario ran
    /// telemetry ([`GridScenario::with_telemetry`]).
    /// Export with [`RunProfile::to_chrome_trace`] / [`RunProfile::to_folded`].
    pub profile: Option<RunProfile>,
    /// The finalized gossip health report: per-link staleness/bytes/retry
    /// aggregates and the per-depth convergence-lag attribution. `None`
    /// unless the scenario enabled health monitoring
    /// ([`GridScenario::with_health`]). Deterministic at any worker count.
    pub health_report: Option<HealthReport>,
    /// The SLO alert stream: every lifecycle transition
    /// (pending/firing/resolved/cleared) stamped with sim time, in emission
    /// order. Empty unless the scenario enabled health monitoring.
    /// Bit-identical across worker counts.
    pub alerts: Vec<AlertEvent>,
}

impl SimResult {
    /// Total jobs completed across clusters.
    pub fn total_completed(&self) -> u64 {
        self.cluster_stats.iter().map(|s| s.completed).sum()
    }

    /// Total jobs submitted across clusters.
    pub fn total_submitted(&self) -> u64 {
        self.cluster_stats.iter().map(|s| s.submitted).sum()
    }

    /// Grid-wide mean utilization: capacity-weighted mean over clusters, so
    /// heterogeneous fleets (one 544-core site among 40-core sites) report
    /// the true grid-wide busy fraction rather than a per-site average.
    pub fn mean_utilization(&self) -> f64 {
        let total: u64 = self.cluster_capacities.iter().map(|&c| u64::from(c)).sum();
        if total == 0 {
            return 0.0;
        }
        self.cluster_utilization
            .iter()
            .zip(&self.cluster_capacities)
            .map(|(u, &c)| u * c as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Per-user completed usage across all clusters.
    pub fn usage_by_user(&self) -> BTreeMap<GridUser, f64> {
        let mut out: BTreeMap<GridUser, f64> = BTreeMap::new();
        for s in &self.cluster_stats {
            for (u, v) in &s.usage_by_user {
                *out.entry(u.clone()).or_insert(0.0) += v;
            }
        }
        out
    }
}

/// The simulation coordinator.
pub struct GridSimulation {
    scenario: Arc<GridScenario>,
    shards: Vec<Shard>,
    /// The engine's own telemetry domain: its stage timers, separate from
    /// the per-site registries.
    telemetry: Telemetry,
    /// Handle onto the reference site's registry (shared `Arc`), so the
    /// flight recorder can dump site-0 spans from the barrier hook
    /// while `barrier::drive` owns the shards.
    site0_telemetry: Telemetry,
    /// The SLO alert stream's sink, when the scenario configured one.
    recorder: Option<FlightRecorder>,
}

impl GridSimulation {
    /// Build the grid from a scenario: one shard per site, each owning its
    /// cluster stack, event queue, and fault stream.
    pub fn new(scenario: GridScenario) -> Self {
        let telemetry = if scenario.telemetry {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let build = telemetry.histogram("aequus_sim_build_s").start_timer();
        let mut clusters: Vec<SimCluster> = scenario
            .clusters
            .iter()
            .enumerate()
            .map(|(i, spec)| SimCluster::new(i, spec, &scenario))
            .collect();
        // Register the reliable-exchange topology: each site delivers to the
        // peers that read global data and expects summaries from the peers
        // that contribute it (participation modes, §IV-A-4).
        let n = clusters.len();
        let overlay = scenario.overlay;
        for (i, cluster) in clusters.iter_mut().enumerate() {
            // Links come from the overlay topology (full mesh by default);
            // participation modes then filter within the linked set. A site
            // expects summaries from linked peers that either contribute
            // their own data or forward others' (overlay interior nodes).
            let nbrs = overlay.neighbors(i, n);
            let tx: Vec<SiteId> = nbrs
                .iter()
                .copied()
                .filter(|&j| scenario.clusters[j].participation.reads_global())
                .map(|j| SiteId(j as u32))
                .collect();
            let rx: Vec<SiteId> = nbrs
                .iter()
                .copied()
                .filter(|&j| {
                    scenario.clusters[j].participation.contributes() || overlay.forwards(j, n)
                })
                .map(|j| SiteId(j as u32))
                .collect();
            cluster.site.configure_exchange(
                &tx,
                &rx,
                scenario.retry,
                scenario.stale_policy,
                scenario.seed,
            );
            cluster.site.uss.set_forwarding(overlay.forwards(i, n));
        }
        let recorder = scenario.flight.map(FlightRecorder::new);
        let site0_telemetry = clusters
            .first()
            .map(|c| c.telemetry.clone())
            .unwrap_or_else(Telemetry::disabled);
        let scenario = Arc::new(scenario);
        let spec = Arc::new(SampleSpec::from_scenario(&scenario));
        // One run-start instant shared by every shard profiler, so all
        // trace spans land on a single wall-clock timeline.
        let origin = Instant::now();
        let shards = clusters
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let prof = ShardProfiler::new(i, scenario.telemetry, origin);
                Shard::new(i, c, Arc::clone(&scenario), Arc::clone(&spec), prof)
            })
            .collect();
        build.observe();
        Self {
            scenario,
            shards,
            telemetry,
            site0_telemetry,
            recorder,
        }
    }

    /// Run the trace through the grid, continuing `drain_s` seconds past the
    /// last submission so queued work completes.
    pub fn run(mut self, trace: &Trace, drain_s: f64) -> SimResult {
        let wall = |name: &str| self.telemetry.histogram(name);
        let preroute = wall("aequus_sim_preroute_s").start_timer();
        let end_s = trace.last_submit() + drain_s;
        let tracked = self.scenario.tracked_users();
        let mut metrics = MetricsLog::new(tracked.iter().cloned().collect());

        // Pre-route every arrival to its shard, consuming the dispatcher in
        // submission-time order (ties by trace index) — the exact order the
        // serial event loop popped arrivals in, so placement is unchanged.
        let mut dispatcher = Dispatcher::new(
            self.scenario.routing,
            &self.scenario.capacities(),
            self.scenario.seed,
        );
        let jobs = trace.jobs();
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            jobs[a]
                .submit_s
                .total_cmp(&jobs[b].submit_s)
                .then(a.cmp(&b))
        });
        for idx in order {
            let job = &jobs[idx];
            if job.submit_s > end_s {
                break;
            }
            let target = dispatcher.pick();
            self.shards[target]
                .queue
                .push(job.submit_s, Event::JobArrival(job.clone()));
            metrics.count_submission(job.submit_s);
        }
        for shard in &mut self.shards {
            shard.queue.push(0.0, Event::ClusterTick);
        }
        preroute.observe();

        let h_assemble = wall("aequus_sim_assemble_s");
        let lookahead = if self.scenario.timings.exchange_latency_s > 0.0 {
            self.scenario.timings.exchange_latency_s
        } else {
            self.scenario.tick_interval_s.max(1e-9)
        };
        let schedule = EpochSchedule::new(end_s, lookahead, self.scenario.sample_interval_s);
        let total_cores = self.scenario.total_cores();
        let mut recorder = self.recorder.take();
        let mut flight_records: Vec<String> = Vec::new();
        let site0_telemetry = self.site0_telemetry.clone();

        // Fairness-health monitoring: resolve auto thresholds from the
        // scenario's cadences, then fix the rule set up front — fairness and
        // starvation per tracked user, the grid-wide divergence and
        // convergence-lag rules, and one staleness rule per directed overlay
        // link. A fixed rule set means a fixed observation order, so the
        // alert stream is bit-identical at any worker count.
        let n_sites = self.scenario.clusters.len();
        let mut health_links: Vec<(u32, u32)> = Vec::new();
        if self.scenario.health.is_some() {
            for i in 0..n_sites {
                for j in self.scenario.overlay.neighbors(i, n_sites) {
                    if self.scenario.clusters[j].participation.reads_global() {
                        health_links.push((i as u32, j as u32));
                    }
                }
            }
        }
        let mut slo = self.scenario.health.clone().map(|mut cfg| {
            if cfg.staleness_threshold_s <= 0.0 {
                // Three missed delivery opportunities end-to-end.
                cfg.staleness_threshold_s = 3.0
                    * (self.scenario.timings.uss_publish_interval_s
                        + self.scenario.timings.exchange_latency_s
                        + self.scenario.retry.ack_timeout_s);
            }
            if cfg.divergence_threshold <= 0.0 {
                // The structural divergence floor: the biggest site can
                // accrue a full slot of usage locally before a publish +
                // exchange round carries it to the peers.
                let max_cores = self
                    .scenario
                    .clusters
                    .iter()
                    .map(crate::scenario::ClusterSpec::cores)
                    .max()
                    .unwrap_or(1);
                cfg.divergence_threshold = 2.0
                    * f64::from(max_cores)
                    * (self.scenario.usage_slot_s
                        + self.scenario.timings.uss_publish_interval_s
                        + self.scenario.timings.exchange_latency_s);
            }
            let mut rules = Vec::new();
            for (name, _) in &tracked {
                rules.push(SloRule {
                    id: format!("fairness:{name}"),
                    threshold: cfg.fairness_threshold,
                });
            }
            for (name, _) in &tracked {
                rules.push(SloRule {
                    id: format!("starvation:{name}"),
                    threshold: cfg.starvation_age_s,
                });
            }
            rules.push(SloRule {
                id: "divergence".to_string(),
                threshold: cfg.divergence_threshold,
            });
            rules.push(SloRule {
                id: "convergence_lag".to_string(),
                threshold: cfg.convergence_lag_s,
            });
            for &(from, to) in &health_links {
                rules.push(SloRule {
                    id: format!("staleness:{from}->{to}"),
                    threshold: cfg.staleness_threshold_s,
                });
            }
            SloEngine::new(cfg, rules)
        });
        let slo_starv_frac = slo.as_ref().map_or(0.0, |e| e.config().starvation_frac);
        let slo_div_eps = slo
            .as_ref()
            .map_or(0.0, |e| e.config().divergence_threshold);
        // Rule layout: `n` fairness rules, `n` starvation rules, divergence,
        // convergence lag, then one staleness rule per link — whose index is
        // kept here, so the barrier hook fills the value vector with one
        // pass over the observation rows instead of a per-link search.
        let n = tracked.len();
        let staleness_base = 2 * n + 2;
        let link_rule_idx: BTreeMap<(u32, u32), usize> = health_links
            .iter()
            .enumerate()
            .map(|(k, &link)| (link, staleness_base + k))
            .collect();
        let mut health_map = HealthMap::default();
        let mut starvation = StarvationClock::default();
        let mut diverged_since: Option<f64> = None;

        let at_barrier = |now: f64, fragments: Vec<ShardSample>| {
            let _assemble = h_assemble.start_timer();
            let sample = Sample::assemble(now, fragments, total_cores);
            if let Some(engine) = slo.as_mut() {
                health_map.observe_all(&sample.link_health);
                // One value per rule, in the order the rules were built;
                // staleness rules default to 0.0 (no outstanding data).
                let mut values = vec![0.0; engine.rules().len()];
                for (k, (name, target)) in tracked.iter().enumerate() {
                    let achieved = sample.users.get(name).map_or(0.0, |u| u.usage_share);
                    values[k] = (achieved - target).abs();
                    values[n + k] = starvation.age(k, achieved, *target, slo_starv_frac, now);
                }
                values[2 * n] = sample.usage_view_divergence;
                // Convergence lag: how long the views have continuously
                // disagreed beyond the divergence threshold.
                if sample.usage_view_divergence > slo_div_eps {
                    diverged_since.get_or_insert(now);
                } else {
                    diverged_since = None;
                }
                values[2 * n + 1] = diverged_since.map_or(0.0, |s| now - s);
                // One pass over the tx rows fills the observed links.
                for o in &sample.link_health {
                    if let LinkSide::Tx { staleness_s, .. } = o.side {
                        if let Some(&k) = link_rule_idx.get(&(o.from, o.to)) {
                            values[k] = staleness_s;
                        }
                    }
                }
                // The recorder is the alert stream's sink: a transition it
                // has not seen inside its dedup window dumps the reference
                // site's retained telemetry as JSONL.
                for ev in engine.observe(now, &values) {
                    let seen = recorder
                        .as_mut()
                        .and_then(|rec| rec.observe_alert(&ev.rule, ev.transition, ev.value, now));
                    if let Some(a) = seen {
                        flight_records.push(dump_jsonl(&a, &site0_telemetry));
                    }
                }
            }
            metrics.record(sample);
        };

        let (mut shards, mailbox_hwm) = drive(
            std::mem::take(&mut self.shards),
            self.scenario.num_threads,
            schedule,
            end_s,
            &self.telemetry,
            at_barrier,
        );
        let finish = wall("aequus_sim_finish_s").start_timer();

        let events_processed =
            shards.iter().map(|s| s.stats.events).sum::<u64>() + metrics.samples().len() as u64;
        let (health_report, alerts) = match slo {
            Some(engine) => (Some(health_map.finalize()), engine.into_events()),
            None => (None, Vec::new()),
        };

        let cluster_utilization: Vec<f64> = shards
            .iter_mut()
            .map(|s| s.cluster.rms.utilization(end_s))
            .collect();
        let mut result = SimResult {
            metrics,
            cluster_stats: shards
                .iter()
                .map(|s| s.cluster.rms.stats().clone())
                .collect(),
            cluster_utilization,
            cluster_capacities: self.scenario.capacities(),
            end_s,
            events_processed,
            site_telemetry: shards
                .iter()
                .filter_map(|s| s.cluster.telemetry.snapshot())
                .collect(),
            engine_telemetry: None,
            site_usage_views: shards
                .iter()
                .map(|s| s.cluster.site.uss.grid_view())
                .collect(),
            site_spans: shards.iter().map(|s| s.cluster.telemetry.spans()).collect(),
            site_provenance: shards
                .iter()
                .map(|s| s.cluster.telemetry.provenance_records())
                .collect(),
            site_store_stats: shards
                .iter()
                .map(|s| s.cluster.site.store_stats())
                .collect(),
            flight_records,
            profile: None,
            health_report,
            alerts,
        };
        let mut profile = self.scenario.telemetry.then(|| RunProfile {
            shards: shards.iter().map(shard_profile).collect(),
            services: BTreeMap::new(),
            mailbox_hwm,
        });
        // Tearing the sites down is part of the run: time it in the finish.
        drop(shards);
        finish.observe();
        // Every `STAGES` wall histogram of the sites' and the engine's
        // registries, summed: a histogram's *count* is deterministic (how
        // often the stage ran is a function of the schedule), its *sum* is
        // wall seconds.
        result.engine_telemetry = self.telemetry.snapshot();
        if let Some(rp) = &mut profile {
            for snap in result.site_telemetry.iter().chain(&result.engine_telemetry) {
                for stage in STAGES {
                    let Some(h) = stage.wall.and_then(|metric| snap.histograms.get(metric)) else {
                        continue;
                    };
                    let e = rp.services.entry(stage.name.to_string()).or_default();
                    e.calls += h.count;
                    e.wall_ns = e
                        .wall_ns
                        .saturating_add((h.sum.max(0.0) * 1e9).min(u64::MAX as f64) as u64);
                }
            }
        }
        result.profile = profile;
        result
    }
}

/// One shard's profile: its profiler overlaid with its wire ledger, queue
/// high-water mark and plain event counters.
fn shard_profile(s: &Shard) -> ShardProfile {
    let mut p = s.prof.to_profile();
    p.queue_hwm = s.queue.high_water() as u64;
    for (dest, &(bytes, msgs)) in s.link_wire.iter().enumerate() {
        if msgs > 0 {
            p.link_bytes.insert(dest, bytes);
            let wire = p.stages.entry("gossip.wire".to_string()).or_default();
            wire.calls += msgs;
            wire.bytes += bytes;
        }
    }
    for (name, calls) in [
        ("events.arrivals", s.stats.arrivals),
        ("events.ticks", s.stats.ticks),
        ("events.gossip", s.stats.gossip_deliveries),
        ("gossip.dropped", s.stats.dropped),
        ("gossip.partitioned", s.stats.partitioned),
    ] {
        p.stages.entry(name.to_string()).or_default().calls += calls;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_workload::users::baseline_policy_shares;
    use aequus_workload::TraceJob;

    fn small_scenario() -> GridScenario {
        let mut s = GridScenario::national_testbed(&baseline_policy_shares(), 7);
        // Shrink for unit-test speed: 2 clusters × 4 cores.
        s.clusters.truncate(2);
        for c in &mut s.clusters {
            c.nodes = 4;
        }
        s
    }

    fn uniform_trace(n: usize, spacing: f64, dur: f64) -> Trace {
        Trace::new(
            (0..n)
                .map(|i| TraceJob {
                    user: ["U65", "U30", "U3", "Uoth"][i % 4].to_string(),
                    submit_s: i as f64 * spacing,
                    duration_s: dur,
                    cores: 1,
                })
                .collect(),
        )
    }

    #[test]
    fn all_jobs_complete() {
        let trace = uniform_trace(40, 10.0, 30.0);
        let result = GridSimulation::new(small_scenario()).run(&trace, 2000.0);
        assert_eq!(result.total_submitted(), 40);
        assert_eq!(result.total_completed(), 40);
        assert!(result.events_processed > 0);
    }

    #[test]
    fn usage_conservation() {
        // Work completed == work submitted (all jobs single-core).
        let trace = uniform_trace(24, 5.0, 50.0);
        let result = GridSimulation::new(small_scenario()).run(&trace, 3000.0);
        let total: f64 = result.usage_by_user().values().sum();
        assert!((total - trace.total_work()).abs() < 1e-6, "{total}");
    }

    #[test]
    fn deterministic_given_seed() {
        let trace = uniform_trace(30, 7.0, 40.0);
        let r1 = GridSimulation::new(small_scenario()).run(&trace, 1000.0);
        let r2 = GridSimulation::new(small_scenario()).run(&trace, 1000.0);
        assert_eq!(r1.total_completed(), r2.total_completed());
        assert_eq!(r1.metrics.samples().len(), r2.metrics.samples().len());
        for (a, b) in r1.metrics.samples().iter().zip(r2.metrics.samples()) {
            assert_eq!(a.utilization, b.utilization);
            assert_eq!(a.users, b.users);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        // The tentpole invariant at unit scale: 5 sites in uneven runs (3 + 2
        // on 2 threads, 2 + 2 + 1 on 3) must replay the serial run
        // bit-for-bit, folded profile included (the dedicated equivalence
        // suite covers the chaos matrix; this is the smoke check). Barrier
        // wait is wall time read only with more than one run: a serial
        // profile has none, a threaded one one per shard per epoch.
        let trace = uniform_trace(40, 7.0, 40.0);
        let run = |threads: usize| {
            let sc = small_scenario().sites(5).with_telemetry();
            GridSimulation::new(sc.with_threads(threads)).run(&trace, 1500.0)
        };
        let serial = run(1);
        let serial_profile = serial.profile.as_ref().unwrap();
        for shard in &serial_profile.shards {
            assert!(!shard.stages.contains_key("barrier.wait"));
        }
        for threads in [2, 3] {
            let parallel = run(threads);
            assert_eq!(serial.total_completed(), parallel.total_completed());
            assert_eq!(serial.events_processed, parallel.events_processed);
            assert_eq!(serial.site_usage_views, parallel.site_usage_views);
            for (a, b) in serial
                .metrics
                .samples()
                .iter()
                .zip(parallel.metrics.samples())
            {
                assert_eq!(a.users, b.users);
                assert_eq!(a.utilization, b.utilization);
                assert_eq!(a.per_site_priority, b.per_site_priority);
            }
            let profile = parallel.profile.as_ref().unwrap();
            assert_eq!(profile.to_folded(), serial_profile.to_folded());
            for shard in &profile.shards {
                let epochs = shard.stages["epoch"].calls;
                assert!(epochs > 0);
                assert_eq!(
                    shard.stages["barrier.wait"].calls, epochs,
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn gossip_spreads_usage_between_sites() {
        // All jobs land on cluster 0 (cluster 1 has zero capacity), yet
        // cluster 1 learns the usage through the exchange.
        let mut sc = small_scenario();
        sc.clusters[1].nodes = 0;
        let trace = uniform_trace(16, 5.0, 60.0);
        let result = GridSimulation::new(sc).run(&trace, 2000.0);
        let last = result.metrics.samples().last().unwrap();
        // Site 1's tree has non-trivial priorities (it saw remote usage).
        let site1 = &last.per_site_priority[1];
        assert!(
            site1.values().any(|p| p.abs() > 1e-6),
            "site 1 should see remote usage: {site1:?}"
        );
    }

    #[test]
    fn telemetry_tracer_p99_within_configured_pipeline_bound() {
        // Sustained submissions keep libaequus queries flowing long enough
        // for sampled traces to complete the whole delay chain; the measured
        // end-to-end p99 must then respect the §IV-A-2 worst-case bound.
        let sc = small_scenario().with_telemetry();
        let bound = sc.timings.worst_case_pipeline_s();
        let trace = uniform_trace(160, 10.0, 30.0);
        let result = GridSimulation::new(sc).run(&trace, 2000.0);
        assert_eq!(result.site_telemetry.len(), 2, "one snapshot per site");
        let completed: u64 = result
            .site_telemetry
            .iter()
            .filter_map(|s| s.counters.get("aequus_tracer_completed_total"))
            .sum();
        assert!(completed > 0, "some sampled traces must complete");
        for snap in &result.site_telemetry {
            let e2e = match snap.histograms.get("aequus_tracer_end_to_end_s") {
                Some(h) if h.count > 0 => h,
                _ => continue,
            };
            assert!(
                e2e.p99 <= bound * 1.0625 + 1e-9,
                "e2e p99 {} exceeds configured worst case {bound} \
                 (bucket width allows 6.25% overestimate)",
                e2e.p99
            );
            // Each stage histogram exists alongside the end-to-end one.
            for name in STAGES.iter().filter_map(|s| s.delay) {
                assert!(snap.histograms.contains_key(name), "missing {name}");
            }
        }
        // The engine registry saw the epoch loop; the profile counts ticks.
        let engine = result.engine_telemetry.expect("engine telemetry on");
        assert!(engine.histograms["aequus_sim_epoch_s"].count > 0);
        let profile = result.profile.expect("profile assembled");
        assert!(profile
            .shards
            .iter()
            .all(|s| s.stages["events.ticks"].calls > 0));
    }

    #[test]
    fn full_tracing_builds_cross_site_causal_trees() {
        use aequus_core::Explanation;
        use aequus_telemetry::SpanTree;
        let sc = small_scenario().with_tracing();
        let trace = uniform_trace(60, 10.0, 30.0);
        let result = GridSimulation::new(sc).run(&trace, 2000.0);
        // Every site holds a span store; merged, they form causal trees
        // whose deepest chain crosses the whole pipeline.
        assert_eq!(result.site_spans.len(), 2);
        assert!(result.site_spans.iter().all(|s| !s.is_empty()));
        let stores: Vec<&[aequus_telemetry::SpanRecord]> =
            result.site_spans.iter().map(Vec::as_slice).collect();
        let trees = SpanTree::assemble(&stores);
        assert!(!trees.is_empty());
        assert!(
            trees.iter().any(|t| t.depth() >= 4),
            "some trace reaches report → ingest → publish → … depth, got {:?}",
            trees.iter().map(SpanTree::depth).max()
        );
        // Gossip linked at least one trace across sites.
        fn sites_of(t: &SpanTree, out: &mut std::collections::BTreeSet<u32>) {
            out.insert(t.record.site);
            for c in &t.children {
                sites_of(c, out);
            }
        }
        let cross_site = trees.iter().any(|t| {
            let mut sites = std::collections::BTreeSet::new();
            sites_of(t, &mut sites);
            sites.len() >= 2
        });
        assert!(cross_site, "no causal tree spans two sites");
        // Every captured explanation replays its served factor bit-for-bit.
        let mut replayed = 0;
        for recs in &result.site_provenance {
            for rec in recs {
                let ex = Explanation::from_json(&rec.json).expect("parseable provenance");
                assert!(ex.verify(), "tampered/lossy capture for {}", rec.user);
                assert_eq!(
                    ex.replay().to_bits(),
                    rec.factor.to_bits(),
                    "replay mismatch for {}",
                    rec.user
                );
                replayed += 1;
            }
        }
        assert!(replayed > 0, "provenance was captured");
    }

    #[test]
    fn flight_recorder_dumps_on_a_divergence_alert() {
        use aequus_telemetry::flight::AnomalyConfig;
        use aequus_telemetry::SloConfig;
        // One contributing site is partitioned long enough for views to
        // diverge past a tiny threshold → the `divergence` SLO rule alerts,
        // the recorder dumps, and the dump's first line names the rule.
        let partitioned = |sc: GridScenario| {
            let mut sc = sc.with_tracing();
            sc.faults.outages.push(crate::faults::Outage {
                cluster: 1,
                from_s: 0.0,
                to_s: 4000.0,
            });
            sc
        };
        let sc = partitioned(small_scenario())
            .with_health(SloConfig {
                divergence_threshold: 1e-6,
                ..SloConfig::default()
            })
            .with_flight_recorder(AnomalyConfig::default());
        let trace = uniform_trace(40, 10.0, 30.0);
        let result = GridSimulation::new(sc).run(&trace, 3000.0);
        let head = |dump: &String| dump.lines().next().unwrap().to_string();
        let dump = (result.flight_records.iter())
            .find(|d| head(d).contains("rule divergence "))
            .expect("a divergence alert must dump a flight record");
        assert!(head(dump).contains("\"type\":\"anomaly\""));
        assert!(dump.contains("\"type\":\"span\""), "spans ride along");
        // The alert stream and the record name the same rule id.
        assert!(result.alerts.iter().any(|a| a.rule == "divergence"));

        // The recorder alone implies health monitoring.
        let sc = partitioned(small_scenario()).with_flight_recorder(AnomalyConfig::default());
        assert!(sc.health.is_some());
        let result = GridSimulation::new(sc).run(&trace, 3000.0);
        assert!(!result.alerts.is_empty() && !result.flight_records.is_empty());
    }

    #[test]
    fn durable_store_journals_and_recovers_through_crash() {
        let mut sc = small_scenario().with_durable_store();
        sc.faults.crashes.push(crate::faults::Outage {
            cluster: 1,
            from_s: 400.0,
            to_s: 700.0,
        });
        let trace = uniform_trace(40, 10.0, 30.0);
        let result = GridSimulation::new(sc).run(&trace, 2000.0);
        assert_eq!(result.site_store_stats.len(), 2);
        let s1 = result.site_store_stats[1].expect("store attached");
        assert!(s1.frames_appended > 0, "{s1:?}");
        assert_eq!(s1.torn_tails, 1, "one crash, one torn tail: {s1:?}");
        assert!(
            s1.frames_replayed > 0,
            "recovery replayed the journal: {s1:?}"
        );
        // The un-crashed site journals too but never replays.
        let s0 = result.site_store_stats[0].expect("store attached");
        assert_eq!((s0.torn_tails, s0.frames_replayed), (0, 0), "{s0:?}");
    }

    #[test]
    fn store_off_reports_no_stats() {
        let trace = uniform_trace(8, 10.0, 30.0);
        let result = GridSimulation::new(small_scenario()).run(&trace, 500.0);
        assert!(result.site_store_stats.iter().all(Option::is_none));
    }

    #[test]
    fn telemetry_off_yields_no_snapshots() {
        let trace = uniform_trace(8, 10.0, 30.0);
        let result = GridSimulation::new(small_scenario()).run(&trace, 1000.0);
        assert!(result.site_telemetry.is_empty());
        assert!(result.engine_telemetry.is_none());
    }

    #[test]
    fn utilization_reported_in_unit_range() {
        let trace = uniform_trace(60, 2.0, 100.0);
        let result = GridSimulation::new(small_scenario()).run(&trace, 4000.0);
        for s in result.metrics.samples() {
            assert!((0.0..=1.0).contains(&s.utilization));
        }
        assert!(result.mean_utilization() > 0.0);
    }

    #[test]
    fn profiled_run_assembles_run_profile() {
        let trace = uniform_trace(40, 10.0, 30.0);
        let sc = small_scenario().with_telemetry();
        let result = GridSimulation::new(sc).run(&trace, 2000.0);
        let profile = result.profile.expect("profile assembled");
        assert_eq!(profile.shards.len(), 2);
        for sp in &profile.shards {
            assert!(sp.stages["events.ticks"].calls > 0);
            assert!(sp.stages["gossip.wire"].bytes > 0, "wire bytes accounted");
            assert!(!sp.link_bytes.is_empty(), "per-link budget present");
            assert!(sp.queue_hwm > 0);
            assert!(sp.stages["epoch"].calls > 0 && !sp.spans.is_empty());
        }
        assert!(profile.services["uss.ingest"].calls > 0);
        assert!(profile.services["uss.merge"].calls > 0);
        assert!(profile.mailbox_hwm > 0);
    }

    #[test]
    fn the_engine_registry_holds_only_its_stage_timers() {
        // A fact is recorded once: the shard counts and high-water marks
        // live in the profile, the health report and alerts in the result,
        // so the engine's own registry keeps only its `STAGES` wall timers
        // — with health on, and a crash, too.
        let sc = small_scenario()
            .with_telemetry()
            .with_health(aequus_telemetry::SloConfig::default())
            .crash(1, 400.0, 700.0);
        let result = GridSimulation::new(sc).run(&uniform_trace(40, 10.0, 30.0), 2000.0);
        assert!(result.health_report.is_some());
        let engine = result.engine_telemetry.expect("telemetry on");
        assert!(engine.counters.is_empty(), "{:?}", engine.counters);
        assert!(engine.gauges.is_empty(), "{:?}", engine.gauges);
        let walls: Vec<&str> = STAGES.iter().filter_map(|s| s.wall).collect();
        for name in engine.histograms.keys() {
            assert!(walls.contains(&name.as_str()), "{name} is no stage timer");
        }
        assert!(engine.histograms["aequus_sim_assemble_s"].count > 0);
    }

    #[test]
    fn unprofiled_run_has_no_profile() {
        let trace = uniform_trace(8, 10.0, 30.0);
        let result = GridSimulation::new(small_scenario()).run(&trace, 500.0);
        assert!(result.profile.is_none());
    }

    #[test]
    fn health_monitoring_yields_report_and_quiet_alerts() {
        use aequus_telemetry::SloConfig;
        let trace = uniform_trace(40, 10.0, 30.0);
        // An 8-core grid needs a longer fairness warmup than the default:
        // with so few cores the first completions swing shares for ~10 min.
        let cfg = SloConfig {
            warmup_s: 600.0,
            ..SloConfig::default()
        };
        let sc = small_scenario().with_health(cfg.clone());
        let result = GridSimulation::new(sc).run(&trace, 2000.0);
        let report = result.health_report.expect("health report assembled");
        assert_eq!(report.links.len(), 2, "both directed links observed");
        assert_eq!(report.depths.len(), 1, "full mesh is one depth class");
        assert!(report.links.iter().all(|l| l.bytes > 0 && l.msgs > 0));
        // Fault-free: nothing fires (early pendings may clear, never fire).
        assert!(
            result.alerts.iter().all(|a| a.transition != "firing"),
            "{:?}",
            result.alerts
        );
        // The report and alert stream are worker-count invariant.
        let par = GridSimulation::new(small_scenario().with_health(cfg).with_threads(2))
            .run(&trace, 2000.0);
        assert_eq!(
            par.health_report.expect("report").to_json(),
            report.to_json()
        );
        assert_eq!(par.alerts, result.alerts);
        // Health off leaves both fields empty.
        let off = GridSimulation::new(small_scenario()).run(&trace, 2000.0);
        assert!(off.health_report.is_none() && off.alerts.is_empty());
    }

    #[test]
    fn mean_utilization_is_capacity_weighted() {
        // A big busy cluster and a tiny idle one: the plain mean would say
        // 50%; the capacity-weighted truth is ~99%.
        let result = SimResult {
            metrics: MetricsLog::default(),
            cluster_stats: vec![],
            cluster_utilization: vec![0.99, 0.0],
            cluster_capacities: vec![990, 10],
            end_s: 0.0,
            events_processed: 0,
            site_telemetry: vec![],
            engine_telemetry: None,
            site_usage_views: vec![],
            site_spans: vec![],
            site_provenance: vec![],
            flight_records: vec![],
            site_store_stats: vec![],
            profile: None,
            health_report: None,
            alerts: vec![],
        };
        assert!((result.mean_utilization() - 0.9801).abs() < 1e-12);
    }
}
