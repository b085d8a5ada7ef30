//! Shared experiment runners: standard scenarios, traces, and derived
//! measurements used by the registry's experiments and the integration tests.

use crate::cli::Shape;
use crate::sweep::{cycle_trace, parallel_sweep, uniform_trace, SWEEP_USERS};
use aequus_services::ParticipationMode;
use aequus_sim::{synthetic_users, GridScenario, GridSimulation, SimResult};
use aequus_telemetry::RunProfile;
use aequus_workload::users::{baseline_policy_shares, nonoptimal_policy_shares};
use aequus_workload::{test_trace, TestTraceConfig, Trace};
use std::time::Instant;

/// Default job count for full-fidelity runs (the paper's trace size).
pub const PAPER_JOBS: usize = 43_200;

/// The balance tolerance used for convergence reporting (max per-user
/// deviation of decayed usage share from the policy target). The paper does
/// not quantify its balance band; 0.12 absorbs the fluctuation "natural to
/// fairshare" on the dominant user's ~0.65 share across seeds.
pub const BALANCE_EPS: f64 = 0.12;

/// Dwell time a balance window must last to count as convergence.
pub const BALANCE_DWELL_S: f64 = 1800.0;

/// Generate the paper's baseline trace: 43,200 jobs, 6 h, 95% of 240 cores.
pub fn baseline_trace(jobs: usize, seed: u64) -> Trace {
    test_trace(&TestTraceConfig {
        total_jobs: jobs,
        seed,
        ..Default::default()
    })
}

/// Run the baseline scenario (Fig. 10a shape): six clusters × 40 hosts,
/// policy = actual usage shares, percental projection, k = 0.5.
pub fn run_baseline(jobs: usize, seed: u64) -> SimResult {
    run_baseline_on(jobs, seed, 1)
}

/// [`run_baseline`] on `threads` shard workers — same results (the engine
/// is thread-count deterministic), different wall clock.
pub fn run_baseline_on(jobs: usize, seed: u64, threads: usize) -> SimResult {
    let scenario =
        GridScenario::national_testbed(&baseline_policy_shares(), seed).with_threads(threads);
    let trace = baseline_trace(jobs, seed);
    GridSimulation::new(scenario).run(&trace, 1800.0)
}

/// Run a compact fully-traced scenario: every usage report roots a causal
/// span tree, gossip hops carry the context across sites, and every traced
/// served query captures replayable decision provenance. Two clusters keep
/// the explain tool's replay fast while still exercising cross-site hops.
pub fn run_traced(jobs: usize, seed: u64) -> SimResult {
    let mut scenario =
        GridScenario::national_testbed(&baseline_policy_shares(), seed).with_tracing();
    scenario.clusters.truncate(2);
    let trace = baseline_trace(jobs, seed);
    GridSimulation::new(scenario).run(&trace, 1800.0)
}

/// Outcome of the update-delay experiment (Fig. 11).
#[derive(Debug, Clone, Copy)]
pub struct UpdateDelayOutcome {
    /// Baseline convergence time as a fraction of its test length.
    pub baseline_fraction: f64,
    /// 10×-scaled convergence time as a fraction of its test length.
    pub scaled_fraction: f64,
}

impl UpdateDelayOutcome {
    /// Relative reduction of the (relative) convergence time in the scaled
    /// case — the paper reports 10–15%.
    pub fn relative_improvement(&self) -> f64 {
        if self.baseline_fraction <= 0.0 {
            return 0.0;
        }
        1.0 - self.scaled_fraction / self.baseline_fraction
    }
}

/// Run the Fig. 11 experiment: the baseline trace and the same trace
/// time-scaled ×`factor` (arrival times and durations), with the *same*
/// absolute service delays — so the delays are relatively `factor`× shorter
/// in the scaled run.
pub fn run_update_delay(jobs: usize, factor: f64, seed: u64) -> UpdateDelayOutcome {
    let trace = baseline_trace(jobs, seed);
    let scenario = GridScenario::national_testbed(&baseline_policy_shares(), seed);

    let base_len = 6.0 * 3600.0;
    let base = GridSimulation::new(scenario.clone()).run(&trace, 1800.0);
    let base_conv = base
        .metrics
        .convergence_time(BALANCE_EPS, BALANCE_DWELL_S)
        .unwrap_or(base_len);

    let scaled_trace = trace.time_scaled(factor);
    // Decay must scale with the workload so the *measured* share window
    // covers the same relative span; the service delays stay absolute.
    let mut scaled_scenario = scenario;
    if let aequus_core::DecayPolicy::Exponential { half_life_s } = scaled_scenario.fairshare.decay {
        scaled_scenario.fairshare.decay = aequus_core::DecayPolicy::Exponential {
            half_life_s: half_life_s * factor,
        };
    }
    scaled_scenario.sample_interval_s *= factor;
    scaled_scenario.tick_interval_s *= factor.min(4.0); // keep RMS responsive
    let scaled = GridSimulation::new(scaled_scenario).run(&scaled_trace, 1800.0 * factor);
    let scaled_conv = scaled
        .metrics
        .convergence_time(BALANCE_EPS, BALANCE_DWELL_S * factor)
        .unwrap_or(base_len * factor);

    UpdateDelayOutcome {
        baseline_fraction: base_conv / base_len,
        scaled_fraction: scaled_conv / (base_len * factor),
    }
}

/// Run the Fig. 12 experiment: workload as baseline, but policy targets
/// 70/20/8/2 — misaligned with the actual 65.25/30.49/2.86/1.40 usage.
pub fn run_nonoptimal(jobs: usize, seed: u64) -> SimResult {
    let scenario = GridScenario::national_testbed(&nonoptimal_policy_shares(), seed);
    let trace = baseline_trace(jobs, seed);
    GridSimulation::new(scenario).run(&trace, 1800.0)
}

/// Run the §IV-A-4 experiment: of six sites, site 1 only *reads* global
/// usage data (contributes nothing) and site 2 only uses *local* data for
/// prioritization (but contributes).
pub fn run_partial_participation(jobs: usize, seed: u64) -> SimResult {
    let mut scenario = GridScenario::national_testbed(&baseline_policy_shares(), seed);
    scenario.clusters[1].participation = ParticipationMode::ReadOnly;
    scenario.clusters[2].participation = ParticipationMode::LocalOnly;
    let trace = baseline_trace(jobs, seed);
    GridSimulation::new(scenario).run(&trace, 1800.0)
}

/// Run the Fig. 13 experiment: U3's job share raised to 45.5%, burst at T/3,
/// policy = the bursty usage shares (47/38.5/12/2.5).
pub fn run_bursty(jobs: usize, seed: u64) -> SimResult {
    run_bursty_on(jobs, seed, 1)
}

/// [`run_bursty`] on `threads` shard workers.
pub fn run_bursty_on(jobs: usize, seed: u64, threads: usize) -> SimResult {
    let policy: Vec<(&str, f64)> = aequus_workload::users::bursty_usage_shares()
        .iter()
        .map(|(u, s)| (u.name(), *s))
        .collect();
    let scenario = GridScenario::national_testbed(&policy, seed).with_threads(threads);
    let trace = test_trace(&TestTraceConfig {
        total_jobs: jobs,
        ..TestTraceConfig::bursty(seed)
    });
    GridSimulation::new(scenario).run(&trace, 1800.0)
}

/// The chaos-calibration grid (see `tests/chaos.rs`): `sites` clusters of
/// 4 nodes on fast cadences (30 s publishes, 15 s ack timeouts, 60 s usage
/// slots) so faults land between publishes, and small retention so outages
/// overflow into resync/snapshot traffic. No faults, no health monitoring:
/// the `health` experiment adds those per gate.
pub fn health_chaos_scenario(seed: u64, sites: usize) -> GridScenario {
    GridScenario::national_testbed(&baseline_policy_shares(), seed)
        .sites(sites.max(2))
        .nodes_per_site(4)
        .compressed()
        .tight_retry(8, 8)
}

/// When the chaos fault plan partitions site 1.
pub const HEALTH_OUTAGE_S: (f64, f64) = (300.0, 600.0);

/// The fault plan `health --check` gates on: 30% gossip drops plus a 300 s
/// outage of site 1 while jobs are still submitting. With the chaos grid's
/// cadences the outage spans several missed delivery opportunities, so the
/// staleness SLO fires and resolves within the run.
pub fn health_chaos_faults() -> aequus_sim::FaultPlan {
    aequus_sim::FaultPlan {
        drop_probability: 0.30,
        outages: vec![aequus_sim::Outage {
            cluster: 1,
            from_s: HEALTH_OUTAGE_S.0,
            to_s: HEALTH_OUTAGE_S.1,
        }],
        crashes: vec![],
    }
}

/// Run the chaos-calibration grid under [`health_chaos_faults`] with health
/// monitoring on and the 48-job alert-calibration trace. `overlay` selects
/// the gossip topology (default full mesh) — hierarchical overlays populate
/// the health report's per-depth convergence-lag rollup.
pub fn run_health_chaos(
    seed: u64,
    sites: usize,
    overlay: Option<aequus_services::OverlayTopology>,
) -> SimResult {
    let mut sc = health_chaos_scenario(seed, sites);
    if let Some(topology) = overlay {
        sc.overlay = topology;
    }
    sc.faults = health_chaos_faults();
    run_chaos_grid(sc.with_health(aequus_telemetry::SloConfig::default()))
}

/// Run a [`health_chaos_scenario`] on the 48-job alert-calibration trace.
pub fn run_chaos_grid(sc: GridScenario) -> SimResult {
    GridSimulation::new(sc).run(&uniform_trace(48, 15.0, 40.0), 1800.0)
}

/// Run a baseline with injected faults: gossip drops and one site outage.
pub fn run_with_faults(jobs: usize, drop_probability: f64, seed: u64) -> SimResult {
    let scenario = GridScenario::national_testbed(&baseline_policy_shares(), seed)
        .drops(drop_probability)
        .outage(3, 3600.0, 7200.0);
    let trace = baseline_trace(jobs, seed);
    GridSimulation::new(scenario).run(&trace, 1800.0)
}

/// The highest priority `user` reached over the run (−∞ if never sampled).
pub fn peak_priority(result: &SimResult, user: &str) -> f64 {
    let series = result.metrics.priority_series(user);
    series
        .iter()
        .map(|(_, p)| *p)
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Utilization over the steady window (trimming ramp-up and drain): mean of
/// samples between `lo_frac` and `hi_frac` of the run.
pub fn steady_utilization(result: &SimResult, lo_frac: f64, hi_frac: f64) -> f64 {
    let samples = result.metrics.samples();
    if samples.is_empty() {
        return 0.0;
    }
    let end = result.end_s;
    let in_window: Vec<f64> = samples
        .iter()
        .filter(|s| s.t_s >= lo_frac * end && s.t_s <= hi_frac * end)
        .map(|s| s.utilization)
        .collect();
    if in_window.is_empty() {
        0.0
    } else {
        in_window.iter().sum::<f64>() / in_window.len() as f64
    }
}

/// One measured point of the reliability fault sweep.
#[derive(Debug, Clone, Copy)]
pub struct FaultSweepPoint {
    /// Per-delivery drop probability injected into the exchange transport.
    pub drop_probability: f64,
    /// Earliest time from which all site usage views stay within 1e-6 of
    /// each other through the end of the run (`None` = never converged).
    pub convergence_s: Option<f64>,
    /// Run end (submit horizon + drain).
    pub end_s: f64,
    /// Total reliability-layer retransmissions across all sites.
    pub retries: u64,
    /// Sequence gaps receivers detected.
    pub seq_gaps: u64,
    /// Anti-entropy range pulls issued.
    pub resyncs: u64,
    /// Cumulative-snapshot fallbacks (history compacted past the gap).
    pub snapshots: u64,
    /// Cross-site view divergence at the final sample (core-seconds).
    pub final_divergence: f64,
}

/// Sweep the exchange drop rate and measure how long the reliability layer
/// (ack/retry/backoff + anti-entropy) takes to re-converge every site's view
/// of grid usage, plus the protocol traffic it took to get there.
///
/// The workload is bounded on purpose: views can only fully agree once the
/// grid quiesces, so — unlike the paper-trace baselines with their
/// heavy-tailed durations — the sweep uses fixed-length jobs over a 3 h
/// horizon and drains long past the last completion, publish interval, and
/// retry backoff. Convergence time then measures the *protocol*, not
/// workload stragglers.
pub fn run_fault_sweep(jobs: usize, drop_rates: &[f64], seed: u64) -> Vec<FaultSweepPoint> {
    let horizon_s = 10_800.0;
    let trace = cycle_trace(
        &SWEEP_USERS,
        jobs,
        |i| i as f64 * horizon_s / jobs.max(1) as f64,
        |i| 180.0 + 60.0 * (i % 4) as f64,
    );
    // Each drop rate is an independent simulation — sweep them in parallel.
    parallel_sweep(drop_rates, |&drop_probability| {
        let scenario = GridScenario::national_testbed(&baseline_policy_shares(), seed)
            .with_telemetry()
            .drops(drop_probability);
        let result = GridSimulation::new(scenario).run(&trace, 3600.0);
        let total = |name: &str| -> u64 {
            result
                .site_telemetry
                .iter()
                .map(|s| s.counters.get(name).copied().unwrap_or(0))
                .sum()
        };
        FaultSweepPoint {
            drop_probability,
            convergence_s: result.metrics.view_convergence_time(1e-6),
            end_s: result.end_s,
            retries: total("aequus_uss_retries_total"),
            seq_gaps: total("aequus_uss_seq_gaps_total"),
            resyncs: total("aequus_uss_resyncs_total"),
            snapshots: total("aequus_uss_snapshots_total"),
            final_divergence: result
                .metrics
                .samples()
                .last()
                .map(|s| s.usage_view_divergence)
                .unwrap_or(f64::NAN),
        }
    })
}

/// One seed of the crash-recovery comparison: the identical crash plan run
/// twice — once with the durable per-site store (recovery = checkpoint
/// install + WAL replay, then anti-entropy only for the crash-window
/// delta) and once volatile (recovery = surcharged cumulative peer
/// snapshots). The convergence-time gap is the store's recovery advantage.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPoint {
    /// Scenario seed.
    pub seed: u64,
    /// View convergence time of the store-backed run.
    pub durable_convergence_s: Option<f64>,
    /// View convergence time of the snapshot-only run.
    pub volatile_convergence_s: Option<f64>,
    /// `volatile - durable` when both converged: seconds of catch-up the
    /// WAL replay saved.
    pub advantage_s: Option<f64>,
    /// WAL frames the crashed site replayed on recovery.
    pub frames_replayed: u64,
    /// Torn tails truncated (one per simulated crash).
    pub torn_tails: u64,
    /// Checkpoints the crashed site's store wrote over the run.
    pub checkpoints: u64,
    /// Cumulative snapshots peers served in the durable run.
    pub durable_snapshots: u64,
    /// Cumulative snapshots peers served in the volatile run.
    pub volatile_snapshots: u64,
}

/// The recovery testbed: the chaos suite's compressed 3-cluster grid with
/// a mid-workload crash of site 2 and a snapshot-transfer surcharge, so
/// bulk catch-up is visibly more expensive than incremental repair. The
/// retry history is sized into the window that separates the recovery
/// paths — deep enough that peers can retry every crash-window summary,
/// too shallow to reach back to sequence 1 for a from-scratch resync.
fn recovery_scenario(seed: u64, durable: bool) -> GridScenario {
    let sc = GridScenario::national_testbed(&baseline_policy_shares(), seed)
        .with_telemetry()
        .with_snapshot_transfer(240.0)
        .sites(3)
        .nodes_per_site(4)
        .compressed()
        .tight_retry(12, 16)
        .crash(2, 400.0, 700.0);
    if durable {
        sc.with_durable_store()
    } else {
        sc
    }
}

/// Quantify WAL-replay recovery against snapshot-only catch-up: for each
/// seed, run the same crash plan durable and volatile and compare view
/// convergence times. `jobs` scales the fixed-shape workload (one 40 s
/// single-core job every 15 s); the default 48 keeps the submission window
/// wrapped around the crash so convergence measures recovery, not
/// stragglers.
pub fn run_recovery_sweep(jobs: usize, seeds: &[u64]) -> Vec<RecoveryPoint> {
    let trace = uniform_trace(jobs, 15.0, 40.0);
    let horizon_s = (jobs as f64 * 15.0 + 1100.0).max(1800.0);
    // Seeds are independent; sweep them in parallel (the durable/volatile
    // pair inside each seed stays sequential — it shares nothing anyway,
    // but two runs per thread keeps the fan-out modest).
    parallel_sweep(seeds, |&seed| {
        let snapshots_served = |r: &SimResult| -> u64 {
            r.site_telemetry
                .iter()
                .filter_map(|s| s.counters.get("aequus_uss_snapshots_total"))
                .sum()
        };
        let durable = GridSimulation::new(recovery_scenario(seed, true)).run(&trace, horizon_s);
        let volatile = GridSimulation::new(recovery_scenario(seed, false)).run(&trace, horizon_s);
        let stats = durable.site_store_stats[2].unwrap_or_default();
        let d = durable.metrics.view_convergence_time(1e-6);
        let v = volatile.metrics.view_convergence_time(1e-6);
        RecoveryPoint {
            seed,
            durable_convergence_s: d,
            volatile_convergence_s: v,
            advantage_s: d.zip(v).map(|(d, v)| v - d),
            frames_replayed: stats.frames_replayed,
            torn_tails: stats.torn_tails,
            checkpoints: stats.checkpoints,
            durable_snapshots: snapshots_served(&durable),
            volatile_snapshots: snapshots_served(&volatile),
        }
    })
}

/// One timed point of the scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Shard-worker threads.
    pub threads: usize,
    /// Wall-clock seconds for the run.
    pub wall_s: f64,
    /// Of `wall_s`, the seconds inside `GridSimulation::run` — what the
    /// root stages (`stage::ROOTS`) time between them.
    pub run_s: f64,
    /// Events the engine processed.
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Wall-clock speedup over the 1-thread point.
    pub speedup_x: f64,
    /// Jobs completed (must be identical at every thread count).
    pub completed: u64,
}

/// The scaling sweep's outcome: timings plus the determinism cross-check.
#[derive(Debug, Clone)]
pub struct ScaleSweep {
    /// One point per requested worker count, in input order.
    pub points: Vec<ScalePoint>,
    /// `None` when every multi-thread run replayed the serial run exactly
    /// (within 1e-9); otherwise the first discrepancy, described.
    pub mismatch: Option<String>,
    /// One `(threads, profile)` pair per point, in input order.
    pub profiles: Vec<(usize, RunProfile)>,
}

impl ScaleSweep {
    /// Best wall-clock speedup across the measured worker counts.
    pub fn best_speedup(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.speedup_x)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Cross-worker-count determinism of the folded profile: `None` when
    /// every point's folded stacks are byte-identical to the first point's
    /// (the profiler's schedule-derived view must not depend on how the
    /// schedule was executed); otherwise the first differing pair, named.
    pub fn folded_mismatch(&self) -> Option<String> {
        let mut iter = self.profiles.iter();
        let (base_threads, first) = iter.next()?;
        let reference = first.to_folded();
        for (threads, profile) in iter {
            if profile.to_folded() != reference {
                return Some(format!(
                    "folded profile at {threads} workers differs from the \
                     {base_threads}-worker reference"
                ));
            }
        }
        None
    }
}

/// True when two readings differ beyond 1e-9 — NaN (a missing counterpart)
/// always counts as a difference.
fn differs(x: f64, y: f64) -> bool {
    let d = (x - y).abs();
    d.is_nan() || d >= 1e-9
}

/// Compare a multi-thread run against the serial reference; `None` = match.
fn scale_mismatch(serial: &SimResult, parallel: &SimResult, threads: usize) -> Option<String> {
    if serial.total_completed() != parallel.total_completed() {
        return Some(format!(
            "threads={threads}: completed {} vs {}",
            serial.total_completed(),
            parallel.total_completed()
        ));
    }
    if serial.events_processed != parallel.events_processed {
        return Some(format!(
            "threads={threads}: events {} vs {}",
            serial.events_processed, parallel.events_processed
        ));
    }
    for (site, (a, b)) in serial
        .site_usage_views
        .iter()
        .zip(&parallel.site_usage_views)
        .enumerate()
    {
        for (user, x) in a {
            let y = b.get(user).copied().unwrap_or(f64::NAN);
            if differs(*x, y) {
                return Some(format!(
                    "threads={threads}: site {site} view for {user:?}: {x} vs {y}"
                ));
            }
        }
    }
    let (sa, sb) = (serial.metrics.samples(), parallel.metrics.samples());
    if sa.len() != sb.len() {
        return Some(format!(
            "threads={threads}: {} vs {} samples",
            sa.len(),
            sb.len()
        ));
    }
    for (x, y) in sa.iter().zip(sb) {
        if differs(x.utilization, y.utilization)
            || differs(x.usage_view_divergence, y.usage_view_divergence)
            || x.completed != y.completed
        {
            return Some(format!("threads={threads}: sample at t={} differs", x.t_s));
        }
    }
    None
}

/// Time the same large scenario (seed 42, over a one-hour horizon) at each
/// worker count of `threads` — which must start with 1, the speedup
/// baseline — and verify every multi-thread run is seed-for-seed identical
/// to the serial one. The measured speedup is honest wall clock — on a
/// single-core host it hovers around (or below) 1×, which is exactly what
/// the parallelism-aware CI gate expects.
///
/// Every run runs telemetry, so it is profiled: the sweep's headline
/// number is the *speedup ratio*, which the instruments' bounded overhead
/// cancels out of, and in exchange every point carries a Chrome trace, a
/// folded profile whose cross-thread-count byte-equality the `--check`
/// gate asserts, and the wall time of every stage.
pub fn run_scale_sweep(shape: &Shape, threads: &[usize]) -> ScaleSweep {
    let users = synthetic_users(shape.users);
    let horizon_s = 3600.0;
    let trace = cycle_trace(
        &users,
        shape.jobs,
        |i| i as f64 * horizon_s / shape.jobs.max(1) as f64,
        |_| 120.0,
    );
    let scenario = |threads: usize| {
        GridScenario::equal_share_users(shape.users, 42)
            .sites(shape.sites)
            .nodes_per_site(shape.nodes_per_site)
            .with_metrics_user_cap(8)
            .with_threads(threads)
            .with_telemetry()
    };
    let mut points = Vec::new();
    let mut profiles = Vec::new();
    let mut mismatch = None;
    let mut serial: Option<SimResult> = None;
    for &threads in threads {
        let start = Instant::now();
        let sim = GridSimulation::new(scenario(threads));
        let ran = Instant::now();
        let mut result = sim.run(&trace, 1800.0);
        let run_s = ran.elapsed().as_secs_f64();
        let wall_s = start.elapsed().as_secs_f64().max(1e-9);
        if let Some(profile) = result.profile.take() {
            profiles.push((threads, profile));
        }
        let base_wall = points.first().map_or(wall_s, |p: &ScalePoint| p.wall_s);
        points.push(ScalePoint {
            threads,
            wall_s,
            run_s,
            events: result.events_processed,
            events_per_sec: result.events_processed as f64 / wall_s,
            speedup_x: base_wall / wall_s,
            completed: result.total_completed(),
        });
        match &serial {
            None => serial = Some(result),
            Some(reference) => {
                if mismatch.is_none() {
                    mismatch = scale_mismatch(reference, &result, threads);
                }
            }
        }
    }
    ScaleSweep {
        points,
        mismatch,
        profiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_small_run_converges() {
        let result = run_baseline(20_000, 3);
        assert!(result.total_completed() > 19_000);
        assert!(
            result
                .metrics
                .convergence_time(BALANCE_EPS, BALANCE_DWELL_S)
                .is_some(),
            "baseline must reach a balance window"
        );
    }

    #[test]
    fn bursty_u3_priority_bound() {
        // §IV-A-5: U3 max priority = 0.5·(1 + 0.12) = 0.56.
        let result = run_bursty(8000, 3);
        let max_u3 = peak_priority(&result, "U3");
        assert!(max_u3 <= 0.56 + 1e-9, "{max_u3}");
        assert!(
            max_u3 > 0.40,
            "U3 idles pre-burst, priority must rise: {max_u3}"
        );
    }

    #[test]
    fn faulted_run_still_completes() {
        let result = run_with_faults(4000, 0.2, 5);
        assert!(result.total_completed() as f64 > 3800.0);
    }
}
