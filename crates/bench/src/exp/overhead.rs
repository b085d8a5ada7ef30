//! The two hard overhead gates: instrumentation must cost what it says it
//! costs. Both compare interleaved minima — the noise-robust statistic for
//! "how fast can this configuration go".

use crate::backfill::{loaded_queue, loaded_scheduler};
use crate::cli::{Args, Gates};
use crate::{uniform_trace, ScenarioBuilder};
use aequus_core::fairshare::FairshareConfig;
use aequus_core::ids::{JobId, SiteId};
use aequus_core::policy::flat_policy;
use aequus_core::projection::ProjectionKind;
use aequus_core::usage::UsageRecord;
use aequus_core::{GridUser, SystemUser};
use aequus_rms::SchedulerCore;
use aequus_services::{AequusSite, ParticipationMode, ServiceTimings};
use aequus_sim::{GridScenario, GridSimulation};
use aequus_telemetry::{ProfileMode, SpanConfig, Telemetry};
use aequus_workload::users::baseline_policy_shares;
use std::hint::black_box;
use std::time::Instant;

/// Sample every configuration `rounds` times, interleaved so drift (thermal,
/// host scheduler) hits all equally, after `warmup` untimed rounds; returns
/// each configuration's minimum over the first (baseline) one's.
fn min_ratios<C: Copy>(
    sample: impl Fn(C) -> f64,
    configs: &[C],
    warmup: usize,
    rounds: usize,
) -> Vec<f64> {
    let mut mins = vec![f64::INFINITY; configs.len()];
    for round in 0..warmup + rounds {
        for (min, &config) in mins.iter_mut().zip(configs) {
            let ns = sample(config);
            if round >= warmup {
                *min = min.min(ns);
            }
        }
    }
    mins[1..].iter().map(|min| min / mins[0]).collect()
}

/// One overhead gate: `ratio` (instrumented over baseline) within `budget`.
fn budget_gate(gates: &mut Gates, name: &str, ratio: f64, budget: f64) {
    gates.check(
        &format!("{name} overhead within {budget:.2}x"),
        ratio <= budget,
        &format!("ratio {ratio:.4}"),
    );
}

const QUEUE: usize = 2_000;
/// Every instrumented mode of the scheduler hot path: ≤ 5% over its
/// baseline.
const BUDGET: f64 = 1.05;

/// One sample: a fresh loaded scheduler, timed through a single advance
/// (prioritization pass + dispatch with backfill). Setup excluded.
fn sample_ns(telemetry: &Telemetry) -> f64 {
    let (mut sched, mut src) = loaded_scheduler(telemetry, QUEUE);
    let start = Instant::now();
    sched.advance(black_box(&mut src), 1.0);
    black_box(&sched);
    start.elapsed().as_nanos() as f64
}

/// A scheduler whose fairshare source is a full Aequus site with a primed
/// pipeline (tree computed, and in full-capture mode a pending serving
/// trace), so the advance path exercises the span/provenance branches.
fn loaded_site(telemetry: &Telemetry) -> (SchedulerCore, AequusSite) {
    let mut site = AequusSite::new(
        SiteId(0),
        flat_policy(&[("a", 0.5), ("b", 0.5)]).unwrap(),
        FairshareConfig::default(),
        ProjectionKind::Percental,
        ServiceTimings::default(),
        ParticipationMode::Full,
        60.0,
    );
    site.set_telemetry(telemetry);
    site.irs
        .store_mapping(SystemUser::new("sa"), GridUser::new("a"));
    site.irs
        .store_mapping(SystemUser::new("sb"), GridUser::new("b"));
    // Prime: one completed job flows report → ingest → UMS → FCS so the
    // serving path has a real tree to answer from.
    site.report_completion(
        UsageRecord {
            job: JobId(0),
            user: GridUser::new("a"),
            site: SiteId(0),
            cores: 1,
            start_s: 0.0,
            end_s: 100.0,
        },
        100.0,
    );
    for t in [110.0, 300.0, 500.0, 700.0] {
        site.tick(t);
    }
    (loaded_queue(telemetry, &mut site, QUEUE, 1, 700.0), site)
}

/// One site-backed sample: a tick plus a full advance (re-prioritization
/// over the whole queue through `AequusSite::fairshare_factor`, then dispatch).
fn site_sample_ns(telemetry: &Telemetry) -> f64 {
    let (mut sched, mut site) = loaded_site(telemetry);
    let start = Instant::now();
    site.tick(710.0);
    sched.advance(black_box(&mut site), 710.0);
    black_box(&sched);
    start.elapsed().as_nanos() as f64
}

/// Telemetry overhead smoke check on the RMS dispatch hot path (a full
/// `SchedulerCore::advance` over a loaded queue), in three instrumented
/// modes: metrics-only against disabled telemetry, then causal tracing +
/// provenance enabled-but-unsampled and full capture (every report traced,
/// provenance recorded) against metrics-only. Enforced under `--check`.
pub(super) fn telemetry_overhead(args: &Args, gates: &mut Gates) {
    gates.advisory(!args.check);

    println!("# telemetry overhead: SchedulerCore::advance, {QUEUE} queued jobs");
    let enabled = Telemetry::enabled();
    let ratios = min_ratios(sample_ns, &[&Telemetry::disabled(), &enabled], 5, 60);
    budget_gate(gates, "metrics-only", ratios[0], BUDGET);
    let snap = enabled.snapshot().expect("enabled telemetry snapshots");
    println!(
        "instrumented run recorded {} dispatch spans, {} jobs started",
        snap.histograms
            .get("aequus_rms_dispatch_s")
            .map(|h| h.count)
            .unwrap_or(0),
        snap.counters
            .get("aequus_rms_started_total")
            .copied()
            .unwrap_or(0),
    );

    // The tracing modes are compared against the metrics-only telemetry
    // baseline so the ratio isolates the span + provenance increment (the
    // metrics increment itself is gated above).
    println!("# tracing overhead: site-backed advance (span + provenance paths)");
    let unsampled = Telemetry::with_spans(SpanConfig {
        sample_every: 0, // wired but never sampled
        capture_provenance: true,
        ..SpanConfig::default()
    });
    let full = Telemetry::with_spans(SpanConfig::full(0));
    let ratios = min_ratios(
        site_sample_ns,
        &[&Telemetry::enabled(), &unsampled, &full],
        5,
        60,
    );
    budget_gate(gates, "tracing-unsampled", ratios[0], BUDGET);
    budget_gate(gates, "tracing-full-capture", ratios[1], BUDGET);
}

const JOBS: usize = 960;
const ROUNDS: usize = 30;
/// `Counters` promises zero clock reads on the hot path — same budget as
/// the metrics registry.
const COUNTERS_BUDGET: f64 = 1.05;
/// `Full` reads the wall clock at epoch granularity and keeps a bounded
/// span ring; twice the allowance.
const FULL_BUDGET: f64 = 1.10;

/// The compressed 3-site chaos-suite grid, serial, telemetry on — the
/// profiler rides on telemetry, so telemetry-only is the honest baseline.
fn profiled_scenario(mode: ProfileMode) -> GridScenario {
    ScenarioBuilder::testbed(&baseline_policy_shares(), 42)
        .sites(3)
        .nodes_per_site(4)
        .compressed()
        .telemetry()
        .profiling(mode)
        .build()
}

/// One sample: a full simulation of the fixed workload, timed end to end.
/// The trace is dense on purpose (a job every 1.5 s): the profiler's cost
/// is per *epoch*, so the gate must measure epochs that carry a
/// representative amount of work, not idle barrier crossings.
fn simulation_ns(mode: ProfileMode) -> f64 {
    let trace = uniform_trace(JOBS, 0.75, 40.0);
    let start = Instant::now();
    let result = GridSimulation::new(profiled_scenario(mode)).run(&trace, 1800.0);
    black_box(&result);
    start.elapsed().as_nanos() as f64
}

/// Continuous-profiler overhead smoke check: `Counters` mode against the
/// telemetry-only baseline, and `Full` mode (wall timers + the bounded span
/// ring). Enforced under `--check`.
///
/// Unlike `telemetry_overhead`'s microbenchmark of one scheduler advance,
/// the sample here is a whole serial simulation: the profiler hooks live in
/// the engine's epoch loop and the cross-shard send path, which no
/// single-component harness exercises.
pub(super) fn profiler_overhead(args: &Args, gates: &mut Gates) {
    gates.advisory(!args.check);
    println!("# profiler overhead: {JOBS}-job serial simulation, minima over {ROUNDS} rounds");
    let modes = [ProfileMode::Off, ProfileMode::Counters, ProfileMode::Full];
    let ratios = min_ratios(simulation_ns, &modes, 3, ROUNDS);
    budget_gate(gates, "profiler-counters", ratios[0], COUNTERS_BUDGET);
    budget_gate(gates, "profiler-full", ratios[1], FULL_BUDGET);
}
