//! Telemetry overhead smoke check: the RMS dispatch hot path (a full
//! `SchedulerCore::advance` over a loaded queue) with a wired telemetry
//! domain must stay within 5% of the disabled-telemetry baseline. Three
//! instrumented modes are gated: metrics-only, causal tracing + provenance
//! enabled-but-unsampled, and full capture (every report traced, provenance
//! recorded). Run with `--check` to exit non-zero when any mode exceeds the
//! budget (the CI gate).

use aequus_core::fairshare::FairshareConfig;
use aequus_core::ids::{JobId, SiteId};
use aequus_core::policy::flat_policy;
use aequus_core::projection::ProjectionKind;
use aequus_core::usage::UsageRecord;
use aequus_core::{GridUser, SystemUser};
use aequus_rms::{
    FactorConfig, Job, LocalFairshare, NodePool, PriorityWeights, ReprioritizePolicy, SchedulerCore,
};
use aequus_services::{AequusSite, ParticipationMode, ServiceTimings};
use aequus_telemetry::tracer::TracerConfig;
use aequus_telemetry::{SpanConfig, Telemetry};
use std::hint::black_box;
use std::time::Instant;

const QUEUE: usize = 2_000;
const ROUNDS: usize = 60;
const WARMUP: usize = 5;
const BUDGET: f64 = 1.05;

fn loaded_scheduler(telemetry: &Telemetry) -> (SchedulerCore, LocalFairshare) {
    let mut sched = SchedulerCore::new(
        SiteId(0),
        NodePool::new(40, 1),
        PriorityWeights::fairshare_only(),
        FactorConfig::default(),
        ReprioritizePolicy::Interval(30.0),
    );
    sched.set_telemetry(telemetry);
    let mut src = LocalFairshare::new(
        flat_policy(&[("a", 0.5), ("b", 0.5)]).unwrap(),
        FairshareConfig::default(),
        ProjectionKind::Percental,
        60.0,
    );
    src.map_identity(SystemUser::new("sa"), GridUser::new("a"));
    src.map_identity(SystemUser::new("sb"), GridUser::new("b"));
    for i in 0..QUEUE as u64 {
        let sys = if i % 2 == 0 { "sa" } else { "sb" };
        sched.submit(
            Job::new(JobId(i), SystemUser::new(sys), 1, 0.0, 500.0),
            &mut src,
            0.0,
        );
    }
    (sched, src)
}

/// One sample: a fresh loaded scheduler, timed through a single advance
/// (prioritization pass + dispatch with backfill). Setup excluded.
fn sample_ns(telemetry: &Telemetry) -> f64 {
    let (mut sched, mut src) = loaded_scheduler(telemetry);
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
    let mut sched = SchedulerCore::new(
        SiteId(0),
        NodePool::new(40, 1),
        PriorityWeights::fairshare_only(),
        FactorConfig::default(),
        ReprioritizePolicy::Interval(30.0),
    );
    sched.set_telemetry(telemetry);
    for i in 0..QUEUE as u64 {
        let sys = if i % 2 == 0 { "sa" } else { "sb" };
        sched.submit(
            Job::new(JobId(i + 1), SystemUser::new(sys), 1, 700.0, 500.0),
            &mut site,
            700.0,
        );
    }
    (sched, site)
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

/// Interleave one baseline and N instrumented configurations so drift
/// (thermal, scheduler) hits all equally; compare minima, the noise-robust
/// statistic. Returns each configuration's ratio to the baseline.
fn measure(sample: fn(&Telemetry) -> f64, baseline: &Telemetry, modes: &[&Telemetry]) -> Vec<f64> {
    for _ in 0..WARMUP {
        sample(baseline);
        for m in modes {
            sample(m);
        }
    }
    let mut off = Vec::with_capacity(ROUNDS);
    let mut on = vec![Vec::with_capacity(ROUNDS); modes.len()];
    for _ in 0..ROUNDS {
        off.push(sample(baseline));
        for (i, m) in modes.iter().enumerate() {
            on[i].push(sample(m));
        }
    }
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let off_min = min(&off);
    on.iter().map(|v| min(v) / off_min).collect()
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let mut failed = false;
    let mut gate = |name: &str, ratio: f64| {
        println!("ratio     {ratio:.4} (budget {BUDGET:.2}) [{name}]");
        if ratio > BUDGET {
            eprintln!("FAIL: {name} overhead {ratio:.4} exceeds budget {BUDGET:.2}");
            failed = true;
        }
    };

    println!("# telemetry overhead: SchedulerCore::advance, {QUEUE} queued jobs");
    let enabled = Telemetry::enabled();
    let ratios = measure(sample_ns, &Telemetry::disabled(), &[&enabled]);
    gate("metrics-only", ratios[0]);
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
    let unsampled = Telemetry::with_full_config(
        TracerConfig::default(),
        256,
        SpanConfig {
            sample_every: 0, // wired but never sampled
            capture_provenance: true,
            ..SpanConfig::default()
        },
    );
    let full = Telemetry::with_full_config(TracerConfig::default(), 256, SpanConfig::full(0));
    let ratios = measure(site_sample_ns, &Telemetry::enabled(), &[&unsampled, &full]);
    gate("tracing-unsampled", ratios[0]);
    gate("tracing-full-capture", ratios[1]);

    if check && failed {
        std::process::exit(1);
    }
    if check {
        println!("OK: within budget");
    }
}
