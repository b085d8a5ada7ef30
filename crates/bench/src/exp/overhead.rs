//! The instrument-cost gates: instrumentation must cost what it says it
//! costs. Two shapes. The scheduler-advance microbench compares interleaved
//! minima — the noise-robust statistic for "how fast can this configuration
//! go" — of an instrumented and a baseline handle. An instrument whose cost
//! is per operation (the profiler here, the SLO engine and health map in
//! `health`) is gated as counted work × unit cost instead: the run's
//! operation counts are schedule-derived, so they are held exactly to
//! `results/instrument_ops.json` at 1, 2 and 4 workers, and one operation's
//! cost comes from a tight loop under an absolute ns/op budget — a faster
//! engine cannot fail either half.

use crate::backfill::{loaded_queue, loaded_scheduler};
use crate::cli::{Args, Gates};
use crate::{health_chaos_faults, health_chaos_scenario, run_chaos_grid};
use aequus_core::fairshare::FairshareConfig;
use aequus_core::ids::{JobId, SiteId};
use aequus_core::policy::flat_policy;
use aequus_core::projection::ProjectionKind;
use aequus_core::usage::UsageRecord;
use aequus_core::{GridUser, SystemUser};
use aequus_rms::SchedulerCore;
use aequus_services::{AequusSite, ParticipationMode, ServiceTimings};
use aequus_telemetry::{ShardProfiler, Telemetry};
use std::hint::black_box;
use std::time::Instant;

/// Untimed, then timed rounds of [`min_ratio`]. A round is two ~0.2 ms
/// samples, and this host slows by up to 1.4x for a fraction of a second
/// at a time: the rounds must outlast such a stretch for both minima to
/// find their floor. Consecutive `check` runs with `metrics-only` over
/// budget: 3 of 11 at 60 rounds (0.03 s), 2 of 30 at 240, 1 of 20 at
/// 2,000 (2 s) — the budget is the same 1.05 throughout.
const WARMUP: usize = 5;
const ROUNDS: usize = 2_000;

/// Sample `baseline` and `instrumented` [`ROUNDS`] times each, interleaved
/// so drift (thermal, host scheduler) hits both equally; returns the
/// instrumented minimum over the baseline's.
fn min_ratio(sample: impl Fn(&Telemetry) -> f64, baseline: &Telemetry, on: &Telemetry) -> f64 {
    let (mut base_ns, mut on_ns) = (f64::INFINITY, f64::INFINITY);
    for round in 0..WARMUP + ROUNDS {
        let (b, i) = (sample(baseline), sample(on));
        if round >= WARMUP {
            (base_ns, on_ns) = (base_ns.min(b), on_ns.min(i));
        }
    }
    on_ns / base_ns
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
/// pipeline (tree computed, and with tracing on a pending serving
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
/// `SchedulerCore::advance` over a loaded queue): metrics-only against
/// disabled telemetry, then tracing (every report traced, provenance
/// recorded) against metrics-only. Enforced under `--check`.
pub(super) fn telemetry_overhead(args: &Args, gates: &mut Gates) {
    gates.advisory(!args.check);

    println!("# telemetry overhead: SchedulerCore::advance, {QUEUE} queued jobs");
    let enabled = Telemetry::enabled();
    let ratio = min_ratio(sample_ns, &Telemetry::disabled(), &enabled);
    budget_gate(gates, "metrics-only", ratio, BUDGET);
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

    // Tracing is compared against the metrics-only telemetry baseline so
    // the ratio isolates the span + provenance increment (the metrics
    // increment itself is gated above).
    println!("# tracing overhead: site-backed advance (span + provenance paths)");
    let ratio = min_ratio(site_sample_ns, &Telemetry::enabled(), &Telemetry::traced(0));
    budget_gate(gates, "tracing-full-capture", ratio, BUDGET);
}

/// The recorded operation counts, in the source tree the binary was built
/// from.
const RECORDED_OPS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/instrument_ops.json"
);

/// Gate one surface's operation counts. `runs` holds the same
/// `(key, count)` rows read off runs at 1, 2 and 4 workers: they must
/// agree, and each row must be a line of `results/instrument_ops.json` — a
/// PR that means to move one edits that file in the same diff and says why
/// (the `results/sim_keys.json` contract).
pub(super) fn ops_gate(gates: &mut Gates, surface: &str, runs: &[Vec<(&str, u64)>]) {
    let recorded = std::fs::read_to_string(RECORDED_OPS).unwrap_or_default();
    let lines: Vec<String> = runs[0]
        .iter()
        .map(|(key, count)| format!("\"{key}\": {count}"))
        .collect();
    let on_file = |line: &String| {
        recorded
            .lines()
            .any(|l| l.trim().trim_end_matches(',') == line)
    };
    gates.check(
        &format!("{surface} operation counts equal results/instrument_ops.json at 1/2/4 workers"),
        runs.iter().all(|r| r == &runs[0]) && lines.iter().all(on_file),
        &lines.join(", "),
    );
}

const BATCHES: usize = 24;
const OPS_PER_BATCH: usize = 10_000;

/// Gate one operation's unit cost: `batch(n)` performs `n` operations; the
/// cost is the minimum over [`BATCHES`] batches of [`OPS_PER_BATCH`] (after
/// one untimed batch), held under the absolute `budget_ns` and printed with
/// the batches' spread.
pub(super) fn unit_cost_gate(
    gates: &mut Gates,
    name: &str,
    budget_ns: f64,
    mut batch: impl FnMut(usize),
) {
    batch(OPS_PER_BATCH);
    let mut per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch(OPS_PER_BATCH);
            start.elapsed().as_nanos() as f64 / OPS_PER_BATCH as f64
        })
        .collect();
    per_op.sort_by(f64::total_cmp);
    gates.check(
        &format!("{name} costs at most {budget_ns:.0} ns"),
        per_op[0] <= budget_ns,
        &format!(
            "min {:.1} ns, median {:.1}, max {:.1} over {BATCHES} batches of {OPS_PER_BATCH}",
            per_op[0],
            per_op[BATCHES / 2],
            per_op[BATCHES - 1]
        ),
    );
}

/// One epoch span: two clock reads, the `epoch` stage row and a ring push.
const EPOCH_SPAN_BUDGET_NS: f64 = 250.0;
/// One wire record: two map probes and three adds.
const WIRE_RECORD_BUDGET_NS: f64 = 50.0;

/// The profiler's operations in one run of the chaos-calibration grid on
/// `threads` workers: epoch spans opened and wire records taken, summed
/// over shards.
fn profiler_ops(threads: usize) -> Vec<(&'static str, u64)> {
    let mut sc = health_chaos_scenario(42, 3)
        .with_profiling()
        .with_threads(threads);
    sc.faults = health_chaos_faults();
    let profile = run_chaos_grid(sc).profile.expect("profiled run");
    let calls = |stage: &str| -> u64 {
        let per_shard = profile.shards.iter().filter_map(|s| s.stages.get(stage));
        per_shard.map(|st| st.calls).sum()
    };
    vec![
        ("profiler.epoch_spans", calls("epoch")),
        ("profiler.wire_records", calls("gossip.wire")),
    ]
}

/// Continuous-profiler cost gate: the operations a profiled run performs —
/// deterministic, so exact — and what one of each costs. Enforced under
/// `--check`.
pub(super) fn profiler_overhead(args: &Args, gates: &mut Gates) {
    gates.advisory(!args.check);
    println!("# profiler cost: operation counts of the profiled chaos grid, then ns per operation");
    let runs: Vec<_> = [1, 2, 4].into_iter().map(profiler_ops).collect();
    ops_gate(gates, "profiler", &runs);
    let mut prof = ShardProfiler::new(0, true, Instant::now());
    unit_cost_gate(
        gates,
        "profiler-full epoch span",
        EPOCH_SPAN_BUDGET_NS,
        |n| {
            for epoch in 0..n as u64 {
                prof.begin_epoch(epoch, epoch as f64, epoch);
                prof.end_epoch(black_box(epoch + 3));
            }
        },
    );
    unit_cost_gate(
        gates,
        "profiler-full wire record",
        WIRE_RECORD_BUDGET_NS,
        |n| {
            for i in 0..n {
                prof.add_wire(black_box(i % 8), 64);
            }
        },
    );
    black_box(prof.to_profile());
}
