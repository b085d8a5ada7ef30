//! `health` — render and gate a run's fairness-health report.

use crate::cli::{Args, Gates};
use crate::{
    health_chaos_faults, health_chaos_scenario, uniform_trace, HEALTH_OUTAGE_S, SWEEP_USERS,
};
use aequus_sim::{FaultPlan, GridSimulation, SimResult};
use aequus_telemetry::slo::alerts_to_jsonl;
use aequus_telemetry::SloConfig;
use aequus_workload::{Trace, TraceJob};
use std::hint::black_box;
use std::time::Instant;

/// The SLO engine + health map may cost at most 5% sim wall time.
const OVERHEAD_BUDGET: f64 = 1.05;
const OVERHEAD_ROUNDS: usize = 12;

fn base_seed() -> u64 {
    std::env::var("AEQUUS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// The 3-site chaos grid with health monitoring on, under `faults`, on the
/// 48-job alert-calibration trace.
fn health_run(faults: FaultPlan, threads: usize) -> SimResult {
    let mut sc = health_chaos_scenario(base_seed(), 3)
        .with_health(SloConfig::default())
        .with_threads(threads);
    sc.faults = faults;
    GridSimulation::new(sc).run(&uniform_trace(48, 15.0, 40.0), 1800.0)
}

fn render(result: &SimResult) {
    let report = result.health_report.as_ref().expect("health enabled");
    println!("{}", report.render());
    if result.alerts.is_empty() {
        println!("alerts: none");
    } else {
        println!("alerts:");
        print!("{}", alerts_to_jsonl(&result.alerts));
    }
}

/// A production-density trace for the overhead gate: the health subsystem's
/// cost is per sample barrier, so the honest overhead question is "what does
/// it cost on a run where the simulator is actually working?" — a 2000-job
/// backlog on the chaos grid, not the 48-job alert-calibration trace whose
/// whole run is ~1 ms of wall time.
fn dense_trace() -> Trace {
    Trace::new(
        (0..2000)
            .map(|i| TraceJob {
                user: SWEEP_USERS[i % 4].to_string(),
                submit_s: i as f64 * 1.5,
                duration_s: 120.0,
                cores: 2,
            })
            .collect(),
    )
}

/// Sim wall seconds of one dense chaos run with the given health
/// configuration.
fn timed_run(health: bool) -> f64 {
    let mut sc = health_chaos_scenario(base_seed(), 3);
    sc.faults = health_chaos_faults();
    if health {
        sc = sc.with_health(SloConfig::default());
    }
    let trace = dense_trace();
    let start = Instant::now();
    black_box(GridSimulation::new(sc).run(&trace, 1800.0));
    start.elapsed().as_secs_f64()
}

/// Runs the chaos grid (3 sites, 30% drop + a 300 s outage) with health
/// monitoring on and prints the gossip health map plus the SLO alert
/// stream; `--check` then verifies the subsystem's contract end to end
/// (the four gates below). Seeded by `AEQUUS_TEST_SEED` (default 42), like
/// the test suites.
pub(super) fn health(args: &Args, gates: &mut Gates) {
    let (outage_from_s, outage_to_s) = HEALTH_OUTAGE_S;
    // The headline run: chaos faults, health on.
    let chaos = health_run(health_chaos_faults(), 1);
    println!(
        "# aequus-health: chaos grid (30% drop + outage {outage_from_s:.0}-{outage_to_s:.0}s), \
         seed {}",
        base_seed()
    );
    render(&chaos);
    if !args.check {
        return;
    }

    println!("# --check gates");

    // Gate 1: the fault-free baseline fires zero alerts.
    let clean = health_run(FaultPlan::none(), 1);
    let clean_firing = clean
        .alerts
        .iter()
        .filter(|a| a.transition == "firing")
        .count();
    gates.check(
        "fault-free baseline quiet",
        clean_firing == 0 && clean.alerts.is_empty(),
        &format!(
            "{} alert events, {} firing",
            clean.alerts.len(),
            clean_firing
        ),
    );

    // Gate 2: the chaos run fires a staleness alert for a link into the
    // outaged site and resolves it after recovery.
    let fired = chaos
        .alerts
        .iter()
        .find(|a| a.transition == "firing" && a.rule.starts_with("staleness:"));
    let resolved = fired.is_some_and(|f| {
        chaos
            .alerts
            .iter()
            .any(|a| a.rule == f.rule && a.transition == "resolved" && a.t_s > f.t_s)
    });
    gates.check(
        "a staleness alert fires under chaos and resolves after recovery",
        resolved,
        &fired.map_or("none fired".to_string(), |f| {
            format!(
                "{} fired t={:.0}s, detection lag {:.0}s",
                f.rule,
                f.t_s,
                f.t_s - outage_from_s
            )
        }),
    );

    // Gate 3: health report and alert stream are byte-identical across
    // worker counts.
    let report_json = chaos.health_report.as_ref().expect("report").to_json();
    let alerts_jsonl = alerts_to_jsonl(&chaos.alerts);
    let mut identical = true;
    for threads in [2, 4] {
        let par = health_run(health_chaos_faults(), threads);
        identical &= par.health_report.as_ref().expect("report").to_json() == report_json
            && alerts_to_jsonl(&par.alerts) == alerts_jsonl;
    }
    gates.check(
        "health report + alert stream byte-identical at 1/2/4 workers",
        identical,
        "",
    );

    // Gate 4: the health subsystem costs ≤ 5% sim wall time on a
    // production-density run. Interleaved min-of-N — comparing the two
    // arms' floors discards scheduler and allocator noise, which on a
    // ~20 ms run is far larger than the subsystem's real cost.
    timed_run(false);
    timed_run(true);
    let mut off = f64::INFINITY;
    let mut on = f64::INFINITY;
    let mut pair_ratios = Vec::with_capacity(OVERHEAD_ROUNDS);
    for _ in 0..OVERHEAD_ROUNDS {
        let o = timed_run(false);
        let h = timed_run(true);
        off = off.min(o);
        on = on.min(h);
        pair_ratios.push(h / o);
    }
    pair_ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
    let median = pair_ratios[OVERHEAD_ROUNDS / 2];
    let ratio = on / off;
    gates.check(
        &format!("SLO engine + health map overhead within {OVERHEAD_BUDGET:.2}x"),
        ratio <= OVERHEAD_BUDGET,
        &format!(
            "ratio {ratio:.4}, off {:.1}ms on {:.1}ms, median pair ratio {median:.4}",
            off * 1e3,
            on * 1e3
        ),
    );
}
