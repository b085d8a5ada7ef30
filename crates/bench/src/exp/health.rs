//! `health` — render and gate a run's fairness-health report.

use super::overhead::{ops_gate, unit_cost_gate};
use crate::cli::{Args, Gates};
use crate::{health_chaos_faults, health_chaos_scenario, run_chaos_grid, HEALTH_OUTAGE_S};
use aequus_core::SiteId;
use aequus_services::{HealthMap, LinkObservation, LinkSide, ParticipationMode, Uss};
use aequus_sim::{FaultPlan, SimResult};
use aequus_telemetry::slo::alerts_to_jsonl;
use aequus_telemetry::{SloConfig, SloEngine, SloRule};
use std::hint::black_box;

/// One rule's share of an `SloEngine::observe`: the window push, the trim
/// and, for a rule with bad entries, the burn scan.
const SLO_OBSERVATION_BUDGET_NS: f64 = 60.0;
/// One link row folded into the health map: a map probe and eight maxes.
const LINK_ROW_BUDGET_NS: f64 = 50.0;

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
    run_chaos_grid(sc)
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

/// The health path's operations in one run: rule observations the SLO
/// engine evaluated (one per rule per sample barrier — a fairness and a
/// starvation rule per user, divergence, convergence lag, a staleness rule
/// per tx link row) and link rows the health map folded.
fn health_ops(result: &SimResult) -> Vec<(&'static str, u64)> {
    let samples = result.metrics.samples();
    let users = samples.first().map_or(0, |s| s.users.len());
    let is_tx = |o: &&LinkObservation| matches!(o.side, LinkSide::Tx { .. });
    let tx_rows = |rows: &[LinkObservation]| rows.iter().filter(is_tx).count();
    let links = samples.first().map_or(0, |s| tx_rows(&s.link_health));
    let link_rows: usize = samples.iter().map(|s| s.link_health.len()).sum();
    vec![
        (
            "health.slo_observations",
            (samples.len() * (2 * users + 2 + links)) as u64,
        ),
        ("health.link_rows", link_rows as u64),
    ]
}

/// Runs the chaos grid (3 sites, 30% drop + a 300 s outage) with health
/// monitoring on and prints the gossip health map plus the SLO alert
/// stream; `--check` then verifies the subsystem's contract end to end
/// (the gates below). Seeded by `AEQUUS_TEST_SEED` (default 42), like
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
    let mut ops = vec![health_ops(&chaos)];
    for threads in [2, 4] {
        let par = health_run(health_chaos_faults(), threads);
        identical &= par.health_report.as_ref().expect("report").to_json() == report_json
            && alerts_to_jsonl(&par.alerts) == alerts_jsonl;
        ops.push(health_ops(&par));
    }
    gates.check(
        "health report + alert stream byte-identical at 1/2/4 workers",
        identical,
        "",
    );

    // Gate 4: what the subsystem costs, as counted work × unit cost — the
    // operations of the chaos run above, exact, and a tight loop over each
    // operation: sixteen rules (every fourth one breaching, so burn scans
    // run) observed once a sim minute, and a mesh's twelve link rows.
    ops_gate(gates, "health", &ops);
    let rule = |k: usize| SloRule {
        id: format!("rule:{k}"),
        threshold: 1.0,
    };
    let mut engine = SloEngine::new(SloConfig::default(), (0..16).map(rule).collect());
    let values: Vec<f64> = (0..16)
        .map(|k| f64::from(u8::from(k % 4 == 0)) * 2.0)
        .collect();
    let mut t_s = 0.0;
    unit_cost_gate(
        gates,
        "SLO rule observation",
        SLO_OBSERVATION_BUDGET_NS,
        |n| {
            for _ in 0..n / values.len() {
                t_s += 60.0;
                black_box(engine.observe(t_s, black_box(&values)));
            }
        },
    );
    // Six tx and six rx rows, as a site with six peers reports them.
    let peers: Vec<SiteId> = (1..=6).map(SiteId).collect();
    let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 60.0);
    uss.set_peers(&peers, &peers);
    let rows = uss.link_stats(0.0);
    let mut map = HealthMap::default();
    unit_cost_gate(gates, "health-map link row", LINK_ROW_BUDGET_NS, |n| {
        for i in 0..n {
            map.observe(black_box(&rows[i % rows.len()]));
        }
    });
    black_box(map.finalize());
}
