//! Integration tests of the fairness-health subsystem: the SLO engine and
//! gossip health map observe the sim through sample barriers stamped with
//! sim time, so the health report and the alert stream must be
//! byte-identical at every worker count — verified over the chaos grid
//! (drops, an outage, and a crash), because health monitoring that is only
//! deterministic on clean runs cannot gate CI. The alert lifecycle is also
//! checked end to end: a fault-free run stays silent, and an outage drives
//! a staleness rule through pending → firing → resolved.

use aequus::sim::{FaultPlan, GridScenario, GridSimulation, Outage, SimResult};
use aequus::telemetry::slo::alerts_to_jsonl;
use aequus::telemetry::SloConfig;
use aequus::workload::{Trace, TraceJob};

fn base_seed() -> u64 {
    std::env::var("AEQUUS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// The chaos suite's 3-site grid: fast cadences so faults land between
/// publishes, small retention so outages overflow into resync traffic.
fn scenario(seed: u64) -> GridScenario {
    GridScenario::national_testbed(
        &[
            ("U65", 0.6525),
            ("U30", 0.3049),
            ("U3", 0.0286),
            ("Uoth", 0.0140),
        ],
        seed,
    )
    .sites(3)
    .nodes_per_site(4)
    .compressed()
    .tight_retry(8, 8)
}

/// The full chaos matrix: 10% drops plus an outage and a crash that
/// overlap the job stream.
fn chaos_faults() -> FaultPlan {
    FaultPlan {
        drop_probability: 0.10,
        outages: vec![Outage {
            cluster: 1,
            from_s: 300.0,
            to_s: 600.0,
        }],
        crashes: vec![Outage {
            cluster: 2,
            from_s: 400.0,
            to_s: 700.0,
        }],
    }
}

fn trace() -> Trace {
    Trace::new(
        (0..48)
            .map(|i| TraceJob {
                user: ["U65", "U30", "U3", "Uoth"][i % 4].to_string(),
                submit_s: i as f64 * 15.0,
                duration_s: 40.0,
                cores: 1,
            })
            .collect(),
    )
}

fn health_run(threads: usize, faults: FaultPlan) -> SimResult {
    let mut sc = scenario(base_seed())
        .with_health(SloConfig::default())
        .with_threads(threads);
    sc.faults = faults;
    GridSimulation::new(sc).run(&trace(), 1800.0)
}

#[test]
fn health_report_and_alerts_byte_identical_across_worker_counts() {
    let serial = health_run(1, chaos_faults());
    let reference_report = serial
        .health_report
        .as_ref()
        .expect("health run yields a report")
        .to_json();
    let reference_alerts = alerts_to_jsonl(&serial.alerts);
    for threads in [2, 4, 8] {
        let par = health_run(threads, chaos_faults());
        assert_eq!(
            par.health_report.as_ref().expect("report").to_json(),
            reference_report,
            "health report diverged at {threads} workers"
        );
        assert_eq!(
            alerts_to_jsonl(&par.alerts),
            reference_alerts,
            "alert stream diverged at {threads} workers"
        );
    }
}

#[test]
fn fault_free_run_fires_no_alerts() {
    let result = health_run(1, FaultPlan::none());
    assert!(
        result.alerts.is_empty(),
        "fault-free baseline should be silent, got:\n{}",
        alerts_to_jsonl(&result.alerts)
    );
    let report = result.health_report.expect("report present");
    // Every directed link of the 3-site full mesh is tracked, and traffic
    // actually flowed on each.
    assert_eq!(report.links.len(), 6);
    assert!(report.links.iter().all(|l| l.bytes > 0 && l.msgs > 0));
}

#[test]
fn outage_fires_and_resolves_staleness_alert() {
    // The aggressive chaos plan: 30% drops plus the outage, no crash — the
    // calibration run behind `aequus-bench health --check`.
    let faults = FaultPlan {
        drop_probability: 0.30,
        outages: vec![Outage {
            cluster: 1,
            from_s: 300.0,
            to_s: 600.0,
        }],
        crashes: vec![],
    };
    let result = health_run(1, faults);
    let fired = result
        .alerts
        .iter()
        .find(|a| a.transition == "firing" && a.rule.starts_with("staleness:"))
        .expect("outage fires a staleness alert");
    assert!(
        fired.t_s >= 300.0,
        "alert cannot fire before the outage starts"
    );
    assert!(
        result
            .alerts
            .iter()
            .any(|a| a.rule == fired.rule && a.transition == "resolved" && a.t_s > fired.t_s),
        "staleness alert must resolve after recovery"
    );
    // The report's stressed link shows real staleness while clean links
    // stay bounded by the publish cadence.
    let report = result.health_report.expect("report present");
    let stressed = report
        .links
        .iter()
        .max_by(|a, b| {
            a.staleness_max_s
                .partial_cmp(&b.staleness_max_s)
                .expect("finite staleness")
        })
        .expect("links tracked");
    assert!(
        stressed.staleness_max_s >= 300.0,
        "a 300 s outage should strand data for at least the outage length"
    );
}
