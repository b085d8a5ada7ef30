//! The tentpole invariant of the sharded engine: an N-thread run is
//! seed-for-seed identical to the single-threaded run. Verified over the
//! chaos fault matrix (drops + outages + crashes), all three projections,
//! worker counts {2, 4, 8}, and three seeds — every site view, every
//! fairness metric, every completed-job count within 1e-9 (in fact, they
//! must match bit-for-bit, since both paths execute identical operations).

use aequus::core::projection::ProjectionKind;
use aequus::services::ParticipationMode;
use aequus::sim::{FaultPlan, GridScenario, GridSimulation, Outage, SimResult};
use aequus::workload::{Trace, TraceJob};

fn base_seed() -> u64 {
    std::env::var("AEQUUS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// The chaos suite's grid: 3 sites, fast timings, tight retry caps so the
/// reliability layer (retries, gap detection, resync, snapshots) is active
/// while threads race.
fn scenario(seed: u64, projection: ProjectionKind) -> GridScenario {
    let mut sc = GridScenario::national_testbed(
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
    .tight_retry(8, 8);
    sc.projection = projection;
    // The full chaos plan: random drops, an outage, and a crash-recovery
    // cycle, all mid-workload.
    sc.faults = FaultPlan {
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
    };
    sc
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

fn run(sc: GridScenario) -> SimResult {
    GridSimulation::new(sc).run(&trace(), 1800.0)
}

/// Every acceptance-relevant output within 1e-9 of the serial run (and
/// exactly equal where the quantity is discrete).
fn assert_equivalent(serial: &SimResult, parallel: &SimResult, label: &str) {
    assert_eq!(
        serial.total_completed(),
        parallel.total_completed(),
        "{label}: completed"
    );
    assert_eq!(
        serial.events_processed, parallel.events_processed,
        "{label}: events"
    );
    // Site usage views.
    assert_eq!(
        serial.site_usage_views.len(),
        parallel.site_usage_views.len()
    );
    for (site, (a, b)) in serial
        .site_usage_views
        .iter()
        .zip(&parallel.site_usage_views)
        .enumerate()
    {
        let users: std::collections::BTreeSet<_> = a.keys().chain(b.keys()).collect();
        for u in users {
            let x = a.get(u).copied().unwrap_or(0.0);
            let y = b.get(u).copied().unwrap_or(0.0);
            assert!(
                (x - y).abs() < 1e-9,
                "{label}: site {site} view for {u:?}: {x} vs {y}"
            );
        }
    }
    // Fairness metrics, sample by sample.
    let (sa, sb) = (serial.metrics.samples(), parallel.metrics.samples());
    assert_eq!(sa.len(), sb.len(), "{label}: sample count");
    for (x, y) in sa.iter().zip(sb) {
        assert_eq!(x.t_s, y.t_s, "{label}: sample times");
        assert_eq!(
            x.users.len(),
            y.users.len(),
            "{label}: tracked users at t={}",
            x.t_s
        );
        for (user, ux) in &x.users {
            let uy = &y.users[user];
            assert!(
                (ux.priority - uy.priority).abs() < 1e-9
                    && (ux.usage_share - uy.usage_share).abs() < 1e-9
                    && (ux.factor - uy.factor).abs() < 1e-9,
                "{label}: {user} at t={}: {ux:?} vs {uy:?}",
                x.t_s
            );
        }
        assert!(
            (x.utilization - y.utilization).abs() < 1e-9,
            "{label}: utilization at t={}",
            x.t_s
        );
        assert!(
            (x.usage_view_divergence - y.usage_view_divergence).abs() < 1e-9,
            "{label}: divergence at t={}",
            x.t_s
        );
        assert_eq!(
            (x.pending, x.running, x.completed),
            (y.pending, y.running, y.completed),
            "{label}: queue state at t={}",
            x.t_s
        );
        assert_eq!(x.per_site_priority, y.per_site_priority, "{label}");
    }
    // Per-cluster accounting.
    assert_eq!(
        serial.usage_by_user(),
        parallel.usage_by_user(),
        "{label}: usage ledger"
    );
}

#[test]
fn worker_counts_replay_serial_run_across_chaos_matrix() {
    let base = base_seed();
    for seed in [base, base + 1, base + 2] {
        for projection in [
            ProjectionKind::Percental,
            ProjectionKind::Dictionary,
            ProjectionKind::Bitwise,
        ] {
            let serial = run(scenario(seed, projection));
            for threads in [2, 4, 8] {
                let parallel = run(scenario(seed, projection).with_threads(threads));
                assert_equivalent(
                    &serial,
                    &parallel,
                    &format!("seed={seed} {projection:?} threads={threads}"),
                );
            }
        }
    }
}

#[test]
fn fault_free_runs_are_equivalent_too() {
    // The fault-free path exercises a different code shape (no drops, no
    // crash edges); it must be just as thread-count independent.
    let mut clean = scenario(base_seed(), ProjectionKind::Percental);
    clean.faults = FaultPlan::none();
    let serial = run(clean.clone());
    let parallel = run(clean.with_threads(4));
    assert_equivalent(&serial, &parallel, "fault-free");
}

/// A grid whose only exchange delivery is due at an infinite time: site 0
/// reads global data but publishes none, and every exchange takes forever.
/// Pushing that delivery trips the event queue's finiteness check.
fn unreachable_delivery(threads: usize) -> SimResult {
    let mut sc = scenario(base_seed(), ProjectionKind::Percental)
        .sites(2)
        .with_threads(threads);
    sc.faults = FaultPlan::none();
    sc.clusters[0].participation = ParticipationMode::ReadOnly;
    sc.timings.exchange_latency_s = f64::INFINITY;
    run(sc)
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "finiteness is a debug assertion")]
#[should_panic(expected = "event time must be finite")]
fn a_panicking_shard_fails_a_serial_run() {
    unreachable_delivery(1);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "finiteness is a debug assertion")]
#[should_panic(expected = "event time must be finite")]
fn a_panicking_shard_fails_a_multi_worker_run() {
    unreachable_delivery(2);
}
