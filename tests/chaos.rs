//! Deterministic fault-matrix suite for the gossip reliability layer:
//! {drop 1% / 10% / 30%} × {no outage, single-site outage, rolling outages}
//! × {3 seeds}. The invariant throughout: once faults clear and the
//! anti-entropy machinery has had a round to re-sync, every site's per-user
//! view of grid usage equals the fault-free run's to within 1e-9 — lost
//! summaries are retried, gaps are pulled back, crashes recover from peer
//! snapshots, and nothing is ever double-counted.

use aequus::core::projection::ProjectionKind;
use aequus::core::GridUser;
use aequus::services::OverlayTopology;
use aequus::sim::{FaultPlan, GridScenario, GridSimulation, Outage, SimResult};
use aequus::workload::{Trace, TraceJob};
use std::collections::BTreeMap;

mod oracle;

/// Base seed of the 3-seed matrix; `AEQUUS_TEST_SEED` shifts the whole
/// matrix so CI can sweep seed families without editing the suite.
fn base_seed() -> u64 {
    std::env::var("AEQUUS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// A small, fast grid tuned so every reliability path gets exercised:
/// publish interval 30 s against an ack timeout of 15 s, retention and
/// outbox caps of 8 so long outages overflow into gap-detection, resync
/// pulls, and snapshot fallback rather than simple retries.
fn chaos_scenario(seed: u64) -> GridScenario {
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

/// 48 fixed jobs over four users — all faults land inside [60, 900] while
/// jobs are still submitting, and the 1800 s drain leaves the protocol many
/// backoff cycles to converge after the last fault clears.
fn chaos_trace() -> Trace {
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
    GridSimulation::new(sc).run(&chaos_trace(), 1800.0)
}

fn outage(cluster: usize, from_s: f64, to_s: f64) -> Outage {
    Outage {
        cluster,
        from_s,
        to_s,
    }
}

/// The invariant: the faulted run completes every job and ends with every
/// site holding exactly the fault-free run's per-user grid-usage view —
/// which is also what `trace` alone says was consumed, so a bug the faulted
/// and the fault-free run share cannot hide in the comparison.
fn assert_converged_to(faulted: &SimResult, baseline: &SimResult, trace: &Trace, label: &str) {
    oracle::assert_views_match_trace(faulted, trace, label);
    assert_eq!(
        faulted.site_usage_views.len(),
        baseline.site_usage_views.len()
    );
    for (site, (got, want)) in faulted
        .site_usage_views
        .iter()
        .zip(&baseline.site_usage_views)
        .enumerate()
    {
        let users: std::collections::BTreeSet<&GridUser> = got.keys().chain(want.keys()).collect();
        for user in users {
            let g = got.get(user).copied().unwrap_or(0.0);
            let w = want.get(user).copied().unwrap_or(0.0);
            assert!(
                (g - w).abs() < 1e-9,
                "{label}: site {site} diverged on {user:?}: {g} vs fault-free {w}"
            );
        }
    }
}

fn run_matrix(outages_for: impl Fn(u64) -> Vec<Outage>, label: &str) {
    let base = base_seed();
    for seed in [base, base + 1, base + 2] {
        let baseline = run(chaos_scenario(seed));
        for drop_probability in [0.01, 0.10, 0.30] {
            let mut sc = chaos_scenario(seed);
            sc.faults = FaultPlan {
                drop_probability,
                outages: outages_for(seed),
                crashes: vec![],
            };
            let faulted = run(sc);
            assert_converged_to(
                &faulted,
                &baseline,
                &chaos_trace(),
                &format!("{label} drop={drop_probability} seed={seed}"),
            );
        }
    }
}

#[test]
fn drops_without_outage_converge() {
    run_matrix(|_| vec![], "no-outage");
}

#[test]
fn drops_with_single_site_outage_converge() {
    // Site 1 is partitioned for 300 s mid-workload: its outbox overflows the
    // cap, peers detect the gaps, and resync/snapshot catch-up repairs both
    // directions after the outage lifts.
    run_matrix(|_| vec![outage(1, 300.0, 600.0)], "single-outage");
}

#[test]
fn drops_with_rolling_outages_converge() {
    // Every site takes a turn offline; no two windows overlap, so the grid
    // is never fully partitioned but every pairwise link breaks at least
    // once in each direction.
    run_matrix(
        |_| {
            vec![
                outage(0, 150.0, 300.0),
                outage(1, 300.0, 450.0),
                outage(2, 450.0, 600.0),
            ]
        },
        "rolling-outages",
    );
}

#[test]
fn crash_recovery_converges_via_snapshot_catchup() {
    // Site 2 crashes for 300 s (volatile USS/UMS/FCS state wiped) while 10%
    // of exchange traffic drops. On recovery it pulls peer snapshots, peers
    // detect its sequence restart, and republication of its local history
    // must not double-charge anyone.
    let base = base_seed();
    for seed in [base, base + 1, base + 2] {
        let baseline = run(chaos_scenario(seed));
        let mut sc = chaos_scenario(seed);
        sc.faults = FaultPlan {
            drop_probability: 0.10,
            outages: vec![],
            crashes: vec![outage(2, 400.0, 700.0)],
        };
        let faulted = run(sc);
        assert_converged_to(
            &faulted,
            &baseline,
            &chaos_trace(),
            &format!("crash seed={seed}"),
        );
    }
}

/// Durability axis of the fault matrix: the same crash plan runs with and
/// without the per-site durable store, under a snapshot-transfer surcharge
/// that makes bulk catch-up expensive (as hauling a full cumulative view
/// over a real wire is). The store-backed site replays its WAL on recovery
/// and closes the gap with cheap retried summaries; the volatile site must
/// wait out the surcharged snapshot. Both must still converge exactly to
/// the fault-free views — durability changes *when*, never *what*.
#[test]
fn durable_store_recovers_faster_than_snapshot_only() {
    let base = base_seed();
    for seed in [base, base + 1, base + 2] {
        let baseline = run(chaos_scenario(seed));
        let make = |durable: bool| {
            let mut sc = chaos_scenario(seed).with_snapshot_transfer(240.0);
            // History sized into the window that separates the two recovery
            // paths: deep enough to hold every crash-window unacked seq (so
            // peers' retries stay cheap summaries and never degrade into
            // pushed snapshots mid-outage), shallow enough that the volatile
            // site's from-scratch resync (seq 1..N) overflows it and forces
            // the surcharged cumulative-snapshot pull. The store-backed site
            // recovers its exchange cursors from the WAL, so retried
            // summaries alone close its gap.
            sc.retry.history_cap = 12;
            sc.retry.outbox_cap = 16;
            if durable {
                sc = sc.with_durable_store();
            }
            sc.faults = FaultPlan {
                drop_probability: 0.0,
                outages: vec![],
                crashes: vec![outage(2, 400.0, 700.0)],
            };
            run(sc)
        };
        let with_store = make(true);
        let without_store = make(false);

        assert_converged_to(
            &with_store,
            &baseline,
            &chaos_trace(),
            &format!("store-on seed={seed}"),
        );
        assert_converged_to(
            &without_store,
            &baseline,
            &chaos_trace(),
            &format!("store-off seed={seed}"),
        );

        let t_on = with_store
            .metrics
            .view_convergence_time(1e-6)
            .expect("store-backed run converges");
        let t_off = without_store
            .metrics
            .view_convergence_time(1e-6)
            .expect("snapshot-only run converges");
        assert!(
            t_on < t_off,
            "seed={seed}: WAL replay must beat surcharged snapshot catch-up: \
             {t_on:.0}s !< {t_off:.0}s"
        );

        let stats = with_store.site_store_stats[2].expect("store attached to site 2");
        assert!(stats.torn_tails >= 1, "crash left a torn tail: {stats:?}");
        assert!(stats.frames_replayed > 0, "recovery replayed: {stats:?}");
        assert!(
            without_store.site_store_stats.iter().all(Option::is_none),
            "volatile run must not report store stats"
        );
    }
}

#[test]
fn faulted_views_converge_before_the_run_ends() {
    // The divergence series itself must show convergence: under 30% drop
    // plus an outage the per-user spread across site views returns to ~0
    // well before the drain ends, and stays there.
    let mut sc = chaos_scenario(base_seed());
    sc.faults = FaultPlan {
        drop_probability: 0.30,
        outages: vec![outage(1, 300.0, 600.0)],
        crashes: vec![],
    };
    let result = run(sc);
    let convergence = result.metrics.view_convergence_time(1e-6);
    let end = result.end_s;
    match convergence {
        Some(t) => assert!(
            t < end - 300.0,
            "views converged only at {t:.0}s of {end:.0}s"
        ),
        None => panic!("site views never converged"),
    }
    let last = result.metrics.samples().last().expect("samples");
    assert!(last.usage_view_divergence < 1e-9, "residual divergence");
}

#[test]
fn fault_free_run_shows_no_reliability_traffic() {
    // With faults disabled the reliability layer must be invisible: every
    // summary is acknowledged on first delivery, so nothing retries, no
    // gaps open, and no resync or snapshot traffic flows.
    let mut sc = chaos_scenario(base_seed()).with_telemetry();
    sc.faults = FaultPlan::none();
    let result = run(sc);
    for snap in &result.site_telemetry {
        for counter in [
            "aequus_uss_retries_total",
            "aequus_uss_seq_gaps_total",
            "aequus_uss_resyncs_total",
            "aequus_uss_snapshots_total",
        ] {
            assert_eq!(
                snap.counters.get(counter).copied().unwrap_or(0),
                0,
                "clean run must not produce {counter}"
            );
        }
    }
}

#[test]
fn faulted_runs_are_deterministic() {
    // Same scenario, same seed → bitwise-identical outcome, including the
    // jittered retry schedule and every merged view.
    let make = || {
        let mut sc = chaos_scenario(base_seed());
        sc.faults = FaultPlan {
            drop_probability: 0.30,
            outages: vec![outage(0, 150.0, 450.0)],
            crashes: vec![outage(2, 500.0, 650.0)],
        };
        run(sc)
    };
    let (a, b) = (make(), make());
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.total_completed(), b.total_completed());
    assert_eq!(a.site_usage_views, b.site_usage_views);
    let (sa, sb) = (a.metrics.samples(), b.metrics.samples());
    assert_eq!(sa.len(), sb.len());
    for (x, y) in sa.iter().zip(sb) {
        assert_eq!(x.usage_view_divergence, y.usage_view_divergence);
        assert_eq!(x.utilization, y.utilization);
    }
}

/// The overlay axis runs on all six testbed sites so Tree and Hub have real
/// interior structure: `Tree { fanout: 2 }` makes sites 0–2 interior with
/// leaves 3–5, and `Hub { hubs: 2 }` meshes sites 0–1 with leaves 2–5 split
/// between them. Delta encoding rides along so the faulted relay paths also
/// exercise the wire codec.
fn overlay_scenario(seed: u64, projection: ProjectionKind) -> GridScenario {
    let mut sc = GridScenario::national_testbed(
        &[
            ("U65", 0.6525),
            ("U30", 0.3049),
            ("U3", 0.0286),
            ("Uoth", 0.0140),
        ],
        seed,
    )
    .nodes_per_site(2)
    .compressed()
    .tight_retry(8, 8);
    sc.projection = projection;
    sc
}

const PROJECTIONS: [ProjectionKind; 3] = [
    ProjectionKind::Dictionary,
    ProjectionKind::Bitwise,
    ProjectionKind::Percental,
];

/// Fault-free equivalence across the overlays: every topology must end
/// with exactly the full-mesh views. This is the invariant the fault cases
/// below lean on — the baseline they reconverge to is the same no matter
/// how summaries were routed.
#[test]
fn overlay_topologies_match_full_mesh_views_fault_free() {
    let seed = base_seed();
    let baseline = run(overlay_scenario(seed, ProjectionKind::Percental));
    for overlay in [
        OverlayTopology::Tree { fanout: 2 },
        OverlayTopology::Hub { hubs: 2 },
    ] {
        let got = run(overlay_scenario(seed, ProjectionKind::Percental).with_overlay(overlay));
        assert_converged_to(
            &got,
            &baseline,
            &chaos_trace(),
            &format!("fault-free {overlay:?}"),
        );
    }
}

/// Partition a hub: sites 2 and 4 lose their *only* route into the grid for
/// 300 s (hub 0 is their sole neighbor), while 10% of the surviving traffic
/// drops. Once the partition lifts, retry/resync through the hub must bring
/// every leaf back to the fault-free full-mesh views — across 3 seeds and
/// all 3 priority projections.
#[test]
fn hub_partition_leaves_reconverge_across_projections() {
    let base = base_seed();
    for seed in [base, base + 1, base + 2] {
        for projection in PROJECTIONS {
            let baseline = run(overlay_scenario(seed, projection));
            let mut sc =
                overlay_scenario(seed, projection).with_overlay(OverlayTopology::Hub { hubs: 2 });
            sc.faults = FaultPlan {
                drop_probability: 0.10,
                outages: vec![outage(0, 300.0, 600.0)],
                crashes: vec![],
            };
            let faulted = run(sc);
            assert_converged_to(
                &faulted,
                &baseline,
                &chaos_trace(),
                &format!("hub-partition seed={seed} projection={projection:?}"),
            );
        }
    }
}

/// Crash a tree-interior node: site 1 (parent of leaves 3 and 4) loses all
/// volatile USS state — including its per-origin relay mirror — for 300 s.
/// On recovery it pulls peer snapshots, rebuilds the mirror, and must
/// re-relay without double-charging: every leaf's view ends within 1e-9 of
/// the fault-free full-mesh run, across 3 seeds × 3 projections.
#[test]
fn tree_interior_crash_leaves_reconverge_across_projections() {
    let base = base_seed();
    for seed in [base, base + 1, base + 2] {
        for projection in PROJECTIONS {
            let baseline = run(overlay_scenario(seed, projection));
            let mut sc = overlay_scenario(seed, projection)
                .with_overlay(OverlayTopology::Tree { fanout: 2 });
            sc.faults = FaultPlan {
                drop_probability: 0.10,
                outages: vec![],
                crashes: vec![outage(1, 400.0, 700.0)],
            };
            let faulted = run(sc);
            assert_converged_to(
                &faulted,
                &baseline,
                &chaos_trace(),
                &format!("tree-crash seed={seed} projection={projection:?}"),
            );
        }
    }
}

/// Different users' usage views stay separable under faults: the faulted
/// run's per-user totals across the whole grid equal the trace's submitted
/// work per user (nothing leaks between accounts during resync).
#[test]
fn per_user_accounting_survives_fault_matrix() {
    let mut sc = chaos_scenario(base_seed());
    sc.faults = FaultPlan {
        drop_probability: 0.10,
        outages: vec![outage(1, 300.0, 600.0)],
        crashes: vec![],
    };
    let result = run(sc);
    let mut want: BTreeMap<GridUser, f64> = BTreeMap::new();
    for job in chaos_trace().jobs() {
        *want.entry(GridUser::new(job.user.clone())).or_insert(0.0) +=
            job.duration_s * job.cores as f64;
    }
    let got = result.usage_by_user();
    for (user, w) in &want {
        let g = got.get(user).copied().unwrap_or(0.0);
        assert!((g - w).abs() < 1e-6, "{user:?}: {g} vs submitted {w}");
    }
}
