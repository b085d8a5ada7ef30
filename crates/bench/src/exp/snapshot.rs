//! `snapshot` and `diff`: the cross-revision benchmark record and its
//! regression gate, over the shared machinery in [`crate::snapshot`].

use crate::cli::{Args, Gates, Shape};
use crate::snapshot::{
    attribute_regression, compare, host_cores, previous_snapshot, sibling_profile, sidecar_json,
    sidecar_name,
};
use crate::{
    baseline_trace, run_gossip_sweep, run_health_chaos, run_matrix, run_prediction_comparison,
    run_recovery_sweep, run_scale_sweep, run_with_faults, uniform_trace, ScenarioBuilder,
};
use aequus_core::projection::ProjectionKind;
use aequus_rms::DispatchOrder;
use aequus_sim::{GridScenario, GridSimulation, SimResult};
use aequus_telemetry::ProfileMode;
use aequus_workload::users::baseline_policy_shares;
use std::time::Instant;

/// The compact two-cluster testbed used for the timing ratios, so the
/// telemetry-only / unsampled / fully-traced runs are strictly comparable.
fn two_cluster_scenario(seed: u64) -> GridScenario {
    ScenarioBuilder::testbed(&baseline_policy_shares(), seed)
        .sites(2)
        .build()
}

/// The tracing stack wired (tracer + provenance recorder attached to every
/// site) but with span sampling off — the "enabled but unsampled" mode whose
/// cost is the per-report sampling branch, not span capture.
fn unsampled_scenario(seed: u64) -> GridScenario {
    let mut sc = two_cluster_scenario(seed).with_tracing(0);
    sc.capture_provenance = true;
    sc
}

fn timed_run(scenario: GridScenario, jobs: usize, seed: u64) -> (f64, SimResult) {
    let trace = baseline_trace(jobs, seed);
    let start = Instant::now();
    let result = GridSimulation::new(scenario).run(&trace, 1800.0);
    (start.elapsed().as_secs_f64(), result)
}

/// Merge the FCS refresh histograms (full + incremental) across all sites
/// into (mean, max p99); query p99 is the max across sites.
fn refresh_and_query_stats(result: &SimResult) -> (f64, f64, f64) {
    let (mut sum, mut count, mut refresh_p99, mut query_p99) = (0.0, 0u64, 0.0f64, 0.0f64);
    for snap in &result.site_telemetry {
        for name in [
            "aequus_fcs_refresh_full_s",
            "aequus_fcs_refresh_incremental_s",
        ] {
            if let Some(h) = snap.histograms.get(name) {
                sum += h.sum;
                count += h.count;
                refresh_p99 = refresh_p99.max(h.p99);
            }
        }
        if let Some(h) = snap.histograms.get("aequus_fcs_query_s") {
            query_p99 = query_p99.max(h.p99);
        }
    }
    let mean = if count > 0 { sum / count as f64 } else { 0.0 };
    (mean, refresh_p99, query_p99)
}

/// Machine-readable benchmark snapshot: writes `SNAPSHOT` (by convention
/// `BENCH_PR<n>.json`) with the headline numbers of this revision — every
/// key's definition and unit, and the PR 7 redefinition of the tracing
/// ratios, are in `crates/bench/README.md` — plus its `PROFILE_` sidecar,
/// the continuous-profiler stage aggregates `diff` attributes wall-clock
/// regressions with. With `--check` it compares each key against the most
/// recent other `BENCH_*.json` in the working directory (shared gate table:
/// [`crate::snapshot`]). A missing previous snapshot (or a key absent from
/// it) passes with a note, so the gate bootstraps cleanly. JOBS defaults to
/// 4,000.
pub(super) fn snapshot(args: &Args, gates: &mut Gates) {
    let out = args.text(0).expect("the parser requires SNAPSHOT");
    let jobs = args.num(1).unwrap_or(4_000);
    let seed = 42;
    let cores = host_cores();

    // Interleave the three timed configurations and compare minima, the
    // noise-robust statistic (same harness shape as the overhead gates) —
    // one-shot walls made the PR6 ratios swing with whichever run paid the
    // cache warmup. The first (untimed) run doubles as the warmup and the
    // telemetry source for the latency stats.
    let (_, telem) = timed_run(two_cluster_scenario(seed).with_telemetry(), jobs, seed);
    let (mut telem_wall, mut unsampled_wall, mut full_wall) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        telem_wall =
            telem_wall.min(timed_run(two_cluster_scenario(seed).with_telemetry(), jobs, seed).0);
        unsampled_wall = unsampled_wall.min(timed_run(unsampled_scenario(seed), jobs, seed).0);
        full_wall =
            full_wall.min(timed_run(two_cluster_scenario(seed).with_full_tracing(), jobs, seed).0);
    }
    let (refresh_mean, refresh_p99, query_p99) = refresh_and_query_stats(&telem);
    // Gossip convergence under a 10% drop fault plan: total seconds the
    // cross-site usage views spent divergent (> 1e-6). Lower means the
    // reliability layer reconverges the views faster.
    let faulted = run_with_faults(jobs, 0.1, seed);
    let series = faulted.metrics.view_divergence_series();
    let mut divergent_s = 0.0;
    for w in series.windows(2) {
        if w[0].1 >= 1e-6 {
            divergent_s += w[1].0 - w[0].0;
        }
    }
    // Whole-simulation tracing cost relative to the telemetry-only run
    // (same scenario, same trace): ~1.0 is healthy, and the unit finally
    // matches the tracing increment the overhead gates budget.
    let unsampled_ratio = unsampled_wall / telem_wall;
    let full_ratio = full_wall / telem_wall;
    // Crash recovery: the chaos-suite crash plan with and without the
    // durable store. WAL replay must reconverge the crashed site's views
    // earlier than the surcharged snapshot-only path; both times gate.
    let recovery = &run_recovery_sweep(48, &[seed])[0];
    let recovery_wal = recovery.durable_convergence_s.unwrap_or(-1.0);
    let recovery_snap = recovery.volatile_convergence_s.unwrap_or(-1.0);
    // Scale-out gossip, smoke-sized (the 100k-user × 32-site curves are
    // `gossip_sweep`'s job): bytes-per-active-user of the production
    // configuration (full mesh on the Delta codec) and the latest
    // convergence time across the hierarchical overlays — both
    // lower-is-better, both quantized to the 60 s sample cadence.
    let gossip = run_gossip_sweep(&Shape::GOSSIP_SMOKE);
    let gossip_bytes_per_user = gossip
        .point(
            aequus_services::OverlayTopology::FullMesh,
            aequus_core::codec::Encoding::Delta,
        )
        .map_or(-1.0, |p| p.bytes_per_user);
    let overlay_convergence = gossip.worst_convergence_s().unwrap_or(-1.0);
    // Sharded-engine scaling, smoke-sized (the full 100k-user × 32-site
    // sweep is `scale_sweep`'s job): events/second serial and on 8 workers,
    // plus the best wall-clock speedup. Honest numbers — on a single-core
    // host the speedup sits at or below 1×, and the shared gate table
    // skips the thread-scaling keys there entirely (`host_cores` below
    // records which kind of host produced this snapshot).
    let scale = run_scale_sweep(&Shape::SCALE_SMOKE, &[1, 8]);
    let scale_eps_1t = scale.events_per_sec(1).unwrap_or(-1.0);
    let scale_eps_8t = scale.events_per_sec(8).unwrap_or(-1.0);
    let scale_speedup = scale.best_speedup();
    // Fairness-health figures from the chaos-calibration grid (the same
    // runs `health --check` gates): worst per-link staleness p99 and
    // the staleness alert's detection lag on the full mesh, plus the
    // depth-2 convergence-lag rollup on a fanout-2 tree overlay. All three
    // are sim-time-deterministic per revision; −1.0 marks "did not fire /
    // no depth-2 links", which the gate table skips.
    let health = run_health_chaos(seed, 3, None);
    let health_report = health.health_report.as_ref().expect("health run reports");
    let staleness_p99 = health_report
        .links
        .iter()
        .map(|l| l.staleness_p99_s)
        .fold(0.0f64, f64::max);
    let alert_detection_lag = health
        .alerts
        .iter()
        .find(|a| a.transition == "firing" && a.rule.starts_with("staleness:"))
        .map_or(-1.0, |a| a.t_s - 300.0);
    let tree = run_health_chaos(
        seed,
        6,
        Some(aequus_services::OverlayTopology::Tree { fanout: 2 }),
    );
    let depth2_lag = tree
        .health_report
        .as_ref()
        .and_then(|r| r.depth_lag(2))
        .unwrap_or(-1.0);
    // Backfill dispatch matrix, smoke-sized (the full 6k-job sweep is
    // `backfill_sweep`'s job): FIFO and EASY utilization, EASY bounded
    // slowdown and convergence time on the Percental column of the bursty
    // mixed-width workload, plus the running-average predictor's accuracy
    // under 3×-padded requests. All sim-time-deterministic per revision;
    // convergence uses the −1.0 sentinel when the cell never balances.
    let matrix = run_matrix(&Shape::BACKFILL_SMOKE);
    let backfill_cell = |order: DispatchOrder| {
        matrix
            .iter()
            .find(|c| c.order == order && c.projection == ProjectionKind::Percental)
            .expect("full matrix")
    };
    let backfill_fifo_util = 100.0 * backfill_cell(DispatchOrder::Fifo).utilization;
    let easy = backfill_cell(DispatchOrder::Easy);
    let backfill_easy_util = 100.0 * easy.utilization;
    let backfill_easy_slowdown = easy.mean_slowdown;
    let backfill_easy_conv = easy.converge_s.unwrap_or(-1.0);
    let backfill_predict_err = run_prediction_comparison(&Shape::BACKFILL_SMOKE).avg_err;

    // The serial smoke run's profile is this snapshot's attribution
    // sidecar: when a later `diff` sees a wall-clock key regress, it
    // diffs the two PROFILE files' stage shares to name the culprit.
    if let (Some((_, profile)), Some(name)) = (scale.profiles.first(), sidecar_name(out)) {
        std::fs::write(&name, sidecar_json(profile.clone())).expect("write profile sidecar");
        println!("wrote {name}");
    }

    let json = format!(
        "{{\n  \"jobs\": {jobs},\n  \"host_cores\": {cores},\n  \
         \"refresh_mean_s\": {refresh_mean:?},\n  \
         \"refresh_p99_s\": {refresh_p99:?},\n  \"query_p99_s\": {query_p99:?},\n  \
         \"gossip_divergent_s\": {divergent_s:?},\n  \
         \"gossip_bytes_per_user\": {gossip_bytes_per_user:?},\n  \
         \"overlay_convergence_s\": {overlay_convergence:?},\n  \
         \"tracing_unsampled_ratio\": {unsampled_ratio:?},\n  \
         \"tracing_full_ratio\": {full_ratio:?},\n  \
         \"recovery_wal_replay_s\": {recovery_wal:?},\n  \
         \"recovery_snapshot_only_s\": {recovery_snap:?},\n  \
         \"scale_speedup_x\": {scale_speedup:?},\n  \
         \"events_per_sec_1t\": {scale_eps_1t:?},\n  \
         \"events_per_sec_8t\": {scale_eps_8t:?},\n  \
         \"staleness_p99_s\": {staleness_p99:?},\n  \
         \"alert_detection_lag_s\": {alert_detection_lag:?},\n  \
         \"depth2_convergence_lag_s\": {depth2_lag:?},\n  \
         \"backfill_fifo_util_pct\": {backfill_fifo_util:?},\n  \
         \"backfill_easy_util_pct\": {backfill_easy_util:?},\n  \
         \"backfill_easy_slowdown\": {backfill_easy_slowdown:?},\n  \
         \"backfill_easy_conv_s\": {backfill_easy_conv:?},\n  \
         \"backfill_predict_rel_err\": {backfill_predict_err:?}\n}}\n"
    );
    std::fs::write(out, &json).expect("write benchmark snapshot");
    println!("wrote {out}:");
    print!("{json}");

    // The smoke sweeps behind the snapshot must themselves be sound, or
    // its numbers mean nothing.
    let worst = gossip.worst_divergence();
    gates.check(
        "gossip smoke sweep views within 1e-9 of the full mesh",
        worst <= 1e-9,
        &format!("worst {worst:.2e}"),
    );
    gates.check(
        "scale smoke run thread-count deterministic",
        scale.mismatch.is_none(),
        scale.mismatch.as_deref().unwrap_or(""),
    );
    let folded_mismatch = scale.folded_mismatch();
    gates.check(
        "profiler thread-count deterministic",
        folded_mismatch.is_none(),
        folded_mismatch.as_deref().unwrap_or(""),
    );

    if !args.check {
        return;
    }
    let Some((prev_name, prev)) = previous_snapshot(out) else {
        println!("OK: no previous BENCH_*.json to compare against; gate passes");
        return;
    };
    println!("comparing against {prev_name}");
    if compare(&prev, &json, gates) == 0 {
        println!("OK: within tolerance of {prev_name}");
    }
}

/// The two newest `BENCH_*.json` files by modification time:
/// `(previous, current)` as `(name, contents)` pairs.
fn newest_pair() -> Option<[(String, String); 2]> {
    let current = previous_snapshot("")?;
    let previous = previous_snapshot(&current.0)?;
    Some([previous, current])
}

/// The selftest scenario: the chaos suite's compressed 3-site grid, serial,
/// fully profiled. Serial keeps the injected stall's accounting exact (the
/// sleep is charged to every shard's `barrier.wait` directly) and makes the
/// run reproducible on any host.
fn selftest_profile(stall_ns: u64) -> aequus_telemetry::RunProfile {
    let scenario = ScenarioBuilder::testbed(&baseline_policy_shares(), 42)
        .sites(3)
        .nodes_per_site(4)
        .compressed()
        .profiling(ProfileMode::Full)
        .build()
        .with_debug_barrier_sleep(stall_ns);
    let trace = uniform_trace(48, 15.0, 40.0);
    GridSimulation::new(scenario)
        .run(&trace, 1800.0)
        .profile
        .expect("profiled run carries a profile")
}

fn selftest(gates: &mut Gates) {
    println!("# bench_diff selftest: inject a barrier stall, expect it named");
    let clean = selftest_profile(0);
    // 200 µs per epoch — small against the run, huge against the compute
    // share of a smoke-sized serial simulation.
    let stalled = selftest_profile(200_000);
    let attributed = attribute_regression(&clean, &stalled);
    gates.check(
        "an injected barrier stall is attributed to barrier.wait",
        matches!(&attributed, Some((stage, _)) if stage == "barrier.wait"),
        &attributed.map_or("no wall time to attribute".to_string(), |(stage, delta)| {
            format!("{stage} +{:.1} pp of wall share", delta * 100.0)
        }),
    );
}

/// Benchmark regression differ: compares two `BENCH_*.json` snapshots —
/// the two newest in the working directory, or an explicit `PREV CUR` pair
/// — with the shared direction-aware gate table ([`crate::snapshot`]) and,
/// when a wall-clock key regressed, attributes the regression to the
/// profiled pipeline stage whose share of total wall time grew most between
/// the snapshots' `PROFILE_*.json` sidecars. Fewer than two snapshots
/// passes with a note, so the gate bootstraps cleanly.
///
/// `--selftest` runs the attribution machinery end to end instead: the same
/// serial scenario is profiled twice, the second run with a deliberate
/// stall injected at the epoch barrier
/// (`GridScenario::with_debug_barrier_sleep`), and the differ must blame
/// `barrier.wait` — the CI proof that a real scheduling stall would be
/// named, not just noticed.
pub(super) fn diff(args: &Args, gates: &mut Gates) {
    if args.selftest {
        selftest(gates);
        return;
    }
    let [(prev_name, prev), (cur_name, cur)] =
        if let (Some(p), Some(c)) = (args.text(0), args.text(1)) {
            let read = |name: &str| {
                let body = std::fs::read_to_string(name)
                    .unwrap_or_else(|e| panic!("read snapshot {name}: {e}"));
                (name.to_string(), body)
            };
            [read(p), read(c)]
        } else {
            match newest_pair() {
                Some(pair) => pair,
                None => {
                    println!("OK: fewer than two BENCH_*.json snapshots; nothing to diff");
                    return;
                }
            }
        };
    println!("diffing {prev_name} -> {cur_name}");
    if compare(&prev, &cur, gates) == 0 {
        println!("OK: {cur_name} within tolerance of {prev_name}");
        return;
    }
    // Name the culprit when both snapshots carry a profile sidecar: the
    // stage whose share of total wall time grew most is where the
    // regression lives (an injected barrier stall shows as `barrier.wait`,
    // a slow merge as `gossip.merge`, and so on).
    match (sibling_profile(&prev_name), sibling_profile(&cur_name)) {
        (Some(before), Some(after)) => match attribute_regression(&before, &after) {
            Some((stage, delta)) => eprintln!(
                "  likely culprit: {stage} (+{:.1} pp of wall share)",
                delta * 100.0
            ),
            None => eprintln!("  no wall time in the profiles to attribute"),
        },
        _ => eprintln!("  (no PROFILE_*.json sidecars on both sides; cannot attribute)"),
    }
}
