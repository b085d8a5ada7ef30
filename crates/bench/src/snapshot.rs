//! Shared machinery for the benchmark snapshots (`BENCH_*.json`) and their
//! regression gates: the gate table with direction-aware tolerances,
//! previous-snapshot discovery, the comparison itself, the `PROFILE_*.json`
//! sidecar format, and profile-based regression attribution.
//!
//! Both the `snapshot` experiment (writes a revision's snapshot and
//! self-gates) and `diff` (compares any two snapshots and attributes
//! regressions to the profiler stage whose wall share moved most) build on
//! this module, so the two can never disagree about what counts as a
//! regression.

use crate::cli::Gates;
use aequus_telemetry::export::JsonValue;
use aequus_telemetry::RunProfile;

/// Which way a metric regresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Latency-shaped: regression = current grew past tolerance.
    LowerIsBetter,
    /// Throughput-shaped: regression = current shrank past tolerance.
    HigherIsBetter,
}

/// One gated snapshot key: a regression must exceed both the relative
/// tolerance (`prev * tol`, or fall below `prev / tol`) and the absolute
/// slack, so noise near zero never trips.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// The snapshot key.
    pub key: &'static str,
    /// Regression direction.
    pub dir: Dir,
    /// Relative tolerance (multiplicative).
    pub tol: f64,
    /// Absolute slack in the key's own unit.
    pub slack: f64,
}

const fn gate(key: &'static str, dir: Dir, tol: f64, slack: f64) -> Gate {
    Gate {
        key,
        dir,
        tol,
        slack,
    }
}

/// The snapshot regression gates. Tolerances are deliberately wide for
/// wall-clock-derived keys (shared CI hosts are noisy); the tight hard
/// gates live in the dedicated experiments (`telemetry_overhead`,
/// `profiler_overhead`, `scale_sweep --check`) which measure with an
/// interleaved-minima harness instead of one-shot walls.
///
/// The tracing ratios are *whole-simulation* wall ratios against the
/// telemetry-only run (see `crates/bench/README.md` for the unit), so a
/// healthy value sits near 1.0 and the 0.10 slack absorbs run-to-run noise.
pub const GATES: &[Gate] = &[
    gate("refresh_mean_s", Dir::LowerIsBetter, 1.5, 0.005),
    gate("refresh_p99_s", Dir::LowerIsBetter, 1.5, 0.005),
    gate("query_p99_s", Dir::LowerIsBetter, 1.5, 0.005),
    gate("gossip_divergent_s", Dir::LowerIsBetter, 1.25, 300.0),
    // Wire-format efficiency: codec-encoded bytes per active user on the
    // smoke sweep's full-mesh/Delta point. Deterministic per revision, so
    // the tolerance only absorbs workload-shape drift, not host noise.
    gate("gossip_bytes_per_user", Dir::LowerIsBetter, 1.25, 16.0),
    // Latest cross-site convergence across the hierarchical overlays;
    // quantized to the 60 s sample interval — one extra sample of drift is
    // tolerated, two is a regression.
    gate("overlay_convergence_s", Dir::LowerIsBetter, 1.2, 90.0),
    gate("tracing_unsampled_ratio", Dir::LowerIsBetter, 1.5, 0.10),
    gate("tracing_full_ratio", Dir::LowerIsBetter, 1.5, 0.10),
    // Convergence times quantize to the 60 s sample interval; one extra
    // sample of drift is tolerated, two is a regression.
    gate("recovery_wal_replay_s", Dir::LowerIsBetter, 1.2, 90.0),
    gate("recovery_snapshot_only_s", Dir::LowerIsBetter, 1.2, 90.0),
    gate("scale_speedup_x", Dir::HigherIsBetter, 1.5, 0.5),
    gate("events_per_sec_1t", Dir::HigherIsBetter, 2.0, 50_000.0),
    gate("events_per_sec_8t", Dir::HigherIsBetter, 2.0, 50_000.0),
    // Fairness-health figures from the chaos-calibration runs. All three
    // are sim-time measurements (deterministic per revision), quantized to
    // the 60 s sample cadence — the slack tolerates one to two samples of
    // drift; −1.0 ("did not fire / no such depth") skips via the negative
    // sentinel rule above.
    gate("staleness_p99_s", Dir::LowerIsBetter, 1.25, 90.0),
    gate("alert_detection_lag_s", Dir::LowerIsBetter, 1.25, 90.0),
    gate("depth2_convergence_lag_s", Dir::LowerIsBetter, 1.25, 120.0),
    // Backfill dispatch matrix headline cells (smoke shape, Percental
    // column). Sim-time-deterministic per revision, so the tolerances only
    // absorb workload-shape drift. Utilization is throughput-shaped; the
    // slowdown/convergence/predictor keys are latency-shaped, convergence
    // quantized to the 60 s sample cadence with the −1.0 "never balanced"
    // sentinel skipping via the negative rule above.
    gate("backfill_fifo_util_pct", Dir::HigherIsBetter, 1.15, 3.0),
    gate("backfill_easy_util_pct", Dir::HigherIsBetter, 1.15, 3.0),
    gate("backfill_easy_slowdown", Dir::LowerIsBetter, 1.25, 0.5),
    gate("backfill_easy_conv_s", Dir::LowerIsBetter, 1.2, 120.0),
    gate("backfill_predict_rel_err", Dir::LowerIsBetter, 1.25, 0.1),
];

/// Keys that only measure something real on a multi-core host: wall-clock
/// thread scaling on a 1-core container is a property of the container, not
/// the engine, so these are skipped when either side of a comparison ran
/// with fewer than [`SCALING_MIN_CORES`] cores.
pub const SCALING_KEYS: &[&str] = &["scale_speedup_x", "events_per_sec_8t"];

/// Minimum host cores for the thread-scaling keys to gate.
pub const SCALING_MIN_CORES: usize = 8;

/// The host's available parallelism (1 when unknown).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Newest `BENCH_*.json` in the working directory other than `exclude`,
/// by modification time: `(file name, contents)`.
pub fn previous_snapshot(exclude: &str) -> Option<(String, String)> {
    let mut candidates: Vec<(std::time::SystemTime, String)> = std::fs::read_dir(".")
        .ok()?
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            if name.starts_with("BENCH_") && name.ends_with(".json") && name != exclude {
                Some((e.metadata().ok()?.modified().ok()?, name))
            } else {
                None
            }
        })
        .collect();
    candidates.sort();
    let (_, name) = candidates.pop()?;
    let body = std::fs::read_to_string(&name).ok()?;
    Some((name, body))
}

/// Compare two snapshot documents key by key against [`GATES`], recording
/// one gate per measured key, and return how many regressed. The
/// [`SCALING_KEYS`] are reported but not gated when either snapshot records
/// (or, absent a record, the running host has) fewer than
/// [`SCALING_MIN_CORES`] cores — snapshots before the `host_cores` key
/// existed fall back to the current host's count, the best available proxy,
/// since CI re-runs on the same class of machine.
pub fn compare(prev: &str, cur: &str, gates: &mut Gates) -> usize {
    let (Some(prev), Some(cur)) = (JsonValue::parse(prev), JsonValue::parse(cur)) else {
        gates.check("both snapshots parse as JSON", false, "");
        return 1;
    };
    let read = |doc: &JsonValue, key: &str| doc.get(key).and_then(JsonValue::as_f64);
    let cores = |doc: &JsonValue| read(doc, "host_cores").map_or_else(host_cores, |c| c as usize);
    let skip_scaling = cores(&prev) < SCALING_MIN_CORES || cores(&cur) < SCALING_MIN_CORES;
    let mut regressions = 0;
    for g in GATES {
        if skip_scaling && SCALING_KEYS.contains(&g.key) {
            println!(
                "  {}: thread-scaling key on a <{SCALING_MIN_CORES}-core host, skipped",
                g.key
            );
            continue;
        }
        let (Some(prev_v), Some(cur_v)) = (read(&prev, g.key), read(&cur, g.key)) else {
            println!("  {}: missing in one snapshot, skipped", g.key);
            continue;
        };
        if prev_v < 0.0 || cur_v < 0.0 {
            println!(
                "  {}: not measured on one side ({prev_v:?} -> {cur_v:?}), skipped",
                g.key
            );
            continue;
        }
        let (regressed, bound) = match g.dir {
            Dir::LowerIsBetter => (cur_v > prev_v * g.tol && cur_v > prev_v + g.slack, "<= x"),
            Dir::HigherIsBetter => (cur_v < prev_v / g.tol && cur_v < prev_v - g.slack, ">= /"),
        };
        regressions += usize::from(regressed);
        gates.check(
            &format!("{} {bound}{} of previous, slack {}", g.key, g.tol, g.slack),
            !regressed,
            &format!("{prev_v:?} -> {cur_v:?}"),
        );
    }
    regressions
}

/// Attribute a wall-clock regression to the profiled stage whose share of
/// total wall time grew most between two runs: `(stage, share delta)`.
///
/// Shares (not absolute nanoseconds) make the attribution robust to the two
/// runs having different total durations — an injected stall shows up as
/// `barrier.wait` taking a larger *fraction* of the run, whatever the run's
/// length. Returns `None` when either profile carries no wall time at all
/// (counters-only profiles can't attribute).
pub fn attribute_regression(prev: &RunProfile, cur: &RunProfile) -> Option<(String, f64)> {
    let (before, after) = (prev.wall_shares(), cur.wall_shares());
    if before.is_empty() || after.is_empty() {
        return None;
    }
    let mut best: Option<(String, f64)> = None;
    for (stage, share) in &after {
        let delta = share - before.get(stage).copied().unwrap_or(0.0);
        if best.as_ref().is_none_or(|(_, d)| delta > *d) {
            best = Some((stage.clone(), delta));
        }
    }
    best
}

/// Spans a `PROFILE_*.json` sidecar keeps, split evenly across shards.
pub const SIDECAR_SPANS: usize = 64;

/// The attribution sidecar of a snapshot: `profile` with the span rings cut
/// to the run's last [`SIDECAR_SPANS`] spans. Attribution reads only the
/// stage aggregates; the tail of each ring is kept as a sample of what the
/// epochs looked like, the rest is counted as dropped.
pub fn sidecar_json(mut profile: RunProfile) -> String {
    let per_shard = (SIDECAR_SPANS / profile.shards.len().max(1)).max(1);
    for shard in &mut profile.shards {
        let excess = shard.spans.len().saturating_sub(per_shard);
        shard.spans.drain(..excess);
        shard.spans_dropped += excess as u64;
    }
    profile.to_json()
}

/// The `PROFILE_*.json` sibling of a `BENCH_*.json` snapshot name
/// (`BENCH_PR7.json` → `PROFILE_PR7.json`); `None` for any other name.
pub fn sidecar_name(bench_name: &str) -> Option<String> {
    let profile_name = bench_name.replace("BENCH_", "PROFILE_");
    (profile_name != bench_name).then_some(profile_name)
}

/// Load the sidecar of a snapshot, if one was written next to it.
pub fn sibling_profile(bench_name: &str) -> Option<RunProfile> {
    let body = std::fs::read_to_string(sidecar_name(bench_name)?).ok()?;
    RunProfile::from_json(&body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_telemetry::StageStats;

    #[test]
    fn compare_is_direction_aware() {
        let prev = "{\"refresh_mean_s\": 0.010, \"events_per_sec_1t\": 1000000.0}";
        // refresh doubled past tol+slack, throughput halved past tol+slack.
        let cur = "{\"refresh_mean_s\": 0.050, \"events_per_sec_1t\": 400000.0}";
        let mut gates = Gates::default();
        assert_eq!(compare(prev, cur, &mut gates), 2);
        let table = gates.table();
        let failed: Vec<&str> = table.lines().filter(|l| l.ends_with("FAIL")).collect();
        assert_eq!(failed.len(), 2, "{table}");
        assert!(failed[0].contains("refresh_mean_s <= x1.5 of previous, slack 0.005"));
        assert!(failed[1].contains("events_per_sec_1t >= /2 of previous, slack 50000"));
        // Improvements in both directions pass.
        let better = "{\"refresh_mean_s\": 0.001, \"events_per_sec_1t\": 2000000.0}";
        let mut gates = Gates::default();
        assert_eq!(compare(prev, better, &mut gates), 0);
        assert_eq!(gates.exit_code(), 0);
    }

    #[test]
    fn scaling_keys_skip_on_small_hosts() {
        let prev =
            "{\"scale_speedup_x\": 4.0, \"events_per_sec_8t\": 1000000.0, \"host_cores\": 16}";
        let small =
            "{\"scale_speedup_x\": 0.9, \"events_per_sec_8t\": 100000.0, \"host_cores\": 1}";
        assert_eq!(
            compare(prev, small, &mut Gates::default()),
            0,
            "1-core side skips"
        );
        let big = small.replace("\"host_cores\": 1", "\"host_cores\": 8");
        assert_eq!(
            compare(prev, &big, &mut Gates::default()),
            2,
            "same numbers gate when both hosts are big"
        );
    }

    #[test]
    fn unparseable_snapshots_fail_instead_of_skipping_every_key() {
        let mut gates = Gates::default();
        assert_eq!(compare("{\"refresh_mean_s\": 0.01", "{}", &mut gates), 1);
        assert_eq!(gates.exit_code(), 1);
    }

    #[test]
    fn sidecar_keeps_stage_totals_and_the_ring_tail() {
        let span = |epoch: u64| aequus_telemetry::profile::ProfSpan {
            name: "epoch".into(),
            epoch,
            limit_s: epoch as f64,
            start_ns: epoch * 10,
            dur_ns: 5,
            events: 1,
        };
        let mut shard = aequus_telemetry::ShardProfile::default();
        shard.stages.insert(
            "epoch".into(),
            StageStats {
                calls: 100,
                wall_ns: 500,
                bytes: 0,
            },
        );
        shard.spans = (0..100).map(span).collect();
        let full = RunProfile {
            shards: vec![shard],
            ..RunProfile::default()
        };
        let cut = RunProfile::from_json(&sidecar_json(full.clone())).expect("round-trips");
        assert_eq!(
            cut.wall_shares(),
            full.wall_shares(),
            "attribution input kept"
        );
        assert_eq!(cut.shards[0].spans.len(), SIDECAR_SPANS);
        assert_eq!(
            cut.shards[0].spans[0].epoch, 36,
            "the newest spans are kept"
        );
        assert_eq!(cut.shards[0].spans_dropped, 36);
        assert_eq!(
            sidecar_name("BENCH_PR7.json").as_deref(),
            Some("PROFILE_PR7.json")
        );
        assert_eq!(sidecar_name("other.json"), None);
    }

    #[test]
    fn attribution_picks_the_stage_whose_share_grew() {
        let mut before = RunProfile::default();
        let mut shard = aequus_telemetry::ShardProfile {
            shard: 0,
            ..Default::default()
        };
        shard.stages.insert(
            "epoch".into(),
            StageStats {
                calls: 10,
                wall_ns: 900,
                bytes: 0,
            },
        );
        shard.stages.insert(
            "barrier.wait".into(),
            StageStats {
                calls: 10,
                wall_ns: 100,
                bytes: 0,
            },
        );
        before.shards.push(shard.clone());
        let mut after = RunProfile::default();
        shard.stages.insert(
            "barrier.wait".into(),
            StageStats {
                calls: 10,
                wall_ns: 2100,
                bytes: 0,
            },
        );
        after.shards.push(shard);
        let (stage, delta) = attribute_regression(&before, &after).expect("both have wall time");
        assert_eq!(stage, "barrier.wait");
        assert!(delta > 0.5, "{delta}");
        // Counters-only profiles can't attribute.
        assert!(attribute_regression(&RunProfile::default(), &after).is_none());
    }
}
