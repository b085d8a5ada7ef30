//! Integration tests of the continuous-profiling subsystem: the folded
//! profile is the *schedule's* profile, so it must be byte-identical at
//! every worker count; the Chrome trace is the *execution's* profile, so it
//! only promises structural validity (well-formed JSON, monotonic
//! timestamps per track, stable track identity across worker counts).
//! Verified over the chaos grid — drops, an outage, and a crash — because a
//! profiler that is only deterministic on clean runs is not deterministic.

use aequus::core::codec::Encoding;
use aequus::sim::{FaultPlan, GridScenario, GridSimulation, Outage, SimResult};
use aequus::telemetry::export::JsonValue;
use aequus::telemetry::{ProfileMode, RunProfile};
use aequus::workload::{Trace, TraceJob};

fn base_seed() -> u64 {
    std::env::var("AEQUUS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// The chaos suite's 3-site grid with the full fault plan, profiled.
fn scenario(seed: u64, mode: ProfileMode) -> GridScenario {
    let mut sc = GridScenario::national_testbed(
        &[
            ("U65", 0.6525),
            ("U30", 0.3049),
            ("U3", 0.0286),
            ("Uoth", 0.0140),
        ],
        seed,
    );
    sc.clusters.truncate(3);
    for c in &mut sc.clusters {
        c.nodes = 4;
    }
    sc.tick_interval_s = 5.0;
    sc.timings.exchange_latency_s = 5.0;
    sc.timings.uss_publish_interval_s = 30.0;
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
    sc.with_profiling(mode)
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

fn profiled_run(threads: usize, mode: ProfileMode) -> SimResult {
    GridSimulation::new(scenario(base_seed(), mode).with_threads(threads)).run(&trace(), 1800.0)
}

fn profile_of(result: &SimResult) -> &RunProfile {
    result.profile.as_ref().expect("profiled run has a profile")
}

#[test]
fn folded_profile_is_byte_identical_across_worker_counts() {
    let serial = profiled_run(1, ProfileMode::Full);
    let reference = profile_of(&serial).to_folded();
    // The reference itself carries the expected hot-path rows.
    for needle in [
        "aequus;shard0;events.ticks ",
        "aequus;shard0;gossip.wire;bytes ",
        "aequus;shard2;queue.hwm ",
        "aequus;services;uss.ingest ",
        "aequus;engine;mailbox.hwm ",
    ] {
        assert!(
            reference.contains(needle),
            "folded profile missing {needle}"
        );
    }
    // And never wall-clock rows — those live in the Chrome trace.
    assert!(!reference.contains("barrier.wait"));
    for threads in [2, 4, 8] {
        let parallel = profiled_run(threads, ProfileMode::Full);
        assert_eq!(
            profile_of(&parallel).to_folded(),
            reference,
            "folded profile at {threads} workers diverged from serial"
        );
    }
    // Counters mode (no wall clocks at all) folds identically too: the
    // folded view only uses values both modes collect.
    let counters = profiled_run(1, ProfileMode::Counters);
    assert_eq!(profile_of(&counters).to_folded(), reference);
}

/// Track identity and per-track timestamps of a Chrome trace: a map of
/// `tid -> thread name` from the metadata events, plus the assertion that
/// every duration event's `ts` is monotonically non-decreasing per `tid`
/// and every `pid` is the single simulated process.
fn validate_chrome_trace(text: &str) -> std::collections::BTreeMap<u64, String> {
    let doc = JsonValue::parse(text).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    let mut tracks = std::collections::BTreeMap::new();
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for ev in events {
        let pid = ev.get("pid").and_then(JsonValue::as_u64).expect("pid");
        assert_eq!(pid, 1, "single simulated process");
        let tid = ev.get("tid").and_then(JsonValue::as_u64).expect("tid");
        match ev.get("ph").and_then(JsonValue::as_str).expect("phase") {
            "M" => {
                if ev.get("name").and_then(JsonValue::as_str) == Some("thread_name") {
                    let name = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(JsonValue::as_str)
                        .expect("thread name");
                    tracks.insert(tid, name.to_string());
                }
            }
            "X" => {
                let ts = ev.get("ts").and_then(JsonValue::as_f64).expect("ts");
                let dur = ev.get("dur").and_then(JsonValue::as_f64).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0);
                let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
                assert!(
                    ts >= *prev,
                    "track {tid}: ts {ts} went backwards (prev {prev})"
                );
                *prev = ts;
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    tracks
}

#[test]
fn chrome_trace_is_loadable_and_tracks_are_stable() {
    let serial = profiled_run(1, ProfileMode::Full);
    let serial_tracks = validate_chrome_trace(&profile_of(&serial).to_chrome_trace());
    // One track per shard, named after the site it simulates.
    assert_eq!(serial_tracks.len(), 3);
    assert_eq!(serial_tracks[&0], "shard 0 (site 0)");
    assert_eq!(serial_tracks[&2], "shard 2 (site 2)");
    // Wall times differ run to run, but track identity (pid/tid/names)
    // must not depend on the worker count.
    for threads in [2, 8] {
        let parallel = profiled_run(threads, ProfileMode::Full);
        let tracks = validate_chrome_trace(&profile_of(&parallel).to_chrome_trace());
        assert_eq!(tracks, serial_tracks, "tracks at {threads} workers");
    }
}

#[test]
fn run_profile_json_carries_wire_bytes_and_epoch_accounting() {
    let result = profiled_run(4, ProfileMode::Full);
    let profile = profile_of(&result);
    let doc = JsonValue::parse(&profile.to_json()).expect("valid JSON");
    let shards = doc.get("shards").and_then(JsonValue::as_array).unwrap();
    assert_eq!(shards.len(), profile.shards.len());
    // Per-link wire bytes and the epoch accounting both crossed the
    // serialization boundary.
    let has = |shard: &JsonValue, section: &str| {
        shard
            .get(section)
            .and_then(JsonValue::as_object)
            .is_some_and(|o| !o.is_empty())
    };
    assert!(shards.iter().any(|s| has(s, "link_bytes")));
    assert!(shards
        .iter()
        .all(|s| s.get("stages").and_then(|st| st.get("epoch")).is_some()));
}

#[test]
fn queue_gauges_surface_in_both_exporters() {
    let result = profiled_run(2, ProfileMode::Counters);
    let engine = result.engine_telemetry.as_ref().expect("telemetry on");
    assert!(engine.gauges["aequus_sim_event_queue_hwm"] > 0.0);
    assert!(engine.gauges["aequus_sim_mailbox_hwm"] > 0.0);
    let prom = aequus::telemetry::export::to_prometheus(engine);
    assert!(prom.contains("aequus_sim_event_queue_hwm"));
    assert!(prom.contains("aequus_sim_mailbox_hwm"));
    let json = aequus::telemetry::export::to_json(engine);
    assert!(json.contains("aequus_sim_event_queue_hwm"));
    assert!(json.contains("aequus_sim_mailbox_hwm"));
    // The profile agrees with the gauges — same underlying high-water marks.
    let profile = profile_of(&result);
    let max_queue = profile.shards.iter().map(|s| s.queue_hwm).max().unwrap();
    assert_eq!(
        engine.gauges["aequus_sim_event_queue_hwm"],
        max_queue as f64
    );
    assert_eq!(
        engine.gauges["aequus_sim_mailbox_hwm"],
        profile.mailbox_hwm as f64
    );
}

/// Modeled-vs-actual wire-bytes drift guard: the profiler's per-link wire
/// counters and the metrics `gossip_bytes` series are fed by the same
/// `UssMessage::wire_size`, which in turn must equal the codec's encoded
/// length (asserted at the unit level in `reliability.rs`). If either path
/// ever re-grows its own byte model, the two exporters disagree and this
/// test fails. Run under both encodings; Delta must also actually be the
/// smaller wire format on this workload.
#[test]
fn profiler_gossip_bytes_match_codec_bytes() {
    let mut totals = std::collections::BTreeMap::new();
    for encoding in [Encoding::Dense, Encoding::Delta] {
        let sc = scenario(base_seed(), ProfileMode::Counters).with_encoding(encoding);
        let result = GridSimulation::new(sc).run(&trace(), 1800.0);
        let profiled: u64 = profile_of(&result)
            .shards
            .iter()
            .flat_map(|s| s.link_bytes.values())
            .sum();
        let metered = result.metrics.total_gossip_bytes();
        assert!(profiled > 0, "{encoding:?}: no gossip bytes profiled");
        assert_eq!(
            profiled, metered,
            "{encoding:?}: profiler wire counters diverged from metrics gossip_bytes"
        );
        // The cumulative series ends at the total and never decreases.
        let series: Vec<u64> = (result.metrics.samples().iter())
            .map(|s| s.gossip_bytes)
            .collect();
        assert_eq!(series.last(), Some(&metered));
        assert!(series.windows(2).all(|w| w[0] <= w[1]));
        totals.insert(format!("{encoding:?}"), metered);
    }
    assert!(
        totals["Delta"] < totals["Dense"],
        "Delta must shrink the wire: {totals:?}"
    );
}

#[test]
fn unprofiled_runs_pay_nothing_visible() {
    // ProfileMode::Off is the default: no profile, no spans, and the
    // scenario flag is genuinely off unless asked for.
    let sc = GridScenario::national_testbed(&[("U65", 1.0)], base_seed());
    assert_eq!(sc.profile, ProfileMode::Off);
    let result = GridSimulation::new(scenario(base_seed(), ProfileMode::Off)).run(&trace(), 1800.0);
    assert!(result.profile.is_none());
}
