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
use aequus::telemetry::stage;
use aequus::telemetry::RunProfile;
use aequus::workload::{Trace, TraceJob};

fn base_seed() -> u64 {
    std::env::var("AEQUUS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// The chaos suite's 3-site grid with the full fault plan, profiled (a
/// telemetry-on run is).
fn scenario(seed: u64) -> GridScenario {
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
    sc.with_telemetry()
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

fn profiled_run(threads: usize) -> SimResult {
    GridSimulation::new(scenario(base_seed()).with_threads(threads)).run(&trace(), 1800.0)
}

fn profile_of(result: &SimResult) -> &RunProfile {
    result.profile.as_ref().expect("profiled run has a profile")
}

#[test]
fn folded_profile_is_byte_identical_across_worker_counts() {
    let serial = profiled_run(1);
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
        let parallel = profiled_run(threads);
        assert_eq!(
            profile_of(&parallel).to_folded(),
            reference,
            "folded profile at {threads} workers diverged from serial"
        );
    }
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
    let serial = profiled_run(1);
    let serial_tracks = validate_chrome_trace(&profile_of(&serial).to_chrome_trace());
    // One track per shard, named after the site it simulates.
    assert_eq!(serial_tracks.len(), 3);
    assert_eq!(serial_tracks[&0], "shard 0 (site 0)");
    assert_eq!(serial_tracks[&2], "shard 2 (site 2)");
    // Wall times differ run to run, but track identity (pid/tid/names)
    // must not depend on the worker count.
    for threads in [2, 8] {
        let parallel = profiled_run(threads);
        let tracks = validate_chrome_trace(&profile_of(&parallel).to_chrome_trace());
        assert_eq!(tracks, serial_tracks, "tracks at {threads} workers");
    }
}

#[test]
fn run_profile_carries_wire_bytes_and_epoch_accounting() {
    let result = profiled_run(4);
    let profile = profile_of(&result);
    assert_eq!(profile.shards.len(), 3);
    // Per-link wire bytes and the epoch accounting both reached the
    // merged artifact: every epoch a shard ran left a span, none dropped.
    assert!(profile.shards.iter().any(|s| !s.link_bytes.is_empty()));
    for shard in &profile.shards {
        let epochs = shard.stages["epoch"].calls;
        let spans = shard.spans.iter().filter(|s| s.name == "epoch").count();
        assert!(epochs > 0 && shard.spans_dropped == 0);
        assert_eq!(spans as u64, epochs);
    }
}

/// One stage vocabulary: every service stage the folded profile emits and
/// every span the causal layer records — over a run that crashes a site
/// with a durable store, so replay and every gossip path show up — is a
/// row of `stage::STAGES`, spelled as `BENCHMARK.json` spells it. The
/// folded profile's other rows are counters, pinned here by name.
#[test]
fn every_emitted_stage_label_is_in_the_stage_table() {
    let sc = scenario(base_seed()).with_tracing().with_durable_store();
    let result = GridSimulation::new(sc).run(&trace(), 1800.0);
    let folded = profile_of(&result).to_folded();
    let mut services = std::collections::BTreeSet::new();
    for line in folded.lines() {
        let label = line.split(' ').next().expect("a stack");
        let mut frames = label.split(';').skip(1);
        let (scope, row) = (frames.next().unwrap(), frames.next().unwrap());
        if scope == "services" {
            let known = stage::find(row).is_some_and(|s| s.wall.is_some());
            assert!(
                known,
                "folded service stage {row} is not in the stage table"
            );
            services.insert(row);
        } else {
            let counters = [
                "events.arrivals",
                "events.gossip",
                "events.ticks",
                "gossip.dropped",
                "gossip.partitioned",
                "gossip.wire",
                "queue.hwm",
                "mailbox.hwm",
            ];
            assert!(counters.contains(&row), "unknown folded counter row {row}");
        }
    }
    let benchmark_spelled = [
        "codec.wire_size",
        "fcs.refresh_full",
        "fcs.refresh_incr",
        "rms.advance",
        "rms.dispatch",
        "rms.submit",
        "sim.assemble",
        "sim.build",
        "sim.epoch",
        "sim.event",
        "sim.finish",
        "sim.preroute",
        "sim.route",
        "sim.sample",
        "site.crash",
        "site.recover",
        "site.tick",
        "store.append",
        "store.checkpoint",
        "store.replay",
        "ums.refresh",
        "uss.deliver",
        "uss.ingest",
        "uss.merge",
        "uss.poll",
        "uss.publish",
    ];
    assert_eq!(services.into_iter().collect::<Vec<_>>(), benchmark_spelled);
    let mut spans = std::collections::BTreeSet::new();
    for span in result.site_spans.iter().flatten() {
        assert!(
            stage::find(&span.name).is_some(),
            "span {} is not in the stage table",
            span.name
        );
        spans.insert(span.name.as_str());
    }
    let pipeline = [
        "fcs.refresh",
        "lib.query",
        "rms.report",
        "ums.refresh",
        "uss.ingest",
        "uss.merge",
        "uss.publish",
    ];
    assert_eq!(spans.into_iter().collect::<Vec<_>>(), pipeline);
}

#[test]
fn queue_gauges_agree_with_the_profile() {
    let result = profiled_run(2);
    let engine = result.engine_telemetry.as_ref().expect("telemetry on");
    assert!(engine.gauges["aequus_sim_event_queue_hwm"] > 0.0);
    assert!(engine.gauges["aequus_sim_mailbox_hwm"] > 0.0);
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

/// Building the grid is timed apart from the run: a telemetry-on run's
/// engine registry holds one `sim.build` span, and its profile one call.
#[test]
fn the_grid_build_is_timed_once() {
    let result = profiled_run(1);
    let build = stage::find("sim.build").and_then(|s| s.wall);
    let engine = result.engine_telemetry.as_ref().expect("telemetry on");
    assert_eq!(engine.histograms[build.expect("a wall row")].count, 1);
    assert_eq!(profile_of(&result).services["sim.build"].calls, 1);
}

/// Modeled-vs-actual wire-bytes drift guard: the profiler's per-link wire
/// counters and the metrics `gossip_bytes` series are fed by the same
/// `UssMessage::wire_size`, which in turn must equal the codec's encoded
/// length (asserted at the unit level in `message.rs`). If either path
/// ever re-grows its own byte model, the profile and the metrics disagree
/// and this test fails. Run under both ways of counting; Delta must also actually be
/// smaller than the fixed-width yardstick on this workload.
#[test]
fn profiler_gossip_bytes_match_codec_bytes() {
    let mut totals = std::collections::BTreeMap::new();
    for encoding in [Encoding::Dense, Encoding::Delta] {
        let sc = scenario(base_seed()).with_encoding(encoding);
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

/// The engine's stage timers sit at exactly the calls the shard counts:
/// over the chaos grid (a crash included), at 1 and 4 workers, each timed
/// stage ran as often as the counter beside its call says.
#[test]
fn engine_stage_calls_equal_the_shard_counters() {
    for threads in [1, 4] {
        let result = profiled_run(threads);
        let profile = profile_of(&result);
        let engine = result.engine_telemetry.as_ref().expect("telemetry on");
        let calls = |stage: &str| profile.services[stage].calls;
        let samples = result.metrics.samples().len() as u64;
        assert_eq!(calls("sim.event"), result.events_processed - samples);
        assert_eq!(calls("rms.submit"), result.total_submitted());
        assert_eq!(
            calls("site.crash"),
            engine.counters["aequus_sim_crashes_total"]
        );
        assert_eq!(calls("site.crash"), 1, "the plan crashes one site once");
        for (site, shard) in result.site_telemetry.iter().zip(&profile.shards) {
            let timed = |metric: &str| site.histograms[metric].count;
            let counted = |row: &str| shard.stages.get(row).map_or(0, |st| st.calls);
            assert_eq!(timed("aequus_rms_submit_s"), counted("events.arrivals"));
            assert_eq!(timed("aequus_codec_wire_size_s"), counted("gossip.wire"));
            assert!(counted("gossip.wire") > 0, "{threads} workers");
        }
    }
}

#[test]
fn unprofiled_runs_pay_nothing_visible() {
    // A telemetry-off run (the default) has no profile.
    let mut sc = scenario(base_seed());
    sc.telemetry = false;
    let result = GridSimulation::new(sc).run(&trace(), 1800.0);
    assert!(result.profile.is_none() && result.engine_telemetry.is_none());
}
