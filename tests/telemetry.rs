//! End-to-end observability: an instrumented grid run must produce a
//! registry snapshot covering every service boundary, the pipeline-delay
//! tracer must respect the configured §IV-A-2 worst case, and both
//! exporters must round-trip the full snapshot losslessly.

use aequus::sim::{GridScenario, GridSimulation};
use aequus::telemetry::export;
use aequus::workload::users::baseline_policy_shares;
use aequus::workload::{Trace, TraceJob};

fn sustained_trace(n: usize) -> Trace {
    Trace::new(
        (0..n)
            .map(|i| TraceJob {
                user: ["U65", "U30", "U3", "Uoth"][i % 4].to_string(),
                submit_s: i as f64 * 10.0,
                duration_s: 30.0,
                cores: 1,
            })
            .collect(),
    )
}

fn small_instrumented_scenario() -> GridScenario {
    let mut sc = GridScenario::national_testbed(&baseline_policy_shares(), 7).with_telemetry();
    sc.clusters.truncate(2);
    for c in &mut sc.clusters {
        c.nodes = 4;
    }
    sc
}

#[test]
fn instrumented_run_covers_every_stage_and_exporters_round_trip() {
    let sc = small_instrumented_scenario();
    let bound = sc.timings.worst_case_pipeline_s();
    let result = GridSimulation::new(sc).run(&sustained_trace(160), 2000.0);

    assert_eq!(result.site_telemetry.len(), 2);
    let snap = &result.site_telemetry[0];

    // Every instrumented service boundary appears in the snapshot.
    for counter in [
        "aequus_uss_records_ingested_total",
        "aequus_uss_summaries_published_total",
        "aequus_uss_summaries_received_total",
        "aequus_ums_refreshes_total",
        "aequus_fcs_refreshes_total",
        "aequus_fcs_queries_total",
        "aequus_irs_lookups_total",
        "aequus_lib_fairshare_hits_total",
        "aequus_lib_identity_hits_total",
        "aequus_rms_submitted_total",
        "aequus_rms_started_total",
        "aequus_tracer_sampled_total",
    ] {
        assert!(snap.counters.contains_key(counter), "missing {counter}");
    }
    for hist in [
        "aequus_uss_ingest_s",
        "aequus_uss_publish_s",
        "aequus_uss_receive_s",
        "aequus_ums_refresh_s",
        "aequus_fcs_refresh_full_s",
        "aequus_fcs_refresh_incremental_s",
        "aequus_fcs_query_s",
        "aequus_irs_resolve_s",
        "aequus_rms_reprioritize_s",
        "aequus_rms_dispatch_s",
        "aequus_tracer_end_to_end_s",
    ] {
        assert!(snap.histograms.contains_key(hist), "missing {hist}");
    }

    // Work actually flowed through the pipeline.
    assert!(snap.counters["aequus_uss_records_ingested_total"] > 0);
    assert!(snap.counters["aequus_tracer_completed_total"] > 0);

    // The FCS query series measures served queries and nothing else: each
    // `libaequus` cache miss asks the FCS exactly once, and the metrics
    // sampler's per-sample factor readout is not a query.
    for (site, snap) in result.site_telemetry.iter().enumerate() {
        let misses = snap.counters["aequus_lib_fairshare_misses_total"];
        assert!(misses > 0, "site {site} served no queries");
        assert_eq!(
            snap.counters["aequus_fcs_queries_total"], misses,
            "site {site}: FCS queries vs libaequus misses"
        );
        assert_eq!(snap.histograms["aequus_fcs_query_s"].count, misses);
    }

    // The measured end-to-end delay respects the configured worst case
    // (quantiles overestimate by at most one sub-bucket, 6.25%).
    let e2e = &snap.histograms["aequus_tracer_end_to_end_s"];
    assert!(e2e.count > 0);
    assert!(
        e2e.p99 <= bound * 1.0625 + 1e-9,
        "e2e p99 {} vs bound {bound}",
        e2e.p99
    );

    // The structured-event ring surfaces in the snapshot and JSON carries
    // it losslessly; Prometheus text has no place for events and omits
    // them (documented), so its round-trip is checked modulo events.
    assert!(
        snap.events.iter().any(|e| e.kind == "uss.gossip_merge"),
        "gossip merges recorded in the event ring"
    );
    let prom = snap.to_prometheus();
    let prom_back = export::from_prometheus(&prom).expect("prometheus parses");
    assert!(prom_back.events.is_empty());
    assert_eq!(prom_back.counters, snap.counters);
    assert_eq!(prom_back.gauges, snap.gauges);
    assert_eq!(prom_back.histograms, snap.histograms);
    let json = snap.to_json();
    assert_eq!(export::from_json(&json).as_ref(), Some(snap));

    // The rendered forms actually carry the stage metrics by name.
    assert!(prom.contains("aequus_tracer_end_to_end_s{quantile=\"0.99\"}"));
    assert!(json.contains("\"aequus_fcs_refresh_full_s\""));
}

#[test]
fn disabled_telemetry_yields_nothing_and_changes_nothing() {
    let mut sc = small_instrumented_scenario();
    sc.telemetry = false;
    let on = GridSimulation::new(small_instrumented_scenario()).run(&sustained_trace(40), 1500.0);
    let off = GridSimulation::new(sc).run(&sustained_trace(40), 1500.0);

    assert!(off.site_telemetry.is_empty());
    assert!(off.engine_telemetry.is_none());
    // Observation must not perturb the simulation itself.
    assert_eq!(on.total_completed(), off.total_completed());
    assert_eq!(on.metrics.samples().len(), off.metrics.samples().len());
    for (a, b) in on.metrics.samples().iter().zip(off.metrics.samples()) {
        assert_eq!(a.utilization, b.utilization);
        assert_eq!(a.users, b.users);
    }
}

#[test]
fn reliability_metrics_track_faults_and_stay_silent_when_clean() {
    use aequus::sim::{FaultPlan, Outage};

    // Clean run: the reliability layer is pure overhead-free bookkeeping —
    // summaries are acked on first delivery, the staleness gauge tracks the
    // publish cadence, and no retry/gap/resync/snapshot traffic exists.
    let clean_sc = small_instrumented_scenario();
    let clean = GridSimulation::new(clean_sc).run(&sustained_trace(120), 2000.0);
    for snap in &clean.site_telemetry {
        for counter in [
            "aequus_uss_retries_total",
            "aequus_uss_seq_gaps_total",
            "aequus_uss_resyncs_total",
            "aequus_uss_snapshots_total",
        ] {
            assert_eq!(
                snap.counters.get(counter).copied().unwrap_or(0),
                0,
                "clean run produced {counter}"
            );
        }
        // The peer-staleness gauge is exported and sane: non-negative, and
        // never beyond the run itself. (It legitimately grows through the
        // idle drain — peers only publish when new slots close.)
        let staleness = snap.gauges["aequus_uss_peer_staleness_s"];
        assert!(
            staleness >= 0.0 && staleness <= clean.end_s,
            "clean-run staleness {staleness}"
        );
    }

    // Faulted run: heavy drops plus an outage force retries; the outage is
    // long enough (> retention x publish interval) that receivers detect
    // gaps and pull resyncs, and outbox/history compaction forces at least
    // one snapshot fallback somewhere.
    let mut faulty_sc = small_instrumented_scenario();
    faulty_sc.faults = FaultPlan {
        drop_probability: 0.4,
        outages: vec![Outage {
            cluster: 1,
            from_s: 300.0,
            to_s: 900.0,
        }],
        crashes: vec![],
    };
    let faulty = GridSimulation::new(faulty_sc).run(&sustained_trace(120), 2000.0);
    let total = |name: &str| -> u64 {
        faulty
            .site_telemetry
            .iter()
            .map(|s| s.counters.get(name).copied().unwrap_or(0))
            .sum()
    };
    assert!(total("aequus_uss_retries_total") > 0, "drops must retry");
    assert!(
        total("aequus_uss_seq_gaps_total") > 0,
        "drops must open gaps"
    );
    assert!(total("aequus_uss_resyncs_total") > 0, "gaps must resync");
    // Dropped deliveries and the partition window show up in the engine's
    // own transport accounting.
    let engine = faulty.engine_telemetry.as_ref().expect("engine snapshot");
    assert!(engine.counters["aequus_sim_gossip_dropped_total"] > 0);
    assert!(engine.counters["aequus_sim_gossip_partitioned_total"] > 0);
}
