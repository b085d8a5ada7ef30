//! End-to-end decision-provenance and causal-tracing suite: every served
//! priority captured by a fully-traced grid run must replay **bit-for-bit**
//! from its stored explanation — under all three projections — and the
//! causal span chains must survive the chaos fault matrix (gossip retries,
//! resync pulls, snapshot catch-up) without a single broken parent link.
//! With tracing disabled the run must leave no observability residue at all.

use aequus::core::projection::ProjectionKind;
use aequus::core::Explanation;
use aequus::sim::{GridScenario, GridSimulation, Outage, SimResult};
use aequus::telemetry::{SpanRecord, SpanTree};
use aequus::workload::{Trace, TraceJob};
use std::collections::{BTreeSet, HashSet};

fn base_seed() -> u64 {
    std::env::var("AEQUUS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// A compact grid with aggressive service intervals (the chaos suite's
/// tuning) and full tracing: every usage report roots a causal trace and
/// every served query captures replayable provenance.
fn traced_scenario(seed: u64, projection: ProjectionKind) -> GridScenario {
    let mut sc = GridScenario::national_testbed(
        &[
            ("U65", 0.6525),
            ("U30", 0.3049),
            ("U3", 0.0286),
            ("Uoth", 0.0140),
        ],
        seed,
    )
    .with_tracing()
    .sites(3)
    .nodes_per_site(4)
    .compressed()
    .tight_retry(8, 8);
    sc.projection = projection;
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

/// Every provenance record in the result must parse, self-verify, and
/// replay to the exact bits of the factor it was captured with.
fn assert_replays_bit_for_bit(result: &SimResult, label: &str) -> usize {
    let mut checked = 0;
    for (site, recs) in result.site_provenance.iter().enumerate() {
        for rec in recs {
            let ex = Explanation::from_json(&rec.json)
                .unwrap_or_else(|| panic!("{label}: site {site} provenance parses"));
            assert!(
                ex.verify(),
                "{label}: site {site} user {} explanation self-verifies",
                rec.user
            );
            assert_eq!(
                ex.replay().to_bits(),
                rec.factor.to_bits(),
                "{label}: site {site} user {} replay differs from served factor {:?}",
                rec.user,
                rec.factor,
            );
            checked += 1;
        }
    }
    checked
}

/// Every non-root span must find its parent somewhere in the merged
/// per-site stores — a broken link means a retry/resync/snapshot hop
/// dropped the causal context.
fn assert_no_broken_links(result: &SimResult, label: &str) {
    let all: Vec<&SpanRecord> = result.site_spans.iter().flatten().collect();
    let ids: HashSet<u64> = all.iter().map(|s| s.span_id).collect();
    for s in &all {
        assert!(
            s.parent_span == 0 || ids.contains(&s.parent_span),
            "{label}: span {} ({}) at site {} orphaned — parent {} missing",
            s.span_id,
            s.name,
            s.site,
            s.parent_span,
        );
    }
    // The bounded stores must not have evicted (which would make the link
    // check vacuous): the run is sized well under the per-site cap.
    for (site, spans) in result.site_spans.iter().enumerate() {
        assert!(
            spans.len() < 4096,
            "{label}: site {site} store at capacity, links may be evicted"
        );
    }
}

fn sites_of(tree: &SpanTree, out: &mut BTreeSet<u32>) {
    out.insert(tree.record.site);
    for c in &tree.children {
        sites_of(c, out);
    }
}

#[test]
fn replay_is_bit_for_bit_across_all_projections() {
    for projection in [
        ProjectionKind::Percental,
        ProjectionKind::Bitwise,
        ProjectionKind::Dictionary,
    ] {
        let result = run(traced_scenario(base_seed(), projection));
        let checked = assert_replays_bit_for_bit(&result, &format!("{projection:?}"));
        assert!(
            checked > 0,
            "{projection:?}: the traced run captured no provenance"
        );
    }
}

#[test]
fn traces_survive_the_chaos_fault_matrix() {
    let seed = base_seed();
    let outages: [&[Outage]; 2] = [
        &[],
        &[Outage {
            cluster: 1,
            from_s: 120.0,
            to_s: 420.0,
        }],
    ];
    for &drop in &[0.1, 0.3] {
        for (i, outage_set) in outages.iter().enumerate() {
            let label = format!("drop {drop} / outages #{i}");
            let mut sc = traced_scenario(seed, ProjectionKind::Percental);
            sc.faults.drop_probability = drop;
            sc.faults.outages = outage_set.to_vec();
            let result = run(sc);
            assert_no_broken_links(&result, &label);
            assert!(
                assert_replays_bit_for_bit(&result, &label) > 0,
                "{label}: no provenance captured"
            );
            // The surviving spans still assemble into end-to-end causal
            // trees, and gossip still carries contexts across sites.
            let stores: Vec<&[SpanRecord]> = result.site_spans.iter().map(Vec::as_slice).collect();
            let trees = SpanTree::assemble(&stores);
            assert!(!trees.is_empty(), "{label}: no causal trees assembled");
            let cross_site = trees.iter().any(|t| {
                let mut sites = BTreeSet::new();
                sites_of(t, &mut sites);
                sites.len() > 1
            });
            assert!(cross_site, "{label}: no trace crossed a site boundary");
        }
    }
}

#[test]
fn disabled_tracing_leaves_no_residue() {
    let mut sc = traced_scenario(base_seed(), ProjectionKind::Percental);
    sc.telemetry = false;
    sc.tracing = false;
    let result = run(sc);
    assert!(result.site_spans.iter().all(Vec::is_empty));
    assert!(result.site_provenance.iter().all(Vec::is_empty));
    assert!(result.flight_records.is_empty());
    assert!(result.site_telemetry.is_empty());
}
