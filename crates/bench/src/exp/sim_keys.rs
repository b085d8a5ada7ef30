//! `sim_keys` — the thirteen simulated headline numbers of this revision,
//! held byte for byte to `results/sim_keys.json`.

use crate::cli::{Args, Gates, Shape};
use crate::{
    run_gossip_sweep, run_health_chaos, run_matrix, run_prediction_comparison, run_recovery_sweep,
    run_with_faults, HEALTH_OUTAGE_S,
};
use aequus_core::codec::Encoding;
use aequus_core::projection::ProjectionKind;
use aequus_rms::DispatchOrder;
use aequus_services::OverlayTopology;

/// The recorded document, in the source tree the binary was built from.
const RECORDED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/sim_keys.json");

/// Job count of the faulted baseline run and the seed of every run below.
const JOBS: usize = 1_500;
const SEED: u64 = 42;

/// Every key with its value, in document order. Each is simulated time or
/// a count — a pure function of the code, identical on any host. `-1.0`
/// stands for "never converged / never fired".
fn keys() -> Vec<(&'static str, f64)> {
    // Total seconds the cross-site usage views spent divergent (> 1e-6)
    // under a 10% exchange-drop plan.
    let faulted = run_with_faults(JOBS, 0.1, SEED);
    let divergent_s: f64 = faulted
        .metrics
        .view_divergence_series()
        .windows(2)
        .filter(|w| w[0].1 >= 1e-6)
        .map(|w| w[1].0 - w[0].0)
        .sum();
    // Smoke-sized gossip sweep: bytes per active user of the production
    // configuration (full mesh, Delta codec) and the latest convergence
    // across the hierarchical overlays.
    let gossip = run_gossip_sweep(&Shape::GOSSIP_SMOKE);
    let bytes_per_user = gossip
        .point(OverlayTopology::FullMesh, Encoding::Delta)
        .map_or(-1.0, |p| p.bytes_per_user);
    // The chaos-suite crash plan with and without the durable store.
    let recovery = &run_recovery_sweep(48, &[SEED])[0];
    // The chaos-calibration grid `health --check` gates: worst per-link
    // staleness p99 and the staleness alert's detection lag on the full
    // mesh, and the depth-2 convergence-lag rollup on a fanout-2 tree.
    let health = run_health_chaos(SEED, 3, None);
    let staleness_p99 = health
        .health_report
        .as_ref()
        .expect("health run reports")
        .links
        .iter()
        .map(|l| l.staleness_p99_s)
        .fold(0.0f64, f64::max);
    let detection_lag = health
        .alerts
        .iter()
        .find(|a| a.transition == "firing" && a.rule.starts_with("staleness:"))
        .map_or(-1.0, |a| a.t_s - HEALTH_OUTAGE_S.0);
    let tree = run_health_chaos(SEED, 6, Some(OverlayTopology::Tree { fanout: 2 }));
    let depth2_lag = tree.health_report.as_ref().and_then(|r| r.depth_lag(2));
    // Smoke-sized backfill matrix, Percental column of the bursty
    // mixed-width workload, and the running-average predictor's accuracy
    // under 3x-padded requests.
    let matrix = run_matrix(&Shape::BACKFILL_SMOKE);
    let cell = |order: DispatchOrder| {
        matrix
            .iter()
            .find(|c| c.order == order && c.projection == ProjectionKind::Percental)
            .expect("full matrix")
    };
    let easy = cell(DispatchOrder::Easy);
    vec![
        ("gossip_divergent_s", divergent_s),
        ("gossip_bytes_per_user", bytes_per_user),
        (
            "overlay_convergence_s",
            gossip.worst_convergence_s().unwrap_or(-1.0),
        ),
        (
            "recovery_wal_replay_s",
            recovery.durable_convergence_s.unwrap_or(-1.0),
        ),
        (
            "recovery_snapshot_only_s",
            recovery.volatile_convergence_s.unwrap_or(-1.0),
        ),
        ("staleness_p99_s", staleness_p99),
        ("alert_detection_lag_s", detection_lag),
        ("depth2_convergence_lag_s", depth2_lag.unwrap_or(-1.0)),
        (
            "backfill_fifo_util_pct",
            100.0 * cell(DispatchOrder::Fifo).utilization,
        ),
        ("backfill_easy_util_pct", 100.0 * easy.utilization),
        ("backfill_easy_slowdown", easy.mean_slowdown),
        ("backfill_easy_conv_s", easy.converge_s.unwrap_or(-1.0)),
        (
            "backfill_predict_rel_err",
            run_prediction_comparison(&Shape::BACKFILL_SMOKE).avg_err,
        ),
    ]
}

/// The flat document: one `"key": value` line per key, shortest
/// round-tripping float digits.
fn document(keys: &[(&str, f64)]) -> String {
    let lines: Vec<String> = keys
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value:?}"))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// What separates the computed document from the recorded one: the first
/// line that differs, or `None` when they are byte-identical.
fn first_difference(computed: &str, recorded: &str) -> Option<String> {
    if computed == recorded {
        return None;
    }
    let differing = computed
        .lines()
        .zip(recorded.lines())
        .find(|(got, want)| got != want);
    Some(match differing {
        Some((got, want)) => format!("computed `{}`, recorded `{}`", got.trim(), want.trim()),
        None => "one document is a prefix of the other".to_string(),
    })
}

/// Print the simulated headline numbers (definitions: `crates/bench/README.md`)
/// as the flat document `results/sim_keys.json` records; `--check` holds the
/// two byte for byte. A PR that means to move one of them regenerates the
/// file in the same diff (`aequus-bench sim_keys > results/sim_keys.json`)
/// and says why — the `results/sim_digests.seed*` contract.
pub(super) fn sim_keys(args: &Args, gates: &mut Gates) {
    let computed = document(&keys());
    print!("{computed}");
    if !args.check {
        return;
    }
    let difference = match std::fs::read_to_string(RECORDED) {
        Ok(recorded) => first_difference(&computed, &recorded),
        Err(e) => Some(format!("cannot read {RECORDED}: {e}")),
    };
    gates.check(
        "every simulated key equals results/sim_keys.json byte for byte",
        difference.is_none(),
        difference.as_deref().unwrap_or(""),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_document_is_flat_json_and_any_changed_digit_is_named() {
        let doc = document(&[("a_s", 960.0), ("b_pct", 78.7302043568004)]);
        assert_eq!(
            doc,
            "{\n  \"a_s\": 960.0,\n  \"b_pct\": 78.7302043568004\n}\n"
        );
        assert_eq!(first_difference(&doc, &doc), None);
        let edited = doc.replace("78.73", "78.74");
        assert_eq!(
            first_difference(&doc, &edited).as_deref(),
            Some("computed `\"b_pct\": 78.7302043568004`, recorded `\"b_pct\": 78.7402043568004`")
        );
        assert!(first_difference(&doc, "{\n").is_some());
        assert!(first_difference(&doc, "").is_some());
    }
}
