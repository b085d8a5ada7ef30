//! The instrument-cost gates: instrumentation must cost what it says it
//! costs. Every instrument is gated as counted work × unit cost: the
//! operations a run of the chaos-calibration grid performs are
//! schedule-derived, so they are held exactly to
//! `results/instrument_ops.json` at 1, 2 and 4 workers, and one
//! operation's cost comes from a tight loop under an absolute ns/op budget
//! — a faster engine cannot fail either half. Budgets sit at ≥ 3× the
//! median a quiet 2-core host reads.

use crate::cli::{Args, Gates};
use crate::{health_chaos_faults, health_chaos_scenario, run_chaos_grid};
use aequus_core::policy::flat_policy;
use aequus_core::{Explanation, FairshareConfig, FairshareTree, GridUser, ProjectionKind};
use aequus_services::Provenance;
use aequus_sim::{GridScenario, SimResult};
use aequus_telemetry::span::STORE_CAP;
use aequus_telemetry::{Ring, ShardProfiler, Snapshot, Telemetry};
use aequus_workload::users::baseline_policy_shares;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// One run of the chaos-calibration grid under its faults on `threads`
/// workers, with the surfaces `on` switches on.
fn chaos_run(threads: usize, on: fn(GridScenario) -> GridScenario) -> SimResult {
    let mut sc = on(health_chaos_scenario(42, 3)).with_threads(threads);
    sc.faults = health_chaos_faults();
    run_chaos_grid(sc)
}

/// Every site's and the engine's telemetry snapshot of a run.
fn snapshots(result: &SimResult) -> impl Iterator<Item = &Snapshot> {
    result.site_telemetry.iter().chain(&result.engine_telemetry)
}

/// The telemetry operations of a telemetry-on run and the tracing
/// operations of a traced one, on `threads` workers: histogram
/// observations (each a timer's two clock reads and one record, or a bare
/// record), the sum of every count the sites' snapshots read off their
/// services (each one plain add where it happened, priced by no gate of
/// its own), spans recorded and decision provenance captured. A gauge is
/// not counted.
fn telemetry_ops(threads: usize) -> Vec<(&'static str, u64)> {
    let metrics = chaos_run(threads, GridScenario::with_telemetry);
    let traced = chaos_run(threads, GridScenario::with_tracing);
    let traced_total = |name: &str| -> u64 {
        snapshots(&traced)
            .filter_map(|s| s.counters.get(name))
            .sum()
    };
    vec![
        (
            "telemetry.histogram_observations",
            snapshots(&metrics)
                .flat_map(|s| s.histograms.values())
                .map(|h| h.count)
                .sum(),
        ),
        (
            "telemetry.counter_total",
            snapshots(&metrics).flat_map(|s| s.counters.values()).sum(),
        ),
        ("tracing.spans", traced_total("aequus_spans_recorded_total")),
        (
            "tracing.captures",
            traced_total("aequus_provenance_captured_total"),
        ),
    ]
}

/// An enabled timer: an `Arc` clone and drop, two clock reads and one
/// histogram record (four atomics). Twenty runs' median 113 ns quiet, 151
/// loud.
const TIMER_BUDGET_NS: f64 = 340.0;
/// A traced child span: the detail rendered, the records lock and a ring
/// push. Median 65 ns quiet, 118 loud.
const SPAN_BUDGET_NS: f64 = 250.0;
/// A provenance capture: the explanation and a push onto the site's typed
/// ring. Median 270 ns quiet, 508 loud (1,899 and 2,962 while a capture
/// also rendered its JSON and took the records lock); five medians of
/// 240–289 ns set the budget at 3× the highest.
const CAPTURE_BUDGET_NS: f64 = 870.0;

/// Telemetry and tracing cost gate: the operations a telemetry-on and a
/// traced run perform — deterministic, so exact — and what one of each
/// instrument costs: a timer observation, a traced span and a provenance
/// capture as `AequusSite::trace_query` makes it. Enforced under
/// `--check`.
pub(super) fn telemetry_overhead(args: &Args, gates: &mut Gates) {
    gates.advisory(!args.check);
    println!(
        "# telemetry cost: operation counts of the telemetry-on and traced chaos grid, \
         then ns per operation"
    );
    let runs: Vec<_> = [1, 2, 4].into_iter().map(telemetry_ops).collect();
    ops_gate(gates, "telemetry and tracing", &runs);

    let enabled = Telemetry::enabled();
    let hist = enabled.histogram("aequus_sim_event_s");
    unit_cost_gate(gates, "timer observation", TIMER_BUDGET_NS, |n| {
        for _ in 0..n {
            black_box(&hist).start_timer().observe();
        }
    });

    let traced = Telemetry::traced(0);
    let root = traced.start_trace("rms.report", 0.0, String::new);
    unit_cost_gate(gates, "traced child span", SPAN_BUDGET_NS, |n| {
        for i in 0..n {
            black_box(traced.child_span(root, "lib.query", i as f64, || format!("job {i}")));
        }
    });
    // `Fcs::explain` is `Explanation::capture` on the served tree: here
    // the chaos grid's policy after one user's usage.
    let user = GridUser::new("U65");
    let policy = flat_policy(&baseline_policy_shares()).expect("the baseline shares form a policy");
    let usage = BTreeMap::from([(user.clone(), 100.0)]);
    let tree = FairshareTree::compute(&policy, &usage, &FairshareConfig::default(), 0.0);
    let mut ring = Ring::new(STORE_CAP);
    unit_cost_gate(gates, "provenance capture", CAPTURE_BUDGET_NS, |n| {
        for i in 0..n {
            let explanation =
                Explanation::capture(&tree, black_box(&user), ProjectionKind::Percental)
                    .expect("the policy holds the user");
            ring.push(Provenance {
                t_s: i as f64,
                trace_id: 1,
                served: explanation.factor,
                explanation,
            });
        }
    });
}

/// The recorded operation counts, in the source tree the binary was built
/// from.
const RECORDED_OPS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/instrument_ops.json"
);

/// Gate one surface's operation counts. `runs` holds the same
/// `(key, count)` rows read off runs at 1, 2 and 4 workers: they must
/// agree, and each row must be a line of `results/instrument_ops.json` — a
/// PR that means to move one edits that file in the same diff and says why
/// (the `results/sim_keys.json` contract).
pub(super) fn ops_gate(gates: &mut Gates, surface: &str, runs: &[Vec<(&str, u64)>]) {
    let recorded = std::fs::read_to_string(RECORDED_OPS).unwrap_or_default();
    let lines: Vec<String> = runs[0]
        .iter()
        .map(|(key, count)| format!("\"{key}\": {count}"))
        .collect();
    let on_file = |line: &String| {
        recorded
            .lines()
            .any(|l| l.trim().trim_end_matches(',') == line)
    };
    gates.check(
        &format!("{surface} operation counts equal results/instrument_ops.json at 1/2/4 workers"),
        runs.iter().all(|r| r == &runs[0]) && lines.iter().all(on_file),
        &lines.join(", "),
    );
}

const BATCHES: usize = 24;
const OPS_PER_BATCH: usize = 10_000;

/// Gate one operation's unit cost: `batch(n)` performs `n` operations; the
/// cost is the minimum over [`BATCHES`] batches of [`OPS_PER_BATCH`] (after
/// one untimed batch), held under the absolute `budget_ns` and printed with
/// the batches' spread.
pub(super) fn unit_cost_gate(
    gates: &mut Gates,
    name: &str,
    budget_ns: f64,
    mut batch: impl FnMut(usize),
) {
    batch(OPS_PER_BATCH);
    let mut per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch(OPS_PER_BATCH);
            start.elapsed().as_nanos() as f64 / OPS_PER_BATCH as f64
        })
        .collect();
    per_op.sort_by(f64::total_cmp);
    gates.check(
        &format!("{name} costs at most {budget_ns:.0} ns"),
        per_op[0] <= budget_ns,
        &format!(
            "min {:.1} ns, median {:.1}, max {:.1} over {BATCHES} batches of {OPS_PER_BATCH}",
            per_op[0],
            per_op[BATCHES / 2],
            per_op[BATCHES - 1]
        ),
    );
}

/// One epoch span: two clock reads, the `epoch` stage row and a ring push.
const EPOCH_SPAN_BUDGET_NS: f64 = 250.0;

/// The profiler's operations in one run of the chaos-calibration grid on
/// `threads` workers: epoch spans opened, summed over shards, and the wire
/// records the profile reads off the shards' ledgers.
fn profiler_ops(threads: usize) -> Vec<(&'static str, u64)> {
    let profile = chaos_run(threads, GridScenario::with_telemetry)
        .profile
        .expect("profiled run");
    let calls = |stage: &str| -> u64 {
        let per_shard = profile.shards.iter().filter_map(|s| s.stages.get(stage));
        per_shard.map(|st| st.calls).sum()
    };
    vec![
        ("profiler.epoch_spans", calls("epoch")),
        ("profiler.wire_records", calls("gossip.wire")),
    ]
}

/// Continuous-profiler cost gate: the operations a profiled run performs —
/// deterministic, so exact — and what an epoch span costs (a wire record
/// is the shard's wire ledger, two adds per send in every run). Enforced
/// under `--check`.
pub(super) fn profiler_overhead(args: &Args, gates: &mut Gates) {
    gates.advisory(!args.check);
    println!("# profiler cost: operation counts of the profiled chaos grid, then ns per operation");
    let runs: Vec<_> = [1, 2, 4].into_iter().map(profiler_ops).collect();
    ops_gate(gates, "profiler", &runs);
    let mut prof = ShardProfiler::new(0, true, Instant::now());
    unit_cost_gate(
        gates,
        "profiler-full epoch span",
        EPOCH_SPAN_BUDGET_NS,
        |n| {
            for epoch in 0..n as u64 {
                prof.begin_epoch(epoch, epoch as f64, epoch);
                prof.end_epoch(black_box(epoch + 3));
            }
        },
    );
    black_box(prof.to_profile());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `ops_gate` holds for `runs`.
    fn holds(runs: &[Vec<(&str, u64)>]) -> bool {
        let mut gates = Gates::default();
        ops_gate(&mut gates, "test", runs);
        gates.failures() == 0
    }

    #[test]
    fn the_ops_gate_holds_rows_on_file_that_every_worker_count_agrees_on() {
        let recorded = std::fs::read_to_string(RECORDED_OPS).expect("results/instrument_ops.json");
        let on_file: Vec<(&str, u64)> = recorded
            .lines()
            .filter_map(|l| {
                let (key, value) = l.trim().trim_end_matches(',').split_once(": ")?;
                Some((key.trim_matches('"'), value.parse().ok()?))
            })
            .collect();
        assert!(!on_file.is_empty(), "the recorded rows parse");
        assert!(holds(&[on_file.clone(), on_file.clone(), on_file.clone()]));

        let mut off = on_file.clone();
        off[0].1 += 1;
        assert!(
            !holds(&[on_file.clone(), off.clone(), on_file.clone()]),
            "one worker count differs"
        );
        assert!(
            !holds(&[off.clone(), off.clone(), off]),
            "a value not on file"
        );
    }
}
