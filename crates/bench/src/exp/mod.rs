//! The experiment registry: every table, figure and gate of the
//! reproduction as one [`Experiment`] row, and the CI gate plan over them.

mod ablations;
mod characterization;
mod explain;
mod health;
mod overhead;
mod sim_keys;
mod sweeps;
mod testbed;

use crate::cli::{Args, Experiment, Gates, Param, Shape, Step};

const CHECK: &[&str] = &["--check"];

/// An experiment whose only argument is an optional job count.
const fn sized(
    name: &'static str,
    artifact: &'static str,
    run: fn(&Args, &mut Gates),
) -> Experiment {
    Experiment {
        name,
        artifact,
        flags: &[],
        params: &[Param::Num("JOBS")],
        arity: &[0, 1],
        run,
    }
}

/// A sweep over a [`Shape`]: `--check` picks the smoke preset, four
/// positionals override it.
const fn shaped(
    name: &'static str,
    artifact: &'static str,
    run: fn(&Args, &mut Gates),
) -> Experiment {
    Experiment {
        name,
        artifact,
        flags: CHECK,
        params: Shape::PARAMS,
        arity: &[0, 4],
        run,
    }
}

/// A gate with no positionals: `--check` or nothing.
const fn gate(
    name: &'static str,
    artifact: &'static str,
    run: fn(&Args, &mut Gates),
) -> Experiment {
    Experiment {
        flags: CHECK,
        params: &[],
        arity: &[0],
        ..sized(name, artifact, run)
    }
}

/// Every experiment, in the order `aequus-bench list` prints them: the
/// paper's artifacts first, then the repo's own sweeps, gates and tools.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        params: &[],
        arity: &[0],
        ..sized("table1", "Table I — projection property matrix", characterization::table1)
    },
    sized("table2", "Table II — job-arrival fits (median, BIC-best family, KS)", characterization::table2),
    sized("table3", "Table III — job-duration fits", characterization::table3),
    sized("fig4", "Fig. 4 — daily job-arrival histogram (total vs U65)", characterization::fig4),
    sized("fig5", "Fig. 5 — U65 arrival PDF with the four phases (Eq. 1)", characterization::fig5),
    sized("fig6", "Fig. 6 — arrival CDFs, fitted vs empirical", characterization::fig6),
    sized("fig7", "Fig. 7 — job-size CDFs per user", characterization::fig7),
    sized("fig10_baseline", "Fig. 10 — baseline convergence run (§IV-A-2's reference)", testbed::fig10_baseline),
    sized("fig11_update_delay", "Fig. 11 — impact of update delay (10x time-scaled trace)", testbed::fig11_update_delay),
    sized("fig11_tracer", "Fig. 11 companion — measured pipeline delay vs configured caps", testbed::fig11_tracer),
    sized("fig12_nonoptimal", "Fig. 12 — non-optimal policy test (70/20/8/2)", testbed::fig12_nonoptimal),
    sized("partial_participation", "§IV-A-4 — partial cluster participation", testbed::partial_participation),
    sized("fig13_bursty", "Fig. 13 — bursty usage test", testbed::fig13_bursty),
    Experiment {
        params: &[Param::Num("JOBS"), Param::Num("THREADS")],
        arity: &[0, 1, 2],
        ..sized("throughput", "§IV-A — throughput and utilization measurements", testbed::throughput)
    },
    sized("production", "§IV — production-deployment statistics (HPC2N shape)", testbed::production),
    sized("ablation_distance_weight", "ablation — distance weight k (paper: 0.5)", ablations::ablation_distance_weight),
    sized("ablation_decay", "ablation — usage decay function (§II-A)", ablations::ablation_decay),
    sized("ablation_projection", "ablation — projection algorithm end to end (Table I)", ablations::ablation_projection),
    sized("ablation_dispatch", "ablation — queue dispatch order on the baseline trace", ablations::ablation_dispatch),
    sized("ablation_cache_ttl", "ablation — §IV-A-2 delay chain scaled as a whole", ablations::ablation_cache_ttl),
    sized("hierarchy_isolation", "extension — Table I's subgroup isolation through the full stack", ablations::hierarchy_isolation),
    sized("local_autonomy", "extension — §II-A local administrative autonomy", ablations::local_autonomy),
    sized("fault_sweep", "reliability — view convergence vs exchange drop rate", sweeps::fault_sweep),
    sized("recovery_sweep", "gate — WAL-replay recovery vs snapshot-only catch-up", sweeps::recovery_sweep),
    shaped("scale_sweep", "gate — sharded-engine scaling and thread-count determinism", sweeps::scale_sweep),
    shaped("gossip_sweep", "gate — overlay x encoding bytes-vs-convergence trade-off", sweeps::gossip_sweep),
    Experiment {
        flags: CHECK,
        ..sized("backfill_sweep", "gate — dispatch order x projection matrix on the bursty mixed-width trace", sweeps::backfill_sweep)
    },
    gate("telemetry_overhead", "gate — telemetry cost on the scheduler hot path", overhead::telemetry_overhead),
    gate("profiler_overhead", "gate — continuous-profiler cost: operation counts x ns per operation", overhead::profiler_overhead),
    gate("health", "gate — fairness-health report, SLO alerts, gossip health map", health::health),
    Experiment {
        params: &[Param::Text("USER"), Param::Num("SITE"), Param::Num("JOBS")],
        arity: &[0, 1, 2, 3],
        ..sized("explain", "tool — causal span tree and replayable provenance of one served priority", explain::explain)
    },
    gate("sim_keys", "gate — the thirteen simulated headline numbers, byte for byte against results/sim_keys.json", sim_keys::sim_keys),
];

/// What `aequus-bench check` runs, in order: the gates `ci.sh` enforces
/// after the test suites.
pub const CHECK_PLAN: &[Step] = &[
    // The instrumented dispatch hot path must stay within 5% of its
    // baseline — metrics-only vs disabled, and tracing (spans +
    // provenance) vs metrics-only.
    ("telemetry_overhead", CHECK),
    // The profiler's operation counts on the chaos grid (epoch spans, wire
    // records) must equal results/instrument_ops.json at 1/2/4 workers,
    // and one epoch span / one wire record must cost at most its absolute
    // ns budget in a tight loop.
    ("profiler_overhead", CHECK),
    // Smoke-sized: every overlay topology and wire encoding must end with
    // views within 1e-9 of the full-mesh baseline's, every point must
    // converge inside the horizon, and the Delta codec must cut full-mesh
    // bytes-on-wire by the shape's gated factor (the 3x headline gate runs
    // at the full 100k-user x 32-site shape via `gossip_sweep`). And two
    // growth ratios, 1k -> 10k users: a `Uss::publish` carrying one fresh
    // user costs at most 3x more, `tracked_users` at most 20x.
    ("gossip_sweep", CHECK),
    // The fault-free chaos grid must fire zero alerts, the 30%-drop + outage
    // run must fire a staleness alert and resolve it after recovery, the
    // health report and alert stream must be byte-identical across worker
    // counts, the health path's operation counts (SLO rule observations,
    // link rows) must equal results/instrument_ops.json, and one of each
    // must cost at most its absolute ns budget in a tight loop.
    ("health", CHECK),
    // Smoke-sized: every dispatch order x projection cell must drain the
    // bursty mixed-width trace with finite fairness error, EASY/SAF
    // utilization must not fall below FIFO's, FIFO and EASY must be
    // bit-identical on the single-core baseline, the learned predictors
    // must beat request echo on mean |rel err| with the prediction-accuracy
    // telemetry counter live, and the scheduler hot path must hold its
    // budget (sub-us next_admitted at 10k-deep queues, plan-scan growth well
    // under O(n^2), a saturated scheduling cycle that costs at most 3x more
    // with 10,000 jobs queued than with 1,000 and at most 5 ns per further
    // lane or running job, and at most 15 ns per queued job a nearly full
    // machine turns down inside its lane).
    ("backfill_sweep", CHECK),
    // The thirteen simulated headline numbers (convergence times, gossip
    // bytes per user, staleness and alert lag, the backfill smoke cells)
    // must equal results/sim_keys.json byte for byte; a PR that means to
    // move one edits that file in the same diff and says why.
    ("sim_keys", CHECK),
    // WAL replay must reconverge the crashed site's views strictly earlier
    // than surcharged snapshot-only catch-up on every seed.
    ("recovery_sweep", &[]),
    // Smoke-sized: every worker count must replay the serial run
    // seed-for-seed, and the continuous profiler's folded stacks must be
    // byte-identical across worker counts; on hosts with >= 8 cores the 4x
    // wall-clock speedup target is enforced too (reported but skipped on
    // smaller hosts — determinism is hardware-independent, speedup is not).
    // Artifacts: SCALE_TRACE.json (Chrome trace) + SCALE_PROFILE.folded.
    ("scale_sweep", CHECK),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{dispatch, list};

    #[test]
    fn registry_names_are_unique_and_are_what_list_prints() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate experiment name");
        assert_eq!(names.len(), 32);
        let listing = list(EXPERIMENTS);
        let listed: Vec<&str> = listing
            .lines()
            .map(|l| l.split_whitespace().next().expect("non-empty row"))
            .collect();
        assert_eq!(listed, names);
        for e in EXPERIMENTS {
            assert!(e.arity.iter().all(|&n| n <= e.params.len()), "{}", e.name);
            assert!(e.flags.iter().all(|f| *f == "--check"), "{}", e.name);
        }
    }

    #[test]
    fn check_runs_the_gates_ci_ran_in_ci_order() {
        let steps: Vec<String> = CHECK_PLAN
            .iter()
            .map(|(name, argv)| format!("{name} {}", argv.join(" ")).trim_end().to_string())
            .collect();
        assert_eq!(
            steps,
            [
                "telemetry_overhead --check",
                "profiler_overhead --check",
                "gossip_sweep --check",
                "health --check",
                "backfill_sweep --check",
                "sim_keys --check",
                "recovery_sweep",
                "scale_sweep --check",
            ]
        );
    }

    #[test]
    fn the_plan_parses_against_the_registry() {
        // An empty plan prefix runs nothing; a bad step would be a usage
        // error before any experiment starts.
        for (name, argv) in CHECK_PLAN {
            let exp = EXPERIMENTS
                .iter()
                .find(|e| e.name == *name)
                .expect("registered");
            let argv: Vec<String> = argv.iter().map(|w| w.to_string()).collect();
            assert!(Args::parse(exp, &argv).is_ok(), "{name} {argv:?}");
        }
        let extra = ["check".to_string(), "BENCH.json".to_string()];
        assert!(dispatch(EXPERIMENTS, CHECK_PLAN, false, &extra).is_err());
        assert!(dispatch(EXPERIMENTS, CHECK_PLAN, false, &["tabel1".to_string()]).is_err());
    }
}
