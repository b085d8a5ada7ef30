//! One pass: one workload, once, in a process of its own — so peak RSS and
//! set-up time belong to that workload alone and no pass warms the next.
//! The parent spawns passes and aggregates; this module is the child's side.

use crate::fields::Fields;
use crate::outcome::{input_fingerprint, Outcome};
use crate::replay::replay;
use crate::steady::{self, Lap};
use crate::workloads::{build, Size, Workload};
use aequus_sim::GridSimulation;
use aequus_telemetry::Snapshot;
use std::path::PathBuf;

/// What a pass does. Each runs the workload exactly once, so every pass
/// pays the same first-touch costs and their wall times compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The measured run: `GridSimulation::run`, everything optional off.
    Timed,
    /// The span replay instead of the engine.
    Replay,
    /// The engine with the program's own telemetry on.
    Telemetry,
}

impl Mode {
    /// Command-line spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Replay => "replay",
            Mode::Telemetry => "telemetry",
        }
    }

    /// Parse the command-line spelling.
    pub fn parse(s: &str) -> Option<Self> {
        [Mode::Timed, Mode::Replay, Mode::Telemetry]
            .into_iter()
            .find(|m| m.as_str() == s)
    }
}

/// A pass request.
#[derive(Debug, Clone)]
pub struct PassArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// What to do.
    pub mode: Mode,
    /// Where a replay writes its Chrome trace, if anywhere.
    pub trace_out: Option<PathBuf>,
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// An engine run and what it reports.
struct EngineRun {
    outcome: Outcome,
    /// Stopwatch start to `run` entered.
    setup: Lap,
    /// `GridSimulation::run`.
    ran: Lap,
    site_telemetry: Vec<Snapshot>,
}

fn engine_run(w: &Workload, telemetry: bool) -> EngineRun {
    // The scenario is cloned because the fingerprint needs it after the
    // engine has consumed its copy.
    let scenario = if telemetry {
        w.scenario.clone().with_telemetry()
    } else {
        w.scenario.clone()
    };
    let sim = GridSimulation::new(scenario);
    let setup = steady::lap();
    let mut result = sim.run(&w.trace, w.drain_s);
    let ran = steady::lap();
    let site_telemetry = std::mem::take(&mut result.site_telemetry);
    EngineRun {
        outcome: Outcome::from(result),
        setup,
        ran,
        site_telemetry,
    }
}

/// The simulated results and checks every mode reports.
fn describe(f: &mut Fields, w: &Workload, outcome: &Outcome) {
    let (convergence_s, converged) = outcome.view_convergence_s();
    f.set("jobs", w.trace.len() as f64);
    f.set("completed", outcome.completed() as f64);
    f.set("events", outcome.events_processed as f64);
    f.set("converged", f64::from(u8::from(converged)));
    f.set("gossip_bytes_per_job", outcome.gossip_bytes_per_job());
    f.set("view_convergence_s", convergence_s);
    f.set("fairness_late_dev", outcome.fairness_late_dev());
    f.set("mean_bounded_slowdown", outcome.mean_bounded_slowdown());
    f.set_text("sim_digest", format!("{:016x}", outcome.sim_digest()));
    f.set_text(
        "input_fingerprint",
        format!("{:016x}", input_fingerprint(w)),
    );
    if let Err(e) = outcome.check(w.trace.len()) {
        f.add_error(e);
    }
}

/// The histograms the program already exports, and the sub-stage each one
/// times inside `site.tick`, `rms.advance` and `uss.deliver`.
const TELEMETRY_STAGES: [(&str, &str); 9] = [
    ("aequus_uss_ingest_s", "uss.ingest"),
    ("aequus_uss_publish_s", "uss.publish"),
    ("aequus_uss_receive_s", "uss.merge"),
    ("aequus_ums_refresh_s", "ums.refresh"),
    ("aequus_fcs_refresh_full_s", "fcs.refresh_full"),
    ("aequus_fcs_refresh_incremental_s", "fcs.refresh_incr"),
    ("aequus_rms_dispatch_s", "rms.dispatch"),
    ("aequus_store_wal_append_s", "store.append"),
    ("aequus_store_wal_replay_s", "store.replay"),
];

/// Sum a histogram over the sites' registries: `(seconds, observations)`.
fn stage(snapshots: &[Snapshot], metric: &str) -> (f64, f64) {
    snapshots
        .iter()
        .filter_map(|s| s.histograms.get(metric))
        .fold((0.0, 0.0), |(sum, n), h| {
            (sum + h.sum.max(0.0), n + h.count as f64)
        })
}

/// The run's time both ways: `wall_s` in steady seconds (what every metric
/// is computed from) and `wall_raw_s` as the clock read it.
fn set_wall(f: &mut Fields, ran: Lap) {
    f.set("wall_s", ran.steady_s);
    f.set("wall_raw_s", ran.raw_s);
}

/// Run one pass and return its record. Call it first thing in the process:
/// set-up time runs from here to the engine's `run`.
pub fn run(args: &PassArgs) -> Result<Fields, String> {
    steady::start();
    let w = build(&args.workload, args.seed, Size::Full)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let mut f = Fields::default();
    f.set_text("workload", w.name);
    f.set_text("mode", args.mode.as_str());
    f.set("seed", args.seed as f64);
    f.set("generate_s", w.generate_s);
    match args.mode {
        Mode::Timed | Mode::Telemetry => {
            let engine = engine_run(&w, args.mode == Mode::Telemetry);
            // Set-up is read off the wall clock: the paper's trace generator
            // is arithmetic, which contention barely slows, so scaling it by
            // a cache-bound probe adds noise instead of removing it.
            f.set("setup_s", engine.setup.raw_s);
            set_wall(&mut f, engine.ran);
            f.set("peak_rss_mb", peak_rss_mb()?);
            describe(&mut f, &w, &engine.outcome);
            if args.mode == Mode::Telemetry {
                for (metric, name) in TELEMETRY_STAGES {
                    let (busy_s, calls) = stage(&engine.site_telemetry, metric);
                    f.set(&format!("{name}.busy_s"), busy_s);
                    f.set(&format!("{name}.calls"), calls);
                }
            }
        }
        Mode::Replay => {
            let replayed = replay(&w);
            set_wall(&mut f, replayed.ran);
            describe(&mut f, &w, &replayed.outcome);
            let times = replayed.spans.self_times();
            let coverage = times.covered_s() / replayed.wall_s;
            if coverage < 0.95 {
                f.add_error(format!(
                    "spans cover only {coverage:.3} of the replay: the driver has an untimed gap"
                ));
            }
            f.set("pending_reports", replayed.pending_reports as f64);
            f.set("trace.spans", replayed.spans.spans().len() as f64);
            f.set("trace.coverage", coverage);
            f.set("sim.queue.self_s", times.get("sim.event").self_s);
            for name in [
                "sim.preroute",
                "sim.route",
                "sim.sample",
                "sim.assemble",
                "sim.finish",
                "rms.submit",
                "rms.advance",
                "site.tick",
                "site.recover",
                "uss.poll",
                "uss.deliver",
                "codec.wire_size",
            ] {
                let t = times.get(name);
                f.set(&format!("{name}.busy_s"), t.self_s);
                f.set(&format!("{name}.calls"), t.calls as f64);
                f.set(&format!("{name}.p99_us"), t.tail_us);
                f.set(&format!("{name}.tail_pct"), t.tail_pct);
            }
            for (name, value) in &replayed.counts {
                f.set(name, *value);
            }
            if let Some(path) = &args.trace_out {
                std::fs::write(path, replayed.spans.to_chrome_trace())
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
        }
    }
    Ok(f)
}
