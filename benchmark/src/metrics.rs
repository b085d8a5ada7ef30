//! The benchmark's contract in one place: metric names, units, directions
//! and bounds. `BENCHMARK.json` at the repo root is [`manifest`]'s output;
//! a test keeps the two identical.

use crate::workloads;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 28;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The manifest's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: something a user of the grid would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, as printed and as keyed in result files.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median it may worsen by before a change is
    /// rejected.
    pub bound: f64,
    /// What kind of measurement it is.
    pub kind: Kind,
    /// Differences smaller than this, in the metric's unit, are no
    /// difference (`compare` only): a relative bound is noise on values that
    /// are themselves a few milliseconds.
    pub floor: f64,
}

/// How a metric is measured, which decides how passes are folded and how
/// two results are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time: steady seconds for the run (`steady.rs`), wall seconds for
    /// set-up. What noise remains is one-sided — contention only ever slows
    /// a pass, and the steady stopwatch under-corrects the worst of it — so
    /// a driver run reports its best pass; `compare` judges medians against
    /// the run-to-run spread.
    Time,
    /// Host memory: steady to a percent; medians.
    Memory,
    /// A pure function of `(workload, seed)`: repeats bit for bit, so any
    /// movement is a change in the modelled system's results.
    Sim,
}

/// The eight end-to-end metrics, reported per workload.
///
/// The sim-time bounds are wide because the contract measures spread across
/// *seeds*, and a different seed is a different simulated grid; for one seed
/// these values repeat bit for bit and `compare` flags any movement at all.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "jobs_per_s",
        unit: "jobs/s",
        better: Better::Higher,
        bound: 0.25,
        kind: Kind::Time,
        floor: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Time,
        floor: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
        kind: Kind::Memory,
        floor: 0.0,
    },
    EndToEnd {
        name: "gossip_bytes_per_job",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Sim,
        floor: 0.0,
    },
    EndToEnd {
        name: "view_convergence_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.05,
        kind: Kind::Sim,
        floor: 0.0,
    },
    EndToEnd {
        name: "fairness_late_dev",
        unit: "share",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::Sim,
        floor: 0.0,
    },
    EndToEnd {
        name: "mean_bounded_slowdown",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.2,
        kind: Kind::Sim,
        floor: 0.0,
    },
    EndToEnd {
        name: "completed_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        kind: Kind::Sim,
        floor: 0.0,
    },
];

/// A per-layer metric (layer = module name before the first dot).
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn busy(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "s",
        better: Better::Lower,
    }
}

const fn count(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "count",
        better: Better::Lower,
    }
}

const fn tail_us(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "us",
        better: Better::Lower,
    }
}

const fn ratio(name: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit: "ratio",
        better,
    }
}

/// Every per-layer metric a traced run reports.
pub const PER_LAYER: [Layer; 70] = [
    // sim
    count("sim.events"),
    Layer {
        name: "sim.ns_per_event",
        unit: "ns",
        better: Better::Lower,
    },
    busy("sim.queue.self_s"),
    count("sim.queue.hwm"),
    busy("sim.preroute.busy_s"),
    busy("sim.route.busy_s"),
    count("sim.route.msgs"),
    busy("sim.sample.busy_s"),
    count("sim.sample.calls"),
    tail_us("sim.sample.p99_us"),
    busy("sim.assemble.busy_s"),
    busy("sim.finish.busy_s"),
    count("sim.faults.dropped"),
    count("sim.faults.partitioned"),
    // rms
    busy("rms.submit.busy_s"),
    count("rms.submit.calls"),
    tail_us("rms.submit.p99_us"),
    busy("rms.advance.busy_s"),
    count("rms.advance.calls"),
    tail_us("rms.advance.p99_us"),
    busy("rms.dispatch.busy_s"),
    count("rms.dispatch.calls"),
    count("rms.backfills"),
    count("rms.queue_depth_max"),
    // services.site
    busy("site.tick.busy_s"),
    count("site.tick.calls"),
    tail_us("site.tick.p99_us"),
    busy("site.recover.busy_s"),
    count("site.recover.calls"),
    // services.uss
    busy("uss.ingest.busy_s"),
    count("uss.ingest.calls"),
    busy("uss.publish.busy_s"),
    count("uss.publish.calls"),
    busy("uss.poll.busy_s"),
    count("uss.poll.msgs"),
    busy("uss.deliver.busy_s"),
    count("uss.deliver.calls"),
    busy("uss.merge.busy_s"),
    count("uss.retries"),
    count("uss.resyncs"),
    count("uss.snapshots"),
    count("uss.duplicates"),
    ratio("uss.useful_ratio", Better::Higher),
    // services.ums / fcs / libaequus
    busy("ums.refresh.busy_s"),
    count("ums.refresh.calls"),
    count("ums.full_rebuilds"),
    busy("fcs.refresh_full.busy_s"),
    count("fcs.refresh_full.calls"),
    busy("fcs.refresh_incr.busy_s"),
    count("fcs.refresh_incr.calls"),
    count("fcs.nodes_recomputed"),
    count("lib.query.calls"),
    ratio("lib.cache_hit_ratio", Better::Higher),
    // core.codec
    busy("codec.wire_size.busy_s"),
    count("codec.msgs"),
    Layer {
        name: "codec.bytes",
        unit: "bytes",
        better: Better::Lower,
    },
    // store
    busy("store.append.busy_s"),
    count("store.append.calls"),
    Layer {
        name: "store.wal_bytes",
        unit: "bytes",
        better: Better::Lower,
    },
    count("store.checkpoints"),
    busy("store.replay.busy_s"),
    count("store.replay.frames"),
    // workload
    busy("workload.generate.busy_s"),
    count("workload.jobs"),
    // telemetry / tracing
    ratio("trace.overhead_ratio", Better::Lower),
    ratio("trace.coverage", Better::Higher),
    ratio("telemetry.overhead_ratio", Better::Lower),
    ratio("telemetry.rss_ratio", Better::Lower),
    count("trace.spans"),
    // host
    ratio("host.slowdown_ratio", Better::Lower),
];

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = workloads::NAMES
        .iter()
        .zip(workloads::WHY)
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(workloads::NAMES)
            .collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(workloads::WHY.iter().all(|w| w.len() <= 200));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(
            before,
            names.len(),
            "a metric or workload name is used twice"
        );
    }
}
