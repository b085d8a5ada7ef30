//! The parent's side: spawn passes, hold their results per workload, and
//! render them — as the driver's one-line JSON, as a printed table, and as
//! the result file `compare` reads.

use crate::fields::{json_num, json_str, Fields};
use crate::metrics::{Better, EndToEnd, Kind, END_TO_END, PER_LAYER};
use crate::pass::{Mode, PassArgs};
use crate::stats::Quartiles;
use aequus_telemetry::export::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Run one pass in a fresh process of this executable and parse the record
/// it prints. Returns the record and the child's whole wall time.
fn spawn_pass(args: &PassArgs) -> Result<(Fields, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("pass")
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--mode", args.mode.as_str()]);
    if let Some(path) = &args.trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let started = Instant::now();
    // `output` waits for the child, so no process outlives this call.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn pass: {e}"))?;
    let elapsed_s = started.elapsed().as_secs_f64();
    let what = format!("{} pass of {}", args.mode.as_str(), args.workload);
    if !out.status.success() {
        return Err(format!("{what} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{what} printed nothing"))?;
    let fields = Fields::from_json(line).map_err(|e| format!("{what}: {e}"))?;
    Ok((fields, elapsed_s))
}

fn pass_args(workload: &str, seed: u64, mode: Mode) -> PassArgs {
    PassArgs {
        workload: workload.to_string(),
        seed,
        mode,
        trace_out: None,
    }
}

/// One timed pass of one workload: the record and the child's wall time.
pub fn timed_pass(workload: &str, seed: u64) -> Result<(Fields, f64), String> {
    spawn_pass(&pass_args(workload, seed, Mode::Timed))
}

/// Timed passes of one workload for `seconds`: passes start while the next
/// one is still expected to fit, and at least two run. The pass count
/// therefore shrinks on a slow host, which keeps the driver's total-time cap.
pub fn timed_passes(workload: &str, seed: u64, seconds: f64) -> Result<Vec<Fields>, String> {
    let mut passes = Vec::new();
    let mut elapsed_s = 0.0;
    loop {
        let (fields, pass_s) = timed_pass(workload, seed)?;
        passes.push(fields);
        elapsed_s += pass_s;
        let n = passes.len();
        let next_fits = elapsed_s + elapsed_s / n as f64 <= seconds;
        if n >= 2 && !next_fits {
            return Ok(passes);
        }
    }
}

/// The traced passes of one workload, run back to back so host drift hits
/// all three alike.
#[derive(Debug, Clone)]
pub struct Traced {
    /// A plain timed pass: the base of every overhead ratio.
    pub untraced: Fields,
    /// The span replay.
    pub replay: Fields,
    /// The engine with the program's telemetry on.
    pub telemetry: Fields,
}

/// Run the traced passes of one workload.
pub fn traced_passes(
    workload: &str,
    seed: u64,
    trace_out: Option<PathBuf>,
) -> Result<Traced, String> {
    let mut replay = pass_args(workload, seed, Mode::Replay);
    replay.trace_out = trace_out;
    Ok(Traced {
        untraced: timed_pass(workload, seed)?.0,
        replay: spawn_pass(&replay)?.0,
        telemetry: spawn_pass(&pass_args(workload, seed, Mode::Telemetry))?.0,
    })
}

/// Everything measured for one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    /// Digest of the generated inputs (hex).
    pub input_fingerprint: String,
    /// Digest of the simulated results (hex).
    pub sim_digest: String,
    /// Operations attempted: trace jobs.
    pub attempted: u64,
    /// Operations failed: jobs not completed by the horizon, or every job
    /// when an output check failed.
    pub failed: u64,
    /// Failed output checks, empty when the run is correct.
    pub errors: Vec<String>,
    /// End-to-end samples per metric: one per timed pass.
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    /// Per-layer values from the traced pair (empty without one).
    pub per_layer: BTreeMap<String, f64>,
}

impl WorkloadResult {
    /// Fold the timed passes of one workload. Every pass must report the
    /// same inputs and the same simulated results.
    pub fn from_timed(passes: &[Fields]) -> Result<Self, String> {
        let first = passes.first().ok_or("no timed pass ran")?;
        let mut out = Self {
            input_fingerprint: first.get_text("input_fingerprint")?.to_string(),
            sim_digest: first.get_text("sim_digest")?.to_string(),
            attempted: first.get("jobs")? as u64,
            ..Self::default()
        };
        out.failed = out.attempted.saturating_sub(first.get("completed")? as u64);
        for pass in passes {
            if pass.get_text("sim_digest")? != out.sim_digest
                || pass.get_text("input_fingerprint")? != out.input_fingerprint
            {
                out.errors
                    .push("passes of one seed disagree on sim_digest or input_fingerprint".into());
            }
            if let Some(e) = pass.text.get("error") {
                out.errors.push(e.clone());
            }
            let completed = pass.get("completed")?;
            for m in &END_TO_END {
                let v = match m.name {
                    "jobs_per_s" => completed / pass.get("wall_s")?,
                    "completed_share" => completed / pass.get("jobs")?,
                    name => pass.get(name)?,
                };
                out.end_to_end
                    .entry(m.name.to_string())
                    .or_default()
                    .push(v);
            }
        }
        out.errors.dedup();
        Ok(out)
    }

    /// Add the traced passes' per-layer values. All three must reproduce
    /// the timed runs' simulated results: that is the proof the replay and
    /// the telemetry pass measured the same program.
    pub fn add_traced(&mut self, t: &Traced) -> Result<(), String> {
        if self.attempted == 0 {
            // Traced-only run (driver `--trace 1`): identity comes from here.
            *self = Self::from_timed(std::slice::from_ref(&t.untraced))?;
        }
        for pass in [&t.untraced, &t.replay, &t.telemetry] {
            if pass.get_text("sim_digest")? != self.sim_digest {
                self.errors.push(format!(
                    "{} pass digest {} differs from the timed runs' {}",
                    pass.get_text("mode")?,
                    pass.get_text("sim_digest")?,
                    self.sim_digest
                ));
            }
            if let Some(e) = pass.text.get("error") {
                self.errors.push(e.clone());
            }
        }
        let untraced_wall_s = t.untraced.get("wall_s")?;
        for layer in &PER_LAYER {
            let v = match layer.name {
                "trace.overhead_ratio" => t.replay.get("wall_s")? / untraced_wall_s,
                "telemetry.overhead_ratio" => t.telemetry.get("wall_s")? / untraced_wall_s,
                "telemetry.rss_ratio" => {
                    t.telemetry.get("peak_rss_mb")? / t.untraced.get("peak_rss_mb")?
                }
                // How much of the span times below is the host's contention:
                // the replay's wall as the clock read it over its steady wall.
                "host.slowdown_ratio" => t.replay.get("wall_raw_s")? / t.replay.get("wall_s")?,
                "sim.ns_per_event" => untraced_wall_s * 1e9 / t.untraced.get("events")?,
                "workload.generate.busy_s" => t.untraced.get("generate_s")?,
                "workload.jobs" => t.untraced.get("jobs")?,
                // Counts come from the replay's accessor reads; only the
                // sub-stage timings exist nowhere but in the telemetry pass.
                name => t.replay.get(name).or_else(|_| t.telemetry.get(name))?,
            };
            self.per_layer.insert(layer.name.to_string(), v);
        }
        self.errors.dedup();
        Ok(())
    }

    /// The one number a driver run reports for `m`: the best pass for a
    /// time (what contention the steady stopwatch leaves only ever slows a
    /// pass, so the fastest one is the closest to the program's own cost),
    /// the median otherwise.
    pub fn run_value(&self, m: &EndToEnd) -> f64 {
        let values = &self.end_to_end[m.name];
        match (m.kind, m.better) {
            (Kind::Time, Better::Higher) => values.iter().copied().fold(f64::MIN, f64::max),
            (Kind::Time, Better::Lower) => values.iter().copied().fold(f64::MAX, f64::min),
            _ => Quartiles::of(values).median,
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The driver's result line: end-to-end medians (`trace == false`) or
    /// per-layer values (`trace == true`).
    pub fn driver_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = if trace {
            PER_LAYER
                .iter()
                .map(|l| metric_json(l.name, self.per_layer[l.name], l.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| metric_json(m.name, self.run_value(m), m.unit))
                .collect()
        };
        let failed = if self.correct() {
            self.failed
        } else {
            self.attempted
        };
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            failed,
            metrics.join(",")
        )
    }

    /// Human-readable block: every metric by name with its unit.
    pub fn render(&self, name: &str) -> String {
        let mut out = format!(
            "== {name}: input_fingerprint {} sim_digest {} attempted {} failed {}\n",
            self.input_fingerprint, self.sim_digest, self.attempted, self.failed
        );
        for e in &self.errors {
            let _ = writeln!(out, "   CHECK FAILED: {e}");
        }
        for m in &END_TO_END {
            let Some(values) = self.end_to_end.get(m.name) else {
                continue;
            };
            let q = Quartiles::of(values);
            let _ = writeln!(
                out,
                "   {:<24} {:>16.6} {:<7} [q1 {:.6}, q3 {:.6}, n {}] ({} is better, bound {}%)",
                m.name,
                q.median,
                m.unit,
                q.q1,
                q.q3,
                q.n,
                m.better.as_str(),
                m.bound * 100.0
            );
        }
        for l in &PER_LAYER {
            if let Some(v) = self.per_layer.get(l.name) {
                let _ = writeln!(out, "   {:<28} {:>16.6} {}", l.name, v, l.unit);
            }
        }
        out
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}:{{\"value\":{},\"unit\":{}}}",
        json_str(name),
        json_num(value),
        json_str(unit)
    )
}

/// One set: every workload's result for one seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SetResult {
    /// Input seed.
    pub seed: u64,
    /// Per workload, by name.
    pub workloads: BTreeMap<String, WorkloadResult>,
}

impl SetResult {
    /// The result file.
    pub fn to_json(&self) -> String {
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|(name, w)| {
                let end_to_end: Vec<String> = w
                    .end_to_end
                    .iter()
                    .map(|(k, vs)| {
                        let vs: Vec<String> = vs.iter().map(|v| json_num(*v)).collect();
                        format!("{}:[{}]", json_str(k), vs.join(","))
                    })
                    .collect();
                let per_layer: Vec<String> = w
                    .per_layer
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v)))
                    .collect();
                let errors: Vec<String> = w.errors.iter().map(|e| json_str(e)).collect();
                format!(
                    "{}:{{\"input_fingerprint\":{},\"sim_digest\":{},\"attempted\":{},\"failed\":{},\"errors\":[{}],\n  \"end_to_end\":{{{}}},\n  \"per_layer\":{{{}}}}}",
                    json_str(name),
                    json_str(&w.input_fingerprint),
                    json_str(&w.sim_digest),
                    w.attempted,
                    w.failed,
                    errors.join(","),
                    end_to_end.join(","),
                    per_layer.join(",")
                )
            })
            .collect();
        format!(
            "{{\"seed\":{},\"workloads\":{{\n {}\n}}}}\n",
            self.seed,
            workloads.join(",\n ")
        )
    }

    /// Parse a result file.
    pub fn from_json(text: &str) -> Result<Self, String> {
        fn member<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
            v.get(key)
                .ok_or_else(|| format!("result file lacks `{key}`"))
        }
        fn text_of(v: &JsonValue, key: &str) -> Result<String, String> {
            let s = member(v, key)?.as_str();
            s.map(str::to_string)
                .ok_or_else(|| format!("`{key}` is not a string"))
        }
        fn count_of(v: &JsonValue, key: &str) -> Result<u64, String> {
            member(v, key)?
                .as_u64()
                .ok_or_else(|| format!("`{key}` is not a count"))
        }
        fn object_of<'a>(
            v: &'a JsonValue,
            key: &str,
        ) -> Result<&'a BTreeMap<String, JsonValue>, String> {
            member(v, key)?
                .as_object()
                .ok_or_else(|| format!("`{key}` is not an object"))
        }
        let doc = JsonValue::parse(text.trim()).ok_or("result file is not JSON")?;
        let mut out = Self {
            seed: count_of(&doc, "seed")?,
            ..Self::default()
        };
        for (name, w) in object_of(&doc, "workloads")? {
            let mut r = WorkloadResult {
                input_fingerprint: text_of(w, "input_fingerprint")?,
                sim_digest: text_of(w, "sim_digest")?,
                attempted: count_of(w, "attempted")?,
                failed: count_of(w, "failed")?,
                ..WorkloadResult::default()
            };
            for e in member(w, "errors")?
                .as_array()
                .ok_or("`errors` is not an array")?
            {
                r.errors
                    .push(e.as_str().ok_or("an error is not a string")?.to_string());
            }
            for (k, samples) in object_of(w, "end_to_end")? {
                let samples: Option<Vec<f64>> = samples
                    .as_array()
                    .and_then(|vs| vs.iter().map(JsonValue::as_f64).collect());
                r.end_to_end.insert(
                    k.clone(),
                    samples.ok_or_else(|| format!("samples of `{k}` are not numbers"))?,
                );
            }
            for (k, v) in object_of(w, "per_layer")? {
                let v = v.as_f64().ok_or_else(|| format!("`{k}` is not a number"))?;
                r.per_layer.insert(k.clone(), v);
            }
            out.workloads.insert(name.clone(), r);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(wall_s: f64) -> Fields {
        let mut f = Fields::default();
        for (k, v) in [
            ("jobs", 100.0),
            ("completed", 100.0),
            ("wall_s", wall_s),
            ("setup_s", 0.25),
            ("peak_rss_mb", 64.0),
            ("gossip_bytes_per_job", 200.0),
            ("view_convergence_s", 4020.0),
            ("fairness_late_dev", 0.01),
            ("mean_bounded_slowdown", 1.2),
        ] {
            f.set(k, v);
        }
        f.set_text("sim_digest", "00000000000000aa");
        f.set_text("input_fingerprint", "00000000000000bb");
        f
    }

    #[test]
    fn driver_line_reports_best_times_and_counts() {
        let r = WorkloadResult::from_timed(&[timed(4.0), timed(2.0), timed(2.5)]).unwrap();
        assert!(r.correct());
        assert_eq!(r.end_to_end["jobs_per_s"], vec![25.0, 50.0, 40.0]);
        let line = r.driver_line(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":100,\"failed\":0,"));
        assert!(line.contains("\"jobs_per_s\":{\"value\":50,\"unit\":\"jobs/s\"}"));
        assert!(line.contains("\"peak_rss_mb\":{\"value\":64,\"unit\":\"MB\"}"));
        assert!(line.contains("\"completed_share\":{\"value\":1,\"unit\":\"ratio\"}"));
        assert!(JsonValue::parse(&line).is_some(), "valid JSON: {line}");
    }

    #[test]
    fn a_failed_check_fails_every_job() {
        let mut bad = timed(2.0);
        bad.add_error("usage not conserved");
        let r = WorkloadResult::from_timed(&[timed(2.0), bad]).unwrap();
        assert!(!r.correct());
        assert!(r
            .driver_line(false)
            .starts_with("{\"correct\":false,\"attempted\":100,\"failed\":100,"));
    }

    #[test]
    fn diverging_digests_between_passes_are_an_error() {
        let mut other = timed(2.0);
        other.set_text("sim_digest", "00000000000000ab");
        let r = WorkloadResult::from_timed(&[timed(2.0), other]).unwrap();
        assert!(!r.correct());
    }

    #[test]
    fn result_file_round_trips() {
        let mut w = WorkloadResult::from_timed(&[timed(4.0), timed(2.0)]).unwrap();
        w.per_layer.insert("sim.events".into(), 34540.0);
        w.errors.push("a \"quoted\" failure".into());
        let mut set = SetResult {
            seed: 7,
            ..SetResult::default()
        };
        set.workloads.insert("wide_mesh".into(), w);
        assert_eq!(SetResult::from_json(&set.to_json()), Ok(set));
    }
}
