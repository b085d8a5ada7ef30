//! The benchmark's command line. `benchmark/run.sh` builds this and passes
//! its arguments through; see README.md for the modes.

use aequus_benchmark::compare::compare;
use aequus_benchmark::metrics::{manifest, RUN_SECONDS};
use aequus_benchmark::pass::{self, Mode, PassArgs};
use aequus_benchmark::report::{
    timed_pass, timed_passes, traced_passes, SetResult, WorkloadResult,
};
use aequus_benchmark::workloads::NAMES;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  run.sh --workload NAME --seed N --seconds S --trace 0|1   one workload, one JSON result line
  run.sh [--seed N] [--repeats R] [--twice] [--out NAME]    every workload: a set (two with --twice)
  run.sh compare A.json B.json                              judge B against A
  run.sh manifest                                           print BENCHMARK.json";

/// Where sets and traces are written, relative to the repo root `run.sh`
/// changes into.
const RESULTS_DIR: &str = "benchmark/results";

/// `--flag value` pairs and bare switches, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot read `{v}`")),
        }
    }

    fn switch(&mut self, flag: &str) -> bool {
        match self.0.iter().position(|a| a == flag) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`\n{USAGE}")),
        }
    }
}

/// The child side of a spawned pass.
fn pass_mode(mut flags: Flags) -> Result<ExitCode, String> {
    let args = PassArgs {
        workload: flags.value("--workload")?.ok_or("pass needs --workload")?,
        seed: flags.parsed("--seed")?.ok_or("pass needs --seed")?,
        mode: flags
            .value("--mode")?
            .and_then(|m| Mode::parse(&m))
            .ok_or("pass needs --mode timed|replay|telemetry")?,
        trace_out: flags.value("--trace-out")?.map(PathBuf::from),
    };
    flags.finish()?;
    println!("{}", pass::run(&args)?.to_json());
    Ok(ExitCode::SUCCESS)
}

/// The acceptance driver's mode: one workload, one result line.
fn driver_mode(workload: String, mut flags: Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(42);
    let seconds: f64 = flags.parsed("--seconds")?.unwrap_or(f64::from(RUN_SECONDS));
    let trace = match flags.value("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    flags.finish()?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`; known: {NAMES:?}"));
    }
    let result = if trace {
        let mut r = WorkloadResult::default();
        r.add_traced(&traced_passes(&workload, seed, None)?)?;
        r
    } else {
        WorkloadResult::from_timed(&timed_passes(&workload, seed, seconds)?)?
    };
    for e in &result.errors {
        eprintln!("check failed on {workload}: {e}");
    }
    println!("{}", result.driver_line(trace));
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One set: `repeats` timed passes over all workloads, interleaved so a
/// burst of host contention is shared rather than landing on one workload,
/// then one traced pair per workload.
fn run_set(seed: u64, repeats: usize, name: &str) -> Result<SetResult, String> {
    let started = Instant::now();
    std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("create {RESULTS_DIR}: {e}"))?;
    let mut timed: Vec<Vec<_>> = NAMES.iter().map(|_| Vec::new()).collect();
    for repeat in 1..=repeats {
        for (w, passes) in NAMES.iter().zip(&mut timed) {
            eprintln!("[{name}] timed pass {repeat}/{repeats} of {w}");
            passes.push(timed_pass(w, seed)?.0);
        }
    }
    let mut set = SetResult {
        seed,
        ..SetResult::default()
    };
    for (w, passes) in NAMES.iter().zip(&timed) {
        eprintln!("[{name}] traced passes of {w}");
        let mut result = WorkloadResult::from_timed(passes)?;
        let trace_out = Path::new(RESULTS_DIR).join(format!("{w}.trace.json"));
        let traced = traced_passes(w, seed, Some(trace_out))?;
        result.add_traced(&traced)?;
        print!("{}", result.render(w));
        println!(
            "   note: pending_reports = {}",
            traced.replay.get("pending_reports")?
        );
        for span in ["sim.sample", "rms.submit", "rms.advance", "site.tick"] {
            println!(
                "   note: {span}.p99_us is the p{:.2} of {} samples",
                traced.replay.get(&format!("{span}.tail_pct"))?,
                traced.replay.get(&format!("{span}.calls"))?
            );
        }
        set.workloads.insert((*w).to_string(), result);
    }
    let path = Path::new(RESULTS_DIR).join(format!("{name}.json"));
    std::fs::write(&path, set.to_json()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "set {name}: seed {seed}, {repeats} repeats, {:.1} s elapsed, written to {}",
        started.elapsed().as_secs_f64(),
        path.display()
    );
    Ok(set)
}

fn set_mode(mut flags: Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(42);
    let repeats: usize = flags.parsed("--repeats")?.unwrap_or(5);
    let twice = flags.switch("--twice");
    let name = flags.value("--out")?.unwrap_or(format!("seed{seed}"));
    flags.finish()?;
    if repeats < 3 {
        return Err("--repeats must be at least 3: a median of fewer says nothing".into());
    }
    let sets = if twice {
        vec![
            run_set(seed, repeats, &format!("{name}_1"))?,
            run_set(seed, repeats, &format!("{name}_2"))?,
        ]
    } else {
        vec![run_set(seed, repeats, &name)?]
    };
    let mut ok = sets
        .iter()
        .all(|s| s.workloads.values().all(WorkloadResult::correct));
    if let [first, second] = &sets[..] {
        let (table, any_worse) = compare(first, second)?;
        print!("{table}");
        ok &= !any_worse;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_mode(flags: Flags) -> Result<ExitCode, String> {
    let [a, b] = &flags.0[..] else {
        return Err(format!("compare takes two result files\n{USAGE}"));
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| SetResult::from_json(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, any_worse) = compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first().map(String::as_str) {
        Some("pass" | "compare" | "manifest") => args.remove(0),
        _ => String::new(),
    };
    let mut flags = Flags(args);
    let outcome = match command.as_str() {
        "pass" => pass_mode(flags),
        "compare" => compare_mode(flags),
        "manifest" => {
            print!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => match flags.value("--workload") {
            Ok(Some(workload)) => driver_mode(workload, flags),
            Ok(None) => set_mode(flags),
            Err(e) => Err(e),
        },
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::FAILURE
    })
}
