//! The `aequus-bench` driver: one argument parser, one [`Gates`] collector
//! and one dispatcher over a registry of [`Experiment`]s.
//!
//! ```text
//! aequus-bench <experiment> [--check] [positionals]
//! aequus-bench list     # the registry, one row per experiment
//! aequus-bench check    # every CI gate, in order, one gate table
//! ```
//!
//! Arguments that would be ignored are errors: an unknown experiment, an
//! unknown flag, a flag or positional the experiment does not take, or a
//! number that does not parse all exit with code 2 and the usage text —
//! `scale_sweep --chek` must not quietly run the 100k-user shape.

/// One positional parameter of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Param {
    /// An unsigned integer (job counts, shapes, thread counts).
    Num(&'static str),
    /// Free text (a user name).
    Text(&'static str),
}

impl Param {
    fn name(self) -> &'static str {
        match self {
            Param::Num(n) | Param::Text(n) => n,
        }
    }
}

/// One registry entry.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name on the command line.
    pub name: &'static str,
    /// The paper artifact (or repo gate) the experiment reproduces.
    pub artifact: &'static str,
    /// The flags it takes: `--check` or none.
    pub flags: &'static [&'static str],
    /// Its positionals, in order.
    pub params: &'static [Param],
    /// How many positionals may be given: `[0, 1]` is an optional job
    /// count, `[0, 4]` none or a whole shape.
    pub arity: &'static [usize],
    /// The experiment itself.
    pub run: fn(&Args, &mut Gates),
}

impl Experiment {
    /// `name [--flags] [positionals]`, derived from the parser's own tables.
    pub fn usage(&self) -> String {
        let mut out = self.name.to_string();
        for flag in self.flags {
            out.push_str(&format!(" [{flag}]"));
        }
        let required = self.arity.iter().copied().min().unwrap_or(0);
        let all_or_none = self.arity.len() == 2 && self.arity[1] - self.arity[0] > 1;
        let names: Vec<&str> = self.params.iter().map(|p| p.name()).collect();
        for name in &names[..required] {
            out.push_str(&format!(" {name}"));
        }
        if all_or_none {
            out.push_str(&format!(" [{}]", names[required..].join(" ")));
        } else {
            for name in &names[required..] {
                out.push_str(&format!(" [{name}]"));
            }
        }
        out
    }
}

/// The parsed command line of one experiment, already validated against
/// the experiment's [`Experiment::flags`], [`Experiment::params`] and
/// [`Experiment::arity`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// `--check` was given.
    pub check: bool,
    positionals: Vec<String>,
}

impl Args {
    /// Parse `argv` (everything after the experiment name) for `exp`.
    pub fn parse(exp: &Experiment, argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        for word in argv {
            if word.starts_with("--") {
                if word != "--check" || !exp.flags.contains(&"--check") {
                    return Err(format!("{}: unknown flag {word}", exp.name));
                }
                args.check = true;
                continue;
            }
            match exp.params.get(args.positionals.len()) {
                None => return Err(format!("{}: unexpected argument {word:?}", exp.name)),
                Some(Param::Num(name)) if word.parse::<usize>().is_err() => {
                    return Err(format!(
                        "{}: {name} must be a number, got {word:?}",
                        exp.name
                    ));
                }
                Some(_) => args.positionals.push(word.clone()),
            }
        }
        if !exp.arity.contains(&args.positionals.len()) {
            return Err(format!(
                "{}: takes {:?} positional arguments, got {}",
                exp.name,
                exp.arity,
                args.positionals.len()
            ));
        }
        Ok(args)
    }

    /// Positional `i` as text.
    pub fn text(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Positional `i` as a number (the experiment declared it [`Param::Num`]).
    pub fn num(&self, i: usize) -> Option<usize> {
        self.text(i)
            .map(|w| w.parse().expect("the parser validated Num positionals"))
    }
}

/// Grid size and job count of a sweep: the fields `scale_sweep`,
/// `gossip_sweep` and `backfill_sweep` share, with their smoke (`--check`)
/// and full presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Policy leaves (synthetic equal-share users; the trace cycles through
    /// them). The backfill sweep runs the paper's four users whatever this
    /// says.
    pub users: usize,
    /// Sites in the fleet.
    pub sites: usize,
    /// Hosts per site.
    pub nodes_per_site: u32,
    /// Jobs in the trace.
    pub jobs: usize,
}

impl Shape {
    /// Engine scaling, full: 100k users over 32 sites (1024 cores) — the
    /// ROADMAP's first waypoint, sized so the offered load saturates the
    /// grid without unbounded queues; the ≥4×-on-8-cores target is stated
    /// against it.
    pub const SCALE_FULL: Shape = Shape::new(100_000, 32, 32, 28_000);
    /// Engine scaling, CI smoke: small enough for the gate on any machine,
    /// big enough that the epoch barriers and cross-shard mail paths are
    /// genuinely exercised.
    pub const SCALE_SMOKE: Shape = Shape::new(2_000, 8, 8, 1_200);
    /// Gossip trade-off, full: the same 100k × 32 × 32 grid with the job
    /// count near 70% of capacity, so the grid quiesces with ≥600 s of
    /// gossip-only drain.
    pub const GOSSIP_FULL: Shape = Shape::new(100_000, 32, 32, 3_200);
    /// Gossip trade-off, CI smoke: 8 sites give Tree and Hub real interior
    /// structure (a fanout-4 tree with two interior nodes, 4 meshed hubs).
    pub const GOSSIP_SMOKE: Shape = Shape::new(2_000, 8, 8, 200);
    /// Backfill matrix, full: 3 clusters × 4 nodes × 8 cores, 6,000 jobs.
    pub const BACKFILL_FULL: Shape = Shape::new(4, 3, 4, 6_000);
    /// Backfill matrix, CI smoke: 2 clusters × 2 nodes × 8 cores.
    pub const BACKFILL_SMOKE: Shape = Shape::new(4, 2, 2, 1_200);

    /// The positionals a shape is overridden by.
    pub const PARAMS: &'static [Param] = &[
        Param::Num("USERS"),
        Param::Num("SITES"),
        Param::Num("NODES"),
        Param::Num("JOBS"),
    ];

    const fn new(users: usize, sites: usize, nodes_per_site: u32, jobs: usize) -> Shape {
        Shape {
            users,
            sites,
            nodes_per_site,
            jobs,
        }
    }

    /// The shape an experiment runs: its smoke preset under `--check`, its
    /// full one otherwise, replaced by `USERS SITES NODES JOBS` when all
    /// four are given (at least one site, at least one host per site).
    pub fn select(args: &Args, smoke: Shape, full: Shape) -> Shape {
        let preset = if args.check { smoke } else { full };
        match (args.num(0), args.num(1), args.num(2), args.num(3)) {
            (Some(users), Some(sites), Some(nodes), Some(jobs)) => {
                Shape::new(users, sites.max(1), nodes.max(1) as u32, jobs)
            }
            _ => preset,
        }
    }
}

/// The one collector every gated experiment reports to: it prints each
/// verdict as it is recorded, renders the closing table, and owns the
/// process exit code.
#[derive(Debug, Default)]
pub struct Gates {
    experiment: String,
    advisory: bool,
    rows: Vec<GateRow>,
}

#[derive(Debug, PartialEq)]
struct GateRow {
    experiment: String,
    gate: String,
    ok: bool,
    advisory: bool,
}

impl GateRow {
    fn render(&self) -> String {
        let result = match (self.ok, self.advisory) {
            (true, _) => "ok",
            (false, true) => "FAIL (advisory)",
            (false, false) => "FAIL",
        };
        format!("{:<20} {:<70} {result}", self.experiment, self.gate)
    }

    /// Read back a row another `aequus-bench` process rendered.
    fn parse(line: &str) -> Option<GateRow> {
        let (rest, ok, advisory) = if let Some(rest) = line.strip_suffix(" FAIL (advisory)") {
            (rest, false, true)
        } else if let Some(rest) = line.strip_suffix(" FAIL") {
            (rest, false, false)
        } else {
            (line.strip_suffix(" ok")?, true, false)
        };
        let (experiment, gate) = rest.split_once(' ')?;
        Some(GateRow {
            experiment: experiment.to_string(),
            gate: gate.trim().to_string(),
            ok,
            advisory,
        })
    }
}

impl Gates {
    /// Start recording for `experiment` (enforcing until told otherwise).
    pub fn begin(&mut self, experiment: &str) {
        self.experiment = experiment.to_string();
        self.advisory = false;
    }

    /// Report-only mode for the experiment being recorded: failing gates
    /// still print `FAIL` but do not fail the run. The overhead and
    /// backfill experiments enforce their budgets only under `--check`.
    pub fn advisory(&mut self, on: bool) {
        self.advisory = on;
    }

    /// Record gate `name`: `OK: name (detail)` on stdout when it holds,
    /// `FAIL: name (detail)` on stderr when it does not. `detail` carries
    /// the measured values or the reason; empty is left out.
    pub fn check(&mut self, name: &str, ok: bool, detail: &str) {
        let line = match detail {
            "" => name.to_string(),
            _ => format!("{name} ({detail})"),
        };
        if ok {
            println!("OK: {line}");
        } else {
            eprintln!("FAIL: {line}");
        }
        self.rows.push(GateRow {
            experiment: self.experiment.clone(),
            gate: name.to_string(),
            ok,
            advisory: self.advisory,
        });
    }

    /// Enforced gates that failed so far.
    pub fn failures(&self) -> usize {
        self.rows.iter().filter(|r| !r.ok && !r.advisory).count()
    }

    /// 0 when every enforced gate held, 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.failures() > 0)
    }

    /// The closing table: one row per recorded gate.
    pub fn table(&self) -> String {
        let mut out = format!(
            "# gates: {} recorded, {} failed\n",
            self.rows.len(),
            self.failures()
        );
        for r in &self.rows {
            out.push_str(&r.render());
            out.push('\n');
        }
        out
    }

    /// Take over the rows of a [`table`](Self::table) another process
    /// rendered (how `check` collects its per-experiment child processes).
    fn absorb(&mut self, table: &str) {
        self.rows.extend(table.lines().filter_map(GateRow::parse));
    }
}

/// One step of `aequus-bench check`: an experiment and its arguments.
pub type Step = (&'static str, &'static [&'static str]);

fn find<'a>(registry: &'a [Experiment], name: &str) -> Result<&'a Experiment, String> {
    registry
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment {name:?}"))
}

/// Run experiment `name` in this process.
fn in_process(
    registry: &[Experiment],
    name: &str,
    argv: &[String],
    gates: &mut Gates,
) -> Result<(), String> {
    let exp = find(registry, name)?;
    let args = Args::parse(exp, argv)?;
    gates.begin(name);
    (exp.run)(&args, gates);
    Ok(())
}

/// Run experiment `name` as a fresh `aequus-bench name argv…` process and
/// collect its gate rows. `check` isolates its steps this way because the
/// three wall-clock overhead gates read differently after earlier
/// experiments have churned the heap of a shared process (the `health`
/// ratio's median moved 1.042 → 1.049 against a 1.05 budget); each step
/// measures what its stand-alone run measures.
fn isolated(name: &str, argv: &[String], gates: &mut Gates) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate aequus-bench: {e}"))?;
    let child = std::process::Command::new(exe)
        .arg(name)
        .args(argv)
        .stdout(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let log = absorb_child(
        gates,
        name,
        child.status.success(),
        &String::from_utf8_lossy(&child.stderr),
    );
    eprint!("{log}");
    Ok(())
}

/// Split a child's stderr into what to pass on and its closing gate table,
/// and take over the table's rows. A child that failed without naming a
/// failed gate crashed: that is recorded as a gate of its own.
fn absorb_child(gates: &mut Gates, name: &str, succeeded: bool, stderr: &str) -> String {
    let (log, table) = stderr.split_at(stderr.rfind("# gates:").unwrap_or(stderr.len()));
    let failures = gates.failures();
    gates.absorb(table);
    if !succeeded && gates.failures() == failures {
        gates.begin(name);
        gates.check("runs to completion", false, "exited abnormally");
    }
    log.to_string()
}

/// The registry as `aequus-bench list` prints it: usage and artifact, one
/// row per experiment.
pub fn list(registry: &[Experiment]) -> String {
    registry
        .iter()
        .map(|e| format!("{:<56} {}\n", e.usage(), e.artifact))
        .collect()
}

/// What a usage error prints after its message.
pub fn usage(registry: &[Experiment]) -> String {
    format!(
        "usage: aequus-bench <experiment> [--check] [positionals]\n       \
         aequus-bench list\n       \
         aequus-bench check   (every CI gate)\n\n\
         experiments:\n{}",
        list(registry)
    )
}

/// Run one command line against `registry`: an experiment (its gate table,
/// if it recorded any, goes to stderr), `list`, or `check` (every step of
/// `plan` — each in a process of its own when `isolate` — then the closing
/// gate table). `Err` is a usage error — nothing ran.
pub fn dispatch(
    registry: &[Experiment],
    plan: &[Step],
    isolate: bool,
    argv: &[String],
) -> Result<Gates, String> {
    let mut gates = Gates::default();
    let (command, rest) = argv.split_first().ok_or("no experiment named")?;
    match command.as_str() {
        "list" if rest.is_empty() => print!("{}", list(registry)),
        "list" => return Err("list takes no arguments".to_string()),
        "check" if rest.is_empty() => {
            // Validate the whole plan before the first (minutes-long) step.
            let steps: Vec<(&str, Vec<String>)> = plan
                .iter()
                .map(|(name, words)| {
                    let argv: Vec<String> = words.iter().map(|w| w.to_string()).collect();
                    Args::parse(find(registry, name)?, &argv)?;
                    Ok((*name, argv))
                })
                .collect::<Result<_, String>>()?;
            for (name, argv) in steps {
                println!("\n== aequus-bench {name} {}", argv.join(" "));
                if isolate {
                    isolated(name, &argv, &mut gates)?;
                } else {
                    in_process(registry, name, &argv, &mut gates)?;
                }
            }
            print!("\n{}", gates.table());
        }
        "check" => return Err("check takes no arguments".to_string()),
        name => {
            in_process(registry, name, rest, &mut gates)?;
            if !gates.rows.is_empty() {
                eprint!("{}", gates.table());
            }
        }
    }
    Ok(gates)
}

/// [`dispatch`], with usage errors printed and mapped to exit code 2.
pub fn run(registry: &[Experiment], plan: &[Step], isolate: bool, argv: &[String]) -> i32 {
    match dispatch(registry, plan, isolate, argv) {
        Ok(gates) => gates.exit_code(),
        Err(message) => {
            eprintln!("error: {message}\n\n{}", usage(registry));
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop(_: &Args, _: &mut Gates) {}

    fn passes(_: &Args, gates: &mut Gates) {
        gates.check("holds", true, "");
    }

    fn always_fails(args: &Args, gates: &mut Gates) {
        gates.advisory(!args.check);
        gates.check("never holds <= 1.0", false, "ratio 2.0");
    }

    const JOBS: Experiment = Experiment {
        name: "jobs",
        artifact: "test",
        flags: &["--check"],
        params: &[Param::Num("JOBS"), Param::Num("THREADS")],
        arity: &[0, 1, 2],
        run: noop,
    };
    const SHAPED: Experiment = Experiment {
        name: "shaped",
        artifact: "test",
        flags: &["--check"],
        params: Shape::PARAMS,
        arity: &[0, 4],
        run: passes,
    };
    const NAMED: Experiment = Experiment {
        name: "named",
        artifact: "test",
        flags: &[],
        params: &[Param::Text("USER"), Param::Num("JOBS")],
        arity: &[1, 2],
        run: noop,
    };
    const FAILING: Experiment = Experiment {
        name: "always_fails",
        artifact: "test",
        flags: &["--check"],
        params: &[],
        arity: &[0],
        run: always_fails,
    };
    const REGISTRY: &[Experiment] = &[JOBS, SHAPED, NAMED, FAILING];

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_and_positionals_parse_in_any_order() {
        let a = Args::parse(&JOBS, &words("--check 1200 4")).unwrap();
        assert!(a.check);
        assert_eq!((a.num(0), a.num(1), a.num(2)), (Some(1200), Some(4), None));
        let b = Args::parse(&JOBS, &words("1200 --check")).unwrap();
        assert_eq!((b.check, b.num(0)), (true, Some(1200)));
        assert_eq!(Args::parse(&JOBS, &[]).unwrap(), Args::default());
        let n = Args::parse(&NAMED, &words("U65 1500")).unwrap();
        assert_eq!(
            (n.text(0), n.num(1), n.check),
            (Some("U65"), Some(1500), false)
        );
    }

    #[test]
    fn ignored_arguments_are_errors() {
        // The three silent failures of the parent's hand-rolled parsers.
        assert!(
            Args::parse(&SHAPED, &words("--chek")).is_err(),
            "typo'd flag"
        );
        assert!(
            Args::parse(&JOBS, &words("--check 12oo")).is_err(),
            "bad number"
        );
        assert!(
            Args::parse(&JOBS, &words("--verbose")).is_err(),
            "unknown flag"
        );
        // And their neighbours: a flag the experiment does not take, too
        // many positionals, a partial shape, a missing required name.
        assert!(Args::parse(&NAMED, &words("U65 --check")).is_err());
        assert!(Args::parse(&JOBS, &words("1 2 3")).is_err());
        assert!(Args::parse(&SHAPED, &words("2000 8")).is_err());
        assert!(Args::parse(&NAMED, &[]).is_err());
        assert!(Args::parse(&JOBS, &words("-5")).is_err(), "negative count");
    }

    #[test]
    fn usage_errors_exit_2_and_run_nothing() {
        for line in [
            "",
            "nonesuch",
            "jobs --chek",
            "jobs 12oo",
            "list extra",
            "check BENCH.json",
        ] {
            assert_eq!(run(REGISTRY, &[], false, &words(line)), 2, "{line:?}");
        }
        // A bad step anywhere in the plan is caught before any step runs.
        let plan: &[Step] = &[("always_fails", &["--check"]), ("jobs", &["--chek"])];
        assert!(dispatch(REGISTRY, plan, false, &words("check")).is_err());
        assert_eq!(run(REGISTRY, &[], false, &words("jobs 1200 --check")), 0);
        assert_eq!(run(REGISTRY, &[], false, &words("list")), 0);
    }

    #[test]
    fn shape_override_takes_users_sites_nodes_jobs() {
        let (smoke, full) = (Shape::SCALE_SMOKE, Shape::SCALE_FULL);
        let pick =
            |line: &str| Shape::select(&Args::parse(&SHAPED, &words(line)).unwrap(), smoke, full);
        assert_eq!(pick(""), full);
        assert_eq!(pick("--check"), smoke);
        let custom = Shape {
            users: 500,
            sites: 4,
            nodes_per_site: 2,
            jobs: 300,
        };
        assert_eq!(pick("500 4 2 300"), custom);
        assert_eq!(
            pick("--check 500 4 2 300"),
            custom,
            "override beats the preset"
        );
        let clamped = pick("500 0 0 300");
        assert_eq!((clamped.sites, clamped.nodes_per_site), (1, 1));
    }

    #[test]
    fn usage_is_derived_from_the_parser_tables() {
        assert_eq!(JOBS.usage(), "jobs [--check] [JOBS] [THREADS]");
        assert_eq!(SHAPED.usage(), "shaped [--check] [USERS SITES NODES JOBS]");
        assert_eq!(NAMED.usage(), "named USER [JOBS]");
        assert_eq!(FAILING.usage(), "always_fails [--check]");
    }

    #[test]
    fn a_failing_gate_fails_check_and_is_named_in_the_table() {
        let plan: &[Step] = &[
            ("shaped", &["--check"]),
            ("named", &["U65", "1500"]),
            ("always_fails", &["--check"]),
        ];
        let gates = dispatch(REGISTRY, plan, false, &words("check")).unwrap();
        assert_eq!(gates.exit_code(), 1);
        let table = gates.table();
        assert!(
            table.starts_with("# gates: 2 recorded, 1 failed\n"),
            "{table}"
        );
        let failing: Vec<&str> = table.lines().filter(|l| l.ends_with("FAIL")).collect();
        assert_eq!(failing.len(), 1, "{table}");
        assert!(
            failing[0].starts_with("always_fails") && failing[0].contains("never holds <= 1.0")
        );
        assert!(table
            .lines()
            .any(|l| l.starts_with("shaped") && l.ends_with("ok")));
        assert_eq!(run(REGISTRY, plan, false, &words("check")), 1);
        // Without the failing step the same plan is green.
        assert_eq!(run(REGISTRY, &plan[..2], false, &words("check")), 0);
    }

    #[test]
    fn advisory_failures_report_without_failing_the_run() {
        let gates = dispatch(REGISTRY, &[], false, &words("always_fails")).unwrap();
        assert_eq!(gates.exit_code(), 0);
        assert!(gates.table().contains("FAIL (advisory)"));
        assert_eq!(run(REGISTRY, &[], false, &words("always_fails --check")), 1);
    }

    #[test]
    fn a_child_process_hands_its_gate_rows_to_check() {
        // What a child prints on stderr: its FAIL lines, then its table.
        let mut child = Gates::default();
        child.begin("always_fails");
        child.check("holds", true, "");
        child.check("never holds <= 1.0", false, "ratio 2.0");
        child.advisory(true);
        child.check("reported only", false, "slow");
        let stderr = format!("FAIL: ratio 2.0\nFAIL: slow\n{}", child.table());

        let mut gates = Gates::default();
        let log = absorb_child(&mut gates, "always_fails", false, &stderr);
        assert_eq!(
            log, "FAIL: ratio 2.0\nFAIL: slow\n",
            "the rest is passed on"
        );
        assert_eq!(gates.rows, child.rows);
        assert_eq!(gates.table(), child.table());
        assert_eq!(gates.exit_code(), 1);

        // A child that died without a table is a failed gate, not silence.
        let mut gates = Gates::default();
        let log = absorb_child(&mut gates, "jobs", false, "thread 'main' panicked\n");
        assert_eq!(log, "thread 'main' panicked\n");
        assert!(gates.table().contains("runs to completion"));
        assert_eq!(gates.exit_code(), 1);
        // And a clean child without gates adds nothing.
        let mut gates = Gates::default();
        absorb_child(&mut gates, "jobs", true, "");
        assert_eq!(gates.table(), "# gates: 0 recorded, 0 failed\n");
    }
}
