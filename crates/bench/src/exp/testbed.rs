//! The integrated test-bed experiments of §IV-A: the baseline convergence
//! run, the update-delay, non-optimal-policy, partial-participation and
//! bursty tests, the throughput measurements, and the §IV production
//! deployment shape.

use crate::cli::{Args, Gates};
use crate::report;
use crate::{
    baseline_trace, parallel_sweep, peak_priority, run_baseline, run_baseline_on, run_bursty,
    run_bursty_on, run_nonoptimal, run_partial_participation, run_update_delay, steady_utilization,
    BALANCE_DWELL_S, BALANCE_EPS, PAPER_JOBS, SWEEP_USERS,
};
use aequus_sim::{GridScenario, GridSimulation, MetricsLog};
use aequus_telemetry::stage::delay_histogram;
use aequus_telemetry::HistogramSnapshot;
use aequus_workload::users::baseline_policy_shares;
use aequus_workload::{test_trace, TestTraceConfig};

/// The (a) usage-share and (b) priority panels of a convergence figure:
/// one series per model user, every fifth sample.
fn print_panels(shares_title: &str, priority_title: &str, m: &MetricsLog) {
    let panel = |title: &str, series: &dyn Fn(&str) -> Vec<(f64, f64)>| {
        let columns: Vec<(&str, Vec<(f64, f64)>)> =
            SWEEP_USERS.iter().map(|&u| (u, series(u))).collect();
        println!("{}", report::render_series(title, &columns, 5));
    };
    panel(shares_title, &|u| m.usage_share_series(u));
    panel(priority_title, &|u| m.priority_series(u));
}

/// Baseline convergence run (the reference case of §IV-A, called Figure 10a
/// by §IV-A-2): policy = actual usage shares, 6 h, 43,200 jobs, 95% load.
pub(super) fn fig10_baseline(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(PAPER_JOBS);
    let result = run_baseline(jobs, 42);
    let m = &result.metrics;
    print_panels(
        "Figure 10a: baseline — per-user usage share (targets .6525/.3049/.0286/.0140)",
        "Figure 10b: baseline — per-user priority (fairshare distance)",
        m,
    );
    println!("{}", report::render_summary("baseline", &result));
}

/// Figure 11 reproduction: impact of update delay. The baseline is
/// time-scaled ×10 while the absolute service delays stay fixed, making the
/// delays a magnitude shorter relative to the workload. Paper: "a magnitude
/// shorter update and delay times contribute to a 10%–15% shorter
/// convergence time compared with the baseline case."
pub(super) fn fig11_update_delay(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(20_000);
    let seeds: Vec<u64> = (40..48).collect();
    eprintln!(
        "running baseline + 10x-scaled pairs ({jobs} jobs, {} seeds, in parallel)...",
        seeds.len()
    );
    let outcomes = parallel_sweep(&seeds, |&seed| run_update_delay(jobs, 10.0, seed));
    println!("# Figure 11: relative convergence time (fraction of test length)");
    println!(
        "{:>6} {:>10} {:>10} {:>13}",
        "seed", "baseline", "scaled", "improvement"
    );
    let mut improvements = Vec::new();
    for (seed, o) in seeds.iter().zip(&outcomes) {
        println!(
            "{:>6} {:>10.4} {:>10.4} {:>12.1}%",
            seed,
            o.baseline_fraction,
            o.scaled_fraction,
            100.0 * o.relative_improvement()
        );
        improvements.push(o.relative_improvement());
    }
    // Median, not mean — the paper's own §IV-2 argument (after Downey &
    // Feitelson): convergence-onset estimates have occasional outliers that
    // make the mean "completely arbitrary", while the median is resilient.
    improvements.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = improvements[improvements.len() / 2];
    println!(
        "\nmedian relative improvement over {} seeds: {:.1}% (paper: 10–15%)",
        seeds.len(),
        100.0 * median
    );
}

/// Figure 11 companion: *measured* pipeline update delay vs the configured
/// §IV-A-2 worst case. The update-delay experiment (`fig11_update_delay`)
/// varies the delay chain's *relative* magnitude; this one instruments
/// the baseline with the pipeline-delay tracer and reports, per stage, the
/// empirical delay distribution next to its configured cap — showing how
/// much of the worst-case budget `worst_case_pipeline_s()` the deployment
/// actually consumes.
pub(super) fn fig11_tracer(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(PAPER_JOBS);
    let seed = 42;
    let scenario = GridScenario::national_testbed(&baseline_policy_shares(), seed).with_telemetry();
    let timings = scenario.timings;
    eprintln!("running instrumented baseline ({jobs} jobs)...");
    let trace = baseline_trace(jobs, seed);
    let result = GridSimulation::new(scenario).run(&trace, 1800.0);

    // Aggregate one stage histogram across sites: total count plus the
    // worst site's quantiles (quantiles are not mergeable; the max is the
    // conservative cross-site bound).
    let stage_stats = |name: &str| -> (u64, Option<HistogramSnapshot>) {
        let total = result
            .site_telemetry
            .iter()
            .filter_map(|s| s.histograms.get(name).map(|h| h.count))
            .sum();
        let worst = result
            .site_telemetry
            .iter()
            .filter_map(|s| s.histograms.get(name))
            .filter(|h| h.count > 0)
            .max_by(|a, b| a.p99.partial_cmp(&b.p99).expect("finite quantiles"))
            .copied();
        (total, worst)
    };

    println!("# Figure 11 companion: measured pipeline delay vs configured caps");
    println!(
        "{:>11} {:>8} {:>10} {:>10} {:>10} {:>12} {:>8}",
        "stage", "traces", "p50(s)", "p99(s)", "max(s)", "cap(s)", "p99/cap"
    );
    for (stage, cap_s) in timings.stage_caps() {
        let (count, worst) = stage_stats(delay_histogram(stage));
        match worst {
            Some(h) => println!(
                "{stage:>11} {count:>8} {:>10.1} {:>10.1} {:>10.1} {cap_s:>12.1} {:>7.0}%",
                h.p50,
                h.p99,
                h.max,
                100.0 * h.p99 / cap_s.max(f64::MIN_POSITIVE)
            ),
            None => println!(
                "{stage:>11} {count:>8} {:>43} {cap_s:>12.1}",
                "(no samples)"
            ),
        }
    }
    let bound = timings.worst_case_pipeline_s();
    let (count, e2e) = stage_stats("aequus_tracer_end_to_end_s");
    match e2e {
        Some(h) => println!(
            "{:>11} {count:>8} {:>10.1} {:>10.1} {:>10.1} {bound:>12.1} {:>7.0}%",
            "e2e",
            h.p50,
            h.p99,
            h.max,
            100.0 * h.p99 / bound.max(f64::MIN_POSITIVE)
        ),
        None => println!(
            "{:>11} {count:>8} {:>43} {bound:>12.1}",
            "e2e", "(no samples)"
        ),
    }
    println!(
        "\nNotes: stage delays are measured at cluster-tick granularity, so the\n\
         uss.ingest stage can read a few seconds over its cap. lib.query measures\n\
         *observed* visibility — it includes the wait for the traced user's next\n\
         uncached fairshare fetch, so at low per-user load it exceeds the pure TTL\n\
         cap; the end-to-end p99 is the figure to hold against the {bound:.0} s\n\
         worst-case budget (at the paper's 95% load it sits well inside it)."
    );

    println!();
    println!("{}", report::render_telemetry(&result));
}

/// Figure 12 reproduction: non-optimal policy test. Same workload as the
/// baseline, but policy targets 70/20/8/2 against actual usage of
/// 65.25/30.49/2.86/1.40. Shape targets: close to balance in the 120–180
/// minute range; balance lost when U65 jobs dry up; re-convergence when U65
/// jobs return; late-run dominated by U30 jobs running despite low priority.
pub(super) fn fig12_nonoptimal(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(PAPER_JOBS);
    let result = run_nonoptimal(jobs, 42);
    let m = &result.metrics;
    print_panels(
        "Figure 12a: non-optimal policy — usage shares (targets .70/.20/.08/.02)",
        "Figure 12b: non-optimal policy — priorities",
        m,
    );
    println!("{}", report::render_summary("non-optimal policy", &result));
}

/// Mean and population standard deviation.
fn mean_stddev(series: &[f64]) -> (f64, f64) {
    let n = series.len().max(1) as f64;
    let mean = series.iter().sum::<f64>() / n;
    let var = series.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// §IV-A-4 reproduction: partial cluster participation. Site 1 reads global
/// data but does not contribute; site 2 contributes but prioritizes on local
/// data only. Shape targets: the read-only site's priorities stay well
/// aligned with fully participating sites; the local-only site converges to
/// the same levels but slower and with more fluctuation; no noticeable
/// impact on the global prioritization.
pub(super) fn partial_participation(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(PAPER_JOBS);
    let result = run_partial_participation(jobs, 42);
    let reference = run_baseline(jobs, 42);

    println!("# Partial participation: per-site priority alignment vs site 0 (full)");
    println!("site roles: 0,3,4,5 = Full | 1 = ReadOnly | 2 = LocalOnly");
    println!(
        "{:<6} {:<10} {:>18} {:>18}",
        "site", "role", "mean |Δprio| (U65)", "prio stddev (U65)"
    );
    let samples = result.metrics.samples();
    for site in 0..6 {
        let role = match site {
            1 => "ReadOnly",
            2 => "LocalOnly",
            _ => "Full",
        };
        let mut diffs = Vec::new();
        let mut series = Vec::new();
        for s in samples {
            if let (Some(p), Some(p0)) = (
                s.per_site_priority.get(site).and_then(|m| m.get("U65")),
                s.per_site_priority.first().and_then(|m| m.get("U65")),
            ) {
                diffs.push((p - p0).abs());
                series.push(*p);
            }
        }
        let (mean_diff, _) = mean_stddev(&diffs);
        let (_, stddev) = mean_stddev(&series);
        println!(
            "{:<6} {:<10} {:>18.4} {:>18.4}",
            site, role, mean_diff, stddev
        );
    }

    // Global impact check: full sites' convergence vs an all-full reference.
    let conv_partial = result
        .metrics
        .convergence_time(BALANCE_EPS, BALANCE_DWELL_S);
    let conv_reference = reference
        .metrics
        .convergence_time(BALANCE_EPS, BALANCE_DWELL_S);
    println!(
        "\nglobal convergence: partial-participation run {:?} min vs all-full reference {:?} min",
        conv_partial.map(|t| (t / 60.0).round()),
        conv_reference.map(|t| (t / 60.0).round())
    );
}

/// Figure 13 reproduction: bursty usage test. Job mix 45.5/6.5/45.5/3,
/// usage shares 47/38.5/12/2.5, U3 burst shifted to one third of the run.
/// Shape targets: balance between minutes ~80 and ~130 (U3's unused
/// allocation divided among the others), U3 priority peaking at
/// 0.5·(1+0.12) = 0.56, readjustment after the burst at the ~130 min mark.
pub(super) fn fig13_bursty(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(PAPER_JOBS);
    let result = run_bursty(jobs, 42);
    let m = &result.metrics;
    print_panels(
        "Figure 13a: bursty — usage shares (targets .47/.385/.12/.025)",
        "Figure 13b: bursty — priorities",
        m,
    );
    // Figure 13c: the job arrival model (jobs per minute per user).
    println!("# Figure 13c: arrivals per minute (see submissions_per_minute)");
    let spm = &m.submissions_per_minute;
    for (minute, count) in spm.iter().enumerate().step_by(10) {
        println!("{minute:>6} {count:>8}");
    }
    let max_u3 = peak_priority(&result, "U3");
    println!(
        "\nU3 peak priority: {:.3} (paper bound: 0.5*(1+0.12) = 0.56)",
        max_u3
    );
    let active_windows: Vec<String> = m
        .active_balance_windows(BALANCE_EPS)
        .iter()
        .filter(|(a, b)| b - a >= 600.0)
        .map(|(a, b)| format!("[{:.0},{:.0}]min", a / 60.0, b / 60.0))
        .collect();
    println!(
        "active-user balance windows (idle users excluded, paper's balance notion): {}",
        if active_windows.is_empty() {
            "none".to_string()
        } else {
            active_windows.join(" ")
        }
    );
    println!("{}", report::render_summary("bursty", &result));
}

/// §IV-A throughput reproduction: "the test bed was found to support a
/// sustained job submission rate of about 120 jobs per minute. The peak job
/// submission rate during the bursty test reaches 472 jobs per minute...
/// the total utilization varies between 93% and 97%." THREADS runs the
/// sharded engine on that many workers (results are thread-count
/// deterministic; only wall clock changes).
pub(super) fn throughput(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(PAPER_JOBS);
    let threads = args.num(1).unwrap_or(1).max(1);
    let base = run_baseline_on(jobs, 42, threads);
    let bursty = run_bursty_on(jobs, 42, threads);
    println!("# Throughput and utilization ({threads} shard workers)");
    println!(
        "baseline: sustained {:.0} jobs/min (paper ~120), peak {} jobs/min",
        base.metrics.sustained_submission_rate(),
        base.metrics.peak_submission_rate()
    );
    println!(
        "bursty:   sustained {:.0} jobs/min, peak {} jobs/min (paper peak 472)",
        bursty.metrics.sustained_submission_rate(),
        bursty.metrics.peak_submission_rate()
    );
    println!(
        "steady-window utilization: baseline {:.1}%, bursty {:.1}% (paper 93–97%)",
        100.0 * steady_utilization(&base, 0.1, 0.85),
        100.0 * steady_utilization(&bursty, 0.1, 0.85)
    );
    println!(
        "jobs completed: baseline {}/{}, bursty {}/{}",
        base.total_completed(),
        base.total_submitted(),
        bursty.total_completed(),
        bursty.total_submitted()
    );
}

/// §IV production-deployment reproduction: Aequus beside SLURM on a single
/// HPC2N-shaped cluster (68 nodes × 8 cores = 544 cores), ~40,000 jobs per
/// month, multi-month horizon. Shape targets: stable long-run operation, no
/// queue blow-up, no fairshare pipeline failures.
pub(super) fn production(args: &Args, _gates: &mut Gates) {
    // Three months at ~40k jobs/month.
    let months = 3usize;
    let jobs = args.num(0).unwrap_or(40_000 * months);
    let horizon_s = months as f64 * 30.0 * 86400.0;
    let mut scenario = GridScenario::production_cluster(&baseline_policy_shares(), 42);
    // Production cadence: minute-scale ticks and service intervals.
    scenario.tick_interval_s = 60.0;
    scenario.sample_interval_s = 3600.0;
    scenario.usage_slot_s = 3600.0;
    scenario.timings.uss_publish_interval_s = 300.0;
    scenario.timings.ums_refresh_interval_s = 300.0;
    scenario.timings.fcs_refresh_interval_s = 300.0;
    scenario.fairshare.decay = aequus_core::DecayPolicy::Exponential {
        half_life_s: 7.0 * 86400.0, // the production default: one week
    };
    let trace = test_trace(&TestTraceConfig {
        total_jobs: jobs,
        test_len_s: horizon_s,
        load_target: 0.85, // production clusters run hot but not saturated
        capacity_cores: scenario.total_cores(),
        ..Default::default()
    });
    eprintln!(
        "simulating {} jobs over {} months on 544 cores...",
        trace.len(),
        months
    );
    let result = GridSimulation::new(scenario).run(&trace, 86400.0);
    println!("# Production statistics (HPC2N shape)");
    println!(
        "jobs/month: {:.0} (paper: ~40,000)",
        result.total_completed() as f64 / months as f64
    );
    println!(
        "completed {}/{} ({:.2}%)",
        result.total_completed(),
        result.total_submitted(),
        100.0 * result.total_completed() as f64 / result.total_submitted().max(1) as f64
    );
    println!(
        "mean utilization: {:.1}%",
        100.0 * result.mean_utilization()
    );
    let max_pending = result
        .metrics
        .samples()
        .iter()
        .map(|s| s.pending)
        .max()
        .unwrap_or(0);
    let final_pending = result
        .metrics
        .samples()
        .last()
        .map(|s| s.pending)
        .unwrap_or(0);
    println!("peak queue: {max_pending} jobs; final queue: {final_pending} (stability: bounded)");
    println!(
        "mean wait: {:.1} min",
        result.cluster_stats[0].mean_wait_s() / 60.0
    );
}
