//! Workload characterization (§III): Tables I–III and Figs. 4–7, re-derived
//! from the projection probes and a synthetic year trace.

use crate::cli::{Args, Gates};
use aequus_core::projection::properties::table1 as property_matrix;
use aequus_stats::{ContinuousDistribution, Ecdf, Histogram};
use aequus_workload::characterize::{
    periodicity_scan, render_rows, table2_arrival, table3_duration, FitRow,
};
use aequus_workload::models::{arrival_model, u65_composite_arrival, u65_phase_bounds};
use aequus_workload::users::{UserClass, YEAR_S};
use aequus_workload::{synthetic_year, Trace};

/// Table I reproduction: measured property matrix of the fairshare-vector
/// representation and the three projection algorithms.
pub(super) fn table1(_args: &Args, _gates: &mut Gates) {
    println!("Table I: Overview of algorithms projecting fairshare vectors to singular numerical values.");
    println!(
        "{:<22} {:>8} {:>12} {:>19} {:>13} {:>11}",
        "", "∞ Depth", "∞ Precision", "Subgroup Isolation", "Proportional", "Combinable"
    );
    for (label, props) in property_matrix() {
        let mark = |b: bool| if b { "✓" } else { "✗" };
        let r = props.row();
        println!(
            "{:<22} {:>7} {:>12} {:>19} {:>13} {:>11}",
            label,
            mark(r[0]),
            mark(r[1]),
            mark(r[2]),
            mark(r[3]),
            mark(r[4])
        );
    }
    println!();
    println!("(every cell is *measured* by adversarial probes, not hard-coded;");
    println!(" see aequus_core::projection::properties)");
}

/// Tables II and III: fit a synthetic year trace (BIC over 18 families)
/// and print the per-user rows.
fn fit_table(args: &Args, title: &str, fit: fn(&Trace) -> Vec<FitRow>) {
    let jobs = args.num(0).unwrap_or(200_000);
    eprintln!("generating {jobs}-job synthetic year trace + fitting (BIC over 18 families)...");
    let trace = synthetic_year(jobs, 2012);
    println!("{}", render_rows(title, &fit(&trace)));
}

/// Table II reproduction: job-arrival medians, BIC-selected distributions,
/// and KS goodness-of-fit values, re-derived from a synthetic year trace.
pub(super) fn table2(args: &Args, _gates: &mut Gates) {
    fit_table(
        args,
        "Table II: Job arrival — median inter-arrival (s), best fitted distribution, KS",
        table2_arrival,
    );
    println!("paper (shape targets): GEV best for U65 phases/U3/Uoth, Burr for U30;");
    println!("KS in the 0.02–0.15 band; composite Eq.(1) fit best of the U65 rows.");
}

/// Table III reproduction: job-duration medians, BIC-selected distributions,
/// and KS values, re-derived from a synthetic year trace.
pub(super) fn table3(args: &Args, _gates: &mut Gates) {
    fit_table(
        args,
        "Table III: Job duration — median (s), best fitted distribution, KS",
        table3_duration,
    );
    println!("paper (shape targets): BS for U65 & Uoth, Weibull for U30, Burr for U3");
    println!("(U3 worst fit); U65 median = BS β ≈ 1.76e4 s; U3 jobs ≪ U65 jobs.");
}

/// Figure 4 reproduction: job arrivals as a function of time, one-day bins,
/// total jobs vs U65 jobs.
pub(super) fn fig4(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(200_000);
    let trace = synthetic_year(jobs, 2012);
    let mut total = Histogram::new(0.0, YEAR_S, 365);
    let mut u65 = Histogram::new(0.0, YEAR_S, 365);
    for j in trace.jobs() {
        total.add(j.submit_s);
        if j.user == "U65" {
            u65.add(j.submit_s);
        }
    }
    println!("# Figure 4: jobs per day (total vs U65), bin = 1 day");
    println!("{:>5} {:>9} {:>9}", "day", "total", "U65");
    for d in 0..365 {
        println!("{:>5} {:>9} {:>9}", d, total.counts()[d], u65.counts()[d]);
    }
    // Shape summary: U65 dominance, and the §IV-2 periodicity scan of its
    // daily arrivals.
    let u65_frac = u65.total() as f64 / total.total() as f64;
    eprintln!("U65 fraction of jobs: {:.3} (paper: 0.8103)", u65_frac);
    match periodicity_scan(&trace, Some("U65"), 86_400.0) {
        Some((lag, r)) => {
            eprintln!("U65 periodicity: dominant lag {lag} d, autocorrelation {r:.3}")
        }
        None => eprintln!("U65 periodicity: no significant lag"),
    }
}

/// Figure 5 reproduction: probability density of U65 job arrival over the
/// year (1-day bins), empirical histogram vs the Eq. (1) composite model,
/// with the four phase boundaries.
pub(super) fn fig5(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(200_000);
    let trace = synthetic_year(jobs, 2012);
    let mut hist = Histogram::new(0.0, YEAR_S, 365);
    for j in trace.jobs() {
        if j.user == "U65" {
            hist.add(j.submit_s);
        }
    }
    let model = u65_composite_arrival();
    println!("# Figure 5: U65 arrival density, empirical vs Eq.(1) composite");
    println!(
        "# phase boundaries (days): {:?}",
        u65_phase_bounds().map(|(lo, _)| (lo / 86400.0) as u32)
    );
    println!("{:>5} {:>14} {:>14}", "day", "empirical_pdf", "model_pdf");
    let density = hist.density();
    for (d, dens) in density.iter().enumerate() {
        let x = hist.bin_center(d);
        println!("{:>5} {:>14.6e} {:>14.6e}", d, dens, model.pdf(x));
    }
}

/// Figure 6 reproduction: cumulative probability of job arrival per user,
/// empirical (thick) vs fitted model (thin).
pub(super) fn fig6(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(200_000);
    let trace = synthetic_year(jobs, 2012);
    println!("# Figure 6: arrival-time CDFs, empirical vs model (100 points over the year)");
    print!("{:>5}", "day");
    for u in UserClass::ALL {
        print!(" {:>9}_e {:>9}_m", u.name(), u.name());
    }
    println!();
    let ecdfs: Vec<Ecdf> = UserClass::ALL
        .iter()
        .map(|u| Ecdf::new(&trace.submits(Some(u.name()))))
        .collect();
    let models: Vec<_> = UserClass::ALL.iter().map(|&u| arrival_model(u)).collect();
    for i in 0..=100 {
        let x = YEAR_S * i as f64 / 100.0;
        print!("{:>5.0}", x / 86400.0);
        for (e, m) in ecdfs.iter().zip(&models) {
            // Models are compared on the re-scaled (year-confined) range.
            let m_cdf = (m.cdf(x) / m.cdf(YEAR_S).max(1e-300)).min(1.0);
            print!(" {:>11.4} {:>11.4}", e.eval(x), m_cdf);
        }
        println!();
    }
}

/// Figure 7 reproduction: empirical CDF of job sizes (durations) per user.
/// Shape target: U65/U3/Uoth focused in [0, 6e5]; U30 with a larger tail and
/// generally larger job sizes (larger median).
pub(super) fn fig7(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(200_000);
    let trace = synthetic_year(jobs, 2012);
    let ecdfs: Vec<Ecdf> = UserClass::ALL
        .iter()
        .map(|u| Ecdf::new(&trace.durations(Some(u.name()))))
        .collect();
    println!("# Figure 7: job-size CDFs (log-spaced durations, seconds)");
    print!("{:>12}", "duration_s");
    for u in UserClass::ALL {
        print!(" {:>9}", u.name());
    }
    println!();
    for i in 0..=60 {
        let x = 10f64.powf(i as f64 / 10.0); // 1 s .. 1e6 s
        print!("{:>12.1}", x);
        for e in &ecdfs {
            print!(" {:>9.4}", e.eval(x));
        }
        println!();
    }
    for (u, e) in UserClass::ALL.iter().zip(&ecdfs) {
        eprintln!(
            "{}: median {:.0}s, P(x <= 6e5) = {:.4}",
            u.name(),
            e.quantile(0.5).unwrap_or(0.0),
            e.eval(6.0e5)
        );
    }
}
