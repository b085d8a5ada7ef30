//! The dispatch-policy × fairshare-projection matrix (ROADMAP item 2): runs
//! every {FIFO, EASY, Conservative, SAF} × {Dictionary, Bitwise, Percental}
//! cell on the bursty mixed-width workload and prints fairness error,
//! convergence time, starvation age, utilization, and bounded slowdown per
//! cell, followed by the single-core FIFO ≡ EASY equivalence run, the
//! runtime-predictor accuracy comparison, and the scheduler hot-path
//! microbench.
//!
//! Usage: `backfill_sweep [JOBS] [--check]`
//!
//! With `--check` the CI smoke shape runs and the binary exits non-zero if:
//! - any matrix cell fails to complete its whole trace inside the horizon,
//!   or lacks a fairness-error row;
//! - FIFO and EASY diverge on the single-core baseline (no backfill window
//!   opens there, so the runs must be identical — this pins the extracted
//!   dispatch layer to the pre-refactor BENCH numbers);
//! - EASY or SAF fall below FIFO utilization on the bursty workload
//!   (backfill must pay for itself when wide jobs head-block the queue);
//! - the learned running-average predictor fails to beat 3×-padded
//!   walltime requests, the misprediction kill path never fires, or the
//!   prediction-accuracy telemetry records nothing;
//! - the scheduler hot path blows its budget: `SliceWalk::next_within` ≥
//!   1 µs on a 10k-deep mixed queue, the EASY 10k scan above 5 ms, 10k/1k
//!   scan growth beyond 40× (O(n log n) predicts ~13×; 40× still rejects an
//!   accidental O(n²) rewrite), or a saturated scheduling cycle — a full
//!   machine, nothing can start — that grows more than 3× from 1,000 to
//!   10,000 queued jobs (it should not grow at all; a cycle that visits
//!   every queued job grows ~10×).

use aequus_bench::{
    jobs_arg, run_hotpath_bench, run_matrix, run_prediction_comparison, run_singlecore_equivalence,
    BackfillConfig,
};
use aequus_rms::DispatchOrder;

/// Hot-path budget: early-exit `next_within` on a 10k-deep queue, ns.
const NEXT_WITHIN_BUDGET_NS: f64 = 1_000.0;
/// Hot-path budget: full EASY backfill scan at 10k jobs, µs.
const SCAN_10K_BUDGET_US: f64 = 5_000.0;
/// Hot-path budget: EASY 10k/1k scan growth ceiling.
const SCAN_GROWTH_CEILING: f64 = 40.0;
/// Hot-path budget: saturated-cycle growth ceiling, 1k → 10k queued jobs.
const CYCLE_GROWTH_CEILING: f64 = 3.0;

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let mut cfg = if check {
        BackfillConfig::smoke()
    } else {
        BackfillConfig::full()
    };
    cfg.jobs = jobs_arg(cfg.jobs);
    let mut failures: Vec<String> = Vec::new();

    println!(
        "# Backfill sweep: {} jobs, {} sites x {} cores{}",
        cfg.jobs,
        cfg.sites,
        cfg.site_cores(),
        if check { " [smoke]" } else { "" }
    );
    println!(
        "{:<14} {:<12} {:>13} {:>10} {:>10} {:>9} {:>9} {:>10} {:>10}",
        "order",
        "projection",
        "converge(min)",
        "fair-err",
        "starve(s)",
        "util(%)",
        "slowdown",
        "backfills",
        "completed"
    );
    let matrix = run_matrix(&cfg);
    for cell in &matrix {
        println!(
            "{:<14} {:<12} {:>13} {:>10.3} {:>10.0} {:>9.1} {:>9.2} {:>10} {:>10}",
            cell.order.name(),
            cell.projection.build().name(),
            cell.converge_s
                .map(|t| format!("{:.0}", t / 60.0))
                .unwrap_or("—".to_string()),
            cell.fairness_err,
            cell.starvation_age_s,
            100.0 * cell.utilization,
            cell.mean_slowdown,
            cell.backfills,
            cell.completed,
        );
        if (cell.completed as usize) < cfg.jobs {
            failures.push(format!(
                "{}/{}: {} of {} jobs completed inside horizon",
                cell.order.name(),
                cell.projection.build().name(),
                cell.completed,
                cfg.jobs
            ));
        }
        if !cell.fairness_err.is_finite() {
            failures.push(format!(
                "{}/{}: fairness error is not finite",
                cell.order.name(),
                cell.projection.build().name()
            ));
        }
    }
    // Backfill must pay for itself against FIFO on every projection.
    for proj_idx in 0..3 {
        let util_of = |order: DispatchOrder| {
            matrix
                .iter()
                .find(|c| c.order == order && c.projection == matrix[proj_idx].projection)
                .expect("full matrix")
                .utilization
        };
        let fifo = util_of(DispatchOrder::Fifo);
        for order in [DispatchOrder::Easy, DispatchOrder::Saf] {
            let util = util_of(order);
            if util < fifo {
                failures.push(format!(
                    "{} utilization {:.4} below FIFO {:.4} on {}",
                    order.name(),
                    util,
                    fifo,
                    matrix[proj_idx].projection.build().name()
                ));
            }
        }
    }

    println!("\n## Single-core baseline: FIFO vs EASY (must be identical)");
    let eq = run_singlecore_equivalence(if check { 1_500 } else { 6_000 }, cfg.seed);
    println!(
        "deviation {:.6} vs {:.6} | util {:.4} vs {:.4} | completed {} vs {} | easy backfills {}",
        eq.deviation.0,
        eq.deviation.1,
        eq.utilization.0,
        eq.utilization.1,
        eq.completed.0,
        eq.completed.1,
        eq.easy_backfills
    );
    if !eq.holds() {
        failures.push(format!("FIFO and EASY diverge on single-core work: {eq:?}"));
    }

    println!("\n## Runtime prediction under 3x-padded requests (EASY backfill)");
    let pred = run_prediction_comparison(&cfg);
    println!(
        "mean |rel err|: request {:.3}, running-avg {:.3}, last-k-max {:.3}",
        pred.request_err, pred.avg_err, pred.lastk_err
    );
    println!(
        "running-avg underestimates {} | kills under 0.7x requests {} | telemetry predictions {}",
        pred.avg_underestimates, pred.kills, pred.telemetry_predictions
    );
    println!(
        "utilization: request {:.1}% vs running-avg {:.1}%",
        100.0 * pred.utilization.0,
        100.0 * pred.utilization.1
    );
    if pred.avg_err >= pred.request_err {
        failures.push(format!(
            "running-average predictor ({:.3}) no better than padded requests ({:.3})",
            pred.avg_err, pred.request_err
        ));
    }
    if pred.kills == 0 {
        failures.push("misprediction kill path never fired under 0.7x requests".to_string());
    }
    if pred.telemetry_predictions == 0 {
        failures.push("prediction-accuracy telemetry recorded nothing".to_string());
    }

    println!("\n## Scheduler hot path (10k-deep queue)");
    let hot = run_hotpath_bench();
    println!(
        "next_within {:.0} ns (worst {:.0} ns) | easy scan 1k {:.1} us, 10k {:.1} us ({:.1}x) | saf 10k {:.1} us | conservative 10k {:.1} us",
        hot.next_within_ns,
        hot.next_within_worst_ns,
        hot.easy_1k_us,
        hot.easy_10k_us,
        hot.scan_growth(),
        hot.saf_10k_us,
        hot.conservative_10k_us
    );
    println!(
        "saturated cycle: 1k queued {:.2} us, 10k queued {:.2} us ({:.1}x)",
        hot.cycle_1k_us,
        hot.cycle_10k_us,
        hot.cycle_growth()
    );
    if hot.next_within_ns >= NEXT_WITHIN_BUDGET_NS {
        failures.push(format!(
            "next_within {:.0} ns over the {NEXT_WITHIN_BUDGET_NS:.0} ns budget",
            hot.next_within_ns
        ));
    }
    if hot.cycle_growth() > CYCLE_GROWTH_CEILING {
        failures.push(format!(
            "saturated cycle grew {:.1}x from 1k to 10k queued jobs (> {CYCLE_GROWTH_CEILING}x: it visits the queue)",
            hot.cycle_growth()
        ));
    }
    if hot.easy_10k_us >= SCAN_10K_BUDGET_US {
        failures.push(format!(
            "EASY 10k scan {:.0} us over the {SCAN_10K_BUDGET_US:.0} us budget",
            hot.easy_10k_us
        ));
    }
    if hot.scan_growth() >= SCAN_GROWTH_CEILING {
        failures.push(format!(
            "EASY scan grew {:.1}x from 1k to 10k (>= {SCAN_GROWTH_CEILING}x: superlinear blowup)",
            hot.scan_growth()
        ));
    }

    if check {
        if failures.is_empty() {
            println!("\nbackfill sweep gate: PASS");
        } else {
            println!("\nbackfill sweep gate: FAIL");
            for f in &failures {
                println!("  - {f}");
            }
            std::process::exit(1);
        }
    }
}
