//! The parameter sweeps past the paper's test bed: reliability under
//! drops, crash recovery, engine scaling, gossip overlays × encodings, and
//! the dispatch-policy × projection matrix. All but `fault_sweep` gate.

use crate::backfill::site_cores;
use crate::cli::{Args, Gates, Shape};
use crate::gossip::OVERLAYS;
use crate::{
    run_fault_sweep, run_gossip_sweep, run_hotpath_bench, run_matrix, run_prediction_comparison,
    run_recovery_sweep, run_scale_sweep, run_singlecore_equivalence,
};
use aequus_core::codec::Encoding;
use aequus_rms::DispatchOrder;

/// A convergence-time cell: whole seconds, or `never`.
fn seconds_or_never(t: Option<f64>) -> String {
    t.map_or("never".to_string(), |t| format!("{t:.0}"))
}

/// Reliability fault sweep ([`run_fault_sweep`]): when the cross-site usage
/// views settle, and the retry / gap / resync / snapshot traffic spent
/// getting there, per exchange drop rate. The 0% row doubles as the
/// regression baseline: it must show zero protocol traffic.
pub(super) fn fault_sweep(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(4000);
    let drops = [0.0, 0.05, 0.10, 0.20, 0.30];
    let points = run_fault_sweep(jobs, &drops, 42);

    println!("# Fault sweep: view convergence vs exchange drop rate ({jobs} jobs, seed 42)");
    println!(
        "{:<8} {:>14} {:>10} {:>10} {:>10} {:>10} {:>16}",
        "drop", "converged_at_s", "retries", "seq_gaps", "resyncs", "snapshots", "final_div_cs"
    );
    for p in &points {
        println!(
            "{:<8} {:>14} {:>10} {:>10} {:>10} {:>10} {:>16.3e}",
            format!("{:.0}%", p.drop_probability * 100.0),
            seconds_or_never(p.convergence_s),
            p.retries,
            p.seq_gaps,
            p.resyncs,
            p.snapshots,
            p.final_divergence,
        );
    }
    if let Some(clean) = points.first() {
        assert_eq!(
            (clean.retries, clean.resyncs, clean.snapshots),
            (0, 0, 0),
            "faults-disabled run must show zero reliability traffic"
        );
    }
}

/// Crash-recovery comparison ([`run_recovery_sweep`]): when each seed's
/// durable (WAL replay) and volatile (snapshot-only) runs reconverged, plus
/// the store's replay and checkpoint work. Gated with or without `--check`.
/// JOBS defaults to 48, the chaos-suite workload.
pub(super) fn recovery_sweep(args: &Args, gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(48);
    let seeds = [42, 43, 44];
    let points = run_recovery_sweep(jobs, &seeds);

    println!("# Recovery sweep: WAL replay vs snapshot-only catch-up ({jobs} jobs)");
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>9} {:>6} {:>6} {:>10} {:>10}",
        "seed",
        "durable_s",
        "volatile_s",
        "advantage_s",
        "replayed",
        "torn",
        "ckpts",
        "snaps_dur",
        "snaps_vol"
    );
    for p in &points {
        println!(
            "{:<6} {:>12} {:>12} {:>12} {:>9} {:>6} {:>6} {:>10} {:>10}",
            p.seed,
            seconds_or_never(p.durable_convergence_s),
            seconds_or_never(p.volatile_convergence_s),
            seconds_or_never(p.advantage_s),
            p.frames_replayed,
            p.torn_tails,
            p.checkpoints,
            p.durable_snapshots,
            p.volatile_snapshots,
        );
    }

    let mut failures = Vec::new();
    for p in &points {
        if !p.advantage_s.is_some_and(|adv| adv > 0.0) {
            failures.push(format!(
                "seed {}: durable recovery must beat snapshot-only catch-up (advantage {:?})",
                p.seed, p.advantage_s
            ));
        }
        if p.frames_replayed == 0 || p.torn_tails == 0 {
            failures.push(format!(
                "seed {}: crash recovery exercised no WAL replay (replayed {}, torn {})",
                p.seed, p.frames_replayed, p.torn_tails
            ));
        }
    }
    gates.check(
        "WAL replay converged faster than snapshot-only catch-up on every seed",
        failures.is_empty(),
        &failures.join("; "),
    );
}

const TRACE_OUT: &str = "SCALE_TRACE.json";
const FOLDED_OUT: &str = "SCALE_PROFILE.folded";

/// The acceptance target: ≥4× wall-clock speedup on ≥8 cores.
const SPEEDUP_TARGET: f64 = 4.0;
const SPEEDUP_CORES: usize = 8;

/// Engine-scaling sweep: wall-clock time, events/second and speedup of the
/// sharded engine at 1, 2, 4 and 8 shard workers (1 and 8 under `--check`).
/// Gated at any shape — wall-clock parallel speedup is a property of the
/// hardware (its target is stated against the full shape on 8 dedicated
/// cores and skipped below that); determinism, the engine's and the
/// profiler's, is not.
///
/// Every sweep runs fully profiled and leaves two artifacts next to the
/// snapshots: `SCALE_TRACE.json`, the serial run's Chrome trace-event file
/// (load it in `about://tracing` or <https://ui.perfetto.dev> — one track
/// per shard, epochs as frames, barrier waits as spans), and
/// `SCALE_PROFILE.folded`, the folded stacks flamegraph tooling consumes.
pub(super) fn scale_sweep(args: &Args, gates: &mut Gates) {
    let shape = Shape::select(args, Shape::SCALE_SMOKE, Shape::SCALE_FULL);
    let threads: &[usize] = if args.check { &[1, 8] } else { &[1, 2, 4, 8] };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# Scale sweep: {} users x {} sites x {} hosts, {} jobs, {} host cores{}",
        shape.users,
        shape.sites,
        shape.nodes_per_site,
        shape.jobs,
        cores,
        if args.check { " [smoke]" } else { "" }
    );

    let sweep = run_scale_sweep(&shape, threads);
    println!(
        "{:<8} {:>10} {:>14} {:>10} {:>12}",
        "threads", "wall_s", "events/s", "speedup", "completed"
    );
    for p in &sweep.points {
        println!(
            "{:<8} {:>10.3} {:>14.0} {:>9.2}x {:>12}",
            p.threads, p.wall_s, p.events_per_sec, p.speedup_x, p.completed
        );
    }

    // The serial run's profile is the reference artifact pair: the Chrome
    // trace carries wall time (per-host, per-run), the folded stacks carry
    // only schedule-derived values and must match every other worker count
    // byte for byte.
    if let Some((_, profile)) = sweep.profiles.first() {
        std::fs::write(TRACE_OUT, profile.to_chrome_trace()).expect("write chrome trace");
        std::fs::write(FOLDED_OUT, profile.to_folded()).expect("write folded profile");
        println!("wrote {TRACE_OUT} and {FOLDED_OUT}");
    }

    gates.check(
        "every worker count replayed the serial run seed-for-seed",
        sweep.mismatch.is_none(),
        sweep.mismatch.as_deref().unwrap_or(""),
    );
    let folded_mismatch = sweep.folded_mismatch();
    gates.check(
        "folded profile byte-identical across all worker counts",
        folded_mismatch.is_none(),
        folded_mismatch.as_deref().unwrap_or(""),
    );
    let best = sweep.best_speedup();
    if cores >= SPEEDUP_CORES {
        gates.check(
            &format!("best speedup meets the {SPEEDUP_TARGET}x target on >= {SPEEDUP_CORES} cores"),
            best >= SPEEDUP_TARGET,
            &format!("{best:.2}x on {cores} cores"),
        );
    } else {
        println!(
            "note: best speedup {best:.2}x; {SPEEDUP_TARGET}x gate needs >= {SPEEDUP_CORES} \
             cores (host has {cores}), skipped"
        );
    }
}

/// Codec compression gates, Dense/Delta full-mesh bytes: ≥3× from 100k
/// users up, where per-user payloads amortize the frame; ≥2× at smoke scale.
const FACTOR_FULL: f64 = 3.0;
const FACTOR_SMOKE: f64 = 2.0;

/// Cross-topology view-equivalence gate.
const VIEW_EPS: f64 = 1e-9;

/// Growth ceiling of one `Uss::publish` carrying a single fresh user, from
/// 1,000 to 10,000 known users (times ten origins' worth of cells). It
/// should not grow beyond the deeper maps' lookups; a publish that diffs
/// everything the site holds grows ~10×.
const PUBLISH_GROWTH_CEILING: f64 = 3.0;
/// Growth ceiling of `GridScenario::tracked_users` from 1,000 to 10,000
/// flat users: linear is 10×, a per-leaf sibling re-sum is 100×.
const TRACKED_GROWTH_CEILING: f64 = 20.0;

/// Gossip trade-off sweep: bytes-on-wire vs convergence time for every
/// overlay topology (`FullMesh`, `Tree`, `Hub`) × wire encoding (`Dense`,
/// `Delta`), on one shared workload and seed. The table prints each point's
/// total wire bytes, bytes per active user, convergence time, and worst
/// per-user view difference from the full-mesh baseline — routing and
/// encoding must never change what the grid believes. Gated at any shape.
pub(super) fn gossip_sweep(args: &Args, gates: &mut Gates) {
    let shape = Shape::select(args, Shape::GOSSIP_SMOKE, Shape::GOSSIP_FULL);
    let factor_gate = if shape.users >= 100_000 {
        FACTOR_FULL
    } else {
        FACTOR_SMOKE
    };
    println!(
        "# Gossip sweep: {} users x {} sites x {} hosts, {} jobs{}",
        shape.users,
        shape.sites,
        shape.nodes_per_site,
        shape.jobs,
        if args.check { " [smoke]" } else { "" }
    );

    let sweep = run_gossip_sweep(&shape);
    println!(
        "{:<22} {:<8} {:>14} {:>12} {:>12} {:>14}",
        "overlay", "codec", "wire_bytes", "bytes/user", "converge_s", "vs_mesh"
    );
    for p in &sweep.points {
        println!(
            "{:<22} {:<8} {:>14} {:>12.1} {:>12} {:>14.2e}",
            format!("{:?}", p.overlay),
            format!("{:?}", p.encoding),
            p.gossip_bytes,
            p.bytes_per_user,
            seconds_or_never(p.convergence_s),
            p.divergence_vs_mesh,
        );
    }

    let worst = sweep.worst_divergence();
    gates.check(
        "every topology/encoding matches the full-mesh views",
        worst <= VIEW_EPS,
        &format!("worst {worst:.2e}"),
    );
    let slowest = sweep.worst_convergence_s();
    gates.check(
        "every point converged",
        slowest.is_some(),
        &slowest.map_or("not inside the horizon".into(), |t| {
            format!("worst {t:.0} s")
        }),
    );
    let factor = sweep.dense_over_delta();
    gates.check(
        &format!("Delta cuts full-mesh bytes {factor:.2}x vs Dense"),
        factor >= factor_gate,
        &format!("gate {factor_gate}x"),
    );
    // Growth, not a stopwatch: what one fresh user costs to publish, and
    // what the tracked-user list costs to build, at 1k vs 10k users.
    let publish = [1_000, 10_000].map(|users| crate::gossip::publish_one_fresh_us(users, 200));
    let tracked = [1_000, 10_000].map(|users| crate::gossip::tracked_users_us(users, 200));
    let growth = |[small, large]: [f64; 2]| large / small.max(1e-3);
    println!(
        "publish of one fresh user: 1k known {:.2} us, 10k known {:.2} us ({:.1}x) | tracked_users: 1k {:.1} us, 10k {:.1} us ({:.1}x)",
        publish[0], publish[1], growth(publish), tracked[0], tracked[1], growth(tracked)
    );
    gates.check(
        &format!("publish of one fresh user grows <= {PUBLISH_GROWTH_CEILING}x from 1k to 10k known users"),
        growth(publish) <= PUBLISH_GROWTH_CEILING,
        &format!("{:.1}x", growth(publish)),
    );
    gates.check(
        &format!("tracked_users grows <= {TRACKED_GROWTH_CEILING}x from 1k to 10k flat users"),
        growth(tracked) <= TRACKED_GROWTH_CEILING,
        &format!("{:.1}x", growth(tracked)),
    );
    let fcs = [1_000, 10_000]
        .map(|users| [1, 587].map(|dirty| crate::gossip::fcs_refresh_us(users, dirty, 200)));
    println!(
        "incremental FCS refresh, 1 | 587 dirty users: 1k siblings {:.2} | {:.2} us, 10k siblings {:.2} | {:.2} us",
        fcs[0][0], fcs[0][1], fcs[1][0], fcs[1][1]
    );
    // Ceilings at 10k: the add pass is ~0.7 ns per sibling (deriving and
    // projecting each was ~34); each further dirty user walks one path.
    let per_dirty = (fcs[1][1] - fcs[1][0]) * 1_000.0 / 586.0;
    let rows = [
        ("sibling", fcs[1][0] / 10.0, 2.0),
        ("further dirty user", per_dirty, 30.0),
    ];
    for (what, ns, ceiling) in rows {
        gates.check(
            &format!("an FCS refresh at 10k flat users costs <= {ceiling} ns per {what}"),
            ns <= ceiling,
            &format!("{ns:.2} ns"),
        );
    }
    // The curve itself: cheapest hierarchy vs the mesh, both on Delta.
    let mesh = sweep.point(OVERLAYS[0], Encoding::Delta);
    let best_hier = OVERLAYS[1..]
        .iter()
        .filter_map(|&o| sweep.point(o, Encoding::Delta))
        .min_by_key(|p| p.gossip_bytes);
    if let (Some(mesh), Some(hier)) = (mesh, best_hier) {
        println!(
            "note: best hierarchy ({:?}) moves {:.1}% of the mesh's Delta bytes",
            hier.overlay,
            100.0 * hier.gossip_bytes as f64 / mesh.gossip_bytes.max(1) as f64
        );
    }
}

/// Hot-path budget: early-exit `next_admitted` on a 10k-deep queue, ns.
const NEXT_ADMITTED_BUDGET_NS: f64 = 1_000.0;
/// Hot-path budget: full EASY backfill scan at 10k jobs, µs.
const SCAN_10K_BUDGET_US: f64 = 5_000.0;
/// Hot-path budget: EASY 10k/1k scan growth ceiling. O(n log n) predicts
/// ~13×; 40× still rejects an accidental O(n²) rewrite.
const SCAN_GROWTH_CEILING: f64 = 40.0;
/// Hot-path budget: growth ceiling of a saturated scheduling cycle (a full
/// machine, nothing can start) from 1k to 10k queued jobs. It should not
/// grow at all; a cycle that visits every queued job grows ~10×.
const CYCLE_GROWTH_CEILING: f64 = 3.0;
/// Hot-path budget: what one further lane or running job adds to a
/// saturated cycle (64 users × 6 widths behind 128 running jobs against
/// 8 × 3 behind 8), ns: ~2, a write or a compare; a dispatch that heapifies
/// the lane heads and sorts the believed ends before it looks read ~66.
const SATURATED_ITEM_BUDGET_NS: f64 = 5.0;
/// Hot-path budget: a queued job turned down inside its lane, ns — a clamp
/// and a compare; a yielded candidate (heap step, priority, handle, class
/// lookup) cost ~100.
const STEPPED_OVER_BUDGET_NS: f64 = 15.0;

/// The dispatch-policy × fairshare-projection matrix (ROADMAP item 2): runs
/// every {FIFO, EASY, Conservative, SAF} × {Dictionary, Bitwise, Percental}
/// cell on the bursty mixed-width workload and prints fairness error,
/// convergence time, starvation age, utilization, and bounded slowdown per
/// cell, followed by the single-core FIFO ≡ EASY equivalence run (no
/// backfill window opens there, which pins the dispatch layer to the
/// pre-refactor BENCH numbers), the runtime-predictor accuracy comparison,
/// and the scheduler hot-path microbench. The gates close the run: enforced
/// on the smoke shape under `--check`, reported only otherwise.
pub(super) fn backfill_sweep(args: &Args, gates: &mut Gates) {
    gates.advisory(!args.check);
    let mut shape = if args.check {
        Shape::BACKFILL_SMOKE
    } else {
        Shape::BACKFILL_FULL
    };
    shape.jobs = args.num(0).unwrap_or(shape.jobs);

    println!(
        "# Backfill sweep: {} jobs, {} sites x {} cores{}",
        shape.jobs,
        shape.sites,
        site_cores(&shape),
        if args.check { " [smoke]" } else { "" }
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
    let matrix = run_matrix(&shape);
    let mut undrained = Vec::new();
    for cell in &matrix {
        let (order, projection) = (cell.order.name(), cell.projection.build().name());
        println!(
            "{:<14} {:<12} {:>13} {:>10.3} {:>10.0} {:>9.1} {:>9.2} {:>10} {:>10}",
            order,
            projection,
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
        if (cell.completed as usize) < shape.jobs {
            undrained.push(format!(
                "{order}/{projection}: {} of {} jobs completed inside horizon",
                cell.completed, shape.jobs
            ));
        }
        if !cell.fairness_err.is_finite() {
            undrained.push(format!(
                "{order}/{projection}: fairness error is not finite"
            ));
        }
    }
    // Backfill must pay for itself against FIFO on every projection.
    let mut unpaid = Vec::new();
    for cell in &matrix {
        let fifo = matrix
            .iter()
            .find(|c| c.order == DispatchOrder::Fifo && c.projection == cell.projection)
            .expect("full matrix");
        if matches!(cell.order, DispatchOrder::Easy | DispatchOrder::Saf)
            && cell.utilization < fifo.utilization
        {
            unpaid.push(format!(
                "{} utilization {:.4} below FIFO {:.4} on {}",
                cell.order.name(),
                cell.utilization,
                fifo.utilization,
                cell.projection.build().name()
            ));
        }
    }

    println!("\n## Single-core baseline: FIFO vs EASY (must be identical)");
    let eq = run_singlecore_equivalence(if args.check { 1_500 } else { 6_000 }, 42);
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

    println!("\n## Runtime prediction under 3x-padded requests (EASY backfill)");
    let pred = run_prediction_comparison(&shape);
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
    let mut mispredicted = Vec::new();
    if pred.avg_err >= pred.request_err {
        mispredicted.push(format!(
            "running-average predictor ({:.3}) no better than padded requests ({:.3})",
            pred.avg_err, pred.request_err
        ));
    }
    if pred.kills == 0 {
        mispredicted.push("misprediction kill path never fired under 0.7x requests".to_string());
    }
    if pred.telemetry_predictions == 0 {
        mispredicted.push("prediction-accuracy telemetry recorded nothing".to_string());
    }

    println!("\n## Scheduler hot path (10k-deep queue)");
    let hot = run_hotpath_bench();
    println!(
        "next_admitted {:.0} ns (worst {:.0} ns) | easy scan 1k {:.1} us, 10k {:.1} us ({:.1}x) | saf 10k {:.1} us | conservative 10k {:.1} us",
        hot.next_admitted_ns,
        hot.next_admitted_worst_ns,
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
    println!(
        "saturated cycle, 64 users x 6 widths, 128 running: {:.2} us ({:.1} ns per further lane or running job) | nearly full machine: {:.1} ns per job stepped over",
        hot.cycle_wide_us,
        hot.saturated_item_ns(),
        hot.stepped_over_ns
    );

    println!();
    gates.check(
        "every order x projection cell drains its trace, fairness error finite",
        undrained.is_empty(),
        &undrained.join("; "),
    );
    gates.check(
        "EASY and SAF utilization >= FIFO on every projection",
        unpaid.is_empty(),
        &unpaid.join("; "),
    );
    gates.check(
        "FIFO == EASY bit for bit on the single-core baseline",
        eq.holds(),
        &if eq.holds() {
            String::new()
        } else {
            format!("{eq:?}")
        },
    );
    gates.check(
        "running-avg beats padded requests; kill path and telemetry live",
        mispredicted.is_empty(),
        &mispredicted.join("; "),
    );
    gates.check(
        &format!("next_admitted < {NEXT_ADMITTED_BUDGET_NS:.0} ns on a 10k-deep queue"),
        hot.next_admitted_ns < NEXT_ADMITTED_BUDGET_NS,
        &format!("{:.0} ns", hot.next_admitted_ns),
    );
    gates.check(
        &format!("saturated cycle grows <= {CYCLE_GROWTH_CEILING}x from 1k to 10k queued"),
        hot.cycle_growth() <= CYCLE_GROWTH_CEILING,
        &format!("{:.1}x", hot.cycle_growth()),
    );
    gates.check(
        &format!("a saturated cycle grows <= {SATURATED_ITEM_BUDGET_NS:.0} ns per further lane or running job"),
        hot.saturated_item_ns() <= SATURATED_ITEM_BUDGET_NS,
        &format!("{:.1} ns", hot.saturated_item_ns()),
    );
    gates.check(
        &format!("a job turned down in its lane costs <= {STEPPED_OVER_BUDGET_NS:.0} ns"),
        hot.stepped_over_ns <= STEPPED_OVER_BUDGET_NS,
        &format!("{:.1} ns", hot.stepped_over_ns),
    );
    gates.check(
        &format!("EASY 10k scan < {SCAN_10K_BUDGET_US:.0} us"),
        hot.easy_10k_us < SCAN_10K_BUDGET_US,
        &format!("{:.0} us", hot.easy_10k_us),
    );
    gates.check(
        &format!("EASY scan growth 1k -> 10k < {SCAN_GROWTH_CEILING}x"),
        hot.scan_growth() < SCAN_GROWTH_CEILING,
        &format!("{:.1}x", hot.scan_growth()),
    );
}
