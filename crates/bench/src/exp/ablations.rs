//! Design-choice ablations on the paper's baseline trace (distance weight,
//! decay function, projection, dispatch order, delay chain) and the two
//! policy-structure extensions (hierarchy isolation, local autonomy).

use crate::cli::{Args, Gates};
use crate::{baseline_trace, parallel_sweep, peak_priority, BALANCE_DWELL_S, BALANCE_EPS};
use aequus_core::policy::{PolicyNode, PolicyTree};
use aequus_core::projection::ProjectionKind;
use aequus_core::{DecayPolicy, GridUser};
use aequus_rms::DispatchOrder;
use aequus_sim::{GridScenario, GridSimulation, SimResult};
use aequus_workload::users::baseline_policy_shares;
use aequus_workload::{Trace, TraceJob};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `converge(min)` column: minutes to the first balance window, `—`
/// when the run never balances.
pub(super) fn converge_min(result: &SimResult) -> String {
    result
        .metrics
        .convergence_time(BALANCE_EPS, BALANCE_DWELL_S)
        .map_or("—".to_string(), |t| format!("{:.0}", t / 60.0))
}

/// Run `trace` on the national test bed once per case (concurrently), each
/// with `tweak` applied to the scenario.
fn ablate<C: Sync>(
    trace: &Trace,
    cases: &[C],
    tweak: impl Fn(&mut GridScenario, &C) + Sync,
) -> Vec<SimResult> {
    parallel_sweep(cases, |case| {
        let mut scenario = GridScenario::national_testbed(&baseline_policy_shares(), 42);
        tweak(&mut scenario, case);
        GridSimulation::new(scenario).run(trace, 1800.0)
    })
}

/// Ablation: the relative/absolute distance weight k ∈ {0, .25, .5, .75, 1}.
/// k = 0.5 is the paper's setting; higher k amplifies small users' priority
/// swings (relative component), lower k mutes them.
pub(super) fn ablation_distance_weight(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(15_000);
    let trace = baseline_trace(jobs, 42);
    println!("# Ablation: distance weight k (paper: 0.5)");
    println!(
        "{:>5} {:>14} {:>16} {:>16}",
        "k", "converge(min)", "U3 max priority", "final deviation"
    );
    let ks = [0.0, 0.25, 0.5, 0.75, 1.0];
    let results = ablate(&trace, &ks, |sc, &k| sc.fairshare.k_weight = k);
    for (k, result) in ks.iter().zip(&results) {
        println!(
            "{:>5.2} {:>14} {:>16.3} {:>16.3}",
            k,
            converge_min(result),
            peak_priority(result, "U3"),
            result.metrics.final_deviation()
        );
    }
    println!("\nexpected: U3 max priority ≈ k·1 + (1−k)·0.0286 — grows with k");
}

/// Ablation: usage decay functions (none / exponential half-life sweep /
/// sliding window) — §II-A's "different usage decay functions to control how
/// the impact of previous usage is decreased over time".
pub(super) fn ablation_decay(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(15_000);
    let trace = baseline_trace(jobs, 42);
    let cases: Vec<(String, DecayPolicy)> = vec![
        ("none".into(), DecayPolicy::None),
        (
            "exp half-life 10min".into(),
            DecayPolicy::Exponential { half_life_s: 600.0 },
        ),
        (
            "exp half-life 30min".into(),
            DecayPolicy::Exponential {
                half_life_s: 1800.0,
            },
        ),
        (
            "exp half-life 2h".into(),
            DecayPolicy::Exponential {
                half_life_s: 7200.0,
            },
        ),
        (
            "window 30min".into(),
            DecayPolicy::Window { window_s: 1800.0 },
        ),
        ("window 2h".into(), DecayPolicy::Window { window_s: 7200.0 }),
        ("linear 1h".into(), DecayPolicy::Linear { span_s: 3600.0 }),
    ];
    println!("# Ablation: decay function (measurement + prioritization window)");
    println!(
        "{:<22} {:>14} {:>16}",
        "decay", "converge(min)", "final deviation"
    );
    let results = ablate(&trace, &cases, |sc, (_, decay)| sc.fairshare.decay = *decay);
    for ((name, _), result) in cases.iter().zip(&results) {
        println!(
            "{:<22} {:>14} {:>16.3}",
            name,
            converge_min(result),
            result.metrics.final_deviation()
        );
    }
    println!("\nexpected: no decay accumulates history and reacts sluggishly;");
    println!("short windows/half-lives track the instantaneous mix with more noise.");
}

/// Ablation: projection algorithm end-to-end (dictionary vs bitwise vs
/// percental under the full integrated stack). The paper uses percental in
/// production and all tests; Table I predicts all three sort correctly, so
/// end-to-end convergence should be comparable.
pub(super) fn ablation_projection(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(15_000);
    let trace = baseline_trace(jobs, 42);
    println!("# Ablation: projection algorithm, end-to-end");
    println!(
        "{:<12} {:>14} {:>16} {:>14}",
        "projection", "converge(min)", "final deviation", "completed"
    );
    let results = ablate(&trace, &ProjectionKind::ALL, |sc, &kind| {
        sc.projection = kind
    });
    for (kind, result) in ProjectionKind::ALL.iter().zip(&results) {
        println!(
            "{:<12} {:>14} {:>16.3} {:>14}",
            format!("{kind:?}"),
            converge_min(result),
            result.metrics.final_deviation(),
            result.total_completed()
        );
    }
}

/// Ablation: queue dispatch order (FIFO / EASY / Conservative / SAF) on
/// the paper's baseline trace, via the pluggable `aequus_rms::dispatch`
/// policy suite. The paper's grid-level routing claim (stochastic vs
/// round-robin: "no noticeable difference") is covered by
/// `tests/paper_claims.rs`; this ablation swaps the *per-cluster* dispatch
/// decision layer instead.
///
/// On the baseline single-core trace the four orders must agree almost
/// exactly — with 1-core jobs the head of the queue fits whenever any core
/// is free, so no backfill window ever opens. `backfill_sweep` runs the
/// mixed-width bursty workload where they differentiate.
pub(super) fn ablation_dispatch(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(15_000);
    let trace = baseline_trace(jobs, 42);
    println!("# Ablation: queue dispatch order");
    println!(
        "{:<14} {:>14} {:>16} {:>12} {:>10}",
        "order", "converge(min)", "final deviation", "util(%)", "backfills"
    );
    let results = ablate(&trace, &DispatchOrder::ALL, |sc, &order| {
        sc.dispatch.order = order
    });
    for (order, result) in DispatchOrder::ALL.iter().zip(&results) {
        let backfills: u64 = result.cluster_stats.iter().map(|s| s.backfilled).sum();
        println!(
            "{:<14} {:>14} {:>16.3} {:>12.1} {:>10}",
            order.name(),
            converge_min(result),
            result.metrics.final_deviation(),
            100.0 * result.mean_utilization(),
            backfills
        );
    }
    println!("\nexpected: near-identical rows — single-core jobs open no backfill windows");
}

/// Ablation: the §IV-A-2 delay chain — scale all service cache times and the
/// libaequus TTL together and observe the effect on convergence.
pub(super) fn ablation_cache_ttl(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(15_000);
    let trace = baseline_trace(jobs, 42);
    println!("# Ablation: delay-chain scale (all cache times + TTLs x factor)");
    println!(
        "{:<8} {:>18} {:>14} {:>16}",
        "factor", "pipeline delay(s)", "converge(min)", "final deviation"
    );
    let factors = [0.2, 0.5, 1.0, 2.0, 5.0, 10.0];
    let results = ablate(&trace, &factors, |sc, &f| sc.timings = sc.timings.scaled(f));
    let timings = GridScenario::national_testbed(&baseline_policy_shares(), 42).timings;
    for (factor, result) in factors.iter().zip(&results) {
        println!(
            "{:<8.1} {:>18.0} {:>14} {:>16.3}",
            factor,
            timings.scaled(*factor).worst_case_pipeline_s(),
            converge_min(result),
            result.metrics.final_deviation()
        );
    }
    println!("\nexpected: longer pipelines delay (and eventually destabilize) convergence");
}

/// The two-group site policy of [`hierarchy_isolation`].
fn two_group_policy() -> PolicyTree {
    PolicyTree::new(PolicyNode::group(
        "root",
        1.0,
        vec![
            PolicyNode::group(
                "hep",
                0.6,
                vec![
                    PolicyNode::user("hep-sim", 0.7),
                    PolicyNode::user("hep-ana", 0.3),
                ],
            ),
            // bio-seq: high target *and* high usage; bio-fold: low/low —
            // the configuration where percental's share products make the
            // within-group order depend on the sibling subtree's usage.
            PolicyNode::group(
                "bio",
                0.4,
                vec![
                    PolicyNode::user("bio-seq", 0.8),
                    PolicyNode::user("bio-fold", 0.2),
                ],
            ),
        ],
    ))
    .unwrap()
}

/// Jobs: bio users submit steadily; hep users storm in the second half
/// (the cross-subtree disturbance).
fn storm_trace(jobs: usize, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = 6.0 * 3600.0;
    let mut out = Vec::new();
    for i in 0..jobs {
        let (user, t) = if i % 2 == 0 {
            let u = if rng.gen_bool(0.9) {
                "bio-seq"
            } else {
                "bio-fold"
            };
            (u, rng.gen::<f64>() * len)
        } else {
            let u = if rng.gen_bool(0.8) {
                "hep-sim"
            } else {
                "hep-ana"
            };
            // Storm: second half only.
            (u, len * (0.5 + 0.5 * rng.gen::<f64>()))
        };
        out.push(TraceJob {
            user: user.to_string(),
            submit_s: t,
            duration_s: 60.0 + rng.gen::<f64>() * 400.0,
            cores: 1,
        });
    }
    Trace::new(out)
}

/// Extension experiment: hierarchical policies end-to-end. A site policy
/// reserves shares for two research groups ("hep" and "bio", the mounted
/// grid sub-policies of §II-A); usage storms inside one group must not
/// reorder users inside the other when the projection preserves subgroup
/// isolation (dictionary/bitwise), and may leak with percental — Table I's
/// properties observed through the *fully integrated* stack.
pub(super) fn hierarchy_isolation(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(20_000);
    println!(
        "# Hierarchical policy end-to-end: /hep (60%: sim 70/ana 30), /bio (40%: seq 80/fold 20)"
    );
    for projection in ProjectionKind::ALL {
        let scenario = GridScenario::national_testbed(&[("placeholder", 1.0)], 42)
            .with_policy(two_group_policy());
        let mut scenario = scenario;
        scenario.projection = projection;
        let result = GridSimulation::new(scenario).run(&storm_trace(jobs, 42), 1800.0);
        // During the hep storm (second half), check bio-internal ordering
        // stability: count samples where bio-seq/bio-fold *factor* order
        // disagrees with their *vector* (distance) order.
        let mut flips = 0usize;
        let mut total = 0usize;
        for s in result.metrics.samples() {
            if s.t_s < 3.0 * 3600.0 {
                continue;
            }
            let (Some(seq), Some(fold)) = (s.users.get("bio-seq"), s.users.get("bio-fold")) else {
                continue;
            };
            if (seq.priority - fold.priority).abs() < 1e-6 {
                continue; // tie: no order to preserve
            }
            total += 1;
            let vector_order = seq.priority > fold.priority;
            let factor_order = seq.factor > fold.factor;
            if vector_order != factor_order {
                flips += 1;
            }
        }
        println!(
            "{:<12} bio-internal order flips vs fairshare distance: {:>4}/{:<4} samples",
            format!("{projection:?}"),
            flips,
            total
        );
    }
    println!("\nexpected: Dictionary/Bitwise preserve within-group order (≈0 flips);");
    println!("Percental may flip bio-internal order when hep's usage share moves (Table I).");
}

/// Extension experiment: local administrative autonomy (§II-A's core design
/// goal — "local site administrations \[can\] manage the coarse allocation of
/// resources to, e.g., a grid without having to manage the subdivision of
/// usage within the grid itself... local administrators assign parts of the
/// resources to one or more grids while retaining full control").
///
/// One of the six sites overrides the grid-wide flat policy with its own
/// tree: a local user owns 70% of that site, grid users share the remaining
/// 30% (subdivided by the grid's own proportions). The experiment verifies
/// (a) the local user wins on its home site when over-subscribed grid users
/// compete, and (b) the other five sites are unaffected.
pub(super) fn local_autonomy(args: &Args, _gates: &mut Gates) {
    let jobs = args.num(0).unwrap_or(20_000);
    let mut scenario = GridScenario::national_testbed(&baseline_policy_shares(), 42);
    // Site 0's local policy: local-hpc 70%, the grid's four users under 30%.
    let local_policy = PolicyTree::new(PolicyNode::group(
        "root",
        1.0,
        vec![
            PolicyNode::user("local-hpc", 0.7),
            PolicyNode::group(
                "grid",
                0.3,
                baseline_policy_shares()
                    .iter()
                    .map(|(n, s)| PolicyNode::user(*n, *s))
                    .collect(),
            ),
        ],
    ))
    .unwrap();
    scenario.clusters[0].policy_override = Some(local_policy);

    // The grid workload plus a steady local stream aimed at site 0. The
    // submission host spreads grid jobs; local jobs are injected as part of
    // the trace (they resolve only on site 0, elsewhere they are unknown).
    let grid_trace = baseline_trace(jobs, 42);
    let local_jobs: Vec<TraceJob> = (0..jobs / 20)
        .map(|i| TraceJob {
            user: "local-hpc".to_string(),
            submit_s: i as f64 * (6.0 * 3600.0) / (jobs as f64 / 20.0),
            duration_s: 300.0,
            cores: 1,
        })
        .collect();
    let trace = grid_trace.merged(&Trace::new(local_jobs));
    let result = GridSimulation::new(scenario).run(&trace, 1800.0);

    println!("# Local autonomy: site 0 reserves 70% for local-hpc, 30% for the grid");
    let usage = result.usage_by_user();
    let total: f64 = usage.values().sum();
    for (user, v) in &usage {
        println!("completed usage {user}: {:.4} of total", v / total);
    }
    // Per-site priority of U65 at the end: site 0 judges grid users against
    // a 30% envelope, the rest against the full machine.
    if let Some(last) = result.metrics.samples().last() {
        println!("\nfinal per-site U65 priority:");
        for (i, view) in last.per_site_priority.iter().enumerate() {
            println!(
                "  site {i}{}: {:?}",
                if i == 0 { " (local policy)" } else { "" },
                view.get("U65")
            );
        }
    }
    let local_usage = usage
        .get(&GridUser::new("local-hpc"))
        .copied()
        .unwrap_or(0.0);
    println!(
        "\nlocal-hpc usage: {:.0} core-s ({:.1}% of grid total); recognized by site 0's \
         policy (70% target), neutral factor elsewhere",
        local_usage,
        100.0 * local_usage / total
    );
}
