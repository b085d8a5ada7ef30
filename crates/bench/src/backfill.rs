//! The dispatch-policy × fairshare-projection matrix (ROADMAP item 2): does
//! Fig. 11-style convergence survive backfill reordering, and which
//! projection is most robust to it?
//!
//! The paper's test bed dispatches strictly by priority on single-core
//! idle-wait jobs, so no backfill window ever opens there. This module
//! supplies the missing half of the experiment: a bursty **mixed-width**
//! workload (Medernach's LPC analysis shows per-user arrival bursts; wide
//! jobs head-block the queue) run under every
//! [`DispatchOrder`] × [`ProjectionKind`] cell, reporting per cell:
//!
//! - **fairness error** — final share deviation, the paper's Fig. 10 metric;
//! - **convergence time** — first ε-balanced dwell
//!   ([`BALANCE_EPS`]/[`BALANCE_DWELL_S`], as in the baseline experiment);
//! - **starvation age** — worst accrued below-half-share age across users,
//!   via [`StarvationClock`];
//! - **utilization** — the §IV-A 93–97% measurement, where backfill should
//!   pay off;
//! - **bounded slowdown** — mean over completed jobs
//!   (τ = [`aequus_rms::SLOWDOWN_TAU_S`]).
//!
//! Alongside the matrix live the three calibration checks `backfill_sweep
//! --check` gates in CI: FIFO ≡ EASY on the paper's single-core baseline
//! (no window to exploit ⇒ identical runs), learned runtime predictors
//! beating padded walltime requests, and the scheduler hot-path budget
//! (`next_admitted` sub-µs, plan scan ~O(n log n) at 10k-deep queues, a
//! saturated scheduling cycle that does not grow with the queue and barely
//! with lanes and running jobs, a queue behind the shadow that costs its
//! lanes rather than its jobs, a backfill cycle that costs a few ns per
//! lane and prices none, a shadow walk that sorts nothing).

use crate::cli::Shape;
use crate::experiments::{BALANCE_DWELL_S, BALANCE_EPS};
use crate::sweep::parallel_sweep;
use aequus_core::ids::{JobId, SiteId};
use aequus_core::projection::ProjectionKind;
use aequus_core::usage::UsageRecord;
use aequus_core::{GridUser, SystemUser, UserId};
use aequus_rms::{
    Admission, DispatchConfig, DispatchOrder, EndKeys, FactorConfig, FairshareSource, Job,
    MispredictPolicy, NodePool, PredictorKind, PriorityWeights, QueueWalk, QueuedJob,
    ReprioritizePolicy, RunningSlice, SchedulerCore, SliceWalk,
};
use aequus_sim::{GridScenario, GridSimulation, SimResult};
use aequus_telemetry::slo::StarvationClock;
use aequus_workload::users::baseline_policy_shares;
use aequus_workload::{Trace, TraceJob};
use std::time::Instant;

/// A user counts as starving while their achieved share sits below this
/// fraction of the policy target (the PR-9 health map's half-share line).
pub const STARVATION_FRAC: f64 = 0.5;

/// Cores per node of the backfill fleet. Cores pool per cluster, so the
/// widest job of the bursty trace spans half a cluster.
pub const CORES_PER_NODE: u32 = 8;

/// Post-submission drain horizon of every backfill run, seconds.
const DRAIN_S: f64 = 7_200.0;

/// Trace and scenario seed of every backfill run.
const SEED: u64 = 42;

/// Cores of one cluster of `shape`'s fleet.
pub fn site_cores(shape: &Shape) -> u32 {
    shape.nodes_per_site * CORES_PER_NODE
}

/// xorshift64* — deterministic trace jitter without pulling an RNG stack
/// into the workload shape (same trick as the store's junk stream).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Jobs per arrival burst (one user dominates each burst, per the LPC
/// per-user burst-train structure).
const BURST_LEN: usize = 16;

/// Offered load as a fraction of fleet capacity. High enough that wide
/// jobs head-block the queue (so dispatch order matters), low enough that
/// the drain horizon empties it.
const TARGET_LOAD: f64 = 0.85;

/// The bursty mixed-width trace: per-user arrival bursts of `BURST_LEN`
/// jobs whose widths cycle from single-core through half a cluster, with
/// ±20% duration jitter. Burst spacing is derived from the width/duration
/// pattern so the offered load lands at `TARGET_LOAD` of fleet capacity
/// for any config shape.
pub fn bursty_mixed_trace(shape: &Shape) -> Trace {
    let wide = site_cores(shape) / 2;
    // Mostly narrow jobs with regular wide head-blockers; widths stay
    // powers of two so the predictor's width classes stay distinct.
    let widths: [u32; 8] = [wide, 1, 2, wide / 2, 1, 4, 2, 1];
    let durations: [f64; 8] = [1800.0, 90.0, 240.0, 900.0, 60.0, 420.0, 150.0, 300.0];
    let mean_work: f64 = widths
        .iter()
        .zip(durations)
        .map(|(w, d)| *w as f64 * d)
        .sum::<f64>()
        / widths.len() as f64;
    let per_job_s = mean_work / (TARGET_LOAD * (shape.sites as u32 * site_cores(shape)) as f64);
    let burst_gap_s = per_job_s * BURST_LEN as f64;
    let users = aequus_workload::users::baseline_policy_shares();
    let mut rng = Rng(SEED | 1);
    let mut jobs = Vec::with_capacity(shape.jobs);
    let mut burst_start = 0.0;
    while jobs.len() < shape.jobs {
        // Weighted burst owner: bursty per-user trains, long-run mix near
        // the policy shares so the fairshare engine has something to
        // converge toward.
        let mut pick = rng.f64();
        let mut owner = users[users.len() - 1].0;
        for (user, share) in &users {
            if pick < *share {
                owner = user;
                break;
            }
            pick -= share;
        }
        for i in 0..BURST_LEN.min(shape.jobs - jobs.len()) {
            // One stray job per burst from a second user keeps every
            // user's usage series alive between their own bursts.
            let user = if i == BURST_LEN / 2 {
                users[jobs.len() % users.len()].0
            } else {
                owner
            };
            let k = jobs.len() % widths.len();
            jobs.push(TraceJob {
                user: user.to_string(),
                submit_s: burst_start + i as f64 * 3.0,
                duration_s: durations[k] * (0.8 + 0.4 * rng.f64()),
                cores: widths[k],
            });
        }
        burst_start += burst_gap_s * (0.6 + 0.8 * rng.f64());
    }
    Trace::new(jobs)
}

/// The fleet scenario for one matrix cell.
fn matrix_scenario(shape: &Shape, order: DispatchOrder, proj: ProjectionKind) -> GridScenario {
    let mut sc = GridScenario::national_testbed(&baseline_policy_shares(), SEED)
        .sites(shape.sites)
        .nodes_per_site(shape.nodes_per_site);
    for c in &mut sc.clusters {
        c.cores_per_node = CORES_PER_NODE;
    }
    sc.projection = proj;
    sc.with_dispatch(DispatchConfig {
        order,
        ..DispatchConfig::default()
    })
}

/// One cell of the dispatch × projection matrix.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Queue dispatch order.
    pub order: DispatchOrder,
    /// Fairshare projection.
    pub projection: ProjectionKind,
    /// First ε-balanced dwell, seconds (`None` = never within horizon).
    pub converge_s: Option<f64>,
    /// Final share deviation (fairness error).
    pub fairness_err: f64,
    /// Worst accrued starvation age across users, seconds.
    pub starvation_age_s: f64,
    /// Mean fleet utilization in `[0, 1]`.
    pub utilization: f64,
    /// Mean bounded slowdown over completed jobs.
    pub mean_slowdown: f64,
    /// Jobs started out of FIFO order.
    pub backfills: u64,
    /// Jobs completed.
    pub completed: u64,
}

/// Worst accrued below-half-share age across tracked users, from the
/// sampled usage-share series.
fn worst_starvation_age(result: &SimResult, targets: &[(String, f64)]) -> f64 {
    let mut clock = StarvationClock::default();
    let mut worst = 0.0f64;
    for sample in result.metrics.samples() {
        for (k, (user, target)) in targets.iter().enumerate() {
            if let Some(us) = sample.users.get(user) {
                worst =
                    worst.max(clock.age(k, us.usage_share, *target, STARVATION_FRAC, sample.t_s));
            }
        }
    }
    worst
}

/// Fleet-wide mean bounded slowdown: per-cluster sums over total completions.
fn mean_slowdown(result: &SimResult) -> f64 {
    let completed: u64 = result.cluster_stats.iter().map(|s| s.completed).sum();
    if completed == 0 {
        return 0.0;
    }
    let sum: f64 = result.cluster_stats.iter().map(|s| s.slowdown_sum).sum();
    sum / completed as f64
}

/// Run one matrix cell.
fn run_cell(
    shape: &Shape,
    trace: &Trace,
    order: DispatchOrder,
    proj: ProjectionKind,
) -> MatrixCell {
    let sc = matrix_scenario(shape, order, proj);
    let targets = sc.tracked_users();
    let result = GridSimulation::new(sc).run(trace, DRAIN_S);
    MatrixCell {
        order,
        projection: proj,
        converge_s: result
            .metrics
            .convergence_time(BALANCE_EPS, BALANCE_DWELL_S),
        fairness_err: result.metrics.final_deviation(),
        starvation_age_s: worst_starvation_age(&result, &targets),
        utilization: result.mean_utilization(),
        mean_slowdown: mean_slowdown(&result),
        backfills: result.cluster_stats.iter().map(|s| s.backfilled).sum(),
        completed: result.total_completed(),
    }
}

/// Run the full dispatch × projection matrix on the bursty mixed-width
/// trace: [`DispatchOrder::ALL`] × [`ProjectionKind::ALL`], one thread per
/// cell, rows in `(order, projection)` order.
pub fn run_matrix(shape: &Shape) -> Vec<MatrixCell> {
    let trace = bursty_mixed_trace(shape);
    let params: Vec<(DispatchOrder, ProjectionKind)> = DispatchOrder::ALL
        .into_iter()
        .flat_map(|o| ProjectionKind::ALL.into_iter().map(move |p| (o, p)))
        .collect();
    parallel_sweep(&params, |&(order, proj)| {
        run_cell(shape, &trace, order, proj)
    })
}

/// FIFO vs EASY on the paper's single-core baseline trace — with 1-core
/// jobs the queue head fits whenever any core is free, so no backfill
/// window opens and the two runs must be *identical*, not merely close.
/// This is the gate that ties the new dispatch layer back to the existing
/// BENCH numbers (which were measured under the inline EASY dispatcher).
#[derive(Debug, Clone)]
pub struct EquivalenceReport {
    /// (FIFO, EASY) final share deviation.
    pub deviation: (f64, f64),
    /// (FIFO, EASY) mean utilization.
    pub utilization: (f64, f64),
    /// (FIFO, EASY) completed jobs.
    pub completed: (u64, u64),
    /// Backfilled starts under EASY (must be 0 on single-core work).
    pub easy_backfills: u64,
}

impl EquivalenceReport {
    /// Whether the two runs agree bit-for-bit on the reported figures.
    pub fn holds(&self) -> bool {
        self.deviation.0 == self.deviation.1
            && self.utilization.0 == self.utilization.1
            && self.completed.0 == self.completed.1
            && self.easy_backfills == 0
    }
}

/// Run the FIFO ≡ EASY single-core equivalence check on the paper's
/// baseline trace.
pub fn run_singlecore_equivalence(jobs: usize, seed: u64) -> EquivalenceReport {
    let trace = crate::experiments::baseline_trace(jobs, seed);
    let run = |order: DispatchOrder| {
        let sc = GridScenario::national_testbed(&baseline_policy_shares(), seed).with_dispatch(
            DispatchConfig {
                order,
                ..DispatchConfig::default()
            },
        );
        GridSimulation::new(sc).run(&trace, 1800.0)
    };
    let results = parallel_sweep(&[DispatchOrder::Fifo, DispatchOrder::Easy], |&o| run(o));
    let (fifo, easy) = (&results[0], &results[1]);
    EquivalenceReport {
        deviation: (
            fifo.metrics.final_deviation(),
            easy.metrics.final_deviation(),
        ),
        utilization: (fifo.mean_utilization(), easy.mean_utilization()),
        completed: (fifo.total_completed(), easy.total_completed()),
        easy_backfills: easy.cluster_stats.iter().map(|s| s.backfilled).sum(),
    }
}

/// Prediction-accuracy comparison: the same bursty workload with padded
/// walltime requests (request = 3× true runtime, the classic user-padding
/// regime), EASY backfill, under each predictor. The request echo scores a
/// relative error of exactly 2.0 per job; the learned estimators must beat
/// it. A fourth run under-requests (request = 0.7× runtime) with
/// `KillAtRequest` to exercise the misprediction kill path.
#[derive(Debug, Clone)]
pub struct PredictionReport {
    /// Mean absolute relative error of the request echo (≈ 2.0 by
    /// construction).
    pub request_err: f64,
    /// Mean absolute relative error of the capped running average.
    pub avg_err: f64,
    /// Mean absolute relative error of the last-k max.
    pub lastk_err: f64,
    /// Underestimate count of the running average (it hugs the mean, so
    /// roughly half its predictions land under).
    pub avg_underestimates: u64,
    /// Jobs killed at their requested walltime in the under-request run.
    pub kills: u64,
    /// `aequus_rms_predictions_total` summed across sites in the
    /// telemetry-enabled running-average run — proves the accuracy
    /// telemetry flows end to end.
    pub telemetry_predictions: u64,
    /// Utilization under (request echo, running average).
    pub utilization: (f64, f64),
}

/// Run the predictor comparison (see [`PredictionReport`]).
pub fn run_prediction_comparison(shape: &Shape) -> PredictionReport {
    let trace = bursty_mixed_trace(shape);
    let run = |predictor: PredictorKind,
               mispredict: MispredictPolicy,
               request_factor: f64,
               telemetry: bool| {
        let mut sc = matrix_scenario(shape, DispatchOrder::Easy, ProjectionKind::Percental)
            .with_request_factor(request_factor);
        sc.dispatch.predictor = predictor;
        sc.dispatch.mispredict = mispredict;
        if telemetry {
            sc = sc.with_telemetry();
        }
        GridSimulation::new(sc).run(&trace, DRAIN_S)
    };
    let runs = parallel_sweep(
        &[
            (PredictorKind::Request, MispredictPolicy::Extend, 3.0, false),
            (
                PredictorKind::RunningAverage { cap: 50 },
                MispredictPolicy::Extend,
                3.0,
                true,
            ),
            (
                PredictorKind::LastKMax { k: 5 },
                MispredictPolicy::Extend,
                3.0,
                false,
            ),
            (
                PredictorKind::Request,
                MispredictPolicy::KillAtRequest,
                0.7,
                false,
            ),
        ],
        |&(p, m, f, t)| run(p, m, f, t),
    );
    let err = |r: &SimResult| {
        let scored: u64 = r.cluster_stats.iter().map(|s| s.prediction.scored).sum();
        let sum: f64 = r
            .cluster_stats
            .iter()
            .map(|s| s.prediction.abs_rel_err_sum)
            .sum();
        if scored == 0 {
            0.0
        } else {
            sum / scored as f64
        }
    };
    PredictionReport {
        request_err: err(&runs[0]),
        avg_err: err(&runs[1]),
        lastk_err: err(&runs[2]),
        avg_underestimates: runs[1]
            .cluster_stats
            .iter()
            .map(|s| s.prediction.underestimates)
            .sum(),
        kills: runs[3].cluster_stats.iter().map(|s| s.killed).sum(),
        telemetry_predictions: runs[1]
            .site_telemetry
            .iter()
            .filter_map(|snap| snap.counters.get("aequus_rms_predictions_total"))
            .sum(),
        utilization: (runs[0].mean_utilization(), runs[1].mean_utilization()),
    }
}

/// Scheduler hot-path budget measurements at a 10k-deep queue.
#[derive(Debug, Clone, Copy)]
pub struct HotPathReport {
    /// `SliceWalk::next_admitted` on the 10k-deep mixed queue, nanoseconds
    /// (early-exit: a fitting narrow job sits near the head, as in real
    /// mixed queues).
    pub next_admitted_ns: f64,
    /// `next_admitted` worst case — no job fits until the tail —
    /// nanoseconds.
    pub next_admitted_worst_ns: f64,
    /// EASY full plan scan at 1k jobs, microseconds.
    pub easy_1k_us: f64,
    /// EASY full plan scan at 10k jobs, microseconds.
    pub easy_10k_us: f64,
    /// SAF (sorts candidates: the O(n log n) ceiling) at 10k, microseconds.
    pub saf_10k_us: f64,
    /// Conservative at 10k under its reservation bound, microseconds.
    pub conservative_10k_us: f64,
    /// One `SchedulerCore::advance` (sweep + EASY dispatch) on a full
    /// machine with 1,000 jobs of 8 users queued, microseconds.
    pub cycle_1k_us: f64,
    /// The same saturated cycle with 10,000 jobs queued, microseconds.
    pub cycle_10k_us: f64,
    /// The saturated cycle at the `WIDE` shape, 10,000 queued, microseconds.
    pub cycle_wide_us: f64,
    /// One cycle on a nearly full machine — 1 core free behind a wide
    /// pivot, 10,000 one-core jobs queued that would all overrun its shadow
    /// — per queued job, nanoseconds. Each of the 8 lanes goes on its bound
    /// (its least request ends after the shadow), so this is the lanes'
    /// cost spread over the jobs; a walk that steps every job read 2–11.
    pub stepped_over_ns: f64,
    /// One backfill cycle at the `WIDE` shape under `LastKMax { k: 5 }`,
    /// every class with history, one core free behind a reserved wide pivot
    /// and nothing admitted, per lane, nanoseconds.
    pub backfill_lane_ns: f64,
    /// Lane jobs the timed backfill cycles priced (`lanes_priced`), all of
    /// them together: a steady cycle re-keys no lane and reaches no job
    /// behind a head, so exactly 0 on any host.
    pub backfill_lanes_priced: u64,
    /// One EASY plan whose pivot is one core short behind the `WIDE`
    /// shape's 128 believed ends, nothing queued behind it, nanoseconds:
    /// the shadow walk and little else.
    pub shadow_ns: f64,
}

impl HotPathReport {
    /// The 10k/1k EASY scan growth. O(n log n) predicts ~13×; the gate
    /// allows 40× for timer noise at microsecond scales, which still
    /// rejects an accidental O(n²) rewrite (100×).
    pub fn scan_growth(&self) -> f64 {
        self.easy_10k_us / self.easy_1k_us.max(1e-3)
    }

    /// The 10k/1k growth of a saturated scheduling cycle. Nothing can
    /// start, so the cycle should cost the lanes, not the queue: ~1×. A
    /// cycle that visits every queued job grows ~10×.
    pub fn cycle_growth(&self) -> f64 {
        self.cycle_10k_us / self.cycle_1k_us.max(1e-3)
    }

    /// What one further lane or running job adds to a saturated cycle,
    /// nanoseconds: the `WIDE` cycle less the `NARROW` one over the items
    /// between them. A full machine returns before it looks at a lane head
    /// or a believed end, which leaves the completion scan's compare per
    /// running job; a steady sweep reads one factor per user and touches no
    /// lane.
    pub fn saturated_item_ns(&self) -> f64 {
        let items = |(users, widths, running): Saturated| (users * widths + running) as f64;
        (self.cycle_wide_us - self.cycle_10k_us) * 1_000.0 / (items(WIDE) - items(NARROW))
    }
}

/// A saturated cycle's shape: users × power-of-two widths queued (a lane
/// each) behind this many running one-core jobs.
type Saturated = (usize, usize, usize);
/// The shape the queue-growth gate has always timed: 24 lanes, 8 running.
const NARROW: Saturated = (8, 3, 8);
/// `vo_burst`'s 128 running jobs and 64 users, at six widths: 384 lanes.
const WIDE: Saturated = (64, 6, 128);

/// A blocked-head queue: the pivot wants more cores than are free, the
/// rest cycle through mixed widths/runtimes — the worst realistic shape
/// for a full backfill scan.
fn synthetic_queue(n: usize, free: u32) -> Vec<QueuedJob> {
    let widths = [free * 2, 1, 2, 4, 8, 2, 1, 4];
    let runtimes = [1800.0, 90.0, 240.0, 900.0, 60.0, 420.0, 150.0, 300.0];
    (0..n)
        .map(|i| QueuedJob {
            cores: widths[i % widths.len()],
            predicted_s: runtimes[i % runtimes.len()],
        })
        .collect()
}

fn synthetic_running(n: usize) -> Vec<RunningSlice> {
    (0..n)
        .map(|i| RunningSlice {
            end_s: 100.0 + (i as f64 * 37.0) % 1700.0,
            cores: 1 + (i as u32 % 4),
        })
        .collect()
}

/// Minimum of `reps` timings of `f`, in nanoseconds — the interleaved-
/// minima trick the other overhead gates use, immune to one-off stalls.
pub(crate) fn min_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// The cheapest possible fairshare seam — every user at the balance point
/// — so [`steady_cycle`] times the scheduler and nothing behind it.
struct NeutralSource(Vec<GridUser>);

impl FairshareSource for NeutralSource {
    fn intern_user(&mut self, user: &GridUser) -> UserId {
        let known = self.0.iter().position(|u| u == user);
        let index = known.unwrap_or_else(|| {
            self.0.push(user.clone());
            self.0.len() - 1
        });
        UserId(index as u32)
    }

    fn fairshare_factor(&mut self, _id: UserId, _now_s: f64) -> f64 {
        0.5
    }

    fn report_usage(&mut self, _record: UsageRecord, _now_s: f64) {}

    fn resolve_identity(&mut self, system: &SystemUser, _now_s: f64) -> Option<GridUser> {
        Some(GridUser::new(system.as_str()))
    }
}

/// A scheduler on one node of `cores` over the [`NeutralSource`], swept
/// every cycle.
fn neutral_scheduler(cores: u32, dispatch: DispatchConfig) -> (SchedulerCore, NeutralSource) {
    let sched = SchedulerCore::with_dispatch(
        SiteId(0),
        NodePool::new(1, cores),
        PriorityWeights::fairshare_only(),
        FactorConfig::default(),
        ReprioritizePolicy::EveryCycle,
        dispatch,
    );
    (sched, NeutralSource(Vec::new()))
}

/// A whole steady scheduling cycle — `advance` with a sweep and an EASY
/// dispatch — in which nothing can start, from `now_s` on: the `holders.0`
/// running jobs ask for `holders.1` seconds (and never end), `queued` wait
/// behind them. Each call runs one cycle: the lane jobs priced by every
/// steady cycle so far, or `None` once a job started.
fn steady_cycle(
    (mut sched, mut src): (SchedulerCore, NeutralSource),
    mut now_s: f64,
    (running, request_s): (usize, f64),
    queued: impl Iterator<Item = Job>,
) -> impl FnMut() -> Option<u64> {
    for i in 0..running {
        let holder = Job::new(JobId(i as u64), SystemUser::new("holder"), 1, now_s, 1e12);
        sched.submit(holder.with_request(request_s), &mut src, now_s);
    }
    sched.advance(&mut src, now_s);
    assert_eq!(sched.running(), running, "the holders run");
    queued.for_each(|job| sched.submit(job, &mut src, now_s));
    let pending = sched.pending();
    now_s += 1.0;
    sched.advance(&mut src, now_s); // first sight of the queue: not the steady cycle
    let priced = sched.stats().lanes_priced;
    move || {
        now_s += 1.0;
        sched.advance(&mut src, now_s);
        let steady = sched.pending() == pending;
        steady.then(|| sched.stats().lanes_priced - priced)
    }
}

/// The minimum of each of `cycles` over `reps` rounds, nanoseconds, and the
/// lane jobs each priced over all its rounds. A round times two cycles of
/// each in turn (the second on caches the first warmed): host drift moves
/// every minimum alike, so ratios and differences of them hold.
fn cycles_min_ns<const N: usize>(
    mut cycles: [impl FnMut() -> Option<u64>; N],
    reps: usize,
) -> [(f64, u64); N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..reps {
        for (cycle, best) in cycles.iter_mut().zip(&mut best) {
            *best = best.min(min_ns(2, &mut *cycle));
        }
    }
    std::array::from_fn(|k| (best[k], cycles[k]().expect("nothing could start")))
}

/// A queued job (ids from 1,000) of one of `users` users.
fn queued_job(i: usize, users: usize, cores: u32, duration_s: f64) -> Job {
    let user = SystemUser::new(format!("u{}", i % users));
    Job::new(JobId((1_000 + i) as u64), user, cores, 0.5, duration_s)
}

/// A saturated cycle on a machine kept full by the shape's running jobs
/// (believed never to end), `pending` jobs of its users × widths queued.
fn saturated_cycle(
    (users, widths, running): Saturated,
    pending: usize,
) -> impl FnMut() -> Option<u64> {
    let queued = (0..pending).map(move |i| queued_job(i, users, 1 << ((i / users) % widths), 1e12));
    let sched = neutral_scheduler(running as u32, DispatchConfig::default());
    steady_cycle(sched, 0.0, (running, 1e12), queued)
}

/// One cycle on a nearly full machine per queued job, nanoseconds: 7 of 8
/// cores held, an 8-wide pivot reserved where they end, and `queued`
/// one-core jobs of 8 users whose requests all run past that shadow.
fn stepped_over_ns(queued: usize, reps: usize) -> f64 {
    let pivot = Job::new(JobId(999), SystemUser::new("pivot"), 8, 0.0, 10.0);
    let narrow = (0..queued).map(|i| queued_job(i, 8, 1, 3e12));
    let sched = neutral_scheduler(8, DispatchConfig::default());
    let cycle = steady_cycle(sched, 0.0, (7, 1e12), std::iter::once(pivot).chain(narrow));
    cycles_min_ns([cycle], reps)[0].0 / queued as f64
}

/// One backfill cycle at the `WIDE` shape per lane, nanoseconds: under
/// `LastKMax { k: 5 }` a 5 s job of every (user, width) class has run, then
/// 127 of 128 cores are held by jobs past their 1 s requests — the 128-wide
/// pivot is reserved for "any second now" — and each of the 384 lanes holds
/// a job its class's 5 s estimate keeps from backfilling. Also the lane
/// jobs the timed cycles priced.
fn backfill_lane_ns(reps: usize) -> (f64, u64) {
    let (users, widths, running) = WIDE;
    let (lanes, cores) = (users * widths, running as u32);
    let dispatch = DispatchConfig {
        predictor: PredictorKind::LastKMax { k: 5 },
        ..DispatchConfig::default()
    };
    let (mut sched, mut src) = neutral_scheduler(cores, dispatch);
    let lane_job = |i: usize, submit_s| Job {
        submit_s,
        ..queued_job(i, users, 1 << (i % lanes / users), 5.0)
    };
    (0..lanes).for_each(|i| sched.submit(lane_job(i, 0.0), &mut src, 0.0));
    let mut now_s = 0.0;
    while sched.stats().completed < lanes as u64 {
        now_s += 5.0;
        sched.advance(&mut src, now_s);
    }
    let pivot = Job::new(JobId(999), SystemUser::new("pivot"), cores, now_s, 10.0);
    let queued = (lanes..2 * lanes).map(|i| lane_job(i, now_s + 0.5));
    let queued = std::iter::once(pivot).chain(queued);
    let cycle = steady_cycle((sched, src), now_s, (running - 1, 1.0), queued);
    let [(ns, priced)] = cycles_min_ns([cycle], reps);
    (ns / lanes as f64, priced)
}

/// One EASY plan whose only job, the pivot, is one core short behind the
/// `WIDE` shape's running jobs, nanoseconds: the plan reserves it at the
/// first believed end and finds nothing to backfill. One [`EndKeys`] serves
/// every plan, as in a scheduler.
fn shadow_ns(reps: usize) -> f64 {
    const FREE: u32 = 7;
    let running = synthetic_running(WIDE.2);
    let pivot = [QueuedJob {
        cores: FREE + 1,
        predicted_s: 600.0,
    }];
    let mut ends = EndKeys::default();
    let plan = |ends: &mut EndKeys| {
        let walk = &mut SliceWalk::new(&pivot);
        DispatchOrder::Easy.plan(0.0, FREE, walk, &running, ends)
    };
    assert!(plan(&mut ends).shadow_s.is_some(), "the pivot is reserved");
    min_ns(reps, || plan(&mut ends))
}

/// Measure the scheduler hot path (see [`HotPathReport`]).
pub fn run_hotpath_bench() -> HotPathReport {
    use DispatchOrder::{Conservative, Easy, Saf};
    const FREE: u32 = 8;
    const RUNNING: usize = 64;
    let q10k = synthetic_queue(10_000, FREE);
    let q1k = synthetic_queue(1_000, FREE);
    // Worst case for next_admitted: every job too wide except the last.
    let mut q_worst = vec![
        QueuedJob {
            cores: FREE * 2,
            predicted_s: 600.0,
        };
        10_000
    ];
    q_worst.last_mut().expect("non-empty").cores = 1;
    let running = synthetic_running(RUNNING);
    let plan_us = |reps, order: DispatchOrder, queue: &[QueuedJob]| {
        min_ns(reps, || {
            order.plan(
                0.0,
                FREE,
                &mut SliceWalk::new(queue),
                &running,
                &mut EndKeys::default(),
            )
        }) / 1_000.0
    };
    let within = Admission::within(FREE);
    let saturated = [(NARROW, 1_000), (NARROW, 10_000), (WIDE, 10_000)];
    let saturated = saturated.map(|(shape, pending)| saturated_cycle(shape, pending));
    let [cycle_1k_us, cycle_10k_us, cycle_wide_us] =
        cycles_min_ns(saturated, 3_000).map(|(ns, _)| ns / 1e3);
    let (backfill_lane_ns, backfill_lanes_priced) = backfill_lane_ns(200);
    HotPathReport {
        next_admitted_ns: min_ns(200, || SliceWalk::new(&q10k).next_admitted(&within)),
        next_admitted_worst_ns: min_ns(50, || SliceWalk::new(&q_worst).next_admitted(&within)),
        easy_1k_us: plan_us(50, Easy, &q1k),
        easy_10k_us: plan_us(25, Easy, &q10k),
        saf_10k_us: plan_us(25, Saf, &q10k),
        conservative_10k_us: plan_us(10, Conservative, &q10k),
        cycle_1k_us,
        cycle_10k_us,
        cycle_wide_us,
        stepped_over_ns: stepped_over_ns(10_000, 50),
        backfill_lane_ns,
        backfill_lanes_priced,
        shadow_ns: shadow_ns(2_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursty_trace_is_deterministic_and_mixed_width() {
        let shape = Shape::BACKFILL_SMOKE;
        let a = bursty_mixed_trace(&shape);
        let b = bursty_mixed_trace(&shape);
        assert_eq!(a.len(), shape.jobs);
        assert_eq!(a.jobs(), b.jobs(), "same seed, same trace");
        let wide = site_cores(&shape) / 2;
        assert!(
            a.jobs().iter().any(|j| j.cores == wide),
            "has head-blockers"
        );
        assert!(a.jobs().iter().any(|j| j.cores == 1), "has fillers");
        assert!(
            a.jobs().iter().all(|j| j.cores <= wide),
            "every job fits a cluster"
        );
        // Every tracked user appears (starvation clocks need a series).
        for (user, _) in baseline_policy_shares() {
            assert!(a.jobs().iter().any(|j| j.user == user), "{user} present");
        }
    }

    #[test]
    fn matrix_cell_runs_end_to_end() {
        let shape = Shape {
            jobs: 120,
            nodes_per_site: 1,
            ..Shape::BACKFILL_SMOKE
        };
        let trace = bursty_mixed_trace(&shape);
        let cell = run_cell(
            &shape,
            &trace,
            DispatchOrder::Easy,
            ProjectionKind::Percental,
        );
        assert_eq!(cell.completed as usize, shape.jobs, "drain completes all");
        assert!(cell.utilization > 0.0 && cell.utilization <= 1.0);
        assert!(cell.mean_slowdown >= 1.0, "slowdown is ≥ 1 by definition");
    }

    #[test]
    fn hotpath_shapes_are_valid() {
        let q = synthetic_queue(100, 8);
        assert_eq!(q[0].cores, 16, "head blocks at 8 free");
        assert!(
            SliceWalk::new(&q)
                .next_admitted(&Admission::within(8))
                .is_some(),
            "a narrow job fits"
        );
        let r = synthetic_running(8);
        assert!(r.iter().all(|s| s.end_s > 0.0 && s.cores >= 1));
        assert!(
            cycles_min_ns([saturated_cycle(NARROW, 50)], 2)[0].0 > 0.0,
            "saturated shape holds"
        );
        assert!(stepped_over_ns(50, 2) > 0.0, "nearly full shape holds");
        assert!(backfill_lane_ns(2).0 > 0.0, "backfill shape holds");
        assert!(shadow_ns(2) > 0.0, "shadow shape holds");
    }
}
