//! Property-based tests of the four dispatch orders: the EASY invariant
//! (backfilled candidates never delay the pivot's reservation), plan
//! feasibility across all four orders, and the Conservative no-starvation
//! guarantee (a full-width job bounded-waits behind a saturating stream of
//! narrow jobs that would starve it under greedy no-reservation backfill) —
//! plus what each setting of the shared pivot scan *means*: FIFO starts the
//! longest feasible priority-order prefix, SAF backfills in ascending area,
//! all three share their head starts, every order agrees when nothing is
//! blocked, and a walk that applies the plan's admission rule changes no
//! plan (the width-only walk of the first lane queue is the reference).

mod common;

use aequus_core::ids::{JobId, SiteId};
use aequus_core::SystemUser;
use aequus_rms::{
    Admission, DispatchConfig, DispatchOrder, DispatchPlan, EndKeys, FactorConfig, Job,
    MispredictPolicy, NodePool, PredictorKind, PriorityWeights, QueueWalk, QueuedJob,
    ReprioritizePolicy, RunningSlice, SchedulerCore, SliceWalk,
};
use common::Scripted;
use proptest::prelude::*;

/// Replica of the EASY shadow walk, kept in the test so a bug in the
/// production walk can't hide itself: earliest time `cores` are free given
/// `free` now and the believed ends of `running`.
fn shadow(cores: u32, free: u32, running: &[RunningSlice]) -> Option<f64> {
    if cores <= free {
        return Some(0.0);
    }
    let mut ends: Vec<(f64, u32)> = running.iter().map(|r| (r.end_s, r.cores)).collect();
    ends.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite ends"));
    let mut avail = free;
    for (end, c) in ends {
        avail += c;
        if avail >= cores {
            return Some(end);
        }
    }
    None
}

/// The pivot-scan invariant (EASY and SAF): applying every planned start
/// (head starts and backfilled candidates alike, each becoming a running
/// slice that holds its cores for its predicted runtime) never pushes the
/// pivot's earliest feasible start past the reservation the plan advertised.
fn assert_pivot_not_delayed(
    plan: &DispatchPlan,
    queue: &[QueuedJob],
    running: &[RunningSlice],
    free: u32,
) -> Result<(), TestCaseError> {
    let Some(reserved) = plan.shadow_s else {
        return Ok(());
    };
    let started = started(plan);
    // The pivot: the first skipped job the scan could reserve for — judged,
    // like the policy does, against the free cores left after the head
    // starts plus the releases of the *pre-cycle* running set (jobs
    // started this cycle aren't believed-running until next cycle, so a
    // wider job can be transiently unreservable and is skipped).
    let head_cores: u32 = plan
        .starts
        .iter()
        .filter(|s| !s.backfill)
        .map(|s| queue[s.handle].cores)
        .sum();
    let capacity: u32 = free - head_cores + running.iter().map(|s| s.cores).sum::<u32>();
    let pivot = queue
        .iter()
        .enumerate()
        .find(|(i, j)| !started.contains(i) && j.cores <= capacity);
    let Some((_, pivot)) = pivot else {
        return Ok(());
    };
    // World after the plan executes: started jobs hold their cores for
    // their predicted runtimes.
    let used: u32 = started.iter().map(|&i| queue[i].cores).sum();
    prop_assert!(used <= free, "plan oversubscribed: {used} > {free}");
    let mut after: Vec<RunningSlice> = running.to_vec();
    after.extend(started.iter().map(|&i| RunningSlice {
        end_s: queue[i].predicted_s,
        cores: queue[i].cores,
    }));
    let shadow_after =
        shadow(pivot.cores, free - used, &after).expect("pivot stays runnable after the plan");
    prop_assert!(
        shadow_after <= reserved + 1e-9,
        "pivot reservation delayed: {shadow_after} > {reserved}\nfree={free} queue={queue:?}\nrunning={running:?}\nplan={plan:?}"
    );
    Ok(())
}

/// The (queue, running) views a plan is made over, from strategy tuples.
fn views(q: &[(u32, f64)], r: &[(f64, u32)]) -> (Vec<QueuedJob>, Vec<RunningSlice>) {
    let queue = q
        .iter()
        .map(|&(cores, predicted_s)| QueuedJob { cores, predicted_s })
        .collect();
    let running = r
        .iter()
        .map(|&(rem, cores)| RunningSlice { end_s: rem, cores })
        .collect();
    (queue, running)
}

/// Plan `order` at t = 0 over a priority-sorted slice (handles = indices).
fn plan_over(
    order: DispatchOrder,
    free: u32,
    queue: &[QueuedJob],
    running: &[RunningSlice],
) -> DispatchPlan {
    order.plan(
        0.0,
        free,
        &mut SliceWalk::new(queue),
        running,
        &mut EndKeys::default(),
    )
}

/// The walk the rule-aware one replaced, kept as the reference: it yields
/// every job no wider than the rule's free cores, whatever its runtime, and
/// leaves the rest of the rule to the plan.
struct WidthWalk<'a>(std::iter::Enumerate<std::slice::Iter<'a, QueuedJob>>);

impl QueueWalk for WidthWalk<'_> {
    fn next_admitted(&mut self, rule: &Admission) -> Option<(usize, QueuedJob)> {
        let fit = self.0.find(|(_, q)| q.cores <= rule.free)?;
        Some((fit.0, *fit.1))
    }
}

/// Queue indices of a plan's starts, in start order.
fn started(plan: &DispatchPlan) -> Vec<usize> {
    plan.starts.iter().map(|s| s.handle).collect()
}

/// Random queue: (cores, predicted seconds) pairs.
fn queue_strategy() -> impl Strategy<Value = Vec<(u32, f64)>> {
    proptest::collection::vec((1u32..24, 1.0..800.0f64), 1..40)
}

/// Random running set: (remaining seconds, cores) pairs.
fn running_strategy() -> impl Strategy<Value = Vec<(f64, u32)>> {
    proptest::collection::vec((1.0..600.0f64, 1u32..8), 0..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The walk contract every planning routine leans on, for `SliceWalk`:
    /// each call yields the next job in priority order that the rule admits
    /// — ascending handles, so each job at most once — and the jobs it turns
    /// down on the way never come back, whatever later calls ask for.
    #[test]
    fn slice_walk_keeps_the_walk_contract(
        q in proptest::collection::vec((0u32..24, 1.0..800.0f64), 0..40),
        asks in proptest::collection::vec((0u32..36, 0u32..36, 0.0..900.0f64), 1..60),
    ) {
        let (queue, _) = views(&q, &[]);
        let mut walk = SliceWalk::new(&queue);
        let mut unvisited = 0; // everything before this was yielded or passed over
        for (free, spare, shadow_t) in asks {
            let rule = if free < 32 {
                Admission { free, spare, now_s: 100.0, shadow_t: 100.0 + shadow_t }
            } else {
                Admission::within(u32::MAX)
            };
            match walk.next_admitted(&rule) {
                Some((handle, job)) => {
                    prop_assert!(handle >= unvisited, "handle {handle} came back");
                    prop_assert_eq!(job, queue[handle]);
                    prop_assert!(rule.admits(&job), "not admitted");
                    prop_assert!(
                        !queue[unvisited..handle].iter().any(|j| rule.admits(j)),
                        "skipped a job the rule admits"
                    );
                    unvisited = handle + 1;
                }
                None => {
                    prop_assert!(!queue[unvisited..].iter().any(|j| rule.admits(j)));
                    unvisited = queue.len();
                }
            }
        }
    }

    /// Turning candidates down inside the walk changes no plan: over a walk
    /// that applies the rule and over the reference that only looks at
    /// widths, FIFO, EASY and SAF plan the same starts in the same order
    /// under the same reservation — zero-core jobs, jobs wider than the
    /// machine and a clock away from zero included.
    #[test]
    fn a_rule_aware_walk_plans_what_the_width_walk_plans(
        q in proptest::collection::vec((0u32..24, 1.0..800.0f64), 1..40),
        r in running_strategy(),
        free in 0u32..16,
        now_s in 0.0..5_000.0f64,
    ) {
        let (queue, mut running) = views(&q, &r);
        for slice in &mut running {
            slice.end_s += now_s;
        }
        // One buffer serves every plan: each clears it before use.
        let mut ends = EndKeys::default();
        for order in [DispatchOrder::Fifo, DispatchOrder::Easy, DispatchOrder::Saf] {
            let ruled = order.plan(now_s, free, &mut SliceWalk::new(&queue), &running, &mut ends);
            let by_width = order.plan(now_s, free, &mut WidthWalk(queue.iter().enumerate()), &running, &mut ends);
            prop_assert_eq!(ruled, by_width, "{}", order.name());
        }
    }

    /// EASY invariant: applying every planned start (head starts and
    /// backfilled candidates alike, each becoming a running slice that
    /// holds its cores for its predicted runtime) never pushes the pivot's
    /// earliest feasible start past the reservation the plan advertised.
    #[test]
    fn easy_backfill_never_delays_the_pivot(
        q in queue_strategy(),
        r in running_strategy(),
        free in 0u32..16,
    ) {
        let queue: Vec<QueuedJob> = q
            .iter()
            .map(|&(cores, predicted_s)| QueuedJob { cores, predicted_s })
            .collect();
        let running: Vec<RunningSlice> = r
            .iter()
            .map(|&(rem, cores)| RunningSlice { end_s: rem, cores })
            .collect();
        let plan = plan_over(DispatchOrder::Easy, free, &queue, &running);
        assert_pivot_not_delayed(&plan, &queue, &running, free)?;
    }

    /// Every order's plan is feasible (started cores fit the free pool,
    /// no index out of range or started twice) and deterministic.
    #[test]
    fn every_plan_is_feasible_and_deterministic(
        q in queue_strategy(),
        r in running_strategy(),
        free in 0u32..16,
    ) {
        let queue: Vec<QueuedJob> = q
            .iter()
            .map(|&(cores, predicted_s)| QueuedJob { cores, predicted_s })
            .collect();
        let running: Vec<RunningSlice> = r
            .iter()
            .map(|&(rem, cores)| RunningSlice { end_s: rem, cores })
            .collect();
        for order in DispatchOrder::ALL {
            let plan = plan_over(order, free, &queue, &running);
            let mut seen = std::collections::BTreeSet::new();
            let mut used = 0u32;
            for s in &plan.starts {
                prop_assert!(s.handle < queue.len(), "{}: index range", order.name());
                prop_assert!(seen.insert(s.handle), "{}: started twice", order.name());
                used += queue[s.handle].cores;
            }
            prop_assert!(used <= free, "{}: oversubscribed {used} > {free}", order.name());
            let replay = plan_over(order, free, &queue, &running);
            prop_assert_eq!(
                plan.starts.len(),
                replay.starts.len(),
                "{}: non-deterministic",
                order.name()
            );
        }
    }

    /// Conservative no-starvation: one full-width job behind an endless
    /// stream of narrow jobs. A greedy no-reservation dispatcher would
    /// never drain the pool; the per-job reservation must start the wide
    /// job within the first narrow generation's lifetime.
    #[test]
    fn conservative_wide_job_waits_boundedly(
        arrival_s in 4.0..20.0f64,
        narrow_s in 20.0..90.0f64,
        per_batch in 1usize..4,
    ) {
        const CORES: u32 = 8;
        let mut sched = SchedulerCore::with_dispatch(
            SiteId(0),
            NodePool::new(1, CORES),
            PriorityWeights::fairshare_only(),
            FactorConfig::default(),
            ReprioritizePolicy::EveryCycle,
            DispatchConfig {
                order: DispatchOrder::Conservative,
                predictor: PredictorKind::Request,
                mispredict: MispredictPolicy::Extend,
            },
        );
        let mut src = Scripted::default();
        // Same user throughout: every job carries the same priority, so
        // queue order is pure submit order and the wide job stays ahead of
        // every narrow job submitted after it.
        let mut next_id = 1u64;
        // Saturate the pool, then put the wide job behind the full machine.
        for _ in 0..CORES {
            sched.submit(
                Job::new(JobId(next_id), SystemUser::new("sys-a"), 1, 0.0, narrow_s),
                &mut src,
                0.0,
            );
            next_id += 1;
        }
        sched.advance(&mut src, 0.0);
        prop_assert_eq!(sched.running(), CORES as usize);
        let wide = JobId(0);
        sched.submit(
            Job::new(wide, SystemUser::new("sys-a"), CORES, 1.0, 50.0),
            &mut src,
            1.0,
        );
        let mut next_arrival = arrival_s;
        let mut t = 1.0;
        let mut wide_started = None;
        while t < 2_000.0 {
            while next_arrival <= t {
                for _ in 0..per_batch {
                    sched.submit(
                        Job::new(JobId(next_id), SystemUser::new("sys-a"), 1, t, narrow_s),
                        &mut src,
                        t,
                    );
                    next_id += 1;
                }
                next_arrival += arrival_s;
            }
            sched.advance(&mut src, t);
            if wide_started.is_none() && sched.running_jobs().any(|j| j.id == wide) {
                wide_started = Some(t);
                break;
            }
            t += 2.0;
        }
        // Bounded wait: the reservation lands at the last end among the
        // narrow jobs running when the wide job arrived — one narrow
        // lifetime, plus advance-step quantization. A greedy
        // no-reservation dispatcher would keep refilling freed cores from
        // the narrow stream and never start the wide job at all.
        let bound = narrow_s + 6.0;
        prop_assert!(
            wide_started.is_some_and(|s| s <= bound),
            "wide job start {wide_started:?} not within {bound}"
        );
    }

    /// Whole-workload no-starvation across every order: a finite random
    /// workload always drains — every submitted job eventually completes.
    #[test]
    fn every_order_drains_finite_workloads(
        jobs in proptest::collection::vec((0.0..1000.0f64, 1.0..300.0f64, 1u32..9), 1..40),
    ) {
        for order in DispatchOrder::ALL {
            let mut sched = SchedulerCore::with_dispatch(
                SiteId(0),
                NodePool::new(2, 4),
                PriorityWeights::fairshare_only(),
                FactorConfig::default(),
                ReprioritizePolicy::Interval(30.0),
                DispatchConfig {
                    order,
                    ..DispatchConfig::default()
                },
            );
            let mut src = Scripted::default();
            let mut submits: Vec<(f64, f64, u32)> = jobs.clone();
            submits.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            let mut idx = 0;
            let mut t = 0.0;
            while t < 40_000.0 && (sched.stats().completed as usize) < submits.len() {
                while idx < submits.len() && submits[idx].0 <= t {
                    let (at, dur, cores) = submits[idx];
                    sched.submit(
                        Job::new(JobId(idx as u64), SystemUser::new("sys-a"), cores, at, dur),
                        &mut src,
                        t,
                    );
                    idx += 1;
                }
                sched.advance(&mut src, t);
                t += 10.0;
            }
            prop_assert_eq!(
                sched.stats().completed as usize,
                submits.len(),
                "{}: workload did not drain",
                order.name()
            );
        }
    }

    /// The Conservative plan itself never reserves past the shadow the
    /// queue head would get under EASY *when the head is the only blocked
    /// job* — the two policies agree on the first reservation.
    #[test]
    fn conservative_head_reservation_matches_easy_shadow(
        r in running_strategy(),
        head_cores in 1u32..24,
        free in 0u32..16,
    ) {
        let queue = [QueuedJob { cores: head_cores, predicted_s: 100.0 }];
        let running: Vec<RunningSlice> = r
            .iter()
            .map(|&(rem, cores)| RunningSlice { end_s: rem, cores })
            .collect();
        let easy = plan_over(DispatchOrder::Easy, free, &queue, &running);
        let conservative = plan_over(DispatchOrder::Conservative, free, &queue, &running);
        prop_assert_eq!(
            easy.starts.len(),
            conservative.starts.len(),
            "start-now decision differs on a single-job queue"
        );
        if let (Some(a), Some(b)) = (easy.shadow_s, conservative.shadow_s) {
            prop_assert!((a - b).abs() < 1e-9, "reservations differ: {a} vs {b}");
        }
    }

    /// FIFO means: start the longest prefix of the priority order that fits
    /// the free cores, and nothing else — the first job that does not fit
    /// ends the cycle whether or not it could ever be reserved for, and no
    /// reservation is placed.
    #[test]
    fn fifo_starts_exactly_the_longest_feasible_prefix(
        q in queue_strategy(),
        r in running_strategy(),
        free in 0u32..64,
    ) {
        let (queue, running) = views(&q, &r);
        let plan = plan_over(DispatchOrder::Fifo, free, &queue, &running);
        let mut left = free;
        let prefix = queue
            .iter()
            .take_while(|j| {
                let fits = j.cores <= left;
                if fits {
                    left -= j.cores;
                }
                fits
            })
            .count();
        prop_assert_eq!(started(&plan), (0..prefix).collect::<Vec<_>>());
        prop_assert!(plan.starts.iter().all(|s| !s.backfill));
        prop_assert_eq!(plan.shadow_s, None);
    }

    /// SAF means: behind the pivot, candidates are taken smallest area
    /// (cores × predicted runtime) first, ties in queue order — and, like
    /// EASY, no backfilled start delays the pivot.
    #[test]
    fn saf_backfills_in_ascending_area_without_delaying_the_pivot(
        q in queue_strategy(),
        r in running_strategy(),
        free in 0u32..16,
    ) {
        let (queue, running) = views(&q, &r);
        let plan = plan_over(DispatchOrder::Saf, free, &queue, &running);
        let backfilled: Vec<(f64, usize)> = plan
            .starts
            .iter()
            .filter(|s| s.backfill)
            .map(|s| (queue[s.handle].cores as f64 * queue[s.handle].predicted_s, s.handle))
            .collect();
        for pair in backfilled.windows(2) {
            prop_assert!(
                pair[0] < pair[1],
                "backfill order not (area, queue index) ascending: {backfilled:?}"
            );
        }
        assert_pivot_not_delayed(&plan, &queue, &running, free)?;
    }

    /// The three pivot-scan orders share everything up to the candidate
    /// pass: FIFO's starts open EASY's and SAF's plans, and EASY and SAF
    /// agree on every head start (those past an unreservable job included)
    /// and on the pivot's reservation.
    #[test]
    fn fifo_easy_and_saf_share_their_head_starts(
        q in queue_strategy(),
        r in running_strategy(),
        free in 0u32..16,
    ) {
        let (queue, running) = views(&q, &r);
        let [fifo, easy, saf] = [DispatchOrder::Fifo, DispatchOrder::Easy, DispatchOrder::Saf]
            .map(|order| plan_over(order, free, &queue, &running));
        prop_assert!(easy.starts.starts_with(&fifo.starts), "{fifo:?} vs {easy:?}");
        prop_assert!(saf.starts.starts_with(&fifo.starts), "{fifo:?} vs {saf:?}");
        let heads = |plan: &DispatchPlan| -> Vec<usize> {
            plan.starts.iter().filter(|s| !s.backfill).map(|s| s.handle).collect()
        };
        prop_assert_eq!(heads(&easy), heads(&saf));
        prop_assert_eq!(easy.shadow_s, saf.shadow_s);
    }

    /// When the whole queue fits the free cores nothing is blocked, so there
    /// is nothing to reserve or reorder: all four orders start every job,
    /// in queue order, as head starts.
    #[test]
    fn all_orders_agree_when_nothing_is_blocked(
        q in queue_strategy(),
        r in running_strategy(),
        slack in 0u32..8,
    ) {
        let (queue, running) = views(&q, &r);
        let free = queue.iter().map(|j| j.cores).sum::<u32>() + slack;
        for order in DispatchOrder::ALL {
            let plan = plan_over(order, free, &queue, &running);
            prop_assert_eq!(started(&plan), (0..queue.len()).collect::<Vec<_>>(), "{}", order.name());
            prop_assert!(plan.starts.iter().all(|s| !s.backfill), "{}", order.name());
            prop_assert_eq!(plan.shadow_s, None, "{}", order.name());
        }
    }
}
