//! Dispatch orders: the decision layer that turns a priority-sorted queue
//! into job starts.
//!
//! This is the peer of the multifactor priority layer: [`crate::plugin`]
//! decides *how important* each job is, a [`DispatchOrder`] decides *which
//! jobs start now* given that order, current free cores, and the believed
//! completion times of running work. Four orders, two planning routines:
//!
//! * **FIFO**, **EASY** and **SAF** are one pivot scan. Jobs start in
//!   priority order while they fit; the first job that does not fit (the
//!   *pivot*) gets a reservation at its shadow time; the jobs behind it are
//!   backfill candidates that may start only if they finish before the
//!   shadow time or fit in the spare (non-reserved) cores. The three differ
//!   only in that candidate pass: FIFO has none (the pivot blocks everything
//!   behind it), EASY scans candidates in queue order, SAF scans them
//!   smallest area (cores × predicted runtime) first, packing the shadow
//!   window tighter.
//! * **Conservative** gives *every* blocked job a reservation on an
//!   availability timeline; a candidate may start now only if doing so
//!   delays no earlier reservation. Bounded wait by construction. (It is
//!   not the pivot scan with more reservations: the pivot scan judges the
//!   shadow against the pre-cycle running set, the timeline also counts
//!   this cycle's starts as running.)
//!
//! Planning is pure: [`DispatchOrder::plan`] sees immutable views of the
//! queue and running set and returns a [`DispatchPlan`];
//! [`crate::scheduler::SchedulerCore`] applies it. That keeps it trivially
//! property-testable and microbenchmarkable (see `backfill_sweep`).

/// A queued job as the dispatch order sees it, in priority order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedJob {
    /// Cores requested.
    pub cores: u32,
    /// Predicted runtime, seconds (from [`crate::predict`], already clamped
    /// to the walltime request).
    pub predicted_s: f64,
}

/// A running job as the dispatch order sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningSlice {
    /// Believed completion time, seconds.
    pub end_s: f64,
    /// Cores held.
    pub cores: u32,
}

/// One planned start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedStart {
    /// Index into the queue slice handed to [`DispatchOrder::plan`].
    pub queue_idx: usize,
    /// Whether this start jumped a blocked higher-priority job (backfill).
    pub backfill: bool,
}

/// The outcome of one dispatch cycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DispatchPlan {
    /// Jobs to start, in start order.
    pub starts: Vec<PlannedStart>,
    /// Earliest reservation (shadow) time placed this cycle, if any.
    pub shadow_s: Option<f64>,
}

/// Index of the first queued job that fits `free_cores` right now — the
/// shared hot-path "pick next startable job" decision. O(position of the
/// first fit); sub-microsecond even at 10k-deep queues (gated in
/// `backfill_sweep --check`).
pub fn pick_next(queue: &[QueuedJob], free_cores: u32) -> Option<usize> {
    queue.iter().position(|q| q.cores <= free_cores)
}

/// Earliest time `cores` become available given current `free` cores and
/// running jobs' believed ends, plus the cores spare beyond the
/// reservation at that time. `None` when the job exceeds the machine.
fn shadow_of(cores: u32, free: u32, running: &[RunningSlice]) -> Option<(f64, u32)> {
    let mut ends: Vec<(f64, u32)> = running.iter().map(|r| (r.end_s, r.cores)).collect();
    ends.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mut f = free;
    for (end, c) in ends {
        f += c;
        if f >= cores {
            return Some((end, f - cores));
        }
    }
    None
}

/// Which jobs behind the pivot [`pivot_scan`] considers for backfill, and
/// in what order.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Candidates {
    /// None: the first job that does not fit ends the cycle (FIFO).
    Absent,
    /// Queue (priority) order (EASY).
    QueueOrder,
    /// Ascending area = cores × predicted runtime, ties in queue order
    /// (SAF).
    AscendingArea,
}

/// The pivot scan behind FIFO, EASY and SAF. Head starts in priority order
/// until a job does not fit; that job becomes the pivot and is reserved at
/// its shadow time (a job wider than the whole machine is unreservable: it
/// is skipped and the next blocked job is the pivot); then one pass over
/// the `candidates` behind the pivot. Without candidates there is no
/// reservation to protect, so the scan ends at the first job that does not
/// fit, reservable or not. O(queue) plus one O(running·log running) shadow
/// walk; the `QueueOrder` pass allocates nothing per job, `AscendingArea`
/// sorts the tail.
fn pivot_scan(
    now_s: f64,
    free_cores: u32,
    queue: &[QueuedJob],
    running: &[RunningSlice],
    candidates: Candidates,
) -> DispatchPlan {
    let mut plan = DispatchPlan::default();
    let mut free = free_cores;
    let mut reserved: Option<(usize, f64, u32)> = None;
    for (i, q) in queue.iter().enumerate() {
        if q.cores <= free {
            free -= q.cores;
            plan.starts.push(PlannedStart {
                queue_idx: i,
                backfill: false,
            });
        } else if candidates == Candidates::Absent {
            return plan;
        } else if let Some((shadow_t, spare)) = shadow_of(q.cores, free, running) {
            plan.shadow_s = Some(shadow_t);
            reserved = Some((i, shadow_t, spare));
            break;
        }
    }
    let Some((pivot, shadow_t, mut spare)) = reserved else {
        return plan;
    };
    let mut consider = |i: usize| {
        let q = &queue[i];
        if q.cores <= free && (now_s + q.predicted_s <= shadow_t || q.cores <= spare) {
            free -= q.cores;
            plan.starts.push(PlannedStart {
                queue_idx: i,
                backfill: true,
            });
            if q.cores > 0 && now_s + q.predicted_s > shadow_t {
                spare -= q.cores;
            }
        }
    };
    let behind = pivot + 1..queue.len();
    if candidates == Candidates::AscendingArea {
        let area = |i: usize| queue[i].cores as f64 * queue[i].predicted_s;
        let mut rest: Vec<usize> = behind.collect();
        rest.sort_by(|&a, &b| area(a).partial_cmp(&area(b)).unwrap().then(a.cmp(&b)));
        for i in rest {
            consider(i);
        }
    } else {
        for i in behind {
            consider(i);
        }
    }
    plan
}

/// Reservation-table bound of the conservative timeline: blocked jobs
/// beyond this stop the scan (they simply wait), keeping the cycle O(n·R²)
/// instead of O(n³).
const MAX_RESERVATIONS: usize = 64;

/// Earliest start `>= now_s` at which `cores` stay available for `dur_s`,
/// given the free level at `now_s` and the (unsorted) step `events`
/// timeline.
fn earliest_start(now_s: f64, cores: u32, dur_s: f64, free_now: i64, events: &[(f64, i64)]) -> f64 {
    let mut times: Vec<f64> = events.iter().map(|e| e.0).filter(|&t| t > now_s).collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times.dedup();
    let feasible = |start: f64| -> bool {
        let end = start + dur_s;
        let mut free = free_now
            + events
                .iter()
                .filter(|e| e.0 > now_s && e.0 <= start)
                .map(|e| e.1)
                .sum::<i64>();
        if free < cores as i64 {
            return false;
        }
        // Walk the steps inside the window; the level must never dip.
        let mut steps: Vec<(f64, i64)> = events
            .iter()
            .filter(|e| e.0 > start && e.0 < end)
            .copied()
            .collect();
        steps.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut i = 0;
        while i < steps.len() {
            let t = steps[i].0;
            while i < steps.len() && steps[i].0 == t {
                free += steps[i].1;
                i += 1;
            }
            if free < cores as i64 {
                return false;
            }
        }
        true
    };
    if feasible(now_s) {
        return now_s;
    }
    for t in times {
        if feasible(t) {
            return t;
        }
    }
    // Unreachable for jobs that fit the machine: after the last event
    // everything is free. Guarded by the caller's width check.
    f64::INFINITY
}

/// The availability timeline behind Conservative: every blocked job (up to
/// [`MAX_RESERVATIONS`]) gets a reservation; a job may start now only if
/// the timeline says so — which by construction delays no reservation made
/// for a higher-priority job.
fn conservative_timeline(
    now_s: f64,
    free_cores: u32,
    queue: &[QueuedJob],
    running: &[RunningSlice],
) -> DispatchPlan {
    let mut plan = DispatchPlan::default();
    let machine: u32 = free_cores + running.iter().map(|r| r.cores).sum::<u32>();
    // Step timeline: running jobs release their cores at their believed
    // ends; starts and reservations are appended as we commit them.
    let mut events: Vec<(f64, i64)> = running.iter().map(|r| (r.end_s, r.cores as i64)).collect();
    let mut free_now = free_cores as i64;
    let mut reservations = 0usize;
    let mut blocked_seen = false;
    for (i, q) in queue.iter().enumerate() {
        if q.cores > machine {
            continue; // never runnable; skip like EASY
        }
        let start = earliest_start(now_s, q.cores, q.predicted_s, free_now, &events);
        if start <= now_s {
            plan.starts.push(PlannedStart {
                queue_idx: i,
                backfill: blocked_seen,
            });
            free_now -= q.cores as i64;
            events.push((now_s + q.predicted_s, q.cores as i64));
        } else {
            blocked_seen = true;
            if plan.shadow_s.is_none() {
                plan.shadow_s = Some(start);
            }
            if reservations >= MAX_RESERVATIONS {
                break;
            }
            reservations += 1;
            events.push((start, -(q.cores as i64)));
            events.push((start + q.predicted_s, q.cores as i64));
        }
    }
    plan
}

/// The dispatch order: which of the four queue-to-starts rules a scheduler
/// applies each cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DispatchOrder {
    /// Strict priority order, no backfill: the first job that does not fit
    /// blocks everything behind it.
    Fifo,
    /// EASY backfill: one reservation for the highest-priority blocked
    /// job, candidates in queue order (the repo-wide default; with exact
    /// runtime requests this reproduces the pre-subsystem inline dispatcher
    /// decision-for-decision).
    #[default]
    Easy,
    /// Conservative backfill: a reservation for every blocked job.
    Conservative,
    /// SAF (smallest-area-first): EASY's pivot reservation, candidates in
    /// ascending cores × predicted runtime.
    Saf,
}

impl DispatchOrder {
    /// Every selectable order, for sweeps.
    pub const ALL: [DispatchOrder; 4] = [
        DispatchOrder::Fifo,
        DispatchOrder::Easy,
        DispatchOrder::Conservative,
        DispatchOrder::Saf,
    ];

    /// Short label for tables and snapshot keys.
    pub fn name(self) -> &'static str {
        match self {
            DispatchOrder::Fifo => "fifo",
            DispatchOrder::Easy => "easy",
            DispatchOrder::Conservative => "conservative",
            DispatchOrder::Saf => "saf",
        }
    }

    /// Decide which queued jobs start at `now_s`. `queue` is sorted by
    /// descending priority; `running` lists current jobs with believed
    /// ends. The plan never starts more cores than `free_cores` — it is
    /// applied verbatim.
    pub fn plan(
        self,
        now_s: f64,
        free_cores: u32,
        queue: &[QueuedJob],
        running: &[RunningSlice],
    ) -> DispatchPlan {
        let scan = |candidates| pivot_scan(now_s, free_cores, queue, running, candidates);
        match self {
            DispatchOrder::Fifo => scan(Candidates::Absent),
            DispatchOrder::Easy => scan(Candidates::QueueOrder),
            DispatchOrder::Saf => scan(Candidates::AscendingArea),
            DispatchOrder::Conservative => conservative_timeline(now_s, free_cores, queue, running),
        }
    }
}

/// Full dispatch-layer configuration: order, runtime estimator, and
/// walltime-overrun policy. The default reproduces the pre-subsystem
/// scheduler exactly (EASY over verbatim requests, no kills).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DispatchConfig {
    /// Queue-to-starts order.
    pub order: DispatchOrder,
    /// Runtime estimator feeding backfill decisions.
    pub predictor: crate::predict::PredictorKind,
    /// What happens when a job outlives its walltime request.
    pub mispredict: crate::predict::MispredictPolicy,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(cores: u32, dur: f64) -> QueuedJob {
        QueuedJob {
            cores,
            predicted_s: dur,
        }
    }

    fn r(end: f64, cores: u32) -> RunningSlice {
        RunningSlice { end_s: end, cores }
    }

    #[test]
    fn fifo_stops_at_first_blocked() {
        let plan = DispatchOrder::Fifo.plan(0.0, 4, &[q(2, 10.0), q(8, 10.0), q(1, 10.0)], &[]);
        assert_eq!(plan.starts.len(), 1);
        assert_eq!(plan.starts[0].queue_idx, 0);
        assert!(plan.shadow_s.is_none());
    }

    #[test]
    fn easy_backfills_under_shadow() {
        // 1 core free; 3 cores release at t=100. Pivot needs 4 → shadow 100,
        // spare 0. A 90 s single-core job fits before the shadow; a 200 s
        // one does not.
        let running = [r(100.0, 3)];
        let queue = [q(4, 50.0), q(1, 200.0), q(1, 90.0)];
        let plan = DispatchOrder::Easy.plan(0.0, 1, &queue, &running);
        assert_eq!(plan.shadow_s, Some(100.0));
        assert_eq!(plan.starts.len(), 1);
        assert_eq!(plan.starts[0].queue_idx, 2);
        assert!(plan.starts[0].backfill);
    }

    #[test]
    fn easy_skips_unrunnable_job() {
        // 2-core machine: a 4-core job can never run and must not block.
        let queue = [q(4, 10.0), q(1, 10.0)];
        let plan = DispatchOrder::Easy.plan(0.0, 2, &queue, &[]);
        assert_eq!(plan.starts.len(), 1);
        assert_eq!(plan.starts[0].queue_idx, 1);
        assert!(!plan.starts[0].backfill, "no reservation was placed");
    }

    #[test]
    fn saf_prefers_smallest_area() {
        // Shadow at 100 with spare 0; two candidates both fit the window,
        // but only one can run on the free core at a time this cycle —
        // both fit (1 core free... make free 1 so only one starts).
        let running = [r(100.0, 3)];
        // Candidate at idx 1 has area 80, idx 2 area 20: SAF starts idx 2
        // first; EASY would start idx 1 first.
        let queue = [q(4, 50.0), q(1, 80.0), q(1, 20.0)];
        let saf = DispatchOrder::Saf.plan(0.0, 1, &queue, &running);
        assert_eq!(saf.starts[0].queue_idx, 2);
        let easy = DispatchOrder::Easy.plan(0.0, 1, &queue, &running);
        assert_eq!(easy.starts[0].queue_idx, 1);
    }

    #[test]
    fn conservative_reserves_every_blocked_job() {
        // 2 free cores, 2 release at t=100. Queue: 4-wide (blocked →
        // reserved at 100), 2-wide 200 s (would delay the first
        // reservation → must wait), 2-wide 50 s... also delays: the
        // reservation holds all 4 cores from t=100 for 60 s. A 2-wide 50 s
        // candidate running now on the free cores ends at 50 < 100: fine.
        let running = [r(100.0, 2)];
        let queue = [q(4, 60.0), q(2, 200.0), q(2, 50.0)];
        let plan = DispatchOrder::Conservative.plan(0.0, 2, &queue, &running);
        assert_eq!(plan.shadow_s, Some(100.0));
        let started: Vec<usize> = plan.starts.iter().map(|s| s.queue_idx).collect();
        assert_eq!(started, vec![2]);
        assert!(plan.starts[0].backfill);
    }

    #[test]
    fn conservative_never_delays_earlier_reservation() {
        // Free 1, 3 release at 100. Job0 needs 4 → reserved [100, 160).
        // Job1 (1 core, 150 s) would overlap the reservation (ends 150 >
        // 100) and the reservation needs all 4 cores → job1 must be
        // reserved *after* job0, not started.
        let running = [r(100.0, 3)];
        let queue = [q(4, 60.0), q(1, 150.0)];
        let plan = DispatchOrder::Conservative.plan(0.0, 1, &queue, &running);
        assert!(plan.starts.is_empty());
    }

    #[test]
    fn conservative_matches_easy_on_single_core_saturation() {
        // All 1-core jobs on a saturated 1-core machine: nobody starts
        // under any policy.
        let running = [r(50.0, 1)];
        let queue = [q(1, 10.0), q(1, 10.0)];
        for order in DispatchOrder::ALL {
            let plan = order.plan(0.0, 0, &queue, &running);
            assert!(plan.starts.is_empty(), "{}", order.name());
        }
    }

    #[test]
    fn pick_next_first_fit() {
        let queue = [q(8, 10.0), q(4, 10.0), q(2, 10.0)];
        assert_eq!(pick_next(&queue, 3), Some(2));
        assert_eq!(pick_next(&queue, 1), None);
    }

    #[test]
    fn default_order_is_easy() {
        assert_eq!(DispatchOrder::default(), DispatchOrder::Easy);
        assert_eq!(DispatchConfig::default().order, DispatchOrder::Easy);
    }
}
