//! Dispatch orders: the decision layer that turns a priority-ordered queue
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
//! Neither routine sees the queue as a slice: [`DispatchOrder::plan`] pulls
//! it through a [`QueueWalk`], handing it the [`Admission`] rule it will
//! apply to what comes back, so a cycle costs the jobs the plan could start,
//! not the jobs queued. It returns
//! a [`DispatchPlan`] that [`crate::scheduler::SchedulerCore`] applies;
//! over a [`SliceWalk`] it is trivially property-testable and
//! microbenchmarkable (see `backfill_sweep`).

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
    /// The handle the [`QueueWalk`] yielded the job under.
    pub handle: usize,
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

/// What a plan will accept of the jobs a [`QueueWalk`] yields next: the one
/// place the backfill admission rule is written. A plan only ever tightens
/// it within a cycle — `free` and `spare` shrink, `shadow_t - now_s` is
/// fixed — so a job it turns down stays turned down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Admission {
    /// Cores still free this cycle.
    pub free: u32,
    /// Cores spare beyond the pivot's reservation at its shadow time.
    pub spare: u32,
    /// The cycle's time, seconds.
    pub now_s: f64,
    /// The pivot's shadow time, seconds.
    pub shadow_t: f64,
}

impl Admission {
    /// The rule admitting every job no wider than `max_cores` (`u32::MAX`: the head phase).
    pub fn within(max_cores: u32) -> Self {
        Self {
            free: max_cores,
            spare: max_cores,
            now_s: 0.0,
            shadow_t: f64::INFINITY,
        }
    }

    /// Whether a job of this width can be admitted at any runtime.
    pub fn fits(&self, cores: u32) -> bool {
        cores <= self.free
    }

    /// Whether `q` may start now: it fits the free cores, and either ends
    /// by the shadow time or fits the cores spare there.
    pub fn admits(&self, q: &QueuedJob) -> bool {
        self.fits(q.cores) && (self.now_s + q.predicted_s <= self.shadow_t || q.cores <= self.spare)
    }
}

/// The pending queue as a dispatch order consumes it: lazily, in priority
/// order, and only the jobs it could still start.
pub trait QueueWalk {
    /// The next unvisited job in priority order that `rule` admits, under a
    /// handle to name it by in the plan. Handles ascend with priority order.
    /// Jobs the rule turns down on the way are passed over for good: no
    /// later call returns them, whatever it asks for — so callers only ever
    /// tighten the rule.
    fn next_admitted(&mut self, rule: &Admission) -> Option<(usize, QueuedJob)>;
}

/// A [`QueueWalk`] over a priority-sorted slice; handles are indices.
/// `next_admitted` is O(jobs passed over); sub-microsecond on a mixed
/// 10k-deep queue (gated in `backfill_sweep --check`).
pub struct SliceWalk<'a>(std::iter::Enumerate<std::slice::Iter<'a, QueuedJob>>);

impl<'a> SliceWalk<'a> {
    /// Walk `queue`, which is sorted by descending priority.
    pub fn new(queue: &'a [QueuedJob]) -> Self {
        Self(queue.iter().enumerate())
    }
}

impl QueueWalk for SliceWalk<'_> {
    fn next_admitted(&mut self, rule: &Admission) -> Option<(usize, QueuedJob)> {
        let fit = self.0.find(|(_, q)| rule.admits(q))?;
        Some((fit.0, *fit.1))
    }
}

/// Earliest time `cores` become available given current `free` cores and
/// running jobs' believed ends, plus the cores spare beyond the
/// reservation at that time. `None` when the job exceeds the machine.
fn shadow_of(cores: u32, free: u32, running: &[RunningSlice]) -> Option<(f64, u32)> {
    let mut ends: Vec<(f64, u32)> = running.iter().map(|r| (r.end_s, r.cores)).collect();
    ends.sort_by(|a, b| a.0.total_cmp(&b.0));
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
/// fit, reservable or not.
///
/// Complexity: the head phase walks up to the pivot; the candidate pass
/// hands the walk its [`Admission`] rule and gets back only jobs it can
/// start (the rule only tightens, so a job turned down never could):
/// O(head starts + backfill starts) walk yields — stepping over the rest is
/// the walk's, a compare per job — plus one O(running·log running) shadow
/// walk. The `QueueOrder` pass allocates nothing per job; `AscendingArea`
/// collects and sorts the candidates the rule admits at the pivot.
fn pivot_scan(
    now_s: f64,
    free_cores: u32,
    queue: &mut dyn QueueWalk,
    running: &[RunningSlice],
    candidates: Candidates,
) -> DispatchPlan {
    let mut plan = DispatchPlan::default();
    let mut free = free_cores;
    let mut reserved: Option<(f64, u32)> = None;
    while let Some((handle, q)) = queue.next_admitted(&Admission::within(u32::MAX)) {
        if q.cores <= free {
            free -= q.cores;
            plan.starts.push(PlannedStart {
                handle,
                backfill: false,
            });
        } else if candidates == Candidates::Absent {
            return plan;
        } else if let Some(reservation) = shadow_of(q.cores, free, running) {
            plan.shadow_s = Some(reservation.0);
            reserved = Some(reservation);
            break;
        }
    }
    let Some((shadow_t, spare)) = reserved else {
        return plan;
    };
    let mut rule = Admission {
        free,
        spare,
        now_s,
        shadow_t,
    };
    let mut by_area = Vec::new();
    if candidates == Candidates::AscendingArea {
        by_area.extend(std::iter::from_fn(|| queue.next_admitted(&rule)));
        // Stable: equal areas stay in handle (priority) order.
        let area = |c: &(usize, QueuedJob)| c.1.cores as f64 * c.1.predicted_s;
        by_area.sort_by(|a, b| area(a).total_cmp(&area(b)));
    }
    let mut by_area = by_area.into_iter();
    loop {
        let candidate = match candidates {
            Candidates::AscendingArea => by_area.next(),
            _ => queue.next_admitted(&rule),
        };
        let Some((handle, q)) = candidate else {
            return plan;
        };
        if rule.admits(&q) {
            rule.free -= q.cores;
            plan.starts.push(PlannedStart {
                handle,
                backfill: true,
            });
            if now_s + q.predicted_s > shadow_t {
                rule.spare -= q.cores;
            }
        }
    }
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
    times.sort_by(f64::total_cmp);
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
        steps.sort_by(|a, b| a.0.total_cmp(&b.0));
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
/// for a higher-priority job. Jobs wider than the machine are never
/// runnable and are passed over, as the pivot scan skips them.
fn conservative_timeline(
    now_s: f64,
    free_cores: u32,
    queue: &mut dyn QueueWalk,
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
    while let Some((handle, q)) = queue.next_admitted(&Admission::within(machine)) {
        let start = earliest_start(now_s, q.cores, q.predicted_s, free_now, &events);
        if start <= now_s {
            plan.starts.push(PlannedStart {
                handle,
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

    /// Decide which queued jobs start at `now_s`. `queue` yields pending
    /// jobs by descending priority; `running` lists current jobs with
    /// believed ends. The plan never starts more cores than `free_cores`;
    /// its starts are in decision order — not always priority order (SAF).
    pub fn plan(
        self,
        now_s: f64,
        free_cores: u32,
        queue: &mut dyn QueueWalk,
        running: &[RunningSlice],
    ) -> DispatchPlan {
        let candidates = match self {
            DispatchOrder::Fifo => Candidates::Absent,
            DispatchOrder::Easy => Candidates::QueueOrder,
            DispatchOrder::Saf => Candidates::AscendingArea,
            DispatchOrder::Conservative => {
                return conservative_timeline(now_s, free_cores, queue, running)
            }
        };
        pivot_scan(now_s, free_cores, queue, running, candidates)
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

    /// Plan over a priority-sorted slice at t = 0.
    fn plan(
        order: DispatchOrder,
        free: u32,
        queue: &[QueuedJob],
        running: &[RunningSlice],
    ) -> DispatchPlan {
        order.plan(0.0, free, &mut SliceWalk::new(queue), running)
    }

    #[test]
    fn fifo_stops_at_first_blocked() {
        let plan = plan(
            DispatchOrder::Fifo,
            4,
            &[q(2, 10.0), q(8, 10.0), q(1, 10.0)],
            &[],
        );
        assert_eq!(plan.starts.len(), 1);
        assert_eq!(plan.starts[0].handle, 0);
        assert!(plan.shadow_s.is_none());
    }

    #[test]
    fn easy_backfills_under_shadow() {
        // 1 core free; 3 cores release at t=100. Pivot needs 4 → shadow 100,
        // spare 0. A 90 s single-core job fits before the shadow; a 200 s
        // one does not.
        let running = [r(100.0, 3)];
        let queue = [q(4, 50.0), q(1, 200.0), q(1, 90.0)];
        let plan = plan(DispatchOrder::Easy, 1, &queue, &running);
        assert_eq!(plan.shadow_s, Some(100.0));
        assert_eq!(plan.starts.len(), 1);
        assert_eq!(plan.starts[0].handle, 2);
        assert!(plan.starts[0].backfill);
    }

    #[test]
    fn easy_skips_unrunnable_job() {
        // 2-core machine: a 4-core job can never run and must not block.
        let queue = [q(4, 10.0), q(1, 10.0)];
        let plan = plan(DispatchOrder::Easy, 2, &queue, &[]);
        assert_eq!(plan.starts.len(), 1);
        assert_eq!(plan.starts[0].handle, 1);
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
        let saf = plan(DispatchOrder::Saf, 1, &queue, &running);
        assert_eq!(saf.starts[0].handle, 2);
        let easy = plan(DispatchOrder::Easy, 1, &queue, &running);
        assert_eq!(easy.starts[0].handle, 1);
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
        let plan = plan(DispatchOrder::Conservative, 2, &queue, &running);
        assert_eq!(plan.shadow_s, Some(100.0));
        let started: Vec<usize> = plan.starts.iter().map(|s| s.handle).collect();
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
        let plan = plan(DispatchOrder::Conservative, 1, &queue, &running);
        assert!(plan.starts.is_empty());
    }

    #[test]
    fn conservative_matches_easy_on_single_core_saturation() {
        // All 1-core jobs on a saturated 1-core machine: nobody starts
        // under any policy.
        let running = [r(50.0, 1)];
        let queue = [q(1, 10.0), q(1, 10.0)];
        for order in DispatchOrder::ALL {
            let plan = plan(order, 0, &queue, &running);
            assert!(plan.starts.is_empty(), "{}", order.name());
        }
    }

    #[test]
    fn next_admitted_first_fit() {
        let queue = [q(8, 10.0), q(4, 10.0), q(2, 10.0)];
        let within = |max| SliceWalk::new(&queue).next_admitted(&Admission::within(max));
        assert_eq!(within(3), Some((2, queue[2])));
        assert_eq!(within(1), None);
    }

    #[test]
    fn next_admitted_passes_turned_down_jobs_over_for_good() {
        let queue = [q(8, 10.0), q(1, 10.0), q(4, 10.0), q(0, 10.0)];
        let mut walk = SliceWalk::new(&queue);
        let mut within = |max| walk.next_admitted(&Admission::within(max));
        assert_eq!(within(2), Some((1, queue[1])));
        // The 8-wide job was passed over; asking for more later skips it.
        assert_eq!(within(u32::MAX), Some((2, queue[2])));
        assert_eq!(within(0), Some((3, queue[3])));
        assert_eq!(within(u32::MAX), None);
    }

    #[test]
    fn next_admitted_applies_the_whole_rule() {
        // 2 free, 1 spare at a shadow 100 s away: the 200 s two-core job
        // overruns into reserved cores, the 200 s one-core job fits the
        // spare core, the 90 s two-core job ends in time.
        let rule = Admission {
            free: 2,
            spare: 1,
            now_s: 50.0,
            shadow_t: 150.0,
        };
        let queue = [
            q(4, 10.0),
            q(2, 200.0),
            q(1, 200.0),
            q(2, 90.0),
            q(2, 100.5),
        ];
        let mut walk = SliceWalk::new(&queue);
        assert_eq!(walk.next_admitted(&rule), Some((2, queue[2])));
        assert_eq!(walk.next_admitted(&rule), Some((3, queue[3])));
        assert_eq!(walk.next_admitted(&rule), None);
    }

    #[test]
    fn a_job_ending_exactly_at_the_shadow_backfills() {
        // The rule adds before it compares: 0.2 + 0.5 == 0.7 in floats,
        // while 0.7 - 0.2 < 0.5 — `predicted <= shadow - now` would turn
        // this job down.
        let (running, queue) = ([r(0.7, 3)], [q(4, 50.0), q(1, 0.5)]);
        let plan = DispatchOrder::Easy.plan(0.2, 1, &mut SliceWalk::new(&queue), &running);
        assert_eq!(plan.shadow_s, Some(0.7));
        let backfill = PlannedStart {
            handle: 1,
            backfill: true,
        };
        assert_eq!(plan.starts, [backfill]);
    }

    #[test]
    fn the_admission_rule_is_monotone() {
        // Shrinking free or spare never admits a job the rule turned down:
        // what a walk steps over under one rule it may drop for the cycle.
        let (now_s, shadow_t) = (40.0, 140.0);
        let jobs: Vec<QueuedJob> = (0..6)
            .flat_map(|cores| [0.0, 99.9, 100.0, 100.1, 500.0].map(|s| q(cores, s)))
            .collect();
        let rule = |free, spare| Admission {
            free,
            spare,
            now_s,
            shadow_t,
        };
        for (free, spare) in (0..6).flat_map(|f| (0..6).map(move |s| (f, s))) {
            for job in &jobs {
                if rule(free, spare).admits(job) {
                    continue;
                }
                for (f, s) in (0..=free).flat_map(|f| (0..=spare).map(move |s| (f, s))) {
                    assert!(
                        !rule(f, s).admits(job),
                        "{job:?} at {free}/{spare} vs {f}/{s}"
                    );
                }
            }
        }
        // The head phase's rule admits everything.
        assert!(jobs.iter().all(|j| Admission::within(u32::MAX).admits(j)));
    }

    #[test]
    fn default_order_is_easy() {
        assert_eq!(DispatchOrder::default(), DispatchOrder::Easy);
        assert_eq!(DispatchConfig::default().order, DispatchOrder::Easy);
    }
}
