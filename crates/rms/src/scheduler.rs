//! The local scheduler: priority queue management, dispatch (see
//! [`crate::dispatch`]), completion handling, and statistics. One type
//! serves both of the paper's integrations — a SLURM-like and a Maui-like
//! RMS differ only in their [`ReprioritizePolicy`]; the dispatch order
//! (FIFO / EASY / Conservative / SAF) and the runtime predictor feeding it
//! come from a [`DispatchConfig`].
//!
//! The pending queue is never priced, sorted or copied job by job. Jobs
//! wait in FIFO *lanes*, one per (user, width): there fairshare, QoS and
//! size are constant and age falls with submit time, so — weights being
//! non-negative, IEEE rounding monotone — `(submit_s, id)` order *is*
//! priority order. A sweep asks the source once per user with pending work;
//! a dispatch merges the lane heads lazily, pricing only what the plan sees
//! (nothing at all on a full machine).

use crate::dispatch::{
    Admission, DispatchConfig, DispatchOrder, EndKeys, QueueWalk, QueuedJob, RunningSlice,
};
use crate::job::{Job, JobState};
use crate::multifactor::{combined_priority, FactorConfig, PriorityWeights};
use crate::nodes::NodePool;
use crate::plugin::FairshareSource;
use crate::predict::{
    believed_end, request_floor, ClassId, PredictionStats, RuntimePredictor, MIN_PREDICTION_S,
};
use aequus_core::ids::SiteId;
use aequus_core::usage::UsageRecord;
use aequus_core::{GridUser, UserId};
use aequus_telemetry::{Counter, Histogram, Telemetry};
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Bounded-slowdown threshold τ, seconds: jobs shorter than this do not
/// inflate the slowdown metric (the standard guard against near-zero
/// runtimes dominating the mean).
pub const SLOWDOWN_TAU_S: f64 = 10.0;

/// Pre-registered scheduler metric handles (no-ops until wired).
#[derive(Debug, Clone, Default)]
struct SchedMetrics {
    submitted: Counter,
    started: Counter,
    completed: Counter,
    backfilled: Counter,
    reprio_passes: Counter,
    h_reprio: Histogram,
    h_dispatch: Histogram,
}

impl SchedMetrics {
    fn wire(t: &Telemetry) -> Self {
        Self {
            submitted: t.counter("aequus_rms_submitted_total"),
            started: t.counter("aequus_rms_started_total"),
            completed: t.counter("aequus_rms_completed_total"),
            backfilled: t.counter("aequus_rms_backfilled_total"),
            reprio_passes: t.counter("aequus_rms_reprio_passes_total"),
            h_reprio: t.histogram("aequus_rms_reprioritize_s"),
            h_dispatch: t.histogram("aequus_rms_dispatch_s"),
        }
    }
}

/// When pending-job priorities are recomputed — stage IV of the §IV-A-2
/// delay chain, and the only behavioural difference between the paper's
/// two integrations (§III-A): both make the same three `libaequus` calls
/// (see [`crate::plugin::FairshareSource`]), SLURM from its priority and
/// job-completion plug-ins, Maui from patched call sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReprioritizePolicy {
    /// SLURM-style: a periodic recalculation interval, seconds
    /// (`PriorityCalcPeriod`). Between passes cached priorities persist.
    Interval(f64),
    /// Maui-style: every scheduling iteration, so only the `libaequus`
    /// cache bounds freshness.
    EveryCycle,
}

/// Aggregated scheduler statistics.
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs started.
    pub started: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs started via backfill (not at the head of the queue).
    pub backfilled: u64,
    /// Jobs killed at their requested walltime
    /// ([`crate::predict::MispredictPolicy::KillAtRequest`]).
    pub killed: u64,
    /// Total queue wait time of started jobs, seconds.
    pub total_wait_s: f64,
    /// Sum of bounded slowdowns `(wait + run) / max(run, τ)` of completed
    /// jobs, with τ = [`SLOWDOWN_TAU_S`].
    pub slowdown_sum: f64,
    /// Per-grid-user completed wall-clock·cores usage.
    pub usage_by_user: BTreeMap<GridUser, f64>,
    /// Runtime-prediction accuracy accounting (mirrors the scheduler's
    /// predictor state after every `advance` that completed a job).
    pub prediction: PredictionStats,
}

impl SchedulerStats {
    /// Mean queue wait of started jobs.
    pub fn mean_wait_s(&self) -> f64 {
        if self.started == 0 {
            0.0
        } else {
            self.total_wait_s / self.started as f64
        }
    }

    /// Mean bounded slowdown of completed jobs (1.0 is ideal).
    pub fn mean_bounded_slowdown(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.slowdown_sum / self.completed as f64
        }
    }
}

/// A lane's key: its jobs' interned grid user (`None` for accounts without
/// a grid identity) and their width.
type LaneKey = (Option<UserId>, u32);

/// One user's pending jobs of one width in `(submit_s, id)` = priority
/// order, with the factor the last sweep fetched and, under a grid
/// identity, their one prediction class. Empty lanes are dropped.
#[derive(Debug, Default)]
struct Lane {
    fairshare: f64,
    class: Option<ClassId>,
    /// The least [`request_floor`] of the lane's jobs: lowered as a job is
    /// sorted in, recomputed when a job holding it is taken.
    least_request: f64,
    jobs: VecDeque<Job>,
}

impl Lane {
    /// The lane at `key` as its fastest job: its width, and a prediction no
    /// job in it falls below — a rule that turns this down turns down every
    /// job in the lane. A mapped lane predicts every job under its one class
    /// estimate, and a prediction never falls as the request rises, so its
    /// least request gives it; the unmapped lane mixes accounts of different
    /// classes and has only the floor.
    fn fastest(&self, key: LaneKey, predictor: &RuntimePredictor) -> QueuedJob {
        let estimate = self.class.and_then(|class| predictor.estimate_of(class));
        let predicted_s = match key.0 {
            Some(_) => RuntimePredictor::predict_within(estimate, self.least_request),
            None => MIN_PREDICTION_S,
        };
        QueuedJob {
            cores: key.1,
            predicted_s,
        }
    }
}

/// A running job with what its start fixed: its start and the prediction
/// it started under — scored at completion; `start_s` + it is its believed
/// end. When its cores come back sits beside it in `SchedulerCore::ends`.
#[derive(Debug)]
struct Running {
    job: Job,
    start_s: f64,
    predicted_s: f64,
}

/// A job submitted since the last sweep, at its submit-time priority.
#[derive(Debug)]
struct FreshEntry {
    job: Job,
    prio: f64,
    user_id: Option<UserId>,
}

/// Where a pending job sits; taking jobs out in descending slot order never
/// moves a job still to be taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Slot {
    Lane(LaneKey, usize),
    Fresh(usize),
}

/// The fairshare factor of a user: the one place the scheduler asks the
/// source. Unmapped users get the neutral factor.
fn fairshare_of(user_id: Option<UserId>, source: &mut dyn FairshareSource, now_s: f64) -> f64 {
    match user_id {
        Some(id) => source.fairshare_factor(id, now_s),
        None => 0.5,
    }
}

/// The local resource manager's scheduler.
#[derive(Debug)]
pub struct SchedulerCore {
    site: SiteId,
    /// The node pool jobs run on.
    pub nodes: NodePool,
    weights: PriorityWeights,
    factors: FactorConfig,
    reprio: ReprioritizePolicy,
    lanes: BTreeMap<LaneKey, Lane>,
    fresh: Vec<FreshEntry>,
    /// Pending jobs that ask for no cores: all a full machine can start.
    zero_core_pending: usize,
    running: Vec<Running>,
    /// When each running job's cores come back (true duration, or the
    /// request if it is killed there), at its index in `running`.
    ends: Vec<f64>,
    /// The believed ends and the keys the last dispatch's shadow walk
    /// selected in, kept so that a dispatch allocates neither.
    believed: Vec<RunningSlice>,
    end_keys: EndKeys,
    last_reprio_s: f64,
    order: DispatchOrder,
    predictor: RuntimePredictor,
    stats: SchedulerStats,
    /// Telemetry handles (no-ops until wired).
    metrics: SchedMetrics,
}

impl SchedulerCore {
    /// Create a scheduler over the given node pool with the default
    /// dispatch configuration (EASY backfill over verbatim requests).
    pub fn new(
        site: SiteId,
        nodes: NodePool,
        weights: PriorityWeights,
        factors: FactorConfig,
        reprio: ReprioritizePolicy,
    ) -> Self {
        Self::with_dispatch(
            site,
            nodes,
            weights,
            factors,
            reprio,
            DispatchConfig::default(),
        )
    }

    /// Create a scheduler with an explicit dispatch configuration. Panics
    /// on a weight that is not finite and non-negative (see
    /// [`PriorityWeights`]).
    pub fn with_dispatch(
        site: SiteId,
        nodes: NodePool,
        weights: PriorityWeights,
        factors: FactorConfig,
        reprio: ReprioritizePolicy,
        dispatch: DispatchConfig,
    ) -> Self {
        let w = weights;
        let named = ["fairshare", "age", "qos", "size"].into_iter();
        for (field, v) in named.zip([w.fairshare, w.age, w.qos, w.size]) {
            let valid = v.is_finite() && v >= 0.0;
            assert!(
                valid,
                "PriorityWeights::{field} must be finite and >= 0, got {v}"
            );
        }
        Self {
            site,
            nodes,
            weights,
            factors,
            reprio,
            lanes: BTreeMap::new(),
            fresh: Vec::new(),
            zero_core_pending: 0,
            running: Vec::new(),
            ends: Vec::new(),
            believed: Vec::new(),
            end_keys: EndKeys::default(),
            last_reprio_s: f64::NEG_INFINITY,
            order: dispatch.order,
            predictor: RuntimePredictor::new(dispatch.predictor, dispatch.mispredict),
            stats: SchedulerStats::default(),
            metrics: SchedMetrics::default(),
        }
    }

    /// Wire the scheduler into a telemetry registry; pass
    /// [`Telemetry::disabled`] to detach.
    pub fn set_telemetry(&mut self, t: &Telemetry) {
        self.metrics = SchedMetrics::wire(t);
        self.predictor.set_telemetry(t);
    }

    /// The site this scheduler manages.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Jobs waiting in the queue: every submitted job, until it starts.
    pub fn pending(&self) -> usize {
        (self.stats.submitted - self.stats.started) as usize
    }

    /// Jobs currently executing.
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// Scheduler statistics.
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// Mean utilization of the node pool over `[0, now_s]`.
    pub fn utilization(&mut self, now_s: f64) -> f64 {
        self.nodes.utilization(now_s)
    }

    /// The multifactor priority of a pending job as evaluated at `eval_s`,
    /// when its user's fairshare factor was `fairshare`.
    fn priority(&self, fairshare: f64, job: &Job, eval_s: f64) -> f64 {
        combined_priority(
            &self.weights,
            fairshare,
            self.factors.age_factor(job, eval_s),
            self.factors.qos_factor(job),
            self.factors.size_factor(job),
        )
    }

    /// Accept a job into the queue, resolving its grid identity through the
    /// fairshare source (the identity step of §III-B). O(1) plus the
    /// source's calls.
    pub fn submit(&mut self, mut job: Job, source: &mut dyn FairshareSource, now_s: f64) {
        if job.grid_user.is_none() {
            job.grid_user = source.resolve_identity(&job.system_user, now_s);
        }
        // Intern the user once at submit; every later priority query for
        // this job's lane is an index load on the source side.
        let user_id = job.grid_user.as_ref().map(|u| source.intern_user(u));
        self.stats.submitted += 1;
        self.metrics.submitted.inc();
        self.zero_core_pending += usize::from(job.cores == 0);
        // New jobs get a priority immediately so they can dispatch this cycle.
        let prio = self.priority(fairshare_of(user_id, source, now_s), &job, now_s);
        self.fresh.push(FreshEntry { job, prio, user_id });
    }

    /// Whether a re-prioritization is due at `now_s`.
    fn reprio_due(&self, now_s: f64) -> bool {
        match self.reprio {
            ReprioritizePolicy::EveryCycle => true,
            ReprioritizePolicy::Interval(dt) => now_s - self.last_reprio_s >= dt,
        }
    }

    /// Advance the scheduler to `now_s`: finish due jobs (reporting their
    /// usage), re-prioritize if due, and dispatch in the configured order.
    ///
    /// Complexity: O(running + lanes) for the completion scan (a column of
    /// ends) and the sweep; the dispatch is O(1) on a full machine — it
    /// returns before anything is built — else O(running + lanes·log lanes +
    /// jobs started), the shadow walk included, plus a compare per job
    /// stepped over in a lane whose bound the rule admits (see
    /// `LaneWalk`). Not O(queue): a full machine costs the same with 10
    /// jobs queued or 10,000, and a compare or a write per further running
    /// job or lane (gated in `backfill_sweep --check`).
    pub fn advance(&mut self, source: &mut dyn FairshareSource, now_s: f64) {
        self.nodes.advance(now_s);
        self.complete_due(source, now_s);
        if self.reprio_due(now_s) {
            let _span = self.metrics.h_reprio.start_timer();
            self.metrics.reprio_passes.inc();
            self.sweep(source, now_s);
        }
        self.dispatch(now_s);
    }

    /// Re-prioritize: fold the jobs submitted since the last sweep into
    /// their lanes, then fetch one fairshare factor per user with pending
    /// work. O(fresh·log lanes + lanes); no job is re-priced — the walk
    /// evaluates a priority from its lane's factor when it reaches the job.
    fn sweep(&mut self, source: &mut dyn FairshareSource, now_s: f64) {
        for FreshEntry { job, user_id, .. } in self.fresh.drain(..) {
            let lane = self.lanes.entry((user_id, job.cores)).or_default();
            let request = request_floor(&job);
            if lane.jobs.is_empty() {
                lane.class = user_id.and_then(|_| self.predictor.intern_class(&job));
                lane.least_request = request;
            }
            lane.least_request = lane.least_request.min(request);
            // In-order submits append; a late one is sorted in from the back.
            let before = |j: &Job| (j.submit_s, j.id) <= (job.submit_s, job.id);
            let at = lane.jobs.iter().rposition(before).map_or(0, |i| i + 1);
            lane.jobs.insert(at, job);
        }
        // A user's lanes are neighbours in key order: one query serves all.
        let mut last: Option<(Option<UserId>, f64)> = None;
        for (&(user_id, _), lane) in &mut self.lanes {
            lane.fairshare = match last {
                Some((prev, fairshare)) if prev == user_id => fairshare,
                _ => fairshare_of(user_id, source, now_s),
            };
            last = Some((user_id, lane.fairshare));
        }
        self.last_reprio_s = now_s;
    }

    fn complete_due(&mut self, source: &mut dyn FairshareSource, now_s: f64) {
        let completed_before = self.stats.completed;
        let mut i = 0;
        while i < self.ends.len() {
            if self.ends[i] > now_s {
                i += 1;
                continue;
            }
            // Both columns swap the same index out: `running`'s order, and
            // so the order completions are reported, is unchanged.
            let end_s = self.ends.swap_remove(i);
            let done = self.running.swap_remove(i);
            let (mut job, start_s) = (done.job, done.start_s);
            job.state = JobState::Completed { start_s, end_s };
            self.nodes.release(job.cores);
            self.stats.completed += 1;
            self.metrics.completed.inc();
            let run_s = end_s - start_s;
            self.stats.slowdown_sum += (job.wait_time(end_s) + run_s) / run_s.max(SLOWDOWN_TAU_S);
            self.predictor.on_complete(&job, done.predicted_s, run_s);
            if let Some(user) = &job.grid_user {
                let used = job.cores as f64 * job.duration_s;
                if let Some(total) = self.stats.usage_by_user.get_mut(user) {
                    *total += used;
                } else {
                    self.stats.usage_by_user.insert(user.clone(), 0.0 + used);
                }
                source.report_usage(
                    UsageRecord {
                        job: job.id,
                        user: user.clone(),
                        site: self.site,
                        cores: job.cores,
                        start_s,
                        end_s,
                    },
                    now_s,
                );
            }
        }
        if self.stats.completed > completed_before {
            self.stats.prediction = self.predictor.stats.clone();
        }
    }

    /// Dispatch pending jobs in priority order through the configured
    /// [`DispatchOrder`]: it walks the queue lazily (see [`LaneWalk`]) with
    /// predicted runtimes, sees the running set with believed ends, and
    /// returns the starts (head or backfill) to apply this cycle. Nothing is
    /// built for an empty queue or a full machine.
    fn dispatch(&mut self, now_s: f64) {
        let _span = self.metrics.h_dispatch.start_timer();
        let free = self.nodes.free_cores();
        // Without a free core only a job that asks for none can start.
        if self.pending() == 0 || (free == 0 && self.zero_core_pending == 0) {
            return;
        }
        let believed = |r: &Running| RunningSlice {
            end_s: believed_end(r.start_s, r.predicted_s, now_s),
            cores: r.job.cores,
        };
        self.believed.clear();
        self.believed.extend(self.running.iter().map(believed));
        let mut keys = std::mem::take(&mut self.end_keys);
        let mut walk = LaneWalk::new(self);
        let plan = self
            .order
            .plan(now_s, free, &mut walk, &self.believed, &mut keys);
        let yielded = walk.yielded;
        self.end_keys = keys;
        // Take the started jobs out back to front, so no slot moves before
        // it is used; then start them in priority (handle) order, not plan
        // order: `running`'s order decides the order same-tick completions
        // are reported to the fairshare source.
        let mut starts = plan.starts;
        starts.sort_unstable_by_key(|s| Reverse(yielded[s.handle]));
        let mut started: Vec<(usize, bool, Job)> = starts
            .iter()
            .filter_map(|s| Some((s.handle, s.backfill, self.take(yielded[s.handle])?)))
            .collect();
        debug_assert_eq!(started.len(), starts.len(), "a slot names a pending job");
        started.sort_unstable_by_key(|s| s.0);
        for (_, backfill, mut job) in started {
            assert!(
                self.nodes.allocate(job.cores),
                "dispatch plan oversubscribed the pool"
            );
            job.state = JobState::Running { start_s: now_s };
            // Keep the prediction this start was made under; enforce the
            // walltime limit if the overrun policy kills.
            let predicted_s = self.predictor.predict(&job);
            let (run_for_s, killed) = self.predictor.on_start(&job);
            if killed {
                self.stats.killed += 1;
                job.duration_s = run_for_s;
            }
            self.stats.started += 1;
            self.metrics.started.inc();
            self.zero_core_pending -= usize::from(job.cores == 0);
            self.stats.total_wait_s += job.wait_time(now_s);
            if backfill {
                self.stats.backfilled += 1;
                self.metrics.backfilled.inc();
            }
            self.running.push(Running {
                job,
                start_s: now_s,
                predicted_s,
            });
            self.ends.push(now_s + run_for_s);
        }
    }

    /// Remove and return the pending job at `slot`.
    fn take(&mut self, slot: Slot) -> Option<Job> {
        match slot {
            Slot::Fresh(i) => Some(self.fresh.remove(i).job),
            Slot::Lane(key, pos) => {
                let lane = self.lanes.get_mut(&key)?;
                let job = lane.jobs.remove(pos)?;
                if lane.jobs.is_empty() {
                    self.lanes.remove(&key);
                } else if request_floor(&job) == lane.least_request {
                    let requests = lane.jobs.iter().map(request_floor);
                    lane.least_request = requests.fold(f64::INFINITY, f64::min);
                }
                Some(job)
            }
        }
    }

    /// How the plan sees the jobs of `lane`: by its class estimate, read here
    /// by id, or — a fresh job (`None`), the unmapped lane — job by job.
    fn view(&self, lane: Option<&Lane>) -> impl Fn(&Job) -> QueuedJob + '_ {
        let estimate = lane.and_then(|l| Some(self.predictor.estimate_of(l.class?)));
        move |job: &Job| QueuedJob {
            cores: job.cores,
            predicted_s: match estimate {
                Some(estimate) => RuntimePredictor::predict_from(estimate, job),
                None => self.predictor.predict(job),
            },
        }
    }

    /// Pending jobs and their priorities — as of the last sweep, or for
    /// fresh jobs their submit — in no particular order (inspection).
    pub fn pending_jobs(&self) -> impl Iterator<Item = (&Job, f64)> {
        let swept = self.lanes.values().flat_map(move |lane| {
            let prio = move |job| self.priority(lane.fairshare, job, self.last_reprio_s);
            lane.jobs.iter().map(move |job| (job, prio(job)))
        });
        swept.chain(self.fresh.iter().map(|e| (&e.job, e.prio)))
    }

    /// Running jobs (inspection/metrics).
    pub fn running_jobs(&self) -> impl ExactSizeIterator<Item = &Job> {
        self.running.iter().map(|r| &r.job)
    }
}

/// The head of one source in the dispatch merge — a lane's next unvisited
/// job (with its lane) or a fresh job — ranked as the queue is: priority
/// descending, then submit time and id ascending.
#[derive(Clone, Copy)]
struct Head<'a> {
    prio: f64,
    job: &'a Job,
    slot: Slot,
    lane: Option<&'a Lane>,
}

impl Ord for Head<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.prio.total_cmp(&other.prio))
            .then(other.job.submit_s.total_cmp(&self.job.submit_s))
            .then(other.job.id.cmp(&self.job.id))
    }
}

impl PartialOrd for Head<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Head<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Head<'_> {}

/// The scheduler's [`QueueWalk`]: a heap merge over the lane heads and the
/// fresh jobs. A job's handle is its rank among the jobs yielded so far (so
/// handles ascend with priority); `yielded` maps handles back to slots.
///
/// The first rule with a reserved pivot prunes the heap once: a lane goes
/// at once when the rule would turn down its fastest job ([`Lane::fastest`]
/// — too wide for the free cores, or too wide for the spare ones and too
/// slow for the shadow), every other steps to its first job the rule admits
/// or goes. Behind a yielded job its lane is judged the same way, and the
/// top is checked again, as a backfill start may have tightened the rule
/// since. Jobs stepped over are never priced, pushed or given a handle (the
/// rule only tightens: they could not have started); a mapped lane's class
/// estimate is read by id.
///
/// Complexity: O(lanes + fresh) to build and to prune; a lane that goes on
/// its bound costs O(1), a yielded job one O(log lanes) heap step and one
/// priority evaluation, and a compare per job stepped over is paid only in
/// a lane whose bound the rule admits (or the unmapped lane).
struct LaneWalk<'a> {
    sched: &'a SchedulerCore,
    heads: BinaryHeap<Head<'a>>,
    yielded: Vec<Slot>,
    pruned: bool,
}

impl<'a> LaneWalk<'a> {
    fn new(sched: &'a SchedulerCore) -> Self {
        let lane_heads = sched
            .lanes
            .iter()
            .map(|(&key, lane)| Self::head(sched, key, lane, 0));
        let fresh = sched.fresh.iter().enumerate().map(|(i, e)| Head {
            prio: e.prio,
            job: &e.job,
            slot: Slot::Fresh(i),
            lane: None,
        });
        Self {
            sched,
            heads: lane_heads.chain(fresh).collect(),
            yielded: Vec::new(),
            pruned: false,
        }
    }

    /// The merge entry of the job at `pos` of a lane.
    fn head(sched: &SchedulerCore, key: LaneKey, lane: &'a Lane, pos: usize) -> Head<'a> {
        let job = &lane.jobs[pos];
        Head {
            prio: sched.priority(lane.fairshare, job, sched.last_reprio_s),
            job,
            slot: Slot::Lane(key, pos),
            lane: Some(lane),
        }
    }

    /// `head`, or with `skip` 1 the job behind it, or else the first job
    /// after that in its lane that `rule` admits (a fresh job is a lane of
    /// one); a lane whose fastest job the rule turns down goes at once.
    fn admitted(
        sched: &SchedulerCore,
        head: Head<'a>,
        skip: usize,
        rule: &Admission,
    ) -> Option<Head<'a>> {
        let (Slot::Lane(key, pos), Some(lane)) = (head.slot, head.lane) else {
            return (skip == 0 && rule.admits(&sched.view(None)(head.job))).then_some(head);
        };
        if !rule.admits(&lane.fastest(key, &sched.predictor)) {
            return None;
        }
        let (view, mut behind) = (sched.view(Some(lane)), lane.jobs.range(pos + skip..));
        let skipped = behind.position(|job| rule.admits(&view(job)))?;
        Some(Self::head(sched, key, lane, pos + skip + skipped))
    }
}

impl QueueWalk for LaneWalk<'_> {
    fn next_admitted(&mut self, rule: &Admission) -> Option<(usize, QueuedJob)> {
        let sched = self.sched;
        if !self.pruned && rule.shadow_t < f64::INFINITY {
            self.pruned = true;
            let heads = std::mem::take(&mut self.heads).into_vec().into_iter();
            self.heads = heads
                .filter_map(|head| Self::admitted(sched, head, 0, rule))
                .collect();
        }
        while let Some(mut top) = self.heads.peek_mut() {
            let q = sched.view(top.lane)(top.job);
            let slot = top.slot;
            match Self::admitted(sched, *top, 1, rule) {
                Some(next) => *top = next,
                None => drop(PeekMut::pop(top)),
            }
            if rule.admits(&q) {
                self.yielded.push(slot);
                return Some((self.yielded.len() - 1, q));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::tests::{record, LocalSite, Scripted};
    use aequus_core::{JobId, SystemUser};

    /// Tests of fairshare ordering run on the local-only baseline; tests of
    /// scheduling alone on the scripted source.
    fn local() -> LocalSite {
        LocalSite::new(&[("a", 0.5), ("b", 0.5)])
    }

    fn core_with(nodes: NodePool, reprio: ReprioritizePolicy) -> SchedulerCore {
        SchedulerCore::new(
            SiteId(0),
            nodes,
            PriorityWeights::fairshare_only(),
            FactorConfig::default(),
            reprio,
        )
    }

    fn core(cores: u32) -> SchedulerCore {
        core_with(NodePool::new(1, cores), ReprioritizePolicy::EveryCycle)
    }

    /// The SLURM-like and the Maui-like cadence.
    const BOTH_POLICIES: [ReprioritizePolicy; 2] = [
        ReprioritizePolicy::Interval(30.0),
        ReprioritizePolicy::EveryCycle,
    ];

    fn job(id: u64, sys: &str, cores: u32, submit: f64, dur: f64) -> Job {
        Job::new(JobId(id), SystemUser::new(sys), cores, submit, dur)
    }

    #[test]
    fn runs_and_completes_jobs() {
        let mut sched = core(2);
        let mut src = Scripted::default();
        sched.submit(job(1, "sysa", 1, 0.0, 100.0), &mut src, 0.0);
        sched.advance(&mut src, 0.0);
        assert_eq!(sched.running(), 1);
        assert_eq!(sched.pending(), 0);
        sched.advance(&mut src, 100.0);
        assert_eq!(sched.running(), 0);
        assert_eq!(sched.stats.completed, 1);
        // Usage was reported to the fairshare source.
        let reported: f64 = src.reports.iter().map(UsageRecord::charge).sum();
        assert_eq!(reported, 100.0);
    }

    #[test]
    fn priority_order_respected() {
        let mut sched = core(1);
        let mut src = local();
        // a over-consumed: b's job must start first despite later submission.
        src.report_usage(record("a", 0.0, 1000.0), 1000.0);
        sched.submit(job(1, "sysa", 1, 1000.0, 50.0), &mut src, 1000.0);
        sched.submit(job(2, "sysb", 1, 1001.0, 50.0), &mut src, 1001.0);
        sched.advance(&mut src, 1002.0);
        assert_eq!(sched.running(), 1);
        let running = sched.running_jobs().next().unwrap();
        assert_eq!(running.id, JobId(2), "b runs first");
    }

    #[test]
    fn backfill_fills_gaps_without_delaying_head() {
        let mut sched = core(4);
        let mut src = local();
        // Occupy 3 cores until t=100.
        sched.submit(job(1, "sysa", 3, 0.0, 100.0), &mut src, 0.0);
        sched.advance(&mut src, 0.0);
        // Head job needs 4 cores → reserve at t=100. Short 1-core job can
        // backfill (ends at 50 < 100); long 1-core job cannot (would end at
        // 150 and eats a reserved core... 1 spare core? free at shadow =
        // 4−4=0 spare, so long job must finish before 100).
        sched.submit(job(2, "sysa", 4, 1.0, 100.0), &mut src, 1.0);
        sched.submit(job(3, "sysb", 1, 2.0, 200.0), &mut src, 2.0); // too long
        sched.submit(job(4, "sysb", 1, 3.0, 40.0), &mut src, 3.0); // fits
        sched.advance(&mut src, 5.0);
        let running_ids: Vec<JobId> = sched.running_jobs().map(|j| j.id).collect();
        assert!(running_ids.contains(&JobId(4)), "short job backfilled");
        assert!(
            !running_ids.contains(&JobId(3)),
            "long job would delay head"
        );
        assert!(!running_ids.contains(&JobId(2)), "head still waiting");
        assert_eq!(sched.stats.backfilled, 1);
        // At t=100 jobs 1 and 4 are done. User b is now under-served, so job
        // 3 outranks job 2, starts on 1 core, and job 2 (4 cores) is
        // reserved behind it.
        sched.advance(&mut src, 100.0);
        let running_ids: Vec<JobId> = sched.running_jobs().map(|j| j.id).collect();
        assert!(running_ids.contains(&JobId(3)));
        assert!(!running_ids.contains(&JobId(2)));
        // Once job 3 finishes at t=300, job 2 finally gets the machine.
        sched.advance(&mut src, 300.0);
        let running_ids: Vec<JobId> = sched.running_jobs().map(|j| j.id).collect();
        assert!(running_ids.contains(&JobId(2)));
    }

    #[test]
    fn workload_runs_to_completion_under_both_policies() {
        for reprio in BOTH_POLICIES {
            let mut sched = core_with(NodePool::new(4, 1), reprio);
            let mut src = Scripted::default();
            for i in 0..10 {
                sched.submit(job(i, "sysa", 1, i as f64, 50.0), &mut src, i as f64);
            }
            let mut t = 0.0;
            while sched.stats().completed < 10 && t < 10_000.0 {
                t += 10.0;
                sched.advance(&mut src, t);
            }
            assert_eq!(sched.stats().completed, 10, "{reprio:?}");
            assert_eq!(sched.stats().submitted, 10, "{reprio:?}");
        }
    }

    #[test]
    fn policies_share_dispatch_semantics() {
        // Same streaming workload, same source: the re-prioritization
        // cadence does not change what gets submitted, started or finished.
        let run = |reprio| {
            let mut sched = core_with(NodePool::new(2, 1), reprio);
            let mut src = Scripted::default();
            for step in 0..50u64 {
                let t = step as f64 * 20.0;
                if step < 10 {
                    sched.submit(job(step, "sysa", 1, t, 30.0), &mut src, t);
                }
                sched.advance(&mut src, t);
            }
            let stats = sched.stats();
            (stats.submitted, stats.started, stats.completed)
        };
        let [interval, every_cycle] = BOTH_POLICIES.map(run);
        assert_eq!(interval, (10, 10, 10));
        assert_eq!(every_cycle, interval);
    }

    #[test]
    fn every_cycle_reprioritization_sees_new_usage_immediately() {
        // Zero capacity keeps the job pending.
        let mut sched = core(0);
        let mut src = local();
        sched.submit(job(1, "sysa", 1, 0.0, 10.0), &mut src, 0.0);
        sched.advance(&mut src, 0.0);
        let p0 = sched.pending_jobs().next().unwrap().1;
        // Fresh usage for a shows up on the *next* iteration, no interval.
        src.report_usage(record("a", 0.0, 400.0), 1.0);
        sched.advance(&mut src, 2.0);
        let p1 = sched.pending_jobs().next().unwrap().1;
        assert!(p1 < p0, "no stage-IV delay: {p1} !< {p0}");
    }

    #[test]
    fn interval_reprioritization_caches_priorities() {
        // No capacity: jobs stay pending.
        let mut sched = core_with(NodePool::new(1, 0), ReprioritizePolicy::Interval(60.0));
        let mut src = local();
        sched.submit(job(1, "sysa", 1, 0.0, 10.0), &mut src, 0.0);
        sched.advance(&mut src, 0.0);
        let p0 = sched.pending_jobs().next().unwrap().1;
        // New usage for a arrives, but within the interval the cached
        // priority persists.
        src.report_usage(record("a", 0.0, 500.0), 10.0);
        sched.advance(&mut src, 30.0);
        let p1 = sched.pending_jobs().next().unwrap().1;
        assert_eq!(p0, p1, "stage-IV delay: stale priority inside interval");
        sched.advance(&mut src, 60.0);
        let p2 = sched.pending_jobs().next().unwrap().1;
        assert!(p2 < p1, "re-prioritized after interval");
    }

    #[test]
    fn unmapped_user_gets_neutral_priority() {
        let mut sched = core(0);
        let mut src = Scripted::default();
        sched.submit(job(1, "unknown-sys", 1, 0.0, 10.0), &mut src, 0.0);
        sched.advance(&mut src, 0.0);
        let (j, p) = sched.pending_jobs().next().unwrap();
        assert!(j.grid_user.is_none());
        assert_eq!(p, 0.5);
    }

    #[test]
    fn the_walk_checks_its_top_again_when_the_rule_tightens() {
        // Behind an 8-wide pivot, a's and b's one-core lanes at equal
        // factors: ids 2, 3 and 5 run 500 s, id 4 runs 5 s. Under the
        // pivot's rule (a spare core) the walk keeps 2 and 3 at the lane
        // heads; once a backfill start takes the spare core, 3 — still at
        // the top — must be turned down, and 4 behind 2 yielded.
        let mut sched = core(0);
        let mut src = Scripted::default();
        sched.submit(job(1, "sysa", 8, 0.0, 10.0), &mut src, 0.0);
        for (id, sys, dur) in [(2, "sysa", 500.0), (3, "sysb", 500.0), (4, "sysa", 5.0)] {
            sched.submit(job(id, sys, 1, 1.0, dur), &mut src, 1.0);
        }
        sched.submit(job(5, "sysb", 1, 1.0, 500.0), &mut src, 1.0);
        sched.advance(&mut src, 2.0);
        let mut walk = LaneWalk::new(&sched);
        let loose = Admission {
            free: 4,
            spare: 1,
            now_s: 2.0,
            shadow_t: 100.0,
        };
        let tight = Admission { spare: 0, ..loose };
        let rules = [Admission::within(u32::MAX), loose, tight, tight];
        let yielded: Vec<Option<QueuedJob>> = rules
            .iter()
            .map(|rule| {
                let q = walk.next_admitted(rule).map(|(_, q)| q);
                assert!(q.is_none_or(|q| rule.admits(&q)), "{q:?} under {rule:?}");
                q
            })
            .collect();
        let id = |slot: &Slot| match *slot {
            Slot::Lane(key, pos) => sched.lanes[&key].jobs[pos].id.0,
            Slot::Fresh(i) => sched.fresh[i].job.id.0,
        };
        assert_eq!(walk.yielded.iter().map(id).collect::<Vec<_>>(), [1, 2, 4]);
        assert!(yielded[3].is_none());
    }

    #[test]
    fn a_lane_keeps_its_least_request() {
        // No core: every job stays in its lane. `a`'s one-core lane asks
        // 40, 20, 20 s; two late submits are sorted in ahead of them — one
        // asking 30, one 10 — and then the 10, one 20, the other 20 are
        // taken: the last forces a recompute to 30.
        let mut sched = core(0);
        let mut src = Scripted::default();
        let least_of = |sched: &SchedulerCore| {
            let (&key, lane) = sched.lanes.iter().next().expect("one lane");
            let least = lane
                .jobs
                .iter()
                .map(request_floor)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(lane.least_request.to_bits(), least.to_bits(), "{lane:?}");
            (key, lane.least_request)
        };
        let asking =
            |id, submit_s, request_s| job(id, "sysa", 1, submit_s, 5.0).with_request(request_s);
        for (id, request_s) in [(1, 40.0), (2, 20.0), (3, 20.0)] {
            sched.submit(asking(id, 10.0 + id as f64, request_s), &mut src, 20.0);
        }
        sched.advance(&mut src, 20.0);
        assert_eq!(least_of(&sched).1, 20.0);
        sched.submit(asking(4, 5.0, 30.0), &mut src, 30.0);
        sched.submit(asking(5, 6.0, 10.0), &mut src, 30.0);
        sched.advance(&mut src, 30.0);
        assert_eq!(least_of(&sched).1, 10.0);
        for (id, least) in [(5, 20.0), (2, 20.0), (3, 30.0)] {
            let key = least_of(&sched).0;
            let pos = sched.lanes[&key]
                .jobs
                .iter()
                .position(|j| j.id == JobId(id));
            let taken = sched.take(Slot::Lane(key, pos.expect("pending")));
            assert_eq!(taken.map(|j| j.id), Some(JobId(id)));
            assert_eq!(least_of(&sched).1, least, "after taking {id}");
        }
    }

    fn core_weighted(weights: PriorityWeights) -> SchedulerCore {
        let nodes = NodePool::new(1, 1);
        let reprio = ReprioritizePolicy::EveryCycle;
        SchedulerCore::new(SiteId(0), nodes, weights, FactorConfig::default(), reprio)
    }

    #[test]
    #[should_panic(expected = "PriorityWeights::qos must be finite and >= 0")]
    fn nan_weight_is_refused_at_construction() {
        core_weighted(PriorityWeights {
            qos: f64::NAN,
            ..PriorityWeights::mixed()
        });
    }

    #[test]
    #[should_panic(expected = "PriorityWeights::age must be finite and >= 0")]
    fn negative_weight_is_refused_at_construction() {
        core_weighted(PriorityWeights {
            age: -0.1,
            ..PriorityWeights::mixed()
        });
    }

    #[test]
    fn mean_wait_accounting() {
        let mut sched = core(1);
        let mut src = Scripted::default();
        sched.submit(job(1, "sysa", 1, 0.0, 100.0), &mut src, 0.0);
        sched.submit(job(2, "sysb", 1, 0.0, 10.0), &mut src, 0.0);
        sched.advance(&mut src, 0.0); // job 1 (or 2) starts, other waits
        sched.advance(&mut src, 100.0);
        sched.advance(&mut src, 200.0);
        assert_eq!(sched.stats.completed, 2);
        assert!(sched.stats.mean_wait_s() > 0.0);
    }
}
