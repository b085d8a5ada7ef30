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
//! priority order. The lanes stay in the order of their heads' ranks from
//! cycle to cycle: a lane is re-keyed only when its head changes or its
//! user's factor changes bits (every lane, at every sweep, only under an
//! age weight). A sweep asks the source once per user with pending work; a
//! dispatch reads the lane order with a cursor, pricing only the jobs it
//! reaches behind a head (nothing at all on a full machine).

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
use aequus_core::{GridUser, JobId, UserId};
use aequus_telemetry::{Histogram, Snapshot, Telemetry};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Bounded-slowdown threshold τ, seconds: jobs shorter than this do not
/// inflate the slowdown metric (the standard guard against near-zero
/// runtimes dominating the mean).
pub const SLOWDOWN_TAU_S: f64 = 10.0;

/// Pre-registered scheduler wall timers (no-ops until wired).
#[derive(Debug, Clone, Default)]
struct SchedMetrics {
    h_reprio: Histogram,
    h_dispatch: Histogram,
}

impl SchedMetrics {
    fn wire(t: &Telemetry) -> Self {
        Self {
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
    /// Priorities evaluated for lane jobs: a lane re-keyed under a new head,
    /// a factor that changed bits or, under an age weight, a new sweep
    /// instant; and each job a dispatch's walk reaches behind a lane's head.
    /// A steady cycle prices none.
    pub lanes_priced: u64,
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

/// A pending job's place in the queue: priority descending, then submit
/// time and id ascending. The greater rank goes first.
#[derive(Debug, Clone, Copy)]
struct Rank {
    prio: f64,
    submit_s: f64,
    id: JobId,
}

impl Rank {
    fn of(prio: f64, job: &Job) -> Self {
        Self {
            prio,
            submit_s: job.submit_s,
            id: job.id,
        }
    }
}

impl Ord for Rank {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.prio.total_cmp(&other.prio))
            .then(other.submit_s.total_cmp(&self.submit_s))
            .then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Rank {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Rank {}

/// One user's pending jobs of one width in `(submit_s, id)` = priority
/// order, with the rank of the head and, under a grid identity, their one
/// prediction class. An emptied lane is vacated: its slot waits in
/// `SchedulerCore::vacant` for the next new lane.
#[derive(Debug)]
struct Lane {
    key: LaneKey,
    /// The head's rank, priced when the lane was last re-keyed. It stays
    /// exact until the head changes or the user's factor changes bits: with
    /// a zero age weight the age term adds ±0 at any instant.
    rank: Rank,
    /// Whether the lane waits in `SchedulerCore::stale` to be re-keyed.
    stale: bool,
    class: Option<ClassId>,
    /// The least [`request_floor`] of the lane's jobs: lowered as a job is
    /// sorted in, recomputed when a job holding it is taken.
    least_request: f64,
    jobs: VecDeque<Job>,
}

impl Lane {
    /// The lane as its fastest job: its width, and a prediction no job in
    /// it falls below — a rule that turns this down turns down every job in
    /// the lane. A mapped lane predicts every job under its one class
    /// estimate, and a prediction never falls as the request rises, so its
    /// least request gives it; the unmapped lane mixes accounts of different
    /// classes and has only the floor.
    fn fastest(&self, predictor: &RuntimePredictor) -> QueuedJob {
        let estimate = self.class.and_then(|class| predictor.estimate_of(class));
        let predicted_s = match self.key.0 {
            Some(_) => RuntimePredictor::predict_within(estimate, self.least_request),
            None => MIN_PREDICTION_S,
        };
        QueuedJob {
            cores: self.key.1,
            predicted_s,
        }
    }
}

/// How a pending job is priced besides its user's factor.
#[derive(Debug)]
struct Pricing {
    weights: PriorityWeights,
    factors: FactorConfig,
}

impl Pricing {
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

    /// The rank of a pending job, priced as `priority` prices it.
    fn rank(&self, fairshare: f64, job: &Job, eval_s: f64) -> Rank {
        Rank::of(self.priority(fairshare, job, eval_s), job)
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

/// Where a pending job sits — a lane's slot and a position in it, or a
/// fresh job; taking jobs out in descending slot order never moves a job
/// still to be taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Slot {
    Lane(usize, usize),
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
    pricing: Pricing,
    reprio: ReprioritizePolicy,
    /// Each user with pending work and the factor the last sweep fetched
    /// for them (NaN until the first does): the order a sweep asks in.
    users: BTreeMap<Option<UserId>, f64>,
    /// Every lane's slot, live or vacant.
    lanes: Vec<Lane>,
    /// The live lanes' slots by key.
    by_key: BTreeMap<LaneKey, usize>,
    vacant: Vec<usize>,
    /// The lanes the sweep re-keys, each once: new, a job folded in front
    /// of the head, or the user's factor moved. Empty between sweeps.
    stale: Vec<usize>,
    /// The live lanes by their heads' ranks, first to go first: the queue
    /// order a dispatch reads.
    ranked: Vec<Ranked>,
    /// The walk's buffers, kept so that a dispatch allocates neither.
    walk: WalkBuffers,
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
    /// [`PriorityWeights`]) and on factor parameters that can yield NaN (see
    /// [`FactorConfig`]).
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
        let max_age_s = factors.max_age_s;
        assert!(
            max_age_s.is_finite() && max_age_s > 0.0,
            "FactorConfig::max_age_s must be finite and > 0, got {max_age_s}"
        );
        assert!(factors.max_cores > 0, "FactorConfig::max_cores must be > 0");
        for (user, level) in &factors.qos_levels {
            assert!(
                (0.0..=1.0).contains(level),
                "FactorConfig::qos_levels[{user:?}] must be finite in [0, 1], got {level}"
            );
        }
        Self {
            site,
            nodes,
            pricing: Pricing { weights, factors },
            reprio,
            users: BTreeMap::new(),
            lanes: Vec::new(),
            by_key: BTreeMap::new(),
            vacant: Vec::new(),
            stale: Vec::new(),
            ranked: Vec::new(),
            walk: WalkBuffers::default(),
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

    /// Write the job counts and the predictor's scoring counts into `snap`
    /// (the predictor's own, which a kill moves before the job completes).
    pub fn counts_into(&self, snap: &mut Snapshot) {
        let (jobs, predicted) = (&self.stats, &self.predictor.stats);
        snap.add_counts([
            ("aequus_rms_submitted_total", jobs.submitted),
            ("aequus_rms_started_total", jobs.started),
            ("aequus_rms_completed_total", jobs.completed),
            ("aequus_rms_backfilled_total", jobs.backfilled),
            ("aequus_rms_predictions_total", predicted.scored),
            ("aequus_rms_underestimates_total", predicted.underestimates),
            ("aequus_rms_predict_kills_total", predicted.kills),
        ]);
    }

    /// Mean utilization of the node pool over `[0, now_s]`.
    pub fn utilization(&mut self, now_s: f64) -> f64 {
        self.nodes.utilization(now_s)
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
        self.zero_core_pending += usize::from(job.cores == 0);
        // New jobs get a priority immediately so they can dispatch this cycle.
        let fairshare = fairshare_of(user_id, source, now_s);
        let prio = self.pricing.priority(fairshare, &job, now_s);
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
    /// Complexity: O(running) for the completion scan (a column of ends)
    /// and O(users) for the sweep, plus the lanes whose key moved (see
    /// `sweep`). The dispatch is O(1) on a full machine — it
    /// returns before anything is built — else O(running + jobs started),
    /// the shadow walk included, plus what the walk reaches (see
    /// `LaneWalk`): a lane the rule turns down whole is a compare, a lane
    /// advanced past its head one O(log advanced) heap step and one priority
    /// evaluation; taking a lane's head re-keys the lane. Not O(queue): a
    /// full machine costs the same with 10 jobs queued or 10,000, and a
    /// compare per further running job or a read per further user (gated in
    /// `backfill_sweep --check`, as is a steady backfill cycle pricing no
    /// lane).
    pub fn advance(&mut self, source: &mut dyn FairshareSource, now_s: f64) {
        self.nodes.advance(now_s);
        self.complete_due(source, now_s);
        if self.reprio_due(now_s) {
            let _span = self.metrics.h_reprio.start_timer();
            self.sweep(source, now_s);
        }
        self.dispatch(now_s);
    }

    /// Re-prioritize: fold the jobs submitted since the last sweep into
    /// their lanes, fetch one fairshare factor per user with pending work,
    /// and re-key the lanes whose key moved — a lane whose head changed, or
    /// whose user's factor changed bits; every lane only under an age
    /// weight, where the age term moves with the sweep's instant.
    /// O(fresh·log lanes + users), plus O(lanes) to move each re-keyed lane
    /// in the lane order, or O(lanes·log lanes) to sort it under an age
    /// weight.
    fn sweep(&mut self, source: &mut dyn FairshareSource, now_s: f64) {
        let mut fresh = std::mem::take(&mut self.fresh);
        for FreshEntry { job, user_id, .. } in fresh.drain(..) {
            let i = self.lane_for((user_id, job.cores), &job);
            let lane = &mut self.lanes[i];
            lane.least_request = lane.least_request.min(request_floor(&job));
            // In-order submits append; a late one is sorted in from the back.
            let before = |j: &Job| (j.submit_s, j.id) <= (job.submit_s, job.id);
            let at = lane.jobs.iter().rposition(before).map_or(0, |i| i + 1);
            lane.jobs.insert(at, job);
            if at == 0 && !std::mem::replace(&mut lane.stale, true) {
                self.stale.push(i);
            }
        }
        self.fresh = fresh;
        let age_moves = self.pricing.weights.age > 0.0;
        for (&user_id, factor) in &mut self.users {
            let fairshare = fairshare_of(user_id, source, now_s);
            if fairshare.to_bits() == factor.to_bits() && !age_moves {
                continue;
            }
            *factor = fairshare;
            for (_, &i) in self.by_key.range((user_id, 0)..=(user_id, u32::MAX)) {
                if !std::mem::replace(&mut self.lanes[i].stale, true) {
                    self.stale.push(i);
                }
            }
        }
        self.last_reprio_s = now_s;
        let mut stale = std::mem::take(&mut self.stale);
        self.stats.lanes_priced += stale.len() as u64;
        for i in stale.drain(..) {
            let lane = &mut self.lanes[i];
            lane.stale = false;
            let rank = self
                .pricing
                .rank(self.users[&lane.key.0], &lane.jobs[0], now_s);
            if age_moves {
                lane.rank = rank;
            } else {
                refile(&mut self.ranked, &mut self.lanes, i, Some(rank));
            }
        }
        self.stale = stale;
        if age_moves {
            let (lanes, live) = (&self.lanes, self.by_key.iter());
            self.ranked.clear();
            self.ranked
                .extend(live.map(|(&(_, cores), &lane)| Ranked { lane, cores }));
            (self.ranked).sort_by(|a, b| lanes[b.lane].rank.cmp(&lanes[a.lane].rank));
        }
    }

    /// The slot of the live lane at `key`; a new lane takes a vacant slot, or
    /// a new one, and waits in `stale` to join the lane order.
    fn lane_for(&mut self, key: LaneKey, job: &Job) -> usize {
        if let Some(&i) = self.by_key.get(&key) {
            return i;
        }
        self.users.entry(key.0).or_insert(f64::NAN);
        let lane = Lane {
            key,
            rank: Rank::of(f64::NAN, job),
            stale: true,
            class: key.0.and_then(|_| self.predictor.intern_class(job)),
            least_request: f64::INFINITY,
            jobs: VecDeque::new(),
        };
        let i = match self.vacant.pop() {
            Some(i) => {
                self.lanes[i] = lane;
                i
            }
            None => {
                self.lanes.push(lane);
                self.lanes.len() - 1
            }
        };
        self.by_key.insert(key, i);
        self.stale.push(i);
        i
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
        let (mut keys, buffers) = (
            std::mem::take(&mut self.end_keys),
            std::mem::take(&mut self.walk),
        );
        let mut walk = LaneWalk::new(self, buffers);
        let plan = self
            .order
            .plan(now_s, free, &mut walk, &self.believed, &mut keys);
        let LaneWalk {
            buffers, priced, ..
        } = walk;
        self.end_keys = keys;
        self.stats.lanes_priced += priced;
        // Take the started jobs out back to front, so no slot moves before
        // it is used; then start them in priority (handle) order, not plan
        // order: `running`'s order decides the order same-tick completions
        // are reported to the fairshare source. Each keeps the prediction
        // the walk yielded it under.
        let yielded = &buffers.yielded;
        let mut starts = plan.starts;
        starts.sort_unstable_by_key(|s| Reverse(yielded[s.handle].0));
        let mut started: Vec<(usize, bool, f64, Job)> = starts
            .iter()
            .filter_map(|s| {
                let (slot, predicted_s) = yielded[s.handle];
                Some((s.handle, s.backfill, predicted_s, self.take(slot)?))
            })
            .collect();
        debug_assert_eq!(started.len(), starts.len(), "a slot names a pending job");
        self.walk = buffers;
        started.sort_unstable_by_key(|s| s.0);
        for (_, backfill, predicted_s, mut job) in started {
            assert!(
                self.nodes.allocate(job.cores),
                "dispatch plan oversubscribed the pool"
            );
            job.state = JobState::Running { start_s: now_s };
            // Enforce the walltime limit if the overrun policy kills.
            let (run_for_s, killed) = self.predictor.on_start(&job);
            if killed {
                self.stats.killed += 1;
                job.duration_s = run_for_s;
            }
            self.stats.started += 1;
            self.zero_core_pending -= usize::from(job.cores == 0);
            self.stats.total_wait_s += job.wait_time(now_s);
            if backfill {
                self.stats.backfilled += 1;
            }
            self.running.push(Running {
                job,
                start_s: now_s,
                predicted_s,
            });
            self.ends.push(now_s + run_for_s);
        }
    }

    /// Remove and return the pending job at `slot`. Taking a lane's head
    /// re-keys the lane under the next one, or vacates it.
    fn take(&mut self, slot: Slot) -> Option<Job> {
        match slot {
            Slot::Fresh(i) => Some(self.fresh.remove(i).job),
            Slot::Lane(i, pos) => {
                let lane = self.lanes.get_mut(i)?;
                let job = lane.jobs.remove(pos)?;
                let user = lane.key.0;
                if lane.jobs.is_empty() {
                    // A vacant slot holds no buffer: a deep lane's would
                    // outlive it.
                    lane.jobs = VecDeque::new();
                    self.by_key.remove(&lane.key);
                    self.vacant.push(i);
                    let users_lanes = (user, 0)..=(user, u32::MAX);
                    if self.by_key.range(users_lanes).next().is_none() {
                        self.users.remove(&user);
                    }
                } else if request_floor(&job) == lane.least_request {
                    let requests = lane.jobs.iter().map(request_floor);
                    lane.least_request = requests.fold(f64::INFINITY, f64::min);
                }
                if pos == 0 {
                    let head = lane.jobs.front();
                    let eval_s = self.last_reprio_s;
                    let rank = head.map(|job| self.pricing.rank(self.users[&user], job, eval_s));
                    self.stats.lanes_priced += u64::from(rank.is_some());
                    refile(&mut self.ranked, &mut self.lanes, i, rank);
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
        let swept = self.by_key.iter().flat_map(move |(key, &i)| {
            let fairshare = self.users[&key.0];
            let prio = move |job| (self.pricing).priority(fairshare, job, self.last_reprio_s);
            self.lanes[i].jobs.iter().map(move |job| (job, prio(job)))
        });
        swept.chain(self.fresh.iter().map(|e| (&e.job, e.prio)))
    }

    /// Running jobs (inspection/metrics).
    pub fn running_jobs(&self) -> impl ExactSizeIterator<Item = &Job> {
        self.running.iter().map(|r| &r.job)
    }
}

/// A live lane in the lane order: its slot, and its width — all the walk
/// reads of a lane too wide for the free cores.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    lane: usize,
    cores: u32,
}

/// Re-key lane `i` under `rank` in the lane order `ranked` — out of it
/// under none (the lane emptied). The lane leaves the place its filed rank
/// gives it (a new lane has none yet), so every other lane must be filed
/// under its own. O(log lanes) searches and two O(lanes) moves.
fn refile(ranked: &mut Vec<Ranked>, lanes: &mut [Lane], i: usize, rank: Option<Rank>) {
    let filed = lanes[i].rank;
    let from = ranked.partition_point(|r| lanes[r.lane].rank > filed);
    if let Some(at) = ranked[from..].iter().position(|r| r.lane == i) {
        ranked.remove(from + at);
    }
    if let Some(rank) = rank {
        lanes[i].rank = rank;
        let to = ranked.partition_point(|r| lanes[r.lane].rank > rank);
        let cores = lanes[i].key.1;
        ranked.insert(to, Ranked { lane: i, cores });
    }
}

/// The walk's buffers, kept between dispatches so that a walk allocates
/// nothing.
#[derive(Debug, Default)]
struct WalkBuffers {
    /// The lanes the walk advanced past their heads this cycle, each at the
    /// next job it reached, and the fresh jobs: by rank.
    heads: BinaryHeap<(Rank, Slot)>,
    /// Each yielded job's slot and the prediction it was offered under, by
    /// handle.
    yielded: Vec<(Slot, f64)>,
}

/// The scheduler's [`QueueWalk`]: the lane order read with a cursor, merged
/// with a small heap. A job's handle is its rank among the jobs yielded so
/// far (so handles ascend with priority); `yielded` maps handles back to
/// slots.
///
/// The cursor passes over every lane the rule turns down whole — its
/// fastest job ([`Lane::fastest`]: too wide for the free cores, or too wide
/// for the spare ones and too slow for the shadow) is not admitted — and
/// offers the next lane's head at its stored rank. The heap holds what the
/// cursor cannot: the fresh jobs, and each lane the walk reached past its
/// head, at its first job behind the one visited that the rule admits. Each
/// offer is checked against the rule again, as a backfill start may have
/// tightened it since. Jobs passed over are never priced, pushed or given a
/// handle (the rule only tightens: they could not have started); a mapped
/// lane's class estimate is read by id.
///
/// Complexity: O(fresh) to start; a lane the cursor passes over costs a
/// read of its width in `ranked` (and of its bound and class estimate when
/// it fits the free cores), a lane head offered nothing more, and a lane
/// advanced past its head one priority evaluation and one O(log heap) step
/// — plus a compare per job stepped over, paid only in a lane whose bound
/// the rule admits (or the unmapped lane).
struct LaneWalk<'a> {
    sched: &'a SchedulerCore,
    /// The first place in `ranked` the walk has not reached.
    cursor: usize,
    buffers: WalkBuffers,
    /// Lane jobs priced behind a head.
    priced: u64,
}

impl<'a> LaneWalk<'a> {
    fn new(sched: &'a SchedulerCore, mut buffers: WalkBuffers) -> Self {
        buffers.yielded.clear();
        buffers.heads.clear();
        let fresh = sched.fresh.iter().enumerate();
        let fresh = fresh.map(|(i, e)| (Rank::of(e.prio, &e.job), Slot::Fresh(i)));
        buffers.heads.extend(fresh);
        Self {
            sched,
            cursor: 0,
            buffers,
            priced: 0,
        }
    }

    /// The first job of lane `i` from `pos` on that `rule` admits, priced;
    /// none when the rule turns down the lane's fastest job.
    fn reach(&mut self, i: usize, pos: usize, rule: &Admission) -> Option<(Rank, Slot)> {
        let sched = self.sched;
        let lane = &sched.lanes[i];
        if !rule.admits(&lane.fastest(&sched.predictor)) {
            return None;
        }
        let view = sched.view(Some(lane));
        let pos = pos
            + lane
                .jobs
                .range(pos..)
                .position(|job| rule.admits(&view(job)))?;
        self.priced += 1;
        let fairshare = sched.users[&lane.key.0];
        let rank = (sched.pricing).rank(fairshare, &lane.jobs[pos], sched.last_reprio_s);
        Some((rank, Slot::Lane(i, pos)))
    }
}

impl QueueWalk for LaneWalk<'_> {
    fn next_admitted(&mut self, rule: &Admission) -> Option<(usize, QueuedJob)> {
        let sched = self.sched;
        loop {
            let unreached = &sched.ranked[self.cursor..];
            let admissible = |r: &Ranked| {
                rule.fits(r.cores) && rule.admits(&sched.lanes[r.lane].fastest(&sched.predictor))
            };
            self.cursor += unreached
                .iter()
                .position(admissible)
                .unwrap_or(unreached.len());
            let lane_head = (sched.ranked.get(self.cursor))
                .map(|r| (sched.lanes[r.lane].rank, Slot::Lane(r.lane, 0)));
            let next = match lane_head {
                Some(head) if self.buffers.heads.peek().is_none_or(|top| *top < head) => {
                    self.cursor += 1;
                    Some(head)
                }
                _ => self.buffers.heads.pop(),
            };
            let (_, slot) = next?;
            let q = match slot {
                Slot::Lane(i, pos) => {
                    let lane = &sched.lanes[i];
                    if let Some(behind) = self.reach(i, pos + 1, rule) {
                        self.buffers.heads.push(behind);
                    }
                    sched.view(Some(lane))(&lane.jobs[pos])
                }
                Slot::Fresh(i) => sched.view(None)(&sched.fresh[i].job),
            };
            if rule.admits(&q) {
                self.buffers.yielded.push((slot, q.predicted_s));
                return Some((self.buffers.yielded.len() - 1, q));
            }
        }
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
        // factors: ids 2 and 3 (a's) run 500 s, id 4 (b's) 5 s. Under the
        // pivot's rule (a spare core) the walk yields 2 and reaches 3 behind
        // it; once a backfill start takes the spare core, 3 — now at the top
        // of the walk's heap — must be turned down, and 4 yielded.
        let mut sched = core(0);
        let mut src = Scripted::default();
        sched.submit(job(1, "sysa", 8, 0.0, 10.0), &mut src, 0.0);
        for (id, sys, dur) in [(2, "sysa", 500.0), (3, "sysa", 500.0), (4, "sysb", 5.0)] {
            sched.submit(job(id, sys, 1, 1.0, dur), &mut src, 1.0);
        }
        sched.advance(&mut src, 2.0);
        let mut walk = LaneWalk::new(&sched, WalkBuffers::default());
        let loose = Admission {
            free: 4,
            spare: 1,
            now_s: 2.0,
            shadow_t: 100.0,
        };
        let tight = Admission { spare: 0, ..loose };
        let rules = [Admission::within(u32::MAX), loose, tight, tight, tight];
        let yielded: Vec<Option<QueuedJob>> = rules
            .iter()
            .map(|rule| {
                let q = walk.next_admitted(rule).map(|(_, q)| q);
                assert!(q.is_none_or(|q| rule.admits(&q)), "{q:?} under {rule:?}");
                q
            })
            .collect();
        let id = |&(slot, _): &(Slot, f64)| match slot {
            Slot::Lane(i, pos) => sched.lanes[i].jobs[pos].id.0,
            Slot::Fresh(i) => sched.fresh[i].job.id.0,
        };
        let yielded_ids: Vec<_> = walk.buffers.yielded.iter().map(id).collect();
        assert_eq!(yielded_ids, [1, 2, 4]);
        assert!(yielded[3..].iter().all(Option::is_none), "and none after");
    }

    #[test]
    fn a_job_sorted_in_front_of_a_head_re_keys_its_lane() {
        // Equal factors, no core. `b`'s head (submit 5) goes before `a`'s
        // (submit 10) until a late submit of `a` (submit 1) is sorted in front
        // of `a`'s head: then `a`'s lane goes first.
        let mut sched = core(0);
        let mut src = Scripted::default();
        sched.submit(job(1, "sysa", 1, 10.0, 5.0), &mut src, 20.0);
        sched.submit(job(2, "sysb", 1, 5.0, 5.0), &mut src, 20.0);
        sched.advance(&mut src, 20.0);
        sched.submit(job(3, "sysa", 1, 1.0, 5.0), &mut src, 21.0);
        sched.advance(&mut src, 21.0);
        let mut walk = LaneWalk::new(&sched, WalkBuffers::default());
        let all = Admission::within(u32::MAX);
        let yielded = std::iter::from_fn(|| walk.next_admitted(&all)).count();
        let id = |&(slot, _): &(Slot, f64)| match slot {
            Slot::Lane(i, pos) => sched.lanes[i].jobs[pos].id.0,
            Slot::Fresh(i) => sched.fresh[i].job.id.0,
        };
        let ids: Vec<_> = walk.buffers.yielded.iter().map(id).collect();
        assert_eq!((yielded, ids), (3, vec![3, 2, 1]));
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
            let (_, &i) = sched.by_key.iter().next().expect("one lane");
            let lane = &sched.lanes[i];
            let least = lane
                .jobs
                .iter()
                .map(request_floor)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(lane.least_request.to_bits(), least.to_bits(), "{lane:?}");
            (i, lane.least_request)
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
            let i = least_of(&sched).0;
            let pos = sched.lanes[i].jobs.iter().position(|j| j.id == JobId(id));
            let taken = sched.take(Slot::Lane(i, pos.expect("pending")));
            assert_eq!(taken.map(|j| j.id), Some(JobId(id)));
            assert_eq!(least_of(&sched).1, least, "after taking {id}");
        }
    }

    /// A scheduler on one core under `weights` and `factors`.
    fn core_priced(weights: PriorityWeights, factors: FactorConfig) -> SchedulerCore {
        let (nodes, reprio) = (NodePool::new(1, 1), ReprioritizePolicy::EveryCycle);
        SchedulerCore::new(SiteId(0), nodes, weights, factors, reprio)
    }

    #[test]
    #[should_panic(expected = "PriorityWeights::qos must be finite and >= 0")]
    fn nan_weight_is_refused_at_construction() {
        let weights = PriorityWeights {
            qos: f64::NAN,
            ..PriorityWeights::mixed()
        };
        core_priced(weights, FactorConfig::default());
    }

    #[test]
    #[should_panic(expected = "PriorityWeights::age must be finite and >= 0")]
    fn negative_weight_is_refused_at_construction() {
        let weights = PriorityWeights {
            age: -0.1,
            ..PriorityWeights::mixed()
        };
        core_priced(weights, FactorConfig::default());
    }

    #[test]
    #[should_panic(expected = "FactorConfig::max_age_s must be finite and > 0")]
    fn zero_max_age_is_refused_at_construction() {
        let factors = FactorConfig {
            max_age_s: 0.0,
            ..FactorConfig::default()
        };
        core_priced(PriorityWeights::default(), factors);
    }

    #[test]
    #[should_panic(expected = "FactorConfig::max_age_s must be finite and > 0")]
    fn infinite_max_age_is_refused_at_construction() {
        let factors = FactorConfig {
            max_age_s: f64::INFINITY,
            ..FactorConfig::default()
        };
        core_priced(PriorityWeights::default(), factors);
    }

    #[test]
    #[should_panic(expected = "FactorConfig::max_cores must be > 0")]
    fn zero_max_cores_is_refused_at_construction() {
        let factors = FactorConfig {
            max_cores: 0,
            ..FactorConfig::default()
        };
        core_priced(PriorityWeights::default(), factors);
    }

    #[test]
    #[should_panic(expected = "FactorConfig::qos_levels[GridUser(\"a\")] must be finite in [0, 1]")]
    fn nan_qos_level_is_refused_at_construction() {
        let factors = FactorConfig {
            qos_levels: [(GridUser::new("a"), f64::NAN)].into(),
            ..FactorConfig::default()
        };
        core_priced(PriorityWeights::default(), factors);
    }

    #[test]
    fn a_sweep_reprices_only_the_lanes_whose_key_moved() {
        // No core: nothing dispatches, so only sweeps price. `a` has a one-
        // and a two-core lane, `b` a one-core lane; interned in that order.
        let priced = |weights| {
            let nodes = NodePool::new(1, 0);
            let reprio = ReprioritizePolicy::EveryCycle;
            let mut sched =
                SchedulerCore::new(SiteId(0), nodes, weights, FactorConfig::default(), reprio);
            let mut src = Scripted::default();
            for (id, sys, cores) in [(1, "sysa", 1), (2, "sysa", 2), (3, "sysb", 1)] {
                sched.submit(job(id, sys, cores, 0.0, 10.0), &mut src, 0.0);
            }
            let mut cycle = |src: &mut Scripted, now_s| {
                let before = sched.stats().lanes_priced;
                sched.advance(src, now_s);
                sched.stats().lanes_priced - before
            };
            let new = cycle(&mut src, 0.0);
            let steady = cycle(&mut src, 1.0);
            src.factors.insert(UserId(0), 0.25);
            let a_moved = cycle(&mut src, 2.0);
            [new, steady, a_moved]
        };
        assert_eq!(priced(PriorityWeights::fairshare_only()), [3, 0, 2]);
        assert_eq!(priced(PriorityWeights::mixed()), [3, 3, 3]);
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
