//! The exactness net under the lane queue: [`SchedulerCore`] against a
//! test-local *flat-queue* reference that does what a scheduler obviously
//! may — price every pending entry at every sweep, sort the whole queue by
//! `(priority desc, submit_s, id)`, plan over the sorted slice, apply the
//! starts in queue order — under random submit/advance scripts.
//!
//! The two must agree on everything observable, bit for bit: the jobs each
//! cycle starts and the order it starts them in (read off `running_jobs()`,
//! whose order both sides permute identically on completions), the cycle's
//! backfill count, the order completions are reported to the fairshare
//! source, the pending set with every priority, and the statistics. The
//! scheduler may only *ask* less: per sweep the same set of users as the
//! reference, each at most once.
//!
//! Runs every dispatch order × re-prioritization cadence (every cycle, every
//! step, every third step — so jobs that no sweep has seen meet a dispatch)
//! × three weightings, against a scripted source whose factors move over
//! time and tie between users, with unmapped accounts, out-of-order and
//! equal submit times, ids out of submit order, zero-core jobs, jobs wider
//! than the machine, padded, honest and too-short requests, and both overrun
//! policies.
//!
//! The reference keeps what the scheduler no longer has: the prediction each
//! running job started under in a map by job id, a running job's end read
//! off the job (`start + duration`, the duration cut to the request when the
//! job is killed), and its own copy of the overrun rule. A hand-written
//! script drives both through the edges the scheduler's shortcuts live on
//! and asserts it got there (see [`Edges`]).

use aequus_core::ids::{JobId, SiteId};
use aequus_core::usage::UsageRecord;
use aequus_core::{GridUser, SystemUser, UserId};
use aequus_rms::multifactor::combined_priority;
use aequus_rms::predict::MIN_PREDICTION_S;
use aequus_rms::{
    Admission, DispatchConfig, DispatchOrder, EndKeys, FactorConfig, FairshareSource, Job,
    JobState, MispredictPolicy, NodePool, PredictorKind, PriorityWeights, QueueWalk, QueuedJob,
    ReprioritizePolicy, RunningSlice, RuntimePredictor, SchedulerCore, SliceWalk,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Seconds between scheduling cycles.
const STEP_S: f64 = 10.0;
/// Cores of the one-node machine.
const MACHINE: u32 = 6;
/// Grid users with an identity mapping; other accounts stay unmapped.
const MAPPED: [&str; 4] = ["a", "b", "c", "d"];
/// Fairshare levels the script picks from — few, so users tie.
const LEVELS: [f64; 5] = [0.0, 0.25, 0.5, 0.5, 1.0];

/// A fairshare source that replays a script: the factor of user `u` during
/// epoch `e` (one epoch per [`STEP_S`]) is `LEVELS[table[e][u]]`, a pure
/// function of `(id, now)` — so however often it is asked at one instant it
/// answers the same. It logs every query and every usage report.
#[derive(Debug, Default)]
struct Scripted {
    table: Vec<Vec<u8>>,
    users: Vec<GridUser>,
    queries: Vec<(UserId, u64)>,
    reports: Vec<JobId>,
}

impl FairshareSource for Scripted {
    fn intern_user(&mut self, user: &GridUser) -> UserId {
        let known = self.users.iter().position(|u| u == user);
        let index = known.unwrap_or_else(|| {
            self.users.push(user.clone());
            self.users.len() - 1
        });
        UserId(index as u32)
    }

    fn fairshare_factor(&mut self, id: UserId, now_s: f64) -> f64 {
        self.queries.push((id, now_s.to_bits()));
        let epoch = &self.table[(now_s / STEP_S) as usize % self.table.len()];
        LEVELS[epoch[id.index() % epoch.len()] as usize % LEVELS.len()]
    }

    fn report_usage(&mut self, record: UsageRecord, _now_s: f64) {
        self.reports.push(record.job);
    }

    fn resolve_identity(&mut self, system: &SystemUser, _now_s: f64) -> Option<GridUser> {
        let name = system.as_str().strip_prefix("sys-")?;
        MAPPED.contains(&name).then(|| GridUser::new(name))
    }
}

/// One pending entry of the reference queue, priced eagerly.
#[derive(Debug)]
struct Entry {
    job: Job,
    prio: f64,
    user_id: Option<UserId>,
}

/// The flat-queue reference scheduler.
struct FlatQueue {
    nodes: NodePool,
    weights: PriorityWeights,
    factors: FactorConfig,
    reprio: ReprioritizePolicy,
    order: DispatchOrder,
    predictor: RuntimePredictor,
    pending: Vec<Entry>,
    running: Vec<Job>,
    /// The prediction each running job started under.
    predictions: BTreeMap<JobId, f64>,
    last_reprio_s: f64,
    /// Each pending user's factor bits at the last sweep.
    swept: BTreeMap<UserId, u64>,
    backfilled: u64,
    total_wait_s: f64,
    completed: u64,
    edges: Edges,
}

/// What a case reached of the edges the scheduler's shortcuts live on, as
/// the reference saw them.
#[derive(Debug, Default)]
struct Edges {
    /// Longest run of cycles that ended on a full machine with a zero-core
    /// job still pending (the current run, then the longest).
    full_with_zero_core_pending: (u32, u32),
    /// Zero-core jobs started by a cycle that began with no core free.
    zero_core_starts_on_full: u32,
    /// Cycles whose reservation sat at an overrun job's
    /// `now + MIN_PREDICTION_S`.
    shadows_on_overrun: u32,
    /// Cycles planned with two unmapped accounts of one width pending whose
    /// class histories differ.
    mixed_unmapped_lanes: u32,
    /// Jobs killed at their request.
    killed: u64,
    /// Backfill cycles in which a lane's first job the pivot's rule admits
    /// sat behind the lane's first unvisited job.
    admitted_behind_a_head: u32,
    /// Backfill cycles in which a job the pivot's rule admitted did not
    /// start: an earlier backfill start had taken the cores it needed.
    admitted_then_turned_down: u32,
    /// Backfill cycles in which the pivot's rule turned a mapped lane down
    /// whole: it fits the free cores, but even the prediction of its least
    /// request — a bound on all of its jobs' — neither ends by the shadow
    /// nor fits the spare cores.
    lane_rejected_whole: u32,
    /// Backfill cycles in which a mapped lane's bound passed the pivot's
    /// rule, yet the rule admitted none of its unvisited jobs: the job that
    /// set the bound had been visited before the pivot.
    bound_passed_none_admitted: u32,
    /// Sweeps in which no pending user's factor moved since the last sweep
    /// (of the users it swept too; at least one).
    sweeps_none_moved: u32,
    /// Sweeps in which some, but not all, pending users' factors moved
    /// since the last sweep (of the users it swept too).
    sweeps_some_moved: u32,
}

/// The reference's walk: the sorted slice, noting the first rule with a
/// reserved pivot it is handed and where in the queue that call began.
struct Recording<'a> {
    walk: SliceWalk<'a>,
    next: usize,
    pivot_rule: Option<(Admission, usize)>,
}

impl QueueWalk for Recording<'_> {
    fn next_admitted(&mut self, rule: &Admission) -> Option<(usize, QueuedJob)> {
        if self.pivot_rule.is_none() && rule.shadow_t < f64::INFINITY {
            self.pivot_rule = Some((*rule, self.next));
        }
        let got = self.walk.next_admitted(rule);
        self.next = got.map_or(usize::MAX, |(handle, _)| handle + 1);
        got
    }
}

impl FlatQueue {
    fn fairshare(e: &Entry, source: &mut Scripted, now_s: f64) -> f64 {
        match e.user_id {
            Some(id) => source.fairshare_factor(id, now_s),
            None => 0.5,
        }
    }

    fn priority(&self, e: &Entry, source: &mut Scripted, now_s: f64) -> f64 {
        let fairshare = Self::fairshare(e, source, now_s);
        self.combine(e, fairshare, now_s)
    }

    fn combine(&self, e: &Entry, fairshare: f64, now_s: f64) -> f64 {
        combined_priority(
            &self.weights,
            fairshare,
            self.factors.age_factor(&e.job, now_s),
            self.factors.qos_factor(&e.job),
            self.factors.size_factor(&e.job),
        )
    }

    fn submit(&mut self, mut job: Job, source: &mut Scripted, now_s: f64) {
        job.grid_user = source.resolve_identity(&job.system_user, now_s);
        let user_id = job.grid_user.as_ref().map(|u| source.intern_user(u));
        let mut entry = Entry {
            job,
            prio: 0.0,
            user_id,
        };
        entry.prio = self.priority(&entry, source, now_s);
        self.pending.push(entry);
    }

    fn advance(&mut self, source: &mut Scripted, now_s: f64) {
        self.nodes.advance(now_s);
        let mut i = 0;
        while i < self.running.len() {
            let JobState::Running { start_s } = self.running[i].state else {
                unreachable!("job in running list")
            };
            let end = start_s + self.running[i].duration_s;
            if end <= now_s {
                let job = self.running.swap_remove(i);
                self.nodes.release(job.cores);
                self.completed += 1;
                let predicted_s = self.predictions.remove(&job.id).expect("started");
                self.predictor.on_complete(&job, predicted_s, end - start_s);
                if let Some(user) = &job.grid_user {
                    let record = UsageRecord {
                        job: job.id,
                        user: user.clone(),
                        site: SiteId(0),
                        cores: job.cores,
                        start_s,
                        end_s: end,
                    };
                    source.report_usage(record, now_s);
                }
            } else {
                i += 1;
            }
        }
        let due = match self.reprio {
            ReprioritizePolicy::EveryCycle => true,
            ReprioritizePolicy::Interval(dt) => now_s - self.last_reprio_s >= dt,
        };
        if due {
            let mut swept = BTreeMap::new();
            for i in 0..self.pending.len() {
                let fairshare = Self::fairshare(&self.pending[i], source, now_s);
                if let Some(id) = self.pending[i].user_id {
                    swept.insert(id, fairshare.to_bits());
                }
                self.pending[i].prio = self.combine(&self.pending[i], fairshare, now_s);
            }
            // Of the users this sweep and the last both swept: whose factor moved.
            let moved: Vec<bool> = swept
                .iter()
                .filter_map(|(id, bits)| Some(self.swept.get(id)? != bits))
                .collect();
            let some = moved.contains(&true);
            self.edges.sweeps_none_moved += (!moved.is_empty() && !some) as u32;
            self.edges.sweeps_some_moved += (some && moved.contains(&false)) as u32;
            self.swept = swept;
            self.last_reprio_s = now_s;
        }
        self.pending.sort_by(|a, b| {
            b.prio
                .partial_cmp(&a.prio)
                .unwrap()
                .then(a.job.submit_s.partial_cmp(&b.job.submit_s).unwrap())
                .then(a.job.id.cmp(&b.job.id))
        });
        let queue: Vec<QueuedJob> = self
            .pending
            .iter()
            .map(|e| QueuedJob {
                cores: e.job.cores,
                predicted_s: self.predictor.predict(&e.job),
            })
            .collect();
        // Believed ends: start + prediction, or "any second now" once the
        // job has outlived it.
        let overdue_s = now_s + MIN_PREDICTION_S;
        let running: Vec<RunningSlice> = self
            .running
            .iter()
            .map(|j| {
                let JobState::Running { start_s } = j.state else {
                    unreachable!("job in running list")
                };
                let end_s = start_s + self.predictions[&j.id];
                RunningSlice {
                    end_s: if end_s > now_s { end_s } else { overdue_s },
                    cores: j.cores,
                }
            })
            .collect();
        let free = self.nodes.free_cores();
        let mut walk = Recording {
            walk: SliceWalk::new(&queue),
            next: 0,
            pivot_rule: None,
        };
        let ends = &mut EndKeys::default();
        let plan = self.order.plan(now_s, free, &mut walk, &running, ends);
        if let Some((rule, from)) = walk.pivot_rule {
            // The pending lanes as they stood when the pivot was reserved:
            // each one's first unvisited job and first job the rule admits.
            let mut lanes: BTreeMap<(Option<UserId>, u32), (usize, Option<usize>)> =
                BTreeMap::new();
            for (i, (e, q)) in self.pending.iter().zip(&queue).enumerate().skip(from) {
                let lane = lanes.entry((e.user_id, q.cores)).or_insert((i, None));
                if lane.1.is_none() && rule.admits(q) {
                    lane.1 = Some(i);
                }
            }
            let behind = lanes
                .values()
                .any(|&(head, first)| first.is_some_and(|f| f > head));
            self.edges.admitted_behind_a_head += behind as u32;
            // A mapped lane's bound: its one class estimate applied to the
            // least request among all its pending jobs, visited or not.
            let (mut whole, mut passed) = (false, false);
            for (&(user_id, cores), &(head, first)) in &lanes {
                if user_id.is_none() || !rule.fits(cores) {
                    continue;
                }
                let in_lane = |e: &&Entry| (e.user_id, e.job.cores) == (user_id, cores);
                let requests = self.pending.iter().filter(in_lane);
                let least = requests
                    .map(|e| e.job.request_s.max(MIN_PREDICTION_S))
                    .fold(f64::INFINITY, f64::min);
                let estimate = self.predictor.history_estimate(&self.pending[head].job);
                let predicted_s = RuntimePredictor::predict_within(estimate, least);
                let bounded = rule.admits(&QueuedJob { cores, predicted_s });
                whole |= !bounded;
                passed |= bounded && first.is_none();
            }
            self.edges.lane_rejected_whole += whole as u32;
            self.edges.bound_passed_none_admitted += passed as u32;
            let started: BTreeSet<usize> = plan.starts.iter().map(|s| s.handle).collect();
            let turned_down =
                (from..queue.len()).any(|i| rule.admits(&queue[i]) && !started.contains(&i));
            self.edges.admitted_then_turned_down += turned_down as u32;
        }
        let overrun = running.iter().any(|r| r.end_s == overdue_s);
        self.edges.shadows_on_overrun += (overrun && plan.shadow_s == Some(overdue_s)) as u32;
        let unmapped = self.pending.iter().filter(|e| e.user_id.is_none());
        let histories: BTreeSet<(u32, Option<u64>)> = unmapped
            .map(|e| {
                (
                    e.job.cores,
                    self.predictor.history_estimate(&e.job).map(f64::to_bits),
                )
            })
            .collect();
        let widths: BTreeSet<u32> = histories.iter().map(|h| h.0).collect();
        self.edges.mixed_unmapped_lanes += (histories.len() > widths.len()) as u32;
        // Apply the starts in queue order, whatever order the plan made them in.
        let mut starts = plan.starts;
        starts.sort_by_key(|s| s.handle);
        for (taken, s) in starts.iter().enumerate() {
            let mut job = self.pending.remove(s.handle - taken).job;
            assert!(self.nodes.allocate(job.cores), "reference oversubscribed");
            job.state = JobState::Running { start_s: now_s };
            self.predictions
                .insert(job.id, self.predictor.predict(&job));
            let (run_for_s, killed) = self.predictor.on_start(&job);
            if killed {
                self.edges.killed += 1;
                job.duration_s = run_for_s;
            }
            self.edges.zero_core_starts_on_full += (free == 0 && job.cores == 0) as u32;
            self.total_wait_s += job.wait_time(now_s);
            self.backfilled += s.backfill as u64;
            self.running.push(job);
        }
        let zero_core_waits = self.pending.iter().any(|e| e.job.cores == 0);
        let (run, longest) = &mut self.edges.full_with_zero_core_pending;
        *run = if self.nodes.free_cores() == 0 && zero_core_waits {
            *run + 1
        } else {
            0
        };
        *longest = (*longest).max(*run);
    }
}

/// One scripted submission: (account index into `MAPPED` + two unmapped
/// accounts, cores, submit-time offset index, duration, request as an index
/// into `REQUEST_FACTORS`).
type Submit = (u8, u32, u8, f64, u8);

/// Requests relative to the true duration: padded, honest (often), and too
/// short — the job outlives its prediction, or is killed at the request.
const REQUEST_FACTORS: [f64; 4] = [3.0, 1.0, 1.0, 0.5];

/// Submit-time offsets relative to the cycle: late, on time (often, so equal
/// submit times meet), ahead of the clock, and late by several cycles — so
/// that a late job is often sorted in front of a lane's head, which must
/// re-key the lane.
const SUBMIT_OFFSETS_S: [f64; 8] = [-30.0, -10.0, 0.0, 0.0, 0.0, 5.0, -60.0, -120.0];

fn job_of(serial: u64, &(account, cores, offset, duration_s, request): &Submit, now_s: f64) -> Job {
    let account = match MAPPED.get(account as usize) {
        Some(name) => format!("sys-{name}"),
        None => format!("ghost-{account}"),
    };
    // Unique, but not in submit order: equal submit times break ties on it.
    let id = JobId(serial * 7919 % 10_007);
    let submit_s = now_s + SUBMIT_OFFSETS_S[offset as usize % SUBMIT_OFFSETS_S.len()];
    Job::new(id, SystemUser::new(account), cores, submit_s, duration_s)
        .with_request(duration_s * REQUEST_FACTORS[request as usize % REQUEST_FACTORS.len()])
}

/// The pending set as `(id, priority bits)`.
fn pending_set<'a>(jobs: impl Iterator<Item = (&'a Job, f64)>) -> BTreeSet<(JobId, u64)> {
    jobs.map(|(j, p)| (j.id, p.to_bits())).collect()
}

/// Running jobs as `(id, start bits)`, in list order.
fn running_list<'a>(jobs: impl Iterator<Item = &'a Job>) -> Vec<(JobId, u64)> {
    jobs.map(|j| match j.state {
        JobState::Running { start_s } => (j.id, start_s.to_bits()),
        _ => unreachable!("job in running list"),
    })
    .collect()
}

fn size_heavy() -> PriorityWeights {
    PriorityWeights {
        fairshare: 0.2,
        age: 0.1,
        qos: 0.0,
        size: 0.7,
    }
}

/// The configuration of one oracle run.
#[derive(Debug, Clone, Copy)]
struct Setup {
    order: DispatchOrder,
    reprio: ReprioritizePolicy,
    weights: PriorityWeights,
    predictor: PredictorKind,
    mispredict: MispredictPolicy,
}

/// Drive the scheduler and the flat-queue reference through `script` (then
/// twenty empty cycles to drain what can run), holding them equal after
/// every cycle.
fn run_case(
    setup: Setup,
    script: &[Vec<Submit>],
    table: &[Vec<u8>],
) -> Result<Edges, TestCaseError> {
    let Setup {
        order,
        reprio,
        weights,
        predictor,
        mispredict,
    } = setup;
    let factors = FactorConfig {
        max_age_s: 120.0,
        max_cores: 8,
        qos_levels: [(GridUser::new("a"), 0.9), (GridUser::new("b"), 0.1)].into(),
    };
    let dispatch = DispatchConfig {
        order,
        predictor,
        mispredict,
    };
    let mut sched = SchedulerCore::with_dispatch(
        SiteId(0),
        NodePool::new(1, MACHINE),
        weights,
        factors.clone(),
        reprio,
        dispatch,
    );
    let mut flat = FlatQueue {
        nodes: NodePool::new(1, MACHINE),
        weights,
        factors,
        reprio,
        order,
        predictor: RuntimePredictor::new(predictor, mispredict),
        pending: Vec::new(),
        running: Vec::new(),
        predictions: BTreeMap::new(),
        last_reprio_s: f64::NEG_INFINITY,
        swept: BTreeMap::new(),
        backfilled: 0,
        total_wait_s: 0.0,
        completed: 0,
        edges: Edges::default(),
    };
    let mut src = Scripted {
        table: table.to_vec(),
        ..Scripted::default()
    };
    let mut flat_src = Scripted {
        table: table.to_vec(),
        ..Scripted::default()
    };
    let mut serial = 0u64;
    let cycles = script
        .iter()
        .map(Vec::as_slice)
        .chain(std::iter::repeat_n(&[][..], 20));
    for (cycle, submits) in cycles.enumerate() {
        let now_s = cycle as f64 * STEP_S;
        let at = format!("{setup:?} cycle {cycle}");
        for submit in submits {
            serial += 1;
            sched.submit(job_of(serial, submit, now_s), &mut src, now_s);
            flat.submit(job_of(serial, submit, now_s), &mut flat_src, now_s);
        }
        // Submit asks once per job on both sides.
        prop_assert_eq!(&src.queries, &flat_src.queries, "submit queries, {}", at);
        src.queries.clear();
        flat_src.queries.clear();

        sched.advance(&mut src, now_s);
        flat.advance(&mut flat_src, now_s);

        prop_assert_eq!(
            running_list(sched.running_jobs()),
            running_list(flat.running.iter()),
            "starts and their order, {}",
            at
        );
        prop_assert_eq!(
            sched.stats().backfilled,
            flat.backfilled,
            "backfills, {}",
            at
        );
        prop_assert_eq!(&src.reports, &flat_src.reports, "completion order, {}", at);
        prop_assert_eq!(
            pending_set(sched.pending_jobs()),
            pending_set(flat.pending.iter().map(|e| (&e.job, e.prio))),
            "pending set and priorities, {}",
            at
        );
        prop_assert_eq!(sched.pending(), flat.pending.len(), "{}", at);
        prop_assert_eq!(sched.stats().completed, flat.completed, "{}", at);
        prop_assert_eq!(sched.stats().killed, flat.edges.killed, "kills, {}", at);
        prop_assert_eq!(
            sched.stats().total_wait_s.to_bits(),
            flat.total_wait_s.to_bits(),
            "wait sum, {}",
            at
        );
        // The sweep: the same users as the reference asks about, all at
        // this instant, none twice.
        let asked: BTreeSet<_> = src.queries.iter().copied().collect();
        prop_assert_eq!(asked.len(), src.queries.len(), "a user asked twice, {}", at);
        let wanted: BTreeSet<_> = flat_src.queries.iter().copied().collect();
        prop_assert_eq!(asked, wanted, "swept users, {}", at);
        src.queries.clear();
        flat_src.queries.clear();
    }
    Ok(flat.edges)
}

const POLICIES: [ReprioritizePolicy; 3] = [
    ReprioritizePolicy::EveryCycle,
    ReprioritizePolicy::Interval(STEP_S),
    ReprioritizePolicy::Interval(3.0 * STEP_S),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lane_queue_matches_the_flat_queue_reference(
        script in proptest::collection::vec(
            proptest::collection::vec((0u8..6, 0u32..9, 0u8..8, 5.0..200.0f64, 0u8..4), 0..4),
            30..70,
        ),
        table in proptest::collection::vec(proptest::collection::vec(0u8..5, 4), 3..9),
        learned in 0u8..2,
        kill in 0u8..2,
    ) {
        let predictor = if learned == 0 {
            PredictorKind::Request
        } else {
            PredictorKind::LastKMax { k: 3 }
        };
        let mispredict = if kill == 0 {
            MispredictPolicy::Extend
        } else {
            MispredictPolicy::KillAtRequest
        };
        let weightings = [PriorityWeights::fairshare_only(), PriorityWeights::mixed(), size_heavy()];
        for order in DispatchOrder::ALL {
            for reprio in POLICIES {
                for weights in weightings {
                    run_case(Setup { order, reprio, weights, predictor, mispredict }, &script, &table)?;
                }
            }
        }
    }
}

/// A hand-written script through the edges the scheduler's shortcuts live
/// on, under every order, cadence and overrun policy with `LastKMax`: the
/// oracle must hold throughout, and the runs named below must have been
/// where they were sent. User `a` outranks everyone, `b` ranks last, `c` and
/// the two unmapped accounts tie in between. Only `b`'s factor moves — 0 and
/// 0.25 in turn, epoch by epoch — so a sweep with `b` and another user
/// pending moves some factors but not all, and one without `b` none.
///
/// * t = 0: the unmapped accounts each run a one-core job — 10 s and 60 s —
///   so their shared lane has two histories.
/// * t = 70/80: `a` holds 5 cores until 100, `a`'s 6-wide pivot reserves
///   the machine there; of the two unmapped one-core jobs behind it only the
///   one predicted at 10 s ends in time (carried over, the other's 60 s —
///   clamped to this one's 30 s request — would not).
/// * t = 130: `b`'s 5-wide job asks for half its 70 s, so by t = 170 it has
///   outlived its prediction (`Extend`) or was killed at 165.
/// * t = 170: `a`'s 5-wide job is reserved at the overrun job's "any second
///   now", and `c`'s zero-core job starts behind it on a machine with no
///   core free — or under FIFO waits there, cycle after cycle.
/// * t = 300/310: `a` holds 5 cores, its 6-wide pivot reserves the machine
///   at t = 330; in `d`'s one-core lane the 60 s job that waited since 280
///   would not end in time, the 10 s job behind it does.
/// * t = 450/460: `a` holds 3 cores, its 5-wide pivot leaves one core spare
///   at t = 490; `b`'s two 100 s one-core jobs both fit it, the first
///   backfill start takes it and the second is turned down.
/// * t = 700/720: `c` holds 4 cores until 770; `a`'s 10 s one-core job
///   starts on one of the two free cores, `a`'s 5-wide pivot reserves the
///   machine at 770 with none spare. Behind it `a`'s one-core lane passes
///   its bound (the 10 s job is still in it) but holds only a 100 s job;
///   `b`'s one-core lane, whose 100 s history bounds it, goes whole; and
///   `d`'s 50 s job ends exactly at the shadow and backfills.
#[test]
fn a_script_through_the_edges() {
    let mut script = vec![Vec::new(); 47];
    script[0] = vec![(4, 1, 2, 10.0, 0), (5, 1, 2, 60.0, 0)];
    script[7] = vec![(0, 5, 2, 30.0, 1)];
    script[8] = vec![(0, 6, 2, 30.0, 1), (5, 1, 2, 100.0, 0), (4, 1, 5, 10.0, 0)];
    script[13] = vec![(1, 5, 2, 70.0, 3)];
    script[17] = vec![(0, 5, 2, 20.0, 1), (2, 0, 2, 20.0, 1)];
    script[30] = vec![(0, 5, 2, 40.0, 1)];
    script[31] = vec![(0, 6, 2, 30.0, 1), (3, 1, 0, 60.0, 1), (3, 1, 2, 10.0, 1)];
    script[45] = vec![(0, 3, 2, 40.0, 1)];
    script[46] = vec![(0, 5, 2, 30.0, 1), (1, 1, 2, 100.0, 1), (1, 1, 2, 100.0, 1)];
    script.resize(73, Vec::new());
    script[70] = vec![(2, 4, 2, 70.0, 1)];
    script[72] = vec![
        (0, 1, 0, 10.0, 1),
        (0, 5, 1, 30.0, 1),
        (0, 1, 2, 100.0, 1),
        (1, 1, 2, 100.0, 1),
        (3, 1, 2, 50.0, 1),
    ];
    // Ids are interned in submit order: a, b, c, d.
    let table = [vec![4, 0, 2, 2], vec![4, 1, 2, 2]];
    let run = |order, reprio, mispredict| {
        let setup = Setup {
            order,
            reprio,
            weights: PriorityWeights::fairshare_only(),
            predictor: PredictorKind::LastKMax { k: 3 },
            mispredict,
        };
        run_case(setup, &script, &table).unwrap_or_else(|e| panic!("{setup:?}: {e:?}"))
    };
    for order in DispatchOrder::ALL {
        for reprio in POLICIES {
            let killing = run(order, reprio, MispredictPolicy::KillAtRequest);
            assert_eq!(killing.killed, 1, "{order:?} {reprio:?}");
            run(order, reprio, MispredictPolicy::Extend);
        }
    }
    let every_cycle = ReprioritizePolicy::EveryCycle;
    let easy = run(DispatchOrder::Easy, every_cycle, MispredictPolicy::Extend);
    assert!(easy.mixed_unmapped_lanes >= 1, "{easy:?}");
    assert!(easy.shadows_on_overrun >= 1, "{easy:?}");
    assert!(easy.zero_core_starts_on_full >= 1, "{easy:?}");
    assert!(easy.admitted_behind_a_head >= 1, "{easy:?}");
    assert!(easy.admitted_then_turned_down >= 1, "{easy:?}");
    assert!(easy.lane_rejected_whole >= 1, "{easy:?}");
    assert!(easy.bound_passed_none_admitted >= 1, "{easy:?}");
    assert!(easy.sweeps_none_moved >= 1, "{easy:?}");
    assert!(easy.sweeps_some_moved >= 1, "{easy:?}");
    eprintln!("{easy:?}");
    let fifo = run(DispatchOrder::Fifo, every_cycle, MispredictPolicy::Extend);
    assert!(fifo.full_with_zero_core_pending.1 >= 3, "{fifo:?}");
}
