//! Runtime prediction for backfill candidate selection.
//!
//! Backfill quality hinges on how well the scheduler can guess job
//! runtimes: user walltime requests are notoriously padded, which makes
//! shadow-time reservations pessimistic and shrinks backfill windows. This
//! module provides per-user/per-width-class historical estimators that
//! replace the raw request in backfill decisions, plus the misprediction
//! accounting an RMS needs when a prediction (or the request itself) turns
//! out too short — kill at the requested limit or let the job run on.
//!
//! The default [`PredictorKind::Request`] trusts the request verbatim, which
//! reproduces classic EASY behavior bit-for-bit when requests equal true
//! runtimes (as in the paper's idle-wait test bed).

use crate::job::Job;
use aequus_telemetry::{Counter, Histogram, Telemetry};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Smallest runtime a predictor will ever emit, seconds. Keeps shadow-time
/// arithmetic away from zero-length degeneracies.
pub const MIN_PREDICTION_S: f64 = 1e-3;

/// Which estimator backs runtime prediction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PredictorKind {
    /// Trust the user's walltime request verbatim (classic EASY input).
    #[default]
    Request,
    /// Capped running average of observed runtimes per class: the mean
    /// update weight never drops below `1/cap`, so the estimate keeps
    /// tracking drifting workloads instead of freezing.
    RunningAverage {
        /// Effective sample-count cap (≥ 1).
        cap: u32,
    },
    /// Maximum over the last `k` observed runtimes per class — a
    /// conservative estimator that rarely underestimates.
    LastKMax {
        /// Window length (≥ 1).
        k: usize,
    },
}

impl PredictorKind {
    /// Short label for tables and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::Request => "request",
            PredictorKind::RunningAverage { .. } => "running-avg",
            PredictorKind::LastKMax { .. } => "last-k-max",
        }
    }
}

/// What to do when a job reaches its requested walltime without finishing
/// (the request — not the prediction — is the enforceable contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MispredictPolicy {
    /// Let the job run to its true duration; the overrun is counted but
    /// not enforced (lenient sites).
    #[default]
    Extend,
    /// Kill the job at the requested walltime, as production RMSs do. The
    /// truncated runtime is what gets charged and observed.
    KillAtRequest,
}

/// Aggregate prediction-accuracy accounting.
#[derive(Debug, Clone, Default)]
pub struct PredictionStats {
    /// Completed jobs whose start-time prediction was scored.
    pub scored: u64,
    /// Predictions strictly below the actual runtime.
    pub underestimates: u64,
    /// Predictions strictly above the actual runtime.
    pub overestimates: u64,
    /// Jobs killed at their requested walltime.
    pub kills: u64,
    /// Sum of |predicted − actual| / actual over scored jobs.
    pub abs_rel_err_sum: f64,
}

/// Pre-registered prediction metric handles (no-ops until wired).
#[derive(Debug, Clone, Default)]
struct PredictMetrics {
    scored: Counter,
    underestimates: Counter,
    kills: Counter,
    h_rel_err: Histogram,
}

impl PredictMetrics {
    fn wire(t: &Telemetry) -> Self {
        Self {
            scored: t.counter("aequus_rms_predictions_total"),
            underestimates: t.counter("aequus_rms_underestimates_total"),
            kills: t.counter("aequus_rms_predict_kills_total"),
            h_rel_err: t.histogram("aequus_rms_predict_rel_err"),
        }
    }
}

/// Per-class estimator state.
#[derive(Debug, Clone, Default)]
struct ClassHistory {
    count: u64,
    mean: f64,
    last_k: VecDeque<f64>,
}

/// The runtime predictor: estimator state and misprediction accounting.
#[derive(Debug)]
pub struct RuntimePredictor {
    kind: PredictorKind,
    mispredict: MispredictPolicy,
    /// One history per prediction class — power-of-two width bucket, then
    /// user name — so a user's wide jobs don't pollute the estimate for
    /// their serial ones. Nested so that lookups borrow the name.
    classes: BTreeMap<u32, BTreeMap<String, ClassHistory>>,
    /// Accuracy accounting.
    pub stats: PredictionStats,
    metrics: PredictMetrics,
}

/// A job's prediction class: (grid, else system) user name, width bucket.
fn class_of(job: &Job) -> (&str, u32) {
    let user = match &job.grid_user {
        Some(user) => user.as_str(),
        None => job.system_user.as_str(),
    };
    (user, job.cores.max(1).next_power_of_two())
}

impl RuntimePredictor {
    /// Create a predictor with the given estimator and overrun policy.
    pub fn new(kind: PredictorKind, mispredict: MispredictPolicy) -> Self {
        Self {
            kind,
            mispredict,
            classes: BTreeMap::new(),
            stats: PredictionStats::default(),
            metrics: PredictMetrics::default(),
        }
    }

    /// Wire prediction metrics into a telemetry registry.
    pub fn set_telemetry(&mut self, t: &Telemetry) {
        self.metrics = PredictMetrics::wire(t);
    }

    /// The raw estimate of `job`'s prediction class, `None` while the class
    /// has no history (or the estimator is the request echo): constant
    /// across the jobs of one class, so a walk reads it once per lane.
    pub fn history_estimate(&self, job: &Job) -> Option<f64> {
        let history = || {
            let (user, width) = class_of(job);
            self.classes.get(&width)?.get(user)
        };
        match self.kind {
            PredictorKind::Request => None,
            PredictorKind::RunningAverage { .. } => {
                history().filter(|h| h.count > 0).map(|h| h.mean)
            }
            PredictorKind::LastKMax { .. } => history()
                .filter(|h| !h.last_k.is_empty())
                .map(|h| h.last_k.iter().copied().fold(0.0, f64::max)),
        }
    }

    /// Predicted runtime of a queued job given its class's
    /// [`Self::history_estimate`] (the request where there is none), clamped
    /// to `[MIN_PREDICTION_S, request]` — the request stays an upper bound
    /// because the job cannot be *scheduled* for longer than its contract.
    pub fn predict_from(estimate: Option<f64>, job: &Job) -> f64 {
        let request = job.request_s.max(MIN_PREDICTION_S);
        estimate.unwrap_or(request).clamp(MIN_PREDICTION_S, request)
    }

    /// Predicted runtime for a queued job.
    pub fn predict(&self, job: &Job) -> f64 {
        Self::predict_from(self.history_estimate(job), job)
    }

    /// The wall-clock a starting job will actually occupy its cores for: the
    /// true duration, or the requested limit when
    /// [`MispredictPolicy::KillAtRequest`] truncates an overrunning job. The
    /// bool reports whether the job was killed.
    pub fn on_start(&mut self, job: &Job) -> (f64, bool) {
        if self.mispredict == MispredictPolicy::KillAtRequest && job.duration_s > job.request_s {
            self.stats.kills += 1;
            self.metrics.kills.inc();
            (job.request_s, true)
        } else {
            (job.duration_s, false)
        }
    }

    /// Score `predicted_s`, the prediction `job` started under (its running
    /// entry carries it), against the observed runtime and feed the
    /// observation back into the class history. `actual_s` is the runtime as
    /// it happened (post-kill truncation).
    pub fn on_complete(&mut self, job: &Job, predicted_s: f64, actual_s: f64) {
        let actual = actual_s.max(MIN_PREDICTION_S);
        let rel_err = (predicted_s - actual).abs() / actual;
        self.stats.scored += 1;
        self.stats.abs_rel_err_sum += rel_err;
        self.metrics.scored.inc();
        self.metrics.h_rel_err.record(rel_err);
        if predicted_s < actual {
            self.stats.underestimates += 1;
            self.metrics.underestimates.inc();
        } else if predicted_s > actual {
            self.stats.overestimates += 1;
        }
        let (user, width) = class_of(job);
        let users = self.classes.entry(width).or_default();
        let history = match users.get_mut(user) {
            Some(history) => history,
            None => users.entry(user.to_string()).or_default(),
        };
        history.count += 1;
        match self.kind {
            PredictorKind::Request => {}
            PredictorKind::RunningAverage { cap } => {
                let n = history.count.min(cap.max(1) as u64) as f64;
                history.mean += (actual_s - history.mean) / n;
            }
            PredictorKind::LastKMax { k } => {
                history.last_k.push_back(actual_s);
                while history.last_k.len() > k.max(1) {
                    history.last_k.pop_front();
                }
            }
        }
    }
}

/// Believed completion time of a job started at `start_s` under the
/// prediction `predicted_s`: their sum, pushed ahead of `now_s` when the job
/// has already outlived its prediction (the scheduler then believes it ends
/// "any second now" and re-evaluates next cycle).
pub fn believed_end(start_s: f64, predicted_s: f64, now_s: f64) -> f64 {
    let end = start_s + predicted_s;
    if end > now_s {
        end
    } else {
        now_s + MIN_PREDICTION_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_core::{JobId, SystemUser};

    fn job(id: u64, cores: u32, dur: f64, req: f64) -> Job {
        Job::new(JobId(id), SystemUser::new("u"), cores, 0.0, dur).with_request(req)
    }

    #[test]
    fn request_predictor_echoes_request() {
        let p = RuntimePredictor::new(PredictorKind::Request, MispredictPolicy::Extend);
        assert_eq!(p.predict(&job(1, 1, 50.0, 300.0)), 300.0);
    }

    #[test]
    fn running_average_learns_and_clamps_to_request() {
        let mut p = RuntimePredictor::new(
            PredictorKind::RunningAverage { cap: 10 },
            MispredictPolicy::Extend,
        );
        // No history yet: fall back to the request.
        assert_eq!(p.predict(&job(1, 1, 50.0, 300.0)), 300.0);
        for i in 0..4 {
            p.on_complete(&job(i, 1, 100.0, 300.0), 300.0, 100.0);
        }
        let est = p.predict(&job(9, 1, 50.0, 300.0));
        assert!(
            (est - 100.0).abs() < 1e-9,
            "learned the true runtime: {est}"
        );
        // A tiny request still caps the prediction.
        assert_eq!(p.predict(&job(10, 1, 50.0, 30.0)), 30.0);
    }

    #[test]
    fn classes_keep_widths_apart() {
        let mut p = RuntimePredictor::new(
            PredictorKind::RunningAverage { cap: 10 },
            MispredictPolicy::Extend,
        );
        p.on_complete(&job(1, 1, 10.0, 300.0), 300.0, 10.0);
        p.on_complete(&job(2, 8, 200.0, 300.0), 300.0, 200.0);
        assert!((p.predict(&job(3, 1, 0.0, 300.0)) - 10.0).abs() < 1e-9);
        assert!((p.predict(&job(4, 8, 0.0, 300.0)) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn last_k_max_is_conservative() {
        let mut p =
            RuntimePredictor::new(PredictorKind::LastKMax { k: 3 }, MispredictPolicy::Extend);
        for (i, d) in [10.0, 90.0, 20.0, 30.0].iter().enumerate() {
            p.on_complete(&job(i as u64, 1, *d, 300.0), 300.0, *d);
        }
        // Window is [90, 20, 30] → max 90.
        assert_eq!(p.predict(&job(9, 1, 0.0, 300.0)), 90.0);
        p.on_complete(&job(5, 1, 5.0, 300.0), 300.0, 5.0);
        // Window slides to [20, 30, 5] → max 30.
        assert_eq!(p.predict(&job(9, 1, 0.0, 300.0)), 30.0);
    }

    #[test]
    fn kill_at_request_truncates_and_counts() {
        let mut p = RuntimePredictor::new(PredictorKind::Request, MispredictPolicy::KillAtRequest);
        let j = job(1, 1, 100.0, 60.0); // under-requested
        let (run_for, killed) = p.on_start(&j);
        assert!(killed);
        assert_eq!(run_for, 60.0);
        assert_eq!(p.stats.kills, 1);
        let ok = job(2, 1, 50.0, 60.0);
        let (run_for, killed) = p.on_start(&ok);
        assert!(!killed);
        assert_eq!(run_for, 50.0);
    }

    #[test]
    fn accuracy_accounting_scores_completions() {
        let mut p = RuntimePredictor::new(PredictorKind::Request, MispredictPolicy::Extend);
        let j = job(1, 1, 100.0, 300.0);
        // Predicted 300, actual 100 → overestimate, rel err 2.0.
        p.on_complete(&j, p.predict(&j), 100.0);
        assert_eq!(p.stats.scored, 1);
        assert_eq!(p.stats.overestimates, 1);
        assert_eq!(p.stats.underestimates, 0);
        assert!((p.stats.abs_rel_err_sum - 2.0).abs() < 1e-9);
    }

    #[test]
    fn believed_end_never_in_the_past() {
        let p = RuntimePredictor::new(PredictorKind::Request, MispredictPolicy::Extend);
        let predicted_s = p.predict(&job(1, 1, 100.0, 50.0)); // request shorter than truth
        assert_eq!(believed_end(0.0, predicted_s, 20.0), 50.0);
        // At t=80 the job outlived its 50 s prediction: believed end stays
        // ahead of now, and exactly at the end it is already overdue.
        assert_eq!(
            believed_end(0.0, predicted_s, 80.0),
            80.0 + MIN_PREDICTION_S
        );
        assert_eq!(
            believed_end(0.0, predicted_s, 50.0),
            50.0 + MIN_PREDICTION_S
        );
    }

    #[test]
    fn predict_is_its_two_halves() {
        let mut p =
            RuntimePredictor::new(PredictorKind::LastKMax { k: 2 }, MispredictPolicy::Extend);
        let queued = job(9, 1, 0.0, 40.0);
        assert_eq!(p.history_estimate(&queued), None);
        assert_eq!(RuntimePredictor::predict_from(None, &queued), 40.0);
        p.on_complete(&job(1, 1, 90.0, 300.0), 300.0, 90.0);
        // The estimate is the class's, the clamp the job's.
        assert_eq!(p.history_estimate(&queued), Some(90.0));
        assert_eq!(p.predict(&queued), 40.0);
        assert_eq!(p.predict(&job(10, 1, 0.0, 300.0)), 90.0);
    }
}
