//! Jobs as seen by the local resource manager.

use aequus_core::{GridUser, JobId, SystemUser};

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobState {
    /// Waiting in the queue.
    Pending,
    /// Executing since the given time.
    Running {
        /// Execution start time, seconds.
        start_s: f64,
    },
    /// Finished.
    Completed {
        /// Execution start time, seconds.
        start_s: f64,
        /// Execution end time, seconds.
        end_s: f64,
    },
}

/// A job in the local resource management system.
///
/// The trace is "comprised exclusively of bag-of-task jobs using a single
/// processor per job" (§IV-3), but multi-core jobs are supported.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Job identity.
    pub id: JobId,
    /// The local system account the job runs under.
    pub system_user: SystemUser,
    /// The grid identity, resolved at submission (global fairshare requires
    /// it "regardless of where the job is being executed", §III-B).
    pub grid_user: Option<GridUser>,
    /// Cores requested.
    pub cores: u32,
    /// Submission time, seconds.
    pub submit_s: f64,
    /// Wall-clock duration once started, seconds (the test-bed replaces
    /// computation with idle waits of this length).
    pub duration_s: f64,
    /// Requested walltime, seconds — the user's declared upper bound, which
    /// backfill reservations and kill-at-limit enforcement are based on.
    /// Defaults to `duration_s` (a perfectly honest request).
    pub request_s: f64,
    /// Current state.
    pub state: JobState,
}

impl Job {
    /// Create a pending job.
    pub fn new(
        id: JobId,
        system_user: SystemUser,
        cores: u32,
        submit_s: f64,
        duration_s: f64,
    ) -> Self {
        Self {
            id,
            system_user,
            grid_user: None,
            cores,
            submit_s,
            duration_s,
            request_s: duration_s,
            state: JobState::Pending,
        }
    }

    /// Set the requested walltime (builder style). Requests below the true
    /// duration model under-requesting users; above, padded requests.
    pub fn with_request(mut self, request_s: f64) -> Self {
        self.request_s = request_s;
        self
    }

    /// Time spent waiting in the queue as of `now_s` (0 once running).
    pub fn wait_time(&self, now_s: f64) -> f64 {
        match self.state {
            JobState::Pending => (now_s - self.submit_s).max(0.0),
            JobState::Running { start_s } | JobState::Completed { start_s, .. } => {
                (start_s - self.submit_s).max(0.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_time_by_state() {
        let mut j = Job::new(JobId(1), SystemUser::new("u"), 1, 100.0, 50.0);
        assert_eq!(j.wait_time(130.0), 30.0);
        j.state = JobState::Running { start_s: 120.0 };
        assert_eq!(j.wait_time(500.0), 20.0);
        j.state = JobState::Completed {
            start_s: 120.0,
            end_s: 170.0,
        };
        assert_eq!(j.wait_time(999.0), 20.0);
    }

    #[test]
    fn wait_never_negative() {
        let j = Job::new(JobId(1), SystemUser::new("u"), 1, 100.0, 50.0);
        assert_eq!(j.wait_time(50.0), 0.0);
    }
}
