//! Parallel parameter sweeps and the shared trace builders.
//!
//! Two kinds of parallelism live here. [`parallel_sweep`] runs many
//! *independent* simulations concurrently (ablations, seed matrices); a
//! single run's internal parallelism is the sharded engine's job
//! (`GridScenario::with_threads`), and any combination of the two is
//! deterministic. The trace helpers build the cycling four-user traces the
//! experiments share; the recurring scenario shapes (the compressed 3-site
//! chaos grid, the tight retry policy) are `GridScenario`'s own builder.

use aequus_workload::{Trace, TraceJob};
use std::sync::Mutex;

/// The four model users every synthetic sweep trace cycles through — the
/// paper's usage-share quartet.
pub const SWEEP_USERS: [&str; 4] = ["U65", "U30", "U3", "Uoth"];

/// A trace cycling jobs over `users` with caller-supplied submit/duration
/// schedules (all single-core, the test bed's virtual-host shape).
pub fn cycle_trace<S: AsRef<str>>(
    users: &[S],
    jobs: usize,
    submit_s: impl Fn(usize) -> f64,
    duration_s: impl Fn(usize) -> f64,
) -> Trace {
    Trace::new(
        (0..jobs)
            .map(|i| TraceJob {
                user: users[i % users.len()].as_ref().to_string(),
                submit_s: submit_s(i),
                duration_s: duration_s(i),
                cores: 1,
            })
            .collect(),
    )
}

/// The fixed-cadence sweep workload: one `duration_s` single-core job every
/// `interval_s`, users cycling through [`SWEEP_USERS`]. Bounded on purpose —
/// convergence sweeps need the grid to quiesce.
pub fn uniform_trace(jobs: usize, interval_s: f64, duration_s: f64) -> Trace {
    cycle_trace(
        &SWEEP_USERS,
        jobs,
        |i| i as f64 * interval_s,
        |_| duration_s,
    )
}

/// Run `f` over every parameter in parallel (one thread per parameter, which
/// is the right shape for a handful of multi-second simulation runs) and
/// return the results in input order.
pub fn parallel_sweep<P, R, F>(params: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..params.len()).map(|_| None).collect());
    let panicked = std::thread::scope(|scope| {
        let handles: Vec<_> = params
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let results = &results;
                let f = &f;
                scope.spawn(move || {
                    let r = f(p);
                    results.lock().expect("sweep mutex poisoned")[i] = Some(r);
                })
            })
            .collect();
        handles.into_iter().any(|h| h.join().is_err())
    });
    assert!(!panicked, "sweep worker panicked");
    results
        .into_inner()
        .expect("sweep mutex poisoned")
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order() {
        let params: Vec<u64> = (0..16).collect();
        let out = parallel_sweep(&params, |&p| p * p);
        assert_eq!(out, params.iter().map(|p| p * p).collect::<Vec<_>>());
    }

    #[test]
    fn borrows_shared_context() {
        let shared = vec![1.0f64; 1000];
        let params = [2.0f64, 3.0, 4.0];
        let out = parallel_sweep(&params, |&p| shared.iter().sum::<f64>() * p);
        assert_eq!(out, vec![2000.0, 3000.0, 4000.0]);
    }

    #[test]
    fn empty_params() {
        let out: Vec<u32> = parallel_sweep::<u32, u32, _>(&[], |&p| p);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "sweep worker panicked")]
    fn worker_panic_propagates() {
        parallel_sweep(&[1], |_| -> u32 { panic!("boom") });
    }

    #[test]
    fn uniform_trace_cycles_users_on_cadence() {
        let t = uniform_trace(8, 15.0, 40.0);
        assert_eq!(t.jobs().len(), 8);
        assert_eq!(t.jobs()[0].user, "U65");
        assert_eq!(t.jobs()[4].user, "U65");
        assert_eq!(t.jobs()[5].submit_s, 75.0);
        assert!(t
            .jobs()
            .iter()
            .all(|j| j.duration_s == 40.0 && j.cores == 1));
    }
}
