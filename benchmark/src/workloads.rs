//! The four benchmark workloads: generated `(Trace, GridScenario)` pairs.
//!
//! Each exists because it loads a different set of layers (see README.md,
//! "Workloads"): the program under test receives only the generated inputs,
//! never the seed-to-input mapping, and nothing here depends on
//! `aequus-bench` — the benchmark's inputs must not move when that crate is
//! refactored.

use aequus_core::codec::Encoding;
use aequus_core::policy::{flat_policy, PolicyNode, PolicyTree};
use aequus_core::projection::ProjectionKind;
use aequus_rms::{DispatchConfig, DispatchOrder, MispredictPolicy, PredictorKind};
use aequus_services::{OverlayTopology, ParticipationMode, RetryPolicy, ServiceTimings};
use aequus_sim::{ClusterSpec, GridScenario, Outage, RmsKind};
use aequus_workload::generate::{test_trace, TestTraceConfig};
use aequus_workload::users::baseline_policy_shares;
use aequus_workload::{Trace, TraceJob};
use std::time::Instant;

/// Workload names, in the order a set interleaves them.
pub const NAMES: [&str; 4] = ["wide_mesh", "paper_x3", "chaos_tree", "vo_burst"];

/// Why each workload exists, in [`NAMES`] order (the manifest's `why`).
pub const WHY: [&str; 4] = [
    "10k users, 7k jobs, 16 fault-free sites: cost is set by user count (sampling, FCS, USS publish/merge); the RMS idles",
    "the paper's 4-user test bed on 3 paper-lengths of its trace (129.6k jobs): RMS, libaequus, USS ingest and the event queue; FCS/UMS idle",
    "3k users, 10 sites under drops, partitions and crashes with WAL, tree overlay, Delta codec: the services' retry/repair/recovery side",
    "64 users in a 3-level VO tree, 28k mixed-width jobs at 2.7x overload, Maui sites, EASY+LastKMax: deep-queue dispatch and hierarchical vectors",
];

/// Input size: the measured shape, or a seconds-scale shape of the same
/// generator for `cargo test`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The shape the benchmark measures.
    Full,
    /// Same generator, small counts (tests only; never measured).
    Tiny,
}

/// One generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, one of [`NAMES`].
    pub name: &'static str,
    /// The job trace.
    pub trace: Trace,
    /// The grid it runs on (serial engine, telemetry off).
    pub scenario: GridScenario,
    /// Seconds simulated past the last submission.
    pub drain_s: f64,
    /// Wall seconds spent inside the product's own trace generator
    /// (`aequus_workload::test_trace`); zero for benchmark-owned generators.
    pub generate_s: f64,
}

/// xorshift64* (Vigna 2016): the benchmark-owned generators' only source of
/// randomness, so their inputs depend on `--seed` and nothing else.
#[derive(Debug, Clone)]
pub struct XorShift64Star(u64);

impl XorShift64Star {
    /// Seeded generator; the seed is mixed so small seeds do not start in a
    /// low-entropy state, and never yields the all-zero state.
    pub fn new(seed: u64) -> Self {
        let mixed = seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        Self(if mixed == 0 {
            0x2545_F491_4F6C_DD1D
        } else {
            mixed
        })
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Build workload `name` from `seed`; `None` for an unknown name.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Workload> {
    match name {
        "wide_mesh" => Some(wide_mesh(seed, size)),
        "paper_x3" => Some(paper_x3(seed, size)),
        "chaos_tree" => Some(chaos_tree(seed, size)),
        "vo_burst" => Some(vo_burst(seed, size)),
        _ => None,
    }
}

fn equal_share_policy(users: usize) -> (Vec<String>, PolicyTree) {
    let names: Vec<String> = (0..users).map(|i| format!("u{i:06}")).collect();
    let share = 1.0 / users as f64;
    let shares: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), share)).collect();
    let policy = flat_policy(&shares).expect("equal positive shares form a valid policy");
    (names, policy)
}

fn uniform_fleet(sites: usize, nodes: u32, cores_per_node: u32) -> Vec<ClusterSpec> {
    let site = ClusterSpec {
        nodes,
        cores_per_node,
        participation: ParticipationMode::Full,
        rms: RmsKind::Slurm,
        policy_override: None,
    };
    vec![site; sites]
}

/// Many users, few jobs each: per-event cost is set by the user count
/// (sampling, divergence, FCS refresh, USS publish/merge); the RMS idles.
fn wide_mesh(seed: u64, size: Size) -> Workload {
    let (users, sites, hosts, jobs) = match size {
        Size::Full => (10_000, 16, 16, 7_000),
        Size::Tiny => (150, 4, 4, 120),
    };
    let (names, policy) = equal_share_policy(users);
    let mut scenario = GridScenario::national_testbed(&[("u", 1.0)], seed)
        .with_policy(policy)
        .with_metrics_user_cap(8);
    scenario.clusters = uniform_fleet(sites, hosts, 1);
    let trace = Trace::new(
        (0..jobs)
            .map(|i| TraceJob {
                user: names[i % users].clone(),
                submit_s: i as f64 * 3600.0 / jobs as f64,
                duration_s: 120.0,
                cores: 1,
            })
            .collect(),
    );
    Workload {
        name: "wide_mesh",
        trace,
        scenario,
        drain_s: 1800.0,
        generate_s: 0.0,
    }
}

/// The paper's test bed unchanged, on three paper-lengths of the paper's
/// fitted trace model: four users, many jobs, long usage history — RMS,
/// `libaequus`, USS ingest and the event queue do the work.
fn paper_x3(seed: u64, size: Size) -> Workload {
    let (total_jobs, test_len_s, drain_s) = match size {
        Size::Full => (129_600, 64_800.0, 7_200.0),
        // The fitted duration model is heavy-tailed: the tiny shape needs a
        // drain long enough for its one multi-hour job.
        Size::Tiny => (1_200, 1_800.0, 30_000.0),
    };
    let scenario = GridScenario::national_testbed(&baseline_policy_shares(), seed);
    let started = Instant::now();
    let trace = test_trace(&TestTraceConfig {
        total_jobs,
        test_len_s,
        load_target: 0.95,
        capacity_cores: scenario.total_cores(),
        seed,
        ..TestTraceConfig::default()
    });
    let generate_s = started.elapsed().as_secs_f64();
    Workload {
        name: "paper_x3",
        trace,
        scenario,
        drain_s,
        generate_s,
    }
}

/// The write/repair side of the services: drops, partitions, crashes, a
/// durable store, a relay overlay and the Delta codec under compressed
/// timings.
fn chaos_tree(seed: u64, size: Size) -> Workload {
    let (users, hosts, jobs) = match size {
        Size::Full => (3_000, 8, 4_000),
        Size::Tiny => (60, 2, 240),
    };
    let (names, policy) = equal_share_policy(users);
    let mut scenario = GridScenario::national_testbed(&[("u", 1.0)], seed)
        .with_policy(policy)
        .with_metrics_user_cap(8)
        .with_durable_store()
        .with_overlay(OverlayTopology::Tree { fanout: 3 })
        .with_encoding(Encoding::Delta);
    scenario.clusters = uniform_fleet(10, hosts, 1);
    scenario.timings = ServiceTimings {
        report_delay_s: 5.0,
        uss_publish_interval_s: 30.0,
        ums_refresh_interval_s: 30.0,
        fcs_refresh_interval_s: 30.0,
        lib_cache_ttl_s: 10.0,
        lib_identity_ttl_s: 60.0,
        exchange_latency_s: 5.0,
    };
    scenario.usage_slot_s = 60.0;
    scenario.tick_interval_s = 5.0;
    scenario.retry = RetryPolicy {
        ack_timeout_s: 15.0,
        max_backoff_s: 60.0,
        jitter_frac: 0.2,
        history_cap: 12,
        outbox_cap: 16,
    };
    scenario.faults.drop_probability = 0.10;
    let window = |cluster, from_s, to_s| Outage {
        cluster,
        from_s,
        to_s,
    };
    scenario.faults.outages = vec![window(1, 600.0, 1200.0), window(5, 2400.0, 3000.0)];
    scenario.faults.crashes = vec![window(2, 1500.0, 2100.0), window(7, 4000.0, 4600.0)];
    let trace = Trace::new(
        (0..jobs)
            .map(|i| TraceJob {
                user: names[i % users].clone(),
                submit_s: i as f64 * 7200.0 / jobs as f64,
                duration_s: 60.0 + 30.0 * (i % 5) as f64,
                cores: 1,
            })
            .collect(),
    );
    Workload {
        name: "chaos_tree",
        trace,
        scenario,
        drain_s: 1800.0,
        generate_s: 0.0,
    }
}

/// Job widths and base durations of the `vo_burst` mix, cycled by job index.
const VO_WIDTHS: [u32; 10] = [1, 1, 2, 4, 1, 8, 2, 16, 1, 32];
const VO_DURATIONS_S: [f64; 10] = [12.0, 6.0, 30.0, 60.0, 9.0, 90.0, 24.0, 120.0, 4.5, 180.0];

/// Deep queues of mixed-width jobs under a three-level share tree: the
/// reprioritisation, dispatch-plan, runtime-prediction, Maui and
/// hierarchical-vector code the other three workloads never reach.
fn vo_burst(seed: u64, size: Size) -> Workload {
    let (jobs, span_s, drain_s) = match size {
        Size::Full => (28_000, 16_800.0, 48_000.0),
        Size::Tiny => (1_000, 600.0, 6_000.0),
    };
    let mut names = Vec::with_capacity(64);
    let vos = [0.4, 0.3, 0.2, 0.1]
        .iter()
        .enumerate()
        .map(|(v, &vo_share)| {
            let projects = (0..4)
                .map(|p| {
                    let members = (0..4)
                        .map(|u| {
                            let name = format!("vo{v}p{p}u{u}");
                            names.push(name.clone());
                            PolicyNode::user(name, (u + 1) as f64)
                        })
                        .collect();
                    PolicyNode::group(format!("vo{v}p{p}"), (p + 1) as f64, members)
                })
                .collect();
            PolicyNode::group(format!("vo{v}"), vo_share, projects)
        })
        .collect();
    let policy =
        PolicyTree::new(PolicyNode::group("root", 1.0, vos)).expect("static three-level policy");
    let mut scenario = GridScenario::national_testbed(&[("u", 1.0)], seed)
        .with_policy(policy)
        .with_dispatch(DispatchConfig {
            order: DispatchOrder::Easy,
            predictor: PredictorKind::LastKMax { k: 5 },
            mispredict: MispredictPolicy::default(),
        })
        .with_request_factor(1.5);
    scenario.projection = ProjectionKind::Dictionary;
    scenario.clusters = uniform_fleet(4, 8, 16);
    scenario.clusters[1].rms = RmsKind::Maui;
    scenario.clusters[3].rms = RmsKind::Maui;
    let mut rng = XorShift64Star::new(seed);
    let trace = Trace::new(
        (0..jobs)
            .map(|i| {
                let user = (rng.unit() * rng.unit() * names.len() as f64) as usize;
                TraceJob {
                    user: names[user.min(names.len() - 1)].clone(),
                    submit_s: rng.unit() * span_s,
                    duration_s: VO_DURATIONS_S[i % 10] * (0.5 + rng.unit()),
                    cores: VO_WIDTHS[i % 10],
                }
            })
            .collect(),
    );
    Workload {
        name: "vo_burst",
        trace,
        scenario,
        drain_s,
        generate_s: 0.0,
    }
}
