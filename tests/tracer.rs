//! The pipeline-delay tracer's values, pinned: on a two-site instrumented
//! grid — fault-free, and with one site crashing mid-run — every site's six
//! `aequus_tracer_*` histograms (count, and the bits of sum and max) and
//! its three counters must read exactly the recorded constants. Moving
//! where the tracer lives, or what it keys its records by, must not move a
//! delay it measures.

use aequus::core::policy::flat_policy;
use aequus::sim::{GridScenario, GridSimulation, Outage};
use aequus::telemetry::Snapshot;
use aequus::workload::users::baseline_policy_shares;
use aequus::workload::{Trace, TraceJob};

const HISTOGRAMS: [&str; 6] = [
    "aequus_tracer_report_delay_s",
    "aequus_tracer_publish_delay_s",
    "aequus_tracer_ums_delay_s",
    "aequus_tracer_fcs_delay_s",
    "aequus_tracer_lib_delay_s",
    "aequus_tracer_end_to_end_s",
];

const COUNTERS: [&str; 3] = [
    "aequus_tracer_sampled_total",
    "aequus_tracer_completed_total",
    "aequus_tracer_evicted_total",
];

const PAPER: [&str; 4] = ["U65", "U30", "U3", "Uoth"];

/// One site's tracer: per histogram `(count, sum bits, max bits)`, then the
/// three counters.
type Pinned = ([(u64, u64, u64); 6], [u64; 3]);

fn sustained_trace(n: usize, users: &[&str]) -> Trace {
    Trace::new(
        (0..n)
            .map(|i| TraceJob {
                user: users[i % users.len()].to_string(),
                submit_s: i as f64 * 10.0,
                duration_s: 30.0,
                cores: 1,
            })
            .collect(),
    )
}

fn instrumented_grid() -> GridScenario {
    let mut sc = GridScenario::national_testbed(&baseline_policy_shares(), 7).with_telemetry();
    sc.clusters.truncate(2);
    for c in &mut sc.clusters {
        c.nodes = 4;
    }
    sc
}

fn pinned(snap: &Snapshot) -> Pinned {
    let h = HISTOGRAMS.map(|name| {
        let h = snap.histograms[name];
        (h.count, h.sum.to_bits(), h.max.to_bits())
    });
    (h, COUNTERS.map(|name| snap.counters[name]))
}

fn tracer_values(sc: GridScenario, trace: &Trace, horizon_s: f64) -> Vec<Pinned> {
    let result = GridSimulation::new(sc).run(trace, horizon_s);
    result.site_telemetry.iter().map(pinned).collect()
}

#[test]
fn tracer_values_are_pinned_on_the_instrumented_grid() {
    let got = tracer_values(instrumented_grid(), &sustained_trace(160, &PAPER), 2000.0);
    assert_eq!(got, FAULT_FREE, "got {got:?}");
}

#[test]
fn tracer_values_are_pinned_across_a_site_crash() {
    let mut sc = instrumented_grid();
    sc.faults.crashes.push(Outage {
        cluster: 1,
        from_s: 400.0,
        to_s: 700.0,
    });
    let got = tracer_values(sc, &sustained_trace(160, &PAPER), 2000.0);
    assert_eq!(got, CRASHED, "got {got:?}");
}

/// Every site of the full test bed, site 1 enforcing a policy that leaves
/// `Uoth` out: there `Uoth`'s records are reported, ingested, published and
/// refreshed like any other, but no leaf serves it a factor, so none of
/// them completes the lib stage.
#[test]
fn tracer_values_are_pinned_on_the_full_test_bed_with_an_outside_user() {
    let mut sc = GridScenario::national_testbed(&baseline_policy_shares(), 7).with_telemetry();
    let without_uoth = flat_policy(&[("U65", 0.65), ("U30", 0.3), ("U3", 0.05)]);
    sc.clusters[1].policy_override = Some(without_uoth.expect("a valid policy"));
    let got = tracer_values(sc, &sustained_trace(1_200, &PAPER), 14_000.0);
    assert_eq!(got, FULL_TEST_BED, "got {got:?}");
}

const FAULT_FREE: [Pinned; 2] = [
    (
        [
            (11, 0x405b800000000000, 0x4024000000000000),
            (11, 0x4088b00000000000, 0x4065400000000000),
            (11, 0x4088b00000000000, 0x4065400000000000),
            (11, 0x0000000000000000, 0x0000000000000000),
            (10, 0x4086800000000000, 0x4066800000000000),
            (10, 0x4098100000000000, 0x406f400000000000),
        ],
        [11, 10, 0],
    ),
    (
        [
            (10, 0x4059000000000000, 0x4024000000000000),
            (10, 0x408d600000000000, 0x4061800000000000),
            (10, 0x408d600000000000, 0x4061800000000000),
            (10, 0x0000000000000000, 0x0000000000000000),
            (9, 0x408a900000000000, 0x4062c00000000000),
            (9, 0x409ce80000000000, 0x4072200000000000),
        ],
        [10, 9, 0],
    ),
];

const CRASHED: [Pinned; 2] = [
    (
        [
            (11, 0x405b800000000000, 0x4024000000000000),
            (11, 0x4088b00000000000, 0x4065400000000000),
            (11, 0x4088b00000000000, 0x4065400000000000),
            (11, 0x0000000000000000, 0x0000000000000000),
            (10, 0x4086800000000000, 0x4066800000000000),
            (10, 0x4098100000000000, 0x406f400000000000),
        ],
        [11, 10, 0],
    ),
    (
        [
            (10, 0x407e000000000000, 0x4071800000000000),
            (10, 0x408d600000000000, 0x4067c00000000000),
            (10, 0x4087c00000000000, 0x4064000000000000),
            (10, 0x0000000000000000, 0x0000000000000000),
            (9, 0x4082700000000000, 0x4075e00000000000),
            (9, 0x409c480000000000, 0x407c200000000000),
        ],
        [10, 9, 0],
    ),
];

const FULL_TEST_BED: [Pinned; 6] = [
    (
        [
            (25, 0x406f400000000000, 0x4024000000000000),
            (25, 0x40a0680000000000, 0x4065400000000000),
            (25, 0x40a0680000000000, 0x4065400000000000),
            (25, 0x0000000000000000, 0x0000000000000000),
            (25, 0x40b89c0000000000, 0x4087c00000000000),
            (25, 0x40c0e50000000000, 0x408d100000000000),
        ],
        [25, 25, 0],
    ),
    (
        [
            (29, 0x4072200000000000, 0x4024000000000000),
            (29, 0x40a6e40000000000, 0x4065400000000000),
            (29, 0x40a6e40000000000, 0x4065400000000000),
            (29, 0x0000000000000000, 0x0000000000000000),
            (19, 0x40b2ca0000000000, 0x408db00000000000),
            (19, 0x40bb4e0000000000, 0x4091a80000000000),
        ],
        [29, 19, 0],
    ),
    (
        [
            (24, 0x406e000000000000, 0x4024000000000000),
            (24, 0x40a1080000000000, 0x4062c00000000000),
            (24, 0x40a1080000000000, 0x4062c00000000000),
            (24, 0x0000000000000000, 0x0000000000000000),
            (24, 0x40b07c0000000000, 0x4086d00000000000),
            (24, 0x40b9f00000000000, 0x4088100000000000),
        ],
        [24, 24, 0],
    ),
    (
        [
            (26, 0x4070400000000000, 0x4024000000000000),
            (26, 0x40a3c40000000000, 0x4065400000000000),
            (26, 0x40a3c40000000000, 0x4065400000000000),
            (26, 0x0000000000000000, 0x0000000000000000),
            (25, 0x40b5220000000000, 0x4081800000000000),
            (25, 0x40bfc20000000000, 0x4085900000000000),
        ],
        [26, 25, 0],
    ),
    (
        [
            (26, 0x4070400000000000, 0x4024000000000000),
            (26, 0x40a34c0000000000, 0x4065400000000000),
            (26, 0x40a34c0000000000, 0x4065400000000000),
            (26, 0x0000000000000000, 0x0000000000000000),
            (24, 0x40b31a0000000000, 0x4088100000000000),
            (24, 0x40bd380000000000, 0x408bd00000000000),
        ],
        [26, 24, 0],
    ),
    (
        [
            (23, 0x406cc00000000000, 0x4024000000000000),
            (23, 0x409e000000000000, 0x4065400000000000),
            (23, 0x409e000000000000, 0x4065400000000000),
            (23, 0x0000000000000000, 0x0000000000000000),
            (22, 0x40b07c0000000000, 0x4083b00000000000),
            (22, 0x40b84c0000000000, 0x4086d00000000000),
        ],
        [23, 22, 0],
    ),
];
