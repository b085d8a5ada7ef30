//! The replay measures the same program as the engine, and the generators
//! are pure functions of the seed — on seconds-scale shapes of the same four
//! generators the benchmark measures.

use aequus_benchmark::outcome::{input_fingerprint, Outcome};
use aequus_benchmark::replay::replay;
use aequus_benchmark::workloads::{build, Size, NAMES};
use aequus_core::GridUser;
use aequus_sim::GridSimulation;

fn engine(name: &str, seed: u64) -> Outcome {
    let w = build(name, seed, Size::Tiny).expect("known workload");
    Outcome::from(GridSimulation::new(w.scenario.clone()).run(&w.trace, w.drain_s))
}

#[test]
fn replay_digest_equals_engine_digest() {
    for name in NAMES {
        for seed in [42, 7] {
            let w = build(name, seed, Size::Tiny).expect("known workload");
            let replayed = replay(&w);
            let engine = engine(name, seed);
            assert_eq!(
                replayed.outcome.sim_digest(),
                engine.sim_digest(),
                "{name} seed {seed}: the replay ran a different program"
            );
            assert_eq!(replayed.outcome.events_processed, engine.events_processed);
            assert_eq!(
                replayed.counts["sim.events"],
                engine.events_processed as f64
            );
            assert!(replayed.spans.self_times().covered_s() <= replayed.wall_s);
        }
    }
}

#[test]
fn tiny_shapes_pass_every_output_check() {
    for name in NAMES {
        let w = build(name, 42, Size::Tiny).expect("known workload");
        let outcome = engine(name, 42);
        assert_eq!(outcome.check(w.trace.len()), Ok(()), "{name}");
        assert!(outcome.view_convergence_s().1, "{name}: views converge");
        assert_eq!(outcome.completed(), w.trace.len() as u64, "{name}");
    }
}

#[test]
fn chaos_tree_exercises_the_repair_paths() {
    let w = build("chaos_tree", 42, Size::Tiny).expect("known workload");
    let c = replay(&w).counts;
    for key in [
        "uss.retries",
        "sim.faults.dropped",
        "sim.faults.partitioned",
        "store.append.calls",
        "store.replay.frames",
    ] {
        assert!(c[key] > 0.0, "{key} stayed zero: {c:?}");
    }
    assert_eq!(
        replay(&build("wide_mesh", 42, Size::Tiny).unwrap()).counts["uss.retries"],
        0.0
    );
}

#[test]
fn same_seed_same_inputs_and_results() {
    for name in NAMES {
        let a = build(name, 42, Size::Tiny).expect("known workload");
        let b = build(name, 42, Size::Tiny).expect("known workload");
        assert_eq!(input_fingerprint(&a), input_fingerprint(&b), "{name}");
        assert_eq!(
            engine(name, 42).sim_digest(),
            engine(name, 42).sim_digest(),
            "{name}"
        );
    }
}

#[test]
fn different_seed_different_fingerprint() {
    for name in NAMES {
        let a = build(name, 42, Size::Tiny).expect("known workload");
        let b = build(name, 7, Size::Tiny).expect("known workload");
        assert_ne!(input_fingerprint(&a), input_fingerprint(&b), "{name}");
    }
    assert!(build("no_such_workload", 42, Size::Tiny).is_none());
}

#[test]
fn conservation_check_fires_on_a_corrupted_view() {
    let mut outcome = engine("chaos_tree", 42);
    assert_eq!(outcome.check_conservation(), Ok(()));
    let digest = outcome.sim_digest();
    let (user, usage) = outcome.site_usage_views[3]
        .iter()
        .map(|(u, v)| (u.clone(), *v))
        .find(|(_, v)| *v > 0.0)
        .expect("site 3 saw some usage");
    outcome.site_usage_views[3].insert(user, usage * 1.001);
    let err = outcome.check_conservation().unwrap_err();
    assert!(err.contains("site 3"), "{err}");
    assert_ne!(outcome.sim_digest(), digest, "the digest covers the views");
    // A user the jobs never charged is over-counting too.
    let mut outcome = engine("wide_mesh", 42);
    outcome.site_usage_views[0].insert(GridUser::new("ghost"), 5.0);
    assert!(outcome.check_conservation().is_err());
}
