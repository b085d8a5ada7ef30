//! Microbenchmarks of the RMS dispatch path: priority-ordered dispatch with
//! EASY backfill over large pending queues (the state the 95%-load tests
//! put the schedulers in).

use aequus_bench::backfill::loaded_scheduler;
use aequus_bench::harness::{BatchSize, BenchmarkId, Criterion};
use aequus_telemetry::Telemetry;
use std::hint::black_box;

fn bench_advance(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_advance");
    group.sample_size(20);
    for queue in [100usize, 1000, 8000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{queue}queued")),
            &queue,
            |b, &queue| {
                b.iter_batched(
                    || loaded_scheduler(&Telemetry::disabled(), queue),
                    |(mut sched, mut src)| {
                        sched.advance(black_box(&mut src), 1.0);
                        sched
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_advance(&mut c);
}
