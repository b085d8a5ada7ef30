//! A minimal, dependency-free micro-benchmark harness with a
//! criterion-shaped API (`Criterion`, `benchmark_group`, `Bencher::iter`,
//! `iter_batched`) so the bench targets under `benches/` run offline.
//!
//! Measurement model: a short warmup sizes a batch so one sample takes
//! roughly `Criterion::target_sample_time`, then `sample_size` samples are
//! timed and the per-iteration mean, minimum, and median are printed. This
//! is deliberately simpler than criterion (no bootstrap, no outlier
//! rejection) — adequate for the order-of-magnitude and ratio comparisons
//! the experiment suite reports.

use std::time::{Duration, Instant};

/// How `iter_batched` recreates per-iteration inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// One setup per timed call (expensive inputs).
    LargeInput,
    /// One setup per timed call (the shim does not amortize setups).
    SmallInput,
}

/// Identifier helper mirroring `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Build an id from a displayable parameter.
    pub fn from_parameter(p: impl std::fmt::Display) -> Self {
        BenchmarkId(p.to_string())
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// Summary statistics of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Estimate {
    /// Mean time per iteration.
    pub mean_ns: f64,
    /// Fastest sample's time per iteration.
    pub min_ns: f64,
    /// Median sample's time per iteration.
    pub median_ns: f64,
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Passed to the closure given to `bench_function`; drives timing loops.
pub struct Bencher<'a> {
    sample_size: usize,
    target_sample_time: Duration,
    result: &'a mut Option<Estimate>,
}

impl Bencher<'_> {
    /// Time `routine` called in a loop.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warmup + batch sizing: grow the batch until one batch takes long
        // enough to time reliably.
        let mut batch: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.target_sample_time || batch >= 1 << 20 {
                break;
            }
            let grow = if elapsed.as_nanos() == 0 {
                16
            } else {
                ((self.target_sample_time.as_nanos() / elapsed.as_nanos()) + 1).min(16) as u64
            };
            batch = batch.saturating_mul(grow.max(2));
        }
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            per_iter.push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
        *self.result = Some(estimate(&mut per_iter));
    }

    /// Time `routine` on fresh inputs from `setup`; setup time is excluded.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size.max(1) {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            per_iter.push(start.elapsed().as_nanos() as f64);
        }
        *self.result = Some(estimate(&mut per_iter));
    }
}

fn estimate(per_iter: &mut [f64]) -> Estimate {
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = per_iter.len().max(1);
    Estimate {
        mean_ns: per_iter.iter().sum::<f64>() / n as f64,
        min_ns: per_iter.first().copied().unwrap_or(0.0),
        median_ns: per_iter[n / 2],
    }
}

/// Top-level driver mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
    target_sample_time: Duration,
    /// All results recorded so far, in run order: (name, estimate).
    pub results: Vec<(String, Estimate)>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 30,
            target_sample_time: Duration::from_millis(25),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Run one benchmark and print its estimate.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut result = None;
        let mut b = Bencher {
            sample_size: self.sample_size,
            target_sample_time: self.target_sample_time,
            result: &mut result,
        };
        f(&mut b);
        let est = result.expect("bencher closure must call iter/iter_batched");
        println!(
            "{name:<44} mean {:>12}  median {:>12}  min {:>12}",
            fmt_ns(est.mean_ns),
            fmt_ns(est.median_ns),
            fmt_ns(est.min_ns)
        );
        self.results.push((name.to_string(), est));
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("— {name}");
        BenchmarkGroup {
            parent: self,
            prefix: name.to_string(),
        }
    }
}

/// Benchmark group mirroring `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    prefix: String,
}

impl BenchmarkGroup<'_> {
    /// Lower the per-benchmark sample count (slow benchmarks).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.parent.sample_size = n.max(2);
        self
    }

    /// Run one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl std::fmt::Display,
        f: F,
    ) -> &mut Self {
        let name = format!("{}/{}", self.prefix, id);
        self.parent.bench_function(&name, f);
        self
    }

    /// Run one benchmark parameterized by `input`.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let name = format!("{}/{}", self.prefix, id);
        self.parent.bench_function(&name, |b| f(b, input));
        self
    }

    /// End the group (restores the default sample size).
    pub fn finish(&mut self) {
        self.parent.sample_size = Criterion::default().sample_size;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_produces_estimate() {
        let mut c = Criterion {
            sample_size: 5,
            target_sample_time: Duration::from_micros(200),
            results: Vec::new(),
        };
        c.bench_function("spin", |b| {
            b.iter(|| (0..100u64).sum::<u64>());
        });
        assert_eq!(c.results.len(), 1);
        let est = c.results[0].1;
        assert!(est.mean_ns > 0.0 && est.min_ns <= est.mean_ns);
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut c = Criterion {
            sample_size: 3,
            target_sample_time: Duration::from_micros(100),
            results: Vec::new(),
        };
        c.bench_function("batched", |b| {
            b.iter_batched(
                || vec![1u64; 64],
                |v| v.iter().sum::<u64>(),
                BatchSize::LargeInput,
            );
        });
        assert!(c.results[0].1.mean_ns >= 0.0);
    }

    #[test]
    fn group_names_are_prefixed() {
        let mut c = Criterion {
            sample_size: 2,
            target_sample_time: Duration::from_micros(50),
            results: Vec::new(),
        };
        let mut g = c.benchmark_group("grp");
        g.sample_size(2);
        g.bench_with_input(BenchmarkId::from_parameter("7"), &7u64, |b, &x| {
            b.iter(|| x * 2);
        });
        g.finish();
        assert_eq!(c.results[0].0, "grp/7");
    }
}
