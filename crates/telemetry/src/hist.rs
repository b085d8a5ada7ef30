//! Log-bucketed histograms with atomic (lock-free) recording.
//!
//! The bucketing is log-linear, HDR-style: each power-of-two octave is split
//! into [`SUBS`] linear sub-buckets, giving a worst-case quantile
//! overestimate of `1/SUBS` (6.25%) while keeping `record` to a handful of
//! bit operations and one relaxed `fetch_add` — no locks, no allocation.
//!
//! Values are non-negative `f64`s (seconds, counts, ratios). The covered
//! range is `[2^MIN_EXP, 2^MAX_EXP)` ≈ `[2.3e-10, 6.6e4]`; values below the
//! range (including exact zeros) clamp into the first bucket, values above
//! clamp into the last, whose reported upper bound is `+inf`. NaN and
//! negative values are ignored.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power-of-two octave.
pub const SUBS: usize = 1 << SUB_BITS;
/// Smallest representable exponent (values below clamp to bucket 0).
const MIN_EXP: i32 = -32;
/// One past the largest representable exponent (values above clamp to the
/// last bucket).
const MAX_EXP: i32 = 16;
/// Total bucket count.
const NBUCKETS: usize = ((MAX_EXP - MIN_EXP) as usize) << SUB_BITS;

/// Map a positive finite value to its bucket index.
fn bucket_index(v: f64) -> usize {
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if exp < MIN_EXP {
        return 0; // includes subnormals and exact zero
    }
    if exp >= MAX_EXP {
        return NBUCKETS - 1; // includes +inf
    }
    let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    (((exp - MIN_EXP) as usize) << SUB_BITS) | sub
}

/// Inclusive upper bound of bucket `i` — what quantile estimates report.
fn bucket_upper(i: usize) -> f64 {
    if i >= NBUCKETS - 1 {
        return f64::INFINITY;
    }
    let exp = MIN_EXP + (i >> SUB_BITS) as i32;
    let sub = (i % SUBS) as f64;
    (1.0 + (sub + 1.0) / SUBS as f64) * 2f64.powi(exp)
}

fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

fn atomic_f64_max(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if f64::from_bits(cur) >= v {
            return;
        }
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

/// The shared histogram storage. All operations are atomic with relaxed
/// ordering — adequate for statistics, and free of locks on the record path.
pub(crate) struct HistCore {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl std::fmt::Debug for HistCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistCore")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish()
    }
}

impl HistCore {
    pub(crate) fn new() -> Self {
        Self {
            buckets: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
        }
    }

    fn record(&self, v: f64) {
        if v.is_nan() || v < 0.0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v);
        atomic_f64_max(&self.max_bits, v);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }

    /// Quantile estimate: the upper bound of the bucket holding the
    /// `ceil(q·count)`-th recorded value (0.0 when empty). Overestimates by
    /// at most one sub-bucket width (`1/SUBS` relative).
    fn quantile(&self, q: f64) -> f64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0.0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(NBUCKETS - 1)
    }
}

/// A cheap cloneable handle to a histogram; disabled handles (from a
/// disabled [`Telemetry`](crate::Telemetry)) make every operation a no-op.
#[derive(Clone, Debug, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistCore>>);

impl Histogram {
    /// Record one value.
    pub fn record(&self, v: f64) {
        if let Some(core) = &self.0 {
            core.record(v);
        }
    }

    /// Start a wall-clock span; the guard records the elapsed seconds into
    /// this histogram when dropped. Disabled handles never call
    /// [`Instant::now`], so the disabled cost is a branch (inlined into the
    /// caller's crate, not a call).
    #[must_use = "dropping the guard immediately records a ~0 s span; bind it with `let _span = …`"]
    #[inline]
    pub fn start_timer(&self) -> SpanTimer {
        SpanTimer(self.0.as_ref().map(|core| (core.clone(), Instant::now())))
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Current statistics of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |c| c.snapshot())
    }
}

/// RAII guard recording a span duration (seconds) on drop.
#[derive(Debug)]
#[must_use = "dropping the guard immediately records a ~0 s span; bind it with `let _span = …`"]
pub struct SpanTimer(Option<(Arc<HistCore>, Instant)>);

impl SpanTimer {
    /// End the span now (identical to dropping the guard).
    #[inline]
    pub fn observe(self) {}
}

impl Drop for SpanTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some((core, start)) = self.0.take() {
            core.record(start.elapsed().as_secs_f64());
        }
    }
}

/// Point-in-time summary statistics of one histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Largest recorded value (exact, not bucketed).
    pub max: f64,
    /// Median estimate (bucket upper bound).
    pub p50: f64,
    /// 95th-percentile estimate (bucket upper bound).
    pub p95: f64,
    /// 99th-percentile estimate (bucket upper bound).
    pub p99: f64,
}

impl HistogramSnapshot {
    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist() -> Histogram {
        Histogram(Some(Arc::new(HistCore::new())))
    }

    #[test]
    fn bucket_boundaries_are_log_linear() {
        // Exact powers of two land on sub-bucket 0 of their octave; the
        // reported upper bound is one sub-bucket above.
        for exp in [-10i32, -1, 0, 1, 10] {
            let v = 2f64.powi(exp);
            let i = bucket_index(v);
            assert_eq!(i % SUBS, 0, "power of two starts an octave");
            let upper = bucket_upper(i);
            assert!(upper > v && upper <= v * (1.0 + 1.0 / SUBS as f64) + 1e-12);
        }
        // Within an octave, sub-buckets advance linearly.
        assert_eq!(bucket_index(1.0) + 1, bucket_index(1.0 + 1.0 / 16.0));
        assert_eq!(bucket_index(1.0) + 15, bucket_index(1.0 + 15.0 / 16.0));
        assert_eq!(bucket_index(2.0), bucket_index(1.0) + 16);
    }

    #[test]
    fn quantile_overestimates_by_at_most_one_sub_bucket() {
        let h = hist();
        for v in [0.5, 1.0, 2.0, 4.0, 100.0, 250.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert!(s.p99 >= 250.0 && s.p99 <= 250.0 * (1.0 + 1.0 / SUBS as f64));
        assert_eq!(s.max, 250.0, "max is exact");
        assert!((s.sum - 357.5).abs() < 1e-9);
        assert_eq!(s.count, 6);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let h = hist();
        h.record(0.0); // below range
        h.record(1e-30); // below range
        h.record(1e12); // above range
        h.record(f64::NAN); // ignored
        h.record(-1.0); // ignored
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 1e12);
        assert_eq!(s.p99, f64::INFINITY, "overflow bucket reports +inf");
        // The two tiny values live in bucket 0.
        assert!(s.p50 <= bucket_upper(0) + 1e-18);
    }

    #[test]
    fn median_of_identical_values() {
        let h = hist();
        for _ in 0..100 {
            h.record(3.0);
        }
        let s = h.snapshot();
        assert!(s.p50 > 3.0 && s.p50 <= 3.0 * (1.0 + 1.0 / SUBS as f64));
        assert_eq!(s.p50, s.p99, "all mass in one bucket");
    }

    #[test]
    fn disabled_histogram_is_a_no_op() {
        let h = Histogram::default();
        h.record(1.0);
        let t = h.start_timer();
        t.observe();
        assert_eq!(h.count(), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn span_timer_records_elapsed_seconds() {
        let h = hist();
        {
            let _t = h.start_timer();
            std::hint::black_box((0..1000u64).sum::<u64>());
        }
        assert_eq!(h.count(), 1);
        let s = h.snapshot();
        assert!(s.max > 0.0 && s.max < 1.0, "sub-second span: {}", s.max);
    }
}
