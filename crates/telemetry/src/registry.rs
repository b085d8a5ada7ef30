//! The metric registry: named counters, gauges, and histograms with
//! get-or-create registration and point-in-time snapshots.
//!
//! Registration takes a short mutex (cold path: services register handles
//! once at wiring time); the returned handles record through atomics only.
//! Metric names follow the scheme `aequus_<service>_<metric>` (see
//! DESIGN.md, Observability).

use crate::hist::{HistCore, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Monotonic counter handle. Disabled handles no-op.
#[derive(Clone, Debug, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Gauge handle (an `f64` that can move both ways). Disabled handles no-op.
#[derive(Clone, Debug, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

/// The registry of all metrics of one telemetry domain (one site, one
/// engine, …).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<String, Arc<HistCore>>>,
}

/// Lock one of a registry's maps. A panic while a map is held leaves it
/// whole — an entry is in or it is not — so a poisoned lock is taken over.
fn lock<T>(map: &Mutex<T>) -> MutexGuard<'_, T> {
    map.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock(&self.counters);
        Counter(Some(Arc::clone(map.entry(name.to_string()).or_default())))
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock(&self.gauges);
        Gauge(Some(Arc::clone(map.entry(name.to_string()).or_default())))
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = lock(&self.hists);
        Histogram(Some(Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(HistCore::new())),
        )))
    }

    /// Capture the current value of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
                .collect(),
            histograms: lock(&self.hists)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time capture of a [`Registry`] — what the sim surfaces per
/// site and for the engine at the end of a run, read where it is taken.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Whether no metric was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic_across_snapshots() {
        let r = Registry::new();
        let c = r.counter("aequus_test_total");
        let mut last = 0;
        for i in 1..=50u64 {
            c.add(i);
            let snap = r.snapshot();
            let now = snap.counters["aequus_test_total"];
            assert!(now > last, "counter must only grow");
            last = now;
        }
        assert_eq!(last, (1..=50).sum::<u64>());
    }

    #[test]
    fn registration_is_get_or_create() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(r.snapshot().counters["x"], 2, "same underlying cell");
        assert_eq!(r.snapshot().counters.len(), 1);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let r = Registry::new();
        let g = r.gauge("aequus_test_gauge");
        g.set(2.5);
        assert_eq!(r.snapshot().gauges["aequus_test_gauge"], 2.5);
        g.set(-1.0);
        assert_eq!(r.snapshot().gauges["aequus_test_gauge"], -1.0);
    }

    #[test]
    fn snapshot_covers_all_kinds() {
        let r = Registry::new();
        r.counter("c").inc();
        r.gauge("g").set(1.0);
        r.histogram("h").record(3.0);
        let s = r.snapshot();
        assert!(!s.is_empty());
        assert_eq!(s.counters.len(), 1);
        assert_eq!(s.gauges.len(), 1);
        assert_eq!(s.histograms["h"].count, 1);
    }
}
