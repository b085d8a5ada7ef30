//! The metric registry: named histograms with get-or-create registration,
//! and the point-in-time [`Snapshot`] a domain is read through.
//!
//! Registration takes a short mutex (cold path: services register handles
//! once at wiring time); the returned handles record through atomics only.
//! A count is not an instrument: each service keeps its own and writes it
//! into a snapshot when one is taken. Metric names follow the scheme
//! `aequus_<service>_<metric>` (see DESIGN.md, Observability).

use crate::hist::{HistCore, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// The histograms of one telemetry domain (one site, one engine, …).
#[derive(Debug, Default)]
pub struct Registry {
    hists: Mutex<BTreeMap<String, Arc<HistCore>>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the histogram named `name`. A panic while the map is
    /// held leaves it whole — an entry is in or it is not — so a poisoned
    /// lock is taken over.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.hists.lock().unwrap_or_else(PoisonError::into_inner);
        Histogram(Some(Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(HistCore::new())),
        )))
    }

    /// Capture every registered histogram; the counts and gauges are the
    /// owners' to write in.
    pub fn snapshot(&self) -> Snapshot {
        let hists = self.hists.lock().unwrap_or_else(PoisonError::into_inner);
        Snapshot {
            histograms: hists
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            ..Snapshot::default()
        }
    }
}

/// A point-in-time capture of a telemetry domain — what the sim surfaces
/// per site and for the engine at the end of a run, read where it is taken.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// The counts by series name, read from the services that keep them.
    pub counters: BTreeMap<String, u64>,
    /// The gauges by series name, read from the services that keep them.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Whether no metric was ever registered or written.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Write one owner's counts, `(series, value)` each.
    pub fn add_counts<'a>(&mut self, counts: impl IntoIterator<Item = (&'a str, u64)>) {
        let counts = counts.into_iter().map(|(name, n)| (name.to_string(), n));
        self.counters.extend(counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_create() {
        let r = Registry::new();
        r.histogram("x").record(1.0);
        r.histogram("x").record(2.0);
        let s = r.snapshot();
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms["x"].count, 2, "same underlying cell");
    }

    #[test]
    fn a_snapshot_holds_histograms_and_the_counts_written_into_it() {
        let r = Registry::new();
        r.histogram("h").record(3.0);
        let mut s = r.snapshot();
        assert!(s.counters.is_empty() && s.gauges.is_empty());
        s.add_counts([("c", 2), ("d", 0)]);
        assert!(!s.is_empty());
        assert_eq!((s.counters["c"], s.counters["d"]), (2, 0));
        assert_eq!(s.histograms["h"].count, 1);
    }
}
