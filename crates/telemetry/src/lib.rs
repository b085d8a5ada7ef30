//! Grid-wide telemetry for the Aequus stack.
//!
//! One [`Telemetry`] handle is threaded through every service of a site
//! (USS, UMS, FCS, IRS, PDS, libaequus, the RMS scheduler) and through the
//! sim engine. Its surfaces, each behind one switch:
//!
//! * **metrics** — on with the handle ([`Telemetry::enabled`]): a lock-free
//!   [`Registry`] of named counters, gauges and log-bucketed histograms,
//!   snapshot-able at any time. A site's pipeline-delay tracer records
//!   into its handle's `aequus_tracer_*` series;
//! * **tracing** — [`Telemetry::traced`]: every usage report roots a causal
//!   trace whose [`TraceCtx`] rides the whole
//!   report→gossip→refresh→query pipeline across sites ([`span`]), and the
//!   serve that closes a trace captures its decision [`provenance`] — a
//!   type-erased, replayable explanation of the served priority;
//! * **profiling** ([`profile`]): per-shard stage accounting with
//!   deterministic counters and wall-clock dual clocks, exported as a
//!   Chrome trace and a folded-stacks profile;
//! * **health** ([`slo`]): streaming fairness-health rules evaluated on
//!   sim-time windows with multi-window burn-rate alerting and a
//!   deterministic pending → firing → resolved lifecycle;
//! * the **flight recorder** ([`flight`]): the SLO engine's alert sink — a
//!   JSONL dump of recent spans and explanations per alert.
//!
//! Everything a surface retains sits in one bounded store, [`Ring`], and
//! every stage is named once, in [`stage::STAGES`].
//!
//! A disabled handle ([`Telemetry::disabled`]) reduces every operation to
//! an `Option` check — no allocation, no clock reads, no locks — so
//! instrumentation can stay unconditionally in place on hot paths.

#![warn(missing_docs)]

pub mod export;
pub mod flight;
mod hist;
pub mod json;
pub mod profile;
pub mod provenance;
mod registry;
mod ring;
pub mod slo;
pub mod span;
pub mod stage;

pub use hist::{Histogram, HistogramSnapshot, SpanTimer};
pub use profile::{RunProfile, ShardProfile, ShardProfiler, StageStats};
pub use registry::{Counter, Gauge, Registry, Snapshot};
pub use ring::Ring;
pub use slo::{AlertEvent, SloConfig, SloEngine, SloRule};
pub use span::{SpanRecord, SpanTree, TraceCtx};

use provenance::ProvenanceRecord;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What a telemetry domain retains of its recent past, behind one lock.
#[derive(Debug)]
struct Records {
    spans: Ring<SpanRecord>,
    provenance: Ring<ProvenanceRecord>,
    /// Spans recorded so far — the sequence half of the next span id.
    span_seq: u64,
}

#[derive(Debug)]
struct Inner {
    registry: Registry,
    records: Mutex<Records>,
    /// The site whose usage reports root causal traces here and whose
    /// served decisions are captured; `None` while tracing is off.
    traced_site: Option<u32>,
    /// Span-layer stat handles, registered (and riding into snapshots)
    /// only while tracing is on.
    c_traces: Counter,
    c_spans: Counter,
    c_provenance: Counter,
}

impl Inner {
    /// The records, taken over if a panic poisoned their lock: a panic
    /// under it leaves at most one record half-written — diagnostics, never
    /// accounting — and every reader tolerates that, so it is no reason for
    /// a second panic.
    fn records(&self) -> MutexGuard<'_, Records> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one span of `site` under `parent` (a trace root when `None`)
    /// and return the context the next hop continues from.
    fn record_span(
        &self,
        site: u32,
        parent: Option<TraceCtx>,
        name: &'static str,
        t_s: f64,
        detail: String,
    ) -> TraceCtx {
        let mut records = self.records();
        records.span_seq += 1;
        let id = span::span_id(site, records.span_seq);
        let trace_id = parent.map_or(id, |p| p.trace_id);
        records.spans.push(SpanRecord {
            trace_id,
            span_id: id,
            parent_span: parent.map_or(0, |p| p.span),
            name: name.to_string(),
            site,
            t_s,
            detail,
        });
        self.c_spans.inc();
        TraceCtx { trace_id, span: id }
    }
}

/// The cheap, cloneable telemetry handle. See the crate docs.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A disabled handle: every operation is a no-op behind one branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle with tracing off: metrics only.
    pub fn enabled() -> Self {
        Self::new(None)
    }

    /// An enabled handle with tracing on for `site`: every usage report
    /// roots a causal trace and every serve that closes one captures its
    /// decision provenance. The site is embedded in allocated span ids.
    pub fn traced(site: u32) -> Self {
        Self::new(Some(site))
    }

    fn new(traced_site: Option<u32>) -> Self {
        let registry = Registry::new();
        // Only a traced handle records spans and decisions, so only a
        // traced handle registers their counters.
        let counter = |name| match traced_site {
            Some(_) => registry.counter(name),
            None => Counter::default(),
        };
        let c_traces = counter("aequus_spans_traces_total");
        let c_spans = counter("aequus_spans_recorded_total");
        let c_provenance = counter("aequus_provenance_captured_total");
        Self {
            inner: Some(Arc::new(Inner {
                registry,
                records: Mutex::new(Records {
                    spans: Ring::new(span::STORE_CAP),
                    provenance: Ring::new(span::STORE_CAP),
                    span_seq: 0,
                }),
                traced_site,
                c_traces,
                c_spans,
                c_provenance,
            })),
        }
    }

    /// Whether the handle records anything (a disabled one records nothing).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Get or create the counter `name` (a disabled handle on a disabled
    /// `Telemetry`).
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .as_ref()
            .map_or_else(Counter::default, |i| i.registry.counter(name))
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .as_ref()
            .map_or_else(Gauge::default, |i| i.registry.gauge(name))
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .as_ref()
            .map_or_else(Histogram::default, |i| i.registry.histogram(name))
    }

    /// Snapshot every registered metric; `None` when disabled.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.inner.as_ref().map(|i| i.registry.snapshot())
    }

    // --- Causal spans and decision provenance (tracing) ---

    /// The handle's internals and its site, when tracing is on.
    fn tracing(&self) -> Option<(&Inner, u32)> {
        let i = self.inner.as_deref()?;
        Some((i, i.traced_site?))
    }

    /// Start a causal trace: with tracing on, a root span is recorded and
    /// its context returned for propagation. `detail` is only rendered
    /// then; any other handle returns `None` after one branch.
    pub fn start_trace(
        &self,
        name: &'static str,
        t_s: f64,
        detail: impl FnOnce() -> String,
    ) -> Option<TraceCtx> {
        let (i, site) = self.tracing()?;
        i.c_traces.inc();
        Some(i.record_span(site, None, name, t_s, detail()))
    }

    /// Record a span causally linked under `parent` (which may have been
    /// recorded on another site — that is how gossip hops stitch cross-site
    /// trees together). Returns the child context for further propagation;
    /// a `None` parent or a handle with tracing off is a cheap no-op.
    pub fn child_span(
        &self,
        parent: Option<TraceCtx>,
        name: &'static str,
        t_s: f64,
        detail: impl FnOnce() -> String,
    ) -> Option<TraceCtx> {
        let ((i, site), parent) = (self.tracing()?, parent?);
        Some(i.record_span(site, Some(parent), name, t_s, detail()))
    }

    /// The retained spans of this site's ring, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.records().spans.to_vec())
    }

    /// Capture a served decision. `json` (the pre-rendered `Explanation`
    /// body) is only invoked when tracing is on.
    pub fn record_provenance(
        &self,
        t_s: f64,
        user: &str,
        trace_id: u64,
        factor: f64,
        json: impl FnOnce() -> String,
    ) {
        if let Some((i, _)) = self.tracing() {
            let record = ProvenanceRecord {
                t_s,
                user: user.to_string(),
                trace_id,
                factor,
                json: json(),
            };
            i.records().provenance.push(record);
            i.c_provenance.inc();
        }
    }

    /// The retained decision records, oldest first.
    pub fn provenance_records(&self) -> Vec<ProvenanceRecord> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.records().provenance.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.counter("c").inc();
        t.gauge("g").set(1.0);
        t.histogram("h").record(1.0);
        assert!(!t.is_enabled() && t.snapshot().is_none());
    }

    #[test]
    fn enabled_handle_records_and_snapshots() {
        let t = Telemetry::enabled();
        t.counter("aequus_test_total").add(3);
        t.histogram("aequus_test_s").record(0.25);
        let snap = t.snapshot().expect("enabled");
        assert_eq!(snap.counters["aequus_test_total"], 3);
        assert_eq!(snap.histograms["aequus_test_s"].count, 1);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.counter("shared").inc();
        u.counter("shared").inc();
        assert_eq!(t.snapshot().unwrap().counters["shared"], 2);
    }

    #[test]
    fn tracing_off_records_no_span_and_no_decision() {
        let ctx = Some(TraceCtx {
            trace_id: 1,
            span: 1,
        });
        for off in [Telemetry::disabled(), Telemetry::enabled()] {
            assert!(off
                .start_trace("rms.report", 0.0, || unreachable!("no detail when off"))
                .is_none());
            assert!(off.child_span(ctx, "x", 0.0, || unreachable!()).is_none());
            off.record_provenance(0.0, "u", 0, 0.5, || unreachable!());
            assert!(off.spans().is_empty() && off.provenance_records().is_empty());
        }
        let metrics_only = Telemetry::enabled().snapshot().unwrap();
        assert!(
            metrics_only.counters.is_empty(),
            "no span counters untraced"
        );
    }

    #[test]
    fn span_chain_propagates_trace_and_parents() {
        let t = Telemetry::traced(2);
        let root = t.start_trace("rms.report", 1.0, || "job 9".into()).unwrap();
        assert_eq!(root.trace_id, root.span);
        let ingest = t
            .child_span(Some(root), "uss.ingest", 2.0, String::new)
            .unwrap();
        assert_eq!(ingest.trace_id, root.trace_id);
        assert_ne!(ingest.span, root.span);
        let publish = t
            .child_span(Some(ingest), "uss.publish", 3.0, String::new)
            .unwrap();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent_span, root.span);
        assert_eq!(spans[2].parent_span, ingest.span);
        assert_eq!(spans[2].trace_id, root.trace_id);
        assert!(spans.iter().all(|s| s.site == 2));
        let trees = SpanTree::for_trace(&[&spans], root.trace_id);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].depth(), 3);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.counters["aequus_spans_traces_total"], 1);
        assert_eq!(snap.counters["aequus_spans_recorded_total"], 3);
        let _ = publish;
    }

    #[test]
    fn provenance_capture_round_trip() {
        let t = Telemetry::traced(0);
        t.record_provenance(5.0, "alice", 42, 0.625, || "{\"x\":2}".to_string());
        t.record_provenance(6.0, "bob", 0, 0.5, || "{}".to_string());
        let recs = t.provenance_records();
        assert_eq!(recs.len(), 2);
        let a = &recs[0];
        assert_eq!(a.factor, 0.625);
        assert_eq!(a.trace_id, 42);
        assert_eq!(a.json, "{\"x\":2}");
        assert_eq!(
            t.snapshot().unwrap().counters["aequus_provenance_captured_total"],
            2
        );
    }
}
