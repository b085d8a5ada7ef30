//! The flight recorder: the SLO engine's alert sink, plus a JSONL dump of
//! the recent past.
//!
//! Detection is the [`crate::slo::SloEngine`]'s alone — fairness error,
//! starvation age, view divergence, convergence lag and per-link staleness
//! are its rules, thresholded once, in one place. The recorder takes the
//! engine's alert transitions, drops repeats inside a dedup window, and for
//! each one that remains snapshots what the telemetry domain retains —
//! recent events (a stale-policy degradation shows here, as the
//! `uss.stale_policy` event), the span store, captured explanations — into a
//! self-contained JSONL flight record, one JSON object per line, suitable
//! for appending to a file and for offline analysis.

use crate::export::json_f64 as num;
use crate::json::escape as esc;
use crate::provenance::ProvenanceRecord;
use crate::span::SpanRecord;
use crate::{Telemetry, TelemetryEvent};
use std::collections::BTreeMap;

/// The recorder's one setting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnomalyConfig {
    /// An identical SLO alert transition (same rule, same transition kind)
    /// within this window is deduplicated — a sustained breach flapping
    /// through pending/firing produces one flight record per window, not
    /// one per flap.
    pub alert_dedup_window_s: f64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        Self {
            alert_dedup_window_s: 600.0,
        }
    }
}

/// What a flight record is about: one alert transition that got through
/// the dedup window.
#[derive(Clone, Debug, PartialEq)]
pub struct Anomaly {
    /// Domain time of the transition.
    pub t_s: f64,
    /// `"slo_alert"`.
    pub kind: &'static str,
    /// The rule id, the transition and the observed value.
    pub detail: String,
}

/// The alert sink: feed it every transition the SLO engine emits; it
/// returns the ones to dump.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    cfg: AnomalyConfig,
    /// (rule, transition) → last time a flight record was emitted for it.
    alert_last: BTreeMap<(String, String), f64>,
}

impl FlightRecorder {
    /// Create a recorder with the given dedup window.
    pub fn new(cfg: AnomalyConfig) -> Self {
        Self {
            cfg,
            ..Self::default()
        }
    }

    /// Observe one SLO alert lifecycle transition (from the
    /// [`crate::slo::SloEngine`]). Returns an anomaly to dump unless an
    /// identical (rule, transition) record was emitted inside the dedup
    /// window. The detail leads with the rule id, so a firing alert and the
    /// record it landed in are joined by that id.
    pub fn observe_alert(
        &mut self,
        rule: &str,
        transition: &str,
        value: f64,
        now_s: f64,
    ) -> Option<Anomaly> {
        let key = (rule.to_string(), transition.to_string());
        if let Some(&last) = self.alert_last.get(&key) {
            if now_s - last < self.cfg.alert_dedup_window_s {
                return None;
            }
        }
        self.alert_last.insert(key, now_s);
        Some(Anomaly {
            t_s: now_s,
            kind: "slo_alert",
            detail: format!("rule {rule} {transition} (value {value:.4})"),
        })
    }
}

/// Render one anomaly plus everything the telemetry domain retains — recent
/// events, spans, captured explanations — as a JSONL flight record (one JSON
/// object per line; the first line is the anomaly itself).
pub fn dump_jsonl(anomaly: &Anomaly, telemetry: &Telemetry) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"type\":\"anomaly\",\"t_s\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}\n",
        num(anomaly.t_s),
        esc(anomaly.kind),
        esc(&anomaly.detail)
    ));
    for ev in telemetry.recent_events() {
        out.push_str(&event_line(&ev));
    }
    for span in telemetry.spans() {
        out.push_str(&span_line(&span));
    }
    for rec in telemetry.provenance_records() {
        out.push_str(&provenance_line(&rec));
    }
    out
}

fn event_line(ev: &TelemetryEvent) -> String {
    format!(
        "{{\"type\":\"event\",\"t_s\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}\n",
        num(ev.t_s),
        esc(&ev.kind),
        esc(&ev.detail)
    )
}

fn span_line(s: &SpanRecord) -> String {
    format!(
        "{{\"type\":\"span\",\"trace_id\":{},\"span_id\":{},\"parent_span\":{},\
         \"name\":\"{}\",\"site\":{},\"t_s\":{},\"detail\":\"{}\"}}\n",
        s.trace_id,
        s.span_id,
        s.parent_span,
        esc(&s.name),
        s.site,
        num(s.t_s),
        esc(&s.detail)
    )
}

fn provenance_line(r: &ProvenanceRecord) -> String {
    // `json` is already rendered JSON: embedded verbatim, not escaped.
    format!(
        "{{\"type\":\"explanation\",\"t_s\":{},\"user\":\"{}\",\"trace_id\":{},\
         \"factor\":{},\"explanation\":{}}}\n",
        num(r.t_s),
        esc(&r.user),
        r.trace_id,
        num(r.factor),
        r.json
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AnomalyConfig {
        AnomalyConfig {
            alert_dedup_window_s: 300.0,
        }
    }

    #[test]
    fn alert_records_dedup_per_window() {
        let mut fr = FlightRecorder::new(cfg());
        let a = fr
            .observe_alert("staleness:1->0", "firing", 212.5, 540.0)
            .expect("first firing records");
        assert_eq!(a.kind, "slo_alert");
        assert!(a.detail.contains("staleness:1->0 firing"));
        // Same transition inside the window: suppressed.
        assert!(fr
            .observe_alert("staleness:1->0", "firing", 250.0, 700.0)
            .is_none());
        // A different transition of the same rule is independent.
        assert!(fr
            .observe_alert("staleness:1->0", "resolved", 10.0, 720.0)
            .is_some());
        // And so is another rule.
        assert!(fr
            .observe_alert("staleness:2->0", "firing", 180.0, 720.0)
            .is_some());
        // Past the window the same transition records again.
        assert!(fr
            .observe_alert("staleness:1->0", "firing", 300.0, 900.0)
            .is_some());
    }

    #[test]
    fn dump_contains_all_sections() {
        let t = Telemetry::traced(0);
        t.event(1.0, "uss.gossip_merge", || "cells=3".to_string());
        let ctx = t
            .start_trace("rms.report", 0.5, || "job 7".to_string())
            .unwrap();
        t.child_span(Some(ctx), "uss.ingest", 1.5, String::new);
        t.record_provenance(2.0, "alice", ctx.trace_id, 0.75, || "{\"k\":1}".to_string());
        let a = Anomaly {
            t_s: 3.0,
            kind: "divergence",
            detail: "test \"quoted\"".to_string(),
        };
        let dump = dump_jsonl(&a, &t);
        let lines: Vec<&str> = dump.lines().collect();
        assert!(lines[0].contains("\"type\":\"anomaly\""));
        assert!(lines[0].contains("\\\"quoted\\\""));
        assert!(dump.contains("\"type\":\"event\""));
        assert!(dump.contains("\"type\":\"span\""));
        assert!(dump.contains("\"name\":\"uss.ingest\""));
        assert!(dump.contains("\"type\":\"explanation\""));
        assert!(dump.contains("\"explanation\":{\"k\":1}"));
        assert_eq!(
            lines.len(),
            5,
            "anomaly + 1 event + 2 spans + 1 explanation"
        );
    }
}
