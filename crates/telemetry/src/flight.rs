//! The flight recorder: anomaly detection plus a JSONL dump of the recent
//! past.
//!
//! Three anomalies matter operationally for a fairshare deployment (they are
//! the failure modes the EU DataGrid operations report attributes most
//! downtime to): **starvation** — a user stays below a fraction of their
//! target share for longer than a configurable window; **degradation** — the
//! stale-data policy suppressed remote usage (a site is flying on local data
//! only); **divergence** — the cross-site usage views drift apart beyond a
//! threshold. When any of these fires, the recorder snapshots what the
//! telemetry domain retains — recent events, the span store, captured
//! explanations — into a self-contained JSONL flight record, one JSON object
//! per line, suitable for appending to a file and for offline analysis.

use crate::provenance::ProvenanceRecord;
use crate::span::SpanRecord;
use crate::{Telemetry, TelemetryEvent};
use std::collections::BTreeMap;

/// Detection thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnomalyConfig {
    /// A user below `starvation_frac · target_share` of the observed share
    /// for longer than this window counts as starved.
    pub starvation_window_s: f64,
    /// Fraction of the target share under which a user counts as starved.
    pub starvation_frac: f64,
    /// Usage-view divergence above this triggers a dump.
    pub divergence_threshold: f64,
    /// An identical SLO alert transition (same rule, same transition kind)
    /// within this window is deduplicated — a sustained breach flapping
    /// through pending/firing produces one flight record per window, not
    /// one per flap.
    pub alert_dedup_window_s: f64,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        Self {
            starvation_window_s: 3600.0,
            starvation_frac: 0.25,
            divergence_threshold: 0.25,
            alert_dedup_window_s: 600.0,
        }
    }
}

/// A detected anomaly.
#[derive(Clone, Debug, PartialEq)]
pub struct Anomaly {
    /// Domain time the anomaly was confirmed at.
    pub t_s: f64,
    /// `"starvation"`, `"degradation"`, or `"divergence"`.
    pub kind: &'static str,
    /// Human-readable description.
    pub detail: String,
}

/// Stateful anomaly detector. Feed it observations each sampling tick; it
/// returns the anomalies that *newly* fired (edge-triggered, so a persistent
/// condition produces one anomaly, not one per tick).
#[derive(Debug, Default)]
pub struct FlightRecorder {
    cfg: AnomalyConfig,
    /// user → time the share first dropped below the starvation line.
    below_since: BTreeMap<String, f64>,
    /// Users already reported as starved (until they recover).
    starved: BTreeMap<String, bool>,
    degraded: bool,
    diverged: bool,
    /// (rule, transition) → last time a flight record was emitted for it.
    alert_last: BTreeMap<(String, String), f64>,
}

impl FlightRecorder {
    /// Create a recorder with the given thresholds.
    pub fn new(cfg: AnomalyConfig) -> Self {
        Self {
            cfg,
            ..Self::default()
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &AnomalyConfig {
        &self.cfg
    }

    /// Observe one user's achieved share vs. their policy target at `now_s`.
    /// Returns a starvation anomaly when the user has been below the line
    /// for longer than the window (once per episode).
    pub fn observe_user_share(
        &mut self,
        user: &str,
        achieved_share: f64,
        target_share: f64,
        now_s: f64,
    ) -> Option<Anomaly> {
        let line = self.cfg.starvation_frac * target_share;
        if target_share <= 0.0 || achieved_share >= line {
            self.below_since.remove(user);
            self.starved.remove(user);
            return None;
        }
        let since = *self.below_since.entry(user.to_string()).or_insert(now_s);
        if now_s - since < self.cfg.starvation_window_s || self.starved.contains_key(user) {
            return None;
        }
        self.starved.insert(user.to_string(), true);
        Some(Anomaly {
            t_s: now_s,
            kind: "starvation",
            detail: format!(
                "user {user} at share {achieved_share:.4} < {line:.4} \
                 ({:.0}% of target {target_share:.4}) since t={since:.0}s",
                100.0 * self.cfg.starvation_frac
            ),
        })
    }

    /// Observe whether the stale-data policy currently suppresses remote
    /// usage. Fires on the false→true edge.
    pub fn observe_degradation(&mut self, suppressed: bool, now_s: f64) -> Option<Anomaly> {
        let fired = suppressed && !self.degraded;
        self.degraded = suppressed;
        fired.then(|| Anomaly {
            t_s: now_s,
            kind: "degradation",
            detail: "stale policy degraded to local-only weighting".to_string(),
        })
    }

    /// Observe the current cross-site usage-view divergence. Fires on the
    /// rising edge through the threshold.
    pub fn observe_divergence(&mut self, divergence: f64, now_s: f64) -> Option<Anomaly> {
        let above = divergence > self.cfg.divergence_threshold;
        let fired = above && !self.diverged;
        self.diverged = above;
        fired.then(|| Anomaly {
            t_s: now_s,
            kind: "divergence",
            detail: format!(
                "usage-view divergence {divergence:.4} > {:.4}",
                self.cfg.divergence_threshold
            ),
        })
    }

    /// Observe one SLO alert lifecycle transition (from the
    /// [`crate::slo::SloEngine`]). Returns an anomaly to dump unless an
    /// identical (rule, transition) record was emitted inside the dedup
    /// window.
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

fn esc(s: &str) -> String {
    crate::json::escape(s)
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v.is_nan() {
        "\"nan\"".to_string()
    } else if v > 0.0 {
        "\"inf\"".to_string()
    } else {
        "\"-inf\"".to_string()
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
            starvation_window_s: 100.0,
            starvation_frac: 0.5,
            divergence_threshold: 0.2,
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
    fn starvation_needs_the_full_window() {
        let mut fr = FlightRecorder::new(cfg());
        // Target 0.4, line at 0.2; user sits at 0.1.
        assert!(fr.observe_user_share("u", 0.1, 0.4, 0.0).is_none());
        assert!(fr.observe_user_share("u", 0.1, 0.4, 50.0).is_none());
        let a = fr
            .observe_user_share("u", 0.1, 0.4, 150.0)
            .expect("window elapsed");
        assert_eq!(a.kind, "starvation");
        assert!(a.detail.contains("user u"));
        // Edge-triggered: the persisting condition stays silent…
        assert!(fr.observe_user_share("u", 0.1, 0.4, 200.0).is_none());
        // …until recovery resets the episode.
        assert!(fr.observe_user_share("u", 0.3, 0.4, 250.0).is_none());
        assert!(fr.observe_user_share("u", 0.1, 0.4, 260.0).is_none());
        assert!(fr.observe_user_share("u", 0.1, 0.4, 400.0).is_some());
    }

    #[test]
    fn recovery_inside_the_window_resets() {
        let mut fr = FlightRecorder::new(cfg());
        fr.observe_user_share("u", 0.1, 0.4, 0.0);
        fr.observe_user_share("u", 0.3, 0.4, 60.0); // recovered
        assert!(
            fr.observe_user_share("u", 0.1, 0.4, 110.0).is_none(),
            "clock restarted at the second drop"
        );
    }

    #[test]
    fn zero_target_never_starves() {
        let mut fr = FlightRecorder::new(cfg());
        assert!(fr.observe_user_share("u", 0.0, 0.0, 0.0).is_none());
        assert!(fr.observe_user_share("u", 0.0, 0.0, 1e9).is_none());
    }

    #[test]
    fn degradation_and_divergence_are_edge_triggered() {
        let mut fr = FlightRecorder::new(cfg());
        assert!(fr.observe_degradation(false, 0.0).is_none());
        assert!(fr.observe_degradation(true, 1.0).is_some());
        assert!(fr.observe_degradation(true, 2.0).is_none());
        assert!(fr.observe_degradation(false, 3.0).is_none());
        assert!(fr.observe_degradation(true, 4.0).is_some());

        assert!(fr.observe_divergence(0.1, 0.0).is_none());
        assert!(fr.observe_divergence(0.3, 1.0).is_some());
        assert!(fr.observe_divergence(0.35, 2.0).is_none());
        assert!(fr.observe_divergence(0.05, 3.0).is_none());
    }

    #[test]
    fn dump_contains_all_sections() {
        let t = Telemetry::with_full_config(
            crate::tracer::TracerConfig::default(),
            16,
            crate::span::SpanConfig::full(0),
        );
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
