//! Snapshot exporters: Prometheus text exposition and JSON, plus parsers
//! for both so a scraped/archived snapshot can be loaded back (used by the
//! bench harness and the round-trip tests). Hand-rolled — the telemetry
//! crate carries no dependencies; the JSON reader itself is [`crate::json`].
//!
//! Non-finite values (`+inf` from the histogram overflow bucket) are
//! rendered as `inf` in Prometheus text (as the real exporter does) and as
//! the JSON strings `"inf"` / `"-inf"` / `"nan"` so the JSON stays valid.

use crate::events::TelemetryEvent;
use crate::hist::HistogramSnapshot;
use crate::json::{escape as json_escape, fmt_f64, json_f64, parse_f64, JsonReader};
use crate::registry::Snapshot;
use std::collections::BTreeMap;

pub use crate::json::JsonValue;

/// Escape a label value for the Prometheus text exposition format:
/// backslash, double quote, and newline must be escaped or the series line
/// is unparseable (a raw newline even breaks the format's line framing).
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The canonical labeled series key `base{k="v",…}` with escaped label
/// values (just `base` when `labels` is empty). Registry entries keyed this
/// way export verbatim and round-trip through [`from_prometheus`] — this is
/// how user- and site-named series carry hostile characters safely.
pub fn series_name(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = format!("{base}{{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{k}=\"{}\"", escape_label_value(v)));
    }
    out.push('}');
    out
}

/// The series name with any `{…}` label section removed.
fn base_name(series: &str) -> &str {
    series.split('{').next().unwrap_or(series)
}

/// Render `snap` in the Prometheus text exposition format. Histograms are
/// exported as summaries: `<name>{quantile="…"}` series plus `_count`,
/// `_sum`, and `_max`. Labeled counter/gauge series (keys built with
/// [`series_name`]) share one `# TYPE` comment per base name. Events are
/// *not* rendered — the exposition format has no place for them; use
/// [`to_json`] for a lossless archive.
pub fn to_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut typed: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for (name, v) in &snap.counters {
        let base = base_name(name);
        if typed.insert(base) {
            out.push_str(&format!("# TYPE {base} counter\n"));
        }
        out.push_str(&format!("{name} {v}\n"));
    }
    typed.clear();
    for (name, v) in &snap.gauges {
        let base = base_name(name);
        if typed.insert(base) {
            out.push_str(&format!("# TYPE {base} gauge\n"));
        }
        out.push_str(&format!("{name} {}\n", fmt_f64(*v)));
    }
    for (name, h) in &snap.histograms {
        out.push_str(&format!("# TYPE {name} summary\n"));
        for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
            out.push_str(&format!("{name}{{quantile=\"{q}\"}} {}\n", fmt_f64(v)));
        }
        out.push_str(&format!("{name}_count {}\n", h.count));
        out.push_str(&format!("{name}_sum {}\n", fmt_f64(h.sum)));
        out.push_str(&format!("{name}_max {}\n", fmt_f64(h.max)));
    }
    out
}

/// Split a sample line into `(series, value)`. A naive `rsplit(' ')` would
/// split inside quoted label values (spaces are legal there); instead, scan
/// past the label section respecting quotes and backslash escapes.
fn split_sample(line: &str) -> Option<(&str, &str)> {
    let Some(open) = line.find('{') else {
        return line.rsplit_once(' ');
    };
    let bytes = line.as_bytes();
    let mut i = open + 1;
    let mut in_quotes = false;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_quotes => i += 1,
            b'"' => in_quotes = !in_quotes,
            b'}' if !in_quotes => {
                let value = line[i + 1..].trim();
                if value.is_empty() {
                    return None;
                }
                return Some((&line[..=i], value));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parse text produced by [`to_prometheus`] back into a [`Snapshot`].
/// Returns `None` on any malformed line.
pub fn from_prometheus(text: &str) -> Option<Snapshot> {
    let mut snap = Snapshot::default();
    // name -> declared type, from `# TYPE` comments.
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest.split_once(' ')?;
            types.insert(name.to_string(), ty.to_string());
            if ty == "summary" {
                snap.histograms
                    .insert(name.to_string(), HistogramSnapshot::default());
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = split_sample(line)?;
        if let Some((name, labels)) = series.split_once('{') {
            // Histogram quantile series keep their dedicated decoding; any
            // other labeled series is a counter or gauge stored under its
            // full (already-canonical) series key.
            let quantile = labels
                .strip_suffix("\"}")
                .and_then(|l| l.strip_prefix("quantile=\""));
            if let (Some(q), Some(h)) = (quantile, snap.histograms.get_mut(name)) {
                let v = parse_f64(value)?;
                match q {
                    "0.5" => h.p50 = v,
                    "0.95" => h.p95 = v,
                    "0.99" => h.p99 = v,
                    _ => return None,
                }
                continue;
            }
            match types.get(name).map(String::as_str) {
                Some("counter") => {
                    snap.counters
                        .insert(series.to_string(), value.parse().ok()?);
                }
                Some("gauge") => {
                    snap.gauges.insert(series.to_string(), parse_f64(value)?);
                }
                _ => return None,
            }
            continue;
        }
        // Histogram component series or a plain counter/gauge.
        if let Some(name) = series.strip_suffix("_count") {
            if let Some(h) = snap.histograms.get_mut(name) {
                h.count = value.parse().ok()?;
                continue;
            }
        }
        if let Some(name) = series.strip_suffix("_sum") {
            if let Some(h) = snap.histograms.get_mut(name) {
                h.sum = parse_f64(value)?;
                continue;
            }
        }
        if let Some(name) = series.strip_suffix("_max") {
            if let Some(h) = snap.histograms.get_mut(name) {
                h.max = parse_f64(value)?;
                continue;
            }
        }
        match types.get(series).map(String::as_str) {
            Some("counter") => {
                snap.counters
                    .insert(series.to_string(), value.parse().ok()?);
            }
            Some("gauge") => {
                snap.gauges.insert(series.to_string(), parse_f64(value)?);
            }
            _ => return None,
        }
    }
    Some(snap)
}

/// Render `snap` as a JSON object with `counters`, `gauges`, `histograms`,
/// `events`, and `events_dropped` members.
pub fn to_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    let mut first = true;
    for (name, v) in &snap.counters {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{}\":{v}", json_escape(name)));
    }
    out.push_str("},\"gauges\":{");
    first = true;
    for (name, v) in &snap.gauges {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{}\":{}", json_escape(name), json_f64(*v)));
    }
    out.push_str("},\"histograms\":{");
    first = true;
    for (name, h) in &snap.histograms {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            json_escape(name),
            h.count,
            json_f64(h.sum),
            json_f64(h.max),
            json_f64(h.p50),
            json_f64(h.p95),
            json_f64(h.p99),
        ));
    }
    out.push_str("},\"events\":[");
    first = true;
    for ev in &snap.events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"t_s\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
            json_f64(ev.t_s),
            json_escape(&ev.kind),
            json_escape(&ev.detail),
        ));
    }
    out.push_str(&format!("],\"events_dropped\":{}}}", snap.events_dropped));
    out
}

/// Parse JSON produced by [`to_json`] back into a [`Snapshot`]. Returns
/// `None` on malformed input.
pub fn from_json(text: &str) -> Option<Snapshot> {
    let mut snap = Snapshot::default();
    let mut r = JsonReader::new(text);
    r.object(|r, section| match section.as_str() {
        "counters" => r.object(|r, name| {
            let v = r.integer()?;
            snap.counters.insert(name, v);
            Some(())
        }),
        "gauges" => r.object(|r, name| {
            let v = r.number()?;
            snap.gauges.insert(name, v);
            Some(())
        }),
        "histograms" => r.object(|r, name| {
            let mut h = HistogramSnapshot::default();
            r.object(|r, field| {
                match field.as_str() {
                    "count" => h.count = r.integer()?,
                    "sum" => h.sum = r.number()?,
                    "max" => h.max = r.number()?,
                    "p50" => h.p50 = r.number()?,
                    "p95" => h.p95 = r.number()?,
                    "p99" => h.p99 = r.number()?,
                    _ => return None,
                }
                Some(())
            })?;
            snap.histograms.insert(name, h);
            Some(())
        }),
        "events" => r.array(|r| {
            let mut ev = TelemetryEvent {
                t_s: 0.0,
                kind: String::new(),
                detail: String::new(),
            };
            r.object(|r, field| {
                match field.as_str() {
                    "t_s" => ev.t_s = r.number()?,
                    "kind" => ev.kind = r.string()?,
                    "detail" => ev.detail = r.string()?,
                    _ => return None,
                }
                Some(())
            })?;
            snap.events.push(ev);
            Some(())
        }),
        "events_dropped" => {
            snap.events_dropped = r.integer()?;
            Some(())
        }
        _ => None,
    })?;
    Some(snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.counter("aequus_uss_records_ingested_total").add(42);
        r.counter("aequus_fcs_queries_total").add(7);
        r.gauge("aequus_uss_peer_staleness_s").set(3.0);
        let h = r.histogram("aequus_fcs_refresh_full_s");
        h.record(0.5);
        h.record(1.5);
        h.record(4.0);
        // An overflowing histogram exercises the inf paths.
        r.histogram("aequus_overflow_s").record(1e12);
        r.snapshot()
    }

    #[test]
    fn prometheus_round_trips() {
        let snap = sample_snapshot();
        let text = to_prometheus(&snap);
        assert!(text.contains("# TYPE aequus_fcs_queries_total counter"));
        assert!(text.contains("aequus_fcs_refresh_full_s{quantile=\"0.99\"}"));
        assert!(text.contains("aequus_overflow_s{quantile=\"0.5\"} inf"));
        let back = from_prometheus(&text).expect("parse own output");
        assert_eq!(back, snap);
    }

    #[test]
    fn labeled_series_round_trip_with_hostile_values() {
        let r = Registry::new();
        // User/site names carrying every character the text format must
        // escape — backslash, double quote, newline — plus a raw space.
        let evil = "a\\b\"c\nd e";
        r.counter(&series_name(
            "aequus_slo_alert_transitions_total",
            &[("rule", &format!("fairness:{evil}")), ("to", "firing")],
        ))
        .add(3);
        r.counter("aequus_slo_alert_transitions_total").add(9);
        r.gauge(&series_name(
            "aequus_health_link_staleness_p99_s",
            &[("from", "site 0"), ("to", evil), ("depth", "2")],
        ))
        .set(12.5);
        let snap = r.snapshot();
        let text = to_prometheus(&snap);
        // One TYPE comment per base name even with labeled + plain series.
        assert_eq!(
            text.matches("# TYPE aequus_slo_alert_transitions_total counter")
                .count(),
            1
        );
        // The hostile value is escaped on the wire, never raw.
        assert!(text.contains("to=\"a\\\\b\\\"c\\nd e\""));
        assert!(!text.contains("a\\b\"c\nd"));
        let back = from_prometheus(&text).expect("parse own labeled output");
        assert_eq!(back, snap);
        // JSON round-trips the same keys via its own escaping.
        assert_eq!(from_json(&to_json(&snap)).unwrap(), snap);
    }

    #[test]
    fn series_name_escapes_and_orders_labels() {
        assert_eq!(series_name("base", &[]), "base");
        assert_eq!(
            series_name("base", &[("a", "x"), ("b", "y\"z")]),
            "base{a=\"x\",b=\"y\\\"z\"}"
        );
        assert_eq!(escape_label_value("p\\q\"r\ns"), "p\\\\q\\\"r\\ns");
    }

    #[test]
    fn split_sample_respects_quoted_spaces() {
        assert_eq!(split_sample("m{u=\"a b\"} 3"), Some(("m{u=\"a b\"}", "3")));
        assert_eq!(
            split_sample("m{u=\"a\\\"} b\"} 4"),
            Some(("m{u=\"a\\\"} b\"}", "4")),
            "escaped quote inside the value does not close the section"
        );
        assert_eq!(split_sample("plain 7"), Some(("plain", "7")));
        assert!(split_sample("m{u=\"open 3").is_none());
        assert!(
            split_sample("m{u=\"v\"}").is_none(),
            "no value after labels"
        );
    }

    #[test]
    fn json_round_trips() {
        let snap = sample_snapshot();
        let json = to_json(&snap);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"p99\":\"inf\""));
        let back = from_json(&json).expect("parse own output");
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot::default();
        assert_eq!(from_prometheus(&to_prometheus(&snap)).unwrap(), snap);
        assert_eq!(from_json(&to_json(&snap)).unwrap(), snap);
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(from_prometheus("garbage with no type\n").is_none());
        assert!(from_json("{\"counters\":").is_none());
        assert!(from_json("not json").is_none());
    }

    #[test]
    fn json_round_trips_events() {
        let mut snap = sample_snapshot();
        snap.events.push(TelemetryEvent {
            t_s: 12.5,
            kind: "uss.gossip_merge".to_string(),
            detail: "peer 3, \"seq\" 7\nsecond line".to_string(),
        });
        snap.events.push(TelemetryEvent {
            t_s: -1.0,
            kind: "pds.policy_update".to_string(),
            detail: String::new(),
        });
        snap.events_dropped = 9;
        let json = to_json(&snap);
        assert!(json.contains("\"events_dropped\":9"));
        let back = from_json(&json).expect("events round-trip");
        assert_eq!(back, snap);
        // Prometheus deliberately omits events.
        let prom_back = from_prometheus(&to_prometheus(&snap)).unwrap();
        assert!(prom_back.events.is_empty());
        assert_eq!(prom_back.counters, snap.counters);
    }

    #[test]
    fn generic_json_value_reads_snapshot_export() {
        let snap = sample_snapshot();
        let v = JsonValue::parse(&to_json(&snap)).expect("snapshot export is valid JSON");
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("aequus_fcs_queries_total")
                .unwrap()
                .as_u64(),
            Some(7)
        );
        assert!(v.get("events").unwrap().as_array().is_some());
    }

    #[test]
    fn json_escapes_special_keys() {
        let r = Registry::new();
        r.counter("weird\"name\\with\nstuff").add(1);
        let snap = r.snapshot();
        let back = from_json(&to_json(&snap)).expect("escaped key round-trips");
        assert_eq!(back, snap);
    }
}
