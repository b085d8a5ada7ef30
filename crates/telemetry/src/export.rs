//! Labeled series names for the registry: a user- or site-named series
//! carries its labels in its key, escaped as the Prometheus text
//! exposition format escapes label values, so hostile characters in a
//! name never break the key apart. A run's telemetry is read as
//! in-memory [`crate::Snapshot`] values; the crate's JSON reader,
//! [`JsonValue`], reads the documents the program writes.

pub use crate::json::JsonValue;

/// Escape a label value as the Prometheus text exposition format does:
/// backslash, double quote, and newline are escaped (a raw newline would
/// even break the format's line framing).
fn escape_label_value(s: &str) -> String {
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
/// values (just `base` when `labels` is empty) — how user- and site-named
/// series carry hostile characters safely.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_name_escapes_and_orders_labels() {
        assert_eq!(series_name("base", &[]), "base");
        assert_eq!(
            series_name("base", &[("a", "x"), ("b", "y\"z")]),
            "base{a=\"x\",b=\"y\\\"z\"}"
        );
        assert_eq!(escape_label_value("p\\q\"r\ns"), "p\\\\q\\\"r\\ns");
    }
}
