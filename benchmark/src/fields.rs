//! A flat record of named numbers and strings: what a pass process prints
//! as its one line of JSON and what the parent reads back.

use aequus_telemetry::export::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Named numbers and strings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fields {
    /// Numeric fields.
    pub num: BTreeMap<String, f64>,
    /// String fields (digests travel as hex: they exceed 2^53).
    pub text: BTreeMap<String, String>,
}

/// `v` as a JSON number with every digit Rust needs to round-trip it.
///
/// # Panics
/// On a non-finite value: no measurement here may produce one.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite value {v} in a result");
    format!("{v}")
}

/// `s` as a JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Fields {
    /// Set a number.
    pub fn set(&mut self, key: &str, v: f64) {
        self.num.insert(key.to_string(), v);
    }

    /// Set a string.
    pub fn set_text(&mut self, key: &str, v: impl Into<String>) {
        self.text.insert(key.to_string(), v.into());
    }

    /// Record a failed check; several accumulate under `error`.
    pub fn add_error(&mut self, e: impl AsRef<str>) {
        let slot = self.text.entry("error".to_string()).or_default();
        if !slot.is_empty() {
            slot.push_str("; ");
        }
        slot.push_str(e.as_ref());
    }

    /// A number, or an error naming the missing key.
    pub fn get(&self, key: &str) -> Result<f64, String> {
        self.num
            .get(key)
            .copied()
            .ok_or_else(|| format!("missing number `{key}`"))
    }

    /// A string, or an error naming the missing key.
    pub fn get_text(&self, key: &str) -> Result<&str, String> {
        self.text
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing string `{key}`"))
    }

    /// One-line JSON object.
    pub fn to_json(&self) -> String {
        let members: Vec<String> = self
            .text
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .chain(
                self.num
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v))),
            )
            .collect();
        format!("{{{}}}", members.join(","))
    }

    /// Parse what [`Fields::to_json`] wrote; other member types are refused.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let Some(JsonValue::Obj(members)) = JsonValue::parse(text.trim()) else {
            return Err("not a JSON object".to_string());
        };
        let mut out = Self::default();
        for (key, value) in members {
            match value {
                JsonValue::Num(v) => {
                    out.num.insert(key, v);
                }
                JsonValue::Str(s) => {
                    out.text.insert(key, s);
                }
                other => {
                    return Err(format!(
                        "member `{key}` is neither number nor string: {other:?}"
                    ))
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_numbers_and_strings() {
        let mut f = Fields::default();
        f.set("wall_s", 8.123456789012345);
        f.set("sim.events", 34540.0);
        f.set("tiny", 1.5e-9);
        f.set_text("sim_digest", "00ff9ce484222325");
        f.set_text("error", "site 3 \"lost\" usage\n");
        assert_eq!(Fields::from_json(&f.to_json()), Ok(f));
        assert!(Fields::from_json("[1]").is_err());
        assert!(Fields::from_json("{\"a\":[1]}").is_err());
    }
}
