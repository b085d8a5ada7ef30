//! The crate's one hand-rolled JSON reader, string escape and number
//! writer. Run profiles, alert events, flight records and the services'
//! health report write strings through [`escape`] and numbers through
//! [`json_f64`] (decision explanations in `aequus-core` escape their
//! strings here too); every reader of a JSON document the program writes —
//! explanations, the benchmark's result files — reads through
//! [`JsonValue`]. Malformed input (bad escapes, truncated documents,
//! trailing bytes) parses to `None`, never a panic.

use std::collections::BTreeMap;

/// A JSON number, or — JSON has none for them — the quoted name of a
/// non-finite value (`"inf"`, `"-inf"`, `"nan"`, which
/// [`JsonValue::as_f64`] reads back). The one number writer of every JSON
/// document.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` is the shortest representation that round-trips.
        format!("{v:?}")
    } else if v.is_nan() {
        "\"nan\"".to_string()
    } else if v > 0.0 {
        "\"inf\"".to_string()
    } else {
        "\"-inf\"".to_string()
    }
}

/// Escape `s` for use inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The cursor under [`JsonValue::parse`].
struct JsonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonReader<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            match b {
                b'"' => return Some(out),
                b'\\' => {
                    let e = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                b => {
                    // Re-assemble multi-byte UTF-8 sequences; pushing the
                    // lead byte as a char would mangle non-ASCII text.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let seq = self.bytes.get(start..start + len)?;
                    out.push_str(std::str::from_utf8(seq).ok()?);
                    self.pos = start + len;
                }
            }
        }
    }

    /// A number.
    fn number(&mut self) -> Option<f64> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    /// Visit each element of an array, with elements parsed by `f`.
    fn array(&mut self, mut f: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.eat(b'[')?;
        if self.peek() == Some(b']') {
            return self.eat(b']');
        }
        loop {
            f(self)?;
            match self.peek()? {
                b',' => self.eat(b',')?,
                b']' => return self.eat(b']'),
                _ => return None,
            }
        }
    }

    /// Visit each `"key": value` pair of an object, with `value` parsed by
    /// `f`.
    fn object(&mut self, mut f: impl FnMut(&mut Self, String) -> Option<()>) -> Option<()> {
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            return self.eat(b'}');
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            f(self, key)?;
            match self.peek()? {
                b',' => self.eat(b',')?,
                b'}' => return self.eat(b'}'),
                _ => return None,
            }
        }
    }
}

/// A parsed JSON document — the face of the crate's hand-rolled reader,
/// for every shape the program writes (Chrome traces, run profiles,
/// explanations, bench result files). Numbers are `f64`; exact-`u64`
/// consumers should stay under 2^53 or parse their own fields.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. The quoted non-finite markers [`json_f64`] writes
    /// (`"inf"`, `"-inf"`, `"nan"`) parse as strings; [`JsonValue::as_f64`]
    /// reads them back as numbers.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, keys sorted.
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Parse a complete JSON document. Returns `None` on malformed input
    /// or trailing garbage.
    pub fn parse(text: &str) -> Option<JsonValue> {
        let mut r = JsonReader::new(text);
        let v = r.value()?;
        r.skip_ws();
        if r.pos == r.bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value; also decodes the quoted non-finite markers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            JsonValue::Str(s) => match s.as_str() {
                "inf" | "+inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                "nan" => Some(f64::NAN),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as an unsigned integer (exact only below 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object members.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }
}

impl JsonReader<'_> {
    /// Match the exact keyword `kw` at the cursor.
    fn literal(&mut self, kw: &str) -> Option<()> {
        self.skip_ws();
        let end = self.pos + kw.len();
        if self.bytes.get(self.pos..end) == Some(kw.as_bytes()) {
            self.pos = end;
            Some(())
        } else {
            None
        }
    }

    /// Parse any JSON value into a [`JsonValue`] tree.
    fn value(&mut self) -> Option<JsonValue> {
        match self.peek()? {
            b'{' => {
                let mut m = BTreeMap::new();
                self.object(|r, key| {
                    m.insert(key, r.value()?);
                    Some(())
                })?;
                Some(JsonValue::Obj(m))
            }
            b'[' => {
                let mut v = Vec::new();
                self.array(|r| {
                    v.push(r.value()?);
                    Some(())
                })?;
                Some(JsonValue::Arr(v))
            }
            b'"' => Some(JsonValue::Str(self.string()?)),
            b't' => {
                self.literal("true")?;
                Some(JsonValue::Bool(true))
            }
            b'f' => {
                self.literal("false")?;
                Some(JsonValue::Bool(false))
            }
            b'n' => {
                self.literal("null")?;
                Some(JsonValue::Null)
            }
            _ => Some(JsonValue::Num(self.number()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A string over the characters the escape must handle: quotes,
    /// backslashes, newlines, control characters, non-ASCII.
    fn weird_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(0usize..12, 0..12).prop_map(|picks| {
            let charset = [
                'a', 'Z', '0', '_', '"', '\\', '\n', '\u{1}', '\u{1f}', 'π', ' ', '}',
            ];
            picks.into_iter().map(|i| charset[i]).collect()
        })
    }

    /// A finite or infinite `f64` (never NaN, which equals nothing).
    fn value() -> impl Strategy<Value = f64> {
        (0usize..8, -1e300..1e300f64).prop_map(|(k, v)| match k {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => 0.0,
            3 => v * 1e-300, // subnormal territory
            _ => v,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A hostile string written through [`escape`], as a key and as a
        /// value, and a number written through [`json_f64`] read back equal.
        #[test]
        fn hostile_strings_and_numbers_read_back_equal(s in weird_string(), v in value()) {
            let doc = format!("{{\"{0}\":[\"{0}\",{1}]}}", escape(&s), json_f64(v));
            let parsed = JsonValue::parse(&doc).expect("valid JSON");
            let items = parsed.get(&s).and_then(JsonValue::as_array).expect("the key");
            prop_assert_eq!(items[0].as_str(), Some(s.as_str()));
            prop_assert_eq!(items[1].as_f64(), Some(v));
        }
    }

    #[test]
    fn generic_json_value_parses_arbitrary_documents() {
        let v = JsonValue::parse(
            "{\"a\":[1,2.5,\"x\"],\"b\":{\"c\":true,\"d\":null},\"e\":-3,\"inf\":\"inf\"}",
        )
        .expect("valid document");
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("x")
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("e").unwrap().as_f64(), Some(-3.0));
        assert_eq!(v.get("e").unwrap().as_u64(), None, "negative is not u64");
        assert_eq!(v.get("inf").unwrap().as_f64(), Some(f64::INFINITY));
        assert!(JsonValue::parse("{\"a\":1} trailing").is_none());
        assert!(JsonValue::parse("{\"a\":tru}").is_none());
        assert!(JsonValue::parse("[1,]").is_none());
    }

    #[test]
    fn escapes_round_trip_through_the_reader() {
        let hostile = "q\"b\\n\nr\rt\tc\u{1}é";
        let doc = format!("\"{}\"", escape(hostile));
        assert_eq!(JsonValue::parse(&doc).unwrap().as_str(), Some(hostile));
        // The short forms other writers use for CR and TAB read back too.
        assert_eq!(
            JsonValue::parse("\"a\\rb\\tc\"").unwrap().as_str(),
            Some("a\rb\tc")
        );
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{\"a\":",
            "{\"a\" 1}",
            "{a:1}",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"short \\u12\"",
            "\"lone surrogate \\ud800\"",
            "\"truncated utf8 \u{e9}",
            "1 2",
            "[1] x",
            "--",
        ] {
            assert!(JsonValue::parse(bad).is_none(), "accepted {bad:?}");
        }
    }
}
