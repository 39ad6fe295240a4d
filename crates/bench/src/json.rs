//! A minimal JSON value for the bench-telemetry pipeline.
//!
//! The workspace is offline (no serde). Every JSON document this crate
//! writes — the `BENCH_*.json` telemetry and the refreshed baseline
//! block — goes through [`Json::render`], and the `report check`
//! regression harness reads telemetry (and the checked-in baseline
//! file) back with [`Json::parse`]: a small recursive-descent parser
//! for standard JSON — objects, arrays, strings with the common
//! escapes, f64 numbers, booleans and null — plus the handful of typed
//! accessors the baseline checker uses.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64 — bench metrics are all f64-safe).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (sorted keys; telemetry keys are unique).
    Obj(BTreeMap<String, Json>),
}

/// A parse error with byte offset context.
#[derive(Debug)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(p.err("trailing garbage after document"));
        }
        Ok(v)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as a bool, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialize as a JSON document that [`Json::parse`] reads back
    /// equal. A container holding no array goes on one line (a telemetry
    /// row, a gate); anything holding an array spreads one element per
    /// line. Non-finite numbers render as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn holds_array(&self) -> bool {
        match self {
            Json::Arr(_) => true,
            Json::Obj(m) => m.values().any(Json::holds_array),
            _ => false,
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, items): (char, char, Vec<(Option<&String>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => return write!(out, "{n}").expect("infallible"),
            Json::Num(_) => return out.push_str("null"),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(a) => ('[', ']', a.iter().map(|v| (None, v)).collect()),
            Json::Obj(m) => ('{', '}', m.iter().map(|(k, v)| (Some(k), v)).collect()),
        };
        let spread = self.holds_array() && !items.is_empty();
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
                if !spread {
                    out.push(' ');
                }
            }
            if spread {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            }
            if let Some(k) = key {
                write_str(out, k);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if spread {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("infallible"),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}
from_integer!(u64, usize, u16);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            at: self.i,
        }
    }

    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number {text:?}")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.i + 4 > self.b.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.i += 4;
                            // Surrogate pairs don't occur in the bench
                            // telemetry; map them to the replacement
                            // char rather than failing the whole file.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume the full UTF-8 sequence starting at c.
                    let len = utf8_len(c);
                    let start = self.i - 1;
                    if start + len > self.b.len() {
                        return Err(self.err("truncated UTF-8"));
                    }
                    self.i = start + len;
                    let s = std::str::from_utf8(&self.b[start..self.i])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            m.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut a = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(a));
        }
        loop {
            self.skip_ws();
            a.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(a));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse("\"a b\"").unwrap(), Json::Str("a b".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"rows": [{"label": "x", "v": 1.5}, {"label": "y", "v": 2}], "ok": true}"#;
        let j = Json::parse(doc).unwrap();
        let rows = j.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("label").unwrap().as_str(), Some("x"));
        assert_eq!(rows[1].get("v").unwrap().as_f64(), Some(2.0));
        assert_eq!(j.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let j = Json::parse(r#""a\n\"b\" é — c""#).unwrap();
        assert_eq!(j.as_str(), Some("a\n\"b\" é — c"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn render_roundtrips_through_parse() {
        let row = |label: &str, v: f64| {
            Json::Obj(BTreeMap::from([
                ("label".to_string(), Json::from(label)),
                ("v".to_string(), Json::from(v)),
                ("ok".to_string(), Json::from(true)),
            ]))
        };
        let doc = Json::Obj(BTreeMap::from([
            ("experiment".to_string(), Json::from("e0_test")),
            ("count".to_string(), Json::from(18_446_744_073u64)),
            ("none".to_string(), Json::Null),
            ("empty".to_string(), Json::Arr(Vec::new())),
            (
                "rows".to_string(),
                Json::Arr(vec![
                    row("quote \" and backslash \\ and\ttab", 18123.456789),
                    row("tiny", 1.0e-7),
                    row("négatif — \u{1}", -0.125),
                ]),
            ),
        ]));
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
        // Rows stay one per line; non-finite numbers become null.
        assert_eq!(text.lines().filter(|l| l.contains("\"label\"")).count(), 3);
        assert_eq!(Json::from(f64::NAN).render(), "null\n");
    }

    #[test]
    fn roundtrips_real_bench_telemetry_shape() {
        // The shape the hand-assembled telemetry writers used to emit.
        let doc = "{\n  \"experiment\": \"e11_group_commit\",\n  \"mode\": \"smoke\",\n  \
                   \"rows\": [\n    {\"label\": \"inline group adaptive\", \"threads\": 32, \
                   \"commits_per_sec\": 18123.456}\n  ],\n  \"gates\": [\n    \
                   {\"name\": \"g\", \"value\": 2.5, \"threshold\": 2.0, \"pass\": true}\n  ]\n}\n";
        let j = Json::parse(doc).unwrap();
        assert_eq!(j.get("mode").unwrap().as_str(), Some("smoke"));
        let rows = j.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(
            rows[0].get("commits_per_sec").unwrap().as_f64(),
            Some(18123.456)
        );
        assert_eq!(
            j.get("gates").unwrap().as_arr().unwrap()[0]
                .get("pass")
                .unwrap()
                .as_bool(),
            Some(true)
        );
    }
}
