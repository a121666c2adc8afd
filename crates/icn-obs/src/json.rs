//! Minimal JSON value type, writer and parser.
//!
//! The workspace cannot rely on external crates (builds must succeed fully
//! offline), so the observability layer carries its own small JSON
//! implementation. It covers exactly what the repo needs: building report
//! documents, serialising configuration structs, and parsing reports back
//! in tests. Numbers are `f64`; object key order is insertion order, which
//! keeps exported reports deterministic.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered so output is deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string node.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds a number node.
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// Looks up a key in an object node.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object entries, if this is an object.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_compact(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, None, 0);
        s
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut s = String::new();
        self.write(&mut s, Some(2), 0);
        s.push('\n');
        s
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Returns an error message with a byte offset
    /// on malformed input, including arrays and objects nested more than
    /// `MAX_DEPTH` levels deep (the parser recurses once per level).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut p = Parser {
            bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Convenience: an object node built from a string-keyed map of counters.
pub fn counters_obj(counters: &BTreeMap<String, u64>) -> Json {
    Json::Obj(
        counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
            .collect(),
    )
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no NaN/Inf; null is the conventional stand-in.
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts. Every document
/// the repository writes nests fewer than ten levels; the limit only
/// keeps hostile input from overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our own
                            // output; map lone surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                _ => {
                    // Re-synchronise on UTF-8 boundaries: step back and take
                    // the full char.
                    self.pos -= 1;
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    let c = rest.chars().next().unwrap();
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::obj(vec![
            ("name", Json::str("stage \"one\"\n")),
            ("wall_ms", Json::num(12.25)),
            ("n", Json::num(42.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "items",
                Json::Arr(vec![Json::num(-1.5), Json::str("α/β"), Json::Bool(false)]),
            ),
        ]);
        for text in [doc.to_compact(), doc.to_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::num(42.0).to_compact(), "42");
        assert_eq!(Json::num(-3.0).to_compact(), "-3");
        assert_eq!(Json::num(0.5).to_compact(), "0.5");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::num(f64::NAN).to_compact(), "null");
        assert_eq!(Json::num(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn get_and_accessors() {
        let doc = Json::parse(r#"{"a": [1, 2], "b": "x", "c": true}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("c").unwrap().as_bool(), Some(true));
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn nesting_beyond_the_limit_is_an_error() {
        // A million unclosed brackets used to overflow the stack.
        let err = Json::parse(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let nested =
            |open: &str, close: &str, n: usize| format!("{}1{}", open.repeat(n), close.repeat(n));
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            assert!(Json::parse(&nested(open, close, MAX_DEPTH)).is_ok());
            assert!(Json::parse(&nested(open, close, MAX_DEPTH + 1)).is_err());
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#""a\tbA\n""#).unwrap();
        assert_eq!(v.as_str(), Some("a\tbA\n"));
    }

    #[test]
    fn whitespace_tolerant() {
        let v = Json::parse(" { \"k\" :\n[ 1 , 2 ]\t} ").unwrap();
        assert_eq!(v.get("k").unwrap().as_arr().unwrap().len(), 2);
    }
}
