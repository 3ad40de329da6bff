//! A small total JSON value model: encoder + panic-free typed parser.
//!
//! This is the one JSON encoder in the workspace — metric snapshots, lint
//! reports and the example dumps all render through it, so their
//! formatting is pinned by one set of tests.
//! Discipline mirrors the store codec: the parser is **total** (arbitrary
//! input returns a typed [`JsonError`], never a panic, with a bounded
//! nesting depth so adversarial input cannot blow the stack) and the
//! encoder is deterministic (object keys keep insertion order; callers
//! that want sorted output insert sorted).
//!
//! Numbers preserve integer exactness: integral literals parse to
//! [`Json::UInt`]/[`Json::Int`] (full 64-bit range, no `f64` rounding),
//! everything else to [`Json::Float`]. Non-finite floats have no JSON
//! representation and encode as `null`.

use std::fmt;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Non-negative integral number, exact over the full `u64` range.
    UInt(u64),
    /// Negative integral number.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; insertion-ordered `(key, value)` pairs.
    Obj(Vec<(String, Json)>),
}

/// Where and why parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Failure class.
    pub kind: JsonErrorKind,
}

/// Failure classes for [`JsonError`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Input ended mid-value.
    UnexpectedEof,
    /// A byte that cannot start or continue the expected token.
    UnexpectedChar(char),
    /// Valid value followed by trailing non-whitespace.
    TrailingData,
    /// Nesting deeper than the supported maximum.
    DepthExceeded,
    /// Malformed number literal.
    InvalidNumber,
    /// Malformed `\` escape or `\u` sequence.
    InvalidEscape,
    /// Structural expectation failed (e.g. missing `:` or `,`).
    Expected(&'static str),
    /// A well-formed document whose shape didn't match the decoder's
    /// expectation (used by typed `from_json` decoders).
    Schema(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            JsonErrorKind::UnexpectedEof => write!(f, "unexpected end of input"),
            JsonErrorKind::UnexpectedChar(c) => write!(f, "unexpected character {c:?}"),
            JsonErrorKind::TrailingData => write!(f, "trailing data after value"),
            JsonErrorKind::DepthExceeded => write!(f, "nesting deeper than {MAX_DEPTH}"),
            JsonErrorKind::InvalidNumber => write!(f, "invalid number literal"),
            JsonErrorKind::InvalidEscape => write!(f, "invalid string escape"),
            JsonErrorKind::Expected(what) => write!(f, "expected {what}"),
            JsonErrorKind::Schema(what) => write!(f, "schema mismatch: {what}"),
        }?;
        write!(f, " at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// A schema-mismatch error (offset 0; the document itself was valid).
    pub fn schema(what: impl Into<String>) -> Self {
        JsonError {
            offset: 0,
            kind: JsonErrorKind::Schema(what.into()),
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        if v >= 0 {
            Json::UInt(v as u64)
        } else {
            Json::Int(v)
        }
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An empty object, to be filled with [`Json::set`].
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append/replace `key` in an object (no-op on non-objects). Returns
    /// `self` for builder-style chaining.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        if let Json::Obj(pairs) = &mut self {
            let value = value.into();
            if let Some(pair) = pairs.iter_mut().find(|(k, _)| k == key) {
                pair.1 = value;
            } else {
                pairs.push((key.to_string(), value));
            }
        }
        self
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value widened to `u64` if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Numeric value narrowed to `i64` if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::UInt(v) => i64::try_from(*v).ok(),
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Any numeric value as `f64` (lossy for large integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Array items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Multi-line rendering indented by two spaces per level — the format
    /// of the example's metrics dump.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    // `{:?}` keeps a fractional part or exponent, so the
                    // value reparses as Float, not as an integer.
                    out.push_str(&format!("{v:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, level, '[', ']', items.len(), |out, i, lvl| {
                    items[i].write(out, indent, lvl);
                });
            }
            Json::Obj(pairs) => {
                write_seq(out, indent, level, '{', '}', pairs.len(), |out, i, lvl| {
                    write_escaped(out, &pairs[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    pairs[i].1.write(out, indent, lvl);
                });
            }
        }
    }

    /// Parse a complete JSON document. Total: any byte sequence yields
    /// either a value or a typed [`JsonError`].
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(p.err(JsonErrorKind::TrailingData));
        }
        Ok(value)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (level + 1)));
        }
        item(out, i, level + 1);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * level));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            offset: self.pos,
            kind,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else if self.peek().is_none() {
            Err(self.err(JsonErrorKind::UnexpectedEof))
        } else {
            Err(self.err(JsonErrorKind::Expected(what)))
        }
    }

    fn literal(&mut self, word: &'static str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(JsonErrorKind::Expected(word)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(JsonErrorKind::DepthExceeded));
        }
        match self.peek() {
            None => Err(self.err(JsonErrorKind::UnexpectedEof)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(JsonErrorKind::UnexpectedChar(other as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
                Some(_) => return Err(self.err(JsonErrorKind::Expected("',' or ']'"))),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err(JsonErrorKind::Expected("object key")));
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':', "':'")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
                Some(_) => return Err(self.err(JsonErrorKind::Expected("',' or '}'"))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote/escape.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, and we only stopped at ASCII
                // boundaries, so this slice is valid UTF-8.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err(JsonErrorKind::InvalidEscape))?,
                );
            }
            match self.peek() {
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err(JsonErrorKind::InvalidEscape)),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(b) = self.peek() else {
            return Err(self.err(JsonErrorKind::UnexpectedEof));
        };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let scalar = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require a trailing \uXXXX low half.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        if self.peek() != Some(b'u') {
                            return Err(self.err(JsonErrorKind::InvalidEscape));
                        }
                        self.pos += 1;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err(JsonErrorKind::InvalidEscape));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.err(JsonErrorKind::InvalidEscape));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err(JsonErrorKind::InvalidEscape));
                } else {
                    hi
                };
                out.push(
                    char::from_u32(scalar).ok_or_else(|| self.err(JsonErrorKind::InvalidEscape))?,
                );
            }
            _ => return Err(self.err(JsonErrorKind::InvalidEscape)),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err(JsonErrorKind::UnexpectedEof));
            };
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err(JsonErrorKind::InvalidEscape))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_digits = self.digit_run();
        if int_digits == 0 {
            return Err(self.err(JsonErrorKind::InvalidNumber));
        }
        // Leading zeros are invalid JSON ("01") except for a lone zero.
        if int_digits > 1 && self.bytes[start + usize::from(negative)] == b'0' {
            return Err(self.err(JsonErrorKind::InvalidNumber));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if self.digit_run() == 0 {
                return Err(self.err(JsonErrorKind::InvalidNumber));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digit_run() == 0 {
                return Err(self.err(JsonErrorKind::InvalidNumber));
            }
        }
        // The scanned range is ASCII digits/sign/dot/exp by construction.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err(JsonErrorKind::InvalidNumber))?;
        if integral {
            if negative {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(if v >= 0 {
                        Json::UInt(v as u64)
                    } else {
                        Json::Int(v)
                    });
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
            // Integral but outside 64-bit range: fall through to float.
        }
        let v = text
            .parse::<f64>()
            .map_err(|_| self.err(JsonErrorKind::InvalidNumber))?;
        if v.is_finite() {
            Ok(Json::Float(v))
        } else {
            Err(self.err(JsonErrorKind::InvalidNumber))
        }
    }

    fn digit_run(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for src in [
            "null",
            "true",
            "false",
            "0",
            "18446744073709551615",
            "-42",
            "-9223372036854775808",
            "1.5",
            "\"hi \\\"there\\\"\"",
            "[]",
            "{}",
            "[1,2,[3]]",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = Json::parse(src).unwrap();
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "src={src}");
        }
    }

    #[test]
    fn integer_exactness_preserved() {
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap(),
            Json::Int(i64::MIN)
        );
        // 2^64 doesn't fit u64 → float fallback, still parses.
        assert!(matches!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Float(_)
        ));
    }

    #[test]
    fn float_render_reparses_as_float() {
        let v = Json::Float(1.0);
        assert_eq!(v.render(), "1.0");
        assert!(matches!(Json::parse("1.0").unwrap(), Json::Float(_)));
        assert_eq!(Json::Float(f64::NAN).render(), "null");
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse("\"a\\u00e9b \\ud83d\\ude00 \\n\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "aéb 😀 \n");
        let rendered = Json::Str("tab\tnl\nquote\"".into()).render();
        assert_eq!(
            Json::parse(&rendered).unwrap().as_str().unwrap(),
            "tab\tnl\nquote\""
        );
    }

    #[test]
    fn malformed_inputs_yield_typed_errors() {
        for src in [
            "",
            "tru",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "\"\\q\"",
            "\"\\ud800\"",
            "[1]2",
            "nulll",
            "-",
            "\u{7f}",
        ] {
            let err = Json::parse(src).unwrap_err();
            let _ = err.to_string(); // Display is total too
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(4000) + &"]".repeat(4000);
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::DepthExceeded);
    }

    #[test]
    fn builder_and_accessors() {
        let v = Json::obj()
            .set("n", 3u64)
            .set("name", "e19")
            .set("xs", vec![1u64, 2, 3])
            .set("rate", 1.25);
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("name").unwrap().as_str(), Some("e19"));
        assert_eq!(v.get("xs").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("rate").unwrap().as_f64(), Some(1.25));
        let replaced = v.set("n", 4u64);
        assert_eq!(replaced.get("n").unwrap().as_u64(), Some(4));
    }

    #[test]
    fn pretty_rendering_shape() {
        let v = Json::obj().set("a", 1u64).set("b", Json::Arr(vec![]));
        assert_eq!(v.render_pretty(), "{\n  \"a\": 1,\n  \"b\": []\n}\n");
        // Objects nested in an array indent one level per container, and
        // an integral float keeps its `.0` so it re-parses as a float.
        let nested = Json::obj().set(
            "rows",
            vec![Json::obj().set("qps", 2000.0), Json::obj().set("s", 0.05)],
        );
        let golden = "{\n  \"rows\": [\n    {\n      \"qps\": 2000.0\n    },\n    {\n      \"s\": 0.05\n    }\n  ]\n}\n";
        assert_eq!(nested.render_pretty(), golden);
        assert_eq!(Json::parse(golden).unwrap(), nested);
    }
}
