//! A minimal, strict, hand-rolled JSON value tree — the shared text codec
//! behind every machine-readable artefact in the workspace.
//!
//! The offline build has no serde; each JSON producer so far hand-rolled
//! its writer and the checkpoint envelope hand-rolled a fixed-shape parser.
//! This module factors that machinery into one reusable pair:
//!
//! * [`JsonValue`] — an owned JSON tree (`null`, booleans, finite numbers,
//!   strings, arrays, objects with preserved key order) with a
//!   [`render`](JsonValue::render) writer, and
//! * [`JsonValue::parse`] — a strict, *total* parser: it accepts exactly
//!   one JSON value spanning the whole input (arbitrary whitespace between
//!   tokens) and returns a [`JsonError`] on anything else — truncation,
//!   trailing characters, malformed escapes, out-of-range numbers — never
//!   a panic.
//!
//! Consumers: the service summary ([`crate::service`]) renders its JSON
//! export through this tree, and the tests and perfbench's self-test parse
//! exported documents back with it.
//!
//! Deliberate limits (it is a data codec, not a general JSON library):
//! numbers are `f64` (integers round-trip exactly up to 2⁵³) and must be
//! finite — rendering a non-finite number yields `null`, so producers are
//! expected to keep their fields finite; nesting depth is bounded by
//! [`MAX_DEPTH`].

use std::fmt;

/// Maximum nesting depth [`JsonValue::parse`] accepts, bounding recursion
/// on adversarial input (e.g. ten thousand `[`s).
pub const MAX_DEPTH: usize = 128;

/// An error from [`JsonValue::parse`] or from typed extraction of a parsed
/// tree (missing field, wrong type, out-of-range number).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl JsonError {
    /// Creates an error with the given description.
    pub fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// An owned JSON value.
///
/// Objects preserve insertion order and are stored as a flat pair list —
/// every consumer in the workspace reads small, fixed-shape objects, so a
/// map would buy nothing.  Duplicate keys are not rejected by the parser
/// (the writer never produces them); [`JsonValue::get`] returns the first
/// match.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object: `(key, value)` pairs in insertion order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Self {
        JsonValue::Str(s.into())
    }

    /// An array of numbers.
    pub fn nums<I: IntoIterator<Item = f64>>(items: I) -> Self {
        JsonValue::Arr(items.into_iter().map(JsonValue::Num).collect())
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an exactly-representable unsigned integer, if it is
    /// one (rejects fractions, negatives, and magnitudes above 2⁵³ where
    /// `f64` can no longer represent every integer).
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        // pss-lint: allow(float-eq) — exact integrality test, not a tolerance
        if x.fract() != 0.0 || !(0.0..=9_007_199_254_740_992.0).contains(&x) {
            return None;
        }
        Some(x as u64)
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object's pair list, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// First value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Renders the value as compact JSON (no whitespace).
    ///
    /// Numbers use Rust's shortest round-trip formatting, with integral
    /// values printed without a fractional part (`3`, not `3.0`), so
    /// `parse(render(v)) == v` bit-for-bit for every finite number.
    /// Non-finite numbers render as `null` (JSON has no representation
    /// for them).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Num(x) => out.push_str(&render_f64(*x)),
            JsonValue::Str(s) => out.push_str(&crate::table::json_string(s)),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&crate::table::json_string(k));
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses exactly one JSON value spanning the whole input.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let value = p.parse_value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new("trailing characters"));
        }
        Ok(value)
    }
}

/// Shortest round-trip rendering of a finite `f64`; integral values print
/// without a fractional part, non-finite values as `null`.
fn render_f64(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    if x == x.trunc() && x.abs() < 1e17 {
        // Integral: print without the ".0" Rust's Display would omit
        // anyway, but clamp the path through i64/format manually to keep
        // "−0.0" stable.
        // pss-lint: allow(float-eq) — exact zero (±0.0) gets the short form
        if x == 0.0 {
            return "0".into();
        }
        return format!("{x:.0}");
    }
    format!("{x}")
}

/// The strict recursive-descent parser behind [`JsonValue::parse`].
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
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

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected {:?} at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected {lit:?} at offset {}",
                self.pos
            )))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::new("nesting too deep"));
        }
        match self.peek() {
            None => Err(JsonError::new("unexpected end of input")),
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => {
                self.expect_literal("true")?;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') => {
                self.expect_literal("false")?;
                Ok(JsonValue::Bool(false))
            }
            Some(b'n') => {
                self.expect_literal("null")?;
                Ok(JsonValue::Null)
            }
            Some(_) => self.parse_number(),
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            if !pairs.is_empty() {
                self.expect_byte(b',')?;
                self.skip_ws();
            }
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.parse_value(depth + 1)?;
            pairs.push((key, value));
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            if !items.is_empty() {
                self.expect_byte(b',')?;
                self.skip_ws();
            }
            items.push(self.parse_value(depth + 1)?);
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(JsonError::new(format!(
                "expected a value at offset {start}"
            )));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new("invalid UTF-8 in number"))?;
        let x: f64 = text
            .parse()
            .map_err(|_| JsonError::new(format!("malformed number {text:?}")))?;
        if !x.is_finite() {
            return Err(JsonError::new(format!("number {text:?} overflows f64")));
        }
        Ok(JsonValue::Num(x))
    }

    /// Parses a JSON string literal with the same escape set the writer
    /// ([`crate::table::json_string`]) emits (`\" \\ \/ \n \r \t \uXXXX`).
    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(JsonError::new("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(JsonError::new("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(JsonError::new("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| JsonError::new("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::new("bad \\u escape"))?;
                            let c = char::from_u32(code)
                                .ok_or_else(|| JsonError::new("bad \\u code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(JsonError::new(format!(
                                "unknown escape \\{}",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Continue a multi-byte UTF-8 sequence as raw bytes; the
                    // input is a &str, so the sequence is valid.
                    let start = self.pos - 1;
                    while self
                        .peek()
                        .is_some_and(|nb| nb >= 0x80 && (nb & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| JsonError::new("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, value) in [
            ("null", JsonValue::Null),
            ("true", JsonValue::Bool(true)),
            ("false", JsonValue::Bool(false)),
            ("0", JsonValue::Num(0.0)),
            ("-3", JsonValue::Num(-3.0)),
            ("2.5", JsonValue::Num(2.5)),
            ("1e-3", JsonValue::Num(0.001)),
            ("\"hi\"", JsonValue::str("hi")),
        ] {
            assert_eq!(JsonValue::parse(text).unwrap(), value, "{text}");
            let rendered = value.render();
            assert_eq!(JsonValue::parse(&rendered).unwrap(), value, "{rendered}");
        }
    }

    #[test]
    fn numbers_round_trip_bit_exactly() {
        for x in [
            0.0,
            1.0,
            -1.0,
            0.1,
            1.0 / 3.0,
            1e300,
            -2.2250738585072014e-308,
            9_007_199_254_740_992.0,
            123456789.25,
        ] {
            let rendered = JsonValue::Num(x).render();
            let back = JsonValue::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} rendered as {rendered}");
        }
        // Integral values print without a fraction, and non-finite values
        // render as null.
        assert_eq!(JsonValue::Num(3.0).render(), "3");
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn containers_round_trip_and_preserve_order() {
        let value = JsonValue::Obj(vec![
            ("b".into(), JsonValue::nums([1.0, 2.0, 3.0])),
            ("a".into(), JsonValue::str("x\n\"y\"")),
            (
                "nested".into(),
                JsonValue::Obj(vec![("k".into(), JsonValue::Arr(vec![JsonValue::Null]))]),
            ),
        ]);
        let text = value.render();
        assert!(text.starts_with("{\"b\":[1,2,3]"), "{text}");
        assert_eq!(JsonValue::parse(&text).unwrap(), value);
        assert_eq!(value.get("a").unwrap().as_str().unwrap(), "x\n\"y\"");
        assert_eq!(value.get("b").unwrap().as_array().unwrap().len(), 3);
        assert!(value.get("missing").is_none());
    }

    #[test]
    fn typed_extraction_checks_integrality() {
        assert_eq!(JsonValue::Num(42.0).as_u64(), Some(42));
        assert_eq!(JsonValue::Num(42.5).as_u64(), None);
        assert_eq!(JsonValue::Num(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Num(1e18).as_u64(), None);
        assert_eq!(JsonValue::str("42").as_u64(), None);
        assert_eq!(JsonValue::Bool(true).as_bool(), Some(true));
        assert_eq!(JsonValue::Null.as_f64(), None);
    }

    #[test]
    fn malformed_input_is_an_error_never_a_panic() {
        for bad in [
            "",
            "   ",
            "{",
            "}",
            "[1,]",
            "[1 2]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a:1}",
            "tru",
            "nul",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"trunc \\u00",
            "1.2.3",
            "--5",
            "1e",
            "1e400",
            "[1] trailing",
            "{} {}",
            "\u{1}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "must reject {bad:?}");
        }
        // Every truncation of a valid document fails cleanly.
        let good = JsonValue::Obj(vec![
            ("k".into(), JsonValue::nums([1.5, -2.0])),
            ("s".into(), JsonValue::str("é\u{1F600}")),
        ])
        .render();
        for len in 1..good.len() {
            if good.is_char_boundary(len) {
                assert!(
                    JsonValue::parse(&good[..len]).is_err(),
                    "truncation to {len}"
                );
            }
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let deep = "[".repeat(MAX_DEPTH + 8) + &"]".repeat(MAX_DEPTH + 8);
        assert!(JsonValue::parse(&deep).is_err());
        let ok = "[".repeat(16).to_string() + &"]".repeat(16);
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn unicode_and_escapes_round_trip() {
        let s = "mixed é 🚀 \t tab \\ slash \"quote\" \u{7f}";
        let value = JsonValue::str(s);
        let back = JsonValue::parse(&value.render()).unwrap();
        assert_eq!(back.as_str().unwrap(), s);
        // \u escapes parse to their code points.
        assert_eq!(
            JsonValue::parse("\"\\u0041\\u00e9\"").unwrap(),
            JsonValue::str("Aé")
        );
    }
}
