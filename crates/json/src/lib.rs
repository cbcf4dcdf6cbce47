//! # marchgen-json
//!
//! A minimal, dependency-free JSON document model with a strict parser
//! and a writer, backing the serializable request/outcome API of the
//! `marchgen` workspace: the schema-v1 documents of `marchgen --json`,
//! the outcome cache and the `marchgend` wire format.
//!
//! The crate intentionally mirrors the shape of a `serde_json::Value`
//! workflow — build a [`Json`] tree, [`Json::render`] it, [`Json::parse`]
//! it back — without pulling any external dependency, so the workspace
//! builds in fully offline environments.
//!
//! Numbers are kept in two lossless lanes: [`Json::Int`] for anything
//! that fits an `i64` (all counters, sizes and timings of the API) and
//! [`Json::Float`] for the rest. Object keys keep insertion order.
//!
//! # Example
//!
//! ```
//! use marchgen_json::Json;
//!
//! let doc = Json::object([
//!     ("name", Json::from("march")),
//!     ("ops", Json::Int(10)),
//!     ("verified", Json::Bool(true)),
//! ]);
//! let text = doc.render();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(doc, back);
//! assert_eq!(back.get("ops").and_then(Json::as_int), Some(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional or exponent part that fits an `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Object(Vec<(String, Json)>),
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        i64::try_from(n)
            .map(Json::Int)
            .unwrap_or(Json::Float(n as f64))
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        i64::try_from(n)
            .map(Json::Int)
            .unwrap_or(Json::Float(n as f64))
    }
}

impl Json {
    /// Builds an object node from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array node.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Object field lookup (first match); `None` on non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as `usize`, if it is a non-negative integer.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_int().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as `bool`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the document as compact JSON text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders the document with two-space indentation.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => write_int(out, *n),
            Json::Float(x) => write_float(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (k, (key, value)) in pairs.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Object(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (k, (key, value)) in pairs.iter().enumerate() {
                    if k > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write(out),
        }
    }

    /// Parses JSON text into a document.
    ///
    /// # Errors
    ///
    /// [`JsonError`] with a byte offset and reason on malformed input,
    /// including trailing garbage after the document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_float(out: &mut String, x: f64) {
    if x.is_finite() {
        let s = format!("{x}");
        out.push_str(&s);
        // Keep a fractional marker so the value re-parses into the
        // Float lane (f64 Display never uses exponent notation).
        if !s.contains('.') {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Inf; degrade to null like serde_json does.
        out.push_str("null");
    }
}

/// Writes the decimal digits of `n` from a stack buffer, so rendering
/// a number allocates nothing of its own.
fn write_int(out: &mut String, n: i64) {
    // `i64::MIN` has 19 digits, so a 20-byte buffer always suffices.
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Writes `s` as a JSON string literal. Runs of bytes that need no
/// escape go out with one `push_str` each; every byte that does is
/// ASCII, so the runs always split on character boundaries.
fn write_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (at, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..at]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(byte >> 4)]));
            out.push(char::from(HEX[usize::from(byte & 0xf)]));
        } else {
            out.push_str(escape);
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure: byte offset plus reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// Human-readable reason.
    pub message: String,
}

impl JsonError {
    /// A decode-level error (schema mismatch rather than syntax).
    #[must_use]
    pub fn decode(message: impl Into<String>) -> JsonError {
        JsonError {
            offset: 0,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// Parses a string literal. Each run of bytes up to the next `"`,
    /// `\\` or control byte is copied with one `push_str`: all three are
    /// ASCII, so a run always ends on a character boundary of the
    /// (already valid UTF-8) input.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        let bytes = self.text.as_bytes();
        loop {
            let run = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            let Some(&b) = bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(&esc) = bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // Surrogate pair: require the low half.
                                if bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(cp)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(unit)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let chunk = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        // from_str_radix alone would accept a leading '+'.
        if !chunk.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.err("invalid \\u escape"));
        }
        let unit = u32::from_str_radix(chunk, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !is_valid_json_number(text) {
            return Err(self.err(format!("invalid number {text:?}")));
        }
        if !fractional {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err(format!("invalid number {text:?}")))
    }
}

/// RFC 8259 number grammar: `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_valid_json_number(text: &str) -> bool {
    let mut rest = text.strip_prefix('-').unwrap_or(text).as_bytes();
    // Integer part: "0" alone or a non-zero leading digit.
    match rest {
        [b'0', tail @ ..] => rest = tail,
        [b'1'..=b'9', ..] => {
            let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
            rest = &rest[digits..];
        }
        _ => return false,
    }
    if let [b'.', tail @ ..] = rest {
        let digits = tail.iter().take_while(|b| b.is_ascii_digit()).count();
        if digits == 0 {
            return false;
        }
        rest = &tail[digits..];
    }
    if let [b'e' | b'E', tail @ ..] = rest {
        let tail = match tail {
            [b'+' | b'-', t @ ..] => t,
            t => t,
        };
        let digits = tail.iter().take_while(|b| b.is_ascii_digit()).count();
        if digits == 0 {
            return false;
        }
        rest = &tail[digits..];
    }
    rest.is_empty()
}

/// Types that encode themselves into a [`Json`] tree.
pub trait ToJson {
    /// Encodes `self`.
    fn to_json(&self) -> Json;

    /// Shortcut: compact JSON text.
    fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Shortcut: pretty JSON text.
    fn to_json_pretty(&self) -> String {
        self.to_json().render_pretty()
    }
}

/// Types that decode themselves from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Decodes a value from the tree.
    ///
    /// # Errors
    ///
    /// [`JsonError`] describing the first schema mismatch.
    fn from_json(json: &Json) -> Result<Self, JsonError>;

    /// Parses text and decodes it.
    ///
    /// # Errors
    ///
    /// Syntax errors from [`Json::parse`] or schema errors from
    /// [`FromJson::from_json`].
    fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Self::from_json(&Json::parse(text)?)
    }
}

/// Decode helper: fetches a required object field.
///
/// # Errors
///
/// [`JsonError`] naming the missing field.
pub fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, JsonError> {
    json.get(key)
        .ok_or_else(|| JsonError::decode(format!("missing field {key:?}")))
}

/// Decode helper: required string field.
///
/// # Errors
///
/// [`JsonError`] when absent or not a string.
pub fn str_field<'a>(json: &'a Json, key: &str) -> Result<&'a str, JsonError> {
    field(json, key)?
        .as_str()
        .ok_or_else(|| JsonError::decode(format!("field {key:?} must be a string")))
}

/// Decode helper: required `usize` field.
///
/// # Errors
///
/// [`JsonError`] when absent or not a non-negative integer.
pub fn usize_field(json: &Json, key: &str) -> Result<usize, JsonError> {
    field(json, key)?
        .as_usize()
        .ok_or_else(|| JsonError::decode(format!("field {key:?} must be a non-negative integer")))
}

/// Decode helper: required `bool` field.
///
/// # Errors
///
/// [`JsonError`] when absent or not a boolean.
pub fn bool_field(json: &Json, key: &str) -> Result<bool, JsonError> {
    field(json, key)?
        .as_bool()
        .ok_or_else(|| JsonError::decode(format!("field {key:?} must be a boolean")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for doc in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(i64::MAX),
            Json::Float(1.5),
            Json::Str("hé\"llo\n⇑".into()),
        ] {
            assert_eq!(Json::parse(&doc.render()).unwrap(), doc, "{doc:?}");
        }
    }

    #[test]
    fn nested_roundtrip_compact_and_pretty() {
        let doc = Json::object([
            (
                "list",
                Json::array([Json::Int(1), Json::Null, Json::Str("x".into())]),
            ),
            ("empty_list", Json::Array(Vec::new())),
            ("empty_obj", Json::Object(Vec::new())),
            ("nested", Json::object([("k", Json::Float(2.25))])),
        ]);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.render_pretty()).unwrap(), doc);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(Json::parse(r#""↑ 😀""#).unwrap(), Json::Str("↑ 😀".into()));
    }

    #[test]
    fn errors_carry_offsets() {
        let err = Json::parse("[1, ]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn numbers_keep_their_lane() {
        assert_eq!(Json::parse("7").unwrap(), Json::Int(7));
        assert_eq!(Json::parse("7.0").unwrap(), Json::Float(7.0));
        // Float renders with a marker so it re-parses as Float.
        assert_eq!(
            Json::parse(&Json::Float(7.0).render()).unwrap(),
            Json::Float(7.0)
        );
    }

    #[test]
    fn strictness_rejects_nonconforming_documents() {
        for doc in [
            "\"a\nb\"",    // raw control character in a string
            "007",         // leading zero
            "-01",         // leading zero after sign
            "1.",          // empty fraction
            "1e",          // empty exponent
            "+1",          // leading plus
            r#""\u+041""#, // '+' inside a \u escape
            ".5",          // missing integer part
        ] {
            assert!(Json::parse(doc).is_err(), "{doc:?} should be rejected");
        }
        // The conforming neighbours still parse.
        assert_eq!(Json::parse("0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("-0.5e+2").unwrap(), Json::Float(-50.0));
        assert_eq!(Json::parse("1E3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn huge_usize_degrades_like_u64() {
        // Above i64::MAX both unsigned lanes fall back to Float instead
        // of wrapping negative.
        assert_eq!(Json::from(u64::MAX), Json::Float(u64::MAX as f64));
        assert_eq!(Json::from(usize::MAX), Json::Float(usize::MAX as f64));
        assert_eq!(Json::from(7usize), Json::Int(7));
    }

    /// The writer's integers and strings are byte-identical to
    /// `format!("{n}")` and to the per-character escaper it replaced.
    #[test]
    fn writer_output_matches_the_reference_renderings() {
        fn reference_string(s: &str) -> String {
            let mut out = String::from('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        for n in [i64::MIN, i64::MIN + 1, -10, -1, 0, 9, 10, 99, 100, i64::MAX] {
            assert_eq!(Json::Int(n).render(), format!("{n}"));
        }
        let mut cases = vec![
            String::new(),
            "plain".to_owned(),
            "say \"hi\"".to_owned(),
            "back\\slash\\".to_owned(),
            "\n\r\t\u{0}\u{1f}\u{7f}".to_owned(),
            "hé ⇑ 😀 \u{8}\u{c}".to_owned(),
            "\"".to_owned(),
            "\u{10ffff}\u{1b}[0m".to_owned(),
        ];
        cases.extend((0u8..0x80).map(|b| format!("a{}b", char::from(b))));
        for s in &cases {
            assert_eq!(
                Json::from(s.as_str()).render(),
                reference_string(s),
                "{s:?}"
            );
        }
        let alphabet = ['a', '"', '\\', '\n', '\u{0}', '\u{1f}', 'é', '⇑', '😀', ' '];
        marchgen_testkit::run_cases("writer matches the references", 512, |rng| {
            let n = rng.next_u64() as i64 >> rng.range(0, 64);
            assert_eq!(Json::Int(n).render(), format!("{n}"));
            let s: String = rng
                .vec(0, 24, |rng| *rng.pick(&alphabet))
                .into_iter()
                .collect();
            assert_eq!(Json::Str(s.clone()).render(), reference_string(&s));
            assert_eq!(
                Json::parse(&Json::Str(s.clone()).render()).unwrap(),
                Json::Str(s)
            );
        });
    }

    /// Strings survive a render→parse round trip, and a parse of the
    /// same text spelled with `\\u` escapes (surrogate pairs above the
    /// BMP), over ASCII, `"`, `\\`, every control byte and 2-, 3- and
    /// 4-byte characters.
    #[test]
    fn strings_round_trip_through_runs_and_escapes() {
        let mut alphabet: Vec<char> = "aZ09 ~/\"\\éΣ↑⇑↓𝔽😀\u{7f}\u{80}\u{ffff}\u{10ffff}"
            .chars()
            .collect();
        alphabet.extend((0u8..0x20).map(char::from));
        marchgen_testkit::run_cases("strings round-trip", 1024, |rng| {
            let s: String = rng
                .vec(0, 40, |rng| *rng.pick(&alphabet))
                .into_iter()
                .collect();
            let rendered = Json::Str(s.clone()).render();
            assert_eq!(
                Json::parse(&rendered),
                Ok(Json::Str(s.clone())),
                "{rendered}"
            );
            let mut escaped = String::from('"');
            for c in s.chars() {
                match c {
                    '"' | '\\' if rng.flip() => escaped.extend(['\\', c]),
                    '\n' if rng.flip() => escaped.push_str("\\n"),
                    c if (c as u32) >= 0x20 && c != '"' && c != '\\' && rng.flip() => {
                        escaped.push(c);
                    }
                    c => {
                        let mut units = [0u16; 2];
                        for unit in c.encode_utf16(&mut units) {
                            escaped.push_str(&format!("\\u{unit:04x}"));
                        }
                    }
                }
            }
            escaped.push('"');
            assert_eq!(Json::parse(&escaped), Ok(Json::Str(s)), "{escaped}");
        });
    }

    /// The offset and message of every string error.
    #[test]
    fn string_errors_keep_their_offsets_and_messages() {
        for (text, offset, message) in [
            ("\"abc", 4, "unterminated string"),
            ("\"é⇑", 6, "unterminated string"),
            ("\"", 1, "unterminated string"),
            ("[\"a\", \"b", 8, "unterminated string"),
            ("{\"k", 3, "unterminated string"),
            ("\"ab\u{1}c\"", 3, "unescaped control character in string"),
            ("\"\u{1f}\"", 1, "unescaped control character in string"),
            ("\"a\nb\"", 2, "unescaped control character in string"),
            (
                "{\"k\u{7}\": 1}",
                3,
                "unescaped control character in string",
            ),
            ("\"⇑\u{0}\"", 4, "unescaped control character in string"),
            ("\"a\\qb\"", 4, "unknown escape"),
            ("\"⇑\\é\"", 6, "unknown escape"),
            ("\"a\\", 3, "unterminated escape"),
            ("\"\\u12\"", 3, "truncated \\u escape"),
            ("\"\\u12g4\"", 3, "invalid \\u escape"),
            ("\"\\u+041\"", 3, "invalid \\u escape"),
            ("\"\\u⇑12\"", 3, "invalid \\u escape"),
            ("\"\\ud800x\"", 7, "invalid \\u escape"),
            ("\"\\ud800\\u0041\"", 13, "invalid low surrogate"),
            ("\"\\udc00\"", 7, "invalid \\u escape"),
        ] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(
                (err.offset, err.message.as_str()),
                (offset, message),
                "{text:?}"
            );
        }
    }

    #[test]
    fn field_helpers() {
        let doc = Json::object([("n", Json::Int(3)), ("s", Json::from("x"))]);
        assert_eq!(usize_field(&doc, "n").unwrap(), 3);
        assert_eq!(str_field(&doc, "s").unwrap(), "x");
        assert!(usize_field(&doc, "missing").is_err());
        assert!(bool_field(&doc, "n").is_err());
    }
}
