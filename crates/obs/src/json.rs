//! The workspace's one JSON codec.
//!
//! Two halves share one string escaper ([`quote`] / [`escape`]) and one
//! number rule ([`num`] / [`fixed`]):
//!
//! - **Writing.** Reports keep their own layouts and write straight
//!   into a `String`, sending every string through [`quote`] and every
//!   float through [`num`] or [`fixed`]. No value tree is built, so a
//!   100k-node report costs its text and nothing more.
//! - **Reading.** [`Json`] is a parsed value: objects, arrays, strings
//!   with escapes, finite numbers, booleans and null. Parsing is linear
//!   in the input and never panics; a malformed byte is a [`JsonError`]
//!   with its offset. Object keys keep their order, and `Display` writes
//!   compact JSON in that order, so `Json::parse(&v.to_string()) == v`.

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers up to 2^53 round-trip).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Where and why a parse failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure (at most the input length).
    pub at: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first malformed byte.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }

    /// Object field lookup; `None` for non-objects and absent keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True for JSON `null` (used to distinguish explicit null from absent).
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write!(f, "{}", num(*n)),
            Json::Str(s) => write!(f, "{}", quote(s)),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{}:{v}", quote(k))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// A string as a JSON literal, quotes included; see [`quote`].
#[derive(Debug, Clone, Copy)]
pub struct Quoted<'a>(&'a str);

/// `s` as a JSON string literal for `write!` and `format!`: quotes
/// included, `"` and `\` backslash-escaped, `\n`, `\r` and `\t` by
/// name, other C0 controls as `\u00XX`, everything else verbatim.
#[must_use]
pub fn quote(s: &str) -> Quoted<'_> {
    Quoted(s)
}

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        write_escaped(f, self.0)?;
        f.write_char('"')
    }
}

/// Escapes `s` for embedding between JSON double quotes (the body of
/// [`quote`], without the quotes).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    // Writing into a `String` cannot fail.
    let _ = write_escaped(&mut out, s);
    out
}

/// Copies each run of bytes that need no escape as one slice. Every
/// byte that does is ASCII, so the runs split on char boundaries.
fn write_escaped(w: &mut impl fmt::Write, s: &str) -> fmt::Result {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        w.write_str(&s[run..i])?;
        match b {
            b'"' => w.write_str("\\\"")?,
            b'\\' => w.write_str("\\\\")?,
            b'\n' => w.write_str("\\n")?,
            b'\r' => w.write_str("\\r")?,
            b'\t' => w.write_str("\\t")?,
            _ => write!(w, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    w.write_str(&s[run..])
}

/// A float under the codec's one number rule; see [`num`] and [`fixed`].
#[derive(Debug, Clone, Copy)]
pub struct Num {
    value: f64,
    decimals: Option<usize>,
}

/// `value` as a JSON number for `write!` and `format!`: Rust's
/// shortest round-trip form (`3`, `0.25`, `1e-7` prints as
/// `0.0000001`), or `null` when it is NaN or infinite, which JSON
/// cannot express.
#[must_use]
pub fn num(value: f64) -> Num {
    Num {
        value,
        decimals: None,
    }
}

/// Like [`num`], but with exactly `decimals` digits after the point.
#[must_use]
pub fn fixed(value: f64, decimals: usize) -> Num {
    Num {
        value,
        decimals: Some(decimals),
    }
}

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.decimals {
            _ if !self.value.is_finite() => f.write_str("null"),
            Some(d) => write!(f, "{:.d$}", self.value),
            None => write!(f, "{}", self.value),
        }
    }
}

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn err(&self, reason: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            reason: reason.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(format!("unexpected byte 0x{b:02x}"))),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        // Only ASCII was consumed, so the slice is on char boundaries.
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(JsonError {
                at: start,
                reason: format!("malformed number `{text}`"),
            }),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        // The caller saw the opening quote.
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The run stops only at ASCII or the end: a char boundary.
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Decodes the escape after a backslash, leaving `pos` past it.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let code = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&code) {
                    // High surrogate: require the paired \uXXXX.
                    if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    code
                };
                return char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Four hex digits, leaving `pos` past them.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:`"));
            }
            self.pos += 1;
            self.skip_ws();
            fields.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '['
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quote, backslash, every C0 control, non-ASCII and astral text.
    fn hostile() -> Vec<String> {
        let controls: String = (0u8..0x20).map(char::from).collect();
        vec![
            String::new(),
            "q\"uote".into(),
            "back\\slash".into(),
            controls,
            "ünïcödé \u{7f}\u{2028}".into(),
            "astral 𝄞😀\u{10FFFF}".into(),
            "\"\\\n\u{1}é😀".into(),
        ]
    }

    #[test]
    fn round_trips_scalars_and_containers() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "3.5",
            "\"hi\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null]}",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "round trip of {text}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in hostile() {
            let literal = quote(&s).to_string();
            assert_eq!(literal, format!("\"{}\"", escape(&s)));
            assert!(!literal.contains('\n'), "{literal:?}");
            let v = Json::parse(&literal).unwrap();
            assert_eq!(v.as_str(), Some(s.as_str()));
            let obj = Json::Obj(vec![(s.clone(), Json::Arr(vec![v.clone()]))]);
            assert_eq!(Json::parse(&obj.to_string()).unwrap(), obj);
        }
    }

    #[test]
    fn escapes_are_the_documented_ones() {
        assert_eq!(
            escape("a\"b\\c\nd\re\tf\u{1}g\u{1f}h é"),
            "a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh é"
        );
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\\/\\b\\f\"").unwrap().as_str(),
            Some("Aé/\u{8}\u{c}")
        );
        // Surrogate pair for U+1F600.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("\u{1F600}")
        );
        for bad in [
            "\"\\ud83d\"",
            "\"\\ud83d\\u0041\"",
            "\"\\ude00\"",
            "\"\\u+123\"",
            "\"\\u12\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn malformed_inputs_are_rejected_with_position() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "01x",
            "\"unterminated",
            "\"raw\ncontrol\"",
            "{\"a\":1} extra",
            "nan",
            "1e999",
        ] {
            let e = Json::parse(text).expect_err(text);
            assert!(e.at <= text.len(), "{text:?}: {e}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn object_lookup_and_number_accessors() {
        let v = Json::parse("{\"n\":42,\"neg\":-1,\"frac\":1.5,\"s\":\"x\"}").unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("neg").and_then(Json::as_f64), Some(-1.0));
        assert_eq!(v.get("frac").and_then(Json::as_u64), None);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn large_integers_survive_display() {
        let v = Json::Num(9_007_199_254_740_992.0);
        assert_eq!(v.to_string(), "9007199254740992");
    }

    #[test]
    fn number_rule_prints_finite_values_and_nulls_the_rest() {
        assert_eq!(num(3.0).to_string(), "3");
        assert_eq!(num(0.25).to_string(), "0.25");
        assert_eq!(fixed(2.5, 3).to_string(), "2.500");
        assert_eq!(fixed(1.0 / 3.0, 1).to_string(), "0.3");
        for n in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(num(n).to_string(), "null");
            assert_eq!(fixed(n, 3).to_string(), "null");
            assert_eq!(Json::Num(n).to_string(), "null");
        }
        for n in [0.1, -2.5e-12, 1e300, 123_456.789, 5e-324] {
            assert_eq!(Json::parse(&num(n).to_string()).unwrap(), Json::Num(n));
        }
    }
}
