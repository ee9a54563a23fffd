//! A minimal JSON value type, parser and writer for the `rc11 serve`
//! wire protocol.
//!
//! The daemon speaks JSON-lines over TCP: one request object per line in,
//! one response object per line out. The offline dependency set has no
//! serde, so the (small, stable) subset of JSON the protocol needs is
//! implemented here: objects, arrays, strings with the standard escapes,
//! 64-bit integers, floats, booleans and null. Integers are kept distinct
//! from floats ([`Json::Int`] vs [`Json::Float`]) so state/transition
//! counts round-trip exactly — a count squeezed through an `f64` would
//! silently lose precision past 2⁵³, and "bit-identical reports" is the
//! contract the daemon's differential battery enforces.
//!
//! The writer emits object keys in insertion order and escapes every
//! control character, `"` and `\`; the parser accepts arbitrary key order
//! and the full escape set including `\uXXXX` (surrogate pairs left as-is:
//! the protocol never emits them, and unpaired surrogates are replaced).
//! The parser recurses once per array/object level, so nesting is capped
//! at [`MAX_DEPTH`]: a hostile line of a million `[` is a [`JsonError`],
//! not a stack overflow that would abort the daemon.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fraction or exponent, kept exact.
    Int(i64),
    /// A number with fraction or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys: last wins on
    /// lookup, both are preserved by the writer — the protocol never
    /// emits duplicates).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (last occurrence wins).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The float payload (integers widen), if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialise to a single line (no trailing newline).
    pub fn to_string_line(&self) -> String {
        let mut out = String::new();
        write_json(self, &mut out);
        out
    }
}

fn write_json(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Json::Float(x) => {
            if x.is_finite() {
                // `{:?}` keeps a fractional point (`1.0`, not `1`), so the
                // value re-parses as a float.
                let _ = write!(out, "{x:?}");
            } else {
                // JSON has no NaN/Inf; the protocol treats them as absent.
                out.push_str("null");
            }
        }
        Json::Str(s) => write_escaped(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_json(val, out);
            }
            out.push('}');
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse error: a message and the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// The deepest array/object nesting [`parse_json`] accepts. The protocol
/// itself never nests past a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON value; trailing (non-whitespace) input is an error, and
/// so is nesting deeper than [`MAX_DEPTH`].
pub fn parse_json(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser { src: src.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing input after the value"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError { msg: msg.into(), at: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            self.expect(b',')?;
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            self.expect(b',')?;
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.src.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = &self.src[self.pos + 1..self.pos + 5];
                            let hex = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash at
                    // once, so decoding stays linear in the line. Both are
                    // ASCII, which never occurs inside a multi-byte
                    // scalar, so the run ends on a scalar boundary.
                    let rest = &self.src[self.pos..];
                    let len = rest.iter().position(|&b| b == b'"' || b == b'\\');
                    let run = &rest[..len.unwrap_or(rest.len())];
                    let run = std::str::from_utf8(run)
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(run);
                    self.pos += run.len();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err(format!("bad number `{text}`")))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err(format!("bad number `{text}`")))
        }
    }
}

/// Shorthand for building an object.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_shapes() {
        let v = obj(vec![
            ("cmd", Json::Str("check".into())),
            ("source", Json::Str("litmus \"x\"\nvar x = 0\n".into())),
            ("workers", Json::Int(4)),
            ("pass", Json::Bool(true)),
            ("observed", Json::Arr(vec![Json::Arr(vec![Json::Int(0), Json::Int(1)])])),
            ("rate", Json::Float(0.5)),
            ("missing", Json::Null),
        ]);
        let line = v.to_string_line();
        assert_eq!(parse_json(&line).unwrap(), v);
    }

    #[test]
    fn integers_stay_exact() {
        let n = i64::MAX - 7;
        let line = Json::Int(n).to_string_line();
        assert_eq!(parse_json(&line).unwrap().as_i64(), Some(n));
    }

    #[test]
    fn escapes_round_trip() {
        let s = "quote \" backslash \\ newline \n tab \t nul \u{0} unicode é";
        let line = Json::Str(s.into()).to_string_line();
        assert_eq!(parse_json(&line).unwrap().as_str(), Some(s));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"open", "{\"a\" 1}", "1 2", "truth", "nul"] {
            assert!(parse_json(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn nesting_is_capped_with_the_offending_offset() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse_json(&ok).is_ok(), "exactly MAX_DEPTH levels parse");
        let err = parse_json(&"[".repeat(2 << 20)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH, "the first level past the cap is reported");
        assert!(err.msg.contains("nesting"), "{err}");
        let err = parse_json(&"{\"a\":".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.msg.contains("nesting"), "{err}");
    }

    /// A request line near `rc11d`'s 4 MiB line cap decodes in time
    /// linear in its length: plain runs are copied whole, escapes and
    /// multi-byte scalars included.
    #[test]
    fn a_four_mib_string_round_trips() {
        let unit = "thread A { r = x; } // é → ✓ \"q\" \\ \t\n";
        let source = unit.repeat((4 << 20) / unit.len());
        assert!(source.len() > (4 << 20) - unit.len());
        let v = obj(vec![("cmd", Json::Str("check".into())), ("source", Json::Str(source))]);
        let line = v.to_string_line();
        let started = std::time::Instant::now();
        assert_eq!(parse_json(&line).unwrap(), v);
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(5), "decoding took {took:?}");
    }

    /// Truncated strings and escapes fail with the same message and
    /// offset as before: the run copy stops at the end of the input, and
    /// multi-byte scalars never split.
    #[test]
    fn truncated_strings_keep_their_errors() {
        for (src, msg, at) in [
            ("\"open", "unterminated string", 5),
            ("\"caf\u{e9}", "unterminated string", 6),
            ("\"\u{2713}\u{2713}", "unterminated string", 7),
            ("\"a\\", "bad escape", 3),
            ("\"a\\u12", "truncated \\u escape", 3),
            ("\"a\\uzzzz\"", "bad \\u escape", 3),
            ("\"a\\q\"", "bad escape", 3),
            ("[\"\u{e9}, 1", "unterminated string", 7),
        ] {
            let err = parse_json(src).unwrap_err();
            assert_eq!((err.msg.as_str(), err.at), (msg, at), "{src:?}");
        }
    }

    #[test]
    fn lookup_and_accessors() {
        let v = parse_json(r#"{"a": 1, "b": "two", "c": [true], "a": 3}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_i64), Some(3), "last key wins");
        assert_eq!(v.get("b").and_then(Json::as_str), Some("two"));
        assert_eq!(v.get("c").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(v.get("d"), None);
    }
}
