//! A minimal JSON reader/writer for the `dds serve` wire protocol.
//!
//! The workspace is built offline (no crates.io), so instead of `serde`
//! this module hand-rolls the small subset the daemon needs: a
//! recursive-descent parser producing a [`Value`] tree, and the string
//! escaper the writers share. It accepts any standards-compliant JSON
//! document (objects, arrays, strings with escapes, numbers, booleans,
//! null); numbers are kept as their source token and converted on demand,
//! so integer precision is never lost through an `f64` round-trip.

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source token (see [`Value::as_u64`]).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (duplicate keys keep the first).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A parse failure: byte offset and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse(src: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_owned(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            if !fields.iter().any(|(k, _): &(String, _)| *k == key) {
                fields.push((key, val));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if tok.is_empty() || tok == "-" || tok.parse::<f64>().is_err() {
            return Err(self.err("malformed number"));
        }
        Ok(Value::Num(tok.to_owned()))
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("malformed \\u escape"))?;
                            // Surrogate pairs are not needed by the wire
                            // protocol; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\` in one slice.
                    // Both are ASCII, so the run ends on a char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.src[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }
}

/// Escapes a string for embedding in a JSON document (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_verify_request_shape() {
        let v = parse(r#"{"spec":"system s\nclass free","options":{"threads":4,"certify":false}}"#)
            .unwrap();
        assert_eq!(
            v.get("spec").unwrap().as_str(),
            Some("system s\nclass free")
        );
        let opts = v.get("options").unwrap();
        assert_eq!(opts.get("threads").unwrap().as_u64(), Some(4));
        assert_eq!(opts.get("certify").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn round_trips_escapes() {
        let original = "line1\nline2\t\"quoted\" back\\slash";
        let doc = format!("{{\"s\":\"{}\"}}", escape(original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(original));
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "tru", "\"abc", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn strings_copy_multibyte_runs_between_escapes() {
        let v =
            parse(r#"["héllo → wörld ✓ 𝄞", "\"é\\→\/ü\n", "a\u00e9\u2192b\u0041", "→\t→", ""]"#)
                .unwrap();
        let Value::Arr(items) = &v else { panic!() };
        let strs: Vec<_> = items.iter().map(|i| i.as_str().unwrap()).collect();
        assert_eq!(
            strs,
            ["héllo → wörld ✓ 𝄞", "\"é\\→/ü\n", "aé→bA", "→\t→", ""]
        );
    }

    #[test]
    fn unterminated_strings_fail_at_the_same_offsets() {
        for (src, at, msg) in [
            ("\"abc", 4, "unterminated string"),
            ("{\"spec\":\"é→x", 15, "unterminated string"),
            ("\"ab\\n", 5, "unterminated string"),
            ("\"ab\\", 4, "unknown escape"),
            ("\"\\u12", 2, "truncated \\u escape"),
            ("\"\\uzzzz\"", 2, "malformed \\u escape"),
            ("\"a\\q\"", 3, "unknown escape"),
        ] {
            let err = parse(src).unwrap_err();
            assert_eq!((err.at, err.msg.as_str()), (at, msg), "{src:?}");
        }
    }

    #[test]
    fn a_64k_string_round_trips_through_escape() {
        let pieces = [
            "plain ascii ",
            "é→𝄞",
            "\"",
            "\\",
            "\n\r\t",
            "\u{1}\u{1f}",
            "/",
        ];
        let mut original = String::new();
        for i in 0.. {
            if original.len() >= 64 * 1024 {
                break;
            }
            original.push_str(pieces[i % pieces.len()]);
        }
        let doc = format!("{{\"spec\":\"{}\"}}", escape(&original));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("spec").unwrap().as_str(), Some(original.as_str()));
    }

    #[test]
    fn numbers_keep_integer_precision() {
        let v = parse("[18446744073709551615, 12]").unwrap();
        let Value::Arr(items) = &v else { panic!() };
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1].as_u64(), Some(12));
    }

    #[test]
    fn parses_the_report_document_shape() {
        let doc = r#"{
  "schema_version": 1,
  "kind": "verify",
  "records": [
    {"id":"a::p","wall_ns":0,"configs_explored":10,"outcome":"nonempty"}
  ]
}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("schema_version").unwrap().as_u64(), Some(1));
        let Some(Value::Arr(recs)) = v.get("records") else {
            panic!()
        };
        assert_eq!(recs[0].get("outcome").unwrap().as_str(), Some("nonempty"));
    }
}
