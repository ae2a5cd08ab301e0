//! In-tree stand-in for the `serde_json` crate: renders and parses JSON
//! text over the [`serde::Value`] data model of the vendored serde crate.
//!
//! Supports the full JSON grammar (objects, arrays, strings with escapes,
//! numbers, booleans, null). Integers that fit `u64`/`i64` parse losslessly;
//! everything else falls back to `f64`. Non-finite floats serialize as
//! `null`, matching the spirit of real serde_json's default behavior of
//! refusing them.

pub use serde::Value;

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// JSON error (parse or data-model mismatch).
pub type Error = serde::Error;

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes a value to human-readable, 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Reconstructs a value from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value)
}

/// Parses JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::from_value(&value)
}

fn write_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // Rust's Display for f64 is the shortest round-trip-exact
                // decimal form, so parsing recovers the bit pattern. Emit a
                // trailing `.0` for integral floats so the value reads as a
                // float (parsing as integer is still accepted).
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    let _ = write!(out, "{f:.1}");
                } else {
                    let _ = write!(out, "{f}");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            write_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            write_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest `[`/`{` nesting the parser accepts, as in real `serde_json`.
/// The parser recurses once per level, so without the bound a body of a
/// million `[` would overflow the stack and abort the process.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    /// The input; `bytes` is the same text as bytes.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::custom(format!("JSON parse error at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.expect_literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.expect_literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.expect_literal("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object one nesting level down, failing at its
    /// opening byte past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// Parses one JSON string. Each run of bytes up to the next `"` or `\`
    /// is copied as one slice: both delimiters are ASCII, so in the `&str`
    /// input they always fall on char boundaries and the run needs no UTF-8
    /// re-validation. Raw control bytes are accepted, as before. Linear in
    /// the string's length.
    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// Decodes the escape after a `\` (already consumed) and moves past it.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect a \uXXXX low half.
                    self.expect_literal("\\u")?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid \\u escape"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                return char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(v) = stripped.parse::<u64>() {
                    if v == 0 {
                        return Ok(Value::UInt(0));
                    }
                    if let Ok(v) = text.parse::<i64>() {
                        return Ok(Value::Int(v));
                    }
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// The char-at-a-time string scanner [`Parser::string`] replaced, kept
/// as the reference the slice-copying scanner is proptested against. It
/// re-validated the whole rest of the input for every plain character, so
/// it is quadratic in the input's length. One deliberate difference from
/// the retired code: a high surrogate followed by a `\u` escape outside
/// `DC00..E000` is an error here, as in [`Parser::escape`]; the retired
/// code subtracted `0xDC00` unchecked, which panicked in debug builds and
/// produced an unrelated char in release builds.
#[cfg(test)]
impl Parser<'_> {
    fn string_oracle(&mut self) -> Result<String, Error> {
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                self.expect_literal("\\u")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid \\u escape"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
        assert_eq!(from_str::<i64>("-3").unwrap(), -3);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for f in [0.1, 1.0, -2.5, 1.0 / 3.0, 1e-300, 123456.789] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back, f, "{s}");
        }
    }

    #[test]
    fn integral_float_reads_back_as_float_text() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
    }

    #[test]
    fn nested_structures() {
        let v: Vec<Vec<u64>> = from_str("[[1,2],[3]]").unwrap();
        assert_eq!(v, vec![vec![1, 2], vec![3]]);
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[1,2],[3]]");
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Value::Object(vec![
            ("z".into(), Value::UInt(1)),
            ("a".into(), Value::UInt(2)),
        ]);
        assert_eq!(to_string(&v).unwrap(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(from_str::<String>("\"\\u0041\\u00e9\"").unwrap(), "Aé");
        // Surrogate pair for U+1F600.
        assert_eq!(from_str::<String>("\"\\ud83d\\ude00\"").unwrap(), "😀");
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<u64>("4x").is_err());
        assert!(from_str::<Vec<u64>>("[1,").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded_at_128() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str::<Value>(&nested(128)).is_ok());
        for text in [nested(129), "[".repeat(1_000_000)] {
            let err = from_str::<Value>(&text).unwrap_err().to_string();
            assert!(
                err.contains("at byte 128: recursion limit exceeded"),
                "{err}"
            );
        }
        // Objects count toward the same limit.
        let mixed = "{\"a\":[".repeat(64) + &"]}".repeat(64);
        assert!(from_str::<Value>(&mixed).is_ok());
        let deeper = "[".to_string() + &mixed + "]";
        assert!(from_str::<Value>(&deeper).is_err());
    }

    fn parser(text: &str) -> Parser<'_> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    #[test]
    fn invalid_low_surrogate_is_an_error_not_a_panic() {
        for text in [
            "\"\\ud800\\u0041\"",
            "\"\\udbff\\ue000\"",
            "\"\\ud83d\\ud83d\"",
        ] {
            let err = from_str::<String>(text).unwrap_err().to_string();
            assert!(
                err.contains("at byte 13: invalid \\u escape"),
                "{text}: {err}"
            );
        }
    }

    /// One well-formed fragment of a JSON string body: plain ASCII, raw
    /// control bytes, multi-byte UTF-8, every simple escape, `\u` escapes
    /// in either case, and surrogate pairs.
    fn piece() -> impl Strategy<Value = String> {
        prop_oneof![
            collection::vec(0x20u8..0x7f, 1..12).prop_map(|bytes| bytes
                .into_iter()
                .filter(|&b| b != b'"' && b != b'\\')
                .map(char::from)
                .collect::<String>()),
            (0u8..0x20).prop_map(|b| char::from(b).to_string()),
            (0x80u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{e9}').to_string()),
            (0usize..8).prop_map(|i| {
                ["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"][i].to_string()
            }),
            (0u32..0xF800, any::<bool>()).prop_map(|(u, upper)| {
                let u = if u < 0xD800 { u } else { u + 0x800 };
                if upper {
                    format!("\\u{u:04X}")
                } else {
                    format!("\\u{u:04x}")
                }
            }),
            (0xD800u32..0xDC00, 0xDC00u32..0xE000)
                .prop_map(|(hi, lo)| format!("\\u{hi:04x}\\u{lo:04x}")),
        ]
    }

    /// One malformed fragment: unknown or cut escapes, lone or mismatched
    /// surrogates, truncated or non-hex `\u` digits.
    fn fault() -> impl Strategy<Value = String> {
        prop_oneof![
            (0usize..2).prop_map(|i| ["\\x", "\\"][i].to_string()),
            (0xDC00u32..0xE000).prop_map(|lo| format!("\\u{lo:04x}")),
            (0xD800u32..0xDC00, 0u32..0x1_0000)
                .prop_map(|(hi, lo)| format!("\\u{hi:04x}\\u{lo:04x}")),
            (0xD800u32..0xDC00).prop_map(|hi| format!("\\u{hi:04x}x")),
            (0u32..0x1_0000, 0usize..4)
                .prop_map(|(u, n)| format!("\\u{}", &format!("{u:04x}")[..n])),
            (0usize..3).prop_map(|i| ["\\uzz12", "\\u12\u{e9}", "\\u\u{1F600}"][i].to_string()),
        ]
    }

    proptest! {
        /// The slice-copying scanner and the char-at-a-time oracle agree on
        /// every input: the same value and end position, or the same error
        /// at the same byte. Half the inputs carry one malformed fragment,
        /// one in eight is unterminated.
        #[test]
        fn string_scanner_matches_char_at_a_time_oracle(
            body in collection::vec(piece(), 0..24),
            faulty in (any::<bool>(), 0usize..24, fault()),
            tail in (0u8..8, collection::vec(piece(), 0..3)),
        ) {
            let (inject, at, bad) = faulty;
            let mut body = body;
            if inject {
                body.insert(at.min(body.len()), bad);
            }
            let (closing, trailing) = tail;
            let mut text = String::from("\"");
            text.extend(body);
            if closing != 0 {
                text.push('"');
            }
            text.extend(trailing);
            let (mut fast, mut slow) = (parser(&text), parser(&text));
            let got = fast.string().map_err(|e| e.to_string());
            let want = slow.string_oracle().map_err(|e| e.to_string());
            prop_assert_eq!(&got, &want, "input {:?}", text);
            if got.is_ok() {
                prop_assert_eq!(fast.pos, slow.pos, "input {:?}", text);
            }
        }
    }

    /// The scanner is linear: a 4 MiB string and a 4 MiB array of short
    /// escaped strings each parse well inside 2 s even unoptimized. The
    /// char-at-a-time scanner needed hours for either.
    #[test]
    fn multi_megabyte_strings_parse_in_linear_time() {
        const LEN: usize = 4 << 20;
        let long = format!("\"{}\"", "ab\u{e9}".repeat(LEN / 4));
        let started = std::time::Instant::now();
        let parsed: String = from_str(&long).unwrap();
        assert_eq!(parsed.len(), LEN);
        assert!(
            started.elapsed().as_secs_f64() < 2.0,
            "{:?}",
            started.elapsed()
        );

        let item = "\"a\\n\\u00e9\\\"\"";
        let array = format!(
            "[{}{item}]",
            format!("{item},").repeat(LEN / (item.len() + 1))
        );
        assert!(array.len() >= LEN - item.len());
        let started = std::time::Instant::now();
        let parsed: Vec<String> = from_str(&array).unwrap();
        assert!(parsed.iter().all(|s| s == "a\n\u{e9}\""));
        assert!(
            started.elapsed().as_secs_f64() < 2.0,
            "{:?}",
            started.elapsed()
        );
    }

    #[test]
    fn pretty_output_indents() {
        let v = Value::Object(vec![("a".into(), Value::Array(vec![Value::UInt(1)]))]);
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("\n  \"a\": [\n"), "{s}");
    }
}
