//! The workspace's one JSON home: the strict recursive-descent reader the
//! snapshot tests (telemetry, the serving snapshots) parse their emitters'
//! output with, and the string/number helpers every hand-rolled `format!`
//! emitter writes through.

use std::fmt::Write as _;

/// Escapes `s` as a JSON string literal, quotes included.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number with six decimals (`null` for
/// non-finite values, which JSON cannot carry).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered key/value pairs (duplicate keys keep the
    /// first occurrence on lookup).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The key/value pairs in file order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Whether the dot-separated `path` of object keys resolves. An array
    /// met before the path ends must be non-empty and every element must
    /// resolve the rest — on a telemetry snapshot, `"layers.hit_rate"` asks
    /// that each entry of a non-empty `layers` array carries `hit_rate`.
    pub fn has_path(&self, path: &str) -> bool {
        if let Value::Arr(items) = self {
            return !items.is_empty() && items.iter().all(|v| v.has_path(path));
        }
        let (key, rest) = path.split_once('.').unwrap_or((path, ""));
        self.get(key)
            .is_some_and(|v| rest.is_empty() || v.has_path(rest))
    }
}

/// Arrays and objects may nest this deep; the reader recurses once per
/// level, and the snapshots reach three.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document under the strict grammar (no trailing data,
/// no lax numbers, paired surrogates only, at most 128 nested arrays and
/// objects). Time is linear in `text`.
///
/// # Errors
///
/// Returns a message naming the offending byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The document, and the same bytes for single-byte look-ahead.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
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
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Scans a number with the strict JSON grammar
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. Rust's
    /// `f64::parse` is laxer than JSON (it accepts `+1`, `.5`, `1.`,
    /// `inf`, ...), so the grammar is enforced here byte by byte and
    /// the parse below can never loosen it.
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    return Err(format!("leading zero in number at byte {start}"));
                }
            }
            Some(b) if b.is_ascii_digit() => {
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(format!("invalid number at byte {start}: expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(format!(
                    "invalid number at byte {start}: no digits after decimal point"
                ));
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
                return Err(format!(
                    "invalid number at byte {start}: no digits in exponent"
                ));
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number grammar only admits ASCII");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    /// Reads exactly four hex digits at `at`. Strict digit validation:
    /// `u32::from_str_radix` alone would admit a leading `+`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| format!("truncated \\u escape at byte {at}"))?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err(format!("bad \\u escape at byte {at}"));
        }
        let text = std::str::from_utf8(hex).expect("ascii hex digits");
        Ok(u32::from_str_radix(text, 16).expect("four hex digits fit u32"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            // `self.pos` is at the 'u'; the shared
                            // `self.pos += 1` after this match walks
                            // past the escape's final hex digit.
                            let u_pos = self.pos;
                            let code = self.hex4(u_pos + 1)?;
                            match code {
                                // High surrogate: JSON encodes non-BMP
                                // characters as a UTF-16 pair, so the
                                // low half must follow immediately.
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(u_pos + 5) != Some(&b'\\')
                                        || self.bytes.get(u_pos + 6) != Some(&b'u')
                                    {
                                        return Err(format!(
                                            "unpaired surrogate \\u{code:04X} at byte {u_pos}"
                                        ));
                                    }
                                    let lo = self.hex4(u_pos + 7)?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err(format!(
                                            "unpaired surrogate \\u{code:04X} at byte {u_pos}"
                                        ));
                                    }
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(
                                        char::from_u32(c).expect("surrogate pairs decode in range"),
                                    );
                                    self.pos = u_pos + 10;
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(format!(
                                        "unpaired surrogate \\u{code:04X} at byte {u_pos}"
                                    ));
                                }
                                bmp => {
                                    out.push(
                                        char::from_u32(bmp).expect("non-surrogate BMP scalar"),
                                    );
                                    self.pos = u_pos + 4;
                                }
                            }
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the ordinary run up to the next quote or
                    // backslash in one piece. Both are ASCII and so never
                    // inside a multi-byte scalar: the run is a whole slice
                    // of the `&str` `parse` was handed, valid as it stands.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = self
                        .text
                        .get(self.pos..self.pos + len)
                        .ok_or_else(|| format!("string splits a scalar at byte {}", self.pos))?;
                    out.push_str(run);
                    self.pos += run.len();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(items));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            items.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(items));
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
    fn has_path_fans_out_over_arrays_and_get_reads_objects() {
        let root = parse(
            "{\"bench\": \"x\", \"simd\": {\"avx2\": true}, \"rows\": \
             [{\"n\": 1, \"skip\": \"why\"}, {\"n\": 2}], \"none\": []}",
        )
        .unwrap();
        assert_eq!(root.get("bench").and_then(Value::as_str), Some("x"));
        assert!(root.get("missing").is_none());
        assert!(
            root.get("bench").unwrap().get("x").is_none(),
            "not an object"
        );
        assert!(root.has_path("simd.avx2"));
        assert!(!root.has_path("simd.fma"));
        assert!(root.has_path("rows"));
        assert!(root.has_path("rows.n"), "every row carries n");
        assert!(!root.has_path("rows.skip"), "one row lacks skip");
        assert!(root.has_path("none"));
        assert!(!root.has_path("none.n"), "an empty array resolves nothing");
        assert!(!root.has_path("bench.x"));
    }

    #[test]
    fn nesting_is_capped_not_recursed_into() {
        // Unbounded, either input overflowed the stack (50 000 `[` aborted
        // the process on the 8 MB main thread, a test thread near 12 000).
        for unit in ["[", "{\"a\":"] {
            let err = parse(&unit.repeat(100_000)).unwrap_err();
            let at = MAX_DEPTH * unit.len();
            assert!(err.ends_with(&format!("at byte {at}")), "{unit}: {err}");
            let closer = if unit == "[" { "]" } else { "}" };
            let nested = |n: usize| format!("{}1{}", unit.repeat(n), closer.repeat(n));
            assert!(parse(&nested(MAX_DEPTH)).is_ok(), "{unit}");
            assert!(parse(&nested(MAX_DEPTH + 1)).is_err(), "{unit}");
        }
        // Depth counts what is open, not what was ever opened.
        assert!(parse(&format!("[{}1]", "[],".repeat(1000))).is_ok());
    }

    #[test]
    fn a_long_string_scans_in_linear_time() {
        // Re-validating the rest of the input per character made this
        // quadratic: 200 KB took 0.5 s, 4 MB would take minutes.
        let body = "x\u{e9}\u{1F680} ".repeat(4 << 20 >> 3);
        let text = format!("[{}, \"tail\\n\"]", json_str(&body));
        let root = parse(&text).unwrap();
        let items = root.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some(body.as_str()));
        assert_eq!(items[1].as_str(), Some("tail\n"));
        let cut = 2 + body.len() / 2;
        assert_eq!(parse(&text[..cut]).unwrap_err(), "unterminated string");
    }

    #[test]
    fn json_numbers_reject_non_json_forms() {
        // f64::parse accepts all of these; strict JSON must not. Each error
        // carries the byte offset of the offending number.
        for (text, offset) in [
            ("{\"v\": +1}", 6),
            ("{\"v\": .5}", 6),
            ("{\"v\": 1.}", 6),
            ("{\"v\": 1e}", 6),
            ("{\"v\": 1e+}", 6),
            ("{\"v\": 01}", 6),
            ("{\"v\": -}", 6),
        ] {
            let err = parse(text).expect_err(text);
            assert!(
                err.contains(&format!("byte {offset}")),
                "{text}: error {err:?} must name byte {offset}"
            );
        }
        // The strict grammar still admits every valid JSON shape.
        for (text, want) in [
            ("{\"v\": -0.5}", -0.5),
            ("{\"v\": 0}", 0.0),
            ("{\"v\": 10.25e-2}", 0.1025),
            ("{\"v\": 3E2}", 300.0),
        ] {
            let root = parse(text).expect(text);
            assert_eq!(root.get("v").and_then(Value::as_f64), Some(want), "{text}");
        }
    }

    #[test]
    fn unicode_escapes_decode_surrogate_pairs() {
        // One escaped non-BMP char (🚀 = U+1F680) must decode to a single
        // scalar, not two replacement characters.
        let root = parse("{\"name\": \"net \\ud83d\\ude80 v2\"}").unwrap();
        assert_eq!(
            root.get("name").and_then(Value::as_str),
            Some("net \u{1F680} v2")
        );
        // BMP escapes are unaffected, including literal text after them.
        let root = parse("{\"name\": \"\\u00e9tat\"}").unwrap();
        assert_eq!(root.get("name").and_then(Value::as_str), Some("état"));
    }

    #[test]
    fn unicode_escapes_reject_lone_surrogates_and_bad_hex() {
        for text in [
            "{\"name\": \"\\ud83d\"}",        // lone high surrogate
            "{\"name\": \"\\ud83d rest\"}",   // high surrogate, no pair
            "{\"name\": \"\\ude80\"}",        // lone low surrogate
            "{\"name\": \"\\ud83d\\u0041\"}", // high + non-surrogate
            "{\"name\": \"\\u+12F\"}",        // from_str_radix would take '+'
            "{\"name\": \"\\u12G4\"}",        // non-hex digit
            "{\"name\": \"\\u12\"}",          // truncated
        ] {
            assert!(parse(text).is_err(), "{text} must be rejected");
        }
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let v =
            parse(" { \"a\" : [1, -2.5e1, true, null, \"q\\u0041\\n\"] , \"b\": {} } ").unwrap();
        let arr = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(arr[2].as_bool(), Some(true));
        assert_eq!(arr[4].as_str(), Some("qA\n"));
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn strings_round_trip_through_the_escaper() {
        let hostile = "q\" b\\ \n \u{1} \u{7f} é \u{1F680}";
        let text = format!("{{\"s\": {}, \"v\": {}}}", json_str(hostile), json_num(0.5));
        let root = parse(&text).unwrap();
        assert_eq!(root.get("s").and_then(Value::as_str), Some(hostile));
        assert_eq!(root.get("v").and_then(Value::as_f64), Some(0.5));
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::NEG_INFINITY), "null");
    }
}
