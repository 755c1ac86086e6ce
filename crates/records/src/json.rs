//! A minimal, dependency-free JSON value with exact `f64` round-tripping.
//!
//! The workspace builds with no network access, so the record store cannot
//! pull in `serde_json`; this module implements exactly the JSON subset the
//! persistence layer needs. Numbers are written with Rust's shortest
//! round-trip float formatting, so `parse(write(x))` returns bit-identical
//! values for every finite `f64` — the property the byte-identical
//! checkpoint/resume guarantee rests on. Non-finite numbers are rejected at
//! write time; state that can legitimately hold NaN/∞ (e.g. an unmeasured
//! incumbent) is stored as a bit-pattern string via [`Json::f64_bits`].

use std::fmt::Write as _;

/// The deepest nesting [`Json::parse`] accepts. The program writes at most
/// six levels; parsing recurses once per level, so a bound keeps hostile
/// input (a request line of `[`s) from overflowing a thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON document node.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved (and therefore deterministic).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object node from key/value pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Encodes any `f64` (including NaN/∞/-0.0) as its exact bit pattern.
    /// Use for state fields where bit-identity matters more than
    /// readability; decode with [`Json::as_f64_bits`].
    pub fn f64_bits(v: f64) -> Json {
        Json::Str(format!("{:016x}", v.to_bits()))
    }

    /// Encodes a `u64` as a hex string (JSON numbers are doubles and cannot
    /// carry 64 bits exactly).
    pub fn u64_hex(v: u64) -> Json {
        Json::Str(format!("{v:016x}"))
    }

    /// Looks up a field of an object node.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The node as a finite number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The node as a bit-pattern-encoded `f64` (see [`Json::f64_bits`]).
    pub fn as_f64_bits(&self) -> Option<f64> {
        match self {
            Json::Str(s) if s.len() == 16 => {
                u64::from_str_radix(s, 16).ok().map(f64::from_bits)
            }
            _ => None,
        }
    }

    /// The node as a hex-encoded `u64` (see [`Json::u64_hex`]).
    pub fn as_u64_hex(&self) -> Option<u64> {
        match self {
            Json::Str(s) => u64::from_str_radix(s, 16).ok(),
            _ => None,
        }
    }

    /// The node as a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as usize),
            _ => None,
        }
    }

    /// The node as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The node as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The node as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the document on one line (no trailing newline).
    ///
    /// # Panics
    ///
    /// Panics on non-finite [`Json::Num`] values — encode those with
    /// [`Json::f64_bits`] instead.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                assert!(v.is_finite(), "JSON numbers must be finite, got {v}");
                // Rust's float Display is the shortest decimal that parses
                // back to the same bits, so this round-trips exactly.
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document, rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input, including
    /// arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", b as char))
    }
}

/// Parses one value, with `depth` more levels of nesting allowed.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'[' | b'{') if depth == 0 => {
            Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {pos}"))
        }
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth - 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so
                // boundaries are valid).
                let rest = &bytes[*pos..];
                let s = unsafe { std::str::from_utf8_unchecked(rest) };
                let c = s.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad number")?;
    let v: f64 = text
        .parse()
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))?;
    if !v.is_finite() {
        return Err(format!("non-finite number '{text}' at byte {start}"));
    }
    Ok(Json::Num(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let doc = Json::obj(vec![
            ("name", Json::Str("dense[256, 512]".into())),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("vals", Json::Arr(vec![Json::Num(1.0), Json::Num(-2.5)])),
            (
                "nested",
                Json::obj(vec![("k", Json::Num(3.0)), ("s", Json::Str("a\"b\\c\n".into()))]),
            ),
        ]);
        let text = doc.write();
        assert_eq!(Json::parse(&text).expect("parse"), doc);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        let awkward = [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            2.225_073_858_507_201e-308, // subnormal neighborhood
            1.797_693_134_862_315_7e308,
            -0.0,
            123_456_789.123_456_78,
            std::f64::consts::PI,
        ];
        for &v in &awkward {
            let text = Json::Num(v).write();
            let back = Json::parse(&text).expect("parse").as_f64().expect("num");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {text}");
        }
    }

    #[test]
    fn bit_pattern_encoding_handles_non_finite() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1.5] {
            let node = Json::f64_bits(v);
            let text = node.write();
            let back = Json::parse(&text)
                .expect("parse")
                .as_f64_bits()
                .expect("bits");
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn u64_hex_round_trips() {
        for v in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            let node = Json::u64_hex(v);
            assert_eq!(Json::parse(&node.write()).unwrap().as_u64_hex(), Some(v));
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\":").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("1e999").is_err(), "overflow to inf rejected");
    }

    /// Each level of nesting is one recursive call, so without the bound a
    /// line of `[`s overflows the stack and aborts the process (a release
    /// build at 8 000 levels on a 2 MiB thread stack).
    #[test]
    fn nesting_beyond_the_bound_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let deep = open.repeat(100_000);
            let err = Json::parse(&deep).expect_err("100 000 levels parsed");
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_bound).is_ok());
        let over = format!("[{at_bound}]");
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn accessors_are_type_safe() {
        let doc = Json::parse("{\"n\":4,\"s\":\"x\",\"b\":false}").unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_usize), Some(4));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.get("n").and_then(Json::as_str), None);
    }
}
