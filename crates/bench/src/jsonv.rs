//! A dependency-free JSON value: escape on the way out, parse/validate on
//! the way back in.
//!
//! The build environment has no crates.io access, so the observability
//! surfaces (the runner's metrics JSONL, `cobra-trace --format json`, the
//! `COBRA_TRACE` event stream) hand-roll their JSON output. This module
//! re-exports the one string escaper, `cobra_core::obs::trace::json_str`,
//! as [`escape`], and holds a small recursive-descent parser used to
//! validate those streams in `--selfcheck` mode and in tests —
//! strict enough to reject malformed output (trailing garbage, bad
//! escapes, unterminated strings), with no serde-style mapping layer.
//!
//! The parser also reads untrusted lines (`cobra-serve` requests), so
//! its recursion is bounded: arrays and objects nest at most
//! [`MAX_DEPTH`] levels, far above the few levels any document this repo
//! writes uses, and far below what a thread stack can hold.

pub use cobra_core::obs::trace::json_str as escape;
use std::collections::BTreeMap;
use std::fmt;

/// The deepest array/object nesting [`parse`] accepts; one level deeper
/// is a [`ParseError`].
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish int from float).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is not preserved (keys sort).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
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

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact u64, if this is a non-negative
    /// integer small enough to round-trip through f64.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_num()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

/// Parses exactly one JSON value spanning the whole input (surrounding
/// whitespace allowed, trailing garbage rejected).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first malformed construct.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let b = input.as_bytes();
    let mut pos = 0;
    let v = value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(err(pos, "trailing characters after value"));
    }
    Ok(v)
}

fn err(at: usize, msg: &str) -> ParseError {
    ParseError {
        at,
        msg: msg.to_string(),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), ParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(*pos, &format!("expected `{lit}`")))
    }
}

/// Parses one value whose enclosing arrays/objects number `depth`.
fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => expect(b, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => string(b, pos).map(Json::Str),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(err(
            *pos,
            &format!("nesting deeper than {MAX_DEPTH} levels"),
        )),
        Some(b'[') => array(b, pos, depth + 1),
        Some(b'{') => object(b, pos, depth + 1),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(c) => Err(err(*pos, &format!("unexpected byte `{}`", *c as char))),
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogates are rejected rather than paired: the
                        // writers in this repo never emit them.
                        let c = char::from_u32(cp)
                            .ok_or_else(|| err(*pos, "\\u escape is not a scalar value"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err(err(*pos, "raw control character in string")),
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always a valid boundary walk).
                let s = std::str::from_utf8(&b[*pos..]).expect("input was a str");
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while b
        .get(*pos)
        .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or_else(|| err(start, "malformed number"))
}

fn array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    *pos += 1; // [
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(err(*pos, "expected `,` or `]`")),
        }
    }
}

fn object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, ParseError> {
    *pos += 1; // {
    let mut out = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected string key"));
        }
        let key = string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, ":")?;
        let v = value(b, pos, depth)?;
        out.insert(key, v);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(err(*pos, "expected `,` or `}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested() {
        let v = parse(r#"{"ev":"predict","cycle":7,"xs":[1,2,{"k":null}]}"#).unwrap();
        assert_eq!(v.get("ev").and_then(Json::as_str), Some("predict"));
        assert_eq!(v.get("cycle").and_then(Json::as_u64), Some(7));
        assert_eq!(
            v.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let e = parse(&deep).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH);
        assert_eq!(e.msg, "nesting deeper than 64 levels");
        assert!(parse(&format!(
            "{}{{}}{}",
            "[".repeat(MAX_DEPTH),
            "]".repeat(MAX_DEPTH)
        ))
        .is_err());
    }

    #[test]
    fn a_million_brackets_fail_on_a_small_stack() {
        // Serve connection threads run on the default 2 MiB stack.
        let line = "[".repeat(1_000_000);
        let got = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&line).map(drop))
            .unwrap()
            .join()
            .expect("parser overflowed its stack");
        assert!(got.unwrap_err().msg.contains("nesting deeper than"));
    }

    #[test]
    fn escape_round_trips() {
        let s = "a\"b\\c\nd\te\u{1}f";
        assert_eq!(parse(&escape(s)).unwrap(), Json::Str(s.to_string()));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""A""#).unwrap(), Json::Str("A".into()));
        assert!(parse(r#""\ud800""#).is_err(), "lone surrogate rejected");
    }
}
