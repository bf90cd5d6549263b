//! A minimal, dependency-free JSON tree: parser, writer, and accessors.
//!
//! The workspace builds hermetically against vendored stand-ins for its
//! crates.io dependencies, and no JSON library is among them — so the wire
//! protocol carries its own ~300-line implementation instead of growing a new
//! vendored crate. It covers exactly what the protocol needs: RFC 8259
//! objects/arrays/strings/numbers/booleans/null, `\uXXXX` escapes (surrogate
//! pairs included), a nesting-depth limit so a hostile request cannot blow
//! the stack, and a compact writer.
//!
//! Numbers come in two variants. Non-negative integer literals that fit a
//! `u64` parse to [`Json::UInt`] and print from the integer directly, so the
//! counters the protocol carries (ids, work and span statistics, latencies)
//! round-trip exactly even at and beyond 2⁵³ where `f64` rounds. Everything
//! else (fractions, exponents, negatives) is [`Json::Num`] (`f64`).
//! Equality treats the two variants numerically — `UInt(8)` equals `Num(8.0)`
//! — with the comparison done on the integer side, never through a lossy
//! `u64 → f64` conversion; [`Json::as_u64`] refuses `Num` values that are not
//! exactly representable non-negative integers rather than rounding.

use std::fmt;

/// Maximum nesting depth the parser accepts. Wire values are shallow (a
/// binding for a deeply nested complex object is the worst case); 128 is far
/// above anything legitimate and far below stack exhaustion.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-integer, negative, or out-of-`u64`-range JSON number.
    Num(f64),
    /// A non-negative integer number, kept exact at any magnitude a `u64`
    /// holds (see the module docs on integer exactness).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (duplicate keys: last one wins on
    /// lookup, both are written back out — the protocol never emits
    /// duplicates).
    Obj(Vec<(String, Json)>),
    /// A pre-serialized JSON fragment, emitted verbatim by the writer. Never
    /// produced by the parser — it exists so already-serialized pieces (the
    /// engine's `Diagnostic::to_json`) embed without a parse round-trip.
    Raw(String),
}

impl Json {
    /// A `Json::Str` from anything string-like.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A `Json::UInt` from an unsigned integer (exact at any magnitude).
    pub fn num(n: u64) -> Json {
        Json::UInt(n)
    }

    /// Member lookup on an object (`None` on non-objects / missing keys).
    /// With duplicate keys, the last occurrence wins.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number, if this is a number. Lossy above 2⁵³ for `UInt` values —
    /// exact consumers use [`Json::as_u64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer: any `UInt`, or a `Num`
    /// with no fractional part in `[0, 2^53]` (a float above that boundary
    /// may have been rounded at parse time, so it is refused).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && *n <= 9_007_199_254_740_992.0 && n.fract() == 0.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Does the float `b` denote exactly the integer `a`? Decided on the integer
/// side: converting `a` to `f64` would itself round above 2⁵³ and report
/// false equalities, so instead `b` must be integral, in `u64` range, and
/// convert back to precisely `a`.
fn uint_eq_num(a: u64, b: f64) -> bool {
    b >= 0.0 && b.fract() == 0.0 && b < 18_446_744_073_709_551_616.0 && b as u64 == a
}

impl PartialEq for Json {
    /// Structural equality, except numbers compare numerically across the
    /// `UInt`/`Num` variants — decided exactly on the integer side, never by
    /// converting the `u64` to `f64` — so a value that took the float parse
    /// path still equals its integer-built counterpart.
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::UInt(a), Json::UInt(b)) => a == b,
            (Json::UInt(a), Json::Num(b)) | (Json::Num(b), Json::UInt(a)) => uint_eq_num(*a, *b),
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            (Json::Raw(a), Json::Raw(b)) => a == b,
            _ => false,
        }
    }
}

/// Append `s` as a JSON string literal: runs of ordinary text are written
/// whole, only the escaped bytes (all ASCII, so never inside a multi-byte
/// character) one at a time.
fn write_string(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut written = 0;
    for (i, byte) in s.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.write_str(&s[written..i])?;
        written = i + 1;
        match byte {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{byte:04x}")?,
        }
    }
    out.write_str(&s[written..])?;
    out.write_char('"')
}

/// Serialize `v` straight into `out`: numbers format in place, so a bulk
/// reply allocates nothing per `atom`/`nat`.
fn write_value(out: &mut impl fmt::Write, v: &Json) -> fmt::Result {
    match v {
        Json::Null => out.write_str("null"),
        Json::Bool(true) => out.write_str("true"),
        Json::Bool(false) => out.write_str("false"),
        // Integral values print without the trailing `.0` so ids and
        // counters read (and re-parse) as integers.
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 => {
            write!(out, "{}", *n as i64)
        }
        Json::Num(n) => write!(out, "{n}"),
        Json::UInt(n) => write!(out, "{n}"),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_value(out, item)?;
            }
            out.write_char(']')
        }
        Json::Obj(members) => {
            out.write_char('{')?;
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_string(out, k)?;
                out.write_char(':')?;
                write_value(out, v)?;
            }
            out.write_char('}')
        }
        Json::Raw(fragment) => out.write_str(fragment),
    }
}

impl fmt::Display for Json {
    /// Writes through the formatter, so `to_string` holds the text once.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self)
    }
}

/// Why a text failed to parse as JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset at which the problem was detected.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            message: message.into(),
            at: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected `{word}`"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return self.err("nesting deeper than the protocol allows");
        }
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return self.err("expected `,` or `]` in array"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return self.err("expected a string key in object");
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.value(depth + 1)?;
                    members.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return self.err("expected `,` or `}` in object"),
                    }
                }
            }
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => self.err(format!("unexpected byte `{}`", other as char)),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a following `\uXXXX` low
                                // surrogate is mandatory.
                                if self.peek() != Some(b'\\') {
                                    return self.err("lone high surrogate");
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return self.err("lone high surrogate");
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return self.err("invalid low surrogate");
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                match char::from_u32(code) {
                                    Some(c) => c,
                                    None => return self.err("invalid surrogate pair"),
                                }
                            } else {
                                match char::from_u32(hi) {
                                    Some(c) => c,
                                    None => return self.err("invalid \\u escape"),
                                }
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits already
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return self.err("raw control character in string"),
                Some(_) => {
                    // Decode one UTF-8 character (the input is a &str upstream
                    // of the byte view, so this cannot fail on valid input —
                    // but the parser is defensive anyway).
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        b if b < 0x80 => 1,
                        b if (0xC0..0xE0).contains(&b) => 2,
                        b if (0xE0..0xF0).contains(&b) => 3,
                        b if b >= 0xF0 => 4,
                        _ => return self.err("invalid UTF-8 in string"),
                    };
                    if rest.len() < len {
                        return self.err("truncated UTF-8 in string");
                    }
                    match std::str::from_utf8(&rest[..len]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return self.err("invalid UTF-8 in string"),
                    }
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return self.err("truncated \\u escape");
        }
        let digits = &self.bytes[self.pos..end];
        let text = std::str::from_utf8(digits).map_err(|_| JsonError {
            message: "invalid \\u escape".to_string(),
            at: self.pos,
        })?;
        let code = u32::from_str_radix(text, 16).map_err(|_| JsonError {
            message: "invalid \\u escape".to_string(),
            at: self.pos,
        })?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        // Plain digits so far: keep a non-negative integer exact as `UInt`
        // unless a fraction/exponent follows or it overflows `u64` (then the
        // general `f64` path below takes over).
        let integral = self.bytes[start] != b'-';
        if integral && !matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E')) {
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => self.err("invalid number"),
        }
    }
}

/// Parse one JSON value from `text`, requiring it to span the whole input
/// (modulo surrounding whitespace).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.err("trailing bytes after the JSON value");
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_protocol_shapes() {
        let text = r#"{"op":"execute","id":7,"text":"{@1} union {@2}","bindings":[{"name":"s","value":{"set":[{"atom":1}]}}],"deadline_ms":250}"#;
        let parsed = parse(text).unwrap();
        assert_eq!(parsed.get("op").unwrap().as_str(), Some("execute"));
        assert_eq!(parsed.get("id").unwrap().as_u64(), Some(7));
        let reprinted = parse(&parsed.to_string()).unwrap();
        assert_eq!(parsed, reprinted);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let original = Json::str("a \"quote\"\nand \\ tab\t€ done");
        let reparsed = parse(&original.to_string()).unwrap();
        assert_eq!(original, reparsed);
        // The writer's exact bytes: escapes next to multi-byte characters,
        // a control character, and DEL (which JSON leaves alone).
        assert_eq!(
            Json::str("é\"€\u{1}\u{7f}\\").to_string(),
            "\"é\\\"€\\u0001\u{7f}\\\\\""
        );
        // \u escapes, including a surrogate pair.
        let fancy = parse(r#""A€😀""#).unwrap();
        assert_eq!(fancy.as_str(), Some("A€😀"));
    }

    #[test]
    fn rejects_garbage_with_positions() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "nul", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let err = parse("{\"a\": }").unwrap_err();
        assert!(err.at > 0);
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn depth_limit_holds() {
        let mut deep = String::new();
        for _ in 0..1000 {
            deep.push('[');
        }
        for _ in 0..1000 {
            deep.push(']');
        }
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"));
    }

    #[test]
    fn numbers_are_exact_where_the_protocol_needs_them() {
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), Some(1 << 53));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
        // Integral numbers reprint without a fractional suffix.
        assert_eq!(Json::num(42).to_string(), "42");
    }

    #[test]
    fn integers_round_trip_exactly_across_the_f64_boundary() {
        // 2^53 ± 1 is where `f64` starts rounding; the integer path must not.
        for n in [
            (1u64 << 53) - 1,
            1u64 << 53,
            (1u64 << 53) + 1,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(Json::num(n).to_string(), n.to_string());
            assert_eq!(parse(&n.to_string()).unwrap().as_u64(), Some(n), "{n}");
        }
        // The old lossy path would collapse 2^53 + 1 onto 2^53.
        assert_ne!(
            parse("9007199254740993").unwrap(),
            parse("9007199254740992").unwrap()
        );
        // Beyond u64: falls back to f64 and stops pretending to be exact.
        let huge = parse("18446744073709551616").unwrap();
        assert_eq!(huge.as_u64(), None);
        assert!(huge.as_f64().is_some());
    }

    #[test]
    fn numeric_equality_bridges_the_variants_exactly() {
        assert_eq!(Json::UInt(1000), Json::Num(1000.0));
        assert_eq!(parse("1e3").unwrap(), Json::num(1000));
        assert_ne!(Json::UInt(3), Json::Num(3.5));
        // At the boundary the comparison must not round the integer side:
        // (2^53 + 1) as f64 == 2^53 exactly, so a float-side comparison would
        // wrongly accept this pair.
        assert_ne!(Json::UInt((1 << 53) + 1), Json::Num(9007199254740992.0));
        assert_eq!(Json::UInt(1 << 53), Json::Num(9007199254740992.0));
        assert_ne!(Json::UInt(0), Json::Num(-0.5));
    }

    #[test]
    fn raw_fragments_embed_verbatim() {
        let obj = Json::Obj(vec![(
            "diagnostic".to_string(),
            Json::Raw("{\"severity\":\"error\"}".to_string()),
        )]);
        assert_eq!(obj.to_string(), r#"{"diagnostic":{"severity":"error"}}"#);
        let reparsed = parse(&obj.to_string()).unwrap();
        assert_eq!(
            reparsed.get("diagnostic").unwrap().get("severity").unwrap(),
            &Json::str("error")
        );
    }
}
