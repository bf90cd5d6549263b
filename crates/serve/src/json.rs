//! A minimal, dependency-free JSON: one pull reader, the tree built with it,
//! a writer, and accessors.
//!
//! The workspace builds hermetically against vendored stand-ins for its
//! crates.io dependencies, and no JSON library is among them — so the wire
//! protocol carries its own implementation instead of growing a new vendored
//! crate. It covers exactly what the protocol needs: RFC 8259 values, `\uXXXX`
//! escapes (surrogate pairs included), a nesting-depth limit so a hostile
//! request cannot blow the stack, and a compact writer. [`Reader`] is the only
//! lexer: [`parse`] builds a [`Json`] tree with it, and [`parse_with`] lets a
//! caller read chosen members itself — as the protocol does binding values.
//! (The protocol matches a set's later rows against the bytes it writes for
//! them, and hands the reader only a row that does not match.)
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

use std::borrow::Cow;
use std::fmt;

/// Maximum nesting depth the parser accepts. Wire values are shallow (a
/// binding for a deeply nested complex object is the worst case); 128 is far
/// above anything legitimate and far below stack exhaustion.
pub const MAX_DEPTH: usize = 128;

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
    /// produced by the parser — it exists so an already-serialized piece (a
    /// wire value) embeds without a round-trip.
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

/// Append `s` as a JSON string literal.
pub(crate) fn write_string(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    write_escaped(out, s)?;
    out.write_char('"')
}

/// Append `s` as the inside of a JSON string literal: runs of ordinary text
/// are written whole, only the escaped bytes (all ASCII, so never inside a
/// multi-byte character) one at a time.
pub(crate) fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
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
    out.write_str(&s[written..])
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
        Json::UInt(n) => ncql_object::flat::write_u64(out, *n),
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

/// What [`Reader::token`] read: a whole scalar, or the opening of a container
/// with whether anything stands inside it (`[]` and `{}` are read whole).
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number: [`Json::UInt`] or [`Json::Num`].
    Num(Json),
    /// A string, borrowed from the text unless it holds an escape.
    Str(Cow<'a, str>),
    /// `[`; go on with the first element, then [`Reader::array_next`].
    Arr(bool),
    /// `{`; go on with [`Reader::key`], its value, then [`Reader::object_next`].
    Obj(bool),
}

/// A pull reader over one JSON text, and the crate's only lexer. A reader is
/// a position in the text, so a clone is a bookmark.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around `pos` (those entered since [`Reader::new`]).
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        let (pos, depth) = (0, 0);
        Reader { text, pos, depth }
    }

    /// The byte offset of the next token.
    pub fn pos(&mut self) -> usize {
        self.skip_ws();
        self.pos
    }

    /// The text not yet read, whitespace included.
    pub(crate) fn unread(&self) -> &'a [u8] {
        &self.text.as_bytes()[self.pos..]
    }

    /// Pass over the first `len` bytes of [`Reader::unread`], which the caller
    /// has matched itself: whole values, so the depth is where it was.
    pub(crate) fn advance(&mut self, len: usize) {
        self.pos += len;
        debug_assert!(
            self.text.is_char_boundary(self.pos),
            "advanced into a character"
        );
    }

    fn err<T>(&self, message: impl fmt::Display) -> Result<T, JsonError> {
        let (message, at) = (message.to_string(), self.pos);
        Err(JsonError { message, at })
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if !self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return self.err(format_args!("expected `{word}`"));
        }
        self.pos += word.len();
        Ok(())
    }

    /// Read the next value: all of a scalar, the opening of a container.
    /// Every value is entered here, which is where [`MAX_DEPTH`] holds.
    pub fn token(&mut self) -> Result<Token<'a>, JsonError> {
        self.lex(true)
    }

    /// [`Reader::token`]; an escaped string is unescaped only to `keep` it.
    fn lex(&mut self, keep: bool) -> Result<Token<'a>, JsonError> {
        if self.depth > MAX_DEPTH {
            return self.err("nesting deeper than the protocol allows");
        }
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.literal("null").map(|()| Token::Null),
            Some(b't') => self.literal("true").map(|()| Token::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Token::Bool(false)),
            Some(b'"') => self.string(keep).map(Token::Str),
            Some(b'[') => self.open(b']').map(Token::Arr),
            Some(b'{') => self.open(b'}').map(Token::Obj),
            Some(b'-' | b'0'..=b'9') => self.number().map(Token::Num),
            Some(other) => self.err(format_args!("unexpected byte `{}`", other as char)),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        let digits = start + usize::from(negative);
        self.pos = digits;
        let mut exact = 0u64;
        while let Some(digit @ b'0'..=b'9') = self.peek() {
            exact = exact.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
            self.pos += 1;
        }
        // A non-negative integer stays exact as `UInt` (nineteen digits always
        // fit) unless a fraction or exponent follows or it overflows: then `f64`.
        if !negative && !matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            if self.pos - digits <= 19 {
                return Ok(Json::UInt(exact));
            }
            if let Ok(n) = self.text[digits..self.pos].parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => self.err("invalid number"),
        }
    }

    /// Lex one string: the slice between the quotes when it holds no escape,
    /// else an unescaped copy — or, not to `keep`, an empty one (a skip allocates
    /// nothing). Runs of plain text end at ASCII bytes, so on char boundaries.
    fn string(&mut self, keep: bool) -> Result<Cow<'a, str>, JsonError> {
        self.pos += 1; // the opening quote, which every caller has seen
        let (start, mut run, mut unescaped) = (self.pos, self.pos, String::new());
        loop {
            let rest = &self.text.as_bytes()[self.pos..];
            let plain = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            self.pos += plain.unwrap_or(rest.len());
            let text = &self.text[run..self.pos];
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    if run == start {
                        return Ok(Cow::Borrowed(text));
                    }
                    unescaped.push_str(if keep { text } else { "" });
                    return Ok(Cow::Owned(unescaped));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    if keep {
                        unescaped.push_str(text);
                        unescaped.push(c);
                    }
                    run = self.pos;
                }
                Some(_) => return self.err("raw control character in string"),
            }
        }
    }

    /// The character an escape denotes; `pos` is just past its backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    // A high surrogate: a `\uXXXX` low one must follow.
                    for expected in [b'\\', b'u'] {
                        if self.peek() != Some(expected) {
                            return self.err("lone high surrogate");
                        }
                        self.pos += 1;
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return self.err("invalid low surrogate");
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                }
                return char::from_u32(code).map_or_else(|| self.err("invalid \\u escape"), Ok);
            }
            _ => return self.err("invalid escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The four hex digits of a `\u` escape: ASCII hex digits only, so no sign.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let Some(digits) = self.text.as_bytes().get(self.pos..self.pos + 4) else {
            return self.err("truncated \\u escape");
        };
        let mut code = 0;
        for &digit in digits {
            let Some(value) = char::from(digit).to_digit(16) else {
                return self.err("invalid \\u escape");
            };
            code = code << 4 | value;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Enter the container whose bracket stands here: is anything in it?
    fn open(&mut self, close: u8) -> Result<bool, JsonError> {
        self.pos += 1;
        self.skip_ws();
        let empty = self.peek() == Some(close);
        self.pos += usize::from(empty);
        self.depth += usize::from(!empty);
        Ok(!empty)
    }

    fn more(&mut self, close: u8, otherwise: &str) -> Result<bool, JsonError> {
        self.skip_ws();
        let next = self.peek();
        if next != Some(b',') && next != Some(close) {
            return self.err(otherwise);
        }
        self.pos += 1;
        self.depth -= usize::from(next == Some(close));
        Ok(next == Some(b','))
    }

    /// After an element: `true` past a `,` (another follows), `false` past
    /// the `]`.
    pub fn array_next(&mut self) -> Result<bool, JsonError> {
        self.more(b']', "expected `,` or `]` in array")
    }

    /// After a member's value: `true` past a `,`, `false` past the `}`.
    pub fn object_next(&mut self) -> Result<bool, JsonError> {
        self.more(b'}', "expected `,` or `}` in object")
    }

    /// A member's key and its `:`, leaving the reader at the value.
    pub fn key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.member_key(true)
    }

    fn member_key(&mut self, keep: bool) -> Result<Cow<'a, str>, JsonError> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return self.err("expected a string key in object");
        }
        let key = self.string(keep)?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return self.err("expected `:`");
        }
        self.pos += 1;
        Ok(key)
    }

    /// Pass over one value: validated exactly as [`parse`] would, nothing allocated.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.lex(false)? {
            Token::Arr(mut more) => {
                while more {
                    self.skip_value()?;
                    more = self.array_next()?;
                }
            }
            Token::Obj(mut more) => {
                while more {
                    self.member_key(false)?;
                    self.skip_value()?;
                    more = self.object_next()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Require that only whitespace remains.
    pub fn end(&mut self) -> Result<(), JsonError> {
        if self.pos() != self.text.len() {
            return self.err("trailing bytes after the JSON value");
        }
        Ok(())
    }

    /// Read one value of any kind as a tree; see [`parse_with`] for `take`.
    fn tree(&mut self, take: &mut Take<'_, 'a>) -> Result<Json, JsonError> {
        Ok(match self.token()? {
            Token::Null => Json::Null,
            Token::Bool(b) => Json::Bool(b),
            Token::Num(n) => n,
            Token::Str(s) => Json::Str(s.into_owned()),
            Token::Arr(mut more) => {
                let mut items = Vec::new();
                while more {
                    items.push(self.tree(take)?);
                    more = self.array_next()?;
                }
                Json::Arr(items)
            }
            Token::Obj(mut more) => {
                let mut members = Vec::new();
                while more {
                    let key = self.key()?;
                    let value = take(&key, self)?.map_or_else(|| self.tree(take), Ok)?;
                    members.push((key.into_owned(), value));
                    more = self.object_next()?;
                }
                Json::Obj(members)
            }
        })
    }
}

/// What [`parse_with`] offers every member of every object it builds.
pub type Take<'t, 'a> = dyn FnMut(&str, &mut Reader<'a>) -> Result<Option<Json>, JsonError> + 't;

/// Parse one JSON value from `text`, requiring it to span the whole input
/// (modulo surrounding whitespace).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    parse_with(text, &mut |_, _| Ok(None))
}

/// [`parse`], except that `take`, given a member's key and a reader at its
/// value, may read that value itself (all of it, and validly: the reader is
/// the parser's own) and say what the tree holds in its place.
pub fn parse_with<'a>(text: &'a str, take: &mut Take<'_, 'a>) -> Result<Json, JsonError> {
    let mut reader = Reader::new(text);
    let value = reader.tree(take)?;
    reader.end().map(|()| value)
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
        // A `\u` escape is four hex digits: a sign is not one.
        for bad in [r#""\u+041""#, r#""\u+0e9x""#] {
            let err = parse(bad).unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.at),
                ("invalid \\u escape", 3),
                "{bad}"
            );
        }
    }

    #[test]
    fn skipping_and_taking_members_validate_as_parsing_does() {
        let texts = [
            r#"{"a":[1,{"b":[true,null,{"c":"d\n\u00e9"}]},[]],"e":{},"f":-1.5e3}"#,
            r#" [ 1 , [ 2 , [ 3 , [ 4 , { "k" : [ ] } ] ] ] ] "#,
            r#""just a string""#,
            r#"{"a":[1,{"b":[true,nul]}]}"#,
            r#"{"a":[1,{"b":"\ud800"}]}"#,
            r#"{"a":[1,{"b":1e999}]}"#,
            r#"{"a":[1,{"b" 1}]}"#,
            r#"{"a":[1,{"b":1}]"#,
            r#"[[[[1]]]] x"#,
        ];
        for text in texts {
            let full = parse(text);
            let mut reader = Reader::new(text);
            let skipped = reader.skip_value().and_then(|()| reader.end());
            assert_eq!(skipped.err(), full.clone().err(), "{text}");
            // Members taken by skipping them fail or succeed as the whole.
            let taken = parse_with(text, &mut |key, at| match key {
                "b" | "e" => at.skip_value().map(|()| Some(Json::Null)),
                _ => Ok(None),
            });
            assert_eq!(taken.err(), full.err(), "{text}");
        }
        let taken = parse_with(r#"{"a":[{"b":[1, 2]},3],"b":"d"}"#, &mut |key, at| {
            if key != "b" {
                return Ok(None);
            }
            let stood_at = at.pos() as u64;
            at.skip_value().map(|()| Some(Json::num(stood_at)))
        });
        assert_eq!(taken.unwrap().to_string(), r#"{"a":[{"b":11},3],"b":26}"#);
    }

    #[test]
    fn a_reader_borrows_plain_strings_and_bookmarks_by_clone() {
        let mut reader = Reader::new(r#" {"plain":"as is","esc\"aped":[true,7]} "#);
        assert_eq!(reader.pos(), 1);
        assert_eq!(reader.token(), Ok(Token::Obj(true)));
        assert!(matches!(reader.key(), Ok(Cow::Borrowed("plain"))));
        assert!(matches!(
            reader.token(),
            Ok(Token::Str(Cow::Borrowed("as is")))
        ));
        assert_eq!(reader.object_next(), Ok(true));
        assert!(matches!(reader.key(), Ok(Cow::Owned(key)) if key == "esc\"aped"));
        let bookmark = reader.clone();
        assert_eq!(
            reader.skip_value().and_then(|()| reader.object_next()),
            Ok(false)
        );
        assert_eq!(reader.end(), Ok(()));
        let mut again = bookmark;
        assert_eq!(again.token(), Ok(Token::Arr(true)));
        assert_eq!(again.token(), Ok(Token::Bool(true)));
        assert_eq!(again.array_next(), Ok(true));
        assert_eq!(again.token(), Ok(Token::Num(Json::UInt(7))));
        assert_eq!(again.array_next(), Ok(false));
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
