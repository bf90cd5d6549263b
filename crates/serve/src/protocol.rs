//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! # Grammar
//!
//! One request per line, one response line per request, ids echoed back:
//!
//! ```text
//! request  := { "op": op, "id": uint, ...op-fields } "\n"
//! op       := "prepare" | "execute" | "execute_with_bindings" | "stats" | "close"
//!
//! prepare  fields: "text": string, "schema"?: [ {"name": string, "type": string} ]
//! execute  fields: prepare's fields plus
//!                  "bindings"?:     [ {"name": string, "value": value} ]
//!                  "deadline_ms"?:  uint   (capped by the server's maximum)
//!                  "max_work"?:     uint   (capped by the session's limit)
//!                  "max_set_size"?: uint   (capped by the session's limit)
//! value    := {"atom": uint} | {"bool": bool} | {"nat": uint} | {"unit": true}
//!           | {"pair": [value, value]} | {"set": [value...]}
//!
//! response := { "id": uint|null, "ok": ... } "\n"
//!           | { "id": uint|null, "error": { "code": code, "diagnostic": diag } } "\n"
//! code     := "parse" | "type" | "eval" | "object" | "lint"   (engine errors)
//!           | "deadline" | "work_budget"                      (per-request isolation)
//!           | "busy"                                          (admission control)
//!           | "protocol"                                      (malformed envelope)
//!           | "internal"                                      (the request panicked)
//! diag     := { "severity": string, "message": string,
//!               "span": {"start": uint, "end": uint} | null,
//!               "line": uint|null, "column": uint|null, "snippet": string|null }
//! ```
//!
//! The `diag` object is [`diagnostic_json`] of the engine's [`Diagnostic`] —
//! the same structured form the REPL's `--json` flag prints — so every span,
//! line, column and snippet a caret rendering would show arrives
//! machine-readable.
//! Result values are carried in the object layer's canonical printed form
//! (`"{a1, a2}"`, `"42"`, `"(true, a7)"`), which is what the sorted,
//! duplicate-free [`Value`] display guarantees to be deterministic.
//!
//! # Bytes ↔ rows
//!
//! No [`Json`] tree is built for a `value`, in either direction, and one
//! `Template` per flat shape is the definition of its row text both ways. A
//! request line is read once: its envelope becomes a tree, and each binding
//! value is decoded on the way by the pull reader, which is the grammar of
//! record. A flat value's text is fixed by its shape (§5), so a set's rows are
//! not lexed token by token: the first element's shape gives the template — the
//! literal text around each word — and every later row is matched against it, a
//! slice compare per piece, a digit loop per number, the words straight into
//! the columnar rows the kernels run on. A row written any other way
//! (whitespace, `1e1`, `30.0`, a number past `u64::MAX`, another shape) is read
//! by the reader, that row alone. A `value` is an object of exactly one member:
//! a second key, a repeated one, `"unit"` other than `true` get a `protocol`
//! error, `invalid value encoding at byte N: …` (at most 80 bytes of the line
//! from `N` on).
//!
//! An `execute` reply is written once, from the rows: the server reserves one
//! buffer from the result's row count and widest row and writes the whole
//! line into it — the envelope, each `value` row by its template, each
//! `printed` row straight inside the JSON string (only an interned atom's
//! name is ever escaped), then `type`, `stats` and `backend`. Every number on
//! the way goes through [`write_u64`], the one decimal formatter. A boxed or
//! nested value goes through the same writers, constructor by constructor.

use crate::json::{self, Json, JsonError, Reader, Token};
use ncql_core::EvalError;
use ncql_engine::{Diagnostic, Error, Outcome};
use ncql_object::flat::write_u64;
use ncql_object::{FlatShape, Type, VSet, Value};

/// The error-code strings of the wire protocol.
pub mod code {
    /// Lex/parse failure of the query text.
    pub const PARSE: &str = "parse";
    /// Typecheck failure.
    pub const TYPE: &str = "type";
    /// Evaluation failure other than the two isolation codes below.
    pub const EVAL: &str = "eval";
    /// Object-model failure (binding validation, value typing).
    pub const OBJECT: &str = "object";
    /// Deny-level lint rejection at prepare.
    pub const LINT: &str = "lint";
    /// The request's wall-clock deadline expired and the evaluation was
    /// cooperatively cancelled.
    pub const DEADLINE: &str = "deadline";
    /// The request's work budget (or the session's) was exhausted.
    pub const WORK_BUDGET: &str = "work_budget";
    /// Admission control refused the request: too many evaluations already in
    /// flight. Retry later; nothing was evaluated.
    pub const BUSY: &str = "busy";
    /// The request line itself was malformed (bad JSON, unknown op, missing
    /// id, oversized line, invalid schema/binding encoding).
    pub const PROTOCOL: &str = "protocol";
    /// The request panicked inside the server (a bug, often in a custom
    /// extern); the message carries the panic payload.
    pub const INTERNAL: &str = "internal";
}

/// The wire error code for an engine error: the five engine variants map to
/// their own names, except that the two per-request isolation failures get
/// dedicated codes — a work-budget trip is [`code::WORK_BUDGET`] and a
/// cancelled (deadline-expired) evaluation is [`code::DEADLINE`] — so clients
/// can distinguish "the query is wrong" from "the query was too expensive for
/// this request's budget".
pub fn error_code(error: &Error) -> &'static str {
    match error {
        Error::Parse(_) => code::PARSE,
        Error::Type(_) => code::TYPE,
        Error::Object { .. } => code::OBJECT,
        Error::Lint { .. } => code::LINT,
        Error::Eval(EvalError::WorkLimitExceeded { .. }) => code::WORK_BUDGET,
        Error::Eval(EvalError::Cancelled { .. }) => code::DEADLINE,
        Error::Eval(_) => code::EVAL,
    }
}

/// A parsed request envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run the front end and report what it learned; nothing is evaluated.
    Prepare {
        /// Echo id.
        id: u64,
        /// The query text.
        text: String,
        /// Declared free variables, already type-parsed.
        schema: Vec<(String, Type)>,
    },
    /// Prepare (served by the plan cache after the first time) and evaluate.
    /// `execute` and `execute_with_bindings` are one op on the wire — the
    /// latter is the same envelope with a non-empty `bindings` array.
    Execute {
        /// Echo id.
        id: u64,
        /// The query text.
        text: String,
        /// Declared free variables.
        schema: Vec<(String, Type)>,
        /// Values for the declared free variables.
        bindings: Vec<(String, Value)>,
        /// Requested wall-clock deadline (ms); the server caps it.
        deadline_ms: Option<u64>,
        /// Requested work budget; the session's limit caps it.
        max_work: Option<u64>,
        /// Requested intermediate-set cap; the session's limit caps it.
        max_set_size: Option<usize>,
    },
    /// Session observability: cache metrics, pool workers, plan count.
    Stats {
        /// Echo id.
        id: u64,
    },
    /// Close this connection after acknowledging.
    Close {
        /// Echo id.
        id: u64,
    },
}

impl Request {
    /// The request's echo id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Prepare { id, .. }
            | Request::Execute { id, .. }
            | Request::Stats { id }
            | Request::Close { id } => *id,
        }
    }
}

/// A protocol-level failure: the envelope could not be understood. Carries
/// the echo id when one was readable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// The request's id, when the envelope got far enough to read one.
    pub id: Option<u64>,
    /// What was wrong.
    pub message: String,
}

impl ProtocolError {
    fn new(id: Option<u64>, message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            id,
            message: message.into(),
        }
    }
}

/// Encode a [`Value`] as wire JSON (the `value` production): a [`Json::Raw`]
/// of the text, written in one pass into a buffer reserved for it — a
/// columnar set's rows each by its shape's `Template`, a boxed value
/// constructor by constructor.
pub fn value_to_json(value: &Value) -> Json {
    let mut out = String::with_capacity(max_len(value));
    write_value(&mut out, value);
    Json::Raw(out)
}

/// The `ok` reply line to an `execute`, written in one pass into one buffer:
/// the envelope, `value` (as [`value_to_json`] writes it), `printed` written
/// straight inside its JSON string, then `type`, `stats` and `backend`. Byte
/// for byte, it is [`ok_response`] around a body of [`value_to_json`],
/// `Json::str` of the value's `Display` text and the rest. The buffer is
/// reserved from a columnar result's row count and its widest row (a
/// `printed` row is never longer than its `value` row, unless it names an
/// interned atom), with room for the newline the connection appends.
pub(crate) fn execute_response(id: u64, outcome: &Outcome, ty: &Type) -> String {
    let (value, ty, backend) = (&outcome.value, ty.to_string(), outcome.backend.to_string());
    let bytes = REPLY_BYTES + 2 * max_len(value) + ty.len() + backend.len();
    let mut out = String::with_capacity(bytes);
    out.push_str("{\"id\":");
    push_u64(&mut out, id);
    out.push_str(",\"ok\":{\"value\":");
    write_value(&mut out, value);
    out.push_str(",\"printed\":\"");
    value
        .write_printed(&mut out, json::write_escaped)
        .expect(INFALLIBLE);
    out.push_str("\",\"type\":");
    json::write_string(&mut out, &ty).expect(INFALLIBLE);
    let s = &outcome.stats;
    let stats = [
        (",\"stats\":{\"work\":", s.work),
        (",\"span\":", s.span),
        (",\"combiner_calls\":", s.combiner_calls),
        (",\"step_calls\":", s.step_calls),
        (",\"ext_calls\":", s.ext_calls),
        (",\"sequential_rounds\":", s.sequential_rounds),
        (",\"max_set_size\":", s.max_set_size as u64),
    ];
    for (key, n) in stats {
        out.push_str(key);
        push_u64(&mut out, n);
    }
    out.push_str("},\"backend\":");
    json::write_string(&mut out, &backend).expect(INFALLIBLE);
    out.push_str("}}");
    out
}

/// An `execute` reply's bytes outside `value`, `printed`, `type` and
/// `backend`, at their widest (about 330), its newline, and room for a small
/// boxed value.
const REPLY_BYTES: usize = 512;

/// The longest wire text a columnar set can have, every row at its widest;
/// nothing for any other value, whose text is left to grow as it is written.
fn max_len(value: &Value) -> usize {
    match value.as_set().and_then(VSet::columnar_rows) {
        Some((shape, width, words)) => {
            let row = Template::of(shape).max_len() + ",".len();
            SET.len() + words.len() / width * row + "]}".len()
        }
        None => 0,
    }
}

/// How the `value` grammar's constructors open, in the text a [`Template`]
/// and [`write_value`] both write. A scalar's word follows its opening and
/// `}` closes it; a `pair` or `set` lists its elements separated by `,` and
/// `]}` closes it; `unit` is whole.
const ATOM: &str = "{\"atom\":";
const NAT: &str = "{\"nat\":";
const BOOL: &str = "{\"bool\":";
const UNIT: &str = "{\"unit\":true}";
const PAIR: &str = "{\"pair\":[";
const SET: &str = "{\"set\":[";

/// A value's wire text: a columnar set's rows each by its shape's
/// [`Template`], anything else constructor by constructor.
fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Atom(a) => Slot::Number.write_scalar(out, ATOM, *a),
        Value::Nat(n) => Slot::Number.write_scalar(out, NAT, *n),
        Value::Bool(b) => Slot::Bool.write_scalar(out, BOOL, u64::from(*b)),
        Value::Unit => out.push_str(UNIT),
        Value::Pair(a, b) => {
            out.push_str(PAIR);
            write_value(out, a);
            out.push(',');
            write_value(out, b);
            out.push_str("]}");
        }
        Value::Set(s) => {
            out.push_str(SET);
            match s.columnar_rows() {
                Some((shape, width, words)) => {
                    let template = Template::of(shape);
                    for (i, row) in words.chunks_exact(width).enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        template.write(out, row);
                    }
                }
                None => {
                    for (i, x) in s.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write_value(out, x);
                    }
                }
            }
            out.push_str("]}");
        }
    }
}

/// Why a `fmt::Write` into a `String` is unwrapped.
const INFALLIBLE: &str = "a String accepts every write";

/// Append `n` in decimal.
fn push_u64(out: &mut String, n: u64) {
    write_u64(out, n).expect(INFALLIBLE);
}

/// `error`, with at most 80 bytes of `text` from where it points.
fn with_excerpt(error: JsonError, text: &str) -> String {
    let mut ends = (0..=text.len().min(error.at + 80)).rev();
    let end = ends.find(|&end| text.is_char_boundary(end)).unwrap_or(0);
    format!("{error}: {}", &text[error.at.min(end)..end])
}

/// Decode the wire value that is the whole of `text` (the inverse of
/// [`value_to_json`]). Sets are canonical (sorted, deduplicated) by
/// construction; one of flat same-shape elements is read straight into rows.
pub fn decode_value(text: &str) -> Result<Value, String> {
    let mut reader = Reader::new(text);
    let decoded = read_value(&mut reader).and_then(|v| reader.end().map(|()| v));
    decoded.map_err(|error| with_excerpt(error, text))
}

/// One `value` production, boxed. This is the grammar of record: an object of
/// exactly one member, whose key names the constructor of its payload.
fn read_value(r: &mut Reader<'_>) -> Result<Value, JsonError> {
    let at = r.pos();
    let value = match r.token()? {
        Token::Obj(true) => match (&*r.key()?, r.token()?) {
            ("atom", Token::Num(n)) => n.as_u64().map(Value::Atom),
            ("nat", Token::Num(n)) => n.as_u64().map(Value::Nat),
            ("bool", Token::Bool(b)) => Some(Value::Bool(b)),
            ("unit", Token::Bool(true)) => Some(Value::Unit),
            ("pair", Token::Arr(true)) => {
                let first = read_value(r)?;
                if r.array_next()? {
                    let second = read_value(r)?;
                    (!r.array_next()?).then(|| Value::pair(first, second))
                } else {
                    None
                }
            }
            ("set", Token::Arr(more)) => Some(read_set(r, more)?),
            _ => None,
        },
        _ => None,
    };
    let message = "invalid value encoding".to_string();
    match value {
        Some(value) if !r.object_next()? => Ok(value),
        _ => Err(JsonError { message, at }),
    }
}

/// The elements of a `set`, the reader past its `[`. While each has the first
/// one's flat shape (of width ≥ 1) their words fill one buffer: a row written
/// as [`Template::write`] writes it is matched by the shape's [`Template`],
/// any other is read by [`read_value`]. From the first element of another
/// shape on, the elements are boxed.
fn read_set(r: &mut Reader<'_>, mut more: bool) -> Result<Value, JsonError> {
    let mut elems = Vec::new();
    if more {
        elems.push(read_value(r)?);
        more = r.array_next()?;
    }
    let shape = elems.first().and_then(FlatShape::of_value);
    if let Some(shape) = shape.filter(|shape| shape.width() >= 1) {
        let template = Template::of(&shape);
        let mut words = Vec::new();
        shape.encode_into(&elems[0], &mut words);
        let mut other = None;
        while more && other.is_none() {
            let whole_rows = words.len();
            if let Some(len) = template.read(r.unread(), &mut words) {
                r.advance(len);
            } else {
                words.truncate(whole_rows);
                let elem = read_value(r)?;
                if !shape.encode_into(&elem, &mut words) {
                    words.truncate(whole_rows);
                    other = Some(elem);
                }
            }
            more = r.array_next()?;
        }
        let Some(other) = other else {
            return Ok(Value::Set(VSet::from_raw_rows(shape, words)));
        };
        let rows = words.chunks_exact(shape.width());
        elems = rows.map(|row| shape.decode(row)).chain([other]).collect();
    }
    while more {
        elems.push(read_value(r)?);
        more = r.array_next()?;
    }
    Ok(Value::set_from(elems))
}

/// The one definition of a flat shape's wire row: literal text with a word
/// between each two pieces. [`Template::write`] puts a row out;
/// [`Template::read`] matches one by slice compares and digit loops, and
/// leaves a row written any other way — whitespace, a sign, a fraction or
/// exponent, a number past `u64::MAX`, another key — to [`read_value`].
struct Template {
    /// Each word's kind, with the text that comes before it.
    slots: Vec<(String, Slot)>,
    /// The text after the last word.
    tail: String,
}

#[derive(Clone, Copy)]
enum Slot {
    /// An `atom` or `nat`: 1 to 20 decimal digits that fit a `u64`.
    Number,
    /// `true` or `false`.
    Bool,
}

impl Slot {
    /// The scalar whose text opens with `open` and holds `word`.
    fn write_scalar(self, out: &mut String, open: &str, word: u64) {
        out.push_str(open);
        self.write(out, word);
        out.push('}');
    }

    fn write(self, out: &mut String, word: u64) {
        match self {
            Slot::Number => push_u64(out, word),
            Slot::Bool => out.push_str(if word == 0 { "false" } else { "true" }),
        }
    }

    /// The most bytes [`Slot::write`] puts out.
    fn max_len(self) -> usize {
        match self {
            Slot::Number => 20,
            Slot::Bool => 5,
        }
    }
}

impl Template {
    fn of(shape: &FlatShape) -> Template {
        let mut template = Template {
            slots: Vec::new(),
            tail: String::new(),
        };
        template.push(shape);
        template
    }

    fn push(&mut self, shape: &FlatShape) {
        let mut scalar = |open: &str, slot| {
            self.tail.push_str(open);
            let before = std::mem::take(&mut self.tail);
            self.slots.push((before, slot));
            self.tail.push('}');
        };
        match shape {
            FlatShape::Atom => scalar(ATOM, Slot::Number),
            FlatShape::Nat => scalar(NAT, Slot::Number),
            FlatShape::Bool => scalar(BOOL, Slot::Bool),
            FlatShape::Unit => self.tail.push_str(UNIT),
            FlatShape::Pair(a, b) => {
                self.tail.push_str(PAIR);
                self.push(a);
                self.tail.push(',');
                self.push(b);
                self.tail.push_str("]}");
            }
        }
    }

    /// The longest row this template writes.
    fn max_len(&self) -> usize {
        let slots = self.slots.iter();
        let words: usize = slots
            .map(|(before, slot)| before.len() + slot.max_len())
            .sum();
        words + self.tail.len()
    }

    /// Append the row of `words` (one per slot).
    fn write(&self, out: &mut String, words: &[u64]) {
        for ((before, slot), &word) in self.slots.iter().zip(words) {
            out.push_str(before);
            slot.write(out, word);
        }
        out.push_str(&self.tail);
    }

    /// Match one row at the start of `text`, appending its words to `out`:
    /// the bytes it spans, or `None` (with part of a row perhaps pushed).
    fn read(&self, text: &[u8], out: &mut Vec<u64>) -> Option<usize> {
        let mut at = 0;
        for (before, slot) in &self.slots {
            if !text[at..].starts_with(before.as_bytes()) {
                return None;
            }
            at += before.len();
            let rest = &text[at..];
            let (word, len) = match slot {
                Slot::Number => {
                    let len = rest
                        .iter()
                        .take(21)
                        .take_while(|b| b.is_ascii_digit())
                        .count();
                    if !(1..=20).contains(&len) {
                        return None;
                    }
                    // Nineteen digits always fit; a twentieth may overflow.
                    let digit = |i: usize| u64::from(rest[i] - b'0');
                    let head = (0..len.min(19)).fold(0, |n, i| n * 10 + digit(i));
                    let word = match len {
                        20 => head.checked_mul(10)?.checked_add(digit(19))?,
                        _ => head,
                    };
                    (word, len)
                }
                Slot::Bool if rest.starts_with(b"true") => (1, 4),
                Slot::Bool if rest.starts_with(b"false") => (0, 5),
                Slot::Bool => return None,
            };
            out.push(word);
            at += len;
        }
        text[at..]
            .starts_with(self.tail.as_bytes())
            .then_some(at + self.tail.len())
    }
}

/// Parse `line` as JSON, decoding each member keyed `value` as it is read: the
/// tree holds the member's index in the vector, which holds the value — or,
/// for JSON that is not the `value` grammar, why not, quoting `line`.
pub(crate) fn parse_line(line: &str) -> Result<(Json, Vec<Result<Value, String>>), JsonError> {
    let mut values = Vec::new();
    let json = crate::json::parse_with(line, &mut |key, at| {
        if key != "value" {
            return Ok(None);
        }
        let start = at.clone();
        let value = read_value(at).map_err(|error| with_excerpt(error, line));
        if value.is_err() {
            *at = start; // what the decoder gave up on must still be JSON
            at.skip_value()?;
        }
        values.push(value);
        Ok(Some(Json::num(values.len() as u64 - 1)))
    })?;
    Ok((json, values))
}

/// Parse one request line (already length-checked by the connection loop).
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let (json, values) = parse_line(line)
        .map_err(|e| ProtocolError::new(None, format!("request is not valid JSON: {e}")))?;
    // The id is extracted first so even a bad envelope echoes it back.
    let id = json.get("id").and_then(Json::as_u64);
    let op = json.get("op").and_then(Json::as_str);
    let op = op.ok_or_else(|| ProtocolError::new(id, "missing or non-string `op`"))?;
    let id = id.ok_or_else(|| ProtocolError::new(None, "missing or non-integer `id`"))?;
    let fail = |message: &str| ProtocolError::new(Some(id), message);
    // The elements of the array member `field`; none when it is absent.
    let entries = |field: &str| match json.get(field).map(Json::as_arr) {
        Some(None) => Err(fail(&format!("`{field}` must be an array"))),
        Some(Some(entries)) => Ok(entries),
        None => Ok(&[][..]),
    };

    let text = || match json.get("text").and_then(Json::as_str) {
        Some(text) => Ok(text.to_string()),
        None => Err(fail("missing `text`")),
    };
    let schema = || -> Result<Vec<(String, Type)>, ProtocolError> {
        let mut out = Vec::new();
        for entry in entries("schema")? {
            let name = entry.get("name").and_then(Json::as_str);
            let name = name.ok_or_else(|| fail("schema entry missing `name`"))?;
            let ty_text = entry.get("type").and_then(Json::as_str);
            let ty_text = ty_text.ok_or_else(|| fail("schema entry missing `type`"))?;
            let ty = ncql_surface::parse_type(ty_text)
                .map_err(|e| fail(&format!("invalid schema type `{ty_text}`: {e}")))?;
            out.push((name.to_string(), ty));
        }
        Ok(out)
    };

    match op {
        "prepare" => Ok(Request::Prepare {
            id,
            text: text()?,
            schema: schema()?,
        }),
        "execute" | "execute_with_bindings" => {
            let mut bindings = Vec::new();
            for entry in entries("bindings")? {
                let name = entry.get("name").and_then(Json::as_str);
                let name = name.ok_or_else(|| fail("binding entry missing `name`"))?;
                let value = entry.get("value").and_then(Json::as_u64);
                let value = value.ok_or_else(|| fail("binding entry missing `value`"))?;
                let value = values[value as usize].clone().map_err(|e| fail(&e))?;
                bindings.push((name.to_string(), value));
            }
            let uint_field = |name: &str| match json.get(name).map(Json::as_u64) {
                Some(None) => Err(fail(&format!("`{name}` must be a non-negative integer"))),
                Some(n) => Ok(n),
                None => Ok(None),
            };
            let in_range =
                |n| usize::try_from(n).map_err(|_| fail("`max_set_size` is out of range"));
            Ok(Request::Execute {
                id,
                text: text()?,
                schema: schema()?,
                bindings,
                deadline_ms: uint_field("deadline_ms")?,
                max_work: uint_field("max_work")?,
                max_set_size: uint_field("max_set_size")?.map(in_range).transpose()?,
            })
        }
        "stats" => Ok(Request::Stats { id }),
        "close" => Ok(Request::Close { id }),
        other => Err(fail(&format!("unknown op `{other}`"))),
    }
}

/// An `ok` response envelope around `body`.
pub fn ok_response(id: u64, body: Json) -> String {
    Json::Obj(vec![
        ("id".to_string(), Json::num(id)),
        ("ok".to_string(), body),
    ])
    .to_string()
}

/// An `error` response envelope: the code plus the structured diagnostic.
pub fn error_response(id: Option<u64>, code: &str, diagnostic: &Diagnostic) -> String {
    Json::Obj(vec![
        ("id".to_string(), id.map(Json::num).unwrap_or(Json::Null)),
        (
            "error".to_string(),
            Json::Obj(vec![
                ("code".to_string(), Json::str(code)),
                ("diagnostic".to_string(), diagnostic_json(diagnostic)),
            ]),
        ),
    ])
    .to_string()
}

/// A [`Diagnostic`] as the `diag` object of the grammar: the machine-readable
/// twin of its caret rendering. `span`, `line`, `column` and `snippet` are
/// `null` when it is unlocated; the span is the raw byte span the error
/// carried, and `line`, `column` and `snippet` are non-null only when that
/// span resolved against the source (see [`Diagnostic::new`]).
pub fn diagnostic_json(diagnostic: &Diagnostic) -> Json {
    let uint = |n: Option<usize>| n.map_or(Json::Null, |n| Json::num(n as u64));
    let span = diagnostic.span.map_or(Json::Null, |s| {
        Json::Obj(vec![
            ("start".to_string(), Json::num(s.start as u64)),
            ("end".to_string(), Json::num(s.end as u64)),
        ])
    });
    Json::Obj(vec![
        ("severity".to_string(), Json::str(diagnostic.severity())),
        ("message".to_string(), Json::str(&diagnostic.message)),
        ("span".to_string(), span),
        ("line".to_string(), uint(diagnostic.line)),
        ("column".to_string(), uint(diagnostic.column)),
        (
            "snippet".to_string(),
            diagnostic.snippet().map_or(Json::Null, Json::str),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_the_wire_encoding() {
        let values = [
            Value::Atom(7),
            Value::Bool(false),
            Value::Unit,
            Value::Nat(123456),
            Value::pair(Value::Atom(1), Value::Bool(true)),
            Value::set_from([
                Value::pair(Value::Atom(1), Value::Atom(2)),
                Value::pair(Value::Atom(2), Value::Atom(3)),
            ]),
            Value::empty_set(),
        ];
        for v in values {
            let json = value_to_json(&v);
            let back = decode_value(&json.to_string()).unwrap();
            assert_eq!(v, back, "{json}");
        }
    }

    #[test]
    fn counters_beyond_the_f64_boundary_survive_the_wire() {
        // Work/span statistics and `nat` payloads are u64s; 2^53 ± 1 is where
        // a float-encoded wire would silently collapse adjacent values.
        for n in [(1u64 << 53) - 1, 1u64 << 53, (1u64 << 53) + 1, u64::MAX] {
            let v = Value::Nat(n);
            let json = value_to_json(&v);
            let back = decode_value(&json.to_string()).unwrap();
            assert_eq!(v, back, "{json}");
        }
        let stats = Json::Obj(vec![
            ("work".to_string(), Json::num((1 << 53) + 1)),
            ("span".to_string(), Json::num(17)),
        ]);
        let reparsed = crate::json::parse(&stats.to_string()).unwrap();
        assert_eq!(
            reparsed.get("work").unwrap().as_u64(),
            Some((1 << 53) + 1),
            "lossless work counter"
        );
    }

    #[test]
    fn set_encodings_canonicalize() {
        // Duplicates and out-of-order elements are legal on the wire; the
        // decoded set is canonical regardless.
        let v = decode_value(r#"{"set":[{"atom":9},{"atom":1},{"atom":9}]}"#).unwrap();
        assert_eq!(v, Value::atom_set([1, 9]));
    }

    #[test]
    fn requests_parse_with_schemas_and_bindings() {
        let line = r#"{"op":"execute_with_bindings","id":3,"text":"card(s)","schema":[{"name":"s","type":"{atom}"}],"bindings":[{"name":"s","value":{"set":[{"atom":1},{"atom":2}]}}],"deadline_ms":50,"max_work":1000}"#;
        match parse_request(line).unwrap() {
            Request::Execute {
                id,
                text,
                schema,
                bindings,
                deadline_ms,
                max_work,
                max_set_size,
            } => {
                assert_eq!(id, 3);
                assert_eq!(text, "card(s)");
                assert_eq!(schema.len(), 1);
                assert_eq!(schema[0].0, "s");
                assert_eq!(schema[0].1.to_string(), "{atom}");
                assert_eq!(bindings, vec![("s".to_string(), Value::atom_set([1, 2]))]);
                assert_eq!(deadline_ms, Some(50));
                assert_eq!(max_work, Some(1000));
                assert_eq!(max_set_size, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn envelope_failures_carry_the_id_when_readable() {
        let no_id = parse_request(r#"{"op":"execute","text":"1"}"#).unwrap_err();
        assert_eq!(no_id.id, None);
        let bad_op = parse_request(r#"{"op":"evaluate","id":9}"#).unwrap_err();
        assert_eq!(bad_op.id, Some(9));
        assert!(bad_op.message.contains("unknown op"));
        let bad_schema = parse_request(
            r#"{"op":"prepare","id":4,"text":"s","schema":[{"name":"s","type":"{"}]}"#,
        )
        .unwrap_err();
        assert_eq!(bad_schema.id, Some(4));
        assert!(bad_schema.message.contains("invalid schema type"));
    }

    /// `elems` as the text of a `set`, in the order given.
    fn set_text(elems: &[Value]) -> String {
        let elems: Vec<String> = elems.iter().map(|v| value_to_json(v).to_string()).collect();
        format!(r#"{{"set":[{}]}}"#, elems.join(","))
    }

    fn execute_line(value: &str) -> String {
        format!(
            r#"{{"op":"execute","id":5,"text":"s","schema":[{{"name":"s","type":"{{(atom * nat)}}"}}],"bindings":[{{"name":"s","value":{value}}}]}}"#
        )
    }

    #[test]
    fn width_zero_sets_decode_boxed() {
        // All-unit shapes have width 0: `from_raw_rows` asserts on them, so
        // they must never reach it.
        let units = decode_value(r#"{"set":[{"unit":true},{"unit":true}]}"#).unwrap();
        assert_eq!(units, Value::singleton(Value::Unit));
        let pair = Value::pair(Value::Unit, Value::pair(Value::Unit, Value::Unit));
        let pairs = decode_value(&set_text(&vec![pair.clone(); 12])).unwrap();
        assert_eq!(pairs, Value::singleton(pair));
        assert!(!pairs.as_set().unwrap().is_columnar());
    }

    #[test]
    fn a_set_that_changes_shape_midway_is_the_boxed_set_and_an_object_error() {
        let row = |i: u64| Value::pair(Value::Atom(i), Value::Nat(i));
        let mut elems: Vec<Value> = (0..8).map(row).collect();
        elems.push(Value::pair(Value::Atom(8), Value::Bool(true)));
        elems.extend((9..12).map(row));
        elems.push(Value::pair(Value::Atom(12), Value::empty_set()));
        let decoded = decode_value(&set_text(&elems)).unwrap();
        assert_eq!(decoded, Value::set_from(elems.clone()));
        assert!(!decoded.as_set().unwrap().is_columnar());

        // Ill-typed, so the engine refuses it — with `object`, the binding
        // check's code, not a `protocol` error and not a panic.
        let Request::Execute {
            text,
            schema,
            bindings,
            ..
        } = parse_request(&execute_line(&set_text(&elems))).unwrap()
        else {
            panic!("not an execute");
        };
        let session = ncql_engine::Session::new();
        let plan = session.prepare_with_schema(&text, &schema).unwrap();
        let refused = session.execute_with_bindings(&plan, &bindings).unwrap_err();
        assert_eq!(error_code(&refused), code::OBJECT);
    }

    #[test]
    fn decoded_sets_take_the_representation_set_from_gives_them() {
        let row = |i: u64| Value::pair(Value::Atom(i % 8), Value::Nat(i % 8));
        for (n, columnar) in [(0, false), (1, false), (7, false), (8, true), (9, false)] {
            // Nine rows hold one duplicate: eight elements... of which the
            // first and the last are equal, so seven.
            let elems: Vec<Value> = (0..n)
                .map(|i| row(if n == 9 { i % 7 } else { i }))
                .collect();
            let decoded = decode_value(&set_text(&elems)).unwrap();
            let built = Value::set_from(elems);
            assert_eq!(decoded, built, "{n} rows");
            let is_columnar = |v: &Value| v.as_set().unwrap().is_columnar();
            assert_eq!(is_columnar(&decoded), is_columnar(&built), "{n} rows");
            assert_eq!(is_columnar(&decoded), columnar, "{n} rows");
        }
    }

    #[test]
    fn unsorted_and_duplicated_rows_canonicalize() {
        let row = |(a, n): (u64, u64)| Value::pair(Value::Atom(a), Value::Nat(n));
        let wire = [
            (9, 1),
            (3, 7),
            (9, 0),
            (3, 7),
            (1, 1),
            (8, 2),
            (2, 2),
            (7, 3),
            (6, 4),
            (5, 5),
        ];
        let decoded = decode_value(&set_text(&wire.map(row))).unwrap();
        let printed =
            "{(a1, 1), (a2, 2), (a3, 7), (a5, 5), (a6, 4), (a7, 3), (a8, 2), (a9, 0), (a9, 1)}";
        assert!(decoded.as_set().unwrap().is_columnar());
        assert_eq!(decoded.to_string(), printed);
        // A canonical value's own text comes back as the same text.
        assert_eq!(
            value_to_json(&decoded).to_string(),
            set_text(decoded.as_set().unwrap().as_slice())
        );
    }

    const TEMPLATE_TYPES: [&str; 6] = [
        "atom",
        "nat",
        "bool",
        "(unit * atom)",
        "(atom * (bool * nat))",
        "((nat * nat) * atom)",
    ];

    /// `count` values of the flat type `ty`, their words from 1 to 20 digits
    /// (the named atoms' tag bit set on some).
    fn flat_values(ty: &str, count: usize) -> (FlatShape, Vec<Value>) {
        let words = [
            0,
            1,
            7,
            9,
            10,
            42,
            999,
            1 << 16,
            1 << 32,
            (1 << 53) + 1,
            1 << 63,
            (1 << 63) + 5,
            9_999_999_999_999_999_998,
            9_999_999_999_999_999_999,
            u64::MAX,
        ];
        let shape = FlatShape::of_type(&ncql_surface::parse_type(ty).unwrap()).unwrap();
        let row = |i: usize| -> Vec<u64> {
            let words = (0..shape.width()).map(|j| words[(i + j) % words.len()]);
            words.collect()
        };
        let values = (0..count).map(|i| shape.decode(&row(i))).collect();
        (shape, values)
    }

    #[test]
    fn the_template_reads_exactly_the_rows_value_to_json_writes() {
        for ty in TEMPLATE_TYPES {
            let (shape, values) = flat_values(ty, 21);
            let template = Template::of(&shape);
            for value in values {
                let mut words = Vec::new();
                assert!(shape.encode_into(&value, &mut words));
                let mut row = String::new();
                template.write(&mut row, &words);
                assert_eq!(row, value_to_json(&value).to_string());
                assert!(row.len() <= template.max_len(), "{row}");
                let mut read = Vec::new();
                let text = format!("{row},{row}]");
                assert_eq!(
                    template.read(text.as_bytes(), &mut read),
                    Some(row.len()),
                    "{row}"
                );
                assert_eq!(read, words, "{row}");
            }
        }
    }

    /// `row` with its first number replaced by `number`.
    fn with_number(row: &str, number: &str) -> String {
        let start = row.find(|c: char| c.is_ascii_digit()).unwrap();
        let len = row[start..].find(|c: char| !c.is_ascii_digit()).unwrap();
        format!("{}{number}{}", &row[..start], &row[start + len..])
    }

    #[test]
    fn rows_the_template_declines_decode_as_the_grammar_reads_them() {
        for ty in TEMPLATE_TYPES {
            let (_, values) = flat_values(ty, 12);
            let mut rows: Vec<String> = values
                .iter()
                .map(|v| value_to_json(v).to_string())
                .collect();
            rows[3] = rows[3].replace(':', ": ").replace(',', ", ");
            if rows[5].contains(|c: char| c.is_ascii_digit()) {
                rows[5] = with_number(&rows[5], "1e1");
                rows[7] = with_number(&rows[7], "30.0");
                rows[9] = with_number(&rows[9], "18446744073709551615");
            }
            rows.push(rows[1].clone());
            let text = format!(
                r#"{{"set":[{}, {}]}}"#,
                rows[..6].join(","),
                rows[6..].join(",")
            );
            let decoded = decode_value(&text).unwrap();
            let one_by_one = rows.iter().map(|row| decode_value(row).unwrap());
            let expected = Value::set_from(one_by_one);
            assert_eq!(decoded, expected, "{text}");
            let is_columnar = |v: &Value| v.as_set().unwrap().is_columnar();
            // Two booleans are too few for rows.
            assert_eq!(is_columnar(&decoded), ty != "bool", "{text}");
            assert_eq!(is_columnar(&expected), ty != "bool", "{text}");
        }
    }

    #[test]
    fn an_invalid_row_midway_is_refused_as_it_is_alone() {
        let (_, values) = flat_values("(atom * nat)", 40);
        let mut rows: Vec<String> = values
            .iter()
            .map(|v| value_to_json(v).to_string())
            .collect();
        for bad in [
            with_number(&rows[20], "-1"),
            with_number(&rows[20], "1.5"),
            with_number(&rows[20], "18446744073709551616"),
            r#"{"bool":1}"#.to_string(),
            r#"{"atom":1,"nat":2}"#.to_string(),
        ] {
            let alone = decode_value(&bad).unwrap_err();
            let prefix = "invalid value encoding at byte ";
            let at = alone
                .strip_prefix(prefix)
                .and_then(|rest| rest.split(':').next());
            let at: usize = at.and_then(|at| at.parse().ok()).unwrap();
            assert_eq!(alone, format!("{prefix}{at}: {}", &bad[at..]));

            rows[20] = bad.clone();
            let line = execute_line(&format!(r#"{{"set":[{}]}}"#, rows.join(",")));
            let refused = parse_request(&line).unwrap_err();
            let message = "invalid value encoding".to_string();
            let at = line.find(&bad).unwrap() + at;
            assert_eq!(
                refused.message,
                with_excerpt(JsonError { message, at }, &line)
            );
            assert!(refused.message.starts_with(&format!("{prefix}{at}: ")));
        }
    }

    #[test]
    fn nesting_is_limited_alike_by_the_line_check_and_by_the_decoder() {
        use crate::json::MAX_DEPTH;
        const TOO_DEEP: &str = "nesting deeper than the protocol allows at byte";
        // `sets` nested sets around the array `core`. A set is two JSON
        // levels, an object and an array: alone, the k-th set's array has
        // 2k − 1 containers around it; bound in a request — the value is three
        // levels down the envelope — it has 2k + 2.
        let nested = |sets: usize, core: &str| {
            let (open, close) = ("{\"set\":[".repeat(sets - 1), "]}".repeat(sets - 1));
            format!("{open}{{\"set\":{core}}}{close}")
        };
        let alone = MAX_DEPTH / 2;
        assert_eq!(
            decode_value(&nested(alone, "[]")).unwrap().set_height(),
            alone
        );
        // The decoder stops at what is no value, so it goes deeper only by
        // another set: two levels.
        let past = decode_value(&nested(alone + 1, "[]")).unwrap_err();
        assert!(past.contains(TOO_DEEP), "{past}");

        let bound = (MAX_DEPTH - 2) / 2;
        let Request::Execute { bindings, .. } =
            parse_request(&execute_line(&nested(bound, "[]"))).unwrap()
        else {
            panic!("not an execute");
        };
        assert_eq!(bindings[0].1.set_height(), bound);
        let past = parse_request(&execute_line(&nested(bound, "[[]]"))).unwrap_err();
        let expected = format!("request is not valid JSON: {TOO_DEEP}");
        assert!(past.message.starts_with(&expected), "{}", past.message);
        assert_eq!(past.id, None);
    }

    #[test]
    fn the_value_grammar_is_enforced_with_a_bounded_excerpt() {
        for bad in [
            r#"{"nat":1,"atom":2}"#,
            r#"{"atom":1,"atom":2}"#,
            r#"{"unit":false}"#,
            r#"{"unit":1}"#,
            r#"{"unit":null}"#,
            r#"{}"#,
            r#"{"atom":-1}"#,
            r#"{"atom":1.5}"#,
            r#"{"pair":[{"atom":1}]}"#,
            r#"{"pair":[{"atom":1},{"atom":2},{"atom":3}]}"#,
            r#"{"set":{"atom":1}}"#,
            r#"{"bool":1}"#,
            r#"[{"atom":1}]"#,
            r#"7"#,
        ] {
            let message = decode_value(bad).unwrap_err();
            assert_eq!(message, format!("invalid value encoding at byte 0: {bad}"));
        }
        // Integral floats keep `Json::as_u64`'s rule.
        assert_eq!(decode_value(r#"{"atom": 3.0}"#), Ok(Value::Atom(3)));
        assert_eq!(decode_value(r#"{"nat":1e3}"#), Ok(Value::Nat(1000)));
        // In a request the offender is named by its offset in the line, and
        // quoted up to 80 bytes — on a character boundary.
        let long = format!(
            r#"{{"set":[{{"atom":1}},{{"atom":"{}"}}]}}"#,
            "é".repeat(100)
        );
        let line = execute_line(&long);
        let refused = parse_request(&line).unwrap_err();
        assert_eq!(refused.id, Some(5));
        let at = line.find(r#"{"atom":"é"#).unwrap();
        let prefix = format!("invalid value encoding at byte {at}: ");
        let excerpt = refused.message.strip_prefix(prefix.as_str());
        let excerpt = excerpt.unwrap_or_else(|| panic!("{}", refused.message));
        assert!(
            excerpt.starts_with(r#"{"atom":"éé"#) && excerpt.len() == 79,
            "{excerpt}"
        );
    }

    /// The `ok` line to an `execute` as the server composed it before it
    /// wrote replies in one pass: [`ok_response`] around a [`Json`] body.
    fn composed_reply(id: u64, outcome: &Outcome, ty: &Type) -> String {
        let s = &outcome.stats;
        let stats = [
            ("work", s.work),
            ("span", s.span),
            ("combiner_calls", s.combiner_calls),
            ("step_calls", s.step_calls),
            ("ext_calls", s.ext_calls),
            ("sequential_rounds", s.sequential_rounds),
            ("max_set_size", s.max_set_size as u64),
        ];
        let stats = stats.map(|(name, n)| (name.to_string(), Json::num(n)));
        let body = Json::Obj(vec![
            ("value".to_string(), value_to_json(&outcome.value)),
            ("printed".to_string(), Json::str(outcome.value.to_string())),
            ("type".to_string(), Json::str(ty.to_string())),
            ("stats".to_string(), Json::Obj(stats.into())),
            (
                "backend".to_string(),
                Json::str(outcome.backend.to_string()),
            ),
        ]);
        ok_response(id, body)
    }

    #[test]
    fn an_execute_reply_is_the_composed_reply_byte_for_byte() {
        let parse = |ty: &str| ncql_surface::parse_type(ty).unwrap();
        let mut cases = Vec::new();
        for ty in ["unit"].into_iter().chain(TEMPLATE_TYPES) {
            // Every word of `flat_values` in every slot: 0, 9, 10, u64::MAX…
            let (_, elems) = flat_values(ty, 21);
            let set = parse(&format!("{{{ty}}}"));
            cases.push((Value::set_from(elems.clone()), set.clone()));
            cases.push((Value::set_from(elems[..2].to_vec()), set));
            cases.push((elems[5].clone(), parse(ty)));
        }
        cases.push((Value::empty_set(), parse("{atom}")));
        cases.push((Value::Nat(u64::MAX), parse("nat")));
        let nested = Value::pair(Value::Atom(1), Value::set_from([2, 3].map(Value::Nat)));
        cases.push((Value::singleton(nested), parse("{(atom * {nat})}")));
        // `intern_atom` takes any name; `printed` must escape it.
        let names = ["say \"hi\"", "back\\slash", "new\nline", "é"];
        let named = names.map(|name| Value::Atom(ncql_object::intern_atom(name)));
        let rows = (0..12).map(|i| Value::pair(named[i % 4].clone(), Value::Nat(i as u64)));
        cases.push((Value::set_from(rows), parse("{(atom * nat)}")));
        let boxed = Value::pair(named[0].clone(), Value::set_from(named.clone()));
        cases.push((boxed, parse("(atom * {atom})")));

        let stats = ncql_core::CostStats {
            work: u64::MAX,
            span: 10,
            combiner_calls: 9,
            max_set_size: 21,
            ..Default::default()
        };
        let backends = [
            ncql_engine::Backend::Sequential,
            ncql_engine::Backend::Parallel { threads: 4 },
        ];
        for (i, (value, ty)) in cases.into_iter().enumerate() {
            let outcome = Outcome {
                value,
                stats,
                backend: backends[i % 2],
            };
            let id = [0, 9, 10, u64::MAX][i % 4];
            let reply = execute_response(id, &outcome, &ty);
            assert_eq!(reply, composed_reply(id, &outcome, &ty));
            let printed = crate::json::parse(&reply).unwrap();
            let printed = printed.get("ok").and_then(|ok| ok.get("printed"));
            assert_eq!(
                printed.and_then(Json::as_str),
                Some(&*outcome.value.to_string())
            );
            // A columnar result's reply, newline included, fits the buffer
            // reserved for it.
            if outcome.value.as_set().is_some_and(VSet::is_columnar) {
                assert!(reply.capacity() > reply.len(), "{reply}");
            }
        }
    }

    #[test]
    fn isolation_failures_get_their_own_codes() {
        use ncql_core::EvalError;
        assert_eq!(
            error_code(&Error::Eval(EvalError::work_limit_exceeded(5))),
            code::WORK_BUDGET
        );
        assert_eq!(
            error_code(&Error::Eval(EvalError::cancelled(
                "deadline of 5ms exceeded"
            ))),
            code::DEADLINE
        );
        assert_eq!(
            error_code(&Error::Eval(EvalError::stuck("pi1 of non-pair"))),
            code::EVAL
        );
    }

    #[test]
    fn diagnostics_encode_as_the_engine_wrote_them() {
        use ncql_core::Span;
        // What `Diagnostic::to_json`, the engine's JSON writer this encoder
        // replaced, printed for the four diagnostics below.
        const RECORDED: [&str; 4] = [
            "{\"severity\":\"error\",\"message\":\"say \\\"hi\\\" \\\\ \\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f \u{7f} λ€\",\"span\":{\"start\":1,\"end\":4},\"line\":1,\"column\":2,\"snippet\":\"{\\\"q\\\" \\\\ \\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\u{7f} λ€}\"}",
            "{\"severity\":\"error\",\"message\":\"say \\\"hi\\\" \\\\ \\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f \u{7f} λ€\",\"span\":{\"start\":46,\"end\":52},\"line\":2,\"column\":1,\"snippet\":\"second \\\"line\\\"\"}",
            "{\"severity\":\"error\",\"message\":\"say \\\"hi\\\" \\\\ \\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f \u{7f} λ€\",\"span\":null,\"line\":null,\"column\":null,\"snippet\":null}",
            "{\"severity\":\"error\",\"message\":\"say \\\"hi\\\" \\\\ \\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f \u{7f} λ€\",\"span\":{\"start\":900,\"end\":905},\"line\":null,\"column\":null,\"snippet\":null}",
        ];
        let controls: String = (1u8..0x20).map(char::from).collect();
        let message = format!("say \"hi\" \\ {controls} \u{7f} λ€");
        let line: String = (1u8..0x20)
            .filter(|&b| b != b'\n')
            .map(char::from)
            .collect();
        let source = format!("{{\"q\" \\ {line}\u{7f} λ€}}\nsecond \"line\"");
        let second = source.find("second").unwrap();
        let spans = [
            Some(Span::new(1, 4)),
            Some(Span::new(second, second + 6)),
            None,
            // Not within the source: unlocated, with the span kept.
            Some(Span::new(900, 905)),
        ];
        for (span, recorded) in spans.into_iter().zip(RECORDED) {
            let diagnostic = Diagnostic::new(message.clone(), span, &source);
            assert_eq!(diagnostic_json(&diagnostic).to_string(), recorded);
        }
    }
}
