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
//! The `diag` object is exactly the engine's
//! [`Diagnostic::to_json`](ncql_engine::Diagnostic::to_json) — the same
//! structured form the REPL's `--json` flag prints — so every span, line,
//! column and snippet a caret rendering would show arrives machine-readable.
//! Result values are carried in the object layer's canonical printed form
//! (`"{a1, a2}"`, `"42"`, `"(true, a7)"`), which is what the sorted,
//! duplicate-free [`Value`] display guarantees to be deterministic.
//!
//! # Bytes ↔ rows
//!
//! No [`Json`] tree is built for a `value`, in either direction. A request
//! line is read once: its envelope becomes a tree, and each binding value is
//! decoded on the way by the pull reader, which is the grammar of record. A
//! flat value's text is fixed by its shape (§5), so a set's rows are not
//! lexed token by token: the first element's shape gives a row template, the
//! literal text [`value_to_json`] writes around each word, and every later row
//! is matched against it — a slice compare per piece, a digit loop per
//! number, the words straight into the columnar rows the kernels run on. A
//! row written any other way (whitespace, `1e1`, `30.0`, 20 digits, another
//! shape) is read by the reader, that row alone. [`value_to_json`] writes a
//! result's wire text from its rows, as `Display` does `printed`. A `value` is
//! an object of exactly one member: a second key, a repeated one, `"unit"`
//! other than `true` get a `protocol` error, `invalid value encoding at byte
//! N: …` (at most 80 bytes of the line from `N` on).

use crate::json::{Json, JsonError, Reader, Token};
use ncql_core::EvalError;
use ncql_engine::Error;
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
/// of the text, written directly — a columnar set's straight from its rows.
pub fn value_to_json(value: &Value) -> Json {
    let mut out = String::new();
    write_value(&mut out, value);
    Json::Raw(out)
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Atom(a) => write_scalar(out, "{\"atom\":", *a),
        Value::Nat(n) => write_scalar(out, "{\"nat\":", *n),
        Value::Bool(b) => write_row(out, &FlatShape::Bool, &[u64::from(*b)]),
        Value::Unit => write_row(out, &FlatShape::Unit, &[]),
        Value::Pair(a, b) => {
            out.push_str("{\"pair\":[");
            write_value(out, a);
            out.push(',');
            write_value(out, b);
            out.push_str("]}");
        }
        Value::Set(s) => {
            out.push_str("{\"set\":[");
            if let Some((shape, width, words)) = s.columnar_rows() {
                for row in words.chunks_exact(width) {
                    write_row(out, shape, row);
                    out.push(',');
                }
            } else {
                for x in s.iter() {
                    write_value(out, x);
                    out.push(',');
                }
            }
            out.truncate(out.trim_end_matches(',').len()); // the last element's comma
            out.push_str("]}");
        }
    }
}

/// [`write_value`] for the flat value that `shape` lays out in `row`.
fn write_row(out: &mut String, shape: &FlatShape, row: &[u64]) {
    match shape {
        FlatShape::Atom => write_scalar(out, "{\"atom\":", row[0]),
        FlatShape::Nat => write_scalar(out, "{\"nat\":", row[0]),
        FlatShape::Bool if row[0] == 0 => out.push_str("{\"bool\":false}"),
        FlatShape::Bool => out.push_str("{\"bool\":true}"),
        FlatShape::Unit => out.push_str("{\"unit\":true}"),
        FlatShape::Pair(a, b) => {
            let (first, second) = row.split_at(a.width());
            out.push_str("{\"pair\":[");
            write_row(out, a, first);
            out.push(',');
            write_row(out, b, second);
            out.push_str("]}");
        }
    }
}

fn write_scalar(out: &mut String, open: &str, n: u64) {
    out.push_str(open);
    ncql_object::flat::write_u64(out, n).expect("a String accepts every write");
    out.push('}');
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
/// as [`write_row`] writes it is matched by the shape's [`Template`], any other
/// is read by [`read_value`]. From the first element of another shape on, the
/// elements are boxed.
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

/// A flat shape's row as [`write_row`] writes it: literal text with a word
/// between each two pieces. A row that matches is decoded by slice compares and
/// digit loops; one that does not — whitespace, a sign, a fraction or exponent,
/// more than 19 digits, another key — is left to [`read_value`].
struct Template {
    /// Each word's kind, with the text that comes before it.
    slots: Vec<(Vec<u8>, Slot)>,
    /// The text after the last word.
    tail: Vec<u8>,
}

enum Slot {
    /// An `atom` or `nat`: 1 to 19 decimal digits, so no overflow.
    Number,
    /// `true` or `false`.
    Bool,
}

impl Template {
    fn of(shape: &FlatShape) -> Template {
        let mut template = Template {
            slots: Vec::new(),
            tail: Vec::new(),
        };
        template.push(shape);
        template
    }

    fn push(&mut self, shape: &FlatShape) {
        let mut scalar = |open: &str, slot| {
            self.tail.extend_from_slice(open.as_bytes());
            let before = std::mem::take(&mut self.tail);
            self.slots.push((before, slot));
            self.tail.push(b'}');
        };
        match shape {
            FlatShape::Atom => scalar("{\"atom\":", Slot::Number),
            FlatShape::Nat => scalar("{\"nat\":", Slot::Number),
            FlatShape::Bool => scalar("{\"bool\":", Slot::Bool),
            FlatShape::Unit => self.tail.extend_from_slice(b"{\"unit\":true}"),
            FlatShape::Pair(a, b) => {
                self.tail.extend_from_slice(b"{\"pair\":[");
                self.push(a);
                self.tail.push(b',');
                self.push(b);
                self.tail.extend_from_slice(b"]}");
            }
        }
    }

    /// Match one row at the start of `text`, appending its words to `out`:
    /// the bytes it spans, or `None` (with part of a row perhaps pushed).
    fn read(&self, text: &[u8], out: &mut Vec<u64>) -> Option<usize> {
        let mut at = 0;
        for (before, slot) in &self.slots {
            if !text[at..].starts_with(before) {
                return None;
            }
            at += before.len();
            let rest = &text[at..];
            let (word, len) = match slot {
                Slot::Number => {
                    let len = rest
                        .iter()
                        .take(20)
                        .take_while(|b| b.is_ascii_digit())
                        .count();
                    if !(1..=19).contains(&len) {
                        return None;
                    }
                    let digits = rest[..len].iter().map(|digit| u64::from(digit - b'0'));
                    (digits.fold(0, |n, digit| n * 10 + digit), len)
                }
                Slot::Bool if rest.starts_with(b"true") => (1, 4),
                Slot::Bool if rest.starts_with(b"false") => (0, 5),
                Slot::Bool => return None,
            };
            out.push(word);
            at += len;
        }
        text[at..]
            .starts_with(&self.tail)
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

/// An `error` response envelope: the code plus the structured diagnostic
/// (pre-serialized by the engine's `Diagnostic::to_json`).
pub fn error_response(id: Option<u64>, code: &str, diagnostic_json: String) -> String {
    Json::Obj(vec![
        ("id".to_string(), id.map(Json::num).unwrap_or(Json::Null)),
        (
            "error".to_string(),
            Json::Obj(vec![
                ("code".to_string(), Json::str(code)),
                ("diagnostic".to_string(), Json::Raw(diagnostic_json)),
            ]),
        ),
    ])
    .to_string()
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

    /// `count` values of the flat type `ty`, their words from 1 to 19 digits
    /// (the named atoms' tag bit set on some).
    fn flat_values(ty: &str, count: usize) -> (FlatShape, Vec<Value>) {
        let words = [
            0,
            1,
            7,
            42,
            999,
            1 << 16,
            1 << 32,
            (1 << 53) + 1,
            1 << 63,
            (1 << 63) + 5,
            9_999_999_999_999_999_998,
            9_999_999_999_999_999_999,
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
                let row = value_to_json(&value).to_string();
                let mut read = Vec::new();
                let text = format!("{row},{row}]");
                assert_eq!(
                    template.read(text.as_bytes(), &mut read),
                    Some(row.len()),
                    "{row}"
                );
                let mut words = Vec::new();
                assert!(shape.encode_into(&value, &mut words));
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
}
