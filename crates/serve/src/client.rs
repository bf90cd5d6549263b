//! A blocking wire client: one TCP connection, typed requests, typed
//! responses.
//!
//! The client exists for two audiences — the protocol test suites and anyone
//! scripting against `ncql-served` from Rust. It speaks exactly the protocol
//! of [`crate::protocol`]: requests out as single JSON lines, responses back
//! as [`WireOutcome`]/[`WireDiagnostic`].

use crate::json::Json;
use crate::protocol::{parse_line, value_to_json};
use ncql_object::Value;
use std::fmt;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// The structured diagnostic of an `error` response: the wire form of the
/// engine's [`Diagnostic`](ncql_engine::Diagnostic), plus the protocol error
/// code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDiagnostic {
    /// Protocol error code (`parse`, `type`, ..., `deadline`, `busy`, ...).
    pub code: String,
    /// `error` or `warning`.
    pub severity: String,
    /// The human-readable message.
    pub message: String,
    /// Byte span in the submitted query text, when located.
    pub span: Option<(usize, usize)>,
    /// 1-based line of the span's start.
    pub line: Option<usize>,
    /// 1-based column (bytes) of the span's start.
    pub column: Option<usize>,
    /// The source line the span starts on.
    pub snippet: Option<String>,
}

impl fmt::Display for WireDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.code, self.severity, self.message)?;
        if let (Some(line), Some(column)) = (self.line, self.column) {
            write!(f, " (at {line}:{column})")?;
        }
        Ok(())
    }
}

/// Evaluation cost statistics as reported on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Total elementary operations.
    pub work: u64,
    /// Critical-path length.
    pub span: u64,
    /// Largest intermediate set observed.
    pub max_set_size: u64,
}

/// A successful `execute` response.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutcome {
    /// The decoded result value.
    pub value: Value,
    /// The server's canonical printed form of the value.
    pub printed: String,
    /// The query's inferred type, printed.
    pub ty: String,
    /// Evaluation cost statistics.
    pub stats: WireStats,
    /// Which backend evaluated (`sequential` / `parallel (N threads)`).
    pub backend: String,
}

/// A successful `prepare` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePrepared {
    /// The inferred type, printed.
    pub ty: String,
    /// The §3 recursion-nesting level (ACᵏ).
    pub ac_level: u64,
    /// The recursion depth of the normal form.
    pub recursion_depth: u64,
    /// The pretty-printed normal form.
    pub normal_form: String,
}

/// A `stats` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStatsReply {
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Plan-cache evictions.
    pub cache_evictions: u64,
    /// Prepared plans currently cached.
    pub prepared_plans: u64,
    /// Live pool workers in the server process.
    pub pool_workers: u64,
    /// The session's backend, printed.
    pub backend: String,
}

/// Client-side failure: transport, malformed response, or a typed error
/// response from the server.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed.
    Io(io::Error),
    /// The server's response line was not understood.
    Malformed(String),
    /// The server answered with a typed error. (Boxed: a diagnostic is much
    /// larger than the other variants, and the hot path is `Ok`.)
    Remote(Box<WireDiagnostic>),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Malformed(m) => write!(f, "malformed response: {m}"),
            ClientError::Remote(d) => write!(f, "server error: {d}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The remote diagnostic, when this is a typed server error.
    pub fn remote(&self) -> Option<&WireDiagnostic> {
        match self {
            ClientError::Remote(d) => Some(d),
            _ => None,
        }
    }

    /// The remote error code, when this is a typed server error.
    pub fn code(&self) -> Option<&str> {
        self.remote().map(|d| d.code.as_str())
    }
}

/// Extra knobs for [`Client::execute_with`].
#[derive(Debug, Clone, Default)]
pub struct ExecuteParams<'a> {
    /// Free-variable declarations, as (name, printed type) pairs.
    pub schema: &'a [(String, String)],
    /// Values for the declared free variables.
    pub bindings: &'a [(String, Value)],
    /// Requested wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Requested work budget.
    pub max_work: Option<u64>,
    /// Requested intermediate-set cap.
    pub max_set_size: Option<u64>,
}

/// One blocking protocol connection.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            next_id: 0,
        })
    }

    /// Prepare `text` (front end only; nothing is evaluated).
    pub fn prepare(
        &mut self,
        text: &str,
        schema: &[(String, String)],
    ) -> Result<WirePrepared, ClientError> {
        let mut fields = vec![("op".to_string(), Json::str("prepare"))];
        push_common(&mut fields, self.take_id(), text, schema);
        let (ok, _) = self.round_trip(Json::Obj(fields))?;
        Ok(WirePrepared {
            ty: require_str(&ok, "type")?,
            ac_level: require_u64(&ok, "ac_level")?,
            recursion_depth: require_u64(&ok, "recursion_depth")?,
            normal_form: require_str(&ok, "normal_form")?,
        })
    }

    /// Execute a closed query with default limits.
    pub fn execute(&mut self, text: &str) -> Result<WireOutcome, ClientError> {
        self.execute_with(text, &ExecuteParams::default())
    }

    /// Execute with schema, bindings, and per-request limits.
    pub fn execute_with(
        &mut self,
        text: &str,
        params: &ExecuteParams<'_>,
    ) -> Result<WireOutcome, ClientError> {
        let op = if params.bindings.is_empty() {
            "execute"
        } else {
            "execute_with_bindings"
        };
        let mut fields = vec![("op".to_string(), Json::str(op))];
        push_common(&mut fields, self.take_id(), text, params.schema);
        if !params.bindings.is_empty() {
            fields.push((
                "bindings".to_string(),
                Json::Arr(
                    params
                        .bindings
                        .iter()
                        .map(|(name, value)| {
                            Json::Obj(vec![
                                ("name".to_string(), Json::str(name)),
                                ("value".to_string(), value_to_json(value)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(ms) = params.deadline_ms {
            fields.push(("deadline_ms".to_string(), Json::num(ms)));
        }
        if let Some(w) = params.max_work {
            fields.push(("max_work".to_string(), Json::num(w)));
        }
        if let Some(s) = params.max_set_size {
            fields.push(("max_set_size".to_string(), Json::num(s)));
        }
        let (ok, values) = self.round_trip(Json::Obj(fields))?;
        let stats = ok
            .get("stats")
            .ok_or_else(|| ClientError::Malformed("missing `stats`".to_string()))?;
        let value = ok
            .get("value")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Malformed("missing `value`".to_string()))?;
        let value = values[value as usize]
            .clone()
            .map_err(ClientError::Malformed)?;
        Ok(WireOutcome {
            value,
            printed: require_str(&ok, "printed")?,
            ty: require_str(&ok, "type")?,
            stats: WireStats {
                work: require_u64(stats, "work")?,
                span: require_u64(stats, "span")?,
                max_set_size: require_u64(stats, "max_set_size")?,
            },
            backend: require_str(&ok, "backend")?,
        })
    }

    /// Fetch the server's session observability counters.
    pub fn stats(&mut self) -> Result<WireStatsReply, ClientError> {
        let fields = vec![
            ("op".to_string(), Json::str("stats")),
            ("id".to_string(), Json::num(self.take_id())),
        ];
        let (ok, _) = self.round_trip(Json::Obj(fields))?;
        let cache = ok
            .get("cache")
            .ok_or_else(|| ClientError::Malformed("missing `cache`".to_string()))?;
        Ok(WireStatsReply {
            cache_hits: require_u64(cache, "hits")?,
            cache_misses: require_u64(cache, "misses")?,
            cache_evictions: require_u64(cache, "evictions")?,
            prepared_plans: require_u64(&ok, "prepared_plans")?,
            pool_workers: require_u64(&ok, "pool_workers")?,
            backend: require_str(&ok, "backend")?,
        })
    }

    /// Politely end the connection (the server acknowledges, then hangs up).
    pub fn close(mut self) -> Result<(), ClientError> {
        let fields = vec![
            ("op".to_string(), Json::str("close")),
            ("id".to_string(), Json::num(self.take_id())),
        ];
        self.round_trip(Json::Obj(fields))?;
        Ok(())
    }

    /// Send a raw, pre-serialized request line and return the raw response
    /// line. For protocol tests that need to speak malformed requests.
    pub fn round_trip_raw(&mut self, line: &str) -> Result<String, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Ok(response.trim_end().to_string())
    }

    fn take_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Send `request` and read the reply's `ok` member, decoding each `value`
    /// in it as [`parse_request`](crate::protocol::parse_request) decodes a
    /// binding: the tree holds the value's index in the vector.
    fn round_trip(
        &mut self,
        request: Json,
    ) -> Result<(Json, Vec<Result<Value, String>>), ClientError> {
        let line = self.round_trip_raw(&request.to_string())?;
        let (response, values) =
            parse_line(&line).map_err(|e| ClientError::Malformed(format!("{e}: {line}")))?;
        if let Some(error) = response.get("error") {
            return Err(ClientError::Remote(Box::new(parse_diagnostic(error)?)));
        }
        let ok = response.get("ok").cloned();
        let neither = || ClientError::Malformed(format!("neither `ok` nor `error`: {line}"));
        Ok((ok.ok_or_else(neither)?, values))
    }
}

fn push_common(fields: &mut Vec<(String, Json)>, id: u64, text: &str, schema: &[(String, String)]) {
    fields.push(("id".to_string(), Json::num(id)));
    fields.push(("text".to_string(), Json::str(text)));
    if !schema.is_empty() {
        fields.push((
            "schema".to_string(),
            Json::Arr(
                schema
                    .iter()
                    .map(|(name, ty)| {
                        Json::Obj(vec![
                            ("name".to_string(), Json::str(name)),
                            ("type".to_string(), Json::str(ty)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
}

fn parse_diagnostic(error: &Json) -> Result<WireDiagnostic, ClientError> {
    let code = require_str(error, "code")?;
    let diagnostic = error
        .get("diagnostic")
        .ok_or_else(|| ClientError::Malformed("missing `diagnostic`".to_string()))?;
    let span = match diagnostic.get("span") {
        Some(span) if !span.is_null() => Some((
            require_u64(span, "start")? as usize,
            require_u64(span, "end")? as usize,
        )),
        _ => None,
    };
    let opt_u64 = |name: &str| {
        diagnostic
            .get(name)
            .filter(|v| !v.is_null())
            .and_then(Json::as_u64)
    };
    Ok(WireDiagnostic {
        code,
        severity: require_str(diagnostic, "severity")?,
        message: require_str(diagnostic, "message")?,
        span,
        line: opt_u64("line").map(|n| n as usize),
        column: opt_u64("column").map(|n| n as usize),
        snippet: diagnostic
            .get("snippet")
            .filter(|v| !v.is_null())
            .and_then(Json::as_str)
            .map(str::to_string),
    })
}

fn require_str(json: &Json, field: &str) -> Result<String, ClientError> {
    json.get(field)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ClientError::Malformed(format!("missing string `{field}`")))
}

fn require_u64(json: &Json, field: &str) -> Result<u64, ClientError> {
    json.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| ClientError::Malformed(format!("missing integer `{field}`")))
}
