//! The TCP server: an acceptor plus one handler thread per connection, all
//! sharing one [`Session`].
//!
//! The session is the unit of multi-tenancy in this workspace — one plan
//! cache, one work-stealing pool, one set of resource limits — and it is
//! `Sync`, so the server never clones it: every connection handler executes
//! against the same `Arc<Session>`. Per-request isolation comes from three
//! mechanisms layered on top:
//!
//! 1. **Admission control** ([`Semaphore`]): at most
//!    [`ServeConfig::max_inflight`] evaluations run concurrently; a request
//!    that cannot be admitted within the admission timeout gets a typed
//!    `busy` error instead of queueing unboundedly.
//! 2. **Deadlines** ([`CancelToken::with_deadline`]): every execute carries
//!    a wall-clock deadline (client-requested, capped by
//!    [`ServeConfig::max_deadline_ms`]) from the end of prepare. The
//!    evaluator reads the clock where it charges work, once per 4 096 units
//!    on each thread, so expiry cancels the evaluation cooperatively within
//!    4 096 units per thread and the client sees a `deadline` error with the
//!    reason.
//! 3. **Budgets** ([`ExecOptions`]): per-request `max_work`/`max_set_size`
//!    only ever *tighten* the session's limits, so a shared deployment's
//!    guardrails cannot be talked past from the wire.
//!
//! A request that panics (say, in a custom extern on a sequential session)
//! is answered with an `internal` error; its admission slot is released and
//! the connection keeps serving.
//!
//! Accepted sockets run with `TCP_NODELAY`, and a handler flushes once per
//! drained batch: a reply stays buffered only while the next complete request
//! line is already in hand.

use crate::json::Json;
use crate::limits::Semaphore;
use crate::protocol::{self, code, error_code, ProtocolError, Request};
use ncql_engine::{CancelToken, Diagnostic, ExecOptions, Outcome, Session};
use ncql_object::Type;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server knobs; every field has an environment override (see
/// [`ServeConfig::from_env`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`NCQL_SERVE_ADDR`). Port 0 picks a free port —
    /// read it back from [`Server::local_addr`].
    pub addr: String,
    /// Maximum concurrently admitted evaluations
    /// (`NCQL_SERVE_MAX_INFLIGHT`).
    pub max_inflight: usize,
    /// How long a request waits for admission before the server answers
    /// `busy` (`NCQL_SERVE_ADMISSION_TIMEOUT_MS`).
    pub admission_timeout_ms: u64,
    /// Deadline applied when a request does not ask for one
    /// (`NCQL_SERVE_DEADLINE_MS`).
    pub default_deadline_ms: u64,
    /// Hard cap on client-requested deadlines
    /// (`NCQL_SERVE_MAX_DEADLINE_MS`).
    pub max_deadline_ms: u64,
    /// Longest accepted request line in bytes
    /// (`NCQL_SERVE_MAX_LINE_BYTES`). Oversized lines are drained and
    /// answered with a `protocol` error; the connection stays usable.
    pub max_line_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 64,
            admission_timeout_ms: 100,
            default_deadline_ms: 10_000,
            max_deadline_ms: 60_000,
            max_line_bytes: 1 << 20,
        }
    }
}

impl ServeConfig {
    /// The defaults with any `NCQL_SERVE_*` environment overrides applied.
    /// Unparsable values fall back to the default rather than failing.
    pub fn from_env() -> ServeConfig {
        let mut config = ServeConfig::default();
        if let Ok(addr) = std::env::var("NCQL_SERVE_ADDR") {
            if !addr.is_empty() {
                config.addr = addr;
            }
        }
        fn num<T: std::str::FromStr>(name: &str, into: &mut T) {
            if let Some(v) = ncql_core::eval::env_number(name) {
                *into = v;
            }
        }
        num("NCQL_SERVE_MAX_INFLIGHT", &mut config.max_inflight);
        num(
            "NCQL_SERVE_ADMISSION_TIMEOUT_MS",
            &mut config.admission_timeout_ms,
        );
        num("NCQL_SERVE_DEADLINE_MS", &mut config.default_deadline_ms);
        num("NCQL_SERVE_MAX_DEADLINE_MS", &mut config.max_deadline_ms);
        num("NCQL_SERVE_MAX_LINE_BYTES", &mut config.max_line_bytes);
        config
    }
}

/// What the server shares across all connection handlers.
#[derive(Debug)]
struct Inner {
    session: Session,
    config: ServeConfig,
    admission: Semaphore,
    shutdown: AtomicBool,
}

/// A bound (but not yet accepting) server. Call [`Server::spawn`] to start
/// the accept loop on a background thread.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
}

impl Server {
    /// Bind `config.addr` and wrap `session` for serving.
    pub fn bind(config: ServeConfig, session: Session) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let admission = Semaphore::new(config.max_inflight);
        Ok(Server {
            listener,
            inner: Arc::new(Inner {
                session,
                config,
                admission,
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Start accepting connections on a background thread; the returned
    /// handle shuts the server down when asked (or dropped).
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let inner = Arc::clone(&self.inner);
        let listener = self.listener;
        let acceptor = std::thread::Builder::new()
            .name("ncql-accept".to_string())
            .spawn(move || accept_loop(listener, inner))?;
        Ok(ServerHandle {
            addr,
            inner: self.inner,
            acceptor: Some(acceptor),
        })
    }

    /// Accept connections on the calling thread until shut down. This is what
    /// the `ncql-served` binary runs.
    pub fn run(self) -> io::Result<()> {
        let inner = Arc::clone(&self.inner);
        accept_loop(self.listener, inner);
        Ok(())
    }
}

/// Handle to a spawned server; shuts the accept loop down on
/// [`ServerHandle::shutdown`] or drop. Connections already being handled
/// finish their in-flight request.
#[derive(Debug)]
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    inner: Arc<Inner>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is accepting on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting and join the acceptor thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Unblock the (otherwise indefinitely blocking) accept call.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) if inner.shutdown.load(Ordering::Acquire) => return,
            Err(_) => continue,
        };
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let handler_inner = Arc::clone(&inner);
        let spawned = std::thread::Builder::new()
            .name("ncql-conn".to_string())
            .spawn(move || {
                let _ = handle_connection(stream, handler_inner);
            });
        // Thread exhaustion: drop the connection rather than crash the
        // acceptor; the client sees a hangup and can retry.
        drop(spawned);
    }
}

/// One request line, or a reason it could not be read.
enum LineRead {
    Line(String),
    /// The line exceeded `max_line_bytes`; the rest of it was drained.
    Oversized,
    /// Clean end of stream.
    Eof,
}

/// Read one `\n`-terminated line without buffering more than `max` bytes of
/// it. An oversized line is consumed to its newline so the connection can
/// answer a `protocol` error and keep going — a hangup would turn a client
/// bug into a lost connection.
fn read_bounded_line(reader: &mut impl BufRead, max: usize) -> io::Result<LineRead> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return if line.is_empty() {
                Ok(LineRead::Eof)
            } else {
                // Trailing unterminated data: treat as a final line.
                Ok(LineRead::Line(into_text(line)))
            };
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                if line.len() + newline > max {
                    reader.consume(newline + 1);
                    return Ok(LineRead::Oversized);
                }
                line.extend_from_slice(&available[..newline]);
                reader.consume(newline + 1);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(LineRead::Line(into_text(line)));
            }
            None => {
                let taken = available.len();
                if line.len() + taken > max {
                    reader.consume(taken);
                    drain_to_newline(reader)?;
                    return Ok(LineRead::Oversized);
                }
                line.extend_from_slice(available);
                reader.consume(taken);
            }
        }
    }
}

/// Adopt a finished line's bytes as text; only a line that is not UTF-8 is
/// copied (lossily — the JSON parser then rejects it with a position).
fn into_text(line: Vec<u8>) -> String {
    String::from_utf8(line).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

fn drain_to_newline(reader: &mut impl BufRead) -> io::Result<()> {
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                reader.consume(newline + 1);
                return Ok(());
            }
            None => {
                let taken = available.len();
                reader.consume(taken);
            }
        }
    }
}

/// The connection reader's buffer: a bulk request line (hundreds of kilobytes)
/// is a dozen chunks of this size, where the 8 KiB default took a hundred.
const READ_BUFFER_BYTES: usize = 64 << 10;

/// The buffered halves of an accepted connection. Replies are small and the
/// client is waiting on each, so Nagle's algorithm is off: with it, the
/// second reply of a pipelined batch sits in the kernel until the client's
/// delayed ACK of the first (tens of milliseconds).
fn connection_io(stream: TcpStream) -> io::Result<(BufReader<TcpStream>, BufWriter<TcpStream>)> {
    stream.set_nodelay(true)?;
    let reader = BufReader::with_capacity(READ_BUFFER_BYTES, stream.try_clone()?);
    Ok((reader, BufWriter::new(stream)))
}

fn handle_connection(stream: TcpStream, inner: Arc<Inner>) -> io::Result<()> {
    let (mut reader, mut writer) = connection_io(stream)?;
    loop {
        // One flush per drained batch: replies wait in the write buffer only
        // while the next *complete* request line has already arrived, since
        // its reply follows at once. A partial line holds nothing back — its
        // tail may be a round trip away.
        if !reader.buffer().contains(&b'\n') {
            writer.flush()?;
        }
        let line = match read_bounded_line(&mut reader, inner.config.max_line_bytes)? {
            LineRead::Eof => return Ok(()),
            LineRead::Oversized => {
                let message = format!(
                    "request line exceeds the {}-byte limit",
                    inner.config.max_line_bytes
                );
                send(&mut writer, protocol_error_response(None, &message))?;
                continue;
            }
            LineRead::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match protocol::parse_request(&line) {
            Ok(request) => request,
            Err(ProtocolError { id, message }) => {
                send(&mut writer, protocol_error_response(id, &message))?;
                continue;
            }
        };
        let closing = matches!(request, Request::Close { .. });
        let id = request.id();
        // A panic inside one request (a custom extern, say) unwinds to here,
        // releasing the admission permit on the way; nothing it held outlives
        // the request, so the connection answers it and carries on.
        let response = catch_unwind(AssertUnwindSafe(|| respond(&inner, request)))
            .unwrap_or_else(|payload| internal_response(id, payload));
        send(&mut writer, response)?;
        if closing {
            return writer.flush();
        }
    }
}

/// Write one reply line. The newline is its own write: pushing it onto a
/// finished reply could reallocate, and so copy, up to a megabyte.
fn send(writer: &mut BufWriter<TcpStream>, response: String) -> io::Result<()> {
    writer.write_all(response.as_bytes())?;
    writer.write_all(b"\n")
}

/// Build the response line for one parsed request. Responses are single
/// lines by construction: the JSON writer escapes every control character.
fn respond(inner: &Inner, request: Request) -> String {
    match request {
        Request::Close { id } => protocol::ok_response(
            id,
            Json::Obj(vec![("closing".to_string(), Json::Bool(true))]),
        ),
        Request::Stats { id } => protocol::ok_response(id, stats_body(&inner.session)),
        Request::Prepare { id, text, schema } => {
            let Some(_permit) = admit(inner) else {
                return busy_response(id, inner);
            };
            match inner.session.prepare_with_schema(&text, &schema) {
                Ok(plan) => protocol::ok_response(
                    id,
                    Json::Obj(vec![
                        ("type".to_string(), Json::str(plan.ty().to_string())),
                        ("ac_level".to_string(), Json::num(plan.ac_level() as u64)),
                        (
                            "recursion_depth".to_string(),
                            Json::num(plan.recursion_depth() as u64),
                        ),
                        ("normal_form".to_string(), Json::str(plan.normal_form())),
                    ]),
                ),
                Err(error) => engine_error_response(id, &error, &text),
            }
        }
        Request::Execute {
            id,
            text,
            schema,
            bindings,
            deadline_ms,
            max_work,
            max_set_size,
        } => {
            let Some(_permit) = admit(inner) else {
                return busy_response(id, inner);
            };
            let plan = match inner.session.prepare_with_schema(&text, &schema) {
                Ok(plan) => plan,
                Err(error) => return engine_error_response(id, &error, &text),
            };
            let deadline_ms = deadline_ms
                .unwrap_or(inner.config.default_deadline_ms)
                .min(inner.config.max_deadline_ms);
            let token = CancelToken::with_deadline(Duration::from_millis(deadline_ms));
            let mut options = ExecOptions::new().cancel(token);
            if let Some(limit) = max_work {
                options = options.max_work(limit);
            }
            if let Some(limit) = max_set_size {
                options = options.max_set_size(limit);
            }
            match inner
                .session
                .execute_with_options(&plan, &bindings, &options)
            {
                Ok(outcome) => protocol::ok_response(id, outcome_body(&outcome, plan.ty())),
                Err(error) => engine_error_response(id, &error, &text),
            }
        }
    }
}

fn admit(inner: &Inner) -> Option<crate::limits::SemaphoreGuard<'_>> {
    inner
        .admission
        .try_acquire_for(Duration::from_millis(inner.config.admission_timeout_ms))
}

fn busy_response(id: u64, inner: &Inner) -> String {
    let message = format!(
        "server at capacity: {} evaluations already in flight; retry later",
        inner.config.max_inflight
    );
    let diagnostic = Diagnostic::new(message, None, "");
    protocol::error_response(Some(id), code::BUSY, diagnostic.to_json())
}

fn internal_response(id: u64, payload: Box<dyn std::any::Any + Send>) -> String {
    let message = format!("internal error: {}", ncql_pram::panic_message(payload));
    let diagnostic = Diagnostic::new(message, None, "");
    protocol::error_response(Some(id), code::INTERNAL, diagnostic.to_json())
}

fn protocol_error_response(id: Option<u64>, message: &str) -> String {
    let diagnostic = Diagnostic::new(message, None, "");
    protocol::error_response(id, code::PROTOCOL, diagnostic.to_json())
}

fn engine_error_response(id: u64, error: &ncql_engine::Error, source: &str) -> String {
    protocol::error_response(
        Some(id),
        error_code(error),
        error.diagnostic(source).to_json(),
    )
}

fn outcome_body(outcome: &Outcome, ty: &Type) -> Json {
    Json::Obj(vec![
        ("value".to_string(), protocol::value_to_json(&outcome.value)),
        ("printed".to_string(), Json::str(outcome.value.to_string())),
        ("type".to_string(), Json::str(ty.to_string())),
        ("stats".to_string(), stats_json(outcome)),
        (
            "backend".to_string(),
            Json::str(outcome.backend.to_string()),
        ),
    ])
}

fn stats_json(outcome: &Outcome) -> Json {
    let s = &outcome.stats;
    Json::Obj(vec![
        ("work".to_string(), Json::num(s.work)),
        ("span".to_string(), Json::num(s.span)),
        ("combiner_calls".to_string(), Json::num(s.combiner_calls)),
        ("step_calls".to_string(), Json::num(s.step_calls)),
        ("ext_calls".to_string(), Json::num(s.ext_calls)),
        (
            "sequential_rounds".to_string(),
            Json::num(s.sequential_rounds),
        ),
        ("max_set_size".to_string(), Json::num(s.max_set_size as u64)),
    ])
}

/// The `stats` response body: cache metrics, live pool workers, the
/// prepared-plan count, and the process-wide columnar/kernel observability
/// counters — the same numbers the REPL's `:stats` command prints.
pub fn stats_body(session: &Session) -> Json {
    let metrics = session.cache_metrics();
    let columnar = ncql_engine::columnar_stats();
    let kernels = ncql_engine::kernel_stats();
    Json::Obj(vec![
        (
            "cache".to_string(),
            Json::Obj(vec![
                ("hits".to_string(), Json::num(metrics.hits)),
                ("misses".to_string(), Json::num(metrics.misses)),
                ("evictions".to_string(), Json::num(metrics.evictions)),
                ("len".to_string(), Json::num(metrics.len as u64)),
                ("capacity".to_string(), Json::num(metrics.capacity as u64)),
            ]),
        ),
        (
            "pool_workers".to_string(),
            Json::num(ncql_pram::live_pool_workers() as u64),
        ),
        ("prepared_plans".to_string(), Json::num(metrics.len as u64)),
        (
            "backend".to_string(),
            Json::str(session.backend().to_string()),
        ),
        (
            "columnar".to_string(),
            Json::Obj(vec![
                ("promotions".to_string(), Json::num(columnar.promotions)),
                ("demotions".to_string(), Json::num(columnar.demotions)),
            ]),
        ),
        (
            "kernels".to_string(),
            Json::Obj(vec![
                ("compiles".to_string(), Json::num(kernels.compiles)),
                ("fallbacks".to_string(), Json::num(kernels.fallbacks)),
                ("ext_hits".to_string(), Json::num(kernels.ext_hits)),
                ("rows".to_string(), Json::num(kernels.rows)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_connections_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let _client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _peer) = listener.accept().expect("accept");
        assert!(!accepted.nodelay().expect("nodelay"), "the OS default");
        let (_reader, writer) = connection_io(accepted).expect("set-up");
        assert!(writer.get_ref().nodelay().expect("nodelay"));
    }
}
