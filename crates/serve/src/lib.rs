//! `ncql-serve`: a concurrent TCP query server for the NC query language,
//! with structured wire diagnostics, per-request deadlines and budgets, and
//! admission control.
//!
//! The paper's promise is a query language whose evaluations are *small* —
//! NC-parallelizable, polylog depth — which makes the natural deployment
//! shape many concurrent cheap queries against one shared engine. This crate
//! is that serving layer, built std-only (no async runtime) on the
//! workspace's existing concurrency story:
//!
//! * [`Server`] accepts TCP connections and handles each on its own thread;
//!   every handler shares one [`Session`](ncql_engine::Session) — one plan
//!   cache, one work-stealing pool — because the session is `Sync` by
//!   design.
//! * The protocol ([`protocol`]) is newline-delimited JSON. Errors arrive as
//!   the engine's structured [`Diagnostic`](ncql_engine::Diagnostic) — span,
//!   line, column, snippet — plus a typed code, so clients never parse caret
//!   art.
//! * Per-request isolation: a wall-clock deadline carried by the request's
//!   [`CancelToken`](ncql_engine::CancelToken) and checked where the
//!   evaluator charges work (each thread reads the clock every 4 096 units),
//!   per-request `max_work`/`max_set_size` budgets that only tighten the
//!   session's limits, and an admission [`Semaphore`](limits::Semaphore)
//!   that answers `busy` under overload instead of queueing unboundedly. A
//!   request that panics is answered with an `internal` error.
//! * [`Client`] is the blocking counterpart used by the protocol test suites
//!   and Rust scripts.
//!
//! # A round trip
//!
//! ```
//! use ncql_serve::{Client, ServeConfig, Server};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::bind(ServeConfig::default(), ncql_engine::Session::new())?;
//! let handle = server.spawn()?;
//!
//! let mut client = Client::connect(handle.addr())?;
//! let outcome = client.execute("{@1} union {@2} union {@1}")?;
//! assert_eq!(outcome.printed, "{a1, a2}");
//!
//! // Errors carry the engine's structured diagnostic, not rendered text.
//! let err = client.execute("pi1 true").unwrap_err();
//! let diagnostic = err.remote().expect("typed server error");
//! assert_eq!(diagnostic.code, "type");
//! assert_eq!(diagnostic.line, Some(1));
//!
//! client.close()?;
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod json;
pub mod limits;
pub mod protocol;
pub mod server;

pub use client::{
    Client, ClientError, ExecuteParams, WireDiagnostic, WireOutcome, WirePrepared, WireStats,
    WireStatsReply,
};
pub use protocol::{error_code, ProtocolError, Request};
pub use server::{ServeConfig, Server, ServerHandle};
