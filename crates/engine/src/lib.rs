//! The unified engine API for the NC query language: `Session`,
//! `PreparedQuery`, and a prepared-statement cache.
//!
//! Historically every consumer of the reproduction hand-wired the same
//! five-step pipeline — `surface::parse` → `typecheck` → `analysis` →
//! [`EvalConfig`](ncql_core::eval::EvalConfig) construction → a `match` on the
//! sequential vs parallel evaluator — each with its own error handling. This
//! crate is the single supported front door instead:
//!
//! * [`SessionBuilder`] owns the external-function registry Σ, the resource
//!   limits, and the `parallelism`/`parallel_cutoff` backend knobs (plus
//!   [`SessionBuilder::from_env`] for `NCQL_PARALLELISM` /
//!   `NCQL_PARALLEL_CUTOFF` deployments).
//! * [`Session::prepare`] runs parse → typecheck → recursion-depth analysis
//!   exactly once and caches the plan in an LRU keyed by (query text, schema,
//!   registry fingerprint), so repeated traffic pays only the Suciu–Tannen
//!   evaluation cost.
//! * [`PreparedQuery`] exposes what the front end learned: the inferred
//!   [`Type`](ncql_object::Type), the recursion-nesting depth / ACᵏ level of
//!   §3, and the pretty-printed normal form.
//! * [`Session::execute`], [`Session::execute_with_bindings`] and
//!   [`Session::execute_many`] evaluate a prepared plan (one set of bindings
//!   per declared free variable; batches amortize preparation further).
//! * [`Error`] is the one error enum at the boundary — `Parse`, `Type`,
//!   `Eval`, `Object` and `Lint` variants with `std::error::Error` +
//!   `Display` implementations and the lexer's source-position context.
//! * [`Session::prepare`] also runs the prepare-time static analysis of
//!   `ncql_core::analyze`: symbolic work/span bounds and lint findings,
//!   cached on the plan and exposed via [`PreparedQuery::analysis`]. Under
//!   [`LintPolicy::Deny`] (builder knob or `NCQL_LINT=deny`), deny-level
//!   findings reject the query at prepare — before any evaluation — with a
//!   span-located [`Error::Lint`].
//!
//! # Quickstart
//!
//! ```
//! use ncql_engine::{Backend, SessionBuilder};
//!
//! fn main() -> Result<(), ncql_engine::Error> {
//!     // One session per configuration; it can serve many threads.
//!     let session = SessionBuilder::new().parallelism(Some(4)).build();
//!     assert_eq!(session.backend(), Backend::Parallel { threads: 4 });
//!
//!     // The front end (parse, typecheck, analysis) runs once...
//!     let parity = session.prepare(
//!         "dcr(false, \\y: atom. true, \
//!          \\p: (bool * bool). if pi1 p then (if pi2 p then false else true) else pi2 p, \
//!          {@1} union {@2} union {@3})",
//!     )?;
//!     assert_eq!(parity.ty().to_string(), "bool");
//!     assert_eq!(parity.ac_level(), 1);
//!
//!     // ...and every execution pays only evaluation cost.
//!     let outcome = session.execute(&parity)?;
//!     assert_eq!(outcome.value.to_string(), "true"); // 3 is odd
//!
//!     // Re-preparing the same text is a cache hit on the same plan.
//!     let again = session.prepare(parity.source().unwrap())?;
//!     assert!(again.ptr_eq(&parity));
//!     assert_eq!(session.cache_metrics().hits, 1);
//!     Ok(())
//! }
//! ```

mod cache;
mod diagnostics;
mod error;
mod prepared;
mod session;

pub use diagnostics::Diagnostic;
pub use error::Error;
pub use prepared::{Backend, Outcome, PreparedQuery};
pub use session::{
    CacheMetrics, ExecOptions, LintPolicy, Session, SessionBuilder, DEFAULT_CACHE_CAPACITY,
};

// The cooperative cancellation token of `ExecOptions::cancel`, re-exported so
// serving front ends need not depend on the core crate directly.
pub use ncql_core::eval::CancelToken;

// The static-analysis vocabulary of `PreparedQuery::analysis`, re-exported so
// engine consumers need not depend on the core crate directly.
pub use ncql_core::{Bound, CostBound, Finding, Lint, QueryAnalysis, Severity};

// The optimizer vocabulary of `SessionBuilder::opt_level` /
// `PreparedQuery::rewrites`, re-exported for the same reason.
pub use ncql_core::rewrite::{FiredRewrite, OptLevel};

// The row-kernel vocabulary of `PreparedQuery::kernel_sites` and the
// process-wide kernel/columnar observability counters surfaced by the REPL's
// `:stats` and the server's `stats` reply.
pub use ncql_core::kernel::{kernel_stats, KernelSite, KernelStats};
pub use ncql_object::{columnar_stats, ColumnarStats};
