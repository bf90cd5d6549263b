//! The NC query language of Suciu & Breazu-Tannen (1994): the nested relational
//! algebra NRA (§3) extended with recursion on sets (§2) and the logarithmic
//! iterators of §7.1.
//!
//! The crate provides:
//!
//! * [`expr::Expr`] — the abstract syntax of the language: the NRA constructs of
//!   §3 (tuples, singletons, union, emptiness test, conditional, λ-abstraction,
//!   application, `ext`), the order predicate `≤` that makes databases *ordered*,
//!   recursion on sets and the iterators as three shapes, each tagged with
//!   which of the paper's forms it is and carrying that form's bound if it
//!   has one — the union recursor (`dcr`, `sru`, `bdcr`), the insert
//!   recursor (`sri`, `esr`, `bsri`) and the iterator (`loop`, `log-loop`,
//!   `bloop`, `blog-loop`); the tag ([`expr::Form`]) is the one place each
//!   form's keyword and diagnostic name are spelled — and external functions
//!   Σ (Proposition 6.3).
//! * [`mod@typecheck`] — a bidirectional-ish type checker for the language, including
//!   the PS-type side conditions of the bounded constructs.
//! * [`cost`] — the **work/span (PRAM) cost model**, stated once: one rule
//!   per construct, read by the three modules that charge, bound and fold it.
//!   Logarithmic span for a `dcr` combining tree, linear span for `sri`: the
//!   observable difference between the NC language (Theorems 6.1/6.2) and
//!   the PTIME language (Proposition 6.6).
//! * [`eval`] — the evaluator, which charges that model as it computes the
//!   semantics. There is one evaluator and one code path per construct; who
//!   runs which leaf is a *schedule* chosen underneath it: with
//!   `EvalConfig::parallelism` set, the `ext` element map and the `dcr` leaf
//!   map and combining-tree rounds fork onto `ncql-pram`'s persistent
//!   work-stealing pool (cutover and thread budget documented on
//!   [`EvalConfig`]), and values and cost statistics are bit-identical on
//!   every schedule.
//! * [`analysis`] — the syntactic passes: free variables, the *depth of
//!   recursion nesting* of §3, which stratifies the language into the ACᵏ
//!   levels, and the span-aware lint pass.
//! * [`analyze`] — the cost interpreter: the rules of [`cost`] over symbolic
//!   carriers give work/span upper bounds in the schema-relation
//!   cardinalities, and the work floor, an integer, for rejecting doomed
//!   queries. It runs the [`analysis`] lint pass so one call reports both.
//! * [`rewrite`] — the algebraic optimizer: one bottom-up pass (constant
//!   folding on a per-text budget, ext-fusion) whose result is gated by the
//!   [`analyze`] cost model so a plan's work/span guarantee can only improve.
//! * [`wellformed`] — the bounded checker for the algebraic preconditions
//!   (associativity, commutativity, identity) of `dcr`/`sru` instances; the
//!   general problem is Π⁰₁-complete (§2), so the checker works over a finite
//!   carrier sampled from a concrete input. A library API of the reproduction
//!   (§2's preconditions made executable): no request path calls it, its
//!   callers are its own tests.
//! * [`derived`] — the derived operations the paper lists as expressible in NRA:
//!   set intersection and difference, cartesian product, relational projections,
//!   selections, relation composition, nest/unnest, membership, and friends.
//! * [`externs`] — the external-function registry Σ (arithmetic and aggregates)
//!   used in the Proposition 6.3 experiments.
//! * [`kernel`] — compiled row kernels: `ext` bodies built from projections,
//!   pairs, scalar comparisons/arithmetic and constants over flat-shaped
//!   input lower to a register program executed directly over the columnar
//!   word rows, with the [`cost`] rules folded to a constant per path and a
//!   clean fallback for everything unliftable.

pub mod analysis;
pub mod analyze;
pub mod cost;
pub mod derived;
pub mod error;
pub mod eval;
pub mod expr;
pub mod externs;
pub mod kernel;
pub mod rewrite;
pub mod span;
pub mod typecheck;
pub mod wellformed;

pub use analysis::{Finding, Lint, Severity};
pub use analyze::{analyze_query, Bound, CostBound, Poly, QueryAnalysis};
pub use error::{EvalError, TypeError, TypeErrorKind};
pub use eval::{
    normalize_parallelism, parallelism_from_env, CancelToken, CostStats, EvalConfig, Evaluator,
};
pub use expr::{Expr, ExprKind};
pub use kernel::{kernel_stats, KernelSite, KernelStats};
pub use rewrite::{optimize, FiredRewrite, OptLevel, RewriteOutcome};
pub use span::Span;
pub use typecheck::{typecheck, typecheck_closed, TypeEnv};

/// Convenient result alias for evaluation.
pub type EvalResult<T> = Result<T, EvalError>;
