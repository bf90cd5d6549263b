//! Prepared queries and execution outcomes.

use crate::diagnostics::Diagnostic;
use ncql_core::eval::CostStats;
use ncql_core::expr::Expr;
use ncql_core::kernel::Sites;
use ncql_core::rewrite::{FiredRewrite, OptLevel};
use ncql_core::{CostBound, KernelSite, QueryAnalysis};
use ncql_object::{Type, Value};
use std::fmt;
use std::sync::Arc;

/// Everything the front end (parse → typecheck → analysis) computes for one
/// query, shared behind an `Arc` by every [`PreparedQuery`] handle the cache
/// vends for it.
#[derive(Debug)]
pub(crate) struct PreparedPlan {
    /// The original surface text, when the query was prepared from text.
    pub(crate) source: Option<String>,
    /// The parsed (or caller-supplied) abstract syntax.
    pub(crate) expr: Expr,
    /// The inferred type under the session's registry Σ.
    pub(crate) ty: Type,
    /// The free-variable schema the query was checked against (empty for a
    /// closed query); bindings supplied at execution time must cover it.
    pub(crate) schema: Vec<(String, Type)>,
    /// Depth of recursion nesting (§3): the ACᵏ stratification level.
    pub(crate) depth: usize,
    /// The pretty-printed normal form of the query (the parser/printer
    /// fixpoint the round-trip suite pins down). Always printed from the
    /// *raw* typed AST, so it re-parses to the plan the user wrote even when
    /// the optimizer rewrote what executes.
    pub(crate) normal_form: String,
    /// The pretty-printed form of the rewritten plan, printed only when a
    /// rewrite was accepted (`None`: the plan that executes is the one
    /// `normal_form` prints). May contain folded constant literals the
    /// surface grammar cannot re-parse — this is a display form, not a
    /// round-trip form.
    pub(crate) optimized_form: Option<String>,
    /// The prepare-time static analysis: symbolic work/span bounds of the
    /// *executing* (possibly rewritten) plan and lint findings of the *raw*
    /// expression. Computed once per plan, shared by every handle.
    pub(crate) analysis: QueryAnalysis,
    /// The optimizer level the plan was prepared under.
    pub(crate) opt_level: OptLevel,
    /// Every cost-gate-accepted rewrite, in firing order (empty at
    /// [`OptLevel::None`] or when nothing fired).
    pub(crate) rewrites: Vec<FiredRewrite>,
    /// The raw expression's cost bounds, kept only when at least one rewrite
    /// fired (`None` means the executing plan *is* the raw plan, so
    /// [`PreparedQuery::analysis`] already bounds it).
    pub(crate) cost_before: Option<CostBound>,
    /// The row kernels of the *executing* plan, compiled once here and run
    /// by every execution of it, with what the compiler decided about every
    /// `ext` and `dcr`/`sru` site (see [`ncql_core::kernel::Sites`]): which
    /// sites will run through compiled kernels over columnar input, and why
    /// the others fall back to the interpreter.
    pub(crate) sites: Arc<Sites>,
}

/// A query that has been parsed, type-checked and analysed once, ready to be
/// executed any number of times by the [`Session`](crate::Session) that
/// prepared it. Cloning is O(1): handles share the underlying plan.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    pub(crate) plan: Arc<PreparedPlan>,
}

impl PreparedQuery {
    /// The inferred type of the query under the session's registry Σ.
    pub fn ty(&self) -> &Type {
        &self.plan.ty
    }

    /// The depth of recursion/iteration nesting (§3). Depth `k ≥ 1` places a
    /// flat query in ACᵏ by Theorem 6.2.
    pub fn recursion_depth(&self) -> usize {
        self.plan.depth
    }

    /// The ACᵏ level predicted by Theorems 6.1/6.2: `max(1, depth)`.
    pub fn ac_level(&self) -> usize {
        self.plan.depth.max(1)
    }

    /// The pretty-printed normal form of the query, printed from the raw
    /// typed AST: it re-parses to an equivalent plan regardless of what the
    /// optimizer did. See [`PreparedQuery::optimized_form`] for the plan that
    /// actually executes.
    pub fn normal_form(&self) -> &str {
        &self.plan.normal_form
    }

    /// The pretty-printed form of the plan the session will execute. When no
    /// rewrite was accepted that plan is the raw one, and this is
    /// [`PreparedQuery::normal_form`] (printed once, at prepare); a rewritten
    /// plan may mention folded constants, so this is a display form — it is
    /// not guaranteed to re-parse.
    pub fn optimized_form(&self) -> &str {
        self.plan
            .optimized_form
            .as_deref()
            .unwrap_or(&self.plan.normal_form)
    }

    /// The optimizer level the plan was prepared under.
    pub fn opt_level(&self) -> OptLevel {
        self.plan.opt_level
    }

    /// Every rewrite the cost gate accepted while preparing this plan, in
    /// firing order. Empty at [`OptLevel::None`] or when nothing fired.
    pub fn rewrites(&self) -> &[FiredRewrite] {
        &self.plan.rewrites
    }

    /// The *raw* expression's symbolic cost bounds, when at least one rewrite
    /// fired — compare against [`PreparedQuery::analysis`]'s cost (which
    /// describes the executing plan) to see what the optimizer bought.
    /// `None` means the executing plan is the raw plan.
    pub fn raw_cost(&self) -> Option<&CostBound> {
        self.plan.cost_before.as_ref()
    }

    /// The abstract syntax the session will evaluate.
    pub fn expr(&self) -> &Expr {
        &self.plan.expr
    }

    /// The original surface text, when the query was prepared from text
    /// (`None` when it was prepared from a pre-built [`Expr`]).
    pub fn source(&self) -> Option<&str> {
        self.plan.source.as_deref()
    }

    /// The free-variable schema declared at preparation time (empty for a
    /// closed query).
    pub fn schema(&self) -> &[(String, Type)] {
        &self.plan.schema
    }

    /// The prepare-time static analysis: symbolic work/span bounds in the
    /// schema-relation cardinalities plus the lint findings. Computed exactly
    /// once per plan (cache hits share it).
    pub fn analysis(&self) -> &QueryAnalysis {
        &self.plan.analysis
    }

    /// The lint findings rendered as caret diagnostics against the prepared
    /// source text (warnings labelled `warning:`, deny findings `error:`).
    /// Findings of a builder-API plan (no source text) render without carets.
    pub fn lint_diagnostics(&self) -> Vec<Diagnostic> {
        let source = self.source().unwrap_or("");
        self.plan
            .analysis
            .findings
            .iter()
            .map(|finding| Diagnostic::from_finding(finding, source))
            .collect()
    }

    /// The row-kernel compiler's prepare-time decision for every `ext` and
    /// `dcr`/`sru` site of the executing plan, in plan order: a site with
    /// `compiled == true` runs through compiled row kernels whenever its
    /// argument set is columnar and kernels are enabled (the kernels compiled
    /// here are the ones every execution runs, so the prepare-time decision
    /// *is* the runtime decision); the `detail` of a fallback site is the
    /// compiler's rejection reason.
    pub fn kernel_sites(&self) -> &[KernelSite] {
        self.plan.sites.report()
    }

    /// Do two handles share one underlying plan? A cache hit in
    /// [`Session::prepare`](crate::Session::prepare) returns a handle for
    /// which this is `true` relative to the first preparation — that pointer
    /// identity is the observable proof that the front end ran only once.
    pub fn ptr_eq(&self, other: &PreparedQuery) -> bool {
        Arc::ptr_eq(&self.plan, &other.plan)
    }
}

/// Which evaluation backend a session dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The sequential reference evaluator.
    Sequential,
    /// The parallel backend, forking `ext`/`dcr` regions across this many
    /// worker threads.
    Parallel {
        /// Worker thread count (always ≥ 2; degenerate requests are
        /// normalized to [`Backend::Sequential`] at session build time).
        threads: usize,
    },
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Sequential => write!(f, "sequential"),
            Backend::Parallel { threads } => write!(f, "parallel ({threads} threads)"),
        }
    }
}

/// The result of executing a query: the value, the work/span cost statistics
/// (bit-identical across backends — the differential suite's contract), and
/// which backend ran it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The query's value.
    pub value: Value,
    /// Work/span cost statistics of the evaluation.
    pub stats: CostStats,
    /// The backend that produced the value.
    pub backend: Backend,
}
