//! The algebraic optimizer: one bottom-up pass over [`Expr`], run by the
//! engine between typecheck and the plan cache.
//!
//! Two semantics-preserving rules, tried at each node after its children:
//!
//! 1. **Constant folding** (`const-fold`) — a closed, non-literal
//!    subexpression whose evaluation completes within what is left of the
//!    text's prepare-time budget is replaced by its value. Subtrees whose
//!    evaluation *errors* are left alone, so limit-hitting plans keep their
//!    runtime behaviour.
//! 2. **Ext-fusion** (`ext-fusion`, map fusion) — `ext(f, ext(λx. {h}, s))`
//!    becomes `ext(λx. let y = h in body_f, s)` when `h` is syntactically
//!    injective in `x`, eliminating the intermediate set.
//!
//! # One pass, one budget
//!
//! The traversal is post-order and visits every node once; closedness and
//! node counts are carried up from [`Expr::children`]'s binder info. Folding
//! draws on a single budget per text (`FOLD_WORK_BUDGET`, 4 096 work units):
//! every fold attempt, failed ones included, is charged the work it evaluated,
//! so prepare evaluates at most that much of the text and a fold can never
//! save more runtime work than it was allowed to spend (an over-budget closed
//! query is folded from the leaves up until the budget runs out, and
//! evaluates the rest at runtime). Prepare-time cost is linear in the text
//! plus that one bounded evaluation.
//!
//! # The cost gate
//!
//! The rewritten plan is analysed once ([`analyze_query`] — the analysis the
//! prepared plan stores anyway) and kept only when its symbolic **work**
//! bound and **span** bound are *provably* `≤` the raw plan's
//! ([`crate::analyze::Bound::le_pointwise`] — a sound, incomplete check, so a
//! plan the model cannot justify is refused whole and the raw plan executes).
//! This is the paper-facing invariant: optimization never weakens a plan's
//! work/span guarantee.
//!
//! # Spans survive rewrites
//!
//! Rebuilt nodes inherit the span of the node they replace — a fused map
//! takes the outer `ext`'s span, a folded constant takes the folded
//! subtree's span — so runtime errors raised inside optimized regions still
//! render caret diagnostics against the original source text.
//!
//! # What the optimizer may change
//!
//! Values are preserved exactly, and measured work and span may only improve
//! on plans that complete — on closed *and* open queries:
//! `tests/optimizer_differential.rs`
//! (`corpus_values_are_invariant_and_work_only_improves`) pins both with the
//! optimizer on vs off over the closed corpus and an open pack over a bound
//! 10 000-row relation, kernels on and off, on every backend. One behaviour
//! is deliberately *not* preserved: a plan that exceeds a session limit may
//! fail at a different (still spanned) node than the raw plan.

use crate::analysis::free_vars;
use crate::analyze::{analyze_query, CostBound, QueryAnalysis};
use crate::eval::{EvalConfig, Evaluator};
use crate::expr::{Expr, ExprKind};
use crate::span::Span;
use ncql_object::{Type, Value};

/// How hard `Session::prepare` tries to optimize a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// No rewriting: the prepared plan is the raw typed AST.
    None,
    /// The cost-gated rule set (the default).
    #[default]
    Default,
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptLevel::None => write!(f, "none"),
            OptLevel::Default => write!(f, "default"),
        }
    }
}

/// One accepted rewrite, for `:optimize`-style reporting.
#[derive(Debug, Clone)]
pub struct FiredRewrite {
    /// The rule that fired: `"const-fold"` or `"ext-fusion"`.
    pub rule: &'static str,
    /// Human-readable description of the rewritten site.
    pub description: String,
    /// Source span of the replaced node, when it had one.
    pub span: Option<Span>,
}

/// The result of running [`optimize`] on one query.
#[derive(Debug, Clone)]
pub struct RewriteOutcome {
    /// The rewritten expression (the input, unchanged, when nothing fired).
    pub expr: Expr,
    /// Every accepted rewrite, in firing order.
    pub fired: Vec<FiredRewrite>,
    /// The cost bounds of the *input* expression.
    pub cost_before: CostBound,
    /// The full analysis of the *rewritten* expression — reusable by the
    /// caller, so optimizing does not force a third `analyze_query` pass.
    pub analysis: QueryAnalysis,
}

/// Work budget for prepare-time constant folding, per text: the pass stops
/// folding once its fold attempts have evaluated this many work units.
const FOLD_WORK_BUDGET: u64 = 4096;
/// Cardinality budget for folded intermediate sets.
const FOLD_SET_BUDGET: usize = 1024;
/// Minimum node count before a closed subtree is worth folding.
const FOLD_MIN_SIZE: usize = 2;

/// Run the cost-gated rewrite pass on one query. `schema` and `config` must
/// match what the plan will execute under: the schema feeds the symbolic
/// cost gate, and the config's registry and limits drive constant folding
/// (folding never exceeds the session's own `max_work` / `max_set_size`, so
/// a subtree that would trip a limit at runtime is left in the plan to trip
/// it there).
pub fn optimize(expr: &Expr, schema: &[(String, Type)], config: &EvalConfig) -> RewriteOutcome {
    let before = analyze_query(expr, schema, &config.registry);
    optimize_analyzed(expr, schema, config, before)
}

/// [`optimize`], reusing an already-computed analysis of `expr`.
pub fn optimize_analyzed(
    expr: &Expr,
    schema: &[(String, Type)],
    config: &EvalConfig,
    before: QueryAnalysis,
) -> RewriteOutcome {
    let mut pass = Pass {
        fold: EvalConfig {
            max_work: config.max_work.min(FOLD_WORK_BUDGET),
            max_set_size: config.max_set_size.min(FOLD_SET_BUDGET),
            parallelism: None,
            // Same values and statistics either way; within the fold budget
            // a survey of each candidate would cost more than it saves.
            kernels: false,
            ..config.clone()
        },
        fired: Vec::new(),
        scope: Vec::new(),
    };
    let cost_before = before.cost.clone();
    if let Some(rewritten) = pass.visit(expr).expr {
        // The gate: both bounds of the whole rewritten plan provably no
        // worse. Incompleteness of `le_pointwise` only ever refuses a plan.
        let analysis = analyze_query(&rewritten, schema, &config.registry);
        if analysis.cost.work.le_pointwise(&cost_before.work)
            && analysis.cost.span.le_pointwise(&cost_before.span)
        {
            return RewriteOutcome {
                expr: rewritten,
                fired: pass.fired,
                cost_before,
                analysis,
            };
        }
    }
    RewriteOutcome {
        expr: expr.clone(),
        fired: Vec::new(),
        cost_before,
        analysis: before,
    }
}

/// The state of one pass over one text.
struct Pass<'a> {
    /// The sequential configuration constant folding evaluates under. Its
    /// `max_work` is the part of [`FOLD_WORK_BUDGET`] not yet spent.
    fold: EvalConfig,
    fired: Vec<FiredRewrite>,
    /// The binders in scope at the node being visited, innermost last.
    scope: Vec<&'a str>,
}

/// What a visited subtree reports to its parent.
struct Visited {
    /// The rewritten subtree; `None` when nothing in it fired.
    expr: Option<Expr>,
    /// Node count of the subtree as written.
    size: usize,
    /// The outermost thing the subtree refers to: 0 for a schema relation,
    /// `i + 1` for the binder at `scope[i]`, `usize::MAX` for nothing. A
    /// subtree visited under `d` binders is closed iff this exceeds `d`.
    outermost: usize,
}

impl<'a> Pass<'a> {
    fn visit(&mut self, expr: &'a Expr) -> Visited {
        let depth = self.scope.len();
        let fired_before = self.fired.len();
        let mut size = 1;
        let mut outermost = match &expr.kind {
            ExprKind::Var(x) => self.scope.iter().rposition(|b| b == x).map_or(0, |i| i + 1),
            _ => usize::MAX,
        };
        let children = expr.children();
        let mut rewritten = Vec::with_capacity(children.len());
        for child in &children {
            self.scope.extend(child.binds);
            let visited = self.visit(child.expr);
            self.scope.truncate(depth);
            size += visited.size;
            outermost = outermost.min(visited.outermost);
            rewritten.push(visited.expr);
        }
        // Rebuilding keeps the node's span, binders and type annotations.
        let rebuilt = rewritten.iter().any(Option::is_some).then(|| {
            let with = rewritten.into_iter().zip(&children);
            expr.with_children(
                with.map(|(new, old)| new.unwrap_or_else(|| old.expr.clone()))
                    .collect(),
            )
        });
        let node = rebuilt.as_ref().unwrap_or(expr);
        let mut replaced = None;
        if outermost > depth && !is_literal(node) && size >= FOLD_MIN_SIZE {
            replaced = self.const_fold(node, size, fired_before);
        }
        Visited {
            expr: replaced.or_else(|| self.ext_fusion(node)).or(rebuilt),
            size,
            outermost,
        }
    }

    /// Rule 1: evaluate a closed node within what is left of the budget, and
    /// charge the budget whatever the attempt evaluated. A fold subsumes the
    /// rewrites fired below it (those after `fired_before`), so a maximal
    /// closed subtree reports once, with its `size` as written.
    fn const_fold(&mut self, expr: &Expr, size: usize, fired_before: usize) -> Option<Expr> {
        if self.fold.max_work == 0 {
            return None;
        }
        let mut evaluator = Evaluator::new(self.fold.clone());
        let value = evaluator.eval_closed(expr);
        self.fold.max_work = self.fold.max_work.saturating_sub(evaluator.stats().work);
        let kind = match value.ok()? {
            Value::Bool(b) => ExprKind::Bool(b),
            v => ExprKind::Const(v),
        };
        // The constant and its record take the folded subtree's span.
        let span = expr.span;
        self.fired.truncate(fired_before);
        self.fired.push(FiredRewrite {
            rule: "const-fold",
            description: format!("folded a closed subexpression of {size} nodes to a constant"),
            span,
        });
        Some(Expr { kind, span })
    }

    /// Rule 2: `ext(f, ext(λx. {h}, s))  ⇒  ext(λx. let y = h in body_f, s)`.
    fn ext_fusion(&mut self, expr: &Expr) -> Option<Expr> {
        let ExprKind::Ext(f, inner) = &expr.kind else {
            return None;
        };
        let ExprKind::Ext(g, s) = &inner.kind else {
            return None;
        };
        let ExprKind::Lam(x, tx, gbody) = &g.kind else {
            return None;
        };
        let ExprKind::Singleton(h) = &gbody.kind else {
            return None;
        };
        let ExprKind::Lam(y, _, fbody) = &f.kind else {
            return None;
        };
        if !injective_in(h, x) || free_vars(f).contains(x.as_str()) {
            return None;
        }
        // The fused map takes the outer ext's span; the new λ and `let` take
        // the outer function's span; `h` and `body_f` keep their own spans.
        let mut let_body = Expr::let_in(y.clone(), (**h).clone(), (**fbody).clone());
        let_body.span = f.span;
        let mut fused = Expr::lam(x.clone(), tx.clone(), let_body);
        fused.span = f.span;
        let mut out = Expr::ext(fused, (**s).clone());
        out.span = expr.span;
        self.fired.push(FiredRewrite {
            rule: "ext-fusion",
            description: format!("fused nested ext maps (eliminated the `{x}` intermediate set)"),
            span: expr.span,
        });
        Some(out)
    }
}

/// Is this node already a value-like literal the folder should leave alone?
fn is_literal(expr: &Expr) -> bool {
    matches!(
        expr.kind,
        ExprKind::Var(_)
            | ExprKind::Lam(..)
            | ExprKind::Unit
            | ExprKind::Bool(_)
            | ExprKind::Const(_)
            | ExprKind::Empty(_)
    )
}

/// Is `h` syntactically injective as a function of `x`? Distinct inputs are
/// then guaranteed distinct outputs, so fusing away the intermediate set
/// cannot multiply the outer map's applications (the work-only-improves
/// argument; the *value* is preserved by union idempotence either way).
fn injective_in(h: &Expr, x: &str) -> bool {
    match &h.kind {
        ExprKind::Var(v) => v == x,
        ExprKind::Pair(a, b) => injective_in(a, x) || injective_in(b, x),
        ExprKind::Singleton(a) => injective_in(a, x),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_closed;

    fn cfg() -> EvalConfig {
        EvalConfig::default()
    }

    fn opt(e: &Expr) -> RewriteOutcome {
        optimize(e, &[], &cfg())
    }

    #[test]
    fn folds_a_closed_union_to_a_constant() {
        let e = Expr::union(
            Expr::singleton(Expr::atom(1)),
            Expr::singleton(Expr::atom(2)),
        );
        let out = opt(&e);
        assert!(matches!(out.expr.kind, ExprKind::Const(_)));
        assert!(out.fired.iter().any(|f| f.rule == "const-fold"));
        assert_eq!(eval_closed(&out.expr).unwrap(), eval_closed(&e).unwrap());
    }

    #[test]
    fn folding_keeps_the_folded_subtrees_span() {
        let span = Span::new(3, 9);
        let e = Expr::union(
            Expr::singleton(Expr::atom(1)),
            Expr::singleton(Expr::atom(2)),
        )
        .at(span);
        let out = opt(&e);
        assert_eq!(out.expr.span, Some(span));
    }

    #[test]
    fn does_not_fold_open_expressions() {
        let e = Expr::union(Expr::var("r"), Expr::singleton(Expr::atom(1)));
        let schema = vec![("r".to_string(), Type::set(Type::Base))];
        let out = optimize(&e, &schema, &cfg());
        // The open union survives; only the closed singleton folds.
        assert!(matches!(out.expr.kind, ExprKind::Union(..)));
    }

    #[test]
    fn fuses_nested_injective_ext_maps() {
        // ext(λy. {y}, ext(λx. {(x, x)}, s)) over a literal set.
        let s = Expr::union(
            Expr::singleton(Expr::atom(1)),
            Expr::singleton(Expr::atom(2)),
        );
        let inner = Expr::ext(
            Expr::lam(
                "x",
                Type::Base,
                Expr::singleton(Expr::pair(Expr::var("x"), Expr::var("x"))),
            ),
            Expr::var("s"),
        );
        let outer = Expr::ext(
            Expr::lam(
                "y",
                Type::prod(Type::Base, Type::Base),
                Expr::singleton(Expr::proj1(Expr::var("y"))),
            ),
            inner,
        );
        let schema = vec![("s".to_string(), Type::set(Type::Base))];
        let out = optimize(&outer, &schema, &cfg());
        assert!(
            out.fired.iter().any(|f| f.rule == "ext-fusion"),
            "fired: {:?}",
            out.fired
        );
        // Differential check on a concrete s.
        let bindings = |e: &Expr| Expr::let_in("s", s.clone(), e.clone());
        assert_eq!(
            eval_closed(&bindings(&out.expr)).unwrap(),
            eval_closed(&bindings(&outer)).unwrap()
        );
    }

    #[test]
    fn fusion_skips_non_injective_inner_maps() {
        // Inner map collapses everything to one atom — not injective.
        let inner = Expr::ext(
            Expr::lam("x", Type::Base, Expr::singleton(Expr::atom(7))),
            Expr::var("s"),
        );
        let outer = Expr::ext(
            Expr::lam("y", Type::Base, Expr::singleton(Expr::var("y"))),
            inner,
        );
        let schema = vec![("s".to_string(), Type::set(Type::Base))];
        let out = optimize(&outer, &schema, &cfg());
        assert!(out.fired.iter().all(|f| f.rule != "ext-fusion"));
    }

    #[test]
    fn optimize_is_idempotent_on_its_own_output() {
        let e = Expr::union(
            Expr::singleton(Expr::atom(1)),
            Expr::singleton(Expr::atom(2)),
        );
        let once = opt(&e);
        let twice = opt(&once.expr);
        assert_eq!(once.expr, twice.expr);
        assert!(twice.fired.is_empty(), "fired again: {:?}", twice.fired);
    }
}
