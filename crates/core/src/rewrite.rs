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
//! node counts are the facts [`crate::resolve`] recorded. Folding
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
//! The rewritten plan is resolved once and its cost alone is analysed once
//! ([`Resolved::cost`]: the findings describe the text as written, so its
//! lints are not run again), and the plan is kept only when its symbolic
//! **work** bound and **span** bound are *provably* `≤` the raw plan's
//! ([`crate::analyze::Bound::le_pointwise`] — a sound, incomplete check, so a
//! plan the model cannot justify is refused whole and the raw plan executes).
//! This is the paper-facing invariant: optimization never weakens a plan's
//! work/span guarantee. An accepted plan is handed on with that resolution
//! and cost ([`Rewritten`]): nothing is copied or resolved again.
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

use crate::analysis::{free_vars, is_literal};
use crate::analyze::{CostBound, QueryAnalysis};
use crate::eval::{EvalConfig, Evaluator};
use crate::expr::{Expr, ExprKind, Slot};
use crate::resolve::{resolve, Facts, Resolved};
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
    /// The plan that executes, resolved: the rewritten one, or the input.
    pub expr: Expr,
    /// Every accepted rewrite, in firing order.
    pub fired: Vec<FiredRewrite>,
}

/// Work budget for prepare-time constant folding, per text: the pass stops
/// folding once its fold attempts have evaluated this many work units.
const FOLD_WORK_BUDGET: u64 = 4096;
/// Cardinality budget for folded intermediate sets.
const FOLD_SET_BUDGET: usize = 1024;
/// Minimum node count before a closed subtree is worth folding.
const FOLD_MIN_SIZE: usize = 2;

/// An accepted rewrite of a resolved plan.
#[derive(Debug)]
pub struct Rewritten {
    /// The rewritten plan: the resolution the cost gate analysed.
    pub plan: Resolved<'static>,
    /// Every accepted rewrite, in firing order.
    pub fired: Vec<FiredRewrite>,
    /// The cost bounds of `plan`.
    pub cost: CostBound,
}

/// Run the cost-gated rewrite pass on one query. `schema` and `config` must
/// match what the plan will execute under: the schema feeds the symbolic
/// cost gate, and the config's registry and limits drive constant folding
/// (folding never exceeds the session's own `max_work` / `max_set_size`, so
/// a subtree that would trip a limit at runtime is left in the plan to trip
/// it there).
pub fn optimize(expr: &Expr, schema: &[(String, Type)], config: &EvalConfig) -> RewriteOutcome {
    let plan = resolve(expr);
    let cost = plan.cost(schema, &config.registry);
    outcome(plan.optimize(schema, config, &cost), plan)
}

/// [`optimize`], reusing an already-computed analysis of `expr` (its cost).
pub fn optimize_analyzed(
    expr: &Expr,
    schema: &[(String, Type)],
    config: &EvalConfig,
    before: QueryAnalysis,
) -> RewriteOutcome {
    let plan = resolve(expr);
    outcome(plan.optimize(schema, config, &before.cost), plan)
}

/// A plan and what [`Resolved::optimize`] made of it, as a [`RewriteOutcome`].
fn outcome(rewritten: Option<Rewritten>, plan: Resolved) -> RewriteOutcome {
    let (expr, fired) = rewritten.map_or((plan.expr, Vec::new()), |r| (r.plan.expr, r.fired));
    let expr = expr.into_owned();
    RewriteOutcome { expr, fired }
}

impl Resolved<'_> {
    /// The cost-gated rewrite of a resolved plan whose cost bounds are
    /// `cost_before` (see [`optimize`]); `None` when nothing was accepted —
    /// no rule fired, or the gate refused — and the plan executes as it is.
    pub fn optimize(
        &self,
        schema: &[(String, Type)],
        config: &EvalConfig,
        cost_before: &CostBound,
    ) -> Option<Rewritten> {
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
        };
        // Ext-fusion moves bodies under a new binder: the rewritten tree is
        // resolved, once. The gate: both bounds of the whole rewritten plan
        // provably no worse (`le_pointwise` is incomplete: it only refuses).
        let plan = resolve(pass.visit(&self.expr, &self.facts, 0)?);
        let cost = plan.cost(schema, &config.registry);
        let accepted =
            cost.work.le_pointwise(&cost_before.work) && cost.span.le_pointwise(&cost_before.span);
        let fired = pass.fired;
        accepted.then_some(Rewritten { plan, fired, cost })
    }
}

/// The state of one pass over one resolved text.
struct Pass {
    /// The sequential configuration constant folding evaluates under. Its
    /// `max_work` is the part of [`FOLD_WORK_BUDGET`] not yet spent.
    fold: EvalConfig,
    fired: Vec<FiredRewrite>,
}

impl Pass {
    /// The rewritten `expr`, whose facts are `facts[at]`; `None` when
    /// nothing in it fired.
    fn visit(&mut self, expr: &Expr, facts: &[Facts], at: usize) -> Option<Expr> {
        let fired_before = self.fired.len();
        let children = expr.children();
        let mut rewritten = Vec::with_capacity(children.len());
        let mut next = at + 1;
        for child in &children {
            rewritten.push(self.visit(child.expr, facts, next));
            next += facts[next].size;
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
        let (here, mut replaced) = (&facts[at], None);
        if here.closed && !is_literal(node) && here.size >= FOLD_MIN_SIZE {
            replaced = self.const_fold(node, here.size, fired_before);
        }
        replaced.or_else(|| self.ext_fusion(node)).or(rebuilt)
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
        if !injective_in(h) || free_vars(f).contains(x.as_str()) {
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

/// Is `h`, the body of `λx. {h}`, syntactically injective as a function of
/// `x`? Distinct inputs are then guaranteed distinct outputs, so fusing away
/// the intermediate set cannot multiply the outer map's applications (the
/// work-only-improves argument; the *value* is preserved by union
/// idempotence either way).
fn injective_in(h: &Expr) -> bool {
    match &h.kind {
        ExprKind::Var(v) => v.slot == Slot::Bound(0),
        ExprKind::Pair(a, b) => injective_in(a) || injective_in(b),
        ExprKind::Singleton(a) => injective_in(a),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_closed;
    use std::borrow::Cow;

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
        // `fusable()` over a literal set.
        let s = Expr::union(
            Expr::singleton(Expr::atom(1)),
            Expr::singleton(Expr::atom(2)),
        );
        let outer = fusable();
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

    /// `ext(λy. {π₁ y}, ext(λx. {(x, x)}, s))`: ext-fusion moves the outer
    /// body under the inner binder, so its slots change.
    fn fusable() -> Expr {
        let inner = Expr::ext(
            Expr::lam(
                "x",
                Type::Base,
                Expr::singleton(Expr::pair(Expr::var("x"), Expr::var("x"))),
            ),
            Expr::var("s"),
        );
        Expr::ext(
            Expr::lam(
                "y",
                Type::prod(Type::Base, Type::Base),
                Expr::singleton(Expr::proj1(Expr::var("y"))),
            ),
            inner,
        )
    }

    #[test]
    fn an_accepted_rewrite_is_handed_on_resolved_and_nothing_else_is() {
        let (config, schema) = (cfg(), [("s".to_string(), Type::set(Type::Base))]);
        let cost = |plan: &Resolved| plan.cost(&schema, &config.registry);
        // Nothing fires on an open map of a relation.
        let plain = resolve(Expr::ext(
            Expr::lam("x", Type::Base, Expr::singleton(Expr::var("x"))),
            Expr::var("s"),
        ));
        assert!(plain.optimize(&schema, &config, &cost(&plain)).is_none());
        // Fusion fires, and its plan is current: resolving it again borrows
        // it, and the cost handed on is that plan's.
        let raw = resolve(fusable());
        let r = raw
            .optimize(&schema, &config, &cost(&raw))
            .expect("fusion is accepted");
        assert_eq!(r.fired.len(), 1);
        assert!(matches!(resolve(&*r.plan.expr).expr, Cow::Borrowed(_)));
        assert_eq!(r.cost, cost(&r.plan));
        // The gate refuses a rewrite it cannot prove no worse than the bound
        // it is given: here a constant's, below the fused map's.
        let constant = cost(&resolve(Expr::atom(1)));
        assert!(raw.optimize(&schema, &config, &constant).is_none());
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
