//! The algebraic optimizer: a fixpoint rewrite engine over [`Expr`], run by
//! the engine between typecheck and the plan cache.
//!
//! Four semantics-preserving rules, in firing order:
//!
//! 1. **Constant folding** — a closed, non-literal subexpression whose
//!    evaluation completes within a small prepare-time budget is replaced by
//!    its value. Subtrees whose evaluation *errors* under the budget are left
//!    alone, so limit-hitting plans keep their runtime behaviour.
//! 2. **Ext-fusion** (map fusion) — `ext(f, ext(λx. {h}, s))` becomes
//!    `ext(λx. let y = h in body_f, s)` when `h` is syntactically injective
//!    in `x`, eliminating the intermediate set.
//! 3. **Filter pushdown** — `dcr/sru(e, f, u)(ext(λx. if c then {x} else ∅, s))`
//!    becomes `dcr/sru(e, λx. if c then f(x) else e, u)(s)`, leaning on the
//!    recursor's well-formedness precondition that `e` is `u`'s identity.
//! 4. **Common-subexpression hoisting** — a repeated subexpression in the
//!    *unconditional* part of a recursor's iterated arm (the combiner of a
//!    `dcr`/`sru`, the insert step of an `sri`/`esr`, the body of a
//!    `loop`/`log-loop`) is bound once in a `let` above the recursor when the
//!    argument's syntactic cardinality guarantees the arm runs often enough
//!    to pay for the binding.
//!
//! # The cost gate
//!
//! Every candidate rewrite is gated by the static cost model: the whole
//! query is re-analysed ([`analyze_query`]) and the rewrite fires only when
//! the new symbolic **work** bound and **span** bound are *provably* `≤` the
//! old ones ([`crate::analyze::Bound::le_pointwise`] — a sound, incomplete check, so a
//! rewrite the model cannot justify is simply skipped). This is the
//! paper-facing invariant: optimization never weakens a plan's work/span
//! guarantee.
//!
//! # Spans survive rewrites
//!
//! Rebuilt nodes inherit the span of the node they replace — a fused map
//! takes the outer `ext`'s span, a folded constant takes the folded
//! subtree's span, a hoisted binding takes the recursor's span — so runtime
//! errors raised inside optimized regions still render caret diagnostics
//! against the original source text.
//!
//! # What the optimizer may change
//!
//! Values are preserved exactly (the differential suites pin this with the
//! optimizer on vs off, on both backends). Measured cost may only improve on
//! plans that complete. Two behaviours are deliberately *not* preserved:
//! a plan that exceeds a session limit may fail at a different (still
//! spanned) node than the raw plan, and hoisting may surface an evaluation
//! error earlier than the raw left-to-right order would have.

use crate::analysis::free_vars;
use crate::analyze::{analyze_query, CostBound, QueryAnalysis};
use crate::eval::{log_rounds, EvalConfig, Evaluator};
use crate::expr::{fresh_var, Expr, ExprKind, Form, UnionForm};
use crate::span::Span;
use ncql_object::{Type, Value};
use std::collections::BTreeSet;

/// How hard `Session::prepare` tries to optimize a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// No rewriting: the prepared plan is the raw typed AST.
    None,
    /// The full cost-gated rule set (the default).
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
    /// The rule that fired: `"const-fold"`, `"ext-fusion"`,
    /// `"filter-pushdown"`, or `"cse-hoist"`.
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

/// Fixpoint passes over the rule list before giving up.
const MAX_PASSES: usize = 8;
/// Hard cap on accepted rewrites per query.
const MAX_FIRES: usize = 64;
/// Hard cap on cost-gate evaluations per query (each one re-analyses the
/// whole candidate).
const MAX_GATE_EVALS: usize = 256;
/// Work budget for prepare-time constant folding: a closed subtree more
/// expensive than this stays in the plan.
const FOLD_WORK_BUDGET: u64 = 4096;
/// Cardinality budget for folded intermediate sets.
const FOLD_SET_BUDGET: usize = 1024;
/// Minimum node count before a closed subtree is worth folding.
const FOLD_MIN_SIZE: usize = 2;
/// Minimum node count before a repeated subexpression is worth hoisting.
const CSE_MIN_SIZE: usize = 6;

/// Run the cost-gated fixpoint rewriter on one query. `schema` and
/// `config` must match what the plan will execute under: the schema feeds
/// the symbolic cost gate, and the config's registry and limits drive
/// constant folding (folding never exceeds the session's own `max_work` /
/// `max_set_size`, so a subtree that would trip a limit at runtime is left
/// in the plan to trip it there).
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
    let cost_before = before.cost.clone();
    let mut current = expr.clone();
    let mut current_analysis = before;
    let mut fired: Vec<FiredRewrite> = Vec::new();
    let mut gate_evals = 0usize;

    let fold_config = fold_config(config);

    'passes: for _ in 0..MAX_PASSES {
        let mut fired_this_pass = false;
        for rule in [
            Rule::ConstFold,
            Rule::ExtFusion,
            Rule::FilterPushdown,
            Rule::CseHoist,
        ] {
            // Walk the candidate sites for this rule left to right; `skip`
            // counts sites the cost gate has already rejected in this sweep.
            let mut skip = 0usize;
            loop {
                if fired.len() >= MAX_FIRES || gate_evals >= MAX_GATE_EVALS {
                    break 'passes;
                }
                let mut remaining = skip;
                let Some(hit) = rewrite_nth(&current, &mut remaining, &mut |e| {
                    rule.try_rewrite(e, &fold_config)
                }) else {
                    break;
                };
                gate_evals += 1;
                let after = analyze_query(&hit.expr, schema, &config.registry);
                if gate_accepts(&current_analysis.cost, &after.cost) {
                    current = hit.expr;
                    current_analysis = after;
                    fired.push(FiredRewrite {
                        rule: rule.name(),
                        description: hit.description,
                        span: hit.site_span,
                    });
                    fired_this_pass = true;
                    skip = 0;
                } else {
                    skip += 1;
                }
            }
        }
        if !fired_this_pass {
            break;
        }
    }

    RewriteOutcome {
        expr: current,
        fired,
        cost_before,
        analysis: current_analysis,
    }
}

/// The gate: both bounds provably no worse. Incompleteness of
/// `le_pointwise` only ever suppresses a rewrite.
fn gate_accepts(before: &CostBound, after: &CostBound) -> bool {
    after.work.le_pointwise(&before.work) && after.span.le_pointwise(&before.span)
}

/// The sequential, budget-capped configuration constant folding runs under.
fn fold_config(config: &EvalConfig) -> EvalConfig {
    let mut fold = config.clone();
    fold.max_work = config.max_work.min(FOLD_WORK_BUDGET);
    fold.max_set_size = config.max_set_size.min(FOLD_SET_BUDGET);
    fold.parallelism = None;
    fold
}

/// A whole-tree rewrite produced by one rule at one site.
struct Hit {
    expr: Expr,
    description: String,
    site_span: Option<Span>,
}

/// A node-local rewrite: the replacement subtree plus a description.
struct LocalHit {
    replacement: Expr,
    description: String,
}

/// Pre-order search for the `skip`-th site where `rule` matches; on a match,
/// rebuilds the ancestor spine with [`Expr::with_children`] (which preserves
/// every ancestor's span, binders, and type annotations).
fn rewrite_nth(
    expr: &Expr,
    skip: &mut usize,
    rule: &mut impl FnMut(&Expr) -> Option<LocalHit>,
) -> Option<Hit> {
    if let Some(local) = rule(expr) {
        if *skip == 0 {
            return Some(Hit {
                expr: local.replacement,
                description: local.description,
                site_span: expr.span,
            });
        }
        *skip -= 1;
    }
    let children = expr.children();
    for (idx, child) in children.iter().enumerate() {
        if let Some(hit) = rewrite_nth(child.expr, skip, rule) {
            let mut rebuilt: Vec<Expr> = children.iter().map(|c| c.expr.clone()).collect();
            rebuilt[idx] = hit.expr;
            return Some(Hit {
                expr: expr.with_children(rebuilt),
                description: hit.description,
                site_span: hit.site_span,
            });
        }
    }
    None
}

#[derive(Clone, Copy)]
enum Rule {
    ConstFold,
    ExtFusion,
    FilterPushdown,
    CseHoist,
}

impl Rule {
    fn name(self) -> &'static str {
        match self {
            Rule::ConstFold => "const-fold",
            Rule::ExtFusion => "ext-fusion",
            Rule::FilterPushdown => "filter-pushdown",
            Rule::CseHoist => "cse-hoist",
        }
    }

    fn try_rewrite(self, expr: &Expr, fold_config: &EvalConfig) -> Option<LocalHit> {
        match self {
            Rule::ConstFold => const_fold(expr, fold_config),
            Rule::ExtFusion => ext_fusion(expr),
            Rule::FilterPushdown => filter_pushdown(expr),
            Rule::CseHoist => cse_hoist(expr),
        }
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

// ---------------------------------------------------------------------------
// Rule 1: constant folding
// ---------------------------------------------------------------------------

fn const_fold(expr: &Expr, fold_config: &EvalConfig) -> Option<LocalHit> {
    if is_literal(expr) || expr.size() < FOLD_MIN_SIZE || !free_vars(expr).is_empty() {
        return None;
    }
    let mut evaluator = Evaluator::new(fold_config.clone());
    let value = evaluator.eval_closed(expr).ok()?;
    // Folded constants take the folded subtree's span.
    let kind = match value {
        Value::Bool(b) => ExprKind::Bool(b),
        v => ExprKind::Const(v),
    };
    let size = expr.size();
    Some(LocalHit {
        replacement: Expr {
            kind,
            span: expr.span,
        },
        description: format!("folded a closed subexpression of {size} nodes to a constant"),
    })
}

// ---------------------------------------------------------------------------
// Rule 2: ext-fusion
// ---------------------------------------------------------------------------

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

fn ext_fusion(expr: &Expr) -> Option<LocalHit> {
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
    // ext(f, ext(λx. {h}, s))  ⇒  ext(λx. let y = h in body_f, s).
    // The fused map takes the outer ext's span; the new λ and `let` take the
    // outer function's span; `h` and `body_f` keep their own spans.
    let mut let_body = Expr::let_in(y.clone(), (**h).clone(), (**fbody).clone());
    let_body.span = f.span;
    let mut fused = Expr::lam(x.clone(), tx.clone(), let_body);
    fused.span = f.span;
    let mut out = Expr::ext(fused, (**s).clone());
    out.span = expr.span;
    Some(LocalHit {
        replacement: out,
        description: format!("fused nested ext maps (eliminated the `{x}` intermediate set)"),
    })
}

// ---------------------------------------------------------------------------
// Rule 3: filter pushdown
// ---------------------------------------------------------------------------

/// Statically-empty check local to the pushdown rule: the rejected branch of
/// a filter must contribute nothing.
fn is_empty_branch(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Empty(_) => true,
        ExprKind::Const(Value::Set(s)) => s.is_empty(),
        _ => false,
    }
}

fn filter_pushdown(expr: &Expr) -> Option<LocalHit> {
    let ExprKind::UnionRec {
        form: form @ (UnionForm::Dcr | UnionForm::Sru),
        e,
        f,
        u,
        arg,
    } = &expr.kind
    else {
        return None;
    };
    // The neutral element must be a size-1 literal: it is re-evaluated once
    // per rejected element, so it has to be cheap and error-free.
    if !is_literal(e) || matches!(e.kind, ExprKind::Lam(..) | ExprKind::Var(_)) {
        return None;
    }
    let ExprKind::Ext(p, s) = &arg.kind else {
        return None;
    };
    let ExprKind::Lam(x, tx, pbody) = &p.kind else {
        return None;
    };
    let ExprKind::If(cond, then_b, else_b) = &pbody.kind else {
        return None;
    };
    let ExprKind::Singleton(keep) = &then_b.kind else {
        return None;
    };
    if !matches!(&keep.kind, ExprKind::Var(v) if v == x) || !is_empty_branch(else_b) {
        return None;
    }
    let ExprKind::Lam(y, _, fbody) = &f.kind else {
        return None;
    };
    if free_vars(f).contains(x.as_str()) {
        return None;
    }
    // dcr(e, f, u)(ext(λx. if c then {x} else ∅, s))
    //   ⇒ dcr(e, λx. if c then (let y = x in body_f) else e, u)(s)
    // sound because the recursor's well-formedness precondition makes `e`
    // the identity of `u`, so rejected elements contribute nothing to the
    // combining tree. The new λ and `let` take the old leaf function's span;
    // the `if` keeps the filter body's span.
    let mut kept = Expr::let_in(y.clone(), (**keep).clone(), (**fbody).clone());
    kept.span = f.span;
    let mut body = Expr::ite((**cond).clone(), kept, (**e).clone());
    body.span = pbody.span;
    let mut leaf = Expr::lam(x.clone(), tx.clone(), body);
    leaf.span = f.span;
    Some(LocalHit {
        replacement: expr.with_children(vec![(**e).clone(), leaf, (**u).clone(), (**s).clone()]),
        description: format!("pushed the `{x}` filter into the {} leaf body", form.name()),
    })
}

// ---------------------------------------------------------------------------
// Rule 4: common-subexpression hoisting
// ---------------------------------------------------------------------------

/// A guaranteed lower bound on the runtime cardinality of a set expression,
/// from syntax alone: literal sets are exact, a union is at least as big as
/// either side, everything else is 0.
fn syntactic_min_card(e: &Expr) -> u64 {
    match &e.kind {
        ExprKind::Const(Value::Set(s)) => s.len() as u64,
        ExprKind::Singleton(_) => 1,
        ExprKind::Union(a, b) => syntactic_min_card(a).max(syntactic_min_card(b)),
        _ => 0,
    }
}

/// How many times is the iterated arm guaranteed to run, given the
/// argument's guaranteed minimum cardinality?
fn min_applications(kind: &ExprKind, min_card: u64) -> u64 {
    match kind {
        // The combining tree over m leaves makes m − 1 combiner calls.
        ExprKind::UnionRec { .. } => min_card.saturating_sub(1),
        // One insert step per (distinct) element.
        ExprKind::InsertRec { .. } => min_card,
        // One application per logarithmic round / per element.
        ExprKind::Iter { form, .. } if form.is_log() => log_rounds(min_card as usize),
        ExprKind::Iter { .. } => min_card,
        _ => 0,
    }
}

/// The set argument whose cardinality drives the iterated arm.
fn iterated_arg(kind: &ExprKind) -> Option<&Expr> {
    match kind {
        ExprKind::UnionRec { arg, .. } | ExprKind::InsertRec { arg, .. } => Some(arg),
        ExprKind::Iter { set, .. } => Some(set),
        _ => None,
    }
}

/// Search the unconditional spine of an iterated arm for a subexpression
/// worth hoisting: at least [`CSE_MIN_SIZE`] nodes, not a literal, and with
/// no free variable bound between the arm root and the occurrence (so the
/// hoisted `let` sees the same environment). "Unconditional" stops at `if`
/// branches and at any λ-body below the arm's own binder — positions that
/// may never run.
fn find_hoistable(arm: &Expr) -> Option<Expr> {
    fn search(e: &Expr, binders: &mut Vec<String>, root: bool) -> Option<Expr> {
        if !root
            && !is_literal(e)
            && e.size() >= CSE_MIN_SIZE
            && free_vars(e).iter().all(|v| !binders.contains(v))
        {
            return Some(e.clone());
        }
        match &e.kind {
            ExprKind::Lam(x, _, body) if root => {
                binders.push(x.clone());
                let found = search(body, binders, false);
                binders.pop();
                found
            }
            // A λ below the arm root is a value; its body may never run.
            ExprKind::Lam(..) => None,
            ExprKind::Let(x, rhs, body) => {
                if let Some(found) = search(rhs, binders, false) {
                    return Some(found);
                }
                binders.push(x.clone());
                let found = search(body, binders, false);
                binders.pop();
                found
            }
            // Only the condition of an `if` is unconditionally evaluated.
            ExprKind::If(c, _, _) => search(c, binders, false),
            _ => {
                for child in e.children() {
                    debug_assert!(child.binds.is_none(), "binding shapes handled above");
                    if let Some(found) = search(child.expr, binders, false) {
                        return Some(found);
                    }
                }
                None
            }
        }
    }
    search(arm, &mut Vec::new(), true)
}

/// Replace every occurrence of `sub` (structural equality) with a reference
/// to `var`, skipping scopes whose binder shadows one of `sub`'s free
/// variables. Each replacement keeps the occurrence's own span.
fn replace_equal(e: &Expr, sub: &Expr, var: &str, sub_free: &BTreeSet<String>) -> Expr {
    if e == sub {
        return Expr {
            kind: ExprKind::Var(var.to_string()),
            span: e.span,
        };
    }
    let children = e.children();
    if children.is_empty() {
        return e.clone();
    }
    let rebuilt: Vec<Expr> = children
        .iter()
        .map(|c| {
            if c.binds.is_some_and(|b| sub_free.contains(b)) {
                c.expr.clone()
            } else {
                replace_equal(c.expr, sub, var, sub_free)
            }
        })
        .collect();
    e.with_children(rebuilt)
}

fn cse_hoist(expr: &Expr) -> Option<LocalHit> {
    let arg = iterated_arg(&expr.kind)?;
    let min_card = syntactic_min_card(arg);
    if min_applications(&expr.kind, min_card) < 2 {
        return None;
    }
    let sub = expr
        .children()
        .into_iter()
        .filter(|c| c.iterated)
        .find_map(|c| find_hoistable(c.expr))?;
    let sub_free: BTreeSet<String> = free_vars(&sub);
    let name = fresh_var("cse");
    let replaced = replace_equal(expr, &sub, &name, &sub_free);
    // The hoisted `let` takes the recursor's span; the bound subexpression
    // keeps its own spans.
    let mut out = Expr::let_in(name, sub.clone(), replaced);
    out.span = expr.span;
    Some(LocalHit {
        replacement: out,
        description: format!(
            "hoisted a repeated {}-node subexpression out of the iterated arm",
            sub.size()
        ),
    })
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
    fn pushes_a_filter_into_the_dcr_leaf() {
        // dcr(∅, λv. {v}, λp. π₁p ∪ π₂p)(ext(λx. if x ≤ @1 then {x} else ∅, s))
        let filter = Expr::lam(
            "x",
            Type::Base,
            Expr::ite(
                Expr::leq(Expr::var("x"), Expr::atom(1)),
                Expr::singleton(Expr::var("x")),
                Expr::empty(Type::Base),
            ),
        );
        let e = Expr::dcr(
            Expr::empty(Type::Base),
            Expr::lam("v", Type::Base, Expr::singleton(Expr::var("v"))),
            Expr::lam(
                "p",
                Type::prod(Type::set(Type::Base), Type::set(Type::Base)),
                Expr::union(Expr::proj1(Expr::var("p")), Expr::proj2(Expr::var("p"))),
            ),
            Expr::ext(filter, Expr::var("s")),
        );
        let schema = vec![("s".to_string(), Type::set(Type::Base))];
        let out = optimize(&e, &schema, &cfg());
        assert!(
            out.fired.iter().any(|f| f.rule == "filter-pushdown"),
            "fired: {:?}",
            out.fired
        );
        // The arg of the rewritten dcr is now the bare relation.
        let with_s = |q: &Expr| {
            Expr::let_in(
                "s",
                Expr::union(
                    Expr::singleton(Expr::atom(0)),
                    Expr::union(
                        Expr::singleton(Expr::atom(1)),
                        Expr::singleton(Expr::atom(5)),
                    ),
                ),
                q.clone(),
            )
        };
        assert_eq!(
            eval_closed(&with_s(&out.expr)).unwrap(),
            eval_closed(&with_s(&e)).unwrap()
        );
    }

    #[test]
    fn hoists_a_repeated_subexpression_out_of_the_combiner() {
        // The combiner recomputes `card(r)`-style work per call; with a
        // 9-element literal argument the tree makes 8 combiner calls across
        // 4 levels, enough that the hoist pays for itself in *both* work and
        // span (the added `let` costs one sequential step, so a shallow tree
        // would trip the span half of the gate). The repeated sub is open in
        // the schema but closed under the combiner's binders.
        let heavy = Expr::extern_call(
            "nat_add",
            vec![
                Expr::extern_call("card", vec![Expr::var("r")]),
                Expr::extern_call(
                    "nat_add",
                    vec![
                        Expr::extern_call("card", vec![Expr::var("r")]),
                        Expr::extern_call("card", vec![Expr::var("r")]),
                    ],
                ),
            ],
        );
        let e = Expr::dcr(
            Expr::nat(0),
            Expr::lam("v", Type::Base, Expr::nat(1)),
            Expr::lam(
                "p",
                Type::prod(Type::Nat, Type::Nat),
                Expr::extern_call(
                    "nat_add",
                    vec![
                        Expr::extern_call(
                            "nat_add",
                            vec![Expr::proj1(Expr::var("p")), Expr::proj2(Expr::var("p"))],
                        ),
                        heavy.clone(),
                    ],
                ),
            ),
            Expr::constant(Value::atom_set(1..10)),
        );
        let schema = vec![("r".to_string(), Type::set(Type::Base))];
        let out = optimize(&e, &schema, &cfg());
        assert!(
            out.fired.iter().any(|f| f.rule == "cse-hoist"),
            "fired: {:?}",
            out.fired
        );
        let with_r = |q: &Expr| {
            Expr::let_in(
                "r",
                Expr::union(
                    Expr::singleton(Expr::atom(10)),
                    Expr::singleton(Expr::atom(11)),
                ),
                q.clone(),
            )
        };
        assert_eq!(
            eval_closed(&with_r(&out.expr)).unwrap(),
            eval_closed(&with_r(&e)).unwrap()
        );
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
