//! Syntactic passes over expressions: free variables, the *depth of recursion
//! nesting* of §3, and the lint pass. Nothing here knows the cost model — the
//! cost interpreter is [`crate::analyze`], which calls the lint pass.
//!
//! The nesting depth stratifies the language into the ACᵏ hierarchy: Theorem 6.2
//! states `NRA¹(dcr^(k), ≤) = FLAT-ACᵏ` and Theorem 6.1 states
//! `NRA(bdcr^(k), ≤) = CMPX-OBJ-ACᵏ` for `k ≥ 1`. The definition from the paper is
//!
//! ```text
//! depth(dcr(e, f, u)) = max(depth(e), depth(f), 1 + depth(u))
//! ```
//!
//! — only the combiner `u` is actually iterated (the singleton map `f` is applied
//! once per element, in parallel). Similarly for `sri(e, i)` only the step `i`
//! counts, and for the iterators only the body counts.

use crate::expr::{Expr, ExprKind, Slot};
use crate::resolve::resolve;
use crate::span::Span;
use ncql_object::{Type, Value};
use std::collections::BTreeSet;

/// The set of free variables of an expression: its resolved free table.
pub fn free_vars(expr: &Expr) -> BTreeSet<String> {
    resolve(expr).free.into_iter().map(String::from).collect()
}

/// The source span of the first *free* occurrence of `name` in `expr`
/// (pre-order), when the expression was parsed from text. The engine uses
/// this to point binding-validation errors at the schema variable's use site.
pub fn free_var_span(expr: &Expr, name: &str) -> Option<Span> {
    let plan = resolve(expr);
    let slot = Slot::Free(plan.free.iter().position(|&x| x == name)?);
    let mut first = None;
    plan.expr.visit(&mut |e| match &e.kind {
        ExprKind::Var(x) if x.slot == slot && first.is_none() => first = Some(e.span),
        _ => {}
    });
    first.flatten()
}

/// The depth of recursion/iteration nesting (§3 and §7.1). An expression with no
/// recursor or iterator has depth 0; Theorem 6.2 places a flat query of depth `k ≥ 1`
/// in ACᵏ.
///
/// Which operand is "the iterated one" (the combiner of a `dcr`, the step of
/// an `sri`, the body of an iterator) is recorded once, on
/// [`Expr::children`]'s `iterated` flag, rather than re-enumerated here.
pub fn recursion_depth(expr: &Expr) -> usize {
    expr.children()
        .into_iter()
        .map(|child| recursion_depth(child.expr) + usize::from(child.iterated))
        .max()
        .unwrap_or(0)
}

/// The ACᵏ level predicted by Theorem 6.1/6.2 for this expression: `max(1, depth)`
/// (the theorems are stated for `k ≥ 1`; depth-0 queries are already in AC¹ by
/// Proposition 6.4).
pub fn ac_level(expr: &Expr) -> usize {
    recursion_depth(expr).max(1)
}

// ---------------------------------------------------------------------------
// Lints
// ---------------------------------------------------------------------------

/// The lint catalog. Each lint has a stable kebab-case name (shown in
/// diagnostics) and a default severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// A `let`/lambda binding that is never referenced.
    UnusedBinding,
    /// A binder that shadows a schema relation of the same name.
    ShadowedSchemaVariable,
    /// A closed subexpression inside a lambda body — re-evaluated on every
    /// application; a `let`-hoisting opportunity for the optimizer.
    ConstantSubexpression,
    /// A statically-empty set used as an operand where it makes the
    /// surrounding operation trivial.
    EmptySetOperand,
    /// A recursor combiner/step that syntactically ignores an argument it
    /// must combine — a near-certain algebraic-law violation (`wellformed`).
    IgnoredCombinerArgument,
    /// The work *floor* already exceeds the session's work limit:
    /// evaluation is guaranteed to fail with `WorkLimitExceeded`.
    DoomedWorkBound,
}

impl Lint {
    /// The stable lint name used in rendered diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Lint::UnusedBinding => "unused-binding",
            Lint::ShadowedSchemaVariable => "shadowed-schema-variable",
            Lint::ConstantSubexpression => "constant-subexpression",
            Lint::EmptySetOperand => "empty-set-operand",
            Lint::IgnoredCombinerArgument => "ignored-combiner-argument",
            Lint::DoomedWorkBound => "doomed-work-bound",
        }
    }

    /// Warning lints flag rewrite opportunities; deny lints flag queries
    /// that are (almost) certainly wrong to run.
    pub fn default_severity(self) -> Severity {
        match self {
            Lint::IgnoredCombinerArgument | Lint::DoomedWorkBound => Severity::Deny,
            _ => Severity::Warning,
        }
    }
}

/// Finding severity: `Warning` surfaces through `PreparedQuery::analysis`;
/// `Deny` additionally rejects the query at prepare under a deny policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Deny,
}

/// One lint finding, carrying the offending node's source span when the
/// query was parsed from text.
#[derive(Debug, Clone)]
pub struct Finding {
    pub lint: Lint,
    pub severity: Severity,
    pub message: String,
    pub span: Option<Span>,
}

impl Finding {
    fn new(lint: Lint, message: String, span: Option<Span>) -> Finding {
        Finding {
            lint,
            severity: lint.default_severity(),
            message,
            span,
        }
    }
}

/// Is the expression *statically* the empty set?
fn statically_empty(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Empty(_) => true,
        ExprKind::Const(Value::Set(s)) => s.is_empty(),
        ExprKind::Union(a, b) => statically_empty(a) && statically_empty(b),
        ExprKind::Ext(_, arg) => statically_empty(arg),
        _ => false,
    }
}

/// Does `e` read the binder `k` binders out from it?
fn refers(e: &Expr, k: usize) -> bool {
    match &e.kind {
        ExprKind::Var(x) => x.slot == Slot::Bound(k),
        _ => (e.children().iter()).any(|c| refers(c.expr, k + usize::from(c.binds.is_some()))),
    }
}

/// Which components of the pair parameter of `\p. body` does `body` use?
/// Sees through the `lam2` desugaring (`let a = π₁ p in let b = π₂ p in …`
/// counts a component as used only when its `let` binder is), and is
/// conservative toward "used" everywhere else.
fn pair_component_use(body: &Expr) -> (bool, bool) {
    /// `p` is the binder `p` binders out from `e`.
    fn walk(e: &Expr, p: usize, used: &mut (bool, bool)) {
        let is_p = |e: &Expr| matches!(&e.kind, ExprKind::Var(x) if x.slot == Slot::Bound(p));
        match &e.kind {
            ExprKind::Var(_) if is_p(e) => *used = (true, true),
            ExprKind::Proj1(inner) if is_p(inner) => used.0 = true,
            ExprKind::Proj2(inner) if is_p(inner) => used.1 = true,
            ExprKind::Let(_, rhs, inner) => {
                match &rhs.kind {
                    ExprKind::Proj1(arg) if is_p(arg) => used.0 |= refers(inner, 0),
                    ExprKind::Proj2(arg) if is_p(arg) => used.1 |= refers(inner, 0),
                    _ => walk(rhs, p, used),
                }
                walk(inner, p + 1, used);
            }
            _ => {
                for child in e.children() {
                    walk(child.expr, p + usize::from(child.binds.is_some()), used);
                }
            }
        }
    }
    let mut used = (false, false);
    walk(body, 0, &mut used);
    used
}

/// Is this node a value-like literal: not worth folding, nor flagged as a
/// constant subexpression?
pub(crate) fn is_literal(expr: &Expr) -> bool {
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

/// What the lint pass and the optimizer read of one node of a resolved plan:
/// its size, whether it is closed (it reads no binder outside itself and no
/// schema relation), and for a `λ` or `let` whether its body reads the
/// binder.
pub(crate) struct Facts {
    pub(crate) size: usize,
    pub(crate) closed: bool,
    used: bool,
}

/// The facts of every node of `plan`, in pre-order: a node's children
/// follow it, each after the previous child's `size` entries.
pub(crate) fn facts(plan: &Expr) -> Vec<Facts> {
    let mut out = Vec::new();
    walk_facts(plan, &mut Vec::new(), &mut out);
    out
}

/// One bottom-up walk: `expr` sits under `uses.len()` binders, whose flags
/// `uses` raises as they are read; returns the outermost binder `expr` reads
/// (`i + 1` for the `i`th from the root, 0 for a schema relation).
fn walk_facts(expr: &Expr, uses: &mut Vec<bool>, out: &mut Vec<Facts>) -> usize {
    let (at, depth) = (out.len(), uses.len());
    out.push(Facts {
        size: 1,
        closed: true,
        used: false,
    });
    let mut outermost = match &expr.kind {
        ExprKind::Var(x) => match x.slot {
            Slot::Bound(d) if d < depth => {
                uses[depth - 1 - d] = true;
                depth - d
            }
            _ => 0,
        },
        _ => usize::MAX,
    };
    for child in expr.children() {
        uses.extend(child.binds.map(|_| false));
        outermost = outermost.min(walk_facts(child.expr, uses, out));
        if child.binds.is_some() {
            out[at].used = uses.pop().expect("pushed above");
        }
    }
    out[at].size = out.len() - at;
    out[at].closed = outermost > depth;
    outermost
}

/// The syntactic lint pass over a resolved plan: appends its findings in
/// source order.
pub(crate) fn lint_pass(expr: &Expr, schema: &[(String, Type)], findings: &mut Vec<Finding>) {
    fn empty_operand(e: &Expr, what: &str, findings: &mut Vec<Finding>) {
        if statically_empty(e) {
            findings.push(Finding::new(
                Lint::EmptySetOperand,
                what.to_string(),
                e.span,
            ));
        }
    }

    /// `facts[at]` are the facts of `expr`.
    fn walk(
        expr: &Expr,
        (facts, at): (&[Facts], usize),
        schema: &[(String, Type)],
        in_lambda: bool,
        findings: &mut Vec<Finding>,
    ) {
        // Constant subexpressions: only meaningful inside a lambda body
        // (that's when they are re-evaluated per application), only for
        // non-trivial non-literal nodes, and flagged maximally — a flagged
        // node's children are not revisited.
        let here = &facts[at];
        if in_lambda && !is_literal(expr) && here.size >= 4 && here.closed {
            findings.push(Finding::new(
                Lint::ConstantSubexpression,
                "this subexpression is constant but sits under a lambda, so it is \
                 re-evaluated on every application; hoist it into a `let` outside"
                    .to_string(),
                expr.span,
            ));
            return;
        }

        let binder = match &expr.kind {
            ExprKind::Lam(p, _, _) | ExprKind::Let(p, _, _) => Some(p),
            _ => None,
        };
        if let Some(p) = binder.filter(|p| !p.starts_with('%')) {
            if !here.used {
                findings.push(Finding::new(
                    Lint::UnusedBinding,
                    format!("binding `{p}` is never used"),
                    expr.span,
                ));
            }
            if schema.iter().any(|(name, _)| name == p) {
                findings.push(Finding::new(
                    Lint::ShadowedSchemaVariable,
                    format!("binding `{p}` shadows the schema relation of the same name"),
                    expr.span,
                ));
            }
        }
        match &expr.kind {
            ExprKind::Union(a, b) => {
                empty_operand(
                    a,
                    "operand of `union` is statically empty — the union is just the other operand",
                    findings,
                );
                empty_operand(
                    b,
                    "operand of `union` is statically empty — the union is just the other operand",
                    findings,
                );
            }
            ExprKind::Ext(_, arg) => empty_operand(
                arg,
                "`ext` over a statically-empty set always yields the empty set",
                findings,
            ),
            ExprKind::UnionRec { u, arg, .. } => {
                empty_operand(
                    arg,
                    "recursing over a statically-empty set always yields the zero value `e`",
                    findings,
                );
                if let ExprKind::Lam(_, _, body) = &u.kind {
                    let (first, second) = pair_component_use(body);
                    if !(first && second) {
                        let which = if first { "second" } else { "first" };
                        findings.push(Finding::new(
                            Lint::IgnoredCombinerArgument,
                            format!(
                                "combiner ignores its {which} argument — `dcr`/`sru` require an \
                                 associative-commutative combiner with identity `e` (the \
                                 well-formedness laws), which an argument-dropping combiner \
                                 almost certainly violates"
                            ),
                            u.span.or(expr.span),
                        ));
                    }
                }
            }
            ExprKind::InsertRec { i, arg, .. } => {
                empty_operand(
                    arg,
                    "recursing over a statically-empty set always yields the zero value `e`",
                    findings,
                );
                // The element may legitimately be ignored (e.g. a parity flip
                // per element); dropping the *accumulator* discards all prior
                // work and breaks insert-commutativity.
                if let ExprKind::Lam(_, _, body) = &i.kind {
                    let (_, acc_used) = pair_component_use(body);
                    if !acc_used {
                        findings.push(Finding::new(
                            Lint::IgnoredCombinerArgument,
                            "insert step ignores its accumulator — every element would \
                             overwrite the result, violating the insert-commutativity law"
                                .to_string(),
                            i.span.or(expr.span),
                        ));
                    }
                }
            }
            ExprKind::Iter { set, .. } => empty_operand(
                set,
                "iterating over a statically-empty counting set applies the body zero times",
                findings,
            ),
            _ => {}
        }

        let mut at = at + 1;
        for child in expr.children() {
            let entered_lambda =
                in_lambda || child.iterated || matches!(expr.kind, ExprKind::Lam(_, _, _));
            walk(child.expr, (facts, at), schema, entered_lambda, findings);
            at += facts[at].size;
        }
    }

    walk(expr, (&facts(expr), 0), schema, false, findings);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn union_combiner(ty: Type) -> Expr {
        Expr::lam2(
            "a",
            "b",
            Type::prod(ty.clone(), ty),
            Expr::union(Expr::var("a"), Expr::var("b")),
        )
    }

    #[test]
    fn free_vars_respect_binders() {
        let e = Expr::lam(
            "x",
            Type::Base,
            Expr::union(Expr::var("r"), Expr::singleton(Expr::var("x"))),
        );
        let fv = free_vars(&e);
        assert!(fv.contains("r"));
        assert!(!fv.contains("x"));
    }

    #[test]
    fn let_binder_shadows() {
        let e = Expr::let_in("x", Expr::var("y"), Expr::var("x"));
        let fv = free_vars(&e);
        assert_eq!(fv.into_iter().collect::<Vec<_>>(), vec!["y".to_string()]);
    }

    #[test]
    fn depth_of_plain_nra_is_zero() {
        let e = Expr::union(Expr::singleton(Expr::atom(1)), Expr::empty(Type::Base));
        assert_eq!(recursion_depth(&e), 0);
        assert_eq!(ac_level(&e), 1);
    }

    #[test]
    fn depth_counts_only_the_iterated_argument() {
        let ty = Type::set(Type::Base);
        // A dcr whose f contains another dcr does NOT increase the depth beyond 1,
        // but a dcr whose u contains another dcr has depth 2.
        let inner = Expr::dcr(
            Expr::empty(Type::Base),
            Expr::lam("y", Type::Base, Expr::singleton(Expr::var("y"))),
            union_combiner(ty.clone()),
            Expr::var("s"),
        );
        assert_eq!(recursion_depth(&inner), 1);

        let dcr_in_f = Expr::dcr(
            Expr::empty(Type::Base),
            Expr::lam("y", ty.clone(), inner.clone()),
            union_combiner(ty.clone()),
            Expr::var("ss"),
        );
        assert_eq!(recursion_depth(&dcr_in_f), 1);

        let dcr_in_u = Expr::dcr(
            Expr::empty(Type::Base),
            Expr::lam("y", Type::Base, Expr::singleton(Expr::var("y"))),
            Expr::lam2(
                "a",
                "b",
                Type::prod(ty.clone(), ty.clone()),
                Expr::union(inner, Expr::var("b")),
            ),
            Expr::var("s"),
        );
        assert_eq!(recursion_depth(&dcr_in_u), 2);
        assert_eq!(ac_level(&dcr_in_u), 2);
    }

    #[test]
    fn iterator_depth_counts_body() {
        let ty = Type::set(Type::Base);
        let body = Expr::lam("r", ty.clone(), Expr::var("r"));
        let e = Expr::log_loop(body.clone(), Expr::var("x"), Expr::empty(Type::Base));
        assert_eq!(recursion_depth(&e), 1);
        // Nesting a log-loop inside the body of another gives depth 2 (Example 7.2:
        // log² n iterations need iteration-nesting depth two).
        let nested = Expr::log_loop(
            Expr::lam(
                "r",
                ty.clone(),
                Expr::log_loop(body, Expr::var("x"), Expr::var("r")),
            ),
            Expr::var("x"),
            Expr::empty(Type::Base),
        );
        assert_eq!(recursion_depth(&nested), 2);
    }

    #[test]
    fn free_var_span_finds_the_first_free_use_site() {
        use crate::span::Span;
        let text = "ext(\\x: atom. {x}, s) union s";
        let e = ncql_test_parse(text);
        // The first *free* occurrence of `s` is the ext argument at byte 19;
        // the bound `x` inside the lambda is skipped.
        assert_eq!(free_var_span(&e, "s"), Some(Span::new(19, 20)));
        assert_eq!(free_var_span(&e, "x"), None, "x is bound");
        assert_eq!(free_var_span(&e, "missing"), None);
        // Span-less (builder-built) trees yield None even when the variable
        // is free.
        let built = Expr::union(Expr::var("s"), Expr::var("s"));
        assert_eq!(free_var_span(&built, "s"), None);
    }

    /// A minimal stand-in for the surface parser (which lives upstream of
    /// this crate): spans are attached by hand to the two nodes under test.
    fn ncql_test_parse(_text: &str) -> Expr {
        use crate::span::Span;
        // ext(\x: atom. {x}, s) union s  — only the spans used above matter.
        let lam = Expr::lam(
            "x",
            ncql_object::Type::Base,
            Expr::singleton(Expr::var("x").at(Span::new(15, 16))),
        );
        let ext = Expr::ext(lam, Expr::var("s").at(Span::new(19, 20)));
        Expr::union(ext, Expr::var("s").at(Span::new(28, 29))).at(Span::new(0, 29))
    }
}
