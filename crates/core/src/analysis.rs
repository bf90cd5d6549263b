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

use crate::expr::{Expr, ExprKind};
use crate::span::Span;
use ncql_object::{Type, Value};
use std::collections::BTreeSet;

/// The set of free variables of an expression.
pub fn free_vars(expr: &Expr) -> BTreeSet<String> {
    fn walk(expr: &Expr, bound: &mut Vec<String>, out: &mut BTreeSet<String>) {
        if let ExprKind::Var(x) = &expr.kind {
            if !bound.iter().any(|b| b == x) {
                out.insert(x.clone());
            }
        }
        for child in expr.children() {
            match child.binds {
                Some(name) => {
                    bound.push(name.to_string());
                    walk(child.expr, bound, out);
                    bound.pop();
                }
                None => walk(child.expr, bound, out),
            }
        }
    }
    let mut out = BTreeSet::new();
    walk(expr, &mut Vec::new(), &mut out);
    out
}

/// The source span of the first *free* occurrence of `name` in `expr`
/// (pre-order), when the expression was parsed from text. The engine uses
/// this to point binding-validation errors at the schema variable's use site.
pub fn free_var_span(expr: &Expr, name: &str) -> Option<Span> {
    fn walk(expr: &Expr, name: &str, bound: &mut Vec<String>) -> Option<Option<Span>> {
        // `Some(span)` = found (span may itself be None on span-less trees);
        // `None` = keep looking.
        if let ExprKind::Var(x) = &expr.kind {
            if x == name && !bound.iter().any(|b| b == x) {
                return Some(expr.span);
            }
        }
        for child in expr.children() {
            let found = match child.binds {
                Some(binder) if binder == name => continue, // shadowed below here
                Some(binder) => {
                    bound.push(binder.to_string());
                    let r = walk(child.expr, name, bound);
                    bound.pop();
                    r
                }
                None => walk(child.expr, name, bound),
            };
            if found.is_some() {
                return found;
            }
        }
        None
    }
    walk(expr, name, &mut Vec::new()).flatten()
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

fn is_var(e: &Expr, name: &str) -> bool {
    matches!(&e.kind, ExprKind::Var(x) if x == name)
}

fn uses_var(e: &Expr, name: &str) -> bool {
    free_vars(e).contains(name)
}

/// Which components of the pair parameter `p` does `body` use? Sees through
/// the `lam2` desugaring (`let a = π₁ p in let b = π₂ p in …` counts a
/// component as used only when its `let` binder is), and is conservative
/// toward "used" everywhere else.
fn pair_component_use(p: &str, body: &Expr) -> (bool, bool) {
    fn walk(p: &str, e: &Expr, used: &mut (bool, bool)) {
        match &e.kind {
            ExprKind::Var(x) if x == p => *used = (true, true),
            ExprKind::Proj1(inner) if is_var(inner, p) => used.0 = true,
            ExprKind::Proj2(inner) if is_var(inner, p) => used.1 = true,
            ExprKind::Let(name, rhs, inner) => {
                match &rhs.kind {
                    ExprKind::Proj1(arg) if is_var(arg, p) => {
                        if uses_var(inner, name) {
                            used.0 = true;
                        }
                    }
                    ExprKind::Proj2(arg) if is_var(arg, p) => {
                        if uses_var(inner, name) {
                            used.1 = true;
                        }
                    }
                    _ => walk(p, rhs, used),
                }
                if name != p {
                    walk(p, inner, used);
                }
            }
            _ => {
                for child in e.children() {
                    if child.binds == Some(p) {
                        continue; // shadowed below here
                    }
                    walk(p, child.expr, used);
                }
            }
        }
    }
    let mut used = (false, false);
    walk(p, body, &mut used);
    used
}

/// The syntactic lint pass: appends its findings in source order.
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

    fn walk(expr: &Expr, schema: &[(String, Type)], in_lambda: bool, findings: &mut Vec<Finding>) {
        // Constant subexpressions: only meaningful inside a lambda body
        // (that's when they are re-evaluated per application), only for
        // non-trivial non-literal nodes, and flagged maximally — a flagged
        // node's children are not revisited.
        let literal = matches!(
            expr.kind,
            ExprKind::Const(_)
                | ExprKind::Bool(_)
                | ExprKind::Unit
                | ExprKind::Empty(_)
                | ExprKind::Var(_)
                | ExprKind::Lam(_, _, _)
        );
        if in_lambda && !literal && expr.size() >= 4 && free_vars(expr).is_empty() {
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
            ExprKind::Lam(p, _, body) => Some((p, &**body)),
            ExprKind::Let(p, _, body) => Some((p, &**body)),
            _ => None,
        };
        if let Some((p, body)) = binder.filter(|(p, _)| !p.starts_with('%')) {
            if !uses_var(body, p) {
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
                if let ExprKind::Lam(p, _, body) = &u.kind {
                    let (first, second) = pair_component_use(p, body);
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
                if let ExprKind::Lam(p, _, body) = &i.kind {
                    let (_, acc_used) = pair_component_use(p, body);
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

        for child in expr.children() {
            let entered_lambda =
                in_lambda || child.iterated || matches!(expr.kind, ExprKind::Lam(_, _, _));
            walk(child.expr, schema, entered_lambda, findings);
        }
    }

    walk(expr, schema, false, findings);
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
