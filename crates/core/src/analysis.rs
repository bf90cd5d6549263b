//! Syntactic passes over expressions: free variables, the lint pass and the
//! §7.1 recogniser of lawful recursors it reads, all deciding from slots.
//! Nothing here knows the cost model — the cost interpreter is
//! [`crate::analyze`], which calls the lint pass — and nothing here walks a
//! plan for the facts of its nodes: [`crate::resolve`] records them, the §3
//! recursion depth included, in the walk that resolves it.

use crate::expr::{Expr, ExprKind, InsertForm, Slot, UnionForm};
use crate::resolve::{resolve, Facts, Resolved};
use crate::span::Span;
use ncql_object::{Type, Value};
use std::collections::BTreeSet;

/// The set of free variables of an expression: its resolved free table.
pub fn free_vars(expr: &Expr) -> BTreeSet<String> {
    resolve(expr).free.into_iter().collect()
}

/// The source span of the first *free* occurrence of `name` in `expr`
/// (pre-order), when the expression was parsed from text. The engine uses
/// this to point binding-validation errors at the schema variable's use site.
pub fn free_var_span(expr: &Expr, name: &str) -> Option<Span> {
    let plan = resolve(expr);
    let slot = Slot::Free(plan.free.iter().position(|x| x == name)?);
    let mut first = None;
    plan.expr.visit(&mut |e| match &e.kind {
        ExprKind::Var(x) if x.slot == slot && first.is_none() => first = Some(e.span),
        _ => {}
    });
    first.flatten()
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
    /// must combine — a near-certain algebraic-law violation.
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
        let is_p = |e: &Expr| is_var(e, p);
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

// ---------------------------------------------------------------------------
// Lawful recursors
// ---------------------------------------------------------------------------

/// What is known of a recursor's laws (§2): a `dcr` combiner must be
/// associative and commutative with unit `e`, an `sru` one idempotent too;
/// an `esr` step must be i-commutative, an `sri` one i-idempotent too.
/// Checking them is Π⁰₁-complete, so §7.1 keeps to a decidable sublanguage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lawful {
    /// A shape whose laws hold for this form and this `e`, unconditionally.
    Theorem(Shape),
    /// The combiner ignores an argument, or the step its accumulator: the
    /// laws almost certainly fail ([`Lint::IgnoredCombinerArgument`]).
    Refuted,
    /// Anything else: the laws may hold, but nothing here proves them.
    Unchecked,
}

/// The shapes of the sublanguage. `a`, `b` are the two components of the
/// pair parameter, either order, read as `π₁ p` or through a `let`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `a ∪ b`, unit `∅`.
    SetUnion,
    /// `a ∪ b ∪ a∘b`, unit `∅`, under a leaf map that ignores its element.
    UnionCompose,
    /// `if a then ¬b else b`, unit `false`.
    BoolXor,
    /// `if a then true else b`, unit `false`.
    BoolOr,
    /// `if a then b else false`, unit `true`.
    BoolAnd,
    /// `if a <= b then b else a`, unit the least literal `@0` or `0`.
    MaxByLeq,
    /// `nat_add(a, b)`, unit `0`.
    NatAdd,
    /// `nat_mul(a, b)`, unit `1`.
    NatMul,
    /// `nat_max(a, b)`, unit `0`.
    NatMax,
    /// `nat_min(a, b)`: its unit, the greatest nat, has no literal.
    NatMin,
    /// The insert step `{π₁ p} ∪ π₂ p`.
    Insert,
    /// An insert step that does not read its element.
    IgnoresElement,
}

impl Shape {
    /// Is `e` this combiner's unit, and is the combiner idempotent (the step
    /// i-idempotent)? A step has no unit: it is no combiner.
    fn laws(self, e: &Expr) -> (bool, bool) {
        use Shape::*;
        let nat = |n| matches!(e.kind, ExprKind::Const(Value::Nat(m)) if m == n);
        let bool = |b| matches!(e.kind, ExprKind::Bool(v) if v == b);
        match self {
            SetUnion => (statically_empty(e), true),
            UnionCompose => (statically_empty(e), false),
            BoolXor => (bool(false), false),
            BoolOr => (bool(false), true),
            BoolAnd => (bool(true), true),
            MaxByLeq => (
                nat(0) || matches!(e.kind, ExprKind::Const(Value::Atom(0))),
                true,
            ),
            NatAdd => (nat(0), false),
            NatMul => (nat(1), false),
            NatMax => (nat(0), true),
            NatMin | Insert => (false, true),
            IgnoresElement => (false, false),
        }
    }
}

/// Is the resolved recursor `site` lawful? Reads slots, not names, so a
/// combiner written with `let a = π₁ p in …` or with `π₁ p`, under any
/// binder names, is read alike. `None` for a node that is no recursor.
pub fn lawful(site: &Expr) -> Option<Lawful> {
    let shape = match &site.kind {
        ExprKind::UnionRec { form, e, f, u, .. } => match lam_body(u).map(pair_component_use) {
            Some((true, true)) => {
                let one_leaf = lam_body(f).is_some_and(|leaf| !refers(leaf, 0));
                shape(u).filter(|&s| {
                    let (unit, idempotent) = s.laws(e);
                    unit && (s != Shape::UnionCompose || one_leaf)
                        && (*form != UnionForm::Sru || idempotent)
                })
            }
            Some(_) => return Some(Lawful::Refuted),
            None => None,
        },
        // A step may ignore its element (a parity flip per element), never
        // its accumulator: that discards all prior work.
        ExprKind::InsertRec { form, e, i, .. } => match lam_body(i).map(pair_component_use) {
            Some((_, false)) => return Some(Lawful::Refuted),
            Some((true, true)) => shape(i).filter(|&s| s == Shape::Insert),
            Some((false, true)) => Some(Shape::IgnoresElement),
            None => None,
        }
        .filter(|s| *form == InsertForm::Esr || s.laws(e).1),
        _ => return None,
    };
    Some(shape.map_or(Lawful::Unchecked, Lawful::Theorem))
}

/// The body of a `λ`.
fn lam_body(e: &Expr) -> Option<&Expr> {
    match &e.kind {
        ExprKind::Lam(_, _, body) => Some(body),
        _ => None,
    }
}

/// Is `e` the binder `k` binders out from it?
fn is_var(e: &Expr, k: usize) -> bool {
    matches!(&e.kind, ExprKind::Var(x) if x.slot == Slot::Bound(k))
}

/// A pair lambda `\p. …`'s body below its `lam2` prefix (`let a = π₁ p in
/// let b = π₂ p in …`), and the component each `let` of the prefix binds,
/// outermost first.
struct Operands<'e>(&'e Expr, Vec<usize>);

impl<'e> Operands<'e> {
    fn peel(lam: &'e Expr) -> Option<Operands<'e>> {
        let mut ops = Operands(lam_body(lam)?, Vec::new());
        while let ExprKind::Let(_, rhs, inner) = &ops.0.kind {
            let Some(c) = ops.component(rhs, 0) else {
                break;
            };
            ops.1.push(c);
            ops.0 = inner;
        }
        Some(ops)
    }

    /// Which component of `p` is `e`, a node `d` binders inside the body?
    fn component(&self, e: &Expr, d: usize) -> Option<usize> {
        let n = self.1.len();
        match &e.kind {
            ExprKind::Proj1(p) if is_var(p, d + n) => Some(0),
            ExprKind::Proj2(p) if is_var(p, d + n) => Some(1),
            _ => (0..n)
                .find(|&k| is_var(e, d + k))
                .map(|k| self.1[n - 1 - k]),
        }
    }

    /// Is `c` the composition `ext(\a. ext(\b. if π₂ a = π₁ b then
    /// {(π₁ a, π₂ b)} else ∅, y), x)` of the two components?
    fn composes(&self, c: &Expr) -> bool {
        use ExprKind::*;
        let Ext(outer, x) = &c.kind else {
            return false;
        };
        let Some(Ext(inner, y)) = lam_body(outer).map(|e| &e.kind) else {
            return false;
        };
        let Some(If(test, hit, miss)) = lam_body(inner).map(|e| &e.kind) else {
            return false;
        };
        let pi1 = |e: &Expr, k| matches!(&e.kind, Proj1(e) if is_var(e, k));
        let pi2 = |e: &Expr, k| matches!(&e.kind, Proj2(e) if is_var(e, k));
        let joins = matches!(&test.kind, Eq(l, r) if pi2(l, 1) && pi1(r, 0));
        let emits = matches!(&hit.kind, Singleton(t)
            if matches!(&t.kind, Pair(l, r) if pi1(l, 1) && pi2(r, 0)));
        let x_then_y = self.component(x, 0).zip(self.component(y, 1));
        matches!(x_then_y, Some((i, j)) if i != j) && joins && emits && statically_empty(miss)
    }
}

/// The shape of the combiner or step `\p. …`, whatever its unit.
pub(crate) fn shape(lam: &Expr) -> Option<Shape> {
    use ExprKind::*;
    let ops = Operands::peel(lam)?;
    let at = |e: &Expr| ops.component(e, 0);
    let both = |x: &Expr, y: &Expr| matches!((at(x), at(y)), (Some(i), Some(j)) if i != j);
    let is = |e: &Expr, b| matches!(e.kind, Bool(v) if v == b);
    let single = |e: &Expr| matches!(&e.kind, Singleton(y) if at(y) == Some(0));
    Some(match &ops.0.kind {
        Union(x, y) if both(x, y) => Shape::SetUnion,
        Union(x, y) if single(x) && at(y) == Some(1) || at(x) == Some(1) && single(y) => {
            Shape::Insert
        }
        Union(xy, c) => match &xy.kind {
            Union(x, y) if both(x, y) && ops.composes(c) => Shape::UnionCompose,
            _ => return None,
        },
        If(c, t, f) => match (&c.kind, &t.kind) {
            (Leq(x, y), _) if both(x, y) && at(t) == at(y) && at(f) == at(x) => Shape::MaxByLeq,
            (_, If(d, yes, no))
                if both(c, d) && at(f) == at(d) && is(yes, false) && is(no, true) =>
            {
                Shape::BoolXor
            }
            _ if both(c, f) && is(t, true) => Shape::BoolOr,
            _ if both(c, t) && is(f, false) => Shape::BoolAnd,
            _ => return None,
        },
        Extern(name, args) if args.len() == 2 && both(&args[0], &args[1]) => match &name[..] {
            "nat_add" => Shape::NatAdd,
            "nat_mul" => Shape::NatMul,
            "nat_max" => Shape::NatMax,
            "nat_min" => Shape::NatMin,
            _ => return None,
        },
        _ => return None,
    })
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

/// The syntactic lint pass over a resolved plan, reading the facts its
/// resolution recorded: appends its findings in source order.
pub(crate) fn lint_pass(plan: &Resolved, schema: &[(String, Type)], findings: &mut Vec<Finding>) {
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
            ExprKind::UnionRec { arg, .. } | ExprKind::InsertRec { arg, .. } => {
                empty_operand(
                    arg,
                    "recursing over a statically-empty set always yields the zero value `e`",
                    findings,
                );
                if lawful(expr) == Some(Lawful::Refuted) {
                    let (step, message) = match &expr.kind {
                        ExprKind::UnionRec { u, .. } => {
                            let first = lam_body(u).is_some_and(|b| pair_component_use(b).0);
                            let which = if first { "second" } else { "first" };
                            let message = format!(
                                "combiner ignores its {which} argument — `dcr`/`sru` require an \
                                 associative-commutative combiner with identity `e` (the \
                                 well-formedness laws), which an argument-dropping combiner \
                                 almost certainly violates"
                            );
                            (u, message)
                        }
                        ExprKind::InsertRec { i, .. } => (
                            i,
                            "insert step ignores its accumulator — every element would \
                             overwrite the result, violating the insert-commutativity law"
                                .to_string(),
                        ),
                        _ => unreachable!("the arm matches recursors only"),
                    };
                    let span = step.span.or(expr.span);
                    findings.push(Finding::new(Lint::IgnoredCombinerArgument, message, span));
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

    walk(&plan.expr, (&plan.facts, 0), schema, false, findings);
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
        assert_eq!(resolve(&e).recursion_depth(), 0);
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
        assert_eq!(resolve(&inner).recursion_depth(), 1);

        let dcr_in_f = Expr::dcr(
            Expr::empty(Type::Base),
            Expr::lam("y", ty.clone(), inner.clone()),
            union_combiner(ty.clone()),
            Expr::var("ss"),
        );
        assert_eq!(resolve(&dcr_in_f).recursion_depth(), 1);

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
        assert_eq!(resolve(&dcr_in_u).recursion_depth(), 2);
    }

    #[test]
    fn iterator_depth_counts_body() {
        let ty = Type::set(Type::Base);
        let body = Expr::lam("r", ty.clone(), Expr::var("r"));
        let e = Expr::log_loop(body.clone(), Expr::var("x"), Expr::empty(Type::Base));
        assert_eq!(resolve(&e).recursion_depth(), 1);
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
        assert_eq!(resolve(&nested).recursion_depth(), 2);
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

    /// `lawful` of the resolved `site`.
    fn class(site: &Expr) -> Option<Lawful> {
        lawful(&resolve(site).expr)
    }

    /// `λ(a, b). body` over `(t * t)`.
    fn comb(t: Type, body: Expr) -> Expr {
        Expr::lam2("a", "b", Type::prod(t.clone(), t), body)
    }

    /// The §1 closure combiner `λ(r1, r2). r1 ∪ r2 ∪ r1∘r2` over atom pairs.
    fn tc_combiner() -> Expr {
        let (a, b) = (|| Expr::var("a"), || Expr::var("b"));
        let pair = Type::prod(Type::Base, Type::Base);
        let step = Expr::ite(
            Expr::eq(Expr::proj2(a()), Expr::proj1(b())),
            Expr::singleton(Expr::pair(Expr::proj1(a()), Expr::proj2(b()))),
            Expr::empty(pair.clone()),
        );
        let inner = Expr::ext(Expr::lam("b", pair.clone(), step), Expr::var("r2"));
        let compose = Expr::ext(Expr::lam("a", pair.clone(), inner), Expr::var("r1"));
        let rel = Type::set(pair);
        Expr::lam2(
            "r1",
            "r2",
            Type::prod(rel.clone(), rel),
            Expr::union(Expr::union(Expr::var("r1"), Expr::var("r2")), compose),
        )
    }

    #[test]
    fn only_combiners_whose_laws_hold_unconditionally_are_theorems() {
        use Lawful::{Refuted, Theorem, Unchecked};
        let (a, b, s) = (|| Expr::var("a"), || Expr::var("b"), || Expr::var("s"));
        let (nat, atom, bool) = (Expr::nat, Expr::atom, Expr::bool_val);
        let call = |f: &str, args| Expr::extern_call(f, args);
        let leaf = |body| Expr::lam("y", Type::Base, body);
        let dcr = |e, f, u| Expr::dcr(e, f, u, s());
        let sru = |e, f, u| Expr::sru(e, f, u, s());
        let bools = |body| comb(Type::Bool, body);
        let nats = |body| comb(Type::Nat, body);
        let sets = |body| comb(Type::set(Type::Base), body);
        let union = || sets(Expr::union(a(), b()));
        let singletons = || leaf(Expr::singleton(Expr::var("y")));
        let empty = || Expr::empty(Type::Base);
        let xor = || bools(Expr::ite(a(), Expr::ite(b(), bool(false), bool(true)), b()));
        let and = || bools(Expr::ite(a(), b(), bool(false)));
        let add = || nats(call("nat_add", vec![a(), b()]));
        let by_leq = |then, other| comb(Type::Base, Expr::ite(Expr::leq(a(), b()), then, other));
        let pairs = Type::set(Type::prod(Type::Base, Type::Base));
        let difference = crate::derived::difference(Type::Base, a(), b());
        let either = Expr::ite(Expr::var("flag"), Expr::union(a(), b()), difference);
        // `λ(x, acc). body` over `(atom * {atom})`.
        let step = |body| {
            let ty = Type::prod(Type::Base, Type::set(Type::Base));
            Expr::lam2("x", "acc", ty, body)
        };
        let insert = || {
            step(Expr::union(
                Expr::singleton(Expr::var("x")),
                Expr::var("acc"),
            ))
        };
        let grow = || step(Expr::union(Expr::var("acc"), Expr::singleton(atom(0))));
        let cases = [
            (
                "union, ∅",
                dcr(empty(), singletons(), union()),
                Theorem(Shape::SetUnion),
            ),
            (
                "union, {@1}",
                dcr(Expr::singleton(atom(1)), singletons(), union()),
                Unchecked,
            ),
            (
                "union under sru",
                sru(empty(), singletons(), union()),
                Theorem(Shape::SetUnion),
            ),
            (
                "xor, false",
                dcr(bool(false), leaf(bool(true)), xor()),
                Theorem(Shape::BoolXor),
            ),
            (
                "xor under sru",
                sru(bool(false), leaf(bool(true)), xor()),
                Unchecked,
            ),
            (
                "or, false",
                dcr(
                    bool(false),
                    leaf(bool(true)),
                    bools(Expr::ite(a(), bool(true), b())),
                ),
                Theorem(Shape::BoolOr),
            ),
            (
                "and, true",
                dcr(bool(true), leaf(bool(true)), and()),
                Theorem(Shape::BoolAnd),
            ),
            (
                "and, false",
                dcr(bool(false), leaf(bool(true)), and()),
                Unchecked,
            ),
            (
                "nat_add, 0",
                dcr(nat(0), leaf(nat(1)), add()),
                Theorem(Shape::NatAdd),
            ),
            ("nat_add, 1", dcr(nat(1), leaf(nat(1)), add()), Unchecked),
            (
                "nat_add under sru",
                sru(nat(0), leaf(nat(1)), add()),
                Unchecked,
            ),
            (
                "nat_min, 100",
                dcr(
                    nat(100),
                    leaf(nat(1)),
                    nats(call("nat_min", vec![b(), a()])),
                ),
                Unchecked,
            ),
            (
                "max by <=, @0",
                dcr(atom(0), leaf(Expr::var("y")), by_leq(b(), a())),
                Theorem(Shape::MaxByLeq),
            ),
            (
                "min by <=, @0",
                dcr(atom(0), leaf(Expr::var("y")), by_leq(a(), b())),
                Unchecked,
            ),
            (
                "§2: x ∪ y or x \\ y",
                dcr(empty(), singletons(), sets(either)),
                Unchecked,
            ),
            (
                "§1 closure, one leaf",
                Expr::dcr(
                    Expr::empty(pairs.clone()),
                    leaf(Expr::var("r")),
                    tc_combiner(),
                    s(),
                ),
                Theorem(Shape::UnionCompose),
            ),
            (
                "§1 closure, a leaf per element",
                Expr::dcr(
                    Expr::empty(pairs),
                    leaf(Expr::singleton(Expr::pair(Expr::var("y"), Expr::var("y")))),
                    tc_combiner(),
                    s(),
                ),
                Unchecked,
            ),
            (
                "drops its second argument",
                dcr(empty(), singletons(), sets(a())),
                Refuted,
            ),
            (
                "drops its first argument",
                dcr(empty(), singletons(), sets(b())),
                Refuted,
            ),
            (
                "a combiner that is no λ",
                dcr(empty(), singletons(), Expr::var("u")),
                Unchecked,
            ),
            (
                "{x} ∪ acc under sri",
                Expr::sri(empty(), insert(), s()),
                Theorem(Shape::Insert),
            ),
            (
                "{x} ∪ acc under esr",
                Expr::esr(empty(), insert(), s()),
                Theorem(Shape::Insert),
            ),
            (
                "{x} ∪ acc under bsri",
                Expr::bsri(empty(), insert(), s(), s()),
                Theorem(Shape::Insert),
            ),
            (
                "drops its accumulator",
                Expr::sri(empty(), step(Expr::singleton(Expr::var("x"))), s()),
                Refuted,
            ),
            (
                "ignores its element, esr",
                Expr::esr(empty(), grow(), s()),
                Theorem(Shape::IgnoresElement),
            ),
            (
                "ignores its element, sri",
                Expr::sri(empty(), grow(), s()),
                Unchecked,
            ),
            (
                "ignores its element, bsri",
                Expr::bsri(empty(), grow(), s(), s()),
                Unchecked,
            ),
        ];
        for (what, site, expected) in cases {
            assert_eq!(class(&site), Some(expected), "{what}: {site}");
        }
        assert_eq!(class(&Expr::union(s(), s())), None, "no recursor");
    }

    #[test]
    fn lawful_reads_slots_not_names() {
        use Lawful::{Refuted, Theorem};
        let nat2 = || Type::prod(Type::Nat, Type::Nat);
        let p = || Expr::var("p");
        let mul = |x, y| Expr::extern_call("nat_mul", vec![x, y]);
        let product = |u| {
            class(&Expr::dcr(
                Expr::nat(1),
                Expr::lam("x", Type::Base, Expr::nat(2)),
                u,
                Expr::var("s"),
            ))
        };
        let direct = Expr::lam("p", nat2(), mul(Expr::proj1(p()), Expr::proj2(p())));
        let swapped = Expr::lam("p", nat2(), mul(Expr::proj2(p()), Expr::proj1(p())));
        let named = Expr::lam2("b", "a", nat2(), mul(Expr::var("a"), Expr::var("b")));
        for u in [direct, swapped, named] {
            assert_eq!(product(u.clone()), Some(Theorem(Shape::NatMul)), "{u}");
        }
        // `let a = π₁ p in let a = π₂ p in a · a` reads the second component
        // twice: read by name, it would look like `a · b`.
        let inner = Expr::let_in("a", Expr::proj2(p()), mul(Expr::var("a"), Expr::var("a")));
        let shadowed = Expr::lam("p", nat2(), Expr::let_in("a", Expr::proj1(p()), inner));
        assert_eq!(product(shadowed), Some(Refuted));

        // A combiner whose parameter shadows an enclosing `p` its leaf reads.
        let add = Expr::extern_call("nat_add", vec![Expr::proj1(p()), Expr::proj2(p())]);
        let leaf = Expr::ite(Expr::leq(Expr::var("x"), p()), Expr::nat(1), Expr::nat(0));
        let site = Expr::dcr(
            Expr::nat(0),
            Expr::lam("x", Type::Base, leaf),
            Expr::lam("p", nat2(), add),
            Expr::var("s"),
        );
        let outer = Expr::ext(
            Expr::lam("p", Type::Base, Expr::singleton(site)),
            Expr::var("s"),
        );
        let mut found = Vec::new();
        resolve(&outer).expr.visit(&mut |e| found.extend(lawful(e)));
        assert_eq!(found, [Theorem(Shape::NatAdd)]);
    }
}
