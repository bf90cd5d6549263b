//! Static analyses over expressions: free variables and the *depth of recursion
//! nesting* of §3.
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

use crate::expr::{Expr, ExprKind, InsertForm, UnionForm};
use crate::span::Span;
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

/// Is the expression closed (no free variables)?
pub fn is_closed(expr: &Expr) -> bool {
    free_vars(expr).is_empty()
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

/// Count occurrences of each class of recursion construct — used by reports and
/// by the decidable-sublanguage check of `ncql-translate`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecursorCensus {
    /// Number of `dcr`/`bdcr` nodes.
    pub dcr: usize,
    /// Number of `sru` nodes.
    pub sru: usize,
    /// Number of `sri`/`bsri` nodes.
    pub sri: usize,
    /// Number of `esr` nodes.
    pub esr: usize,
    /// Number of iterator nodes (`loop`, `log-loop` and bounded variants).
    pub iterators: usize,
    /// Number of `ext` nodes.
    pub ext: usize,
}

/// Count the recursion constructs appearing in the expression.
pub fn census(expr: &Expr) -> RecursorCensus {
    let mut c = RecursorCensus::default();
    expr.visit(&mut |e| match &e.kind {
        ExprKind::UnionRec { form, .. } => match form {
            UnionForm::Dcr | UnionForm::BDcr(_) => c.dcr += 1,
            UnionForm::Sru => c.sru += 1,
        },
        ExprKind::InsertRec { form, .. } => match form {
            InsertForm::Sri | InsertForm::BSri(_) => c.sri += 1,
            InsertForm::Esr => c.esr += 1,
        },
        ExprKind::Iter { .. } => c.iterators += 1,
        ExprKind::Ext(_, _) => c.ext += 1,
        _ => {}
    });
    c
}

/// The ACᵏ level predicted by Theorem 6.1/6.2 for this expression: `max(1, depth)`
/// (the theorems are stated for `k ≥ 1`; depth-0 queries are already in AC¹ by
/// Proposition 6.4).
pub fn ac_level(expr: &Expr) -> usize {
    recursion_depth(expr).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncql_object::Type;

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
        assert!(!is_closed(&e));
        assert!(is_closed(&Expr::atom(1)));
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

    #[test]
    fn census_counts_constructs() {
        let ty = Type::set(Type::Base);
        let e = Expr::ext(
            Expr::lam("x", Type::Base, Expr::singleton(Expr::var("x"))),
            Expr::dcr(
                Expr::empty(Type::Base),
                Expr::lam("y", Type::Base, Expr::singleton(Expr::var("y"))),
                union_combiner(ty),
                Expr::var("s"),
            ),
        );
        let c = census(&e);
        assert_eq!(c.dcr, 1);
        assert_eq!(c.ext, 1);
        assert_eq!(c.sri, 0);
    }
}
