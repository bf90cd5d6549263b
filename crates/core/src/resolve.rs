//! Binder resolution: what every variable of a plan refers to, decided once.
//!
//! [`resolve`] is the one place a name is looked up. It gives each [`Var`]
//! its [`Slot`] — its binder's de Bruijn index, or its entry in the plan's
//! table of free (schema) names — and every layer below reads slots: the
//! evaluator and the analyser index `Frames`, the type checker, the kernel
//! compiler and the lint pass index stacks. Names remain for printing,
//! diagnostics and the schema boundary, where the free table meets the
//! bindings or the schema once per plan.
//!
//! Slots are a function of the tree, so a builder that wraps a plan in a new
//! binder, or a rewrite that moves a body under one, leaves them stale. Every
//! entry point that accepts a tree resolves it, and a tree whose slots are
//! current passes through as a borrow: one walk, no copy.

use crate::expr::{Expr, ExprKind, Slot, Var};
use std::borrow::Cow;
use std::sync::Arc;

/// A plan with every variable's slot current: what the layers below take.
#[derive(Debug)]
pub struct Resolved<'e> {
    /// The input itself when its slots were current, else a copy.
    pub expr: Cow<'e, Expr>,
    /// The free names in order of first occurrence: `Slot::Free(i)` is `free[i]`.
    pub free: Vec<&'e str>,
}

/// Resolve every variable of `expr` (see the module docs).
pub fn resolve(expr: &Expr) -> Resolved<'_> {
    let mut free = Vec::new();
    let resolved = visit(expr, &mut Vec::new(), &mut free);
    let expr = resolved.map_or(Cow::Borrowed(expr), Cow::Owned);
    Resolved { expr, free }
}

/// `expr` under `scope` (its binders, innermost last) with its slots set, or
/// `None` when all were current; a free name not yet in `free` joins it.
fn visit<'e>(expr: &'e Expr, scope: &mut Vec<&'e str>, free: &mut Vec<&'e str>) -> Option<Expr> {
    if let ExprKind::Var(x) = &expr.kind {
        let slot = match scope.iter().rposition(|b| *b == x.name) {
            Some(at) => Slot::Bound(scope.len() - 1 - at),
            None => Slot::Free(free.iter().position(|f| *f == x.name).unwrap_or_else(|| {
                free.push(&x.name);
                free.len() - 1
            })),
        };
        return (x.slot != slot).then(|| Expr {
            kind: ExprKind::Var(Var {
                name: x.name.clone(),
                slot,
            }),
            span: expr.span,
        });
    }
    let depth = scope.len();
    let children = expr.children();
    // The children so far, once one of them changed: a current tree
    // allocates nothing.
    let mut resolved: Option<Vec<Expr>> = None;
    for (at, child) in children.iter().enumerate() {
        scope.extend(child.binds);
        let new = visit(child.expr, scope, free);
        scope.truncate(depth);
        if resolved.is_none() && new.is_some() {
            resolved = Some(children[..at].iter().map(|c| c.expr.clone()).collect());
        }
        if let Some(kids) = &mut resolved {
            kids.push(new.unwrap_or_else(|| child.expr.clone()));
        }
    }
    resolved.map(|kids| expr.with_children(kids))
}

/// The values of the binders around a point of evaluation, innermost first:
/// `Slot::Bound(d)` reads `Frames::get(d)`. Persistent, so a closure
/// keeps the frames it was made in.
#[derive(Debug, Clone)]
pub(crate) struct Frames<T>(pub(crate) Option<Arc<(T, Frames<T>)>>);

impl<T> Frames<T> {
    /// These frames with `val` bound innermost.
    pub(crate) fn bind(&self, val: T) -> Frames<T>
    where
        T: Clone,
    {
        Frames(Some(Arc::new((val, self.clone()))))
    }

    /// The value bound `d` frames out, if there are that many.
    pub(crate) fn get(&self, d: usize) -> Option<&T> {
        let (val, next) = self.0.as_deref()?;
        match d {
            0 => Some(val),
            _ => next.get(d - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncql_object::Type;

    fn slots(expr: &Expr) -> Vec<(String, Slot)> {
        let mut out = Vec::new();
        expr.visit(&mut |e| {
            if let ExprKind::Var(x) = &e.kind {
                out.push((x.name.clone(), x.slot));
            }
        });
        out
    }

    #[test]
    fn bound_variables_get_their_binders_position_and_free_ones_the_table() {
        // \x. let y = x in (r, (y, (x, (s, r))))
        let v = Expr::var;
        let body = Expr::pair(
            v("r"),
            Expr::pair(v("y"), Expr::pair(v("x"), Expr::pair(v("s"), v("r")))),
        );
        let e = Expr::lam("x", Type::Base, Expr::let_in("y", v("x"), body));
        let plan = resolve(&e);
        assert_eq!(plan.free, ["r", "s"]);
        let found = slots(&plan.expr);
        let want = [
            ("x", Slot::Bound(0)),
            ("r", Slot::Free(0)),
            ("y", Slot::Bound(0)),
        ];
        let want = want.into_iter().chain([
            ("x", Slot::Bound(1)),
            ("s", Slot::Free(1)),
            ("r", Slot::Free(0)),
        ]);
        assert_eq!(
            found,
            want.map(|(n, s)| (n.to_string(), s)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_resolved_plan_passes_as_a_borrow_and_a_moved_one_is_redone() {
        let e = Expr::let_in("x", Expr::var("s"), Expr::var("x"));
        let once = resolve(&e).expr.into_owned();
        assert!(matches!(resolve(&once).expr, Cow::Borrowed(_)));
        // Wrapping the plan in a binder of `s` makes its `s` bound.
        let wrapped = Expr::lam("s", Type::set(Type::Base), once);
        let again = resolve(&wrapped);
        assert!(again.free.is_empty());
        assert_eq!(slots(&again.expr)[0], ("s".to_string(), Slot::Bound(0)));
    }

    #[test]
    fn frames_read_by_position() {
        let frames = Frames(None).bind('a').bind('b');
        assert_eq!(
            (frames.get(0), frames.get(1), frames.get(2)),
            (Some(&'b'), Some(&'a'), None)
        );
    }
}
