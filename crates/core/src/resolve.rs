//! Binder resolution: what every variable of a plan refers to, and what is
//! known of each node, decided once.
//!
//! [`resolve`] is the one place a name is looked up. It gives each [`Var`]
//! its [`Slot`] — its binder's de Bruijn index, or its entry in the plan's
//! table of free (schema) names — and every layer below reads slots: the
//! evaluator and the analyser index `Frames`, the type checker, the kernel
//! compiler and the lint pass index stacks. Names remain for printing,
//! diagnostics and the schema boundary, where the free table meets the
//! bindings or the schema once per plan.
//!
//! The same walk, with the same binder stack, records the facts of every
//! node: its size, whether it is closed, whether its binder is read, and its
//! *depth of recursion nesting* (§3), which places a flat query of depth
//! `k ≥ 1` in ACᵏ (Theorem 6.2; Theorem 6.1 with `bdcr`):
//! `depth(dcr(e, f, u)) = max(depth e, depth f, 1 + depth u)`, since only the
//! combiner is iterated — likewise the step of an `sri` and the body of an
//! iterator ([`Expr::children`]'s `iterated` flag). The lint pass and the
//! optimizer read these facts instead of walking for them.
//!
//! Slots are a function of the tree, so a builder that wraps a plan in a new
//! binder, or a rewrite that moves a body under one, leaves them stale. Every
//! entry point that accepts a tree resolves it, and a tree whose slots are
//! current passes through as it came, borrowed or owned: one walk, no copy.

use crate::expr::{Expr, ExprKind, Slot, Var};
use std::borrow::Cow;
use std::sync::Arc;

/// A plan with every variable's slot current: what the layers below take.
#[derive(Debug)]
pub struct Resolved<'e> {
    /// The input itself when its slots were current, else a copy.
    pub expr: Cow<'e, Expr>,
    /// The free names in order of first occurrence: `Slot::Free(i)` is `free[i]`.
    pub free: Vec<String>,
    /// The facts of every node of `expr`, in pre-order: a node's children
    /// follow it, each after the previous child's `size` entries.
    pub(crate) facts: Vec<Facts>,
}

/// What is known of one node of a resolved plan.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Facts {
    /// The number of nodes of its subtree, itself included.
    pub(crate) size: usize,
    /// It reads no binder outside itself and no schema relation.
    pub(crate) closed: bool,
    /// For a `λ` or `let`: its body reads the binder.
    pub(crate) used: bool,
    /// Its depth of recursion nesting (§3): 0 without a recursor or iterator.
    pub(crate) depth: usize,
}

impl Resolved<'_> {
    /// The plan's depth of recursion/iteration nesting (§3 and §7.1).
    pub fn recursion_depth(&self) -> usize {
        self.facts[0].depth
    }
}

/// Resolve every variable of `expr`, borrowed or owned, and record its facts.
pub fn resolve<'e>(expr: impl Into<Cow<'e, Expr>>) -> Resolved<'e> {
    let expr = expr.into();
    let mut walk = Walk::default();
    let resolved = walk.visit(&expr).0;
    let Walk { free, facts, .. } = walk;
    let expr = resolved.map_or(expr, Cow::Owned);
    Resolved { expr, free, facts }
}

impl<'e> From<&'e Expr> for Cow<'e, Expr> {
    fn from(expr: &'e Expr) -> Self {
        Cow::Borrowed(expr)
    }
}

impl From<Expr> for Cow<'_, Expr> {
    fn from(expr: Expr) -> Self {
        Cow::Owned(expr)
    }
}

/// The state of the one walk.
#[derive(Default)]
struct Walk<'e> {
    /// The binders in scope, innermost last, each with whether it was read.
    scope: Vec<(&'e str, bool)>,
    free: Vec<String>,
    facts: Vec<Facts>,
}

impl<'e> Walk<'e> {
    /// `expr` under `scope` with its slots set, or `None` when all were
    /// current, and the outermost binder it reads: `i + 1` for the `i`th from
    /// the root, 0 for a free name, `usize::MAX` for none. Pushes the facts of
    /// its nodes in pre-order; a free name not yet in `free` joins it.
    fn visit(&mut self, expr: &'e Expr) -> (Option<Expr>, usize) {
        let (at, depth) = (self.facts.len(), self.scope.len());
        self.facts.push(Facts::default());
        if let ExprKind::Var(x) = &expr.kind {
            self.facts[at].size = 1;
            let (slot, outermost) = match self.scope.iter().rposition(|(b, _)| *b == x.name) {
                Some(i) => {
                    self.scope[i].1 = true;
                    (Slot::Bound(depth - 1 - i), i + 1)
                }
                None => {
                    let free = &mut self.free;
                    let i = free.iter().position(|f| *f == x.name).unwrap_or_else(|| {
                        free.push(x.name.clone());
                        free.len() - 1
                    });
                    (Slot::Free(i), 0)
                }
            };
            let resolved = (x.slot != slot).then(|| Expr {
                kind: ExprKind::Var(Var { slot, ..x.clone() }),
                span: expr.span,
            });
            return (resolved, outermost);
        }
        let children = expr.children();
        // The children so far, once one of them changed: a current tree
        // allocates nothing.
        let mut resolved: Option<Vec<Expr>> = None;
        let mut outermost = usize::MAX;
        for (i, child) in children.iter().enumerate() {
            let child_at = self.facts.len();
            self.scope.extend(child.binds.map(|b| (b, false)));
            let (new, reads) = self.visit(child.expr);
            if child.binds.is_some() {
                self.facts[at].used = self.scope.pop().expect("pushed above").1;
            }
            outermost = outermost.min(reads);
            let nested = self.facts[child_at].depth + usize::from(child.iterated);
            self.facts[at].depth = self.facts[at].depth.max(nested);
            if resolved.is_none() && new.is_some() {
                resolved = Some(children[..i].iter().map(|c| c.expr.clone()).collect());
            }
            if let Some(kids) = &mut resolved {
                kids.push(new.unwrap_or_else(|| child.expr.clone()));
            }
        }
        self.facts[at].size = self.facts.len() - at;
        self.facts[at].closed = outermost > depth;
        (resolved.map(|kids| expr.with_children(kids)), outermost)
    }
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
    fn the_walk_records_each_nodes_facts_in_pre_order() {
        // \x. let y = {@1} in x: `y` is never read, `{@1}` is closed.
        let one = Expr::singleton(Expr::atom(1));
        let e = Expr::lam("x", Type::Base, Expr::let_in("y", one, Expr::var("x")));
        let plan = resolve(&e);
        let facts: Vec<_> = (plan.facts.iter())
            .map(|f| (f.size, f.closed, f.used))
            .collect();
        let want = [
            (5, true, true),
            (4, false, false),
            (2, true, false),
            (1, true, false),
            (1, false, false),
        ];
        assert_eq!(facts, want);
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
