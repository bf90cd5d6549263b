//! Proposition 2.2: over flat relations, `bdcr` together with the relational
//! algebra can express (unbounded) `dcr`, and similarly `bsri` expresses `sri`.
//!
//! The point of the proposition is that the explicit bound required over complex
//! objects is *unnecessary* over flat relations: every intermediate value of a
//! flat-relation-valued recursion is a set of tuples over the active domain of
//! the input, so the relational algebra can build a bounding set (a cartesian
//! power of the active domain) ahead of the recursion and thread it through
//! `bdcr` without changing the result.
//!
//! The builders here take the *universe* (active domain) expression explicitly —
//! in practice `Π₁(r) ∪ Π₂(r) ∪ …` over the input relations — and assemble the
//! bound for unary (`{D}`) and binary (`{D × D}`) result types.

use ncql_core::derived;
use ncql_core::expr::{fresh_var, Expr};
use ncql_object::Type;

/// Build the bound for a unary-relation-valued recursion: the universe itself.
pub fn unary_bound(universe: Expr) -> Expr {
    universe
}

/// Build the bound for a binary-relation-valued recursion: `universe × universe`.
pub fn binary_bound(universe: Expr) -> Expr {
    let u = fresh_var("bduniv");
    Expr::let_in(
        u.clone(),
        universe,
        derived::cartesian_product(Type::Base, Type::Base, Expr::var(u.clone()), Expr::var(u)),
    )
}

/// Express `dcr(e, f, u)(arg)` with a **unary**-relation result type `{D}`
/// through `bdcr`, bounding by the given universe.
pub fn dcr_via_bdcr_unary(e: Expr, f: Expr, u: Expr, arg: Expr, universe: Expr) -> Expr {
    Expr::bdcr(e, f, u, unary_bound(universe), arg)
}

/// Express `dcr(e, f, u)(arg)` with a **binary**-relation result type `{D × D}`
/// through `bdcr`, bounding by `universe × universe`.
pub fn dcr_via_bdcr_binary(e: Expr, f: Expr, u: Expr, arg: Expr, universe: Expr) -> Expr {
    Expr::bdcr(e, f, u, binary_bound(universe), arg)
}

/// Express `sri(e, i)(arg)` with a binary-relation result through `bsri`.
pub fn sri_via_bsri_binary(e: Expr, i: Expr, arg: Expr, universe: Expr) -> Expr {
    Expr::bsri(e, i, binary_bound(universe), arg)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ncql_core::eval::eval_closed;
    use ncql_core::typecheck::typecheck_closed;
    use ncql_object::Value;

    /// `r ∘ s` over binary relations: `{(pi1 a, pi2 b) | a ∈ r, b ∈ s, pi2 a = pi1 b}`.
    pub(crate) fn compose(r: Expr, s: Expr) -> Expr {
        let edge = Type::prod(Type::Base, Type::Base);
        let (a, b) = (Expr::var("a"), Expr::var("b"));
        let joined = Expr::ite(
            Expr::eq(Expr::proj2(a.clone()), Expr::proj1(b.clone())),
            Expr::singleton(Expr::pair(Expr::proj1(a), Expr::proj2(b))),
            Expr::empty(edge.clone()),
        );
        let inner = Expr::ext(Expr::lam("b", edge.clone(), joined), s);
        Expr::ext(Expr::lam("a", edge, inner), r)
    }

    /// The §1 transitive-closure dcr, in both unbounded and bounded form, over a
    /// small graph: Proposition 2.2 says they agree.
    #[test]
    fn transitive_closure_bounded_equals_unbounded() {
        let pairs = vec![(0u64, 1u64), (1, 2), (2, 3), (3, 0), (5, 6)];
        let r = Expr::constant(Value::relation_from_pairs(pairs.clone()));
        let rel_ty = Type::binary_relation();
        let f = Expr::lam("y", Type::Base, r.clone());
        let u = Expr::lam2(
            "r1",
            "r2",
            Type::prod(rel_ty.clone(), rel_ty.clone()),
            Expr::union(
                Expr::union(Expr::var("r1"), Expr::var("r2")),
                compose(Expr::var("r1"), Expr::var("r2")),
            ),
        );
        let edge = Type::prod(Type::Base, Type::Base);
        let column = |proj: fn(Expr) -> Expr| {
            let e = Expr::lam("e", edge.clone(), Expr::singleton(proj(Expr::var("e"))));
            Expr::ext(e, r.clone())
        };
        let vertices = Expr::union(column(Expr::proj1), column(Expr::proj2));
        let direct = Expr::dcr(
            Expr::empty(Type::prod(Type::Base, Type::Base)),
            f.clone(),
            u.clone(),
            vertices.clone(),
        );
        let bounded = dcr_via_bdcr_binary(
            Expr::empty(Type::prod(Type::Base, Type::Base)),
            f,
            u,
            vertices.clone(),
            vertices,
        );
        assert!(typecheck_closed(&bounded).is_ok());
        assert_eq!(
            eval_closed(&direct).unwrap(),
            eval_closed(&bounded).unwrap()
        );
    }

    #[test]
    fn unary_bounded_recursion_agrees() {
        // dcr computing the union of singletons (identity on sets), bounded by the
        // set itself.
        let input = Expr::constant(Value::atom_set(vec![2, 4, 6]));
        let f = Expr::lam("y", Type::Base, Expr::singleton(Expr::var("y")));
        let u = derived::union_combiner(Type::Base);
        let direct = Expr::dcr(Expr::empty(Type::Base), f.clone(), u.clone(), input.clone());
        let bounded =
            dcr_via_bdcr_unary(Expr::empty(Type::Base), f, u, input.clone(), input.clone());
        assert_eq!(
            eval_closed(&direct).unwrap(),
            eval_closed(&bounded).unwrap()
        );
    }

    #[test]
    fn bounded_sri_agrees_with_sri() {
        let rel_elem = Type::prod(Type::Base, Type::Base);
        let input = Expr::constant(Value::atom_set(vec![1, 2, 3]));
        // sri building the diagonal relation {(v, v)}.
        let i = Expr::lam2(
            "x",
            "acc",
            Type::prod(Type::Base, Type::set(rel_elem.clone())),
            Expr::union(
                Expr::singleton(Expr::pair(Expr::var("x"), Expr::var("x"))),
                Expr::var("acc"),
            ),
        );
        let direct = Expr::sri(Expr::empty(rel_elem.clone()), i.clone(), input.clone());
        let bounded = sri_via_bsri_binary(Expr::empty(rel_elem), i, input.clone(), input);
        assert_eq!(
            eval_closed(&direct).unwrap(),
            eval_closed(&bounded).unwrap()
        );
        assert_eq!(
            eval_closed(&bounded).unwrap(),
            Value::relation_from_pairs(vec![(1, 1), (2, 2), (3, 3)])
        );
    }

    #[test]
    fn binary_bound_is_the_square_of_the_universe() {
        let b = binary_bound(Expr::constant(Value::atom_set(vec![1, 2])));
        assert_eq!(
            eval_closed(&b).unwrap(),
            Value::relation_from_pairs(vec![(1, 1), (1, 2), (2, 1), (2, 2)])
        );
    }
}
