//! Powerset — the query that forces *bounded* recursion over complex objects.
//!
//! §2: "over complex objects dcr (and even sru) can express powerset hence we
//! need some restriction if we are to stay within NC." The construction is
//! `dcr({∅}, λy. {∅, {y}}, λ(p1, p2). { a ∪ b | a ∈ p1, b ∈ p2 })`.
//!
//! The bounded variant `bdcr(…, bound)` intersects with the bound at every step;
//! with a polynomial-size bound the intermediate results stay polynomial, which
//! is the operational content of Theorem 6.1; the two are held against each
//! other by `unbounded_powerset_blows_past_a_resource_limit` and
//! `bounded_variant_stays_small_under_the_same_limit`.

use ncql_core::derived;
use ncql_core::expr::{fresh_var, Expr};
use ncql_object::Type;

/// The element type of a powerset of atoms, `{D}`.
pub fn subset_type() -> Type {
    Type::set(Type::Base)
}

/// The "pairwise union" combiner `λ(p1, p2). { a ∪ b | a ∈ p1, b ∈ p2 }` at type
/// `{{D}} × {{D}} → {{D}}`.
pub fn pairwise_union_combiner() -> Expr {
    let ps = Type::set(subset_type());
    let a = fresh_var("a");
    let b = fresh_var("b");
    Expr::lam2(
        "p1",
        "p2",
        Type::prod(ps.clone(), ps),
        Expr::ext(
            Expr::lam(
                a.clone(),
                subset_type(),
                Expr::ext(
                    Expr::lam(
                        b.clone(),
                        subset_type(),
                        Expr::singleton(Expr::union(Expr::var(a.clone()), Expr::var(b))),
                    ),
                    Expr::var("p2"),
                ),
            ),
            Expr::var("p1"),
        ),
    )
}

/// Unbounded powerset via `dcr` — exponential output size, the complexity
/// blow-up that motivates `bdcr`.
pub fn powerset_dcr(set: Expr) -> Expr {
    Expr::dcr(
        Expr::singleton(Expr::empty(Type::Base)),
        Expr::lam(
            "y",
            Type::Base,
            Expr::union(
                Expr::singleton(Expr::empty(Type::Base)),
                Expr::singleton(Expr::singleton(Expr::var("y"))),
            ),
        ),
        pairwise_union_combiner(),
        set,
    )
}

/// Bounded "powerset" via `bdcr`: the same recursion intersected at every step
/// with the bound `{ {v} | v ∈ set } ∪ {∅}` (singletons and the empty set only),
/// so the result is the *polynomially bounded* portion of the powerset —
/// exactly what Theorem 6.1's bounded recursion guarantees to stay in NC.
pub fn bounded_small_subsets(set: Expr) -> Expr {
    let sv = fresh_var("pset");
    let bound = Expr::union(
        Expr::singleton(Expr::empty(Type::Base)),
        derived::map_set(Type::Base, Expr::var(sv.clone()), Expr::singleton),
    );
    Expr::let_in(
        sv.clone(),
        set,
        Expr::bdcr(
            Expr::singleton(Expr::empty(Type::Base)),
            Expr::lam(
                "y",
                Type::Base,
                Expr::union(
                    Expr::singleton(Expr::empty(Type::Base)),
                    Expr::singleton(Expr::singleton(Expr::var("y"))),
                ),
            ),
            pairwise_union_combiner(),
            bound,
            Expr::var(sv),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncql_core::analysis;
    use ncql_core::eval::{eval_closed, EvalConfig, Evaluator};
    use ncql_core::typecheck::typecheck_closed;
    use ncql_core::EvalError;
    use ncql_object::Value;

    fn atoms(v: Vec<u64>) -> Expr {
        Expr::constant(Value::atom_set(v))
    }

    #[test]
    fn powerset_of_small_sets() {
        let out = eval_closed(&powerset_dcr(atoms(vec![1, 2]))).unwrap();
        let expected = Value::set_from(vec![
            Value::empty_set(),
            Value::atom_set(vec![1]),
            Value::atom_set(vec![2]),
            Value::atom_set(vec![1, 2]),
        ]);
        assert_eq!(out, expected);
        // Cardinality 2^n.
        let out5 = eval_closed(&powerset_dcr(atoms((0..5).collect()))).unwrap();
        assert_eq!(out5.cardinality(), Some(32));
    }

    #[test]
    fn powerset_of_empty_set() {
        let out = eval_closed(&powerset_dcr(Expr::empty(Type::Base))).unwrap();
        assert_eq!(out, Value::set_from(vec![Value::empty_set()]));
    }

    #[test]
    fn powerset_typechecks_at_nested_type() {
        let ty = typecheck_closed(&powerset_dcr(atoms(vec![1]))).unwrap();
        assert_eq!(ty, Type::set(Type::set(Type::Base)));
        assert!(!ty.is_flat());
        assert_eq!(analysis::recursion_depth(&powerset_dcr(atoms(vec![1]))), 1);
    }

    #[test]
    fn unbounded_powerset_blows_past_a_resource_limit() {
        let mut ev = Evaluator::new(EvalConfig {
            max_set_size: 4096,
            ..EvalConfig::default()
        });
        let err = ev
            .eval_closed(&powerset_dcr(atoms((0..16).collect())))
            .unwrap_err();
        assert!(matches!(err, EvalError::SetTooLarge { .. }));
    }

    #[test]
    fn bounded_variant_stays_small_under_the_same_limit() {
        let mut ev = Evaluator::new(EvalConfig {
            max_set_size: 4096,
            ..EvalConfig::default()
        });
        let out = ev
            .eval_closed(&bounded_small_subsets(atoms((0..16).collect())))
            .unwrap();
        // Result: the empty set plus the 16 singletons = 17 subsets.
        assert_eq!(out.cardinality(), Some(17));
        assert!(ev.stats().max_set_size <= 4096);
    }

    #[test]
    fn bounded_variant_typechecks() {
        assert_eq!(
            typecheck_closed(&bounded_small_subsets(atoms(vec![1, 2]))).unwrap(),
            Type::set(Type::set(Type::Base))
        );
    }
}
