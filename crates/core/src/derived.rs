//! Derived operations expressible in NRA (§3).
//!
//! The paper notes that NRA "is powerful enough to express the following
//! functions: set difference, set intersection, cartesian product, database
//! projections, equalities at all types, selections over predicates definable in
//! the language, nest and unnest". This module provides the ones the
//! translations and examples assemble in Rust, as *expression builders*: each
//! function builds the NRA expression that computes the operation, so that
//! everything downstream (evaluation, cost accounting, translation, circuit
//! compilation) still sees pure language terms. Projections, selections and
//! relation composition are written as the `ext` comprehensions they are, in
//! the query texts that use them (`ncql-queries`' pack).
//!
//! Builders take the element types they need because λ-binders are annotated.

use crate::expr::{fresh_var, Expr};
use ncql_object::Type;

/// Boolean negation `not e` — definable as `if e then false else true`.
pub fn not(e: Expr) -> Expr {
    Expr::ite(e, Expr::bool_val(false), Expr::bool_val(true))
}

/// Boolean disjunction.
pub fn or(a: Expr, b: Expr) -> Expr {
    Expr::ite(a, Expr::bool_val(true), b)
}

/// Exclusive or — the combiner of the parity example in §1.
pub fn xor(a: Expr, b: Expr) -> Expr {
    let x = fresh_var("x");
    let y = fresh_var("y");
    Expr::let_in(
        x.clone(),
        a,
        Expr::let_in(
            y.clone(),
            b,
            Expr::ite(Expr::var(x), not(Expr::var(y.clone())), Expr::var(y)),
        ),
    )
}

/// Membership `x ∈ s` for element type `t`:
/// `¬ empty( ext(λy. if y = x then {()} else ∅)(s) )`.
pub fn member(elem_ty: Type, x: Expr, s: Expr) -> Expr {
    let xv = fresh_var("melem");
    let y = fresh_var("y");
    Expr::let_in(
        xv.clone(),
        x,
        not(Expr::is_empty(Expr::ext(
            Expr::lam(
                y.clone(),
                elem_ty,
                Expr::ite(
                    Expr::eq(Expr::var(y), Expr::var(xv)),
                    Expr::singleton(Expr::unit()),
                    Expr::empty(Type::Unit),
                ),
            ),
            s,
        ))),
    )
}

/// Set intersection `r ∩ s` at element type `t`:
/// `ext(λy. if y ∈ s then {y} else ∅)(r)`.
pub fn intersect(elem_ty: Type, r: Expr, s: Expr) -> Expr {
    let sv = fresh_var("iset");
    let y = fresh_var("y");
    Expr::let_in(
        sv.clone(),
        s,
        Expr::ext(
            Expr::lam(
                y.clone(),
                elem_ty.clone(),
                Expr::ite(
                    member(elem_ty.clone(), Expr::var(y.clone()), Expr::var(sv)),
                    Expr::singleton(Expr::var(y)),
                    Expr::empty(elem_ty),
                ),
            ),
            r,
        ),
    )
}

/// Set difference `r \ s` at element type `t`.
pub fn difference(elem_ty: Type, r: Expr, s: Expr) -> Expr {
    let sv = fresh_var("dset");
    let y = fresh_var("y");
    Expr::let_in(
        sv.clone(),
        s,
        Expr::ext(
            Expr::lam(
                y.clone(),
                elem_ty.clone(),
                Expr::ite(
                    member(elem_ty.clone(), Expr::var(y.clone()), Expr::var(sv)),
                    Expr::empty(elem_ty),
                    Expr::singleton(Expr::var(y)),
                ),
            ),
            r,
        ),
    )
}

/// Cartesian product `r × s` for element types `(a, b)`:
/// `ext(λx. ext(λy. {(x, y)})(s))(r)`.
pub fn cartesian_product(a_ty: Type, b_ty: Type, r: Expr, s: Expr) -> Expr {
    let sv = fresh_var("cpset");
    let x = fresh_var("x");
    let y = fresh_var("y");
    Expr::let_in(
        sv.clone(),
        s,
        Expr::ext(
            Expr::lam(
                x.clone(),
                a_ty,
                Expr::ext(
                    Expr::lam(
                        y.clone(),
                        b_ty,
                        Expr::singleton(Expr::pair(Expr::var(x.clone()), Expr::var(y))),
                    ),
                    Expr::var(sv),
                ),
            ),
            r,
        ),
    )
}

/// Flatten a set of sets: `ext(λs. s)(ss)` — the "big union".
pub fn flatten(elem_ty: Type, ss: Expr) -> Expr {
    let s = fresh_var("s");
    Expr::ext(Expr::lam(s.clone(), Type::set(elem_ty), Expr::var(s)), ss)
}

/// Unnest `{(a × {b})} → {(a × b)}`.
pub fn unnest(a_ty: Type, b_ty: Type, r: Expr) -> Expr {
    let p = fresh_var("p");
    let y = fresh_var("y");
    Expr::ext(
        Expr::lam(
            p.clone(),
            Type::prod(a_ty, Type::set(b_ty.clone())),
            Expr::ext(
                Expr::lam(
                    y.clone(),
                    b_ty,
                    Expr::singleton(Expr::pair(Expr::proj1(Expr::var(p.clone())), Expr::var(y))),
                ),
                Expr::proj2(Expr::var(p)),
            ),
        ),
        r,
    )
}

/// Nest `{(a × b)} → {(a × {b})}`: group the second components by the first.
pub fn nest(a_ty: Type, b_ty: Type, r: Expr) -> Expr {
    let rv = fresh_var("nrel");
    let p = fresh_var("p");
    let q = fresh_var("q");
    let pair_ty = Type::prod(a_ty, b_ty.clone());
    Expr::let_in(
        rv.clone(),
        r,
        Expr::ext(
            Expr::lam(
                p.clone(),
                pair_ty.clone(),
                Expr::singleton(Expr::pair(
                    Expr::proj1(Expr::var(p.clone())),
                    Expr::ext(
                        Expr::lam(
                            q.clone(),
                            pair_ty,
                            Expr::ite(
                                Expr::eq(
                                    Expr::proj1(Expr::var(q.clone())),
                                    Expr::proj1(Expr::var(p.clone())),
                                ),
                                Expr::singleton(Expr::proj2(Expr::var(q))),
                                Expr::empty(b_ty.clone()),
                            ),
                        ),
                        Expr::var(rv.clone()),
                    ),
                )),
            ),
            Expr::var(rv),
        ),
    )
}

/// `ext(f)` expressed through `sru` as the paper remarks: `sru(∅, λx.{x}, ∪)`
/// post-composed with `f` — provided here to let tests confirm the equivalence
/// (and the span penalty of the derived form, which needs `log n` combining
/// steps instead of one parallel step).
pub fn ext_via_sru(elem_ty: Type, result_elem_ty: Type, f: Expr, s: Expr) -> Expr {
    let x = fresh_var("x");
    Expr::sru(
        Expr::empty(result_elem_ty.clone()),
        Expr::lam(x.clone(), elem_ty, Expr::app(f, Expr::var(x))),
        union_combiner(result_elem_ty),
        s,
    )
}

/// The union combiner `λ(a, b). a ∪ b` at set-of-`t` type, a building block for
/// many recursions.
pub fn union_combiner(elem_ty: Type) -> Expr {
    let ty = Type::set(elem_ty);
    Expr::lam2(
        "a",
        "b",
        Type::prod(ty.clone(), ty),
        Expr::union(Expr::var("a"), Expr::var("b")),
    )
}

/// `get : {D} × D → D` from §7.1: `get(x, y) = if x = {z} then z else y` —
/// extracts the unique element of a singleton set, with a default. Definable with
/// `dcr` but not with `log-loop`; provided as a builder over `dcr` exactly as the
/// paper uses it (to strip the final singleton produced by the halving
/// simulation). Works at any element type `t` that is *not* required to be a
/// PS-type because it uses plain `dcr`.
pub fn get_singleton(elem_ty: Type, x: Expr, default: Expr) -> Expr {
    let d = fresh_var("default");
    let y = fresh_var("y");
    Expr::let_in(
        d.clone(),
        default,
        Expr::dcr(
            Expr::var(d.clone()),
            Expr::lam(y.clone(), elem_ty.clone(), Expr::var(y)),
            // Combiner: if either side is the default we keep the other; on a
            // genuine singleton input the combiner is never applied, so any
            // commutative choice works. We pick "left if equal else left" — for
            // singleton inputs dcr applies f once and never u.
            Expr::lam2(
                "a",
                "b",
                Type::prod(elem_ty.clone(), elem_ty),
                Expr::ite(
                    Expr::eq(Expr::var("a"), Expr::var(d)),
                    Expr::var("b"),
                    Expr::var("a"),
                ),
            ),
            x,
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_closed;
    use crate::typecheck::typecheck_closed;
    use ncql_object::Value;

    fn atoms(v: Vec<u64>) -> Expr {
        Expr::constant(Value::atom_set(v))
    }

    fn rel(pairs: Vec<(u64, u64)>) -> Expr {
        Expr::constant(Value::relation_from_pairs(pairs))
    }

    #[test]
    fn boolean_connectives() {
        assert_eq!(
            eval_closed(&or(Expr::bool_val(false), Expr::bool_val(true))).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_closed(&not(Expr::bool_val(false))).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_closed(&xor(Expr::bool_val(true), Expr::bool_val(true))).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_closed(&xor(Expr::bool_val(true), Expr::bool_val(false))).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn membership() {
        let e = member(Type::Base, Expr::atom(2), atoms(vec![1, 2, 3]));
        assert_eq!(eval_closed(&e).unwrap(), Value::Bool(true));
        let e2 = member(Type::Base, Expr::atom(9), atoms(vec![1, 2, 3]));
        assert_eq!(eval_closed(&e2).unwrap(), Value::Bool(false));
    }

    #[test]
    fn intersect_difference_typecheck_and_evaluate() {
        let i = intersect(Type::Base, atoms(vec![1, 2, 3]), atoms(vec![2, 3, 4]));
        assert!(typecheck_closed(&i).is_ok());
        assert_eq!(eval_closed(&i).unwrap(), Value::atom_set(vec![2, 3]));
        let d = difference(Type::Base, atoms(vec![1, 2, 3]), atoms(vec![2, 3, 4]));
        assert_eq!(eval_closed(&d).unwrap(), Value::atom_set(vec![1]));
    }

    #[test]
    fn cartesian_product_works() {
        let p = cartesian_product(Type::Base, Type::Base, atoms(vec![1, 2]), atoms(vec![3, 4]));
        assert!(typecheck_closed(&p).is_ok());
        assert_eq!(
            eval_closed(&p).unwrap(),
            Value::relation_from_pairs(vec![(1, 3), (1, 4), (2, 3), (2, 4)])
        );
    }

    #[test]
    fn flatten_nest_unnest() {
        let nested = Expr::constant(Value::set_from(vec![
            Value::atom_set(vec![1, 2]),
            Value::atom_set(vec![2, 3]),
        ]));
        assert_eq!(
            eval_closed(&flatten(Type::Base, nested)).unwrap(),
            Value::atom_set(vec![1, 2, 3])
        );

        let r = rel(vec![(1, 10), (1, 11), (2, 20)]);
        let n = nest(Type::Base, Type::Base, r.clone());
        assert!(typecheck_closed(&n).is_ok());
        let expected = Value::set_from(vec![
            Value::pair(Value::Atom(1), Value::atom_set(vec![10, 11])),
            Value::pair(Value::Atom(2), Value::atom_set(vec![20])),
        ]);
        assert_eq!(eval_closed(&n).unwrap(), expected);

        // unnest ∘ nest = identity on relations.
        let un = unnest(Type::Base, Type::Base, n);
        assert_eq!(
            eval_closed(&un).unwrap(),
            Value::relation_from_pairs(vec![(1, 10), (1, 11), (2, 20)])
        );
    }

    #[test]
    fn ext_via_sru_agrees_with_primitive_ext() {
        let f = Expr::lam(
            "z",
            Type::Base,
            Expr::union(
                Expr::singleton(Expr::var("z")),
                Expr::singleton(Expr::atom(0)),
            ),
        );
        let direct = Expr::ext(f.clone(), atoms(vec![1, 2, 3]));
        let derived = ext_via_sru(Type::Base, Type::Base, f, atoms(vec![1, 2, 3]));
        assert_eq!(
            eval_closed(&direct).unwrap(),
            eval_closed(&derived).unwrap()
        );
    }

    #[test]
    fn get_extracts_singleton_element() {
        let g = get_singleton(Type::Base, atoms(vec![42]), Expr::atom(0));
        assert_eq!(eval_closed(&g).unwrap(), Value::Atom(42));
        let empty = get_singleton(Type::Base, Expr::empty(Type::Base), Expr::atom(7));
        assert_eq!(eval_closed(&empty).unwrap(), Value::Atom(7));
    }

    #[test]
    fn derived_forms_typecheck() {
        let checks = vec![
            member(Type::Base, Expr::atom(1), atoms(vec![1])),
            intersect(Type::Base, atoms(vec![1]), atoms(vec![2])),
            difference(Type::Base, atoms(vec![1]), atoms(vec![2])),
            cartesian_product(Type::Base, Type::Base, atoms(vec![1]), atoms(vec![2])),
            flatten(
                Type::Base,
                Expr::constant(Value::set_from(vec![Value::atom_set(vec![1])])),
            ),
            nest(Type::Base, Type::Base, rel(vec![(1, 2)])),
            unnest(
                Type::Base,
                Type::Base,
                Expr::constant(Value::set_from(vec![Value::pair(
                    Value::Atom(1),
                    Value::atom_set(vec![2]),
                )])),
            ),
        ];
        for e in checks {
            typecheck_closed(&e).unwrap_or_else(|err| panic!("{err} in {e}"));
        }
    }
}
