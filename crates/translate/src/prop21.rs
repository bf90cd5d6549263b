//! Proposition 2.1: the non-immediate relationships between the four forms of
//! recursion on sets, as source-to-source translations.
//!
//! ```text
//! dcr(e, f, u)  =  esr(e, λ(x, y). u(f(x), y))
//! esr(e, i)     =  π₂( sri( (∅, e),
//!                           λ(x, (s, y)). if x ∈ s then (s, y)
//!                                         else (x ⊲ s, i(x, y)) ) )
//! sru(e, f, u)  =  sri(e, λ(x, y). u(f(x), y))
//! ```
//!
//! All three are "at most polynomial overhead" (the paper's phrasing);
//! `overhead_is_polynomial_but_span_grows` and the `prop21_*` tests of
//! `tests/translations_and_circuits.rs` check the semantic equivalence and the
//! overhead factor in evaluator work.

use ncql_core::derived;
use ncql_core::expr::{fresh_var, Expr};
use ncql_object::Type;

/// The combining step shared by all three `{dcr, sru} → {esr, sri}`
/// translations: `λ(x, y). u(f(x), y)` over a fresh pair binder of type
/// `elem_ty × acc_ty`. Administrative redexes are removed with
/// [`Expr::apply_lam`] when `f` or `u` are literal λ-abstractions, so
/// translated plans print as `let`-chains instead of towers of immediately
/// applied lambdas — the same normal shape the algebraic rewriter produces.
pub fn combine_step(f: Expr, u: Expr, elem_ty: Type, acc_ty: Type) -> Expr {
    let x = fresh_var("x");
    let y = fresh_var("y");
    Expr::lam2(
        x.clone(),
        y.clone(),
        Type::prod(elem_ty, acc_ty),
        Expr::apply_lam(
            u,
            Expr::pair(Expr::apply_lam(f, Expr::var(x)), Expr::var(y)),
        ),
    )
}

/// Translate `dcr(e, f, u)(arg)` into the equivalent `esr` expression.
/// `elem_ty` is the element type of `arg`, `acc_ty` the accumulator type `t`.
pub fn dcr_via_esr(e: Expr, f: Expr, u: Expr, arg: Expr, elem_ty: Type, acc_ty: Type) -> Expr {
    Expr::esr(e, combine_step(f, u, elem_ty, acc_ty), arg)
}

/// Translate `sru(e, f, u)(arg)` into the equivalent `sri` expression (valid
/// because `sru` requires `u` idempotent, which gives the i-idempotence `sri`
/// needs).
pub fn sru_via_sri(e: Expr, f: Expr, u: Expr, arg: Expr, elem_ty: Type, acc_ty: Type) -> Expr {
    Expr::sri(e, combine_step(f, u, elem_ty, acc_ty), arg)
}

/// Translate `esr(e, i)(arg)` into the equivalent `sri` expression: the
/// accumulator is enriched with the set of elements already processed, and the
/// step is skipped for elements already seen — which makes the enriched step
/// i-idempotent even when `i` itself is not.
pub fn esr_via_sri(e: Expr, i: Expr, arg: Expr, elem_ty: Type, acc_ty: Type) -> Expr {
    let x = fresh_var("x");
    let p = fresh_var("seenacc");
    let seen_ty = Type::set(elem_ty.clone());
    let pair_ty = Type::prod(seen_ty.clone(), acc_ty);
    let step = Expr::lam2(
        x.clone(),
        p.clone(),
        Type::prod(elem_ty.clone(), pair_ty),
        Expr::ite(
            derived::member(
                elem_ty.clone(),
                Expr::var(x.clone()),
                Expr::proj1(Expr::var(p.clone())),
            ),
            Expr::var(p.clone()),
            Expr::pair(
                Expr::union(
                    Expr::singleton(Expr::var(x.clone())),
                    Expr::proj1(Expr::var(p.clone())),
                ),
                Expr::app(i, Expr::pair(Expr::var(x), Expr::proj2(Expr::var(p)))),
            ),
        ),
    );
    Expr::proj2(Expr::sri(Expr::pair(Expr::empty(elem_ty), e), step, arg))
}

/// Translate `dcr(e, f, u)(arg)` all the way down to `sri` (composition of the
/// two translations above).
pub fn dcr_via_sri(e: Expr, f: Expr, u: Expr, arg: Expr, elem_ty: Type, acc_ty: Type) -> Expr {
    let step = combine_step(f, u, elem_ty.clone(), acc_ty.clone());
    esr_via_sri(e, step, arg, elem_ty, acc_ty)
}

/// Overhead report comparing a direct expression against its translation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Work of the direct (source) evaluation.
    pub direct_work: u64,
    /// Work of the translated evaluation.
    pub translated_work: u64,
    /// Span of the direct evaluation.
    pub direct_span: u64,
    /// Span of the translated evaluation.
    pub translated_span: u64,
}

impl OverheadReport {
    /// The multiplicative work overhead of the translation.
    pub fn work_factor(&self) -> f64 {
        self.translated_work as f64 / self.direct_work.max(1) as f64
    }

    /// The multiplicative span overhead (for Prop 2.1 translations this is
    /// expected to be large: the target forms are sequential).
    pub fn span_factor(&self) -> f64 {
        self.translated_span as f64 / self.direct_span.max(1) as f64
    }
}

/// Evaluate both expressions (which must be closed and semantically equivalent)
/// and report the cost overhead. Returns `None` if the results differ — which
/// the tests treat as a translation bug.
pub fn measure_overhead(direct: &Expr, translated: &Expr) -> Option<OverheadReport> {
    let (dv, ds) = ncql_core::eval::eval_with_stats(direct).ok()?;
    let (tv, ts) = ncql_core::eval::eval_with_stats(translated).ok()?;
    if dv != tv {
        return None;
    }
    Some(OverheadReport {
        direct_work: ds.work,
        translated_work: ts.work,
        direct_span: ds.span,
        translated_span: ts.span,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncql_core::eval::eval_closed;
    use ncql_core::typecheck::typecheck_closed;
    use ncql_object::Value;

    fn atoms(v: Vec<u64>) -> Expr {
        Expr::constant(Value::atom_set(v))
    }

    fn xor_u() -> Expr {
        Expr::lam2(
            "a",
            "b",
            Type::prod(Type::Bool, Type::Bool),
            derived::xor(Expr::var("a"), Expr::var("b")),
        )
    }

    fn true_f() -> Expr {
        Expr::lam("y", Type::Base, Expr::bool_val(true))
    }

    #[test]
    fn parity_dcr_equals_its_esr_translation() {
        for n in [0u64, 1, 2, 5, 8, 13] {
            let input = atoms((0..n).collect());
            let direct = Expr::dcr(Expr::bool_val(false), true_f(), xor_u(), input.clone());
            let translated = dcr_via_esr(
                Expr::bool_val(false),
                true_f(),
                xor_u(),
                input,
                Type::Base,
                Type::Bool,
            );
            assert!(typecheck_closed(&translated).is_ok());
            assert_eq!(
                eval_closed(&direct).unwrap(),
                eval_closed(&translated).unwrap(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn union_sru_equals_its_sri_translation() {
        // sru(∅, λy.{y}, ∪) is the identity on sets of atoms.
        let f = Expr::lam("y", Type::Base, Expr::singleton(Expr::var("y")));
        let u = derived::union_combiner(Type::Base);
        let input = atoms(vec![4, 1, 7]);
        let direct = Expr::sru(Expr::empty(Type::Base), f.clone(), u.clone(), input.clone());
        let translated = sru_via_sri(
            Expr::empty(Type::Base),
            f,
            u,
            input,
            Type::Base,
            Type::set(Type::Base),
        );
        assert_eq!(
            eval_closed(&direct).unwrap(),
            eval_closed(&translated).unwrap()
        );
    }

    #[test]
    fn esr_via_sri_skips_duplicates_via_seen_set() {
        // esr counting step: i(x, acc) = acc + 1 over naturals (not i-idempotent,
        // which is exactly why esr rather than sri is needed directly).
        let i = Expr::lam2(
            "x",
            "acc",
            Type::prod(Type::Base, Type::Nat),
            Expr::extern_call("nat_add", vec![Expr::var("acc"), Expr::nat(1)]),
        );
        let input = atoms(vec![3, 1, 4, 1, 5]);
        let direct = Expr::esr(Expr::nat(0), i.clone(), input.clone());
        let translated = esr_via_sri(Expr::nat(0), i, input, Type::Base, Type::Nat);
        assert!(typecheck_closed(&translated).is_ok());
        assert_eq!(eval_closed(&direct).unwrap(), Value::Nat(4));
        assert_eq!(eval_closed(&translated).unwrap(), Value::Nat(4));
    }

    #[test]
    fn dcr_via_sri_full_chain() {
        let input = atoms((0..9).collect());
        let direct = Expr::dcr(Expr::bool_val(false), true_f(), xor_u(), input.clone());
        let translated = dcr_via_sri(
            Expr::bool_val(false),
            true_f(),
            xor_u(),
            input,
            Type::Base,
            Type::Bool,
        );
        assert_eq!(
            eval_closed(&direct).unwrap(),
            eval_closed(&translated).unwrap()
        );
    }

    #[test]
    fn overhead_is_polynomial_but_span_grows() {
        let input = atoms((0..64).collect());
        let direct = Expr::dcr(Expr::bool_val(false), true_f(), xor_u(), input.clone());
        let translated = dcr_via_esr(
            Expr::bool_val(false),
            true_f(),
            xor_u(),
            input,
            Type::Base,
            Type::Bool,
        );
        let report = measure_overhead(&direct, &translated).expect("results must agree");
        // Work overhead is modest (polynomial, here near-linear)…
        assert!(
            report.work_factor() < 10.0,
            "work factor {}",
            report.work_factor()
        );
        // …but the translated form is sequential, so its span is much larger.
        assert!(
            report.span_factor() > 2.0,
            "span factor {}",
            report.span_factor()
        );
    }
}
