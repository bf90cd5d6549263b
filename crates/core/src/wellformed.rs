//! Bounded checking of the algebraic preconditions of the recursors (§2).
//!
//! `dcr(e, f, u)` is well-defined only when `u` is associative and commutative
//! with identity `e` on some set containing `e` and the range of `f`; `sru`
//! additionally needs idempotence, and `sri`/`esr` need the step `i` to be
//! i-commutative (and for `sri` i-idempotent). The paper points out that for a
//! language at least as expressive as first-order logic checking these identities
//! is as hard as finite validity, hence Π⁰₁-complete — so there is no complete
//! static check.
//!
//! What *is* possible, and what this module provides, is a **bounded dynamic
//! check**: given a concrete carrier (a finite set of values, normally obtained
//! by evaluating `f` over an actual input together with `e` and some closure
//! under `u`), verify the identities exhaustively over that carrier. This is the
//! precision/cost trade-off a practical implementation of the language would
//! ship, and it is also how the crafted counterexample of §2
//! (`u(x, y) = if p then x ∪ y else x \ y`) is caught (pinned by
//! `set_difference_combiner_is_rejected` below).

use crate::error::EvalError;
use crate::eval::{EvalConfig, Evaluator};
use crate::expr::Expr;
use ncql_object::Value;

/// Outcome of a bounded well-definedness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LawViolation {
    /// `u(e, a) ≠ a` for some carrier element `a`.
    Identity { element: Value, got: Value },
    /// `u(a, b) ≠ u(b, a)`.
    Commutativity { a: Value, b: Value },
    /// `u(u(a, b), c) ≠ u(a, u(b, c))`.
    Associativity { a: Value, b: Value, c: Value },
    /// `u(a, a) ≠ a` (only checked for `sru`).
    Idempotence { a: Value },
    /// `i(x, i(y, s)) ≠ i(y, i(x, s))` (insert-recursor i-commutativity).
    ICommutativity { x: Value, y: Value, s: Value },
    /// `i(x, i(x, s)) ≠ i(x, s)` (insert-recursor i-idempotence, `sri` only).
    IIdempotence { x: Value, s: Value },
}

/// Report of a bounded check: either no violation was found over the carrier, or
/// the first violations encountered (up to `max_violations`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WellFormednessReport {
    /// Number of carrier elements inspected.
    pub carrier_size: usize,
    /// Number of combiner evaluations performed.
    pub checks_performed: usize,
    /// The violations found (empty means the instance passed the bounded check).
    pub violations: Vec<LawViolation>,
}

impl WellFormednessReport {
    /// Did the instance pass the bounded check?
    pub fn is_well_formed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Options for the bounded checker.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Cap on the number of carrier elements considered (the carrier is truncated
    /// to this size to keep the O(n³) associativity sweep tractable).
    pub max_carrier: usize,
    /// Stop after this many violations.
    pub max_violations: usize,
    /// Also require idempotence of the combiner (for `sru`).
    pub require_idempotence: bool,
}

impl Default for CheckOptions {
    fn default() -> CheckOptions {
        CheckOptions {
            max_carrier: 12,
            max_violations: 3,
            require_idempotence: false,
        }
    }
}

/// A checker that evaluates combiner/step expressions against concrete values.
pub struct LawChecker {
    evaluator: Evaluator,
}

impl Default for LawChecker {
    fn default() -> Self {
        LawChecker::new(EvalConfig::default())
    }
}

impl LawChecker {
    /// Create a checker with an explicit evaluator configuration.
    pub fn new(config: EvalConfig) -> LawChecker {
        LawChecker {
            evaluator: Evaluator::new(config),
        }
    }

    fn apply2(&mut self, op: &Expr, a: &Value, b: &Value) -> Result<Value, EvalError> {
        // Build the application op((a, b)) with the operands supplied as bindings,
        // so that `op` itself may be any closed combiner expression.
        let call = Expr::app(
            op.clone(),
            Expr::pair(Expr::var("%law_a"), Expr::var("%law_b")),
        );
        self.evaluator.eval_with_bindings(
            &call,
            &[
                ("%law_a".to_string(), a.clone()),
                ("%law_b".to_string(), b.clone()),
            ],
        )
    }

    /// Build a carrier for a `dcr(e, f, u)` instance from a concrete input set:
    /// `{e} ∪ { f(x) | x ∈ input } ∪` one round of pairwise `u`-combinations.
    /// This approximates "some set containing e and the range of f" closed under
    /// the combinations the evaluation will actually perform.
    pub fn carrier_for_dcr(
        &mut self,
        e: &Expr,
        f: &Expr,
        u: &Expr,
        input: &Value,
        options: &CheckOptions,
    ) -> Result<Vec<Value>, EvalError> {
        let mut carrier = Vec::new();
        let e_val = self.evaluator.eval_closed(e)?;
        carrier.push(e_val);
        if let Value::Set(s) = input {
            for x in s.iter().take(options.max_carrier) {
                let call = Expr::app(f.clone(), Expr::var("%law_x"));
                let v = self
                    .evaluator
                    .eval_with_bindings(&call, &[("%law_x".to_string(), x.clone())])?;
                if !carrier.contains(&v) {
                    carrier.push(v);
                }
            }
        }
        // One closure round under u.
        let snapshot = carrier.clone();
        for a in &snapshot {
            for b in &snapshot {
                if carrier.len() >= options.max_carrier {
                    break;
                }
                let v = self.apply2(u, a, b)?;
                if !carrier.contains(&v) {
                    carrier.push(v);
                }
            }
        }
        carrier.truncate(options.max_carrier);
        Ok(carrier)
    }

    /// Check associativity, commutativity, identity (and optionally idempotence)
    /// of the combiner `u` with unit `e` over the given carrier.
    pub fn check_combiner(
        &mut self,
        e: &Expr,
        u: &Expr,
        carrier: &[Value],
        options: &CheckOptions,
    ) -> Result<WellFormednessReport, EvalError> {
        let mut report = WellFormednessReport {
            carrier_size: carrier.len(),
            checks_performed: 0,
            violations: Vec::new(),
        };
        let e_val = self.evaluator.eval_closed(e)?;

        // Identity.
        for a in carrier {
            report.checks_performed += 1;
            let got = self.apply2(u, &e_val, a)?;
            if &got != a {
                report.violations.push(LawViolation::Identity {
                    element: a.clone(),
                    got,
                });
                if report.violations.len() >= options.max_violations {
                    return Ok(report);
                }
            }
        }
        // Commutativity.
        for (i, a) in carrier.iter().enumerate() {
            for b in &carrier[i + 1..] {
                report.checks_performed += 1;
                let ab = self.apply2(u, a, b)?;
                let ba = self.apply2(u, b, a)?;
                if ab != ba {
                    report.violations.push(LawViolation::Commutativity {
                        a: a.clone(),
                        b: b.clone(),
                    });
                    if report.violations.len() >= options.max_violations {
                        return Ok(report);
                    }
                }
            }
        }
        // Idempotence (sru only).
        if options.require_idempotence {
            for a in carrier {
                report.checks_performed += 1;
                let aa = self.apply2(u, a, a)?;
                if &aa != a {
                    report
                        .violations
                        .push(LawViolation::Idempotence { a: a.clone() });
                    if report.violations.len() >= options.max_violations {
                        return Ok(report);
                    }
                }
            }
        }
        // Associativity.
        for a in carrier {
            for b in carrier {
                for c in carrier {
                    report.checks_performed += 1;
                    let ab = self.apply2(u, a, b)?;
                    let ab_c = self.apply2(u, &ab, c)?;
                    let bc = self.apply2(u, b, c)?;
                    let a_bc = self.apply2(u, a, &bc)?;
                    if ab_c != a_bc {
                        report.violations.push(LawViolation::Associativity {
                            a: a.clone(),
                            b: b.clone(),
                            c: c.clone(),
                        });
                        if report.violations.len() >= options.max_violations {
                            return Ok(report);
                        }
                    }
                }
            }
        }
        Ok(report)
    }

    /// Check i-commutativity (and optionally i-idempotence) of an insert-recursor
    /// step `i` over the given element carrier and accumulator samples.
    pub fn check_step(
        &mut self,
        i: &Expr,
        elements: &[Value],
        accumulators: &[Value],
        require_i_idempotence: bool,
        options: &CheckOptions,
    ) -> Result<WellFormednessReport, EvalError> {
        let mut report = WellFormednessReport {
            carrier_size: elements.len() * accumulators.len(),
            checks_performed: 0,
            violations: Vec::new(),
        };
        for s in accumulators.iter().take(options.max_carrier) {
            for x in elements.iter().take(options.max_carrier) {
                for y in elements.iter().take(options.max_carrier) {
                    report.checks_performed += 1;
                    let ys = self.apply2(i, y, s)?;
                    let x_ys = self.apply2(i, x, &ys)?;
                    let xs = self.apply2(i, x, s)?;
                    let y_xs = self.apply2(i, y, &xs)?;
                    if x_ys != y_xs {
                        report.violations.push(LawViolation::ICommutativity {
                            x: x.clone(),
                            y: y.clone(),
                            s: s.clone(),
                        });
                        if report.violations.len() >= options.max_violations {
                            return Ok(report);
                        }
                    }
                }
                if require_i_idempotence {
                    for x in elements.iter().take(options.max_carrier) {
                        report.checks_performed += 1;
                        let xs = self.apply2(i, x, s)?;
                        let x_xs = self.apply2(i, x, &xs)?;
                        if x_xs != xs {
                            report.violations.push(LawViolation::IIdempotence {
                                x: x.clone(),
                                s: s.clone(),
                            });
                            if report.violations.len() >= options.max_violations {
                                return Ok(report);
                            }
                        }
                    }
                }
            }
        }
        Ok(report)
    }

    /// End-to-end convenience: check a `dcr`/`sru` instance against a concrete
    /// input value (used by the tests and the examples).
    pub fn check_dcr_instance(
        &mut self,
        e: &Expr,
        f: &Expr,
        u: &Expr,
        input: &Value,
        options: &CheckOptions,
    ) -> Result<WellFormednessReport, EvalError> {
        let carrier = self.carrier_for_dcr(e, f, u, input, options)?;
        self.check_combiner(e, u, &carrier, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derived::union_combiner;
    use ncql_object::Type;

    fn singleton_map() -> Expr {
        Expr::lam("y", Type::Base, Expr::singleton(Expr::var("y")))
    }

    #[test]
    fn union_combiner_passes() {
        let mut checker = LawChecker::default();
        let input = Value::atom_set(vec![1, 2, 3, 4, 5]);
        let report = checker
            .check_dcr_instance(
                &Expr::empty(Type::Base),
                &singleton_map(),
                &union_combiner(Type::Base),
                &input,
                &CheckOptions {
                    require_idempotence: true,
                    ..CheckOptions::default()
                },
            )
            .unwrap();
        assert!(report.is_well_formed(), "{:?}", report.violations);
        assert!(report.checks_performed > 0);
    }

    #[test]
    fn xor_combiner_passes_without_idempotence_and_fails_with_it() {
        // xor is associative/commutative with identity false, but NOT idempotent:
        // it is a valid dcr combiner yet not a valid sru combiner — exactly the
        // dcr-vs-sru distinction of §2.
        let mut checker = LawChecker::default();
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
        let carrier = vec![Value::Bool(false), Value::Bool(true)];
        let dcr_report = checker
            .check_combiner(
                &Expr::bool_val(false),
                &xor,
                &carrier,
                &CheckOptions::default(),
            )
            .unwrap();
        assert!(dcr_report.is_well_formed());

        let sru_report = checker
            .check_combiner(
                &Expr::bool_val(false),
                &xor,
                &carrier,
                &CheckOptions {
                    require_idempotence: true,
                    ..CheckOptions::default()
                },
            )
            .unwrap();
        assert!(!sru_report.is_well_formed());
        assert!(sru_report
            .violations
            .iter()
            .any(|v| matches!(v, LawViolation::Idempotence { .. })));
    }

    #[test]
    fn set_difference_combiner_is_rejected() {
        // The §2 counterexample: u(x, y) = x \ y is neither associative nor
        // commutative.
        let ty = Type::set(Type::Base);
        let diff = Expr::lam2(
            "a",
            "b",
            Type::prod(ty.clone(), ty.clone()),
            crate::derived::difference(Type::Base, Expr::var("a"), Expr::var("b")),
        );
        let mut checker = LawChecker::default();
        let input = Value::atom_set(vec![1, 2, 3]);
        let report = checker
            .check_dcr_instance(
                &Expr::empty(Type::Base),
                &singleton_map(),
                &diff,
                &input,
                &CheckOptions::default(),
            )
            .unwrap();
        assert!(!report.is_well_formed());
    }

    #[test]
    fn non_identity_unit_is_detected() {
        // e = {0} is not an identity for union over carriers missing atom 0.
        let mut checker = LawChecker::default();
        let input = Value::atom_set(vec![1, 2]);
        let report = checker
            .check_dcr_instance(
                &Expr::singleton(Expr::atom(0)),
                &singleton_map(),
                &union_combiner(Type::Base),
                &input,
                &CheckOptions::default(),
            )
            .unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, LawViolation::Identity { .. })));
    }

    #[test]
    fn insert_step_checking() {
        // i(x, s) = {x} ∪ s is i-commutative and i-idempotent.
        let ty = Type::set(Type::Base);
        let step = Expr::lam2(
            "x",
            "acc",
            Type::prod(Type::Base, ty.clone()),
            Expr::union(Expr::singleton(Expr::var("x")), Expr::var("acc")),
        );
        let mut checker = LawChecker::default();
        let elements = vec![Value::Atom(1), Value::Atom(2), Value::Atom(3)];
        let accs = vec![Value::empty_set(), Value::atom_set(vec![1])];
        let report = checker
            .check_step(&step, &elements, &accs, true, &CheckOptions::default())
            .unwrap();
        assert!(report.is_well_formed());

        // i(x, s) = s \ {x} … is i-commutative; a non-commutative step: i(x,s) =
        // if x ∈ s then ∅ else {x} ∪ s? Simpler: i(x, s) = {x} (forgets s) is
        // i-commutative? i(x, i(y,s)) = {x}, i(y, i(x,s)) = {y} → differs.
        let forget = Expr::lam2(
            "x",
            "acc",
            Type::prod(Type::Base, ty),
            Expr::singleton(Expr::var("x")),
        );
        let report2 = checker
            .check_step(&forget, &elements, &accs, false, &CheckOptions::default())
            .unwrap();
        assert!(!report2.is_well_formed());
    }
}
