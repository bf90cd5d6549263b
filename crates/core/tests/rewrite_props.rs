//! Property tests for `ncql_core::rewrite`: the optimizer's output never
//! fires again (idempotence — one pass reaches the fixpoint on queries within
//! the fold budget), rewriting preserves values on closed queries, and both
//! rules are no-ops on expressions that are already in normal form for them
//! (open arguments defeat constant folding, un-nested maps defeat fusion).

use ncql_core::eval::{eval_with_stats, EvalConfig};
use ncql_core::expr::Expr;
use ncql_core::rewrite::optimize;
use ncql_object::{Type, Value};
use proptest::prelude::*;

fn xor_combiner() -> Expr {
    Expr::lam2(
        "a",
        "b",
        Type::prod(Type::Bool, Type::Bool),
        Expr::ite(
            Expr::var("a"),
            Expr::ite(Expr::var("b"), Expr::bool_val(false), Expr::bool_val(true)),
            Expr::var("b"),
        ),
    )
}

/// The template family shared with the bound property suite: recursors, a
/// two-singleton `ext` map, and an `esr` fold, parameterized by the argument.
fn query_over(shape: u64, arg: Expr, shift: u64) -> Expr {
    match shape % 4 {
        0 => Expr::dcr(
            Expr::bool_val(false),
            Expr::lam("y", Type::Base, Expr::bool_val(true)),
            xor_combiner(),
            arg,
        ),
        1 => Expr::dcr(
            Expr::nat(0),
            Expr::lam(
                "x",
                Type::Base,
                Expr::extern_call("atom_to_nat", vec![Expr::var("x")]),
            ),
            Expr::lam2(
                "a",
                "b",
                Type::prod(Type::Nat, Type::Nat),
                Expr::extern_call("nat_add", vec![Expr::var("a"), Expr::var("b")]),
            ),
            arg,
        ),
        2 => Expr::ext(
            Expr::lam(
                "x",
                Type::Base,
                Expr::union(
                    Expr::singleton(Expr::var("x")),
                    Expr::singleton(Expr::extern_call(
                        "nat_to_atom",
                        vec![Expr::extern_call(
                            "nat_add",
                            vec![
                                Expr::extern_call("atom_to_nat", vec![Expr::var("x")]),
                                Expr::nat(shift),
                            ],
                        )],
                    )),
                ),
            ),
            arg,
        ),
        _ => Expr::esr(
            Expr::bool_val(false),
            Expr::lam2(
                "y",
                "acc",
                Type::prod(Type::Base, Type::Bool),
                Expr::ite(
                    Expr::var("acc"),
                    Expr::bool_val(false),
                    Expr::bool_val(true),
                ),
            ),
            arg,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimize_is_idempotent_on_closed_queries(
        shape in 0u64..4,
        atoms in proptest::collection::vec(0u64..500, 0..40),
        shift in 1u64..40,
    ) {
        let q = query_over(shape, Expr::constant(Value::atom_set(atoms)), shift);
        let config = EvalConfig::default();
        let once = optimize(&q, &[], &config);
        let twice = optimize(&once.expr, &[], &config);
        prop_assert!(
            twice.fired.is_empty(),
            "shape {shape}: the optimizer fired again on its own output: {:?}",
            twice.fired.iter().map(|f| f.rule).collect::<Vec<_>>()
        );
        prop_assert_eq!(&twice.expr, &once.expr, "shape {shape}: fixpoint drifted");
    }

    #[test]
    fn optimize_preserves_closed_values(
        shape in 0u64..4,
        atoms in proptest::collection::vec(0u64..500, 0..40),
        shift in 1u64..40,
    ) {
        let q = query_over(shape, Expr::constant(Value::atom_set(atoms)), shift);
        let rewritten = optimize(&q, &[], &EvalConfig::default()).expr;
        let (raw_value, raw_stats) = eval_with_stats(&q).expect("raw eval");
        let (opt_value, opt_stats) = eval_with_stats(&rewritten).expect("optimized eval");
        prop_assert_eq!(opt_value, raw_value, "shape {shape}: value changed");
        prop_assert!(
            opt_stats.work <= raw_stats.work,
            "shape {shape}: measured work regressed ({} > {})",
            opt_stats.work,
            raw_stats.work
        );
    }

    #[test]
    fn every_rule_is_a_noop_on_open_normal_forms(
        shape in 0u64..4,
        shift in 1u64..40,
    ) {
        // With a free schema relation as the argument nothing is closed (no
        // constant folding) and no map is nested (no fusion): the whole rule
        // set must leave the query untouched.
        let q = query_over(shape, Expr::var("r"), shift);
        let schema = vec![("r".to_string(), Type::set(Type::Base))];
        let outcome = optimize(&q, &schema, &EvalConfig::default());
        prop_assert!(
            outcome.fired.is_empty(),
            "shape {shape}: fired on a normal form: {:?}",
            outcome.fired.iter().map(|f| f.rule).collect::<Vec<_>>()
        );
        prop_assert_eq!(&outcome.expr, &q, "shape {shape}: expression changed");
    }
}
