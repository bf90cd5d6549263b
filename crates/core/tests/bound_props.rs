//! Property tests for the prepare-time cost bounds of `ncql_core::analyze`:
//! for randomly generated queries from the differential template family, the
//! measured `CostStats` must sit between the analyser's guaranteed floor and
//! its upper bound — on the sequential backend and on the work-stealing pool
//! (random thread count, pool size and steal seed), whose stats are
//! bit-identical by the parallel backend's contract.
//!
//! A second property analyses the *open* form of each template once (the set
//! argument is a free schema relation `r`) and checks the one symbolic bound
//! against many concrete cardinalities — the "analyse once, execute many"
//! contract the engine relies on.

use ncql_core::analyze::{analyze_query, Poly, QueryAnalysis};
use ncql_core::eval::{eval_with_stats, CostStats, EvalConfig, Evaluator};
use ncql_core::expr::Expr;
use ncql_core::externs::ExternRegistry;
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

/// The template family of the parallel property suite, parameterized by the
/// set argument so the same shapes serve the closed and the open property.
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

/// Assert floor ≤ measured ≤ bound with the given cardinality lookup; the
/// template family must always get finite bounds.
fn assert_covers(
    analysis: &QueryAnalysis,
    stats: &CostStats,
    lookup: &dyn Fn(&str) -> Option<u64>,
    context: &str,
) {
    let cost = &analysis.cost;
    let work_hi = cost
        .work
        .eval(lookup)
        .unwrap_or_else(|| panic!("{context}: work bound not finite"));
    let span_hi = cost
        .span
        .eval(lookup)
        .unwrap_or_else(|| panic!("{context}: span bound not finite"));
    let floor = cost.work_floor;
    assert!(
        floor <= stats.work,
        "{context}: floor {floor} exceeds measured work {}",
        stats.work
    );
    assert!(
        stats.work <= work_hi,
        "{context}: measured work {} exceeds bound {work_hi}",
        stats.work
    );
    assert!(
        stats.span <= span_hi,
        "{context}: measured span {} exceeds bound {span_hi}",
        stats.span
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn closed_bounds_cover_both_backends(
        shape in 0u64..4,
        atoms in proptest::collection::vec(0u64..500, 0..50),
        shift in 1u64..40,
        threads in 2usize..9,
        pool_threads in 2usize..10,
        steal_seed in proptest::prelude::any::<u64>(),
    ) {
        let q = query_over(shape, Expr::constant(Value::atom_set(atoms)), shift);
        let analysis = analyze_query(&q, &[], &ExternRegistry::standard());
        let (_, seq) = eval_with_stats(&q).expect("sequential eval");
        assert_covers(&analysis, &seq, &|_| None, &format!("shape {shape} (sequential)"));
        let mut par_ev = Evaluator::new(EvalConfig {
            parallelism: Some(threads),
            parallel_cutoff: 1,
            pool_threads: Some(pool_threads),
            pool_steal_seed: steal_seed,
            ..EvalConfig::default()
        });
        par_ev.eval_closed(&q).expect("parallel eval");
        assert_covers(&analysis, &par_ev.stats(), &|_| None, &format!("shape {shape} (parallel)"));
    }

    #[test]
    fn compaction_never_shrinks_the_exact_polynomial(
        coeffs in proptest::collection::vec(1u64..6, 36..48),
        vals in proptest::collection::vec(0u64..30, 12..13),
    ) {
        // Build a polynomial with more distinct monomials than `MAX_TERMS`
        // (32), mixing linear, quadratic, mixed and log-carrying terms, so
        // compaction actually coarsens. `compact_upper` may only grow the
        // polynomial, at every evaluation point.
        let mut exact = Poly::zero();
        for (i, c) in coeffs.iter().enumerate() {
            let v = Poly::var(&format!("x{}", i % 12));
            let term = match i % 4 {
                0 => v,
                1 => v.mul(&v),
                2 => v.mul(&Poly::log_var(&format!("x{}", i % 12))),
                _ => v.mul(&Poly::var(&format!("x{}", (i + 1) % 12))),
            };
            exact = exact.add(&term.scale(*c));
        }
        let upper = exact.clone().compact_upper();
        let lookup = |name: &str| {
            name.strip_prefix('x')
                .and_then(|i| i.parse::<usize>().ok())
                .map(|i| vals[i % vals.len()])
        };
        let at = exact.eval(&lookup).expect("exact is finite");
        let hi = upper.eval(&lookup).expect("upper stays finite");
        prop_assert!(at <= hi, "compact_upper shrank the polynomial: {at} > {hi}");
    }

    #[test]
    fn pointwise_le_is_sound(
        base in proptest::collection::vec((0u64..8, 1u64..5), 1..10),
        extra in proptest::collection::vec((0u64..8, 1u64..5), 0..6),
        vals in proptest::collection::vec(0u64..40, 8..9),
    ) {
        // `le_pointwise` drives the optimizer's cost gate; it may refuse a
        // true inequality (incomplete) but must never affirm a false one.
        let build = |terms: &[(u64, u64)]| {
            let mut p = Poly::zero();
            for (var, coeff) in terms {
                let v = Poly::var(&format!("x{}", var % 8));
                let term = if var % 2 == 0 { v.clone() } else { v.mul(&v) };
                p = p.add(&term.scale(*coeff));
            }
            p
        };
        let a = build(&base);
        let b = a.add(&build(&extra));
        // Adding terms can only grow the polynomial, and every monomial of
        // `a` survives in `b` with an equal-or-larger coefficient, so the
        // greedy matcher must find the witness.
        prop_assert!(a.le_pointwise(&b), "le_pointwise missed {a} <= {b}");
        // Soundness on arbitrary pairs: whenever the comparison affirms,
        // numeric evaluation agrees at every sampled point.
        let c = build(&extra);
        for (p, q) in [(&a, &b), (&a, &c), (&c, &a), (&b, &c)] {
            if p.le_pointwise(q) {
                let lookup = |name: &str| {
                    name.strip_prefix('x')
                        .and_then(|i| i.parse::<usize>().ok())
                        .map(|i| vals[i % vals.len()])
                };
                let pv = p.eval(&lookup).expect("finite");
                let qv = q.eval(&lookup).expect("finite");
                prop_assert!(pv <= qv, "le_pointwise affirmed {p} <= {q} but {pv} > {qv}");
            }
        }
    }

    #[test]
    fn floors_stay_sound_at_max_terms_pressure(
        card_seed in proptest::collection::vec(0u64..6, 40..41),
    ) {
        // A query over 40 distinct schema relations gives the analyser more
        // monomials than `MAX_TERMS` can hold, forcing the upper bound to
        // coarsen; the floor ≤ measured ≤ bound sandwich must survive.
        let mut arg = Expr::var("r0");
        for i in 1..40 {
            arg = Expr::union(arg, Expr::var(format!("r{i}")));
        }
        let q = Expr::ext(
            Expr::lam("x", Type::Base, Expr::singleton(Expr::var("x"))),
            arg,
        );
        let schema: Vec<(String, Type)> = (0..40)
            .map(|i| (format!("r{i}"), Type::set(Type::Base)))
            .collect();
        let analysis = analyze_query(&q, &schema, &ExternRegistry::standard());
        let bindings: Vec<(String, Value)> = card_seed
            .iter()
            .enumerate()
            .map(|(i, n)| (format!("r{i}"), Value::atom_set(i as u64 * 10..i as u64 * 10 + n)))
            .collect();
        let mut ev = Evaluator::new(EvalConfig::default());
        ev.eval_with_bindings(&q, &bindings).expect("open eval");
        let lookup = |name: &str| {
            name.strip_prefix('r')
                .and_then(|i| i.parse::<usize>().ok())
                .map(|i| card_seed[i])
        };
        assert_covers(&analysis, &ev.stats(), &lookup, "40-relation union");
    }

    #[test]
    fn one_symbolic_bound_covers_many_cardinalities(
        shape in 0u64..4,
        sets in proptest::collection::vec(proptest::collection::vec(0u64..300, 0..40), 1..6),
        shift in 1u64..40,
    ) {
        // Analyse once, symbolically in |r| ...
        let q = query_over(shape, Expr::var("r"), shift);
        let schema = vec![("r".to_string(), Type::set(Type::Base))];
        let analysis = analyze_query(&q, &schema, &ExternRegistry::standard());
        // ... then check that one bound against every concrete input.
        for atoms in sets {
            let value = Value::atom_set(atoms);
            let m = value.cardinality().unwrap_or(0) as u64;
            let mut ev = Evaluator::new(EvalConfig::default());
            ev.eval_with_bindings(&q, &[("r".to_string(), value)])
                .expect("open eval");
            let lookup = |name: &str| (name == "r").then_some(m);
            assert_covers(&analysis, &ev.stats(), &lookup, &format!("shape {shape} at |r|={m}"));
        }
    }
}
