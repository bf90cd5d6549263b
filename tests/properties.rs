//! Property-based tests (proptest) for the core invariants: canonical set
//! semantics, encoding round-trips, order-invariance of well-formed `dcr`
//! instances, equivalence of the evaluation strategies, and genericity.

use ncql::core::derived;
use ncql::core::eval::{eval_closed, eval_with_stats};
use ncql::core::expr::Expr;
use ncql::object::encoding::{decode, encode, minimal_encoding};
use ncql::object::morphism::Morphism;
use ncql::object::{Type, VSet, Value};
use ncql::queries::{pack, Relation};
use ncql::Session;
use proptest::prelude::*;

/// The pack text `name` run with its one variable bound to `input`, on the
/// checked pipeline.
fn run_pack(name: &str, input: &Value) -> Value {
    let query = pack::query(name).expect("in the pack");
    let session = Session::new();
    let plan = session
        .prepare_with_schema(query.text, &query.schema)
        .expect("prepares");
    let bindings = [(query.schema[0].0.clone(), input.clone())];
    session
        .execute_with_bindings(&plan, &bindings)
        .expect("evaluates")
        .value
}

fn arb_atoms() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..200, 0..40)
}

fn arb_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..12, 0u64..12), 0..30)
}

/// A generator of complex object values of a fixed nested type.
fn arb_nested_value() -> impl Strategy<Value = Value> {
    // Type: {(atom × {bool})}
    let inner = proptest::collection::vec(any::<bool>(), 0..4)
        .prop_map(|bs| Value::set_from(bs.into_iter().map(Value::Bool)));
    let pair = (0u64..50, inner).prop_map(|(a, s)| Value::pair(Value::Atom(a), s));
    proptest::collection::vec(pair, 0..6).prop_map(Value::set_from)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn set_union_is_commutative_associative_idempotent(a in arb_atoms(), b in arb_atoms(), c in arb_atoms()) {
        let (sa, sb, sc) = (
            VSet::from_iter(a.into_iter().map(Value::Atom)),
            VSet::from_iter(b.into_iter().map(Value::Atom)),
            VSet::from_iter(c.into_iter().map(Value::Atom)),
        );
        prop_assert_eq!(sa.union(&sb), sb.union(&sa));
        prop_assert_eq!(sa.union(&sb).union(&sc), sa.union(&sb.union(&sc)));
        prop_assert_eq!(sa.union(&sa), sa.clone());
        prop_assert!(sa.intersect(&sb).is_subset_of(&sa));
        prop_assert!(sa.difference(&sb).intersect(&sb).is_empty());
    }

    #[test]
    fn encoding_round_trips_for_flat_relations(pairs in arb_pairs()) {
        let v = Value::relation_from_pairs(pairs);
        let s = encode(&v);
        let back = decode(&s, &Type::binary_relation()).unwrap();
        prop_assert_eq!(back, v.clone());
        // Blank-scattered encodings decode to the same value.
        let blanked = s.with_scattered_blanks();
        prop_assert_eq!(decode(&blanked, &Type::binary_relation()).unwrap(), v.clone());
        // Minimal encodings renumber atoms 0..m-1 and decode to an isomorphic copy.
        let (min, map) = minimal_encoding(&v);
        let decoded = decode(&min, &Type::binary_relation()).unwrap();
        prop_assert_eq!(decoded.atoms().len(), map.len());
    }

    #[test]
    fn encoding_round_trips_for_nested_values(v in arb_nested_value()) {
        let ty = Type::set(Type::prod(Type::Base, Type::set(Type::Bool)));
        prop_assert!(v.has_type(&ty));
        let s = encode(&v);
        prop_assert_eq!(decode(&s, &ty).unwrap(), v);
    }

    #[test]
    fn parity_strategies_agree_and_match_cardinality(atoms in arb_atoms()) {
        let v = Value::atom_set(atoms);
        let expected = Value::Bool(v.cardinality().unwrap() % 2 == 1);
        for form in ["parity/dcr", "parity/esr", "parity/loop"] {
            prop_assert_eq!(run_pack(form, &v), expected.clone());
        }
    }

    #[test]
    fn transitive_closure_strategies_agree_with_baseline(pairs in arb_pairs()) {
        let rel = Relation::from_pairs(pairs);
        let expected = rel.transitive_closure().to_value();
        prop_assert_eq!(run_pack("graph/tc_dcr", &rel.to_value()), expected.clone());
        prop_assert_eq!(run_pack("graph/tc_log_loop", &rel.to_value()), expected);
    }

    #[test]
    fn halving_simulation_is_order_invariant(atoms in arb_atoms()) {
        // dcr with the union combiner: whatever order the input was written
        // in, the evaluator's halving tree gives the set back, with m − 1
        // combiner calls.
        let v = Value::atom_set(atoms);
        let m = v.cardinality().unwrap() as u64;
        let f = Expr::lam("y", Type::Base, Expr::singleton(Expr::var("y")));
        let u = derived::union_combiner(Type::Base);
        let dcr = Expr::dcr(Expr::empty(Type::Base), f, u, Expr::constant(v.clone()));
        let (value, stats) = eval_with_stats(&dcr).unwrap();
        prop_assert_eq!(value, v);
        prop_assert_eq!(stats.combiner_calls, m.saturating_sub(1));
    }

    #[test]
    fn generic_queries_commute_with_morphisms(pairs in arb_pairs(), offset in 1u64..1000) {
        let rel = Relation::from_pairs(pairs);
        let input = rel.to_value();
        let phi = Morphism::shift(&input.atoms(), offset);
        let lhs = phi.apply(&run_pack("graph/tc_dcr", &input));
        let rhs = run_pack("graph/tc_dcr", &phi.apply(&input));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn nest_unnest_round_trips(pairs in arb_pairs()) {
        let v = Value::relation_from_pairs(pairs);
        let nested = derived::nest(Type::Base, Type::Base, Expr::constant(v.clone()));
        let back = derived::unnest(Type::Base, Type::Base, nested);
        prop_assert_eq!(eval_closed(&back).unwrap(), v);
    }

    #[test]
    fn derived_set_operations_match_native_semantics(a in arb_atoms(), b in arb_atoms()) {
        let va = Value::atom_set(a.clone());
        let vb = Value::atom_set(b.clone());
        let native_inter: Value = Value::set_from(
            va.as_set().unwrap().intersect(vb.as_set().unwrap()).into_vec(),
        );
        let native_diff: Value = Value::set_from(
            va.as_set().unwrap().difference(vb.as_set().unwrap()).into_vec(),
        );
        let inter = derived::intersect(Type::Base, Expr::constant(va.clone()), Expr::constant(vb.clone()));
        let diff = derived::difference(Type::Base, Expr::constant(va), Expr::constant(vb));
        prop_assert_eq!(eval_closed(&inter).unwrap(), native_inter);
        prop_assert_eq!(eval_closed(&diff).unwrap(), native_diff);
    }
}
