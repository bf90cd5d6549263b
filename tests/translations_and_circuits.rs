//! Integration tests for the simulation translations (Propositions 2.1, 2.2,
//! 7.3) and the circuit compiler (Proposition 7.7 / Theorem 6.2), cross-checked
//! against the reference evaluator on shared workloads.

use ncql::circuit::compile::{compile, run_compiled};
use ncql::circuit::relquery::{eval_reference, BitRelation, RelQuery};
use ncql::core::analysis::{lawful, Lawful, Shape};
use ncql::core::derived;
use ncql::core::eval::{eval_closed, eval_with_stats};
use ncql::core::expr::Expr;
use ncql::core::resolve::resolve;
use ncql::object::{Type, Value};
use ncql::queries::{datagen, pack, Relation};
use ncql::translate::{prop21, prop22, prop73};
use ncql::{surface, Session};

/// The pack text `name`, parsed: its free variables stay open.
fn pack_expr(name: &str) -> Expr {
    surface::parse(pack::query(name).expect("in the pack").text).expect("parses")
}

/// The operands `(e, f, u, x)` of the pack's §1 transitive closure
/// `dcr(∅, λy. r, λ(r1, r2). r1 ∪ r2 ∪ r1∘r2, Π1 r ∪ Π2 r)`, over a free `r`.
fn tc_dcr_operands() -> (Expr, Expr, Expr, Expr) {
    let tc = pack_expr("graph/tc_dcr");
    let operands: Vec<Expr> = tc.children().iter().map(|c| c.expr.clone()).collect();
    let [e, f, u, x] = <[Expr; 4]>::try_from(operands).expect("dcr has four operands");
    (e, f, u, x)
}

/// `expr` with its free `r` bound to `rel`.
fn over(rel: &Relation, expr: Expr) -> Expr {
    Expr::let_in("r", Expr::constant(rel.to_value()), expr)
}

fn xor_u() -> Expr {
    Expr::lam2(
        "a",
        "b",
        Type::prod(Type::Bool, Type::Bool),
        derived::xor(Expr::var("a"), Expr::var("b")),
    )
}

#[test]
fn prop21_translation_preserves_semantics_on_parity() {
    let x = Expr::constant(Value::atom_set(0..9));
    let f = Expr::lam("y", Type::Base, Expr::bool_val(true));
    let direct = Expr::dcr(Expr::bool_val(false), f.clone(), xor_u(), x.clone());
    let translated =
        prop21::dcr_via_esr(Expr::bool_val(false), f, xor_u(), x, Type::Base, Type::Bool);
    assert_eq!(
        eval_closed(&direct).unwrap(),
        eval_closed(&translated).unwrap()
    );
    assert_eq!(eval_closed(&direct).unwrap(), Value::Bool(true));
}

#[test]
fn prop21_translations_preserve_semantics_on_graph_queries() {
    // dcr → esr on the union-of-relations recursion used by TC.
    let rel = datagen::cycle_graph(5);
    let rel_ty = Type::binary_relation();
    let (e, f, u, vertices) = tc_dcr_operands();
    let direct = over(
        &rel,
        Expr::dcr(e.clone(), f.clone(), u.clone(), vertices.clone()),
    );
    let translated = over(
        &rel,
        prop21::dcr_via_esr(e, f, u, vertices, Type::Base, rel_ty),
    );
    assert_eq!(
        eval_closed(&direct).unwrap(),
        eval_closed(&translated).unwrap()
    );
    assert_eq!(
        eval_closed(&direct).unwrap(),
        rel.transitive_closure().to_value()
    );
}

#[test]
fn prop22_bounded_recursion_is_exact_on_random_graphs() {
    for seed in 0..4 {
        let rel = datagen::random_graph(8, 0.25, seed);
        if rel.is_empty() {
            continue;
        }
        let (e, f, u, vertices) = tc_dcr_operands();
        let direct = over(
            &rel,
            Expr::dcr(e.clone(), f.clone(), u.clone(), vertices.clone()),
        );
        let bounded = over(
            &rel,
            prop22::dcr_via_bdcr_binary(e, f, u, vertices.clone(), vertices),
        );
        assert_eq!(
            eval_closed(&direct).unwrap(),
            eval_closed(&bounded).unwrap(),
            "seed {seed}"
        );
    }
}

#[test]
fn prop73_halving_rounds_track_the_logarithm_on_graph_workloads() {
    // Direction 1 is the evaluator's own `dcr`: m − 1 combiner calls over
    // its halving tree (whose ⌈log₂ m⌉ levels `prop73`'s parity test reads).
    for n in [3u64, 6, 12, 24] {
        let rel = datagen::path_graph(n);
        let f = Expr::lam("y", Type::Base, Expr::constant(rel.to_value()));
        let (_, _, u, _) = tc_dcr_operands();
        let vertices = Value::atom_set(0..=n);
        let e = Expr::empty(Type::prod(Type::Base, Type::Base));
        let dcr = Expr::dcr(e, f, u, Expr::constant(vertices));
        let (value, stats) = eval_with_stats(&dcr).unwrap();
        assert_eq!(
            Relation::from_value(&value).unwrap(),
            rel.transitive_closure(),
            "n = {n}"
        );
        assert_eq!(stats.combiner_calls, n, "n = {n}");
    }
}

#[test]
fn prop73_both_directions_agree_with_direct_semantics() {
    // log-loop driven by dcr: counting body over naturals.
    let body = Expr::lam(
        "c",
        Type::Nat,
        Expr::extern_call("nat_add", vec![Expr::var("c"), Expr::nat(3)]),
    );
    for n in [0usize, 1, 7, 20, 100] {
        let counting = Value::atom_set(0..n as u64);
        let direct = eval_closed(&Expr::log_loop(
            body.clone(),
            Expr::constant(counting.clone()),
            Expr::nat(0),
        ))
        .unwrap();
        let outcome = prop73::log_loop_by_dcr(&body, &counting, &Value::Nat(0)).unwrap();
        assert_eq!(direct, outcome.value, "n = {n}");
    }
}

#[test]
fn library_tc_query_is_in_the_orderly_sublanguage() {
    // Closed over a graph, the §1 closure's `dcr` is still a §7.1 theorem,
    // and so is the parity query's.
    let sites = |e: &Expr| {
        let mut found = Vec::new();
        resolve(e).expr.visit(&mut |e| found.extend(lawful(e)));
        found
    };
    let q = over(&datagen::path_graph(4), pack_expr("graph/tc_dcr"));
    assert_eq!(sites(&q), [Lawful::Theorem(Shape::UnionCompose)]);
    let s = Expr::constant(Value::atom_set(0..4));
    let p = Expr::let_in("s", s, pack_expr("parity/dcr"));
    assert_eq!(sites(&p), [Lawful::Theorem(Shape::BoolXor)]);
}

#[test]
fn compiled_circuits_agree_with_the_language_semantics_on_shared_graphs() {
    // The same graph evaluated (a) by the engine on the pack's NRA(dcr) TC
    // text and (b) by the compiled positional circuit must coincide.
    let session = Session::new();
    let tc = pack::query("graph/tc_dcr").expect("in the pack");
    let tc = session
        .prepare_with_schema(tc.text, &tc.schema)
        .expect("prepares");
    for n in [4usize, 6, 9] {
        let pairs: Vec<(usize, usize)> =
            (0..n - 1).map(|i| (i, i + 1)).chain([(n - 1, 0)]).collect();
        let rel = Relation::from_pairs(pairs.iter().map(|&(a, b)| (a as u64, b as u64)));
        let semantic = session
            .execute_with_bindings(&tc, &[("r".to_string(), rel.to_value())])
            .expect("evaluates")
            .value;
        let semantic_rel = Relation::from_value(&semantic).unwrap();

        let bitrel = BitRelation::from_pairs(n, &pairs);
        let q = RelQuery::transitive_closure(RelQuery::Input(0));
        let compiled = run_compiled(&q, n, std::slice::from_ref(&bitrel));
        let compiled_rel: Relation = compiled
            .pairs()
            .into_iter()
            .map(|(a, b)| (a as u64, b as u64))
            .collect();
        assert_eq!(semantic_rel, compiled_rel, "n = {n}");
        // And both agree with the pure reference evaluator of the IR.
        assert_eq!(compiled, eval_reference(&q, &[bitrel], n));
    }
}

#[test]
fn circuit_depth_hierarchy_is_monotone_in_k() {
    let n = 12;
    let mut last = 0;
    for k in 1..=3 {
        let depth = compile(&RelQuery::nested_depth_k(k), n).depth();
        assert!(depth > last, "depth at k={k} is {depth}, not above {last}");
        last = depth;
    }
}
