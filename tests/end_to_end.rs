//! Cross-crate integration tests: surface syntax → type checking → evaluation →
//! baseline cross-checks, spanning the whole public API through the `ncql`
//! facade.

use ncql::core::expr::Expr;
use ncql::core::resolve::resolve;
use ncql::object::morphism::{commutes_with, Morphism};
use ncql::object::{Type, Value};
use ncql::queries::{datagen, differential_corpus, pack, Relation};
use ncql::surface;
use ncql::{PreparedQuery, Session};

/// The pack text `name`, parsed: its free variables stay open.
fn pack_expr(name: &str) -> Expr {
    surface::parse(pack::query(name).expect("in the pack").text).expect("parses")
}

/// The pack text `name`, prepared against its header's schema.
fn prepare(session: &Session, name: &str) -> PreparedQuery {
    let query = pack::query(name).expect("in the pack");
    session
        .prepare_with_schema(query.text, &query.schema)
        .expect("prepares")
}

/// `plan` run with its one variable `var` bound to `value`.
fn run(session: &Session, plan: &PreparedQuery, var: &str, value: &Value) -> Value {
    let bindings = [(var.to_string(), value.clone())];
    session
        .execute_with_bindings(plan, &bindings)
        .expect("evaluates")
        .value
}

#[test]
fn surface_to_result_pipeline() {
    // Parse, typecheck and evaluate a query that mixes most constructs,
    // through the engine's one supported front door.
    let text = "let r = {(@1, @2)} union {(@2, @3)} union {(@3, @1)} in \
                dcr(empty[(atom * atom)], \\y: atom. r, \
                    \\p: ({(atom * atom)} * {(atom * atom)}). pi1 p union pi2 p, \
                    ext(\\e: (atom * atom). {pi1 e} union {pi2 e}, r))";
    let session = Session::new();
    let prepared = session.prepare(text).expect("prepares");
    assert_eq!(*prepared.ty(), Type::binary_relation());
    let outcome = session.execute(&prepared).expect("evaluates");
    // dcr with the plain union combiner over the vertex set just reproduces r.
    assert_eq!(
        outcome.value,
        Value::relation_from_pairs(vec![(1, 2), (2, 3), (3, 1)])
    );
}

#[test]
fn transitive_closure_matches_baseline_on_many_graphs() {
    let graphs = vec![
        datagen::path_graph(9),
        datagen::cycle_graph(7),
        datagen::binary_tree(10),
        datagen::grid_graph(3),
        datagen::random_graph(10, 0.2, 1),
        datagen::random_graph(12, 0.15, 2),
    ];
    let session = Session::new();
    let dcr = prepare(&session, "graph/tc_dcr");
    let log_loop = prepare(&session, "graph/tc_log_loop");
    for rel in graphs {
        let expected = rel.transitive_closure().to_value();
        assert_eq!(run(&session, &dcr, "r", &rel.to_value()), expected);
        assert_eq!(run(&session, &log_loop, "r", &rel.to_value()), expected);
    }
}

#[test]
fn queries_are_generic_under_order_preserving_renamings() {
    // Chandra–Harel genericity (§5): TC and parity commute with morphisms.
    let session = Session::new();
    let rel = datagen::random_graph(8, 0.3, 5);
    let input = rel.to_value();
    let phi = Morphism::stretch(&input.atoms(), 17);
    let tc = prepare(&session, "graph/tc_dcr");
    assert!(commutes_with(|v| run(&session, &tc, "r", v), &input, &phi));

    let set = Value::atom_set(vec![3, 8, 20, 21]);
    let phi2 = Morphism::shift(&set.atoms(), 1000);
    let parity = prepare(&session, "parity/dcr");
    assert!(commutes_with(
        |v| run(&session, &parity, "s", v),
        &set,
        &phi2
    ));
}

#[test]
fn relational_algebra_composes_with_recursion() {
    // Reachable pairs restricted by a semijoin, then aggregated: pack texts
    // compose as terms, each `let` binding the next text's free variable.
    // `let r = tc in semijoin` reads the graph `r` in `tc` and the closure
    // in `semijoin`; the count's `s` shadows the semijoin's filter `s`.
    let filtered = Expr::let_in("r", pack_expr("graph/tc_dcr"), pack_expr("relalg/semijoin"));
    let firsts = surface::parse("ext(\\e: (atom * atom). {pi1 e}, r)").expect("parses");
    let firsts = Expr::let_in("r", filtered, firsts);
    let count = Expr::let_in("s", firsts, pack_expr("aggregates/cardinality_dcr"));
    let session = Session::new();
    let schema = ["r", "s"].map(|name| (name.to_string(), Type::binary_relation()));
    let query = session
        .prepare_expr_with_schema(count, &schema)
        .expect("the composition typechecks");
    let bindings = [
        ("r".to_string(), datagen::path_graph(6).to_value()),
        (
            "s".to_string(),
            Relation::from_pairs(vec![(3, 0), (5, 0)]).to_value(),
        ),
    ];
    let outcome = session.execute_with_bindings(&query, &bindings).unwrap();
    let (value, stats) = (outcome.value, outcome.stats);
    // Pairs (x, y) in the closure with y ∈ {3, 5}: y=3 ← {0,1,2}, y=5 ← {0..4};
    // distinct first components = {0,1,2,3,4}.
    assert_eq!(value, Value::Nat(5));
    assert!(stats.work > 0);
}

#[test]
fn ac_level_reporting_matches_construct_usage() {
    let select = prepare(&Session::new(), "relalg/select_leq");
    assert_eq!((select.recursion_depth(), select.ac_level()), (0, 1));
    let tc = pack_expr("graph/tc_dcr");
    assert_eq!(resolve(&tc).recursion_depth(), 1);
    let nested = pack_expr("iterate/count_log_squared_n");
    assert_eq!(resolve(&nested).recursion_depth(), 2);
}

#[test]
fn evaluation_is_deterministic_across_runs() {
    let text = "ext(\\x: atom. {(x, x)}, {@5} union {@1} union {@3})";
    let expr = surface::parse(text).unwrap();
    let first = ncql::core::eval::eval_closed(&expr).unwrap();
    for _ in 0..5 {
        assert_eq!(ncql::core::eval::eval_closed(&expr).unwrap(), first);
    }
    assert_eq!(
        first,
        Value::relation_from_pairs(vec![(1, 1), (3, 3), (5, 5)])
    );
}

#[test]
fn pretty_printer_round_trips_library_queries() {
    let corpus = differential_corpus();
    for name in [
        "graph/tc_dcr/path/6",
        "graph/tc_log_loop/cycle/6",
        "parity/dcr/7",
        "aggregates/cardinality_dcr/9",
    ] {
        let entry = corpus.iter().find(|e| e.name == name).expect(name);
        let query = &entry.expr;
        let printed = surface::print_expr(query);
        let reparsed = surface::parse(&printed)
            .unwrap_or_else(|e| panic!("reparse failed for {printed}: {e}"));
        assert_eq!(
            ncql::core::eval::eval_closed(query).unwrap(),
            ncql::core::eval::eval_closed(&reparsed).unwrap()
        );
    }
}
