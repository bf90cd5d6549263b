//! Smoke tests mirroring the core path of every `examples/*.rs` target, so
//! example rot is caught by `cargo test` instead of only by running the
//! examples by hand. Each test keeps the example's assertions but trims the
//! printing and the larger sweep sizes.

use ncql::circuit::compile::{compile, compile_stats, run_compiled};
use ncql::circuit::dcl::direct_connection_language;
use ncql::circuit::logspace::{LogSpaceMeter, UniformTcFamily};
use ncql::circuit::relquery::{eval_reference, BitRelation, RelQuery};
use ncql::core::derived;
use ncql::core::expr::Expr;
use ncql::core::EvalError;
use ncql::object::{Type, Value};
use ncql::queries::{datagen, pack, Relation};
use ncql::{Error, Outcome, PreparedQuery, Session, SessionBuilder};

/// The pack text `name`, prepared on `session` against its header's schema.
fn prepare(session: &Session, name: &str) -> PreparedQuery {
    let query = pack::query(name).expect("in the pack");
    session
        .prepare_with_schema(query.text, &query.schema)
        .expect("the pack text typechecks")
}

/// `plan` run with `bindings`.
fn run(
    session: &Session,
    plan: &PreparedQuery,
    bindings: &[(&str, Value)],
) -> Result<Outcome, Error> {
    let bindings: Vec<(String, Value)> = bindings
        .iter()
        .map(|(name, value)| (name.to_string(), value.clone()))
        .collect();
    session.execute_with_bindings(plan, &bindings)
}

/// `examples/quickstart.rs`: transitive closure and parity via dcr through the
/// engine's `Session`, plus the surface-syntax round trip and the plan cache.
#[test]
fn quickstart_core_path() {
    let session = Session::new();
    let edges = Relation::from_pairs(vec![(1, 2), (2, 3), (3, 4), (4, 2), (7, 8)]);

    let tc_query = prepare(&session, "graph/tc_dcr");
    assert!(tc_query.recursion_depth() >= 1);
    let outcome = run(&session, &tc_query, &[("r", edges.to_value())]).expect("evaluates");
    assert_eq!(outcome.value, edges.transitive_closure().to_value());
    assert!(outcome.stats.span <= outcome.stats.work);

    let parity = prepare(&session, "parity/dcr");
    let odd = run(&session, &parity, &[("s", Value::atom_set(0..13))]).expect("parity evaluates");
    assert_eq!(odd.value, Value::Bool(true));

    let text = "dcr(false, \\y: atom. true, \
                \\p: (bool * bool). if pi1 p then (if pi2 p then false else true) else pi2 p, \
                {@1} union {@2} union {@3} union {@4} union {@5})";
    let prepared = session.prepare(text).expect("the surface query prepares");
    let value = session
        .execute(&prepared)
        .expect("the parsed query evaluates")
        .value;
    assert_eq!(value, Value::Bool(true));
    // The pretty-printed normal form parses back and evaluates identically.
    assert_eq!(
        session
            .run(prepared.normal_form())
            .expect("round trip evaluates")
            .value,
        Value::Bool(true)
    );
    // Re-preparing the original text is a cache hit on the same plan.
    assert!(session.prepare(text).expect("hit").ptr_eq(&prepared));
    assert!(session.cache_metrics().hits >= 1);
}

/// `examples/graph_analytics.rs`: strategy agreement, reachability,
/// connectivity, and the parallel executor.
#[test]
fn graph_analytics_core_path() {
    let session = Session::new();
    let tc_dcr = prepare(&session, "graph/tc_dcr");
    let tc_elementwise = prepare(&session, "graph/tc_elementwise");
    for n in [8u64, 16] {
        let rel = datagen::random_graph(n, 2.0 / n as f64, 42);
        let r = [("r", rel.to_value())];
        let dcr = run(&session, &tc_dcr, &r).expect("tc dcr");
        let elem = run(&session, &tc_elementwise, &r).expect("tc elementwise");
        assert_eq!(
            dcr.value, elem.value,
            "both strategies compute the same closure"
        );
        assert_eq!(dcr.value, rel.transitive_closure().to_value());
        assert!(dcr.stats.span <= elem.stats.span || rel.is_empty());
    }

    let cycle = datagen::cycle_graph(12).to_value();
    let reachable_from = prepare(&session, "graph/reachable_from");
    let from_0 = [("r", cycle.clone()), ("start", Value::Atom(0))];
    let reach = run(&session, &reachable_from, &from_0).expect("reachability");
    assert_eq!(reach.value.cardinality(), Some(12));
    let strongly_connected = prepare(&session, "graph/strongly_connected");
    let connected = run(&session, &strongly_connected, &[("r", cycle)]).expect("connectivity");
    assert_eq!(connected.value, Value::Bool(true));
    let path = [("r", datagen::path_graph(12).to_value())];
    let connected_path = run(&session, &strongly_connected, &path).expect("connectivity");
    assert_eq!(connected_path.value, Value::Bool(false));

    let n = 12u64;
    let path = [("r", datagen::path_graph(n).to_value())];
    for threads in [1usize, 4] {
        let parallel_session = SessionBuilder::new()
            .parallelism(Some(threads))
            .parallel_cutoff(256)
            .build();
        let query = prepare(&parallel_session, "graph/tc_dcr");
        let out = run(&parallel_session, &query, &path).expect("parallel tc");
        assert_eq!(out.value.cardinality(), Some(((n + 1) * n / 2) as usize));
    }
}

/// `examples/complex_objects.rs`: unnest/nest on a nested store, the powerset
/// blow-up guard, and bounded recursion.
#[test]
fn complex_objects_core_path() {
    let store = datagen::document_store(4, 6, 7);
    let store_ty = Type::set(Type::prod(Type::Base, Type::binary_relation()));
    assert!(store.has_type(&store_ty));
    assert_eq!(store.cardinality(), Some(4));

    let session = Session::new();
    let unnested = session
        .prepare_expr(derived::unnest(
            Type::Base,
            Type::prod(Type::Base, Type::Base),
            Expr::constant(store),
        ))
        .expect("unnest typechecks");
    let flat = session.execute(&unnested).expect("unnest evaluates").value;
    let renested = derived::nest(
        Type::Base,
        Type::prod(Type::Base, Type::Base),
        Expr::constant(flat),
    );
    let grouped = session.evaluate(&renested).expect("nest evaluates").value;
    assert_eq!(grouped.cardinality(), Some(4));

    let limited = SessionBuilder::new().max_set_size(4096).build();
    let input = [("s", Value::atom_set(0..18))];
    let unbounded = prepare(&limited, "powerset/dcr");
    match run(&limited, &unbounded, &input) {
        Err(Error::Eval(EvalError::SetTooLarge {
            limit, attempted, ..
        })) => assert!(attempted > limit),
        other => panic!("expected the powerset blow-up to be caught, got {other:?}"),
    }
    let bounded = prepare(&limited, "powerset/bounded_small_subsets");
    run(&limited, &bounded, &input).expect("bounded recursion stays within the limit");

    let powerset = prepare(&session, "powerset/dcr");
    let small = run(&session, &powerset, &[("s", Value::atom_set(0..6))]).expect("small powerset");
    assert_eq!(small.value.cardinality(), Some(64));
}

/// `examples/query_repl.rs`: the `Session::prepare` → `Session::execute`
/// pipeline the runner drives, on its documented sample queries.
#[test]
fn query_repl_core_path() {
    let session = Session::new();
    let arith = session
        .prepare("nat_add(20, 22)")
        .expect("arithmetic prepares");
    assert_eq!(arith.ty().to_string(), "nat");
    assert_eq!(
        session.execute(&arith).expect("evaluates").value,
        Value::Nat(42)
    );

    let sets = session
        .prepare("{@1} union {@2} union {@1}")
        .expect("set query prepares");
    assert_eq!(sets.recursion_depth(), 0);
    let value = session.execute(&sets).expect("set query evaluates").value;
    assert_eq!(value.cardinality(), Some(2));

    let tc = "dcr(empty[(atom * atom)], \\y: atom. {(@1,@2)} union {(@2,@3)}, \
              \\p: ({(atom*atom)} * {(atom*atom)}). pi1 p union pi2 p, {@1} union {@2})";
    let seq_out = session.run(tc).expect("dcr query runs");
    assert_eq!(seq_out.value.cardinality(), Some(2));

    // The `--parallel N` path of the runner: same query, a parallel session,
    // identical value and cost statistics.
    let parallel = SessionBuilder::new()
        .parallelism(Some(4))
        .parallel_cutoff(1)
        .build();
    let par_out = parallel.run(tc).expect("parallel REPL path evaluates");
    assert_eq!(par_out.value, seq_out.value);
    assert_eq!(par_out.stats, seq_out.stats);
}

/// `examples/circuit_compilation.rs`: ACᵏ compilation stats, compiled-vs-
/// reference agreement, and the log-space uniformity meter.
#[test]
fn circuit_compilation_core_path() {
    for k in [1usize, 2] {
        for n in [4usize, 8] {
            let stats = compile_stats(&RelQuery::nested_depth_k(k), n);
            assert!(stats.depth > 0 && stats.size > 0);
        }
    }

    let n = 10;
    let q = RelQuery::transitive_closure(RelQuery::Input(0));
    let pairs: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    let r = BitRelation::from_pairs(n, &pairs);
    let compiled = run_compiled(&q, n, std::slice::from_ref(&r));
    let reference = eval_reference(&q, &[r], n);
    assert_eq!(compiled, reference);
    assert_eq!(compiled.pairs().len(), n * (n - 1) / 2);

    let union = compile(&RelQuery::union(RelQuery::Input(0), RelQuery::Input(1)), 16);
    assert!(union.depth() <= 4, "union is constant depth");

    for n in [3usize, 5, 8] {
        let circuit = UniformTcFamily::generate(n);
        let dcl = direct_connection_language(n, &circuit);
        assert!(!dcl.is_empty());
        // Same O(log gates) budget the crate's own uniformity test uses.
        let budget = 16 * (usize::BITS - UniformTcFamily::total_gates(n).leading_zeros()) as u64;
        for tuple in dcl.iter().take(200) {
            let mut meter = LogSpaceMeter::new();
            assert!(UniformTcFamily::dcl_member(n, tuple, &mut meter));
            assert!(meter.bits_used() <= budget);
        }
    }
}
