//! Differential soundness of the prepare-time cost bounds: for every corpus
//! query, the measured `CostStats` must sit between the analyser's guaranteed
//! floor and its symbolic upper bound, on whichever backend
//! `NCQL_TEST_PARALLELISM` selects (the CI matrix runs the sequential leg
//! and the 4-thread leg — stats are backend-invariant, so the same
//! inequalities must hold on each).
//!
//! The corpus queries are closed, so their bounds instantiate to constants;
//! they run on the trusted-AST path the differential suites use (some corpus
//! idioms predate the surface typechecker). A second suite prepares *open*
//! queries through the full engine front end against a declared schema and
//! sweeps the relation cardinality, checking the symbolic bound evaluated at
//! the actual cardinality against the measured cost of that run.

use ncql::core::eval::CostStats;
use ncql::core::externs::ExternRegistry;
use ncql::core::{analyze_query, parallelism_from_env, CostBound};
use ncql::object::{Type, Value};
use ncql::queries::corpus::differential_corpus;
use ncql::{Session, SessionBuilder};

/// The suite's session: backend from `NCQL_TEST_PARALLELISM`, cutover
/// dropped so the parallel legs really fork inside small corpus queries.
fn session() -> Session {
    SessionBuilder::new()
        .parallelism(parallelism_from_env())
        .parallel_cutoff(64)
        .build()
}

/// Assert floor ≤ measured ≤ bound, instantiating the symbolic upper bounds
/// via `lookup`. Returns whether both upper bounds were finite.
fn check_bounds(
    cost: &CostBound,
    stats: &CostStats,
    lookup: &dyn Fn(&str) -> Option<u64>,
    context: &str,
) -> bool {
    let floor = cost.work_floor;
    assert!(
        floor <= stats.work,
        "{context}: floor {floor} exceeds measured work {} (floor unsound)",
        stats.work
    );
    let mut finite = true;
    match cost.work.eval(lookup) {
        Some(bound) => assert!(
            stats.work <= bound,
            "{context}: measured work {} exceeds static bound {bound}",
            stats.work
        ),
        None => finite = false,
    }
    match cost.span.eval(lookup) {
        Some(bound) => assert!(
            stats.span <= bound,
            "{context}: measured span {} exceeds static bound {bound}",
            stats.span
        ),
        None => finite = false,
    }
    finite
}

#[test]
fn corpus_costs_never_exceed_the_static_bounds() {
    let session = session();
    let registry = ExternRegistry::standard();
    let corpus = differential_corpus();
    assert!(corpus.len() >= 40, "corpus shrank to {}", corpus.len());
    let mut finite = 0usize;
    for entry in &corpus {
        let analysis = analyze_query(&entry.expr, &[], &registry);
        let outcome = session
            .evaluate(&entry.expr)
            .unwrap_or_else(|e| panic!("{}: evaluation failed: {e}", entry.name));
        if check_bounds(&analysis.cost, &outcome.stats, &|_| None, &entry.name) {
            finite += 1;
        }
    }
    // The analyser is allowed to give up (`Bound::Unbounded`) on the gnarly
    // entries, but it must pin finite bounds for the majority of the corpus
    // or the tentpole has quietly regressed into "unbounded everywhere".
    assert!(
        finite >= 25,
        "only {finite}/{} corpus queries got finite bounds",
        corpus.len()
    );
}

/// `floor ≤ measured` is satisfied by a floor of 0, so the soundness suites
/// cannot see the floor loosen. These are the values the analyser derives
/// today: raising one is an improvement to re-pin, lowering one is a
/// regression.
#[test]
fn work_floors_are_pinned() {
    let registry = ExternRegistry::standard();
    let corpus = differential_corpus();
    let golden: [(&str, u64); 11] = [
        ("relalg/join", 14567),                     // ext
        ("relalg/select_leq", 363),                 // ext + if
        ("parity/dcr/7", 19),                       // dcr
        ("aggregates/sum_dcr/70", 145),             // dcr
        ("powerset/bounded_small_subsets/24", 159), // bdcr
        ("parity/esr/7", 18),                       // esr
        ("graph/tc_elementwise/random/6", 118),     // esr
        ("parity/loop/7", 18),                      // loop
        ("graph/tc_log_loop/cycle/6", 62),          // logloop
        ("iterate/count_log_n/16", 14),             // logloop
        ("aggregates/cardinality_extern/33", 3),    // extern
    ];
    for (name, floor) in golden {
        let entry = corpus
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("{name}: no such corpus entry"));
        let cost = analyze_query(&entry.expr, &[], &registry).cost;
        assert_eq!(cost.work_floor, floor, "{name}");
    }
    // The README's doomed query, and an open query: with `r` empty only the
    // three nodes `ext`, `λ` and `r` charge.
    let readme = ncql::surface::parse("{@1} union {@2}").expect("parses");
    assert_eq!(analyze_query(&readme, &[], &registry).cost.work_floor, 6);
    let schema = vec![("r".to_string(), Type::set(Type::Base))];
    let open = ncql::surface::parse("ext(\\x: atom. {x}, r)").expect("parses");
    assert_eq!(analyze_query(&open, &schema, &registry).cost.work_floor, 3);
}

#[test]
fn open_query_bounds_cover_swept_cardinalities() {
    let session = session();
    let schema = vec![("r".to_string(), Type::set(Type::Base))];
    let pair_schema = vec![(
        "g".to_string(),
        Type::set(Type::prod(Type::Base, Type::Base)),
    )];
    // (query text, schema, binding generator) — each prepared once through
    // the full front end, then executed across cardinalities against the
    // same symbolic bound.
    type SweptCase<'a> = (&'a str, &'a [(String, Type)], &'a dyn Fn(u64) -> Value);
    let atoms = |n: u64| Value::atom_set(0..n);
    let pairs = |n: u64| {
        Value::Set(
            (0..n)
                .map(|i| Value::pair(Value::Atom(i), Value::Atom((i + 1) % n.max(1))))
                .collect(),
        )
    };
    let swept: Vec<SweptCase> = vec![
        ("ext(\\x: atom. {x}, r)", &schema, &atoms),
        ("card(r)", &schema, &atoms),
        (
            "dcr(0, \\x: atom. 1, \\p: (nat * nat). nat_add(pi1 p, pi2 p), r)",
            &schema,
            &atoms,
        ),
        (
            "sri(empty[atom], \\q: (atom * {atom}). {pi1 q} union pi2 q, r)",
            &schema,
            &atoms,
        ),
        ("ext(\\e: (atom * atom). {pi2 e}, g)", &pair_schema, &pairs),
        (
            "logloop(\\s: {atom}. s union {@0}, r, empty[atom])",
            &schema,
            &atoms,
        ),
        // The floor counts the constant operand's elements (union, ext
        // applications, iterator rounds) even when `r` is empty.
        ("r union {@1}", &schema, &atoms),
        (
            "ext(\\x: atom. {x}, {@1} union {@2} union r)",
            &schema,
            &atoms,
        ),
        (
            "loop(\\n: nat. nat_add(n, n), {@1} union {@2} union {@3} union r, 1)",
            &schema,
            &atoms,
        ),
        (
            "logloop(\\n: nat. nat_add(n, n), {@1} union {@2} union {@3} union r, 1)",
            &schema,
            &atoms,
        ),
    ];
    for (text, schema, gen) in swept {
        let query = session
            .prepare_with_schema(text, schema)
            .unwrap_or_else(|e| panic!("{text}: prepare failed: {e}"));
        let name = &schema[0].0;
        for n in [0u64, 1, 2, 5, 13, 40] {
            let bindings = vec![(name.clone(), gen(n))];
            let context = format!("{text} at |{name}|={n}");
            let outcome = session
                .execute_with_bindings(&query, &bindings)
                .unwrap_or_else(|e| panic!("{context}: evaluation failed: {e}"));
            let lookup = |var: &str| -> Option<u64> {
                bindings
                    .iter()
                    .find(|(bound, _)| bound == var)
                    .and_then(|(_, v)| v.cardinality())
                    .map(|c| c as u64)
            };
            let finite = check_bounds(&query.analysis().cost, &outcome.stats, &lookup, &context);
            assert!(finite, "{context}: expected a finite symbolic bound");
        }
    }
}
