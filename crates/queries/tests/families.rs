//! What each family of the pack claims, checked through the engine's checked
//! pipeline (`prepare_with_schema` + `execute_with_bindings`): one row per
//! pack text, bindings and expectation — a value against the native
//! [`Relation`] baseline or a closed form, an inferred type, a recursion
//! depth, a set-size limit, or how the span grows with the input.

use ncql_core::cost::log_rounds;
use ncql_core::EvalError;
use ncql_engine::{Error, Outcome, PreparedQuery, Session, SessionBuilder};
use ncql_object::Value;
use ncql_queries::{datagen, differential_corpus, pack, Relation};
use ncql_surface::parse_type;

type Bindings = Vec<(String, Value)>;

enum Expect {
    /// The value.
    Is(Value),
    /// The inferred type, in surface syntax.
    Typed(&'static str),
    /// The recursion depth of the prepared plan.
    Depth(usize),
    /// Under a cap of [`CAP`] elements on every intermediate set: `None`,
    /// the cap is hit; `Some(n)`, a result of `n` elements.
    Capped(Option<usize>),
    /// The span at these bindings is below this multiple of the span at the
    /// row's own.
    SpanGrowsBelow(Bindings, u64),
    /// ... or above it.
    SpanGrowsAbove(Bindings, u64),
}

const CAP: usize = 4096;

fn bind(pairs: &[(&str, Value)]) -> Bindings {
    pairs
        .iter()
        .map(|(n, v)| (n.to_string(), v.clone()))
        .collect()
}

fn s(v: Value) -> Bindings {
    bind(&[("s", v)])
}

fn r(rel: &Relation) -> Bindings {
    bind(&[("r", rel.to_value())])
}

fn atoms(n: u64) -> Value {
    Value::atom_set(0..n)
}

fn rel(pairs: &[(u64, u64)]) -> Relation {
    Relation::from_pairs(pairs.iter().copied())
}

fn path(n: u64) -> Relation {
    datagen::path_graph(n)
}

fn cycle(n: u64) -> Relation {
    datagen::cycle_graph(n)
}

/// The powerset of `{@0, …, @n−1}`, each subset read off a bit mask.
fn powerset(n: u64) -> Value {
    Value::set_from(
        (0..1u64 << n).map(|mask| Value::atom_set((0..n).filter(|i| mask >> i & 1 == 1))),
    )
}

fn rows() -> Vec<(&'static str, Bindings, Expect)> {
    use Expect::*;
    let mut rows = Vec::new();
    // §1 parity: the three forms agree, and dcr's span grows with log n.
    for n in [0u64, 1, 2, 3, 7, 8, 15, 16, 33] {
        let spaced = Value::atom_set((0..n).map(|i| i * 3 + 1));
        for form in ["parity/dcr", "parity/esr", "parity/loop"] {
            rows.push((form, s(spaced.clone()), Is(Value::Bool(n % 2 == 1))));
        }
    }
    for form in ["parity/dcr", "parity/esr", "parity/loop"] {
        rows.push((form, s(atoms(4)), Typed("bool")));
    }
    rows.push(("parity/dcr", s(atoms(4)), Depth(1)));
    rows.push(("parity/loop", s(atoms(4)), Depth(1)));
    rows.push(("parity/dcr", s(atoms(32)), SpanGrowsBelow(s(atoms(512)), 3)));
    rows.push(("parity/esr", s(atoms(32)), SpanGrowsAbove(s(atoms(512)), 8)));

    // Transitive closure: every strategy computes the baseline's closure.
    let closures = [
        "graph/tc_dcr",
        "graph/tc_log_loop",
        "graph/tc_blog_loop",
        "graph/tc_elementwise",
    ];
    for graph in [
        path(5),
        cycle(6),
        cycle(12),
        rel(&[(1, 2), (2, 3), (5, 1), (3, 5)]),
    ] {
        for form in closures {
            rows.push((form, r(&graph), Is(graph.transitive_closure().to_value())));
        }
    }
    rows.push(("graph/tc_dcr", r(&Relation::new()), Is(Value::empty_set())));
    for form in closures {
        rows.push((form, r(&path(3)), Typed("{(atom * atom)}")));
    }
    for form in ["graph/tc_dcr", "graph/tc_log_loop", "graph/tc_elementwise"] {
        rows.push((form, r(&path(3)), Depth(1)));
    }
    // Example 7.1: dcr's span grows slower than element by element's.
    rows.push(("graph/tc_dcr", r(&path(8)), SpanGrowsBelow(r(&path(48)), 2)));
    rows.push((
        "graph/tc_elementwise",
        r(&path(8)),
        SpanGrowsAbove(r(&path(48)), 2),
    ));
    let from = |graph: &Relation, start: u64| {
        let mut b = r(graph);
        b.push(("start".to_string(), Value::Atom(start)));
        b
    };
    // 1 lies on a cycle, so it reaches itself.
    let looped = rel(&[(1, 2), (2, 3), (3, 1), (7, 8)]);
    rows.push((
        "graph/reachable_from",
        from(&looped, 1),
        Is(Value::atom_set([1, 2, 3])),
    ));
    rows.push(("graph/reachable_from", from(&path(3), 0), Typed("{atom}")));
    rows.push((
        "graph/strongly_connected",
        r(&cycle(5)),
        Is(Value::Bool(true)),
    ));
    rows.push((
        "graph/strongly_connected",
        r(&path(4)),
        Is(Value::Bool(false)),
    ));
    rows.push(("graph/strongly_connected", r(&path(3)), Typed("bool")));
    rows.push((
        "graph/symmetric_closure",
        r(&rel(&[(1, 2)])),
        Is(Value::relation_from_pairs([(1, 2), (2, 1)])),
    ));
    // A binary tree 0 → {1, 2}, 1 → {3, 4}, 2 → {5, 6}: the generations
    // {1, 2} and {3, 4, 5, 6}, each related to itself.
    let tree = rel(&[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]);
    let generations = [1..3, 3..7]
        .into_iter()
        .flat_map(|g| g.clone().flat_map(move |a| g.clone().map(move |b| (a, b))));
    rows.push((
        "graph/same_generation",
        r(&tree),
        Is(Value::relation_from_pairs(generations)),
    ));
    let diagonal = (0..=3).map(|v| (v, v));
    let closure = path(3).transitive_closure();
    let reflexive = Value::relation_from_pairs(closure.iter().chain(diagonal));
    rows.push(("graph/reflexive_tc_dcr", r(&path(3)), Is(reflexive)));

    // Relational algebra.
    let two = |r: &[(u64, u64)], s: Value| {
        bind(&[
            ("r", Value::relation_from_pairs(r.iter().copied())),
            ("s", s),
        ])
    };
    let joined =
        [3, 7].map(|c| Value::pair(Value::pair(Value::Atom(1), Value::Atom(2)), Value::Atom(c)));
    let join_input = two(
        &[(1, 2), (4, 5)],
        Value::relation_from_pairs([(2, 3), (2, 7)]),
    );
    rows.push(("relalg/join", join_input, Is(Value::set_from(joined))));
    let partitioned = two(
        &[(1, 2), (3, 4), (5, 6)],
        Value::relation_from_pairs([(2, 0), (6, 0)]),
    );
    let semi = Value::relation_from_pairs([(1, 2), (5, 6)]);
    rows.push(("relalg/semijoin", partitioned.clone(), Is(semi)));
    rows.push((
        "relalg/antijoin",
        partitioned,
        Is(Value::relation_from_pairs([(3, 4)])),
    ));
    let leq = r(&rel(&[(1, 2), (5, 3), (4, 4)]));
    rows.push((
        "relalg/select_leq",
        leq,
        Is(Value::relation_from_pairs([(1, 2), (4, 4)])),
    ));
    // r = 10 × {1, 2} ∪ 20 × {1}; r ÷ {1, 2} = {10}.
    let dividend = two(&[(10, 1), (10, 2), (20, 1)], Value::atom_set([1, 2]));
    rows.push(("relalg/division", dividend, Is(Value::atom_set([10]))));
    // The corpus's instance, against the baseline: the `a` with (a, b) ∈ r
    // for every divisor b — and there is one.
    let corpus = differential_corpus();
    let division = corpus.iter().find(|e| e.name == "relalg/division");
    let bindings = division.expect("in the corpus").bindings.clone();
    let dividend = Relation::from_value(&bindings[0].1).expect("a relation");
    let divisor = bindings[1].1.atoms();
    let quotient: Vec<u64> = (dividend.active_domain().into_iter())
        .filter(|&a| divisor.iter().all(|&b| dividend.contains(a, b)))
        .collect();
    assert!(!quotient.is_empty());
    rows.push(("relalg/division", bindings, Is(Value::atom_set(quotient))));
    let pairs = Value::relation_from_pairs([(1, 1), (2, 2)]);
    rows.push(("relalg/diagonal", s(Value::atom_set([1, 2])), Is(pairs)));

    // Prop. 7.8: the ordered universe's arithmetic.
    let successor = Value::relation_from_pairs((0..4).map(|i| (i, i + 1)));
    rows.push(("arith/successor", s(atoms(5)), Is(successor)));
    let lt =
        |n: u64| Value::relation_from_pairs((0..n).flat_map(|x| (x + 1..n).map(move |y| (x, y))));
    rows.push(("arith/strict_order", s(atoms(4)), Is(lt(4))));
    rows.push(("arith/strict_order_via_tc", s(atoms(6)), Is(lt(6))));
    let lookup = bind(&[
        ("plus", datagen::addition_table(8)),
        ("a", Value::Atom(3)),
        ("b", Value::Atom(4)),
    ]);
    rows.push(("arith/add_lookup", lookup, Is(Value::atom_set([7]))));

    // Prop. 6.3: aggregates over the external arithmetic Σ.
    let seven = s(Value::atom_set([3, 1, 4, 1, 5, 9, 2, 6]));
    rows.push((
        "aggregates/cardinality_dcr",
        seven.clone(),
        Is(Value::Nat(7)),
    ));
    rows.push(("aggregates/cardinality_extern", seven, Is(Value::Nat(7))));
    rows.push((
        "aggregates/cardinality_dcr",
        s(Value::empty_set()),
        Is(Value::Nat(0)),
    ));
    rows.push((
        "aggregates/sum_dcr",
        s(Value::atom_set([1, 2, 3, 4])),
        Is(Value::Nat(10)),
    ));
    let spread = s(Value::atom_set([5, 17, 3]));
    rows.push((
        "aggregates/max_atom_dcr",
        spread.clone(),
        Is(Value::Atom(17)),
    ));
    rows.push((
        "aggregates/min_atom_relational",
        spread,
        Is(Value::atom_set([3])),
    ));
    rows.push((
        "aggregates/even_cardinality",
        s(atoms(2)),
        Is(Value::Bool(true)),
    ));
    rows.push((
        "aggregates/even_cardinality",
        s(atoms(3)),
        Is(Value::Bool(false)),
    ));
    rows.push((
        "aggregates/double_exponential",
        s(atoms(10)),
        Is(Value::Nat(1024)),
    ));
    rows.push((
        "aggregates/double_exponential",
        s(atoms(20)),
        Is(Value::Nat(1 << 20)),
    ));
    for form in [
        "aggregates/cardinality_dcr",
        "aggregates/cardinality_extern",
        "aggregates/double_exponential",
    ] {
        rows.push((form, s(atoms(2)), Typed("nat")));
    }
    rows.push(("aggregates/max_atom_dcr", s(atoms(2)), Typed("atom")));
    rows.push(("aggregates/even_cardinality", s(atoms(2)), Typed("bool")));

    // §2 / Thm. 6.1: powerset needs bounded recursion.
    let subsets = [&[][..], &[1], &[2], &[1, 2]].map(|set| Value::atom_set(set.iter().copied()));
    let two = s(Value::atom_set([1, 2]));
    rows.push(("powerset/dcr", two, Is(Value::set_from(subsets))));
    rows.push(("powerset/dcr", s(atoms(5)), Is(powerset(5))));
    rows.push(("powerset/dcr", s(Value::empty_set()), Is(powerset(0))));
    rows.push(("powerset/dcr", s(atoms(1)), Typed("{{atom}}")));
    rows.push(("powerset/dcr", s(atoms(1)), Depth(1)));
    rows.push(("powerset/dcr", s(atoms(16)), Capped(None)));
    // ∅ and the 16 singletons.
    rows.push((
        "powerset/bounded_small_subsets",
        s(atoms(16)),
        Capped(Some(17)),
    ));
    rows.push((
        "powerset/bounded_small_subsets",
        s(atoms(2)),
        Typed("{{atom}}"),
    ));

    // Example 7.2: n, n², log n and log² n iterations.
    for n in [0u64, 1, 2, 3, 5, 8, 13, 21] {
        let log = log_rounds(n as usize);
        rows.push(("iterate/count_n", s(atoms(n)), Is(Value::Nat(n))));
        rows.push((
            "iterate/count_n_squared",
            s(atoms(n)),
            Is(Value::Nat(n * n)),
        ));
        rows.push(("iterate/count_log_n", s(atoms(n)), Is(Value::Nat(log))));
        rows.push((
            "iterate/count_log_squared_n",
            s(atoms(n)),
            Is(Value::Nat(log * log)),
        ));
    }
    for (form, depth) in [
        ("iterate/count_n", 1),
        ("iterate/count_n_squared", 1),
        ("iterate/count_log_n", 1),
        ("iterate/count_log_squared_n", 2),
    ] {
        rows.push((form, s(atoms(4)), Depth(depth)));
        rows.push((form, s(atoms(3)), Typed("nat")));
    }
    rows
}

fn prepare(session: &Session, name: &str) -> PreparedQuery {
    let query = pack::query(name).unwrap_or_else(|| panic!("{name}: not in the pack"));
    session
        .prepare_with_schema(query.text, &query.schema)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn run(session: &Session, plan: &PreparedQuery, name: &str, bindings: &Bindings) -> Outcome {
    session
        .execute_with_bindings(plan, bindings)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn pack_families_meet_their_claims() {
    let session = Session::new();
    let capped = SessionBuilder::new().max_set_size(CAP).build();
    for (name, bindings, expect) in rows() {
        let plan = prepare(&session, name);
        match &expect {
            Expect::Is(want) => {
                assert_eq!(run(&session, &plan, name, &bindings).value, *want, "{name}");
            }
            Expect::Typed(ty) => {
                assert_eq!(*plan.ty(), parse_type(ty).expect("a type"), "{name}");
            }
            Expect::Depth(depth) => assert_eq!(plan.recursion_depth(), *depth, "{name}"),
            Expect::Capped(None) => {
                let plan = prepare(&capped, name);
                let err = capped.execute_with_bindings(&plan, &bindings).unwrap_err();
                assert!(
                    matches!(err, Error::Eval(EvalError::SetTooLarge { .. })),
                    "{name}: {err}"
                );
            }
            Expect::Capped(Some(n)) => {
                let plan = prepare(&capped, name);
                let out = run(&capped, &plan, name, &bindings);
                assert_eq!(out.value.cardinality(), Some(*n), "{name}");
                assert!(out.stats.max_set_size <= CAP, "{name}");
            }
            Expect::SpanGrowsBelow(larger, factor) | Expect::SpanGrowsAbove(larger, factor) => {
                let small = run(&session, &plan, name, &bindings).stats.span;
                let large = run(&session, &plan, name, larger).stats.span;
                let below = matches!(expect, Expect::SpanGrowsBelow(..));
                assert_eq!(
                    large < small * *factor,
                    below,
                    "{name}: span {small} -> {large}, factor {factor}"
                );
            }
        }
    }
}
