//! Quickstart: build a small ordered database, run queries of the pack (NCQL
//! texts whose header declares their free variables) over it and write one in
//! the surface syntax directly, all through the engine's `Session`, and look
//! at the work/span cost model that makes the NC claims of the paper
//! measurable.
//!
//! Run with: `cargo run --example quickstart`

use ncql::queries::{pack, Relation};
use ncql::surface;
use ncql::{object::Value, Session};

fn main() {
    // One session serves every query in this example: it owns the registry Σ,
    // the resource limits, the backend choice, and the prepared-plan cache.
    let session = Session::new();

    // An ordered database: a binary relation (a small directed graph).
    let edges = Relation::from_pairs(vec![(1, 2), (2, 3), (3, 4), (4, 2), (7, 8)]);

    // --- Transitive closure via divide-and-conquer recursion (the §1 example):
    // the pack's text, prepared (typechecked + analysed) against the schema
    // its header declares, `r : {(atom * atom)}`.
    let tc = pack::query("graph/tc_dcr").expect("in the pack");
    let tc_query = session
        .prepare_with_schema(tc.text, &tc.schema)
        .expect("the query typechecks");
    println!(
        "transitive closure query : dcr(∅, λy.r, λ(r1,r2). r1 ∪ r2 ∪ r1∘r2)(Π1 r ∪ Π2 r) (type {})",
        tc_query.ty()
    );
    println!(
        "recursion nesting depth  : {} (so the query is in AC^{})",
        tc_query.recursion_depth(),
        tc_query.ac_level()
    );

    let outcome = session
        .execute_with_bindings(&tc_query, &[("r".to_string(), edges.to_value())])
        .expect("evaluation succeeds");
    println!("result                   : {}", outcome.value);
    println!(
        "work / span              : {} / {}",
        outcome.stats.work, outcome.stats.span
    );
    println!(
        "combiner applications    : {}",
        outcome.stats.combiner_calls
    );

    // Cross-check against the native baseline.
    assert_eq!(outcome.value, edges.transitive_closure().to_value());
    println!("matches the native semi-naive baseline ✓");

    // --- Parity, straight from the paper's introduction.
    let parity = pack::query("parity/dcr").expect("in the pack");
    let parity_query = session
        .prepare_with_schema(parity.text, &parity.schema)
        .expect("parity typechecks");
    let numbers = [("s".to_string(), Value::atom_set(0..13))];
    let parity_out = session
        .execute_with_bindings(&parity_query, &numbers)
        .expect("parity evaluates");
    println!(
        "\nparity of a 13-element set: {} (span {}, work {})",
        parity_out.value, parity_out.stats.span, parity_out.stats.work
    );

    // --- A closed query can be written inline too; `prepare` parses,
    // typechecks and caches the plan, `execute` evaluates it.
    let text = "dcr(false, \\y: atom. true, \
                \\p: (bool * bool). if pi1 p then (if pi2 p then false else true) else pi2 p, \
                {@1} union {@2} union {@3} union {@4} union {@5})";
    let prepared = session.prepare(text).expect("the surface query prepares");
    let value = session
        .execute(&prepared)
        .expect("the parsed query evaluates")
        .value;
    println!("\nsurface-syntax parity of {{1..5}}: {value}");
    println!("pretty-printed back        : {}", prepared.normal_form());

    // Preparing the same text again is a cache hit: the same plan comes back.
    let again = session.prepare(text).expect("hit");
    assert!(again.ptr_eq(&prepared));
    let metrics = session.cache_metrics();
    println!(
        "plan cache                 : {} hit(s), {} miss(es)",
        metrics.hits, metrics.misses
    );
    // The surface round trip (pretty ∘ parse) is the identity on this query.
    assert_eq!(
        surface::print_expr(&surface::parse(text).unwrap()),
        prepared.normal_form()
    );
}
