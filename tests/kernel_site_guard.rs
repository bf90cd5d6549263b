//! Regression guard for "one compile per λ site, not per closure instance":
//! the kernel compiler's counters — bumped inside the compiler, once per
//! call — move when a plan is prepared, by the number of `λ` bodies the plan
//! offers it, and do not move at all when the prepared plan is executed,
//! whatever the cardinality of its inputs. A join makes one closure of its
//! inner `λ` per outer row, and every one of them finds the kernel its site
//! was compiled to at prepare. A plan nobody prepared pays the same compiles
//! once per evaluation.
//!
//! This is deliberately the **only** test in this integration-test binary: it
//! asserts on the process-global [`ncql::engine::kernel_stats`] counters, and
//! any concurrently running test that evaluates anything would race it. Keep
//! future counter-reading scenarios inside this one function.

use ncql::core::expr::Expr;
use ncql::engine::{kernel_stats, KernelStats};
use ncql::object::{Type, Value};
use ncql::SessionBuilder;

/// The three `nested` texts of the benchmark pack, and one whose only site
/// is not liftable (a `union` is not a comprehension).
const JOIN: &str = "ext(\\a: (atom * atom). ext(\\p: (atom * nat). if pi2 a = pi1 p \
     then {(pi1 a, nat_sub(pi2 p, 1950))} else empty[(atom * nat)], papers), authored)";
const AGG_SUM: &str = "dcr(0, \\p: (atom * nat). nat_sub(pi2 p, 1950), \
     \\q: (nat * nat). nat_add(pi1 q, pi2 q), papers)";
const TC: &str = "logloop(\\s: {(atom * atom)}. s union ext(\\a: (atom * atom). \
     ext(\\b: (atom * atom). if pi2 a = pi1 b \
     then (if pi2 a = @999999 then empty[(atom * atom)] else {(pi1 a, pi2 b)}) \
     else empty[(atom * atom)], s), s), cites, cites)";
const DOUBLED: &str = "ext(\\a: (atom * atom). {a} union {a}, authored)";
/// A `λ` that reaches its `ext` as a closure: compiled where it is written.
const NAMED: &str = "let f = \\a: (atom * atom). {(pi2 a, pi1 a)} in ext(f, authored)";

fn papers(n: u64) -> Value {
    Value::set_from((0..n).map(|i| Value::pair(Value::Atom(i), Value::Nat(1950 + i % 70))))
}

/// `n` (author, paper) rows over `n` papers.
fn authored(n: u64) -> Value {
    Value::relation_from_pairs((0..n).map(|i| (1_000 + i / 2, (i * 7) % n)))
}

/// A path over `nodes` nodes with a few chords.
fn cites(nodes: u64) -> Value {
    let path = (1..nodes).map(|i| (i, i - 1));
    Value::relation_from_pairs(path.chain((3..nodes).step_by(3).map(|i| (i, i - 3))))
}

#[test]
fn an_execution_compiles_each_site_once_whatever_the_cardinality() {
    let session = SessionBuilder::new().build();
    let papers_ty = Type::set(Type::prod(Type::Base, Type::Nat));
    let schema = |names: &[&str]| -> Vec<(String, Type)> {
        let ty = |name: &str| match name {
            "papers" => papers_ty.clone(),
            _ => Type::binary_relation(),
        };
        names.iter().map(|n| (n.to_string(), ty(n))).collect()
    };
    let compiler_calls = || {
        let stats = kernel_stats();
        stats.compiles + stats.fallbacks
    };
    let mut prepared_with = Vec::new();
    let plans = [
        (JOIN, schema(&["papers", "authored"])),
        (AGG_SUM, schema(&["papers"])),
        (TC, schema(&["cites"])),
        (DOUBLED, schema(&["authored"])),
    ]
    .map(|(text, schema)| {
        let before = compiler_calls();
        let plan = session
            .prepare_with_schema(text, &schema)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        prepared_with.push(compiler_calls() - before);
        plan
    });
    // One call per flat-annotated `λ`: both of the join's and of `tc`'s
    // (whose outer sites reuse their inner kernels as join sites), `f` and
    // `u` of the `dcr`.
    assert_eq!(prepared_with, [2, 2, 2, 1]);
    let compiled = |plan: &ncql::PreparedQuery| plan.kernel_sites().iter().any(|s| s.compiled);
    assert_eq!(plans.each_ref().map(compiled), [true, true, true, false]);
    let sites = plans.each_ref().map(|plan| plan.kernel_sites().len());
    assert_eq!(sites, [2, 1, 2, 1]);

    // The `ext` of NAMED is not decided where it is written, and runs on the
    // kernel of the closure that reaches it: compiled at prepare, not again.
    let before = compiler_calls();
    let named = session
        .prepare_with_schema(NAMED, &schema(&["authored"]))
        .expect("NAMED prepares");
    assert_eq!(compiler_calls() - before, 1);
    assert!(!compiled(&named));
    let before = kernel_stats();
    session
        .execute_with_bindings(&named, &[("authored".to_string(), authored(64))])
        .expect("NAMED executes");
    let after = kernel_stats();
    let moved = |field: fn(&KernelStats) -> u64| field(&after) - field(&before);
    assert_eq!(
        [
            moved(|s| s.ext_hits),
            moved(|s| s.rows),
            moved(|s| s.compiles + s.fallbacks),
        ],
        [1, 64, 0],
    );

    // (join rows, aggregated papers, graph nodes): every relation columnar.
    let relations = |text: &str, (join, agg, nodes): (u64, u64, u64)| match text {
        JOIN => vec![("papers", papers(join)), ("authored", authored(join))],
        AGG_SUM => vec![("papers", papers(agg))],
        TC => vec![("cites", cites(nodes))],
        _ => vec![("authored", authored(join))],
    };
    for sizes in [(16, 100, 9), (64, 1_000, 12)] {
        for (plan, &calls) in plans.iter().zip(&prepared_with) {
            let text = plan.source().expect("prepared from text");
            let bindings: Vec<(String, Value)> = relations(text, sizes)
                .into_iter()
                .map(|(name, value)| (name.to_string(), value))
                .collect();
            let before = kernel_stats();
            session
                .execute_with_bindings(plan, &bindings)
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            let after = kernel_stats();
            // A plan with a compiled site ran on its kernels, and only such.
            assert_eq!(after.ext_hits > before.ext_hits, compiled(plan), "{text}");
            // On the kernels it was prepared with: nothing compiled.
            assert_eq!(
                after.compiles + after.fallbacks,
                before.compiles + before.fallbacks
            );

            // The same plan closed over its relations and evaluated without a
            // prepare is surveyed by the evaluation: the prepare's calls
            // again, at either size.
            let closed = relations(text, sizes)
                .into_iter()
                .fold(plan.expr().clone(), |body, (name, value)| {
                    Expr::let_in(name, Expr::constant(value), body)
                });
            let before = kernel_stats();
            session
                .evaluate(&closed)
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            let after = kernel_stats();
            assert_eq!(after.ext_hits > before.ext_hits, compiled(plan), "{text}");
            assert_eq!(
                (after.compiles + after.fallbacks) - (before.compiles + before.fallbacks),
                calls,
                "{text}"
            );
        }
    }
}
