//! The differential corpus: one closed, evaluable instance of every
//! query family in this crate, at sizes small enough for a test suite but
//! large enough that the parallel backend's cutover actually forks.
//!
//! The corpus is what the cross-backend differential suite iterates — every
//! query is evaluated on the sequential backend and on the parallel backend at
//! several thread counts, asserting bit-identical values and cost statistics —
//! and what the surface-syntax round-trip test uses as its idiom reference.
//! Keep entries *closed* (no free variables) and deterministic.

use crate::{aggregates, arith, datagen, graph, iterate, parity, powerset, relalg};
use ncql_core::expr::Expr;
use ncql_object::Value;

/// A named closed query of the corpus.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Stable name, `family/variant/size`.
    pub name: String,
    /// The closed query expression.
    pub expr: Expr,
}

fn entry(name: impl Into<String>, expr: Expr) -> CorpusEntry {
    CorpusEntry {
        name: name.into(),
        expr,
    }
}

fn atoms(n: u64) -> Expr {
    Expr::constant(Value::atom_set(0..n))
}

/// Every query family in this crate, instantiated closed: parity, graph,
/// relational algebra, ordered-universe arithmetic, aggregates, powerset and
/// the iteration counters. Used by `tests/parallel_differential.rs` at the
/// workspace root.
pub fn differential_corpus() -> Vec<CorpusEntry> {
    let mut out = Vec::new();

    // Parity (§1) in its three variants, spanning the cutover boundary.
    for n in [0u64, 1, 7, 64, 130] {
        out.push(entry(
            format!("parity/dcr/{n}"),
            parity::parity_dcr(atoms(n)),
        ));
        out.push(entry(
            format!("parity/esr/{n}"),
            parity::parity_esr(atoms(n)),
        ));
        out.push(entry(
            format!("parity/loop/{n}"),
            parity::parity_loop(atoms(n)),
        ));
    }

    // Example 7.1 / Prop. 2.2 — transitive closure and friends over generated graphs.
    let path = |n: u64| Expr::constant(datagen::path_graph(n).to_value());
    let cycle = |n: u64| Expr::constant(datagen::cycle_graph(n).to_value());
    let random = |n: u64| Expr::constant(datagen::random_graph(n, 2.5 / n as f64, 7).to_value());
    for n in [6u64, 18] {
        out.push(entry(
            format!("graph/tc_dcr/path/{n}"),
            graph::tc_dcr(path(n)),
        ));
        out.push(entry(
            format!("graph/tc_log_loop/cycle/{n}"),
            graph::tc_log_loop(cycle(n)),
        ));
        out.push(entry(
            format!("graph/tc_elementwise/random/{n}"),
            graph::tc_elementwise(random(n)),
        ));
    }
    out.push(entry(
        "graph/reflexive_tc_dcr/path/10",
        graph::reflexive_tc_dcr(path(10)),
    ));
    out.push(entry(
        "graph/reachable_from/cycle/12",
        graph::reachable_from(cycle(12), Expr::atom(0)),
    ));
    out.push(entry(
        "graph/strongly_connected/cycle/10",
        graph::strongly_connected(cycle(10)),
    ));
    out.push(entry(
        "graph/symmetric_closure/path/12",
        graph::symmetric_closure(path(12)),
    ));
    out.push(entry(
        "graph/same_generation/path/8",
        graph::same_generation(path(8)),
    ));

    // Classical relational algebra over random relations.
    let r = Expr::constant(datagen::random_relation(12, 40, 11).to_value());
    let s = Expr::constant(datagen::random_relation(12, 40, 13).to_value());
    out.push(entry("relalg/join", relalg::join(r.clone(), s.clone())));
    out.push(entry(
        "relalg/semijoin",
        relalg::semijoin(r.clone(), s.clone()),
    ));
    out.push(entry(
        "relalg/antijoin",
        relalg::antijoin(r.clone(), s.clone()),
    ));
    out.push(entry("relalg/select_leq", relalg::select_leq(r.clone())));
    out.push(entry("relalg/division", relalg::division(r, s)));
    out.push(entry("relalg/diagonal", relalg::diagonal(atoms(40))));

    // Prop. 7.8 — ordered-universe arithmetic toolkit.
    out.push(entry(
        "arith/strict_order/24",
        arith::strict_order(atoms(24)),
    ));
    out.push(entry("arith/successor/24", arith::successor(atoms(24))));
    out.push(entry(
        "arith/strict_order_via_tc/12",
        arith::strict_order_via_tc_of_successor(atoms(12)),
    ));
    out.push(entry(
        "arith/add_lookup/7+5",
        arith::add_lookup(
            Expr::constant(arith::addition_table(16)),
            Expr::atom(7),
            Expr::atom(5),
        ),
    ));

    // Prop. 6.3 — aggregates over the external arithmetic Σ.
    for n in [9u64, 70] {
        out.push(entry(
            format!("aggregates/sum_dcr/{n}"),
            aggregates::sum_dcr(atoms(n), |x| Expr::extern_call("atom_to_nat", vec![x])),
        ));
        out.push(entry(
            format!("aggregates/cardinality_dcr/{n}"),
            aggregates::cardinality_dcr(atoms(n)),
        ));
    }
    out.push(entry(
        "aggregates/cardinality_extern/33",
        aggregates::cardinality_extern(atoms(33)),
    ));
    out.push(entry(
        "aggregates/max_atom_dcr/50",
        aggregates::max_atom_dcr(atoms(50)),
    ));
    out.push(entry(
        "aggregates/min_atom_relational/20",
        aggregates::min_atom_relational(atoms(20)),
    ));
    out.push(entry(
        "aggregates/even_cardinality/21",
        aggregates::even_cardinality(atoms(21)),
    ));
    out.push(entry(
        "aggregates/double_exponential/12",
        aggregates::double_exponential(atoms(12)),
    ));

    // Thm. 6.1 — powerset, unbounded (kept small!) and bounded.
    out.push(entry("powerset/dcr/7", powerset::powerset_dcr(atoms(7))));
    out.push(entry(
        "powerset/bounded_small_subsets/24",
        powerset::bounded_small_subsets(atoms(24)),
    ));

    // Example 7.2 iteration counters.
    for n in [5u64, 16] {
        out.push(entry(
            format!("iterate/count_n/{n}"),
            iterate::count_n(atoms(n)),
        ));
        out.push(entry(
            format!("iterate/count_n_squared/{n}"),
            iterate::count_n_squared(atoms(n)),
        ));
        out.push(entry(
            format!("iterate/count_log_n/{n}"),
            iterate::count_log_n(atoms(n)),
        ));
        out.push(entry(
            format!("iterate/count_log_squared_n/{n}"),
            iterate::count_log_squared_n(atoms(n)),
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncql_core::eval::eval_closed;
    use std::collections::BTreeSet;

    #[test]
    fn corpus_names_are_unique_and_queries_closed() {
        let corpus = differential_corpus();
        assert!(corpus.len() >= 40, "corpus has {} entries", corpus.len());
        let names: BTreeSet<&str> = corpus.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names.len(), corpus.len(), "duplicate corpus names");
        for e in &corpus {
            assert!(
                ncql_core::analysis::free_vars(&e.expr).is_empty(),
                "{} has free variables",
                e.name
            );
        }
    }

    #[test]
    fn every_corpus_query_evaluates_sequentially() {
        for e in differential_corpus() {
            eval_closed(&e.expr).unwrap_or_else(|err| panic!("{} failed: {err}", e.name));
        }
    }
}
