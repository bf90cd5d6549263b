//! Optimizer differential suite: every query in the `ncql-queries` corpus,
//! and an open pack over a bound 10 000-row relation, is prepared from its
//! text against its schema through the engine twice — once at
//! `OptLevel::None` (the raw typed AST) and once at `OptLevel::Default` (the
//! cost-gated algebraic rewriter) — and executed with its bindings on
//! the sequential backend and on the parallel backend across pool sizes,
//! asserting the optimizer's whole contract:
//!
//! * values are bit-identical with the optimizer on vs off, on every backend;
//! * measured `work` and `span` never regress on plans that complete;
//! * the static work bound never regresses, and on a healthy corpus a
//!   meaningful number of queries get a *strictly* lower bound.

use ncql::core::parallelism_from_env;
use ncql::object::{Type, Value};
use ncql::queries::differential_corpus;
use ncql::{OptLevel, Session, SessionBuilder};

/// The `(parallelism, pool_threads)` ladder: sequential plus 4-way parallel
/// with the pool sized at the fan-out and oversubscribed, plus whatever the
/// CI matrix asks for via `NCQL_TEST_PARALLELISM`.
fn backend_configs() -> Vec<(Option<usize>, Option<usize>)> {
    let mut configs = vec![(None, None), (Some(4), Some(1)), (Some(4), Some(4))];
    if let Some(n) = parallelism_from_env() {
        if n >= 2 && !configs.contains(&(Some(n), None)) {
            configs.push((Some(n), None));
        }
    }
    configs
}

/// One input of the differential loop: a corpus entry, or an open text over
/// the bound `papers` relation.
struct Case {
    name: String,
    text: String,
    schema: Vec<(String, Type)>,
    bindings: Vec<(String, Value)>,
    /// The rule `OptLevel::Default` must report on this input.
    must_fire: Option<&'static str>,
}

/// Rows of `papers : {(atom * nat)}`; the `nat` column is the row index, so
/// a threshold on it sets a filter's selectivity exactly.
const PAPERS_ROWS: u64 = 10_000;

/// The open pack: filters and a fusable pair over one 10 000-row columnar
/// relation, large enough that what the optimizer leaves (or rewrites) shows
/// in measured work; two of them name the rule that must fire.
fn open_pack() -> Vec<Case> {
    let schema = vec![(
        "papers".to_string(),
        Type::set(Type::prod(Type::Base, Type::Nat)),
    )];
    let papers = Value::set_from((0..PAPERS_ROWS).map(|i| {
        let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Value::pair(Value::Atom(k % 4001), Value::Nat(i))
    }));
    assert!(papers.as_set().is_some_and(|s| s.is_columnar()));
    let bindings = vec![("papers".to_string(), papers)];
    let case = |name: &str, must_fire, text: String| Case {
        name: format!("open/{name}"),
        text,
        schema: schema.clone(),
        bindings: bindings.clone(),
        must_fire,
    };
    // A sum over the rows a kernel-compiled filter keeps: the combining tree
    // makes one call per *kept* row, which moving the filter into the `dcr`
    // leaf would turn into one per row of `papers`.
    let sum_over_filter = |threshold: u64| {
        format!(
            "dcr(0, \\p: (atom * nat). pi2 p, \\q: (nat * nat). nat_add(pi1 q, pi2 q), \
             ext(\\p: (atom * nat). if nat_leq({threshold}, pi2 p) then {{p}} \
             else empty[(atom * nat)], papers))"
        )
    };
    vec![
        case(
            "sum_over_filter/1%",
            None,
            sum_over_filter(PAPERS_ROWS / 100 * 99),
        ),
        case(
            "sum_over_filter/99%",
            None,
            sum_over_filter(PAPERS_ROWS / 100),
        ),
        case(
            "fusable_pair",
            Some("ext-fusion"),
            "ext(\\y: ((atom * nat) * nat). {nat_add(pi2 y, 1)}, \
             ext(\\p: (atom * nat). {(p, pi2 p)}, papers))"
                .to_string(),
        ),
        case(
            "closed_subterm_in_open_body",
            Some("const-fold"),
            "ext(\\p: (atom * nat). if nat_leq(nat_add(1000, 1000), pi2 p) then {p} \
             else empty[(atom * nat)], papers)"
                .to_string(),
        ),
    ]
}

fn session(
    opt: OptLevel,
    (parallelism, pool_threads): (Option<usize>, Option<usize>),
    kernels: bool,
) -> Session {
    SessionBuilder::new()
        .opt_level(opt)
        .parallelism(parallelism)
        .pool_threads(pool_threads)
        .parallel_cutoff(64)
        .row_kernels(kernels)
        .build()
}

#[test]
fn corpus_values_are_invariant_and_work_only_improves() {
    let corpus = differential_corpus();
    assert!(
        corpus.len() >= 76,
        "corpus unexpectedly small: {}",
        corpus.len()
    );
    let mut cases: Vec<Case> = corpus
        .into_iter()
        .map(|entry| Case {
            name: entry.name,
            text: entry.text.to_string(),
            schema: entry.schema,
            bindings: entry.bindings,
            must_fire: None,
        })
        .collect();
    cases.extend(open_pack());

    let mut strictly_lower_bounds: Vec<String> = Vec::new();
    for (backend, kernels) in backend_configs()
        .into_iter()
        .flat_map(|backend| [(backend, true), (backend, false)])
    {
        let at = format!("parallelism {:?}, kernels {kernels}", backend.0);
        let raw_session = session(OptLevel::None, backend, kernels);
        let opt_session = session(OptLevel::Default, backend, kernels);
        for case in &cases {
            let (name, bindings) = (&case.name, &case.bindings[..]);
            let raw = raw_session
                .prepare_with_schema(&case.text, &case.schema)
                .unwrap_or_else(|e| panic!("{name}: raw prepare failed: {e}"));
            let opt = opt_session
                .prepare_with_schema(&case.text, &case.schema)
                .unwrap_or_else(|e| panic!("{name}: optimized prepare failed: {e}"));
            if let Some(rule) = case.must_fire {
                assert!(
                    opt.rewrites().iter().any(|fired| fired.rule == rule),
                    "{name}: expected {rule} to be reported, got {:?}",
                    opt.rewrites()
                );
            }
            let raw_out = raw_session
                .execute_with_bindings(&raw, bindings)
                .unwrap_or_else(|e| panic!("{name}: raw execute failed: {e}"));
            let opt_out = opt_session
                .execute_with_bindings(&opt, bindings)
                .unwrap_or_else(|e| panic!("{name}: optimized execute failed: {e}"));
            assert_eq!(
                opt_out.value, raw_out.value,
                "{name}: optimization changed the value at {at}"
            );
            assert!(
                opt_out.stats.work <= raw_out.stats.work,
                "{name}: optimization regressed measured work ({} > {}) at {at}",
                opt_out.stats.work,
                raw_out.stats.work
            );
            assert!(
                opt_out.stats.span <= raw_out.stats.span,
                "{name}: optimization regressed measured span ({} > {}) at {at}",
                opt_out.stats.span,
                raw_out.stats.span
            );
            // The static gate's own promise: the rewritten plan's work bound
            // is pointwise no worse than the raw plan's — here at the
            // cardinalities of the case's bindings.
            let lookup = |var: &str| {
                let bound = bindings.iter().find(|(bound, _)| bound == var);
                bound.and_then(|(_, v)| v.cardinality()).map(|c| c as u64)
            };
            let raw_bound = raw.analysis().cost.work.eval(&lookup);
            let opt_bound = opt.analysis().cost.work.eval(&lookup);
            if let (Some(rb), Some(ob)) = (raw_bound, opt_bound) {
                assert!(
                    ob <= rb,
                    "{name}: optimization regressed the static work bound ({ob} > {rb})"
                );
                if backend.0.is_none() && ob < rb {
                    strictly_lower_bounds.push(format!("{name}: {rb} -> {ob}"));
                }
            }
        }
    }
    // Acceptance: a healthy rule set strictly improves a meaningful slice of
    // the corpus, not just one lucky query.
    assert!(
        strictly_lower_bounds.len() >= 3,
        "expected at least 3 corpus queries with strictly lower static work bounds, got: \
         {strictly_lower_bounds:?}"
    );
}

#[test]
fn optimized_plans_report_their_rewrites_consistently() {
    // Plumbing coherence on the whole corpus: a plan claims rewrites exactly
    // when its executing form differs from its normal form, and `raw_cost`
    // is present exactly when something fired.
    let opt_session = session(OptLevel::Default, (None, None), true);
    let mut fired_total = 0usize;
    for entry in differential_corpus() {
        let q = opt_session
            .prepare_with_schema(entry.text, &entry.schema)
            .unwrap_or_else(|e| panic!("{}: prepare failed: {e}", entry.name));
        assert_eq!(q.opt_level(), OptLevel::Default, "{}", entry.name);
        assert_eq!(
            q.rewrites().is_empty(),
            q.raw_cost().is_none(),
            "{}: raw_cost must be kept iff a rewrite fired",
            entry.name
        );
        if q.rewrites().is_empty() {
            assert_eq!(
                q.optimized_form(),
                q.normal_form(),
                "{}: nothing fired, so the executing plan is the raw plan",
                entry.name
            );
        }
        fired_total += q.rewrites().len();
    }
    assert!(
        fired_total > 0,
        "the optimizer fired on nothing in the whole corpus"
    );
}
