//! The full query corpus must be lint-clean at deny level: none of the
//! pack's queries the differential suites trust may trip a deny-level
//! finding (an ignored combiner argument, a doomed work bound, ...), and
//! every one of them prepares on the checked pipeline. CI runs this alongside
//! the arch lint on every push.

use ncql::core::analyze_query;
use ncql::core::externs::ExternRegistry;
use ncql::queries::corpus::differential_corpus;
use ncql::{LintPolicy, SessionBuilder};

#[test]
fn corpus_is_deny_clean() {
    // The entries closed over their bindings: the analysis sees the data, so
    // a bound doomed at these sizes would be found.
    let registry = ExternRegistry::standard();
    for entry in differential_corpus() {
        let analysis = analyze_query(&entry.expr, &[], &registry);
        let denied: Vec<_> = analysis.deny_findings().collect();
        assert!(
            denied.is_empty(),
            "{}: deny-level lint findings: {denied:?}",
            entry.name
        );
    }
}

#[test]
fn corpus_prepares_under_a_deny_session() {
    // The engine-level gate agrees: every pack text prepares against its
    // header's schema under a deny-policy session.
    let session = SessionBuilder::new().lint_policy(LintPolicy::Deny).build();
    let corpus = differential_corpus();
    let mut prepared = 0usize;
    for entry in &corpus {
        session
            .prepare_with_schema(entry.text, &entry.schema)
            .unwrap_or_else(|e| panic!("{}: rejected under deny policy: {e}", entry.name));
        prepared += 1;
    }
    assert_eq!(prepared, corpus.len());
}

#[test]
fn corpus_stays_deny_clean_under_the_optimizer() {
    // The optimizer must not manufacture lint rejections: findings describe
    // the query as written (they are computed from the raw AST), so a session
    // that both optimizes and denies behaves exactly like the plain deny
    // session on the corpus — while still rewriting the plans it prepares.
    let session = SessionBuilder::new()
        .lint_policy(LintPolicy::Deny)
        .opt_level(ncql::OptLevel::Default)
        .build();
    let corpus = differential_corpus();
    let mut prepared = 0usize;
    let mut fired = 0usize;
    for entry in &corpus {
        let q = session
            .prepare_with_schema(entry.text, &entry.schema)
            .unwrap_or_else(|e| {
                panic!(
                    "{}: rejected under deny policy with the optimizer: {e}",
                    entry.name
                )
            });
        prepared += 1;
        fired += q.rewrites().len();
    }
    assert_eq!(prepared, corpus.len());
    assert!(
        fired > 0,
        "the optimizing deny session never rewrote anything — the level is not wired"
    );
}
