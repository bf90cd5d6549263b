//! Surface-syntax round-trip suite over the query pack: `parse ∘ pretty ∘
//! parse` must be the identity on ASTs, so the REPL path
//! (`Session::prepare_with_schema` → `Session::execute_with_bindings`, with
//! the `parallelism` knob a session-level choice) cannot silently drift.
//!
//! The input is the differential corpus: every pack text — every recursion
//! form (`dcr`, `sru`, `sri`, `esr`, `bdcr`, `bsri`), every iterator (`loop`,
//! `logloop`, `bloop`, `blogloop`), the NRA constructs and the external
//! arithmetic Σ — with the bindings of its header's schema.

use ncql::queries::{differential_corpus, CorpusEntry};
use ncql::surface;
use ncql::{Outcome, Session, SessionBuilder};

/// Prepare `text` against the entry's schema and run it with its bindings.
fn run(session: &Session, entry: &CorpusEntry, text: &str) -> Result<Outcome, ncql::Error> {
    let prepared = session.prepare_with_schema(text, &entry.schema)?;
    session.execute_with_bindings(&prepared, &entry.bindings)
}

#[test]
fn parse_pretty_parse_is_identity_on_the_corpus() {
    for entry in differential_corpus() {
        let (label, text) = (&entry.name, entry.text);
        let parsed = surface::parse(text).unwrap_or_else(|e| panic!("{label}: parse failed: {e}"));
        let printed = surface::print_expr(&parsed);
        let reparsed = surface::parse(&printed)
            .unwrap_or_else(|e| panic!("{label}: reparse of pretty output failed: {e}\n{printed}"));
        assert_eq!(parsed, reparsed, "{label}: round trip changed the AST\npretty: {printed}");
        // And the fixpoint: printing the reparse reproduces the same text.
        assert_eq!(
            printed,
            surface::print_expr(&reparsed),
            "{label}: pretty output is not a fixpoint"
        );
    }
}

#[test]
fn corpus_typechecks_and_evaluates_identically_on_both_backends() {
    // The REPL path: prepare (parse + typecheck + analysis) once per session,
    // execute on both backends.
    let seq = Session::new();
    let par = SessionBuilder::new()
        .parallelism(Some(4))
        .parallel_cutoff(1)
        .build();
    for entry in differential_corpus() {
        let (label, text) = (&entry.name, entry.text);
        let seq_out = run(&seq, &entry, text)
            .unwrap_or_else(|e| panic!("{label}: sequential session failed: {e}"));
        let par_out = run(&par, &entry, text)
            .unwrap_or_else(|e| panic!("{label}: parallel session failed: {e}"));
        assert_eq!(par_out.value, seq_out.value, "{label}: backends disagree");
        assert_eq!(par_out.stats, seq_out.stats, "{label}: cost statistics disagree");
    }
}

#[test]
fn pretty_printed_corpus_still_evaluates_to_the_same_value() {
    let session = Session::new();
    for entry in differential_corpus() {
        let (label, text) = (&entry.name, entry.text);
        let prepared = session
            .prepare_with_schema(text, &entry.schema)
            .unwrap_or_else(|e| panic!("{label}: prepare failed: {e}"));
        // The prepared plan's normal form is the pretty-printed query; running
        // *that* text must produce the same value.
        let v1 = session
            .execute_with_bindings(&prepared, &entry.bindings)
            .unwrap_or_else(|e| panic!("{label}: eval failed: {e}"))
            .value;
        let v2 = run(&session, &entry, prepared.normal_form())
            .unwrap_or_else(|e| panic!("{label}: eval of round trip failed: {e}"))
            .value;
        assert_eq!(v1, v2, "{label}");
    }
}
