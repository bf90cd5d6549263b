//! Every fact a prepare decides about a plan, pinned: for each text of the
//! query pack, prepared against its `-- param` schema at both `OptLevel`s
//! (plus a few texts whose rewrites and findings meet), the normal and
//! optimized forms, the rewrites that fired, the raw and stored cost bounds,
//! every lint finding, the §3 recursion depth, the ACᵏ level and the kernel
//! compiler's report of every site. A refactor of the front end that moves
//! any of them shows here as a diff against `tests/golden/prepare_facts.txt`.
//!
//! On a difference the test writes what it got to `prepare_facts.txt` under
//! Cargo's test scratch directory (the path is in the failure message); an
//! intended change is recorded by copying it over the golden file and
//! reviewing the diff.

use ncql::core::Span;
use ncql::queries::differential_corpus;
use ncql::{OptLevel, PreparedQuery, SessionBuilder};
use std::fmt::Write;

/// Texts outside the pack, with their schemas, whose facts meet: a binding
/// the optimizer folds away is still reported, and a fused map keeps its raw
/// bound.
const EXTRA: &[(&str, &[(&str, &str)])] = &[
    ("let x = {@1} in {@2}", &[]),
    (
        "ext(\\y: (atom * atom). {pi1 y}, ext(\\x: atom. {(x, x)}, s))",
        &[("s", "{atom}")],
    ),
    ("\\z: atom. ({@1} union {@2}) union {z}", &[]),
    (
        "let r = {@1} in ext(\\x: atom. {x}, r union s)",
        &[("r", "{atom}"), ("s", "{atom}")],
    ),
];

fn span(span: Option<Span>) -> String {
    span.map_or("-".to_string(), |s| format!("{}..{}", s.start, s.end))
}

/// The facts of one prepared plan, one line each.
fn report(out: &mut String, q: &PreparedQuery) {
    let cost = &q.analysis().cost;
    let _ = writeln!(out, "normal_form: {}", q.normal_form());
    let _ = writeln!(out, "optimized_form: {}", q.optimized_form());
    for rewrite in q.rewrites() {
        let _ = writeln!(out, "rewrite: {} @{}", rewrite.rule, span(rewrite.span));
    }
    if let Some(raw) = q.raw_cost() {
        let _ = writeln!(out, "raw_cost: {raw} (floor {})", raw.work_floor);
    }
    let _ = writeln!(out, "cost: {cost} (floor {})", cost.work_floor);
    for f in &q.analysis().findings {
        let (name, at) = (f.lint.name(), span(f.span));
        let _ = writeln!(out, "finding: {name} {:?} @{at}: {}", f.severity, f.message);
    }
    let (depth, level) = (q.recursion_depth(), q.ac_level());
    let _ = writeln!(out, "recursion_depth: {depth} ac_level: {level}");
    for site in q.kernel_sites() {
        let how = if site.compiled {
            "compiled"
        } else {
            "fallback"
        };
        let _ = writeln!(out, "site: {how} @{}: {}", span(site.span), site.detail);
    }
}

/// The report of every text at both levels, in pack order.
fn facts() -> String {
    let mut texts: Vec<(String, &str, Vec<_>)> = Vec::new();
    for entry in differential_corpus() {
        if texts.iter().all(|(_, text, _)| *text != entry.text) {
            let name = entry.name.split('/').take(2).collect::<Vec<_>>().join("/");
            texts.push((name, entry.text, entry.schema));
        }
    }
    for (text, schema) in EXTRA {
        let schema = schema.iter().map(|(name, ty)| {
            let ty = ncql::surface::parse_type(ty).expect("a type");
            (name.to_string(), ty)
        });
        texts.push((format!("extra {text}"), *text, schema.collect()));
    }
    let mut out = String::new();
    for level in [OptLevel::None, OptLevel::Default] {
        let session = SessionBuilder::new().opt_level(level).build();
        for (name, text, schema) in &texts {
            let _ = writeln!(out, "== {name} @ {level}");
            match session.prepare_with_schema(text, schema) {
                Ok(q) => report(&mut out, &q),
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                }
            }
        }
    }
    out
}

#[test]
fn every_pack_texts_prepared_facts_match_the_golden_file() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/prepare_facts.txt"
    );
    let got = facts();
    let want = std::fs::read_to_string(path).expect("tests/golden/prepare_facts.txt");
    if got != want {
        let diff = (got.lines().zip(want.lines()).enumerate())
            .find(|(_, (g, w))| g != w)
            .map(|(at, (g, w))| format!("line {}:\n  got:  {g}\n  want: {w}", at + 1));
        let lines = (got.lines().count(), want.lines().count());
        let report = concat!(env!("CARGO_TARGET_TMPDIR"), "/prepare_facts.txt");
        std::fs::write(report, &got).expect("the scratch directory is writable");
        panic!(
            "prepared facts differ from the golden file ({} vs {} lines); first difference at {}\n\
             the full report is in {report}",
            lines.0,
            lines.1,
            diff.unwrap_or_else(|| "the end of the shorter one".to_string())
        );
    }
}
