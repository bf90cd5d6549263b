//! Durable architecture lints, enforced as a test so they run on every CI
//! leg without extra tooling.
//!
//! 1. **Single front door.** `Evaluator` may only be constructed inside the
//!    core crate (it lives there), the engine crate (the one supported
//!    dispatch point, `Session::eval_raw`), and their tests. Everything else
//!    goes through `ncql_engine::Session` (or the core's `eval_closed`).
//! 2. **No ad-hoc scoped threads on the evaluator hot path.** The parallel
//!    backend went through a per-region `std::thread::scope` phase before the
//!    persistent work-stealing pool replaced it; this lint keeps
//!    `thread::scope` out of the evaluator and pool implementation files
//!    (test modules excepted) so the regression cannot sneak back.
//! 3. **The README's environment table is the code's.** Every `NCQL_*`
//!    variable the shipped sources read has a row in the README's
//!    "Environment variables" table, and the table has no other rows.
//! 4. **The README's rule list is the code's.** The rules bulleted under
//!    "Optimizer" are exactly the names `core::rewrite` can report in a
//!    `FiredRewrite`.
//! 5. **One cost table.** `core::cost` is the only place a work/span rule is
//!    written: the evaluator, the analyser and the kernel compiler import it,
//!    and the spellings it replaced — the kernel's `Cost::par`/`seq`/`LEAF`
//!    constructors, literal `add_const(…)` charges inside the `Analyzer` —
//!    stay gone.
//! 6. **One binder resolution.** `core::resolve` is the only place a name is
//!    looked up: in the evaluator, the kernels, the analyser and the type
//!    checker no environment, closure or capture struct holds a name, so a
//!    scope searched by string cannot come back.
//! 7. **One walk decides a plan's facts.** The walk of `core::resolve` that
//!    sets the slots also records each node's `Facts` (size, closedness,
//!    binder use, §3 depth): no other non-test code builds one, no separate
//!    facts walk comes back, and the lint pass has one caller, so a prepare
//!    lints its text once.
//! 8. **The engine resolves a prepare once.** Non-test engine code calls
//!    `resolve(` exactly once — on the parsed tree, by value — and
//!    `core::rewrite` copies no plan (`Expr::clone(`): an accepted rewrite
//!    comes back already resolved, and otherwise the first resolution is the
//!    plan that executes.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Repo root: root-level integration tests run with the workspace manifest
/// directory as cwd.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under the repo's own source trees (vendored dependencies
/// and build output excluded).
fn rust_sources() -> Vec<PathBuf> {
    let root = repo_root();
    let mut out = Vec::new();
    let mut stack = vec![root.clone()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if matches!(name, "target" | "vendor" | ".git" | ".claude") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    assert!(
        out.len() > 20,
        "source walk looks broken: {} files",
        out.len()
    );
    out
}

fn relative(path: &Path) -> String {
    path.strip_prefix(repo_root())
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Strip `//` line comments (good enough here: no constructor call we police
/// spans a string literal containing `//`).
fn without_line_comment(line: &str) -> &str {
    match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    }
}

/// The non-test part of a source file: everything before its first
/// `#[cfg(test)]`.
fn implementation(text: &str) -> &str {
    text.split("#[cfg(test)]").next().unwrap_or(text)
}

/// The body of the README's `## {title}` section.
fn readme_section(title: &str) -> String {
    let readme = fs::read_to_string(repo_root().join("README.md")).expect("README.md");
    readme
        .split(&format!("\n## {title}\n"))
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .unwrap_or_else(|| panic!("README has no \"{title}\" section"))
        .to_string()
}

#[test]
fn evaluators_are_constructed_only_behind_the_session_front_door() {
    let constructor = "Evaluator::new(";
    let mut violations = Vec::new();
    for path in &rust_sources() {
        let rel = relative(path);
        // The type lives in core and is dispatched by the engine; both may
        // construct it freely (their unit/integration tests included).
        if rel.starts_with("crates/core/") || rel.starts_with("crates/engine/") {
            continue;
        }
        // This file holds the patterns it polices.
        if rel == "tests/arch_lint.rs" {
            continue;
        }
        let text = fs::read_to_string(path).expect("readable source file");
        for (lineno, line) in text.lines().enumerate() {
            let code = without_line_comment(line);
            if code.contains(constructor) {
                violations.push(format!("{rel}:{}: {}", lineno + 1, line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "Evaluator constructed outside core/engine — \
         go through ncql_engine::Session instead:\n{}",
        violations.join("\n")
    );
}

#[test]
fn no_scoped_threads_on_the_evaluator_hot_path() {
    // The files that implement evaluation and the worker pool. Test modules
    // (everything from the first `#[cfg(test)]` on) may use scoped threads
    // to probe concurrency; the implementation itself must fork onto the
    // persistent pool.
    const HOT_PATH: &[&str] = &["crates/core/src/eval.rs", "crates/pram/src/lib.rs"];
    for rel in HOT_PATH {
        let path = repo_root().join(rel);
        let text = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("hot-path file {rel} must exist: {e}"));
        for (lineno, line) in implementation(&text).lines().enumerate() {
            let code = without_line_comment(line);
            assert!(
                !code.contains("thread::scope"),
                "{rel}:{}: scoped thread on the evaluator hot path — \
                 fork onto the persistent work-stealing pool instead: {}",
                lineno + 1,
                line.trim()
            );
        }
    }
}

#[test]
fn readme_environment_table_lists_exactly_the_variables_the_code_reads() {
    // Every `"NCQL_…"` string literal in the non-test, non-comment source of
    // `crates/*/src` and `examples/`.
    let mut read = BTreeSet::new();
    for path in rust_sources() {
        let rel = relative(&path);
        if !(rel.starts_with("examples/") || rel.starts_with("crates/") && rel.contains("/src/")) {
            continue;
        }
        let text = fs::read_to_string(&path).expect("readable source file");
        for line in implementation(&text).lines() {
            let mut rest = without_line_comment(line);
            while let Some(idx) = rest.find("\"NCQL_") {
                let tail = &rest[idx + 1..];
                let len = tail
                    .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
                    .unwrap_or(tail.len());
                if tail[len..].starts_with('"') {
                    read.insert(tail[..len].to_string());
                }
                rest = &tail[len..];
            }
        }
    }

    // The first column of the table under "## Environment variables".
    let documented: BTreeSet<String> = readme_section("Environment variables")
        .lines()
        .filter_map(|row| row.strip_prefix("| `"))
        .filter_map(|row| row.split('`').next())
        .map(str::to_string)
        .collect();

    assert!(!read.is_empty(), "source scan found no NCQL_* literal");
    assert_eq!(
        documented, read,
        "README \"Environment variables\" (left) and the NCQL_* variables the code reads (right) differ"
    );
}

#[test]
fn readme_optimizer_rules_are_exactly_the_rules_the_rewriter_reports() {
    // Every `rule: "…"` literal the rewriter can put in a `FiredRewrite`.
    let source = fs::read_to_string(repo_root().join("crates/core/src/rewrite.rs"))
        .expect("crates/core/src/rewrite.rs");
    let reported: BTreeSet<String> = implementation(&source)
        .lines()
        .filter_map(|line| without_line_comment(line).split("rule: \"").nth(1))
        .filter_map(|tail| tail.split('"').next())
        .map(str::to_string)
        .collect();

    // The bold names bulleted under "## Optimizer".
    let documented: BTreeSet<String> = readme_section("Optimizer")
        .lines()
        .filter_map(|bullet| bullet.strip_prefix("* **`"))
        .filter_map(|bullet| bullet.split('`').next())
        .map(str::to_string)
        .collect();

    assert!(!reported.is_empty(), "source scan found no rule name");
    assert_eq!(
        documented, reported,
        "README \"Optimizer\" rules (left) and the rules rewrite.rs reports (right) differ"
    );
}

#[test]
fn the_cost_model_is_written_only_in_core_cost() {
    let source = |file: &str| {
        let rel = format!("crates/core/src/{file}");
        fs::read_to_string(repo_root().join(&rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
    };
    for file in ["eval.rs", "analyze.rs", "kernel.rs"] {
        assert!(
            implementation(&source(file)).contains("\nuse crate::cost"),
            "crates/core/src/{file} must read the cost model from crate::cost"
        );
    }

    let kernel = source("kernel.rs");
    for (lineno, line) in implementation(&kernel).lines().enumerate() {
        let code = without_line_comment(line);
        for gone in ["Cost::par(", "Cost::seq(", "Cost::LEAF"] {
            assert!(
                !code.contains(gone),
                "crates/core/src/kernel.rs:{}: `{gone}` restates a rule — \
                 build the term with Cost::node(cost::RULE, …): {}",
                lineno + 1,
                line.trim()
            );
        }
    }

    // Inside the `impl … Analyzer` blocks (each ends at the next line that is
    // a lone `}`), a charge is a rule of the table, never a literal; the
    // `Poly`/`Bound`/`Range` algebra outside them keeps its `add_const`.
    let analyze = source("analyze.rs");
    let (mut inside, mut blocks) = (false, 0);
    for (lineno, line) in implementation(&analyze).lines().enumerate() {
        if line.starts_with("impl") && line.contains(" Analyzer<") {
            inside = true;
            blocks += 1;
        } else if line == "}" {
            inside = false;
        }
        assert!(
            !(inside && without_line_comment(line).contains("add_const(")),
            "crates/core/src/analyze.rs:{}: literal charge inside the Analyzer — \
             build the cost with Cost::node(cost::RULE, …): {}",
            lineno + 1,
            line.trim()
        );
    }
    assert!(blocks >= 2, "found {blocks} `impl Analyzer` blocks");
}

#[test]
fn environments_closures_and_captures_hold_no_names() {
    for file in ["eval.rs", "kernel.rs", "analyze.rs", "typecheck.rs"] {
        let rel = format!("crates/core/src/{file}");
        let text =
            fs::read_to_string(repo_root().join(&rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        // The struct whose fields are being read, if it is one of those.
        let mut inside: Option<String> = None;
        for (lineno, line) in implementation(&text).lines().enumerate() {
            let code = without_line_comment(line).trim();
            if let Some((_, decl)) = code.split_once("struct ") {
                let name: String = decl
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                let scoped = ["Env", "Closure", "Capture", "Frame"]
                    .iter()
                    .any(|kind| name.contains(kind));
                inside = (scoped && code.ends_with('{')).then_some(name);
                continue;
            }
            if line == "}" {
                inside = None;
            }
            let (Some(owner), Some((field, ty))) = (&inside, code.split_once(':')) else {
                continue;
            };
            let field = field.rsplit(' ').next().unwrap_or(field);
            let ty = ty.trim().trim_end_matches(',');
            let named = matches!(field, "name" | "names" | "param")
                || ty == "String"
                || (ty.starts_with('&') && ty.ends_with("str"));
            assert!(
                !named,
                "{rel}:{}: `{owner}` holds a name (`{field}: {ty}`) — read the \
                 variable's slot (core::resolve) instead: {}",
                lineno + 1,
                line.trim()
            );
        }
    }
}

#[test]
fn one_walk_decides_a_plans_facts() {
    let mut lint_calls = Vec::new();
    for path in rust_sources() {
        // Non-test code only: integration suites are test code.
        let rel = relative(&path);
        if rel.starts_with("tests/") || rel.contains("/tests/") {
            continue;
        }
        let text = fs::read_to_string(&path).expect("readable source file");
        for (lineno, line) in implementation(&text).lines().enumerate() {
            let code = without_line_comment(line);
            let at = format!("{rel}:{}: {}", lineno + 1, line.trim());
            for gone in ["fn facts(", "walk_facts"] {
                assert!(
                    !code.contains(gone),
                    "{at}: a second walk for node facts — read `Resolved::facts`"
                );
            }
            assert!(
                rel == "crates/core/src/resolve.rs" || !code.contains("Facts {"),
                "{at}: `Facts` built outside core::resolve — its walk records them"
            );
            if code.contains("lint_pass(") && !code.contains("fn lint_pass(") {
                lint_calls.push(at);
            }
        }
    }
    assert_eq!(
        lint_calls.len(),
        1,
        "the lint pass must have exactly one caller, so a prepare lints once: {lint_calls:#?}"
    );
}

#[test]
fn the_engine_resolves_a_prepare_once() {
    // `resolve(` as a call, not as the tail of a longer name.
    let calls = |code: &str| {
        code.match_indices("resolve(")
            .filter(|(at, _)| {
                let before = code[..*at].chars().next_back();
                !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
            })
            .count()
    };
    let (mut resolves, mut copies) = (Vec::new(), Vec::new());
    for path in rust_sources() {
        let rel = relative(&path);
        let text = fs::read_to_string(&path).expect("readable source file");
        for (lineno, line) in implementation(&text).lines().enumerate() {
            let code = without_line_comment(line);
            let at = || format!("{rel}:{}: {}", lineno + 1, line.trim());
            if rel.starts_with("crates/engine/src/") {
                resolves.extend(std::iter::repeat_n(at(), calls(code)));
            }
            if rel == "crates/core/src/rewrite.rs" && code.contains("Expr::clone(") {
                copies.push(at());
            }
        }
    }
    assert!(
        resolves.len() == 1 && copies.is_empty(),
        "the engine must resolve a prepared tree exactly once ({resolves:#?}) and \
         the optimizer hand on its resolution instead of copying a plan ({copies:#?})"
    );
}
