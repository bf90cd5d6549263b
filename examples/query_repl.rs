//! A tiny query runner for the surface syntax: pass a query as the first
//! argument (or pipe it on stdin) and it is prepared (parsed, type-checked,
//! analysed for recursion depth and static cost bounds) and executed through
//! the engine's `Session`, with the cost model reported.
//!
//! Backend selection: `--parallel N` (or the `NCQL_PARALLELISM` environment
//! variable, with `NCQL_PARALLEL_CUTOFF` tuning the fork threshold) evaluates
//! on the parallel backend with `N` worker threads; otherwise the sequential
//! reference evaluator runs. Values and cost statistics are identical either
//! way — only wall-clock changes.
//!
//! Static analysis: every prepared query reports its lint findings as caret
//! diagnostics. `--lint` (or `NCQL_LINT=deny`) upgrades the session to the
//! deny policy, rejecting queries with deny-level findings before they run.
//! Prefixing the query with `:analyze` prints the symbolic work/span bounds
//! and the findings without executing anything.
//!
//! Optimizer: `prepare` runs the cost-gated algebraic rewriter by default;
//! `NCQL_OPT=0` disables it. Prefixing the query with `:optimize` prints the
//! raw and rewritten ASTs, the fired rules, and the before/after symbolic
//! bounds without executing anything.
//!
//! Diagnostics: `--json` prints every diagnostic (errors and lint findings)
//! as one structured JSON object per line — the same
//! `protocol::diagnostic_json` object the `ncql-served` wire protocol carries —
//! instead of rendered caret art. Prefixing the query with `:stats` prints
//! the session observability counters (plan-cache metrics, live pool
//! workers, prepared-plan count — the numbers a server's `stats` request
//! reports) after the run; `:stats` alone prints them for an idle session.
//!
//! Examples:
//!
//! ```text
//! cargo run --example query_repl -- "nat_add(20, 22)"
//! cargo run --example query_repl -- ":analyze ext(\x: atom. {x}, {@1} union {@2})"
//! cargo run --example query_repl -- ":optimize {@1} union {@2} union {@1}"
//! cargo run --example query_repl -- ":stats {@1} union {@2}"
//! cargo run --example query_repl -- --json "pi1 true"
//! cargo run --example query_repl -- --parallel 4 \
//!   "dcr(empty[(atom * atom)], \y: atom. {(@1,@2)} union {(@2,@3)}, \
//!        \p: ({(atom*atom)} * {(atom*atom)}). pi1 p union pi2 p, {@1} union {@2})"
//! echo "{@1} union {@2} union {@1}" | NCQL_PARALLELISM=4 cargo run --example query_repl
//! ```

use ncql::serve::protocol::diagnostic_json;
use ncql::{Error, LintPolicy, PreparedQuery, Session, SessionBuilder};
use std::io::Read;

/// Print every lint finding, as caret diagnostics or (under `--json`) as
/// structured JSON lines. Warnings go to stdout so the report reads
/// top-to-bottom; the query still runs under the warn policy.
fn report_findings(prepared: &PreparedQuery, json: bool) {
    for diagnostic in prepared.lint_diagnostics() {
        if json {
            println!("{}", diagnostic_json(&diagnostic));
        } else {
            println!("{diagnostic}");
        }
    }
}

/// Print an error and exit: structured JSON under `--json`, a rendered caret
/// diagnostic otherwise.
fn fail(err: &Error, text: &str, json: bool) -> ! {
    if json {
        eprintln!("{}", diagnostic_json(&err.diagnostic(text)));
    } else {
        eprintln!("{}", err.render(text));
    }
    std::process::exit(1);
}

/// The `:stats` report: the same counters the serve protocol's `stats`
/// request returns — plan-cache behaviour, live pool workers, prepared-plan
/// count, backend.
fn report_stats(session: &Session) {
    let metrics = session.cache_metrics();
    println!(
        "cache       : {} hits / {} misses / {} evictions ({} of {} plans)",
        metrics.hits, metrics.misses, metrics.evictions, metrics.len, metrics.capacity
    );
    println!("plans       : {}", metrics.len);
    println!("pool workers: {}", ncql::pram::live_pool_workers());
    println!("backend     : {}", session.backend());
    let columnar = ncql::engine::columnar_stats();
    println!(
        "columnar    : {} promotions / {} demotions",
        columnar.promotions, columnar.demotions
    );
    let kernels = ncql::engine::kernel_stats();
    println!(
        "kernels     : {} compiled / {} fallbacks, {} ext hits over {} rows",
        kernels.compiles, kernels.fallbacks, kernels.ext_hits, kernels.rows
    );
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // The environment (NCQL_PARALLELISM / NCQL_PARALLEL_CUTOFF / NCQL_LINT)
    // configures the session; explicit flags override it.
    let mut builder = SessionBuilder::from_env();
    if let Some(pos) = args.iter().position(|a| a == "--parallel") {
        if pos + 1 >= args.len() {
            eprintln!("--parallel requires a thread count");
            std::process::exit(2);
        }
        match args[pos + 1].parse::<usize>() {
            Ok(n) => builder = builder.parallelism(Some(n)),
            Err(_) => {
                eprintln!("--parallel requires a numeric thread count");
                std::process::exit(2);
            }
        }
        args.drain(pos..=pos + 1);
    }
    if let Some(pos) = args.iter().position(|a| a == "--lint") {
        builder = builder.lint_policy(LintPolicy::Deny);
        args.remove(pos);
    }
    let json = match args.iter().position(|a| a == "--json") {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    };
    let session = builder.build();

    let text = match args.into_iter().next() {
        Some(arg) => arg,
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .expect("reading the query from stdin");
            buf
        }
    };
    let text = text.trim();
    if text.is_empty() {
        eprintln!(
            "usage: query_repl [--parallel N] [--lint] [--json] \
             \"[:analyze|:optimize|:stats] <query>\"   (or pipe a query on stdin)"
        );
        std::process::exit(2);
    }

    // `:analyze <query>` prints the static analysis and skips execution;
    // `:optimize <query>` prints the before/after plan and bounds instead;
    // `:stats [query]` appends the session observability counters.
    let (analyze_only, text) = match text.strip_prefix(":analyze") {
        Some(rest) => (true, rest.trim()),
        None => (false, text),
    };
    let (optimize_only, text) = match text.strip_prefix(":optimize") {
        Some(rest) => (true, rest.trim()),
        None => (false, text),
    };
    let (stats_wanted, text) = match text.strip_prefix(":stats") {
        Some(rest) => (true, rest.trim()),
        None => (false, text),
    };
    if stats_wanted && text.is_empty() {
        report_stats(&session);
        return;
    }

    let prepared = match session.prepare(text) {
        Ok(p) => p,
        Err(err) => fail(&err, text, json),
    };
    if optimize_only {
        // Before/after view of what the session's optimizer did to the plan.
        println!("raw plan    : {}", prepared.normal_form());
        if let Some(raw_cost) = prepared.raw_cost() {
            println!("raw cost    : {raw_cost}");
        }
        for fired in prepared.rewrites() {
            println!("fired       : [{}] {}", fired.rule, fired.description);
        }
        if prepared.rewrites().is_empty() {
            println!(
                "fired       : nothing (opt level {}; the plan is already normal)",
                prepared.opt_level()
            );
        }
        println!("plan        : {}", prepared.optimized_form());
        println!("static cost : {}", prepared.analysis().cost);
        return;
    }
    println!("parsed      : {}", prepared.normal_form());
    println!("type        : {}", prepared.ty());
    println!(
        "depth       : {} (AC^{} by Theorem 6.1/6.2)",
        prepared.recursion_depth(),
        prepared.ac_level()
    );
    let cost = &prepared.analysis().cost;
    println!("static cost : {cost}");

    if analyze_only {
        report_findings(&prepared, json);
        if prepared.analysis().findings.is_empty() {
            println!("lints       : clean");
        }
        return;
    }
    report_findings(&prepared, json);
    println!("backend     : {}", session.backend());

    match session.execute(&prepared) {
        Ok(outcome) => {
            println!("result      : {}", outcome.value);
            println!(
                "work / span : {} / {}",
                outcome.stats.work, outcome.stats.span
            );
        }
        Err(err) => fail(&err, text, json),
    }
    if stats_wanted {
        report_stats(&session);
    }
}
