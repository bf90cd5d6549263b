//! Engine-level suite: the prepared-statement cache's contract, environment
//! configuration, and the cold-vs-prepared differential.
//!
//! What is pinned down here:
//! * a cache hit returns a handle to the *same* `Arc`'d plan (the front end
//!   ran once),
//! * changing the registry Σ invalidates (the fingerprint is part of the key),
//! * the LRU evicts in recency order at capacity,
//! * cold (fresh front end per run) and prepared (front end amortized)
//!   execution produce bit-identical `(Value, CostStats)` on both backends.
//!
//! `SessionBuilder::from_env` is covered by `tests/engine_from_env.rs`, which
//! lives in its own test binary because it mutates environment variables.

use ncql::core::externs::ExternRegistry;
use ncql::core::parallelism_from_env;
use ncql::object::{Type, Value};
use ncql::surface::ParseError;
use ncql::{Backend, Error, OptLevel, Session, SessionBuilder, Span};

/// A shared mini-corpus of surface texts spanning the recursion forms, the
/// iterators, `ext` and the external arithmetic.
fn texts() -> Vec<&'static str> {
    vec![
        "dcr(false, \\y: atom. true, \
         \\p: (bool * bool). if pi1 p then (if pi2 p then false else true) else pi2 p, \
         {@1} union {@2} union {@3} union {@4} union {@5})",
        "sru(empty[atom], \\y: atom. {y}, \
         \\p: ({atom} * {atom}). pi1 p union pi2 p, {@3} union {@1} union {@2})",
        "sri(empty[atom], \\p: (atom * {atom}). {pi1 p} union pi2 p, {@5} union {@1} union {@9})",
        "logloop(\\c: nat. nat_add(c, 1), {@1} union {@2} union {@3} union {@4} union {@5}, 0)",
        "dcr(0, \\x: atom. atom_to_nat(x), \\p: (nat * nat). nat_add(pi1 p, pi2 p), \
         {@4} union {@7} union {@9})",
        "isempty(ext(\\x: atom. empty[atom], {@1} union {@2}))",
        "card({@1} union {@2} union {@3})",
    ]
}

#[test]
fn cache_hit_returns_the_same_arc_plan() {
    let session = Session::new();
    for text in texts() {
        let first = session.prepare(text).unwrap();
        let second = session.prepare(text).unwrap();
        assert!(
            first.ptr_eq(&second),
            "{text}: second prepare must be a cache hit"
        );
        // The handle equality is observable *behaviour*, not coincidence: the
        // metrics agree that only one front-end run happened per text.
    }
    let metrics = session.cache_metrics();
    assert_eq!(metrics.misses as usize, texts().len());
    assert_eq!(metrics.hits as usize, texts().len());
    assert_eq!(metrics.len, texts().len());
    assert_eq!(metrics.evictions, 0);
}

#[test]
fn registry_change_invalidates_cached_plans() {
    let mut session = Session::new();
    let text = "nat_add(1, 2)";
    let before = session.prepare(text).unwrap();

    // Same registry interface → same fingerprint → still a hit.
    session.set_registry(ExternRegistry::standard());
    let still = session.prepare(text).unwrap();
    assert!(
        still.ptr_eq(&before),
        "an interface-identical registry must not invalidate"
    );

    // A registry with one more extern fingerprints differently: the next
    // prepare re-runs the front end against the new Σ.
    let mut extended = ExternRegistry::standard();
    extended.register("triple", vec![Type::Nat], Type::Nat, |args| {
        match args.first() {
            Some(Value::Nat(n)) => Ok(Value::Nat(n * 3)),
            other => Err(ncql::core::EvalError::extern_failure(format!(
                "expected a nat, got {other:?}"
            ))),
        }
    });
    session.set_registry(extended);
    let after = session.prepare(text).unwrap();
    assert!(
        !after.ptr_eq(&before),
        "a registry interface change must invalidate"
    );

    // The new plan typechecks against the new Σ, and the new extern works.
    let out = session.run("triple(nat_add(1, 2))").unwrap();
    assert_eq!(out.value, Value::Nat(9));

    // Shrinking back to a registry without the extern makes the query
    // un-preparable again — the cache must not resurrect the stale plan.
    session.set_registry(ExternRegistry::standard());
    assert!(matches!(
        session
            .prepare("triple(nat_add(1, 2))")
            .map_err(|e| match e {
                ncql::Error::Type(t) => t.kind,
                other => panic!("expected a type error, got {other:?}"),
            }),
        Err(ncql::core::TypeErrorKind::UnknownExtern(_))
    ));
}

#[test]
fn lru_evicts_in_recency_order() {
    let session = SessionBuilder::new().cache_capacity(2).build();
    let a = session.prepare("{@1}").unwrap();
    let _b = session.prepare("{@2}").unwrap();
    // Refresh `a`, then insert a third plan: `b` is the LRU victim.
    let a2 = session.prepare("{@1}").unwrap();
    assert!(a.ptr_eq(&a2));
    let _c = session.prepare("{@3}").unwrap();
    let metrics = session.cache_metrics();
    assert_eq!(metrics.evictions, 1);
    assert_eq!(metrics.len, 2);
    // `a` is still cached, `b` must be re-prepared (miss → fresh plan).
    assert!(session.prepare("{@1}").unwrap().ptr_eq(&a));
    let b2 = session.prepare("{@2}").unwrap();
    assert!(!_b.ptr_eq(&b2), "the evicted plan must have been rebuilt");
}

#[test]
fn cold_and_prepared_execution_are_bit_identical_on_both_backends() {
    // Thread ladder: sequential, 2, 4, plus the CI matrix's request.
    let mut parallelisms = vec![None, Some(2), Some(4)];
    if let Some(n) = parallelism_from_env() {
        if !parallelisms.contains(&Some(n)) {
            parallelisms.push(Some(n));
        }
    }
    for parallelism in parallelisms {
        // `cold` re-runs the full front end every time (cache disabled);
        // `warm` prepares once and re-executes the cached plan.
        let cold = SessionBuilder::new()
            .parallelism(parallelism)
            .parallel_cutoff(1)
            .cache_capacity(0)
            .build();
        let warm = SessionBuilder::new()
            .parallelism(parallelism)
            .parallel_cutoff(1)
            .build();
        for text in texts() {
            let cold_out = shared_checks(&cold, text, parallelism);
            let prepared = warm.prepare(text).unwrap();
            for _ in 0..3 {
                let warm_out = warm.execute(&prepared).unwrap();
                assert_eq!(
                    warm_out.value, cold_out.value,
                    "{text}: prepared value drifted at parallelism {parallelism:?}"
                );
                assert_eq!(
                    warm_out.stats, cold_out.stats,
                    "{text}: prepared cost stats drifted at parallelism {parallelism:?}"
                );
            }
        }
        assert_eq!(
            cold.cache_metrics().len,
            0,
            "cold session must cache nothing"
        );
        assert_eq!(cold.cache_metrics().hits, 0);
    }
}

fn shared_checks(cold: &Session, text: &str, parallelism: Option<usize>) -> ncql::Outcome {
    let out = cold.run(text).unwrap();
    match parallelism {
        Some(n) if n >= 2 => assert_eq!(out.backend, Backend::Parallel { threads: n }),
        _ => assert_eq!(out.backend, Backend::Sequential),
    }
    out
}

#[test]
fn execute_many_amortizes_one_plan_over_batches() {
    let session = Session::new();
    let schema = vec![("s".to_string(), Type::set(Type::Base))];
    let q = session.prepare_with_schema("card(s)", &schema).unwrap();
    let batches: Vec<Vec<(String, Value)>> = (0..5u64)
        .map(|n| vec![("s".to_string(), Value::atom_set(0..n))])
        .collect();
    let outcomes = session.execute_many(&q, &batches);
    assert_eq!(outcomes.len(), 5);
    for (n, out) in outcomes.into_iter().enumerate() {
        assert_eq!(out.unwrap().value, Value::Nat(n as u64));
    }
    // One front-end run total, no matter how many executions.
    assert_eq!(session.cache_metrics().misses, 1);
}

#[test]
fn nesting_past_the_parser_limit_is_a_typed_error_not_a_stack_overflow() {
    let session = Session::new();
    let nest =
        |open: &str, n: usize, close: &str| format!("{}@1{}", open.repeat(n), close.repeat(n));
    // Just under the 48-level limit (the leaf is a level): every recursive
    // pass downstream of the parser — typecheck, analysis, rewriting,
    // printing, evaluation — handles the depth the parser admits.
    let text = nest("{", 47, "}");
    let query = session.prepare(&text).unwrap();
    let out = session.execute(&query).unwrap();
    assert_eq!(out.value.to_string(), text.replace('@', "a"));
    // Just over.
    assert!(matches!(
        session.prepare(&nest("{", 48, "}")),
        Err(Error::Parse(ParseError::TooDeep { limit: 48, .. }))
    ));
    // 10 000 nested parentheses — 20 KB, far under any line limit — used to
    // overflow the recursive-descent parser's stack and abort the process.
    let err = session.prepare(&nest("(", 10_000, ")")).unwrap_err();
    assert!(matches!(err, Error::Parse(ParseError::TooDeep { .. })));
    assert_eq!(err.span(), Some(Span::new(48, 49)));
    // A `union` chain nests nothing in the text, yet the tree it denotes is
    // one level deeper per link: 1 500 operands (16 KB) used to overflow the
    // first recursive pass behind the parser. The caret is on the first
    // `union` past the 512-link budget.
    let chain = vec!["{@1}"; 1_500].join(" union ");
    let err = session.prepare(&chain).unwrap_err();
    assert!(matches!(
        err,
        Error::Parse(ParseError::TooDeep { limit: 512, .. })
    ));
    let caret = err.span().expect("a located parse error");
    assert_eq!(&chain[caret.start..caret.end], "union");
    assert_eq!(chain[..caret.start].matches("union").count(), 512);
    // Admitted chains are prepared on a budget: prepare runs before any
    // deadline or `max_work` applies, so folding evaluates at most 4 096 work
    // units of a text however long it is, and can never save more than that.
    // 128 distinct operands cost 8 638 to evaluate. (Own thread: an
    // unoptimized build needs more than a test thread's 2 MiB past ~95 links.)
    let budgeted = std::thread::Builder::new().stack_size(16 << 20).spawn(|| {
        let chain: Vec<String> = (1..=128).map(|i| format!("{{@{i}}}")).collect();
        let run = |session: Session| {
            let query = session.prepare(&chain.join(" union ")).unwrap();
            session.execute(&query).unwrap()
        };
        let raw = run(SessionBuilder::new().opt_level(OptLevel::None).build());
        let opt = run(Session::new());
        assert_eq!(opt.value, raw.value);
        assert_eq!(raw.stats.work, 8_638);
        assert!(
            opt.stats.work < raw.stats.work && raw.stats.work - opt.stats.work <= 4_096,
            "folding saved {} - {} work units",
            raw.stats.work,
            opt.stats.work
        );
    });
    budgeted.unwrap().join().unwrap();
}

/// The stack margin of a prepare: a 90-link chain `{@0} union … union {@89}`
/// prepares on a 2 MiB thread, a test thread's default stack, in the
/// unoptimized profile too. Every link nests the tree one level deeper, and
/// the recursive passes behind the parser (resolution, inference, cost
/// analysis, rewriting, printing) spend stack per level, so a pass that grows
/// its frames shrinks the longest chain a debug build can prepare; this test
/// catches that before the margin is gone. Unoptimized, 97 links overflow.
/// The parser admits 512 links, which ROADMAP item 5 still owes: it asks for
/// a 512-link chain on the same stack, in every profile.
#[test]
fn a_90_link_union_chain_prepares_on_a_2_mib_stack() {
    let prepared = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let chain: Vec<String> = (0..90).map(|i| format!("{{@{i}}}")).collect();
            let query = Session::new().prepare(&chain.join(" union ")).unwrap();
            query.normal_form().matches("union").count()
        })
        .unwrap();
    assert_eq!(prepared.join().unwrap(), 89);
}
