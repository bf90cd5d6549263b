//! `SessionBuilder::from_env` coverage: `NCQL_PARALLELISM` selects the
//! backend, `NCQL_PARALLEL_CUTOFF` tunes the fork threshold,
//! `NCQL_POOL_THREADS` sizes the session's persistent pool,
//! `NCQL_OPT` selects the optimizer level, and `NCQL_KERNELS` switches the
//! compiled row-kernel `ext` path. `ServeConfig::from_env` reads its
//! `NCQL_SERVE_*` numbers through the same reader.
//!
//! This is deliberately the **only** test in this integration-test binary.
//! `std::env::set_var` racing any concurrent `std::env::var` read is
//! undefined behaviour on POSIX (the `environ` block can be reallocated
//! mid-read — the reason `set_var` is `unsafe` in edition 2024), and the Rust
//! test harness runs a binary's tests on parallel threads. One test per
//! binary means one thread per process touches the environment, and other
//! test binaries are separate processes with their own `environ`. Keep any
//! future env-mutating scenario inside this one function.

use ncql::object::Value;
use ncql::serve::ServeConfig;
use ncql::{Backend, OptLevel, SessionBuilder};

#[test]
fn builder_from_env_reads_the_knobs() {
    let clear = || {
        std::env::remove_var("NCQL_PARALLELISM");
        std::env::remove_var("NCQL_PARALLEL_CUTOFF");
        std::env::remove_var("NCQL_POOL_THREADS");
        std::env::remove_var("NCQL_OPT");
        std::env::remove_var("NCQL_KERNELS");
    };

    clear();
    let default_session = SessionBuilder::from_env().build();
    assert_eq!(default_session.backend(), Backend::Sequential);
    assert_eq!(default_session.config().pool_threads, None);
    let default_cutoff = default_session.config().parallel_cutoff;

    std::env::set_var("NCQL_PARALLELISM", "4");
    std::env::set_var("NCQL_PARALLEL_CUTOFF", "128");
    std::env::set_var("NCQL_POOL_THREADS", "8");
    let configured = SessionBuilder::from_env().build();
    assert_eq!(configured.backend(), Backend::Parallel { threads: 4 });
    assert_eq!(configured.config().parallel_cutoff, 128);
    // The pool may be sized independently of the parallelism knob — CI
    // uses this to oversubscribe the pool on a small runner.
    assert_eq!(configured.config().pool_threads, Some(8));
    assert_eq!(configured.config().effective_pool_threads(), 8);

    // Degenerate pool sizes normalize exactly like degenerate parallelism:
    // the pool knob falls back to "size by parallelism".
    std::env::set_var("NCQL_POOL_THREADS", "1");
    let degenerate_pool = SessionBuilder::from_env().build();
    assert_eq!(degenerate_pool.config().pool_threads, None);
    assert_eq!(degenerate_pool.config().effective_pool_threads(), 4);
    std::env::remove_var("NCQL_POOL_THREADS");

    // Degenerate parallelism from the environment is normalized like any other.
    std::env::set_var("NCQL_PARALLELISM", "1");
    std::env::remove_var("NCQL_PARALLEL_CUTOFF");
    let sequentialized = SessionBuilder::from_env().build();
    assert_eq!(sequentialized.backend(), Backend::Sequential);
    assert_eq!(sequentialized.config().parallelism, None);
    assert_eq!(sequentialized.config().parallel_cutoff, default_cutoff);

    // Garbage is ignored, not an error.
    std::env::set_var("NCQL_PARALLELISM", "not-a-number");
    std::env::set_var("NCQL_PARALLEL_CUTOFF", "-3");
    let ignored = SessionBuilder::from_env().build();
    assert_eq!(ignored.backend(), Backend::Sequential);
    assert_eq!(ignored.config().parallel_cutoff, default_cutoff);

    // An explicit builder call still overrides whatever the environment said.
    std::env::set_var("NCQL_PARALLELISM", "2");
    let overridden = SessionBuilder::from_env().parallelism(Some(8)).build();
    assert_eq!(overridden.backend(), Backend::Parallel { threads: 8 });

    // The env-configured session actually evaluates on its backend.
    let via_env = SessionBuilder::from_env().parallel_cutoff(1).build();
    let out = via_env.run("card({@1} union {@2} union {@3})").unwrap();
    assert_eq!(out.value, Value::Nat(3));
    assert_eq!(out.backend, Backend::Parallel { threads: 2 });
    clear();

    // `NCQL_OPT` selects the optimizer level; every spelling is accepted and
    // garbage leaves the default untouched.
    assert_eq!(
        SessionBuilder::from_env().build().opt_level(),
        OptLevel::Default
    );
    for (raw, expected) in [
        ("0", OptLevel::None),
        ("none", OptLevel::None),
        ("off", OptLevel::None),
        ("1", OptLevel::Default),
        ("default", OptLevel::Default),
        ("on", OptLevel::Default),
        ("garbage", OptLevel::Default),
    ] {
        std::env::set_var("NCQL_OPT", raw);
        assert_eq!(
            SessionBuilder::from_env().build().opt_level(),
            expected,
            "NCQL_OPT={raw}"
        );
    }

    // `NCQL_KERNELS` is the session-wide kill switch for compiled row
    // kernels: on by default, every spelling accepted, garbage ignored.
    std::env::remove_var("NCQL_OPT");
    assert!(SessionBuilder::from_env().build().config().kernels);
    for (raw, expected) in [
        ("0", false),
        ("false", false),
        ("off", false),
        ("1", true),
        ("true", true),
        ("on", true),
        ("garbage", true),
    ] {
        std::env::set_var("NCQL_KERNELS", raw);
        assert_eq!(
            SessionBuilder::from_env().build().config().kernels,
            expected,
            "NCQL_KERNELS={raw}"
        );
    }
    std::env::remove_var("NCQL_KERNELS");

    // Flipping `NCQL_OPT` between sessions never serves a stale plan: the
    // optimizer level is part of the plan-cache key, so the `NCQL_OPT=0`
    // session's plan is the raw AST even though an optimizing session already
    // prepared (and rewrote) the same text.
    let foldable = "{@1} union {@2} union {@1}";
    std::env::set_var("NCQL_OPT", "1");
    let optimizing = SessionBuilder::from_env().build();
    let rewritten = optimizing.prepare(foldable).unwrap();
    assert!(
        !rewritten.rewrites().is_empty(),
        "the closed union folds under the default level"
    );
    std::env::set_var("NCQL_OPT", "0");
    let raw_session = SessionBuilder::from_env().build();
    let raw_plan = raw_session.prepare(foldable).unwrap();
    assert!(
        raw_plan.rewrites().is_empty(),
        "NCQL_OPT=0 must not rewrite"
    );
    assert_eq!(raw_plan.optimized_form(), raw_plan.normal_form());
    assert_ne!(raw_plan.optimized_form(), rewritten.optimized_form());
    // Both plans still agree on the value.
    assert_eq!(
        raw_session.execute(&raw_plan).unwrap().value,
        optimizing.execute(&rewritten).unwrap().value
    );
    clear();

    // The server's numbers go through the same trimmed reader as the
    // session's: padding is honoured, garbage leaves the default.
    std::env::set_var("NCQL_SERVE_MAX_INFLIGHT", " 8");
    std::env::set_var("NCQL_SERVE_DEADLINE_MS", "250");
    std::env::set_var("NCQL_SERVE_MAX_LINE_BYTES", "lots");
    let serve = ServeConfig::from_env();
    assert_eq!(serve.max_inflight, 8);
    assert_eq!(serve.default_deadline_ms, 250);
    assert_eq!(serve.max_line_bytes, ServeConfig::default().max_line_bytes);
    std::env::remove_var("NCQL_SERVE_MAX_INFLIGHT");
    std::env::remove_var("NCQL_SERVE_DEADLINE_MS");
    std::env::remove_var("NCQL_SERVE_MAX_LINE_BYTES");
}
