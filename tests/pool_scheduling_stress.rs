//! Scheduling-stress suite for the persistent pool: the whole `ncql_queries`
//! corpus, run under pool sizes {1, 2, 4, 8} × repeated iterations.
//!
//! The pool makes *execution order* nondeterministic by design: every free
//! thread claims chunks from the front region of one queue, so a chunk may
//! run on any worker or on the region's opening caller, and the interleaving
//! differs run to run. The observational-equivalence contract
//! of `tests/parallel_differential.rs` must survive all of it — every run of
//! every query must produce the `(Value, CostStats)` pair the sequential
//! backend produces, bit-identically. This suite is that contract under
//! adversarial schedules: different pool sizes (including a single-worker pool
//! and, via `NCQL_POOL_THREADS`, an oversubscribed pool wider than the region
//! fan-out), repeated runs, and pool reuse across all 49 corpus
//! queries (one session, one worker set — a scheduling history the
//! fresh-pool-per-test differential suite never builds up).

use ncql::core::eval::EvalConfig;
use ncql::queries::differential_corpus;
use ncql::{Backend, Outcome, Session, SessionBuilder};

/// A forking parallel session: low cutover so the corpus's mid-sized sets
/// actually fork, with the given worker count.
fn stress_session(pool_size: usize, pool_threads: Option<usize>) -> Session {
    SessionBuilder::new()
        .config(EvalConfig {
            parallel_cutoff: 64,
            ..EvalConfig::default()
        })
        .parallelism(Some(pool_size))
        .pool_threads(pool_threads)
        .build()
}

/// The oversubscription request from the CI matrix: `NCQL_POOL_THREADS=8`
/// makes every stress leg run its pool at 8 workers regardless of the
/// parallelism knob, so chunk claims run contended even on a single-core runner.
fn pool_threads_from_env() -> Option<usize> {
    let raw = std::env::var("NCQL_POOL_THREADS").ok()?;
    raw.trim().parse::<usize>().ok().filter(|n| *n >= 2)
}

#[test]
fn corpus_is_schedule_invariant_across_pool_sizes_and_runs() {
    let corpus = differential_corpus();
    assert!(corpus.len() >= 40, "corpus unexpectedly small: {}", corpus.len());

    // Sequential ground truth, computed once per query.
    let seq_session = SessionBuilder::new().parallel_cutoff(64).build();
    let expected: Vec<Outcome> = corpus
        .iter()
        .map(|entry| {
            seq_session
                .evaluate(&entry.expr)
                .unwrap_or_else(|e| panic!("{}: sequential backend failed: {e}", entry.name))
        })
        .collect();

    let pool_threads = pool_threads_from_env();
    for pool_size in [1usize, 2, 4, 8] {
        for iteration in 0..2u64 {
            // A fresh session and pool every iteration: two iterations of
            // the same pool size claim the same chunks along the schedules
            // their threads happen to race into.
            let session = stress_session(pool_size, pool_threads);
            if pool_size <= 1 {
                // `parallelism = 1` normalizes to the sequential backend: the
                // degenerate rung of the ladder runs no pool at all.
                assert_eq!(session.backend(), Backend::Sequential);
            } else {
                assert_eq!(session.backend(), Backend::Parallel { threads: pool_size });
            }
            // ONE session — one persistent pool, one worker set — across the
            // whole corpus, so later queries run on a pool whose queue and
            // workers earlier queries already churned.
            for (entry, want) in corpus.iter().zip(&expected) {
                let got = session.evaluate(&entry.expr).unwrap_or_else(|e| {
                    panic!(
                        "{}: pool_size={pool_size} iteration={iteration} failed: {e}",
                        entry.name
                    )
                });
                assert_eq!(
                    got.value, want.value,
                    "{}: value diverged at pool_size={pool_size} iteration={iteration}",
                    entry.name
                );
                assert_eq!(
                    got.stats, want.stats,
                    "{}: cost stats diverged at pool_size={pool_size} iteration={iteration}",
                    entry.name
                );
            }
        }
    }
}

#[test]
fn repeated_runs_are_invisible_at_a_fixed_pool_size() {
    // Many runs, one query, one pool size, a fresh pool each: only the
    // schedule varies, and nothing observable may move. The query is the corpus's most
    // region-dense one (transitive closure: leaf maps + log-depth combining
    // rounds + nested ext regions inside every combiner call).
    let corpus = differential_corpus();
    let entry = corpus
        .iter()
        .find(|e| e.name == "graph/tc_dcr/path/18")
        .expect("corpus entry");
    let baseline = stress_session(4, None)
        .evaluate(&entry.expr)
        .expect("baseline run");
    for run in 1..=12 {
        let again = stress_session(4, None)
            .evaluate(&entry.expr)
            .unwrap_or_else(|e| panic!("run {run} failed: {e}"));
        assert_eq!(again.value, baseline.value, "value moved in run {run}");
        assert_eq!(again.stats, baseline.stats, "stats moved in run {run}");
    }
}

#[test]
fn oversubscribed_pool_matches_a_matched_pool() {
    // pool_threads wider than parallelism (more workers than the per-region
    // borrow ever asks for): extra workers only add claim contention, never
    // observable behaviour.
    let corpus = differential_corpus();
    let sample: Vec<_> = corpus
        .iter()
        .filter(|e| {
            e.name.starts_with("parity/dcr") || e.name.starts_with("graph/tc_dcr")
        })
        .collect();
    assert!(!sample.is_empty());
    let matched = stress_session(4, None);
    let oversubscribed = stress_session(4, Some(8));
    for entry in sample {
        let a = matched.evaluate(&entry.expr).unwrap();
        let b = oversubscribed.evaluate(&entry.expr).unwrap();
        assert_eq!(a.value, b.value, "{}", entry.name);
        assert_eq!(a.stats, b.stats, "{}", entry.name);
    }
}
