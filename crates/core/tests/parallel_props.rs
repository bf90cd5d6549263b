//! Property tests for the cost-model invariants of the two evaluation
//! backends, driven by the vendored `proptest`.
//!
//! For randomly generated well-formed expressions these pin down:
//!
//! * `span ≤ work` on both backends (the critical path cannot exceed the total
//!   operation count — a PRAM tautology the instrumentation must respect);
//! * the `dcr` combining tree does `m − 1` combiner applications and its span
//!   grows *additively* by one fixed per-level increment each time the set
//!   size doubles — i.e. as `⌈log₂ m⌉` — while `esr` span grows linearly;
//! * the resource-limit errors `SetTooLarge` and `WorkLimitExceeded` fire
//!   under exactly the same conditions on the sequential and the parallel
//!   backend (same error discriminant, or the same value on success) —
//!   *regardless of which pool worker observes the shared budget's exhaustion
//!   first*, which the properties force by randomizing the pool's steal-order
//!   seed and oversubscribing the pool relative to the parallelism knob;
//! * pool scheduling is unobservable: every `(steal seed, pool size)` pair
//!   yields the same `(Value, CostStats)`, including `span ≤ work` and the
//!   `m − 1` combiner count, on the work-stealing pool backend.

use ncql_core::error::EvalError;
use ncql_core::eval::{eval_with_stats, CostStats, EvalConfig, Evaluator};
use ncql_core::expr::Expr;
use ncql_core::EvalResult;
use ncql_object::{Type, Value};
use proptest::prelude::*;

fn xor_combiner() -> Expr {
    Expr::lam2(
        "a",
        "b",
        Type::prod(Type::Bool, Type::Bool),
        Expr::ite(
            Expr::var("a"),
            Expr::ite(Expr::var("b"), Expr::bool_val(false), Expr::bool_val(true)),
            Expr::var("b"),
        ),
    )
}

fn parity_dcr(atoms: Vec<u64>) -> Expr {
    Expr::dcr(
        Expr::bool_val(false),
        Expr::lam("y", Type::Base, Expr::bool_val(true)),
        xor_combiner(),
        Expr::constant(Value::atom_set(atoms)),
    )
}

fn sum_dcr(atoms: Vec<u64>) -> Expr {
    Expr::dcr(
        Expr::nat(0),
        Expr::lam(
            "x",
            Type::Base,
            Expr::extern_call("atom_to_nat", vec![Expr::var("x")]),
        ),
        Expr::lam2(
            "a",
            "b",
            Type::prod(Type::Nat, Type::Nat),
            Expr::extern_call("nat_add", vec![Expr::var("a"), Expr::var("b")]),
        ),
        Expr::constant(Value::atom_set(atoms)),
    )
}

fn ext_spread(atoms: Vec<u64>, shift: u64) -> Expr {
    Expr::ext(
        Expr::lam(
            "x",
            Type::Base,
            Expr::union(
                Expr::singleton(Expr::var("x")),
                Expr::singleton(Expr::extern_call(
                    "nat_to_atom",
                    vec![Expr::extern_call(
                        "nat_add",
                        vec![
                            Expr::extern_call("atom_to_nat", vec![Expr::var("x")]),
                            Expr::nat(shift),
                        ],
                    )],
                )),
            ),
        ),
        Expr::constant(Value::atom_set(atoms)),
    )
}

fn parity_esr(atoms: Vec<u64>) -> Expr {
    Expr::esr(
        Expr::bool_val(false),
        Expr::lam2(
            "y",
            "acc",
            Type::prod(Type::Base, Type::Bool),
            Expr::ite(
                Expr::var("acc"),
                Expr::bool_val(false),
                Expr::bool_val(true),
            ),
        ),
        Expr::constant(Value::atom_set(atoms)),
    )
}

/// One random query from the template family, selected by `shape`.
fn random_query(shape: u64, atoms: Vec<u64>, shift: u64) -> Expr {
    match shape % 4 {
        0 => parity_dcr(atoms),
        1 => sum_dcr(atoms),
        2 => ext_spread(atoms, shift),
        _ => parity_esr(atoms),
    }
}

fn eval_parallel_with(
    expr: &Expr,
    threads: usize,
    base: EvalConfig,
) -> EvalResult<(Value, CostStats)> {
    let mut ev = Evaluator::new(EvalConfig {
        parallelism: Some(threads),
        parallel_cutoff: 1,
        ..base
    });
    let v = ev.eval_closed(expr)?;
    Ok((v, ev.stats()))
}

/// Like [`eval_parallel_with`], but with the pool scheduling knobs exposed:
/// an independent pool size (possibly oversubscribed relative to `threads`)
/// and a steal-order seed. Every combination must be observationally
/// identical to the sequential backend.
fn eval_on_pool(
    expr: &Expr,
    threads: usize,
    pool_threads: usize,
    steal_seed: u64,
    base: EvalConfig,
) -> EvalResult<(Value, CostStats)> {
    eval_parallel_with(
        expr,
        threads,
        EvalConfig {
            pool_threads: Some(pool_threads),
            pool_steal_seed: steal_seed,
            ..base
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn span_is_bounded_by_work_on_both_backends(
        shape in 0u64..4,
        atoms in proptest::collection::vec(0u64..500, 0..50),
        shift in 1u64..40,
        threads in 2usize..9,
        pool_threads in 2usize..10,
        steal_seed in proptest::prelude::any::<u64>(),
    ) {
        let q = random_query(shape, atoms, shift);
        let (v_seq, seq) = eval_with_stats(&q).expect("sequential eval");
        prop_assert!(seq.span <= seq.work, "sequential span {} > work {}", seq.span, seq.work);
        // The pool size is drawn independently of the parallelism knob, so
        // this also covers over- and under-subscribed pools.
        let (v_par, par) = eval_on_pool(&q, threads, pool_threads, steal_seed, EvalConfig::default())
            .expect("parallel eval");
        prop_assert!(par.span <= par.work, "parallel span {} > work {}", par.span, par.work);
        prop_assert_eq!(v_par, v_seq);
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn dcr_combiner_count_is_m_minus_one(
        atoms in proptest::collection::vec(0u64..10_000, 1..80),
        threads in 2usize..9,
        pool_threads in 2usize..10,
        steal_seed in proptest::prelude::any::<u64>(),
    ) {
        let m = Value::atom_set(atoms.clone()).cardinality().unwrap_or(0) as u64;
        let q = parity_dcr(atoms);
        let (_, seq) = eval_with_stats(&q).expect("sequential eval");
        prop_assert_eq!(seq.combiner_calls, m.saturating_sub(1));
        let (_, par) = eval_on_pool(&q, threads, pool_threads, steal_seed, EvalConfig::default())
            .expect("parallel eval");
        prop_assert_eq!(par.combiner_calls, m.saturating_sub(1));
    }

    /// One evaluator — therefore one persistent pool — re-scored across many
    /// queries: the pool's internal state (deque history, steal cursors)
    /// accumulated by earlier queries must never leak into later results.
    #[test]
    fn one_pool_many_queries_stays_equivalent(
        shapes in proptest::collection::vec((0u64..4, proptest::collection::vec(0u64..200, 1..40)), 1..5),
        threads in 2usize..9,
        steal_seed in proptest::prelude::any::<u64>(),
    ) {
        let mut ev = Evaluator::new(EvalConfig {
            parallelism: Some(threads),
            parallel_cutoff: 1,
            pool_steal_seed: steal_seed,
            ..EvalConfig::default()
        });
        for (shape, atoms) in shapes {
            let q = random_query(shape, atoms, 17);
            let (v_seq, seq) = eval_with_stats(&q).expect("sequential eval");
            let v_par = ev.eval_closed(&q).expect("parallel eval");
            prop_assert_eq!(v_par, v_seq);
            prop_assert_eq!(ev.stats(), seq);
        }
    }

    #[test]
    fn dcr_span_grows_by_one_level_per_doubling(
        exp in 1u32..7,
        threads in 2usize..9,
    ) {
        // Measure spans at m = 2^1 .. 2^(exp+1): parity's leaf and combiner
        // spans are constant, so the whole-query span at 2^(j+1) must exceed
        // the span at 2^j by exactly one per-level increment — the ⌈log₂ m⌉
        // growth of the combining tree. The increment is derived from the
        // first doubling, not hard-coded.
        let span_at = |m: u64, threads: usize| -> u64 {
            let q = parity_dcr((0..m).collect());
            let (_, stats) = eval_parallel_with(&q, threads, EvalConfig::default()).expect("eval");
            stats.span
        };
        let level_increment = span_at(4, threads) - span_at(2, threads);
        prop_assert!(level_increment > 0);
        for j in 1..=exp {
            let lo = span_at(1u64 << j, threads);
            let hi = span_at(1u64 << (j + 1), threads);
            prop_assert_eq!(
                hi - lo,
                level_increment,
                "doubling 2^{} -> 2^{} added {} instead of one level ({})",
                j, j + 1, hi - lo, level_increment
            );
        }
    }

    #[test]
    fn esr_span_grows_linearly_not_logarithmically(
        exp in 2u32..6,
    ) {
        let span_at = |m: u64| -> u64 {
            let (_, stats) = eval_with_stats(&parity_esr((0..m).collect())).expect("eval");
            stats.span
        };
        // Doubling the input roughly doubles the esr span (sequential chain);
        // allow slack for the constant prefix.
        let lo = span_at(1u64 << exp);
        let hi = span_at(1u64 << (exp + 1));
        prop_assert!(hi >= lo * 2 - 8, "esr span {} vs {} not linear", hi, lo);
    }

    #[test]
    fn resource_limits_fire_identically(
        shape in 0u64..4,
        atoms in proptest::collection::vec(0u64..300, 0..60),
        shift in 1u64..40,
        threads in 2usize..9,
        pool_threads in 2usize..10,
        steal_seed in proptest::prelude::any::<u64>(),
        max_work in 1u64..4_000,
        max_set_size in 1usize..80,
    ) {
        let q = random_query(shape, atoms, shift);
        let limits = EvalConfig {
            max_work,
            max_set_size,
            ..EvalConfig::default()
        };
        let mut seq_ev = Evaluator::new(limits.clone());
        let seq = seq_ev.eval_closed(&q);
        // The steal seed and the independent pool size decide *which worker*
        // observes the shared work budget's exhaustion first; the outcome
        // must not care.
        let par = eval_on_pool(&q, threads, pool_threads, steal_seed, limits).map(|(v, _)| v);
        // A limit error fires in parallel iff one fires sequentially. Which of
        // the two limits gets reported may differ when both are crossed in one
        // evaluation (shards notice their overruns concurrently), so the two
        // limit kinds form one equivalence class.
        let resource_limit = |e: &EvalError| {
            matches!(
                e,
                EvalError::WorkLimitExceeded { .. } | EvalError::SetTooLarge { .. }
            )
        };
        match (&seq, &par) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(ea), Err(eb)) => {
                prop_assert!(
                    resource_limit(ea) && resource_limit(eb),
                    "unexpected error kinds: seq={:?} par={:?}", ea, eb
                );
            }
            _ => prop_assert!(false, "backends disagree: seq={:?} par={:?}", seq, par),
        }
    }
}
