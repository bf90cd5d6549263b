//! Uniform entry point for evaluating library queries on either schedule of
//! the one evaluator (inline, or forking regions onto a pool) — kept as a
//! **thin shim over [`ncql_engine::Session`]** for corpus callers.
//!
//! New code should use the engine directly (`Session::prepare` /
//! `Session::execute` amortize the front end across repeated executions);
//! these functions remain because the differential suite and downstream
//! corpus runners want a one-line "evaluate this `Expr` with this
//! parallelism knob" call with exactly the evaluator's error type.
//!
//! Parallelism normalization: the `parallelism` argument overrides the base
//! configuration's knob, and the degenerate requests `Some(0)` / `Some(1)` are
//! normalized to `None` (sequential) by
//! [`ncql_core::normalize_parallelism`] before they are stored — a
//! configuration never records a thread count that looks parallel but
//! evaluates sequentially.

use ncql_core::eval::{normalize_parallelism, CostStats, EvalConfig};
use ncql_core::expr::Expr;
use ncql_core::EvalResult;
use ncql_engine::Session;
use ncql_object::Value;

/// Evaluate a closed query with the given parallelism knob, returning the
/// value and the cost statistics. `None` (and the normalized `Some(0 | 1)`)
/// run sequentially.
pub fn eval_query(expr: &Expr, parallelism: Option<usize>) -> EvalResult<(Value, CostStats)> {
    eval_query_with(expr, parallelism, EvalConfig::default())
}

/// Like [`eval_query`], but over a caller-supplied base configuration (resource
/// limits, registry, cutover threshold). The `parallelism` argument overrides
/// the configuration's own knob after normalization.
pub fn eval_query_with(
    expr: &Expr,
    parallelism: Option<usize>,
    base: EvalConfig,
) -> EvalResult<(Value, CostStats)> {
    let session = Session::builder()
        .config(EvalConfig {
            parallelism: normalize_parallelism(parallelism),
            ..base
        })
        .cache_capacity(0)
        .build();
    let outcome = session.evaluate(expr)?;
    Ok((outcome.value, outcome.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parity;
    use ncql_object::Value;

    #[test]
    fn both_backends_through_the_entry_point_agree() {
        let q = parity::parity_dcr(Expr::constant(Value::atom_set(0..99)));
        let (v_seq, s_seq) = eval_query(&q, None).unwrap();
        for threads in [1usize, 2, 4] {
            let (v_par, s_par) = eval_query(&q, Some(threads)).unwrap();
            assert_eq!(v_par, v_seq, "threads={threads}");
            assert_eq!(s_par, s_seq, "threads={threads}");
        }
        assert_eq!(v_seq, Value::Bool(true));
    }

    #[test]
    fn degenerate_override_is_normalized_not_stored() {
        // `Some(1)` is a request for the sequential backend; it must behave
        // exactly like `None`, including against a base config whose own knob
        // says parallel — the override still wins, but as the *normalized*
        // `None`, not as a stored `Some(1)`.
        let q = parity::parity_dcr(Expr::constant(Value::atom_set(0..40)));
        let base = EvalConfig {
            parallelism: Some(8),
            parallel_cutoff: 1,
            ..EvalConfig::default()
        };
        let (v_none, s_none) = eval_query_with(&q, None, base.clone()).unwrap();
        for degenerate in [Some(0), Some(1)] {
            let (v, s) = eval_query_with(&q, degenerate, base.clone()).unwrap();
            assert_eq!(v, v_none, "{degenerate:?}");
            assert_eq!(s, s_none, "{degenerate:?}");
        }
    }
}
