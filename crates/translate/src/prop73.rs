//! Proposition 7.3: over ordered databases, `dcr` and `log-loop` have the same
//! expressive power.
//!
//! **Direction 1 (`dcr` via `log-loop`)** is the evaluator's own `dcr`: it
//! applies `f` to every element of the input (one parallel step), then
//! combines adjacent entries of the ordered sequence pairwise, halving it
//! each round, so `m` elements take `m − 1` combiner calls over `⌈log₂ m⌉`
//! rounds, which associativity and commutativity of `u` make
//! `dcr(e, f, u)(x)`. The tests pin both numbers on the evaluator's own
//! statistics.
//!
//! **Direction 2 (`log-loop` via `dcr`)** — [`log_loop_by_dcr`]: a
//! divide-and-conquer pass over the counting set whose carrier values are pairs
//! `(cardinality, table of iterates f⁰(y), f¹(y), …)`; the combiner adds the
//! cardinalities and extends the iterate table to `⌈log(i+j+1)⌉` entries — the
//! paper's `u((i, cᵢ), (j, cⱼ)) = (i+j, c₍ᵢ₊ⱼ₎)` combiner. The total number of
//! extra `f` applications is linear in `|x|` (polynomial overhead).

use ncql_core::cost::log_rounds;
use ncql_core::error::EvalError;
use ncql_core::eval::eval_closed;
use ncql_core::expr::Expr;
use ncql_core::EvalResult;
use ncql_object::Value;

/// Result of a simulation run, with the instrumentation the experiments report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulationOutcome {
    /// The computed value (must equal the direct semantics).
    pub value: Value,
    /// Number of sequential combining rounds performed.
    pub rounds: u64,
    /// Number of combiner (`u`) applications.
    pub combiner_applications: u64,
    /// Number of `f` applications: iterate-table extensions.
    pub f_applications: u64,
}

/// Direction 2: compute `log-loop(f)(x, y)` by a divide-and-conquer pass over
/// `x` carrying `(cardinality, iterate table)` pairs. `f` is a closed function.
pub fn log_loop_by_dcr(f: &Expr, x: &Value, y: &Value) -> EvalResult<SimulationOutcome> {
    let set = x
        .as_set()
        .ok_or_else(|| EvalError::stuck(format!("log-loop counting set is not a set: {x}")))?;
    let n = set.len();
    let mut f_applications = 0u64;
    let mut combiner_applications = 0u64;
    // The iterate table is shared/extended as the divide-and-conquer proceeds;
    // each entry k holds f^k(y).
    let mut table: Vec<Value> = vec![y.clone()];
    let mut extend_to = |table: &mut Vec<Value>, k: usize| -> EvalResult<()> {
        while table.len() <= k {
            let last = table.last().expect("table starts non-empty").clone();
            table.push(eval_closed(&Expr::app(f.clone(), Expr::constant(last)))?);
            f_applications += 1;
        }
        Ok(())
    };

    // Divide and conquer over the element count: each leaf contributes
    // cardinality 1; combining (i, ·) and (j, ·) yields i + j and requires the
    // iterate table up to ⌈log(i+j+1)⌉.
    let mut rounds = 0u64;
    if n > 0 {
        // Simulate the combining tree level by level over the leaf counts.
        let mut level: Vec<usize> = vec![1; n];
        while level.len() > 1 {
            rounds += 1;
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for chunk in level.chunks(2) {
                let total: usize = chunk.iter().sum();
                extend_to(&mut table, log_rounds(total) as usize)?;
                combiner_applications += 1;
                next.push(total);
            }
            level = next;
        }
    }
    let needed = log_rounds(n) as usize;
    extend_to(&mut table, needed)?;
    Ok(SimulationOutcome {
        value: table.swap_remove(needed),
        rounds,
        combiner_applications,
        f_applications,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop22::tests::compose;
    use ncql_core::derived;
    use ncql_core::eval::eval_with_stats;
    use ncql_object::Type;

    fn atoms(v: Vec<u64>) -> Value {
        Value::atom_set(v)
    }

    fn xor_u() -> Expr {
        Expr::lam2(
            "a",
            "b",
            Type::prod(Type::Bool, Type::Bool),
            derived::xor(Expr::var("a"), Expr::var("b")),
        )
    }

    /// The evaluator's halving tree over m = n atoms: the value, m − 1
    /// combiner calls, and ⌈log₂ m⌉ levels. The levels are read from the span
    /// of counting the same set with `nat_add(π₁ p, π₂ p)`, whose every
    /// application adds the same span, 3, whatever its operands: that span
    /// above the span of counting one atom is 3 per level.
    #[test]
    fn halving_computes_parity_with_log_rounds() {
        let f = Expr::lam("y", Type::Base, Expr::bool_val(true));
        let p = || Expr::var("p");
        let add = Expr::extern_call("nat_add", vec![Expr::proj1(p()), Expr::proj2(p())]);
        let add = Expr::lam("p", Type::prod(Type::Nat, Type::Nat), add);
        let one = Expr::lam("y", Type::Base, Expr::nat(1));
        let count = |x: &Value| {
            let dcr = Expr::dcr(
                Expr::nat(0),
                one.clone(),
                add.clone(),
                Expr::constant(x.clone()),
            );
            eval_with_stats(&dcr).unwrap()
        };
        let one_atom = count(&atoms(vec![0])).1.span;
        for n in 0..=100usize {
            let x = atoms((0..n as u64).collect());
            let dcr = Expr::dcr(
                Expr::bool_val(false),
                f.clone(),
                xor_u(),
                Expr::constant(x.clone()),
            );
            let (value, stats) = eval_with_stats(&dcr).unwrap();
            assert_eq!(value, Value::Bool(n % 2 == 1), "value at n = {n}");
            assert_eq!(
                stats.combiner_calls,
                n.saturating_sub(1) as u64,
                "calls at n = {n}"
            );
            if n > 0 {
                let (count, stats) = count(&x);
                assert_eq!(count, Value::Nat(n as u64), "count at n = {n}");
                let above = stats.span - one_atom;
                assert_eq!(above % 3, 0, "a level adds one combiner application");
                let expected = (n as f64).log2().ceil() as u64;
                assert_eq!(above / 3, expected, "levels at n = {n}");
            }
        }
    }

    #[test]
    fn halving_computes_transitive_closure() {
        let pairs = vec![(0u64, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let r = Value::relation_from_pairs(pairs);
        let rel_ty = Type::binary_relation();
        let f = Expr::lam("y", Type::Base, Expr::constant(r.clone()));
        let u = Expr::lam2(
            "r1",
            "r2",
            Type::prod(rel_ty.clone(), rel_ty),
            Expr::union(
                Expr::union(Expr::var("r1"), Expr::var("r2")),
                compose(Expr::var("r1"), Expr::var("r2")),
            ),
        );
        let vertices = atoms((0..5).collect());
        let e = Expr::empty(Type::prod(Type::Base, Type::Base));
        let dcr = Expr::dcr(e, f, u, Expr::constant(vertices));
        let (value, stats) = eval_with_stats(&dcr).unwrap();
        // The cycle's closure is complete: 25 pairs.
        assert_eq!(value.cardinality(), Some(25));
        assert_eq!(stats.combiner_calls, 4);
    }

    #[test]
    fn log_loop_by_dcr_agrees_with_direct_log_loop() {
        // Body: squaring step on a relation; counting set of size n gives
        // ⌈log(n+1)⌉ applications.
        let rel_ty = Type::binary_relation();
        let path = Value::relation_from_pairs((0..10u64).map(|i| (i, i + 1)));
        let body = Expr::lam(
            "s",
            rel_ty.clone(),
            Expr::union(Expr::var("s"), compose(Expr::var("s"), Expr::var("s"))),
        );
        for n in [0usize, 1, 3, 5, 11] {
            let counting = atoms((0..n as u64).collect());
            let direct = ncql_core::eval::eval_closed(&Expr::log_loop(
                body.clone(),
                Expr::constant(counting.clone()),
                Expr::constant(path.clone()),
            ))
            .unwrap();
            let outcome = log_loop_by_dcr(&body, &counting, &path).unwrap();
            assert_eq!(direct, outcome.value, "n = {n}");
        }
    }

    #[test]
    fn log_loop_by_dcr_has_polynomial_overhead() {
        let body = Expr::lam(
            "c",
            Type::Nat,
            Expr::extern_call("nat_add", vec![Expr::var("c"), Expr::nat(1)]),
        );
        let n = 200usize;
        let counting = atoms((0..n as u64).collect());
        let outcome = log_loop_by_dcr(&body, &counting, &Value::Nat(0)).unwrap();
        // The value is the iteration count ⌈log(n+1)⌉.
        assert_eq!(outcome.value, Value::Nat(log_rounds(n)));
        // Overhead: at most one f application per combiner application plus the
        // final table entries — linear, not exponential.
        assert!(outcome.f_applications <= outcome.combiner_applications + log_rounds(n) + 1);
        assert!(outcome.combiner_applications < 2 * n as u64);
    }
}
