//! Proposition 7.3: over ordered databases, `dcr` and `log-loop` have the same
//! expressive power — realized here as two instrumented evaluation strategies.
//!
//! **Direction 1 (`dcr` via `log-loop`)** — [`HalvingSimulator::dcr_by_halving`]:
//! first apply `f` to every element of the input (one parallel step), obtaining a
//! sequence ordered by the lifted `≤`; then repeatedly combine *adjacent* pairs
//! `u(b₁, b₂), u(b₃, b₄), …` (padding an odd tail with the identity `e`), halving
//! the sequence each round. The order relation is what identifies the odd/even
//! positions (in the syntactic encoding this is where transitive closure over the
//! order is used); after exactly `⌈log₂ m⌉` rounds a single value remains, which
//! associativity and commutativity of `u` guarantee to be `dcr(e, f, u)(x)`.
//!
//! **Direction 2 (`log-loop` via `dcr`)** — [`HalvingSimulator::log_loop_by_dcr`]:
//! a divide-and-conquer pass over the counting set whose carrier values are pairs
//! `(cardinality, table of iterates f⁰(y), f¹(y), …)`; the combiner adds the
//! cardinalities and extends the iterate table to `⌈log(i+j+1)⌉` entries — the
//! paper's `u((i, cᵢ), (j, cⱼ)) = (i+j, c₍ᵢ₊ⱼ₎)` combiner. The total number of
//! extra `f` applications is linear in `|x|` (polynomial overhead).

use ncql_core::cost::log_rounds;
use ncql_core::error::EvalError;
use ncql_core::eval::{EvalConfig, Evaluator};
use ncql_core::expr::Expr;
use ncql_core::EvalResult;
use ncql_object::Value;

/// Result of a simulation run, with the instrumentation the experiments report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulationOutcome {
    /// The computed value (must equal the direct semantics).
    pub value: Value,
    /// Number of sequential halving/combining rounds performed.
    pub rounds: u64,
    /// Number of combiner (`u`) applications.
    pub combiner_applications: u64,
    /// Number of `f` applications (for `log-loop` via `dcr`: iterate-table
    /// extensions; for `dcr` via halving: the initial per-element map).
    pub f_applications: u64,
}

/// Evaluation-strategy simulator for both directions of Proposition 7.3.
pub struct HalvingSimulator {
    evaluator: Evaluator,
}

impl Default for HalvingSimulator {
    fn default() -> Self {
        HalvingSimulator::new(EvalConfig::default())
    }
}

impl HalvingSimulator {
    /// Create a simulator with an explicit evaluator configuration.
    pub fn new(config: EvalConfig) -> HalvingSimulator {
        HalvingSimulator {
            evaluator: Evaluator::new(config),
        }
    }

    fn apply1(&mut self, f: &Expr, arg: &Value) -> EvalResult<Value> {
        let call = Expr::app(f.clone(), Expr::var("%sim_x"));
        self.evaluator
            .eval_with_bindings(&call, &[("%sim_x".to_string(), arg.clone())])
    }

    fn apply2(&mut self, u: &Expr, a: &Value, b: &Value) -> EvalResult<Value> {
        let call = Expr::app(
            u.clone(),
            Expr::pair(Expr::var("%sim_a"), Expr::var("%sim_b")),
        );
        self.evaluator.eval_with_bindings(
            &call,
            &[
                ("%sim_a".to_string(), a.clone()),
                ("%sim_b".to_string(), b.clone()),
            ],
        )
    }

    /// Direction 1: compute `dcr(e, f, u)(x)` with the order-driven halving
    /// strategy. The number of rounds is `⌈log₂ m⌉` where `m = |x|` (0 for empty
    /// or singleton inputs).
    pub fn dcr_by_halving(
        &mut self,
        e: &Expr,
        f: &Expr,
        u: &Expr,
        x: &Value,
    ) -> EvalResult<SimulationOutcome> {
        let set = x
            .as_set()
            .ok_or_else(|| EvalError::stuck(format!("dcr argument is not a set: {x}")))?;
        let e_val = self.evaluator.eval_closed(e)?;
        if set.is_empty() {
            return Ok(SimulationOutcome {
                value: e_val,
                rounds: 0,
                combiner_applications: 0,
                f_applications: 0,
            });
        }
        // One parallel step: f over every element, in the lifted order.
        let mut current: Vec<Value> = Vec::with_capacity(set.len());
        let mut f_applications = 0u64;
        for elem in set.iter() {
            current.push(self.apply1(f, elem)?);
            f_applications += 1;
        }
        let mut rounds = 0u64;
        let mut combiner_applications = 0u64;
        while current.len() > 1 {
            rounds += 1;
            let mut next = Vec::with_capacity(current.len().div_ceil(2));
            let mut it = current.chunks(2);
            for chunk in &mut it {
                match chunk {
                    [a, b] => {
                        next.push(self.apply2(u, a, b)?);
                        combiner_applications += 1;
                    }
                    [a] => {
                        // Odd tail: pair with the identity e, as in the paper's
                        // g(y) = {u(b₁,b₂), …, u(b_m, e)} for odd m.
                        next.push(self.apply2(u, a, &e_val)?);
                        combiner_applications += 1;
                    }
                    _ => unreachable!("chunks(2) yields one- or two-element slices"),
                }
            }
            current = next;
        }
        Ok(SimulationOutcome {
            value: current.pop().expect("non-empty input leaves one value"),
            rounds,
            combiner_applications,
            f_applications,
        })
    }

    /// Direction 2: compute `log-loop(f)(x, y)` by a divide-and-conquer pass over
    /// `x` carrying `(cardinality, iterate table)` pairs.
    pub fn log_loop_by_dcr(
        &mut self,
        f: &Expr,
        x: &Value,
        y: &Value,
    ) -> EvalResult<SimulationOutcome> {
        let set = x
            .as_set()
            .ok_or_else(|| EvalError::stuck(format!("log-loop counting set is not a set: {x}")))?;
        let n = set.len();
        let mut f_applications = 0u64;
        let mut combiner_applications = 0u64;
        // The iterate table is shared/extended as the divide-and-conquer proceeds;
        // each entry k holds f^k(y).
        let mut table: Vec<Value> = vec![y.clone()];
        let extend_to = |this: &mut Self,
                         table: &mut Vec<Value>,
                         k: usize,
                         f_apps: &mut u64|
         -> EvalResult<()> {
            while table.len() <= k {
                let last = table.last().expect("table starts non-empty").clone();
                table.push(this.apply1(f, &last)?);
                *f_apps += 1;
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
                    let needed = log_rounds(total) as usize;
                    extend_to(self, &mut table, needed, &mut f_applications)?;
                    combiner_applications += 1;
                    next.push(total);
                }
                level = next;
            }
        }
        let needed = log_rounds(n) as usize;
        extend_to(self, &mut table, needed, &mut f_applications)?;
        Ok(SimulationOutcome {
            value: table[needed].clone(),
            rounds,
            combiner_applications,
            f_applications,
        })
    }
}

/// Convenience: check that the halving simulation of a `dcr` instance agrees
/// with the direct evaluator and report both outcomes.
pub fn verify_dcr_halving(
    e: &Expr,
    f: &Expr,
    u: &Expr,
    x: &Value,
) -> EvalResult<(Value, SimulationOutcome)> {
    let direct_expr = Expr::dcr(e.clone(), f.clone(), u.clone(), Expr::constant(x.clone()));
    let direct = ncql_core::eval::eval_closed(&direct_expr)?;
    let mut sim = HalvingSimulator::default();
    let outcome = sim.dcr_by_halving(e, f, u, x)?;
    Ok((direct, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncql_core::derived;
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

    #[test]
    fn halving_computes_parity_with_log_rounds() {
        let f = Expr::lam("y", Type::Base, Expr::bool_val(true));
        for n in [0usize, 1, 2, 3, 4, 7, 8, 9, 31, 32, 33, 100] {
            let x = atoms((0..n as u64).collect());
            let (direct, outcome) =
                verify_dcr_halving(&Expr::bool_val(false), &f, &xor_u(), &x).unwrap();
            assert_eq!(direct, outcome.value, "value mismatch at n = {n}");
            let expected_rounds = if n <= 1 {
                0
            } else {
                (n as f64).log2().ceil() as u64
            };
            assert_eq!(outcome.rounds, expected_rounds, "rounds at n = {n}");
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
                derived::compose(
                    Type::Base,
                    Type::Base,
                    Type::Base,
                    Expr::var("r1"),
                    Expr::var("r2"),
                ),
            ),
        );
        let vertices = atoms((0..5).collect());
        let (direct, outcome) = verify_dcr_halving(
            &Expr::empty(Type::prod(Type::Base, Type::Base)),
            &f,
            &u,
            &vertices,
        )
        .unwrap();
        assert_eq!(direct, outcome.value);
        assert_eq!(outcome.rounds, 3); // ⌈log₂ 5⌉
                                       // The cycle's closure is complete: 25 pairs.
        assert_eq!(outcome.value.cardinality(), Some(25));
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
            Expr::union(
                Expr::var("s"),
                derived::compose(
                    Type::Base,
                    Type::Base,
                    Type::Base,
                    Expr::var("s"),
                    Expr::var("s"),
                ),
            ),
        );
        for n in [0usize, 1, 3, 5, 11] {
            let counting = atoms((0..n as u64).collect());
            let direct = ncql_core::eval::eval_closed(&Expr::log_loop(
                body.clone(),
                Expr::constant(counting.clone()),
                Expr::constant(path.clone()),
            ))
            .unwrap();
            let mut sim = HalvingSimulator::default();
            let outcome = sim.log_loop_by_dcr(&body, &counting, &path).unwrap();
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
        let mut sim = HalvingSimulator::default();
        let outcome = sim
            .log_loop_by_dcr(&body, &counting, &Value::Nat(0))
            .unwrap();
        // The value is the iteration count ⌈log(n+1)⌉.
        assert_eq!(outcome.value, Value::Nat(log_rounds(n)));
        // Overhead: at most one f application per combiner application plus the
        // final table entries — linear, not exponential.
        assert!(outcome.f_applications <= outcome.combiner_applications + log_rounds(n) + 1);
        assert!(outcome.combiner_applications < 2 * n as u64);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let f = Expr::lam("y", Type::Base, Expr::bool_val(true));
        let mut sim = HalvingSimulator::default();
        let empty = sim
            .dcr_by_halving(&Expr::bool_val(false), &f, &xor_u(), &Value::empty_set())
            .unwrap();
        assert_eq!(empty.value, Value::Bool(false));
        assert_eq!(empty.rounds, 0);
        let single = sim
            .dcr_by_halving(&Expr::bool_val(false), &f, &xor_u(), &atoms(vec![7]))
            .unwrap();
        assert_eq!(single.value, Value::Bool(true));
        assert_eq!(single.rounds, 0);
        assert_eq!(single.combiner_applications, 0);
    }
}
