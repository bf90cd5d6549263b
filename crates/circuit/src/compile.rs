//! The compiler from the relational IR to circuit families — the constructive
//! content of Proposition 7.7 / Theorem 6.2 for the flat-relational fragment.
//!
//! For a fixed universe size `n`, a query over binary relations compiles to a
//! circuit whose inputs are the concatenated `n²`-bit positional encodings of the
//! input relations and whose outputs are the `n²` bits of the result:
//!
//! * boolean operators (`∪`, `∩`, `\`, complement) — one gate per output bit,
//!   depth 1–2;
//! * transpose — pure rewiring, depth 0;
//! * composition — for each output bit an OR over `n` AND pairs, depth 2
//!   (unbounded fan-in is what makes this constant depth, per the ACᵏ gate basis);
//! * `IterateLogN` — the body circuit is unrolled `⌈log₂ n⌉` times, so each
//!   nesting level multiplies the depth by `Θ(log n)`.
//!
//! The compiled family is uniform by construction (the generator below is the
//! same for every `n`); the explicit DLOGSPACE witness for the flagship family is
//! in [`crate::logspace`].

use crate::gate::{Circuit, CircuitBuilder, GateId};
use crate::relquery::{BitRelation, RelQuery, RelWires};

/// Compile a query over binary relations into a circuit for universe size `n`.
/// The circuit has `num_inputs() · n²` input bits (relation 0 first, row-major)
/// and `n²` output bits.
pub fn compile(query: &RelQuery, n: usize) -> Circuit {
    let num_rels = query.num_inputs();
    let mut builder = CircuitBuilder::new(num_rels * n * n);
    let inputs: Vec<RelWires> = (0..num_rels)
        .map(|r| RelWires {
            n,
            wires: (0..n * n).map(|k| builder.input(r * n * n + k)).collect(),
        })
        .collect();
    let result = compile_inner(query, n, &inputs, None, &mut builder);
    builder.finish(result.wires)
}

fn compile_inner(
    query: &RelQuery,
    n: usize,
    inputs: &[RelWires],
    current: Option<&RelWires>,
    b: &mut CircuitBuilder,
) -> RelWires {
    match query {
        RelQuery::Input(i) => inputs[*i].clone(),
        RelQuery::Current => current
            .expect("Current used outside an IterateLogN body")
            .clone(),
        RelQuery::Empty => {
            let zero = b.constant(false);
            RelWires {
                n,
                wires: vec![zero; n * n],
            }
        }
        RelQuery::Full => {
            let one = b.constant(true);
            RelWires {
                n,
                wires: vec![one; n * n],
            }
        }
        RelQuery::Identity => {
            let zero = b.constant(false);
            let one = b.constant(true);
            let wires = (0..n * n)
                .map(|k| if k / n == k % n { one } else { zero })
                .collect();
            RelWires { n, wires }
        }
        RelQuery::Union(x, y) => {
            let rx = compile_inner(x, n, inputs, current, b);
            let ry = compile_inner(y, n, inputs, current, b);
            let wires = rx
                .wires
                .iter()
                .zip(&ry.wires)
                .map(|(&a, &c)| b.or2(a, c))
                .collect();
            RelWires { n, wires }
        }
        RelQuery::Intersect(x, y) => {
            let rx = compile_inner(x, n, inputs, current, b);
            let ry = compile_inner(y, n, inputs, current, b);
            let wires = rx
                .wires
                .iter()
                .zip(&ry.wires)
                .map(|(&a, &c)| b.and2(a, c))
                .collect();
            RelWires { n, wires }
        }
        RelQuery::Difference(x, y) => {
            let rx = compile_inner(x, n, inputs, current, b);
            let ry = compile_inner(y, n, inputs, current, b);
            let wires = rx
                .wires
                .iter()
                .zip(&ry.wires)
                .map(|(&a, &c)| {
                    let nc = b.not(c);
                    b.and2(a, nc)
                })
                .collect();
            RelWires { n, wires }
        }
        RelQuery::Complement(x) => {
            let rx = compile_inner(x, n, inputs, current, b);
            let wires = rx.wires.iter().map(|&a| b.not(a)).collect();
            RelWires { n, wires }
        }
        RelQuery::Transpose(x) => {
            let rx = compile_inner(x, n, inputs, current, b);
            let mut wires = vec![0 as GateId; n * n];
            for i in 0..n {
                for j in 0..n {
                    wires[i * n + j] = rx.wires[j * n + i];
                }
            }
            RelWires { n, wires }
        }
        RelQuery::Compose(x, y) => {
            let rx = compile_inner(x, n, inputs, current, b);
            let ry = compile_inner(y, n, inputs, current, b);
            let mut wires = Vec::with_capacity(n * n);
            for i in 0..n {
                for j in 0..n {
                    let pairs: Vec<GateId> = (0..n)
                        .map(|k| b.and2(rx.wires[i * n + k], ry.wires[k * n + j]))
                        .collect();
                    wires.push(b.or_many(pairs));
                }
            }
            RelWires { n, wires }
        }
        RelQuery::IterateLogN { init, body } => {
            let mut acc = compile_inner(init, n, inputs, current, b);
            let rounds = usize::BITS - n.leading_zeros();
            for _ in 0..rounds {
                acc = compile_inner(body, n, inputs, Some(&acc), b);
            }
            acc
        }
    }
}

/// Summary of a compiled circuit (what
/// `nesting_depth_multiplies_circuit_depth_by_log_factors` compares).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledStats {
    /// Universe size.
    pub n: usize,
    /// Iteration-nesting depth of the source query (the `k` of ACᵏ).
    pub nesting_depth: usize,
    /// Circuit size (number of gates).
    pub size: usize,
    /// Circuit depth.
    pub depth: usize,
}

/// Compile a query and report size/depth.
pub fn compile_stats(query: &RelQuery, n: usize) -> CompiledStats {
    let circuit = compile(query, n);
    CompiledStats {
        n,
        nesting_depth: query.nesting_depth(),
        size: circuit.size(),
        depth: circuit.depth(),
    }
}

/// Run a compiled circuit on concrete input relations and decode the result.
pub fn run_compiled(query: &RelQuery, n: usize, inputs: &[BitRelation]) -> BitRelation {
    let circuit = compile(query, n);
    let mut bits = Vec::with_capacity(query.num_inputs() * n * n);
    for r in inputs.iter().take(query.num_inputs()) {
        assert_eq!(r.n, n, "input relation universe mismatch");
        bits.extend_from_slice(&r.bits);
    }
    let out = circuit.eval(&bits);
    BitRelation { n, bits: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relquery::eval_reference;

    fn path(n: usize) -> BitRelation {
        BitRelation::from_pairs(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
    }

    fn cycle(n: usize) -> BitRelation {
        BitRelation::from_pairs(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>())
    }

    #[test]
    fn compiled_boolean_operators_match_reference() {
        let n = 5;
        let r = path(n);
        let s = cycle(n);
        let queries = vec![
            RelQuery::union(RelQuery::Input(0), RelQuery::Input(1)),
            RelQuery::intersect(RelQuery::Input(0), RelQuery::Input(1)),
            RelQuery::difference(RelQuery::Input(1), RelQuery::Input(0)),
            RelQuery::Complement(Box::new(RelQuery::Input(0))),
            RelQuery::transpose(RelQuery::Input(1)),
            RelQuery::compose(RelQuery::Input(0), RelQuery::Input(1)),
            RelQuery::union(
                RelQuery::Identity,
                RelQuery::compose(RelQuery::Input(0), RelQuery::transpose(RelQuery::Input(1))),
            ),
        ];
        for q in queries {
            let compiled = run_compiled(&q, n, &[r.clone(), s.clone()]);
            let reference = eval_reference(&q, &[r.clone(), s.clone()], n);
            assert_eq!(compiled, reference, "query {q:?}");
        }
    }

    #[test]
    fn compiled_transitive_closure_matches_reference() {
        for n in [2usize, 3, 5, 8] {
            let q = RelQuery::transitive_closure(RelQuery::Input(0));
            for r in [path(n), cycle(n)] {
                let compiled = run_compiled(&q, n, std::slice::from_ref(&r));
                let reference = eval_reference(&q, std::slice::from_ref(&r), n);
                assert_eq!(compiled, reference, "n = {n}");
            }
        }
    }

    #[test]
    fn composition_is_constant_depth_and_union_is_depth_one() {
        let n = 16;
        let union = compile(&RelQuery::union(RelQuery::Input(0), RelQuery::Input(1)), n);
        assert_eq!(union.depth(), 1);
        let compose = compile(
            &RelQuery::compose(RelQuery::Input(0), RelQuery::Input(1)),
            n,
        );
        assert_eq!(compose.depth(), 2);
        // Size of composition is Θ(n³): n² outputs × (n ANDs + 1 OR).
        assert!(compose.size() >= n * n * n);
    }

    #[test]
    fn tc_depth_grows_logarithmically_with_n() {
        let q = RelQuery::transitive_closure(RelQuery::Input(0));
        let d8 = compile(&q, 8).depth();
        let d64 = compile(&q, 64).depth();
        // 8 → 4 rounds, 64 → 7 rounds; each round has constant depth, so the
        // ratio stays well below the 8× growth of n.
        assert!(d64 > d8);
        assert!(d64 <= d8 * 3, "depth should grow like log n: {d8} -> {d64}");
    }

    #[test]
    fn nesting_depth_multiplies_circuit_depth_by_log_factors() {
        let n = 16;
        let d1 = compile(&RelQuery::nested_depth_k(1), n).depth();
        let d2 = compile(&RelQuery::nested_depth_k(2), n).depth();
        let d3 = compile(&RelQuery::nested_depth_k(3), n).depth();
        // Each extra nesting level multiplies depth by ≈ ⌈log n⌉ = 5.
        assert!(d2 >= d1 * 3, "d1={d1} d2={d2}");
        assert!(d3 >= d2 * 3, "d2={d2} d3={d3}");
    }

    #[test]
    fn nested_queries_still_compute_correctly() {
        let n = 6;
        let q = RelQuery::nested_depth_k(2);
        let r = path(n);
        let compiled = run_compiled(&q, n, std::slice::from_ref(&r));
        let reference = eval_reference(&q, &[r], n);
        assert_eq!(compiled, reference);
    }

    #[test]
    fn compiled_circuits_validate() {
        let q = RelQuery::transitive_closure(RelQuery::Input(0));
        for n in [2usize, 4, 9] {
            assert_eq!(compile(&q, n).validate(), Ok(()));
        }
    }

    #[test]
    fn compile_stats_reports_the_query_shape() {
        let stats = compile_stats(&RelQuery::nested_depth_k(2), 8);
        assert_eq!(stats.nesting_depth, 2);
        assert_eq!(stats.n, 8);
        assert!(stats.size > 0 && stats.depth > 0);
    }
}
