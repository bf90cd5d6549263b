//! A small relational IR over the positional encoding of flat relations.
//!
//! Circuit compilation (§7.2) works with bit-string encodings; for flat relations
//! the paper notes that its string encoding and Immerman's positional encoding
//! are inter-translatable inside ACᵏ, so the compiler operates on the positional
//! one: a binary relation over an ordered universe of size `n` is an `n²`-bit
//! characteristic vector.
//!
//! `RelQuery` is the fragment of `NRA¹(dcr/log-loop, ≤)` the compiler supports:
//! the boolean relational operators (constant depth each), relational composition
//! (one unbounded-fan-in OR over AND pairs — depth 2), and the logarithmic
//! iterator `IterateLogN` whose compiled form unrolls `⌈log₂ n⌉` copies of its
//! body. Nesting `IterateLogN` `k` times therefore yields circuits of depth
//! `O(logᵏ n)`, which is the shape Theorem 6.2 predicts.

use crate::gate::GateId;

/// A query over binary relations on an ordered universe of size `n`, in the
/// compilable fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelQuery {
    /// The `i`-th input relation.
    Input(usize),
    /// Inside an [`RelQuery::IterateLogN`] body: the current accumulator.
    Current,
    /// The empty relation.
    Empty,
    /// The full relation (every pair).
    Full,
    /// The identity (diagonal) relation.
    Identity,
    /// Union.
    Union(Box<RelQuery>, Box<RelQuery>),
    /// Intersection.
    Intersect(Box<RelQuery>, Box<RelQuery>),
    /// Difference (left minus right).
    Difference(Box<RelQuery>, Box<RelQuery>),
    /// Complement.
    Complement(Box<RelQuery>),
    /// Converse / transpose `r⁻¹`.
    Transpose(Box<RelQuery>),
    /// Relational composition `left ∘ right`.
    Compose(Box<RelQuery>, Box<RelQuery>),
    /// `⌈log₂ n⌉`-fold iteration: start from `init`, then repeatedly replace the
    /// accumulator by `body` (in which [`RelQuery::Current`] denotes the
    /// accumulator). This is the positional-encoding image of `log-loop` /
    /// `dcr`'s combining tower.
    IterateLogN {
        /// The initial accumulator.
        init: Box<RelQuery>,
        /// The loop body; `Current` refers to the accumulator.
        body: Box<RelQuery>,
    },
}

impl RelQuery {
    /// Union helper.
    pub fn union(a: RelQuery, b: RelQuery) -> RelQuery {
        RelQuery::Union(Box::new(a), Box::new(b))
    }

    /// Intersection helper.
    pub fn intersect(a: RelQuery, b: RelQuery) -> RelQuery {
        RelQuery::Intersect(Box::new(a), Box::new(b))
    }

    /// Difference helper.
    pub fn difference(a: RelQuery, b: RelQuery) -> RelQuery {
        RelQuery::Difference(Box::new(a), Box::new(b))
    }

    /// Composition helper.
    pub fn compose(a: RelQuery, b: RelQuery) -> RelQuery {
        RelQuery::Compose(Box::new(a), Box::new(b))
    }

    /// Transpose helper.
    pub fn transpose(a: RelQuery) -> RelQuery {
        RelQuery::Transpose(Box::new(a))
    }

    /// The transitive closure of a query: iterate squaring `⌈log n⌉` times —
    /// Example 7.1 in the positional IR.
    pub fn transitive_closure(r: RelQuery) -> RelQuery {
        RelQuery::IterateLogN {
            init: Box::new(r),
            body: Box::new(RelQuery::union(
                RelQuery::Current,
                RelQuery::compose(RelQuery::Current, RelQuery::Current),
            )),
        }
    }

    /// A family with iteration-nesting depth `k ≥ 1` (the family
    /// `compile::nesting_depth_multiplies_circuit_depth_by_log_factors`
    /// compiles): for `k = 1` it is the transitive closure of the input; each further level
    /// wraps the body in another `⌈log n⌉`-fold iteration applied to the outer
    /// accumulator (the inner `Current` shadows the outer one, exactly like the
    /// nested `log-loop`s of Example 7.2). The compiled circuit depth therefore
    /// grows by a `Θ(log n)` factor per level while the *semantics* stays the
    /// transitive closure, so correctness remains checkable at every `k`.
    pub fn nested_depth_k(k: usize) -> RelQuery {
        fn body(level: usize) -> RelQuery {
            if level <= 1 {
                RelQuery::union(
                    RelQuery::Current,
                    RelQuery::compose(RelQuery::Current, RelQuery::Current),
                )
            } else {
                RelQuery::IterateLogN {
                    init: Box::new(RelQuery::Current),
                    body: Box::new(body(level - 1)),
                }
            }
        }
        RelQuery::IterateLogN {
            init: Box::new(RelQuery::Input(0)),
            body: Box::new(body(k.max(1))),
        }
    }

    /// The iteration-nesting depth of the query (the `k` of Theorem 6.2).
    pub fn nesting_depth(&self) -> usize {
        match self {
            RelQuery::Input(_)
            | RelQuery::Current
            | RelQuery::Empty
            | RelQuery::Full
            | RelQuery::Identity => 0,
            RelQuery::Complement(a) | RelQuery::Transpose(a) => a.nesting_depth(),
            RelQuery::Union(a, b)
            | RelQuery::Intersect(a, b)
            | RelQuery::Difference(a, b)
            | RelQuery::Compose(a, b) => a.nesting_depth().max(b.nesting_depth()),
            RelQuery::IterateLogN { init, body } => {
                init.nesting_depth().max(1 + body.nesting_depth())
            }
        }
    }

    /// Number of distinct input relations referenced.
    pub fn num_inputs(&self) -> usize {
        match self {
            RelQuery::Input(i) => i + 1,
            RelQuery::Current | RelQuery::Empty | RelQuery::Full | RelQuery::Identity => 0,
            RelQuery::Complement(a) | RelQuery::Transpose(a) => a.num_inputs(),
            RelQuery::Union(a, b)
            | RelQuery::Intersect(a, b)
            | RelQuery::Difference(a, b)
            | RelQuery::Compose(a, b) => a.num_inputs().max(b.num_inputs()),
            RelQuery::IterateLogN { init, body } => init.num_inputs().max(body.num_inputs()),
        }
    }
}

/// A dense boolean matrix representation of a binary relation over `0 … n−1`,
/// used by the reference evaluator and by the compiler's wire bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitRelation {
    /// Universe size.
    pub n: usize,
    /// Row-major characteristic vector of length `n²`.
    pub bits: Vec<bool>,
}

impl BitRelation {
    /// The empty relation over a universe of size `n`.
    pub fn empty(n: usize) -> BitRelation {
        BitRelation {
            n,
            bits: vec![false; n * n],
        }
    }

    /// Build from a list of pairs.
    pub fn from_pairs(n: usize, pairs: &[(usize, usize)]) -> BitRelation {
        let mut r = BitRelation::empty(n);
        for &(a, b) in pairs {
            r.set(a, b, true);
        }
        r
    }

    /// Read entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.n + j]
    }

    /// Write entry `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, v: bool) {
        self.bits[i * self.n + j] = v;
    }

    /// The pairs present, in row-major order.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        (0..self.n)
            .flat_map(|i| {
                (0..self.n)
                    .filter(move |&j| self.get(i, j))
                    .map(move |j| (i, j))
            })
            .collect()
    }
}

/// Reference (semantic) evaluation of a query over concrete input relations —
/// what the compiled circuits are checked against.
pub fn eval_reference(query: &RelQuery, inputs: &[BitRelation], n: usize) -> BitRelation {
    eval_ref_inner(query, inputs, n, None)
}

fn eval_ref_inner(
    query: &RelQuery,
    inputs: &[BitRelation],
    n: usize,
    current: Option<&BitRelation>,
) -> BitRelation {
    match query {
        RelQuery::Input(i) => inputs[*i].clone(),
        RelQuery::Current => current
            .expect("Current used outside an IterateLogN body")
            .clone(),
        RelQuery::Empty => BitRelation::empty(n),
        RelQuery::Full => BitRelation {
            n,
            bits: vec![true; n * n],
        },
        RelQuery::Identity => {
            let mut r = BitRelation::empty(n);
            for i in 0..n {
                r.set(i, i, true);
            }
            r
        }
        RelQuery::Union(a, b) => {
            let (ra, rb) = (
                eval_ref_inner(a, inputs, n, current),
                eval_ref_inner(b, inputs, n, current),
            );
            BitRelation {
                n,
                bits: ra
                    .bits
                    .iter()
                    .zip(&rb.bits)
                    .map(|(x, y)| *x || *y)
                    .collect(),
            }
        }
        RelQuery::Intersect(a, b) => {
            let (ra, rb) = (
                eval_ref_inner(a, inputs, n, current),
                eval_ref_inner(b, inputs, n, current),
            );
            BitRelation {
                n,
                bits: ra
                    .bits
                    .iter()
                    .zip(&rb.bits)
                    .map(|(x, y)| *x && *y)
                    .collect(),
            }
        }
        RelQuery::Difference(a, b) => {
            let (ra, rb) = (
                eval_ref_inner(a, inputs, n, current),
                eval_ref_inner(b, inputs, n, current),
            );
            BitRelation {
                n,
                bits: ra
                    .bits
                    .iter()
                    .zip(&rb.bits)
                    .map(|(x, y)| *x && !*y)
                    .collect(),
            }
        }
        RelQuery::Complement(a) => {
            let ra = eval_ref_inner(a, inputs, n, current);
            BitRelation {
                n,
                bits: ra.bits.iter().map(|x| !*x).collect(),
            }
        }
        RelQuery::Transpose(a) => {
            let ra = eval_ref_inner(a, inputs, n, current);
            let mut out = BitRelation::empty(n);
            for i in 0..n {
                for j in 0..n {
                    out.set(i, j, ra.get(j, i));
                }
            }
            out
        }
        RelQuery::Compose(a, b) => {
            let ra = eval_ref_inner(a, inputs, n, current);
            let rb = eval_ref_inner(b, inputs, n, current);
            let mut out = BitRelation::empty(n);
            for i in 0..n {
                for j in 0..n {
                    let any = (0..n).any(|k| ra.get(i, k) && rb.get(k, j));
                    out.set(i, j, any);
                }
            }
            out
        }
        RelQuery::IterateLogN { init, body } => {
            let mut acc = eval_ref_inner(init, inputs, n, current);
            let rounds = usize::BITS - n.leading_zeros();
            for _ in 0..rounds {
                acc = eval_ref_inner(body, inputs, n, Some(&acc));
            }
            acc
        }
    }
}

/// A compiled relation: the wire (gate) ids carrying each of the `n²` bits.
#[derive(Debug, Clone)]
pub struct RelWires {
    /// Universe size.
    pub n: usize,
    /// Row-major gate ids, length `n²`.
    pub wires: Vec<GateId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> BitRelation {
        BitRelation::from_pairs(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
    }

    #[test]
    fn reference_eval_of_basic_operators() {
        let n = 4;
        let r = path(n);
        let id = eval_reference(&RelQuery::Identity, &[], n);
        assert!(id.get(2, 2) && !id.get(2, 3));
        let u = eval_reference(
            &RelQuery::union(RelQuery::Input(0), RelQuery::Identity),
            std::slice::from_ref(&r),
            n,
        );
        assert!(u.get(0, 1) && u.get(3, 3));
        let t = eval_reference(
            &RelQuery::transpose(RelQuery::Input(0)),
            std::slice::from_ref(&r),
            n,
        );
        assert!(t.get(1, 0) && !t.get(0, 1));
        let c = eval_reference(
            &RelQuery::compose(RelQuery::Input(0), RelQuery::Input(0)),
            std::slice::from_ref(&r),
            n,
        );
        assert!(c.get(0, 2) && !c.get(0, 1));
        let d = eval_reference(
            &RelQuery::difference(RelQuery::Full, RelQuery::Input(0)),
            &[r],
            n,
        );
        assert!(!d.get(0, 1) && d.get(1, 0));
    }

    #[test]
    fn transitive_closure_matches_direct_computation() {
        let n = 8;
        let r = path(n);
        let tc = eval_reference(&RelQuery::transitive_closure(RelQuery::Input(0)), &[r], n);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(tc.get(i, j), i < j, "({i},{j})");
            }
        }
    }

    #[test]
    fn nesting_depth_counts_iterations() {
        assert_eq!(RelQuery::Input(0).nesting_depth(), 0);
        assert_eq!(
            RelQuery::transitive_closure(RelQuery::Input(0)).nesting_depth(),
            1
        );
        assert_eq!(RelQuery::nested_depth_k(3).nesting_depth(), 3);
    }

    #[test]
    fn num_inputs_is_computed() {
        let q = RelQuery::union(RelQuery::Input(0), RelQuery::transpose(RelQuery::Input(2)));
        assert_eq!(q.num_inputs(), 3);
    }

    #[test]
    fn bit_relation_round_trips_pairs() {
        let r = BitRelation::from_pairs(5, &[(0, 1), (4, 4)]);
        assert_eq!(r.pairs(), vec![(0, 1), (4, 4)]);
    }
}
