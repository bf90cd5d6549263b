//! Deterministic workload generators for the experiments: graphs, flat
//! relations, unary sets and nested complex objects.
//!
//! All generators are seeded, so every run is reproducible; callers fix the
//! seed per data point.

use crate::relation::Relation;
use ncql_object::{Type, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A path graph `0 → 1 → … → n`.
pub fn path_graph(n: u64) -> Relation {
    Relation::from_pairs((0..n).map(|i| (i, i + 1)))
}

/// A cycle graph on `n` nodes.
pub fn cycle_graph(n: u64) -> Relation {
    Relation::from_pairs((0..n).map(|i| (i, (i + 1) % n.max(1))))
}

/// A complete directed graph (without self-loops) on `n` nodes.
pub fn complete_graph(n: u64) -> Relation {
    Relation::from_pairs((0..n).flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j))))
}

/// A balanced binary tree with `n` nodes, edges parent → child.
pub fn binary_tree(n: u64) -> Relation {
    Relation::from_pairs((1..n).map(|i| ((i - 1) / 2, i)))
}

/// A two-dimensional grid graph with `side × side` nodes, edges to the right and
/// downward neighbours.
pub fn grid_graph(side: u64) -> Relation {
    let mut pairs = Vec::new();
    for r in 0..side {
        for c in 0..side {
            let id = r * side + c;
            if c + 1 < side {
                pairs.push((id, id + 1));
            }
            if r + 1 < side {
                pairs.push((id, id + side));
            }
        }
    }
    Relation::from_pairs(pairs)
}

/// An Erdős–Rényi random directed graph `G(n, p)` with a fixed seed.
pub fn random_graph(n: u64, edge_probability: f64, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.gen_bool(edge_probability.clamp(0.0, 1.0)) {
                pairs.push((i, j));
            }
        }
    }
    Relation::from_pairs(pairs)
}

/// A random binary relation with exactly `tuples` tuples over the universe
/// `0 … n−1` (or fewer if `tuples > n²`).
pub fn random_relation(n: u64, tuples: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = Relation::new();
    let cap = ((n as usize) * (n as usize)).min(tuples);
    let mut attempts = 0;
    while rel.len() < cap && attempts < cap * 20 {
        rel.insert(rng.gen_range(0..n), rng.gen_range(0..n));
        attempts += 1;
    }
    rel
}

/// A random unary set of `k` atoms drawn from `0 … n−1`.
pub fn random_atom_set(n: u64, k: usize, seed: u64) -> Value {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut atoms = std::collections::BTreeSet::new();
    let cap = k.min(n as usize);
    while atoms.len() < cap {
        atoms.insert(rng.gen_range(0..n));
    }
    Value::atom_set(atoms)
}

/// A random complex object of the given type, with sets of at most
/// `max_set_size` elements and atoms drawn from `0 … universe−1`.
pub fn random_value(ty: &Type, universe: u64, max_set_size: usize, seed: u64) -> Value {
    let mut rng = StdRng::seed_from_u64(seed);
    random_value_with(&mut rng, ty, universe, max_set_size)
}

fn random_value_with(rng: &mut StdRng, ty: &Type, universe: u64, max_set_size: usize) -> Value {
    match ty {
        Type::Base => Value::Atom(rng.gen_range(0..universe.max(1))),
        Type::Bool => Value::Bool(rng.gen_bool(0.5)),
        Type::Unit => Value::Unit,
        Type::Nat => Value::Nat(rng.gen_range(0..universe.max(1))),
        Type::Prod(a, b) => Value::pair(
            random_value_with(rng, a, universe, max_set_size),
            random_value_with(rng, b, universe, max_set_size),
        ),
        Type::Set(t) => {
            let size = rng.gen_range(0..=max_set_size);
            Value::set_from((0..size).map(|_| random_value_with(rng, t, universe, max_set_size)))
        }
        Type::Fun(_, _) => Value::Unit,
    }
}

/// A nested "document store" value of type `{(D × {D × D})}`: a set of named
/// sub-relations, the kind of complex object the nested algebra is designed for.
pub fn document_store(groups: u64, edges_per_group: u64, seed: u64) -> Value {
    let mut rng = StdRng::seed_from_u64(seed);
    Value::set_from((0..groups).map(|g| {
        let rel = Value::relation_from_pairs(
            (0..edges_per_group).map(|_| (rng.gen_range(0..16u64), rng.gen_range(0..16u64))),
        );
        Value::pair(Value::Atom(g), rel)
    }))
}

/// The addition table `{((a, b), c) | a + b = c, all below p}`, of type
/// `{((atom * atom) * atom)}`: Proposition 7.8's precomputed arithmetic
/// relation, which queries read like any other input.
pub fn addition_table(p: u64) -> Value {
    arithmetic_table(p, |a, b| a + b)
}

/// The multiplication table `{((a, b), c) | a · b = c, all below p}`.
pub fn multiplication_table(p: u64) -> Value {
    arithmetic_table(p, |a, b| a * b)
}

fn arithmetic_table(p: u64, op: fn(u64, u64) -> u64) -> Value {
    let row = |a, b, c| Value::pair(Value::pair(Value::Atom(a), Value::Atom(b)), Value::Atom(c));
    Value::set_from((0..p).flat_map(|a| {
        (0..p).filter_map(move |b| Some(op(a, b)).filter(|&c| c < p).map(|c| row(a, b, c)))
    }))
}

/// The BIT relation `{(i, j) | bit j of i is 1, i < p}` of type
/// `{(atom * atom)}`: Immerman's BIT predicate as a database relation.
pub fn bit_table(p: u64) -> Value {
    Value::relation_from_pairs((0..p).flat_map(|i| {
        (0..64u64)
            .filter(move |j| (i >> j) & 1 == 1)
            .map(move |j| (i, j))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structured_graphs_have_expected_sizes() {
        assert_eq!(path_graph(5).len(), 5);
        assert_eq!(cycle_graph(5).len(), 5);
        assert_eq!(complete_graph(4).len(), 12);
        assert_eq!(binary_tree(7).len(), 6);
        assert_eq!(grid_graph(3).len(), 12);
    }

    #[test]
    fn random_generators_are_deterministic_per_seed() {
        assert_eq!(random_graph(10, 0.3, 42), random_graph(10, 0.3, 42));
        assert_ne!(random_graph(10, 0.3, 42), random_graph(10, 0.3, 43));
        assert_eq!(random_atom_set(100, 10, 7), random_atom_set(100, 10, 7));
        assert_eq!(
            random_value(&Type::binary_relation(), 16, 8, 3),
            random_value(&Type::binary_relation(), 16, 8, 3)
        );
    }

    #[test]
    fn random_relation_respects_requested_cardinality() {
        let r = random_relation(16, 40, 1);
        assert_eq!(r.len(), 40);
        let small = random_relation(2, 100, 1);
        assert!(small.len() <= 4);
    }

    #[test]
    fn random_values_have_the_requested_type() {
        let ty = Type::set(Type::prod(Type::Base, Type::set(Type::Bool)));
        let v = random_value(&ty, 8, 5, 11);
        assert!(v.has_type(&ty));
    }

    #[test]
    fn document_store_shape() {
        let doc = document_store(3, 5, 9);
        let ty = Type::set(Type::prod(Type::Base, Type::binary_relation()));
        assert!(doc.has_type(&ty));
        assert_eq!(doc.cardinality(), Some(3));
    }

    #[test]
    fn arithmetic_tables_are_correct() {
        for (table, op) in [
            (addition_table(8), (|a, b| a + b) as fn(u64, u64) -> u64),
            (multiplication_table(6), |a, b| a * b),
        ] {
            for row in table.as_set().unwrap().iter() {
                let (key, c) = row.as_pair().unwrap();
                let (a, b) = key.as_pair().unwrap();
                let (a, b) = (a.as_atom().unwrap(), b.as_atom().unwrap());
                assert_eq!(op(a, b), c.as_atom().unwrap());
            }
        }
        assert_eq!(addition_table(8).cardinality(), Some(36));
        let bits = Relation::from_value(&bit_table(8)).unwrap();
        assert!(bits.contains(5, 0));
        assert!(!bits.contains(5, 1));
        assert!(bits.contains(5, 2));
        assert!(bits.contains(4, 2));
        assert!(!bits.contains(0, 0));
    }

    #[test]
    fn tables_have_flat_types() {
        let row = Type::prod(Type::prod(Type::Base, Type::Base), Type::Base);
        assert!(addition_table(4).has_type(&Type::set(row.clone())));
        assert!(multiplication_table(4).has_type(&Type::set(row)));
        assert!(bit_table(4).has_type(&Type::binary_relation()));
    }
}
